"""Equivalence-law evaluation over the strongly regular family.

Each law is a schema in metavariables A, A1, A2.  Because evaluation is
compositional and consequence structural, a schema holds for all formulas
iff it holds with the metavariables read as distinct fresh propositional
variables, which is how `holds` decides it.  A law's two sides are
compiled once, at its first check, into one generated function with a
statement per step (`Law.kernel`, built by `matrix.pair_kernel`).
`holds`, `holds_countermodel` and the filter's verification run through
it; a matrix too large for it goes to `matrix._first_index`, the general
kernel and the tests' oracle.  The family filter walks decision trees
over the 38 free table cells, one per law instance, built once
(`Law.trees`), to propagate the chosen laws; where it stalls, it branches
on the cell at which the first undecided instance's walk stops.
The filter then re-verifies the survivors (or a sample of `SAMPLE_SIZE`,
when there are more than `VERIFY_LIMIT`) with `holds`, once per law and
class of survivors that agree on the free cells of the law's connectives
(`Law.free_cells`).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional

from .bd import (
    CELLS, FREE_BITS, FREE_CELLS, SR_BITS, VALUES, count_strongly_regular,
    sr_decode)
from .errors import UnknownNameError
from .matrix import Matrix, Program, assignments, compile_formulas, pair_kernel
from .syntax import BOT, TOP, Formula, Var, conj, disj, impl, neg

# The filter re-verifies every survivor up to this many, else a sample.
VERIFY_LIMIT = 4096
SAMPLE_SIZE = 64

_A = Var("A")
_A1 = Var("A1")
_A2 = Var("A2")


@dataclass(frozen=True)
class Law:
    name: str
    lhs: Formula
    rhs: Formula

    @cached_property
    def program(self) -> Program:
        """Both sides compiled once, to run on every matrix checked."""
        return compile_formulas([self.lhs, self.rhs])

    @cached_property
    def kernel(self) -> Callable[[Matrix], Optional[int]]:
        """The program's `matrix.pair_kernel`, built at the first check."""
        return pair_kernel(self.program)

    @cached_property
    def trees(self) -> tuple:
        """(decision tree, free cells it reads) per law instance: one per
        assignment of values to the law's variables, in `itertools.product`
        order.  A tree is True (sat), False (violated) or (cell, tree if 0,
        tree if 1): the steps run once per path, branching at a free cell
        new to it."""
        steps, (lhs, rhs) = self.program.steps, self.program.slots

        def grow(k: int, vals: list, path: dict, cells: set):
            for k in range(k, len(steps)):
                conn, args = steps[k]
                key = (conn, tuple(map(vals.__getitem__, args)))
                cell = FREE_BITS.get(key)
                if cell is not None and cell not in path:
                    cells.add(cell)
                    v0, v1 = CELLS[key]
                    return (cell,
                            grow(k + 1, vals + [v0], path | {cell: 0}, cells),
                            grow(k + 1, vals + [v1], path | {cell: 1}, cells))
                vals.append(CELLS[key][path.get(cell, 0)])
            return vals[lhs] == vals[rhs]

        trees = []
        for combo in itertools.product(VALUES, repeat=len(self.program.names)):
            cells: set = set()
            trees.append((grow(0, list(combo), {}, cells),
                          tuple(sorted(cells))))
        return tuple(trees)

    @cached_property
    def free_cells(self) -> int:
        """The bits of the family index that the law's connectives read."""
        names = {conn for conn, _ in self.program.connectives}
        return sum(1 << bit for bit, (conn, _) in enumerate(FREE_CELLS)
                   if conn in names)


TABLE2_LAWS: tuple[Law, ...] = (
    Law("and-false", conj(_A, BOT), BOT),
    Law("and-true", conj(_A, TOP), _A),
    Law("and-idempotent", conj(_A, _A), _A),
    Law("and-commutative", conj(_A1, _A2), conj(_A2, _A1)),
    Law("de-morgan-and", neg(conj(_A1, _A2)), disj(neg(_A1), neg(_A2))),
    Law("double-negation", neg(neg(_A)), _A),
    Law("contradiction-implies",
        impl(conj(_A1, impl(_A1, BOT)), _A2), TOP),
    Law("or-true", disj(_A, TOP), TOP),
    Law("or-false", disj(_A, BOT), _A),
    Law("or-idempotent", disj(_A, _A), _A),
    Law("or-commutative", disj(_A1, _A2), disj(_A2, _A1)),
    Law("de-morgan-or", neg(disj(_A1, _A2)), conj(neg(_A1), neg(_A2))),
    Law("excluded-middle-implies",
        impl(disj(_A1, impl(_A1, BOT)), _A2), _A2),
)

# Classical laws from which the two implication laws of the table above
# classically follow.  Only the first three fail in the implication-falsity
# expansion (countermodel A -> b in each case); the last two hold there as
# well, since bot -> A evaluates to t everywhere and ~bot -> A evaluates
# to A everywhere.
CLASSICAL_ONLY_LAWS: tuple[Law, ...] = (
    Law("neg-as-impl", neg(_A), impl(_A, BOT)),
    Law("and-contradiction", conj(_A, neg(_A)), BOT),
    Law("or-excluded-middle", disj(_A, neg(_A)), TOP),
    Law("false-implies", impl(BOT, _A), TOP),
    Law("true-implies", impl(TOP, _A), _A),
)

FAILING_CLASSICAL_LAWS: tuple[Law, ...] = CLASSICAL_ONLY_LAWS[:3]
HOLDING_CLASSICAL_LAWS: tuple[Law, ...] = CLASSICAL_ONLY_LAWS[3:]

_ALL_LAWS = {law.name: law for law in TABLE2_LAWS + CLASSICAL_ONLY_LAWS}


def law_by_name(name: str) -> Law:
    try:
        return _ALL_LAWS[name]
    except KeyError:
        raise UnknownNameError(f"unknown law {name!r}") from None


def holds_countermodel(m: Matrix, law: Law) -> Optional[dict]:
    """First assignment refuting the law; `SignatureMismatchError` names the
    first connective of the law that the matrix does not interpret."""
    index = law.kernel(m)
    return None if index is None else next(
        assignments(m, law.program.names, index))


def holds(m: Matrix, law: Law) -> bool:
    return law.kernel(m) is None


# ---------------------------------------------------------------------------
# Family filter

@dataclass
class FilterResult:
    """Disjoint cubes of family indices surviving a law set."""

    cubes: list

    @property
    def count(self) -> int:
        return sum(2 ** cube.count(None) for cube in self.cubes)

    @property
    def is_all(self) -> bool:
        return self.count == count_strongly_regular()

    def indices(self) -> Iterator[int]:
        for cube in sorted(self.cubes,
                           key=lambda c: [(-1 if b is None else b) for b in c]):
            free = [i for i, b in enumerate(cube) if b is None]
            base = sum(b << i for i, b in enumerate(cube) if b)
            for combo in itertools.product((0, 1), repeat=len(free)):
                yield base + sum(v << free[i] for i, v in enumerate(combo))

    def __contains__(self, index: int) -> bool:
        return type(index) is int and 0 <= index < 1 << SR_BITS and any(
            all(b is None or ((index >> i) & 1) == b
                for i, b in enumerate(cube)) for cube in self.cubes)

    def sample(self, k: int, seed: int = 0) -> list[int]:
        rng = random.Random(seed)
        totals = [2 ** cube.count(None) for cube in self.cubes]
        out = []
        for _ in range(min(k, sum(totals))):
            cube = rng.choices(self.cubes, weights=totals)[0]
            out.append(sum((rng.getrandbits(1) if b is None else b) << i
                           for i, b in enumerate(cube)))
        return out


def _walk(tree, bits: list):
    """The leaf the pinned cells lead to, or the node of an unpinned cell."""
    while tree is not True and tree is not False and bits[tree[0]] is not None:
        tree = tree[1 + bits[tree[0]]]
    return tree


def _propagate(bits: list, trees: list, watchers: list, dirty: set):
    """Pin the cells that law instances force, walking the trees of the dirty
    instances and of those reading a cell just pinned, until none is: a
    walk stopped at a cell forces it when just one value leads to False.
    Unit propagation is confluent, so any order reaches the same fixpoint.
    False if an instance is violated, None if all hold, else the cell at
    which the first undecided instance's walk stops."""
    while dirty:
        node = _walk(trees[dirty.pop()], bits)
        if node is False:
            return False
        if node is not True:
            cell, low, high = node
            low, high = _walk(low, bits) is False, _walk(high, bits) is False
            if low and high:
                return False
            if low or high:
                bits[cell] = 1 if low else 0
                dirty |= watchers[cell]
    stops = (_walk(tree, bits) for tree in trees)
    return next((node[0] for node in stops if node is not True), None)


def filter_strongly_regular(laws: Iterable[Law]) -> FilterResult:
    """Family members satisfying every law.

    Propagation over the laws' trees pins or branches free cells; the
    result is re-verified with `holds`, exhaustively when at most
    `VERIFY_LIMIT` members survive, otherwise on a deterministic sample of
    `SAMPLE_SIZE`.  Each law is checked once per class of those members
    that agree on the free cells of its connectives, and the first member
    failing a law raises AssertionError.
    """
    laws = list(laws)
    trees, watchers = [], [set() for _ in range(SR_BITS)]
    for i, (tree, cells) in enumerate(t for law in laws for t in law.trees):
        trees.append(tree)
        for cell in cells:
            watchers[cell].add(i)
    cubes: list = []

    def solve(bits: list, dirty: set):
        cell = _propagate(bits, trees, watchers, dirty)
        if cell is None:
            cubes.append(tuple(bits))
        elif cell is not False:
            for v in (0, 1):
                solve(bits[:cell] + [v] + bits[cell + 1:], set(watchers[cell]))

    solve([None] * SR_BITS, set(range(len(trees))))
    result = FilterResult(cubes)
    survivors = (list(result.indices()) if result.count <= VERIFY_LIMIT
                 else result.sample(SAMPLE_SIZE))
    # A law reads only its connectives' tables, so one `holds` per law
    # decides every survivor that agrees on those connectives' free cells.
    verdicts: dict = {}
    for index in survivors:
        m = None
        for k, law in enumerate(laws):
            key = (k, index & law.free_cells)
            if key not in verdicts:
                if m is None:
                    m = sr_decode(index)
                verdicts[key] = holds(m, law)
            if not verdicts[key]:
                raise AssertionError(
                    f"propagation kept index {index} that fails verification")
    return result
