"""Finite logical matrices: valuations, consequence, clones, simplicity.

A matrix is a finite carrier of truth values, a designated subset, and one
tabulated interpretation per connective.  Consequence and equivalence are
decided by exhaustive enumeration of assignments; term-function clones are
generated to a fixpoint with minimal-size witness formulas.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import (
    ArityCapError,
    DegenerateDesignatedError,
    DuplicateConnectiveError,
    FdekitError,
    NotClosedError,
    SignatureMismatchError,
    UnboundVariableError,
)
from .syntax import App, Formula, Signature, Var, formula_key, variables

DEFAULT_ARITY_CAP = 2


def arity_cap() -> int:
    return int(os.environ.get("FDEKIT_ARITY_CAP", DEFAULT_ARITY_CAP))


@dataclass(frozen=True)
class Matrix:
    """A finite logical matrix.

    `values` fixes the enumeration order of the carrier, `tables` maps each
    connective name to a dict from argument-name tuples to a value name
    (nullary connectives use the empty tuple as key).
    """

    values: tuple[str, ...]
    designated: frozenset[str]
    signature: Signature
    tables: Mapping[str, Mapping[tuple[str, ...], str]]

    def __post_init__(self):
        carrier = set(self.values)
        if len(self.values) != len(carrier):
            raise ValueError("duplicate truth-value names")
        if not (self.designated and self.designated < carrier):
            raise ValueError("designated set must be non-empty and proper")
        for name, k in self.signature.connectives.items():
            table = self.tables.get(name)
            if table is None:
                raise ValueError(f"missing table for connective {name!r}")
            if set(table) != set(itertools.product(self.values, repeat=k)):
                raise ValueError(f"table for {name!r} has the wrong shape")
            if not set(table.values()) <= carrier:
                raise ValueError(f"table for {name!r} leaves the carrier")

    def index(self, value: str) -> int:
        return self.values.index(value)

    @cached_property
    def simple(self) -> bool:
        """Simplicity, decided once per matrix (see `simplicity`)."""
        return simplicity(self)[0]


def evaluate(m: Matrix, f: Formula, assignment: Mapping[str, str]) -> str:
    """Compositional value of f under the assignment."""
    if isinstance(f, Var):
        try:
            return assignment[f.name]
        except KeyError:
            raise UnboundVariableError(f"variable {f.name!r} is unbound") from None
    table = m.tables.get(f.conn)
    if table is None or m.signature.arity(f.conn) != len(f.args):
        raise SignatureMismatchError(
            f"connective {f.conn!r} not interpreted with arity {len(f.args)}")
    return table[tuple(evaluate(m, a, assignment) for a in f.args)]


def assignments(m: Matrix, names: Iterable[str]) -> Iterator[dict]:
    """All assignments, variables in sorted name order, values in carrier order."""
    ordered = sorted(set(names))
    for combo in itertools.product(m.values, repeat=len(ordered)):
        yield dict(zip(ordered, combo))


def _vars_of(formulas: Iterable[Formula]) -> set:
    out: set = set()
    for f in formulas:
        out |= variables(f)
    return out


def consequence_countermodel(
    m: Matrix, gamma: Iterable[Formula], delta: Iterable[Formula]
) -> Optional[dict]:
    """First assignment (in enumeration order) refuting gamma |= delta."""
    gamma, delta = list(gamma), list(delta)
    for a in assignments(m, _vars_of(gamma + delta)):
        if all(evaluate(m, f, a) in m.designated for f in gamma) and not any(
            evaluate(m, f, a) in m.designated for f in delta
        ):
            return a
    return None


def consequence(m: Matrix, gamma: Iterable[Formula], delta: Iterable[Formula]) -> bool:
    return consequence_countermodel(m, gamma, delta) is None


def equivalence_countermodel(m: Matrix, a: Formula, b: Formula) -> Optional[dict]:
    """First assignment on which a and b take different values."""
    for asg in assignments(m, variables(a) | variables(b)):
        if evaluate(m, a, asg) != evaluate(m, b, asg):
            return asg
    return None


def equivalent(m: Matrix, a: Formula, b: Formula) -> bool:
    return equivalence_countermodel(m, a, b) is None


# ---------------------------------------------------------------------------
# Term-function clones


@dataclass(frozen=True)
class TermFunction:
    """A tabulated function carrier^arity -> carrier with a witness formula.

    The flat table is indexed by the radix-|carrier| encoding of the
    argument tuple (first argument most significant); witnesses use the
    variables p1..pn.
    """

    arity: int
    table: tuple[str, ...]
    witness: Formula

    def apply(self, m: Matrix, args: Sequence[str]) -> str:
        idx = 0
        for a in args:
            idx = idx * len(m.values) + m.index(a)
        return self.table[idx]


def _witness_size(f: Formula) -> int:
    if isinstance(f, Var):
        return 1
    return 1 + sum(_witness_size(a) for a in f.args)


def _flat_table(m: Matrix, name: str) -> tuple[int, ...]:
    """Connective table as value indices in radix order."""
    k = m.signature.arity(name)
    table = m.tables[name]
    return tuple(
        m.index(table[combo])
        for combo in itertools.product(m.values, repeat=k)
    )


def _check_generators(m: Matrix, generators: Iterable[str]) -> list[str]:
    gens = sorted(set(generators))
    for g in gens:
        if g not in m.signature:
            raise SignatureMismatchError(f"generator {g!r} not in the signature")
    return gens


class _CloneBuilder:
    """Closure of projections and generator compositions, as index tables."""

    def __init__(self, m: Matrix, n: int, generators: Iterable[str]):
        self.m = m
        self.n = n
        self.nvals = len(m.values)
        self.npoints = self.nvals ** n
        self.gens = _check_generators(m, generators)
        self.gen_tables = {g: _flat_table(m, g) for g in self.gens}
        self.found: dict[tuple[int, ...], Formula] = {}
        self.order: list[tuple[int, ...]] = []

    def _add(self, table: tuple[int, ...], witness: Formula) -> bool:
        if table in self.found:
            return False
        self.found[table] = witness
        self.order.append(table)
        return True

    def _seeds(self) -> list[tuple[tuple[int, ...], Formula]]:
        seeds = []
        for i in range(self.n):
            stride = self.nvals ** (self.n - 1 - i)
            table = tuple(
                (p // stride) % self.nvals for p in range(self.npoints)
            )
            seeds.append((table, Var(f"p{i + 1}")))
        for g in self.gens:
            if self.m.signature.arity(g) == 0:
                const = self.gen_tables[g][0]
                seeds.append(((const,) * self.npoints, App(g, ())))
        return seeds

    def _compose(self, g: str, args: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
        gtab = self.gen_tables[g]
        nv = self.nvals
        if len(args) == 1:
            a0 = args[0]
            return tuple(gtab[a0[p]] for p in range(self.npoints))
        if len(args) == 2:
            a0, a1 = args
            return tuple(
                gtab[a0[p] * nv + a1[p]] for p in range(self.npoints)
            )
        return tuple(
            gtab[_radix([a[p] for a in args], nv)] for p in range(self.npoints)
        )

    def close(self, target: Optional[tuple[int, ...]] = None) -> bool:
        """Run the closure; stop early (returning True) if target appears."""
        for table, wit in self._seeds():
            if self._add(table, wit) and table == target:
                return True
        frontier = 0
        while frontier < len(self.order):
            new_from = frontier
            frontier = len(self.order)
            for g in self.gens:
                k = self.m.signature.arity(g)
                if k == 0:
                    continue
                for combo in itertools.product(range(frontier), repeat=k):
                    # only combinations touching the newest batch are unseen
                    if max(combo) < new_from:
                        continue
                    args = [self.order[i] for i in combo]
                    table = self._compose(g, args)
                    if table not in self.found:
                        witness = App(
                            g, tuple(self.found[self.order[i]] for i in combo)
                        )
                        self._add(table, witness)
                        if table == target:
                            return True
        return target in self.found

    def minimal_witnesses(self) -> dict[tuple[int, ...], Formula]:
        """Recompute witnesses breadth-first by witness size.

        Ties are broken by connective name, then by argument discovery
        order, so the witness kept for each table is reproducible.
        """
        remaining = set(self.found)
        wit: dict[tuple[int, ...], Formula] = {}
        by_size: dict[int, list[tuple[int, ...]]] = {1: []}

        def settle(table, witness, size):
            if table in remaining:
                remaining.discard(table)
                wit[table] = witness
                by_size.setdefault(size, []).append(table)

        for table, witness in self._seeds():
            settle(table, witness, 1)
        size = 2
        while remaining and size <= 64:
            for g in self.gens:
                k = self.m.signature.arity(g)
                if k == 0:
                    continue
                for sizes in _compositions(size - 1, k):
                    pools = [by_size.get(s, []) for s in sizes]
                    if not all(pools):
                        continue
                    for args in itertools.product(*pools):
                        table = self._compose(g, args)
                        if table in remaining:
                            settle(table, App(g, tuple(wit[a] for a in args)),
                                   size)
            size += 1
        # pathologically deep witnesses: keep the discovery-order ones
        for table in remaining:
            wit[table] = self.found[table]
        return wit


def _radix(digits: Sequence[int], base: int) -> int:
    idx = 0
    for d in digits:
        idx = idx * base + d
    return idx


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Ordered tuples of positive ints summing to total, lexicographic."""
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for head in range(1, total - parts + 2):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _named_tables(m: Matrix, idx_tables: Mapping[tuple[int, ...], Formula],
                  n: int) -> set[TermFunction]:
    return {
        TermFunction(n, tuple(m.values[i] for i in table), witness)
        for table, witness in idx_tables.items()
    }


def term_functions(m: Matrix, n: int, generators: Iterable[str],
                   cap: Optional[int] = None) -> set[TermFunction]:
    """All n-ary term functions over the generators, with minimal witnesses."""
    if n < 0:
        raise ValueError("arity must be non-negative")
    limit = arity_cap() if cap is None else cap
    if n > limit:
        raise ArityCapError(
            f"arity {n} exceeds the cap {limit}; raise FDEKIT_ARITY_CAP "
            "or pass a larger cap")
    builder = _CloneBuilder(m, n, generators)
    builder.close()
    return _named_tables(m, builder.minimal_witnesses(), n)


def unary_term_functions(m: Matrix, generators: Iterable[str]) -> set[TermFunction]:
    return term_functions(m, 1, generators, cap=max(1, arity_cap()))


def find_term_function(m: Matrix, n: int, generators: Iterable[str],
                       target: Sequence[str],
                       cap: Optional[int] = None) -> Optional[TermFunction]:
    """Search the clone for a specific table, stopping as soon as it appears.

    Returns None only after the full fixpoint has been reached.
    """
    limit = arity_cap() if cap is None else cap
    if n > limit:
        raise ArityCapError(
            f"arity {n} exceeds the cap {limit}; raise FDEKIT_ARITY_CAP "
            "or pass a larger cap")
    builder = _CloneBuilder(m, n, generators)
    idx_target = tuple(m.index(v) for v in target)
    if builder.close(target=idx_target):
        return TermFunction(n, tuple(target), builder.found[idx_target])
    return None


# ---------------------------------------------------------------------------
# Simplicity

def simplicity(m: Matrix) -> tuple[bool, dict[frozenset, TermFunction]]:
    """Decide simplicity via unary separation.

    The all-arity quantification in the definition of a simple matrix
    reduces to the unary case: tuples differing at position i are separated
    by composing a unary separator for the differing pair with the i-th
    projection, so a matrix is simple iff every pair of distinct values is
    separated (w.r.t. designatedness) by some unary term function.

    Returns (simple?, separator per unordered pair); pairs with no
    separator are absent from the map.
    """
    funcs = sorted(
        unary_term_functions(m, m.signature.connectives),
        key=lambda tf: (_witness_size(tf.witness), formula_key(tf.witness)),
    )
    separators: dict[frozenset, TermFunction] = {}
    simple = True
    for a, b in itertools.combinations(m.values, 2):
        for tf in funcs:
            fa = tf.apply(m, (a,)) in m.designated
            fb = tf.apply(m, (b,)) in m.designated
            if fa != fb:
                separators[frozenset((a, b))] = tf
                break
        else:
            simple = False
    return simple, separators


def is_simple(m: Matrix) -> bool:
    return simplicity(m)[0]


# ---------------------------------------------------------------------------
# Expansion and restriction

def is_expansion(m2: Matrix, m1: Matrix) -> bool:
    """True iff m2 adds connectives to m1 without touching anything else."""
    if m2.values != m1.values or m2.designated != m1.designated:
        return False
    if not m2.signature.extends(m1.signature):
        return False
    return all(m2.tables[name] == m1.tables[name]
               for name in m1.signature.connectives)


def expand(m: Matrix, additions: Mapping[str, Mapping[tuple[str, ...], str]],
           arities: Mapping[str, int]) -> Matrix:
    """New matrix with extra tables; existing connectives are untouchable."""
    for name in additions:
        if name in m.signature:
            raise DuplicateConnectiveError(f"connective {name!r} already present")
    sig = Signature({**m.signature.connectives, **arities})
    return Matrix(m.values, m.designated, sig, {**m.tables, **additions})


def restrict(m: Matrix, sub: Iterable[str]) -> Matrix:
    """Submatrix on a table-closed subset of the carrier."""
    keep = [v for v in m.values if v in set(sub)]
    keep_set = set(keep)
    tables = {}
    for name, k in m.signature.connectives.items():
        table = {}
        for combo in itertools.product(keep, repeat=k):
            out = m.tables[name][combo]
            if out not in keep_set:
                raise NotClosedError(
                    f"{name}{combo!r} = {out!r} leaves the subset")
            table[combo] = out
        tables[name] = table
    designated = m.designated & keep_set
    if not designated or designated == keep_set:
        raise DegenerateDesignatedError(
            "restriction leaves an empty or full designated set")
    return Matrix(tuple(keep), frozenset(designated), m.signature, tables)


# ---------------------------------------------------------------------------
# JSON interchange

def matrix_to_json(m: Matrix) -> dict:
    def nest(name: str, k: int, prefix: tuple[str, ...]):
        if k == 0:
            return m.tables[name][prefix]
        return [nest(name, k - 1, prefix + (v,)) for v in m.values]

    return {
        "values": list(m.values),
        "designated": sorted(m.designated, key=m.values.index),
        "connectives": {
            name: {"arity": k, "table": nest(name, k, ())}
            for name, k in sorted(m.signature.connectives.items())
        },
    }


def matrix_from_json(data) -> Matrix:
    """Inverse of `matrix_to_json`; malformed input raises FdekitError."""
    def need(ok: bool, what: str) -> None:
        if not ok:
            raise FdekitError(f"malformed matrix: {what}")

    def names(x) -> bool:
        return isinstance(x, list) and all(isinstance(v, str) for v in x)

    need(isinstance(data, dict), "a matrix must be an object")
    need(names(data.get("values")), "'values' must be a list of strings")
    need(names(data.get("designated")),
         "'designated' must be a list of strings")
    connectives = data.get("connectives")
    need(isinstance(connectives, dict), "'connectives' must be an object")
    values = tuple(data["values"])
    tables = {}
    arities = {}
    for name, entry in connectives.items():
        need(isinstance(entry, dict) and "table" in entry,
             f"connective {name!r} needs a 'table'")
        k = entry.get("arity")
        need(type(k) is int and k >= 0,
             f"the arity of {name!r} must be a non-negative integer")
        arities[name] = k
        table = {}

        def walk(node, prefix):
            if len(prefix) == k:
                need(isinstance(node, str),
                     f"table entries of {name!r} must be strings")
                table[prefix] = node
                return
            need(isinstance(node, list) and len(node) == len(values),
                 f"malformed table for {name!r}")
            for v, child in zip(values, node):
                walk(child, prefix + (v,))

        walk(entry["table"], ())
        tables[name] = table
    return Matrix(values, frozenset(data["designated"]), Signature(arities),
                  tables)


def load_matrix(path: str) -> Matrix:
    with open(path) as fh:
        return matrix_from_json(json.load(fh))
