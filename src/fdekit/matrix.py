"""Finite logical matrices: valuations, consequence, clones, simplicity.

A matrix is a finite carrier of truth values, a designated subset, and one
tabulated interpretation per connective.  One kernel computes truth tables
as value vectors (a value index per point, in `itertools.product` order) for
consequence, equivalence and clone closure with minimal-size witnesses.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
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
    (nullary connectives use the empty tuple as key).  They are copied into
    read-only mappings, so no cached property goes stale.
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
        tables = {}
        for name, k in self.signature.connectives.items():
            table = self.tables.get(name)
            if table is None:
                raise ValueError(f"missing table for connective {name!r}")
            if set(table) != set(itertools.product(self.values, repeat=k)):
                raise ValueError(f"table for {name!r} has the wrong shape")
            if not set(table.values()) <= carrier:
                raise ValueError(f"table for {name!r} leaves the carrier")
            tables[name] = MappingProxyType(dict(table))
        object.__setattr__(self, "tables", MappingProxyType(tables))

    @cached_property
    def index_tables(self) -> Mapping[str, tuple[int, ...]]:
        """Each table as value indices, its argument tuples in radix order
        (first argument most significant)."""
        return MappingProxyType({
            name: tuple(self.values.index(self.tables[name][args])
                        for args in itertools.product(self.values, repeat=k))
            for name, k in self.signature.connectives.items()})

    @cached_property
    def simple(self) -> bool:
        """Simplicity, decided once per matrix (see `simplicity`)."""
        return simplicity(self)[0]


def _interpreted(m: Matrix, f: App) -> None:
    if m.signature.connectives.get(f.conn) != len(f.args):
        raise SignatureMismatchError(
            f"connective {f.conn!r} not interpreted with arity {len(f.args)}")


def evaluate(m: Matrix, f: Formula, assignment: Mapping[str, str]) -> str:
    """Compositional value of f under the assignment."""
    if isinstance(f, Var):
        try:
            return assignment[f.name]
        except KeyError:
            raise UnboundVariableError(f"variable {f.name!r} is unbound") from None
    _interpreted(m, f)
    return m.tables[f.conn][tuple(evaluate(m, a, assignment) for a in f.args)]


def assignments(m: Matrix, names: Iterable[str]) -> Iterator[dict]:
    """All assignments, variables in sorted name order, values in carrier order."""
    ordered = sorted(set(names))
    for combo in itertools.product(m.values, repeat=len(ordered)):
        yield dict(zip(ordered, combo))


def _projections(nvals: int, k: int) -> list[tuple[int, ...]]:
    """The vectors of k variables, the first one most significant."""
    return [
        tuple(v for v in range(nvals) for _ in range(nvals ** (k - 1 - i)))
        * nvals ** i
        for i in range(k)
    ]


def _compose(table: tuple[int, ...], nvals: int, npoints: int,
             args: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
    """A connective's index table applied pointwise to argument vectors."""
    if not args:
        return (table[0],) * npoints
    if len(args) == 1:
        return tuple(map(table.__getitem__, args[0]))
    if len(args) == 2:
        return tuple([table[x * nvals + y] for x, y in zip(*args)])
    return tuple(table[_radix(point, nvals)] for point in zip(*args))


def _radix(digits: Iterable[int], base: int) -> int:
    idx = 0
    for d in digits:
        idx = idx * base + d
    return idx


# Variables that vary within one block of points: a vector covers one block
# at a time, so memory stays bounded however many variables a query has.
_BLOCK_VARS = 8


def _blocks(m: Matrix, formulas: Sequence[Formula]) -> Iterator[tuple]:
    """(assignments, each formula's vector) per block of points, in order."""
    names = sorted(set().union(*map(variables, formulas)))
    nvals, lead = len(m.values), max(0, len(names) - _BLOCK_VARS)
    npoints = nvals ** (len(names) - lead)
    tail = _projections(nvals, len(names) - lead)
    points = assignments(m, names)
    for prefix in itertools.product(range(nvals), repeat=lead):
        columns = dict(zip(names, [(v,) * npoints for v in prefix] + tail))
        yield (itertools.islice(points, npoints),
               [_vector(m, f, columns, npoints) for f in formulas])


def _vector(m: Matrix, f: Formula, columns: Mapping[str, tuple[int, ...]],
            npoints: int) -> tuple[int, ...]:
    """f's value vector, given the vectors of its variables."""
    if isinstance(f, Var):
        return columns[f.name]
    _interpreted(m, f)
    return _compose(m.index_tables[f.conn], len(m.values), npoints,
                    [_vector(m, a, columns, npoints) for a in f.args])


def consequence_countermodel(
    m: Matrix, gamma: Iterable[Formula], delta: Iterable[Formula]
) -> Optional[dict]:
    """First assignment (in enumeration order) refuting gamma |= delta."""
    gamma, delta = list(gamma), list(delta)
    designated, n = [v in m.designated for v in m.values], len(gamma)
    for points, vectors in _blocks(m, gamma + delta):
        for a, *values in zip(points, *vectors):
            if all(designated[v] for v in values[:n]) and not any(
                designated[v] for v in values[n:]
            ):
                return a
    return None


def consequence(m: Matrix, gamma: Iterable[Formula], delta: Iterable[Formula]) -> bool:
    return consequence_countermodel(m, gamma, delta) is None


def equivalence_countermodel(m: Matrix, a: Formula, b: Formula) -> Optional[dict]:
    """First assignment on which a and b take different values."""
    for points, (va, vb) in _blocks(m, [a, b]):
        for asg, x, y in zip(points, va, vb):
            if x != y:
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
        return self.table[_radix(map(m.values.index, args), len(m.values))]


def _witness_size(f: Formula) -> int:
    if isinstance(f, Var):
        return 1
    return 1 + sum(_witness_size(a) for a in f.args)


class _CloneBuilder:
    """Closure of projections and generator compositions, as value vectors."""

    def __init__(self, m: Matrix, n: int, generators: Iterable[str],
                 cap: Optional[int]):
        if n < 0:
            raise ValueError("arity must be non-negative")
        limit = arity_cap() if cap is None else cap
        if n > limit:
            raise ArityCapError(
                f"arity {n} exceeds the cap {limit}; raise FDEKIT_ARITY_CAP "
                "or pass a larger cap")
        gens = sorted(set(generators))
        for g in gens:
            if g not in m.signature:
                raise SignatureMismatchError(f"generator {g!r} not in the signature")
        self.nvals = len(m.values)
        self.npoints = self.nvals ** n
        self.found: dict[tuple[int, ...], Formula] = {}
        self.order: list[tuple[int, ...]] = []
        self.seeds = [(table, Var(f"p{i + 1}"))
                      for i, table in enumerate(_projections(self.nvals, n))]
        self.seeds += [((m.index_tables[g][0],) * self.npoints, App(g, ()))
                       for g in gens if m.signature.arity(g) == 0]
        # generators of positive arity: (name, index table, arity)
        self.ops = [(g, m.index_tables[g], m.signature.arity(g))
                    for g in gens if m.signature.arity(g) > 0]

    def _add(self, table: tuple[int, ...], witness: Formula) -> bool:
        if table in self.found:
            return False
        self.found[table] = witness
        self.order.append(table)
        return True

    def close(self, target: Optional[tuple[int, ...]] = None) -> bool:
        """Run the closure; stop early (returning True) if target appears."""
        for table, wit in self.seeds:
            if self._add(table, wit) and table == target:
                return True
        frontier = 0
        while frontier < len(self.order):
            new_from = frontier
            frontier = len(self.order)
            for g, gtab, k in self.ops:
                for combo in itertools.product(range(frontier), repeat=k):
                    # only combinations touching the newest batch are unseen
                    if max(combo) < new_from:
                        continue
                    args = [self.order[i] for i in combo]
                    table = _compose(gtab, self.nvals, self.npoints, args)
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

        for table, witness in self.seeds:
            settle(table, witness, 1)
        size = 2
        while remaining and size <= 64:
            for g, gtab, k in self.ops:
                for sizes in _compositions(size - 1, k):
                    pools = [by_size.get(s, []) for s in sizes]
                    if not all(pools):
                        continue
                    for args in itertools.product(*pools):
                        table = _compose(gtab, self.nvals, self.npoints, args)
                        if table in remaining:
                            settle(table, App(g, tuple(wit[a] for a in args)),
                                   size)
            size += 1
        # pathologically deep witnesses: keep the discovery-order ones
        for table in remaining:
            wit[table] = self.found[table]
        return wit


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Ordered tuples of positive ints summing to total, lexicographic."""
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for head in range(1, total - parts + 2):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def term_functions(m: Matrix, n: int, generators: Iterable[str],
                   cap: Optional[int] = None) -> set[TermFunction]:
    """All n-ary term functions over the generators, with minimal witnesses."""
    builder = _CloneBuilder(m, n, generators, cap)
    builder.close()
    return {TermFunction(n, tuple(m.values[i] for i in table), witness)
            for table, witness in builder.minimal_witnesses().items()}


def unary_term_functions(m: Matrix, generators: Iterable[str]) -> set[TermFunction]:
    return term_functions(m, 1, generators, cap=max(1, arity_cap()))


def find_term_function(m: Matrix, n: int, generators: Iterable[str],
                       target: Sequence[str],
                       cap: Optional[int] = None) -> Optional[TermFunction]:
    """Search the clone for a specific table, stopping as soon as it appears.

    Returns None only after the full fixpoint has been reached.
    """
    builder = _CloneBuilder(m, n, generators, cap)
    idx_target = tuple(map(m.values.index, target))
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
    pairs = list(itertools.combinations(m.values, 2))
    for a, b in pairs:
        for tf in funcs:
            fa = tf.apply(m, (a,)) in m.designated
            fb = tf.apply(m, (b,)) in m.designated
            if fa != fb:
                separators[frozenset((a, b))] = tf
                break
    return len(separators) == len(pairs), separators


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
