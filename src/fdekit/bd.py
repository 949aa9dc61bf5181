"""The four-valued base matrix, its named expansions, and the strongly
regular family.

Truth values t, f, b, n are ordered with f least, t greatest, and b, n
incomparable; conjunction is the meet and disjunction the join of that
lattice.  A 38-bit index addresses one member of the strongly regular
family of {not, and, or, impl, bot}-matrices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import (
    DuplicateConnectiveError,
    IndexOutOfRangeError,
    NotStronglyRegularError,
    UnknownNameError,
)
from .matrix import Matrix
from .syntax import Signature

VALUES: tuple[str, ...] = ("t", "f", "b", "n")
DESIGNATED = frozenset(("t", "b"))

# f < b < t and f < n < t; encode each value as a pair of bits so the meet
# and join are componentwise.
_BITS = {"t": (1, 1), "b": (1, 0), "n": (0, 1), "f": (0, 0)}
_FROM_BITS = {v: k for k, v in _BITS.items()}


def leq(a: str, b: str) -> bool:
    x, y = _BITS[a], _BITS[b]
    return x[0] <= y[0] and x[1] <= y[1]


def meet(a: str, b: str) -> str:
    x, y = _BITS[a], _BITS[b]
    return _FROM_BITS[(x[0] & y[0], x[1] & y[1])]


def join(a: str, b: str) -> str:
    x, y = _BITS[a], _BITS[b]
    return _FROM_BITS[(x[0] | y[0], x[1] | y[1])]


@dataclass(frozen=True)
class NamedConnective:
    name: str
    arity: int
    table: Mapping[tuple[str, ...], str]


def _connective(name: str, arity: int, fn) -> NamedConnective:
    return NamedConnective(name, arity, {
        args: fn(*args) for args in itertools.product(VALUES, repeat=arity)})


NOT = _connective("not", 1, lambda a: {"t": "f", "f": "t"}.get(a, a))
AND = _connective("and", 2, meet)
OR = _connective("or", 2, join)
IMPL = _connective("impl", 2, lambda a, b: "t" if a not in DESIGNATED else b)
BOT = _connective("bot", 0, lambda: "f")
DELTA = _connective("delta", 1, lambda a: "t" if a in ("t", "b") else "f")
CIRC = _connective("circ", 1, lambda a: "t" if a in ("t", "f") else "f")
CONS = _connective("cons", 1, lambda a: "f" if a == "b" else "t")
DET = _connective("det", 1, lambda a: "f" if a == "n" else "t")
CONFL = _connective("confl", 1, lambda a: {"b": "n", "n": "b"}.get(a, a))
B_CONST = _connective("B", 0, lambda: "b")
N_CONST = _connective("N", 0, lambda: "n")

_NAMED = {
    c.name: c
    for c in (NOT, AND, OR, IMPL, BOT, DELTA, CIRC, CONS, DET, CONFL,
              B_CONST, N_CONST)
}


def named(name: str) -> NamedConnective:
    try:
        return _NAMED[name]
    except KeyError:
        raise UnknownNameError(f"unknown connective name {name!r}") from None


def heart(subset: Iterable[str]) -> NamedConnective:
    """The unary connective mapping members of the subset to t, the rest to f."""
    members = frozenset(subset)
    unknown = members - set(VALUES)
    if unknown:
        raise UnknownNameError(f"not truth values: {sorted(unknown)!r}")
    tag = "".join(v for v in VALUES if v in members) or "0"
    return _connective(f"heart_{tag}", 1,
                       lambda a: "t" if a in members else "f")


def bd_matrix() -> Matrix:
    sig = Signature({"not": 1, "and": 2, "or": 2})
    return Matrix(VALUES, DESIGNATED, sig,
                  {"not": NOT.table, "and": AND.table, "or": OR.table})


def expand(m: Matrix, *connectives: NamedConnective) -> Matrix:
    """m with the named connectives added after its own, in order; a name
    already present or repeated raises DuplicateConnectiveError."""
    arities, tables = dict(m.signature.connectives), dict(m.tables)
    for c in connectives:
        if c.name in arities:
            raise DuplicateConnectiveError(
                f"connective {c.name!r} already present")
        arities[c.name], tables[c.name] = c.arity, c.table
    return Matrix(m.values, m.designated, Signature(arities), tables)


# ---------------------------------------------------------------------------
# The strongly regular four-valued family

SR_SIGNATURE = Signature({"not": 1, "and": 2, "or": 2, "impl": 2, "bot": 0})


def _outputs(c: NamedConnective, args: tuple[str, ...]) -> tuple[str, ...]:
    d = c.table[args] in DESIGNATED
    classical = "t" if d else "f"
    if all(a in ("t", "f") for a in args):
        return (classical,)
    return classical, "b" if d else "n"


# Allowed outputs of every table cell of the family: the one value of a
# forced cell, or (classical, non-classical) for a free cell.  Each output
# is designated exactly when the implication-falsity expansion's value is.
CELLS: dict[tuple[str, tuple[str, ...]], tuple[str, ...]] = {
    (c.name, args): _outputs(c, args)
    for c in (NOT, AND, OR, IMPL, BOT) for args in c.table
}
FREE_CELLS = [cell for cell, outputs in CELLS.items() if len(outputs) == 2]
SR_BITS = len(FREE_CELLS)  # 38


def count_strongly_regular() -> int:
    """Family size: two choices for each free cell."""
    return 2 ** SR_BITS


def is_strongly_regular(m: Matrix) -> bool:
    if dict(m.signature.connectives) != dict(SR_SIGNATURE.connectives):
        return False
    if set(m.values) != set(VALUES) or m.designated != DESIGNATED:
        return False
    return all(m.tables[conn][args] in outputs
               for (conn, args), outputs in CELLS.items())


# Each cell's first output: the tables of member 0, which every member
# shares outside its set bits.
_FIRST_OUTPUTS: dict[str, dict[tuple[str, ...], str]] = {
    conn: {args: CELLS[conn, args][0]
           for args in itertools.product(VALUES, repeat=k)}
    for conn, k in SR_SIGNATURE.connectives.items()}


def sr_decode(index: int) -> Matrix:
    if not 0 <= index < count_strongly_regular():
        raise IndexOutOfRangeError(f"index {index} is not below 2^{SR_BITS}")
    tables = {conn: dict(table) for conn, table in _FIRST_OUTPUTS.items()}
    for bit, (conn, args) in enumerate(FREE_CELLS):
        if (index >> bit) & 1:
            tables[conn][args] = CELLS[conn, args][1]
    return Matrix(VALUES, DESIGNATED, SR_SIGNATURE, tables)


def sr_encode(m: Matrix) -> int:
    if not is_strongly_regular(m):
        raise NotStronglyRegularError("matrix is not strongly regular")
    index = 0
    for bit, cell in enumerate(FREE_CELLS):
        conn, args = cell
        if m.tables[conn][args] != CELLS[cell][0]:
            index |= 1 << bit
    return index
