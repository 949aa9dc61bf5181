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
from .matrix import expand as _expand_tables
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


def _unary(name: str, fn) -> NamedConnective:
    return NamedConnective(name, 1, {(a,): fn(a) for a in VALUES})


def _binary(name: str, fn) -> NamedConnective:
    return NamedConnective(
        name, 2, {(a, b): fn(a, b) for a in VALUES for b in VALUES})


def _nullary(name: str, value: str) -> NamedConnective:
    return NamedConnective(name, 0, {(): value})


NOT = _unary("not", lambda a: {"t": "f", "f": "t"}.get(a, a))
AND = _binary("and", meet)
OR = _binary("or", join)
IMPL = _binary("impl", lambda a, b: "t" if a not in DESIGNATED else b)
BOT = _nullary("bot", "f")
DELTA = _unary("delta", lambda a: "t" if a in ("t", "b") else "f")
CIRC = _unary("circ", lambda a: "t" if a in ("t", "f") else "f")
CONS = _unary("cons", lambda a: "f" if a == "b" else "t")
DET = _unary("det", lambda a: "f" if a == "n" else "t")
CONFL = _unary("confl", lambda a: {"b": "n", "n": "b"}.get(a, a))
B_CONST = _nullary("B", "b")
N_CONST = _nullary("N", "n")

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
    return _unary(f"heart_{tag}", lambda a: "t" if a in members else "f")


def bd_matrix() -> Matrix:
    sig = Signature({"not": 1, "and": 2, "or": 2})
    return Matrix(VALUES, DESIGNATED, sig,
                  {"not": NOT.table, "and": AND.table, "or": OR.table})


def expand(m: Matrix, *connectives: NamedConnective) -> Matrix:
    names = [c.name for c in connectives]
    if len(names) != len(set(names)):
        raise DuplicateConnectiveError("repeated connective in expansion")
    return _expand_tables(
        m,
        {c.name: c.table for c in connectives},
        {c.name: c.arity for c in connectives},
    )


# ---------------------------------------------------------------------------
# The strongly regular four-valued family

SR_SIGNATURE = Signature({"not": 1, "and": 2, "or": 2, "impl": 2, "bot": 0})


def _sr_designated(conn: str, args: tuple[str, ...]) -> bool:
    d = tuple(a in DESIGNATED for a in args)
    if conn == "not":
        return args[0] in ("f", "b")
    if conn == "and":
        return d[0] and d[1]
    if conn == "or":
        return d[0] or d[1]
    return (not d[0]) or d[1]  # impl


def _classical(designated: bool) -> str:
    return "t" if designated else "f"


def _nonclassical(designated: bool) -> str:
    return "b" if designated else "n"


def _free_cells() -> list[tuple[str, tuple[str, ...]]]:
    cells: list[tuple[str, tuple[str, ...]]] = [("not", ("b",)), ("not", ("n",))]
    for conn in ("and", "or", "impl"):
        for a1 in VALUES:
            for a2 in VALUES:
                if a1 in ("t", "f") and a2 in ("t", "f"):
                    continue
                cells.append((conn, (a1, a2)))
    return cells


FREE_CELLS = _free_cells()
SR_BITS = len(FREE_CELLS)  # 38


def count_strongly_regular() -> int:
    """Family size: two choices for each free cell."""
    return 2 ** SR_BITS


def is_strongly_regular(m: Matrix) -> bool:
    if dict(m.signature.connectives) != dict(SR_SIGNATURE.connectives):
        return False
    if set(m.values) != set(VALUES) or m.designated != DESIGNATED:
        return False
    if m.tables["bot"][()] != "f":
        return False
    for conn in ("not", "and", "or", "impl"):
        k = m.signature.arity(conn)
        for args in itertools.product(VALUES, repeat=k):
            out = m.tables[conn][args]
            if (out in DESIGNATED) != _sr_designated(conn, args):
                return False
            if all(a in ("t", "f") for a in args) and out not in ("t", "f"):
                return False
    return True


def sr_decode(index: int) -> Matrix:
    if not 0 <= index < count_strongly_regular():
        raise IndexOutOfRangeError(f"index {index} is not below 2^{SR_BITS}")
    tables: dict = {"bot": {(): "f"}, "not": {}, "and": {}, "or": {}, "impl": {}}
    for bit, (conn, args) in enumerate(FREE_CELLS):
        d = _sr_designated(conn, args)
        choice = (index >> bit) & 1
        tables[conn][args] = _nonclassical(d) if choice else _classical(d)
    tables["not"][("t",)] = "f"
    tables["not"][("f",)] = "t"
    for conn in ("and", "or", "impl"):
        for args in itertools.product(("t", "f"), repeat=2):
            tables[conn][args] = _classical(_sr_designated(conn, args))
    return Matrix(VALUES, DESIGNATED, SR_SIGNATURE, tables)


def sr_encode(m: Matrix) -> int:
    if not is_strongly_regular(m):
        raise NotStronglyRegularError("matrix is not strongly regular")
    index = 0
    for bit, (conn, args) in enumerate(FREE_CELLS):
        out = m.tables[conn][args]
        if out in ("b", "n"):
            index |= 1 << bit
    return index


def bd_impl_bot_matrix() -> Matrix:
    """The base matrix expanded with implication and falsity.

    Carrier order follows the family convention so the matrix can be
    encoded directly.
    """
    return expand(bd_matrix(), IMPL, BOT)
