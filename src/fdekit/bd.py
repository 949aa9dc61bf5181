"""The four-valued base matrix, its named expansions, and the strongly
regular family.

Truth values t, f, b, n are ordered with f least, t greatest, and b, n
incomparable; conjunction is the meet and disjunction the join of that
lattice.  A 38-bit index addresses one member of the strongly regular
family of {not, and, or, impl, bot}-matrices.  A member is a 53-byte
word, its index tables joined: member 0's word XOR one patch per byte of
the index, and a matrix's word XOR member 0's reads its index back.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Optional

from .errors import (
    DuplicateConnectiveError,
    IndexOutOfRangeError,
    InvalidInputError,
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
    return NamedConnective(name, arity, MappingProxyType({
        args: fn(*args) for args in itertools.product(VALUES, repeat=arity)}))


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


def _index_table(c: NamedConnective, values: tuple[str, ...]) -> list[int]:
    """c's table as an index table over `values`; a cell outside them gets
    an index that `Matrix` refuses."""
    position = {v: i for i, v in enumerate(values)}
    cells = list(itertools.product(values, repeat=c.arity))
    if c.table.keys() != set(cells):
        raise InvalidInputError(f"table for {c.name!r} has the wrong shape")
    return [position.get(c.table[args], len(values)) for args in cells]


@functools.cache  # a matrix is immutable, so one is shared
def bd_matrix() -> Matrix:
    sig = Signature({"not": 1, "and": 2, "or": 2})
    return Matrix(VALUES, DESIGNATED, sig, {
        c.name: _index_table(c, VALUES) for c in (NOT, AND, OR)})


def expand(m: Matrix, *connectives: NamedConnective) -> Matrix:
    """m with the named connectives added after its own, in order; a name
    already present or repeated raises DuplicateConnectiveError."""
    arities, tables = dict(m.signature.connectives), dict(m.index_tables)
    for c in connectives:
        if c.name in arities:
            raise DuplicateConnectiveError(
                f"connective {c.name!r} already present")
        arities[c.name], tables[c.name] = c.arity, _index_table(c, m.values)
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
FREE_BITS = {cell: bit for bit, cell in enumerate(FREE_CELLS)}
SR_BITS = len(FREE_CELLS)  # 38


def count_strongly_regular() -> int:
    """Family size: two choices for each free cell."""
    return 2 ** SR_BITS


# A member's word: its index tables joined in `SR_SIGNATURE` order, 53
# bytes read as one big-endian int; each table's (start, stop) in it.
_ENDS = list(itertools.accumulate(
    len(VALUES) ** k for k in SR_SIGNATURE.connectives.values()))
_SPANS = dict(zip(SR_SIGNATURE.connectives, zip([0, *_ENDS], _ENDS)))


@functools.cache
def _layout(values: tuple[str, ...]) -> tuple[int, list]:
    """For one order of the values: member 0's word, and per byte of the
    index (its first bit, its patches, the dict from patch to byte, the mask
    of its free cells); patch j XORs the changes of the free cells j sets."""
    position = {v: i for i, v in enumerate(values)}
    cells = [(conn, args) for conn, k in SR_SIGNATURE.connectives.items()
             for args in itertools.product(values, repeat=k)]
    word = int.from_bytes(bytes([position[CELLS[c][0]] for c in cells]), "big")
    shift = {c: 8 * i for i, c in enumerate(reversed(cells))}
    chunks = []
    for lo in range(0, SR_BITS, 8):
        free, patches = FREE_CELLS[lo:lo + 8], [0]
        for c in free:  # doubled per bit
            delta = (position[CELLS[c][0]] ^ position[CELLS[c][1]]) << shift[c]
            patches += [patch ^ delta for patch in patches]
        chunks.append((lo, patches, {p: j for j, p in enumerate(patches)},
                       sum(255 << shift[c] for c in free)))
    return word, chunks


def _member_index(m: Matrix) -> Optional[int]:
    """m's index, or None if its word XOR member 0's is no patch on some
    byte's free cells, or keeps a bit (a forced cell's) once they are out."""
    if (m.signature.connectives != SR_SIGNATURE.connectives
            or set(m.values) != set(VALUES) or m.designated != DESIGNATED):
        return None
    word, chunks = _layout(tuple(m.values))
    word ^= int.from_bytes(b"".join(map(m.index_tables.get, _SPANS)), "big")
    index = 0
    for lo, patches, found, mask in chunks:
        j = found.get(word & mask)
        if j is None:
            return None
        word ^= patches[j]
        index |= j << lo
    return None if word else index


def is_strongly_regular(m: Matrix) -> bool:
    return _member_index(m) is not None


def sr_decode(index: int) -> Matrix:
    """Member 0's word with one patch XORed in per byte of the index."""
    if type(index) is not int:  # a bool is no family index
        raise IndexOutOfRangeError(f"index {index!r} is not an integer")
    if not 0 <= index < count_strongly_regular():
        raise IndexOutOfRangeError(
            f"index {index} is outside 0..2^{SR_BITS}-1")
    word, chunks = _layout(VALUES)
    for lo, patches, _, _ in chunks:
        word ^= patches[index >> lo & 255]
    data = word.to_bytes(_ENDS[-1], "big")
    return Matrix(VALUES, DESIGNATED, SR_SIGNATURE,
                  {conn: data[a:b] for conn, (a, b) in _SPANS.items()})


def sr_encode(m: Matrix) -> int:
    index = _member_index(m)
    if index is None:
        raise NotStronglyRegularError("matrix is not strongly regular")
    return index
