"""Finite logical matrices: valuations, consequence, clones, simplicity.

A matrix is a finite carrier of truth values, a designated subset, and one
interpretation per connective, stored as an index table of value indices: its
only table form, checked and padded once by the constructor.  `evaluate` (the
independent oracle, which walks a formula as a tree with an explicit stack,
so at any depth) reads one cell at a time; `is_expansion` and `restrict`
relist the tables over another order or subset of the values.  One kernel
computes truth tables as value vectors for consequence, equivalence and the
law checks, points in `itertools.product` order, and a carrier has at most
256 values.  Formulas are compiled once, without recursion, into a flat
`Program` with one step per distinct subterm, which `_first_index` runs on
any matrix in one loop over blocks of at most `_BLOCK_POINTS` points, in one
of two vector forms chosen once per query.  A program of at most
`_PLANE_POINTS` points runs on `bytes`, one value index per point, and a step
applies a connective by `bytes.translate`.  A larger one runs on bit planes,
ints of one bit per point: bit p of plane j is bit j of the value index at
point p, and a step is a few bitwise operations synthesised from the
connective's table (`Matrix.circuits`; a table of more than 256 cells keeps
its matrix on bytes).  A query's mask reads the vectors in place, by the
program's slots, and the kernel answers with the index of the first point it
selects, on planes its lowest set bit: the boolean answers (`consequence`,
`equivalent`) build no assignment, and only a countermodel's point becomes
one, decoded from its index by `assignments`.
A program of two formulas that runs on many matrices, a law's, can be
turned once by `pair_kernel` into one generated function with a statement
per step, so no step is dispatched at run time; above `_PLANE_POINTS`
points, or with a table of more than 256 cells, it goes to `_first_index`,
which runs every other query and is its oracle.
One closure, `subpower`, computes the subuniverse of a power of the carrier
generated by the projections p1..pn restricted to some rows (points of
carrier^n), in order of witness size, so every witness it reports has the
least size: the n-ary clone is the one on all the rows, and two values are
separated by a unary polynomial iff the one on the rows (a, 0, ..., n-1)
and (b, 0, ..., n-1) holds a pair with exactly one designated component,
which decides simplicity (Leibniz reducedness); the closure on the rows
(a) and (b), of unary terms only, is tried first.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .errors import (
    ArityCapError,
    DegenerateDesignatedError,
    FdekitError,
    InvalidInputError,
    NotClosedError,
    SignatureMismatchError,
    UnboundVariableError,
)
from .syntax import App, Formula, Signature, Var

# The largest clone arity: an n-ary clone is a subset of
# carrier^(|carrier|^n), far too large at arity 3 over four values.
MAX_CLONE_ARITY = 2


@dataclass(frozen=True)
class Matrix:
    """A finite logical matrix.

    `values` fixes the enumeration order of the carrier.  Each table is an
    index table: `bytes` holding the value index of each argument tuple in
    radix order (first argument most significant), given as any sequence
    of those indices (`matrix_from_json` gives a list).  The values are
    kept as a tuple and every mapping is read-only, so no cached property
    goes stale; `byte_tables`, the tables padded to 256 cells, is no field.
    """

    values: tuple[str, ...]
    designated: frozenset[str]
    signature: Signature
    index_tables: Mapping[str, Sequence[int]]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        values, carrier, nvals = self.values, set(self.values), len(self.values)
        if nvals != len(carrier):
            raise InvalidInputError("duplicate truth-value names")
        if nvals > 256:
            raise InvalidInputError("more than 256 truth values")
        if not isinstance(self.designated, (set, frozenset)):
            raise InvalidInputError("designated set must be a set of values")
        if not (self.designated and self.designated < carrier):
            _known(values, self.designated)
            raise InvalidInputError(
                "designated set must be non-empty and proper")
        indices, tables, padded = bytes(range(nvals)), {}, {}
        for name, k in self.signature.connectives.items():
            table = self.index_tables.get(name)
            if table is None:
                raise InvalidInputError(
                    f"missing table for connective {name!r}")
            if (type(table) is not bytes and not isinstance(table, Sequence)
                    or len(table) != nvals ** k):
                raise InvalidInputError(
                    f"table for {name!r} has the wrong shape")
            try:  # a negative, non-integer or too large index fails `bytes`
                table = bytes(table)
                if len(table) == nvals ** k and not table.translate(
                        None, indices):  # a byte per cell, in the carrier
                    tables[name], padded[name] = table, table.ljust(256, b"\0")
                    continue
            except (TypeError, ValueError):
                pass
            raise InvalidInputError(f"table for {name!r} leaves the carrier")
        object.__setattr__(self, "designated", frozenset(self.designated))
        object.__setattr__(self, "index_tables", MappingProxyType(tables))
        object.__setattr__(self, "byte_tables", MappingProxyType(padded))

    def __hash__(self) -> int:
        return hash((self.values, self.designated, self.signature,
                     frozenset(self.index_tables.items())))

    @cached_property
    def byte_designated(self) -> bytes:
        """1 at each designated value's index, padded to 256 cells."""
        return bytes(v in self.designated
                     for v in self.values).ljust(256, b"\0")

    @cached_property
    def circuits(self) -> Optional[tuple[Callable, Mapping[str, Callable]]]:
        """The designated set's and each connective's circuit (see
        `_circuit`), built for the first query above `_PLANE_POINTS`; None
        if a table has more than 256 cells: the matrix stays on bytes."""
        if any(len(t) > 256 for t in self.index_tables.values()):
            return None
        nvals, arity = len(self.values), self.signature.arity
        return (_circuit(self.byte_designated, nvals, 1),
                MappingProxyType({n: _circuit(t, nvals, arity(n))
                                  for n, t in self.index_tables.items()}))

    @cached_property
    def simple(self) -> bool:
        """Simplicity, decided once per matrix (see `simplicity`)."""
        return simplicity(self)[0]


def _known(values: tuple[str, ...], names: Iterable[str]) -> None:
    unknown = sorted(map(repr, set(names).difference(values)))
    if unknown:
        raise InvalidInputError(
            f"not truth values of the matrix: {', '.join(unknown)}")


def _interpreted(m: Matrix, conn: str, arity: int) -> None:
    if m.signature.connectives.get(conn) != arity:
        raise SignatureMismatchError(
            f"connective {conn!r} not interpreted with arity {arity}")


def evaluate(m: Matrix, f: Formula, assignment: Mapping[str, str]) -> str:
    """Compositional value of f under the assignment, walked as a tree
    without recursion: an application's connective is checked when it is
    met, before its arguments, which are valued left to right.  Every
    value the assignment gives must be a truth value of m."""
    for value in assignment.values():
        if value not in m.values:
            raise InvalidInputError(
                f"{value!r} is not a truth value of the matrix")
    conns, nvals, indices = m.signature.connectives, len(m.values), []
    # formulas to value, and (index table, arity) where a table is to be
    # applied to the last `arity` value indices
    stack: list = [f]
    while stack:
        g = stack.pop()
        if type(g) is Var:
            try:
                indices.append(m.values.index(assignment[g.name]))
            except KeyError:
                raise UnboundVariableError(
                    f"variable {g.name!r} is unbound") from None
        elif type(g) is App:
            args = g.args
            if conns.get(g.conn) != len(args):
                _interpreted(m, g.conn, len(args))
            stack.append((m.index_tables[g.conn], len(args)))
            stack += args[::-1]
        else:
            table, first = g[0], len(indices) - g[1]
            indices[first:] = [table[_radix(indices[first:], nvals)]]
    return m.values[indices[0]]


def assignments(m: Matrix, names: Iterable[str],
                start: int = 0) -> Iterator[dict]:
    """Assignments from index `start` on, a `map` of `_assignment` (one
    digit per variable, read from the index): variables in sorted name
    order, the first most significant, values in carrier order.  The
    countermodel functions decode their one point through it too."""
    ordered = tuple(sorted(set(names)))
    return map(functools.partial(_assignment, m.values, ordered),
               range(start, len(m.values) ** len(ordered)))


def _assignment(values: tuple, ordered: tuple, index: int) -> dict:
    """The assignment of index `index` to the sorted names `ordered`."""
    nvals, place, out = len(values), len(values) ** len(ordered), {}
    for name in ordered:
        place //= nvals
        out[name] = values[index // place % nvals]
    return out


@functools.cache
def _projections(nvals: int, k: int) -> tuple[bytes, ...]:
    """The vectors of k variables, the first one most significant; nvals^k
    is at most `_BLOCK_POINTS`, so the cache stays small."""
    return tuple(b"".join(bytes([v]) * nvals ** (k - 1 - i)
                          for v in range(nvals)) * nvals ** i
                 for i in range(k))


@functools.cache
def _plane_projections(nvals: int, k: int) -> tuple[tuple[int, ...], ...]:
    """`_projections` as planes: plane j reads bit j of each byte as a
    binary digit (an ASCII 0 or 1), point 0 the least significant."""
    digits = [bytes(48 + (x >> j & 1) for x in range(256))
              for j in range((nvals - 1).bit_length())]
    return tuple(tuple(int(v[::-1].translate(d), 2) for d in digits)
                 for v in _projections(nvals, k))


def _compose(table: bytes, nvals: int, npoints: int,
             args: Sequence[bytes]) -> bytes:
    """A connective's byte table applied pointwise to argument vectors; one
    of at most 256 cells translates their radix-nvals packing (no carries)."""
    if len(table) > 256:
        return bytes(table[_radix(point, nvals)] for point in zip(*args))
    if len(args) == 1:
        return args[0].translate(table)
    packed = 0
    for a in args:
        packed = packed * nvals + int.from_bytes(a, "big")
    return packed.to_bytes(npoints, "big").translate(table)


def _radix(digits: Iterable[int], base: int) -> int:
    idx = 0
    for d in digits:
        idx = idx * base + d
    return idx


def _synthesised(cells: dict[int, int], inputs: list[int]) -> str:
    """An expression in the planes x<t> (t in `inputs`) and the all-ones
    plane M that has bit cells[w] at each input word w in `cells` (bit t of
    w is x<t>'s), by Shannon expansion: inputs the cells do not depend on,
    given the don't-cares (the other words), go first, and then it splits
    on the first input, as an XOR if a cofactor is the other's complement."""
    if 1 not in cells.values():
        return "0"
    if 0 not in cells.values():
        return "M"
    for t in inputs[::-1]:  # low and high end as the first input's cofactors
        low = {w: b for w, b in cells.items() if not w >> t & 1}
        high = {w ^ 1 << t: b for w, b in cells.items() if w >> t & 1}
        if all(low.get(w, b) == b for w, b in high.items()):
            return _synthesised(low | high, [u for u in inputs if u != t])
    x, rest = f"x{t}", inputs[1:]
    flipped = {w: 1 - b for w, b in high.items()}
    if all(low.get(w, b) == b for w, b in flipped.items()):
        e = _synthesised(low | flipped, rest)
        return x if e == "0" else f"({x} ^ {e})"
    e0, e1 = _synthesised(low, rest), _synthesised(high, rest)
    if e0 == "0":
        return x if e1 == "M" else f"({x} & {e1})"
    if e1 == "0":
        return f"({e0} & ~{x})"
    if e1 == "M":
        return f"({x} | {e0})"
    if e0 == "M":
        return f"({e1} | {x} ^ M)"
    return f"({e1} & {x} | {e0} & ~{x})"


def _circuit(table: Sequence[int], nvals: int, arity: int) -> Callable:
    """A table of value indices, of at most 256 cells, on planes: a function
    of the all-ones plane and its arguments' planes, in order, that returns
    the result's planes.  A value's code is its index; codes no value has
    are don't-cares.  The source holds only the synthesiser's tokens."""
    width = (nvals - 1).bit_length()
    inputs = range(arity * width)
    words = [sum(v << a * width for a, v in enumerate(args))
             for args in itertools.product(range(nvals), repeat=arity)]
    planes = [_synthesised({w: v >> j & 1 for w, v in zip(words, table)},
                           list(inputs)) for j in range(width)]
    return eval(f"lambda M{''.join(f', x{t}' for t in inputs)}: "
                f"({', '.join(planes)},)", {"__builtins__": {}})


@dataclass(frozen=True)
class Program:
    """Formulas compiled for the kernel, one step per distinct subterm.

    Slot i holds the vector of `names[i]` (the variables, sorted) and slot
    len(names) + j the result of `steps[j]`, a connective applied to the
    vectors in its argument slots; each step comes after its arguments, and
    `slots` gives each formula's slot.  `connectives` holds each (name,
    arity) in pre-order of first appearance, so a matrix that interprets
    some of them wrongly is refused for the first one `evaluate` meets.
    """

    names: tuple[str, ...]
    steps: tuple[tuple[str, tuple[int, ...]], ...]
    slots: tuple[int, ...]
    connectives: tuple[tuple[str, int], ...]


def compile_formulas(formulas: Iterable[Formula]) -> Program:
    """The formulas as one program, one step per distinct subterm, built
    without recursion: equal subterms are one object (formulas are
    interned), so the walk keys what it has compiled by the object, visits
    each object once and walks a shared DAG once.  A step is kept as its
    App until the end, when every object gets its slot, so no step builds
    a list of its own."""
    formulas = list(formulas)
    # compiled App -> None, in order of completion, so in step order:
    # depth first, an App is met again only after it is compiled
    compiled: dict = {}
    variables: dict[str, Var] = {}
    connectives: dict[tuple[str, int], None] = {}
    stack: list = formulas[::-1]
    while stack:
        f = stack.pop()
        if f is None:  # the App below has all its arguments compiled
            compiled[stack.pop()] = None
        elif type(f) is Var:
            variables[f.name] = f
        elif f not in compiled:
            connectives[f.conn, len(f.args)] = None
            stack += (f, None, *reversed(f.args))
    names = sorted(variables)
    slot = {variables[name]: i for i, name in enumerate(names)}
    slot.update(zip(compiled, itertools.count(len(names))))
    at = slot.__getitem__
    return Program(tuple(names),
                   tuple([(f.conn, tuple(map(at, f.args))) for f in compiled]),
                   tuple(map(at, formulas)), tuple(connectives))


# Points of one block: a vector covers one block at a time, so memory stays
# bounded however many variables a query has and however many values.
_BLOCK_POINTS = 4 ** 8
# Programs of more points run on planes; smaller ones never build circuits.
_PLANE_POINTS = 256


class _Mask(NamedTuple):
    """The points a query selects, from a block's vectors and the slots of
    its formulas: on bytes, given its point count, one big-endian byte per
    point; on planes, given its all-ones plane, point p at bit p."""

    on_bytes: Callable[[list[bytes], tuple[int, ...], int], int]
    on_planes: Callable[[list[tuple[int, ...]], tuple[int, ...], int], int]


def _first_index(m: Matrix, program: Program, mask: _Mask) -> Optional[int]:
    """The index of the first point that the mask selects, in one loop over
    blocks built in order: each block fixes the fewest leading variables
    that leave it at most `_BLOCK_POINTS` points, so a program of at most
    that many is one block.  A program of more than `_PLANE_POINTS` points
    runs on planes if the matrix has circuits, any other on bytes."""
    conns = m.signature.connectives
    for conn, arity in program.connectives:
        if conns.get(conn) != arity:
            _interpreted(m, conn, arity)
    nvals, k, lead = len(m.values), len(program.names), 0
    npoints = nvals ** k
    planes = npoints > _PLANE_POINTS and m.circuits is not None
    while npoints > _BLOCK_POINTS:
        lead += 1
        npoints //= nvals
    if planes:
        circuits, width = m.circuits[1], (nvals - 1).bit_length()
        ones, tail = (1 << npoints) - 1, _plane_projections(nvals, k - lead)
    else:
        tail = _projections(nvals, k - lead)
    for i, prefix in enumerate(itertools.product(range(nvals), repeat=lead)):
        if planes:  # bit p of plane j is bit j of the index at point p
            vectors = [tuple(ones * (v >> j & 1) for j in range(width))
                       for v in prefix]
            vectors += tail
            for conn, args in program.steps:
                vectors.append(circuits[conn](
                    ones, *[plane for a in args for plane in vectors[a]]))
            bits = mask.on_planes(vectors, program.slots, ones)
            if bits:
                return i * npoints + (bits & -bits).bit_length() - 1
        else:
            vectors = [bytes([v]) * npoints for v in prefix]
            vectors += tail
            bits = _block(program, m.byte_tables, nvals, npoints, vectors,
                          mask.on_bytes)
            if bits:
                return (i + 1) * npoints - 1 - (bits.bit_length() - 1) // 8
    return None


def _block(program: Program, tables: Mapping[str, bytes], nvals: int,
           npoints: int, vectors: list[bytes],
           mask: Callable[[list[bytes], tuple[int, ...], int], int]) -> int:
    """mask(the block's vectors, the program's slots, npoints) on one
    block, given its variables' `vectors`; steps of arity 0-2 inline
    `_compose`."""
    append, from_bytes = vectors.append, int.from_bytes
    for conn, args in program.steps:
        table = tables[conn]
        if len(args) == 2 and len(table) == 256:
            a, b = args
            append((from_bytes(vectors[a], "big") * nvals
                    + from_bytes(vectors[b], "big")).to_bytes(
                        npoints, "big").translate(table))
        elif len(args) == 1:
            append(vectors[args[0]].translate(table))
        elif not args:
            append(table[:1] * npoints)
        else:
            append(_compose(table, nvals, npoints, [vectors[a] for a in args]))
    return mask(vectors, program.slots, npoints)


def _refuting(m: Matrix, gamma: Iterable, delta: Iterable) -> tuple:
    """gamma + delta compiled, and the mask of the points refuting it."""
    gamma, delta = list(gamma), list(delta)
    designated = m.byte_designated
    def on_bytes(vectors: list[bytes], slots: tuple, npoints: int) -> int:
        bits = int.from_bytes(b"\1" * npoints, "big")
        for i, s in enumerate(slots):
            held = int.from_bytes(vectors[s].translate(designated), "big")
            bits &= held if i < len(gamma) else ~held
        return bits
    def on_planes(vectors: list[tuple], slots: tuple, ones: int) -> int:
        bits, held_at = ones, m.circuits[0]
        for i, s in enumerate(slots):
            held = held_at(ones, *vectors[s])[0]
            bits &= held if i < len(gamma) else ~held
        return bits
    return compile_formulas(gamma + delta), _Mask(on_bytes, on_planes)


def consequence_countermodel(
    m: Matrix, gamma: Iterable[Formula], delta: Iterable[Formula]
) -> Optional[dict]:
    """First assignment (in enumeration order) refuting gamma |= delta."""
    program, mask = _refuting(m, gamma, delta)
    index = _first_index(m, program, mask)
    return None if index is None else next(
        assignments(m, program.names, index))


def consequence(m: Matrix, gamma: Iterable[Formula], delta: Iterable[Formula]) -> bool:
    return _first_index(m, *_refuting(m, gamma, delta)) is None


def _differing(vectors: list[bytes], slots: tuple, _npoints: int) -> int:
    a, b = vectors[slots[0]], vectors[slots[1]]
    return 0 if a == b else int.from_bytes(a, "big") ^ int.from_bytes(b, "big")


_DIFFERING = _Mask(_differing, lambda vectors, slots, _ones: functools.reduce(
    int.__or__, map(int.__xor__, vectors[slots[0]], vectors[slots[1]])))


def pair_kernel(program: Program) -> Callable[[Matrix], Optional[int]]:
    """`_first_index(m, program, _DIFFERING)` as a function of m, for a
    program of two formulas that runs on many matrices, such as a law's.
    Its steps become one generated function (`_pair_source`), compiled
    here, once; the signature check, the differing test and the index
    arithmetic stay in this code.  A matrix on which the program has more
    than `_PLANE_POINTS` points, or one of its connectives a table of more
    than 256 cells, goes to `_first_index`."""
    namespace: dict = {"__builtins__": {}, "F": int.from_bytes}
    exec(compile(_pair_source(program), "<pair kernel>", "exec"), namespace)
    steps, connectives = namespace["steps"], program.connectives
    names = tuple(dict.fromkeys(conn for conn, _ in connectives))
    k = len(program.names)
    widest = max([arity for _, arity in connectives], default=0)
    # nvals -> the arguments after the tables, or () for `_first_index`
    fixed: dict[int, tuple] = {}
    checked = None  # the last signature found to interpret the program

    def first_index(m: Matrix) -> Optional[int]:
        nonlocal checked
        if m.signature is not checked:
            conns = m.signature.connectives
            for conn, arity in connectives:
                if conns.get(conn) != arity:
                    _interpreted(m, conn, arity)
            checked = m.signature
        nvals = len(m.values)
        args = fixed.get(nvals)
        if args is None:  # the variables' vectors and ints, once per nvals
            args = ()
            if nvals ** k <= _PLANE_POINTS and nvals ** widest <= 256:
                vectors = _projections(nvals, k)
                ints = [int.from_bytes(v, "big") for v in vectors]
                args = (*names, nvals, nvals ** k, *vectors, *ints)
            fixed[nvals] = args
        if not args:
            return _first_index(m, program, _DIFFERING)
        a, b = steps(m.byte_tables, args)
        if a == b:
            return None
        bits = int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
        return len(a) - 1 - (bits.bit_length() - 1) // 8

    return first_index


def _pair_source(program: Program) -> str:
    """A function `steps(T, A)` that runs the program's steps as `_block`
    does, one statement per step, on the padded tables T of a matrix, and
    returns its two formulas' vectors.  A holds the connectives' names c<j>
    in the order of `program.connectives`, nvals n, the point count p,
    each variable's vector v<i> and then its int i<i>; a step's int i<s> is
    computed only if a later step packs it.  The source holds generated
    identifiers, int literals and this function's fixed text: no connective
    name."""
    k = len(program.names)
    table = {conn: j for j, conn in enumerate(
        dict.fromkeys(conn for conn, _ in program.connectives))}
    packed = {a for _, args in program.steps if len(args) > 1 for a in args}
    params = ([f"c{j}" for j in range(len(table))] + ["n", "p"]
              + [f"v{i}" for i in range(k)] + [f"i{i}" for i in range(k)])
    lines = [f"{', '.join(params)}, = A"]
    lines += [f"t{j} = T[c{j}]" for j in range(len(table))]
    for s, (conn, args) in enumerate(program.steps, k):
        t = f"t{table[conn]}"
        if not args:
            lines.append(f"v{s} = {t}[:1] * p")
        elif len(args) == 1:
            lines.append(f"v{s} = v{args[0]}.translate({t})")
        else:
            radix = f"i{args[0]} * n + i{args[1]}"
            for a in args[2:]:
                radix = f"({radix}) * n + i{a}"
            lines.append(
                f"v{s} = ({radix}).to_bytes(p, 'big').translate({t})")
        if s in packed:
            lines.append(f"i{s} = F(v{s}, 'big')")
    lhs, rhs = program.slots
    lines.append(f"return v{lhs}, v{rhs}")
    return "def steps(T, A):\n" + "".join(f"    {line}\n" for line in lines)


def equivalence_countermodel(m: Matrix, a: Formula, b: Formula) -> Optional[dict]:
    """First assignment on which a and b take different values."""
    program = compile_formulas([a, b])
    index = _first_index(m, program, _DIFFERING)
    return None if index is None else next(
        assignments(m, program.names, index))


def equivalent(m: Matrix, a: Formula, b: Formula) -> bool:
    return _first_index(m, compile_formulas([a, b]), _DIFFERING) is None


# ---------------------------------------------------------------------------
# Subpowers: clones, simplicity and invariant relations

def _operations(m: Matrix, generators: Iterable[str]) -> list[tuple]:
    """(name, byte table, arity) of each generator, by name."""
    gens = sorted(set(generators))
    for g in gens:
        if g not in m.signature:
            raise SignatureMismatchError(f"generator {g!r} not in the signature")
    return [(g, m.byte_tables[g], m.signature.arity(g)) for g in gens]


def subpower(m: Matrix, generators: Iterable[str],
             rows: Iterable[tuple[int, ...]],
             target: Optional[Callable[[bytes], bool]] = None
             ) -> dict[bytes, Formula]:
    """The subuniverse of carrier^k generated by the projections p1..pn
    restricted to k rows, points of carrier^n as value indices: pi is the
    byte tuple of the rows' i-th components.  Each tuple found maps to its
    witness formula.  All the points of carrier^n, in radix order, give
    the n-ary clone; carrier^0 has one point, the empty row.

    Tuples are found in order of witness size: the projections and then
    the nullary generators' constant tuples have size 1, and g(a1..ak) has
    size 1 plus its arguments' sizes.  Size by size, each generator in
    name order composes argument pools whose sizes sum to one less, sizes
    ascending and each pool in discovery order, so every witness has the
    least size, ties broken by generator name, then by argument discovery
    order.  It steps from one size to the next that some argument sizes
    of the tuples found add up to, and stops when none is left.  Returns
    the tuples and witnesses in discovery order, stopping after the first
    tuple that satisfies `target`.
    """
    ops, nvals = _operations(m, generators), len(m.values)
    rows = list(rows)
    width = len(rows)
    seeds = [(bytes(column), Var(f"p{i + 1}"))
             for i, column in enumerate(zip(*rows))]
    seeds += [(table[:1] * width, App(g, ())) for g, table, k in ops if not k]
    found: dict[bytes, Formula] = {}
    by_size: dict[int, list[bytes]] = {}

    def add(tup: bytes, witness: Formula, size: int) -> bool:
        found[tup] = witness
        by_size.setdefault(size, []).append(tup)
        return target is not None and target(tup)

    for tup, witness in seeds:
        if tup not in found and add(tup, witness, 1):
            return found
    size = 1
    while size := min((1 + sum(sizes) for *_, k in ops if k
                       for sizes in itertools.product(by_size, repeat=k)
                       if sum(sizes) >= size), default=0):
        for g, table, k in ops:
            for sizes in itertools.product(by_size, repeat=k):
                if sum(sizes) != size - 1:
                    continue
                for args in itertools.product(*map(by_size.get, sizes)):
                    tup = _compose(table, nvals, width, args)
                    if tup not in found and add(
                            tup, App(g, tuple(map(found.get, args))), size):
                        return found
    return found


@dataclass(frozen=True)
class TermFunction:
    """A tabulated function carrier^arity -> carrier with a witness formula.

    The flat table is indexed by the radix-|carrier| encoding of the
    argument tuple (first argument most significant); witnesses use the
    variables p1..pn.  A separator of `simplicity` has arity 1, and its
    witness may be a unary polynomial: p(k+2) in it stands for the value
    of index k.
    """

    arity: int
    table: tuple[str, ...]
    witness: Formula


def term_functions(m: Matrix, n: int,
                   generators: Iterable[str]) -> set[TermFunction]:
    """All n-ary term functions over the generators, each with a witness of
    least size (see `subpower`); an arity outside 0..`MAX_CLONE_ARITY`
    raises `ArityCapError`."""
    if not 0 <= n <= MAX_CLONE_ARITY:
        raise ArityCapError(f"clone arity {n} is outside 0..{MAX_CLONE_ARITY}")
    rows = itertools.product(range(len(m.values)), repeat=n)
    return {TermFunction(n, tuple(m.values[i] for i in table), witness)
            for table, witness in subpower(m, generators, rows).items()}


# ---------------------------------------------------------------------------
# Simplicity

def simplicity(m: Matrix) -> tuple[bool, dict[frozenset, TermFunction]]:
    """Decide simplicity, that is reducedness: the Leibniz congruence, the
    largest congruence compatible with the designated set, is the identity.

    Two values a and b are congruent iff no unary polynomial (a term whose
    other variables are held at fixed values) designates exactly one of
    them, so unary term functions alone do not decide simplicity.  The
    pairs (t(a), t(b)) over unary terms t are the subpower of carrier^2
    generated by (a, b) and the constants, closed first; only if it holds
    no pair with exactly one designated component is it closed again on the
    rows (a, 0, ..., n-1) and (b, 0, ..., n-1), whose projections p2..p(n+1)
    are the constant pairs of the values, so that it holds (t(a), t(b)) for
    every unary polynomial t.  Each closure stops at the first separated
    pair, and that pair's witness is the separator.

    Returns (simple?, separator per unordered pair); a non-simple matrix's
    map stops before the first pair, in carrier order, with no separator.
    """
    conns, nvals = m.signature.connectives, len(m.values)
    designated = [v in m.designated for v in m.values]
    separators: dict[frozenset, TermFunction] = {}
    # each variable's table: p1 is the argument, p(k+2) the constant k
    columns = {f"p{i + 1}": bytes(column) for i, column in enumerate(
        zip(*[(v, *range(nvals)) for v in range(nvals)]))}
    for a, b in itertools.combinations(range(nvals), 2):
        # unary terms first, then unary polynomials
        for rows in ([(a,), (b,)], [(a, *range(nvals)), (b, *range(nvals))]):
            found = subpower(m, conns, rows,
                             lambda t: designated[t[0]] != designated[t[1]])
            (x, y), witness = next(reversed(found.items()))
            if designated[x] != designated[y]:
                break
        else:
            return False, separators
        program = compile_formulas([witness])
        bits = _block(program, m.byte_tables, nvals, nvals,
                      [columns[name] for name in program.names],
                      lambda vectors, slots, _: int.from_bytes(
                          vectors[slots[0]], "big"))
        table = bits.to_bytes(nvals, "big")
        separators[frozenset((m.values[a], m.values[b]))] = TermFunction(
            1, tuple(m.values[i] for i in table), witness)
    return True, separators


# ---------------------------------------------------------------------------
# Expansion and restriction

def _relisted(m: Matrix, order: Sequence[str]) -> dict[str, bytes]:
    """m's index tables over `order`, some of m's values in any order; the
    first cell whose value is not in `order` raises NotClosedError."""
    index = {v: i for i, v in enumerate(m.values)}
    new, tables = {v: j for j, v in enumerate(order)}, {}
    for name, k in m.signature.connectives.items():
        table, cells = m.index_tables[name], []
        for args in itertools.product(order, repeat=k):
            out = m.values[table[_radix(map(index.get, args), len(index))]]
            if out not in new:
                raise NotClosedError(
                    f"{name}{args!r} = {out!r} leaves the subset")
            cells.append(new[out])
        tables[name] = bytes(cells)
    return tables


def is_expansion(m2: Matrix, m1: Matrix) -> bool:
    """True iff m2 adds connectives to m1 without touching anything else;
    the order in which each lists its values does not matter."""
    return (set(m2.values) == set(m1.values)
            and m2.designated == m1.designated
            and m2.signature.extends(m1.signature)
            and _relisted(m1, m2.values).items() <= m2.index_tables.items())


def restrict(m: Matrix, sub: Iterable[str]) -> Matrix:
    """Submatrix on a table-closed subset of the carrier."""
    keep = set(sub)
    _known(m.values, keep)
    order = [v for v in m.values if v in keep]
    tables = _relisted(m, order)
    designated = m.designated & keep
    if not designated or designated == keep:
        raise DegenerateDesignatedError(
            "restriction leaves an empty or full designated set")
    return Matrix(order, designated, m.signature, tables)


# ---------------------------------------------------------------------------
# JSON interchange

def matrix_to_json(m: Matrix) -> dict:
    """The matrix as JSON data, each table nested one level per argument:
    the inverse of the flattening in `matrix_from_json`."""
    nvals, connectives = len(m.values), {}
    for name, k in sorted(m.signature.connectives.items()):
        cells = [m.values[i] for i in m.index_tables[name]]
        for _ in range(k):
            cells = [cells[i:i + nvals] for i in range(0, len(cells), nvals)]
        connectives[name] = {"arity": k, "table": cells[0]}
    return {
        "values": list(m.values),
        "designated": sorted(m.designated, key=m.values.index),
        "connectives": connectives,
    }


def matrix_from_json(data) -> Matrix:
    """Inverse of `matrix_to_json`; malformed input raises FdekitError."""
    def need(ok: bool, what: str) -> None:
        if not ok:
            raise FdekitError(f"malformed matrix: {what}")

    def names(x) -> bool:
        return isinstance(x, list) and all(isinstance(v, str) for v in x)

    need(isinstance(data, dict), "a matrix must be an object")
    # an empty carrier leaves no cells, and the flattening below would spin
    need(names(data.get("values")) and data["values"],
         "'values' must be a non-empty list of strings")
    need(names(data.get("designated")),
         "'designated' must be a list of strings")
    connectives = data.get("connectives")
    need(isinstance(connectives, dict), "'connectives' must be an object")
    values = tuple(data["values"])
    # a cell outside the carrier gets index len(values), which the Matrix
    # refuses; on 256 values it fits no byte, so each table is a list
    position = {v: i for i, v in enumerate(values)}
    tables = {}
    arities = {}
    for name, entry in connectives.items():
        need(isinstance(entry, dict) and "table" in entry,
             f"connective {name!r} needs a 'table'")
        k = entry.get("arity")
        need(type(k) is int and k >= 0,
             f"the arity of {name!r} must be a non-negative integer")
        arities[name] = k
        # one nesting level per argument, cells in `itertools.product` order
        cells = [entry["table"]]
        for _ in range(k):
            need(all(isinstance(c, list) and len(c) == len(values)
                     for c in cells), f"malformed table for {name!r}")
            cells = [c for row in cells for c in row]
        need(all(isinstance(c, str) for c in cells),
             f"table entries of {name!r} must be strings")
        tables[name] = [position.get(c, len(values)) for c in cells]
    return Matrix(values, frozenset(data["designated"]), Signature(arities),
                  tables)
