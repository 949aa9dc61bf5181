"""Synonymity, connective definability, and interdefinability of logics.

For logics induced by a simple matrix, synonymity coincides with the
induced equivalence relation, so both are decided by exhaustive valuation
enumeration.  Definability of a connective reduces to membership of its
table in the term-function clone over the allowed connectives.

Before that clone, a target of arity two or more must preserve every
relation the allowed connectives preserve, since term functions do
(Geiger 1968; Bodnarcuk, Kaluznin, Kotov and Romov 1969).  The relations
tried are the subuniverses of the carrier, and of its square on carriers
of at most `BINARY_RELATIONS_MAX_CARRIER` values, generated by one or two
tuples; a relation the target breaks certifies that it is not definable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .bd import DESIGNATED, VALUES, NamedConnective, bd_matrix
from .errors import (
    NotBdExpansionError,
    NotCommonExpansionError,
    NotSimpleError,
)
from .matrix import (
    Matrix,
    consequence,
    equivalent,
    find_term_function,
    first_broken,
    is_expansion,
    subpower,
)
from .syntax import Formula, Signature, Var, neg, substitute

# Carriers up to this size also try the relations on the square generated
# by one or two pairs: |A|^2 + C(|A|^2, 2) closures, 136 on four values.
BINARY_RELATIONS_MAX_CARRIER = 4

def synonymous(m: Matrix, a: Formula, b: Formula) -> bool:
    """Intersubstitutability in all contexts, via induced equivalence.

    Sound only for simple matrices, where synonymity and induced
    equivalence coincide; non-simple matrices are rejected.
    """
    if not m.simple:
        raise NotSimpleError("synonymity reduction needs a simple matrix")
    return equivalent(m, a, b)


def synonymity_via_consequence(m: Matrix, a: Formula, b: Formula) -> bool:
    """The four-consequence characterization, valid on expansions of the
    four-valued base matrix."""
    if not is_expansion(m, bd_matrix()):
        raise NotBdExpansionError("matrix does not expand the four-valued base")
    return (
        consequence(m, [a], [b])
        and consequence(m, [b], [a])
        and consequence(m, [neg(a)], [neg(b)])
        and consequence(m, [neg(b)], [neg(a)])
    )


@dataclass(frozen=True)
class DefinabilityVerdict:
    """`witness` defines the target; `reason` says why none exists: its
    diagonal is not a unary term function, it breaks a named relation that
    the allowed connectives preserve, or the clone lacks its table."""

    definable: bool
    witness: Optional[Formula] = None
    reason: Optional[str] = None


def _relations(m: Matrix, allowed: list[str]) -> Iterator[dict]:
    """The proper subuniverses of the carrier, then of its square, generated
    by one or two tuples, skipping a pair that one of its tuples generates."""
    nvals, p1, p2 = len(m.values), Var("p1"), Var("p2")
    for width in (1, 2)[:1 + (nvals <= BINARY_RELATIONS_MAX_CARRIER)]:
        points = list(map(bytes, itertools.product(range(nvals),
                                                   repeat=width)))
        single = {s: subpower(m, allowed, [(s, p1)]) for s in points}
        pairs = (subpower(m, allowed, [(s, p1), (t, p2)])
                 for s, t in itertools.combinations(points, 2)
                 if t not in single[s] and s not in single[t])
        yield from (rel for rel in itertools.chain(single.values(), pairs)
                    if len(rel) < nvals ** width)


def relation_certificate(m: Matrix, target: str,
                         allowed: Iterable[str]) -> Optional[str]:
    """A relation generated by one or two tuples that the allowed
    connectives preserve and the target breaks, described; None if the
    target preserves every such relation."""
    allowed = sorted(set(allowed))
    rel = first_broken(m, target, _relations(m, allowed))
    if rel is None:
        return None
    members = ", ".join(f"({','.join(m.values[i] for i in t)})"
                        for t in sorted(rel))
    return (f"breaks the relation {{{members}}}, which the allowed "
            "connectives preserve")


def definable(m: Matrix, target: str,
              allowed: Iterable[str]) -> DefinabilityVerdict:
    """Is the target connective's table in the clone over `allowed`?  A
    witness is a formula over p1..pn, or over the fixed fresh variable p
    for a nullary target defined by a constant unary term.  A target that
    passes the cheap checks and has an arity above `matrix.MAX_CLONE_ARITY`
    raises `ArityCapError`."""
    allowed = sorted(set(allowed))
    if target not in m.signature:
        raise ValueError(f"target {target!r} not in the signature")
    if target in allowed:
        raise ValueError("allowed set must not contain the target")
    if not m.simple:
        raise NotSimpleError("definability needs a simple matrix")
    n = m.signature.arity(target)
    target_table = [m.values[i] for i in m.index_tables[target]]
    if n >= 2:
        # necessary condition, far cheaper than the n-ary fixpoint: a
        # defining term specializes under p1 = ... = pn to a unary term,
        # so the target's diagonal must lie in the unary clone
        diagonal = tuple(m.tables[target][(v,) * n] for v in m.values)
        if find_term_function(m, 1, allowed, diagonal) is None:
            return DefinabilityVerdict(
                False, reason="diagonal missing from the unary clone")
        certificate = relation_certificate(m, target, allowed)
        if certificate is not None:
            return DefinabilityVerdict(False, reason=certificate)
    found = find_term_function(m, n, allowed, target_table)
    if found is not None:
        return DefinabilityVerdict(True, found.witness)
    if n == 0:
        # a defining formula may mention a fixed but arbitrary variable, so
        # a constant-valued unary term also counts
        found = find_term_function(m, 1, allowed,
                                   target_table * len(m.values))
        if found is not None:
            return DefinabilityVerdict(
                True, substitute(found.witness, {"p1": Var("p")}))
    return DefinabilityVerdict(False, reason="clone exhausted without the table")


def bd_preservation_criterion(c: NamedConnective) -> bool:
    """Definability of c in the implication-falsity expansion, decided by
    preservation of {t,f,b} and {t,f,n}."""
    m = Matrix(VALUES, DESIGNATED, Signature({c.name: c.arity}),
               {c.name: c.table})
    subsets = [{bytes([VALUES.index(v)]) for v in s} for s in ("tfb", "tfn")]
    return first_broken(m, c.name, subsets) is None


@dataclass(frozen=True)
class LogicHandle:
    """A matrix with the subset of its signature regarded as the logic's own
    connectives."""

    matrix: Matrix
    connectives: frozenset[str]

    def __post_init__(self):
        missing = self.connectives - set(self.matrix.signature.connectives)
        if missing:
            raise ValueError(f"connectives {sorted(missing)!r} not in signature")


def _check_common(handle: LogicHandle, common: Matrix):
    if common.values != handle.matrix.values or \
            common.designated != handle.matrix.designated:
        raise NotCommonExpansionError("carrier or designated set differs")
    for name in handle.connectives:
        if name not in common.signature or \
                common.tables[name] != handle.matrix.tables[name]:
            raise NotCommonExpansionError(
                f"common matrix does not interpret {name!r} compatibly")


def logic_definable_in(a: LogicHandle, b: LogicHandle, common: Matrix) -> bool:
    """Every connective of a is definable in the common expansion in terms
    of b's connectives."""
    _check_common(a, common)
    _check_common(b, common)
    if not common.simple:
        raise NotSimpleError("interdefinability needs a simple common matrix")
    return all(definable(common, name, b.connectives).definable
               for name in sorted(a.connectives - b.connectives))


def interdefinable(a: LogicHandle, b: LogicHandle, common: Matrix) -> bool:
    """Both directions of definability within the common expansion.

    The direction whose missing connectives have the smaller maximal arity
    is checked first: a failing unary direction then short-circuits past a
    potentially expensive higher-arity clone search.
    """
    def cost(x: LogicHandle, y: LogicHandle) -> int:
        missing = x.connectives - y.connectives
        return max((common.signature.arity(c) for c in missing), default=0)

    directions = [(a, b), (b, a)]
    directions.sort(key=lambda d: cost(*d))
    return all(logic_definable_in(x, y, common) for x, y in directions)
