"""Synonymity, connective definability, and interdefinability of logics.

For logics induced by a simple matrix, synonymity coincides with the
induced equivalence relation, so both are decided by exhaustive valuation
enumeration.  Definability of a connective reduces to membership of its
table in the term-function clone over the allowed connectives.

Before that clone, a target of arity two or more must preserve every
relation the allowed connectives preserve, since term functions do
(Geiger 1968; Bodnarcuk, Kaluznin, Kotov and Romov 1969).  The relations
tried are the clone restricted to one or two rows of the target's table:
the subpower generated by the projections on those rows, closed until the
target's own restriction appears.  A closure without it is a relation the
target breaks, which certifies that it is not definable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

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


def relation_certificate(m: Matrix, target: str,
                         allowed: Iterable[str]) -> Optional[str]:
    """A relation that the allowed connectives preserve and the target
    breaks, described; None if there is none on one or two rows.

    The rows are the points of carrier^n, n the target's arity.  On each
    set of one, then two rows, in descending index order, the projections
    restricted to the rows generate a relation, closed only until the
    target's restriction appears; one without it is the certificate.
    There is no cap on the carrier size.
    """
    allowed = sorted(set(allowed))
    n, nvals = m.signature.arity(target), len(m.values)
    # a nullary target counts as a constant unary one, as in `definable`
    table = m.index_tables[target] * (nvals if n == 0 else 1)
    points = list(itertools.product(range(nvals), repeat=max(n, 1)))
    for k in (1, 2):
        for rows in itertools.combinations(range(len(points))[::-1], k):
            want = bytes(table[r] for r in rows)
            rel = subpower(m, allowed, [
                (bytes(column), Var(f"p{i + 1}")) for i, column in
                enumerate(zip(*(points[r] for r in rows)))], want.__eq__)
            if want not in rel:
                members = ", ".join(
                    f"({','.join(m.values[i] for i in t)})"
                    for t in sorted(rel))
                return (f"breaks the relation {{{members}}}, which the "
                        "allowed connectives preserve")
    return None


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
