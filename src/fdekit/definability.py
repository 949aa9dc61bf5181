"""Synonymity, connective definability, and interdefinability of logics.

A matrix is simple when it is reduced: its Leibniz congruence is the
identity, so a unary polynomial separates every two values (see
`matrix.simplicity`).  For logics induced by a simple matrix, synonymity
coincides with the induced equivalence relation, since a context can hold
a polynomial's fixed values in fresh variables, so both are decided by
exhaustive valuation enumeration.  Definability of a connective reduces to
membership of its table in the term-function clone over the allowed
connectives.  A logic is given by its own matrix, whose signature holds
its connectives; two logics are compared inside a common matrix that
expands both (`matrix.is_expansion`), as the paper's interdefinability
asks.

`definable` climbs one ladder of closures, each `matrix.subpower` on some
rows of the target's table (points of carrier^n), stopped as soon as the
target's restriction to those rows appears.  A term function preserves
every relation the allowed connectives preserve (Geiger 1968; Bodnarcuk,
Kaluznin, Kotov and Romov 1969), and the closure on some rows is such a
relation, so a closure without the target's restriction shows that the
target is not definable.  The rungs, in order:
- for arity two or more, the diagonal, whose closure is the unary clone;
- every set of one row, then of two rows, in descending index order, for
  every arity; a nullary target counts as a constant unary one, and the
  closure that lacks it is the relation named in the verdict;
- the clone, on all the rows, which holds the target's table exactly when
  it is definable; for a nullary target, its closed terms and then its
  constant unary terms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .bd import NamedConnective, bd_matrix
from .errors import (
    ArityCapError,
    InvalidInputError,
    NotBdExpansionError,
    NotCommonExpansionError,
    NotSimpleError,
)
from .matrix import (
    MAX_CLONE_ARITY,
    Matrix,
    consequence,
    equivalent,
    is_expansion,
    subpower,
)
from .syntax import Formula, Var, neg, substitute


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
    """`witness` defines the target; `reason` says why none exists, from
    the rung of `definable`'s ladder that lacks the target's restriction:
    its diagonal is not a unary term function, it breaks a named relation
    that the allowed connectives preserve, or the clone lacks its table."""

    definable: bool
    witness: Optional[Formula] = None
    reason: Optional[str] = None


def definable(m: Matrix, target: str,
              allowed: Iterable[str]) -> DefinabilityVerdict:
    """Is the target connective's table in the clone over `allowed`?  A
    witness is a formula over p1..pn, or over the fixed fresh variable p
    for a nullary target defined by a constant unary term.  A target that
    passes the rungs below the clone and has an arity above
    `matrix.MAX_CLONE_ARITY` raises `ArityCapError`."""
    allowed = sorted(set(allowed))
    if target not in m.signature:
        raise InvalidInputError(f"target {target!r} not in the signature")
    if target in allowed:
        raise InvalidInputError("allowed set must not contain the target")
    if not m.simple:
        raise NotSimpleError("definability needs a simple matrix")
    n, nvals = m.signature.arity(target), len(m.values)
    # the target's table by point; below the clone a nullary target counts
    # as a constant unary one, which reads no component of its rows
    cells = dict(zip(itertools.product(range(nvals), repeat=n),
                     m.index_tables[target]))
    points = list(itertools.product(range(nvals), repeat=max(n, 1)))

    def closure(rows) -> tuple[bytes, dict[bytes, Formula]]:
        want = bytes(cells[row[:n]] for row in rows)
        return want, subpower(m, allowed, rows, want.__eq__)

    rungs = itertools.chain(
        # a defining term specializes under p1 = ... = pn to a unary term,
        # so the target's diagonal must lie in the unary clone
        [([(v,) * n for v in range(nvals)],
          "diagonal missing from the unary clone")] if n >= 2 else [],
        ((rows, None) for k in (1, 2)
         for rows in itertools.combinations(points[::-1], k)))
    for rows, reason in rungs:
        want, rel = closure(rows)
        if want not in rel:
            return DefinabilityVerdict(False, reason=reason or (
                "breaks the relation {" + ", ".join(
                    f"({','.join(m.values[i] for i in t)})"
                    for t in sorted(rel))
                + "}, which the allowed connectives preserve"))
    if n > MAX_CLONE_ARITY:
        raise ArityCapError(f"clone arity {n} is outside 0..{MAX_CLONE_ARITY}")
    # a nullary target's closed terms first; a defining formula may also
    # mention a fixed but arbitrary variable p, so constant unary terms count
    for rows in ([[()], points] if n == 0 else [points]):
        want, clone = closure(rows)
        if want in clone:
            return DefinabilityVerdict(True, substitute(
                clone[want], {"p1": Var("p")}) if n == 0 else clone[want])
    return DefinabilityVerdict(False, reason="clone exhausted without the table")


def bd_preservation_criterion(c: NamedConnective) -> bool:
    """Definability of c in the implication-falsity expansion, decided by
    preservation of {t,f,b} and {t,f,n}."""
    return all(c.table[args] in s for s in ("tfb", "tfn")
               for args in itertools.product(s, repeat=c.arity))


def logic_definable_in(a: Matrix, b: Matrix, common: Matrix) -> bool:
    """Every connective of a is definable in the common expansion in terms
    of b's connectives; each logic is its own matrix, and common must
    expand both."""
    if not (is_expansion(common, a) and is_expansion(common, b)):
        raise NotCommonExpansionError(
            "the common matrix does not expand both logics")
    if not common.simple:
        raise NotSimpleError("interdefinability needs a simple common matrix")
    return all(definable(common, name, b.signature.connectives).definable
               for name in sorted(set(a.signature.connectives)
                                  - set(b.signature.connectives)))


def interdefinable(a: Matrix, b: Matrix, common: Matrix) -> bool:
    """Both directions of definability within the common expansion.

    The direction whose missing connectives have the smaller maximal arity
    is checked first: a failing unary direction then short-circuits past a
    potentially expensive higher-arity clone search.
    """
    def cost(x: Matrix, y: Matrix) -> int:
        return max((k for c, k in x.signature.connectives.items()
                    if c not in y.signature), default=0)

    directions = [(a, b), (b, a)]
    directions.sort(key=lambda d: cost(*d))
    return all(logic_definable_in(x, y, common) for x, y in directions)
