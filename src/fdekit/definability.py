"""Synonymity, connective definability, and interdefinability of logics.

For logics induced by a simple matrix, synonymity coincides with the
induced equivalence relation, so both are decided by exhaustive valuation
enumeration.  Definability of a connective reduces to membership of its
table in the term-function clone over the allowed connectives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .bd import NamedConnective, bd_matrix
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
    is_expansion,
    unary_term_functions,
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
    definable: bool
    witness: Optional[Formula] = None
    reason: Optional[str] = None


def definable(m: Matrix, target: str, allowed: Iterable[str],
              cap: Optional[int] = None) -> DefinabilityVerdict:
    """Is the target connective's table in the clone over `allowed`?

    The witness, when present, is a formula over p1..pn (or over the fixed
    fresh variable p for a nullary target defined via a closed-by-constancy
    unary term).
    """
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
        if find_term_function(m, 1, allowed, diagonal, cap=max(1, n)) is None:
            return DefinabilityVerdict(
                False, reason="diagonal missing from the unary clone")
    found = find_term_function(m, n, allowed, target_table, cap=cap)
    if found is not None:
        return DefinabilityVerdict(True, found.witness)
    if n == 0:
        # a defining formula may mention a fixed but arbitrary variable, so
        # a constant-valued unary term also counts
        constant = target_table[0]
        for tf in sorted(unary_term_functions(m, allowed),
                         key=lambda t: str(t.witness)):
            if all(v == constant for v in tf.table):
                witness = substitute(tf.witness, {"p1": Var("p")})
                return DefinabilityVerdict(True, witness)
    return DefinabilityVerdict(False, reason="clone exhausted without the table")


def bd_preservation_criterion(c: NamedConnective) -> bool:
    """Definability of c in the implication-falsity expansion, decided by
    preservation of {t,f,b} and {t,f,n}."""
    for subset in (("t", "f", "b"), ("t", "f", "n")):
        for args in itertools.product(subset, repeat=c.arity):
            if c.table[args] not in subset:
                return False
    return True


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


def logic_definable_in(a: LogicHandle, b: LogicHandle, common: Matrix,
                       cap: Optional[int] = None) -> bool:
    """Every connective of a is definable in the common expansion in terms
    of b's connectives."""
    _check_common(a, common)
    _check_common(b, common)
    if not common.simple:
        raise NotSimpleError("interdefinability needs a simple common matrix")
    for name in sorted(a.connectives):
        if name in b.connectives:
            continue
        verdict = definable(common, name, b.connectives, cap=cap)
        if not verdict.definable:
            return False
    return True


def interdefinable(a: LogicHandle, b: LogicHandle, common: Matrix,
                   cap: Optional[int] = None) -> bool:
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
    return all(logic_definable_in(x, y, common, cap=cap) for x, y in directions)
