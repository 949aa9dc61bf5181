"""The paper's headline claims, as one checklist.

`fdekit repro` runs `CLAIMS` in order and the acceptance tests run each
item.  Every check is a zero-argument callable, so importing this module
builds no matrix.
"""

from __future__ import annotations

import itertools
import random
from functools import partial

from . import bd, definability, laws, matrix as mx, presets, proof, syntax

# (common preset, lhs, rhs) for every displayed synonymity
SYNONYMITIES = (
    ("bd-impl-bot-delta", "delta p", "~(p -> bot)"),
    ("bd-impl-bot-circ", "circ p", "((p & ~p) -> bot) & ~((p | ~p) -> bot)"),
    ("bd-impl-bot-cons", "cons p", "(p & ~p) -> bot"),
    ("bd-impl-bot-det", "det p", "~((p | ~p) -> bot)"),
    ("bd-impl-bot-delta", "p1 -> p2", "~(delta p1) | p2"),
    ("bd-impl-bot-delta", "bot", "delta p & ~(delta p)"),
    ("bd-delta-cons-det", "cons p", "~(delta (p & ~p))"),
    ("bd-delta-cons-det", "det p", "delta (p | ~p)"),
    ("bd-delta-cons-det", "delta p", "(p | ~(cons p)) & det p"),
    ("bd-cons-det-circ", "circ p", "cons p & det p"),
    ("bd-impl-b-n-bot", "bot", "B & N"),
)

# (logic a, logic b, common expansion, expected verdict)
INTERDEFINABILITY = (
    ("bd-impl-bot", "bd-delta", "bd-impl-bot-delta", True),
    ("bd-delta", "bd-cons-det", "bd-delta-cons-det", True),
    ("bd-cons-det", "bd-circ", "bd-cons-det-circ", False),
    ("bd-impl-bot", "bd-confl", "bd-impl-bot-confl", False),
)

# (logic a, logic b, common expansion, expected verdict): is a definable in b?
ONE_WAY = (
    ("bd-circ", "bd-impl-bot", "bd-impl-bot-circ", True),
    ("bd-impl-bot", "bd-b-n", "bd-impl-b-n-bot", True),
)


def _synonymous(common: str, lhs: str, rhs: str) -> bool:
    m = presets.preset(common)
    return definability.synonymous(
        m, syntax.parse(lhs, m.signature), syntax.parse(rhs, m.signature))


def _logics(check, a: str, b: str, common: str, expected: bool) -> bool:
    """check(a, b, common) on the presets gives the expected verdict."""
    return check(*map(presets.preset, (a, b, common))) == expected


def _sampled_regular() -> bool:
    rng = random.Random(7)
    p = syntax.Var("p")
    for _ in range(100):
        m = bd.sr_decode(rng.randrange(bd.count_strongly_regular()))
        if not bd.is_strongly_regular(m):
            return False
        if mx.consequence(m, [p], [syntax.neg(p)]):
            return False
        if mx.consequence(m, [syntax.neg(p)], [p]):
            return False
    return True


def _laws_hold(selected) -> bool:
    return all(laws.holds(presets.preset("bd-impl-bot"), law)
               for law in selected)


def _filter_result() -> bool:
    res = laws.filter_strongly_regular(laws.TABLE2_LAWS)
    idx = bd.sr_encode(presets.preset("bd-impl-bot"))
    return res.count == 81 and idx in res


def _classical_gap() -> bool:
    m = presets.preset("bd-impl-bot")
    p = syntax.Var("p")
    absurd = proof.Sequent.of([p, syntax.neg(p)], [syntax.BOT])
    trivial = proof.Sequent.of([], [syntax.disj(p, syntax.neg(p))])
    return (
        proof.prove(absurd, proof.BD) is None
        and proof.prove(trivial, proof.BD) is None
        and proof.prove(absurd, proof.CL) is not None
        and proof.prove(trivial, proof.CL) is not None
        and mx.consequence_countermodel(
            m, [p, syntax.neg(p)], [syntax.BOT]) == {"p": "b"}
        and mx.consequence_countermodel(
            m, [], [syntax.disj(p, syntax.neg(p))]) == {"p": "n"}
    )


def _submatrices() -> bool:
    base = presets.preset("bd")
    p = syntax.Var("p")
    q = syntax.Var("q")
    em = syntax.disj(p, syntax.neg(p))
    contradiction = [p, syntax.neg(p)]
    lp, k3, cl = (presets.preset(n) for n in ("lp", "k3", "cl"))
    return (
        base.simple
        and not mx.consequence(base, [], [em])
        and mx.consequence(lp, [], [em])
        and not mx.consequence(k3, [], [em])
        and mx.consequence(cl, [], [em])
        and not mx.consequence(lp, contradiction, [q])
        and mx.consequence(k3, contradiction, [q])
        and mx.consequence(cl, contradiction, [q])
    )


# (name, zero-argument check), in checklist order
CLAIMS = (
    *((f"synonymity: {lhs} == {rhs} [{common}]",
       partial(_synonymous, common, lhs, rhs))
      for common, lhs, rhs in SYNONYMITIES),
    ("conflation not definable from the classical connectives",
     lambda: not definability.definable(
         presets.preset("bd-impl-bot-confl"), "confl",
         bd.SR_SIGNATURE.connectives).definable),
    ("preservation criterion rejects conflation",
     lambda: not definability.bd_preservation_criterion(bd.CONFL)),
    ("preservation criterion accepts circ and the whole heart family",
     lambda: definability.bd_preservation_criterion(bd.CIRC) and all(
         definability.bd_preservation_criterion(bd.heart(v))
         for r in range(5)
         for v in itertools.combinations(bd.VALUES, r))),
    *((f"interdefinable: {a} ~ {b}" if expected
       else f"not interdefinable: {a} !~ {b}",
       partial(_logics, definability.interdefinable, a, b, common,
               expected))
      for a, b, common, expected in INTERDEFINABILITY),
    *((f"{a} {'' if expected else 'not '}definable in {b}",
       partial(_logics, definability.logic_definable_in, a, b, common,
               expected))
      for a, b, common, expected in ONE_WAY),
    ("strongly regular family counts 2^38",
     lambda: bd.count_strongly_regular() == 2 ** 38),
    ("bd-impl-bot is strongly regular and encode/decode round-trips",
     lambda: bd.sr_decode(bd.sr_encode(presets.preset("bd-impl-bot")))
     == presets.preset("bd-impl-bot")),
    ("100 sampled indices decode to strongly regular matrices "
     "refuting p |- ~p and ~p |- p", _sampled_regular),
    ("all 13 distinguishing laws hold in bd-impl-bot",
     partial(_laws_hold, laws.TABLE2_LAWS)),
    ("neg-as-impl, and-contradiction, or-excluded-middle fail in "
     "bd-impl-bot (countermodel A=b)",
     lambda: all(
         laws.holds_countermodel(presets.preset("bd-impl-bot"), law)
         == {"A": "b"} for law in laws.FAILING_CLASSICAL_LAWS)),
    ("false-implies and true-implies hold even in bd-impl-bot",
     partial(_laws_hold, laws.HOLDING_CLASSICAL_LAWS)),
    ("law filter leaves 81 family members, bd-impl-bot among them "
     "(the two implication laws leave impl's b/n rows underdetermined)",
     _filter_result),
    ("absurdity and triviality fail in BD (countermodels b, n) "
     "and hold classically", _classical_gap),
    ("all negation-prefixed rules are derived rules classically",
     lambda: all(proof.derived_rule_check(r, proof.CL)
                 for r in proof.RULE_IDS
                 if r.startswith("not-")
                 and r not in proof.CLASSICAL_ONLY_RULES)),
    ("bd is simple; LP/K3/CL submatrices witness the strict "
     "consequence inclusions", _submatrices),
)
