"""End-to-end acceptance checks for the package's headline results.

`test_claim` runs each item of the checklist that `fdekit repro` runs.  The
numbered tests check more than a claim, by exhaustive or sampled finite
computation, and each prints a pass/fail line (visible with `pytest -s`).
"""

import itertools
import random

import pytest

from fdekit import bd, presets
from fdekit.bd import NamedConnective
from fdekit.claims import CLAIMS
from fdekit.definability import (
    bd_preservation_criterion,
    relation_certificate,
    synonymity_via_consequence,
)
from fdekit.laws import TABLE2_LAWS, filter_strongly_regular, holds
from fdekit.matrix import (
    consequence,
    equivalent,
    evaluate,
    simplicity,
    unary_term_functions,
)
from fdekit.proof import BD, CL, Prover, Sequent
from fdekit.syntax import App, Var, parse

BD_IMPL_BOT_INDEX = 13129950543
SURVIVOR_COUNT = 81

BDM = presets.preset("bd")
BDI = presets.preset("bd-impl-bot")
CLI = presets.preset("cl-impl-bot")


def _report(num: int, name: str, ok: bool) -> None:
    print(f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def test_01_family_count_and_sampled_membership():
    ok = bd.count_strongly_regular() == 2 ** 38 == 274_877_906_944
    rng = random.Random(1)
    for _ in range(10_000):
        index = rng.randrange(2 ** 38)
        m = bd.sr_decode(index)
        ok = ok and bd.is_strongly_regular(m) and bd.sr_encode(m) == index
        if not ok:
            break
    _report(1, "strongly regular family count and sampled membership", ok)


def test_02_law_filter_survivors():
    result = filter_strongly_regular(TABLE2_LAWS)
    indices = list(result.indices())
    ok = (
        result.count == SURVIVOR_COUNT
        and len(indices) == SURVIVOR_COUNT
        and BD_IMPL_BOT_INDEX in result
        and all(holds(bd.sr_decode(i), law)
                for i in indices for law in TABLE2_LAWS)
        and bd.sr_decode(BD_IMPL_BOT_INDEX).tables == BDI.tables
    )
    _report(2, "equivalence-law filter survivors", ok)


@pytest.mark.parametrize("check", [check for _, check in CLAIMS],
                         ids=[name for name, _ in CLAIMS])
def test_claim(check):
    assert check()


def test_05_preservation_criterion_equals_clone_membership():
    # the unary clone over {not, and, or, impl, bot} is the same in every
    # expansion by a further unary connective, so compute it once
    clone_tables = {
        tuple(tf.table)
        for tf in unary_term_functions(
            BDI, ["not", "and", "or", "impl", "bot"])
    }
    ok = len(clone_tables) == 36
    for images in itertools.product(bd.VALUES, repeat=4):
        c = NamedConnective(
            "c", 1, {(v,): images[i] for i, v in enumerate(bd.VALUES)})
        # no relation generated by one or two tuples is broken
        unbroken = relation_certificate(
            bd.expand(BDI, c), "c", ["not", "and", "or", "impl", "bot"]) is None
        ok = ok and (bd_preservation_criterion(c) == unbroken ==
                     (images in clone_tables))
        if not ok:
            break
    _report(5, "preservation criterion and relation check match clone "
               "membership (256 tables)", ok)


def test_07_proof_search_agrees_with_semantics():
    atoms = [Var("p"), Var("q"), App("bot", ())]
    formulas = list(atoms)
    formulas.extend(App("not", (a,)) for a in atoms)
    for conn in ("and", "or", "impl"):
        formulas.extend(App(conn, (a, b))
                        for a in atoms for b in atoms)
    assert len(set(formulas)) == len(formulas) == 33

    # per formula and matrix: a 16-bit designatedness mask over the
    # valuations of p, q, making each semantic verdict a pair of bit ops
    valuations = [{"p": a, "q": b}
                  for a in BDI.values for b in BDI.values]

    def masks(m):
        out = []
        for f in formulas:
            bits = 0
            for i, env in enumerate(valuations):
                v = evaluate(m, f, {k: w for k, w in env.items()
                                    if w in m.values})
                if v in m.designated:
                    bits |= 1 << i
            out.append(bits)
        return out

    # for the two-valued matrix only classical valuations apply
    cl_valuations = [i for i, env in enumerate(valuations)
                     if all(w in CLI.values for w in env.values())]
    bd_masks = masks(BDI)
    cl_masks = [0] * 33
    for j, f in enumerate(formulas):
        for i in cl_valuations:
            v = evaluate(CLI, f, valuations[i])
            if v in CLI.designated:
                cl_masks[j] |= 1 << i
    cl_mask_all = sum(1 << i for i in cl_valuations)

    sides = [()]
    sides.extend((i,) for i in range(33))
    sides.extend(itertools.combinations(range(33), 2))
    assert len(sides) == 562

    provers = {BD: Prover(BD), CL: Prover(CL)}
    full = (1 << 16) - 1
    ok = True
    for left in sides:
        for right in sides:
            seq = Sequent.of([formulas[i] for i in left],
                             [formulas[j] for j in right])
            gamma = full
            for i in left:
                gamma &= bd_masks[i]
            delta = 0
            for j in right:
                delta |= bd_masks[j]
            sem_bd = (gamma & ~delta & full) == 0
            gamma_cl = cl_mask_all
            for i in left:
                gamma_cl &= cl_masks[i]
            delta_cl = 0
            for j in right:
                delta_cl |= cl_masks[j]
            sem_cl = (gamma_cl & ~delta_cl & cl_mask_all) == 0
            if provers[BD].provable(seq) != sem_bd or \
                    provers[CL].provable(seq) != sem_cl:
                ok = False
                break
        if not ok:
            break
    _report(7, "proof search agrees with semantics on 315,844 sequents", ok)


def test_09_simplicity_and_equivalence_characterization():
    simple, separators = simplicity(BDM)
    ok = simple
    for a, b in itertools.combinations(BDM.values, 2):
        tf = separators[frozenset((a, b))]
        ok = ok and ((tf.apply(BDM, (a,)) in BDM.designated)
                     != (tf.apply(BDM, (b,)) in BDM.designated))

    # all formulas of depth <= 2 over p, q in the base signature
    atoms = [Var("p"), Var("q")]
    layer = list(atoms)
    formulas = list(atoms)
    for _ in range(2):
        new = [App("not", (f,)) for f in layer]
        for conn in ("and", "or"):
            new.extend(App(conn, (f, g)) for f in layer for g in formulas)
            new.extend(App(conn, (f, g)) for f in formulas for g in layer)
        layer = [f for f in dict.fromkeys(new) if f not in set(formulas)]
        formulas.extend(layer)

    valuations = [{"p": a, "q": b}
                  for a in BDM.values for b in BDM.values]
    by_vector = {}
    for f in formulas:
        vec = tuple(evaluate(BDM, f, env) for env in valuations)
        by_vector.setdefault(vec, f)
    reps = list(by_vector.items())
    for (va, fa), (vb, fb) in itertools.combinations(reps, 2):
        same = va == vb
        ok = ok and (synonymity_via_consequence(BDM, fa, fb) == same)
        ok = ok and (equivalent(BDM, fa, fb) == same)
        if not ok:
            break
    # same-vector pairs: spot-check that both relations report sameness
    rng = random.Random(9)
    groups = {}
    for f in formulas:
        vec = tuple(evaluate(BDM, f, env) for env in valuations)
        groups.setdefault(vec, []).append(f)
    for vec, members in groups.items():
        if len(members) >= 2:
            fa, fb = rng.sample(members, 2)
            ok = ok and synonymity_via_consequence(BDM, fa, fb)
            ok = ok and equivalent(BDM, fa, fb)
    _report(9, "simplicity and the consequence characterization of "
               "equivalence", ok)


def test_10_consequence_axioms_randomized():
    sig = BDM.signature
    pool = [parse(s, sig) for s in (
        "p", "q", "~p", "~q", "p & q", "p | ~q", "~(p & q)",
        "~p | ~q", "p & ~p", "q | ~q", "~(p | q)", "p & (q | ~q)")]
    from fdekit.syntax import substitute
    rng = random.Random(2026)
    ok = True
    for _ in range(10_000):
        gamma = rng.sample(pool, rng.randrange(0, 4))
        delta = rng.sample(pool, rng.randrange(0, 4))
        if set(gamma) & set(delta) and not consequence(BDM, gamma, delta):
            ok = False  # overlap
        if consequence(BDM, gamma, delta):
            extra = rng.choice(pool)
            if not consequence(BDM, gamma + [extra], delta):
                ok = False  # dilution left
            if not consequence(BDM, gamma, delta + [extra]):
                ok = False  # dilution right
            sub = {"p": rng.choice(pool), "q": rng.choice(pool)}
            if not consequence(BDM, [substitute(g, sub) for g in gamma],
                               [substitute(d, sub) for d in delta]):
                ok = False  # structurality
        a = rng.choice(pool)
        if consequence(BDM, gamma, delta + [a]) and \
                consequence(BDM, gamma + [a], delta) and \
                not consequence(BDM, gamma, delta):
            ok = False  # cut
        if not ok:
            break
    _report(10, "overlap, dilution, cut, structurality on 10,000 instances",
            ok)
