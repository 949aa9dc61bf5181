import hashlib
import itertools
import json
import random
import time
from functools import reduce

import pytest

from fdekit import presets
from fdekit.errors import FdekitError, UnknownNameError
from fdekit.matrix import assignments, consequence, evaluate
from fdekit.proof import (
    BD,
    CL,
    CLASSICAL_ONLY_RULES,
    LEFT,
    MAX_DERIVATION_DEPTH,
    RIGHT,
    RULES,
    Derivation,
    Prover,
    Sequent,
    check,
    check_with_path,
    derivation_from_json,
    derivation_to_json,
    derived_rule_check,
    prove,
)
from fdekit.syntax import (
    BOT, TOP, App, Var, conj, disj, formula_key, impl, neg, parse, variables)

M = presets.preset("bd-impl-bot")
MCL = presets.preset("cl-impl-bot")

p, q, r = Var("p"), Var("q"), Var("r")

NEG_RULES = ("not-bot-R", "not-not-L", "not-not-R", "not-and-L", "not-and-R",
             "not-or-L", "not-or-R", "not-impl-L", "not-impl-R")


seq = Sequent.parse


class TestProve:
    def test_identity_implication(self):
        d = prove(seq("|- p -> p"), BD)
        assert d is not None
        assert check(d, BD)

    def test_de_morgan_sequent(self):
        d = prove(seq("~(p & q) |- ~p | ~q"), BD)
        assert d is not None
        assert check(d, BD)

    def test_absurdity_and_triviality(self):
        absurd = seq("p, ~p |- bot")
        trivial = seq("|- p | ~p")
        assert prove(absurd, BD) is None
        assert prove(trivial, BD) is None
        for s in (absurd, trivial):
            d = prove(s, CL)
            assert d is not None
            assert check(d, CL)

    def test_bd_proof_is_classically_valid_too(self):
        d = prove(seq("p -> q, p |- q"), BD)
        assert d is not None
        assert check(d, CL)

    def test_weakening_monotonicity(self):
        base = seq("p |- p")
        assert prove(base, BD) is not None
        for extra_left, extra_right in itertools.product(
                [(), (q,), (neg(q),)], repeat=2):
            s = Sequent(base.left | frozenset(extra_left),
                        base.right | frozenset(extra_right))
            assert prove(s, BD) is not None

    def test_classical_only_sequents(self):
        for text in ("~~p |- p | ~q & q", "|- ((p -> q) -> p) -> p",
                     "p & ~p |- q"):
            s = seq(text)
            if prove(s, BD) is None:
                assert prove(s, CL) is not None

    def test_agreement_with_semantics_spot_checks(self):
        cases = [
            "|- p -> p", "p, ~p |- bot", "|- p | ~p", "~(p & q) |- ~p | ~q",
            "~p | ~q |- ~(p & q)", "p -> q, q -> r |- p -> r",
            "bot |- p", "|- ~bot", "~(p -> q) |- p", "~(p -> q) |- ~q",
            "p |- ~~p", "~~p |- p", "|- (p -> bot) | p",
        ]
        for text in cases:
            s = seq(text)
            assert (prove(s, BD) is not None) == consequence(
                M, list(s.left), list(s.right))
            assert (prove(s, CL) is not None) == consequence(
                MCL, list(s.left), list(s.right))


class TestChecker:
    def test_accepts_search_output(self):
        for text in ("|- p -> p", "~(p & q) |- ~p | ~q",
                     "p -> q, ~q |- ~p & ~q, q"):
            for system in (BD, CL):
                d = prove(seq(text), system)
                if d is not None:
                    ok, path = check_with_path(d, system)
                    assert ok and path is None

    def test_rejects_wrong_rule(self):
        good = prove(seq("|- p -> p"), BD)
        bad = Derivation(good.conclusion, "and-R", good.principal,
                         good.premises)
        ok, path = check_with_path(bad, BD)
        assert not ok and path == []

    def test_rejects_classical_rule_in_bd(self):
        d = Derivation(
            seq("~p |- ~p"), "not-L", neg(p),
            (Derivation(seq("~p |- ~p, p"), "Id", neg(p)),))
        assert check(d, CL)
        assert not check(d, BD)

    def test_path_points_at_offending_premise(self):
        leaf_bad = Derivation(seq("p, q |- r"), "Id", p)
        d = Derivation(
            seq("p & q |- r"), "and-L", conj(p, q),
            (Derivation(seq("p & q, p, q |- r"), "Id", p),))
        ok, path = check_with_path(d, BD)
        assert not ok and path == [0]
        assert not check(leaf_bad, BD)

    def test_accepts_dropped_principal(self):
        # the premise may omit the principal formula
        d = Derivation(
            seq("p & q |- p"), "and-L", conj(p, q),
            (Derivation(seq("p, q |- p"), "Id", p),))
        assert check(d, BD)

    def test_cut(self):
        d = Derivation(
            seq("p |- r"), "Cut", q,
            (Derivation(seq("p |- q, r"), "Id", None),
             Derivation(seq("q, p |- r"), "Id", None)))
        # the cut shape is fine; the leaves are not axioms here
        ok, path = check_with_path(d, BD)
        assert not ok and path == [0]
        good = Derivation(
            seq("p |- p"), "Cut", p,
            (Derivation(seq("p |- p"), "Id", p),
             Derivation(seq("p |- p"), "Id", p)))
        assert check(good, BD)

    @pytest.mark.parametrize("rule", list(RULES))
    def test_one_step_per_rule(self, rule):
        # z, P |- z (or z |- z, P) from premises closed by Id on z
        spec = RULES[rule]
        z, a1, a2 = Var("z"), Var("a1"), Var("a2")
        args = (a1,) if spec.conn == "not" else (a1, a2)

        def principal(conn, args):
            f = App(conn, args)
            return neg(f) if spec.negated else f

        def step(p, drop_premise=False):
            if spec.side == LEFT:
                conclusion = Sequent.of([z, p], [z])
            else:
                conclusion = Sequent.of([z], [z, p])
            premises = tuple(
                Derivation(Sequent(conclusion.left | frozenset(ladd),
                                   conclusion.right | frozenset(radd)),
                           "Id", z)
                for ladd, radd in spec.premises(*args))
            if drop_premise:
                premises = premises[:-1]
            return Derivation(conclusion, rule, p, premises)

        good = principal(spec.conn, args)
        swapped = principal("and" if spec.conn == "or" else "or", (a1, a2))
        assert check(step(good), CL)
        assert check(step(good), BD) == (rule not in CLASSICAL_ONLY_RULES)
        assert not check(step(swapped), CL)
        assert not check(step(good, drop_premise=True), CL)

    def test_axioms(self):
        assert check(Derivation(seq("bot |- q"), "bot-L"), BD)
        assert check(Derivation(seq("p |- ~bot"), "not-bot-R"), BD)
        assert not check(Derivation(seq("p |- q"), "bot-L"), BD)

    @pytest.mark.parametrize("d", [
        # a Cut needs a cut formula and two premises
        Derivation(seq("p |- p"), "Cut", None,
                   (Derivation(seq("p |- p"), "Id", p),) * 2),
        Derivation(seq("p |- p"), "Cut", p,
                   (Derivation(seq("p |- p"), "Id", p),)),
        # ... with the cut formula right in the first and left in the second
        Derivation(seq("p |- p"), "Cut", q,
                   (Derivation(seq("p |- p, q"), "Id", p),
                    Derivation(seq("p |- p"), "Id", p))),
        # a logical rule's principal formula is an application
        Derivation(seq("p |- p"), "and-L", p,
                   (Derivation(seq("p |- p"), "Id", p),)),
        # a premise is the conclusion with the additions, principal kept
        # or dropped
        Derivation(seq("p & q |- p"), "and-L", conj(p, q),
                   (Derivation(seq("p, r |- p"), "Id", p),)),
    ], ids=["cut-no-formula", "cut-one-premise", "cut-formula-missing",
            "variable-principal", "foreign-premise"])
    def test_rejects_malformed_step(self, d):
        assert check_with_path(d, CL) == (False, [])


class TestDerivedRules:
    @pytest.mark.parametrize("rule", NEG_RULES)
    def test_negation_rules_derived_classically(self, rule):
        assert derived_rule_check(rule, CL)

    @pytest.mark.parametrize("rule", NEG_RULES)
    def test_negation_rules_not_derived_in_bd(self, rule):
        assert not derived_rule_check(rule, BD)

    @pytest.mark.parametrize("rule", CLASSICAL_ONLY_RULES)
    def test_classical_rules_derived_only_classically(self, rule):
        assert derived_rule_check(rule, CL)
        assert not derived_rule_check(rule, BD)

    def test_unknown_rule(self):
        with pytest.raises(UnknownNameError):
            derived_rule_check("and-L", CL)


class TestSoundness:
    def test_every_bd_proof_is_semantically_sound(self):
        texts = ["|- p -> p", "~(p & q) |- ~p | ~q", "p & q |- q & p",
                 "~(p | q) |- ~p & ~q", "p -> (q -> r), p, q |- r",
                 "~~~p |- ~p", "~(p -> q), r |- p & ~q"]
        for text in texts:
            s = seq(text)
            d = prove(s, BD)
            assert d is not None
            self._assert_sound(d)

    def _assert_sound(self, d):
        assert consequence(M, list(d.conclusion.left),
                           list(d.conclusion.right))
        for sub in d.premises:
            self._assert_sound(sub)


def _corpus():
    """The sequents of acceptance test 07: 33 formulas over p, q and bot,
    sides of at most two formulas."""
    atoms = [p, q, BOT]
    formulas = atoms + [neg(a) for a in atoms] + [
        App(conn, (a, b)) for conn in ("and", "or", "impl")
        for a in atoms for b in atoms]
    sides = [()] + [(i,) for i in range(33)] + list(
        itertools.combinations(range(33), 2))
    return formulas, [(left, right) for left in sides for right in sides]


class TestCountermodel:
    @pytest.mark.parametrize("system, m", [(BD, M), (CL, MCL)])
    def test_refutes_every_16th_unprovable_corpus_sequent(self, system, m):
        formulas, corpus = _corpus()
        envs = list(assignments(m, ["p", "q"]))
        # per formula, the valuations designating it, as a bit mask
        masks = [sum(1 << i for i, env in enumerate(envs)
                     if evaluate(m, f, env) in m.designated)
                 for f in formulas]
        full = (1 << len(envs)) - 1
        unprovable = []
        for left, right in corpus:
            gamma, delta = full, 0
            for i in left:
                gamma &= masks[i]
            for j in right:
                delta |= masks[j]
            if gamma & ~delta:
                unprovable.append(([formulas[i] for i in left],
                                   [formulas[j] for j in right]))
        # the totals of test 07: 251,408 and 257,452 of 315,844 proved
        assert len(unprovable) == {BD: 64_436, CL: 58_392}[system]
        tower = parse("~" * 24 + "p", M.signature)
        sample = unprovable[::16] + [([], [tower])]
        for left, right in sample:
            counter = Prover(system).countermodel(Sequent.of(left, right))
            assert counter is not None
            assert all(evaluate(m, f, counter) in m.designated for f in left)
            assert all(evaluate(m, f, counter) not in m.designated
                       for f in right)

    def test_small_cases(self):
        assert Prover(BD).countermodel(seq("|- p -> p")) is None
        assert Prover(BD).countermodel(seq("|- p | ~p")) == {"p": "n"}
        assert Prover(BD).countermodel(seq("p, ~p |- q")) \
            == {"p": "b", "q": "n"}
        assert Prover(CL).countermodel(seq("|- p | ~p")) is None


class TestProverInternals:
    def test_memo_failure_is_consistent(self):
        prover = Prover(BD)
        s = seq("|- p | ~p")
        assert not prover.provable(s)
        assert not prover.provable(s)  # memoized path
        assert prover.derivation(s) is None

    def test_invalid_system(self):
        with pytest.raises(Exception):
            Prover("LP")


def _fresh_formula(rng, depth):
    """A random formula of depth at most `depth` over p, q, r, bot and
    top."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([Var("p"), Var("q"), Var("r"), App("bot", ()),
                           neg(App("bot", ()))])
    conn = rng.choice(["not", "and", "or", "impl"])
    return App(conn, tuple(_fresh_formula(rng, depth - 1)
                           for _ in range(1 if conn == "not" else 2)))


def _reference_walk(s, system):
    """The frozenset walk that the mask search replaced: (left, right, step)
    per sequent in pre-order, first premise first.  The step is the axiom
    that closes the sequent, else (rule, principal, premises) for the first
    one-premise rule that fits, else the first rule that fits, else None
    (an open branch); left formulas come before right ones, each side in
    `formula_key` order, and a negated shape before plain not-L/not-R."""
    index = {LEFT: {}, RIGHT: {}}
    for name, rule in RULES.items():
        if system == CL or name not in CLASSICAL_ONLY_RULES:
            index[rule.side][rule.conn, rule.negated] = name, rule.premises

    def fit(side, f):
        if isinstance(f, Var):
            return None
        if f.conn == "not" and isinstance(f.args[0], App):
            hit = index[side].get((f.args[0].conn, True))
            if hit is not None:
                return hit, f.args[0].args
        hit = index[side].get((f.conn, False))
        return hit and (hit, f.args)

    def step(left, right):
        if left & right:
            return "Id", min(left & right, key=formula_key), ()
        if BOT in left:
            return "bot-L", None, ()
        if TOP in right:
            return "not-bot-R", None, ()
        branching = None
        for side, formulas in ((LEFT, left), (RIGHT, right)):
            for f in sorted(formulas, key=formula_key):
                hit = fit(side, f)
                if hit is not None:
                    (name, premises), args = hit
                    adds = premises(*args)
                    rest = ((left - {f}, right) if side == LEFT
                            else (left, right - {f}))
                    applied = name, f, [(rest[0] | set(ladd),
                                         rest[1] | set(radd))
                                        for ladd, radd in adds]
                    if len(adds) == 1:
                        return applied
                    branching = branching or applied
        return branching

    stack = [(s.left, s.right)]
    while stack:
        left, right = stack.pop()
        applied = step(left, right)
        yield left, right, applied
        if applied:
            stack.extend(reversed(applied[2]))


def _reference_answers(s, system):
    """(derivation, countermodel) read off `_reference_walk`; the
    countermodel as `Prover.countermodel` documents it."""
    nodes = list(_reference_walk(s, system))
    for left, _, applied in nodes:
        if applied is None:
            names = sorted(set().union(*map(variables, s.left | s.right)))
            values = "ft" if system == CL else "ntfb"
            return None, {v: values[(Var(v) in left)
                                    + 2 * (neg(Var(v)) in left)]
                          for v in names}
    walk = iter(nodes)

    def build():
        left, right, (rule, principal, premises) = next(walk)
        return Derivation(Sequent(left, right), rule, principal,
                          tuple(build() for _ in premises))

    return build(), None


class TestMaskSearch:
    @pytest.mark.parametrize("system", [BD, CL])
    def test_agrees_with_the_frozenset_walk(self, system):
        # one long-lived prover, so that later sequents reuse the bits,
        # premises and keys that earlier ones gave it, and fresh ones
        rng = random.Random(20)
        prover = Prover(system)
        verdicts = []
        for _ in range(1500):
            s = Sequent.of(*([_fresh_formula(rng, 4)
                              for _ in range(rng.randrange(4))]
                             for _ in "lr"))
            d, counter = _reference_answers(s, system)
            verdict = prover.provable(s)
            assert verdict == (d is not None)
            expected = json.dumps(d and derivation_to_json(d, system))
            for got in (prover.derivation(s), prove(s, system)):
                assert json.dumps(got and derivation_to_json(got, system)) \
                    == expected
            for got in (prover.countermodel(s),
                        Prover(system).countermodel(s)):
                assert json.dumps(got) == json.dumps(counter)
            verdicts.append(verdict)
        assert 300 < sum(verdicts) < 1200

    def test_every_16th_corpus_derivation_is_pinned(self):
        # one JSON line per proved sequent of the test-07 corpus, BD and
        # then CL, one prover per system
        formulas, corpus = _corpus()
        digest, proved = hashlib.sha256(), 0
        for system in (BD, CL):
            prover = Prover(system)
            for left, right in corpus[::16]:
                d = prover.derivation(Sequent.of([formulas[i] for i in left],
                                                 [formulas[j] for j in right]))
                if d is not None:
                    proved += 1
                    digest.update((json.dumps(derivation_to_json(d, system))
                                   + "\n").encode())
        assert proved == 31_652
        assert digest.hexdigest() == ("85216d53e6e23bcd264ccaa1d41ed08e"
                                      "4e441d4b4ef67a00adc694535c22eeae")

    def test_stops_at_the_first_open_branch(self):
        # (a0|b0) & ... & (a17|b17): open leaves listed per formula and
        # combined would number 2^18 here
        big = reduce(conj, [disj(Var(f"a{i}"), Var(f"b{i}"))
                            for i in range(18)])
        x = Var("x")
        for system in (BD, CL):
            start = time.perf_counter()
            assert not Prover(system).provable(Sequent.of([big], [Var("c")]))
            assert Prover(system).provable(Sequent.of([conj(x, big)], [x]))
            assert time.perf_counter() - start < 2

    def test_deep_formula_against_a_separate_copy(self):
        def chain():
            return reduce(lambda f, _: neg(f), range(1000), p)

        s = Sequent.of([chain()], [chain()])
        for system in (BD, CL):
            assert Prover(system).provable(s)
            assert prove(s, system) is not None


def _description(rng, depth):
    """A random formula over p, q, r, s and bot as nested tuples."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([("p",), ("q",), ("r",), ("s",), ("bot",)])
    conn = rng.choice(["not", "and", "or", "impl"])
    return (conn, *(_description(rng, depth - 1)
                    for _ in range(1 if conn == "not" else 2)))


def _built(d, backwards):
    """The formula the description d names, its arguments built last first
    when `backwards`."""
    if len(d) == 1:
        return App("bot", ()) if d[0] == "bot" else Var(d[0])
    args = [_built(a, backwards) for a in (d[:0:-1] if backwards else d[1:])]
    return App(d[0], tuple(args[::-1] if backwards else args))


def _outputs(system, d, counter):
    """JSON of a derivation or None, and a countermodel or None."""
    return json.dumps([d and derivation_to_json(d, system), counter])


def _answers(s, system):
    return _outputs(system, prove(s, system),
                    Prover(system).countermodel(s))


class TestAllocationOrder:
    """A set of formulas iterates in identity order, which depends on where
    each formula was allocated; output must not."""

    @pytest.mark.parametrize("system", [BD, CL])
    def test_same_output_whatever_the_allocation_order(self, system):
        # each pass makes its formulas anew, in its own order
        rng = random.Random(7)
        sequents = [[[_description(rng, 4) for _ in range(rng.randrange(4))]
                     for _ in "lr"] for _ in range(150)]
        passes = []
        for backwards in (False, True):
            outputs = []
            for sides in (sequents[::-1] if backwards else sequents):
                s = Sequent.of(*([_built(d, backwards) for d in
                                  (side[::-1] if backwards else side)]
                                 for side in sides))
                outputs.append(_answers(s, system))
                assert outputs[-1] == _outputs(
                    system, *_reference_answers(s, system))
            passes.append(outputs[::-1] if backwards else outputs)
            del s
        assert passes[0] == passes[1]


class TestSequentText:
    def test_parse_reads_what_str_prints(self):
        formulas, corpus = _corpus()
        for s in [seq("|-"), seq("p, ~q |- q | r, bot"), *(
                Sequent.of(*([formulas[i] for i in side] for side in sides))
                for sides in corpus[::97])]:
            assert Sequent.parse(str(s)) == s

    def test_parse_over_another_signature(self):
        sig = presets.preset("bd-delta").signature
        assert Sequent.parse("delta p |- p", sig) == Sequent.of(
            [App("delta", (p,))], [p])
        with pytest.raises(FdekitError, match="not in the signature"):
            Sequent.parse("delta p |- p")

    @pytest.mark.parametrize("text, error", [
        ("p, q", "sequent syntax is 'Gamma |- Delta'"),
        # positions count from the start of each formula, as stripped
        ("p |-  q, r &", r"\(at position 4\)"),
        ("p, |- q", r"\(at position 0\)"),
    ])
    def test_parse_errors(self, text, error):
        with pytest.raises(FdekitError, match=error):
            Sequent.parse(text)


class TestJson:
    def test_round_trip(self):
        d = prove(seq("~(p & q) |- ~p | ~q"), BD)
        data = derivation_to_json(d, BD)
        d2, system = derivation_from_json(data)
        assert system == BD
        assert d2 == d
        assert check(d2, BD)

    def test_fields(self):
        d = prove(seq("|- p -> p"), CL)
        data = derivation_to_json(d, CL)
        assert data["system"] == CL
        assert data["rule"] == "impl-R"
        assert data["conclusion"] == {"left": [], "right": ["p -> p"]}
        assert data["principal"] == "p -> p"

    def test_deeper_than_the_limit(self):
        d = Derivation(seq("p |- p"), "Id", p)
        for _ in range(MAX_DERIVATION_DEPTH):
            d = Derivation(d.conclusion, "Id", p, (d,))
        assert derivation_to_json(d, BD)["rule"] == "Id"
        d = Derivation(d.conclusion, "Id", p, (d,))
        with pytest.raises(FdekitError, match="derivation deeper than 400"):
            derivation_to_json(d, BD)
