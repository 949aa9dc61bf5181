import gc
import itertools
import random
import re
import weakref

import pytest

from conftest import _cell
from fdekit import bd, definability, presets
from fdekit.claims import SYNONYMITIES
from fdekit.definability import (
    DefinabilityVerdict,
    bd_preservation_criterion,
    definable,
    interdefinable,
    logic_definable_in,
    synonymity_via_consequence,
    synonymous,
)
from fdekit.errors import (
    ArityCapError,
    FdekitError,
    NotBdExpansionError,
    NotCommonExpansionError,
    NotSimpleError,
)
from fdekit.matrix import (
    Matrix,
    consequence,
    equivalent,
    _compose,
    evaluate,
    subpower,
    term_functions,
)
from fdekit.syntax import App, Signature, Var, neg, parse

p = Var("p")

# no unary polynomial designates exactly one of y and z: not simple
NOT_SIMPLE = Matrix(
    ("x", "y", "z"), frozenset(["x"]), Signature({"f1": 1, "f2": 1}),
    {"f1": [0, 1, 1], "f2": [0, 1, 1]})


class TestSynonymity:
    @pytest.mark.parametrize("preset_name,lhs,rhs", SYNONYMITIES)
    def test_displayed_synonymities(self, preset_name, lhs, rhs):
        # the claims check these with `synonymous`; the four-consequence
        # characterization must agree
        m = presets.preset(preset_name)
        assert synonymity_via_consequence(
            m, parse(lhs, m.signature), parse(rhs, m.signature))

    def test_negative_example(self):
        m = presets.preset("bd-impl-bot")
        assert not synonymous(
            m, parse("~p", m.signature), parse("p -> bot", m.signature))

    def test_rejects_non_simple_matrix(self):
        with pytest.raises(NotSimpleError):
            synonymous(NOT_SIMPLE, Var("p"), App("f1", (Var("p"),)))

    def test_simplicity_cache_frees_matrix(self):
        m = bd.sr_decode(13129950543)
        assert synonymous(m, p, p)
        ref = weakref.ref(m)
        del m
        gc.collect()
        assert ref() is None

    def test_via_consequence_agrees(self):
        m = presets.preset("bd")
        a = parse("~(p & q)", m.signature)
        b = parse("~p | ~q", m.signature)
        assert synonymity_via_consequence(m, a, b)
        assert not synonymity_via_consequence(m, parse("p", m.signature),
                                              parse("p | ~p", m.signature))

    def test_via_consequence_needs_bd_expansion(self):
        with pytest.raises(NotBdExpansionError):
            synonymity_via_consequence(presets.preset("lp"), p, p)

    def test_via_consequence_shares_one_base_matrix(self):
        # matrices are immutable, so the base is built once; the verdict
        # is still the four consequences
        base = bd.bd_matrix()
        assert bd.bd_matrix() is base
        texts = ["p", "~~p", "p & q", "q & p", "~(p | q)", "~p & ~q",
                 "p | p & q", "p & (q | ~q)", "~(p & ~p)"]
        for name in ("bd", "bd-impl-bot", "bd-cons-det-circ"):
            m = presets.preset(name)
            for a, b in itertools.product(
                    [parse(t, m.signature) for t in texts], repeat=2):
                expected = all(consequence(m, [x], [y]) for x, y in (
                    (a, b), (b, a), (neg(a), neg(b)), (neg(b), neg(a))))
                assert synonymity_via_consequence(m, a, b) is expected
        assert bd.bd_matrix() is base
        with pytest.raises(NotBdExpansionError):
            synonymity_via_consequence(presets.preset("k3"), p, p)


class TestDefinable:
    def test_delta_from_classical(self):
        m = presets.preset("bd-impl-bot-delta")
        verdict = definable(m, "delta", ["not", "impl", "bot"])
        assert verdict.definable
        for a in m.values:
            assert evaluate(m, verdict.witness, {"p1": a}) == \
                _cell(m, "delta", (a,))

    def test_conflation_not_definable(self):
        m = presets.preset("bd-impl-bot-confl")
        verdict = definable(m, "confl", ["not", "and", "or", "impl", "bot"])
        assert not verdict.definable
        assert verdict.witness is None

    def test_nullary_via_constant_unary_term(self):
        # bot is definable from delta, not, and through delta p & ~(delta p)
        m = presets.preset("bd-impl-bot-delta")
        verdict = definable(m, "bot", ["not", "and", "delta"])
        assert verdict.definable
        for a in m.values:
            assert evaluate(m, verdict.witness, {"p": a}) == "f"
        # so every closure on one or two rows holds its constant restriction
        f = bytes([m.values.index("f")])
        for k in (1, 2):
            for rows in itertools.combinations([(v,) for v in range(4)], k):
                assert f * k in subpower(m, ["not", "and", "delta"], rows)

    def test_nullary_prefers_closed_terms(self):
        # ~(N -> p) is as small, but closed terms are searched first
        m = presets.preset("bd-impl-b-n-bot")
        verdict = definable(m, "bot", ["N", "impl", "not"])
        assert verdict.witness == parse("~(N -> N)", m.signature)

    @pytest.mark.parametrize("name, target, allowed", [
        ("bd-delta-cons-det", "cons", "and,delta,not"),
        *((name, c, ",".join(sorted(set(m.signature.connectives) - {c})))
          for name in presets.PRESET_NAMES
          for m in [presets.preset(name)]
          for c, k in sorted(m.signature.connectives.items()) if k == 1)])
    def test_witness_is_the_clone_witness(self, name, target, allowed):
        m, allowed = presets.preset(name), allowed.split(",")
        clone = {tf.table: tf.witness
                 for tf in term_functions(m, 1, allowed)}
        table = tuple(m.values[i] for i in m.index_tables[target])
        assert definable(m, target, allowed).witness == clone.get(table)

    def test_clone_exhausted(self):
        # projections and the constant f hold the meet's restriction to
        # any one or two rows, but not its whole table
        verdict = definable(presets.preset("cl-impl-bot"), "and", ["bot"])
        assert verdict == DefinabilityVerdict(
            False, reason="clone exhausted without the table")

    def test_rejects_non_simple_matrix(self):
        with pytest.raises(NotSimpleError, match="needs a simple matrix"):
            definable(NOT_SIMPLE, "f2", ["f1"])

    def test_target_validation(self):
        m = presets.preset("bd-impl-bot")
        with pytest.raises(ValueError):
            definable(m, "delta", ["not"])
        with pytest.raises(ValueError):
            definable(m, "impl", ["impl", "bot"])

    @pytest.mark.parametrize("target, allowed, error", [
        ("delta", ["not"], "not in the signature"),
        ("impl", ["impl", "bot"], "must not contain the target")],
        ids=["unknown", "allowed"])
    def test_target_errors_are_fdekit_errors(self, target, allowed, error):
        with pytest.raises(FdekitError, match=error):
            definable(presets.preset("bd-impl-bot"), target, allowed)


def _named_relation(reason):
    """The relation a certificate names, as tuples of value names."""
    members = reason.split("{", 1)[1].split("}", 1)[0]
    return {tuple(t.split(",")) for t in re.findall(r"\(([^)]*)\)", members)}


def _preserves(m, conn, rel):
    """Brute force, over value names: conn maps members into rel."""
    k, width = m.signature.arity(conn), len(next(iter(rel)))
    table = {args: _cell(m, conn, args)
             for args in itertools.product(m.values, repeat=k)}
    return all(
        tuple(table[col] for col in (zip(*args) if args else [()] * width))
        in rel for args in itertools.product(rel, repeat=k))


def _targets(arities=(0, 1, 2)):
    """Each preset's connectives of these arities, with the others in name
    order."""
    for name in presets.PRESET_NAMES:
        m = presets.preset(name)
        for c, k in sorted(m.signature.connectives.items()):
            if k in arities:
                yield name, m, c, sorted(set(m.signature.connectives) - {c})


def _rung_reason(m, target, allowed):
    """`definable`'s reason from the rungs below the clone, None if the
    target passes them all: with the clone arity cap just below the
    target's arity, `definable` then raises ArityCapError instead of
    closing the clone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(definability, "MAX_CLONE_ARITY",
                   m.signature.arity(target) - 1)
        try:
            return definable(m, target, allowed).reason
        except ArityCapError:
            return None


def _first_broken(m, conn, relations):
    """The first relation (a set of value-index bytes) that the connective
    does not preserve: applied to some of its tuples, it leaves it."""
    table, k = m.byte_tables[conn], m.signature.arity(conn)
    for rel in relations:
        width = len(next(iter(rel), b""))
        if any(_compose(table, len(m.values), width, args) not in rel
               for args in itertools.product(rel, repeat=k)):
            return rel
    return None


def _catalogue_certificate(m, target, allowed):
    """The relation catalogue that the row ladder replaced, kept as its
    oracle: the proper subuniverses of the carrier, then, on at most four
    values, of its square, generated by one or two tuples (skipping a pair
    that one of its tuples generates); the first the target breaks.  The
    tuples s and t generate the closure on the rows zip(s, t)."""
    allowed = sorted(set(allowed))
    nvals = len(m.values)

    def relations():
        for width in (1, 2)[:1 + (nvals <= 4)]:
            points = list(map(bytes, itertools.product(range(nvals),
                                                       repeat=width)))
            single = {s: subpower(m, allowed, zip(s)) for s in points}
            pairs = (subpower(m, allowed, zip(s, t))
                     for s, t in itertools.combinations(points, 2)
                     if t not in single[s] and s not in single[t])
            yield from (rel for rel in itertools.chain(single.values(), pairs)
                        if len(rel) < nvals ** width)

    return _first_broken(m, target, relations())


class TestRelationCertificate:
    def test_preset_binary_targets(self):
        # every target of every arity over every allowed set: a relation
        # that a rung names is preserved by every allowed connective and
        # broken by the target, so no witness exists, and a missing
        # diagonal is not a unary term function; where no rung fails over
        # all the other connectives, the clone search finds a witness on
        # every preset
        queries = 0
        for name, m, c, rest in _targets():
            n = m.signature.arity(c)
            for r in range(len(rest) + 1):
                for allowed in itertools.combinations(rest, r):
                    queries += 1
                    reason = _rung_reason(m, c, allowed)
                    if reason is None:
                        if r == len(rest):
                            assert definable(m, c, rest).definable, (name, c)
                    elif reason == "diagonal missing from the unary clone":
                        diagonal = tuple(_cell(m, c, (v,) * n)
                                         for v in m.values)
                        assert diagonal not in {
                            tf.table for tf in term_functions(m, 1, allowed)}
                    else:
                        rel = _named_relation(reason)
                        assert all(_preserves(m, g, rel) for g in allowed), \
                            (name, c, allowed)
                        assert not _preserves(m, c, rel), (name, c, allowed)
        assert queries == 2368

    def test_same_verdicts_as_the_catalogue(self):
        # over all the other connectives, and over each set that leaves out
        # one other binary connective (the catalogue takes about 2 s here)
        verdicts = []
        for name, m, c, rest in _targets([2]):
            for allowed in [rest] + [[g for g in rest if g != x] for x in rest
                                     if m.signature.arity(x) == 2]:
                verdicts.append(_rung_reason(m, c, allowed) is None)
                assert verdicts[-1] == \
                    (_catalogue_certificate(m, c, allowed) is None), \
                    (name, c, allowed)
        assert verdicts.count(True) >= 40 and verdicts.count(False) >= 50

    def test_certificate_agrees_with_exhausted_clone(self):
        # impl fails on the first rung, or on a two-row one
        m = presets.preset("bd-impl-bot")
        for target, allowed, reason in [
                ("impl", ["not", "and", "or", "bot"],
                 "diagonal missing from the unary clone"),
                ("or", ["and", "impl"],
                 "breaks the relation {(t,t), (f,f), (b,b), (n,f)}, which "
                 "the allowed connectives preserve")]:
            table = tuple(m.values[i] for i in m.index_tables[target])
            assert table not in {
                tf.table for tf in term_functions(m, 2, allowed)}
            assert definable(m, target, allowed).reason == reason

    @pytest.mark.parametrize("name,stride", [
        ("cl", 1), ("lp", 1), ("k3", 1), ("bd", 4)])
    def test_binary_term_functions_break_nothing(self, name, stride):
        m = presets.preset(name)
        conns = sorted(m.signature.connectives)
        funcs = sorted(term_functions(m, 2, conns), key=lambda tf: tf.table)
        for tf in funcs[::stride]:
            table = dict(zip(itertools.product(m.values, repeat=2), tf.table))
            expanded = bd.expand(m, bd.NamedConnective("c", 2, table))
            assert _rung_reason(expanded, "c", conns) is None, tf

    def test_relation_of_two_generators(self):
        # every relation generated by one tuple is preserved; {t,f,b},
        # generated by t and b, is not
        m = presets.preset("bd")
        outputs = iter("tftbtfttnfbtfnnn")
        table = {args: next(outputs)
                 for args in itertools.product(m.values, repeat=2)}
        m = bd.expand(m, bd.NamedConnective("c", 2, table))
        verdict = definable(m, "c", ["not", "and", "or"])
        assert not verdict.definable
        assert _named_relation(verdict.reason) == {("t",), ("f",), ("b",)}
        assert tuple(table.values()) not in {
            tf.table for tf in term_functions(m, 2, ["not", "and", "or"])}

    def test_verdict_names_the_relation(self):
        m = presets.preset("bd-impl-b-n-bot")
        allowed = ["not", "and", "or", "B", "N"]
        verdict = definable(m, "impl", allowed)
        assert not verdict.definable and verdict.witness is None
        assert verdict.reason.startswith("breaks the relation {")
        assert verdict.reason.endswith("which the allowed connectives preserve")
        rel = _named_relation(verdict.reason)
        assert all(_preserves(m, g, rel) for g in allowed)
        assert not _preserves(m, "impl", rel)


class TestPreservationCriterion:
    def test_named_connectives(self):
        assert bd_preservation_criterion(bd.DELTA)
        assert bd_preservation_criterion(bd.CIRC)
        assert bd_preservation_criterion(bd.CONS)
        assert bd_preservation_criterion(bd.DET)
        assert not bd_preservation_criterion(bd.CONFL)
        assert not bd_preservation_criterion(bd.B_CONST)
        assert not bd_preservation_criterion(bd.N_CONST)

    def test_heart_family_all_pass(self):
        for r in range(5):
            for v in itertools.combinations(bd.VALUES, r):
                assert bd_preservation_criterion(bd.heart(v))

    def test_binary_connectives(self):
        assert bd_preservation_criterion(bd.AND)
        assert bd_preservation_criterion(bd.OR)
        assert bd_preservation_criterion(bd.IMPL)


class TestCircBlindness:
    def test_unary_circ_clone_structure(self):
        # every unary term over {not, and, or, circ} either fixes b and n
        # or sends both to the same classical value
        m = bd.expand(bd.bd_matrix(), bd.CIRC)
        for tf in term_functions(m, 1, m.signature.connectives):
            f = dict(zip(m.values, tf.table))
            gb, gn = f["b"], f["n"]
            assert (gb == "b" and gn == "n") or (gb == gn and gb in ("t", "f"))


class TestReplacementSoundness:
    def _contexts(self, sig, depth):
        hole = Var("hole")
        atoms = [hole, Var("r"), Var("s"), App("bot", ())]
        layers = [atoms]
        seen = set(atoms)
        for _ in range(depth):
            new = [App("not", (g,)) for g in layers[-1]]
            for conn in ("and", "or", "impl"):
                new.extend(App(conn, (g, h))
                           for g in layers[-1] for h in atoms)
                new.extend(App(conn, (g, h))
                           for g in atoms for h in layers[-1])
            fresh = []
            for f in new:
                if f not in seen:
                    seen.add(f)
                    fresh.append(f)
            layers.append(fresh)
        return [f for layer in layers for f in layer]

    def test_synonyms_are_intersubstitutable(self):
        m = presets.preset("bd-impl-bot-delta")
        a = parse("delta p", m.signature)
        b = parse("~(p -> bot)", m.signature)
        assert synonymous(m, a, b)
        # exhaustive to depth 2, a deterministic sample of depth 3
        shallow = self._contexts(m.signature, 2)
        shallow_set = set(shallow)
        deep = [c for c in self._contexts(m.signature, 3)
                if c not in shallow_set]
        contexts = shallow + random.Random(5).sample(deep, 600)
        assert len(contexts) > 1000
        from fdekit.syntax import substitute
        for c in contexts:
            assert equivalent(m, substitute(c, {"hole": a}),
                              substitute(c, {"hole": b}))


class TestInterdefinability:
    def test_circ_definable_in_impl_bot(self):
        # only one way: the forward direction is a claim
        assert not logic_definable_in(presets.preset("bd-impl-bot"),
                                      presets.preset("bd-circ"),
                                      presets.preset("bd-impl-bot-circ"))

    def test_reflexive_and_symmetric(self):
        common = presets.preset("bd-impl-bot-delta")
        a = presets.preset("bd-impl-bot")
        b = presets.preset("bd-delta")
        assert interdefinable(a, a, common)
        assert interdefinable(a, b, common) == interdefinable(b, a, common)

    def test_common_matrix_validated(self):
        # the common matrix must expand each logic: LP has another carrier,
        # and this delta, on the same carrier, another table
        common = presets.preset("bd-impl-bot-delta")
        b = presets.preset("bd-delta")
        other_delta = bd.expand(bd.bd_matrix(), bd.NamedConnective(
            "delta", 1, bd.CIRC.table))
        for a in (presets.preset("lp"), other_delta):
            with pytest.raises(NotCommonExpansionError):
                logic_definable_in(a, b, common)
            with pytest.raises(NotCommonExpansionError):
                interdefinable(b, a, common)

    def test_common_matrix_must_be_simple(self):
        with pytest.raises(NotSimpleError, match="simple common matrix"):
            logic_definable_in(NOT_SIMPLE, NOT_SIMPLE, NOT_SIMPLE)
