import array
import dataclasses
import functools
import gc
import itertools
import json
import random
import re
import signal
import tracemalloc
from contextlib import contextmanager

import pytest

from conftest import _cell
from fdekit import bd, laws, matrix, presets
from fdekit.definability import synonymous
from fdekit.errors import (
    ArityCapError,
    DegenerateDesignatedError,
    DuplicateConnectiveError,
    FdekitError,
    InvalidInputError,
    NotClosedError,
    SignatureMismatchError,
    UnboundVariableError,
)
from fdekit.matrix import (
    Matrix,
    assignments,
    compile_formulas,
    consequence,
    consequence_countermodel,
    equivalence_countermodel,
    equivalent,
    evaluate,
    is_expansion,
    matrix_from_json,
    matrix_to_json,
    restrict,
    simplicity,
    term_functions,
)
from fdekit.syntax import (
    BOT, TOP, App, Signature, Var, conj, disj, impl, neg, parse,
    print_formula, substitute, variables)

BD = presets.preset("bd")
BDI = presets.preset("bd-impl-bot")
LP = presets.preset("lp")
K3 = presets.preset("k3")
CL = presets.preset("cl")

p, q = Var("p"), Var("q")


class TestEvaluate:
    def test_lattice_operations(self):
        assert evaluate(BD, conj(p, q), {"p": "b", "q": "n"}) == "f"
        assert evaluate(BD, disj(p, q), {"p": "b", "q": "n"}) == "t"
        assert evaluate(BD, neg(p), {"p": "b"}) == "b"

    def test_implication_and_bot(self):
        f = parse("p -> q", BDI.signature)
        assert evaluate(BDI, f, {"p": "n", "q": "f"}) == "t"
        assert evaluate(BDI, f, {"p": "b", "q": "f"}) == "f"
        assert evaluate(BDI, parse("bot", BDI.signature), {}) == "f"

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError):
            evaluate(BD, p, {})
        # arguments are valued left to right
        with pytest.raises(UnboundVariableError, match="'q'"):
            evaluate(BD, conj(q, p), {})

    def test_value_outside_the_carrier(self):
        for f in (neg(p), p):
            with pytest.raises(InvalidInputError, match="'x' is not a truth"):
                evaluate(BD, f, {"p": "x"})

    def test_deep_negation_chain(self):
        # built in code, far past the recursion limit
        chain = p
        for _ in range(5000):
            chain = neg(chain)
        assert evaluate(BD, chain, {"p": "t"}) == "t"
        assert evaluate(BD, neg(chain), {"p": "t"}) == "f"

    def test_foreign_connective(self):
        with pytest.raises(SignatureMismatchError):
            evaluate(BD, App("impl", (p, q)), {"p": "t", "q": "t"})
        # a connective is checked before its arguments are valued
        with pytest.raises(SignatureMismatchError):
            evaluate(BD, App("impl", (p, q)), {})


class TestConsequence:
    def test_absurdity_fails_with_first_countermodel(self):
        counter = consequence_countermodel(BD, [conj(p, neg(p))], [q])
        assert counter == {"p": "b", "q": "f"}

    def test_excluded_middle_lp_vs_bd(self):
        em = disj(p, neg(p))
        assert consequence(LP, [], [em])
        assert not consequence(BD, [], [em])
        assert consequence_countermodel(BD, [], [em]) == {"p": "n"}

    def test_k3_vs_lp_absurdity(self):
        assert consequence(K3, [p, neg(p)], [q])
        assert not consequence(LP, [p, neg(p)], [q])

    def test_overlap(self):
        assert consequence(BD, [p, q], [q])

    def test_multiple_conclusion(self):
        assert consequence(CL, [], [p, neg(p)])
        assert not consequence(BD, [], [p, neg(p)])


class TestEquivalence:
    def test_de_morgan(self):
        assert equivalent(BD, neg(conj(p, q)), disj(neg(p), neg(q)))

    def test_countermodel_order(self):
        counter = equivalence_countermodel(BD, p, neg(p))
        assert counter == {"p": "t"}

    def test_not_equivalent_despite_mutual_consequence(self):
        # p and p&(q|~q) designate together in LP yet differ in value
        # under p=t, q=b
        lhs, rhs = p, conj(p, disj(q, neg(q)))
        assert consequence(LP, [lhs], [rhs])
        assert consequence(LP, [rhs], [lhs])
        assert not equivalent(LP, lhs, rhs)
        assert equivalence_countermodel(LP, lhs, rhs) == {"p": "t", "q": "b"}


def _reference_consequence(m, gamma, delta):
    names = sorted(set().union(*(variables(f) for f in gamma + delta)))
    for combo in itertools.product(m.values, repeat=len(names)):
        a = dict(zip(names, combo))
        if all(evaluate(m, f, a) in m.designated for f in gamma) and not any(
                evaluate(m, f, a) in m.designated for f in delta):
            return a
    return None


def _reference_equivalence(m, a, b):
    names = sorted(variables(a) | variables(b))
    for combo in itertools.product(m.values, repeat=len(names)):
        asg = dict(zip(names, combo))
        if evaluate(m, a, asg) != evaluate(m, b, asg):
            return asg
    return None


def _random_formula(rng, sig, names, size):
    """A random formula over the names (closed when there are none)."""
    nullary = [c for c, k in sorted(sig.connectives.items()) if k == 0]
    if size == 0:
        if nullary and (not names or rng.random() < 0.2):
            return App(rng.choice(nullary), ())
        return Var(rng.choice(names or ["p"]))
    conn, k = rng.choice([ck for ck in sorted(sig.connectives.items())
                          if ck[1] > 0])
    return App(conn, tuple(_random_formula(rng, sig, names, size // 2)
                           for _ in range(k)))


def _copy(f):
    """f rebuilt from new objects, equal to f but sharing no App with it."""
    if isinstance(f, Var):
        return f
    return App(f.conn, tuple(map(_copy, f.args)))


def _nested(k, fn, args=()):
    """A JSON table over the values v0..v4 of `fn` on value indices."""
    if len(args) == k:
        return f"v{fn(*args)}"
    return [_nested(k, fn, args + (i,)) for i in range(5)]


# A De Morgan chain of five values with a 4-ary polynomial, (a & b) | (c &
# ~d): its table has 625 cells, more than a `bytes.translate` table holds,
# so `_compose` applies it point by point.
WIDE_TABLE = matrix_from_json({
    "values": [f"v{i}" for i in range(5)],
    "designated": ["v3", "v4"],
    "connectives": {
        "not": {"arity": 1, "table": _nested(1, lambda a: 4 - a)},
        "and": {"arity": 2, "table": _nested(2, min)},
        "m4": {"arity": 4, "table": _nested(
            4, lambda a, b, c, d: max(min(a, b), min(c, 4 - d)))},
    },
})


class TestKernelAgainstEvaluate:
    """Countermodels from value vectors equal the first refuting
    assignment found by `evaluate` over `itertools.product`."""

    @pytest.mark.parametrize("name", [
        "bd", "bd-impl-bot", "bd-b-n", "lp", "k3", "cl-impl-bot",
        "wide-table"])
    @pytest.mark.parametrize("block_points", [4, 16, matrix._BLOCK_POINTS],
                             ids=["blocks", "two-var-blocks", "one-block"])
    def test_random_queries(self, name, block_points, monkeypatch):
        monkeypatch.setattr(matrix, "_BLOCK_POINTS", block_points)
        m = WIDE_TABLE if name == "wide-table" else presets.preset(name)
        rng = random.Random(name)
        for _ in range(150):
            names = ["p", "q", "r", "s"][:rng.randrange(5)]

            def some(count):
                return [_random_formula(rng, m.signature, names,
                                        rng.randrange(6))
                        for _ in range(count)]

            gamma, delta = some(rng.randrange(3)), some(rng.randrange(3))
            assert consequence_countermodel(m, gamma, delta) \
                == _reference_consequence(m, gamma, delta)
            a, b = some(2)
            assert equivalence_countermodel(m, a, b) \
                == _reference_equivalence(m, a, b)
            # subformula objects used more than once: b stands for every
            # variable of a, and a for p in b
            shared = substitute(a, dict.fromkeys(names, b))
            nested = substitute(b, {"p": a})
            assert consequence_countermodel(m, [shared, a], [nested, b]) \
                == _reference_consequence(m, [shared, a], [nested, b])
            assert equivalence_countermodel(m, shared, nested) \
                == _reference_equivalence(m, shared, nested)

    @pytest.mark.parametrize("name", ["bd-impl-bot", "lp", "wide-table"])
    def test_repeated_subterms(self, name):
        # equal subterms built as separate objects share one kernel step
        m = WIDE_TABLE if name == "wide-table" else presets.preset(name)
        rng = random.Random(name)
        for _ in range(100):
            names = ["p", "q", "r"][:rng.randrange(1, 4)]
            parts = [_random_formula(rng, m.signature, names, rng.randrange(4))
                     for _ in range(3)]

            def some():
                # copies of the parts put for the variables
                shape = _random_formula(rng, m.signature, names,
                                        rng.randrange(4))
                return substitute(shape, {n: _copy(rng.choice(parts))
                                          for n in names})

            gamma, delta = [some(), some()], [some(), _copy(parts[0])]
            assert consequence_countermodel(m, gamma, delta) \
                == _reference_consequence(m, gamma, delta)
            a, b = some(), some()
            assert equivalence_countermodel(m, a, b) \
                == _reference_equivalence(m, a, b)
            assert equivalence_countermodel(m, a, _copy(a)) is None

    def test_assignments_from_every_start(self):
        names = ["r", "p", "q"]
        full = list(assignments(BD, names))
        assert full == [dict(zip("pqr", combo))
                        for combo in itertools.product(BD.values, repeat=3)]
        for start in range(len(full) + 1):
            assert list(assignments(BD, names, start)) == full[start:]

    def test_wide_table_term_functions(self):
        # the unary clone over not and m4 is {p, ~p, p & ~p, p | ~p}
        excluded_middle = tuple(f"v{max(i, 4 - i)}" for i in range(5))
        clone = {tf.table: tf.witness
                 for tf in term_functions(WIDE_TABLE, 1, ["not", "m4"])}
        assert len(clone) == 4
        assert tuple(evaluate(WIDE_TABLE, clone[excluded_middle], {"p1": v})
                     for v in WIDE_TABLE.values) == excluded_middle
        assert print_formula(clone[excluded_middle]) == "m4(p1, p1, ~p1, p1)"
        assert ("v4",) * 5 not in clone

    @pytest.mark.parametrize("name, nvars, blocks", [
        ("bd", 8, 1), ("bd", 9, 4), ("k3", 10, 1), ("k3", 11, 3),
        ("cl", 16, 1), ("cl", 17, 2)])
    def test_blocks_bounded_by_points(self, name, nvars, blocks, monkeypatch):
        # the fewest leading variables that leave at most 4^8 points, on
        # the plane form that these programs take, and then on bytes; the
        # refuting mask sees each block's points
        def refuting(*args):
            program, mask = run_refuting(*args)
            return program, matrix._Mask(
                lambda vectors, slots, npoints: calls.append(
                    ("bytes", npoints))
                or mask.on_bytes(vectors, slots, npoints),
                lambda vectors, slots, ones: calls.append(
                    ("planes", ones.bit_length()))
                or mask.on_planes(vectors, slots, ones))

        run_refuting = matrix._refuting
        monkeypatch.setattr(matrix, "_refuting", refuting)
        ps = [Var(f"p{i}") for i in range(nvars)]
        m = presets.preset(name)
        for form, plane_points in (("planes", 256), ("bytes", 4 ** 9)):
            monkeypatch.setattr(matrix, "_PLANE_POINTS", plane_points)
            calls = []
            assert consequence(m, [functools.reduce(conj, ps)], ps[:1])
            assert calls == [(form, len(m.values) ** nvars // blocks)] * blocks

    def test_wide_carrier_block_memory(self):
        # 16 values and 5 variables: 16 blocks of 16^4 points, not one
        # vector of 16^5 points per subterm
        values = tuple(f"v{i}" for i in range(16))
        m = Matrix(values, frozenset(values[-1:]), Signature({"and": 2}),
                   {"and": bytes(min(a, b_) for a in range(16)
                                 for b_ in range(16))})
        ps = [Var(f"p{i}") for i in range(5)]
        matrix._projections.cache_clear()
        tracemalloc.start()
        try:
            assert consequence(m, [functools.reduce(conj, ps)], ps[:1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

    def test_empty_sides(self):
        assert consequence_countermodel(BD, [], []) == {}
        assert consequence_countermodel(BD, [], [p]) == {"p": "f"}
        assert consequence_countermodel(BD, [p], []) == {"p": "t"}

    def test_closed_formulas(self):
        m = presets.preset("bd-b-n")
        b, n = App("B", ()), App("N", ())
        assert consequence_countermodel(m, [], [n]) == {}
        assert consequence_countermodel(m, [], [b]) is None
        assert equivalence_countermodel(m, b, n) == {}
        assert equivalence_countermodel(m, conj(b, n), neg(disj(b, n))) is None

    @pytest.mark.parametrize("formula", [
        App("impl", (p, q)), App("not", (p, q)), App("delta", (p,)),
        App("impl", (App("delta", (p,)), q))])
    def test_uninterpreted_connective(self, formula):
        # the error names the connective `evaluate` meets first, in
        # pre-order: impl, not delta, in the last formula
        with pytest.raises(SignatureMismatchError) as first:
            evaluate(BD, formula, {"p": "t", "q": "t"})
        message = re.escape(str(first.value))
        with pytest.raises(SignatureMismatchError, match=message):
            consequence_countermodel(BD, [p], [formula])
        with pytest.raises(SignatureMismatchError, match=message):
            equivalence_countermodel(BD, formula, p)

    def test_shared_subformulas_compile_once(self):
        a = conj(p, neg(q))
        program = compile_formulas([disj(a, a), neg(a), q])
        assert program.names == ("p", "q")
        # ~q, a, a | a, ~a: the second a is the same object
        assert [conn for conn, _ in program.steps] \
            == ["not", "and", "or", "not"]
        assert program.steps[2] == ("or", (3, 3))
        assert program.slots == (4, 5, 1)
        assert program.connectives == (("or", 2), ("and", 2), ("not", 1))
        # equal subterms built as separate objects compile once too
        assert compile_formulas(
            [disj(conj(p, neg(q)), conj(p, neg(q))), neg(conj(p, neg(q))),
             q]) == program
        # formulas are interned: TOP's bot is BOT
        assert TOP.args[0] is BOT
        program = compile_formulas([TOP, neg(BOT), BOT])
        assert program.steps == (("bot", ()), ("not", (0,)))
        assert program.slots == (1, 1, 0)


def _reference_compile(formulas):
    """`compile_formulas` as it was written first: each App keyed by its
    id, each step's arguments a list of names and step numbers, turned
    into slots once the variables are sorted."""
    formulas = list(formulas)
    ref = {}
    steps = []
    names = set()
    connectives = {}
    stack = formulas[::-1]
    while stack:
        f = stack.pop()
        if f is None:
            f = stack.pop()
            ref[id(f)] = len(steps)
            steps.append((f.conn, [a.name if type(a) is Var else ref[id(a)]
                                   for a in f.args]))
        elif type(f) is Var:
            names.add(f.name)
        elif id(f) not in ref:
            connectives[f.conn, len(f.args)] = None
            stack += (f, None, *reversed(f.args))
    ordered = sorted(names)
    slot = {name: i for i, name in enumerate(ordered)}
    slot.update((step, len(ordered) + step) for step in range(len(steps)))
    return matrix.Program(
        tuple(ordered),
        tuple([(conn, tuple([slot[a] for a in args])) for conn, args in steps]),
        tuple([slot[f.name if type(f) is Var else ref[id(f)]]
               for f in formulas]),
        tuple(connectives))


class TestCompileAgainstReference:
    # connectives of arity 0 to 3, the names `bot` and `not` among them
    SIG = Signature({"bot": 0, "c": 0, "not": 1, "and": 2, "m3": 3})

    def _shared_list(self, rng):
        """Formulas drawn from a growing pool of subterms, so they share
        subterms, repeat whole formulas and include bare variables."""
        pool = [Var(f"p{i}") for i in range(rng.randrange(1, 5))]
        pool += [BOT, TOP, App("c", ())]
        for _ in range(rng.randrange(1, 20)):
            conn, k = rng.choice(sorted(self.SIG.connectives.items()))
            pool.append(App(conn, tuple(rng.choice(pool) for _ in range(k))))
        return [rng.choice(pool) for _ in range(rng.randrange(1, 8))]

    def test_seeded_lists_with_shared_subterms(self):
        rng = random.Random(40)
        for _ in range(400):
            formulas = self._shared_list(rng)
            assert compile_formulas(formulas) == _reference_compile(formulas)
            # one pass over any iterable
            assert compile_formulas(iter(formulas)) == \
                _reference_compile(formulas)

    def test_seeded_random_formulas(self):
        rng = random.Random(41)
        for _ in range(200):
            names = [f"q{i}" for i in range(rng.randrange(4))]
            formulas = [_random_formula(rng, self.SIG, names,
                                        rng.randrange(10))
                        for _ in range(rng.randrange(1, 5))]
            formulas += formulas[:rng.randrange(len(formulas) + 1)]
            assert compile_formulas(formulas) == _reference_compile(formulas)

    @pytest.mark.parametrize("formulas", [
        [], [p], [p, p, q], [q, p], [BOT], [TOP], [TOP, BOT, TOP],
        [App("c", ()), p], [App("m3", (p, BOT, App("m3", (q, q, p))))],
        [neg(p), p, neg(p)]], ids=repr)
    def test_edge_cases(self, formulas):
        assert compile_formulas(formulas) == _reference_compile(formulas)


def _at(digits):
    """A mask that selects the one point where the program's formulas, the
    variables themselves, take the value indices `digits`."""
    def on_bytes(vectors, slots, npoints):
        bits = int.from_bytes(b"\1" * npoints, "big")
        for s, d in zip(slots, digits):
            equal = bytes(x == d for x in range(256))
            bits &= int.from_bytes(vectors[s].translate(equal), "big")
        return bits

    def on_planes(vectors, slots, ones):
        bits = ones
        for s, d in zip(slots, digits):
            for j, plane in enumerate(vectors[s]):
                bits &= plane if d >> j & 1 else ~plane
        return bits
    return matrix._Mask(on_bytes, on_planes)


def _value_at(vector, point):
    """The value index at a point of a block's vector, in either form."""
    if isinstance(vector, bytes):
        return vector[point]
    return sum((plane >> point & 1) << j for j, plane in enumerate(vector))


class TestPointIndices:
    """Boolean answers stop at the first point index, and a countermodel is
    decoded from its index once."""

    def test_decoded_assignment_at_every_index(self):
        rng = random.Random(31)
        for nvals in range(2, 6):
            values = [f"v{i}" for i in range(nvals)]
            rng.shuffle(values)
            m = Matrix(tuple(values), frozenset(values[:1]),
                       Signature({"not": 1}), {"not": bytes(range(nvals))})
            for nvars in range(4):
                names = ("s", "q", "r")[:nvars]
                ordered = tuple(sorted(names))
                full = list(assignments(m, names))
                assert [list(a.items()) for a in full] == [
                    list(zip(ordered, combo))
                    for combo in itertools.product(m.values, repeat=nvars)]
                for i, expected in enumerate(full):
                    decoded = next(assignments(m, names, i))
                    assert list(decoded.items()) == list(expected.items())

    def test_one_point_decoder(self):
        # the countermodel functions' decoder, given the sorted names,
        # against `assignments` at every index, key order included
        for name in presets.PRESET_NAMES:
            m = presets.preset(name)
            for nvars in range(5):
                names = ("s", "q", "r", "p")[:nvars]
                ordered = tuple(sorted(names))
                for i in range(len(m.values) ** nvars):
                    decoded = matrix._assignment(m.values, ordered, i)
                    expected = next(assignments(m, names, i))
                    assert list(decoded.items()) == list(expected.items())

    @pytest.mark.parametrize("name, nvars", [("bd", 9), ("cl", 17)])
    def test_index_across_blocks(self, name, nvars, monkeypatch):
        # the first index of a single point, in every block, on the plane
        # form that these programs take and then on bytes
        m = presets.preset(name)
        nvals = len(m.values)
        program = compile_formulas([Var(f"p{i:02}") for i in range(nvars)])
        rng = random.Random(nvars)
        npoints = nvals ** nvars
        indices = [0, npoints - 1, matrix._BLOCK_POINTS - 1,
                   matrix._BLOCK_POINTS] + rng.sample(range(npoints), 20)
        for plane_points in (256, 4 ** 9):
            monkeypatch.setattr(matrix, "_PLANE_POINTS", plane_points)
            for index in indices:
                digits = [index // nvals ** (nvars - 1 - i) % nvals
                          for i in range(nvars)]
                assert matrix._first_index(m, program, _at(digits)) == index
                assert next(assignments(m, program.names, index)) == dict(
                    zip(program.names, (m.values[d] for d in digits)))

    @pytest.mark.parametrize("name, nvars", [
        ("bd-impl-bot", 9), ("bd-b-n", 9), ("cl-impl-bot", 17)])
    def test_multi_block_countermodels(self, name, nvars, monkeypatch):
        # every variable occurs, and gamma holds lead -> c, with c a
        # constant outside the designated set, so a refuting point leaves
        # the first block
        m = presets.preset(name)
        c = App("N", ()) if name == "bd-b-n" else BOT
        names = [f"p{i:02}" for i in range(nvars)]
        every = functools.reduce(conj, map(Var, names))
        rng = random.Random(name)

        def some(count):
            return [_random_formula(rng, m.signature, names, rng.randrange(8))
                    for _ in range(count)]

        def one_block(fn, *args):
            with monkeypatch.context() as patch:
                patch.setattr(matrix, "_BLOCK_POINTS", len(m.values) ** nvars)
                return fn(*args)

        later = 0
        for _ in range(4):
            gamma = [App("impl", (Var(names[0]), c))] + some(2)
            delta = some(rng.randrange(2)) + [every]
            cm = consequence_countermodel(m, gamma, delta)
            assert cm == one_block(consequence_countermodel, m, gamma, delta)
            assert consequence(m, gamma, delta) is (cm is None)
            if cm is not None:
                assert list(cm) == names
                assert all(evaluate(m, f, cm) in m.designated for f in gamma)
                assert not any(evaluate(m, f, cm) in m.designated
                               for f in delta)
                later += cm[names[0]] != m.values[0]
            a, b = some(2)
            a = disj(a, every)
            cm = equivalence_countermodel(m, a, b)
            assert cm == one_block(equivalence_countermodel, m, a, b)
            assert equivalent(m, a, b) is (cm is None)
            if cm is not None:
                assert list(cm) == names
                assert evaluate(m, a, cm) != evaluate(m, b, cm)
        assert later

    def test_nullary_steps_off_index_zero(self):
        # B and N are b and n, value indices 2 and 3, and bot is f
        m = presets.preset("bd-b-n")
        b, n = App("B", ()), App("N", ())
        program = compile_formulas([n, b])
        assert matrix._block(program, m.byte_tables, 4, 5, [],
                             lambda vectors, slots, _: [vectors[s]
                                                        for s in slots]) \
            == [b"\3" * 5, b"\2" * 5]
        assert equivalent(m, n, neg(n)) and not equivalent(m, b, n)
        assert consequence_countermodel(m, [b], [n]) == {}
        assert consequence(m, [n], [b])
        assert equivalence_countermodel(m, conj(p, n), n) == {"p": "f"}
        assert equivalence_countermodel(BDI, BOT, neg(TOP)) is None
        assert consequence_countermodel(BDI, [TOP], [BOT]) == {}

    @pytest.mark.parametrize("nvars", [2, 9])
    def test_nullary_steps_agree_with_evaluate(self, nvars):
        # bot, B and N alone and inside terms; nine variables take four
        # blocks, each of which builds its own constant vectors
        m = presets.preset("bd-impl-b-n-bot")
        names = [f"p{i}" for i in range(nvars)]
        every = functools.reduce(conj, map(Var, names))
        bot, b, n = (App(c, ()) for c in ("bot", "B", "N"))
        rng = random.Random(nvars)
        formulas = [bot, b, n, neg(b), conj(Var("p0"), n),
                    disj(every, b), impl(n, every)] + [
            _random_formula(rng, m.signature, names, rng.randrange(2, 8))
            for _ in range(8)]
        program = compile_formulas(formulas)
        assert program.names == tuple(names)
        blocks = []

        def record(vectors, slots, _npoints_or_ones):
            blocks.append([vectors[s] for s in slots])
            return 0

        assert matrix._first_index(
            m, program, matrix._Mask(record, record)) is None
        assert len(blocks) == (1 if nvars < 9 else 4)
        # 16 points run on bytes, 4^9 on planes
        assert {type(v) for vectors in blocks for v in vectors} \
            == {bytes if nvars < 9 else tuple}
        npoints = len(m.values) ** nvars
        block_points = npoints // len(blocks)
        points = (range(npoints) if npoints <= 64 else
                  [0, npoints - 1] + rng.sample(range(npoints), 300))
        for index in points:
            asg = next(assignments(m, names, index))
            block, point = divmod(index, block_points)
            assert [m.values[_value_at(v, point)] for v in blocks[block]] \
                == [evaluate(m, f, asg) for f in formulas], index

    def test_boolean_answers_agree_with_countermodels(self):
        rng = random.Random(29)
        for name, m in _oracle_matrices():
            names = ["p", "q", "r"][:rng.randrange(4)]
            deep = any(m.signature.connectives.values())

            def some(count):
                return [_random_formula(rng, m.signature, names,
                                        rng.randrange(5) if deep else 0)
                        for _ in range(count)]

            for _ in range(4):
                gamma, delta = some(rng.randrange(3)), some(rng.randrange(3))
                assert consequence(m, gamma, delta) is (
                    consequence_countermodel(m, gamma, delta) is None), name
                a, b = some(2)
                for x, y in ((a, b), (a, a)):
                    assert equivalent(m, x, y) is (
                        equivalence_countermodel(m, x, y) is None), name


@contextmanager
def _within(seconds):
    """Fail with TimeoutError once `seconds` of wall time have passed."""
    def expire(*_):
        raise TimeoutError(f"not decided in {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestFormulasBuiltInCode:
    """Formulas past the parser's limits: compiled without recursion, one
    step per distinct subterm, and decided at once."""

    def test_negation_chain(self):
        chain = p
        for _ in range(1000):
            chain = neg(chain)
        with _within(1):
            assert equivalent(BD, chain, p)
            assert consequence(BD, [neg(chain)], [neg(p)])
            assert equivalence_countermodel(BD, neg(chain), p) == {"p": "t"}
            assert len(compile_formulas([chain]).steps) == 1000

    def test_doublings(self):
        # 2^40 conjunctions as a tree, 41 distinct objects
        g = conj(p, q)
        for _ in range(40):
            g = conj(g, g)
        with _within(1):
            assert equivalent(BD, g, conj(p, q))
            assert consequence(BD, [g], [p])
            assert consequence_countermodel(BD, [p], [g]) \
                == _reference_consequence(BD, [p], [conj(p, q)])
            assert len(compile_formulas([g]).steps) == 41
            assert variables(g) == {"p", "q"}  # each object visited once


def _binary(tf):
    """A binary term function of BD as a map from argument pairs; its
    table lists the cells in radix order, as product does."""
    return dict(zip(itertools.product(BD.values, repeat=2), tf.table))


class TestClones:
    def test_witnesses_are_pointwise_correct(self):
        for tf in term_functions(BDI, 1, ["not", "impl", "bot"]):
            for a, value in zip(BDI.values, tf.table):
                assert evaluate(BDI, tf.witness, {"p1": a}) == value

    def test_binary_witnesses_are_pointwise_correct(self):
        funcs = term_functions(BD, 2, ["and", "or"])
        for tf in funcs:
            for (a, b_), value in _binary(tf).items():
                assert evaluate(
                    BD, tf.witness, {"p1": a, "p2": b_}) == value

    def test_lattice_clone_is_monotone(self):
        for tf in term_functions(BD, 2, ["and", "or"]):
            f = _binary(tf)
            for a1, a2, b1, b2 in itertools.product(BD.values, repeat=4):
                # a <= b iff meet(a, b) == a
                if bd.meet(a1, a2) == a1 and bd.meet(b1, b2) == b1:
                    assert bd.meet(f[a1, b1], f[a2, b2]) == f[a1, b1]

    def test_lattice_clone_is_idempotent(self):
        # every {and,or}-term satisfies f(a,a) = a
        for tf in term_functions(BD, 2, ["and", "or"]):
            for a in BD.values:
                assert _binary(tf)[a, a] == a

    def test_unary_bd_clone_fixes_b_and_n(self):
        funcs = term_functions(BD, 1, BD.signature.connectives)
        b_, n = BD.values.index("b"), BD.values.index("n")
        assert {tf.table[b_] for tf in funcs} == {"b"}
        assert {tf.table[n] for tf in funcs} == {"n"}

    def test_clone_contains_delta(self):
        # delta's table from the classical connectives
        target = tuple(bd.DELTA.table[(a,)] for a in BDI.values)
        assert target in {
            tf.table for tf in term_functions(BDI, 1, ["not", "impl", "bot"])}

    def test_clone_lacks_conflation(self):
        target = tuple(bd.CONFL.table[(a,)] for a in BDI.values)
        assert target not in {tf.table for tf in term_functions(
            BDI, 1, ["not", "and", "or", "impl", "bot"])}

    def test_arity_cap(self):
        with pytest.raises(ArityCapError):
            term_functions(BD, 3, ["and"])

    @pytest.mark.parametrize("name, n, largest", [
        ("cl", 1, 4), ("cl", 2, 8), ("lp", 1, 4), ("k3", 1, 4),
        ("bd-circ", 1, 5), ("bd-cons-det", 1, 8)])
    def test_witnesses_have_least_size(self, name, n, largest):
        # every formula over p1..pn with at most `largest` nodes, evaluated
        # point by point: the least size of each table, found without the
        # closure
        m = presets.preset(name)
        conns = sorted(m.signature.connectives.items())
        names = [f"p{i + 1}" for i in range(n)]
        by_size = {1: [*map(Var, names),
                       *(App(c, ()) for c, k in conns if not k)]}
        for size in range(2, largest + 1):
            by_size[size] = [
                App(c, args) for c, k in conns
                for sizes in itertools.product(range(1, size), repeat=k)
                if sum(sizes) == size - 1
                for args in itertools.product(*map(by_size.get, sizes))]
        least = {}
        for size, formulas in by_size.items():
            for f in formulas:
                least.setdefault(tuple(
                    evaluate(m, f, dict(zip(names, point)))
                    for point in itertools.product(m.values, repeat=n)), size)
        witnessed = {tf.table: _size(tf.witness)
                     for tf in term_functions(m, n, m.signature.connectives)}
        assert max(witnessed.values()) == largest
        assert witnessed == least

    def test_sizes_far_apart(self):
        # g(x, x) = x + 1 and g(x, y) = x otherwise, so p1 + j first appears
        # at witness size 2^(j+1) - 1: the closure must step from one size
        # found to the next, not through every size in between
        n = 24
        values = [str(i) for i in range(n)]
        m = matrix_from_json({
            "values": values, "designated": ["0"],
            "connectives": {"g": {"arity": 2, "table": [
                [values[(x + 1) % n] if x == y else values[x]
                 for y in range(n)] for x in range(n)]}}})
        with _within(20):
            simple, separators = simplicity(m)
            clone = term_functions(m, 1, ["g"])
        assert simple and len(separators) == n * (n - 1) // 2
        assert len(clone) == n
        assert ("0",) * n not in {tf.table for tf in clone}


def _size(f):
    return 1 + sum(map(_size, getattr(f, "args", ())))


def _reference_simple(m):
    """The unary clone, then a search for a separator of every pair."""
    funcs = term_functions(m, 1, m.signature.connectives)
    return all(any(_separates(m, tf, a, b_) for tf in funcs)
               for a, b_ in itertools.combinations(m.values, 2))


def _separates(m, tf, a, b_):
    """The unary term function designates exactly one of a and b_."""
    f = dict(zip(m.values, tf.table))
    return (f[a] in m.designated) != (f[b_] in m.designated)


def _reference_reduced(m):
    """Brute-force Leibniz congruence: split the classes {designated, the
    rest} until every connective, its other arguments held at any values,
    maps each class into one class; reduced iff every class is one value."""
    label = {v: v in m.designated for v in m.values}
    while True:
        refined = {v: (label[v], *(
            label[_cell(m, name, (*rest[:i], v, *rest[i:]))]
            for name, k in sorted(m.signature.connectives.items())
            for i in range(k)
            for rest in itertools.product(m.values, repeat=k - 1)))
            for v in m.values}
        if len(set(refined.values())) == len(set(label.values())):
            return len(set(label.values())) == len(m.values)
        label = refined


def _polynomial_only():
    """Values 0-3, 3 designated, h(1, 2) = 3 and h = 0 elsewhere: the unary
    terms are p1 and the constant 0, so only polynomials such as h(p1, 2)
    separate 0, 1 and 2."""
    return Matrix(tuple("0123"), frozenset("3"), Signature({"h": 2}),
                  {"h": [3 if (a, b_) == (1, 2) else 0
                         for a in range(4) for b_ in range(4)]})


def _oracle_matrices():
    """The presets and their table-closed restrictions, 200 seeded family
    members, and the proper reducts of bd and bd-impl-bot."""
    for name in presets.PRESET_NAMES:
        m = presets.preset(name)
        yield name, m
        for r in range(2, len(m.values)):
            for sub in itertools.combinations(m.values, r):
                try:
                    yield f"{name} on {sub}", restrict(m, sub)
                except (NotClosedError, DegenerateDesignatedError):
                    pass
    rng = random.Random(11)
    for _ in range(200):
        index = rng.randrange(bd.count_strongly_regular())
        yield f"family member {index}", bd.sr_decode(index)
    for name in ("bd", "bd-impl-bot"):
        m = presets.preset(name)
        conns = sorted(m.signature.connectives)
        for keep in itertools.chain.from_iterable(
                itertools.combinations(conns, r) for r in range(1, len(conns))):
            sig = Signature({c: m.signature.arity(c) for c in keep})
            yield (f"{name} reduct {keep}",
                   Matrix(m.values, m.designated, sig,
                          {c: m.index_tables[c] for c in keep}))


class TestSimplicity:
    def test_pair_closure_matches_unary_clone_oracle(self):
        verdicts = []
        for name, m in _oracle_matrices():
            simple, separators = simplicity(m)
            assert simple == _reference_simple(m), name
            pairs = [frozenset(pair)
                     for pair in itertools.combinations(m.values, 2)]
            assert set(separators) <= set(pairs), name
            if simple:
                assert len(separators) == len(pairs), name
            for pair, tf in separators.items():
                a, b_ = sorted(pair)
                assert list(tf.table) == [
                    evaluate(m, tf.witness, {"p1": v}) for v in m.values], name
                assert _separates(m, tf, a, b_), name
            verdicts.append(simple)
        assert len(verdicts) >= 19 + 200 + 10
        assert verdicts.count(False) >= 2  # the oracle sees both verdicts

    def test_separator_tables_match_evaluate(self):
        # p(k+2) stands for the value of index k
        for name, m in [*_oracle_matrices(),
                        ("polynomial only", _polynomial_only())]:
            fixed = {f"p{k + 2}": v for k, v in enumerate(m.values)}
            for tf in simplicity(m)[1].values():
                assert list(tf.table) == [
                    evaluate(m, tf.witness, {**fixed, "p1": v})
                    for v in m.values], name

    def test_bd_is_simple_with_separators(self):
        simple, separators = simplicity(BD)
        assert simple
        for a, b_ in itertools.combinations(BD.values, 2):
            assert _separates(BD, separators[frozenset((a, b_))], a, b_)

    def test_separation_through_a_constant(self):
        # only g(p1, c) separates y from z
        m = Matrix(
            ("x", "y", "z"), frozenset(["x"]), Signature({"g": 2, "c": 0}),
            {"g": [0 if a == b_ else 1 for a in range(3) for b_ in range(3)],
             "c": [2]})
        simple, separators = simplicity(m)
        assert simple and _reference_simple(m)
        assert separators[frozenset("yz")].witness == App(
            "g", (Var("p1"), App("c", ())))

    def test_separation_through_a_polynomial(self):
        m = _polynomial_only()
        assert not _reference_simple(m)  # no unary term separates 0 and 1
        simple, separators = simplicity(m)
        assert simple and _reference_reduced(m)
        assert len(separators) == 6
        tf = separators[frozenset("01")]
        assert tf.witness == App("h", (Var("p1"), Var("p4")))
        assert tf.table == ("0", "3", "0", "0")
        for pair, tf in separators.items():
            assert _separates(m, tf, *sorted(pair))
        # p and h(p, p) differ in value, and the matrix is simple
        assert not synonymous(m, Var("p"), App("h", (Var("p"), Var("p"))))

    def test_matches_leibniz_oracle(self):
        matrices = [*_oracle_matrices(),
                    ("polynomial only", _polynomial_only())]
        assert len(matrices) == 293
        for name, m in matrices:
            assert simplicity(m)[0] == _reference_reduced(m), name

    def test_expansions_are_simple(self):
        assert BDI.simple
        assert presets.preset("bd-delta").simple

    def test_duplicated_value_matrix_is_not_simple(self):
        # values y and z are indistinguishable: undesignated, and the only
        # connective maps both to y
        m = Matrix(
            ("x", "y", "z"),
            frozenset(["x"]),
            Signature({"f1": 1}),
            {"f1": [0, 1, 1]},
        )
        assert not m.simple


class TestExpansionRestriction:
    def test_is_expansion(self):
        assert is_expansion(BDI, BD)
        assert is_expansion(BD, BD)
        assert not is_expansion(BD, BDI)
        assert not is_expansion(LP, BD)

    def test_expand_duplicate_rejected(self):
        # a name already present, or one added twice
        for added in [(bd.NOT,), (bd.IMPL, bd.IMPL)]:
            with pytest.raises(DuplicateConnectiveError):
                bd.expand(BD, *added)

    def test_lp_k3_cl_are_restrictions(self):
        assert set(LP.values) == {"t", "f", "b"}
        assert set(K3.values) == {"t", "f", "n"}
        assert set(CL.values) == {"t", "f"}
        assert LP.designated == frozenset(("t", "b"))
        assert CL.designated == frozenset(("t",))

    def test_conflation_blocks_lp_restriction(self):
        m = bd.expand(bd.bd_matrix(), bd.CONFL)
        with pytest.raises(NotClosedError):
            restrict(m, ("t", "f", "b"))

    def test_degenerate_designated(self):
        lattice_only = Matrix(
            BD.values, BD.designated, Signature({"and": 2}),
            {"and": BD.index_tables["and"]})
        with pytest.raises(DegenerateDesignatedError):
            restrict(lattice_only, ("t", "b"))

    def test_restriction_to_unknown_values(self):
        with pytest.raises(InvalidInputError, match="'zz'"):
            restrict(BD, ["t", "f", "zz"])

    def test_tables_are_read_only(self):
        with pytest.raises(TypeError):
            presets.preset("bd").index_tables["not"] = b"\0\0\0\0"
        with pytest.raises(TypeError):
            presets.preset("bd").index_tables["not"][0] = 0
        table = bytearray(BD.index_tables["not"])
        m = Matrix(BD.values, BD.designated, Signature({"not": 1}),
                   {"not": table})
        table[0] = 0
        assert m.index_tables["not"] == BD.index_tables["not"]
        assert _cell(m, "not", ("t",)) == "f"


# BD's negation as value indices over bd.VALUES, from its named table
_NOT = [bd.VALUES.index(bd.NOT.table[v,]) for v in bd.VALUES]


def _not_matrix(values=BD.values, designated=BD.designated, table=_NOT):
    """BD's negation alone, or another table in its place."""
    return Matrix(values, designated, Signature({"not": 1}), {"not": table})


class TestValidation:
    def test_valid(self):
        m = _not_matrix()
        assert m.index_tables["not"] == b"\1\0\2\3"
        assert [_cell(m, "not", (v,)) for v in m.values] == [
            bd.NOT.table[v,] for v in bd.VALUES]

    @pytest.mark.parametrize("change", [
        {"table": _NOT[:3]},                      # a missing cell
        {"table": _NOT + [0]},                    # an extra cell
        {"table": _NOT * 4},                      # a binary table's shape
        {"table": _NOT[:3] + [4]},                # outside the carrier
        {"values": ("t", "f", "b", "b")},         # duplicate values
        {"designated": frozenset()},              # empty designated set
        {"designated": frozenset(BD.values)},     # full designated set
    ], ids=["missing", "extra", "long-key", "outside", "duplicate", "empty",
            "full"])
    def test_malformed_raises(self, change):
        with pytest.raises(ValueError):
            _not_matrix(**change)

    @pytest.mark.parametrize("table, error", [
        (b"\1\0\2", "has the wrong shape"),
        (b"\1\0\2\3\3", "has the wrong shape"),
        (b"\1\0\2\4", "leaves the carrier"),
        (bytearray(b"\1\0\2"), "has the wrong shape"),
        (bytearray(b"\1\0\2\4"), "leaves the carrier"),
    ], ids=["short", "long", "outside", "bytearray-short",
            "bytearray-outside"])
    def test_malformed_index_table_raises(self, table, error):
        with pytest.raises(ValueError, match=error):
            Matrix(BD.values, BD.designated, Signature({"not": 1}),
                   {"not": table})

    def test_index_table_input(self):
        m = Matrix(BD.values, BD.designated, Signature({"not": 1}),
                   {"not": BD.index_tables["not"]})
        assert m == _not_matrix()

    def test_values_are_a_tuple(self):
        for name in presets.PRESET_NAMES:
            m = presets.preset(name)
            given = list(m.values)
            copy = Matrix(given, m.designated, m.signature, m.index_tables)
            given.append("x")
            assert copy == m and type(copy.values) is tuple, name

    def test_designated_set_is_a_copy(self):
        given = {"t"}
        m = Matrix(bd.VALUES, given, Signature({"not": 1}),
                   {"not": b"\1\0\2\3"})
        given.add("b")
        assert type(m.designated) is frozenset and m.designated == {"t"}

    def test_missing_table(self):
        with pytest.raises(ValueError, match="missing table"):
            Matrix(BD.values, BD.designated, Signature({"not": 1}), {})

    @pytest.mark.parametrize("values, designated, table, error", [
        (("t", "t"), {"t"}, b"\0\0", "duplicate"),
        (tuple(map(str, range(257))), {"0"}, b"\0" * 257, "more than 256"),
        (("t", "f"), set(), b"\1\0", "non-empty and proper"),
        (("t", "f"), {"t", "x"}, b"\1\0",
         "not truth values of the matrix: 'x'$"),
        (("t", "f"), {"t"}, None, "missing table"),
        (("t", "f"), {"t"}, {("t",): "f"}, "wrong shape"),
        (("t", "f"), {"t"}, b"\1", "wrong shape"),
        (("t", "f"), {"t"}, b"\1\2", "leaves the carrier"),
        (("t", "f"), ["t"], b"\1\0", "a set of values"),
        (("t", "f"), {"t"}, 5, "wrong shape"),
    ], ids=["duplicate", "wide", "designated", "designated-unknown",
            "missing", "dict-shape", "bytes-shape", "outside",
            "designated-list", "not-a-sequence"])
    def test_malformed_is_fdekit_error(self, values, designated, table,
                                       error):
        tables = {} if table is None else {"not": table}
        with pytest.raises(FdekitError, match=error):
            Matrix(values, designated, Signature({"not": 1}), tables)

    def test_byte_tables(self):
        # the index tables padded once, read-only and outside the fields,
        # so `==`, `hash` and `repr` are those of the fields alone
        fields = {f.name for f in dataclasses.fields(Matrix)}
        assert fields == {"values", "designated", "signature", "index_tables"}
        for name in [*presets.PRESET_NAMES, None]:
            m = WIDE_TABLE if name is None else presets.preset(name)
            assert dict(m.byte_tables) == {
                n: t.ljust(256, b"\0") for n, t in m.index_tables.items()}
            assert m.byte_designated == bytes(
                v in m.designated for v in m.values).ljust(256, b"\0")
            with pytest.raises(TypeError):
                m.byte_tables["not"] = b""
            assert "byte_" not in repr(m)
            copy = Matrix(m.values, m.designated, m.signature,
                          {n: list(t) for n, t in m.index_tables.items()})
            assert copy == m and hash(copy) == hash(m)
        # 625 cells stay as they are: no translate table holds them
        assert WIDE_TABLE.byte_tables["m4"] is WIDE_TABLE.index_tables["m4"]

    def test_index_tables(self):
        rng = random.Random(38)
        indices = [0, 2 ** 38 - 1] + [rng.randrange(2 ** 38)
                                      for _ in range(198)]
        for m, tables in _named_matrices(indices):
            assert dict(m.index_tables) == {
                name: bytes(m.values.index(tables[name][args])
                            for args in itertools.product(m.values, repeat=k))
                for name, k in m.signature.connectives.items()}


def _named_matrices(indices):
    """Each preset and its table-closed restrictions, then the family
    members of these indices, each with its tables as dicts from
    argument-name tuples to value names: the presets' from `bd`'s named
    connectives, the members' from `bd.CELLS`, neither from the matrix."""
    for name in presets.PRESET_NAMES:
        m = presets.preset(name)
        for r in range(2, len(m.values) + 1):
            for sub in itertools.combinations(m.values, r):
                try:
                    restricted = restrict(m, sub)
                except (NotClosedError, DegenerateDesignatedError):
                    continue
                yield restricted, {
                    c: {args: bd.named(c).table[args] for args in
                        itertools.product(restricted.values, repeat=k)}
                    for c, k in m.signature.connectives.items()}
    for index in indices:
        yield bd.sr_decode(index), {
            c: {args: bd.CELLS[c, args][
                index >> bd.FREE_BITS[c, args] & 1
                if (c, args) in bd.FREE_BITS else 0]
                for args in itertools.product(bd.VALUES, repeat=k)}
            for c, k in bd.SR_SIGNATURE.connectives.items()}


def _reference_to_json(m, tables):
    """`matrix_to_json` by recursion over name-keyed tables, one call per
    nesting level."""
    def nest(name, k, prefix):
        if k == 0:
            return tables[name][prefix]
        return [nest(name, k - 1, prefix + (v,)) for v in m.values]

    return {
        "values": list(m.values),
        "designated": sorted(m.designated, key=m.values.index),
        "connectives": {
            name: {"arity": k, "table": nest(name, k, ())}
            for name, k in sorted(m.signature.connectives.items())
        },
    }


class TestJson:
    @pytest.mark.parametrize("values, designated", [
        (["t", "t", "f"], ["t"]), (["t", "f"], ["x"])],
        ids=["duplicate", "outside"])
    def test_invalid_carrier_is_fdekit_error(self, values, designated):
        data = {"values": values, "designated": designated,
                "connectives": {"not": {"arity": 1, "table": values[::-1]}}}
        with pytest.raises(FdekitError):
            matrix_from_json(data)

    def test_round_trip(self):
        for m in (BD, BDI, LP, CL):
            assert matrix_from_json(matrix_to_json(m)) == m

    def test_format_shape(self):
        data = matrix_to_json(BDI)
        assert data["values"] == ["t", "f", "b", "n"]
        assert data["designated"] == ["t", "b"]
        assert data["connectives"]["bot"]["table"] == "f"
        assert data["connectives"]["not"]["table"] == ["f", "t", "b", "n"]
        assert data["connectives"]["and"]["arity"] == 2

    def test_matches_reference_nesting(self):
        # the presets, their restrictions and 200 family members, and random
        # matrices with every arity 0-3 over 2-5 values listed in shuffled
        # order, each with its tables keyed by value names
        rng = random.Random(30)
        matrices = list(_named_matrices(
            rng.randrange(2 ** 38) for _ in range(200)))
        sig = Signature({f"c{k}": k for k in range(4)})
        for _ in range(100):
            n = rng.randint(2, 5)
            values = [f"v{i}" for i in range(n)]
            rng.shuffle(values)
            tables = {f"c{k}": {args: rng.choice(values) for args in
                                itertools.product(values, repeat=k)}
                      for k in range(4)}
            matrices.append((Matrix(
                values, frozenset(values[:rng.randint(1, n - 1)]), sig,
                {c: [values.index(v) for v in t.values()]
                 for c, t in tables.items()}), tables))
        for m, tables in matrices:
            data = matrix_to_json(m)
            expected = _reference_to_json(m, tables)
            assert json.dumps(data) == json.dumps(expected)
            assert matrix_from_json(data) == m

    def test_reading_a_wide_matrix_keeps_nothing(self):
        # a 4-ary table over 16 values has 65,536 cells: they go straight
        # to value indices, with no argument tuples and no name-keyed dict,
        # and nothing read later outlives the matrix
        values = [f"v{i}" for i in range(16)]
        table = values
        for _ in range(3):
            table = [table] * 16
        data = {"values": values, "designated": values[:1],
                "connectives": {"f": {"arity": 4, "table": table},
                                "not": {"arity": 1, "table": values[::-1]}}}
        tracemalloc.start()
        try:
            m = matrix_from_json(data)
            peak = tracemalloc.get_traced_memory()[1]
            same = matrix_to_json(m) == data
            indices = m.index_tables["f"] == bytes(range(16)) * 16 ** 3
            value = _cell(m, "f", ("v0", "v1", "v2", "v15"))
            del m
            gc.collect()  # also empties the free lists tracemalloc counts
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert same and indices and value == "v15"
        assert peak < 2 * 2 ** 20
        assert kept < 64 * 2 ** 10

    @pytest.mark.parametrize("values, table, error", [
        (["t", "t"], ["t", "t"], "duplicate truth-value names"),
        ([str(i) for i in range(257)], [str(i) for i in range(257)],
         "more than 256 truth values"),
        (["t", "f"], ["f", "x"], "table for 'not' leaves the carrier"),
        ([str(i) for i in range(256)], ["x"] + [str(i) for i in range(255)],
         "table for 'not' leaves the carrier"),
        (["t", "f"], ["f"], "malformed table for 'not'"),
    ], ids=["duplicate", "wide", "outside", "outside-256", "malformed"])
    def test_error_texts(self, values, table, error):
        data = {"values": values, "designated": values[:1],
                "connectives": {"not": {"arity": 1, "table": table}}}
        with pytest.raises(FdekitError, match=error):
            matrix_from_json(data)

    @pytest.mark.parametrize("table, error", [
        ([1, 0, 2], "has the wrong shape"),
        ([1, 0, 2, 4], "leaves the carrier"),
        ([-1, 0, 1, 2], "leaves the carrier"),
        ([0, 1, 2, 3.0], "leaves the carrier"),
        ((1, 0, 2), "has the wrong shape"),
        ((1, 0, 2, 4), "leaves the carrier"),
        ([1, 0, 2, 256], "leaves the carrier"),
        ([True, False, 2], "has the wrong shape"),
        ([True, False, 2, 4], "leaves the carrier"),
        # four cells of two bytes each: `bytes` reads eight
        (array.array("H", [1, 0, 2, 3]), "leaves the carrier"),
    ])
    def test_index_list_input(self, table, error):
        # the form `matrix_from_json` passes, checked as index tables are
        with pytest.raises(FdekitError, match=error):
            Matrix(BD.values, BD.designated, Signature({"not": 1}),
                   {"not": table})
        # any sequence of the indices, bools read as 0 and 1
        for given in ([1, 0, 2, 3], (1, 0, 2, 3), bytearray(b"\1\0\2\3"),
                      [True, False, 2, 3]):
            assert Matrix(BD.values, BD.designated, Signature({"not": 1}),
                          {"not": given}) == _not_matrix()


def _random_json(rng):
    """A random matrix as JSON data, one connective of each arity 0-3 over
    2-8 values, and a subset of its values that the tables keep closed,
    with designated and undesignated members."""
    n = rng.randint(2, 8)
    values = [f"v{i}" for i in range(n)]
    designated = values[:rng.randint(1, n - 1)]
    closed = [v for v in values if rng.random() < 0.5]
    closed = sorted({*closed, designated[0], values[-1]}, key=values.index)

    def nest(k, args):
        if len(args) == k:
            return rng.choice(closed if set(args) <= set(closed) else values)
        return [nest(k, args + (v,)) for v in values]

    return {"values": values, "designated": designated,
            "connectives": {f"c{k}": {"arity": k, "table": nest(k, ())}
                            for k in range(4)}}, closed


def _json_relisted(data, order):
    """JSON matrix data with its values listed in `order`."""
    def relist(table, k):
        return table if k == 0 else [
            relist(table[data["values"].index(v)], k - 1) for v in order]

    return {"values": list(order), "designated": data["designated"],
            "connectives": {
                name: {"arity": e["arity"],
                       "table": relist(e["table"], e["arity"])}
                for name, e in data["connectives"].items()}}


class TestValueOrder:
    """Random JSON matrices against themselves with their values relisted
    in a shuffled order: `evaluate`, `is_expansion` and `restrict` do not
    depend on the order."""

    def test_relisted_matrices_agree(self):
        rng = random.Random(36)
        for trial in range(60):
            data, closed = _random_json(rng)
            order = list(data["values"])
            rng.shuffle(order)
            m = matrix_from_json(data)
            relisted = matrix_from_json(_json_relisted(data, order))
            assert relisted.values == tuple(order), trial
            for _ in range(5):
                f = _random_formula(rng, m.signature, ["p", "q", "r"], 6)
                a = {name: rng.choice(order) for name in "pqr"}
                assert evaluate(m, f, a) == evaluate(relisted, f, a), trial
            assert is_expansion(m, relisted) and is_expansion(relisted, m)
            # the same two matrices restricted to the closed subset
            kept = restrict(m, closed), restrict(relisted, closed)
            assert kept[1].values == tuple(v for v in order if v in closed)
            assert is_expansion(*kept) and is_expansion(*kept[::-1]), trial
            # one cell changed: the path to it, and the list holding it
            entry = data["connectives"][f"c{rng.randrange(4)}"]
            *path, last = ["table", *(rng.randrange(len(order))
                                      for _ in range(entry["arity"]))]
            row = functools.reduce(lambda table, i: table[i], path, entry)
            row[last] = rng.choice([v for v in order if v != row[last]])
            changed = matrix_from_json(data)
            assert not is_expansion(changed, relisted), trial
            assert not is_expansion(relisted, changed), trial

    def test_name_keyed_tables_are_refused(self):
        # the old form: a dict from argument-name tuples to value names
        rng = random.Random(37)
        for _ in range(20):
            data, _ = _random_json(rng)
            m = matrix_from_json(data)
            for name, k in m.signature.connectives.items():
                table = {args: _cell(m, name, args)
                         for args in itertools.product(m.values, repeat=k)}
                with pytest.raises(InvalidInputError, match="wrong shape"):
                    Matrix(m.values, m.designated, m.signature,
                           {**m.index_tables, name: table})


def _recording(mask, selections):
    """mask, recording the form and the selection of each block, as one bit
    per point (point p at bit p) on either form, and selecting no point, so
    that every block is built."""
    def on_bytes(vectors, slots, npoints):
        selected = mask.on_bytes(vectors, slots, npoints).to_bytes(
            npoints, "big")
        # a nonzero byte to an ASCII 1, zero to 0, point 0 last
        digits = selected[::-1].translate(b"0" + b"1" * 255)
        selections.append(("bytes", int(digits, 2)))
        return 0

    def on_planes(vectors, slots, ones):
        selections.append(("planes", mask.on_planes(vectors, slots, ones)))
        return 0
    return matrix._Mask(on_bytes, on_planes)


class TestPlanes:
    """The plane form of the kernel against the byte form, its oracle."""

    @staticmethod
    def _on_both_forms(m, program, mask, monkeypatch):
        """The first index and every block's selection, with `_PLANE_POINTS`
        forced to 0 and then above every count."""
        answers = []
        for plane_points, form in ((0, "planes"), (9 ** 9, "bytes")):
            monkeypatch.setattr(matrix, "_PLANE_POINTS", plane_points)
            selections = []
            first = matrix._first_index(m, program, mask)
            matrix._first_index(m, program, _recording(mask, selections))
            # a table of more than 256 cells keeps the matrix on bytes
            assert {f for f, _ in selections} == {
                form if m.circuits else "bytes"}
            answers.append((first, [bits for _, bits in selections]))
        return answers

    @pytest.mark.parametrize("block_points", [64, matrix._BLOCK_POINTS],
                             ids=["blocks", "one-block"])
    def test_same_index_as_bytes(self, block_points, monkeypatch):
        # every preset, and random JSON matrices: 2-8 values, one
        # connective of each arity 0-3, and where the ternary table has
        # more than 256 cells, also the matrix without it
        monkeypatch.setattr(matrix, "_BLOCK_POINTS", block_points)
        rng = random.Random(block_points)
        matrices = [presets.preset(name) for name in presets.PRESET_NAMES]
        wide = nine = 0
        for _ in range(24):
            data, _ = _random_json(rng)
            matrices.append(matrix_from_json(data))
            if matrices[-1].circuits is None:
                wide += 1
                del data["connectives"]["c3"]
                matrices.append(matrix_from_json(data))
                assert matrices[-1].circuits
        assert wide
        for m in matrices:
            # 1 to 9 variables, at most 4^7 points
            most = max(n for n in range(1, 10) if len(m.values) ** n <= 4 ** 7)
            for nvars in (1, most, rng.randint(1, most), rng.randint(1, most)):
                names = [f"p{i}" for i in range(nvars)]
                nine += nvars == 9

                def some(count):
                    return [_random_formula(rng, m.signature, names,
                                            rng.randrange(1, 9))
                            for _ in range(count)]

                program, refuting = matrix._refuting(
                    m, some(rng.randrange(3)), some(rng.randrange(1, 3)))
                planes, on_bytes = self._on_both_forms(
                    m, program, refuting, monkeypatch)
                assert planes == on_bytes
                program = compile_formulas(some(2))
                planes, on_bytes = self._on_both_forms(
                    m, program, matrix._DIFFERING, monkeypatch)
                assert planes == on_bytes
        assert nine

    def test_codes_with_no_value(self):
        # five values take 3-bit codes, three of which no value has; 4
        # variables make 625 points, on planes, against `evaluate`
        m = Matrix(WIDE_TABLE.values, WIDE_TABLE.designated,
                   Signature({"not": 1, "and": 2}),
                   {n: WIDE_TABLE.index_tables[n] for n in ("not", "and")})
        assert m.circuits
        rng = random.Random(5)
        names = ["p", "q", "r", "s"]
        every = functools.reduce(conj, map(Var, names))
        for _ in range(4):
            a, b = (conj(every, _random_formula(rng, m.signature, names, 6))
                    for _ in range(2))
            assert consequence_countermodel(m, [a], [b]) \
                == _reference_consequence(m, [a], [b])
            assert equivalence_countermodel(m, a, b) \
                == _reference_equivalence(m, a, b)
        assert equivalent(m, every, neg(neg(every)))

    def test_small_programs_build_no_circuits(self):
        # a family member's laws have at most 16 points: bytes only
        m = bd.sr_decode(123456789)
        for law in laws.TABLE2_LAWS:
            laws.holds(m, law)
        assert "circuits" not in vars(m)
        # a program above 256 points builds them once, for the matrix
        ps = [Var(f"p{i}") for i in range(5)]
        assert consequence(m, [functools.reduce(conj, ps)], ps[:1])
        circuits = vars(m)["circuits"]
        assert consequence(m, ps, [functools.reduce(conj, ps)])
        assert m.circuits is circuits
        assert set(circuits[1]) == set(m.signature.connectives)


class TestPairKernel:
    """`pair_kernel`, generated per program, against `_first_index` with
    the differing mask, its oracle."""

    def test_random_programs(self, first_index_calls):
        # every preset and random JSON matrices of 2-8 values with one
        # connective of each arity 0-3; 0-5 variables, so both paths run
        rng = random.Random(39)
        matrices = [presets.preset(name) for name in presets.PRESET_NAMES]
        matrices += [matrix_from_json(_random_json(rng)[0])
                     for _ in range(30)]
        paths = set()
        for m in matrices:
            for _ in range(20):
                names = ["p", "q", "r", "s", "t"][:rng.randrange(6)]
                program = compile_formulas(
                    [_random_formula(rng, m.signature, names,
                                     rng.randrange(8)) for _ in range(2)])
                expected = matrix._first_index(m, program, matrix._DIFFERING)
                del first_index_calls[:]
                assert matrix.pair_kernel(program)(m) == expected
                # the fallback: above 256 points or a table above 256 cells
                npoints = len(m.values) ** len(program.names)
                wide = any(len(m.values) ** k > 256
                           for _, k in program.connectives)
                assert bool(first_index_calls) is (npoints > 256 or wide)
                paths.add(bool(first_index_calls))
        assert paths == {False, True}

    def test_one_kernel_on_several_carriers(self):
        # the variables' vectors are kept per number of values
        program = compile_formulas([disj(p, conj(q, neg(p))), disj(q, p)])
        kernel = matrix.pair_kernel(program)
        matrices = [presets.preset(name) for name in presets.PRESET_NAMES]
        assert {len(m.values) for m in matrices} == {2, 3, 4}
        for m in matrices + matrices[::-1]:
            assert kernel(m) == matrix._first_index(
                m, program, matrix._DIFFERING)

    def test_signature_checked_in_order(self):
        # the first connective in pre-order that m does not interpret, as
        # `_first_index` names it, also after a matrix that passed
        program = compile_formulas([conj(p, BOT), impl(p, q)])
        kernel = matrix.pair_kernel(program)
        assert kernel(BDI) == matrix._first_index(
            BDI, program, matrix._DIFFERING)
        for m in (BD, CL, presets.preset("bd-b-n")):
            with pytest.raises(SignatureMismatchError) as expected:
                matrix._first_index(m, program, matrix._DIFFERING)
            with pytest.raises(SignatureMismatchError) as got:
                kernel(m)
            assert str(got.value) == str(expected.value)

    def test_source(self):
        # one statement per step, and no connective name: only generated
        # identifiers reach it
        program = compile_formulas([
            App("and", (App("bot", ()), App("m3", (p, q, App("not", (p,)))))),
            q])
        source = matrix._pair_source(program)
        assert "bot" not in source and "m3" not in source
        assert re.findall(r"^    v(\d+) = ", source, re.M) == [
            str(s) for s in range(2, 2 + len(program.steps))]


class TestHashing:
    def test_equal_matrices_hash_equal(self):
        for name in presets.PRESET_NAMES:
            m = presets.preset(name)
            copy = Matrix(list(m.values), set(m.designated),
                          Signature(dict(m.signature.connectives)),
                          {n: list(t) for n, t in m.index_tables.items()})
            assert copy == m and hash(copy) == hash(m), name
            assert hash(copy.signature) == hash(m.signature)
        # the order of the connectives does not matter to == or the hash
        assert Signature({"not": 1, "and": 2}) \
            == Signature({"and": 2, "not": 1})
        assert hash(Signature({"not": 1, "and": 2})) \
            == hash(Signature({"and": 2, "not": 1}))

    def test_cache_keys(self):
        calls = []

        @functools.cache
        def values(m):
            calls.append(m)
            return m.values

        @functools.cache
        def arities(signature):
            calls.append(signature)
            return dict(signature.connectives)

        m = presets.preset("bd-impl-bot")
        copy = Matrix(list(m.values), m.designated, m.signature,
                      {n: list(t) for n, t in m.index_tables.items()})
        assert values(m) == values(copy) == m.values
        assert arities(m.signature) == arities(copy.signature)
        assert values(LP) == LP.values
        assert calls == [m, m.signature, LP]
