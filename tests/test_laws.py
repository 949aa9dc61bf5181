import itertools
import random
from typing import Iterable

import pytest

from conftest import _cell, _reference_equivalence
from fdekit import bd, laws, matrix, presets
from fdekit.bd import CELLS, FREE_BITS, VALUES
from fdekit.errors import SignatureMismatchError, UnknownNameError
from fdekit.laws import (
    CLASSICAL_ONLY_LAWS, FAILING_CLASSICAL_LAWS, HOLDING_CLASSICAL_LAWS,
    TABLE2_LAWS, Law, filter_strongly_regular, holds, holds_countermodel,
    law_by_name)
from fdekit.matrix import Program, assignments, matrix_from_json
from fdekit.syntax import Var, neg

M = presets.preset("bd-impl-bot")
BD_INDEX = 13129950543

# The 13 distinguishing laws leave impl's b-row and n-row underdetermined
# (9 completions each once b->bot resp. n->bot is chosen non-classically),
# so the family filter keeps 9 * 9 = 81 matrices, the base expansion among
# them.  Frozen after three independent computations agreed.
SURVIVOR_COUNT = 81


class TestHolds:
    @pytest.mark.parametrize("law", TABLE2_LAWS, ids=lambda l: l.name)
    def test_all_thirteen_hold(self, law):
        assert holds(M, law)

    @pytest.mark.parametrize("law", FAILING_CLASSICAL_LAWS,
                             ids=lambda l: l.name)
    def test_failing_classical_laws(self, law):
        assert not holds(M, law)
        assert holds_countermodel(M, law) == {"A": "b"}

    @pytest.mark.parametrize("law", HOLDING_CLASSICAL_LAWS,
                             ids=lambda l: l.name)
    def test_bot_top_implication_laws_hold(self, law):
        # bot -> A evaluates to t everywhere and ~bot -> A to A, so these
        # two classical laws survive in the four-valued expansion
        assert holds(M, law)

    def test_all_classical_laws_hold_classically(self):
        m = presets.preset("cl-impl-bot")
        for law in TABLE2_LAWS + CLASSICAL_ONLY_LAWS:
            assert holds(m, law)

    def test_signature_checked(self):
        with pytest.raises(SignatureMismatchError):
            holds(presets.preset("bd"), TABLE2_LAWS[0])

    @pytest.mark.parametrize("name", ["double-negation", "and-false"])
    def test_both_entry_points_check_the_family_signature(self, name):
        # bd lacks impl and bot: double-negation mentions neither and holds
        # there, and and-false, which mentions bot, is refused by both
        outcomes = []
        for check in (holds, holds_countermodel):
            try:
                outcomes.append(check(presets.preset("bd"), law_by_name(name)))
            except SignatureMismatchError as e:
                outcomes.append(str(e))
        assert outcomes == {
            "double-negation": [True, None],
            "and-false": ["connective 'bot' not interpreted with arity 0"] * 2,
        }[name]

    def test_law_by_name(self):
        assert law_by_name("double-negation") in TABLE2_LAWS
        with pytest.raises(UnknownNameError):
            law_by_name("modus-ponens")


def _relisted(m, order):
    """m read back from JSON with its carrier listed in `order`."""
    def nest(name, k, args):
        if k == 0:
            return _cell(m, name, args)
        return [nest(name, k - 1, args + (v,)) for v in order]

    return matrix_from_json({
        "values": list(order), "designated": sorted(m.designated),
        "connectives": {name: {"arity": k, "table": nest(name, k, ())}
                        for name, k in m.signature.connectives.items()}})


class TestAgainstEvaluate:
    """The compiled law programs against `evaluate`, on family members."""

    def test_seeded_family_members(self):
        rng = random.Random(11)
        failing = 0
        for _ in range(100):
            m = bd.sr_decode(rng.randrange(2 ** 38))
            for law in TABLE2_LAWS + CLASSICAL_ONLY_LAWS:
                expected = _reference_equivalence(m, law.lhs, law.rhs)
                assert holds_countermodel(m, law) == expected, law.name
                assert holds(m, law) == (expected is None), law.name
                failing += expected is not None
        assert failing  # the sample refutes some law somewhere

    def test_holds_is_no_countermodel(self):
        # the boolean answer stops at the first differing index, the
        # countermodel decodes it: they agree on every law and member
        rng = random.Random(31)
        indices = [0, 2 ** 38 - 1] + [rng.randrange(2 ** 38)
                                      for _ in range(500)]
        members = [bd.sr_decode(i) for i in indices]
        members.append(_relisted(bd.sr_decode(indices[2]), "ftbn"))
        failing = 0
        for m in members:
            for law in TABLE2_LAWS + CLASSICAL_ONLY_LAWS:
                cm = holds_countermodel(m, law)
                assert holds(m, law) is (cm is None), law.name
                failing += cm is not None
        assert failing
        for law in TABLE2_LAWS + CLASSICAL_ONLY_LAWS:
            assert holds_countermodel(members[-1], law) == \
                _reference_equivalence(members[-1], law.lhs, law.rhs), law.name

    def test_program_compiled_once(self):
        law = law_by_name("de-morgan-and")
        assert law.program is law.program
        assert law.program.names == ("A1", "A2")


def _outcomes(m, law):
    """holds and holds_countermodel of the law on m, then whether
    `_first_index` finds no point where its program's sides differ and
    that point decoded through `assignments`; each the text of the
    SignatureMismatchError it raises, if any."""
    def first(m, law):
        return matrix._first_index(m, law.program, matrix._DIFFERING)

    def decoded(m, law):
        index = first(m, law)
        return None if index is None else next(
            assignments(m, law.program.names, index))

    out = []
    for check in (holds, holds_countermodel,
                  lambda m, law: first(m, law) is None, decoded):
        try:
            out.append(check(m, law))
        except SignatureMismatchError as e:
            out.append(str(e))
    return out


def _json_member_like(rng, n):
    """A random JSON matrix over n values with the family's signature."""
    values = [f"v{i}" for i in range(n)]

    def nest(k):
        return rng.choice(values) if k == 0 else [nest(k - 1) for _ in values]

    return matrix_from_json({
        "values": values,
        "designated": rng.sample(values, rng.randrange(1, n)),
        "connectives": {conn: {"arity": k, "table": nest(k)}
                        for conn, k in bd.SR_SIGNATURE.connectives.items()}})


class TestLawKernel:
    """Each law's generated kernel (`Law.kernel`) against `_first_index`
    on the law's program."""

    ALL = TABLE2_LAWS + CLASSICAL_ONLY_LAWS

    def test_every_preset(self):
        refused = 0
        for name in presets.PRESET_NAMES:
            for law in self.ALL:
                out = _outcomes(presets.preset(name), law)
                assert out[:2] == out[2:], (name, law.name)
                refused += type(out[0]) is str
        assert refused

    def test_seeded_family_members(self, first_index_calls):
        rng = random.Random(39)
        members = [bd.sr_decode(rng.randrange(2 ** 38)) for _ in range(500)]
        members.append(_relisted(members[0], "ftbn"))
        failing = 0
        for m in members:
            for law in self.ALL:
                out = _outcomes(m, law)
                assert out[:2] == out[2:], law.name
                failing += out[0] is False
        assert failing
        # on 4 values, only the oracle calls it
        assert len(first_index_calls) == 2 * len(members) * len(self.ALL)

    def test_random_json_matrices(self, first_index_calls):
        # 2 to 20 values: from 17 on, a binary table has more than 256
        # cells and a two-variable law more than 256 points, so every law
        # but double-negation falls back to `_first_index`
        rng = random.Random(40)
        for n in range(2, 21):
            for _ in range(2):
                m = _json_member_like(rng, n)
                for law in self.ALL:
                    del first_index_calls[:]
                    out = _outcomes(m, law)
                    assert out[:2] == out[2:], (n, law.name)
                    fallback = n >= 17 and law.name != "double-negation"
                    assert len(first_index_calls) == 2 + 2 * fallback, \
                        (n, law.name)

    def test_wide_binary_table(self, first_index_calls):
        # a De Morgan chain of 17 values: its binary tables have 289 cells
        values = [f"v{i}" for i in range(17)]

        def nest(fn, k, args=()):
            return values[fn(*args)] if len(args) == k else [
                nest(fn, k, args + (a,)) for a in range(17)]

        m = matrix_from_json({
            "values": values, "designated": values[8:],
            "connectives": {
                "not": {"arity": 1, "table": nest(lambda a: 16 - a, 1)},
                "and": {"arity": 2, "table": nest(min, 2)},
                "or": {"arity": 2, "table": nest(max, 2)},
                "impl": {"arity": 2, "table": nest(
                    lambda a, b: 16 if a <= b else b, 2)},
                "bot": {"arity": 0, "table": "v0"}}})
        verdicts = {}
        for law in self.ALL:
            del first_index_calls[:]
            out = _outcomes(m, law)
            assert out[:2] == out[2:], law.name
            assert len(first_index_calls) == (
                2 if law.name == "double-negation" else 4)
            verdicts[law.name] = out[0]
        assert verdicts["double-negation"] and verdicts["and-commutative"]
        assert not verdicts["neg-as-impl"]

    def test_built_once_at_the_first_check(self):
        law = laws.Law("fresh", neg(neg(Var("A"))), Var("A"))
        assert "kernel" not in vars(law)
        assert holds(M, law)
        kernel = vars(law)["kernel"]
        assert holds_countermodel(M, law) is None
        assert law.kernel is kernel
        for law in self.ALL:
            assert law.kernel is law.kernel

    def test_source_names_no_connective(self):
        for law in self.ALL:
            source = matrix._pair_source(law.program)
            for conn, _ in law.program.connectives:
                assert conn not in source, (law.name, conn)

    def test_free_cells(self):
        # the bits of exactly the free cells of the law's connectives
        for law in self.ALL:
            conns = {conn for conn, _ in law.program.connectives}
            assert [law.free_cells >> bit & 1 for bit in range(bd.SR_BITS)] \
                == [conn in conns for conn, _ in bd.FREE_CELLS]


class TestFilter:
    def test_empty_law_set_is_all(self):
        result = filter_strongly_regular([])
        assert result.is_all
        assert result.count == bd.count_strongly_regular()

    def test_full_table(self):
        result = filter_strongly_regular(TABLE2_LAWS)
        assert result.count == SURVIVOR_COUNT
        indices = list(result.indices())
        assert len(indices) == SURVIVOR_COUNT
        assert BD_INDEX in indices
        assert all(idx in result for idx in indices)
        # every survivor genuinely satisfies all 13 laws
        for idx in indices:
            m = bd.sr_decode(idx)
            assert bd.is_strongly_regular(m)
            assert all(holds(m, law) for law in TABLE2_LAWS)

    def test_membership_needs_an_index_of_the_family(self):
        # past 2^38 or below 0, an index can share its 38 low bits with
        # a survivor
        result = filter_strongly_regular(TABLE2_LAWS)
        assert BD_INDEX in result
        assert BD_INDEX + 2 ** 38 not in result
        assert BD_INDEX - 2 ** 38 not in result

    def test_membership_of_a_non_integer(self):
        result = filter_strongly_regular(TABLE2_LAWS)
        for index in (float(BD_INDEX), str(BD_INDEX), None, 1.5, "3"):
            assert index not in result
        # every member survives no laws, and a bool is none of them
        result = filter_strongly_regular([])
        assert 0 in result and 1 in result
        assert False not in result and True not in result

    def test_non_survivor_fails_some_law(self):
        result = filter_strongly_regular(TABLE2_LAWS)
        rng = random.Random(3)
        rejected = 0
        while rejected < 25:
            idx = rng.randrange(2 ** 38)
            if idx in result:
                continue
            m = bd.sr_decode(idx)
            assert not all(holds(m, law) for law in TABLE2_LAWS)
            rejected += 1

    def test_double_negation_only(self):
        result = filter_strongly_regular([law_by_name("double-negation")])
        # pins not(b)=b and not(n)=n, leaving the other 36 bits free
        assert result.count == 2 ** 36
        assert BD_INDEX in result
        for idx in result.sample(50, seed=1):
            m = bd.sr_decode(idx)
            assert _cell(m, "not", ("b",)) == "b"
            assert _cell(m, "not", ("n",)) == "n"

    def test_antitone(self):
        some = filter_strongly_regular(TABLE2_LAWS[:4])
        more = filter_strongly_regular(TABLE2_LAWS[:8])
        full = filter_strongly_regular(TABLE2_LAWS)
        assert full.count <= more.count <= some.count
        for idx in list(full.indices())[:10]:
            assert idx in more and idx in some

    def test_non_arrow_laws_pin_everything_but_impl(self):
        nonarrow = [l for l in TABLE2_LAWS if l.name not in
                    ("contradiction-implies", "excluded-middle-implies")]
        result = filter_strongly_regular(nonarrow)
        assert result.count == 2 ** 12
        base = presets.preset("bd-impl-bot")
        for idx in result.sample(20, seed=2):
            m = bd.sr_decode(idx)
            for conn in ("not", "and", "or"):
                assert m.index_tables[conn] == base.index_tables[conn]

    def test_sample_draws_members(self):
        result = filter_strongly_regular(TABLE2_LAWS)
        for idx in result.sample(10, seed=0):
            assert idx in result

    def test_leave_one_out_counts(self):
        # the law-dependence counts: each law but three is implied by the
        # other twelve
        counts = {law.name: filter_strongly_regular(
                      [l for l in TABLE2_LAWS if l is not law]).count
                  for law in TABLE2_LAWS}
        assert counts == {law.name: SURVIVOR_COUNT for law in TABLE2_LAWS} | {
            "double-negation": 162,
            "contradiction-implies": 576,
            "excluded-middle-implies": 576,
        }

    @pytest.mark.parametrize("cell", [("not", ("b",)), ("impl", ("f", "b"))],
                             ids=["not-b", "impl-f-b"])
    def test_verification_catches_a_cell_left_free(self, monkeypatch, cell):
        # not(b) is read by laws of one class; impl(f, b) only by the two
        # implication laws, whose classes are single survivors.  The laws
        # force impl(f, b) to its bit-0 value, so the first survivor is
        # sound and only a check of each class finds the bad ones
        bit = bd.FREE_CELLS.index(cell)
        propagate = laws._propagate

        def leaky(bits, trees, watchers, dirty):
            cell_or_done = propagate(bits, trees, watchers, dirty)
            if cell_or_done is None:
                assert bits[bit] is not None  # the 13 laws force the cell
                bits[bit] = None
            return cell_or_done

        monkeypatch.setattr(laws, "_propagate", leaky)
        with pytest.raises(AssertionError, match="fails verification") as e:
            filter_strongly_regular(TABLE2_LAWS)
        index = int(str(e.value).split()[3])
        failing = {law.name for law in TABLE2_LAWS
                   if not holds(bd.sr_decode(index), law)}
        if cell[0] == "impl":
            assert failing <= {"contradiction-implies",
                                "excluded-middle-implies"}
        assert failing


def _status(instance: tuple[Program, tuple[str, ...]], bits: list):
    """("sat" | "violated" | "unknown", blocking free-cell indices) of a law
    instance, its program with one value per variable, under a partial
    family member.  A step whose arguments are known but whose free cell
    is unpinned blocks on that cell."""
    program, values = instance
    vals: list = list(values)
    blockers = set()
    for conn, args in program.steps:
        known = tuple([vals[a] for a in args])
        key, value = (conn, known), None
        if None not in known:
            cell = FREE_BITS.get(key)
            if cell is None:
                value = CELLS[key][0]
            elif bits[cell] is None:
                blockers.add(cell)
            else:
                value = CELLS[key][bits[cell]]
        vals.append(value)
    lhs, rhs = (vals[s] for s in program.slots)
    if lhs is None or rhs is None:
        return "unknown", blockers
    return ("sat" if lhs == rhs else "violated"), blockers


def _instances(laws: Iterable[Law]) -> list[tuple[Program, tuple[str, ...]]]:
    return [(law.program, combo) for law in laws
            for combo in itertools.product(
                VALUES, repeat=len(law.program.names))]


def _reference_propagate(instances, bits):
    """The full-pass propagation the tree walks replace: every pass
    re-evaluates every instance."""
    while True:
        changed, branch = False, None
        for c in instances:
            status, blockers = _status(c, bits)
            if status == "violated":
                return False
            if status == "sat":
                continue
            if len(blockers) == 1:
                (cell,) = blockers
                feasible = []
                for v in (0, 1):
                    bits[cell] = v
                    if _status(c, bits)[0] != "violated":
                        feasible.append(v)
                bits[cell] = None
                if not feasible:
                    return False
                if len(feasible) == 1:
                    bits[cell] = feasible[0]
                    changed = True
                    continue
            if branch is None:
                branch = min(blockers)
        if not changed:
            return branch


def _reference_cubes(selected):
    instances = _instances(selected)
    cubes = []

    def solve(bits):
        cell = _reference_propagate(instances, bits)
        if cell is None:
            cubes.append(tuple(bits))
        elif cell is not False:
            for v in (0, 1):
                child = list(bits)
                child[cell] = v
                solve(child)

    solve([None] * bd.SR_BITS)
    return cubes


def _law_sets():
    every = TABLE2_LAWS + CLASSICAL_ONLY_LAWS
    sets = [()] + [(law,) for law in every]
    sets += [TABLE2_LAWS[:i] + TABLE2_LAWS[i + 1:] for i in range(13)]
    # instance order decides which instance is the first undecided one
    sets += [TABLE2_LAWS[::-1], (TABLE2_LAWS[:6] + TABLE2_LAWS[7:])[::-1]]
    rng = random.Random(16)
    # 60 new sets of 2 laws or more (the singletons are above); () is
    # taken, so each is drawn at least once
    for _ in range(60):
        drawn = ()
        while drawn in sets:
            drawn = tuple(rng.sample(every, rng.randint(2, len(every))))
        sets.append(drawn)
    return sets


class TestWatchedPropagation:
    """The propagation over law trees, with its static watch lists, against
    the full-pass one it replaces."""

    @pytest.mark.parametrize("selected", _law_sets(),
                             ids=lambda s: ",".join(l.name for l in s)
                             or "none")
    def test_same_cubes_in_the_same_order(self, selected, monkeypatch):
        # an instance left unwalked only makes the filter branch on a cell
        # it should have forced, whose other child dies at once, so the
        # cubes alone cannot show it: each node's fixpoint must match, and
        # its branch cell must block the first undecided instance
        instances = _instances(selected)
        propagate = laws._propagate
        nodes = 0

        def compared(bits, trees, watchers, dirty):
            nonlocal nodes
            expected_bits = list(bits)
            expected = _reference_propagate(instances, expected_bits)
            answer = propagate(bits, trees, watchers, dirty)
            assert (answer is False) is (expected is False)
            if answer is not False:  # a conflict's partial pins may differ
                assert bits == expected_bits
                # None if all hold, else a cell blocking the first undecided
                statuses = (_status(c, bits) for c in instances)
                assert answer in next((blockers for status, blockers in statuses
                                       if status != "sat"), {None})
            nodes += 1
            return answer

        monkeypatch.setattr(laws, "_propagate", compared)
        assert filter_strongly_regular(selected).cubes == \
            _reference_cubes(selected)
        assert nodes


class TestLawTrees:
    """Each law instance's decision tree against `_status`, which runs the
    instance's steps one by one."""

    @pytest.mark.parametrize("law", TABLE2_LAWS + CLASSICAL_ONLY_LAWS,
                             ids=lambda l: l.name)
    def test_walks_agree_with_status(self, law):
        instances = _instances([law])
        assert len(law.trees) == len(instances)
        rng = random.Random(law.name)
        stops = 0
        for _ in range(150):
            density = rng.random()
            bits = [rng.getrandbits(1) if rng.random() < density else None
                    for _ in range(bd.SR_BITS)]
            for instance, (tree, cells) in zip(instances, law.trees):
                status, blockers = _status(instance, bits)
                node = laws._walk(tree, bits)
                if status != "unknown":
                    assert node is (status == "sat")
                    continue
                # a walk stops at an unpinned cell that blocks the instance
                cell, low, high = node
                assert bits[cell] is None and cell in blockers
                assert blockers <= set(cells)
                stops += 1
                for v, child in ((0, low), (1, high)):
                    bits[cell] = v
                    assert (laws._walk(child, bits) is False) == \
                        (_status(instance, bits)[0] == "violated")
                bits[cell] = None
        assert stops

    def test_cells_are_the_cells_read(self):
        def read(tree):
            return set() if tree is True or tree is False else (
                {tree[0]} | read(tree[1]) | read(tree[2]))

        for law in TABLE2_LAWS + CLASSICAL_ONLY_LAWS:
            for tree, cells in law.trees:
                assert cells == tuple(sorted(read(tree)))
                assert all(law.free_cells >> cell & 1 for cell in cells)

    def test_cached_trees_carry_no_state(self, monkeypatch):
        # the same trees serve every call; each call's cubes must be those
        # of a call that builds its laws' trees anew
        sets = [TABLE2_LAWS]
        sets += [TABLE2_LAWS[:i] + TABLE2_LAWS[i + 1:] for i in range(13)]
        sets += [(law,) for law in TABLE2_LAWS]
        cached = {law: law.trees for law in TABLE2_LAWS}

        def fresh(selected):
            with monkeypatch.context() as m:
                for law in selected:
                    m.delitem(law.__dict__, "trees")
                cubes = filter_strongly_regular(selected).cubes
                rebuilt = {law: law.trees for law in selected}
            return cubes, rebuilt

        expected = []
        for selected in sets:
            cubes, rebuilt = fresh(selected)
            expected.append(cubes)
            assert all(rebuilt[law] == cached[law] for law in selected)
        for order in (range(len(sets)), reversed(range(len(sets)))):
            for i in order:
                assert filter_strongly_regular(sets[i]).cubes == expected[i]

        def immutable(tree):
            return tree is True or tree is False or (
                type(tree) is tuple and len(tree) == 3
                and type(tree[0]) is int
                and immutable(tree[1]) and immutable(tree[2]))

        for law in TABLE2_LAWS:
            assert law.trees is cached[law] and type(law.trees) is tuple
            assert all(type(pair) is tuple and immutable(pair[0])
                       and type(pair[1]) is tuple for pair in law.trees)
        assert fresh(TABLE2_LAWS)[1] == cached
