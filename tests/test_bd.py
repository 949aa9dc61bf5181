import hashlib
import itertools
import json
import random

import pytest

from fdekit import bd, laws, presets
from fdekit.errors import (
    IndexOutOfRangeError,
    NotStronglyRegularError,
    SignatureMismatchError,
    UnknownNameError,
)
from fdekit.matrix import (
    Matrix, evaluate, is_expansion, matrix_from_json, matrix_to_json)
from fdekit.syntax import App, Var

# The family index of the implication-falsity expansion of the base
# matrix under the documented bit layout, frozen as a regression constant.
BD_IMPL_BOT_INDEX = 13129950543


def _cell(m, conn, args):
    """One cell of m's table for conn, read through `evaluate`."""
    names = [f"x{i}" for i in range(len(args))]
    return evaluate(m, App(conn, tuple(map(Var, names))),
                    dict(zip(names, args)))


class TestConnectiveTables:
    def test_negation(self):
        assert bd.NOT.table == {("t",): "f", ("f",): "t",
                                ("b",): "b", ("n",): "n"}

    def test_read_only(self):
        # shared by bd_matrix, CELLS, the presets and every family member
        with pytest.raises(TypeError):
            bd.NOT.table[("t",)] = "t"
        with pytest.raises(TypeError):
            bd.heart("t").table[("t",)] = "f"
        with pytest.raises(TypeError):
            bd.SR_SIGNATURE.connectives["not"] = 2
        assert bd.sr_decode(0).signature.connectives["not"] == 1

    def test_lattice(self):
        assert bd.AND.table[("b", "n")] == "f"
        assert bd.OR.table[("b", "n")] == "t"
        assert bd.AND.table[("t", "b")] == "b"
        assert bd.OR.table[("f", "n")] == "n"
        for a, b_ in itertools.product(bd.VALUES, repeat=2):
            assert bd.AND.table[(a, b_)] == bd.meet(a, b_)
            assert bd.OR.table[(a, b_)] == bd.join(a, b_)

    def test_implication(self):
        for a, b_ in itertools.product(bd.VALUES, repeat=2):
            expected = "t" if a not in ("t", "b") else b_
            assert bd.IMPL.table[(a, b_)] == expected

    def test_unary_expansions(self):
        assert [bd.DELTA.table[(a,)] for a in bd.VALUES] == ["t", "f", "t", "f"]
        assert [bd.CIRC.table[(a,)] for a in bd.VALUES] == ["t", "t", "f", "f"]
        assert [bd.CONS.table[(a,)] for a in bd.VALUES] == ["t", "t", "f", "t"]
        assert [bd.DET.table[(a,)] for a in bd.VALUES] == ["t", "t", "t", "f"]

    def test_conflation_is_an_involution(self):
        for a in bd.VALUES:
            assert bd.CONFL.table[(bd.CONFL.table[(a,)],)] == a
        assert bd.CONFL.table[("b",)] == "n"
        assert bd.CONFL.table[("t",)] == "t"

    def test_constants(self):
        assert bd.BOT.table[()] == "f"
        assert bd.B_CONST.table[()] == "b"
        assert bd.N_CONST.table[()] == "n"

    def test_heart_family(self):
        c = bd.heart(("t", "b"))
        assert c.table == bd.DELTA.table
        assert c.name == "heart_tb"
        assert bd.heart(()).name == "heart_0"
        tables = {tuple(bd.heart(v).table[(a,)] for a in bd.VALUES)
                  for r in range(5)
                  for v in itertools.combinations(bd.VALUES, r)}
        assert len(tables) == 16
        with pytest.raises(UnknownNameError, match=r"\['x'\]"):
            bd.heart(("t", "x"))

    def test_named_lookup(self):
        assert bd.named("delta") is bd.DELTA
        with pytest.raises(Exception):
            bd.named("nope")


class TestLatticeOrder:
    def test_order(self):
        assert bd.leq("f", "b") and bd.leq("b", "t")
        assert bd.leq("f", "n") and bd.leq("n", "t")
        assert not bd.leq("b", "n") and not bd.leq("n", "b")

    def test_meet_join_laws(self):
        for a, b_ in itertools.product(bd.VALUES, repeat=2):
            assert bd.meet(a, b_) == bd.meet(b_, a)
            assert bd.join(a, b_) == bd.join(b_, a)
            assert bd.join(a, bd.meet(a, b_)) == a
            assert bd.meet(a, bd.join(a, b_)) == a


class TestStronglyRegularFamily:
    def test_count(self):
        assert bd.count_strongly_regular() == 2 ** 38 == 274877906944
        assert bd.SR_BITS == 38
        assert len(bd.FREE_CELLS) == 38

    def test_bd_matrix_is_member(self):
        m = presets.preset("bd-impl-bot")
        assert bd.is_strongly_regular(m)
        assert bd.sr_encode(m) == BD_IMPL_BOT_INDEX
        assert bd.sr_decode(BD_IMPL_BOT_INDEX) == m

    def test_decode_encode_bijection_sampled(self):
        rng = random.Random(20260823)
        for _ in range(1000):
            index = rng.randrange(2 ** 38)
            m = bd.sr_decode(index)
            assert bd.is_strongly_regular(m)
            assert bd.sr_encode(m) == index

    def test_member_tables_on_another_carrier_or_designated_set(self):
        m = presets.preset("bd-impl-bot")
        assert not bd.is_strongly_regular(Matrix(
            ("t", "f", "b", "x"), m.designated, m.signature, m.index_tables))
        assert not bd.is_strongly_regular(Matrix(
            m.values, frozenset(["t"]), m.signature, m.index_tables))
        with pytest.raises(NotStronglyRegularError):
            bd.sr_encode(Matrix(m.values, frozenset(["t"]), m.signature,
                                m.index_tables))

    def test_extreme_indices(self):
        for index in (0, 2 ** 38 - 1):
            m = bd.sr_decode(index)
            assert bd.is_strongly_regular(m)
            assert bd.sr_encode(m) == index
        # index 0 is the all-classical member
        m0 = bd.sr_decode(0)
        for conn in ("not", "and", "or", "impl"):
            assert {m0.values[i] for i in m0.index_tables[conn]} <= {"t", "f"}

    def test_decode_sets_each_free_cell(self):
        rng = random.Random(7)
        for index in [0, 2 ** 38 - 1] + [rng.randrange(2 ** 38)
                                         for _ in range(50)]:
            m = bd.sr_decode(index)
            for bit, (conn, args) in enumerate(bd.FREE_CELLS):
                assert _cell(m, conn, args) == \
                    bd.CELLS[conn, args][(index >> bit) & 1]
            for (conn, args), outputs in bd.CELLS.items():
                if len(outputs) == 1:
                    assert _cell(m, conn, args) == outputs[0]

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            bd.sr_decode(-1)
        with pytest.raises(IndexOutOfRangeError):
            bd.sr_decode(2 ** 38)

    def test_index_not_an_integer(self):
        # a bool is an int to `isinstance`, but no family index
        for index in (1.5, float(BD_IMPL_BOT_INDEX), "3", None, True, False):
            with pytest.raises(IndexOutOfRangeError, match="not an integer"):
                bd.sr_decode(index)

    def test_encode_rejects_non_member(self):
        with pytest.raises(NotStronglyRegularError):
            bd.sr_encode(bd.bd_matrix())
        m = bd.expand(bd.bd_matrix(), bd.CONFL, bd.BOT)
        with pytest.raises(NotStronglyRegularError):
            bd.sr_encode(m)

    def test_bit_layout(self):
        # flipping bit 0 changes exactly the table cell not(b)
        m0 = bd.sr_decode(0)
        m1 = bd.sr_decode(1)
        assert _cell(m0, "not", ("b",)) == "t"
        assert _cell(m1, "not", ("b",)) == "b"
        assert m0.index_tables["and"] == m1.index_tables["and"]
        # bit 2 is the first free cell of "and": (t, b)
        assert bd.FREE_CELLS[2] == ("and", ("t", "b"))
        assert bd.FREE_CELLS[14] == ("or", ("t", "b"))
        assert bd.FREE_CELLS[26] == ("impl", ("t", "b"))


def _reference_decode(index):
    """The dict-building decoder: every cell's first output, then the
    second output of each free cell whose bit is set."""
    tables = {conn: {args: bd.CELLS[conn, args][0]
                     for args in itertools.product(bd.VALUES, repeat=k)}
              for conn, k in bd.SR_SIGNATURE.connectives.items()}
    for bit, (conn, args) in enumerate(bd.FREE_CELLS):
        if (index >> bit) & 1:
            tables[conn][args] = bd.CELLS[conn, args][1]
    return tables


def _reference_layout(values):
    """For one order of the values: each cell's allowed output indices in
    index-table order, and each free cell's (bit, connective, position,
    first output index)."""
    position = {v: i for i, v in enumerate(values)}
    allowed, free = {}, []
    for conn, k in bd.SR_SIGNATURE.connectives.items():
        cells = list(itertools.product(values, repeat=k))
        allowed[conn] = [bytes([position[v] for v in bd.CELLS[conn, args]])
                         for args in cells]
        free += [(bd.FREE_BITS[conn, args], conn, i, allowed[conn][i][0])
                 for i, args in enumerate(cells)
                 if (conn, args) in bd.FREE_BITS]
    return allowed, free


def _reference_regular(m):
    """The per-cell check: every cell holds one of its allowed outputs."""
    if m.signature.connectives != bd.SR_SIGNATURE.connectives:
        return False
    if set(m.values) != set(bd.VALUES) or m.designated != bd.DESIGNATED:
        return False
    allowed, _ = _reference_layout(tuple(m.values))
    return all(v in ok for conn, oks in allowed.items()
               for v, ok in zip(m.index_tables[conn], oks))


def _reference_encode(m):
    """The per-cell encoder: one bit per free cell off its first output."""
    if not _reference_regular(m):
        raise NotStronglyRegularError("matrix is not strongly regular")
    return sum(1 << bit for bit, conn, i, first
               in _reference_layout(tuple(m.values))[1]
               if m.index_tables[conn][i] != first)


def _index_tables(tables, order):
    """Name-keyed {not, and, or, impl, bot}-tables as index tables over the
    values in `order`."""
    return {conn: bytes(order.index(tables[conn][args])
                        for args in itertools.product(order, repeat=k))
            for conn, k in bd.SR_SIGNATURE.connectives.items()}


def _relisted(tables, order):
    """The matrix of name-keyed {not, and, or, impl, bot}-tables, read back
    from JSON that lists its values in `order`."""
    def nest(name, k, prefix):
        if len(prefix) == k:
            return tables[name][prefix]
        return [nest(name, k, prefix + (v,)) for v in order]

    return matrix_from_json({
        "values": list(order), "designated": sorted(bd.DESIGNATED),
        "connectives": {name: {"arity": k, "table": nest(name, k, ())}
                        for name, k in bd.SR_SIGNATURE.connectives.items()}})


def _decoder_inputs():
    rng = random.Random(20261019)
    return ([0, 2 ** 38 - 1] + [1 << bit for bit in range(bd.SR_BITS)]
            + [rng.randrange(2 ** 38) for _ in range(500)])


class TestByteDecoder:
    def test_matches_reference_decoder(self):
        for index in _decoder_inputs():
            m, tables = bd.sr_decode(index), _reference_decode(index)
            ref = Matrix(bd.VALUES, bd.DESIGNATED, bd.SR_SIGNATURE,
                         _index_tables(tables, bd.VALUES))
            assert m == ref, index
            assert matrix_to_json(m) == matrix_to_json(ref), index
            assert bd.is_strongly_regular(m) and bd.is_strongly_regular(ref)
            assert bd.sr_encode(m) == bd.sr_encode(ref) == index

    def test_member_tables_are_read_only(self):
        m = bd.sr_decode(BD_IMPL_BOT_INDEX)
        with pytest.raises(TypeError):
            m.index_tables["not"][0] = 0
        with pytest.raises(TypeError):
            m.index_tables["not"] = b"\0\0\0\0"

    def test_other_value_order(self):
        order = ("f", "t", "b", "n")
        for index in _decoder_inputs()[:60]:
            m, tables = bd.sr_decode(index), _reference_decode(index)
            relisted = _relisted(tables, order)
            assert relisted.values == order
            assert relisted.index_tables == _index_tables(tables, order)
            assert is_expansion(relisted, m) and is_expansion(m, relisted)
            assert bd.is_strongly_regular(relisted)
            assert bd.sr_encode(relisted) == index

    @pytest.mark.parametrize("order", [bd.VALUES, ("f", "t", "b", "n")],
                             ids=["canonical", "f-t-b-n"])
    def test_cell_outside_its_outputs_is_rejected(self, order):
        for (conn, args), outputs in bd.CELLS.items():
            for wrong in [v for v in bd.VALUES if v not in outputs]:
                tables = _reference_decode(BD_IMPL_BOT_INDEX)
                tables[conn][args] = wrong
                bad = _relisted(tables, order)
                assert not bd.is_strongly_regular(bad), (conn, args, wrong)
                with pytest.raises(NotStronglyRegularError):
                    bd.sr_encode(bad)

    def test_holds_names_the_missing_connective(self):
        data = matrix_to_json(bd.sr_decode(BD_IMPL_BOT_INDEX))
        del data["connectives"]["impl"]
        m = matrix_from_json(data)
        assert laws.holds(m, laws.law_by_name("double-negation"))
        with pytest.raises(SignatureMismatchError) as e:
            laws.holds(m, laws.law_by_name("contradiction-implies"))
        assert str(e.value) == "connective 'impl' not interpreted with arity 2"


_ORDERS = pytest.mark.parametrize(
    "order", [bd.VALUES, ("f", "t", "b", "n")], ids=["canonical", "f-t-b-n"])


def _in_order(index, order):
    """The member of this index, its values listed in `order`."""
    if order == bd.VALUES:
        return bd.sr_decode(index)
    return _relisted(_reference_decode(index), order)


def _agrees_with_reference(m):
    """Whether m is a member, after checking that the word check and
    encoder answer as the per-cell ones do."""
    regular = bd.is_strongly_regular(m)
    assert regular is _reference_regular(m)
    if regular:
        assert bd.sr_encode(m) == _reference_encode(m)
    else:
        with pytest.raises(NotStronglyRegularError):
            bd.sr_encode(m)
        with pytest.raises(NotStronglyRegularError):
            _reference_encode(m)
    return regular


class TestWordEncoder:
    @_ORDERS
    def test_matches_reference_on_decoder_inputs(self, order):
        for index in _decoder_inputs():
            m = _in_order(index, order)
            assert _reference_encode(m) == index
            assert _agrees_with_reference(m)

    @_ORDERS
    def test_matches_reference_on_perturbed_cells(self, order):
        # two or three cells set to random other values, and every third
        # member also a free cell set to a value off both its outputs that
        # shares a bit of their XOR, the patch of that cell
        allowed, _ = _reference_layout(order)
        cells = [(conn, i) for conn, oks in allowed.items()
                 for i in range(len(oks))]
        sharing = [(conn, i, v) for conn, oks in allowed.items()
                   for i, ok in enumerate(oks) if len(ok) == 2
                   for v in range(4)
                   if v not in ok and (v ^ ok[0]) & (ok[0] ^ ok[1])]
        assert sharing
        rng = random.Random("".join(order))
        members = 0
        for trial in range(600):
            m = _in_order(rng.randrange(2 ** 38), order)
            tables = {c: bytearray(t) for c, t in m.index_tables.items()}
            for conn, i in rng.sample(cells, 2 + trial % 2):
                tables[conn][i] = rng.choice(
                    [v for v in range(4) if v != tables[conn][i]])
            if trial % 3 == 0:
                conn, i, v = rng.choice(sharing)
                tables[conn][i] = v
            members += _agrees_with_reference(
                Matrix(order, bd.DESIGNATED, bd.SR_SIGNATURE, tables))
        # both kinds occur: a free cell moved to its other output keeps a
        # member in the family
        assert 0 < members < 600


def test_unknown_preset():
    with pytest.raises(UnknownNameError, match="unknown preset 'nope'"):
        presets.preset("nope")


def test_presets_unchanged():
    # every preset's tables and signature order, whatever the hash seed
    data = {n: [matrix_to_json(presets.preset(n)),
                list(presets.preset(n).signature.connectives)]
            for n in presets.PRESET_NAMES}
    digest = hashlib.sha256(json.dumps(data, sort_keys=True).encode())
    assert digest.hexdigest() == (
        "3d325a4573d3d02d08125e4995514255c428f6801ef33ff11723fe26a3eee5d2")
