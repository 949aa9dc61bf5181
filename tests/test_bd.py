import hashlib
import itertools
import json
import random

import pytest

from fdekit import bd, presets
from fdekit.errors import IndexOutOfRangeError, NotStronglyRegularError
from fdekit.matrix import matrix_to_json

# The family index of the implication-falsity expansion of the base
# matrix under the documented bit layout, frozen as a regression constant.
BD_IMPL_BOT_INDEX = 13129950543


class TestConnectiveTables:
    def test_negation(self):
        assert bd.NOT.table == {("t",): "f", ("f",): "t",
                                ("b",): "b", ("n",): "n"}

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

    def test_extreme_indices(self):
        for index in (0, 2 ** 38 - 1):
            m = bd.sr_decode(index)
            assert bd.is_strongly_regular(m)
            assert bd.sr_encode(m) == index
        # index 0 is the all-classical member
        m0 = bd.sr_decode(0)
        for conn in ("not", "and", "or", "impl"):
            assert set(m0.tables[conn].values()) <= {"t", "f"}

    def test_decode_sets_each_free_cell(self):
        rng = random.Random(7)
        for index in [0, 2 ** 38 - 1] + [rng.randrange(2 ** 38)
                                         for _ in range(50)]:
            m = bd.sr_decode(index)
            for bit, (conn, args) in enumerate(bd.FREE_CELLS):
                assert m.tables[conn][args] == \
                    bd.CELLS[conn, args][(index >> bit) & 1]
            for (conn, args), outputs in bd.CELLS.items():
                if len(outputs) == 1:
                    assert m.tables[conn][args] == outputs[0]

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            bd.sr_decode(-1)
        with pytest.raises(IndexOutOfRangeError):
            bd.sr_decode(2 ** 38)

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
        assert m0.tables["not"][("b",)] == "t"
        assert m1.tables["not"][("b",)] == "b"
        assert m0.tables["and"] == m1.tables["and"]
        # bit 2 is the first free cell of "and": (t, b)
        assert bd.FREE_CELLS[2] == ("and", ("t", "b"))
        assert bd.FREE_CELLS[14] == ("or", ("t", "b"))
        assert bd.FREE_CELLS[26] == ("impl", ("t", "b"))


def test_presets_unchanged():
    # every preset's tables and signature order, whatever the hash seed
    data = {n: [matrix_to_json(presets.preset(n)),
                list(presets.preset(n).signature.connectives)]
            for n in presets.PRESET_NAMES}
    digest = hashlib.sha256(json.dumps(data, sort_keys=True).encode())
    assert digest.hexdigest() == (
        "3d325a4573d3d02d08125e4995514255c428f6801ef33ff11723fe26a3eee5d2")
