import pytest
from hypothesis import given, settings, strategies as st

from fdekit import presets
from fdekit.errors import (
    ArityMismatchError,
    ParseError,
    UnknownConnectiveError,
)
from fdekit.proof import Sequent
from fdekit.syntax import (
    MAX_NESTING,
    App,
    BOT,
    Signature,
    TOP,
    Var,
    conj,
    disj,
    formula_key,
    impl,
    neg,
    parse,
    print_formula,
    substitute,
    variables,
)

SIG = presets.preset("bd-impl-bot").signature
RICH_SIG = Signature({"not": 1, "and": 2, "or": 2, "impl": 2, "bot": 0,
                      "delta": 1, "circ": 1, "cons": 1, "det": 1,
                      "confl": 1, "B": 0, "N": 0})

p, q, r = Var("p"), Var("q"), Var("r")


class TestParsing:
    def test_precedence(self):
        assert parse("p & q | r", SIG) == disj(conj(p, q), r)
        assert parse("p | q & r", SIG) == disj(p, conj(q, r))
        assert parse("~p & q", SIG) == conj(neg(p), q)

    def test_impl_is_right_associative_and_weakest(self):
        assert parse("p -> q -> r", SIG) == impl(p, impl(q, r))
        assert parse("p | q -> r", SIG) == impl(disj(p, q), r)

    def test_and_or_left_associative(self):
        assert parse("p & q & r", SIG) == conj(conj(p, q), r)
        assert parse("p | q | r", SIG) == disj(disj(p, q), r)

    def test_top_expands_to_negated_bot(self):
        assert parse("top", SIG) == TOP == neg(BOT)

    def test_prefix_keywords(self):
        f = parse("delta ~p", RICH_SIG)
        assert f == App("delta", (neg(p),))
        assert parse("B & N", RICH_SIG) == conj(App("B", ()), App("N", ()))

    def test_nested_unary_without_parens(self):
        assert parse("~~p", SIG) == neg(neg(p))
        assert parse("cons det p", RICH_SIG) == App(
            "cons", (App("det", (p,)),))

    def test_unknown_connective_rejected(self):
        with pytest.raises(UnknownConnectiveError):
            parse("delta p", SIG)  # delta not in this signature
        with pytest.raises(UnknownConnectiveError):
            parse("p -> q", Signature({"not": 1, "and": 2, "or": 2}))

    def test_binary_keyword_not_an_atom(self):
        with pytest.raises(ArityMismatchError):
            parse("and", SIG)

    def test_parse_errors_report_position(self):
        with pytest.raises(ParseError) as exc:
            parse("p & ?", SIG)
        assert exc.value.position == 4
        with pytest.raises(ParseError):
            parse("(p & q", SIG)
        with pytest.raises(ParseError):
            parse("p q", SIG)


class TestPrinting:
    def test_minimal_parentheses(self):
        assert print_formula(disj(conj(p, q), r)) == "p & q | r"
        assert print_formula(conj(p, disj(q, r))) == "p & (q | r)"
        assert print_formula(impl(p, impl(q, r))) == "p -> q -> r"
        assert print_formula(impl(impl(p, q), r)) == "(p -> q) -> r"
        assert print_formula(neg(conj(p, q))) == "~(p & q)"
        assert print_formula(conj(neg(p), neg(q))) == "~p & ~q"

    def test_unary_prefix_spacing(self):
        f = App("delta", (conj(p, q),))
        assert print_formula(f) == "delta (p & q)"
        assert print_formula(App("delta", (p,))) == "delta p"


def _formulas(sig, max_depth):
    atoms = st.one_of(
        st.sampled_from([Var(n) for n in ("p", "q", "r", "x_1")]),
        st.sampled_from([App(c, ()) for c, k in sig.connectives.items()
                         if k == 0]),
    )
    unary = [c for c, k in sig.connectives.items() if k == 1]
    binary = [c for c, k in sig.connectives.items() if k == 2]

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(unary), children).map(
                lambda t: App(t[0], (t[1],))),
            st.tuples(st.sampled_from(binary), children, children).map(
                lambda t: App(t[0], (t[1], t[2]))),
        )

    return st.recursive(atoms, extend, max_leaves=2 ** max_depth)


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(_formulas(RICH_SIG, 7))
    def test_print_parse_round_trip(self, f):
        assert parse(print_formula(f), RICH_SIG) == f

    def test_deep_handwritten_example(self):
        text = "~(delta (p -> ~(q & B)) | cons ~(r -> bot & top)) -> N"
        f = parse(text, RICH_SIG)
        assert parse(print_formula(f), RICH_SIG) == f

    @pytest.mark.parametrize("text", [
        "~" * MAX_NESTING + "p",
        "(" * MAX_NESTING + "p" + ")" * MAX_NESTING,
        "p -> " * MAX_NESTING + "p",
        "~(" * (MAX_NESTING // 2) + "p" + ")" * (MAX_NESTING // 2),
        "p" + " & p" * MAX_NESTING,
        "p" + " | q" * MAX_NESTING,
    ], ids=["negations", "parentheses", "arrows", "mixed", "and-chain",
            "or-chain"])
    def test_round_trip_at_nesting_limit(self, text):
        f = parse(text, RICH_SIG)
        assert parse(print_formula(f), RICH_SIG) == f


class TestSubstitution:
    def test_spec_example(self):
        assert substitute(disj(p, q), {"p": BOT}) == disj(BOT, q)

    def test_identity_outside_domain(self):
        assert substitute(r, {"p": BOT}) == r


class TestStructure:
    def test_variables(self):
        assert variables(impl(conj(p, neg(q)), BOT)) == {"p", "q"}
        assert variables(BOT) == set()

    def test_deep_formula_hashes(self):
        # built in code, past the parser's nesting limit: hashing reads
        # each node's cached hash and does not recurse
        f = p
        for _ in range(1000):
            f = neg(f)
        assert f in {f, p}
        assert Sequent.of([f], [p]).left == frozenset([f])
        assert hash(neg(neg(p))) == hash(parse("~~p", SIG))

    def test_formula_key_total_order(self):
        items = [p, q, BOT, TOP, conj(p, q), conj(q, p)]
        keys = [formula_key(f) for f in items]
        assert len(set(keys)) == len(items)
        assert sorted(keys) == sorted(keys, key=lambda k: k)
