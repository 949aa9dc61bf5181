import copy
import gc
import operator
import os
import pickle
import random
import re
import sys
import threading
import weakref
from typing import Iterator

import pytest
from hypothesis import given, settings, strategies as st

from fdekit import bd, presets, syntax
from fdekit.errors import (
    ArityMismatchError,
    FdekitError,
    InvalidInputError,
    ParseError,
    UnknownConnectiveError,
)
from fdekit.matrix import compile_formulas
from fdekit.proof import Sequent
from fdekit.syntax import (
    KEYWORDS,
    App,
    BOT,
    Formula,
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
    subformulas,
    substitute,
    variables,
)

SIG = presets.preset("bd-impl-bot").signature
RICH_SIG = Signature({"not": 1, "and": 2, "or": 2, "impl": 2, "bot": 0,
                      "delta": 1, "circ": 1, "cons": 1, "det": 1,
                      "confl": 1, "B": 0, "N": 0})

p, q, r = Var("p"), Var("q"), Var("r")


# ---------------------------------------------------------------------------
# The recursive-descent parser that `parse` replaced, kept as the
# reference: the new parser must return an equal formula or raise the same
# error, with the same message and position, on every text that nests
# within the reference's bound.  The reference recurses, so past that bound
# it raises its own error, which `parse` does not.
_REFERENCE_NESTING = 100
_REFERENCE_TOO_DEEP = f"nesting deeper than {_REFERENCE_NESTING}"

_TOKEN_RE = re.compile(r"\s*(->|[~&|()]|[A-Za-z_][A-Za-z_0-9]*)")


def _tokenize(text: str) -> Iterator[tuple[str, int]]:
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or not m.group(1):
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}",
                             len(text) - len(stripped))
        yield m.group(1), m.start(1)
        pos = m.end()


def _app(conn: str, operands, pos: int) -> tuple[Formula, int]:
    """conn applied to (formula, height) operands, with its height."""
    height = 1 + max(h for _, h in operands)
    if height > _REFERENCE_NESTING:
        raise ParseError(_REFERENCE_TOO_DEEP, pos)
    return App(conn, tuple(f for f, _ in operands)), height


class _Parser:
    def __init__(self, text: str, sig: Signature):
        self.sig = sig
        self.tokens = list(_tokenize(text))
        self.length = len(text)
        self.i = 0
        self.depth = 0

    def nested(self, parse, pos: int) -> tuple[Formula, int]:
        """Run one recursive sub-parse one nesting level deeper."""
        if self.depth == _REFERENCE_NESTING:
            raise ParseError(_REFERENCE_TOO_DEEP, pos)
        self.depth += 1
        f = parse()
        self.depth -= 1
        return f

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, self.length)

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, token: str):
        tok, pos = self.next()
        if tok != token:
            raise ParseError(f"expected {token!r}, found {tok!r}", pos)

    def formula(self) -> tuple[Formula, int]:
        lhs = self.disjunction()
        if self.peek()[0] == "->":
            _, pos = self.next()
            self.require("impl", pos)
            return _app("impl", (lhs, self.nested(self.formula, pos)), pos)
        return lhs

    def disjunction(self) -> tuple[Formula, int]:
        f = self.conjunction()
        while self.peek()[0] == "|":
            _, pos = self.next()
            self.require("or", pos)
            f = _app("or", (f, self.conjunction()), pos)
        return f

    def conjunction(self) -> tuple[Formula, int]:
        f = self.unary()
        while self.peek()[0] == "&":
            _, pos = self.next()
            self.require("and", pos)
            f = _app("and", (f, self.unary()), pos)
        return f

    def unary(self) -> tuple[Formula, int]:
        tok, pos = self.peek()
        if tok == "~":
            self.next()
            self.require("not", pos)
            return _app("not", (self.nested(self.unary, pos),), pos)
        if tok is not None and tok in self.sig and self.sig.arity(tok) == 1:
            self.next()
            return _app(tok, (self.nested(self.unary, pos),), pos)
        return self.atom()

    def atom(self) -> tuple[Formula, int]:
        tok, pos = self.next()
        if tok == "(":
            f = self.nested(self.formula, pos)
            self.expect(")")
            return f
        if tok is None:
            raise ParseError("unexpected end of input", pos)
        if tok == "top":
            self.require("not", pos)
            self.require("bot", pos)
            return TOP, 1
        if tok in self.sig:
            arity = self.sig.arity(tok)
            if arity == 0:
                return App(tok, ()), 0
            raise ArityMismatchError(
                f"connective {tok!r} has arity {arity}, not usable as an atom")
        if tok in KEYWORDS:
            raise UnknownConnectiveError(
                f"connective {tok!r} is not in the signature", pos)
        if not tok[0].isalpha() and tok[0] != "_":
            raise ParseError(f"unexpected token {tok!r}", pos)
        return Var(tok), 0

    def require(self, name: str, pos: int):
        if name not in self.sig:
            raise UnknownConnectiveError(
                f"connective {name!r} is not in the signature", pos)


def _reference_parse(text: str, sig: Signature) -> Formula:
    p = _Parser(text, sig)
    f, _ = p.formula()
    tok, pos = p.peek()
    if tok is not None:
        raise ParseError(f"trailing input {tok!r}", pos)
    return f


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


def _outcome(parser, text, sig):
    """The formula parsed, or the error's class, message and position."""
    try:
        return parser(text, sig)
    except FdekitError as e:
        return type(e), str(e), getattr(e, "position", None)


_PIECES = ["~", "&", "|", "->", "(", ")", "p", "q", "bot", "top", "delta",
           "cons", "B", "and", "?", ","]


def _random_text(rng):
    """Random pieces, mostly separated by spaces; adjacent identifiers
    without one merge into a single token."""
    return "".join(rng.choice(_PIECES) + rng.choice(["", " ", " ", "  "])
                   for _ in range(rng.randrange(12)))


_TOKEN_PIECES = re.compile(r"->|[~&|()]|\w+")


def _mutated(rng, sig):
    """A random formula's text with one piece inserted, deleted or
    replaced, so that most texts parse far before any error."""
    pieces = _TOKEN_PIECES.findall(print_formula(_random_formula(rng, sig)))
    at = rng.randrange(len(pieces) + 1)
    edit = rng.randrange(4)
    if edit == 1:
        pieces.insert(at, rng.choice(_PIECES))
    elif edit == 2 and at < len(pieces):
        del pieces[at]
    elif edit == 3 and at < len(pieces):
        pieces[at] = rng.choice(_PIECES)
    return " ".join(pieces)


def _random_formula(rng, sig, size=None):
    """A random formula with `size` connectives over the signature's
    unary connectives, `&`, `|` and `->`."""
    unary = [c for c, k in sorted(sig.connectives.items()) if k == 1]
    binary = ["and", "or", "impl"]
    size = rng.randrange(12) if size is None else size
    if size == 0:
        return rng.choice([p, q, BOT, TOP])
    if rng.random() < 0.3:
        return App(rng.choice(unary), (_random_formula(rng, sig, size - 1),))
    left = rng.randrange(size)
    return App(rng.choice(binary), (_random_formula(rng, sig, left),
                                    _random_formula(rng, sig, size - 1 - left)))


def _nested(n):
    """Texts whose nesting, or height, is n, one per construct."""
    half = "~(" * (n // 2) + "~" * (n % 2)
    return {
        "negations": "~" * n + "p",
        "negations-of-top": "~" * (n - 1) + "top",
        "parentheses": "(" * n + "p" + ")" * n,
        "arrows": "p -> " * n + "p",
        "mixed": half + "p" + ")" * (n // 2),
        "and-chain": "p" + " & p" * n,
        "or-chain": "p" + " | q" * n,
        "or-chain-then-arrow": "p" + " | q" * n + " -> p",
        "negation-in-parentheses": "(" * n + "~p" + ")" * n,
        "chain-under-negations": "~" * 50 + "(p" + " & p" * (n - 50) + ")",
        "prefix-keywords": "delta " * n + "p",
        "mixed-keywords": "cons ~" * (n // 2) + "det " * (n % 2) + "p",
    }


def _nested_formulas(n, q_atom):
    """What each `_nested(n)` text denotes in a signature with all its
    connectives, built in code; q_atom is what q denotes there."""
    def unary(f, conn, k):
        for _ in range(k):
            f = App(conn, (f,))
        return f

    def left(f, conn, b, k):  # k links of a left-associative chain
        for _ in range(k):
            f = App(conn, (f, b))
        return f

    arrows = p
    for _ in range(n):
        arrows = impl(p, arrows)
    keywords = unary(p, "det", n % 2)
    for _ in range(n // 2):
        keywords = App("cons", (neg(keywords),))
    return {
        "negations": unary(p, "not", n),
        "negations-of-top": unary(TOP, "not", n - 1),
        "parentheses": p,
        "arrows": arrows,
        "mixed": unary(p, "not", n // 2 + n % 2),
        "and-chain": left(p, "and", p, n),
        "or-chain": left(p, "or", q_atom, n),
        "or-chain-then-arrow": impl(left(p, "or", q_atom, n), p),
        "negation-in-parentheses": neg(p),
        "chain-under-negations": unary(left(p, "and", p, n - 50), "not", 50),
        "prefix-keywords": unary(p, "delta", n),
        "mixed-keywords": keywords,
    }


# Names that overlap the token grammar: "&" is also a prefix operator,
# ")" and q atoms, top a prefix operator, and delta binary; not, and and
# impl are missing.
ODD_SIG = Signature({"or": 2, "top": 1, "q": 0, "delta": 2, "&": 1,
                     ")": 0})


class TestAgainstReferenceParser:
    @pytest.mark.parametrize("sig", [SIG, RICH_SIG, ODD_SIG],
                             ids=["bd-impl-bot", "rich", "odd"])
    def test_random_texts(self, sig):
        rng = random.Random(17)
        texts = [_random_text(rng) for _ in range(3000)]
        texts += [_mutated(rng, RICH_SIG) for _ in range(3000)]
        kinds = set()
        for text in texts:
            expected = _outcome(_reference_parse, text, sig)
            assert _outcome(parse, text, sig) == expected, text
            kinds.add(expected[0] if type(expected) is tuple else "formula")
        # a formula and each kind of error occur; every keyword in the
        # texts is in RICH_SIG
        assert kinds == {"formula", ParseError, ArityMismatchError} | (
            set() if sig is RICH_SIG else {UnknownConnectiveError})

    @pytest.mark.parametrize("n", [_REFERENCE_NESTING - 1,
                                   _REFERENCE_NESTING, _REFERENCE_NESTING + 1])
    @pytest.mark.parametrize("sig", [SIG, RICH_SIG, ODD_SIG],
                             ids=["bd-impl-bot", "rich", "odd"])
    def test_nesting_limit(self, sig, n):
        # n levels and 50n: where the reference refuses a text as too
        # deep, the text denotes the formula built in code, or, in a
        # signature without one of its connectives, names a missing one
        q_atom = parse("q", sig)
        for depth in (n, 50 * n):
            built = _nested_formulas(depth, q_atom)
            for name, text in _nested(depth).items():
                expected = _outcome(_reference_parse, text, sig)
                got = _outcome(parse, text, sig)
                if type(expected) is tuple and expected[1].startswith(
                        _REFERENCE_TOO_DEEP):
                    conns = compile_formulas([built[name]]).connectives
                    if all(sig.connectives.get(c) == k for c, k in conns):
                        expected = built[name]
                    else:
                        expected = UnknownConnectiveError
                        got = got[0] if type(got) is tuple else got
                assert got == expected, (depth, name)


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

    def test_other_arities_list_every_argument(self):
        p1, p2 = Var("p1"), Var("p2")
        assert print_formula(App("impl2", (p1, p2))) == "impl2(p1, p2)"
        m4 = App("m4", (conj(p, q), neg(p), p, q))
        assert print_formula(m4) == "m4(p & q, ~p, p, q)"
        assert print_formula(neg(disj(m4, p))) == "~(m4(p & q, ~p, p, q) | p)"


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
        "~" * 5000 + "p",
        "(" * 5000 + "p" + ")" * 5000,
        "p -> " * 5000 + "p",
        "~(" * 2500 + "p" + ")" * 2500,
        "p" + " & p" * 5000,
        "p" + " | q" * 5000,
    ], ids=["negations", "parentheses", "arrows", "mixed", "and-chain",
            "or-chain"])
    def test_round_trip_at_nesting_limit(self, text):
        # 5,000 levels or links, far past the recursion limit
        f = parse(text, RICH_SIG)
        assert parse(print_formula(f), RICH_SIG) is f


def _chain(f, conn, depth):
    """f under `depth` applications of a unary connective, or of a binary
    one to two references to the same object."""
    for _ in range(depth):
        f = App(conn, (f,) * (1 if conn == "not" else 2))
    return f


def _spine(f):
    """The connectives down f's first arguments, and the formula they end
    at, checking that every binary node's arguments are one object."""
    conns = []
    while type(f) is App and f.args:
        assert all(a is f.args[0] for a in f.args)
        conns.append(f.conn)
        f = f.args[0]
    return conns, f


class TestSubstitution:
    def test_spec_example(self):
        assert substitute(disj(p, q), {"p": BOT}) == disj(BOT, q)

    def test_identity_outside_domain(self):
        assert substitute(r, {"p": BOT}) == r

    def test_image_that_is_no_formula(self):
        # a number, a name and a tuple are refused, not built into an App
        for image in (5, "q", (q,)):
            with pytest.raises(InvalidInputError,
                               match="image of 'p' is no formula"):
                substitute(neg(p), {"p": image})
        # an image the formula never uses is not looked at
        assert substitute(neg(p), {"p": q, "r": 5}) is neg(q)

    def test_deep_formulas_without_recursion(self):
        # built in code: a 1,000-deep
        # chain, and 40 doublings g = g & g, whose shared DAG is rebuilt
        # once per object, so the image shares its arguments too
        for conn, depth in [("not", 1000), ("and", 40)]:
            image = substitute(_chain(p, conn, depth), {"p": neg(q)})
            assert _spine(image) == ([conn] * depth + ["not"], q)


class TestSubformulas:
    def test_post_order_each_object_once(self):
        x = neg(p)
        assert list(subformulas([conj(p, p)])) == [p, conj(p, p)]
        assert list(subformulas([conj(x, x)])) == [p, x, conj(x, x)]
        # a shared DAG: ~q and p are met twice, and yielded once
        f = conj(disj(p, neg(q)), disj(neg(q), conj(p, p)))
        assert list(subformulas([f])) == [
            p, q, neg(q), disj(p, neg(q)), conj(p, p),
            disj(neg(q), conj(p, p)), f]
        # formulas in the order given; what an earlier one yielded is
        # not yielded again
        assert list(subformulas([neg(q), conj(p, neg(q)), p])) == [
            q, neg(q), p, conj(p, neg(q))]
        assert list(subformulas([])) == []

    def test_deep_formulas_without_recursion(self):
        # built in code: a chain far past the recursion limit, and 25
        # doublings, whose 2^25 leaves are one object
        for conn, depth in [("not", 200_000), ("and", 25)]:
            f = _chain(p, conn, depth)
            found = list(subformulas([f]))
            assert len(found) == depth + 1 and found[0] is p
            assert found[-1] is f
            assert all(g.args[0] is h for h, g in zip(found, found[1:]))


def _formula_key(f):
    """The recursive `formula_key` that the loop replaced, kept as its
    reference."""
    if isinstance(f, Var):
        return (0, f.name)
    return sum(map(_formula_key, f.args), (1, f.conn, len(f.args)))


class TestStructure:
    def test_variables(self):
        assert variables(impl(conj(p, neg(q)), BOT)) == {"p", "q"}
        assert variables(BOT) == set()

    def test_deep_formula_hashes(self):
        # built in code: hashing reads
        # each node's cached hash and does not recurse
        f = p
        for _ in range(1000):
            f = neg(f)
        assert f in {f, p}
        assert Sequent.of([f], [p]).left == frozenset([f])
        assert hash(neg(neg(p))) == hash(parse("~~p", SIG))

    def test_deep_formulas_without_recursion(self):
        # built in code
        chain = p
        for _ in range(1000):
            chain = neg(chain)
        assert variables(chain) == {"p"}
        assert print_formula(chain) == "~" * 1000 + "p"
        arrows = q
        for _ in range(1000):
            arrows = impl(p, arrows)
        assert print_formula(arrows) == "p -> " * 1000 + "q"

    def test_deep_formulas_compare_without_recursion(self):
        # separately built, and still one object: `==` is identity
        chain = _chain(p, "not", 1000)
        assert chain == _chain(p, "not", 1000)
        assert chain != _chain(q, "not", 1000)
        assert chain != _chain(p, "not", 999) and chain != p and p != chain
        arrows = _chain(q, "impl", 1000)
        assert arrows == _chain(q, "impl", 1000)
        assert arrows != _chain(q, "or", 1000)

    def test_formula_key_matches_the_recursive_one(self):
        rng = random.Random(3)
        for f in [_random_formula(rng, RICH_SIG) for _ in range(2000)]:
            assert formula_key(f) == _formula_key(f), f
        deep = _chain(p, "not", 1000)
        assert formula_key(deep) == (1, "not", 1) * 1000 + (0, "p")

    def test_signature_is_read_only(self):
        arities = {"not": 1, "and": 2}
        sig = Signature(arities)
        arities["not"], arities["or"] = 2, 2
        assert dict(sig.connectives) == {"not": 1, "and": 2}
        with pytest.raises(TypeError):
            sig.connectives["not"] = 2
        with pytest.raises(TypeError):
            presets.preset("bd").signature.connectives["not"] = 2
        assert presets.preset("bd").signature.arity("not") == 1

    @pytest.mark.parametrize("arities, error", [
        ({}, "at least one connective"), ({"not": -1}, "negative arity"),
        ({"x": "1"}, "not an integer"), ({"x": 1.5}, "not an integer")],
        ids=["empty", "negative", "string", "float"])
    def test_malformed_signature_is_fdekit_error(self, arities, error):
        with pytest.raises(FdekitError, match=error):
            Signature(arities)

    def test_keywords_are_the_named_connectives(self):
        # a copy: syntax cannot import bd, which imports syntax
        assert KEYWORDS == set(bd._NAMED) | {"top"}

    def test_formula_key_total_order(self):
        items = [p, q, BOT, TOP, conj(p, q), conj(q, p)]
        keys = [formula_key(f) for f in items]
        assert len(set(keys)) == len(items)
        assert sorted(keys) == sorted(keys, key=lambda k: k)


class TestInterning:
    """Formulas are hash-consed: equal formulas are one object."""

    def test_equal_formulas_are_one_object(self):
        text = "~(p & (q | r)) -> bot | top"
        f = parse(text, SIG)
        assert parse(text, SIG) is f
        assert parse(print_formula(f), SIG) is f
        assert substitute(disj(p, q), {"p": neg(r)}) is disj(neg(r), q)
        assert substitute(f, {}) is f
        assert impl(neg(conj(p, disj(q, r))), disj(BOT, TOP)) is f
        for g in (f, p, BOT):
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(g, protocol)) is g
            assert copy.deepcopy(g) is g and copy.copy(g) is g
        assert copy.deepcopy([f, {"k": f}]) == [f, {"k": f}]

    def test_deep_chain_built_twice_is_one_object(self):
        # past the recursion limit, built and dropped without recursion
        a = _chain(Var("deep_chain"), "not", 200_000)
        b = _chain(Var("deep_chain"), "not", 200_000)
        assert a is b and a == b and hash(a) == hash(b)
        assert a is not _chain(Var("deep_chain"), "not", 199_999)

    def test_deep_formulas_copy_and_pickle(self):
        # past the recursion limit, pickled and unpickled without recursion
        deep = _chain(Var("p"), "not", 5000)
        dag = _chain(Var("p"), "and", 25)  # 2^25 leaves, 26 distinct nodes
        for f in (deep, dag):
            assert copy.deepcopy(f) is f and copy.copy(f) is f
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(f, protocol)) is f
        assert all(len(pickle.dumps(dag, protocol)) < 1000
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1))
        assert pickle.loads(pickle.dumps([dag, deep, dag])) == [dag, deep, dag]

    def test_pickled_node_lists(self):
        # the subformulas in post-order, each variable as its name and each
        # App as its connective and argument positions
        f = parse("~(p & (q | r)) -> bot | top", SIG)
        assert f.__reduce__()[1][0] == [
            "p", "q", "r", ("or", (1, 2)), ("and", (0, 3)), ("not", (4,)),
            ("bot", ()), ("not", (6,)), ("or", (6, 7)), ("impl", (5, 8))]
        x = neg(p)
        assert conj(x, x).__reduce__()[1][0] == [
            "p", ("not", (0,)), ("and", (1, 1))]
        assert BOT.__reduce__()[1][0] == [("bot", ())]
        assert p.__reduce__()[1][0] == ["p"]
        assert _chain(p, "not", 200_000).__reduce__()[1][0] == \
            ["p"] + [("not", (i,)) for i in range(200_000)]
        assert _chain(p, "and", 25).__reduce__()[1][0] == \
            ["p"] + [("and", (i, i)) for i in range(25)]

    def test_attributes_cannot_be_set(self):
        f = conj(p, q)
        for target, name in ((f, "conn"), (f, "args"), (p, "name"),
                             (f, "other")):
            with pytest.raises(AttributeError):
                setattr(target, name, None)
            with pytest.raises(AttributeError):
                delattr(target, name)
        assert f.conn == "and" and f.args == (p, q) and p.name == "p"

    def test_dropped_formulas_leave_the_table(self):
        def mentioning():  # the keys of Var("dropped") and of Apps over it
            return [k for k in tuple(syntax._INTERNED) if "dropped" in repr(k)]

        f = neg(conj(Var("dropped"), q))
        assert len(mentioning()) == 3
        gone = weakref.ref(f)
        del f
        gc.collect()
        assert gone() is None and mentioning() == []
        assert Var("dropped").name == "dropped"  # made anew

    def test_threads_build_the_same_objects(self):
        # more threads than cores race, switching often, to make the same
        # new formulas, each a miss: a lost check-then-insert gives two
        # objects for one formula
        names = [f"race{i}" for i in range(2000)]
        workers = 2 * (os.cpu_count() or 1) + 2
        barrier = threading.Barrier(workers)
        built = [None] * workers

        def build(slot):
            barrier.wait(timeout=10)
            built[slot] = [neg(conj(Var(n), impl(Var(n), BOT)))
                           for n in names]

        threads = [threading.Thread(target=build, args=(i,))
                   for i in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(len(b) == len(names) for b in built)
        assert all(all(map(operator.is_, b, built[0])) for b in built)

    def test_forced_race_builds_one_object(self):
        # both threads miss the lookup of one fresh key before either
        # inserts: the table's inserts wait for each other, so a
        # check-then-insert would enter two objects for one variable
        key = "forced_race"
        barrier = threading.Barrier(2)

        class Racing(dict):
            def setdefault(self, k, default=None):
                if k == key:
                    barrier.wait(timeout=10)
                return super().setdefault(k, default)

            def __setitem__(self, k, value):
                if k == key:
                    barrier.wait(timeout=10)
                super().__setitem__(k, value)

        built, errors = [None, None], []

        def build(slot):
            try:
                built[slot] = Var(key)
            except Exception as e:
                errors.append(e)

        assert key not in syntax._INTERNED
        table = syntax._INTERNED
        syntax._INTERNED = Racing(table)
        try:
            threads = [threading.Thread(target=build, args=(i,))
                       for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            syntax._INTERNED = table
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert built[0] is built[1]
        assert built[0].name == key

    def test_dead_entry_whose_callback_has_not_run(self):
        # an entry whose formula died but whose `_gone` has not run yet,
        # planted as a reference without a callback to a dropped object:
        # a new formula replaces it, and the late callback leaves that be
        arg = Var("stale_arg")
        for key, make in (("stale", lambda: Var("stale")),
                          (("not", (arg,)), lambda: neg(arg))):
            assert key not in syntax._INTERNED
            placeholder = object.__new__(Var)
            dead = syntax._Ref(placeholder)
            dead.key = key
            del placeholder
            assert dead() is None
            syntax._INTERNED[key] = dead
            f = make()
            assert type(f) is type(make()) and make() is f
            assert syntax._INTERNED[key] is not dead
            assert syntax._INTERNED[key]() is f
            syntax._gone(dead)
            assert syntax._INTERNED[key]() is f
        assert print_formula(f) == "~stale_arg"

    def test_race_loser_dies_without_removing_the_winner(self):
        # the loser of a race to enter a formula gets the winner back; its
        # own object and reference then die, and the winner's entry stays
        winner = conj(Var("contested"), q)
        loser = object.__new__(App)
        syntax._set_conn(loser, "and")
        syntax._set_args(loser, (Var("contested"), q))
        key = ("and", (Var("contested"), q))
        assert syntax._intern(key, loser) is winner
        gone = weakref.ref(loser)
        del loser
        gc.collect()
        assert gone() is None
        assert syntax._INTERNED[key]() is winner
        assert conj(Var("contested"), q) is winner

    @pytest.mark.parametrize("make, message", [
        (lambda: Var(5), "name must be a str, not 5"),
        (lambda: Var(None), "name must be a str"),
        (lambda: Var(["p"]), "name must be a str"),
        # a tuple that is an App's key finds no App
        (lambda: Var(("not", (p,))), "name must be a str"),
        (lambda: App(5, ()), "connective must be a str, not 5"),
        (lambda: App(["and"], (p, q)), "connective must be a str"),
        (lambda: App("and", [p, q]), "arguments of 'and' must be a tuple"),
        (lambda: App("not", p), "arguments of 'not' must be a tuple"),
        (lambda: App("and", (p, 5)), "an argument of 'and' is no formula"),
        (lambda: App("and", (p, [q])), "an argument of 'and' is no formula"),
        (lambda: App("not", ("p",)), "an argument of 'not' is no formula"),
    ])
    def test_malformed_formulas_are_refused(self, make, message):
        neg(p)  # live, so a lookup under its key would find it
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            make()
