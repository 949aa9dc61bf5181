"""Signatures, formulas, substitution, and the concrete ASCII syntax.

Grammar (one-token lookahead, `->` is right-associative and binds weakest):

    formula := impl
    impl    := or ("->" impl)?
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := ("~" | PREFIXKW) unary | atom
    atom    := IDENT | "bot" | "top" | "B" | "N" | "(" formula ")"

`top` is an abbreviation for `~bot` and is expanded while parsing; the AST
has no node for it.  Any identifier naming a unary connective of the
signature works as a prefix keyword; any identifier naming a nullary
connective works as an atom.  Identifiers that collide with no connective
keyword are propositional variables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Union

from .errors import (
    ArityMismatchError,
    ParseError,
    UnknownConnectiveError,
)

# Canonical connective names; `top` is an abbreviation, not a connective.
KEYWORDS = frozenset(
    ["not", "and", "or", "impl", "bot", "delta", "circ", "cons", "det",
     "confl", "B", "N", "top"]
)


@dataclass(frozen=True)
class Signature:
    """A finite map from connective names to arities."""

    connectives: Mapping[str, int]

    def __post_init__(self):
        if not self.connectives:
            raise ValueError("a signature needs at least one connective")
        for name, arity in self.connectives.items():
            if arity < 0:
                raise ValueError(f"negative arity for {name!r}")

    def __contains__(self, name: str) -> bool:
        return name in self.connectives

    def arity(self, name: str) -> int:
        return self.connectives[name]

    def extends(self, other: "Signature") -> bool:
        return all(
            name in self.connectives and self.connectives[name] == arity
            for name, arity in other.connectives.items()
        )


@dataclass(frozen=True)
class Var:
    name: str

    def __repr__(self):
        return f"Var({self.name!r})"


@dataclass(frozen=True, init=False)
class App:
    conn: str
    args: tuple["Formula", ...] = field(default=())

    def __init__(self, conn: str, args: tuple = ()):
        # hashed once from the arguments' hashes: hashing never recurses
        object.__setattr__(self, "conn", conn)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "_hash", hash((conn, args)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):  # rehash: string hashes differ between processes
        return App, (self.conn, self.args)

    def __repr__(self):
        return f"App({self.conn!r}, {list(self.args)!r})"


Formula = Union[Var, App]

# Substitutions are plain mappings variable name -> Formula (identity
# elsewhere); no wrapper type is needed.
Substitution = Mapping[str, Formula]


def neg(a: Formula) -> App:
    return App("not", (a,))


def conj(a: Formula, b: Formula) -> App:
    return App("and", (a, b))


def disj(a: Formula, b: Formula) -> App:
    return App("or", (a, b))


def impl(a: Formula, b: Formula) -> App:
    return App("impl", (a, b))


BOT = App("bot", ())
TOP = App("not", (App("bot", ()),))


def substitute(f: Formula, s: Substitution) -> Formula:
    """Apply the homomorphic extension of s to f."""
    if isinstance(f, Var):
        return s.get(f.name, f)
    return App(f.conn, tuple(substitute(a, s) for a in f.args))


def variables(f: Formula) -> set:
    if isinstance(f, Var):
        return {f.name}
    out: set = set()
    for a in f.args:
        out |= variables(a)
    return out


def formula_key(f: Formula):
    """Total order on formulas, flat so that keys compare in linear time."""
    if isinstance(f, Var):
        return (0, f.name)
    return sum(map(formula_key, f.args), (1, f.conn, len(f.args)))


# ---------------------------------------------------------------------------
# Parsing

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


# Deepest nesting of prefix operators, parentheses and `->` right operands
# the parser accepts, and the greatest height of a formula it returns (each
# `&` or `|` chain link adds one), so that recursion over formulas (parser,
# printer, evaluator, `formula_key`) stays inside the recursion limit.
MAX_NESTING = 100


def _app(conn: str, operands, pos: int) -> tuple[Formula, int]:
    """conn applied to (formula, height) operands, with its height."""
    height = 1 + max(h for _, h in operands)
    if height > MAX_NESTING:
        raise ParseError(f"nesting deeper than {MAX_NESTING}", pos)
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
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING}", pos)
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


def parse(text: str, sig: Signature) -> Formula:
    p = _Parser(text, sig)
    f, _ = p.formula()
    tok, pos = p.peek()
    if tok is not None:
        raise ParseError(f"trailing input {tok!r}", pos)
    return f


# ---------------------------------------------------------------------------
# Printing

_SYMBOL = {"not": "~", "and": "&", "or": "|", "impl": "->"}

# Binding strength; parent levels force parentheses on weaker children.
_LEVEL = {"impl": 1, "or": 2, "and": 3}


def _level(f: Formula) -> int:
    if isinstance(f, App) and f.conn in _LEVEL:
        return _LEVEL[f.conn]
    return 4  # variables, nullary atoms, unary applications


def print_formula(f: Formula) -> str:
    return _print(f)


def _print(f: Formula) -> str:
    if isinstance(f, Var):
        return f.name
    if not f.args:
        return f.conn
    if f.conn in ("and", "or"):
        lvl = _LEVEL[f.conn]
        left = _wrap(f.args[0], lvl)       # same level allowed: left-assoc
        right = _wrap(f.args[1], lvl + 1)
        return f"{left} {_SYMBOL[f.conn]} {right}"
    if f.conn == "impl":
        left = _wrap(f.args[0], _LEVEL["impl"] + 1)
        right = _wrap(f.args[1], _LEVEL["impl"])  # right-assoc
        return f"{left} -> {right}"
    # unary prefix
    arg = _wrap(f.args[0], 4)
    if f.conn == "not":
        return f"~{arg}"
    return f"{f.conn} {arg}"


def _wrap(f: Formula, min_level: int) -> str:
    s = _print(f)
    return s if _level(f) >= min_level else f"({s})"
