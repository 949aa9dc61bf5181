"""Signatures, formulas, substitution, and the concrete ASCII syntax.

Grammar (`->` is right-associative and binds weakest):

    formula := impl
    impl    := or ("->" impl)?
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := ("~" | PREFIXKW) unary | atom
    atom    := IDENT | "bot" | "top" | "B" | "N" | "(" formula ")"

The parser reads this grammar by operator precedence, without recursion,
from one token list made in one regular-expression pass; token positions
are computed only for an error message.  Precedence and associativity are
stated once, in `_INFIX`, which both `parse` and `print_formula` read.

`top` is an abbreviation for `~bot` and is expanded while parsing; the AST
has no node for it.  Any identifier naming a unary connective of the
signature works as a prefix keyword; any identifier naming a nullary
connective works as an atom.  Identifiers that collide with no connective
keyword are propositional variables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Union

from .errors import (
    ArityMismatchError,
    InvalidInputError,
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
    """A finite map from connective names to arities, kept as a read-only
    copy."""

    connectives: Mapping[str, int]

    def __post_init__(self):
        object.__setattr__(self, "connectives",
                           MappingProxyType(dict(self.connectives)))
        if not self.connectives:
            raise InvalidInputError(
                "a signature needs at least one connective")
        for name, arity in self.connectives.items():
            if arity < 0:
                raise InvalidInputError(f"negative arity for {name!r}")

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

    def __eq__(self, other):
        # pairwise over an explicit stack, each pair of objects once:
        # formulas built in code may nest past the recursion limit, and a
        # shared subterm would otherwise be compared once per path to it
        if self is other:
            return True
        if not isinstance(other, App):
            return NotImplemented
        stack, seen = [(self, other)], set()
        while stack:
            a, b = stack.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            if not (isinstance(a, App) and isinstance(b, App)):
                if a != b:  # a variable, or an App against a variable
                    return False
            elif a._hash != b._hash or a.conn != b.conn \
                    or len(a.args) != len(b.args):
                return False
            else:
                seen.add((id(a), id(b)))
                stack += zip(a.args, b.args)
        return True

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
    """Apply the homomorphic extension of s to f, rebuilding each object
    of a shared DAG once and without recursion."""
    # id of a formula -> its image: depth first, an App is met again only
    # after it is rebuilt
    image: dict[int, Formula] = {}
    stack: list = [f]
    while stack:
        g = stack.pop()
        if g is None:  # the App below has all its arguments rebuilt
            g = stack.pop()
            image[id(g)] = App(g.conn, tuple([image[id(a)] for a in g.args]))
        elif type(g) is Var:
            image[id(g)] = s.get(g.name, g)
        elif id(g) not in image:
            stack += (g, None, *g.args)
    return image[id(f)]


def variables(f: Formula) -> set:
    """The names of f's variables, visiting each subformula object once
    and without recursion."""
    out: set = set()
    seen: set = set()  # ids of the Apps visited
    stack = [f]
    while stack:
        g = stack.pop()
        if type(g) is Var:
            out.add(g.name)
        elif id(g) not in seen:
            seen.add(id(g))
            stack += g.args
    return out


def formula_key(f: Formula):
    """Total order on formulas, flat so that keys compare in linear time:
    the pre-order of (0, name) per variable and (1, connective, arity) per
    application, built without recursion."""
    if type(f) is Var:
        return (0, f.name)
    key: list = []
    stack = [f]
    while stack:
        g = stack.pop()
        if type(g) is Var:
            key += (0, g.name)
        else:
            key += (1, g.conn, len(g.args))
            stack += g.args[::-1]
    return tuple(key)


# ---------------------------------------------------------------------------
# Parsing

# A token, or (as an empty match) a character that starts no token.
_TOKEN_RE = re.compile(r"(->|[~&|()]|[A-Za-z_][A-Za-z_0-9]*)|\S")


def _position(text: str, i: int) -> int:
    """Where token i of text starts, or the text's length past its last
    token; computed only for an error message."""
    starts = [m.start() for m in _TOKEN_RE.finditer(text)]
    return starts[i] if i < len(starts) else len(text)


# Deepest nesting of prefix operators, parentheses and `->` right operands
# the parser accepts, and the greatest height of a formula it returns (each
# `&` or `|` chain link adds one), so that what still recurses over formulas
# (`matrix.evaluate`, and `==` between distinct objects) stays inside the
# recursion limit.
MAX_NESTING = 100

# binary connective -> (spaced symbol, binding level, least level of its
# left and right operand that needs no parentheses): `&` and `|` associate
# to the left, `->` to the right; `parse` reduces a pending operator whose
# level reaches the next operator's left-operand level
_INFIX = {"impl": (" -> ", 1, 2, 1), "or": (" | ", 2, 2, 3),
          "and": (" & ", 3, 3, 4)}
# binary operator token -> (connective, binding level, least level it reduces)
_BINARY = {symbol.strip(): (conn, level, left)
           for conn, (symbol, level, left, _) in _INFIX.items()}
_PREFIX = 4  # a prefix operator binds tightest; a "(" has level 0

# tokens that are not variables, whatever the signature
_NOT_VARIABLE = KEYWORDS | {"->", "&", "|", ")", None}


def _unknown(name: str, text: str, i: int) -> UnknownConnectiveError:
    return UnknownConnectiveError(
        f"connective {name!r} is not in the signature", _position(text, i))


def _too_deep(text: str, i: int) -> ParseError:
    return ParseError(f"nesting deeper than {MAX_NESTING}", _position(text, i))


def parse(text: str, sig: Signature) -> Formula:
    """The formula the text denotes in the signature's syntax.  Pending
    operators wait on one stack, innermost last, and are applied once an
    operand is complete and the next token binds less tightly."""
    tokens = _TOKEN_RE.findall(text)
    if "" in tokens:
        pos = _position(text, tokens.index(""))
        raise ParseError(f"unexpected character {text[pos]!r}", pos)
    tokens.append(None)
    conns = sig.connectives
    # (level, connective, token index, left operand, its height); a prefix
    # operator or "(" has no left operand
    stack: list = []
    depth = 0  # pending prefix operators, "(" and `->` right operands
    i = 0
    while True:
        # an operand: prefix operators, then an atom or "("
        tok = tokens[i]
        arity = conns.get(tok)
        if tok == "~" or arity == 1 or tok == "(":
            if tok == "~":
                tok = "not"
                if tok not in conns:
                    raise _unknown(tok, text, i)
            if depth == MAX_NESTING:
                raise _too_deep(text, i)
            depth += 1
            level = 0 if tok == "(" and arity != 1 else _PREFIX
            stack.append((level, tok, i, None, 0))
            i += 1
            continue
        if arity is None and tok not in _NOT_VARIABLE:
            f, height = Var(tok), 0
        elif tok is None:
            raise ParseError("unexpected end of input", len(text))
        elif tok == "top":
            for name in ("not", "bot"):
                if name not in conns:
                    raise _unknown(name, text, i)
            f, height = TOP, 1
        elif arity == 0:
            f, height = App(tok, ()), 0
        elif arity is not None:
            raise ArityMismatchError(
                f"connective {tok!r} has arity {arity}, not usable as an atom")
        elif tok in KEYWORDS:
            raise _unknown(tok, text, i)
        else:
            raise ParseError(f"unexpected token {tok!r}",
                             _position(text, i))
        i += 1
        # after an operand: apply what binds at least as tightly as the
        # next token, then push a binary operator or close a "("
        while True:
            tok = tokens[i]
            binary = _BINARY.get(tok)
            least = 1 if binary is None else binary[2]
            while stack and stack[-1][0] >= least:
                level, conn, j, left, left_height = stack.pop()
                if level == _PREFIX:
                    f, height = App(conn, (f,)), height + 1
                else:
                    f = App(conn, (left, f))
                    height = 1 + max(left_height, height)
                if level == _PREFIX or level == 1:
                    depth -= 1
                if height > MAX_NESTING:
                    raise _too_deep(text, j)
            if binary is not None:
                conn, level, _ = binary
                if conn not in conns:
                    raise _unknown(conn, text, i)
                if level == 1:
                    if depth == MAX_NESTING:
                        raise _too_deep(text, i)
                    depth += 1
                stack.append((level, conn, i, f, height))
                i += 1
                break
            if stack and tok == ")":
                stack.pop()
                depth -= 1
                i += 1
                continue
            if stack:
                raise ParseError(f"expected ')', found {tok!r}",
                                 _position(text, i))
            if tok is None:
                return f
            raise ParseError(f"trailing input {tok!r}", _position(text, i))


# ---------------------------------------------------------------------------
# Printing

def print_formula(f: Formula) -> str:
    """f with the fewest parentheses that parse back to it, built without
    recursion.  Variables, constants and prefix operators have `_PREFIX`."""
    parts: list[str] = []
    # text, or (an App, the least level it may have without parentheses)
    stack: list = [f.name if type(f) is Var else (f, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            parts.append(item)
            continue
        g, least = item
        conn, args = g.conn, g.args
        if not args:
            parts.append(conn)
            continue
        a, infix = args[0], _INFIX.get(conn)
        if infix is None:  # unary prefix
            parts.append("~" if conn == "not" else conn + " ")
            stack.append(a.name if type(a) is Var else (a, _PREFIX))
            continue
        symbol, level, left, right = infix
        if level < least:
            parts.append("(")
            stack.append(")")
        b = args[1]
        stack += (b.name if type(b) is Var else (b, right), symbol,
                  a.name if type(a) is Var else (a, left))
    return "".join(parts)
