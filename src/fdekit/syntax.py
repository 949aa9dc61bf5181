"""Signatures, formulas, substitution, and the concrete ASCII syntax.

Grammar (`->` is right-associative and binds weakest):

    formula := impl
    impl    := or ("->" impl)?
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := ("~" | PREFIXKW) unary | atom
    atom    := IDENT | "bot" | "top" | "B" | "N" | "(" formula ")"

The parser reads this grammar by operator precedence, without recursion,
from one token list made in one regular-expression pass, so a text may
nest to any depth; token positions are computed only for an error
message.  Precedence and associativity are stated once, in `_INFIX`,
which both `parse` and `print_formula` read.

`top` is an abbreviation for `~bot` and is expanded while parsing; the AST
has no node for it.  Any identifier naming a unary connective of the
signature works as a prefix keyword; any identifier naming a nullary
connective works as an atom.  Identifiers that collide with no connective
keyword are propositional variables.

Formulas are hash-consed: `Var` and `App` return the one live object for
a name, or for a connective and argument objects, so formulas are equal
exactly when they are the same object.  Equality and hashing are identity,
so neither recurses nor depends on the hash seed.

A formula is thus a DAG, and `subformulas` is the one walk over its
distinct subformula objects: each once, in post-order, without recursion.
`substitute`, `variables`, pickling and the prover's countermodels read
it; `formula_key` and `print_formula` walk the tree, repeats included, on
purpose.
"""

from __future__ import annotations

import re
import threading
import weakref
from _weakref import _remove_dead_weakref
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Union

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
            if type(arity) is not int:
                raise InvalidInputError(f"arity of {name!r} is not an integer")
            if arity < 0:
                raise InvalidInputError(f"negative arity for {name!r}")

    def __hash__(self) -> int:
        return hash(frozenset(self.connectives.items()))

    def __contains__(self, name: str) -> bool:
        return name in self.connectives

    def arity(self, name: str) -> int:
        return self.connectives[name]

    def extends(self, other: "Signature") -> bool:
        return all(
            name in self.connectives and self.connectives[name] == arity
            for name, arity in other.connectives.items()
        )


# The one live formula per name (a Var) or per (connective, argument
# objects) (an App): equal formulas are one object, so `==` and `hash` are
# those of `object`, identity.  The table holds each by a weak reference
# that removes its own entry, so formulas that nothing holds go; the lock,
# taken only on a miss, keeps two threads from making two.
_INTERNED: dict = {}
_INTERN_LOCK = threading.Lock()
_setattr = object.__setattr__  # past the `__setattr__` that refuses


class _Ref(weakref.ref):
    __slots__ = ("key",)


def _gone(ref: _Ref) -> None:
    # removes the entry only if it still holds this dead reference
    _remove_dead_weakref(_INTERNED, ref.key)


def _intern(cls, key, *fields):
    """The formula under key, made from fields if none is live; called
    on a miss of the lookup in `Var` or `App`."""
    with _INTERN_LOCK:
        ref = _INTERNED.get(key)
        f = ref and ref()
        if f is None:
            f = object.__new__(cls)
            for name, value in zip(cls.__slots__, fields):
                _setattr(f, name, value)
            ref = _INTERNED[key] = _Ref(f, _gone)
            ref.key = key
    return f


class _Interned:
    """Immutable: setting or deleting an attribute raises."""

    __slots__ = ("__weakref__",)

    def __setattr__(self, name, value):
        raise AttributeError(f"formulas are immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"formulas are immutable: cannot delete {name!r}")

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        """Pickled as its `subformulas`, each variable as its name and each
        App as its connective and argument positions, so a shared DAG stays
        small; unpickling interns them again, and neither way recurses."""
        position: dict = {}
        nodes: list = []
        for g in subformulas((self,)):
            position[g] = len(nodes)
            nodes.append(g.name if type(g) is Var else
                         (g.conn, tuple([position[a] for a in g.args])))
        return _unpickle, (nodes,)


def _unpickle(nodes: list) -> Formula:
    """The last of the formulas that `_Interned.__reduce__` listed."""
    built: list = []
    for node in nodes:
        built.append(Var(node) if type(node) is str else
                     App(node[0], tuple([built[i] for i in node[1]])))
    return built[-1]


class Var(_Interned):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        ref = _INTERNED.get(name)
        return ref and ref() or _intern(cls, name, name)

    def __repr__(self):
        return f"Var({self.name!r})"


class App(_Interned):
    __slots__ = ("conn", "args")

    def __new__(cls, conn: str, args: tuple = ()):
        key = (conn, args)
        ref = _INTERNED.get(key)
        return ref and ref() or _intern(cls, key, conn, args)

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


def subformulas(formulas: Iterable[Formula]) -> Iterator[Formula]:
    """Each distinct subformula object of the formulas once, in post-order
    (an App after its arguments, arguments left to right, the formulas in
    the order given), without recursion."""
    seen: set = set()
    for f in formulas:
        stack: list = [f]
        while stack:
            g = stack.pop()
            if g is None:  # the App below has all its arguments yielded
                g = stack.pop()
            elif g in seen:
                continue
            elif type(g) is App:
                stack += (g, None, *reversed(g.args))
                continue
            seen.add(g)
            yield g


def substitute(f: Formula, s: Substitution) -> Formula:
    """Apply the homomorphic extension of s to f, rebuilding each object
    of a shared DAG once; an image that is no formula is refused."""
    image: dict = {}
    for g in subformulas((f,)):
        image[g] = (s.get(g.name, g) if type(g) is Var else
                    App(g.conn, tuple([image[a] for a in g.args])))
        if type(image[g]) not in (Var, App):
            raise InvalidInputError(f"the image of {g.name!r} is no formula")
    return image[f]


def variables(f: Formula) -> set:
    """The names of f's variables."""
    return {g.name for g in subformulas((f,)) if type(g) is Var}


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
    # (level, connective, left operand); a prefix operator or "(" has no
    # left operand
    stack: list = []
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
            level = 0 if tok == "(" and arity != 1 else _PREFIX
            stack.append((level, tok, None))
            i += 1
            continue
        if arity is None and tok not in _NOT_VARIABLE:
            f = Var(tok)
        elif tok is None:
            raise ParseError("unexpected end of input", len(text))
        elif tok == "top":
            for name in ("not", "bot"):
                if name not in conns:
                    raise _unknown(name, text, i)
            f = TOP
        elif arity == 0:
            f = App(tok, ())
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
                level, conn, left = stack.pop()
                f = App(conn, (f,) if level == _PREFIX else (left, f))
            if binary is not None:
                conn, level, _ = binary
                if conn not in conns:
                    raise _unknown(conn, text, i)
                stack.append((level, conn, f))
                i += 1
                break
            if stack and tok == ")":
                stack.pop()
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
    recursion.  Variables, constants and prefix operators have `_PREFIX`.
    A connective of arity 2 or more outside `_INFIX` prints as
    conn(a, b, ...), which `parse` does not read yet."""
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
        if infix is None:
            if len(args) == 1:  # unary prefix
                parts.append("~" if conn == "not" else conn + " ")
                stack.append(a.name if type(a) is Var else (a, _PREFIX))
                continue
            # any other arity: conn(a, b, ...), each argument at level 0
            parts.append(conn + "(")
            stack.append(")")
            stack += [item for b in reversed(args) for item in (
                ", ", b.name if type(b) is Var else (b, 0))][1:]
            continue
        symbol, level, left, right = infix
        if level < least:
            parts.append("(")
            stack.append(")")
        b = args[1]
        stack += (b.name if type(b) is Var else (b, right), symbol,
                  a.name if type(a) is Var else (a, left))
    return "".join(parts)
