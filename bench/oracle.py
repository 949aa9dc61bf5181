"""Truth tables written from the definitions, independent of fdekit.

The benchmark checks fdekit's verdicts against these tables:

- the truth values are ordered f < b < t and f < n < t, with b and n
  incomparable; `&` is the meet and `|` the join of that order;
- `~` swaps t and f and fixes b and n;
- `A -> B` is t when A is undesignated, and B otherwise;
- `bot` is f, and the designated values are {t, b}.

The three- and two-valued matrices are the same tables on the carriers
{t, f, b} (lp), {t, f, n} (k3) and {t, f} (cl).

Formulas are nested tuples: ("var", name), ("bot",), ("not", x) and
(conn, x, y) for conn in and, or, impl.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Optional, Sequence

FOUR = ("t", "f", "b", "n")
DESIGNATED = frozenset(("t", "b"))
CARRIERS = {
    "bd-impl-bot": FOUR,
    "lp": ("t", "f", "b"),
    "k3": ("t", "f", "n"),
    "cl": ("t", "f"),
}

_BELOW = {(x, x) for x in FOUR} | {("f", x) for x in FOUR} \
    | {(x, "t") for x in FOUR}


def leq(a: str, b: str) -> bool:
    return (a, b) in _BELOW


def _bound(a: str, b: str, lower: bool) -> str:
    """Greatest lower bound (lower) or least upper bound of a and b."""
    if lower:
        cands = [c for c in FOUR if leq(c, a) and leq(c, b)]
        return next(c for c in cands if all(leq(d, c) for d in cands))
    cands = [c for c in FOUR if leq(a, c) and leq(b, c)]
    return next(c for c in cands if all(leq(c, d) for d in cands))


class Tables:
    """A finite matrix: carrier in enumeration order, designated values and
    one table per connective, keyed by argument tuples."""

    def __init__(self, values: Sequence[str], designated: Iterable[str],
                 ops: Mapping[str, Mapping[tuple, str]]):
        self.values = tuple(values)
        self.designated = frozenset(designated)
        self.ops = ops

    def value(self, f: tuple, env: Mapping[str, str]) -> str:
        if f[0] == "var":
            return env[f[1]]
        return self.ops[f[0]][tuple(self.value(a, env) for a in f[1:])]

    def holds_at(self, gamma, delta, env) -> bool:
        """False when env designates all of gamma and none of delta."""
        d = self.designated
        return not (all(self.value(g, env) in d for g in gamma)
                    and not any(self.value(x, env) in d for x in delta))


def _four_ops() -> dict:
    pairs = list(itertools.product(FOUR, repeat=2))
    return {
        "bot": {(): "f"},
        "not": {(a,): {"t": "f", "f": "t"}.get(a, a) for a in FOUR},
        "and": {(a, b): _bound(a, b, True) for a, b in pairs},
        "or": {(a, b): _bound(a, b, False) for a, b in pairs},
        "impl": {(a, b): ("t" if a not in DESIGNATED else b)
                 for a, b in pairs},
    }


_FOUR_OPS = _four_ops()


def tables(name: str) -> Tables:
    """The tables of a preset, restricted to its carrier."""
    carrier = CARRIERS[name]
    ops = {conn: {args: out for args, out in table.items()
                  if all(a in carrier for a in args)}
           for conn, table in _FOUR_OPS.items()}
    return Tables(carrier, DESIGNATED & set(carrier), ops)


def tables_from_json(data: dict) -> Tables:
    """Tables of a matrix in fdekit's JSON form (nested lists per arity)."""
    values = tuple(data["values"])
    ops = {}
    for conn, entry in data["connectives"].items():
        table = {}
        for args in itertools.product(values, repeat=entry["arity"]):
            node = entry["table"]
            for a in args:
                node = node[values.index(a)]
            table[args] = node
        ops[conn] = table
    return Tables(values, data["designated"], ops)


def variables(f: tuple) -> set:
    if f[0] == "var":
        return {f[1]}
    out: set = set()
    for a in f[1:]:
        out |= variables(a)
    return out


def _names(formulas: Iterable[tuple]) -> set:
    out: set = set()
    for f in formulas:
        out |= variables(f)
    return out


def _vector(m: Tables, f: tuple, names: list) -> list:
    """Values of f at every assignment over names, in enumeration order."""
    k, n = len(m.values), len(names)
    if f[0] == "var":
        stride = k ** (n - 1 - names.index(f[1]))
        return [m.values[(p // stride) % k] for p in range(k ** n)]
    table = m.ops[f[0]]
    args = [_vector(m, a, names) for a in f[1:]]
    if not args:
        return [table[()]] * k ** n
    return [table[xs] for xs in zip(*args)]


def _first(m: Tables, names: list, bad) -> Optional[dict]:
    for p, flag in enumerate(bad):
        if flag:
            k = len(m.values)
            digits = [(p // k ** (len(names) - 1 - i)) % k
                      for i in range(len(names))]
            return {x: m.values[d] for x, d in zip(names, digits)}
    return None


def first_countermodel(m: Tables, gamma: Sequence[tuple],
                       delta: Sequence[tuple]) -> Optional[dict]:
    """First assignment designating all of gamma and none of delta."""
    names = sorted(_names(list(gamma) + list(delta)))
    d = m.designated
    good = [all(v in d for v in vs) for vs in
            zip(*(_vector(m, g, names) for g in gamma))] if gamma else None
    bad_right = [any(v in d for v in vs) for vs in
                 zip(*(_vector(m, x, names) for x in delta))] if delta \
        else None
    total = len(m.values) ** len(names)
    bad = [(good is None or good[p]) and not (bad_right and bad_right[p])
           for p in range(total)]
    return _first(m, names, bad)


def first_difference(m: Tables, a: tuple, b: tuple) -> Optional[dict]:
    """First assignment on which a and b take different values."""
    names = sorted(_names((a, b)))
    return _first(m, names, [x != y for x, y in zip(
        _vector(m, a, names), _vector(m, b, names))])


def from_fdekit(f) -> tuple:
    """Structural copy of an fdekit formula (Var or App) as a tuple."""
    if not hasattr(f, "conn"):
        return ("var", f.name)
    return (f.conn,) + tuple(from_fdekit(a) for a in f.args)


def to_text(f: tuple) -> str:
    """Fully parenthesised concrete syntax."""
    if f[0] == "var":
        return f[1]
    if f[0] == "bot":
        return "bot"
    if f[0] == "not":
        return "~" + to_text(f[1])
    sym = {"and": "&", "or": "|", "impl": "->"}[f[0]]
    return f"({to_text(f[1])} {sym} {to_text(f[2])})"
