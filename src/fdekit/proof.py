"""Sequent calculus for the implication-falsity expansion, with the
two-rule classical extension, a derivation checker, and cut-free backward
proof search.

Sequents are pairs of finite formula sets over {not, and, or, impl, bot}.
One table, `RULES`, defines the logical rules for search, checking and
`derived-rule` alike.  Every rule is invertible, so search applies one rule
that fits (one-premise rules first), drops its principal formula and never
backtracks; each step shrinks the sequent, so search ends.  An open branch,
which no rule fits and no axiom closes, gives a countermodel.  The checker
also accepts derivations that keep the principal formula, and accepts Cut.

One search over pairs of bit masks, one bit per formula, answers
`provable`, `derivation`, `countermodel` and `derived_rule_check`;
derivations and countermodels take formulas in `formula_key` order, so
their output depends neither on the hash seed nor on the order in which
formulas were built (a set of formulas iterates in identity order).

Sequent text is read by `Sequent.parse` beside the `__str__` that prints
it, and derivation JSON written by `derivation_to_json` is read back by
`derivation_from_json`, formulas over `SR_SIGNATURE`; neither touches a
file, which only the CLI reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce
from typing import Callable, Iterable, NamedTuple, Optional

from .bd import SR_SIGNATURE
from .errors import FdekitError, UnknownNameError
from .syntax import (
    BOT, TOP, App, Formula, Signature, Var, disj, formula_key, impl, neg,
    parse, print_formula, subformulas)

BD = "BD"
CL = "CL"

LEFT = "left"
RIGHT = "right"


class Rule(NamedTuple):
    side: str        # where the principal formula sits
    conn: str        # its connective ...
    negated: bool    # ... read under a negation when True
    # the connective's arguments -> ((left additions, right additions), ...),
    # one pair per premise
    premises: Callable[..., tuple]


RULES: dict[str, Rule] = {
    "and-L": Rule(LEFT, "and", False, lambda a, b: (((a, b), ()),)),
    "and-R": Rule(RIGHT, "and", False,
                  lambda a, b: (((), (a,)), ((), (b,)))),
    "or-L": Rule(LEFT, "or", False, lambda a, b: (((a,), ()), ((b,), ()))),
    "or-R": Rule(RIGHT, "or", False, lambda a, b: (((), (a, b)),)),
    "impl-L": Rule(LEFT, "impl", False,
                   lambda a, b: (((), (a,)), ((b,), ()))),
    "impl-R": Rule(RIGHT, "impl", False, lambda a, b: (((a,), (b,)),)),
    "not-not-L": Rule(LEFT, "not", True, lambda a: (((a,), ()),)),
    "not-not-R": Rule(RIGHT, "not", True, lambda a: (((), (a,)),)),
    "not-and-L": Rule(LEFT, "and", True,
                      lambda a, b: (((neg(a),), ()), ((neg(b),), ()))),
    "not-and-R": Rule(RIGHT, "and", True,
                      lambda a, b: (((), (neg(a), neg(b))),)),
    "not-or-L": Rule(LEFT, "or", True,
                     lambda a, b: (((neg(a), neg(b)), ()),)),
    "not-or-R": Rule(RIGHT, "or", True,
                     lambda a, b: (((), (neg(a),)), ((), (neg(b),)))),
    "not-impl-L": Rule(LEFT, "impl", True,
                       lambda a, b: (((a, neg(b)), ()),)),
    "not-impl-R": Rule(RIGHT, "impl", True,
                       lambda a, b: (((), (a,)), ((), (neg(b),)))),
    "not-L": Rule(LEFT, "not", False, lambda a: (((), (a,)),)),
    "not-R": Rule(RIGHT, "not", False, lambda a: (((a,), ()),)),
}

CLASSICAL_ONLY_RULES = ("not-L", "not-R")

RULE_IDS = ("Id", "Cut", "bot-L", "not-bot-R", *RULES)


# system -> (connective, negated) -> per side, left then right, the
# (rule, premises, branches) whose principal formula has that shape, or None
_SEARCH: dict = {BD: {}, CL: {}}
for _name, _rule in RULES.items():
    for _system in (CL,) if _name in CLASSICAL_ONLY_RULES else (BD, CL):
        _SEARCH[_system].setdefault((_rule.conn, _rule.negated), [
            None, None])[_rule.side == RIGHT] = (
                _name, _rule.premises, len(_rule.premises(
                    *[BOT] * (1 if _rule.conn == "not" else 2))) > 1)


def _principal(rule: Rule, args: tuple) -> App:
    """The rule's principal formula over the connective's arguments."""
    f = App(rule.conn, args)
    return neg(f) if rule.negated else f


class Sequent(NamedTuple):
    left: frozenset
    right: frozenset

    @staticmethod
    def of(left: Iterable[Formula], right: Iterable[Formula]) -> "Sequent":
        return Sequent(frozenset(left), frozenset(right))

    def key(self):
        return tuple(tuple(sorted(side, key=formula_key))
                     for side in (self.left, self.right))

    def __str__(self):
        return " |- ".join(", ".join(map(print_formula, side))
                           for side in self.key())

    @staticmethod
    def parse(text: str, sig: Signature = SR_SIGNATURE) -> "Sequent":
        """The sequent in the form `str` prints, 'Gamma |- Delta', each
        side a comma-separated list, possibly empty, of formulas over sig."""
        if "|-" not in text:
            raise FdekitError("sequent syntax is 'Gamma |- Delta'")
        return Sequent.of(*([parse(part, sig) for part in side.split(",")]
                            if side else []
                            for side in map(str.strip, text.split("|-", 1))))


@dataclass(frozen=True)
class Derivation:
    conclusion: Sequent
    rule: str
    principal: Optional[Formula] = None
    premises: tuple["Derivation", ...] = field(default=())


def _rule(index: dict, p: Formula) -> Optional[tuple]:
    """(entry of `index`, the connective's arguments) for the rules that
    fit p, a negated shape before plain not-L/not-R; None if none fits."""
    if isinstance(p, Var):
        return None
    if p.conn == "not" and isinstance(p.args[0], App):
        hit = index.get((p.args[0].conn, True))
        if hit is not None:
            return hit, p.args[0].args
    hit = index.get((p.conn, False))
    return hit and (hit, p.args)


def _assemble(nodes: list) -> Derivation:
    """The derivation of pre-order nodes (sequent, rule, principal, arity)."""
    built: list = []
    for conclusion, rule, principal, n in reversed(nodes):
        premises = tuple(built.pop() for _ in range(n))  # first on top
        built.append(Derivation(conclusion, rule, principal, premises))
    return built[0]


class Prover:
    """Backward proof search by one pass of invertible rules, `_search`,
    over pairs of bit masks: `provable` applies the lowest fitting bit, and
    `derivation` and `countermodel` the fitting formula of least
    `formula_key`, whose output then does not depend on the hash seed.

    A prover gives each formula it meets a bit of `bits`, in the order met
    (`formulas` lists them; `_keys` caches the keys compared).  Per side (0
    left, 1 right), `_one` and `_two` mask the formulas whose rule has one
    premise or branches, and `_premises` maps a formula's bit to its rule's
    name and premises as (left, right) masks, last premise first, built
    when the rule is first applied, so a subformula gets its bit only when
    reached.  `memo` holds `provable`'s verdicts."""

    def __init__(self, system: str):
        if system not in _SEARCH:
            raise UnknownNameError(f"unknown proof system {system!r}")
        self.system = system
        self.index = _SEARCH[system]
        self.memo: dict = {}
        self.bits: dict = {}
        self.formulas: list = []
        self._one, self._two = [0, 0], [0, 0]
        self._premises: tuple = ({}, {})
        self._keys: dict = {}
        self._top = 2  # the right-hand mask that closes a node: top's bit
        self._mask((BOT, TOP))  # bits 1 and 2, as `_search` reads them

    def _new_bit(self, f: Formula) -> int:
        bit = self.bits[f] = 1 << len(self.formulas)
        self.formulas.append(f)
        fit = _rule(self.index, f)
        for side, hit in enumerate(fit[0] if fit else ()):
            if hit is not None:
                (self._two if hit[2] else self._one)[side] |= bit
        return bit

    def _mask(self, formulas: Iterable[Formula]) -> int:
        mask, bits = 0, self.bits
        for f in formulas:
            mask |= bits.get(f) or self._new_bit(f)
        return mask

    def _premises_of(self, bit: int, side: int) -> tuple:
        hits, args = _rule(self.index, self.formulas[bit.bit_length() - 1])
        name, premises, _ = hits[side]
        hit = self._premises[side][bit] = name, tuple(
            (self._mask(ladd), self._mask(radd))
            for ladd, radd in reversed(premises(*args)))
        return hit

    def _listed(self, mask: int) -> list:
        """The formulas of the bits set in mask, lowest bit first."""
        formulas, listed = self.formulas, []
        while mask:
            low = mask & -mask
            listed.append(formulas[low.bit_length() - 1])
            mask ^= low
        return listed

    def _least(self, fits: int) -> int:
        """The bit of `fits` whose formula has the least key."""
        if not fits & (fits - 1):
            return fits
        keys, fitting = self._keys, self._listed(fits)
        for f in fitting:
            if f not in keys:
                keys[f] = formula_key(f)
        return self.bits[min(fitting, key=keys.__getitem__)]

    def _search(self, left: int, right: int,
                nodes: Optional[list] = None) -> Optional[tuple]:
        """Depth first over (left, right) masks, first premise first: a
        node closes on a shared bit, bot (bit 1) on the left or `_top` on
        the right; else the first one-premise formula (left, then right),
        else the first branching one, gives way to its rule's premises.
        First is the lowest bit, or with `nodes` the least key, and then
        `nodes` gets each node in pre-order as (left, right, rule, principal
        bit or 0, arity), a closed one as Id on the least shared bit, bot-L
        or not-bot-R.  None if all close, else the first open (left, right)."""
        one, two, top, rules = self._one, self._two, self._top, self._premises
        stack = [(left, right)]
        while stack:
            left, right = stack.pop()
            if left & right or left & 1 or right & top:
                if nodes is not None:
                    shared = left & right
                    nodes.append(
                        (left, right, "Id", self._least(shared), 0) if shared
                        else (left, right, "bot-L" if left & 1
                              else "not-bot-R", 0, 0))
                continue
            if fits := left & one[0]:
                side = 0
            elif fits := right & one[1]:
                side = 1
            elif fits := left & two[0]:
                side = 0
            elif fits := right & two[1]:
                side = 1
            else:
                return left, right
            bit = fits & -fits if nodes is None else self._least(fits)
            name, pairs = rules[side].get(bit) or self._premises_of(bit, side)
            if nodes is not None:
                nodes.append((left, right, name, bit, len(pairs)))
            if side:
                right ^= bit
            else:
                left ^= bit
            stack += [(left | ladd, right | radd) for ladd, radd in pairs]
        return None

    def provable(self, seq: Sequent) -> bool:
        hit = self.memo.get(seq)
        if hit is None:
            hit = self.memo[seq] = self._search(
                self._mask(seq.left), self._mask(seq.right)) is None
        return hit

    def derivation(self, seq: Sequent) -> Optional[Derivation]:
        nodes: list = []
        left, right = self._mask(seq.left), self._mask(seq.right)
        if self._search(left, right, nodes):
            return None

        def side(mask: int) -> frozenset:  # the query's sets if unchanged
            return (seq.left if mask == left else seq.right if mask == right
                    else frozenset(self._listed(mask)))

        return _assemble([(Sequent(side(lm), side(rm)), rule,
                           self._listed(bit)[0] if bit else None, n)
                          for lm, rm, rule, bit, n in nodes])

    def countermodel(self, seq: Sequent) -> Optional[dict]:
        """Variable -> value designating every left formula and no right
        one, off the first open branch in key order (None if none): in BD,
        b, t, f or n as p and ~p, p alone, ~p alone or neither are on its
        left; in CL, where no ~p stays there, t if p is and f if not."""
        found = self._search(self._mask(seq.left), self._mask(seq.right), [])
        if found is None:
            return None
        left, bits = found[0], self.bits
        values = "ft" if self.system == CL else "ntfb"
        names = sorted(g.name for g in subformulas(seq.left | seq.right)
                       if type(g) is Var)
        return {v: values[bool(left & bits.get(Var(v), 0))
                          + 2 * bool(left & bits.get(neg(Var(v)), 0))]
                for v in names}


def prove(seq: Sequent, system: str) -> Optional[Derivation]:
    """Cut-free backward search; None when a branch stays open."""
    return Prover(system).derivation(seq)


# ---------------------------------------------------------------------------
# Derivation checking

def _check_node(d: Derivation, system: str) -> bool:
    seq, rule, p = d.conclusion, d.rule, d.principal
    if rule in CLASSICAL_ONLY_RULES and system != CL:
        return False
    if rule == "Id":
        ok = (p in seq.left and p in seq.right) if p is not None \
            else bool(seq.left & seq.right)
        return ok and not d.premises
    if rule == "bot-L":
        return BOT in seq.left and not d.premises
    if rule == "not-bot-R":
        return TOP in seq.right and not d.premises
    if rule == "Cut":
        if p is None or len(d.premises) != 2:
            return False
        p1, p2 = (x.conclusion for x in d.premises)
        if p not in p1.right or p not in p2.left:
            return False
        left_ok = seq.left in (
            p1.left | p2.left, p1.left | (p2.left - {p}))
        right_ok = seq.right in (
            p1.right | p2.right, (p1.right - {p}) | p2.right)
        return left_ok and right_ok
    spec = RULES.get(rule)
    if spec is None or not isinstance(p, App):
        return False
    inner = p.args[0] if spec.negated and p.args else p
    args = inner.args if isinstance(inner, App) else ()
    if _principal(spec, args) != p \
            or p not in (seq.left if spec.side == LEFT else seq.right):
        return False
    premise_adds = spec.premises(*args)
    if len(d.premises) != len(premise_adds):
        return False
    for sub, (ladd, radd) in zip(d.premises, premise_adds):
        # no rule adds its own principal, so dropping it after the
        # additions is the same as dropping it before
        keep = Sequent(seq.left | frozenset(ladd), seq.right | frozenset(radd))
        drop = (Sequent(keep.left - {p}, keep.right) if spec.side == LEFT
                else Sequent(keep.left, keep.right - {p}))
        if sub.conclusion not in (drop, keep):
            return False
    return True


def check_with_path(d: Derivation, system: str):
    """(ok, path), path the premise indices from the root to the first
    offending node in pre-order; None when every node checks."""
    stack = [(d, [])]
    while stack:
        x, path = stack.pop()
        if not _check_node(x, system):
            return False, path
        stack.extend([(sub, path + [i])
                      for i, sub in enumerate(x.premises)][::-1])
    return True, None


def check(d: Derivation, system: str) -> bool:
    return check_with_path(d, system)[0]


# ---------------------------------------------------------------------------
# Derived rules

def derived_rule_check(rule: str, system: str = CL) -> bool:
    """Is the negation rule derivable with only Id, bot-L and the rules for
    and, or and impl (plus not-L/not-R in CL)?  These are invertible and
    decide classical logic over the formulas none of them decomposes, so
    the rule is derived exactly when they prove its schematic conclusion
    with each premise G |- D added on the left as G -> (bot | D)."""
    goal = Sequent.of([], [TOP])
    if rule != "not-bot-R":
        spec = RULES.get(rule)
        if spec is None or not (spec.negated or spec.conn == "not"):
            raise UnknownNameError(f"rule {rule!r} has no negation prefix")
        args = (Var("a1"), Var("a2"))[:1 if spec.conn == "not" else 2]
        left = [reduce(lambda f, g: impl(g, f), ladd, reduce(disj, radd, BOT))
                for ladd, radd in spec.premises(*args)]
        principal = _principal(spec, args)
        goal = (Sequent.of(left + [principal], []) if spec.side == LEFT
                else Sequent.of(left, [principal]))
    prover = Prover(system)
    # Id and bot-L close, top does not; bot and top fit no negated shape
    prover.index = {shape: hits for shape, hits in prover.index.items()
                    if not shape[1]}
    prover._top = 0
    return prover.provable(goal)


# ---------------------------------------------------------------------------
# JSON interchange

# Deepest premise nesting written and read, within what `json` handles.
MAX_DERIVATION_DEPTH = 400


def derivation_to_json(d: Derivation, system: str) -> dict:
    out = {"system": system}
    stack = [(d, out, 0)]
    while stack:
        x, node, depth = stack.pop()
        if depth > MAX_DERIVATION_DEPTH:
            raise FdekitError(f"derivation deeper than {MAX_DERIVATION_DEPTH}")
        node.update(rule=x.rule, conclusion=dict(zip((LEFT, RIGHT), (
            list(map(print_formula, side)) for side in x.conclusion.key()))),
            principal=x.principal and print_formula(x.principal),
            premises=[{} for _ in x.premises])
        stack.extend((p, n, depth + 1)
                     for p, n in zip(x.premises, node["premises"]))
    return out


def derivation_from_json(data) -> tuple[Derivation, str]:
    """Inverse of `derivation_to_json`, formulas read over `SR_SIGNATURE`;
    malformed input raises FdekitError."""
    def need(ok: bool, what: str) -> None:
        if not ok:
            raise FdekitError(f"malformed derivation: {what}")

    # a context formula recurs in every node down to the step that uses it
    formula = lru_cache(maxsize=None)(lambda s: parse(s, SR_SIGNATURE))

    def side(items) -> frozenset:
        need(isinstance(items, list) and all(isinstance(s, str) for s in items),
             "each side of a conclusion must be a list of formula strings")
        return frozenset(map(formula, items))

    nodes = []
    stack = [(data, 0)]
    while stack:
        x, depth = stack.pop()
        need(depth <= MAX_DERIVATION_DEPTH,
             f"premises nest deeper than {MAX_DERIVATION_DEPTH}")
        need(isinstance(x, dict), "every node must be an object")
        need(isinstance(x.get("rule"), str)
             and isinstance(x.get("conclusion"), dict),
             "every node needs a string 'rule' and an object 'conclusion'")
        principal, premises = x.get("principal"), x.get("premises", [])
        need(principal is None or isinstance(principal, str),
             "'principal' must be a formula string or null")
        need(isinstance(premises, list), "'premises' must be a list")
        sides = x["conclusion"]
        nodes.append((Sequent(side(sides.get(LEFT)), side(sides.get(RIGHT))),
                      x["rule"], None if principal is None
                      else formula(principal), len(premises)))
        stack.extend((p, depth + 1) for p in reversed(premises))
    d = _assemble(nodes)
    system = data.get("system", BD)
    need(system in (BD, CL), f"unknown proof system {system!r}")
    return d, system
