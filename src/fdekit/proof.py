"""Sequent calculus for the implication-falsity expansion, with the
two-rule classical extension, a derivation checker, and cut-free backward
proof search.

Sequents are pairs of finite formula sets over {not, and, or, impl, bot}.
One table, `RULES`, defines the logical rules for search, checking and
`derived-rule` alike.  Backward search keeps the principal formula in the
context, so premises only ever grow within the subformula-and-single-negation
closure of the goal; termination follows without any depth bound.  The
checker also accepts derivations that drop the principal formula, and
accepts Cut.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .errors import FdekitError, UnknownNameError
from .syntax import (
    BOT, TOP, App, Formula, Var, formula_key, neg, print_formula)

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


# system -> side -> (connective, negated) -> (rule, premises, classical-only)
_SEARCH: dict = {BD: {LEFT: {}, RIGHT: {}}, CL: {LEFT: {}, RIGHT: {}}}
for _name, _rule in RULES.items():
    _classical = _name in CLASSICAL_ONLY_RULES
    for _system in (CL,) if _classical else (BD, CL):
        _SEARCH[_system][_rule.side][_rule.conn, _rule.negated] = (
            _name, _rule.premises, _classical)


def _principal(rule: Rule, args: tuple) -> App:
    """The rule's principal formula over the connective's arguments."""
    f = App(rule.conn, args)
    return neg(f) if rule.negated else f


@dataclass(frozen=True)
class Sequent:
    left: frozenset
    right: frozenset

    @staticmethod
    def of(left: Iterable[Formula], right: Iterable[Formula]) -> "Sequent":
        return Sequent(frozenset(left), frozenset(right))

    def key(self):
        return (
            tuple(sorted(self.left, key=formula_key)),
            tuple(sorted(self.right, key=formula_key)),
        )

    def __str__(self):
        return " |- ".join(", ".join(map(print_formula, side))
                           for side in self.key())


@dataclass(frozen=True)
class Derivation:
    conclusion: Sequent
    rule: str
    principal: Optional[Formula] = None
    premises: tuple["Derivation", ...] = field(default=())


def _axiom(seq: Sequent, system: str) -> Optional[Derivation]:
    common = seq.left & seq.right
    if common:
        principal = min(common, key=formula_key)
        return Derivation(seq, "Id", principal)
    if BOT in seq.left:
        return Derivation(seq, "bot-L")
    if TOP in seq.right:
        return Derivation(seq, "not-bot-R")
    return None


def _applications(seq: Sequent, system: str) -> list[tuple]:
    """Backward rule applications (rule, principal, premises), keeping the
    principal in the context; single-premise rules first, then two-premise
    rules, then not-L/not-R, each group left side first in formula order.
    not-L/not-R apply to every negation, including ones the negation-prefixed
    rules also handle; tried last, they only matter when those rules are
    unavailable (restricted searches) or fail."""
    l, r = seq.left, seq.right
    groups: tuple[list, list, list] = ([], [], [])
    for side, formulas in ((LEFT, l), (RIGHT, r)):
        index = _SEARCH[system][side]
        for p in sorted(formulas, key=formula_key):
            if isinstance(p, Var):
                continue
            shapes = [(p.conn, False, p.args)]
            if p.conn == "not" and isinstance(p.args[0], App):
                shapes.append((p.args[0].conn, True, p.args[0].args))
            for conn, negated, args in shapes:
                hit = index.get((conn, negated))
                if hit is not None:
                    rule, additions, classical = hit
                    premises = tuple([
                        Sequent(l | frozenset(ladd), r | frozenset(radd))
                        for ladd, radd in additions(*args)])
                    groups[2 if classical else len(premises) - 1].append(
                        (rule, p, premises))
    return groups[0] + groups[1] + groups[2]


class Prover:
    """Backward proof search with a persistent provability memo.

    Failures are sound to memoize globally because the search is a pure
    function of the sequent; successes are memoized as booleans and the
    derivation is rebuilt on demand.
    """

    def __init__(self, system: str, extra_axioms: Iterable[Sequent] = (),
                 enabled_rules: Optional[frozenset] = None):
        if system not in (BD, CL):
            raise UnknownNameError(f"unknown proof system {system!r}")
        self.system = system
        self.extra_axioms = tuple(extra_axioms)
        self.enabled_rules = enabled_rules
        self.memo: dict = {}

    def _closes(self, seq: Sequent) -> Optional[Derivation]:
        d = _axiom(seq, self.system)
        if d is not None and self._enabled(d.rule):
            return d
        for ax in self.extra_axioms:
            if ax.left <= seq.left and ax.right <= seq.right:
                return Derivation(seq, "Axiom")
        return None

    def _enabled(self, rule: str) -> bool:
        return self.enabled_rules is None or rule in self.enabled_rules

    def _axiom_cuts(self, seq: Sequent) -> Iterator[tuple]:
        # An extra axiom G0 |- D0 yields the goal once every member of G0
        # is provable on the right and every member of D0 on the left
        # (a multicut against the weakened axiom).
        for ax in self.extra_axioms:
            premises = tuple(
                [Sequent(seq.left, seq.right | {a}) for a in ax.left]
                + [Sequent(seq.left | {b}, seq.right) for b in ax.right]
            )
            if premises:
                yield ("Axiom", None, premises)

    def _moves(self, seq: Sequent) -> Iterator[tuple]:
        """Enabled backward steps (rule, principal, premises) whose premises
        all differ from the goal, in search order."""
        for move in chain(_applications(seq, self.system),
                          self._axiom_cuts(seq)):
            if (move[0] == "Axiom" or self._enabled(move[0])) \
                    and seq not in move[2]:
                yield move

    def provable(self, seq: Sequent) -> bool:
        key = seq.key()
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        result = self._closes(seq) is not None or any(
            all(self.provable(p) for p in premises)
            for _rule, _principal, premises in self._moves(seq))
        self.memo[key] = result
        return result

    def derivation(self, seq: Sequent) -> Optional[Derivation]:
        if not self.provable(seq):
            return None
        d = self._closes(seq)
        if d is not None:
            return d
        for rule, principal, premises in self._moves(seq):
            if all(self.provable(p) for p in premises):
                return Derivation(
                    seq, rule, principal,
                    tuple(self.derivation(p) for p in premises))
        raise AssertionError("provable sequent lost its proof")


def prove(seq: Sequent, system: str) -> Optional[Derivation]:
    """Cut-free backward search; None when the search space is exhausted."""
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
        if sub.conclusion not in (keep, drop):
            return False
    return True


def check_with_path(d: Derivation, system: str):
    """(ok, path) where path locates the first offending node as a list of
    premise indices from the root."""
    if not _check_node(d, system):
        return False, []
    for i, sub in enumerate(d.premises):
        ok, path = check_with_path(sub, system)
        if not ok:
            return False, [i] + path
    return True, None


def check(d: Derivation, system: str) -> bool:
    return check_with_path(d, system)[0]


# ---------------------------------------------------------------------------
# Derived rules

_A1 = Var("a1")
_A2 = Var("a2")


def _rule_instance(rule: str):
    """Schematic instance (premises, conclusion) with empty contexts."""
    if rule == "not-bot-R":
        return [], Sequent.of([], [TOP])
    spec = RULES.get(rule)
    if spec is None or not (spec.negated or spec.conn == "not"):
        raise UnknownNameError(f"rule {rule!r} has no negation prefix")
    args = (_A1,) if spec.conn == "not" else (_A1, _A2)
    principal = _principal(spec, args)
    premises = [Sequent.of(ladd, radd) for ladd, radd in spec.premises(*args)]
    sides = ([principal], []) if spec.side == LEFT else ([], [principal])
    return premises, Sequent.of(*sides)


_BASE_RULES = frozenset(
    ["Id", "bot-L", "and-L", "and-R", "or-L", "or-R", "impl-L", "impl-R"])


def derived_rule_check(rule: str, system: str = CL) -> bool:
    """Is the rule's conclusion provable from its premises using only the
    positive rules (plus not-L/not-R in the classical system)?"""
    premises, conclusion = _rule_instance(rule)
    enabled = _BASE_RULES | (frozenset(CLASSICAL_ONLY_RULES)
                             if system == CL else frozenset())
    prover = Prover(system, extra_axioms=premises, enabled_rules=enabled)
    return prover.provable(conclusion)


# ---------------------------------------------------------------------------
# JSON interchange

def derivation_to_json(d: Derivation, system: str) -> dict:
    def node(x: Derivation) -> dict:
        return {
            "rule": x.rule,
            "conclusion": {side: list(map(print_formula, formulas))
                           for side, formulas in zip(
                               (LEFT, RIGHT), x.conclusion.key())},
            "principal": None if x.principal is None
            else print_formula(x.principal),
            "premises": [node(p) for p in x.premises],
        }

    return {"system": system, **node(d)}


# Deepest premise nesting accepted; loading and checking recurse once per level.
MAX_DERIVATION_DEPTH = 200


def derivation_from_json(data, parse_formula) -> tuple[Derivation, str]:
    """Inverse of `derivation_to_json`; malformed input raises FdekitError."""
    def need(ok: bool, what: str) -> None:
        if not ok:
            raise FdekitError(f"malformed derivation: {what}")

    def side(items) -> frozenset:
        need(isinstance(items, list) and all(isinstance(s, str) for s in items),
             "each side of a conclusion must be a list of formula strings")
        return frozenset(parse_formula(s) for s in items)

    def node(x, depth: int) -> Derivation:
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
        return Derivation(
            Sequent(side(x["conclusion"].get(LEFT)),
                    side(x["conclusion"].get(RIGHT))),
            x["rule"],
            None if principal is None else parse_formula(principal),
            tuple(node(p, depth + 1) for p in premises),
        )

    d = node(data, 0)
    system = data.get("system", BD)
    need(system in (BD, CL), f"unknown proof system {system!r}")
    return d, system
