"""The benchmark's workloads.

Each workload builds all of its inputs from the seed when it is
constructed (that is its set-up), then runs ops: `run(op)` is the timed
part and returns (queries decided, outputs); `check(op, outputs)` runs
after the timer stops and compares the outputs with the benchmark's own
truth tables (`oracle`) or with how the inputs were built.  Every op of a
workload is drawn the same way, so ops cost about the same; program state
that would carry from one op to the next (a `Prover`'s memo) is made fresh
in each op.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

from fdekit import bd, laws, matrix, presets, proof, syntax

import oracle

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


def to_fdekit(f: tuple):
    if f[0] == "var":
        return syntax.Var(f[1])
    return syntax.App(f[0], tuple(to_fdekit(a) for a in f[1:]))


# ---------------------------------------------------------------------------
# proof-corpus


class ProofCorpus:
    """Fresh BD and CL provers decide a batch of sequents drawn uniformly
    from the test-07 corpus: 33 formulas over p, q and bot, sides of at most
    two formulas, 562 x 562 = 315,844 sequents.  The first `proved`
    sequents of each batch also go through `prove` and `check` in both
    systems, as `fdekit prove` does.  One query is one sequent, built from
    its formulas and decided in both systems."""

    name = "proof-corpus"
    ops_per_second = 3.6
    ATOMS = (("var", "p"), ("var", "q"), ("bot",))

    def __init__(self, seed: int, ops: int, batch: int = 1000,
                 proved: int = 50):
        atoms = self.ATOMS
        self.formulas = list(atoms) + [("not", a) for a in atoms] + [
            (c, a, b) for c in ("and", "or", "impl")
            for a in atoms for b in atoms]
        self.program = [to_fdekit(f) for f in self.formulas]
        sides = [()] + [(i,) for i in range(33)] + list(
            itertools.combinations(range(33), 2))
        rng = random.Random(seed)
        self.proved = proved
        self.ops = [[(rng.choice(sides), rng.choice(sides))
                     for _ in range(batch)] for _ in range(ops)]
        self._masks = None

    def run(self, op):
        program = self.program
        seqs = [proof.Sequent.of([program[i] for i in left],
                                 [program[j] for j in right])
                for left, right in op]
        bd_prover, cl_prover = proof.Prover(proof.BD), proof.Prover(proof.CL)
        verdicts = [(bd_prover.provable(s), cl_prover.provable(s))
                    for s in seqs]
        proofs = []
        for s in seqs[:self.proved]:
            for system in (proof.BD, proof.CL):
                d = proof.prove(s, system)
                proofs.append((d, d is not None and proof.check(d, system)))
        return len(seqs), (verdicts, proofs)

    def _semantic_masks(self):
        """Per system, per formula: the set of valuations of p, q
        designating it, as a bit mask; and the mask of all valuations."""
        if self._masks is None:
            self._masks = {}
            for system, name in ((proof.BD, "bd-impl-bot"), (proof.CL, "cl")):
                m = oracle.tables(name)
                envs = [{"p": a, "q": b} for a in m.values for b in m.values]
                masks = [sum(1 << i for i, env in enumerate(envs)
                             if m.value(f, env) in m.designated)
                         for f in self.formulas]
                self._masks[system] = (masks, (1 << len(envs)) - 1)
        return self._masks

    def valid(self, system: str, left, right) -> bool:
        masks, full = self._semantic_masks()[system]
        gamma, delta = full, 0
        for i in left:
            gamma &= masks[i]
        for j in right:
            delta |= masks[j]
        return gamma & ~delta & full == 0

    def _concludes(self, d, left, right) -> bool:
        """Is the derivation's conclusion the sequent left |- right?"""
        side = lambda fs: {oracle.from_fdekit(f) for f in fs}  # noqa: E731
        return (side(d.conclusion.left) == {self.formulas[i] for i in left}
                and side(d.conclusion.right)
                == {self.formulas[j] for j in right})

    def check(self, pairs, outputs) -> bool:
        verdicts, proofs = outputs
        for (left, right), (bd_v, cl_v) in zip(pairs, verdicts):
            if bd_v is not self.valid(proof.BD, left, right) or \
                    cl_v is not self.valid(proof.CL, left, right):
                return False
        systems = itertools.cycle((proof.BD, proof.CL))
        for k, (d, checked) in enumerate(proofs):
            left, right = pairs[k // 2]
            if (d is None) == self.valid(next(systems), left, right):
                return False
            if d is not None and not (checked and
                                      self._concludes(d, left, right)):
                return False
        return len(verdicts) == len(pairs) and \
            len(proofs) == 2 * min(self.proved, len(pairs))


# ---------------------------------------------------------------------------
# semantics-wide

P1 = ("var", "p1")
_A, _B, _C = ("meta", "A"), ("meta", "B"), ("meta", "C")


def _n(x):
    return ("not", x)


def _and(x, y):
    return ("and", x, y)


def _or(x, y):
    return ("or", x, y)


def _impl(x, y):
    return ("impl", x, y)


# Schemata, each in all three of A, B and C.
# (premises, conclusions) valid in the four-valued base, hence in lp and k3
CONSEQUENCES = (
    ([_and(_A, _B)], [_or(_B, _C)]),
    ([_and(_A, _or(_B, _C))], [_or(_and(_A, _B), _and(_A, _C))]),
    ([_n(_n(_A)), _B], [_or(_and(_A, _B), _C)]),
    ([_n(_and(_A, _B))], [_or(_n(_A), _n(_B)), _C]),
)
# valid in bd-impl-bot only
IMPL_CONSEQUENCES = (
    ([_A, _impl(_A, _B)], [_or(_B, _C)]),
    ([_impl(_A, _impl(_B, _C)), _and(_A, _B)], [_C]),
    ([_B], [_impl(_A, _and(_B, _or(_B, _C)))]),
    ([_C], [_or(_A, _impl(_A, ("bot",))), _B]),
)
EQUIVALENCES = (
    (_n(_and(_A, _or(_B, _C))), _or(_n(_A), _n(_or(_B, _C)))),
    (_n(_or(_A, _and(_B, _C))), _and(_n(_A), _n(_and(_B, _C)))),
    (_and(_A, _or(_B, _C)), _or(_and(_A, _B), _and(_A, _C))),
    (_or(_A, _and(_B, _C)), _and(_or(_A, _B), _or(_A, _C))),
)
IMPL_EQUIVALENCES = (
    (_impl(_A, _impl(_B, _C)), _impl(_and(_A, _B), _C)),
    (_impl(_or(_A, _B), _C), _and(_impl(_A, _C), _impl(_B, _C))),
    (_impl(_A, _and(_B, _C)), _and(_impl(_A, _B), _impl(_A, _C))),
)


def _instantiate(schema, subst: dict):
    if schema[0] == "meta":
        return subst[schema[1]]
    return (schema[0],) + tuple(_instantiate(a, subst) for a in schema[1:])


def _leaves(f) -> int:
    return 1 if f[0] == "leaf" else sum(_leaves(a) for a in f[1:])


def _fill(f, names):
    if f[0] == "leaf":
        return ("var", next(names))
    return (f[0],) + tuple(_fill(a, names) for a in f[1:])


class SemanticsWide:
    """Consequence and equivalence queries, given as text, with `nvars`
    variables each, over bd-impl-bot, lp and k3.  Each op holds, per
    matrix, one valid consequence, one valid equivalence, one refuted
    consequence and one refuted equivalence.  Valid queries substitute
    random formulas into schemata valid in bd-impl-bot.  Refuted queries
    carry a guard that is met only when p1 takes the last value of the
    carrier, so their first countermodel lies in the last quarter (third)
    of the enumeration.  One query is one consequence or equivalence
    query: parse every formula, print it back, decide it."""

    name = "semantics-wide"
    ops_per_second = 2.7
    MATRICES = ("bd-impl-bot", "lp", "k3")
    SUBST_SIZE = 2    # connectives of each formula put for A, B and C
    RANDOM_SIZE = 4   # connectives of each side of a refuted query

    def __init__(self, seed: int, ops: int, nvars: int = 6):
        self.vars = [("var", f"p{i}") for i in range(1, nvars + 1)]
        self.tables = {name: oracle.tables(name) for name in self.MATRICES}
        for name in self.MATRICES:
            presets.preset(name)
        rng = random.Random(seed)
        self.ops = [[q for name in self.MATRICES
                     for q in self._bundle(rng, name, i)]
                    for i in range(ops)]

    def _shape(self, rng, size: int, impl: bool):
        """A random formula with `size` connectives and blank leaves."""
        if size == 0:
            return ("bot",) if impl and rng.random() < 0.1 else ("leaf",)
        if rng.random() < 0.25:
            return ("not", self._shape(rng, size - 1, impl))
        left = rng.randrange(size)
        conn = rng.choice(("and", "or", "impl") if impl else ("and", "or"))
        return (conn, self._shape(rng, left, impl),
                self._shape(rng, size - 1 - left, impl))

    def _formulas(self, rng, size: int, count: int, impl: bool) -> list:
        """`count` random formulas whose leaves name every variable."""
        while True:
            shapes = [self._shape(rng, size, impl) for _ in range(count)]
            extra = sum(_leaves(f) for f in shapes) - len(self.vars)
            if extra >= 0:
                break
        names = [v[1] for v in self.vars] + [
            rng.choice(self.vars)[1] for _ in range(extra)]
        rng.shuffle(names)
        names = iter(names)
        return [_fill(f, names) for f in shapes]

    def _instance(self, rng, schema, impl: bool):
        subst = dict(zip("ABC", self._formulas(rng, self.SUBST_SIZE, 3,
                                               impl)))
        return [[_instantiate(f, subst) for f in part] for part in schema]

    def _refuted(self, rng, m, gamma, delta, equiv: bool) -> bool:
        """Is some assignment with p1 at the last value a countermodel?"""
        for _ in range(16):
            env = {v[1]: rng.choice(m.values) for v in self.vars}
            env["p1"] = m.values[-1]
            if equiv and m.value(gamma[0], env) != m.value(delta[0], env):
                return True
            if not equiv and not m.holds_at(gamma, delta, env):
                return True
        return False

    def _bundle(self, rng, name: str, i: int):
        """The op's four queries on one matrix.  Schemata are taken in
        turn, so every run of the same length holds the same schemata and
        only the substituted formulas depend on the seed."""
        impl = name == "bd-impl-bot"
        m = self.tables[name]
        cons = CONSEQUENCES + (IMPL_CONSEQUENCES if impl else ())
        eqs = [[[a], [b]] for a, b in
               EQUIVALENCES + (IMPL_EQUIVALENCES if impl else ())]
        gamma, delta = self._instance(rng, cons[i % len(cons)], impl)
        yield (name, "cons", gamma, delta, True)
        a, b = self._instance(rng, eqs[i % len(eqs)], impl)
        yield (name, "equiv", a, b, True)
        while True:
            r1, r2 = self._formulas(rng, self.RANDOM_SIZE, 2, impl)
            if name == "lp":   # p1 & ~p1 is designated only at p1 = b
                gamma, delta = [r1, _and(P1, _n(P1))], [r2]
            else:              # p1 | ~p1 is undesignated only at p1 = n
                gamma, delta = [r1], [r2, _or(P1, _n(P1))]
            if self._refuted(rng, m, gamma, delta, False):
                break
        yield (name, "cons", gamma, delta, False)
        # x is f unless p1 takes the last value, so b | x differs from b
        # only there
        x = _and(P1, _n(P1))
        if impl:
            x = _and(x, _impl(P1, ("bot",)))
        while True:
            a, b = self._instance(rng, eqs[(i + 1) % len(eqs)], impl)
            b = [_or(b[0], x)]
            if self._refuted(rng, m, a, b, True):
                break
        yield (name, "equiv", a, b, False)

    def run(self, op):
        out = []
        for name, kind, gamma, delta, _valid in op:
            m = presets.preset(name)
            parsed = [syntax.parse(oracle.to_text(f), m.signature)
                      for f in gamma + delta]
            printed = [syntax.print_formula(f) for f in parsed]
            if kind == "cons":
                cm = matrix.consequence_countermodel(
                    m, parsed[:len(gamma)], parsed[len(gamma):])
            else:
                cm = matrix.equivalence_countermodel(m, parsed[0], parsed[1])
            out.append((parsed, printed, cm))
        return len(op), out

    def check(self, op, outputs) -> bool:
        if len(outputs) != len(op):
            return False
        for (name, kind, gamma, delta, valid), (parsed, printed, cm) in \
                zip(op, outputs):
            sig = presets.preset(name).signature
            if [oracle.from_fdekit(f) for f in parsed] != gamma + delta:
                return False
            if [syntax.parse(t, sig) for t in printed] != parsed:
                return False
            if valid:
                if cm is not None:
                    return False
                continue
            m = self.tables[name]
            first = (oracle.first_countermodel(m, gamma, delta)
                     if kind == "cons"
                     else oracle.first_difference(m, gamma[0], delta[0]))
            if first is None or cm != first:
                return False
        return True


# ---------------------------------------------------------------------------
# family-laws

BD_IMPL_BOT_INDEX = 13129950543
SURVIVORS = 81


class FamilyLaws:
    """Each op takes a batch of seeded family indices through sr_decode,
    sr_encode, is_strongly_regular, the 13 table-2 laws (`holds`) and the
    5 classical-only laws (`holds_countermodel`), then runs the 13-law
    filter once.  One query is one family member; the filter counts as one
    more."""

    name = "family-laws"
    ops_per_second = 4.2

    def __init__(self, seed: int, ops: int, members: int = 120):
        rng = random.Random(seed)
        self.ops = [[rng.randrange(2 ** 38) for _ in range(members)]
                    for _ in range(ops)]
        self.table2 = [(oracle.from_fdekit(law.lhs),
                        oracle.from_fdekit(law.rhs))
                       for law in laws.TABLE2_LAWS]
        self.classical = [(oracle.from_fdekit(law.lhs),
                           oracle.from_fdekit(law.rhs))
                          for law in laws.CLASSICAL_ONLY_LAWS]
        self._survivors = None

    def run(self, op):
        out = []
        for index in op:
            m = bd.sr_decode(index)
            out.append((m, bd.sr_encode(m), bd.is_strongly_regular(m),
                        [laws.holds(m, law) for law in laws.TABLE2_LAWS],
                        [laws.holds_countermodel(m, law)
                         for law in laws.CLASSICAL_ONLY_LAWS]))
        result = laws.filter_strongly_regular(laws.TABLE2_LAWS)
        return len(op) + 1, (out, result)

    def _tables(self, m):
        return oracle.tables_from_json(
            json.loads(json.dumps(matrix.matrix_to_json(m))))

    def survivors(self) -> list:
        """The 81 filter survivors, each checked against the 13 laws on
        its own tables, with bd-impl-bot's tables among them."""
        if self._survivors is None:
            result = laws.filter_strongly_regular(laws.TABLE2_LAWS)
            found = sorted(result.indices())
            ok = len(found) == SURVIVORS and BD_IMPL_BOT_INDEX in found
            for index in found:
                m = self._tables(bd.sr_decode(index))
                ok = ok and all(oracle.first_difference(m, a, b) is None
                                for a, b in self.table2)
            ref = oracle.tables("bd-impl-bot")
            ok = ok and self._tables(
                bd.sr_decode(BD_IMPL_BOT_INDEX)).ops == ref.ops
            self._survivors = found if ok else []
        return self._survivors

    def check(self, op, outputs) -> bool:
        members, result = outputs
        if len(members) != len(op):
            return False
        for index, (m, back, regular, holds, cms) in zip(op, members):
            if back != index or regular is not True:
                return False
            t = self._tables(m)
            for (a, b), verdict in zip(self.table2, holds):
                if verdict is not (oracle.first_difference(t, a, b) is None):
                    return False
            for (a, b), cm in zip(self.classical, cms):
                if cm != oracle.first_difference(t, a, b):
                    return False
        return (result.count == SURVIVORS and BD_IMPL_BOT_INDEX in result
                and sorted(result.indices()) == self.survivors())


# ---------------------------------------------------------------------------
# repro


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Repro:
    """One op is one `fdekit --json repro` process, run to its end; one
    query is one such process.  With a tracer, the child runs under the
    benchmark's wrappers (`repro_child.py`) and its spans are merged."""

    name = "repro"
    ops_per_second = 0.75

    def __init__(self, seed: int, ops: int, tracer=None):
        # the checklist takes no input, so the seed changes nothing
        self.ops = list(range(ops))
        self.tracer = tracer

    def run(self, op):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "fdekit.cli", "--json", "repro"]
        else:
            OUT.mkdir(exist_ok=True)
            trace_file = OUT / "repro-child.json"
            cmd = [sys.executable, str(Path(__file__).with_name(
                "repro_child.py")), str(trace_file)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=150)
        if self.tracer is not None and trace_file.exists():
            data = json.loads(trace_file.read_text())
            trace_file.unlink()
            self.tracer.merge(data)
            # perf_counter is CLOCK_MONOTONIC, shared by the processes of
            # one machine: spawn to the child having imported fdekit.cli
            self.tracer.counts["cli.start_ms"] += \
                1000.0 * (data["ready"] - start)
        return 1, proc

    def check(self, op, proc) -> bool:
        if proc.returncode != 0:
            return False
        try:
            items = json.loads(proc.stdout)
        except ValueError:
            return False
        return bool(items) and all(item.get("pass") is True
                                   for item in items)


WORKLOADS = {w.name: w for w in (ProofCorpus, SemanticsWide, FamilyLaws,
                                 Repro)}
