"""Tests of the benchmark's oracles and workloads.

Run with: python3 -m pytest bench
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from fdekit import laws, matrix, presets  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402

P = ("var", "p")
BD = oracle.tables("bd-impl-bot")


def test_four_valued_tables_follow_the_definitions():
    assert BD.ops["and"][("b", "n")] == "f"
    assert BD.ops["or"][("b", "n")] == "t"
    assert BD.ops["not"][("b",)] == "b" and BD.ops["not"][("t",)] == "f"
    assert BD.ops["impl"][("n", "f")] == "t"
    assert BD.ops["impl"][("b", "f")] == "f"
    assert BD.designated == {"t", "b"}


def test_absurdity_and_triviality_first_countermodels():
    assert oracle.first_countermodel(BD, [P, ("not", P)], [("bot",)]) \
        == {"p": "b"}
    assert oracle.first_countermodel(BD, [], [("or", P, ("not", P))]) \
        == {"p": "n"}
    cl = oracle.tables("cl")
    assert oracle.first_countermodel(cl, [P, ("not", P)], [("bot",)]) is None


def test_table2_laws_hold_in_bd_impl_bot():
    for law in laws.TABLE2_LAWS:
        a, b = oracle.from_fdekit(law.lhs), oracle.from_fdekit(law.rhs)
        assert oracle.first_difference(BD, a, b) is None, law.name


def test_json_tables_of_bd_impl_bot_match_the_definitions():
    data = matrix.matrix_to_json(presets.preset("bd-impl-bot"))
    assert oracle.tables_from_json(data).ops == BD.ops


def test_law_filter_leaves_81_survivors():
    survivors = workloads.FamilyLaws(0, 0).survivors()
    assert len(survivors) == 81
    assert 13129950543 in survivors


def test_semantics_schemata_are_valid():
    subst = {"A": ("var", "a"), "B": ("var", "b"), "C": ("var", "c")}
    for gamma, delta in workloads.CONSEQUENCES:
        for name in ("bd-impl-bot", "lp", "k3"):
            g = [workloads._instantiate(f, subst) for f in gamma]
            d = [workloads._instantiate(f, subst) for f in delta]
            assert oracle.first_countermodel(oracle.tables(name), g, d) \
                is None
    for gamma, delta in workloads.IMPL_CONSEQUENCES:
        g = [workloads._instantiate(f, subst) for f in gamma]
        d = [workloads._instantiate(f, subst) for f in delta]
        assert oracle.first_countermodel(BD, g, d) is None
    for a, b in workloads.EQUIVALENCES + workloads.IMPL_EQUIVALENCES:
        a, b = (workloads._instantiate(f, subst) for f in (a, b))
        assert oracle.first_difference(BD, a, b) is None


def test_semantics_inputs_depend_only_on_the_seed():
    one = workloads.SemanticsWide(5, 2, nvars=4)
    two = workloads.SemanticsWide(5, 2, nvars=4)
    assert one.ops == two.ops
    assert workloads.SemanticsWide(6, 2, nvars=4).ops != one.ops


def _smoke(workload):
    for op in workload.ops:
        queries, outputs = workload.run(op)
        assert queries >= 1
        assert workload.check(op, outputs)


def test_proof_corpus_smoke():
    _smoke(workloads.ProofCorpus(1, 2, batch=40, proved=6))


def test_semantics_wide_smoke():
    _smoke(workloads.SemanticsWide(1, 2, nvars=3))


def test_family_laws_smoke():
    _smoke(workloads.FamilyLaws(1, 2, members=5))


def test_checks_catch_a_wrong_verdict():
    w = workloads.ProofCorpus(1, 1, batch=20, proved=0)
    op = w.ops[0]
    _queries, (verdicts, proofs) = w.run(op)
    flipped = [(not b, c) for b, c in verdicts]
    assert w.check(op, (verdicts, proofs))
    assert not w.check(op, (flipped, proofs))


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    return result["metrics"]


def _declared(key):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def test_repro_run_reports_every_end_to_end_metric():
    metrics = _run("repro", 0)
    assert {k: v["unit"] for k, v in metrics.items()} \
        == _declared("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())


def test_traced_run_reports_every_per_layer_metric():
    metrics = _run("family-laws", 1)
    assert {k: v["unit"] for k, v in metrics.items()} \
        == _declared("per_layer")
    for name in ("bd.decode_calls", "laws.holds_calls", "laws.filter_cubes",
                 "matrix.points"):
        assert metrics[name]["value"] > 0, name
