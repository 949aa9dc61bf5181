"""Spans around fdekit's public functions, recorded from outside.

`install` replaces each function that `TIMES` names, in every fdekit
module namespace that holds it, by a wrapper that records a span (name,
start, end, parent) while the tracer is active.  Spans stay in memory;
`Tracer.dump` writes them out at the end of a run and `layer_metrics`
folds them into the per-layer metrics.  A span's self time is its
duration minus the time its child spans cover.

Three things are not plain spans:
- `matrix.evaluate` runs once per point, so it is not wrapped; instead the
  assignments yielded by `matrix.assignments` are counted as points;
- `Prover.provable` records a span only for its outermost call; every call
  counts as a node, and the memo entries it adds are counted so that
  memo hits = nodes - entries added;
- `Prover.derivation` records a span only for its outermost call.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter
from time import perf_counter

# per-layer time metric -> spans whose self time it sums; a span named
# "module.function" wraps that public function of fdekit
TIMES = {
    "syntax.parse_ms": ("syntax.parse",),
    "syntax.print_ms": ("syntax.print_formula",),
    "matrix.consequence_ms": ("matrix.consequence",
                              "matrix.consequence_countermodel"),
    "matrix.equivalence_ms": ("matrix.equivalent",
                              "matrix.equivalence_countermodel"),
    "matrix.clone_ms": ("matrix.term_functions", "matrix.unary_term_functions",
                        "matrix.find_term_function"),
    "matrix.simplicity_ms": ("matrix.simplicity",),
    "definability.definable_ms": ("definability.definable",),
    "definability.synonymous_ms": ("definability.synonymous",),
    "definability.interdef_ms": ("definability.logic_definable_in",
                                 "definability.interdefinable"),
    "bd.decode_ms": ("bd.sr_decode",),
    "bd.encode_ms": ("bd.sr_encode",),
    "bd.regular_check_ms": ("bd.is_strongly_regular",),
    "laws.holds_ms": ("laws.holds", "laws.holds_countermodel"),
    "laws.filter_ms": ("laws.filter_strongly_regular",),
    "proof.provable_ms": ("proof.Prover.provable",),
    "proof.derivation_ms": ("proof.Prover.derivation",),
    "proof.check_ms": ("proof.check",),
    "cli.main_ms": ("cli.main",),
}

# per-layer call count -> the time metric whose spans it counts; a call
# nested in another span of the same metric (consequence calling
# consequence_countermodel) is not counted again
CALLS = {
    "syntax.parse_calls": "syntax.parse_ms",
    "matrix.eval_calls": None,  # consequence and equivalence together
    "matrix.clone_calls": "matrix.clone_ms",
    "definability.definable_calls": "definability.definable_ms",
    "bd.decode_calls": "bd.decode_ms",
    "laws.holds_calls": "laws.holds_ms",
}
_EVAL = TIMES["matrix.consequence_ms"] + TIMES["matrix.equivalence_ms"]

# every per-layer metric with its unit, in report order
UNITS = {
    "syntax.parse_ms": "ms", "syntax.parse_calls": "count",
    "syntax.print_ms": "ms",
    "matrix.consequence_ms": "ms", "matrix.equivalence_ms": "ms",
    "matrix.eval_calls": "count", "matrix.points": "count",
    "matrix.points_per_s": "1/s",
    "matrix.clone_ms": "ms", "matrix.clone_calls": "count",
    "matrix.clone_members": "count", "matrix.simplicity_ms": "ms",
    "definability.definable_ms": "ms", "definability.definable_calls": "count",
    "definability.synonymous_ms": "ms", "definability.interdef_ms": "ms",
    "bd.decode_ms": "ms", "bd.decode_calls": "count", "bd.encode_ms": "ms",
    "bd.regular_check_ms": "ms",
    "laws.holds_ms": "ms", "laws.holds_calls": "count",
    "laws.filter_ms": "ms", "laws.filter_cubes": "count",
    "proof.provable_ms": "ms", "proof.nodes": "count",
    "proof.memo_hits": "count", "proof.memo_hit_ratio": "ratio",
    "proof.derivation_ms": "ms", "proof.check_ms": "ms",
    "cli.main_ms": "ms", "cli.start_ms": "ms",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []   # [name id, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.active = False

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def parent_name(self):
        """Name of the innermost open span, or None."""
        return self.names[self.spans[self.stack[-1]][0]] if self.stack \
            else None

    def open(self, name: str) -> list:
        nid = self._name_id(name)
        rec = [nid, perf_counter(), 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if on_result is not None:
                on_result(result)
            return result
        traced.__wrapped__ = fn
        return traced

    def merge(self, data: dict) -> None:
        """Append the spans and counts another process dumped, under the
        current span."""
        base = len(self.spans)
        root = self.stack[-1] if self.stack else -1
        for nid, start, end, parent in data["spans"]:
            self.spans.append([self._name_id(data["names"][nid]), start, end,
                               root if parent < 0 else base + parent])
        self.counts.update(data["counts"])

    def dump(self, path: str, **extra) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counts": dict(self.counts), **extra}, fh)


def _replace(original, wrapper) -> None:
    for modname, module in list(sys.modules.items()):
        if modname == "fdekit" or modname.startswith("fdekit."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def install(tracer: Tracer) -> list[str]:
    """Wrap fdekit in place; returns the names it could not find."""
    missing = []

    def members(result):
        # unary_term_functions may return what a nested term_functions
        # call built; count each clone once, at the outermost call
        if tracer.parent_name() not in TIMES["matrix.clone_ms"]:
            tracer.counts["matrix.clone_members"] += len(result)

    hooks = {
        "matrix.term_functions": members,
        "matrix.unary_term_functions": members,
        "laws.filter_strongly_regular": lambda r: tracer.counts.update(
            {"laws.filter_cubes": len(r.cubes)}),
    }
    for name in [n for group in TIMES.values() for n in group]:
        mod, _, attr = name.partition(".")
        if "." in attr:
            continue  # Prover methods, wrapped below
        original = getattr(importlib.import_module(f"fdekit.{mod}"), attr,
                           None)
        if original is None:
            missing.append(name)
            continue
        _replace(original, tracer.wrap(name, original, hooks.get(name)))

    matrix = importlib.import_module("fdekit.matrix")
    assignments = getattr(matrix, "assignments", None)
    if assignments is None:
        missing.append("matrix.assignments")
    else:
        def counted(*args, **kwargs):
            if not tracer.active:
                yield from assignments(*args, **kwargs)
                return
            counts = tracer.counts
            for point in assignments(*args, **kwargs):
                counts["matrix.points"] += 1
                yield point
        _replace(assignments, counted)

    prover = getattr(importlib.import_module("fdekit.proof"), "Prover", None)
    if prover is None:
        missing.append("proof.Prover")
        return missing
    provable, derivation = prover.provable, prover.derivation
    depth = {"provable": 0, "derivation": 0}

    def traced_provable(self, seq):
        if not tracer.active:
            return provable(self, seq)
        tracer.counts["proof.nodes"] += 1
        if depth["provable"]:
            return provable(self, seq)
        before = len(self.memo)
        depth["provable"] += 1
        rec = tracer.open("proof.Prover.provable")
        try:
            return provable(self, seq)
        finally:
            tracer.close(rec)
            depth["provable"] -= 1
            tracer.counts["proof.memo_added"] += len(self.memo) - before

    def traced_derivation(self, seq):
        if not tracer.active or depth["derivation"]:
            return derivation(self, seq)
        depth["derivation"] += 1
        rec = tracer.open("proof.Prover.derivation")
        try:
            return derivation(self, seq)
        finally:
            tracer.close(rec)
            depth["derivation"] -= 1

    prover.provable = traced_provable
    prover.derivation = traced_derivation
    return missing


def self_times(names: list, spans: list) -> dict:
    """Seconds of self time per span name."""
    child = [0.0] * len(spans)
    for nid, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: Counter = Counter()
    for i, (nid, start, end, parent) in enumerate(spans):
        out[names[nid]] += (end - start) - child[i]
    return out


def _outer_calls(names: list, spans: list, group: tuple) -> int:
    members = {i for i, n in enumerate(names) if n in group}
    return sum(1 for nid, _s, _e, parent in spans
               if nid in members
               and (parent < 0 or spans[parent][0] not in members))


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer metric, in its unit, from the recorded spans."""
    names, spans, counts = tracer.names, tracer.spans, tracer.counts
    selfs = self_times(names, spans)
    out = {}
    for metric, group in TIMES.items():
        out[metric] = 1000.0 * sum(selfs.get(n, 0.0) for n in group)
    for metric, timer in CALLS.items():
        group = _EVAL if timer is None else TIMES[timer]
        out[metric] = _outer_calls(names, spans, group)
    eval_s = (out["matrix.consequence_ms"] + out["matrix.equivalence_ms"]) \
        / 1000.0
    out["matrix.points"] = counts["matrix.points"]
    out["matrix.points_per_s"] = (counts["matrix.points"] / eval_s
                                  if eval_s else 0.0)
    out["matrix.clone_members"] = counts["matrix.clone_members"]
    out["laws.filter_cubes"] = counts["laws.filter_cubes"]
    nodes = counts["proof.nodes"]
    out["proof.nodes"] = nodes
    out["proof.memo_hits"] = nodes - counts["proof.memo_added"]
    out["proof.memo_hit_ratio"] = (out["proof.memo_hits"] / nodes
                                   if nodes else 0.0)
    out["cli.start_ms"] = counts["cli.start_ms"]
    return {name: out[name] for name in UNITS}
