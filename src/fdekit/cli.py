"""Command-line front door, and the only module that does I/O: `_load`
reads every matrix and derivation file (or stdin for `-`), and every
command prints through `_emit`, except `prove`'s text derivation.

Exit codes: 0 success / positive verdict, 1 negative verdict on yes-no
queries, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import (
    bd, claims, definability, laws, matrix as mx, presets, proof, syntax)
from .errors import FdekitError

EXIT_OK = 0
EXIT_NO = 1
EXIT_ERROR = 2


def _load(path: str, what: str, decode):
    """decode(the JSON in a UTF-8 file, or on stdin for -, which stays
    open); any failure, decode's too, is one FdekitError naming the file."""
    try:
        if path == "-":
            return decode(json.load(sys.stdin))
        with open(path, encoding="utf-8") as fh:
            return decode(json.load(fh))
    except RecursionError:
        reason = "too deeply nested"
    except (FdekitError, OSError, ValueError) as e:
        reason = str(e)
    raise FdekitError(f"cannot read {what} file {path}: {reason}")


def _get_matrix(spec: str) -> mx.Matrix:
    if spec in presets.PRESET_NAMES:
        return presets.preset(spec)
    if os.path.exists(spec):
        return _load(spec, "matrix", mx.matrix_from_json)
    raise FdekitError(
        f"{spec!r} is neither a preset ({', '.join(presets.PRESET_NAMES)}) "
        "nor a matrix file")


def _emit(args, data, text: str) -> None:
    print(json.dumps(data) if args.json else text)


def _verdict(args, ok: bool, data, text: str) -> int:
    """Print a yes-no verdict; exit 0 for yes and 1 for no."""
    _emit(args, data, text)
    return EXIT_OK if ok else EXIT_NO


# ---------------------------------------------------------------------------
# Subcommands, registered in help order: name -> (handler, help, arguments)

COMMANDS: dict = {}


def _arg(*flags, **options) -> tuple:
    """One `add_argument` call, kept for `build_parser`."""
    return flags, options


def command(name: str, help: str, *arguments):
    """Register the decorated handler as the subcommand `name`."""
    def register(fn):
        COMMANDS[name] = (fn, help, arguments)
        return fn
    return register


MATRIX = _arg("--matrix", default="bd-impl-bot")


def _system(default: str) -> tuple:
    return _arg("--system", choices=[proof.BD, proof.CL], default=default)


@command("parse", "parse and reprint a formula", MATRIX, _arg("formula"))
def cmd_parse(args) -> int:
    m = _get_matrix(args.matrix)
    f = syntax.parse(args.formula, m.signature)
    printed = syntax.print_formula(f)
    _emit(args, {"formula": printed}, printed)
    return EXIT_OK


@command("eval", "evaluate a formula under an assignment", MATRIX,
         _arg("--assign", action="append", metavar="VAR=VALUE"),
         _arg("formula"))
def cmd_eval(args) -> int:
    m = _get_matrix(args.matrix)
    f = syntax.parse(args.formula, m.signature)
    assignment = {}
    for item in args.assign or []:
        name, _, value = item.partition("=")
        assignment[name] = value
    value = mx.evaluate(m, f, assignment)
    _emit(args, {"value": value}, value)
    return EXIT_OK


def _countermodel_verdict(args, key: str, counter, no: str = "NO") -> int:
    if counter is None:
        return _verdict(args, True, {key: True}, "YES")
    shown = ", ".join(f"{k}={v}" for k, v in sorted(counter.items()))
    return _verdict(args, False, {key: False, "countermodel": counter},
                    f"{no}  countermodel: {shown}")


@command("entails", "decide a consequence query", MATRIX,
         _arg("sequent", help="'Gamma |- Delta', comma-separated"))
def cmd_entails(args) -> int:
    m = _get_matrix(args.matrix)
    seq = proof.Sequent.parse(args.sequent, m.signature)
    return _countermodel_verdict(
        args, "entails", mx.consequence_countermodel(m, seq.left, seq.right))


@command("equiv", "decide induced equivalence", MATRIX, _arg("lhs"), _arg("rhs"))
def cmd_equiv(args) -> int:
    m = _get_matrix(args.matrix)
    a = syntax.parse(args.lhs, m.signature)
    b = syntax.parse(args.rhs, m.signature)
    return _countermodel_verdict(
        args, "equivalent", mx.equivalence_countermodel(m, a, b))


@command("synonymous", "decide synonymity", MATRIX, _arg("lhs"), _arg("rhs"))
def cmd_synonymous(args) -> int:
    m = _get_matrix(args.matrix)
    a = syntax.parse(args.lhs, m.signature)
    b = syntax.parse(args.rhs, m.signature)
    verdict = definability.synonymous(m, a, b)
    return _verdict(args, verdict, {"synonymous": verdict},
                    "YES" if verdict else "NO")


@command("definable", "is a connective definable from others?",
         _arg("--matrix", required=True), _arg("--target", required=True),
         _arg("--using", required=True, metavar="NAMES"))
def cmd_definable(args) -> int:
    m = _get_matrix(args.matrix)
    allowed = args.using.split(",") if args.using else []
    verdict = definability.definable(m, args.target, allowed)
    if verdict.definable:
        witness = syntax.print_formula(verdict.witness)
        return _verdict(args, True, {"definable": True, "witness": witness},
                        f"DEFINABLE  witness: {witness}")
    reason = verdict.reason
    return _verdict(args, False, {"definable": False, "reason": reason},
                    f"NOT DEFINABLE  reason: {reason}")


@command("interdef", "interdefinability of two logics",
         _arg("--a", required=True), _arg("--b", required=True),
         _arg("--common", required=True))
def cmd_interdef(args) -> int:
    verdict = definability.interdefinable(
        _get_matrix(args.a), _get_matrix(args.b), _get_matrix(args.common))
    return _verdict(args, verdict, {"interdefinable": verdict},
                    "INTERDEFINABLE" if verdict else "NOT INTERDEFINABLE")


@command("clone", "list term functions of an arity",
         _arg("--matrix", required=True), _arg("--arity", type=int, default=1),
         _arg("--using", metavar="NAMES"))
def cmd_clone(args) -> int:
    m = _get_matrix(args.matrix)
    if args.using is None:
        gens = list(m.signature.connectives)
    else:
        gens = args.using.split(",") if args.using else []
    funcs = [(tf.table, syntax.print_formula(tf.witness)) for tf in sorted(
        mx.term_functions(m, args.arity, gens), key=lambda tf: tf.table)]
    _emit(args, [{"table": list(table), "witness": witness}
                 for table, witness in funcs],
          "\n".join([f"{len(funcs)} term functions of arity {args.arity}",
                     *(f"  {','.join(table)}  <-  {witness}"
                       for table, witness in funcs)]))
    return EXIT_OK


@command("prove", "backward proof search", _system(proof.BD), _arg("sequent"))
def cmd_prove(args) -> int:
    seq = proof.Sequent.parse(args.sequent)
    prover = proof.Prover(args.system)
    d = prover.derivation(seq)
    if d is None:
        return _countermodel_verdict(
            args, "proved", prover.countermodel(seq), "NOT PROVED")
    if args.json:
        print(json.dumps(proof.derivation_to_json(d, args.system)))
    else:
        print("PROVED")
        _print_derivation(d)
    return EXIT_OK


def _print_derivation(d: proof.Derivation) -> None:
    stack = [(d, 0)]
    while stack:
        x, indent = stack.pop()
        principal = ("" if x.principal is None
                     else f"  [{syntax.print_formula(x.principal)}]")
        print(f"{'  ' * indent}{x.rule}{principal}: {x.conclusion}")
        stack.extend((p, indent + 1) for p in reversed(x.premises))


@command("check", "check a derivation JSON file",
         _arg("file", help="path or - for stdin"))
def cmd_check(args) -> int:
    d, system = _load(args.file, "derivation", proof.derivation_from_json)
    ok, path = proof.check_with_path(d, system)
    if ok:
        return _verdict(args, True, {"valid": True}, "VALID")
    return _verdict(args, False, {"valid": False, "path": path},
                    f"INVALID  first offending node at path {path}")


@command("derived-rule", "is a negation rule derivable?",
         _system(proof.CL), _arg("rule"))
def cmd_derived_rule(args) -> int:
    verdict = proof.derived_rule_check(args.rule, args.system)
    return _verdict(args, verdict, {"derived": verdict},
                    "DERIVED" if verdict else "NOT DERIVED")


@command("count-sr", "size of the strongly regular family")
def cmd_count_sr(args) -> int:
    count = bd.count_strongly_regular()
    _emit(args, {"count": count}, str(count))
    return EXIT_OK


@command("sr-decode", "family index to matrix JSON", _arg("index", type=int))
def cmd_sr_decode(args) -> int:
    data = mx.matrix_to_json(bd.sr_decode(args.index))
    _emit(args, data, json.dumps(data, indent=2))
    return EXIT_OK


@command("sr-encode", "preset or matrix file to family index", _arg("file"))
def cmd_sr_encode(args) -> int:
    index = bd.sr_encode(_get_matrix(args.file))
    _emit(args, {"index": index}, str(index))
    return EXIT_OK


@command("laws-filter", "family members satisfying the chosen laws",
         _arg("--law", action="append",
              help="law name; repeatable; default: all 13"))
def cmd_laws_filter(args) -> int:
    selected = ([laws.law_by_name(name) for name in args.law]
                if args.law else list(laws.TABLE2_LAWS))
    result = laws.filter_strongly_regular(selected)
    data = {"all": result.is_all, "count": result.count}
    if not result.is_all and result.count <= laws.VERIFY_LIMIT:
        data["indices"] = list(result.indices())
    _emit(args, data, f"{result.count} surviving matrices")
    return EXIT_OK


@command("repro", "run the full reproducibility checklist")
def cmd_repro(args) -> int:
    results = [{"item": name, "pass": bool(check())}
               for name, check in claims.CLAIMS]
    text = "\n".join(f"{'PASS' if r['pass'] else 'FAIL'}  {r['item']}"
                     for r in results)
    return _verdict(args, all(r["pass"] for r in results), results, text)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdekit",
        description="Workbench for Belnap-Dunn logic and its expansions")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_ERROR if e.code else EXIT_OK
    try:
        return args.fn(args)
    except (FdekitError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
