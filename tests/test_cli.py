import contextlib
import hashlib
import io
import itertools
import json
import re
import shlex
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import _cell
from fdekit import bd, claims, laws, presets
from fdekit.cli import main
from fdekit.matrix import MAX_CLONE_ARITY, evaluate, matrix_to_json
from fdekit.proof import (
    BD, MAX_DERIVATION_DEPTH, RULE_IDS, Sequent, derivation_to_json, prove)
from fdekit.syntax import parse


def _nested_derivation(depth: int) -> str:
    """JSON text of Id nodes nested `depth` premises deep (json.dumps
    itself fails on deep nesting)."""
    node = ('{"rule": "Id", "principal": "p", '
            '"conclusion": {"left": ["p"], "right": ["p"]}')
    return (node + ', "premises": [') * depth + node + "}" + "]}" * depth


def _deep_matrix(levels: int) -> bytes:
    """A matrix file whose unary table is nested `levels` lists deep."""
    return ('{"values": ["t", "f"], "designated": ["t"], "connectives": '
            '{"c": {"arity": 1, "table": ' + "[" * levels + '"t"'
            + "]" * levels + "}}}").encode()


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestBasics:
    def test_readme_command_examples(self, capsys):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("## Command line", 1)[1]
        block = block.split("```sh\n", 1)[1].split("```", 1)[0]
        commands = [shlex.split(line, comments=True)
                    for line in block.splitlines()]
        commands = [argv for argv in commands if argv]
        assert len(commands) == 14
        for argv in commands:
            assert argv[0] == "fdekit"
            assert main(argv[1:]) in (0, 1), argv

    def test_parse(self, capsys):
        code, out = run(capsys, "parse", "~ (p&q) ->r")
        assert code == 0
        assert out.strip() == "~(p & q) -> r"

    def test_parse_error_exit_code(self, capsys):
        assert main(["parse", "p &"]) == 2
        assert main(["parse", "delta p"]) == 2  # not in the default signature

    @pytest.mark.parametrize("text, printed", [
        ("~" * 5000 + "p", "~" * 5000 + "p"),
        ("(" * 5000 + "p" + ")" * 5000, "p"),
        ("p" + " & p" * 5000, "p" + " & p" * 5000),
        ("p" + " | p" * 5000, "p" + " | p" * 5000),
    ], ids=["negations", "parentheses", "and-chain", "or-chain"])
    def test_parse_too_deep(self, capsys, text, printed):
        # no text is too deep: each is read and decided
        assert run(capsys, "parse", text) == (0, printed + "\n")
        assert run(capsys, "entails", f"{text} |- p") == (0, "YES\n")
        assert capsys.readouterr().err == ""

    def test_commands_at_nesting_limit(self, capsys):
        # 5,000 levels or links, far past the recursion limit
        for text in ("~" * 5000 + "p", "p" + " & p" * 5000,
                     "p" + " | p" * 5000):
            capsys.readouterr()
            assert run(capsys, "parse", text) == (0, text + "\n")
            assert run(capsys, "eval", "--assign", "p=b", text) == (0, "b\n")
            assert run(capsys, "prove", f"{text} |- {text}")[0] == 0
            assert run(capsys, "entails", f"{text} |- {text}") == (0, "YES\n")
            assert run(capsys, "equiv", text, "p") == (0, "YES\n")

    def test_usage_error(self, capsys):
        assert main(["no-such-command"]) == 2

    def test_eval(self, capsys):
        code, out = run(capsys, "eval", "--assign", "p=b", "--assign", "q=f",
                        "p -> q")
        assert code == 0 and out.strip() == "f"

    def test_eval_bad_value(self, capsys):
        assert main(["eval", "--assign", "p=x", "p"]) == 2


class TestVerdicts:
    def test_entails_yes(self, capsys):
        code, out = run(capsys, "entails", "p & q |- p")
        assert code == 0 and out.strip() == "YES"

    def test_entails_no_with_countermodel(self, capsys):
        code, out = run(capsys, "entails", "p, ~p |- bot")
        assert code == 1
        assert "p=b" in out

    def test_entails_json(self, capsys):
        code, out = run(capsys, "--json", "entails", "|- p | ~p")
        assert code == 1
        data = json.loads(out)
        assert data == {"entails": False, "countermodel": {"p": "n"}}

    def test_equiv(self, capsys):
        assert run(capsys, "equiv", "~(p & q)", "~p | ~q")[0] == 0
        assert run(capsys, "equiv", "~p", "p -> bot")[0] == 1

    def test_synonymous(self, capsys):
        code, out = run(capsys, "synonymous", "--matrix", "bd-impl-bot-delta",
                        "delta p", "~(p -> bot)")
        assert code == 0 and out.strip() == "YES"

    def test_synonymous_needs_polynomials(self, capsys, tmp_path):
        # simple, though no unary term separates 0 and 1: h(p1, 2) does
        table = [["3" if (a, b) == (1, 2) else "0" for b in range(4)]
                 for a in range(4)]
        path = tmp_path / "h.json"
        path.write_text(json.dumps({
            "values": ["0", "1", "2", "3"], "designated": ["3"],
            "connectives": {"and": {"arity": 2, "table": table}}}))
        assert run(capsys, "synonymous", "--matrix", str(path), "p",
                   "p & p") == (1, "NO\n")

    def test_definable(self, capsys):
        code, out = run(capsys, "--json", "definable",
                        "--matrix", "bd-impl-bot-delta", "--target", "delta",
                        "--using", "not,impl,bot")
        assert code == 0
        data = json.loads(out)
        assert data["definable"] is True
        m = presets.preset("bd-impl-bot-delta")
        witness = parse(data["witness"], m.signature)
        for a in m.values:
            assert evaluate(m, witness, {"p1": a}) == _cell(m, "delta", (a,))

    def test_not_definable(self, capsys):
        code, out = run(capsys, "definable", "--matrix", "bd-impl-bot-confl",
                        "--target", "confl",
                        "--using", "not,and,or,impl,bot")
        assert code == 1
        assert out == ("NOT DEFINABLE  reason: breaks the relation "
                       "{(t), (f), (n)}, which the allowed connectives "
                       "preserve\n")
        # by brute force: each allowed connective maps {t,f,n} into itself,
        # and conflation sends n to b
        m, tfn = presets.preset("bd-impl-bot-confl"), "tfn"
        for c in ["not", "and", "or", "impl", "bot"]:
            k = m.signature.arity(c)
            assert all(_cell(m, c, args) in tfn
                       for args in itertools.product(tfn, repeat=k)), c
        assert _cell(m, "confl", ("n",)) == "b"

    def test_not_definable_certificate(self, capsys):
        # impl from ~, &, |, B, N: the binary clone search gives no verdict
        # in 20 s, the relation check names the knowledge order at once
        start = time.perf_counter()
        code, out = run(capsys, "--json", "definable",
                        "--matrix", "bd-impl-b-n-bot", "--target", "impl",
                        "--using", "not,and,or,B,N")
        assert time.perf_counter() - start < 1
        assert code == 1
        reason = json.loads(out)["reason"]
        members = reason.split("{", 1)[1].split("}", 1)[0]
        knowledge_order = {(a, b) for a in bd.VALUES for b in bd.VALUES
                           if a == b or a == "n" or b == "b"}
        assert len(knowledge_order) == 9
        assert set(re.findall(r"\((\w),(\w)\)", members)) == knowledge_order
        assert members.count("(") == 9

    def test_interdef(self, capsys):
        code, _ = run(capsys, "interdef", "--a", "bd-impl-bot",
                      "--b", "bd-delta", "--common", "bd-impl-bot-delta")
        assert code == 0
        code, _ = run(capsys, "interdef", "--a", "bd-impl-bot",
                      "--b", "bd-confl", "--common", "bd-impl-bot-confl")
        assert code == 1

    @pytest.mark.parametrize("a,b,common", [
        ("lp", "bd", "bd-impl-bot"),
        ("cl-impl-bot", "bd-impl-bot", "bd-impl-bot")])
    def test_interdef_needs_a_common_expansion(self, capsys, a, b, common):
        # neither 3-valued LP nor 2-valued CL is a reduct of bd-impl-bot
        assert main(["interdef", "--a", a, "--b", b,
                     "--common", common]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [line.startswith("error:")
                for line in captured.err.splitlines()] == [True]

    def test_interdef_logic_from_file(self, capsys, tmp_path):
        # bd-impl-bot saved as a family member is a logic of the common
        # matrix; its neighbours by index, one and five cells away, are not
        for index, expected in [(13129950543, 0), (13129950542, 2),
                                (13129950544, 2)]:
            _, out = run(capsys, "--json", "sr-decode", str(index))
            path = tmp_path / f"{index}.json"
            path.write_text(out)
            assert main(["interdef", "--a", str(path), "--b", "bd-delta",
                         "--common", "bd-impl-bot-delta"]) == expected

    def test_interdef_logic_listing_its_values_in_another_order(
            self, tmp_path):
        # bd-impl-bot's JSON, its named tables nested over f, t, b, n
        order = ["f", "t", "b", "n"]

        def nest(table, k, args):
            if len(args) == k:
                return table[args]
            return [nest(table, k, args + (v,)) for v in order]

        data = matrix_to_json(presets.preset("bd-impl-bot"))
        data["values"] = order
        for name, entry in data["connectives"].items():
            entry["table"] = nest(bd.named(name).table, entry["arity"], ())
        path = tmp_path / "ftbn.json"
        for expected in (0, 2):
            path.write_text(json.dumps(data))
            assert main(["interdef", "--a", str(path), "--b", "bd-delta",
                         "--common", "bd-impl-bot-delta"]) == expected
            data["connectives"]["not"]["table"][0] = "b"  # ~f = b, not t

    @pytest.mark.parametrize("data", [
        [1],                                                 # not an object
        {"designated": ["t"], "connectives": {}},            # no values
        {"values": "tf", "designated": ["t"],
         "connectives": {"bot": {"arity": 0, "table": "f"}}},
        {"values": ["t", 1], "designated": ["t"],
         "connectives": {"bot": {"arity": 0, "table": "t"}}},
        {"values": [], "designated": [],                     # no cells
         "connectives": {"c": {"arity": 10 ** 18, "table": []}}},
        {"values": ["t", "f"], "connectives": {}},           # no designated
        {"values": ["t", "f"], "designated": ["t"]},         # no connectives
        {"values": ["t", "f"], "designated": ["t"],
         "connectives": {"not": {"arity": 1}}},              # no table
        {"values": ["t", "f"], "designated": ["t"],
         "connectives": {"not": {"arity": -1, "table": "f"}}},
        {"values": ["t", "f"], "designated": ["t"],
         "connectives": {"not": {"arity": True, "table": ["f", "t"]}}},
        {"values": ["t", "f"], "designated": ["t"],
         "connectives": {"not": {"arity": 1, "table": [["f"], "t"]}}},
        pytest.param(b"", id="empty"),                 # what /dev/null reads
        pytest.param(b"\xff\xfe{}", id="not-utf8"),
        # too deep for `json` before 3.12, a malformed table from 3.12 on
        pytest.param(_deep_matrix(1200), id="nested-1200"),
    ])
    def test_entails_malformed_matrix(self, capsys, tmp_path, data):
        path = tmp_path / "bad.json"
        path.write_bytes(
            data if isinstance(data, bytes) else json.dumps(data).encode())
        assert main(["entails", "--matrix", str(path), "p |- p"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read matrix file {path}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", [["clone", "--matrix"], ["sr-encode"]])
    def test_matrix_file_nested_too_deep(self, capsys, tmp_path, command):
        # json.load recurses once per level, past its limit on every
        # supported Python (json.dumps fails here too)
        path = tmp_path / "deep.json"
        path.write_bytes(_deep_matrix(100_000))
        assert main([*command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: cannot read matrix file {path}: "
                       "too deeply nested\n")

    def test_matrix_past_256_values(self, capsys, tmp_path):
        # value vectors hold one value index per byte
        values = [f"v{i}" for i in range(257)]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({
            "values": values, "designated": ["v0"],
            "connectives": {"not": {"arity": 1, "table": values[::-1]}}}))
        assert main(["clone", "--matrix", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "more than 256 truth values" in err

    def test_designated_value_outside_the_carrier(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({
            "values": ["t", "f"], "designated": ["x"],
            "connectives": {"not": {"arity": 1, "table": ["f", "t"]}}}))
        assert main(["entails", "--matrix", str(path), "p |- p"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'x'" in err

    def test_clone_arity_limit(self, capsys):
        assert main(["clone", "--matrix", "bd", "--arity",
                     str(MAX_CLONE_ARITY + 1)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"outside 0..{MAX_CLONE_ARITY}" in err

    def test_clone_using_an_unknown_generator(self, capsys):
        assert main(["clone", "--matrix", "bd", "--using", "not,nope"]) == 2
        assert capsys.readouterr().err == (
            "error: generator 'nope' not in the signature\n")

    @pytest.mark.parametrize("command", ["entails", "prove"])
    def test_sequent_without_turnstile(self, capsys, command):
        assert main([command, "p, q"]) == 2
        assert capsys.readouterr().err == (
            "error: sequent syntax is 'Gamma |- Delta'\n")

    def test_clone_using_nothing(self, capsys):
        # an empty list reads no connectives, as in definable
        assert run(capsys, "clone", "--matrix", "bd", "--using", "") == (
            0, "1 term functions of arity 1\n  t,f,b,n  <-  p1\n")


class TestProofCommands:
    def test_prove_and_exit_codes(self, capsys):
        assert run(capsys, "prove", "|- p -> p")[0] == 0
        assert run(capsys, "prove", "|- p | ~p")[0] == 1
        assert run(capsys, "prove", "--system", "CL", "|- p | ~p")[0] == 0

    def test_prove_prints_countermodel(self, capsys):
        assert run(capsys, "prove", "p, ~q |- q | r, bot") == (
            1, "NOT PROVED  countermodel: p=t, q=f, r=n\n")
        code, out = run(capsys, "--json", "prove", "--system", "CL",
                        "|- p | ~~q")
        assert code == 1 and json.loads(out) == {
            "proved": False, "countermodel": {"p": "f", "q": "f"}}

    def test_classical_negation_tower_answers_at_once(self, capsys):
        start = time.perf_counter()
        code, out = run(capsys, "prove", "--system", "CL",
                        "|- " + "~" * 24 + "p")
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "NOT PROVED  countermodel: p=f\n")

    @pytest.mark.parametrize("system", ["BD", "CL"])
    def test_deep_negations_prove_and_check(self, capsys, tmp_path, system):
        # the derivation is 201 premise levels deep
        sequent = ", ".join("~" * 100 + v for v in "pqr") + " |- " + \
            " & ".join(f"({'~' * 98}{v})" for v in "pqr")
        assert run(capsys, "prove", "--system", system, sequent)[0] == 0
        code, out = run(capsys, "--json", "prove", "--system", system,
                        sequent)
        assert code == 0
        path = tmp_path / "derivation.json"
        path.write_text(out)
        assert run(capsys, "check", str(path)) == (0, "VALID\n")

    def test_prove_json_checks(self, capsys, tmp_path):
        code, out = run(capsys, "--json", "prove", "~(p & q) |- ~p | ~q")
        assert code == 0
        path = tmp_path / "derivation.json"
        path.write_text(out)
        code, out = run(capsys, "check", str(path))
        assert code == 0 and out.strip() == "VALID"

    @pytest.mark.parametrize("data", [b"\xff\xfe{}", b"{", None],
                             ids=["not-utf8", "not-json", "missing"])
    def test_check_unreadable_file(self, capsys, tmp_path, data):
        path = tmp_path / "bad.json"
        if data is not None:
            path.write_bytes(data)
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read derivation file {path}: ")
        assert err.count("\n") == 1

    def test_check_stdin_stays_open(self, capsys, monkeypatch):
        derivation = run(capsys, "--json", "prove", "|- p -> p")[1]
        for _ in range(2):
            stdin = io.StringIO(derivation)
            monkeypatch.setattr("sys.stdin", stdin)
            assert run(capsys, "check", "-") == (0, "VALID\n")
            assert not stdin.closed

    def test_check_invalid(self, capsys, tmp_path):
        sig = presets.preset("bd-impl-bot").signature
        d = prove(Sequent.of([], [parse("p -> p", sig)]), BD)
        data = derivation_to_json(d, BD)
        data["rule"] = "or-R"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out = run(capsys, "check", str(path))
        assert code == 1 and "INVALID" in out

    @pytest.mark.parametrize("data", [
        [1],                                           # node not an object
        {"rule": "Id"},                                # no conclusion
        {"conclusion": {"left": ["p"], "right": ["p"]}},  # no rule
        {"rule": "Id", "conclusion": {"left": "p", "right": ["p"]}},
        {"rule": "Id", "conclusion": {"left": [1], "right": ["p"]}},
        {"rule": "Id", "conclusion": {"left": ["p"]}},
        {"rule": "Id", "conclusion": {"left": ["p"], "right": ["p"]},
         "principal": 3},
        {"rule": "Id", "conclusion": {"left": ["p"], "right": ["p"]},
         "premises": {}},
        {"rule": "and-L", "principal": "p & q",
         "conclusion": {"left": ["p & q"], "right": ["p"]}, "premises": [1]},
        {"system": "LP", "rule": "Id", "principal": "p",
         "conclusion": {"left": ["p"], "right": ["p"]}},
        pytest.param(_nested_derivation(MAX_DERIVATION_DEPTH + 1),
                     id="past-the-loader"),
        pytest.param(_nested_derivation(600), id="past-json-load"),
    ])
    def test_check_malformed(self, capsys, tmp_path, data):
        path = tmp_path / "bad.json"
        path.write_text(data if isinstance(data, str) else json.dumps(data))
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read derivation file {path}: ")
        assert err.count("\n") == 1

    def test_check_at_depth_limit(self, capsys, tmp_path):
        # and-L steps, one per conjunction a_i & a_i, down to an Id leaf
        # nested MAX_DERIVATION_DEPTH premises deep
        n = MAX_DERIVATION_DEPTH
        d = {"rule": "Id", "principal": "a0", "premises": []}
        for k in range(n + 1):
            d["conclusion"] = {"right": ["a0"], "left": [
                f"a{i} & a{i}" for i in range(k)] + [
                f"a{i}" for i in range(k, n)]}
            if k < n:
                d = {"rule": "and-L", "principal": f"a{k} & a{k}",
                     "premises": [d]}
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(d))
        assert run(capsys, "check", str(path)) == (0, "VALID\n")

    def test_derived_rule(self, capsys):
        assert run(capsys, "derived-rule", "not-and-R")[0] == 0
        assert run(capsys, "derived-rule", "--system", "BD", "not-and-R")[0] == 1


class TestFamilyCommands:
    def test_count(self, capsys):
        code, out = run(capsys, "count-sr")
        assert code == 0 and out.strip() == "274877906944"

    def test_decode_encode_round_trip(self, capsys, tmp_path):
        code, out = run(capsys, "--json", "sr-decode", "13129950543")
        assert code == 0
        path = tmp_path / "m.json"
        path.write_text(out)
        code, out = run(capsys, "sr-encode", str(path))
        assert code == 0 and out.strip() == "13129950543"

    def test_encode_a_preset(self, capsys):
        assert run(capsys, "--json", "sr-encode", "bd-impl-bot") == (
            0, '{"index": 13129950543}\n')

    def test_decode_matches_library(self, capsys):
        code, out = run(capsys, "--json", "sr-decode", "0")
        assert json.loads(out) == matrix_to_json(bd.sr_decode(0))

    def test_decode_out_of_range(self, capsys):
        assert main(["sr-decode", "-1"]) == 2
        assert capsys.readouterr().err == \
            "error: index -1 is outside 0..2^38-1\n"
        assert main(["sr-decode", str(2 ** 38)]) == 2
        assert capsys.readouterr().err == \
            "error: index 274877906944 is outside 0..2^38-1\n"

    def test_laws_filter_json(self, capsys):
        code, out = run(capsys, "--json", "laws-filter")
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 81
        assert 13129950543 in data["indices"]

    def test_laws_filter_single_law(self, capsys):
        code, out = run(capsys, "--json", "laws-filter",
                        "--law", "double-negation")
        assert code == 0
        assert json.loads(out)["count"] == 2 ** 36


# sha256 of the output of `fdekit --json repro` and of `fdekit repro`
REPRO_JSON_SHA256 = (
    "8796c6f9e55cec026689c9ec5a6d314898e23d89103823383a6f3f122d6ef523")
REPRO_TEXT_SHA256 = (
    "10b4c70f52770dd30efa6f6d098ff1467c6a8d818641bb003a051498216f8d28")


class TestRepro:
    def test_repro_all_pass(self, capsys):
        code, out = run(capsys, "--json", "repro")
        assert code == 0
        results = json.loads(out)
        assert len(results) == len(claims.CLAIMS)
        assert all(r["pass"] for r in results)
        assert hashlib.sha256(out.encode()).hexdigest() == REPRO_JSON_SHA256

    def test_repro_text_output(self, capsys):
        code, out = run(capsys, "repro")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == REPRO_TEXT_SHA256

    def test_repro_ignores_the_environment(self, capsys, monkeypatch):
        # the clone arity limit is a constant, which no variable lowers
        monkeypatch.setenv("FDEKIT_ARITY_CAP", "1")
        code, out = run(capsys, "--json", "repro")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == REPRO_JSON_SHA256


# Random token strings, and small well-formed formulas, for the subcommands
# that stay fast on small input.
# clone, definable and interdef are left out: some binary clones have no
# budget yet and run without end.
_VARIABLES = ("p", "q", "r", "s")
_TOKENS = _VARIABLES + (
    "~", "&", "|", "->", "(", ")", "bot", "top", "delta", "B", ",", "|-", "@")
_FORMULAS = st.one_of(
    st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=12).map(" ".join),
    st.recursive(st.sampled_from(_VARIABLES + ("bot",)), lambda sub: st.one_of(
        sub.map("~{}".format),
        st.tuples(sub, st.sampled_from(["&", "|", "->"]), sub).map(
            "({0[0]} {0[1]} {0[2]})".format)), max_leaves=4))
_SIDES = st.lists(_FORMULAS, max_size=2).map(", ".join)
_LAW_NAMES = [law.name for law in laws.TABLE2_LAWS + laws.CLASSICAL_ONLY_LAWS]


@st.composite
def _argv(draw) -> list:
    command = draw(st.sampled_from([
        "parse", "eval", "entails", "equiv", "synonymous", "prove",
        "derived-rule", "sr-decode", "count-sr", "laws-filter"]))
    argv = ["--json"] if draw(st.booleans()) else []
    argv.append(command)
    if command in ("parse", "eval", "entails", "equiv", "synonymous"):
        argv += ["--matrix", draw(st.sampled_from(
            ["bd", "bd-impl-bot", "bd-impl-bot-delta", "lp", "cl", "nope"]))]
    if command in ("prove", "derived-rule") and draw(st.booleans()):
        argv += ["--system", draw(st.sampled_from(["BD", "CL", "LP"]))]
    if command == "eval":
        for name in draw(st.lists(st.sampled_from(_VARIABLES), max_size=4)):
            value = draw(st.sampled_from(["t", "f", "b", "n", "x"]))
            argv += ["--assign", f"{name}={value}"]
    if command in ("parse", "eval"):
        argv.append(draw(_FORMULAS))
    elif command in ("equiv", "synonymous"):
        argv += [draw(_FORMULAS), draw(_FORMULAS)]
    elif command in ("entails", "prove"):
        argv.append(f"{draw(_SIDES)} |- {draw(_SIDES)}")
    elif command == "derived-rule":
        argv.append(draw(st.sampled_from([*RULE_IDS, "nope"])))
    elif command == "sr-decode":
        index = draw(st.integers(-1, 2 * bd.count_strongly_regular()))
        argv.append(str(index))
    elif command == "laws-filter":
        for name in draw(st.lists(st.sampled_from([*_LAW_NAMES, "nope"]),
                                  max_size=3)):
            argv += ["--law", name]
    return argv


class TestFuzz:
    @settings(max_examples=200, deadline=None)
    @given(_argv())
    def test_main_exits_0_1_or_2(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), argv
