import importlib
import inspect
import io
import json
import os
import pkgutil
import subprocess
import sys
import time

import pytest

import chainlogic
from chainlogic import (
    ExplicitChainProtocol,
    cli,
    corpus,
    parse,
    protocol_to_dict,
    script_to_dict,
    search,
)
from chainlogic.cli import run_cli

from conftest import gateway_countermodel


@pytest.fixture
def protocol_file(tmp_path):
    path = tmp_path / "countermodel.json"
    path.write_text(json.dumps(protocol_to_dict(gateway_countermodel())), encoding="utf-8")
    return str(path)


@pytest.fixture
def prop4_file(tmp_path):
    path = tmp_path / "prop4.json"
    path.write_text(json.dumps(script_to_dict(corpus()["prop4"])), encoding="utf-8")
    return str(path)


@pytest.fixture
def broken_script_file(tmp_path):
    doc = script_to_dict(corpus()["prop1"])
    doc["lines"][0]["rule"]["k"] = 1  # instance no longer matches the formula
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = run_cli(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--json"])
    return code, json.loads(out)


def test_scope_prints_channel_set(capsys):
    code, out, _ = run(capsys, ["scope", "[2]([3]p@3 -> [4]q@4)"])
    assert code == 0
    assert out.strip() == "{2}"


def test_scope_empty_and_multi(capsys):
    code, out, _ = run(capsys, ["scope", "false"])
    assert (code, out.strip()) == (0, "{}")
    code, out, _ = run(capsys, ["scope", "[1]p@1 -> [2]q@2"])
    assert (code, out.strip()) == (0, "{1, 2}")


def test_scope_parse_error_exits_2(capsys):
    code, _, err = run(capsys, ["scope", "[x]p"])
    assert code == 2
    assert "offset 1" in err


def test_huge_channel_index_exits_2_with_its_offset(capsys):
    code, out, err = run(capsys, ["scope", "p@" + "9" * 5000])
    assert (code, out, err) == (
        2, "", "error: channel index outside the representable range (at offset 2)\n"
    )
    code, out, err = run(capsys, ["scope", "p@" + "0" * 5000 + "1"])
    assert (code, out, err) == (0, "{1}\n", "")


def test_deeply_nested_formula_exits_2(capsys):
    # Despite the name, depth is no error: no formula walker recurses.
    code, out, err = run(capsys, ["scope", "!" * 5000 + "p@0"])
    assert (code, out, err) == (0, "{0}\n", "")


@pytest.mark.parametrize("verb", ["prove --script", "valid --formula p@0 --protocol"])
def test_deeply_nested_json_exits_2(capsys, tmp_path, verb):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    code, out, err = run(capsys, verb.split() + [str(path)])
    assert (code, out, err) == (2, "", "error: input nested too deeply\n")


@pytest.mark.parametrize(
    "verb, extra, code, text",
    [
        ("eval", ["--run", "a,a"], 0, "true\n"),
        ("valid", [], 1, "invalid\ncounterexample: a,b\n"),
        ("counterexample", [], 1, "a,b\n"),
    ],
    ids=["eval", "valid", "counterexample"],
)
def test_nested_boxes_get_an_answer(capsys, verb, extra, code, text):
    # Each nested box costs two frames: 400 fit the default recursion
    # limit, 3,000 do not.
    base = ["telephone", "--len", "1", "--alphabet", "ab", "--chain", "2", verb] + extra
    formula = "[1]" * 400 + "eq_a@1"
    assert run(capsys, base + ["--formula", formula]) == (code, text, "")
    formula = "[1]" * 3000 + "eq_a@1"
    assert run(capsys, base + ["--formula", formula]) == (
        2, "", "error: input nested too deeply\n"
    )


def test_falsify_walks_only_a_refuting_candidate(capsys):
    # Exhaustive falsify decides its candidates and names the witness run
    # without a walk, so formulas with 3,000 nested boxes get their answer,
    # valid or refuted.
    base = ["falsify", "--channels", "2", "--max-values", "2", "--formula"]
    code, out, err = run(capsys, base + ["(" + "[0]" * 3000 + "p@0) -> p@0"])
    assert (code, err) == (0, "")
    assert out.startswith("no countermodel")
    code, out, err = run(capsys, base + ["[0]" * 3000 + "p@0"])
    assert (code, err) == (1, "")
    assert out.rstrip("\n").endswith("run: a,a")


def test_repeated_falsify_compares_no_more_formulas(capsys, monkeypatch):
    # Each call parses its formula afresh. The compiled-plan cache must not
    # hold the first call's formula as a key that every later call then
    # compares structurally, once per candidate checked.
    from chainlogic import formula

    compared = []
    for cls in (formula.Atom, formula.Implies, formula.Box):
        def counted(self, other, real=cls.__eq__):
            compared.append(1)
            return real(self, other)

        monkeypatch.setattr(cls, "__eq__", counted)
    argv = [
        "falsify", "--formula", "[0][2]p@2 -> [0][1]!![2]p@2",
        "--channels", "3", "--max-values", "2", "--atoms", "1",
    ]
    counts = []
    for _ in range(3):
        del compared[:]
        assert run(capsys, argv)[0] == 0
        counts.append(len(compared))
    assert counts[1] <= counts[0] and counts[2] <= counts[0], counts


def test_every_library_error_is_a_value_error():
    # run_cli turns ValueError and OSError into exit 2 with one clause.
    errors = [
        cls
        for info in pkgutil.iter_modules(chainlogic.__path__)
        for _, cls in inspect.getmembers(
            importlib.import_module("chainlogic." + info.name), inspect.isclass
        )
        if issubclass(cls, BaseException) and cls.__module__.startswith("chainlogic")
    ]
    assert {cls.__name__ for cls in errors} == {
        "FormulaSyntaxError", "VariableLimitError", "ProtocolFormatError",
        "ValueDomainError", "ProofFormatError", "SearchSpaceError",
        "UndeclaredAtomError", "StrictWindowError", "_UsageError",
    }
    assert all(issubclass(cls, ValueError) for cls in errors)


CONJUNCTS = 20_000
PHONE = ["telephone", "--len", "1", "--alphabet", "ab", "--chain", "2"]


@pytest.mark.parametrize(
    "argv, code, text",
    [
        (["scope"], 0, "{1}"),
        (PHONE + ["eval", "--run", "a,a", "--formula"], 0, "true"),
        (PHONE + ["eval", "--run", "a,b", "--formula"], 1, "false"),
        (PHONE + ["valid", "--formula"], 1, "invalid\ncounterexample: a,b"),
        (PHONE + ["counterexample", "--formula"], 1, "a,b"),
    ],
)
def test_long_conjunctions_get_an_answer(capsys, argv, code, text):
    """20,000 conjuncts nest 40,000 implications deep."""
    formula = " & ".join(["!eq_b@1"] * CONJUNCTS)
    assert run(capsys, argv + [formula]) == (code, text + "\n", "")


def test_long_conjunctions_falsify_and_prove(capsys, tmp_path):
    formula = " & ".join(["p@0"] * CONJUNCTS)
    argv = ["falsify", "--channels", "1", "--max-values", "1", "--atoms", "1", "--formula"]
    code, payload = run_json(capsys, argv + [formula])
    assert (code, payload["run"], payload["protocol"]["channels"][0]["atoms"]) == (1, ["a"], {"p": []})
    goal = " & ".join(["true"] * CONJUNCTS)
    line = {"id": 1, "formula": goal, "rule": {"type": "taut"}}
    path = tmp_path / "taut.json"
    path.write_text(json.dumps({"goal": goal, "lines": [line]}), encoding="utf-8")
    assert run(capsys, ["prove", "--script", str(path)]) == (0, "accepted\n", "")


def test_deep_premise_script_gets_an_answer(capsys, tmp_path):
    # X nests 100,000 boxes. Line 3 and the goal repeat line 1's text, and
    # line 2 states X on both sides; loading, rendering, hashing and
    # comparing them all run from explicit stacks.
    x = "[1]" * 100_000 + "p@0"
    lines = [
        {"id": 1, "formula": x, "rule": {"type": "premise"}},
        {"id": 2, "formula": f"({x} -> {x})", "rule": {"type": "taut"}},
        {"id": 3, "formula": x, "rule": {"type": "mp", "from": 1, "impl": 2}},
    ]
    path = tmp_path / "deep.json"
    path.write_text(
        json.dumps({"goal": x, "premises_allowed": True, "lines": lines}), encoding="utf-8"
    )
    start = time.perf_counter()
    assert run(capsys, ["prove", "--script", str(path)]) == (0, "accepted\n", "")
    assert time.perf_counter() - start < 10


def test_eval_true_and_false(capsys, protocol_file):
    base = ["eval", "--protocol", protocol_file, "--run", "u,x,z"]
    code, out, _ = run(capsys, base + ["--formula", "[1]p@0"])
    assert (code, out.strip()) == (0, "true")
    code, out, _ = run(capsys, base + ["--formula", "[2]p@0"])
    assert (code, out.strip()) == (1, "false")


def test_eval_rejects_non_run(capsys, protocol_file):
    code, _, err = run(
        capsys,
        ["eval", "--protocol", protocol_file, "--run", "u,y,z", "--formula", "p@0"],
    )
    assert code == 2
    assert "not a run" in err


def test_eval_rejects_unknown_value(capsys, protocol_file):
    code, _, err = run(
        capsys,
        ["eval", "--protocol", protocol_file, "--run", "u,x,BAD", "--formula", "p@0"],
    )
    assert code == 2


def test_valid_and_counterexample(capsys, protocol_file):
    code, out, _ = run(
        capsys, ["valid", "--protocol", protocol_file, "--formula", "p@0 | !p@0"]
    )
    assert (code, out.strip()) == (0, "valid")
    code, out, _ = run(
        capsys,
        ["valid", "--protocol", protocol_file, "--formula", "[1]p@0 -> [2]p@0"],
    )
    assert code == 1
    assert "counterexample: u,x,z" in out


def test_prove_accepted(capsys, prop4_file):
    code, out, _ = run(capsys, ["prove", "--script", prop4_file])
    assert (code, out.strip()) == (0, "accepted")


def test_prove_rejected(capsys, broken_script_file):
    code, out, _ = run(capsys, ["prove", "--script", broken_script_file])
    assert code == 1
    assert out.startswith("rejected at line 1")


def test_prove_malformed_json_exits_2(capsys, tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, ["prove", "--script", str(path)])
    assert code == 2
    code, _, err = run(capsys, ["prove", "--script", str(tmp_path / "absent.json")])
    assert code == 2


def test_prove_string_premises_allowed_exits_2(capsys, tmp_path):
    doc = {
        "goal": "p@0",
        "premises_allowed": "false",
        "lines": [{"id": 1, "formula": "p@0", "rule": {"type": "premise"}}],
    }
    path = tmp_path / "premise.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, ["prove", "--script", str(path)])
    assert (code, out) == (2, "")
    assert "premises_allowed" in err


def test_prove_non_string_formula_exits_2(capsys, tmp_path):
    doc = {"goal": "p@0", "lines": [{"id": 1, "formula": 5, "rule": {"type": "taut"}}]}
    path = tmp_path / "numeric.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, ["prove", "--script", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and '"formula"' in err


def test_prove_script_without_lines_is_rejected(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"goal": "p@0", "lines": []}), encoding="utf-8")
    assert run(capsys, ["prove", "--script", str(path)]) == (
        1, "rejected at line 0: script has no lines\n", ""
    )
    code, doc = run_json(capsys, ["prove", "--script", str(path)])
    assert (code, doc["accepted"], doc["line"], doc["reason"]) == (
        1, False, 0, "script has no lines"
    )


@pytest.mark.parametrize(
    "name, schema, key", [("prop4", "gateway", "n"), ("prop5", "distributivity", "psi")]
)
def test_prove_axiom_without_its_parameter_exits_2(capsys, tmp_path, name, schema, key):
    doc = script_to_dict(corpus()[name])
    rule = next(line["rule"] for line in doc["lines"] if line["rule"].get("schema") == schema)
    del rule[key]
    path = tmp_path / "axiom.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    error = f"error: schema {schema!r} needs parameter {key!r}\n"
    for extra in ([], ["--json"]):
        assert run(capsys, ["prove", "--script", str(path), *extra]) == (2, "", error)


@pytest.mark.parametrize(
    "edit,where",
    [
        (lambda doc: doc["lines"][1].update(formula="p@"), 'line 2: "formula"'),
        (lambda doc: doc.update(goal="p@"), 'proof script: "goal"'),
        (lambda doc: doc["lines"][0]["rule"].update(phi="p@"), 'line 1: "phi"'),
    ],
    ids=["line", "goal", "phi"],
)
def test_prove_formula_syntax_error_names_its_place(capsys, tmp_path, edit, where):
    doc = script_to_dict(corpus()["prop4"])
    assert doc["lines"][0]["rule"]["type"] == "axiom"
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, ["prove", "--script", str(path)])
    assert (code, out, err) == (2, "", f"error: {where}: expected a channel index (at offset 2)\n")


def test_protocol_format_error_exits_2(capsys, tmp_path):
    doc = protocol_to_dict(gateway_countermodel())
    doc["surprise"] = True
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(
        capsys, ["eval", "--protocol", str(path), "--run", "u,x,z", "--formula", "p@0"]
    )
    assert code == 2
    assert "unknown keys" in err


def test_falsify_found(capsys):
    code, out, _ = run(
        capsys,
        ["falsify", "--formula", "[1]p@0 -> [2]p@0", "--channels", "3", "--max-values", "2"],
    )
    assert code == 1
    assert "countermodel found" in out
    assert "run:" in out


def test_falsify_not_found(capsys):
    code, out, _ = run(
        capsys,
        [
            "falsify", "--formula", "[0]p@1 -> [1]p@1",
            "--channels", "2", "--max-values", "2",
            "--seed", "3", "--samples", "60", "--budget", "60",
        ],
    )
    assert code == 0
    assert "no countermodel" in out
    assert "proves nothing" in out


def test_falsify_random_mode_found(capsys):
    # Sample 14 of seed 3 is the first the walk refutes; the payload shows
    # it and its witness as the library returns them.
    code, doc = run_json(
        capsys,
        [
            "falsify", "--formula", "[1]p@0 -> [2]p@0",
            "--channels", "3", "--max-values", "2",
            "--seed", "3", "--samples", "60", "--budget", "60",
        ],
    )
    bounds = search.SearchBounds(3, 2, 1, mode=search.RandomMode(3, 60))
    p, witness = search.falsify(parse("[1]p@0 -> [2]p@0"), bounds, 60)
    assert (code, doc["found"]) == (1, True)
    assert doc["protocol"] == protocol_to_dict(p)
    assert doc["run"] == list(witness) == ["a", "b", "a"]


def test_falsify_help_describes_every_option(capsys):
    code, out, _ = run(capsys, ["falsify", "--help"])
    assert code == 0
    for option, text in (
        ("--formula", "formula to refute"),
        ("--atoms", "(default: 1)"),
        ("--seed", "needs --samples"),
        ("--samples", "needs --seed"),
        ("--budget", "skipped candidates included"),
        ("--budget", "(default: 100,000)"),
    ):
        assert option in out and text in " ".join(out.split()), (option, text)


def test_falsify_seed_without_samples_exits_2(capsys):
    code, _, err = run(
        capsys,
        ["falsify", "--formula", "p@0", "--channels", "1", "--max-values", "2", "--seed", "1"],
    )
    assert code == 2


def test_falsify_negative_samples_exits_2(capsys):
    code, out, err = run(
        capsys,
        [
            "falsify", "--formula", "p@0", "--channels", "1", "--max-values", "2",
            "--seed", "1", "--samples", "-5",
        ],
    )
    assert (code, out) == (2, "")
    assert "samples" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["scope", "p@0"],
        ["prove", "--script", "missing.json"],
        ["falsify", "--formula", "p@0", "--channels", "1", "--max-values", "1"],
    ],
)
def test_strict_window_only_where_it_is_read(capsys, argv):
    code, out, err = run(capsys, argv + ["--strict-window"])
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --strict-window" in err


def test_telephone_eval(capsys):
    code, out, _ = run(
        capsys,
        [
            "telephone", "--len", "4", "--alphabet", "latin", "--chain", "3",
            "eval", "--run", "byte,bite,cite", "--formula", "[0]!(eq_book@2)",
        ],
    )
    assert (code, out.strip()) == (0, "true")


def test_telephone_valid_small(capsys):
    code, out, _ = run(
        capsys,
        [
            "telephone", "--len", "1", "--alphabet", "ab", "--chain", "2",
            "valid", "--formula", "eq_a@0 | !eq_a@0",
        ],
    )
    assert (code, out.strip()) == (0, "valid")


def test_telephone_counterexample(capsys):
    code, out, _ = run(
        capsys,
        [
            "telephone", "--len", "1", "--alphabet", "ab", "--chain", "2",
            "counterexample", "--formula", "[0]eq_a@0",
        ],
    )
    assert code == 1
    assert out.strip() == "b,a"


@pytest.mark.parametrize(
    "verb, formula, code, text, payload",
    [
        ("valid", "eq_a@0 | eq_b@0", 0, "valid\n",
         {"command": "valid", "formula": "eq_a@0 | eq_b@0", "valid": True, "counterexample": None}),
        ("valid", "[1]eq_a@0", 1, "invalid\ncounterexample: a,a\n",
         {"command": "valid", "formula": "[1]eq_a@0", "valid": False, "counterexample": ["a", "a"]}),
        ("counterexample", "eq_a@0 | eq_b@0", 0, "none: the formula is valid on this protocol\n",
         {"command": "counterexample", "formula": "eq_a@0 | eq_b@0", "found": False, "run": None}),
        ("counterexample", "[1]eq_a@0", 1, "a,a\n",
         {"command": "counterexample", "formula": "[1]eq_a@0", "found": True, "run": ["a", "a"]}),
    ],
)
def test_valid_and_counterexample_reports(capsys, verb, formula, code, text, payload):
    argv = ["telephone", "--len", "1", "--alphabet", "ab", "--chain", "2", verb, "--formula", formula]
    assert run(capsys, argv) == (code, text, "")
    assert run(capsys, argv + ["--json"]) == (code, json.dumps(payload) + "\n", "")


@pytest.mark.parametrize(
    "verb, extra",
    [("eval", ["--run", "a,a,a"]), ("valid", []), ("counterexample", [])],
)
def test_alphabet_with_a_comma_exits_2(capsys, verb, extra):
    # "," separates the words of --run and of a printed run, so a word
    # holding it could be printed but never given back.
    argv = ["telephone", "--len", "1", "--alphabet", "a,b", "--chain", "3", verb]
    code, out, err = run(capsys, argv + extra + ["--formula", "eq_a@0"])
    assert (code, out) == (2, "")
    assert err == "error: --alphabet cannot contain ','\n"


@pytest.mark.parametrize("verb, extra", [("eval", ["--run", "a,b,d"]), ("valid", [])])
def test_protocol_value_with_a_comma_exits_2(capsys, tmp_path, verb, extra):
    # The run ("a,b", "d") would be printed as a,b,d, which --run reads as
    # three values.
    p = ExplicitChainProtocol((0, 1), {0: ["a,b"], 1: ["d"]}, {1: [("a,b", "d")]}, {0: {"p": []}})
    path = tmp_path / "comma.json"
    path.write_text(json.dumps(protocol_to_dict(p)), encoding="utf-8")
    argv = [verb, "--protocol", str(path), *extra, "--formula", "p@0"]
    assert run(capsys, argv) == (2, "", "error: protocol values cannot contain ','\n")


def test_named_alphabet_matches_the_library(capsys):
    # The witness test_a_named_alphabet_is_resolved pins for the library.
    argv = ["telephone", "--len", "3", "--alphabet", "latin", "--chain", "4",
            "counterexample", "--formula", "!eq_aab@2"]
    assert run(capsys, argv) == (1, "aaa,aaa,aab,aaa\n", "")


def test_falsify_on_a_long_chain_finishes():
    # One candidate on 20,000 channels: its block's runs are listed in time
    # linear in the channel count, so the scan answers within the timeout.
    done = subprocess.run(
        [sys.executable, "-m", "chainlogic", "falsify", "--formula", "false -> false",
         "--channels", "20000", "--max-values", "1", "--atoms", "0"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__))),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("no countermodel")


def test_falsify_negative_budget_exits_2(capsys):
    code, out, err = run(
        capsys,
        ["falsify", "--formula", "p@0", "--channels", "2", "--max-values", "2", "--budget", "-1"],
    )
    assert (code, out) == (2, "")
    assert "budget" in err


def test_counterexample_on_a_long_chain(capsys):
    # 1,200 channels: neither the walk nor run enumeration may recurse per channel.
    code, out, err = run(
        capsys,
        [
            "telephone", "--len", "1", "--alphabet", "ab", "--chain", "1200",
            "counterexample", "--formula", "eq_b@0",
        ],
    )
    assert (code, err) == (1, "")
    assert out.strip() == ",".join(["a"] * 1200)


@pytest.mark.parametrize(
    "verb, extra",
    [("eval", ["--run", "a,a,a"]), ("valid", []), ("counterexample", [])],
)
def test_unreached_leaves_exit_2(capsys, verb, extra):
    # Checked before evaluation, so short-circuiting does not hide them.
    base = ["telephone", "--len", "1", "--alphabet", "ab", "--chain", "3", verb]
    for tail in (
        ["--formula", "false -> eq_zz@0"],
        ["--formula", "false -> [9]eq_a@0", "--strict-window"],
    ):
        code, out, err = run(capsys, base + extra + tail)
        assert (code, out) == (2, ""), tail
        assert err


def test_usage_error_exits_2(capsys):
    assert run_cli(["frobnicate"]) == 2
    assert run_cli([]) == 2


def test_argparse_output_goes_to_the_given_streams(capsys):
    for argv, message in (
        (["scope", "-[true"], "chainlogic scope: error: "),
        (["eval", "--protocol", "p.json", "--formula", "p@0"], "chainlogic eval: error: "),
    ):
        out, err = io.StringIO(), io.StringIO()
        assert run_cli(argv, stdout=out, stderr=err) == 2, argv
        assert out.getvalue() == "", argv
        assert message in err.getvalue().splitlines()[-1], argv
    out, err = io.StringIO(), io.StringIO()
    assert run_cli(["--help"], stdout=out, stderr=err) == 0
    assert out.getvalue().startswith("usage: chainlogic ") and err.getvalue() == ""
    # The shared parser still answers once an argparse error has unwound.
    out, err = io.StringIO(), io.StringIO()
    assert run_cli(["scope", "[1]p@1 -> [2]q@2"], stdout=out, stderr=err) == 0
    assert (out.getvalue(), err.getvalue()) == ("{1, 2}\n", "")
    # Nothing reached the process streams, and they are restored.
    assert capsys.readouterr() == ("", "")
    print("out")
    print("err", file=sys.stderr)
    assert capsys.readouterr() == ("out\n", "err\n")


def test_parser_is_built_once(monkeypatch):
    built = []
    real = cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    monkeypatch.setattr(cli, "_parser", None)
    for argv, code in ((["scope", "p@0"], 0), (["frobnicate"], 2), (["scope", "p@1"], 0)):
        assert run_cli(argv, stdout=io.StringIO(), stderr=io.StringIO()) == code
    assert built == [1]


def test_falsify_embeds_once(monkeypatch):
    # The CLI embeds the formula and hands falsify the embedded form, which
    # has its lowest channel at 0 and so is not shifted again.
    shifts = []
    real = search.shift_channels

    def counting(f, delta):
        shifts.append(delta)
        return real(f, delta)

    monkeypatch.setattr(search, "shift_channels", counting)
    cases = (
        ("p@1 -> [2]p@1", [-1], 1, "(p@0 -> [1]p@0)"),
        ("p@0 -> [1]p@0", [], 1, "(p@0 -> [1]p@0)"),
        ("[4]p@5 -> [5]p@5", [-4], 0, None),
        ("[0]p@1 -> [1]p@1", [], 0, None),
    )
    for formula, expected, code, checked in cases:
        del shifts[:]
        out = io.StringIO()
        argv = ["falsify", "--formula", formula, "--channels", "2", "--max-values", "2",
                "--atoms", "1", "--json"]
        assert run_cli(argv, stdout=out, stderr=io.StringIO()) == code, formula
        assert shifts == expected, formula
        assert json.loads(out.getvalue()).get("checked_formula") == checked


def test_importing_the_cli_builds_no_parser():
    probe = "import chainlogic.cli as c; print(c._parser is None)"
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__))),
    )
    assert done.stdout == "True\n", done.stderr


def test_python_dash_m_runs_the_cli():
    done = subprocess.run(
        [sys.executable, "-m", "chainlogic", "scope", "[2]([3]p@3 -> [4]q@4)"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__))),
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "{2}\n", "")


# Runs the verb in argv (nothing when argv is empty) in a fresh interpreter
# and prints its exit code, the chainlogic submodules it loaded, and
# whether it loaded dataclasses or inspect (which dataclasses imports).
_LOADED_PROBE = """
import io, json, sys
from chainlogic.cli import run_cli
code = run_cli(sys.argv[1:], stdout=io.StringIO()) if sys.argv[1:] else None
print(json.dumps([
    code,
    sorted(m for m in sys.modules if m.startswith("chainlogic.")),
    [m for m in ("dataclasses", "inspect") if m in sys.modules],
]))
"""


@pytest.mark.parametrize(
    "argv, code, loaded, not_loaded",
    [
        ([], None, [], ["search", "proofcheck", "propositional"]),
        (["scope", "[2]p@3"], 0, [], ["search", "proofcheck", "propositional"]),
        (["eval", "--protocol", "{protocol}", "--run", "u,x,z", "--formula", "p@0"],
         0, [], ["search", "proofcheck", "propositional"]),
        (PHONE + ["eval", "--run", "a,b", "--formula", "eq_a@0"],
         0, [], ["search", "proofcheck", "propositional"]),
        (PHONE + ["valid", "--formula", "eq_a@0 | !eq_a@0"],
         0, [], ["search", "proofcheck", "propositional"]),
        (["prove", "--script", "{script}"], 0, ["proofcheck", "propositional"], ["search"]),
        (["falsify", "--formula", "[1]p@0 -> [2]p@0", "--channels", "3", "--max-values", "2"],
         1, ["search", "propositional"], ["proofcheck"]),
        (PHONE + ["counterexample", "--formula", "eq_a@0"],
         1, [], ["search", "proofcheck", "propositional"]),
    ],
)
def test_each_verb_loads_only_the_modules_it_runs(
    argv, code, loaded, not_loaded, protocol_file, prop4_file
):
    argv = [a.format(protocol=protocol_file, script=prop4_file) for a in argv]
    done = subprocess.run(
        [sys.executable, "-c", _LOADED_PROBE, *argv], capture_output=True, text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__))),
    )
    assert done.returncode == 0, done.stderr
    got_code, modules, heavy = json.loads(done.stdout)
    assert got_code == code
    for name in loaded:
        assert f"chainlogic.{name}" in modules
    for name in not_loaded:
        assert f"chainlogic.{name}" not in modules
    # The modules every verb runs on are loaded with the CLI itself.
    assert {"chainlogic.formula", "chainlogic.protocol", "chainlogic.semantics"} <= set(modules)
    # No verb loads dataclasses: every value class is declared on _Frozen.
    assert heavy == []


def test_falsify_oversized_bounds_exit_2(capsys):
    # 2^40 value-set size vectors: counted, not enumerated, before refusing.
    code, out, err = run(
        capsys, ["falsify", "--formula", "p@0", "--channels", "40", "--max-values", "2"]
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: exhaustive space has ")
    assert err.endswith(" candidates, over the ceiling of 1000000\n")


@pytest.mark.parametrize(
    "bounds, count",
    [(["--channels", "40", "--max-values", "26"], "more than 2^26"),
     (["--channels", "3", "--max-values", "2", "--atoms", "3"], "62288384")],
)
def test_refusals_do_not_depend_on_the_digit_limit(bounds, count):
    # PYTHONINTMAXSTRDIGITS=0 lifts the int-to-str digit limit; no refusal
    # converts a count that could pass it, so both print the same line.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    errs = []
    for extra in ({}, {"PYTHONINTMAXSTRDIGITS": "0"}):
        done = subprocess.run(
            [sys.executable, "-m", "chainlogic", "falsify", "--formula", "p@0", *bounds],
            capture_output=True, text=True, timeout=60, env=dict(env, **extra),
        )
        assert (done.returncode, done.stdout) == (2, "")
        errs.append(done.stderr)
    assert errs[0] == errs[1] == (
        f"error: exhaustive space has {count} candidates, over the ceiling of 1000000\n"
    )


def test_json_outputs_match_text_verdicts(capsys, protocol_file, prop4_file, broken_script_file):
    code, doc = run_json(capsys, ["scope", "[2]([3]p@3 -> [4]q@4)"])
    assert (code, doc["scope"]) == (0, [2])

    base = ["eval", "--protocol", protocol_file, "--run", "u,x,z"]
    code, doc = run_json(capsys, base + ["--formula", "[1]p@0"])
    assert (code, doc["value"]) == (0, True)
    code, doc = run_json(capsys, base + ["--formula", "[2]p@0"])
    assert (code, doc["value"]) == (1, False)

    code, doc = run_json(
        capsys, ["valid", "--protocol", protocol_file, "--formula", "[1]p@0 -> [2]p@0"]
    )
    assert (code, doc["valid"], doc["counterexample"]) == (1, False, ["u", "x", "z"])

    code, doc = run_json(capsys, ["prove", "--script", prop4_file])
    assert (code, doc["accepted"]) == (0, True)
    code, doc = run_json(capsys, ["prove", "--script", broken_script_file])
    assert (code, doc["accepted"], doc["line"]) == (1, False, 1)

    code, doc = run_json(
        capsys,
        ["falsify", "--formula", "[1]p@0 -> [2]p@0", "--channels", "3", "--max-values", "2"],
    )
    assert (code, doc["found"]) == (1, True)
    assert doc["run"]
    assert doc["protocol"]["window"] == [0, 2]

    code, doc = run_json(
        capsys,
        [
            "telephone", "--len", "4", "--alphabet", "latin", "--chain", "3",
            "eval", "--run", "toon,torn,tort", "--formula", "[0]!(eq_book@2)",
        ],
    )
    assert (code, doc["value"]) == (1, False)
