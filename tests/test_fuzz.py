"""Seeded fuzzing of every CLI verb: malformed input must exit 0, 1 or 2
with a message, never escape as an exception or print a traceback."""

import io
import json
import random

from chainlogic import corpus, protocol_to_dict, script_to_dict
from chainlogic.cli import run_cli

from conftest import gateway_countermodel

FORMULAS = [
    "[1]p@0 -> [2]p@0",
    "<0>(p@0 & !p@2) | [2]false",
    "[0](p@1 | p@2) -> ([0]p@1 | [0]p@2)",
    "eq_a@0 -> [1]eq_b@2",
    "true",
]
TOKENS = list("[]<>()!&|@-0123456789 ") + ["->", "p", "q", "eq_a", "eq_b", "false", "true", "@9"]
JSON_VALUES = [None, True, False, 0, -1, 1.5, 10**30, "", "a", "p@0", [], {}, [["a"]], {"x": 1}]


def _mangle_formula(rng, text):
    chars = list(text)
    for _ in range(rng.randint(1, 4)):
        i = rng.randint(0, len(chars))
        roll = rng.random()
        if roll < 0.4 and chars:
            del chars[min(i, len(chars) - 1)]
        elif roll < 0.8:
            chars.insert(i, rng.choice(TOKENS))
        elif chars:
            chars[min(i, len(chars) - 1)] = rng.choice(TOKENS)
    return "".join(chars)


def _mangle_json(rng, doc):
    """doc with one nested value replaced by a value of a random JSON type."""
    doc = json.loads(json.dumps(doc))
    parent, key, node = None, None, doc
    for _ in range(rng.randint(1, 6)):
        if not isinstance(node, (dict, list)) or not node:
            break
        children = list(node.items()) if isinstance(node, dict) else list(enumerate(node))
        parent, (key, node) = node, rng.choice(children)
        if rng.random() < 0.3:
            break
    if parent is None:
        return rng.choice(JSON_VALUES)
    parent[key] = rng.choice(JSON_VALUES)
    return doc


def _file_text(rng, doc):
    roll = rng.random()
    if roll < 0.25:
        return bytes(rng.randrange(256) for _ in range(rng.randint(0, 80)))
    text = json.dumps(doc)
    if roll < 0.5:
        return text[: rng.randint(0, len(text) - 1)].encode()
    return json.dumps(_mangle_json(rng, doc)).encode()


def _argvs(rng, tmp_path, i, protocol_doc, script_doc):
    formula = rng.choice(FORMULAS)
    if rng.random() < 0.6:
        formula = _mangle_formula(rng, formula)
    protocol = tmp_path / f"protocol{i}.json"
    protocol.write_bytes(_file_text(rng, protocol_doc))
    script = tmp_path / f"script{i}.json"
    script.write_bytes(_file_text(rng, script_doc))
    run = rng.choice(["u,x,z", "v,y,z", "u,x", "u,q,z", "", ",,,", "a,a,a"])
    phone = ["telephone", "--len", "1", "--alphabet", "ab", "--chain", "3"]
    return [
        ["scope", formula],
        ["eval", "--protocol", str(protocol), "--run", run, "--formula", formula],
        ["valid", "--protocol", str(protocol), "--formula", formula],
        ["prove", "--script", str(script)],
        ["falsify", "--formula", formula, "--channels", str(rng.randint(1, 3)),
         "--max-values", "2", "--budget", str(rng.randint(0, 300))],
        phone + ["eval", "--run", run, "--formula", formula],
        phone + ["valid", "--formula", formula],
        phone + ["counterexample", "--strict-window", "--formula", formula],
    ]


def test_malformed_input_exits_cleanly(tmp_path, capsys):
    rng = random.Random(1000)
    docs = protocol_to_dict(gateway_countermodel()), script_to_dict(corpus()["prop4"])
    codes = set()
    for i in range(60):
        extra = ["--json"] if i % 2 else []
        for argv in _argvs(rng, tmp_path, i, *docs):
            out, err = io.StringIO(), io.StringIO()
            code = run_cli(argv + extra, stdout=out, stderr=err)
            message = err.getvalue()
            # Every message, argparse's usage errors too, goes to the
            # streams passed in; none reaches the process's own.
            assert capsys.readouterr() == ("", ""), argv
            assert code in (0, 1, 2), argv
            assert "Traceback" not in message, argv
            assert ("error: " in message) == (code == 2), argv
            codes.add(code)
    # The inputs reach past the parsers: every exit code occurs.
    assert codes == {0, 1, 2}


def _delete_key(rng, doc):
    """doc with one key deleted from one of its objects, at any depth, with
    the path to that object and the key."""
    doc = json.loads(json.dumps(doc))
    objects, stack = [], [((), doc)]
    while stack:
        path, node = stack.pop()
        if isinstance(node, dict):
            objects.append((path, node))
            stack.extend((path + (key,), child) for key, child in node.items())
        elif isinstance(node, list):
            stack.extend((path + (i,), child) for i, child in enumerate(node))
    path, obj = rng.choice([(path, obj) for path, obj in objects if obj])
    key = rng.choice(list(obj))
    del obj[key]
    return doc, path, key


_AXIOM_NEEDS = {"gateway": {"n"}, "distributivity": {"psi"}, "disjunction": {"psi"}}


def _required(doc, path):
    """The keys the format requires of the object at path in doc."""
    if path == ():
        return {"window", "channels", "local"} if "window" in doc else {"goal", "lines"}
    head = path[0]
    if len(path) == 2:
        return {"channels": {"index", "values"}, "local": {"channel", "pairs"},
                "lines": {"id", "formula", "rule"}}[head]
    if head == "lines" and path[2:] == ("rule",):
        rule = doc[head][path[1]][path[2]]
        kind = rule.get("type")
        if kind == "axiom":
            return {"type", "schema", "k", "phi"} | _AXIOM_NEEDS.get(rule.get("schema"), set())
        return {"type"} | {"mp": {"from", "impl"}, "nec": {"k", "from"}}.get(kind, set())
    return set()


def test_deleted_keys_exit_cleanly(tmp_path):
    rng = random.Random(2000)
    protocol_doc = protocol_to_dict(gateway_countermodel())
    script_doc = script_to_dict(corpus()["prop4"])
    required_hits = 0
    for i in range(60):
        protocol, path, key = _delete_key(rng, protocol_doc)
        protocol_file = tmp_path / f"protocol{i}.json"
        protocol_file.write_text(json.dumps(protocol), encoding="utf-8")
        script, script_path, script_key = _delete_key(rng, script_doc)
        script_file = tmp_path / f"script{i}.json"
        script_file.write_text(json.dumps(script), encoding="utf-8")
        formula = rng.choice(FORMULAS)
        calls = [
            (["eval", "--protocol", str(protocol_file), "--run", "u,x,z",
              "--formula", formula], protocol_doc, path, key),
            (["valid", "--protocol", str(protocol_file), "--formula", formula],
             protocol_doc, path, key),
            (["prove", "--script", str(script_file)], script_doc, script_path, script_key),
        ]
        for argv, original, where, deleted in calls:
            out, err = io.StringIO(), io.StringIO()
            code = run_cli(argv, stdout=out, stderr=err)
            message = err.getvalue()
            assert code in (0, 1, 2), argv
            assert "Traceback" not in message, argv
            assert ("error: " in message) == (code == 2), argv
            if deleted in _required(original, where):
                required_hits += 1
                assert code == 2, (argv, where, deleted)
                assert deleted in message, (where, deleted, message)
    # The deletions reach the missing-key checks, not only optional keys.
    assert required_hits > 30
