"""The shape checks of both file formats: each object of a protocol document
or a proof script is checked alike, and a fault names the object and the
key at fault, in the library, through the CLI, and under any hash seed."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chainlogic import (
    ProofFormatError,
    ProtocolFormatError,
    corpus,
    protocol_from_dict,
    protocol_to_dict,
    script_from_dict,
    script_to_dict,
)
from chainlogic.cli import run_cli

from conftest import gateway_countermodel


def _set(path, value):
    """A mutation that puts value at path, the whole document at ()."""

    def mutate(doc):
        if not path:
            return value
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return doc

    return mutate


def _drop(path):
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        return doc

    return mutate


# (document kind, mutation, the place the message names, the key at fault)
_FAULTS = [
    ("protocol", _set((), []), "protocol document must be a JSON object", None),
    ("protocol", _set(("extra",), 1), "unknown keys in protocol document", "extra"),
    ("protocol", _drop(("window",)), "protocol document lacks", "'window'"),
    ("protocol", _set(("channels", 0), 5), "channel entry must be a JSON object", None),
    ("protocol", _set(("channels", 0, "color"), "red"), "unknown keys in channel entry", "color"),
    ("protocol", _drop(("channels", 0, "values")), "channel entry lacks", "'values'"),
    ("protocol", _set(("local", 0), "x"), "local entry must be a JSON object", None),
    ("protocol", _set(("local", 0, "note"), "x"), "unknown keys in local entry", "note"),
    ("protocol", _drop(("local", 0, "pairs")), "local entry lacks", "'pairs'"),
    ("script", _set((), "prop4"), "proof script must be a JSON object", None),
    ("script", _set(("comment",), "hi"), "unknown keys in proof script", "comment"),
    ("script", _drop(("goal",)), "proof script lacks", "'goal'"),
    ("script", _set(("lines", 0), []), "line entry must be a JSON object", None),
    ("script", _set(("lines", 0, "note"), "x"), "unknown keys in line entry", "note"),
    ("script", _drop(("lines", 0, "rule")), "line entry lacks", "'rule'"),
    ("script", _set(("lines", 1, "rule"), "nec"), "line 2: rule must be an object", "'nec'"),
    ("script", _set(("lines", 1, "rule", "bogus"), 1), "unknown keys in line 2", "bogus"),
    ("script", _drop(("lines", 1, "rule", "type")), "line 2: rule must be an object", '"type"'),
    ("script", _set(("lines", 1, "rule", "type"), "smash"), "line 2: rule must be", "'smash'"),
]


def _document(kind):
    if kind == "protocol":
        return protocol_to_dict(gateway_countermodel())
    return script_to_dict(corpus()["prop4"])


@pytest.mark.parametrize(
    "kind, mutate, place, key", _FAULTS, ids=[f"{f[2]} {f[3] or ''}".strip() for f in _FAULTS]
)
def test_each_format_fault_names_its_place_and_key(kind, mutate, place, key):
    doc = mutate(_document(kind))
    load, error = (
        (protocol_from_dict, ProtocolFormatError)
        if kind == "protocol"
        else (script_from_dict, ProofFormatError)
    )
    with pytest.raises(error) as caught:
        load(doc)
    message = str(caught.value)
    assert place in message
    assert key is None or key in message


def test_each_format_fault_exits_2_through_the_cli(tmp_path):
    for i, (kind, mutate, place, key) in enumerate(_FAULTS):
        path = tmp_path / f"{kind}{i}.json"
        path.write_text(json.dumps(mutate(_document(kind))), encoding="utf-8")
        argv = (
            ["valid", "--protocol", str(path), "--formula", "p@0"]
            if kind == "protocol"
            else ["prove", "--script", str(path)]
        )
        out, err = io.StringIO(), io.StringIO()
        code = run_cli(argv, stdout=out, stderr=err)
        message = err.getvalue()
        assert code == 2, argv
        assert message.startswith("error: "), message
        assert "Traceback" not in message
        assert place in message


_SEED_PROBE = """
from chainlogic import protocol_from_dict, script_from_dict
for load, doc in [
    (protocol_from_dict, {}),
    (protocol_from_dict, {"channels": []}),
    (script_from_dict, {}),
]:
    try:
        load(doc)
    except ValueError as exc:
        print(exc)
"""


def test_format_errors_do_not_depend_on_the_hash_seed():
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", _SEED_PROBE], capture_output=True, text=True,
            env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines() == [
        "protocol document lacks 'window', 'channels', 'local'",
        "protocol document lacks 'window', 'local'",
        "proof script lacks 'goal', 'lines'",
    ]
