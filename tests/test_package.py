"""The package namespace: the public names, where each comes from, that
they load on first use, and that the sources parse at the Python floor."""

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

import chainlogic

# Each submodule and the public names the package takes from it.
PUBLIC = {
    "formula": [
        "Atom", "Bottom", "Box", "Formula", "FormulaSyntaxError", "Implies",
        "Scope", "channel_support", "conj", "diamond", "disj", "iff",
        "member_phi", "neg", "parse", "render", "scope", "shift_channels",
        "truth",
    ],
    "propositional": [
        "Skeleton", "VariableLimitError", "cnf_to_formula", "is_tautology",
        "scoped_cnf", "skeleton",
    ],
    "proofcheck": [
        "AxiomRule", "ModusPonensRule", "NecessitationRule", "PremiseRule",
        "ProofFormatError", "ProofLine", "ProofScript", "ScriptVerdict",
        "TautologyRule", "check_script", "corpus", "instantiate_axiom",
        "load_script", "match_axiom", "script_from_dict", "script_to_dict",
    ],
    "protocol": [
        "ChainProtocol", "ExplicitChainProtocol", "ProtocolFormatError",
        "TelephoneProtocol", "ValueDomainError", "Violation", "is_run",
        "load_protocol", "prefix_splice", "protocol_from_dict",
        "protocol_to_dict", "run_count", "runs", "runs_fixing", "splice",
        "telephone",
    ],
    "search": [
        "ExhaustiveMode", "RandomMode", "SearchBounds", "SearchSpaceError",
        "SweepReport", "candidate_count", "display_gateway_family",
        "embed_formula", "enumerate_protocols", "falsify", "random_formula",
        "sample_protocol", "soundness_sweep",
    ],
    "semantics": [
        "EvalContext", "StrictWindowError", "UndeclaredAtomError",
        "counterexample", "evaluate", "valid_in",
    ],
}
NAMES = sorted(name for names in PUBLIC.values() for name in names)


def _fresh(probe: str) -> subprocess.CompletedProcess:
    """Run probe in a new interpreter that imports chainlogic from here."""
    return subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(chainlogic.__file__))),
    )


def test_all_is_the_public_names():
    assert len(NAMES) == 76
    assert sorted(chainlogic.__all__) == NAMES
    assert len(chainlogic.__all__) == len(set(chainlogic.__all__))


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_each_name_is_its_home_modules_object(module):
    home = importlib.import_module(f"chainlogic.{module}")
    assert getattr(chainlogic, module) is home
    for name in PUBLIC[module]:
        assert getattr(chainlogic, name) is getattr(home, name), name


def test_dir_lists_every_name_and_submodule():
    assert set(NAMES) | set(PUBLIC) <= set(dir(chainlogic))


def test_star_import_binds_all():
    namespace = {}
    exec("from chainlogic import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == NAMES
    assert all(namespace[name] is getattr(chainlogic, name) for name in NAMES)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'chainlogic' has no attribute 'x'$"):
        chainlogic.x
    assert not hasattr(chainlogic, "x")


def test_a_bare_import_loads_nothing_until_read():
    probe = (
        "import json, sys, types, chainlogic\n"
        "before = sorted(m for m in sys.modules if m.startswith('chainlogic.'))\n"
        f"kinds = [type(getattr(chainlogic, m)).__name__ for m in {sorted(PUBLIC)!r}]\n"
        "print(json.dumps([before, kinds]))\n"
    )
    done = _fresh(probe)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[], ["module"] * len(PUBLIC)]


def test_an_import_error_in_a_submodule_propagates():
    # A module that fails to load must not read as a missing attribute,
    # which hasattr and getattr with a default would hide.
    probe = (
        "import sys, chainlogic\n"
        "sys.modules['chainlogic.search'] = None\n"
        "try:\n"
        "    hasattr(chainlogic, 'falsify')\n"
        "except ImportError as exc:\n"
        "    print(type(exc).__name__)\n"
    )
    done = _fresh(probe)
    assert (done.returncode, done.stdout) == (0, "ModuleNotFoundError\n"), done.stderr


def test_sources_parse_at_the_python_floor():
    # pyproject.toml declares requires-python >= 3.10; a test run on a newer
    # interpreter would accept syntax 3.10 rejects (except*, type parameters).
    paths = [
        os.path.join(folder, name)
        for top in (os.path.dirname(chainlogic.__file__), os.path.dirname(__file__))
        for folder, _, names in os.walk(top)
        for name in names
        if name.endswith(".py")
    ]
    assert len(paths) > 15
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            ast.parse(fh.read(), filename=path, feature_version=(3, 10))
    with pytest.raises(SyntaxError):
        ast.parse("def f[T](x: T) -> T:\n    return x\n", feature_version=(3, 10))
