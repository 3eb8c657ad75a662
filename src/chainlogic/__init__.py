"""Epistemic logic over linear communication chains.

Formulas with channel-indexed atoms and knowledge modalities, finite-window
chain protocols and their runs, run-level model checking, a Hilbert-style
proof checker, and bounded countermodel search.

Every public name and submodule is loaded on first use (PEP 562): ``import
chainlogic`` imports no submodule, and ``chainlogic.falsify`` imports
``chainlogic.search`` the first time it is read. The namespace is the same
as with eager imports; only the time a module is loaded moves.
"""

from importlib import import_module as _import_module

# Each submodule and the public names the package takes from it.
_EXPORTS = {
    "formula": (
        "Atom",
        "Bottom",
        "Box",
        "Formula",
        "FormulaSyntaxError",
        "Implies",
        "Scope",
        "channel_support",
        "conj",
        "diamond",
        "disj",
        "iff",
        "member_phi",
        "neg",
        "parse",
        "render",
        "scope",
        "shift_channels",
        "truth",
    ),
    "proofcheck": (
        "AxiomRule",
        "ModusPonensRule",
        "NecessitationRule",
        "PremiseRule",
        "ProofFormatError",
        "ProofLine",
        "ProofScript",
        "ScriptVerdict",
        "TautologyRule",
        "check_script",
        "corpus",
        "instantiate_axiom",
        "load_script",
        "match_axiom",
        "script_from_dict",
        "script_to_dict",
    ),
    "propositional": (
        "Skeleton",
        "VariableLimitError",
        "cnf_to_formula",
        "is_tautology",
        "scoped_cnf",
        "skeleton",
    ),
    "protocol": (
        "ChainProtocol",
        "ExplicitChainProtocol",
        "ProtocolFormatError",
        "TelephoneProtocol",
        "ValueDomainError",
        "Violation",
        "is_run",
        "load_protocol",
        "prefix_splice",
        "protocol_from_dict",
        "protocol_to_dict",
        "run_count",
        "runs",
        "runs_fixing",
        "splice",
        "telephone",
    ),
    "search": (
        "ExhaustiveMode",
        "RandomMode",
        "SearchBounds",
        "SearchSpaceError",
        "SweepReport",
        "candidate_count",
        "display_gateway_family",
        "embed_formula",
        "enumerate_protocols",
        "falsify",
        "random_formula",
        "sample_protocol",
        "soundness_sweep",
    ),
    "semantics": (
        "EvalContext",
        "StrictWindowError",
        "UndeclaredAtomError",
        "counterexample",
        "evaluate",
        "valid_in",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Load a public name's home module, or a submodule, on first access
    and keep the value as a package global, so the next read skips this.
    An ImportError raised while loading propagates as itself."""
    if name in _HOME:
        value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_EXPORTS})
