"""Epistemic logic over linear communication chains.

Formulas with channel-indexed atoms and knowledge modalities, finite-window
chain protocols and their runs, run-level model checking, a Hilbert-style
proof checker, and bounded countermodel search.
"""

from .formula import (
    Atom,
    Bottom,
    Box,
    Formula,
    FormulaSyntaxError,
    Implies,
    Scope,
    Skeleton,
    VariableLimitError,
    channel_support,
    cnf_to_formula,
    conj,
    diamond,
    disj,
    iff,
    is_tautology,
    member_phi,
    neg,
    parse,
    render,
    scope,
    scoped_cnf,
    shift_channels,
    skeleton,
    truth,
)
from .proofcheck import (
    AxiomRule,
    ModusPonensRule,
    NecessitationRule,
    PremiseRule,
    ProofFormatError,
    ProofLine,
    ProofScript,
    ScriptVerdict,
    TautologyRule,
    check_script,
    corpus,
    instantiate_axiom,
    load_script,
    match_axiom,
    script_from_dict,
    script_to_dict,
)
from .protocol import (
    ChainProtocol,
    ExplicitChainProtocol,
    ProtocolFormatError,
    TelephoneProtocol,
    ValueDomainError,
    Violation,
    is_run,
    load_protocol,
    prefix_splice,
    protocol_from_dict,
    protocol_to_dict,
    run_count,
    runs,
    runs_fixing,
    splice,
    telephone,
)
from .search import (
    ExhaustiveMode,
    RandomMode,
    SearchBounds,
    SearchSpaceError,
    SweepReport,
    candidate_count,
    display_gateway_family,
    embed_formula,
    enumerate_protocols,
    falsify,
    random_formula,
    sample_protocol,
    soundness_sweep,
)
from .semantics import (
    EvalContext,
    StrictWindowError,
    UndeclaredAtomError,
    counterexample,
    evaluate,
    valid_in,
)

__version__ = "0.1.0"
