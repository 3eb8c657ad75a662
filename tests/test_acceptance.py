"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
"""

import itertools
import random
import time

import pytest

from chainlogic import (
    Atom,
    AxiomRule,
    Box,
    EvalContext,
    Implies,
    ModusPonensRule,
    NecessitationRule,
    PremiseRule,
    ProofLine,
    ProofScript,
    SearchBounds,
    TautologyRule,
    check_script,
    cnf_to_formula,
    corpus,
    counterexample,
    diamond,
    disj,
    display_gateway_family,
    embed_formula,
    enumerate_protocols,
    evaluate,
    falsify,
    iff,
    is_run,
    is_tautology,
    parse,
    prefix_splice,
    protocol_to_dict,
    random_formula,
    render,
    run_count,
    runs,
    runs_fixing,
    sample_protocol,
    scope,
    scoped_cnf,
    soundness_sweep,
    splice,
    telephone,
    valid_in,
)

LATIN = "abcdefghijklmnopqrstuvwxyz"


def report(criterion, ok, note=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({note})" if note else ""
    print(f"ACCEPTANCE criterion {criterion}: {verdict}{suffix}")
    assert ok, f"criterion {criterion} failed: {note}"


@pytest.fixture(scope="module")
def full_telephone():
    return telephone(4, LATIN, 3)


def test_criterion_1_full_scale_telephone_facts(full_telephone):
    ctx = EvalContext(full_telephone)
    r1 = ("byte", "bite", "cite")
    r2 = ("toon", "torn", "tort")
    checks = []

    start = time.monotonic()
    checks.append(evaluate(ctx, r1, parse("[0]!(eq_book@2)")) is True)
    checks.append(time.monotonic() - start < 60.0)

    start = time.monotonic()
    checks.append(evaluate(ctx, r1, parse("[0][1]!(eq_book@2)")) is True)
    checks.append(time.monotonic() - start < 60.0)

    start = time.monotonic()
    checks.append(evaluate(ctx, r2, parse("[0]!(eq_book@2)")) is False)
    witness = next(
        r
        for r in runs_fixing(full_telephone, 0, "toon")
        if not evaluate(ctx, r, parse("!(eq_book@2)"))
    )
    checks.append(witness == ("toon", "boon", "book"))
    checks.append(time.monotonic() - start < 60.0)

    report(1, all(checks), f"witness {','.join(witness)}")


def test_criterion_2_scaled_telephone_counts_and_symmetry():
    start = time.monotonic()
    t = telephone(3, "abc", 3)

    # independent oracle: raw product filtered by a locally written
    # one-letter-change test
    words = ["".join(w) for w in itertools.product("abc", repeat=3)]
    near = lambda a, b: sum(x != y for x, y in zip(a, b)) <= 1
    oracle = sum(
        1
        for combo in itertools.product(words, repeat=3)
        if near(combo[0], combo[1]) and near(combo[1], combo[2])
    )
    counted = run_count(t)
    count_ok = counted == oracle == 1323

    ctx = EvalContext(t)
    symmetry_ok = all(
        valid_in(ctx, parse(f"[1]!(eq_{w}@0) -> [1]!(eq_{w}@2)")) for w in words
    )
    elapsed = time.monotonic() - start
    report(
        2,
        count_ok and symmetry_ok and elapsed < 60.0,
        f"run_count={counted}, {len(words)} words, {elapsed:.1f}s",
    )


def _mutated_scripts():
    """Each entry: (label, script, line id expected to be rejected)."""
    out = []
    base = corpus()

    # wrong axiom channel parameter
    s = base["prop1"]
    line = s.lines[0]
    out.append(
        (
            "prop1 axiom k=1",
            ProofScript(
                (ProofLine(1, line.formula, AxiomRule("self_awareness", k=1, phi=parse("[0]p@0"))),),
                s.goal,
            ),
            1,
        )
    )
    # wrong axiom phi parameter
    out.append(
        (
            "prop1 axiom phi=p@0",
            ProofScript(
                (ProofLine(1, line.formula, AxiomRule("self_awareness", k=0, phi=parse("p@0"))),),
                s.goal,
            ),
            1,
        )
    )
    # gateway side condition violated: moving away from the scope
    bad_gateway = Implies(Box(1, diamond(0, parse("p@0"))), Box(2, diamond(0, parse("p@0"))))
    out.append(
        (
            "gateway wrong direction",
            ProofScript(
                (
                    ProofLine(
                        1,
                        bad_gateway,
                        AxiomRule("gateway", k=1, n=2, phi=diamond(0, parse("p@0"))),
                    ),
                ),
                bad_gateway,
            ),
            1,
        )
    )
    # gateway with k = n
    same_channel = Implies(Box(1, parse("p@2")), Box(1, parse("p@2")))
    out.append(
        (
            "gateway k=n",
            ProofScript(
                (ProofLine(1, same_channel, AxiomRule("gateway", k=1, n=1, phi=parse("p@2"))),),
                same_channel,
            ),
            1,
        )
    )
    # broken modus ponens reference (points at the wrong earlier line)
    s = base["prop4"]
    lines = list(s.lines)
    lines[3] = ProofLine(4, lines[3].formula, ModusPonensRule(1, 3))
    out.append(("prop4 wrong MP source", ProofScript(tuple(lines), s.goal), 4))
    # necessitation at the wrong channel
    lines = list(s.lines)
    lines[1] = ProofLine(2, Box(1, lines[0].formula), NecessitationRule(0, 1))
    out.append(("prop4 wrong nec channel", ProofScript(tuple(lines), s.goal), 2))
    # necessitation applied to a premise-tainted line
    lines = list(s.lines)
    lines[0] = ProofLine(1, lines[0].formula, PremiseRule())
    out.append(
        (
            "prop4 nec on premise",
            ProofScript(tuple(lines), s.goal, premises_allowed=True),
            2,
        )
    )
    # tautology line that is not a tautology
    s = base["lemma8"]
    lines = list(s.lines)
    lines[0] = ProofLine(1, parse("(p@1 | q@1) -> p@1"), TautologyRule())
    out.append(("lemma8 bogus tautology", ProofScript(tuple(lines), s.goal), 1))
    # disjunction betweenness violated: both scopes right of k
    phi, psi = Box(1, parse("p@1")), Box(2, parse("q@2"))
    bad_disj = Implies(Box(0, disj(phi, psi)), disj(Box(0, phi), Box(0, psi)))
    out.append(
        (
            "disjunction off-side",
            ProofScript(
                (ProofLine(1, bad_disj, AxiomRule("disjunction", k=0, phi=phi, psi=psi)),),
                bad_disj,
            ),
            1,
        )
    )
    # goal mutated away from the final line
    s = base["prop1"]
    out.append(
        ("prop1 goal mismatch", ProofScript(s.lines, parse("[0]p@0 -> [0][0]q@0")), 1)
    )
    # self-awareness scope violation
    bad_self = Implies(parse("p@1"), Box(0, parse("p@1")))
    out.append(
        (
            "self-awareness off-channel",
            ProofScript(
                (ProofLine(1, bad_self, AxiomRule("self_awareness", k=0, phi=parse("p@1"))),),
                bad_self,
            ),
            1,
        )
    )
    # modus ponens whose implication line is not an implication of this line
    s = base["lemma8"]
    lines = list(s.lines)
    lines[3] = ProofLine(4, lines[3].formula, ModusPonensRule(2, 2))
    out.append(("lemma8 MP at non-implication", ProofScript(tuple(lines), s.goal), 4))
    return out


def test_criterion_3_proof_corpus_and_mutations():
    accepted = {name: check_script(script).accepted for name, script in corpus().items()}
    corpus_ok = all(accepted.values()) and set(accepted) == {
        "prop1", "prop2", "prop3", "prop4", "prop5", "lemma8", "lemma9_3way",
    }
    mutations = _mutated_scripts()
    mutation_ok = True
    for label, script, expect_line in mutations:
        verdict = check_script(script)
        if verdict.accepted or verdict.failure[0] != expect_line:
            mutation_ok = False
            break
    report(
        3,
        corpus_ok and mutation_ok and len(mutations) >= 10,
        f"{len(accepted)} scripts accepted, {len(mutations)} mutations rejected",
    )


FALSIFY_CASES = [
    # (formula, channels, frozen witness run)
    ("[1]p@0 -> [2]p@0", 3, ("a", "b", "a")),
    ("[0](p@1|p@2) -> ([0]p@1|[0]p@2)", 3, ("a", "a", "b")),
    ("p@0 -> [1]p@0", 2, ("a", "a")),
    ("[1]p@1 -> [0]p@1", 2, ("a", "a")),
]


def test_criterion_4_countermodel_suite():
    ok = True
    notes = []
    for text, channels, frozen_run in FALSIFY_CASES:
        f = parse(text)
        bounds = SearchBounds(channels, 2, 1)
        first = falsify(f, bounds, budget=100_000)
        again = falsify(f, bounds, budget=100_000)
        if first is None or again is None:
            ok = False
            notes.append(f"{text}: not found")
            continue
        p, r = first
        same = protocol_to_dict(again[0]) == protocol_to_dict(p) and again[1] == r
        reverified = is_run(p, r) and not evaluate(
            EvalContext(p), r, embed_formula(f, bounds)
        )
        if not (same and reverified and r == frozen_run):
            ok = False
            notes.append(f"{text}: witness drift")
    report(4, ok, "; ".join(notes) if notes else "4 deterministic witnesses")


def test_criterion_5_soundness_sweeps_and_display_laws():
    schemas = ("distributivity", "reflexivity", "self_awareness", "gateway", "disjunction")
    sweep_ok = True
    for schema in schemas:
        rep = soundness_sweep(schema, SearchBounds(3, 2, 2), 1000)
        if rep.violations != 0:
            sweep_ok = False
            break

    f1, f2, f3 = display_gateway_family()
    suite_size = 0
    display_ok = True
    for p in enumerate_protocols(SearchBounds(3, 2, 1)):
        suite_size += 1
        ctx = EvalContext(p)
        if not (valid_in(ctx, f1) and valid_in(ctx, f2) and valid_in(ctx, f3)):
            display_ok = False
            break
    report(
        5,
        sweep_ok and display_ok,
        f"5x1000 clean sweeps; 3 laws on {suite_size} exhaustive protocols",
    )


def test_criterion_6_locality_and_splice_closure():
    rng = random.Random(20)
    disagreements = 0
    for _ in range(10_000):
        p = sample_protocol(rng, SearchBounds(3, 2, 2))
        all_runs = list(runs(p))
        f = random_formula(rng, range(3), ("p", "q"), 3)
        channels = sorted(scope(f).indices)
        groups = {}
        for r in all_runs:
            groups.setdefault(tuple(r[k] for k in channels), []).append(r)
        group = max(groups.values(), key=len)
        r1 = group[0]
        r2 = group[rng.randrange(len(group))]
        ctx = EvalContext(p)
        if evaluate(ctx, r1, f) != evaluate(ctx, r2, f):
            disagreements += 1

    splice_ok = True
    suite_size = 0
    for p in enumerate_protocols(SearchBounds(3, 2, 0)):
        suite_size += 1
        all_runs = list(runs(p))
        lo = p.window[0]
        for r1 in all_runs:
            for r2 in all_runs:
                for k in p.channels():
                    if r1[k - lo] == r2[k - lo]:
                        if not is_run(p, splice(p, r1, r2, k)):
                            splice_ok = False
                        if not is_run(p, prefix_splice(p, r1, r2, k)):
                            splice_ok = False
    report(
        6,
        disagreements == 0 and splice_ok,
        f"10000 locality trials, splice closure on {suite_size} protocols",
    )


def test_criterion_7_scoped_cnf_properties():
    rng = random.Random(21)
    failures = 0
    for _ in range(500):
        f = random_formula(rng, range(0, 4), ("p", "q", "r"), 5)
        clauses = scoped_cnf(f)
        for clause in clauses:
            for lit in clause:
                if len(scope(lit)) > 1:
                    failures += 1
        if not is_tautology(iff(f, cnf_to_formula(clauses))):
            failures += 1
    report(7, failures == 0, "500 formulas, scope and equivalence checks")


def test_criterion_8_parse_render_round_trip():
    rng = random.Random(22)
    failures = 0
    for _ in range(10_000):
        f = random_formula(rng, range(-3, 4), ("p", "q", "r", "s"), 7)
        if parse(render(f)) != f:
            failures += 1
    report(8, failures == 0, "10000 round trips")
