import hashlib
import json
import random

import pytest

from chainlogic import (
    Atom,
    AxiomRule,
    Bottom,
    Box,
    FormulaSyntaxError,
    Implies,
    ModusPonensRule,
    NecessitationRule,
    PremiseRule,
    ProofFormatError,
    ProofLine,
    ProofScript,
    TautologyRule,
    check_script,
    corpus,
    diamond,
    disj,
    instantiate_axiom,
    load_script,
    match_axiom,
    parse,
    random_formula,
    render,
    scope,
    script_from_dict,
    script_to_dict,
    truth,
)
from chainlogic import proofcheck
from chainlogic.formula import _LEXEMES
from chainlogic.proofcheck import gateway_side

from conftest import syllogism_chain
from test_acceptance import _mutated_scripts

SCHEMAS = ("distributivity", "reflexivity", "self_awareness", "gateway", "disjunction")


def test_match_axiom_self_awareness_on_boxed_formula():
    phi = Box(1, parse("p@1"))
    line = Implies(phi, Box(1, phi))
    assert match_axiom("self_awareness", {"k": 1, "phi": phi}, line)


def test_match_axiom_self_awareness_scope_violation():
    phi = parse("p@1")
    line = Implies(phi, Box(0, phi))
    assert not match_axiom("self_awareness", {"k": 0, "phi": phi}, line)


def test_match_axiom_gateway_side_condition_arithmetic():
    phi = parse("p@0")
    line = Implies(Box(1, phi), Box(2, phi))
    # neither 1 < 2 <= min{0} nor max{0} <= 2 < 1 holds
    assert not match_axiom("gateway", {"k": 1, "n": 2, "phi": phi}, line)


def test_match_axiom_gateway_toward_far_channel():
    phi = diamond(2, parse("p@2"))
    line = Implies(Box(0, phi), Box(1, phi))
    assert match_axiom("gateway", {"k": 0, "n": 1, "phi": phi}, line)


def test_match_axiom_gateway_boundaries():
    phi = parse("p@2")  # scope {2}
    for n, expected in ((1, True), (2, True), (3, False)):
        line = Implies(Box(0, phi), Box(n, phi))
        assert match_axiom("gateway", {"k": 0, "n": n, "phi": phi}, line) is expected
    phi = parse("p@0")  # scope {0}, approach from the right
    for n, expected in ((0, True), (2, True), (3, False)):
        line = Implies(Box(3, phi), Box(n, phi))
        assert match_axiom("gateway", {"k": 3, "n": n, "phi": phi}, line) is expected


def test_gateway_side_agrees_with_instantiation():
    # The sweeps filter (k, n) pairs with gateway_side; instantiate_axiom
    # must judge every pair the same way, the empty scope included.
    rng = random.Random(23)
    phis = [parse("false"), parse("[1]p@1")]
    phis += [random_formula(rng, range(-1, 4), ("p", "q"), 2) for _ in range(40)]
    grid = [(k, n) for k in range(-1, 4) for n in range(-1, 4)]
    for phi in phis:
        s = scope(phi)
        for k, n in grid:
            params = {"k": k, "n": n, "phi": phi}
            assert gateway_side(k, n, s) == instantiate_axiom("gateway", params)[1], (
                render(phi), k, n,
            )
    # Empty scope: every pair of distinct channels.
    empty = scope(parse("false"))
    assert [(k, n) for k, n in grid if gateway_side(k, n, empty)] == [
        (k, n) for k, n in grid if k != n
    ]


def test_match_axiom_gateway_empty_scope_is_permissive():
    phi = truth()
    for k, n in ((0, 5), (5, 0), (2, 3)):
        line = Implies(Box(k, phi), Box(n, phi))
        assert match_axiom("gateway", {"k": k, "n": n, "phi": phi}, line)
    line = Implies(Box(1, phi), Box(1, phi))
    assert not match_axiom("gateway", {"k": 1, "n": 1, "phi": phi}, line)


def test_match_axiom_disjunction_betweenness():
    phi, psi = parse("p@1"), parse("q@3")
    for k, expected in ((0, False), (1, True), (2, True), (3, True), (4, False)):
        line = Implies(Box(k, disj(phi, psi)), disj(Box(k, phi), Box(k, psi)))
        assert (
            match_axiom("disjunction", {"k": k, "phi": phi, "psi": psi}, line)
            is expected
        )


def test_match_axiom_disjunction_between_boxes():
    phi, psi = Box(0, parse("p@0")), Box(2, parse("q@2"))
    line = Implies(Box(1, disj(phi, psi)), disj(Box(1, phi), Box(1, psi)))
    assert match_axiom("disjunction", {"k": 1, "phi": phi, "psi": psi}, line)


def test_match_axiom_requires_exact_formula():
    phi = parse("p@0")
    almost = Implies(Box(0, phi), Box(0, Box(0, phi)))
    assert not match_axiom("reflexivity", {"k": 0, "phi": phi}, almost)
    assert match_axiom(
        "reflexivity", {"k": 0, "phi": phi}, Implies(Box(0, phi), phi)
    )


def test_match_axiom_unknown_schema():
    with pytest.raises(ProofFormatError):
        match_axiom("modus_tollens", {"k": 0, "phi": parse("p@0")}, parse("p@0"))


def _mutate(f, rng):
    """Change exactly one node; the result always differs from the input."""
    nodes = []

    def walk(g, path):
        nodes.append(path)
        if isinstance(g, Implies):
            walk(g.lhs, path + ("lhs",))
            walk(g.rhs, path + ("rhs",))
        elif isinstance(g, Box):
            walk(g.body, path + ("body",))

    walk(f, ())

    def rebuild(g, path, depth=0):
        if depth == len(path):
            if isinstance(g, Atom):
                return Atom(g.channel + 1, g.name)
            if isinstance(g, Box):
                return Box(g.channel + 1, g.body)
            if isinstance(g, Implies):
                return Implies(g.rhs, g.lhs) if g.lhs != g.rhs else Bottom()
            return Atom(0, "mutant")
        step = path[depth]
        if step == "lhs":
            return Implies(rebuild(g.lhs, path, depth + 1), g.rhs)
        if step == "rhs":
            return Implies(g.lhs, rebuild(g.rhs, path, depth + 1))
        return Box(g.channel, rebuild(g.body, path, depth + 1))

    while True:
        mutant = rebuild(f, rng.choice(nodes))
        if mutant != f:
            return mutant


def test_schema_faithfulness_random_instances():
    rng = random.Random(14)
    for _ in range(200):
        schema = rng.choice(SCHEMAS)
        while True:
            phi = random_formula(rng, range(0, 4), ("p", "q"), 2)
            psi = random_formula(rng, range(0, 4), ("p", "q"), 2)
            if schema == "self_awareness":
                k = rng.randrange(4)
                phi = random_formula(rng, (k,), ("p", "q"), 2)
                params = {"k": k, "phi": phi}
            elif schema == "gateway":
                s = scope(phi)
                pairs = [
                    (k, n)
                    for k in range(4)
                    for n in range(4)
                    if (k < n <= s.min_val) or (s.max_val <= n < k)
                ]
                if not pairs:
                    continue
                k, n = rng.choice(pairs)
                params = {"k": k, "n": n, "phi": phi}
            elif schema == "disjunction":
                k = rng.randrange(4)
                phi = random_formula(rng, range(0, k + 1), ("p", "q"), 2)
                psi = random_formula(rng, range(k, 4), ("p", "q"), 2)
                params = {"k": k, "phi": phi, "psi": psi}
            else:
                params = {"k": rng.randrange(4), "phi": phi, "psi": psi}
            instance, side_ok = instantiate_axiom(schema, params)
            if side_ok:
                break
        assert match_axiom(schema, params, instance)
        assert not match_axiom(schema, params, _mutate(instance, rng))


def test_corpus_scripts_accepted():
    for name, script in corpus().items():
        verdict = check_script(script)
        assert verdict.accepted, (name, verdict.failure)
        assert script.lines[-1].formula == script.goal


def test_corpus_contents():
    scripts = corpus()
    assert scripts["prop1"].goal == parse("[0]p@0 -> [0][0]p@0")
    assert scripts["lemma8"].goal == parse("[1](p@1 & q@1) -> ([1]p@1 & [1]q@1)")
    assert scripts["lemma9_3way"].goal == parse(
        "[1](p@0 | q@2 | r@3) -> ([1]p@0 | [1](q@2 | r@3))"
    )


def test_corpus_is_pinned():
    # Every line, rule and goal of the corpus, as its JSON documents.
    scripts = corpus()
    docs = json.dumps({n: script_to_dict(s) for n, s in scripts.items()}, sort_keys=True)
    assert hashlib.sha256(docs.encode()).hexdigest() == (
        "46ae0ace1af7385b6935e3d396d3a89fa13ea21a4958218981d3db752d7eca05"
    )
    assert list(scripts) == [
        "prop1", "prop2", "prop3", "prop4", "prop5", "lemma8", "lemma9_3way",
    ]
    assert [len(s.lines) for s in scripts.values()] == [1, 1, 1, 8, 13, 11, 8]


def test_premise_taint_blocks_necessitation():
    f = parse("p@0")
    script = ProofScript(
        lines=(
            ProofLine(1, f, PremiseRule()),
            ProofLine(2, Box(0, f), NecessitationRule(0, 1)),
        ),
        goal=Box(0, f),
        premises_allowed=True,
    )
    verdict = check_script(script)
    assert not verdict.accepted
    assert verdict.failure == (2, "necessitation applied to a premise-dependent line")


def test_premise_taint_propagates_through_modus_ponens():
    p0 = parse("p@0")
    q0 = parse("q@0")
    script = ProofScript(
        lines=(
            ProofLine(1, p0, PremiseRule()),
            ProofLine(2, Implies(p0, Implies(q0, p0)), TautologyRule()),
            ProofLine(3, Implies(q0, p0), ModusPonensRule(1, 2)),
            ProofLine(4, Box(0, Implies(q0, p0)), NecessitationRule(0, 3)),
        ),
        goal=Box(0, Implies(q0, p0)),
        premises_allowed=True,
    )
    verdict = check_script(script)
    assert verdict.failure[0] == 4


def test_premises_can_combine_with_modus_ponens():
    p0 = parse("p@0")
    q1 = parse("q@1")
    script = ProofScript(
        lines=(
            ProofLine(1, p0, PremiseRule()),
            ProofLine(2, Implies(p0, q1), PremiseRule()),
            ProofLine(3, q1, ModusPonensRule(1, 2)),
        ),
        goal=q1,
        premises_allowed=True,
    )
    assert check_script(script).accepted


def test_premise_rejected_when_not_allowed():
    f = parse("p@0")
    script = ProofScript(
        lines=(ProofLine(1, f, PremiseRule()),),
        goal=f,
        premises_allowed=False,
    )
    verdict = check_script(script)
    assert verdict.failure[0] == 1


def test_goal_mismatch_rejected():
    f = parse("p@0 -> p@0")
    script = ProofScript(
        lines=(ProofLine(1, f, TautologyRule()),),
        goal=parse("q@0 -> q@0"),
    )
    verdict = check_script(script)
    assert not verdict.accepted
    assert verdict.failure == (1, "final line does not match the goal")


def test_modus_ponens_shape_check():
    p0, q0 = parse("p@0"), parse("q@0")
    script = ProofScript(
        lines=(
            ProofLine(1, Implies(p0, p0), TautologyRule()),
            ProofLine(2, Implies(q0, Implies(p0, p0)), TautologyRule()),
            ProofLine(3, q0, ModusPonensRule(1, 2)),
        ),
        goal=q0,
    )
    verdict = check_script(script)
    assert verdict.failure[0] == 3


def test_reference_errors_are_format_errors():
    f = parse("p@0 -> p@0")
    forward = ProofScript(
        lines=(ProofLine(1, Box(0, f), NecessitationRule(0, 2)),),
        goal=Box(0, f),
    )
    with pytest.raises(ProofFormatError):
        check_script(forward)
    missing = ProofScript(
        lines=(
            ProofLine(2, f, TautologyRule()),
            ProofLine(3, Box(0, f), NecessitationRule(0, 1)),
        ),
        goal=Box(0, f),
    )
    with pytest.raises(ProofFormatError):
        check_script(missing)
    duplicated = ProofScript(
        lines=(
            ProofLine(1, f, TautologyRule()),
            ProofLine(1, f, TautologyRule()),
        ),
        goal=f,
    )
    with pytest.raises(ProofFormatError):
        check_script(duplicated)
    # A rule that is none of the rule classes is a format error too.
    unknown = ProofScript(lines=(ProofLine(1, f, "mp"),), goal=f)
    with pytest.raises(ProofFormatError, match="^unknown rule 'mp'$"):
        check_script(unknown)


def test_tautology_variable_limit_rejects_line():
    f = parse("p@0")
    for i in range(1, 26):
        f = disj(f, Atom(i, "p"))
    taut = disj(f, Implies(parse("p@0"), Bottom()))
    script = ProofScript(lines=(ProofLine(1, taut, TautologyRule()),), goal=taut)
    verdict = check_script(script)
    assert not verdict.accepted
    assert "variable limit" in verdict.failure[1]


def test_script_json_round_trip():
    for name, script in corpus().items():
        doc = script_to_dict(script)
        assert script_from_dict(doc) == script, name
        assert json.loads(json.dumps(doc)) == doc


def test_script_file_loading(tmp_path):
    script = corpus()["prop4"]
    path = tmp_path / "prop4.json"
    path.write_text(json.dumps(script_to_dict(script)), encoding="utf-8")
    assert check_script(load_script(path)).accepted


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(comment="hi"),
        lambda d: d["lines"][0].update(note="x"),
        lambda d: d["lines"][0]["rule"].update(bogus=1),
        lambda d: d["lines"][0]["rule"].update(type="smash"),
        lambda d: d["lines"][0]["rule"].update(type=["axiom"]),
        lambda d: d["lines"][0]["rule"].update(type={"axiom": 1}),
        lambda d: d.pop("goal"),
        lambda d: d["lines"][0].update(rule="axiom"),
        lambda d: d["lines"][0]["rule"].pop("phi"),
        lambda d: d["lines"][0].pop("rule"),
    ],
)
def test_script_format_rejections(mutate):
    doc = script_to_dict(corpus()["prop1"])
    mutate(doc)
    with pytest.raises(ProofFormatError):
        script_from_dict(doc)


@pytest.mark.parametrize("doc", [[], "prop1", None])
def test_script_must_be_an_object(doc):
    with pytest.raises(ProofFormatError, match="JSON object"):
        script_from_dict(doc)


def _premise_goal_doc(premises_allowed):
    # A one-line script whose goal is a bare premise: sound only when
    # premises are allowed.
    return {
        "goal": "p@0",
        "premises_allowed": premises_allowed,
        "lines": [{"id": 1, "formula": "p@0", "rule": {"type": "premise"}}],
    }


def test_premises_allowed_must_be_a_json_boolean():
    assert not check_script(script_from_dict(_premise_goal_doc(False))).accepted
    assert check_script(script_from_dict(_premise_goal_doc(True))).accepted
    for value in ("false", "true", 0, 1, None, []):
        with pytest.raises(ProofFormatError):
            script_from_dict(_premise_goal_doc(value))


@pytest.mark.parametrize("bad", [1.7, 1.0, True, False, "1", None])
@pytest.mark.parametrize(
    "line_index, field",
    [(0, "id"), (0, "k"), (0, "n"), (1, "k"), (1, "from"), (3, "from"), (3, "impl")],
)
def test_integer_fields_reject_other_json_types(line_index, field, bad):
    doc = script_to_dict(corpus()["prop4"])
    script_from_dict(doc)  # the unmodified script loads
    line = doc["lines"][line_index]
    (line if field == "id" else line["rule"])[field] = bad
    with pytest.raises(ProofFormatError):
        script_from_dict(doc)


def _distributivity_doc():
    phi, psi = parse("p@0"), parse("q@1")
    line, _ = instantiate_axiom("distributivity", {"k": 0, "phi": phi, "psi": psi})
    rule = {"type": "axiom", "schema": "distributivity", "k": 0, "phi": "p@0", "psi": "q@1"}
    return {"goal": render(line), "lines": [{"id": 1, "formula": render(line), "rule": rule}]}


@pytest.mark.parametrize("bad", [5, 1.5, True, None, ["p@0"], {"text": "p@0"}])
@pytest.mark.parametrize("key", ["formula", "goal", "phi", "psi"])
def test_formula_fields_must_be_strings(key, bad):
    doc = _distributivity_doc()
    assert check_script(script_from_dict(doc)).accepted  # the unmodified script
    line = doc["lines"][0]
    target = doc if key == "goal" else line if key == "formula" else line["rule"]
    target[key] = bad
    with pytest.raises(ProofFormatError, match=key):
        script_from_dict(doc)


def test_unknown_schema_in_file_is_format_error():
    doc = script_to_dict(corpus()["prop1"])
    doc["lines"][0]["rule"]["schema"] = "teleportation"
    with pytest.raises(ProofFormatError):
        script_from_dict(doc)


def test_corpus_lines_sound_on_sampled_protocols():
    # every line of every accepted script is already grounded, so each one
    # should hold on every run of any protocol
    from chainlogic import EvalContext, SearchBounds, sample_protocol, valid_in

    rng = random.Random(15)
    for name, script in corpus().items():
        span = 4 if name == "lemma9_3way" else 3
        suite = [sample_protocol(rng, SearchBounds(span, 2, 3)) for _ in range(40)]
        for p in suite:
            ctx = EvalContext(p)
            for line in script.lines:
                if isinstance(line.rule, PremiseRule):
                    continue
                assert valid_in(ctx, line.formula), (name, line.id)


def test_verdict_reports_all_lines():
    script = corpus()["prop5"]
    verdict = check_script(script)
    assert len(verdict.checks) == len(script.lines)
    assert all(c.ok for c in verdict.checks)
    assert not any(c.tainted for c in verdict.checks)


# --- loading: each text is parsed once -------------------------------------

def _syllogism_script(rng, m):
    """The derivation of [c]A1 -> [c]Am from the chained syllogism whose
    parts ``syllogism_chain`` draws: the syllogism as a tautology, one
    reflexivity axiom and one modus ponens per link, then necessitation,
    distributivity and modus ponens."""
    a, links, chain, c = syllogism_chain(rng, m)
    tail = chain
    for link in reversed(links):
        tail = Implies(link, tail)
    d = proofcheck._Derivation()
    line = d.taut(tail)
    for i in range(m - 1):
        line = d.mp(d.axiom("reflexivity", k=a[i].channel, phi=a[i + 1]), line)
    d.boxed(c, line)
    return script_to_dict(d.script(render(Implies(Box(c, a[0]), Box(c, a[-1])))))


def _spaced(rng, text):
    """text with random whitespace between its lexemes, never canonical."""
    gaps = ("", "", " ", "  ", "\t", "\n ")
    out = " " + "".join(s + rng.choice(gaps) for s in _LEXEMES.findall(text))
    assert parse(out) == parse(text)
    return out


def _perturbed(rng, doc, share):
    """A copy of doc in which each formula text, with probability share,
    gets random whitespace between its lexemes."""
    doc = json.loads(json.dumps(doc))
    fields = [(doc, "goal")]
    for entry in doc["lines"]:
        fields += [(entry, "formula")]
        fields += [(entry["rule"], key) for key in ("phi", "psi") if key in entry["rule"]]
    for obj, key in fields:
        if rng.random() < share:
            obj[key] = _spaced(rng, obj[key])
    return doc


def _parsed_apart(doc):
    """The script doc describes, each of its texts parsed on its own."""

    def rule(r):
        kind = r["type"]
        if kind == "taut":
            return TautologyRule()
        if kind == "premise":
            return PremiseRule()
        if kind == "mp":
            return ModusPonensRule(r["from"], r["impl"])
        if kind == "nec":
            return NecessitationRule(r["k"], r["from"])
        psi = parse(r["psi"]) if "psi" in r else None
        return AxiomRule(r["schema"], r["k"], parse(r["phi"]), r.get("n"), psi)

    lines = tuple(
        ProofLine(e["id"], parse(e["formula"]), rule(e["rule"])) for e in doc["lines"]
    )
    return ProofScript(lines, parse(doc["goal"]), doc.get("premises_allowed", False))


def test_loader_matches_parse_of_each_text():
    # The lines, rules and goal the loader returns equal what parse gives
    # for each text on its own, and so does the verdict: on canonical
    # scripts, on copies with every text respaced, and on copies with some.
    rng = random.Random(30)
    docs = [script_to_dict(s) for s in corpus().values()]
    docs += [script_to_dict(s) for _, s, _ in _mutated_scripts()]
    docs += [_syllogism_script(rng, m) for m in range(12, 21)]
    docs += [_perturbed(rng, doc, share) for share in (1.0, 0.5) for doc in docs]
    verdicts = set()
    for doc in docs:
        loaded, expected = script_from_dict(doc), _parsed_apart(doc)
        assert loaded == expected, doc["goal"]
        verdict = check_script(loaded)
        assert verdict == check_script(expected), doc["goal"]
        verdicts.add(verdict.accepted)
    assert verdicts == {True, False}


def test_loader_reuses_the_subformulas_of_earlier_texts(monkeypatch):
    # A canonical syllogism script of 12 variables has 40 texts; each mp
    # line is the consequent of its implication line, and every axiom's
    # parameter and the goal are parts of earlier lines, so only the
    # tautology, the necessitation and the distributivity line are parsed.
    doc = _syllogism_script(random.Random(12), 12)
    real_parse = proofcheck.parse
    parsed = []

    def counted(text):
        parsed.append(text)
        return real_parse(text)

    monkeypatch.setattr(proofcheck, "parse", counted)
    script = script_from_dict(doc)
    assert len(doc["lines"]) == 26
    parse_calls = len(parsed)
    assert parse_calls <= 4, parsed
    by_id = {line.id: line.formula for line in script.lines}
    mp_lines = [line for line in script.lines if isinstance(line.rule, ModusPonensRule)]
    assert len(mp_lines) == 12
    for line in mp_lines:
        assert line.formula is by_id[line.rule.implication].rhs, line.id
    assert check_script(script).accepted

    # Nothing is kept between calls: a second load shares no node.
    def nodes(s):
        stack = [s.goal]
        for line in s.lines:
            stack.append(line.formula)
            if isinstance(line.rule, AxiomRule):
                stack += [g for g in (line.rule.phi, line.rule.psi) if g is not None]
        seen = set()
        while stack:
            g = stack.pop()
            if id(g) not in seen:
                seen.add(id(g))
                if isinstance(g, Implies):
                    stack += (g.lhs, g.rhs)
                elif isinstance(g, Box):
                    stack.append(g.body)
        return seen

    parsed.clear()
    again = script_from_dict(doc)
    assert again == script and len(parsed) == parse_calls
    assert nodes(script).isdisjoint(nodes(again))


def test_syntax_error_after_known_texts_names_its_place():
    # A text that extends a known text is parsed, and its error carries the
    # line, the field and the offset parse reports.
    doc = _syllogism_script(random.Random(3), 12)
    bad = doc["lines"][2]["formula"] + " )"
    doc["lines"][4]["formula"] = bad
    with pytest.raises(FormulaSyntaxError) as parse_error:
        parse(bad)
    with pytest.raises(FormulaSyntaxError) as load_error:
        script_from_dict(doc)
    assert str(load_error.value) == f'line 5: "formula": {parse_error.value}'
    assert load_error.value.position == parse_error.value.position == len(bad) - 1
