"""Hilbert-style proof verification for the chain logic.

Five axiom schemas plus propositional tautologies, closed under modus
ponens and necessitation. Premise lines are allowed when a script opts in,
but anything derived from a premise is tainted and necessitation refuses
tainted sources: premises only ever combine through modus ponens.

Justifications carry explicit instantiation parameters, so the checker
verifies a claimed instance instead of searching for one; verdicts are
reproducible and checking is linear in the script.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .formula import (
    Box,
    Formula,
    FormulaSyntaxError,
    Implies,
    Scope,
    VariableLimitError,
    conj,
    diamond,
    disj,
    is_tautology,
    parse,
    render,
    scope,
)

SCHEMAS = (
    "distributivity",
    "reflexivity",
    "self_awareness",
    "gateway",
    "disjunction",
)


class ProofFormatError(ValueError):
    """Structurally invalid proof script (bad references, shapes, names)."""


@dataclass(frozen=True)
class TautologyRule:
    pass


@dataclass(frozen=True)
class PremiseRule:
    pass


@dataclass(frozen=True)
class AxiomRule:
    schema: str
    k: int
    phi: Formula
    n: int | None = None
    psi: Formula | None = None


@dataclass(frozen=True)
class ModusPonensRule:
    antecedent: int  # line holding the antecedent
    implication: int  # line holding (antecedent -> this line)


@dataclass(frozen=True)
class NecessitationRule:
    channel: int
    source: int


Rule = TautologyRule | PremiseRule | AxiomRule | ModusPonensRule | NecessitationRule


@dataclass(frozen=True)
class ProofLine:
    id: int
    formula: Formula
    rule: Rule


@dataclass(frozen=True)
class ProofScript:
    lines: tuple[ProofLine, ...]
    goal: Formula
    premises_allowed: bool = False


@dataclass(frozen=True)
class LineCheck:
    line_id: int
    ok: bool
    reason: str | None
    tainted: bool


@dataclass(frozen=True)
class ScriptVerdict:
    accepted: bool
    checks: tuple[LineCheck, ...]
    failure: tuple[int, str] | None  # first failing line and why


def gateway_side(k: int, n: int, s: Scope) -> bool:
    """The gateway schema's side condition for channels k, n and the scope
    s of its formula: k < n <= min(s) or max(s) <= n < k."""
    return (k < n <= s.min_val) or (s.max_val <= n < k)


def instantiate_axiom(schema: str, params: dict) -> tuple[Formula, bool]:
    """The formula a schema instance denotes, plus its side condition.

    Parameter keys: k (all), phi (all), psi (distributivity, disjunction),
    n (gateway). Side conditions compare minimal scopes, with min of the
    empty scope +inf and max of it -inf:

      distributivity  [k](phi -> psi) -> ([k]phi -> [k]psi)    none
      reflexivity     [k]phi -> phi                            none
      self_awareness  phi -> [k]phi                scope(phi) within {k}
      gateway         [k]phi -> [n]phi       k < n <= min(S) or
                                             max(S) <= n < k, S = scope(phi)
      disjunction     [k](phi | psi) -> ([k]phi | [k]psi)
                                 max(scope(phi)) <= k <= min(scope(psi))
    """

    def need(key: str):
        if key not in params or params[key] is None:
            raise ProofFormatError(f"schema {schema!r} needs parameter {key!r}")
        return params[key]

    if schema == "distributivity":
        k, phi, psi = need("k"), need("phi"), need("psi")
        return (
            Implies(Box(k, Implies(phi, psi)), Implies(Box(k, phi), Box(k, psi))),
            True,
        )
    if schema == "reflexivity":
        k, phi = need("k"), need("phi")
        return Implies(Box(k, phi), phi), True
    if schema == "self_awareness":
        k, phi = need("k"), need("phi")
        return Implies(phi, Box(k, phi)), scope(phi).indices <= {k}
    if schema == "gateway":
        k, n, phi = need("k"), need("n"), need("phi")
        return Implies(Box(k, phi), Box(n, phi)), gateway_side(k, n, scope(phi))
    if schema == "disjunction":
        k, phi, psi = need("k"), need("phi"), need("psi")
        side = scope(phi).max_val <= k <= scope(psi).min_val
        return (
            Implies(Box(k, disj(phi, psi)), disj(Box(k, phi), Box(k, psi))),
            side,
        )
    raise ProofFormatError(f"unknown axiom schema {schema!r}")


def match_axiom(schema: str, params: dict, line_formula: Formula) -> bool:
    """True when line_formula is exactly the instantiated schema and the
    schema's side condition holds."""
    expected, side_ok = instantiate_axiom(schema, params)
    return side_ok and line_formula == expected


def _axiom_params(rule: AxiomRule) -> dict:
    return {"k": rule.k, "n": rule.n, "phi": rule.phi, "psi": rule.psi}


def check_script(script: ProofScript) -> ScriptVerdict:
    """Verify every line; accepted only when all lines check and the final
    line is the goal. Forward, missing, or duplicate line references are
    format errors, not verdicts."""
    by_id: dict[int, tuple[Formula, bool]] = {}
    checks: list[LineCheck] = []
    failure: tuple[int, str] | None = None

    def resolve(line: ProofLine, ref: int) -> tuple[Formula, bool]:
        if ref >= line.id:
            raise ProofFormatError(
                f"line {line.id} references line {ref}, which is not earlier"
            )
        if ref not in by_id:
            raise ProofFormatError(f"line {line.id} references missing line {ref}")
        return by_id[ref]

    for line in script.lines:
        if line.id <= 0:
            raise ProofFormatError(f"line ids must be positive, got {line.id}")
        if line.id in by_id:
            raise ProofFormatError(f"duplicate line id {line.id}")
        ok, reason, tainted = True, None, False
        rule = line.rule
        if isinstance(rule, PremiseRule):
            tainted = True
            if not script.premises_allowed:
                ok, reason = False, "premise lines are not allowed in this script"
        elif isinstance(rule, TautologyRule):
            try:
                if not is_tautology(line.formula):
                    ok, reason = False, "not a propositional tautology"
            except VariableLimitError:
                ok, reason = False, (
                    "tautology oracle variable limit exceeded; split the step"
                )
        elif isinstance(rule, AxiomRule):
            if not match_axiom(rule.schema, _axiom_params(rule), line.formula):
                ok, reason = False, (
                    f"not a valid {rule.schema} instance for the given parameters"
                )
        elif isinstance(rule, ModusPonensRule):
            ante, taint_a = resolve(line, rule.antecedent)
            impl, taint_i = resolve(line, rule.implication)
            tainted = taint_a or taint_i
            if impl != Implies(ante, line.formula):
                ok, reason = False, (
                    f"line {rule.implication} is not (line {rule.antecedent} "
                    "-> this line)"
                )
        elif isinstance(rule, NecessitationRule):
            source, taint_s = resolve(line, rule.source)
            if taint_s:
                ok, reason, tainted = False, (
                    "necessitation applied to a premise-dependent line"
                ), True
            elif line.formula != Box(rule.channel, source):
                ok, reason = False, (
                    f"formula is not line {rule.source} boxed at channel "
                    f"{rule.channel}"
                )
        else:
            raise ProofFormatError(f"unknown rule {rule!r}")
        by_id[line.id] = (line.formula, tainted)
        checks.append(LineCheck(line.id, ok, reason, tainted))
        if not ok and failure is None:
            failure = (line.id, reason)

    if failure is None:
        if not script.lines:
            failure = (0, "script has no lines")
        elif script.lines[-1].formula != script.goal:
            failure = (script.lines[-1].id, "final line does not match the goal")
    return ScriptVerdict(failure is None, tuple(checks), failure)


# --- file format ---------------------------------------------------------

_TOP_KEYS = {"goal", "premises_allowed", "lines"}
_LINE_KEYS = {"id", "formula", "rule"}
_RULE_KEYS = {
    "taut": {"type"},
    "premise": {"type"},
    "mp": {"type", "from", "impl"},
    "nec": {"type", "k", "from"},
    "axiom": {"type", "schema", "k", "n", "phi", "psi"},
}


def _integer(obj: dict, key: str, where: str) -> int:
    # JSON booleans are Python ints and floats would be truncated by int(),
    # so only a genuine integer is accepted.
    value = obj.get(key)
    if type(value) is not int:
        raise ProofFormatError(f'{where}: "{key}" must be an integer, got {value!r}')
    return value


def _formula(obj: dict, key: str, where: str) -> Formula:
    # parse() needs a string; anything else is a format error, not a crash.
    text = obj[key]
    if not isinstance(text, str):
        raise ProofFormatError(f'{where}: "{key}" must be a formula string, got {text!r}')
    try:
        return parse(text)
    except FormulaSyntaxError as exc:
        # Name the place; the type and the offset into text stay.
        exc.args = (f'{where}: "{key}": {exc}',)
        raise


def _rule_from_dict(obj: dict, line_id: int) -> Rule:
    if not isinstance(obj, dict) or "type" not in obj:
        raise ProofFormatError(f'line {line_id}: rule must be an object with "type"')
    kind = obj["type"]
    if not isinstance(kind, str) or kind not in _RULE_KEYS:
        raise ProofFormatError(f"line {line_id}: unknown rule type {kind!r}")
    unknown = sorted(set(obj) - _RULE_KEYS[kind])
    if unknown:
        raise ProofFormatError(
            f"line {line_id}: unknown rule keys: {', '.join(unknown)}"
        )
    if kind == "taut":
        return TautologyRule()
    if kind == "premise":
        return PremiseRule()
    where = f"line {line_id}"
    if kind == "mp":
        return ModusPonensRule(_integer(obj, "from", where), _integer(obj, "impl", where))
    if kind == "nec":
        return NecessitationRule(_integer(obj, "k", where), _integer(obj, "from", where))
    schema = obj.get("schema")
    if schema not in SCHEMAS:
        raise ProofFormatError(f"line {line_id}: unknown axiom schema {schema!r}")
    if "k" not in obj or "phi" not in obj:
        raise ProofFormatError(f'line {line_id}: axiom rules need "k" and "phi"')
    return AxiomRule(
        schema=schema,
        k=_integer(obj, "k", where),
        phi=_formula(obj, "phi", where),
        n=_integer(obj, "n", where) if "n" in obj else None,
        psi=_formula(obj, "psi", where) if "psi" in obj else None,
    )


def script_from_dict(doc: dict) -> ProofScript:
    if not isinstance(doc, dict):
        raise ProofFormatError("proof script must be a JSON object")
    unknown = sorted(set(doc) - _TOP_KEYS)
    if unknown:
        raise ProofFormatError(f"unknown keys: {', '.join(unknown)}")
    if "goal" not in doc or "lines" not in doc:
        raise ProofFormatError('proof scripts need "goal" and "lines"')
    if not isinstance(doc["lines"], list):
        raise ProofFormatError('"lines" must be a list')
    lines = []
    for entry in doc["lines"]:
        if not isinstance(entry, dict):
            raise ProofFormatError("line entries must be objects")
        unknown = sorted(set(entry) - _LINE_KEYS)
        if unknown:
            raise ProofFormatError(f"unknown line keys: {', '.join(unknown)}")
        if not {"id", "formula", "rule"} <= set(entry):
            raise ProofFormatError('line entries need "id", "formula", and "rule"')
        line_id = _integer(entry, "id", "line entry")
        lines.append(
            ProofLine(
                line_id,
                _formula(entry, "formula", f"line {line_id}"),
                _rule_from_dict(entry["rule"], line_id),
            )
        )
    premises_allowed = doc.get("premises_allowed", False)
    if not isinstance(premises_allowed, bool):
        raise ProofFormatError(
            f'"premises_allowed" must be true or false, got {premises_allowed!r}'
        )
    return ProofScript(
        lines=tuple(lines),
        goal=_formula(doc, "goal", "proof script"),
        premises_allowed=premises_allowed,
    )


def _rule_to_dict(rule: Rule) -> dict:
    if isinstance(rule, TautologyRule):
        return {"type": "taut"}
    if isinstance(rule, PremiseRule):
        return {"type": "premise"}
    if isinstance(rule, ModusPonensRule):
        return {"type": "mp", "from": rule.antecedent, "impl": rule.implication}
    if isinstance(rule, NecessitationRule):
        return {"type": "nec", "k": rule.channel, "from": rule.source}
    out = {"type": "axiom", "schema": rule.schema, "k": rule.k, "phi": render(rule.phi)}
    if rule.n is not None:
        out["n"] = rule.n
    if rule.psi is not None:
        out["psi"] = render(rule.psi)
    return out


def script_to_dict(script: ProofScript) -> dict:
    return {
        "goal": render(script.goal),
        "premises_allowed": script.premises_allowed,
        "lines": [
            {"id": ln.id, "formula": render(ln.formula), "rule": _rule_to_dict(ln.rule)}
            for ln in script.lines
        ],
    }


def load_script(path) -> ProofScript:
    with open(path, "r", encoding="utf-8") as fh:
        return script_from_dict(json.load(fh))


# --- bundled corpus --------------------------------------------------------

def _hypothetical_syllogism(a: Formula, b: Formula, c: Formula) -> Formula:
    # (a -> b) -> ((b -> c) -> (a -> c))
    return Implies(Implies(a, b), Implies(Implies(b, c), Implies(a, c)))


def corpus() -> dict[str, ProofScript]:
    """Named machine-checkable scripts for the stock derived laws, each
    grounded at fixed channels and concrete atoms."""
    out: dict[str, ProofScript] = {}

    # prop1: [0]p@0 -> [0][0]p@0 (knowledge is transitive).
    box_p = parse("[0]p@0")
    goal = Implies(box_p, Box(0, box_p))
    out["prop1"] = ProofScript(
        lines=(ProofLine(1, goal, AxiomRule("self_awareness", k=0, phi=box_p)),),
        goal=goal,
    )

    # prop2: <0>p@0 -> [0]<0>p@0 (possibility is known).
    dia_p = diamond(0, parse("p@0"))
    goal = Implies(dia_p, Box(0, dia_p))
    out["prop2"] = ProofScript(
        lines=(ProofLine(1, goal, AxiomRule("self_awareness", k=0, phi=dia_p)),),
        goal=goal,
    )

    # prop3: [0]<2>p@2 -> [1]<2>p@2 (knowledge about a far channel survives
    # moving one step toward it).
    dia2 = diamond(2, parse("p@2"))
    goal = Implies(Box(0, dia2), Box(1, dia2))
    out["prop3"] = ProofScript(
        lines=(ProofLine(1, goal, AxiomRule("gateway", k=0, n=1, phi=dia2)),),
        goal=goal,
    )

    # prop4: [0][2]p@2 -> [0][1][2]p@2.
    bn = parse("[2]p@2")
    a = Box(0, bn)            # [0][2]p@2
    b = Box(1, bn)            # [1][2]p@2
    l1 = Implies(a, b)
    l4 = Implies(Box(0, a), Box(0, b))
    l5 = Implies(a, Box(0, a))
    goal = Implies(a, Box(0, b))
    out["prop4"] = ProofScript(
        lines=(
            ProofLine(1, l1, AxiomRule("gateway", k=0, n=1, phi=bn)),
            ProofLine(2, Box(0, l1), NecessitationRule(0, 1)),
            ProofLine(
                3,
                Implies(Box(0, l1), l4),
                AxiomRule("distributivity", k=0, phi=a, psi=b),
            ),
            ProofLine(4, l4, ModusPonensRule(2, 3)),
            ProofLine(5, l5, AxiomRule("self_awareness", k=0, phi=a)),
            ProofLine(
                6,
                _hypothetical_syllogism(a, Box(0, a), Box(0, b)),
                TautologyRule(),
            ),
            ProofLine(7, Implies(l4, goal), ModusPonensRule(5, 6)),
            ProofLine(8, goal, ModusPonensRule(4, 7)),
        ),
        goal=goal,
    )

    # prop5: [1]([0]p@0 | [2]q@2) -> ([1]p@0 | [1]q@2).
    phi = parse("p@0")
    psi = parse("q@2")
    bk, bn_ = Box(0, phi), Box(2, psi)
    premise = Box(1, disj(bk, bn_))
    split = disj(Box(1, bk), Box(1, bn_))
    goal = Implies(premise, disj(Box(1, phi), Box(1, psi)))
    refl_k = Implies(bk, phi)
    refl_n = Implies(bn_, psi)
    drop_k = Implies(Box(1, bk), Box(1, phi))
    drop_n = Implies(Box(1, bn_), Box(1, psi))
    # (premise -> split) -> (drop_k -> (drop_n -> goal)) is propositional.
    glue = Implies(
        Implies(premise, split), Implies(drop_k, Implies(drop_n, goal))
    )
    out["prop5"] = ProofScript(
        lines=(
            ProofLine(
                1,
                Implies(premise, split),
                AxiomRule("disjunction", k=1, phi=bk, psi=bn_),
            ),
            ProofLine(2, refl_k, AxiomRule("reflexivity", k=0, phi=phi)),
            ProofLine(3, Box(1, refl_k), NecessitationRule(1, 2)),
            ProofLine(
                4,
                Implies(Box(1, refl_k), drop_k),
                AxiomRule("distributivity", k=1, phi=bk, psi=phi),
            ),
            ProofLine(5, drop_k, ModusPonensRule(3, 4)),
            ProofLine(6, refl_n, AxiomRule("reflexivity", k=2, phi=psi)),
            ProofLine(7, Box(1, refl_n), NecessitationRule(1, 6)),
            ProofLine(
                8,
                Implies(Box(1, refl_n), drop_n),
                AxiomRule("distributivity", k=1, phi=bn_, psi=psi),
            ),
            ProofLine(9, drop_n, ModusPonensRule(7, 8)),
            ProofLine(10, glue, TautologyRule()),
            ProofLine(11, Implies(drop_k, Implies(drop_n, goal)), ModusPonensRule(1, 10)),
            ProofLine(12, Implies(drop_n, goal), ModusPonensRule(5, 11)),
            ProofLine(13, goal, ModusPonensRule(9, 12)),
        ),
        goal=goal,
    )

    # lemma8: [1](p@1 & q@1) -> ([1]p@1 & [1]q@1) (knowledge of a
    # conjunction splits).
    phi = parse("p@1")
    psi = parse("q@1")
    both = conj(phi, psi)
    keep_l = Implies(both, phi)
    keep_r = Implies(both, psi)
    half_l = Implies(Box(1, both), Box(1, phi))
    half_r = Implies(Box(1, both), Box(1, psi))
    goal = Implies(Box(1, both), conj(Box(1, phi), Box(1, psi)))
    pair_up = Implies(half_l, Implies(half_r, goal))
    out["lemma8"] = ProofScript(
        lines=(
            ProofLine(1, keep_l, TautologyRule()),
            ProofLine(2, Box(1, keep_l), NecessitationRule(1, 1)),
            ProofLine(
                3,
                Implies(Box(1, keep_l), half_l),
                AxiomRule("distributivity", k=1, phi=both, psi=phi),
            ),
            ProofLine(4, half_l, ModusPonensRule(2, 3)),
            ProofLine(5, keep_r, TautologyRule()),
            ProofLine(6, Box(1, keep_r), NecessitationRule(1, 5)),
            ProofLine(
                7,
                Implies(Box(1, keep_r), half_r),
                AxiomRule("distributivity", k=1, phi=both, psi=psi),
            ),
            ProofLine(8, half_r, ModusPonensRule(6, 7)),
            ProofLine(9, pair_up, TautologyRule()),
            ProofLine(10, Implies(half_r, goal), ModusPonensRule(4, 9)),
            ProofLine(11, goal, ModusPonensRule(8, 10)),
        ),
        goal=goal,
    )

    # lemma9_3way: a three-disjunct split at k=1 with the left group {0}
    # and the right group {2, 3}:
    # [1]((p@0 | q@2) | r@3) -> ([1]p@0 | [1](q@2 | r@3)).
    f0 = parse("p@0")
    f2 = parse("q@2")
    f3 = parse("r@3")
    flat = disj(disj(f0, f2), f3)
    grouped = disj(f0, disj(f2, f3))
    regroup = Implies(flat, grouped)
    boxed_regroup = Implies(Box(1, flat), Box(1, grouped))
    split = Implies(Box(1, grouped), disj(Box(1, f0), Box(1, disj(f2, f3))))
    goal = Implies(Box(1, flat), disj(Box(1, f0), Box(1, disj(f2, f3))))
    out["lemma9_3way"] = ProofScript(
        lines=(
            ProofLine(1, regroup, TautologyRule()),
            ProofLine(2, Box(1, regroup), NecessitationRule(1, 1)),
            ProofLine(
                3,
                Implies(Box(1, regroup), boxed_regroup),
                AxiomRule("distributivity", k=1, phi=flat, psi=grouped),
            ),
            ProofLine(4, boxed_regroup, ModusPonensRule(2, 3)),
            ProofLine(
                5,
                split,
                AxiomRule("disjunction", k=1, phi=f0, psi=disj(f2, f3)),
            ),
            ProofLine(
                6,
                _hypothetical_syllogism(
                    Box(1, flat), Box(1, grouped), disj(Box(1, f0), Box(1, disj(f2, f3)))
                ),
                TautologyRule(),
            ),
            ProofLine(7, Implies(split, goal), ModusPonensRule(4, 6)),
            ProofLine(8, goal, ModusPonensRule(5, 7)),
        ),
        goal=goal,
    )

    return out
