"""Hilbert-style proof verification for the chain logic.

Five axiom schemas plus propositional tautologies, closed under modus
ponens and necessitation. Premise lines are allowed when a script opts in,
but anything derived from a premise is tainted and necessitation refuses
tainted sources: premises only ever combine through modus ponens.

A tautology line is decided by ``propositional.is_tautology`` over the
line's skeleton: the signs that the line being false forces are
propagated first, which settles a chained syllogism outright, and a truth
table is built only over the skeleton variables they leave unfixed. A
line whose skeleton has more variables than the limit is rejected, asking
for the step to be split, whatever propagation would make of it.

Justifications carry explicit instantiation parameters, so the checker
verifies a claimed instance instead of searching for one; verdicts are
reproducible and checking is linear in the script.

Loading a script parses each formula text once. ``script_from_dict``
keeps, for the length of one call, a dict from text to formula: a text
met again, or equal to the rendering of an immediate subformula of a
formula already loaded, takes that formula, and only the other texts go
to ``parse``. This is exact because ``parse(render(g)) == g``. In a
script written in canonical syntax a modus-ponens line is the consequent
of its implication line and an axiom's parameters are parts of its
line, so most lines are found, and lines share their subformulas. A text
spelled another way (other spacing, extra parentheses) is parsed as
before. Nothing is kept between calls.
"""

from __future__ import annotations

import json

from .formula import (
    Box,
    Formula,
    FormulaSyntaxError,
    Implies,
    Scope,
    _Frozen,
    _json_object,
    conj,
    disj,
    parse,
    render,
    scope,
)
from .propositional import VariableLimitError, is_tautology

SCHEMAS = (
    "distributivity",
    "reflexivity",
    "self_awareness",
    "gateway",
    "disjunction",
)


class ProofFormatError(ValueError):
    """Structurally invalid proof script (bad references, shapes, names)."""


class TautologyRule(_Frozen):
    """Justifies a line that is a propositional tautology."""


class PremiseRule(_Frozen):
    """Justifies a line as a premise, where the script allows premises."""


class AxiomRule(_Frozen):
    """Justifies a line as the named schema's instance at these parameters."""
    schema: str
    k: int
    phi: Formula
    n: int | None = None
    psi: Formula | None = None


class ModusPonensRule(_Frozen):
    """Justifies a line by modus ponens from two earlier lines."""
    antecedent: int  # line holding the antecedent
    implication: int  # line holding (antecedent -> this line)


class NecessitationRule(_Frozen):
    """Justifies [channel]phi by necessitation from the line phi."""
    channel: int
    source: int


Rule = TautologyRule | PremiseRule | AxiomRule | ModusPonensRule | NecessitationRule


class ProofLine(_Frozen):
    """One numbered line of a script: a formula and its justification."""
    id: int
    formula: Formula
    rule: Rule


class ProofScript(_Frozen):
    """The lines of a proof, its goal, and whether premises are allowed."""
    lines: tuple[ProofLine, ...]
    goal: Formula
    premises_allowed: bool = False


class LineCheck(_Frozen):
    """The checker's verdict on one line, and whether it rests on a premise."""
    line_id: int
    ok: bool
    reason: str | None
    tainted: bool


class ScriptVerdict(_Frozen):
    """The verdict on a script: its line checks and the first failure."""
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

_TOP_KEYS = frozenset({"goal", "premises_allowed", "lines"})
_LINE_KEYS = frozenset({"id", "formula", "rule"})
_RULE_KEYS = {
    "taut": frozenset({"type"}),
    "premise": frozenset({"type"}),
    "mp": frozenset({"type", "from", "impl"}),
    "nec": frozenset({"type", "k", "from"}),
    "axiom": frozenset({"type", "schema", "k", "n", "phi", "psi"}),
}


def _integer(obj: dict, key: str, where: str) -> int:
    # JSON booleans are Python ints and floats would be truncated by int(),
    # so only a genuine integer is accepted.
    value = obj.get(key)
    if type(value) is not int:
        raise ProofFormatError(f'{where}: "{key}" must be an integer, got {value!r}')
    return value


def _formula(obj: dict, key: str, where: str, known: dict) -> Formula:
    """The formula of text obj[key]: ``known[text]`` when the script has
    met that text, else ``parse(text)``. Either way the text and the
    rendered texts of the formula's immediate subformulas go into
    ``known``, so a later text that repeats one of them is not parsed."""
    # parse() needs a string; anything else is a format error, not a crash.
    text = obj[key]
    if not isinstance(text, str):
        raise ProofFormatError(f'{where}: "{key}" must be a formula string, got {text!r}')
    f = known.get(text)
    if f is None:
        try:
            f = parse(text)
        except FormulaSyntaxError as exc:
            # Name the place; the type and the offset into text stay.
            exc.args = (f'{where}: "{key}": {exc}',)
            raise
        known[text] = f
    t = type(f)
    if t is Implies:
        known.setdefault(render(f.lhs), f.lhs)
        known.setdefault(render(f.rhs), f.rhs)
    elif t is Box:
        known.setdefault(render(f.body), f.body)
    return f


def _rule_from_dict(obj: dict, line_id: int, known: dict) -> Rule:
    where = f"line {line_id}"
    kind = obj.get("type") if isinstance(obj, dict) else None
    if type(kind) is not str or kind not in _RULE_KEYS:
        given = obj if kind is None else kind
        raise ProofFormatError(f'{where}: rule must be an object with a known "type", got {given!r}')
    _json_object(obj, _RULE_KEYS[kind], (), where, ProofFormatError)
    if kind == "taut":
        return TautologyRule()
    if kind == "premise":
        return PremiseRule()
    if kind == "mp":
        return ModusPonensRule(_integer(obj, "from", where), _integer(obj, "impl", where))
    if kind == "nec":
        return NecessitationRule(_integer(obj, "k", where), _integer(obj, "from", where))
    schema = obj.get("schema")
    if schema not in SCHEMAS:
        raise ProofFormatError(f"{where}: unknown axiom schema {schema!r}")
    if "k" not in obj or "phi" not in obj:
        raise ProofFormatError(f'{where}: axiom rules need "k" and "phi"')
    return AxiomRule(
        schema=schema,
        k=_integer(obj, "k", where),
        phi=_formula(obj, "phi", where, known),
        n=_integer(obj, "n", where) if "n" in obj else None,
        psi=_formula(obj, "psi", where, known) if "psi" in obj else None,
    )


def script_from_dict(doc: dict) -> ProofScript:
    """Decode the JSON proof script shape into a ProofScript.

    Structural errors raise ProofFormatError: the script, each line entry
    and each rule go through ``formula._json_object``, which names the
    object and the unknown or missing keys, so unknown keys are rejected
    here as in protocol documents. A rule's "type" is checked first, then
    the rule's keys against those of its type."""
    _json_object(doc, _TOP_KEYS, ("goal", "lines"), "proof script", ProofFormatError)
    if not isinstance(doc["lines"], list):
        raise ProofFormatError('"lines" must be a list')
    known: dict[str, Formula] = {}  # text -> formula, for this call only
    lines = []
    for entry in doc["lines"]:
        _json_object(entry, _LINE_KEYS, ("id", "formula", "rule"), "line entry", ProofFormatError)
        line_id = _integer(entry, "id", "line entry")
        lines.append(
            ProofLine(
                line_id,
                _formula(entry, "formula", f"line {line_id}", known),
                _rule_from_dict(entry["rule"], line_id, known),
            )
        )
    premises_allowed = doc.get("premises_allowed", False)
    if not isinstance(premises_allowed, bool):
        raise ProofFormatError(
            f'"premises_allowed" must be true or false, got {premises_allowed!r}'
        )
    return ProofScript(
        lines=tuple(lines),
        goal=_formula(doc, "goal", "proof script", known),
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

class _Derivation:
    """The lines of a proof script, numbered from 1, each holding the formula
    its rule fixes: an axiom line the instance ``instantiate_axiom`` gives,
    ``nec(k, i)`` line i boxed at channel k, ``mp(i, j)`` the consequent of
    line j. Only tautology lines state a formula. Every method returns the
    number of the last line it added, and ``d[i]`` is line i's formula.
    Nothing is checked here: ``check_script`` judges the script."""

    def __init__(self):
        self.lines: list[ProofLine] = []

    def __getitem__(self, i: int) -> Formula:
        return self.lines[i - 1].formula

    def _add(self, formula: Formula, rule: Rule) -> int:
        self.lines.append(ProofLine(len(self.lines) + 1, formula, rule))
        return len(self.lines)

    def taut(self, formula: Formula) -> int:
        return self._add(formula, TautologyRule())

    def axiom(self, schema: str, **params) -> int:
        formula, _ = instantiate_axiom(schema, params)
        return self._add(formula, AxiomRule(schema, **params))

    def nec(self, k: int, i: int) -> int:
        return self._add(Box(k, self[i]), NecessitationRule(k, i))

    def mp(self, i: int, j: int) -> int:
        return self._add(self[j].rhs, ModusPonensRule(i, j))

    def boxed(self, k: int, i: int) -> int:
        """From line i, a -> b, derive [k]a -> [k]b: necessitation,
        distributivity, modus ponens."""
        a, b = self[i].lhs, self[i].rhs
        return self.mp(self.nec(k, i), self.axiom("distributivity", k=k, phi=a, psi=b))

    def conclude(self, conclusion: Formula, *ids: int) -> int:
        """Derive ``conclusion`` from the lines ``ids`` by the tautology
        (line ids[0] -> (... -> conclusion)) and one modus ponens a line."""
        taut = conclusion
        for i in reversed(ids):
            taut = Implies(self[i], taut)
        line = self.taut(taut)
        for i in ids:
            line = self.mp(i, line)
        return line

    def script(self, goal: str) -> ProofScript:
        return ProofScript(tuple(self.lines), parse(goal))


def corpus() -> dict[str, ProofScript]:
    """Named machine-checkable scripts for the stock derived laws, each
    grounded at fixed channels and concrete atoms. A script states its
    steps and tautologies; every other line takes the formula its rule
    fixes (``_Derivation``). Each goal is stated once, as text parsed apart
    from the lines, so ``check_script`` tests that the last line reaches
    it."""
    out: dict[str, ProofScript] = {}

    # prop1: knowledge is transitive.
    d = _Derivation()
    d.axiom("self_awareness", k=0, phi=parse("[0]p@0"))
    out["prop1"] = d.script("[0]p@0 -> [0][0]p@0")

    # prop2: possibility is known.
    d = _Derivation()
    d.axiom("self_awareness", k=0, phi=parse("<0>p@0"))
    out["prop2"] = d.script("<0>p@0 -> [0]<0>p@0")

    # prop3: knowledge about a far channel survives moving one step toward it.
    d = _Derivation()
    d.axiom("gateway", k=0, n=1, phi=parse("<2>p@2"))
    out["prop3"] = d.script("[0]<2>p@2 -> [1]<2>p@2")

    # prop4: the gateway step under [0], after self-awareness adds the [0].
    d = _Derivation()
    bn = parse("[2]p@2")
    lift = d.boxed(0, d.axiom("gateway", k=0, n=1, phi=bn))
    aware = d.axiom("self_awareness", k=0, phi=Box(0, bn))
    d.conclude(Implies(d[aware].lhs, d[lift].rhs), aware, lift)
    out["prop4"] = d.script("[0][2]p@2 -> [0][1][2]p@2")

    # prop5: split the disjunction at 1, then drop each inner box under [1]
    # by reflexivity.
    d = _Derivation()
    p, q = parse("p@0"), parse("q@2")
    split = d.axiom("disjunction", k=1, phi=Box(0, p), psi=Box(2, q))
    drop_p = d.boxed(1, d.axiom("reflexivity", k=0, phi=p))
    drop_q = d.boxed(1, d.axiom("reflexivity", k=2, phi=q))
    joined = disj(d[drop_p].rhs, d[drop_q].rhs)
    d.conclude(Implies(d[split].lhs, joined), split, drop_p, drop_q)
    out["prop5"] = d.script("[1]([0]p@0 | [2]q@2) -> ([1]p@0 | [1]q@2)")

    # lemma8: knowledge of a conjunction splits.
    d = _Derivation()
    both = parse("p@1 & q@1")
    left = d.boxed(1, d.taut(Implies(both, parse("p@1"))))
    right = d.boxed(1, d.taut(Implies(both, parse("q@1"))))
    joined = conj(d[left].rhs, d[right].rhs)
    d.conclude(Implies(d[left].lhs, joined), left, right)
    out["lemma8"] = d.script("[1](p@1 & q@1) -> ([1]p@1 & [1]q@1)")

    # lemma9_3way: a three-disjunct split at k=1 with the left group {0}
    # and the right group {2, 3}.
    d = _Derivation()
    p, qr = parse("p@0"), parse("q@2 | r@3")
    regroup = d.boxed(1, d.taut(Implies(parse("(p@0 | q@2) | r@3"), disj(p, qr))))
    split = d.axiom("disjunction", k=1, phi=p, psi=qr)
    d.conclude(Implies(d[regroup].lhs, d[split].rhs), regroup, split)
    out["lemma9_3way"] = d.script("[1]((p@0 | q@2) | r@3) -> ([1]p@0 | [1](q@2 | r@3))")

    return out
