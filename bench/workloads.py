"""Seeded inputs for the four workloads, and the checks on their outputs.

Each generator returns the query list of one pass. The composition of a
pass (how many queries of each cost class) is fixed; the seed only draws
the words, runs and formulas inside each class, so every seed costs the
same to within noise and the median and tail fall inside one class:

- telephone-eval, 41 queries: the tail rank lands among the 15 k=2 boxes,
  the median among the 72 cheap depth-1 boxes at k=0/1.
- chain-valid, 34 queries: the tail rank lands among the 9 valid n=5
  checks, the median among the 60 n=3 checks.
- falsify-exhaustive, 31 queries: fewer than 100 samples per run, so the
  tail is the 75th percentile, which lands among the 72 early violators
  below the laws and criterion 4's two slow formulas, as does the median.
- prove-sweep, 42 queries: the tail rank lands among the sweeps, the median
  among the cheapest synthetic scripts.

Expected answers never come from chainlogic: telephone and chain verdicts
come from the gap rule, countermodels from the canonical scan in
``oracle``, proof verdicts from how each script was built, and sweep
counts from the soundness of the schemas.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os

import oracle
from formulas import atom, box, conj, dia, disj, imp, neg, render, scope

LATIN = "abcdefghijklmnopqrstuvwxyz"

# Seconds one pass of each query list takes, with the untimed collection
# between queries, at the commit that defined the benchmark (2 vCPU,
# CPython 3.11). A run makes round(seconds / nominal) passes, so every
# commit measures the same queries.
NOMINAL_PASS_S = {
    "telephone-eval": 7.0,
    "chain-valid": 7.5,
    "falsify-exhaustive": 6.3,
    "prove-sweep": 1.4,
}


def _mutate(rng, word: str, d: int, alphabet: str) -> str:
    """A word at Hamming distance exactly d from ``word``."""
    letters = list(word)
    for i in rng.sample(range(len(word)), d):
        letters[i] = rng.choice([c for c in alphabet if c != word[i]])
    return "".join(letters)


def _eq(word: str, channel: int) -> list:
    return atom("eq_" + word, channel)


# --- telephone-eval -----------------------------------------------------------

TELEPHONE_ARGV = ["telephone", "--len", "4", "--alphabet", "latin", "--chain", "3", "eval"]


def _walk(rng) -> list[str]:
    r = ["".join(rng.choice(LATIN) for _ in range(4))]
    for _ in range(2):
        r.append(_mutate(rng, r[-1], rng.randint(0, 1), LATIN))
    return r


def _telephone_query(qid, group, run, f) -> dict:
    argv = TELEPHONE_ARGV + ["--run", ",".join(run), "--formula", render(f), "--json"]
    return {"id": qid, "group": group, "argv": argv, "run": run, "formula": f}


def _smallest_neighbor(word: str) -> str:
    """The first successor the chain lists: lowest first non-'a' letter."""
    for i, c in enumerate(word):
        if c != "a":
            return word[:i] + "a" + word[i + 1:]
    return word


def _depth1(rng, k: int, j: int, far: bool):
    run = _walk(rng)
    gap = abs(k - j)
    d = rng.randint(gap + 1, 4) if far else rng.randint(0, gap)
    return run, box(k, neg(_eq(_mutate(rng, run[k], d, LATIN), j)))


def telephone_eval(rng) -> list[dict]:
    qs = []
    add = lambda group, run, f: qs.append(_telephone_query(f"t{len(qs):02d}", group, run, f))
    # Depth-1 boxes at k=0/1 exhaust about 10^4 runs fixing one word; at
    # k=2 the left factor is filtered through ~4k words first and costs 10x.
    for i in range(24):
        add("box01-true", *_depth1(rng, i % 2, rng.randrange(3), far=True))
    for i in range(8):
        add("box01-false", *_depth1(rng, i % 2, rng.randrange(3), far=False))
    for j in (0, 1, 2, rng.randrange(3), rng.randrange(3)):
        add("box2-true", *_depth1(rng, 2, j, far=True))
    add("box2-false", *_depth1(rng, 2, rng.randrange(3), far=False))
    # Nested boxes: criterion 1's query (about 100 inner boxes of 10^4 runs
    # each), a [k][k] box whose inner verdict is memoized, and a false
    # [0][1] box whose w sits next to the first run the outer box visits,
    # so the refutation comes at once.
    add("nested-crit1", ["byte", "bite", "cite"], box(0, box(1, neg(_eq("book", 2)))))
    k, j = rng.randrange(2), rng.randrange(3)
    run, body = _depth1(rng, k, j, far=True)
    add("nested-true", run, box(k, body))
    run = _walk(rng)
    s1 = _smallest_neighbor(run[0])
    add("nested-false", run, box(0, box(1, neg(_eq(_mutate(rng, s1, 1, LATIN), 2)))))
    return qs


def check_telephone_eval(q, rc, payload) -> str | None:
    run = q["run"]
    if not oracle.is_walk(run):
        return "generated run is not a walk"
    expect = oracle.telephone_box_value(run, q["formula"])
    if payload.get("value") is not expect or rc != (0 if expect else 1):
        return f"expected {expect}, got rc={rc} value={payload.get('value')}"
    return None


# --- chain-valid --------------------------------------------------------------

ABC_WORDS = ["".join(w) for w in itertools.product("abc", repeat=3)]

# (valid, invalid) queries per chain length in one pass.
CHAIN_MIX = {3: (10, 10), 4: (4, 4), 5: (3, 1), 6: (1, 1)}


def chain_valid(rng) -> list[dict]:
    qs = []
    for n, (n_valid, n_invalid) in CHAIN_MIX.items():
        for _ in range(n_valid):
            # Two words two letters apart never sit on adjacent channels, so
            # the box holds everywhere and every run is scanned.
            u = rng.choice(ABC_WORDS)
            v = _mutate(rng, u, rng.randint(2, 3), "abc")
            qs.append((n, "valid", box(0, neg(conj(_eq(u, n - 1), _eq(v, n - 2))))))
        for _ in range(n_invalid):
            # The only counterexamples start with u, and every u starts with
            # "cc", so the scan reaches them late.
            u = "cc" + rng.choice("abc")
            v = _mutate(rng, u, rng.randint(0, min(3, n - 1)), "abc")
            qs.append((n, "invalid", neg(conj(_eq(u, 0), _eq(v, n - 1)))))
    return [
        {
            "id": f"c{i:02d}",
            "group": f"n{n}-{kind}",
            "n": n,
            "argv": ["telephone", "--len", "3", "--alphabet", "abc", "--chain", str(n),
                     "valid", "--formula", render(f), "--json"],
            "formula": f,
        }
        for i, (n, kind, f) in enumerate(qs)
    ]


def check_chain_valid(q, rc, payload) -> str | None:
    witness = oracle.chain_counterexample(q["n"], ABC_WORDS, q["formula"])
    got = payload.get("counterexample")
    if payload.get("valid") is not (witness is None) or got != witness:
        return f"expected counterexample {witness}, got {got}"
    if rc != (0 if witness is None else 1):
        return f"exit code {rc}"
    return None


# --- falsify-exhaustive -------------------------------------------------------

P0, P2 = atom("p", 0), atom("p", 2)

# The display-gateway laws hold on every candidate, so each query scans
# the whole (3, 2, 1) space.
DISPLAY_LAWS = [
    imp(box(0, dia(2, P2)), box(1, dia(2, P2))),
    imp(box(0, box(2, P2)), box(0, box(1, box(2, P2)))),
    imp(box(1, disj(box(0, P0), box(2, P2))), disj(box(1, P0), box(1, P2))),
]

# Criterion 4: (formula, channels, witness run pinned by hand).
PINNED = [
    (imp(box(1, P0), box(2, P0)), 3, ["a", "b", "a"]),
    (imp(box(0, disj(atom("p", 1), P2)), disj(box(0, atom("p", 1)), box(0, P2))), 3, ["a", "a", "b"]),
    (imp(P0, box(1, P0)), 2, ["a", "a"]),
    (imp(box(1, atom("p", 1)), box(0, atom("p", 1))), 2, ["a", "a"]),
]


def _two_run_model(p0: bool, p1: bool) -> oracle.ExplicitModel:
    """Value-set sizes (1, 1, 2) with p@2 true on one of the two runs."""
    return oracle.ExplicitModel({
        "window": [0, 2],
        "channels": [
            {"index": 0, "values": ["a"], "atoms": {"p": ["a"] if p0 else []}},
            {"index": 1, "values": ["a"], "atoms": {"p": ["a"] if p1 else []}},
            {"index": 2, "values": ["a", "b"], "atoms": {"p": ["b"]}},
        ],
        "local": [
            {"channel": 1, "pairs": [["a", "a"]]},
            {"channel": 2, "pairs": [["a", "a"], ["a", "b"]]},
        ],
    })


SMALL_MODELS = [_two_run_model(p0, p1) for p0 in (False, True) for p1 in (False, True)]


def _random_formula(rng, chans, depth: int) -> list:
    roll = rng.random()
    if depth == 0 or roll < 0.4:
        a = atom("p", rng.choice(chans))
        return a if rng.random() < 0.5 else neg(a)
    if roll < 0.7:
        return [rng.choice(("and", "or", "imp")),
                _random_formula(rng, chans, depth - 1),
                _random_formula(rng, chans, depth - 1)]
    return [rng.choice(("box", "dia")), rng.choice(chans), _random_formula(rng, chans, depth - 1)]


def _violator(rng, schema: str) -> list:
    """A schema instance whose side condition fails and which one of the
    SMALL_MODELS refutes, so its first countermodel comes within the
    first few dozen candidates of the canonical order."""
    while True:
        if schema == "self_awareness":  # phi -> [0]phi, scope(phi) within {0}
            phi = _random_formula(rng, (0, 2), 2)
            f = imp(phi, box(0, phi))
        elif schema == "gateway":  # [2]phi -> [0]phi, needs max(scope) <= 0
            phi = _random_formula(rng, (2,), 2)
            f = imp(box(2, phi), box(0, phi))
        else:  # [0](phi | psi) -> ([0]phi | [0]psi), needs max(scope phi) <= 0
            phi = _random_formula(rng, (0, 2), 1)
            psi = _random_formula(rng, (0, 2), 1)
            f = imp(box(0, disj(phi, psi)), disj(box(0, phi), box(0, psi)))
        if 2 in scope(phi) and any(m.first_falsifying_run(f) for m in SMALL_MODELS):
            return f


VIOLATORS_PER_SCHEMA = 8


def _falsify_argv(f, channels: int) -> list[str]:
    return ["falsify", "--formula", render(f), "--channels", str(channels),
            "--max-values", "2", "--atoms", "1", "--json"]


def falsify_exhaustive(rng) -> list[dict]:
    qs = []
    for f in DISPLAY_LAWS:
        qs.append({"group": "law", "formula": f, "channels": 3})
    for f, channels, run in PINNED:
        qs.append({"group": "pinned", "formula": f, "channels": channels, "pinned": run})
    for schema in ("self_awareness", "gateway", "disjunction"):
        for _ in range(VIOLATORS_PER_SCHEMA):
            qs.append({"group": "violator-" + schema, "formula": _violator(rng, schema), "channels": 3})
    for i, q in enumerate(qs):
        q["id"] = f"f{i:02d}"
        q["argv"] = _falsify_argv(q["formula"], q["channels"])
    return qs


def check_falsify(q, rc, payload, first_countermodel) -> str | None:
    if q["group"] == "law":
        if payload.get("found") is not False or rc != 0:
            return f"display law refuted: rc={rc}"
        return None
    if payload.get("found") is not True or rc != 1:
        return f"no countermodel reported: rc={rc}"
    doc, run = payload["protocol"], payload["run"]
    model = oracle.ExplicitModel(doc)
    g = oracle.embed(q["formula"])
    if tuple(run) not in model.runs or model.holds(g, tuple(run)):
        return "reported run is not a countermodel"
    if "pinned" in q and run != q["pinned"]:
        return f"witness {run} drifted from the pinned {q['pinned']}"
    expect = first_countermodel(q)
    if oracle.normalize_doc(doc) != oracle.normalize_doc(expect[0]) or run != expect[1]:
        return "countermodel is not the canonically first one"
    return None


# --- prove-sweep --------------------------------------------------------------


def _corpus_scripts() -> dict[str, dict]:
    from chainlogic import corpus, script_to_dict

    return {name: script_to_dict(s) for name, s in corpus().items()}


def _edited(doc: dict, edit) -> dict:
    doc = json.loads(json.dumps(doc))
    edit(doc)
    return doc


def _line(doc, i):
    return doc["lines"][i - 1]


def _single(formula: str, rule: dict) -> dict:
    return {"goal": formula, "premises_allowed": False,
            "lines": [{"id": 1, "formula": formula, "rule": rule}]}


def _criterion3_mutations(corpus: dict) -> list[tuple[str, dict, int]]:
    """Criterion 3's mutated scripts with the line each must be rejected at."""
    p1, p4, l8 = corpus["prop1"], corpus["prop4"], corpus["lemma8"]

    def nec_wrong_channel(d):
        _line(d, 2)["formula"] = "[1](" + _line(d, 1)["formula"] + ")"

    def nec_on_premise(d):
        _line(d, 1)["rule"] = {"type": "premise"}
        d["premises_allowed"] = True

    return [
        ("prop1-axiom-k", _edited(p1, lambda d: _line(d, 1)["rule"].update(k=1)), 1),
        ("prop1-axiom-phi", _edited(p1, lambda d: _line(d, 1)["rule"].update(phi="p@0")), 1),
        ("gateway-direction", _single(
            "([1]<0>p@0 -> [2]<0>p@0)",
            {"type": "axiom", "schema": "gateway", "k": 1, "n": 2, "phi": "<0>p@0"}), 1),
        ("gateway-k-eq-n", _single(
            "([1]p@2 -> [1]p@2)",
            {"type": "axiom", "schema": "gateway", "k": 1, "n": 1, "phi": "p@2"}), 1),
        ("prop4-mp-source", _edited(p4, lambda d: _line(d, 4)["rule"].update({"from": 1, "impl": 3})), 4),
        ("prop4-nec-channel", _edited(p4, nec_wrong_channel), 2),
        ("prop4-nec-premise", _edited(p4, nec_on_premise), 2),
        ("lemma8-bogus-taut", _edited(l8, lambda d: _line(d, 1).update(formula="((p@1 | q@1) -> p@1)")), 1),
        ("disjunction-off-side", _single(
            "([0]([1]p@1 | [2]q@2) -> ([0][1]p@1 | [0][2]q@2))",
            {"type": "axiom", "schema": "disjunction", "k": 0, "phi": "[1]p@1", "psi": "[2]q@2"}), 1),
        ("prop1-goal", _edited(p1, lambda d: d.update(goal="([0]p@0 -> [0][0]q@0)")), 1),
        ("self-awareness-off-channel", _single(
            "(p@1 -> [0]p@1)",
            {"type": "axiom", "schema": "self_awareness", "k": 0, "phi": "p@1"}), 1),
        ("lemma8-mp-non-implication", _edited(l8, lambda d: _line(d, 4)["rule"].update({"from": 2, "impl": 2})), 4),
    ]


def _syllogism_script(rng, m: int, mutation: str | None) -> tuple[dict, int | None]:
    """A derivation of [c]A1 -> [c]Am from one m-variable tautology.

    A_m is an atom and A_i = [c_i]A_{i+1}, so each A_i -> A_{i+1} is a
    reflexivity instance. Line 1 is the chained syllogism
    (A1->A2) -> ((A2->A3) -> ... -> (A1 -> Am)), whose skeleton has m
    variables; m-1 axiom/modus-ponens pairs discharge it, then
    necessitation and distributivity box the result. A mutation breaks one
    line and the function returns that line's id as the expected rejection.
    """
    cs = [rng.randrange(4) for _ in range(m - 1)]
    a = [atom(rng.choice("pqrs"), rng.randrange(4))]
    for c in reversed(cs):
        a.insert(0, box(c, a[0]))
    links = [imp(a[i], a[i + 1]) for i in range(m - 1)]

    def syllogism(conclusion):
        for link in reversed(links):
            conclusion = imp(link, conclusion)
        return conclusion

    chain = imp(a[0], a[-1])
    tail = syllogism(chain)
    # With Am true and A1 false every link holds but Am -> A1 fails.
    taut = syllogism(imp(a[-1], a[0])) if mutation == "taut" else tail
    lines = [{"id": 1, "formula": render(taut), "rule": {"type": "taut"}}]
    rest, prev = tail, 1
    for i in range(m - 1):
        ax = len(lines) + 1
        lines.append({"id": ax, "formula": render(links[i]),
                      "rule": {"type": "axiom", "schema": "reflexivity", "k": cs[i],
                               "phi": render(a[i + 1])}})
        rest = rest[2]
        lines.append({"id": ax + 1, "formula": render(rest),
                      "rule": {"type": "mp", "from": ax, "impl": prev}})
        prev = ax + 1
    c = rng.randrange(4)
    boxed = imp(box(c, a[0]), box(c, a[-1]))
    n = len(lines)
    lines += [
        {"id": n + 1, "formula": render(box(c, chain)), "rule": {"type": "nec", "k": c, "from": n}},
        {"id": n + 2, "formula": render(imp(box(c, chain), boxed)),
         "rule": {"type": "axiom", "schema": "distributivity", "k": c,
                  "phi": render(a[0]), "psi": render(a[-1])}},
        {"id": n + 3, "formula": render(boxed), "rule": {"type": "mp", "from": n + 1, "impl": n + 2}},
    ]
    bad = None
    if mutation == "taut":
        bad = 1
    elif mutation == "axiom":
        bad = 2 * rng.randrange(1, m)
        lines[bad - 1]["rule"]["k"] = (lines[bad - 1]["rule"]["k"] + 1) % 4
    elif mutation == "nec":
        bad = n + 1
        lines[bad - 1]["rule"]["k"] = (c + 1) % 4
    elif mutation == "mp":
        bad = 2 * rng.randrange(2, m) + 1
        lines[bad - 1]["rule"]["impl"] = 1
    return {"goal": render(boxed), "premises_allowed": False, "lines": lines}, bad


SWEEP_SCHEMAS = ("distributivity", "reflexivity", "self_awareness", "gateway", "disjunction")
SWEEP_TRIALS = 1000


def prove_sweep(rng) -> list[dict]:
    corpus = _corpus_scripts()
    scripts = [(f"corpus-{name}", doc, None) for name, doc in corpus.items()]
    scripts += [(f"crit3-{label}", doc, line) for label, doc, line in _criterion3_mutations(corpus)]
    for m in range(12, 21):
        doc, _ = _syllogism_script(rng, m, None)
        scripts.append((f"synthetic-{m}", doc, None))
        kind = rng.choice(("taut", "axiom", "nec", "mp"))
        doc, line = _syllogism_script(rng, m, kind)
        scripts.append((f"synthetic-{m}-{kind}", doc, line))
    qs = []
    for name, doc, line in scripts:
        qs.append({
            "id": f"p{len(qs):02d}",
            "group": name.split("-")[0],
            "argv": ["prove", "--script", "{inputs}/" + name + ".json", "--json"],
            "script": name,
            "document": doc,
            "reject_line": line,
        })
    for schema in SWEEP_SCHEMAS:
        qs.append({
            "id": f"p{len(qs):02d}",
            "group": "sweep",
            "schema": schema,
            "seed": rng.randrange(1 << 31),
            "trials": SWEEP_TRIALS,
        })
    return qs


def check_prove(q, rc, payload) -> str | None:
    line = q["reject_line"]
    if line is None:
        if payload.get("accepted") is not True or rc != 0:
            return f"expected accepted, got {payload.get('reason')}"
    elif payload.get("accepted") is not False or payload.get("line") != line or rc != 1:
        return f"expected rejection at line {line}, got line {payload.get('line')}"
    return None


def check_sweep(q, report) -> str | None:
    # The five schemas are sound, so sweeps with side conditions enforced
    # never find a violation.
    if report["trials"] != q["trials"] or report["violations"] != 0:
        return f"sweep reported {report['violations']} violations"
    return None


GENERATORS = {
    "telephone-eval": telephone_eval,
    "chain-valid": chain_valid,
    "falsify-exhaustive": falsify_exhaustive,
    "prove-sweep": prove_sweep,
}


def write_inputs(workload: str, rng, directory: str) -> list[dict]:
    """Generate one pass's queries and write every input file under
    ``directory``: queries.json (argv lists and oracle data) and, for
    prove-sweep, one JSON file per proof script."""
    queries = GENERATORS[workload](rng)
    # Interleave the cost classes: the machine's speed drifts over seconds,
    # and a class run as one block would take its median from one stretch.
    rng.shuffle(queries)
    os.makedirs(directory, exist_ok=True)
    for q in queries:
        doc = q.pop("document", None)
        if doc is not None:
            with open(os.path.join(directory, q["script"] + ".json"), "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
    with open(os.path.join(directory, "queries.json"), "w", encoding="utf-8") as fh:
        json.dump(queries, fh, indent=1, sort_keys=True)
    return queries


def digest_inputs(directory: str) -> str:
    """SHA-256 over the names and bytes of the input files."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()
