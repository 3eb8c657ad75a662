"""The traced pass: spans around each query's CLI call and around a replay
of the same work as public library calls, and the per-layer metrics.

Spans are kept in memory as [name, start, end, parent, query id, kind] and
written out when the run ends. ``kind`` is "query" for the span covering
one query, "main" for the call the untraced pass times (``run_cli``, or the
library call where no verb exists), "replay" for the public calls the CLI
makes, in its order, and "extra" for calls that only measure a layer (for
example exhausting ``runs_fixing`` for each box's pinned value). A layer's
self time is its spans' length minus the part their child spans cover.
"""

from __future__ import annotations

import gc
import gzip
import io
import json
import random
import statistics
from time import perf_counter

LATIN = "abcdefghijklmnopqrstuvwxyz"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}

    def begin(self, name: str, parent: int, qid: str, kind: str) -> int:
        self.spans.append([name, perf_counter(), None, parent, qid, kind])
        return len(self.spans) - 1

    def end(self, sid: int) -> None:
        self.spans[sid][2] = perf_counter()

    def call(self, parent: int, qid: str, kind: str, name: str, fn, *args, **kwargs):
        sid = self.begin(name, parent, qid, kind)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(sid)

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def self_ms(self) -> dict[str, float]:
        """Summed self time per span name."""
        children: dict[int, list[tuple[float, float]]] = {}
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        out: dict[str, float] = {}
        for sid, (name, start, end, _, _, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for s, e in sorted(children.get(sid, ())):
                s = max(s, reach)
                if e > s:
                    covered += e - s
                    reach = e
            out[name] = out.get(name, 0.0) + (end - start - covered) * 1e3
        return out

    def write(self, path: str, metrics: dict) -> None:
        doc = {
            "span_fields": ["name", "start_s", "end_s", "parent", "query", "kind"],
            "spans": self.spans,
            "self_ms": self.self_ms(),
            "counts": self.counts,
            "metrics": metrics,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _boxes(pkg, f):
    """Every box subformula of a core formula, outermost first."""
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, pkg.Box):
            yield g
            stack.append(g.body)
        elif isinstance(g, pkg.Implies):
            stack.extend((g.rhs, g.lhs))


def _count(iterable) -> int:
    return sum(1 for _ in iterable)


def _rebuild_args(p):
    """Constructor arguments that rebuild an explicit protocol."""
    lo, hi = p.window
    values = {k: p.values(k) for k in p.channels()}
    local = {k: p.local(k).pairs for k in range(lo + 1, hi + 1)}
    atoms = {
        k: {n: [v for v in p.values(k) if p.atom_holds(k, n, v)] for n in p.atom_names(k)}
        for k in p.channels()
    }
    return (lo, hi), values, local, atoms


class _Query:
    def __init__(self, sid: int, qid: str):
        self.sid, self.qid = sid, qid


def _formula_arg(argv) -> str:
    return argv[argv.index("--formula") + 1]


def replay_telephone_eval(tr, q, pkg, spec):
    call = lambda kind, name, fn, *a: tr.call(q.sid, q.qid, kind, name, fn, *a)
    p = call("replay", "protocol.build", pkg.telephone, 4, LATIN, 3)
    run = tuple(spec["run"])
    call("replay", "protocol.is_run", pkg.is_run, p, run)
    f = call("replay", "formula.parse", pkg.parse, _formula_arg(spec["argv"]))
    call("replay", "semantics.evaluate", pkg.evaluate, pkg.EvalContext(p), run, f)
    for b in _boxes(pkg, f):
        call("extra", "formula.cnf", pkg.scoped_cnf, b.body)
        n = call("extra", "protocol.fixing", lambda: _count(pkg.runs_fixing(p, b.channel, run[b.channel])))
        tr.count("protocol.fixing_runs", n)


def replay_chain_valid(tr, q, pkg, spec):
    call = lambda kind, name, fn, *a: tr.call(q.sid, q.qid, kind, name, fn, *a)
    p = call("replay", "protocol.build", pkg.telephone, 3, "abc", spec["n"])
    f = call("replay", "formula.parse", pkg.parse, _formula_arg(spec["argv"]))
    call("replay", "semantics.valid", pkg.counterexample, pkg.EvalContext(p), f)
    for b in _boxes(pkg, f):
        call("extra", "formula.cnf", pkg.scoped_cnf, b.body)
    tr.count("protocol.enum_runs", call("extra", "protocol.enum", lambda: _count(pkg.runs(p))))
    call("extra", "protocol.run_count", pkg.run_count, p)


def replay_falsify(tr, q, pkg, spec):
    call = lambda kind, name, fn, *a: tr.call(q.sid, q.qid, kind, name, fn, *a)
    f = call("replay", "formula.parse", pkg.parse, _formula_arg(spec["argv"]))
    bounds = pkg.SearchBounds(spec["channels"], 2, 1)
    g = call("replay", "search.embed", pkg.embed_formula, f, bounds)
    for b in _boxes(pkg, g):
        call("extra", "formula.cnf", pkg.scoped_cnf, b.body)
    # falsify() embeds the formula a second time before scanning.
    call("replay", "search.embed", pkg.embed_formula, f, bounds)
    stream = iter(pkg.enumerate_protocols(bounds))
    checked, hit = 0, None
    while hit is None:
        p = call("replay", "search.generate", next, stream, None)
        if p is None:
            break
        checked += 1
        call("extra", "protocol.run_count", pkg.run_count, p)
        call("extra", "protocol.build", pkg.ExplicitChainProtocol, *_rebuild_args(p))
        w = call("replay", "semantics.check", pkg.counterexample, pkg.EvalContext(p), g)
        if w is not None:
            hit = p
    tr.count("search.candidates", checked)
    if hit is None:
        tr.count("search.exhausted_checked", checked)
        tr.count("search.exhausted_space", pkg.candidate_count(bounds))
    else:
        call("replay", "protocol.to_dict", pkg.protocol_to_dict, hit)
        # The CLI renders the checked formula for the payload and the text.
        call("replay", "formula.render", pkg.render, g)
        call("replay", "formula.render", pkg.render, g)


def replay_prove(tr, q, pkg, spec, path):
    call = lambda kind, name, fn, *a: tr.call(q.sid, q.qid, kind, name, fn, *a)
    script = call("replay", "proofcheck.load", pkg.load_script, path)
    call("replay", "proofcheck.check", pkg.check_script, script)
    tr.count("proofcheck.lines", len(script.lines))
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    texts = [doc["goal"]]
    for line in doc["lines"]:
        texts.append(line["formula"])
        texts += [line["rule"][key] for key in ("phi", "psi") if key in line["rule"]]
    for text in texts:
        call("extra", "formula.parse", pkg.parse, text)
    for line in script.lines:
        if isinstance(line.rule, pkg.TautologyRule):
            n = pkg.skeleton(line.formula).num_vars
            tr.counts["formula.skeleton_vars_max"] = max(tr.counts.get("formula.skeleton_vars_max", 0), n)
            call("extra", "formula.tautology", pkg.is_tautology, line.formula)


def replay_sweep(tr, q, pkg, spec, bounds):
    call = lambda kind, name, fn, *a: tr.call(q.sid, q.qid, kind, name, fn, *a)
    rng = random.Random(spec["seed"])
    for _ in range(spec["trials"]):
        p = call("extra", "search.sample", pkg.sample_protocol, rng, bounds)
        call("extra", "protocol.build", pkg.ExplicitChainProtocol, *_rebuild_args(p))


def _traced_query(tr, q, pkg, workload, spec, resolve, sweep_bounds):
    """The main call and its replay; returns (exit code, stdout, error)."""
    if "argv" not in spec:
        bounds = sweep_bounds(spec)
        rep = tr.call(q.sid, q.qid, "main", "search.sweep", pkg.soundness_sweep,
                      spec["schema"], bounds, spec["trials"])
        tr.count("search.sweep_violations", rep.violations)
        replay_sweep(tr, q, pkg, spec, bounds)
        return None, json.dumps({"trials": rep.trials, "violations": rep.violations}), ""
    out, err = io.StringIO(), io.StringIO()
    argv = resolve(spec["argv"])
    rc = tr.call(q.sid, q.qid, "main", "cli.run_cli", pkg.cli.run_cli, argv, stdout=out, stderr=err)
    if workload == "telephone-eval":
        replay_telephone_eval(tr, q, pkg, spec)
    elif workload == "chain-valid":
        replay_chain_valid(tr, q, pkg, spec)
    elif workload == "falsify-exhaustive":
        replay_falsify(tr, q, pkg, spec)
    else:
        replay_prove(tr, q, pkg, spec, argv[2])
    return rc, out.getvalue(), err.getvalue()


def traced_pass(pkg, workload: str, queries, resolve, sweep_bounds, probe):
    """Run every query once under tracing. Returns the tracer and, per
    query, (spec, exit code, stdout, error) for the correctness check."""
    tr = Tracer()
    outputs = []
    for spec in queries:
        probe.sample()
        q = _Query(tr.begin("query", -1, spec["id"], "query"), spec["id"])
        try:
            outputs.append((spec, *_traced_query(tr, q, pkg, workload, spec, resolve, sweep_bounds)))
        except Exception as exc:  # a crash is a failed query, not a crashed run
            outputs.append((spec, "exception", "", repr(exc)))
        tr.end(q.sid)
        gc.collect()
    return tr, outputs


# Per-layer metric names and units, in report order.
LAYERS = [
    ("cli.overhead_ms", "ms"),
    ("formula.parse_ms", "ms"),
    ("formula.parse_calls", "count"),
    ("formula.render_ms", "ms"),
    ("formula.tautology_ms", "ms"),
    ("formula.tautology_calls", "count"),
    ("formula.skeleton_vars_max", "count"),
    ("formula.cnf_ms", "ms"),
    ("protocol.build_ms", "ms"),
    ("protocol.fixing_ms", "ms"),
    ("protocol.fixing_runs", "count"),
    ("protocol.enum_ms", "ms"),
    ("protocol.enum_runs", "count"),
    ("protocol.runs_per_s", "1/s"),
    ("protocol.run_count_ms", "ms"),
    ("semantics.eval_ms", "ms"),
    ("semantics.box_ms", "ms"),
    ("semantics.valid_ms", "ms"),
    ("semantics.valid_growth", "ratio"),
    ("semantics.check_ms", "ms"),
    ("search.generate_ms", "ms"),
    ("search.candidates", "count"),
    ("search.candidates_per_s", "1/s"),
    ("search.useful_ratio", "ratio"),
    ("search.sweep_ms", "ms"),
    ("search.sample_ms", "ms"),
    ("search.sweep_violations", "count"),
    ("proofcheck.load_ms", "ms"),
    ("proofcheck.check_ms", "ms"),
    ("proofcheck.lines", "count"),
    ("proofcheck.lines_per_s", "1/s"),
    ("trace.overhead_ratio", "ratio"),
]


def layer_metrics(tr: Tracer, queries, untraced_wall_s: float, scale) -> dict[str, float]:
    """Per-layer metrics of one traced pass; times are summed over the pass
    in milliseconds at nominal speed unless the name says otherwise.
    ``untraced_wall_s`` is the untraced pass's time at nominal speed and
    ``scale(seconds, start)`` brings an interval to nominal speed; every
    span of a query is scaled by the factor of its query span."""
    factor = {
        qid: scale(end - start, start) / (end - start)
        for _, start, end, _, qid, kind in tr.spans if kind == "query" and end > start
    }
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    main_s = 0.0
    by_query: dict[tuple[str, str], float] = {}
    replay_by_query: dict[str, float] = {}
    for name, start, end, _, qid, kind in tr.spans:
        ms = (end - start) * 1e3 * factor.get(qid, 1.0)
        total[name] = total.get(name, 0.0) + ms
        calls[name] = calls.get(name, 0) + 1
        by_query[(qid, name)] = by_query.get((qid, name), 0.0) + ms
        if kind == "main":
            main_s += ms / 1e3
        elif kind == "replay":
            replay_by_query[qid] = replay_by_query.get(qid, 0.0) + ms
    overheads = [
        by_query[(q["id"], "cli.run_cli")] - replay_by_query.get(q["id"], 0.0)
        for q in queries if (q["id"], "cli.run_cli") in by_query
    ]
    t = lambda name: total.get(name, 0.0)
    c = lambda name: tr.counts.get(name, 0)
    per_s = lambda n, ms: n / (ms / 1e3) if ms > 0 else 0.0

    def mean_valid_ms(n: int) -> float:
        vals = [by_query.get((q["id"], "semantics.valid"), 0.0)
                for q in queries if q.get("group") == f"n{n}-valid"]
        return statistics.fmean(vals) if vals else 0.0

    growth = mean_valid_ms(6) / mean_valid_ms(5) if mean_valid_ms(5) > 0 else 0.0
    space = c("search.exhausted_space")
    return {
        "cli.overhead_ms": statistics.median(overheads) if overheads else 0.0,
        "formula.parse_ms": t("formula.parse"),
        "formula.parse_calls": calls.get("formula.parse", 0),
        "formula.render_ms": t("formula.render"),
        "formula.tautology_ms": t("formula.tautology"),
        "formula.tautology_calls": calls.get("formula.tautology", 0),
        "formula.skeleton_vars_max": c("formula.skeleton_vars_max"),
        "formula.cnf_ms": t("formula.cnf"),
        "protocol.build_ms": t("protocol.build"),
        "protocol.fixing_ms": t("protocol.fixing"),
        "protocol.fixing_runs": c("protocol.fixing_runs"),
        "protocol.enum_ms": t("protocol.enum"),
        "protocol.enum_runs": c("protocol.enum_runs"),
        "protocol.runs_per_s": per_s(c("protocol.enum_runs"), t("protocol.enum")),
        "protocol.run_count_ms": t("protocol.run_count"),
        "semantics.eval_ms": t("semantics.evaluate"),
        "semantics.box_ms": t("semantics.evaluate") - t("protocol.fixing"),
        "semantics.valid_ms": t("semantics.valid"),
        "semantics.valid_growth": growth,
        "semantics.check_ms": t("semantics.check"),
        "search.generate_ms": t("search.generate"),
        "search.candidates": c("search.candidates"),
        "search.candidates_per_s": per_s(c("search.candidates"), t("search.generate")),
        "search.useful_ratio": c("search.exhausted_checked") / space if space else 0.0,
        "search.sweep_ms": t("search.sweep"),
        "search.sample_ms": t("search.sample"),
        "search.sweep_violations": c("search.sweep_violations"),
        "proofcheck.load_ms": t("proofcheck.load"),
        "proofcheck.check_ms": t("proofcheck.check"),
        "proofcheck.lines": c("proofcheck.lines"),
        "proofcheck.lines_per_s": per_s(c("proofcheck.lines"), t("proofcheck.check")),
        "trace.overhead_ratio": main_s / untraced_wall_s,
    }
