"""Command-line front end.

Exit codes: 0 when the queried property is established (formula holds,
proof accepted, no countermodel within budget), 1 when it is refuted
(with a witness or diagnostic printed), and 2 for usage, parse, or file
format errors. ``--json`` switches each report to a single JSON object on
stdout with the same verdict as the text output.

Each process runs one verb, so a module that only one verb uses is
imported inside that verb's handler: ``proofcheck`` in ``_cmd_prove`` and
``search`` in ``_cmd_falsify``, and both load ``propositional``, the
tautology oracle. They are the larger part of the package's import time
(no verb imports ``dataclasses``); ``scope``, ``eval``, ``valid`` and
``counterexample`` never use them. ``formula``,
``protocol`` and ``semantics`` are imported here: four verbs use them, so
deferring them would only move their cost into the first query.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .formula import parse, render, scope
from .protocol import is_run, load_protocol, protocol_to_dict, telephone
from .semantics import EvalContext, counterexample, evaluate

class _UsageError(ValueError):
    pass


def _emit(args, out, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload), file=out)
    else:
        for line in text_lines:
            print(line, file=out)


def _format_scope(sc) -> str:
    return "{" + ", ".join(str(k) for k in sorted(sc.indices)) + "}"


def _cmd_scope(args, out) -> int:
    sc = scope(parse(args.formula))
    _emit(
        args,
        out,
        {"command": "scope", "formula": args.formula, "scope": sorted(sc.indices)},
        [_format_scope(sc)],
    )
    return 0


def _parse_run(text: str, protocol) -> tuple:
    r = tuple(text.split(","))
    if not is_run(protocol, r):
        raise _UsageError(f"{text!r} is not a run of the protocol")
    return r


def _protocol(args):
    """The protocol a verb runs on: the --protocol file, or the telephone
    the telephone command's options describe."""
    # Runs are written and read with "," between their values.
    if args.command != "telephone":
        protocol = load_protocol(args.protocol)
        if any("," in v for k in protocol.channels() for v in protocol.values(k)):
            raise _UsageError("protocol values cannot contain ','")
        return protocol
    if "," in args.alphabet:
        raise _UsageError("--alphabet cannot contain ','")
    return telephone(args.len, args.alphabet, args.chain)


def _cmd_eval(args, out) -> int:
    protocol = _protocol(args)
    ctx = EvalContext(protocol, strict_window=args.strict_window)
    r = _parse_run(args.run, protocol)
    value = evaluate(ctx, r, parse(args.formula))
    _emit(
        args,
        out,
        {"command": "eval", "formula": args.formula, "run": list(r), "value": value},
        ["true" if value else "false"],
    )
    return 0 if value else 1


def _cmd_witness(args, out) -> int:
    """``valid`` or ``counterexample``: one search for the first falsifying
    run, reported in the verb's own payload and text."""
    command = getattr(args, "verb", args.command)
    ctx = EvalContext(_protocol(args), strict_window=args.strict_window)
    witness = counterexample(ctx, parse(args.formula))
    found = witness is not None
    run = list(witness) if found else None
    if command == "valid":
        payload = {"valid": not found, "counterexample": run}
        lines = ["invalid", "counterexample: " + ",".join(run)] if found else ["valid"]
    else:
        payload = {"found": found, "run": run}
        lines = [",".join(run)] if found else ["none: the formula is valid on this protocol"]
    _emit(args, out, {"command": command, "formula": args.formula, **payload}, lines)
    return 1 if found else 0


def _cmd_prove(args, out) -> int:
    from .proofcheck import check_script, load_script

    verdict = check_script(load_script(args.script))
    payload = {
        "command": "prove",
        "script": args.script,
        "accepted": verdict.accepted,
        "line": verdict.failure[0] if verdict.failure else None,
        "reason": verdict.failure[1] if verdict.failure else None,
    }
    if verdict.accepted:
        _emit(args, out, payload, ["accepted"])
        return 0
    line, reason = verdict.failure
    _emit(args, out, payload, [f"rejected at line {line}: {reason}"])
    return 1


def _cmd_falsify(args, out) -> int:
    from .search import ExhaustiveMode, RandomMode, SearchBounds, _embedding, _falsify_embedded

    if (args.seed is None) != (args.samples is None):
        raise _UsageError("--seed and --samples must be given together")
    mode = (
        RandomMode(args.seed, args.samples)
        if args.seed is not None
        else ExhaustiveMode()
    )
    bounds = SearchBounds(
        num_channels=args.channels,
        max_values_per_channel=args.max_values,
        atoms_per_channel=args.atoms,
        mode=mode,
    )
    shifted, read = _embedding(parse(args.formula), bounds)
    hit = _falsify_embedded(shifted, read, bounds, budget=args.budget)
    if hit is None:
        payload = {
            "command": "falsify",
            "formula": args.formula,
            "found": False,
            "note": "no countermodel within the bounds and budget; "
            "this proves nothing beyond the explored space",
        }
        _emit(args, out, payload, [payload["note"]])
        return 0
    protocol, run = hit
    doc = protocol_to_dict(protocol)
    payload = {
        "command": "falsify",
        "formula": args.formula,
        "checked_formula": render(shifted),
        "found": True,
        "protocol": doc,
        "run": list(run),
    }
    _emit(
        args,
        out,
        payload,
        [
            "countermodel found",
            "checked formula: " + render(shifted),
            "protocol: " + json.dumps(doc),
            "run: " + ",".join(run),
        ],
    )
    return 1


def _add_common(parser: argparse.ArgumentParser, evaluates: bool) -> None:
    """--json for every verb; --strict-window for the verbs that evaluate
    on a protocol."""
    parser.add_argument("--json", action="store_true", help="emit one JSON object")
    if evaluates:
        parser.add_argument(
            "--strict-window",
            action="store_true",
            help="error on modalities outside the protocol window",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainlogic",
        description="Epistemic logic over linear communication chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scope", help="minimal channel set of a formula")
    p.add_argument("formula")
    _add_common(p, evaluates=False)
    p.set_defaults(handler=_cmd_scope)

    p = sub.add_parser("eval", help="evaluate a formula at a run")
    p.add_argument("--protocol", required=True, help="protocol JSON file")
    p.add_argument("--run", required=True, help="comma-separated values, one per channel")
    p.add_argument("--formula", required=True)
    _add_common(p, evaluates=True)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("valid", help="check a formula on every run")
    p.add_argument("--protocol", required=True, help="protocol JSON file")
    p.add_argument("--formula", required=True)
    _add_common(p, evaluates=True)
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("prove", help="verify a proof script")
    p.add_argument("--script", required=True, help="proof script JSON file")
    _add_common(p, evaluates=False)
    p.set_defaults(handler=_cmd_prove)

    p = sub.add_parser("falsify", help="search small protocols for a countermodel")
    p.add_argument("--formula", required=True, help="formula to refute")
    p.add_argument("--channels", type=int, required=True, help="channels per candidate")
    p.add_argument(
        "--max-values", type=int, required=True, help="most values on one channel"
    )
    p.add_argument("--atoms", type=int, default=1, help="atoms per channel (default: 1)")
    p.add_argument(
        "--seed", type=int, default=None,
        help="random mode: seed of the sampler; needs --samples",
    )
    p.add_argument(
        "--samples", type=int, default=None,
        help="random mode: candidates to sample; needs --seed",
    )
    p.add_argument(
        "--budget", type=int, default=100_000,
        help="candidates to scan: positions in the full canonical order, "
        "skipped candidates included, or samples in random mode "
        "(default: 100,000)",
    )
    _add_common(p, evaluates=False)
    p.set_defaults(handler=_cmd_falsify)

    p = sub.add_parser("telephone", help="the word-passing demo protocol")
    p.add_argument("--len", type=int, required=True, help="word length")
    p.add_argument(
        "--alphabet",
        required=True,
        help='named alphabet ("latin") or the letters themselves, e.g. "abc"',
    )
    p.add_argument("--chain", type=int, required=True, help="number of channels")
    verbs = p.add_subparsers(dest="verb", required=True)
    v = verbs.add_parser("eval")
    v.add_argument("--run", required=True)
    v.add_argument("--formula", required=True)
    _add_common(v, evaluates=True)
    v.set_defaults(handler=_cmd_eval)
    for verb in ("valid", "counterexample"):
        v = verbs.add_parser(verb)
        v.add_argument("--formula", required=True)
        _add_common(v, evaluates=True)
        v.set_defaults(handler=_cmd_witness)

    return parser


_parser = None  # built by the first run_cli call, then shared


def run_cli(argv=None, stdout=None, stderr=None) -> int:
    """Run one command and return its exit code. Everything it prints, the
    argparse usage errors and --help included, goes to ``stdout`` and
    ``stderr`` (sys.stdout and sys.stderr when omitted)."""
    global _parser
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    if _parser is None:
        _parser = build_parser()
    try:
        # argparse prints usage errors and --help on sys.stderr and
        # sys.stdout; the shared parser cannot hold the caller's streams.
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = _parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage; normalize its exit code
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.handler(args, out)
    except (ValueError, OSError) as exc:
        # Every bad-input error the library raises is a ValueError, and so
        # is json.JSONDecodeError.
        print(f"error: {exc}", file=err)
        return 2
    except RecursionError:
        print("error: input nested too deeply", file=err)
        return 2


def main() -> None:
    sys.exit(run_cli())
