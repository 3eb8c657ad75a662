"""The benchmark's own formula trees.

Generators build formulas as nested lists (JSON-friendly), render them to
the CLI's concrete syntax, and hand the same trees to the oracles, so no
verdict check depends on the package's parser.

    ["false"]  ["atom", name, channel]  ["not", f]  ["and", f, g]
    ["or", f, g]  ["imp", f, g]  ["box", k, f]  ["dia", k, f]
"""

from __future__ import annotations


def atom(name: str, channel: int) -> list:
    return ["atom", name, channel]


def neg(f: list) -> list:
    return ["not", f]


def conj(f: list, g: list) -> list:
    return ["and", f, g]


def disj(f: list, g: list) -> list:
    return ["or", f, g]


def imp(f: list, g: list) -> list:
    return ["imp", f, g]


def box(k: int, f: list) -> list:
    return ["box", k, f]


def dia(k: int, f: list) -> list:
    return ["dia", k, f]


def render(f: list) -> str:
    """Concrete syntax accepted by chainlogic's parser."""
    op = f[0]
    if op == "false":
        return "false"
    if op == "atom":
        return f"{f[1]}@{f[2]}"
    if op == "not":
        return "!" + render(f[1])
    if op == "box":
        return f"[{f[1]}]" + render(f[2])
    if op == "dia":
        return f"<{f[1]}>" + render(f[2])
    # Binary connectives are always parenthesized, so any rendering is a
    # valid operand of a prefix operator.
    sym = {"and": "&", "or": "|", "imp": "->"}[op]
    return f"({render(f[1])} {sym} {render(f[2])})"


def channels(f: list) -> set[int]:
    """Every channel index in f: atom channels and modality channels."""
    op = f[0]
    if op == "false":
        return set()
    if op == "atom":
        return {f[2]}
    if op == "not":
        return channels(f[1])
    if op in ("box", "dia"):
        return {f[1]} | channels(f[2])
    return channels(f[1]) | channels(f[2])


def scope(f: list) -> set[int]:
    """Minimal channel set: atoms and modalities count, bodies are hidden."""
    op = f[0]
    if op == "false":
        return set()
    if op == "atom":
        return {f[2]}
    if op in ("box", "dia"):
        return {f[1]}
    if op == "not":
        return scope(f[1])
    return scope(f[1]) | scope(f[2])


def shift(f: list, delta: int) -> list:
    op = f[0]
    if op == "false":
        return f
    if op == "atom":
        return ["atom", f[1], f[2] + delta]
    if op == "not":
        return ["not", shift(f[1], delta)]
    if op in ("box", "dia"):
        return [op, f[1] + delta, shift(f[2], delta)]
    return [op, shift(f[1], delta), shift(f[2], delta)]

