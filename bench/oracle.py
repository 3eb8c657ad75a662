"""Independent oracles for every verdict the benchmark checks.

Nothing here imports chainlogic. Telephone verdicts come from the gap
rule, explicit protocols from a product-filter evaluator that applies the
box clause directly, and countermodel searches from a scan of the
documented canonical candidate order.
"""

from __future__ import annotations

import itertools

from formulas import shift, channels

# --- telephone protocols: the gap rule ----------------------------------------
#
# A run of the word-passing chain changes at most one letter per hop and may
# keep its word, so a run through pinned words exists iff each pair of
# consecutive pins differs in at most as many letters as their channel gap.


def hamming(a: str, b: str) -> int:
    return sum(x != y for x, y in zip(a, b))


def gap_feasible(pins) -> bool:
    """pins: (channel, word) pairs; True when some run passes through all."""
    ordered = sorted(pins)
    for (i, u), (j, v) in zip(ordered, ordered[1:]):
        if hamming(u, v) > j - i:
            return False
    return True


def is_walk(run) -> bool:
    return all(hamming(a, b) <= 1 for a, b in zip(run, run[1:]))


def telephone_box_value(run, f) -> bool:
    """Value of [k1]...[km]!(eq_w@j) at a run.

    The formula fails iff a sequence of runs hands the value at k1 on to
    w at j, each run agreeing with the next at the next box channel. Each
    link needs its two pinned words within their channel gap, and Hamming
    distance is a path metric, so the free intermediate words exist iff
    the total gap covers the distance from r[k1] to w.
    """
    ks = []
    while f[0] == "box":
        ks.append(f[1])
        f = f[2]
    if not (f[0] == "not" and f[1][0] == "atom" and f[1][1].startswith("eq_")):
        raise ValueError(f"not a telephone box formula: {f!r}")
    w, j = f[1][1][3:], f[1][2]
    if not ks:
        return run[j] != w
    path = ks + [j]
    budget = sum(abs(a - b) for a, b in zip(path, path[1:]))
    return hamming(run[ks[0]], w) > budget


def first_bad_run(n: int, words, can_finish):
    """Lexicographically first run of the n-channel chain over ``words``
    such that can_finish(prefix) holds for every prefix; None if none.
    Greedy: each step takes the smallest neighbor that still completes."""
    prefix: list[str] = []
    for i in range(n):
        for x in words:
            if i and hamming(prefix[-1], x) > 1:
                continue
            if can_finish(prefix + [x]):
                prefix.append(x)
                break
        else:
            return None
    return prefix


def chain_counterexample(n: int, words, f):
    """Expected ``valid`` answer on telephone(len, alphabet, n): the first
    falsifying run, or None when the formula is valid.

    Two shapes occur: [0]!(eq_u@a & eq_v@b), false at r iff some run through
    r[0] also carries u at a and v at b; and !(eq_u@0 & eq_v@m), false at r
    iff r itself carries both.
    """
    if f[0] == "box":
        _, k, (_, (_, a, b)) = f
        pins = [(a[2], a[1][3:]), (b[2], b[1][3:])]
        return first_bad_run(
            n, words, lambda prefix: gap_feasible([(k, prefix[0])] + pins)
        )
    _, (_, a, b) = f
    pins = dict([(a[2], a[1][3:]), (b[2], b[1][3:])])

    def can_finish(prefix):
        i = len(prefix) - 1
        if any(c <= i and prefix[c] != w for c, w in pins.items()):
            return False
        return gap_feasible([(i, prefix[i])] + [(c, w) for c, w in pins.items() if c > i])

    return first_bad_run(n, words, can_finish)


# --- explicit protocols: product filter and the box clause --------------------


class ExplicitModel:
    """A protocol document (the CLI's JSON shape) with its runs listed by
    filtering the product of the value sets."""

    def __init__(self, doc: dict):
        self.lo, self.hi = doc["window"]
        values = {ch["index"]: sorted(ch["values"]) for ch in doc["channels"]}
        self.atoms = {
            ch["index"]: {name: set(vs) for name, vs in ch.get("atoms", {}).items()}
            for ch in doc["channels"]
        }
        pairs = {e["channel"]: {tuple(p) for p in e["pairs"]} for e in doc["local"]}
        cols = [values[k] for k in range(self.lo, self.hi + 1)]
        self.runs = [
            r
            for r in itertools.product(*cols)
            if all((r[i - 1], r[i]) in pairs[self.lo + i] for i in range(1, len(r)))
        ]

    def holds(self, f, r) -> bool:
        op = f[0]
        if op == "false":
            return False
        if op == "atom":
            return r[f[2] - self.lo] in self.atoms[f[2]][f[1]]
        if op == "not":
            return not self.holds(f[1], r)
        if op == "and":
            return self.holds(f[1], r) and self.holds(f[2], r)
        if op == "or":
            return self.holds(f[1], r) or self.holds(f[2], r)
        if op == "imp":
            return not self.holds(f[1], r) or self.holds(f[2], r)
        k, body = f[1], f[2]
        peers = [s for s in self.runs if self._agree(s, r, k)]
        if op == "box":
            return all(self.holds(body, s) for s in peers)
        return any(self.holds(body, s) for s in peers)

    def _agree(self, s, r, k) -> bool:
        # Out of the window every run carries the same default value.
        return not self.lo <= k <= self.hi or s[k - self.lo] == r[k - self.lo]

    def first_falsifying_run(self, f):
        for r in self.runs:
            if not self.holds(f, r):
                return r
        return None


_LABELS = "abcdefghijklmnopqrstuvwxyz"


def candidate_docs(num_channels: int, max_values: int, atom_names):
    """The bounded search space in its documented canonical order:
    value-set sizes ascending, then relation bitmasks, then truth-table
    bitmasks (bit i*right+j relates value i to value j; bit j of a truth
    mask makes the atom true at value j)."""
    c = num_channels
    for sizes in itertools.product(range(1, max_values + 1), repeat=c):
        rel_ranges = [range(1, 1 << (a * b)) for a, b in zip(sizes, sizes[1:])]
        truth_ranges = [range(1 << sizes[k]) for k in range(c) for _ in atom_names]
        for rel in itertools.product(*rel_ranges):
            local = []
            for k, mask in enumerate(rel, start=1):
                left, right = sizes[k - 1], sizes[k]
                pairs = [
                    [_LABELS[i], _LABELS[j]]
                    for i in range(left)
                    for j in range(right)
                    if mask >> (i * right + j) & 1
                ]
                local.append({"channel": k, "pairs": pairs})
            for flat in itertools.product(*truth_ranges):
                chans = []
                for k in range(c):
                    masks = flat[k * len(atom_names):(k + 1) * len(atom_names)]
                    chans.append({
                        "index": k,
                        "values": list(_LABELS[:sizes[k]]),
                        "atoms": {
                            name: [_LABELS[j] for j in range(sizes[k]) if m >> j & 1]
                            for name, m in zip(atom_names, masks)
                        },
                    })
                yield {"window": [0, c - 1], "channels": chans, "local": local}


def embed(f):
    """Shift channels so the lowest one becomes 0, as falsify does."""
    chans = channels(f)
    return shift(f, -min(chans)) if chans else f


def first_countermodel(f, num_channels: int, max_values: int, atom_names):
    """First (protocol document, run) in canonical order falsifying f."""
    g = embed(f)
    for doc in candidate_docs(num_channels, max_values, atom_names):
        model = ExplicitModel(doc)
        r = model.first_falsifying_run(g)
        if r is not None:
            return doc, list(r)
    return None


def normalize_doc(doc: dict) -> dict:
    """Order-insensitive form of a protocol document for comparison."""
    return {
        "window": list(doc["window"]),
        "channels": sorted(
            (
                ch["index"],
                sorted(ch["values"]),
                sorted((n, sorted(v)) for n, v in ch.get("atoms", {}).items()),
            )
            for ch in doc["channels"]
        ),
        "local": sorted((e["channel"], sorted(map(tuple, e["pairs"]))) for e in doc["local"]),
    }
