"""Shared builders and independent oracles for the test suite."""

import functools
import itertools

from chainlogic import (
    Atom,
    Bottom,
    ExplicitChainProtocol,
    Implies,
    SearchBounds,
    UndeclaredAtomError,
    ValueDomainError,
    enumerate_protocols,
    runs,
    runs_fixing,
)


def make_protocol(window, values, local, atoms=None):
    return ExplicitChainProtocol(window, values, local, atoms)


def full_relation(left, right):
    return [(u, v) for u in left for v in right]


def two_value_cube():
    """Three channels, values 0/1 everywhere, all transitions allowed."""
    vs = ("0", "1")
    return make_protocol(
        (0, 2),
        {0: vs, 1: vs, 2: vs},
        {1: full_relation(vs, vs), 2: full_relation(vs, vs)},
        {0: {"p": ("1",)}, 1: {"p": ("1",)}, 2: {"p": ("1",)}},
    )


def gateway_countermodel():
    """Knowledge at channel 1 about channel 0 that channel 2 does not have."""
    return make_protocol(
        (0, 2),
        {0: ("u", "v"), 1: ("x", "y"), 2: ("z",)},
        {1: [("u", "x"), ("v", "y")], 2: [("x", "z"), ("y", "z")]},
        {0: {"p": ("u",)}, 1: {}, 2: {}},
    )


def brute_force_runs(p):
    """Product-filter enumeration, independent of the path-walking code."""
    lo, hi = p.window
    columns = [list(p.iter_values(k)) for k in p.channels()]
    out = []
    for combo in itertools.product(*columns):
        if all(
            p.local(k).holds(combo[k - lo - 1], combo[k - lo])
            for k in range(lo + 1, hi + 1)
        ):
            out.append(combo)
    return out


def enum_evaluate(p, run, f, memo=None):
    """The enumeration evaluator, kept as the oracle for the chain walk.

    A box scans ``runs_fixing`` for the run's value at its channel, or every
    run when the channel is out of window, and evaluates its body on each.
    ``memo`` maps (channel, value, body) to a box's verdict; None disables it.
    """
    lo, hi = p.window
    if isinstance(f, Bottom):
        return False
    if isinstance(f, Atom):
        k = f.channel
        if not lo <= k <= hi or not p.atom_declared(k, f.name):
            raise UndeclaredAtomError(f.name, k)
        v = run[k - lo]
        if not p.has_value(k, v):
            raise ValueDomainError(k, v)
        return p.atom_holds(k, f.name, v)
    if isinstance(f, Implies):
        return (not enum_evaluate(p, run, f.lhs, memo)) or enum_evaluate(
            p, run, f.rhs, memo
        )
    k = f.channel
    v = run[k - lo] if lo <= k <= hi else None
    key = (k, v, f.body)
    if memo is not None and key in memo:
        return memo[key]
    universe = runs(p) if v is None else runs_fixing(p, k, v)
    result = all(enum_evaluate(p, other, f.body, memo) for other in universe)
    if memo is not None:
        memo[key] = result
    return result


def enum_counterexample(p, f, memo=None):
    """The first run in runs() order falsifying f, by scanning every run."""
    for r in runs(p):
        if not enum_evaluate(p, r, f, memo):
            return r
    return None


def reference_candidates(channels, max_values, atoms):
    """The canonical candidate stream, built straight from its definition:
    value-set sizes ascending, then relation bitmasks, then every truth
    table, last coordinate fastest; protocols without runs left out."""
    labels = "abcdefghijklmnopqrstuvwxyz"
    names = ("p", "q", "r", "s", "t", "u", "v", "w")[:atoms]
    for sizes in itertools.product(range(1, max_values + 1), repeat=channels):
        relations = [
            range(1, 1 << (left * right)) for left, right in zip(sizes, sizes[1:])
        ]
        tables = [range(1 << s) for s in sizes for _ in names]
        for masks in itertools.product(*relations):
            local = {
                k: [
                    (labels[i], labels[j])
                    for i in range(sizes[k - 1])
                    for j in range(sizes[k])
                    if mask >> (i * sizes[k] + j) & 1
                ]
                for k, mask in enumerate(masks, start=1)
            }
            for flat in itertools.product(*tables):
                atoms_by_channel = {
                    k: {
                        name: [labels[j] for j in range(s) if flat[k * len(names) + a] >> j & 1]
                        for a, name in enumerate(names)
                    }
                    for k, s in enumerate(sizes)
                }
                values = {k: labels[:s] for k, s in enumerate(sizes)}
                p = make_protocol((0, channels - 1), values, local, atoms_by_channel)
                if brute_force_runs(p):
                    yield p


@functools.lru_cache(maxsize=None)
def exhaustive_suite(channels, max_values, atoms):
    return tuple(enumerate_protocols(SearchBounds(channels, max_values, atoms)))
