"""Truth evaluation of formulas at protocol runs.

The clauses: false never holds; an atom holds when the channel's current
value is in its truth set; implication is classical; a box at channel k
holds when the body holds at every run sharing the current value at k.
A box whose channel lies outside the protocol window quantifies over all
runs, because out-of-window channels carry one shared default value.
"""

from __future__ import annotations

from .formula import Atom, Bottom, Box, Formula, Implies
from .protocol import ChainProtocol, ValueDomainError, runs, runs_fixing


class UndeclaredAtomError(ValueError):
    def __init__(self, name: str, channel: int):
        super().__init__(f"atom {name!r} is not declared at channel {channel}")
        self.name = name
        self.channel = channel


class StrictWindowError(ValueError):
    """A modality channel left the window while strict mode was on."""


_MISSING = object()


class EvalContext:
    """Per-protocol evaluation state.

    The cache maps (box channel, value at that channel, body) to the box's
    truth value. Two runs sharing the value at the box's channel give the
    box the same verdict, so the cache changes cost, never results; set
    ``memoize=False`` to force recomputation. ``strict_window=True`` turns
    out-of-window modalities into errors instead of all-run quantification.
    """

    def __init__(
        self,
        protocol: ChainProtocol,
        strict_window: bool = False,
        memoize: bool = True,
    ):
        self.protocol = protocol
        self.strict_window = strict_window
        self.memoize = memoize
        self._memo: dict = {}


def evaluate(ctx: EvalContext, run, f: Formula) -> bool:
    """Truth value of f at a run of ctx.protocol.

    Atoms must be declared at their channel and the run's labels must lie
    in the channel value sets; violations raise instead of defaulting.
    """
    p = ctx.protocol
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
        return (not evaluate(ctx, run, f.lhs)) or evaluate(ctx, run, f.rhs)

    k = f.channel
    if lo <= k <= hi:
        key = (k, run[k - lo], f.body)
        universe = None
    else:
        if ctx.strict_window:
            raise StrictWindowError(
                f"modality channel {k} is outside the window [{lo}, {hi}]"
            )
        # All runs share the default value out of window.
        key = (k, None, f.body)
        universe = runs(p)
    if ctx.memoize:
        cached = ctx._memo.get(key, _MISSING)
        if cached is not _MISSING:
            return cached
    if universe is None:
        universe = runs_fixing(p, k, key[1])
    result = all(evaluate(ctx, other, f.body) for other in universe)
    if ctx.memoize:
        ctx._memo[key] = result
    return result


def valid_in(ctx: EvalContext, f: Formula) -> bool:
    """True when f holds at every run of the protocol."""
    return all(evaluate(ctx, r, f) for r in runs(ctx.protocol))


def counterexample(ctx: EvalContext, f: Formula):
    """The first run in enumeration order falsifying f, or None if valid."""
    for r in runs(ctx.protocol):
        if not evaluate(ctx, r, f):
            return r
    return None
