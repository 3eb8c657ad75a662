"""Truth evaluation of formulas at protocol runs, without enumerating runs.

The clauses: false never holds; an atom holds when the channel's current
value is in its truth set; implication is classical; a box at channel k
holds when the body holds at every run sharing the current value at k.
A box whose channel lies outside the protocol window quantifies over all
runs, because out-of-window channels carry one shared default value.

By locality a box ``[k]φ`` depends only on the value v at channel k, and
it holds exactly when no run through v falsifies φ. That question, and
``counterexample``, which asks it with no pinned value, are answered by one
walk along the chain, never by listing runs. A formula is compiled once
into its skeleton literals (maximal box and atom subformulas) grouped by
channel. The walk is depth-first, one channel per level; its state is
(channel, value, what the formula still needs): the formula with the
literals of the channels already visited replaced by their truth values
and simplified away. A state whose formula has become true is dropped, and
a state shown to have no falsifying completion is never expanded again, so
a walk costs O(channels · values · degree · states) edge visits instead of
one evaluation per run. Where a telephone channel holds only atoms and
what is left cannot fail unless one of them holds, the walk visits only
the words where one holds (see below). A box literal met on the way is
decided by a nested walk, once per (channel, value, body) and context. No
truth table is built, so a formula may have any number of literals.

The next state depends only on the state, the channel and the truth of the
channel's literals (its column, read as bits), not on the value itself:
it is a derivative of the formula (Brzozowski, J. ACM 1964). So each
compiled formula keeps a transition table from (state, channel, column) to
the next state, filled as walks take transitions, on any protocol, and a
residual is simplified once per transition of the plan, not once per value
a walk meets. Each column is cached per call, by (channel, value). States
are keyed by identity: every state a walk holds is the plan's start, True,
False or a value of the table, so no residual is ever hashed structurally.

When every literal of channel j is an atom and the column where all of them
are false takes the state to True, a value outside the union T of those
atoms' truth sets ends the walk at j, and j is filtered. On the telephone
the walk then lists no candidates there. The telephone computes them, s^w
words a channel and 1 + w·(s-1) neighbours a word, to keep the one or two
in T, so the walk visits instead the members t of T, sorted, for which
``holds(x, t)``, x the value it came from; a walk that starts at j starts
from the words of T (``has_value``). Neighbour lists and value lists are
sorted, so this gives the candidates in T in their order, and a skipped
value is exactly one the walk would have dropped: the witness, the dead
set and every verdict stay the same. The all-false transition is read
from the transition table, like any other, so nothing else is stored for
the decision; T comes from the protocol (``atom_values``) at each use,
because one plan serves every protocol a formula is checked on. On the
telephone, ``[0]!eq_w@2`` then steps only at w, not at 10,201 word pairs,
and lists no neighbours at channel 2. An explicit protocol's candidates
are stored lists: the walk visits them as they stand, and a value outside
T costs one cached column and one table lookup.

``evaluate`` and the walk share one evaluator, the residual simplifier
``_partial``: the walk hands it a column of decided literals, and
``evaluate`` a lookup that decides each literal at the run when it is
reached, so the rhs of an implication with a false lhs is never decided.
Both decide atoms and boxes alike through ``_column``, the one place a
literal is decided.
``_partial`` and every formula walker keep an explicit stack, so nesting
depth costs no recursion; only modal depth does: a nested box costs one
walk and two frames (``_first_falsifying`` → ``_column``), so about 490
nested boxes fit under Python's default recursion limit of 1,000.

Pinned at v on channel k, the walk goes from k down to lo through
predecessors and then from k+1 up to hi, which keeps it to runs through v
without computing reachable sets first. Unpinned, it walks the same way
from each of a set of start values at one channel. Started at lo, it goes
lo→hi in successor order, so the first run it completes is the first
falsifying run in ``protocol.runs`` order: the same canonical-first
witness an enumeration returns. But a first channel with no literal lists
every value, and the walk pushes each, though only a few values further
up may falsify anything. So on the telephone, unless lo is filtered, an
unpinned walk starts from the filtered channel j with the fewest words in
T (the highest on ties): every falsifying run passes through a word of T
at j, so one exists exactly when a walk from one of them finds it. That
settles ``valid`` and every out-of-window box. A refuted formula gets its
witness from a second walk, from lo, so the witness cannot move: the walk
from j only says whether there is one.

Atom declarations, ``strict_window`` and the run are checked once per
call, before evaluation, so a branch that evaluation short-circuits does
not hide an undeclared atom or an out-of-window box.
"""

from __future__ import annotations

from functools import lru_cache

from .formula import (
    Atom,
    Bottom,
    Box,
    Formula,
    Implies,
    _leaves,
    _variables,
)
from .protocol import ChainProtocol, TelephoneProtocol, check_assignment

class UndeclaredAtomError(ValueError):
    def __init__(self, name: str, channel: int):
        super().__init__(f"atom {name!r} is not declared at channel {channel}")
        self.name = name
        self.channel = channel


class StrictWindowError(ValueError):
    """A modality channel left the window while strict mode was on."""


class EvalContext:
    """Per-protocol evaluation state.

    The cache maps (box channel, value at that channel, body) to the box's
    truth value. Two runs sharing the value at the box's channel give the
    box the same verdict, so the cache changes cost, never results.
    ``strict_window=True`` turns out-of-window modalities into errors
    instead of all-run quantification.
    """

    def __init__(self, protocol: ChainProtocol, strict_window: bool = False):
        self.protocol = protocol
        self.strict_window = strict_window
        self._memo: dict = {}


# --- checks, once per call ----------------------------------------------------

def _check_leaves(ctx: EvalContext, leaves: dict) -> None:
    """Atoms must be declared at an in-window channel; in strict mode every
    modality must lie in the window."""
    p = ctx.protocol
    lo, hi = p.window
    for k, name in leaves:
        if lo <= k <= hi:
            if name is not None and not p.atom_declared(k, name):
                raise UndeclaredAtomError(name, k)
        elif name is not None:
            raise UndeclaredAtomError(name, k)
        elif ctx.strict_window:
            raise StrictWindowError(
                f"modality channel {k} is outside the window [{lo}, {hi}]"
            )


# --- compiled bodies ----------------------------------------------------------

class _Plan:
    """A formula compiled for the walk.

    ``groups`` maps each channel to the formula's skeleton literals there.
    ``start`` is the formula with constants folded, True when it cannot be
    false. ``leaves`` caches ``_leaves`` for a formula checked by
    ``counterexample``. ``steps`` is the transition table of ``_step``: it
    maps (id of a state, channel, column bits) to the next state, and holds
    only the transitions some walk took, for as long as the plan lives.
    ``_filter_set`` reads its all-false transitions there too, to decide
    whether a telephone channel is filtered.
    """

    __slots__ = ("groups", "start", "leaves", "steps")

    def __init__(self, groups, start):
        self.groups = groups
        self.start = start
        self.leaves = None
        self.steps = {}


def _compile(f: Formula) -> _Plan:
    return _compile_object(id(f), f)


@lru_cache(maxsize=64)
def _compile_object(key: int, f: Formula) -> _Plan:
    """The plan of the formula object f, whose id is ``key``. The cache
    holds f, so no other object can have its id, and a lookup whose id
    differs fails on the id before it compares formulas: an equal formula
    parsed again compiles again, where a cache keyed by equality would
    compare it structurally with the earlier one on every call."""
    groups: dict[int, list] = {}
    for lit in _variables(f):
        groups.setdefault(lit.channel, []).append(lit)
    return _Plan(groups, _partial(f, {}.get))


def _partial(f: Formula, lookup):
    """f with each literal replaced by ``lookup(literal, literal)`` (a truth
    value, or the literal itself to keep it) and simplified: True, False,
    or the residual formula. The rhs of an implication whose lhs is false
    is never looked at. An implication waits on the stack while its lhs is
    simplified, then as (implication, lhs value) while its rhs is, and its
    value is then kept by id for the call: a shared subformula is
    simplified once, and its residual stays shared. The walk may pass False
    (a plan false outright), which ``col.get`` hands back."""
    done = {}  # id of an implication -> its value
    stack = []
    g = f
    while True:
        while type(g) is Implies:
            r = done.get(id(g))
            if r is not None:
                break
            stack.append(g)
            g = g.lhs
        else:
            r = False if type(g) is Bottom else lookup(g, g)
        while stack:
            top = stack.pop()
            if type(top) is Implies:  # r is top's lhs
                if r is False:
                    r = done[id(top)] = True
                    continue
                stack.append((top, r))
                g = top.rhs
                break
            node, a = top  # r is node's rhs, a its lhs
            if r is not True and a is not True:
                if a is node.lhs and r is node.rhs:
                    r = node
                else:
                    r = Implies(a, Bottom() if r is False else r)
            done[id(node)] = r
        else:
            return r


def _column(ctx: EvalContext, lits, k: int, v) -> int:
    """The truth values of the literals ``lits`` at channel k when it
    carries v (None: out of window), as bits: bit i is the truth of
    ``lits[i]``. A box [k]body holds when no run through v falsifies body:
    a nested walk, once per (k, v, body)."""
    bits = 0
    bit = 1
    for lit in lits:
        if type(lit) is Atom:
            holds = ctx.protocol.atom_holds(k, lit.name, v)
        else:
            key = (k, v, lit.body)
            holds = ctx._memo.get(key)
            if holds is None:
                pin = None if v is None else (k, v)
                holds = _first_falsifying(ctx, _compile(lit.body), pin) is None
                ctx._memo[key] = holds
        if holds:
            bits |= bit
        bit <<= 1
    return bits


def _step(plan: _Plan, state, j: int, bits: int):
    """The state after channel j, whose literals have the truth values
    ``bits`` (as ``_column`` gives them), when the state before it is
    ``state``. It depends on nothing else, so it is simplified once per
    plan and kept in ``plan.steps``, keyed by the state's id: every state a
    walk holds is ``plan.start``, True, False or a value of that table, so
    the id names it for as long as the plan lives."""
    key = (id(state), j, bits)
    nxt = plan.steps.get(key)
    if nxt is None:
        col = {}
        for lit in plan.groups[j]:
            col[lit] = bits & 1 == 1
            bits >>= 1
        nxt = plan.steps[key] = _partial(state, col.get)
    return nxt


def _filter_set(p: TelephoneProtocol, plan: _Plan, state, j: int):
    """The union T of the truth sets of channel j's atoms when j is
    filtered from ``state``: every literal of j is an atom and the
    all-false column takes the state to True (read from ``plan.steps``), so
    a run whose value at j lies outside T makes the formula true. None when
    j is not filtered. T comes from p: one plan serves many protocols."""
    lits = plan.groups[j]
    for lit in lits:
        if type(lit) is not Atom:
            return None
    nxt = plan.steps.get((id(state), j, 0))
    if nxt is None:
        nxt = _step(plan, state, j, 0)
    if nxt is not True:
        return None
    truth = p.atom_values(j, lits[0].name)
    for lit in lits[1:]:
        truth = truth | p.atom_values(j, lit.name)
    return truth


def _candidates(p: TelephoneProtocol, plan: _Plan, state, j: int, x):
    """The values of channel j, a telephone channel with literals, that the
    walk visits from ``state``: the neighbours of x, x at channel j - 1 or
    j + 1, as the telephone's one relation is symmetric. Where j is
    filtered (``_filter_set``), any value outside T would be dropped, so
    the walk lists none: it visits the members t of T, sorted, that are
    neighbours of x (``p.holds(x, t)``, which is exactly membership among
    them). Neighbour lists are sorted too, so the order is the one
    filtering them would give."""
    truth = _filter_set(p, plan, state, j)
    if truth is None:
        return p.successors(x)
    return sorted(t for t in truth if p.holds(x, t))


# --- the walk -----------------------------------------------------------------

def _first_falsifying(ctx: EvalContext, plan: _Plan, pin, ordered=False):
    """The values, in walk order, of a run on which the compiled formula is
    false, or None if there is none. With ``pin`` = (k, v), only runs
    through v at channel k count. Unpinned, any run counts, and with
    ``ordered`` the run is the first such run in ``protocol.runs`` order,
    its values in chain order.

    The walk starts from a set of values at one channel k: v when pinned.
    Unpinned on the telephone, every falsifying run passes through a word
    of T at each filtered channel (``_filter_set``), so it starts from
    those words, at the first channel lo if lo is filtered, else at the
    filtered channel with the fewest of them, the highest on ties.
    Otherwise it starts from every value of lo. Started at lo, walk order
    is chain order, so the first run found is the first in
    ``protocol.runs`` order; started higher, a run found only shows that
    one exists, and the ordered question walks again from lo.

    Depth-first with an explicit stack, one channel per level: from k down
    to lo through predecessors and then from k+1 up to hi. Either order
    reads every channel once and the state (the residual formula) does not
    depend on the order. The candidates of the next channel depend only on
    one value, the previous one or, after the downward leg, the start; a
    (channel, that value, state) whose subtree held no falsifying run is
    never expanded again. A downward subtree holds the upward leg, which
    depends on the start, so above lo the dead set is emptied between
    starts; from lo there is no downward leg, and the starts share it. Each
    column is cached per call, whatever the start; the state it leads to
    comes from the plan's transition table (``_step``), and states are
    compared by identity. On entering a filtered telephone channel the walk
    lists no candidates (``_candidates``).
    """
    p = ctx.protocol
    computed = isinstance(p, TelephoneProtocol)  # see ``_candidates``
    lo, hi = p.window
    groups = plan.groups
    state = plan.start
    for j in groups:
        if state is not True and not lo <= j <= hi:
            state = _step(plan, state, j, _column(ctx, groups[j], j, None))
    if state is True:
        return None
    k, starts = lo, None
    if pin is not None:
        k, starts = pin[0], (pin[1],)
    elif computed:
        for j in sorted(groups):
            if lo <= j <= hi:
                truth = _filter_set(p, plan, state, j)
                if truth is not None:
                    words = sorted(t for t in truth if p.has_value(j, t))
                    if starts is None or len(words) <= len(starts):
                        k, starts = j, words
                    if j == lo:
                        break
    if starts is None:
        starts = p.iter_values(lo)
    order = [*range(k, lo - 1, -1), *range(k + 1, hi + 1)]
    last = len(order) - 1

    columns: dict = {}
    dead: set = set()
    path: list = []
    frames: list = []  # (candidate iterator, state before it, dead key)
    # Level 0 holds one start v at a time; each is taken where the last one
    # is exhausted, below.
    rest, it, before, i = iter(starts), iter(()), state, 0
    while True:
        j = order[i]
        for u in it:
            s = before
            if j in groups:
                bits = columns.get((j, u))
                if bits is None:
                    bits = columns[j, u] = _column(ctx, groups[j], j, u)
                s = _step(plan, before, j, bits)
                if s is True:
                    continue
            if i == last:
                path.append(u)
                if k == lo or not ordered:
                    return path
                # A run exists; the first one is found walking up from lo.
                k, order = lo, range(lo, hi + 1)
                dead, path, frames = set(), [], []
                rest, it = iter(p.iter_values(lo)), iter(())
                before, i = state, 0
                break
            nxt = order[i + 1]
            anchor = v if nxt == k + 1 else u
            key = (j, anchor, id(s))
            if key in dead:
                continue
            frames.append((it, before, key))
            path.append(u)
            if computed and nxt in groups:
                it = iter(_candidates(p, plan, s, nxt, anchor))
            elif nxt < k:
                it = iter(p.local(j).predecessors(u))
            else:
                it = iter(p.local(nxt).successors(anchor))
            before, i = s, i + 1
            break
        else:
            if frames:
                it, before, key = frames.pop()
                path.pop()
                i -= 1
                dead.add(key)
                continue
            for v in rest:
                break
            else:
                return None
            if k > lo:  # the keys down from the last start depend on it
                dead.clear()
            it = iter((v,))


# --- public entry points --------------------------------------------------------

def evaluate(ctx: EvalContext, run, f: Formula) -> bool:
    """Truth value of f at a run of ctx.protocol.

    The run must have one value per window channel, each in its channel's
    value set, and every atom of f must be declared at its channel; these
    are checked once, before evaluation, and violations raise.
    """
    p = ctx.protocol
    run = check_assignment(p, run)
    _check_leaves(ctx, _leaves(f))
    lo, hi = p.window

    def at_run(lit, _):
        k = lit.channel
        return _column(ctx, (lit,), k, run[k - lo] if lo <= k <= hi else None) == 1

    return _partial(f, at_run)


def valid_in(ctx: EvalContext, f: Formula) -> bool:
    """True when f holds at every run of the protocol: ``counterexample``
    finds none. On the telephone a valid formula is settled by a walk from
    its most selective filtered channel, and no ordered walk is made."""
    return counterexample(ctx, f) is None


def counterexample(ctx: EvalContext, f: Formula):
    """The first run in enumeration order falsifying f, or None if valid.

    [k]φ is valid iff φ is, for any k in or out of the window: a run
    falsifying φ falsifies [k]φ at every run sharing its value at k. So
    under leading boxes, the body is asked first whether any run falsifies
    it, where the walk may start from a filtered channel; only if one does
    is f walked for its first falsifying run. When the innermost leading
    box lies outside the window, the body's verdict is also the box's, and
    it is recorded in ``ctx._memo``, so the walk of f does not ask again."""
    plan = _compile(f)
    if plan.leaves is None:
        plan.leaves = _leaves(f)
    _check_leaves(ctx, plan.leaves)
    body, k = f, None
    while type(body) is Box:
        body, k = body.body, body.channel
    if k is not None:
        holds = _first_falsifying(ctx, _compile(body), None) is None
        lo, hi = ctx.protocol.window
        if not lo <= k <= hi:
            ctx._memo[k, None, body] = holds
        if holds:
            return None
    path = _first_falsifying(ctx, plan, None, True)
    return None if path is None else tuple(path)
