"""Bounded countermodel search over small chain protocols.

Candidate protocols live on the window [0, num_channels - 1] with value
sets drawn from a fixed label alphabet, every nonempty adjacent relation,
and every atom truth table. The canonical candidate order is value-set
sizes ascending, then relation bitmasks ascending, then truth-table
bitmasks ascending, which pins witnesses across platforms. Absence of a
countermodel within bounds proves nothing beyond the explored space.

The candidates of one (sizes, relation masks) block differ only in their
truth tables: the one at offset t has the truth masks t spells, sizes[k]
bits per (channel k, atom), in channel and then atom order from the most
significant bit, as in canonical order. An exhaustive ``falsify`` decides
only the offsets that are 0 outside the tables of the atoms its formula
reads, so every other atom keeps the all-zero table. A table the formula
cannot see cannot change its verdict, so the first countermodel is the one
a scan of every candidate finds, and ``budget`` still counts positions in
that full canonical order. A block without runs is skipped whole.

It also skips two kinds of block whole, each candidate of which has the
verdict of a candidate in an earlier block and so cannot be the first to
refute. Both are decided on the relation masks, before any protocol is
built:

- Dead values. In a block in which some value lies on no run (found by
  forward and backward reachability bitmasks), each candidate has the
  runs, and so the verdicts, of its twin with the dead values deleted and
  the survivors renamed in order. The twin's sizes are componentwise
  smaller, so it comes earlier.
- Relabelling. A swap of two values on one channel maps each candidate
  of a block to an isomorphic one in the block of the swapped relation
  masks, which comes earlier when they are smaller. The least member of
  each isomorphism class lies in a block that passes every swap, so
  testing only swaps is sound, and it costs sum C(s_i, 2) comparisons per
  block. A block that a swap maps to itself is decided whole.

The first refuting candidate is therefore among the ones kept, as itself.

The kept candidates of one block share its runs, so ``falsify`` decides
them together, as in bit-parallel logic simulation: candidate i of the
block, the offset whose read bits spell i, is bit i of an integer, and the
formula is evaluated once per run of the block, over all of them at once
(``_holds``). Per run, the pass keeps the mask of the candidates at which
the formula holds; the lowest one missing from their meet is the first
refuting candidate, and the first run, in ``protocol.runs`` order, whose
mask lacks it is its first falsifying run, the one ``counterexample``
gives. Only that candidate is built and no walk is made, so the witness,
its run and the budget cut are those of a candidate-by-candidate scan, at
any modal depth. At most ``_SLICE`` candidates are decided at a time, and
none at or past the budget.

Random mode and the soundness sweeps sample on the same encoding: a draw
is its (sizes, relation masks, truth masks) integers. Below the public API
a block is just its (sizes, relation masks) integers. Its runs, in
``protocol.runs`` order, are listed straight from the reachability
bitmasks into a bounded cache keyed by them (``_block_runs``), which the
exhaustive scan and the sweeps share. A sweep trial is decided by the same
pass at width 1, its columns read off the draw's truth masks (one bit per
value), and reads the bit of its drawn run. So nothing that only decides a
verdict builds a protocol: a scan builds only its witness, and a sweep
only its first violation. A protocol is built only to be returned
(``_build_protocol``): the atomless protocol of its block, made by the
public constructor and kept in a second bounded cache (``_block``), with
its own atom tables, sharing the block's value tuples and sets and local
conditions. That cache serves these answers and the sampler, which
rejects a draw whose block it holds as None, having no run. Random
``falsify`` builds each sample (``sample_protocol``) and walks it with
``counterexample``, which can stop at the sample's first falsifying run
without listing the others. The exhaustive stream of
``enumerate_protocols`` is the plain canonical product, every truth offset
of every block with a run, and shares no position or skip loop with
``falsify``. Local conditions and atom truth sets come from two more
bounded caches, one object per relation mask and per truth mask, shared
because nothing mutates them.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from functools import lru_cache, reduce

from .formula import (
    Atom,
    Bottom,
    Box,
    Formula,
    Implies,
    _flatten,
    _leaves,
    _variable_mask,
    diamond,
    disj,
    parse,
    scope,
    shift_channels,
)
from .proofcheck import SCHEMAS, gateway_side, instantiate_axiom
from .protocol import ExplicitChainProtocol, ExplicitLocal
from .semantics import EvalContext, counterexample

_VALUE_LABELS = "abcdefghijklmnopqrstuvwxyz"
_ATOM_NAMES = ("p", "q", "r", "s", "t", "u", "v", "w")
_SLICE = 1024  # candidates of one block an exhaustive falsify decides at a time


class SearchSpaceError(ValueError):
    """Bounds that cannot be searched as requested."""


@dataclass(frozen=True)
class ExhaustiveMode:
    pass


@dataclass(frozen=True)
class RandomMode:
    seed: int
    samples: int


@dataclass(frozen=True)
class SearchBounds:
    num_channels: int
    max_values_per_channel: int
    atoms_per_channel: int = 0
    mode: ExhaustiveMode | RandomMode = ExhaustiveMode()
    candidate_ceiling: int = 10**6

    def __post_init__(self):
        if self.num_channels < 1:
            raise SearchSpaceError("num_channels must be positive")
        if not 1 <= self.max_values_per_channel <= len(_VALUE_LABELS):
            raise SearchSpaceError(
                f"max_values_per_channel must be in 1..{len(_VALUE_LABELS)}"
            )
        if not 0 <= self.atoms_per_channel <= len(_ATOM_NAMES):
            raise SearchSpaceError(
                f"atoms_per_channel must be in 0..{len(_ATOM_NAMES)}"
            )
        if isinstance(self.mode, RandomMode) and self.mode.samples < 0:
            raise SearchSpaceError(
                f"samples must not be negative, got {self.mode.samples}"
            )

    @property
    def atom_names(self) -> tuple[str, ...]:
        return _ATOM_NAMES[: self.atoms_per_channel]


def candidate_count(bounds: SearchBounds) -> int:
    """Exact size of the exhaustive candidate space (zero-run protocols
    included, since they are skipped only after counting).

    The sum over value-set size vectors of the product of relation and
    truth-table counts is a transfer-matrix product: ``counts[s]`` holds
    the candidates on the channels so far whose last channel has s values,
    so a channel more costs max_values^2 big-integer steps, not a factor
    of max_values.
    """
    sizes = range(1, bounds.max_values_per_channel + 1)
    atoms = bounds.atoms_per_channel
    counts = [1 << (s * atoms) for s in sizes]
    for _ in range(bounds.num_channels - 1):
        # n * (2^(left * right) - 1) relations, times 2^(right * atoms) tables
        counts = [
            sum((n << (left * right)) - n for left, n in zip(sizes, counts)) << (right * atoms)
            for right in sizes
        ]
    return sum(counts)


@lru_cache(maxsize=1024)
def _relation(left: int, right: int, mask: int) -> ExplicitLocal:
    """The local condition of one relation mask; bit i * right + j relates
    value i on the left to value j. Shared by every protocol that has it,
    which is safe because nothing mutates an ExplicitLocal."""
    return ExplicitLocal([
        (_VALUE_LABELS[i], _VALUE_LABELS[j])
        for i in range(left)
        for j in range(right)
        if mask >> (i * right + j) & 1
    ])


@lru_cache(maxsize=1024)
def _labels(mask: int) -> frozenset[str]:
    """The value labels whose bits are set in a truth mask."""
    return frozenset(_VALUE_LABELS[j] for j in range(mask.bit_length()) if mask >> j & 1)


@lru_cache(maxsize=1024)
def _block(sizes: tuple[int, ...], relation_masks: tuple[int, ...]) -> ExplicitChainProtocol | None:
    """The atomless protocol of a (sizes, relation masks) block, or None
    when the block has no run: channel k has the first sizes[k] labels, and
    relation k the local condition of its mask. The sampler rejects its
    draws here, and every protocol this module returns is one of these
    with atom tables (``_build_protocol``); nothing that only decides a
    verdict reads it. 1,024 entries hold all 340 blocks of three channels
    with at most two values each, the bounds the sweeps are run on."""
    if not _live(sizes, relation_masks)[0]:
        return None
    return ExplicitChainProtocol(
        (0, len(sizes) - 1),
        {k: _VALUE_LABELS[:s] for k, s in enumerate(sizes)},
        {
            k: _relation(sizes[k - 1], sizes[k], mask)
            for k, mask in enumerate(relation_masks, start=1)
        },
    )


@lru_cache(maxsize=1024)
def _block_runs(sizes: tuple[int, ...], relation_masks: tuple[int, ...]) -> tuple:
    """The runs of a block, and so of each of its candidates, as label
    tuples in ``protocol.runs`` order, listed straight from the ``_live``
    bitmasks: each run is extended, in label order, by the live successors
    of its last value, and every live value reaches the last channel, so
    no partial run is a dead end. Listed when a sweep first draws in the
    block or an exhaustive ``falsify`` first decides it; a sweep or scan on
    wide bounds keeps the run lists of up to 1,024 blocks."""
    live = _live(sizes, relation_masks)
    found = [(i,) for i in range(sizes[0]) if live[0] >> i & 1]
    for k, mask in enumerate(relation_masks, start=1):
        found = [
            run + (j,) for run in found for j in range(sizes[k])
            if mask >> (run[-1] * sizes[k] + j) & live[k] >> j & 1
        ]
    return tuple(tuple(_VALUE_LABELS[i] for i in run) for run in found)


def _build_protocol(
    sizes: tuple[int, ...],
    relation_masks: tuple[int, ...],
    truth_masks: tuple[tuple[int, ...], ...],
    atom_names: tuple[str, ...],
) -> ExplicitChainProtocol:
    """The candidate with these integers: its block's atomless protocol
    with its own atom tables, sharing every other part. The one place a
    candidate is built."""
    return _block(sizes, relation_masks)._with_atoms({
        k: dict(zip(atom_names, map(_labels, channel_masks)))
        for k, channel_masks in enumerate(truth_masks)
    })


def _live(sizes: tuple[int, ...], relation_masks: tuple[int, ...]) -> list[int]:
    """Per channel, the bitmask of the values that lie on some run: those
    reachable from channel 0 that also reach the last channel. Every mask
    is zero when the block has no run."""
    forward = [(1 << sizes[0]) - 1]
    for left, right, mask in zip(sizes, sizes[1:], relation_masks):
        row = (1 << right) - 1
        reach = 0
        for i in range(left):
            if forward[-1] >> i & 1:
                reach |= mask >> (i * right) & row
        forward.append(reach)
    live = [forward[-1]]
    for k in range(len(sizes) - 1, 0, -1):
        right = sizes[k]
        row, mask = (1 << right) - 1, relation_masks[k - 1]
        back = 0
        for i in range(sizes[k - 1]):
            if mask >> (i * right) & row & live[-1]:
                back |= 1 << i
        live.append(back & forward[k - 1])
    live.reverse()
    return live


def _delta_swap(x: int, select: int, delta: int) -> int:
    """x with each selected bit exchanged for the bit ``delta`` above it."""
    t = ((x >> delta) ^ x) & select
    return x ^ t ^ (t << delta)


def _swaps(sizes: tuple[int, ...]) -> list:
    """Every exchange of two values a < b on one channel k, as (k, its
    (select, delta) on relation k, k on the right, and on relation k + 1,
    k on the left), each None where k has no such relation."""
    out = []
    for k, s in enumerate(sizes):
        for a, b in itertools.combinations(range(s), 2):
            as_right = as_left = None
            if k > 0:  # columns a and b of every row
                as_right = (sum(1 << (i * s + a) for i in range(sizes[k - 1])), b - a)
            if k + 1 < len(sizes):  # rows a and b
                width = sizes[k + 1]
                as_left = (((1 << width) - 1) << (a * width), (b - a) * width)
            out.append((k, as_right, as_left))
    return out


def _smaller_by_swap(relation_masks: tuple[int, ...], swaps: list) -> bool:
    """Whether some swap turns the relation masks into smaller ones."""
    for k, as_right, as_left in swaps:
        moved = list(relation_masks)
        if as_right:
            moved[k - 1] = _delta_swap(moved[k - 1], *as_right)
        if as_left:
            moved[k] = _delta_swap(moved[k], *as_left)
        if tuple(moved) < relation_masks:
            return True
    return False


def _exhaustive_blocks(bounds: SearchBounds):
    """Yield (position, sizes, relation masks) for the blocks an exhaustive
    ``falsify`` decides, in canonical order: position is the rank, among
    all candidates with runs, of the block's first candidate, and
    candidate position + t has the masks t spells.

    A block without runs is passed over, and so, still counting their
    positions, is every block with a value on no run and every block that
    a swap of two values on one channel turns into an earlier one. Each
    test reads the relation masks alone.
    """
    position = 0
    for sizes in itertools.product(
        range(1, bounds.max_values_per_channel + 1), repeat=bounds.num_channels
    ):
        span = 1 << (bounds.atoms_per_channel * sum(sizes))
        full = [(1 << s) - 1 for s in sizes]
        swaps = _swaps(sizes)
        relation_ranges = [
            range(1, 1 << (left * right)) for left, right in zip(sizes, sizes[1:])
        ]
        for relation_masks in itertools.product(*relation_ranges):
            live = _live(sizes, relation_masks)
            if not live[0]:
                continue
            if live == full and not _smaller_by_swap(relation_masks, swaps):
                yield position, sizes, relation_masks
            position += span


def _tables(sizes: tuple[int, ...], names: tuple[str, ...]):
    """Yield (k, name, low) for the truth tables of a block's candidates in
    canonical order: table (k, name) is bits low .. low + sizes[k] - 1 of
    a candidate's offset in the block, bit low + v for value v."""
    low = len(names) * sum(sizes)
    for k, s in enumerate(sizes):
        for name in names:
            low -= s
            yield k, name, low


def _truth_masks(sizes: tuple[int, ...], names: tuple[str, ...], t: int) -> tuple:
    """Per channel, per atom, the truth mask that offset t spells."""
    masks = [[] for _ in sizes]
    for k, _, low in _tables(sizes, names):
        masks[k].append(t >> low & ((1 << sizes[k]) - 1))
    return tuple(map(tuple, masks))


def _read_columns(sizes: tuple[int, ...], names: tuple[str, ...], read):
    """The offset bits of the tables of the (channel, atom) pairs in
    ``read``, lowest first, and per such pair, per value label, the mask of
    the candidates whose table holds there: candidate i is offset
    ``_offset(bits, i)``, so read bit j has ``_variable_mask(j, len(bits))``."""
    tables = [(k, name, low) for k, name, low in _tables(sizes, names) if (k, name) in read]
    bits = sorted(low + v for k, _, low in tables for v in range(sizes[k]))
    columns = {
        (k, name): {
            _VALUE_LABELS[v]: _variable_mask(bits.index(low + v), len(bits))
            for v in range(sizes[k])
        }
        for k, name, low in tables
    }
    return bits, columns


def _offset(bits: list[int], i: int) -> int:
    """The offset whose bits at ``bits`` spell i, bit j of i at bits[j],
    and whose other bits are 0. Offsets grow with i."""
    return sum(1 << b for j, b in enumerate(bits) if i >> j & 1)


def _holds(entries: tuple, block_runs: tuple, columns: dict, lo: int, width: int) -> list[int]:
    """Per run of a block, the mask of the candidates lo .. lo + width - 1,
    as bits 0 .. width - 1, at which the formula ``entries`` (``_flatten``
    order) holds. Each entry is decided for every candidate at once, one
    mask per run, from the atoms' columns: false is no candidate, a -> b
    is ~a | b, and [k]a is the meet of a over the runs that share the
    run's value at k, or over every run when k is outside the window."""
    full = (1 << width) - 1
    window = range(len(block_runs[0]))
    rows = []
    for entry in entries:
        kind = entry[0]
        if kind is Implies:
            row = [full ^ a | b for a, b in zip(rows[entry[1]], rows[entry[2]])]
        elif kind is Box:
            k, body = entry[1], rows[entry[2]]
            if k in window:
                meet = {}
                for r, a in zip(block_runs, body):
                    meet[r[k]] = meet.get(r[k], full) & a
                row = [meet[r[k]] for r in block_runs]
            else:
                row = [reduce(int.__and__, body, full)] * len(block_runs)
        elif kind is Atom:
            column = columns[entry[1], entry[2]]
            row = [column[r[entry[1]]] >> lo & full for r in block_runs]
        else:
            row = [0] * len(block_runs)
        rows.append(row)
    return rows[-1]


def _random_candidate(rng: random.Random, bounds: SearchBounds):
    """The (sizes, relation masks, truth masks) of one random candidate."""
    c = bounds.num_channels
    names = bounds.atom_names
    m = bounds.max_values_per_channel
    sizes = tuple([rng.randrange(1, m + 1) for _ in range(c)])
    relation_masks = tuple([
        rng.randrange(1, 1 << (left * right)) for left, right in zip(sizes, sizes[1:])
    ])
    truth_masks = tuple([
        tuple([rng.randrange(1 << sizes[k]) for _ in names]) for k in range(c)
    ])
    return sizes, relation_masks, truth_masks


def _draw(rng: random.Random, bounds: SearchBounds):
    """One random candidate that admits at least one run, as its (sizes,
    relation masks, truth masks). A draw whose block has no run is rejected
    through the block cache. Nothing is built: the caller builds the draw
    it keeps, if any."""
    for _ in range(10_000):
        sizes, relation_masks, truth_masks = _random_candidate(rng, bounds)
        if _block(sizes, relation_masks) is not None:
            return sizes, relation_masks, truth_masks
    raise SearchSpaceError("could not sample a protocol with runs")


def _draw_columns(sizes: tuple[int, ...], truth_masks: tuple, names: tuple[str, ...]) -> dict:
    """The columns of one drawn candidate for ``_holds`` at width 1: per
    (channel, atom), per value label, 1 where the atom's table holds."""
    return {
        (k, name): {_VALUE_LABELS[v]: mask >> v & 1 for v in range(sizes[k])}
        for k, channel_masks in enumerate(truth_masks)
        for name, mask in zip(names, channel_masks)
    }


def sample_protocol(rng: random.Random, bounds: SearchBounds) -> ExplicitChainProtocol:
    """One random candidate that admits at least one run."""
    return _build_protocol(*_draw(rng, bounds), bounds.atom_names)


def _check_ceiling(bounds: SearchBounds) -> None:
    total = candidate_count(bounds)
    if total > bounds.candidate_ceiling:
        try:
            count = str(total)
        except ValueError:  # more digits than int-to-str conversion allows
            count = f"more than 2^{total.bit_length() - 1}"
        raise SearchSpaceError(
            f"exhaustive space has {count} candidates, over the ceiling of "
            f"{bounds.candidate_ceiling}"
        )


def enumerate_protocols(bounds: SearchBounds):
    """Stream candidate protocols, skipping those without runs.

    Exhaustive mode covers the whole bounded space in canonical order, as
    the plain product of size vectors, relation masks and truth offsets,
    and refuses spaces beyond the ceiling; random mode yields ``samples``
    protocols reproducibly from the seed.
    """
    if isinstance(bounds.mode, RandomMode):
        rng = random.Random(bounds.mode.seed)
        return (sample_protocol(rng, bounds) for _ in range(bounds.mode.samples))
    _check_ceiling(bounds)
    names = bounds.atom_names
    return (
        _build_protocol(sizes, relation_masks, _truth_masks(sizes, names, t), names)
        for sizes in itertools.product(
            range(1, bounds.max_values_per_channel + 1), repeat=bounds.num_channels
        )
        for relation_masks in itertools.product(
            *[range(1, 1 << (left * right)) for left, right in zip(sizes, sizes[1:])]
        )
        if _block(sizes, relation_masks) is not None
        for t in range(1 << (len(names) * sum(sizes)))
    )


# --- falsification -----------------------------------------------------------

def _embedding(f: Formula, bounds: SearchBounds):
    """embed_formula's result, and the (channel, name) atoms it reads."""
    leaves = _leaves(f)
    support = {k for k, _ in leaves}
    lo = min(support, default=0)
    g = shift_channels(f, -lo) if lo else f
    span = max(support) - lo + 1 if support else 0
    if span > bounds.num_channels:
        raise SearchSpaceError(
            f"formula spans {span} channels, bounds allow {bounds.num_channels}"
        )
    available = set(bounds.atom_names)
    used = {name for _, name in leaves if name is not None}
    if not used <= available:
        raise SearchSpaceError(
            f"formula uses atoms {sorted(used - available)} beyond the bounds' "
            "atom budget"
        )
    return g, {(k - lo, name) for k, name in leaves if name is not None}


def embed_formula(f: Formula, bounds: SearchBounds) -> Formula:
    """Shift channels so the lowest mentioned channel becomes 0, and check
    the result fits the bounds' window and atom budget. A formula whose
    lowest channel is already 0 is returned as it is."""
    return _embedding(f, bounds)[0]


def falsify(f: Formula, bounds: SearchBounds, budget: int):
    """First (protocol, run) in canonical order falsifying f, scanning at
    most ``budget`` candidate protocols; None when nothing is found.

    The formula is evaluated after shifting its lowest channel to 0 (use
    embed_formula to see the shifted form; that form is not shifted
    again). An exhaustive scan decides only the candidates that can be
    first (see the module docstring), ``_SLICE`` of a block at a time in
    one pass over the block's runs, which also names the witness run, and
    builds only the first refuting candidate; it makes no walk, so it has
    no limit on modal depth. ``budget`` still counts positions in the full
    canonical order: the candidates with runs, skipped ones included.
    Random mode walks each of the first ``budget`` samples with
    ``counterexample``, so it has the walk's limit on modal depth.
    """
    g, read = _embedding(f, bounds)
    if budget < 0:
        raise SearchSpaceError(f"budget must not be negative, got {budget}")
    if isinstance(bounds.mode, RandomMode):
        # islice, so no sample is drawn past the budget.
        for p in itertools.islice(enumerate_protocols(bounds), budget):
            witness = counterexample(EvalContext(p), g)
            if witness is not None:
                return p, witness
        return None
    _check_ceiling(bounds)
    names = bounds.atom_names
    entries = _flatten(g)
    for position, sizes, relation_masks in _exhaustive_blocks(bounds):
        if position >= budget:
            break
        bits, columns = _read_columns(sizes, names, read)
        # Offsets grow with the index, so the candidates below the budget
        # are a prefix of the block.
        below = bisect.bisect_left(
            range(1 << len(bits)), budget - position, key=lambda i: _offset(bits, i)
        )
        block_runs = _block_runs(sizes, relation_masks)
        for lo in range(0, below, _SLICE):
            width = min(_SLICE, below - lo)
            holds = _holds(entries, block_runs, columns, lo, width)
            meet = reduce(int.__and__, holds, (1 << width) - 1)
            if meet != (1 << width) - 1:
                i = (~meet & (meet + 1)).bit_length() - 1  # lowest bit not in meet
                run = next(r for r, a in zip(block_runs, holds) if not a >> i & 1)
                masks = _truth_masks(sizes, names, _offset(bits, lo + i))
                return _build_protocol(sizes, relation_masks, masks, names), run
    return None


# --- schema soundness sweeps --------------------------------------------------

@dataclass(frozen=True)
class SweepReport:
    schema: str
    trials: int
    violations: int
    first_witness: tuple[Formula, ExplicitChainProtocol, tuple] | None

    def summary(self) -> str:
        verdict = "no violations" if self.violations == 0 else (
            f"{self.violations} violations"
        )
        return (
            f"{self.schema}: {self.trials} sampled instances, {verdict} "
            "(a clean sweep supports soundness only within the sampled space)"
        )


def random_formula(rng: random.Random, channels, atom_names, max_depth: int) -> Formula:
    """Seeded random formula over the given channels and atom names."""
    channels = tuple(channels)
    roll = rng.random()
    if max_depth <= 0 or roll < 0.30:
        if not atom_names or rng.random() < 0.2:
            return Bottom()
        return Atom(rng.choice(channels), rng.choice(tuple(atom_names)))
    if roll < 0.70:
        return Implies(
            random_formula(rng, channels, atom_names, max_depth - 1),
            random_formula(rng, channels, atom_names, max_depth - 1),
        )
    return Box(
        rng.choice(channels),
        random_formula(rng, channels, atom_names, max_depth - 1),
    )


def _sample_instance(
    schema: str,
    rng: random.Random,
    bounds: SearchBounds,
    enforce_side_conditions: bool,
) -> Formula:
    window = range(bounds.num_channels)
    names = bounds.atom_names
    while True:
        if schema == "self_awareness":
            k = rng.choice(window)
            pool = (k,) if enforce_side_conditions else window
            phi = random_formula(rng, pool, names, 2)
            params = {"k": k, "phi": phi}
        elif schema == "gateway":
            phi = random_formula(rng, window, names, 2)
            pairs = [(k, n) for k in window for n in window if k != n]
            if enforce_side_conditions:
                s = scope(phi)
                pairs = [(k, n) for k, n in pairs if gateway_side(k, n, s)]
                if not pairs:
                    continue
            k, n = rng.choice(pairs)
            params = {"k": k, "n": n, "phi": phi}
        elif schema == "disjunction":
            k = rng.choice(window)
            if enforce_side_conditions:
                phi = random_formula(rng, range(0, k + 1), names, 2)
                psi = random_formula(rng, range(k, bounds.num_channels), names, 2)
            else:
                phi = random_formula(rng, window, names, 2)
                psi = random_formula(rng, window, names, 2)
            params = {"k": k, "phi": phi, "psi": psi}
        else:  # distributivity, reflexivity: no side condition
            params = {
                "k": rng.choice(window),
                "phi": random_formula(rng, window, names, 2),
                "psi": random_formula(rng, window, names, 2),
            }
        instance, side_ok = instantiate_axiom(schema, params)
        if side_ok or not enforce_side_conditions:
            return instance


def soundness_sweep(
    schema: str,
    bounds: SearchBounds,
    trials: int,
    enforce_side_conditions: bool = True,
) -> SweepReport:
    """Evaluate ``trials`` sampled grounded schema instances on sampled
    (protocol, run) pairs and count violations; zero is the expectation
    whenever side conditions are enforced.

    Each trial is decided by the block pass of ``falsify`` at width 1, on
    the drawn integers, and reads the bit of its drawn run; only the first
    violation's protocol is built, for ``first_witness``.

    Disabling side conditions samples unconstrained parameters, which is
    how the sweeps demonstrate that the conditions carry weight.
    """
    if schema not in SCHEMAS:
        raise SearchSpaceError(f"unknown axiom schema {schema!r}")
    if trials < 0:
        raise SearchSpaceError(f"trials must not be negative, got {trials}")
    if schema == "gateway" and bounds.num_channels < 2:
        raise SearchSpaceError(
            "the gateway schema needs two distinct channels k and n, "
            f"the bounds have {bounds.num_channels}"
        )
    seed = bounds.mode.seed if isinstance(bounds.mode, RandomMode) else 0
    rng = random.Random(seed)
    names = bounds.atom_names
    violations = 0
    first_witness = None
    for _ in range(trials):
        instance = _sample_instance(schema, rng, bounds, enforce_side_conditions)
        sizes, relation_masks, truth_masks = _draw(rng, bounds)
        block_runs = _block_runs(sizes, relation_masks)
        i = rng.randrange(len(block_runs))
        columns = _draw_columns(sizes, truth_masks, names)
        if not _holds(_flatten(instance), block_runs, columns, 0, 1)[i]:
            violations += 1
            if first_witness is None:
                p = _build_protocol(sizes, relation_masks, truth_masks, names)
                first_witness = (instance, p, block_runs[i])
    return SweepReport(schema, trials, violations, first_witness)


def display_gateway_family() -> tuple[Formula, Formula, Formula]:
    """The three flagship chain laws, grounded with atoms at channels 0..2:
    far-knowledge transfer for a possibility, gaining an intermediate
    knower, and splitting a known disjunction across the middle channel."""
    f1 = Implies(
        Box(0, diamond(2, parse("p@2"))), Box(1, diamond(2, parse("p@2")))
    )
    f2 = Implies(Box(0, parse("[2]p@2")), Box(0, Box(1, parse("[2]p@2"))))
    f3 = Implies(
        Box(1, disj(parse("[0]p@0"), parse("[2]p@2"))),
        disj(Box(1, parse("p@0")), Box(1, parse("p@2"))),
    )
    return f1, f2, f3
