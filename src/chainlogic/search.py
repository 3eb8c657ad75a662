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
them together, as in bit-parallel logic simulation (``_holds``). Each
node of the formula is one integer with a lane of ``width`` bits per run:
bit r * width + i is candidate i of the slice, the offset whose read bits
spell i, at run r. An implication is one operation
on two such integers, an atom multiplies each value's candidates into the
lanes of the runs that have the value (its spread), and a box takes, per
value group of its channel, the candidates that hold on every run of the
group. The lowest candidate missing from some lane of the result is the
first refuting candidate, and the lowest lane that lacks it is its first
falsifying run, in ``protocol.runs`` order, the one ``counterexample``
gives. Only that candidate is built and no walk is made, so the witness,
its run and the budget cut are those of a candidate-by-candidate scan, at
any modal depth. At most ``_SLICE`` candidates are decided at a time, and
none at or past the budget.

Random mode and the soundness sweeps sample on the same encoding: a draw
is its (sizes, relation masks, truth masks) integers. Below the public API
a block is just its (sizes, relation masks) integers, and its runs are
its value groups: per channel and value, the bit of each run, in
``protocol.runs`` order, that has the value. They are listed straight
from the relation masks into the one run cache, keyed by them
(``_block_runs``), which the exhaustive scan and the sweeps share. A sweep
rejects a draw whose block has no groups, and a sweep trial is the same
pass at width 1, where the value groups are the spreads and the formula
is one bit per run. Its atoms' columns come from a cache keyed by
channel size and truth mask (``_value_bits``), and it reads the bit of
its drawn run. So nothing that only decides a verdict builds a protocol:
a scan builds only its witness, and a sweep only its first violation. A
protocol is built only to be returned, by the public constructor
(``_build_protocol``), and no protocol is cached. Random ``falsify``
builds each sample (``sample_protocol``), whose draws are rejected on
``_live`` without listing a run, and walks it with ``counterexample``,
which can stop at the sample's first falsifying run without listing the
others. The exhaustive stream of ``enumerate_protocols`` is the plain
canonical product, every truth offset of every block with a run, and
shares no position or skip loop with ``falsify``. Local conditions and
atom truth sets come from two part caches, one object per relation mask
and per truth mask, shared by every protocol built because nothing
mutates them.
"""

from __future__ import annotations

import bisect
import itertools
import random
from functools import lru_cache

from .formula import (
    Atom,
    Bottom,
    Box,
    Formula,
    Implies,
    _Frozen,
    _flatten,
    _leaves,
    parse,
    scope,
    shift_channels,
)
from .propositional import _variable_mask
from .protocol import ExplicitChainProtocol, ExplicitLocal, _NAMED_ALPHABETS
from .semantics import EvalContext, counterexample

_VALUE_LABELS = _NAMED_ALPHABETS["latin"]
_ATOM_NAMES = ("p", "q", "r", "s", "t", "u", "v", "w")
_SLICE = 1024  # candidates of one block an exhaustive falsify decides at a time


class SearchSpaceError(ValueError):
    """Bounds that cannot be searched as requested."""


class ExhaustiveMode(_Frozen):
    """Search every candidate within the bounds, in canonical order."""


class RandomMode(_Frozen):
    """Search ``samples`` candidates drawn with the given seed."""
    seed: int
    samples: int


class SearchBounds(_Frozen):
    """The candidate space of a search and how it is searched."""
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


def _running_counts(bounds: SearchBounds):
    """C_i, the candidates on the first i channels (zero-run protocols
    included), for i = 1..num_channels; it never falls as i grows. A
    transfer-matrix product: ``counts[s]`` holds the candidates on the
    channels so far whose last channel has s values, so a channel more
    costs max_values^2 big-integer steps, not a factor of max_values."""
    sizes = range(1, bounds.max_values_per_channel + 1)
    atoms = bounds.atoms_per_channel
    counts = [1 << (s * atoms) for s in sizes]
    yield sum(counts)
    for _ in range(bounds.num_channels - 1):
        # n * (2^(left * right) - 1) relations, times 2^(right * atoms) tables
        counts = [
            sum((n << (left * right)) - n for left, n in zip(sizes, counts)) << (right * atoms)
            for right in sizes
        ]
        yield sum(counts)


def candidate_count(bounds: SearchBounds) -> int:
    """Exact size of the exhaustive candidate space: the last, so largest, C_i."""
    return max(_running_counts(bounds))


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


def _spreads(groups: tuple, width: int) -> tuple:
    """A block's value groups at ``width``: bit r of a group moves to bit
    r * width, the lowest bit of run r's lane, one step per run and
    channel."""
    if width == 1:
        return groups
    spreads = []
    for channel in groups:
        row = []
        for g in channel:
            spread = 0
            while g:
                low = g & -g
                spread |= 1 << (low.bit_length() - 1) * width
                g ^= low
            row.append(spread)
        spreads.append(tuple(row))
    return tuple(spreads)


def _run(groups: tuple, r: int) -> tuple:
    """Run r of a block, read off its value groups: per channel, the label
    of the value whose group has bit r."""
    return tuple([_VALUE_LABELS[[g >> r & 1 for g in channel].index(1)] for channel in groups])


# Per value v, the table that spells label v as "1" and any other as "0".
_SPELL = [
    bytes.maketrans(_VALUE_LABELS.encode(), b"0" * v + b"1" + b"0" * (len(_VALUE_LABELS) - 1 - v))
    for v in range(len(_VALUE_LABELS))
]


@lru_cache(maxsize=1024)
def _block_runs(sizes: tuple[int, ...], relation_masks: tuple[int, ...]) -> tuple:
    """The value groups of a block, and so of each of its candidates: bit r
    of ``groups[k][v]`` is set when run r, in ``protocol.runs`` order, has
    value v at channel k; ``()``, which is falsy, when the block has no run.
    A backward pass counts, per channel and value, the ways to finish a run
    from it. Then channel k of every run is spelt by the last values of the
    run prefixes through k, in order, each repeated by its count, and each
    is replaced by its successors for channel k + 1, so nothing earlier is
    rebuilt and the listing is linear in the runs times the channels. The
    groups are read off those strings as binary digits. Listed when a sweep
    first draws in the block or an exhaustive ``falsify`` first decides it.
    The cache keeps the groups of up to 1,024 blocks, which hold all 340
    blocks of three channels with at most two values each, the bounds the
    sweeps are run on."""
    # From the last channel back: the ways to finish a run from each value
    # that has one, and each earlier value's successors among those values.
    ways = [dict.fromkeys(_VALUE_LABELS[: sizes[-1]], 1)]
    steps = [{}]  # no channel follows the last one
    for k in range(len(sizes) - 1, 0, -1):
        right, mask, after = sizes[k], relation_masks[k - 1], ways[-1]
        step = {
            a: "".join([b for b in after if mask >> (i * right + _VALUE_LABELS.index(b)) & 1])
            for i, a in enumerate(_VALUE_LABELS[: sizes[k - 1]])
        }
        ways.append({a: sum(map(after.__getitem__, succ)) for a, succ in step.items() if succ})
        steps.append(str.maketrans(step))
    if not ways[-1]:
        return ()
    ends = "".join(ways[-1])  # the last values of the run prefixes, in order
    groups = []
    for s, counts, step in zip(sizes, reversed(ways), reversed(steps)):
        # Last run first, so that run r is bit r of the number the digits spell.
        spelt = ends[::-1].translate(str.maketrans({a: a * n for a, n in counts.items()})).encode()
        groups.append(tuple([int(spelt.translate(_SPELL[v]), 2) for v in range(s)]))
        ends = ends.translate(step)
    return tuple(groups)


def _build_protocol(
    sizes: tuple[int, ...],
    relation_masks: tuple[int, ...],
    truth_masks: tuple[tuple[int, ...], ...],
    atom_names: tuple[str, ...],
) -> ExplicitChainProtocol:
    """The candidate with these integers, made by the public constructor:
    channel k has the first sizes[k] labels, relation k the local condition
    of its mask, and each atom the truth set of its mask, the last two
    shared from their caches. The one place a candidate is built."""
    return ExplicitChainProtocol(
        (0, len(sizes) - 1),
        {k: _VALUE_LABELS[:s] for k, s in enumerate(sizes)},
        {
            k: _relation(sizes[k - 1], sizes[k], mask)
            for k, mask in enumerate(relation_masks, start=1)
        },
        {
            k: dict(zip(atom_names, map(_labels, channel_masks)))
            for k, channel_masks in enumerate(truth_masks)
        },
    )


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
    ``read``, lowest first, and per such pair, per value, the mask of
    the candidates whose table holds there: candidate i is offset
    ``_offset(bits, i)``, so read bit j has ``_variable_mask(j, len(bits))``."""
    tables = [(k, name, low) for k, name, low in _tables(sizes, names) if (k, name) in read]
    bits = sorted(low + v for k, _, low in tables for v in range(sizes[k]))
    columns = {
        (k, name): tuple(
            _variable_mask(bits.index(low + v), len(bits)) for v in range(sizes[k])
        )
        for k, name, low in tables
    }
    return bits, columns


def _offset(bits: list[int], i: int) -> int:
    """The offset whose bits at ``bits`` spell i, bit j of i at bits[j],
    and whose other bits are 0. Offsets grow with i."""
    return sum(1 << b for j, b in enumerate(bits) if i >> j & 1)


def _any_lane(x: int, width: int, size: int) -> int:
    """The OR of the ``width``-bit lanes of x, a number below 2**size, in
    lane 0: x is folded onto itself at doubling distances."""
    shift = width
    while shift < size:
        x |= x >> shift
        shift <<= 1
    return x & ((1 << width) - 1)


def _holds(entries: tuple, spreads: tuple, column, lo: int, width: int) -> int:
    """The formula ``entries`` (``_flatten`` order) on the candidates lo ..
    lo + width - 1 of a block, at all of its runs at once: bit r * width + i
    of the result is set when candidate lo + i holds at run r.

    ``spreads`` are the block's value groups at ``width`` (``_spreads``),
    and ``column(k, name)`` gives, per value of channel k, the mask of the
    candidates whose table of the atom holds there. Each entry is one
    integer: false is 0, and a -> b is ``all_set ^ a | b``. An atom is the
    sum, over the values v of its channel, of the candidates it holds at
    times the spread of v, which copies them into the lanes of v's runs.
    [k]a is decided per value group at k: the candidates at which a holds
    on every run of the group, copied back to those runs. At width 1 a
    group holds or not as a whole. A box outside the window has one group,
    every run."""
    full = (1 << width) - 1
    every = sum(spreads[0])
    all_set = every * full
    size = all_set.bit_length()
    window = range(len(spreads))
    rows = []
    for entry in entries:
        kind = entry[0]
        if kind is Implies:
            row = all_set ^ rows[entry[1]] | rows[entry[2]]
        elif kind is Box:
            k, body = entry[1], rows[entry[2]]
            row = 0
            for g in spreads[k] if k in window else (every,):
                lanes = g * full
                miss = lanes & ~body
                if not miss:
                    row |= lanes
                elif width > 1:
                    row |= (full ^ _any_lane(miss, width, size)) * g
        elif kind is Atom:
            k = entry[1]
            row = sum([(c >> lo & full) * g for c, g in zip(column(k, entry[2]), spreads[k])])
        else:
            row = 0
        rows.append(row)
    return rows[-1]


def _first_refuted(row: int, spreads: tuple, width: int) -> tuple[int, int] | None:
    """For a ``_holds`` result, the lowest candidate i missing from some
    lane of ``row`` and the lowest run r whose lane misses it, as (i, r);
    None when every lane is full."""
    every = sum(spreads[0])
    all_set = every * ((1 << width) - 1)
    miss = all_set ^ row
    if not miss:
        return None
    refuted = _any_lane(miss, width, all_set.bit_length())  # the complement of the meet
    i = (refuted & -refuted).bit_length() - 1
    at = miss >> i & every  # the runs that miss candidate i
    return i, ((at & -at).bit_length() - 1) // width


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


def _draw(rng: random.Random, bounds: SearchBounds, has_run):
    """One random candidate that admits at least one run, as its (sizes,
    relation masks, truth masks). A draw is rejected when ``has_run(sizes,
    relation masks)`` is falsy: a sweep passes ``_block_runs``, whose groups
    it reads next and which are ``()`` for a runless block, and the sampler
    a test on ``_live``, which lists no run.
    Nothing is built: the caller builds the draw it keeps, if any."""
    for _ in range(10_000):
        sizes, relation_masks, truth_masks = _random_candidate(rng, bounds)
        if has_run(sizes, relation_masks):
            return sizes, relation_masks, truth_masks
    raise SearchSpaceError("could not sample a protocol with runs")


@lru_cache(maxsize=1024)
def _value_bits(size: int, mask: int) -> tuple[int, ...]:
    """The column of a drawn candidate's atom for ``_holds`` at width 1:
    per value of a channel of ``size`` values, 1 where the truth mask
    holds."""
    return tuple([mask >> v & 1 for v in range(size)])


def sample_protocol(rng: random.Random, bounds: SearchBounds) -> ExplicitChainProtocol:
    """One random candidate that admits at least one run."""
    draw = _draw(rng, bounds, lambda sizes, relation_masks: _live(sizes, relation_masks)[0])
    return _build_protocol(*draw, bounds.atom_names)


def _check_ceiling(bounds: SearchBounds) -> None:
    """Refuse at the first C_i over the ceiling: exact at the last channel,
    else as the power of two below C_i, so no large count is converted."""
    for i, count in enumerate(_running_counts(bounds), 1):
        if count > bounds.candidate_ceiling:
            if i < bounds.num_channels:
                count = f"more than 2^{(count - 1).bit_length() - 1}"
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
        if _live(sizes, relation_masks)[0]
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
    one pass that decides them at every run of the block at once and also
    names the witness run, and builds only the first refuting candidate;
    it makes no walk, so it has no limit on modal depth. ``budget`` still
    counts positions in the full canonical order: the candidates with
    runs, skipped ones included.
    Random mode walks each of the first ``budget`` samples with
    ``counterexample``, so it has the walk's limit on modal depth.
    """
    return _falsify_embedded(*_embedding(f, bounds), bounds, budget)


def _falsify_embedded(g: Formula, read: set, bounds: SearchBounds, budget: int):
    """falsify on ``_embedding``'s result ``g, read``, for a caller that
    also shows g and so embeds the formula once."""
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
    read_sizes = None
    for position, sizes, relation_masks in _exhaustive_blocks(bounds):
        if position >= budget:
            break
        # The blocks come grouped by sizes, and the read columns depend on
        # nothing else of a block.
        if sizes != read_sizes:
            bits, columns = _read_columns(sizes, names, read)
            column = lambda k, name: columns[k, name]
            read_sizes = sizes
        # Offsets grow with the index, so the candidates below the budget
        # are a prefix of the block.
        below = bisect.bisect_left(
            range(1 << len(bits)), budget - position, key=lambda i: _offset(bits, i)
        )
        groups = _block_runs(sizes, relation_masks)
        for lo in range(0, below, _SLICE):
            width = min(_SLICE, below - lo)
            spreads = _spreads(groups, width)
            first = _first_refuted(_holds(entries, spreads, column, lo, width), spreads, width)
            if first is not None:
                i, r = first
                masks = _truth_masks(sizes, names, _offset(bits, lo + i))
                return _build_protocol(sizes, relation_masks, masks, names), _run(groups, r)
    return None


# --- schema soundness sweeps --------------------------------------------------

class SweepReport(_Frozen):
    """The outcome of one schema's soundness sweep."""
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
    return _random_formula(rng, tuple(channels), tuple(atom_names), max_depth)


def _random_formula(rng: random.Random, channels: tuple, atom_names: tuple, max_depth: int) -> Formula:
    """``random_formula`` on channels and atom names already in tuples."""
    roll = rng.random()
    if max_depth <= 0 or roll < 0.30:
        if not atom_names or rng.random() < 0.2:
            return Bottom()
        return Atom(rng.choice(channels), rng.choice(atom_names))
    if roll < 0.70:
        return Implies(
            _random_formula(rng, channels, atom_names, max_depth - 1),
            _random_formula(rng, channels, atom_names, max_depth - 1),
        )
    return Box(
        rng.choice(channels),
        _random_formula(rng, channels, atom_names, max_depth - 1),
    )


def _sample_instances(
    schema: str,
    rng: random.Random,
    bounds: SearchBounds,
    enforce_side_conditions: bool,
):
    """Yield grounded instances of the schema, one per ``next``, drawn from
    rng in the order a sweep's trials interleave them with their draws.
    What depends on the bounds alone, such as gateway's (k, n) pairs, is
    built once."""
    from .proofcheck import gateway_side, instantiate_axiom

    window = tuple(range(bounds.num_channels))
    names = bounds.atom_names
    pairs = tuple((k, n) for k in window for n in window if k != n)
    while True:
        if schema == "self_awareness":
            k = rng.choice(window)
            pool = (k,) if enforce_side_conditions else window
            phi = _random_formula(rng, pool, names, 2)
            params = {"k": k, "phi": phi}
        elif schema == "gateway":
            phi = _random_formula(rng, window, names, 2)
            allowed = pairs
            if enforce_side_conditions:
                s = scope(phi)
                allowed = [(k, n) for k, n in pairs if gateway_side(k, n, s)]
                if not allowed:
                    continue
            k, n = rng.choice(allowed)
            params = {"k": k, "n": n, "phi": phi}
        elif schema == "disjunction":
            k = rng.choice(window)
            if enforce_side_conditions:
                phi = _random_formula(rng, window[: k + 1], names, 2)
                psi = _random_formula(rng, window[k:], names, 2)
            else:
                phi = _random_formula(rng, window, names, 2)
                psi = _random_formula(rng, window, names, 2)
            params = {"k": k, "phi": phi, "psi": psi}
        else:  # distributivity, reflexivity: no side condition
            params = {
                "k": rng.choice(window),
                "phi": _random_formula(rng, window, names, 2),
                "psi": _random_formula(rng, window, names, 2),
            }
        # Under enforcement every branch above drew parameters that meet
        # the side condition, so the instance needs no second check.
        yield instantiate_axiom(schema, params)[0]


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
    the drawn integers, one bit per run of the drawn block, and reads the
    bit of its drawn run; only the first violation's protocol is built, for
    ``first_witness``.

    Disabling side conditions samples unconstrained parameters, which is
    how the sweeps demonstrate that the conditions carry weight.
    """
    from .proofcheck import SCHEMAS

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
    atom_index = {name: a for a, name in enumerate(names)}
    violations = 0
    first_witness = None
    instances = _sample_instances(schema, rng, bounds, enforce_side_conditions)
    for _ in range(trials):
        instance = next(instances)
        sizes, relation_masks, truth_masks = _draw(rng, bounds, _block_runs)
        groups = _block_runs(sizes, relation_masks)
        i = rng.randrange(sum(groups[0]).bit_length())
        column = lambda k, name: _value_bits(sizes[k], truth_masks[k][atom_index[name]])
        if not _holds(_flatten(instance), groups, column, 0, 1) >> i & 1:
            violations += 1
            if first_witness is None:
                p = _build_protocol(sizes, relation_masks, truth_masks, names)
                first_witness = (instance, p, _run(groups, i))
    return SweepReport(schema, trials, violations, first_witness)


def display_gateway_family() -> tuple[Formula, Formula, Formula]:
    """The three flagship chain laws, grounded with atoms at channels 0..2:
    far-knowledge transfer for a possibility, gaining an intermediate
    knower, and splitting a known disjunction across the middle channel."""
    return (
        parse("[0]<2>p@2 -> [1]<2>p@2"),
        parse("[0][2]p@2 -> [0][1][2]p@2"),
        parse("[1]([0]p@0 | [2]p@2) -> [1]p@0 | [1]p@2"),
    )
