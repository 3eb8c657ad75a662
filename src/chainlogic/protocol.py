"""Finite-window chain protocols, their runs, and run-set machinery.

A protocol assigns each channel in an inclusive window a finite value set,
relates adjacent channels with a local condition, and gives the truth set
of each declared atom. Channels outside the window carry one fixed default
value with an always-true condition at the boundary, which is how a finite
window stands in for the full two-way-infinite chain.
"""

from __future__ import annotations

import itertools
import json

from .formula import _Frozen, _json_object


class ProtocolFormatError(ValueError):
    """Structurally invalid protocol description."""


class ValueDomainError(ValueError):
    """A value label that does not belong to its channel's value set."""

    def __init__(self, channel: int, value):
        super().__init__(f"value {value!r} is not in the value set of channel {channel}")
        self.channel = channel
        self.value = value


class Violation(_Frozen):
    """One problem ``validate`` found: its kind, the channel it is at (None
    when it is at no one channel) and a message."""
    kind: str
    channel: int | None
    detail: str


class ExplicitLocal:
    """Local condition given extensionally as a set of (prev, cur) pairs."""

    def __init__(self, pairs):
        self.pairs = frozenset((u, v) for u, v in pairs)
        succ: dict[str, list[str]] = {}
        pred: dict[str, list[str]] = {}
        for u, v in sorted(self.pairs):
            succ.setdefault(u, []).append(v)
            pred.setdefault(v, []).append(u)
        self._succ = {u: tuple(vs) for u, vs in succ.items()}
        self._pred = {v: tuple(us) for v, us in pred.items()}

    def holds(self, prev: str, cur: str) -> bool:
        return (prev, cur) in self.pairs

    def successors(self, prev: str) -> tuple[str, ...]:
        return self._succ.get(prev, ())

    def predecessors(self, cur: str) -> tuple[str, ...]:
        return self._pred.get(cur, ())


class ChainProtocol:
    """Common surface of the explicit and computed protocol realizations."""

    window: tuple[int, int]

    def channels(self) -> range:
        lo, hi = self.window
        return range(lo, hi + 1)

    def in_window(self, k: int) -> bool:
        lo, hi = self.window
        return lo <= k <= hi

    def _check_channel(self, k: int) -> None:
        if not self.in_window(k):
            lo, hi = self.window
            raise ValueError(f"channel {k} is outside the window [{lo}, {hi}]")


class ExplicitChainProtocol(ChainProtocol):
    """Protocol with extensional value sets, pair relations, and atom tables."""

    def __init__(self, window, values, local, atoms=None):
        lo, hi = int(window[0]), int(window[1])
        if lo > hi:
            raise ProtocolFormatError(f"empty window [{lo}, {hi}]")
        self.window: tuple[int, int] = (lo, hi)
        self._values: dict[int, tuple[str, ...]] = {}
        for k in range(lo, hi + 1):
            if k not in values:
                raise ProtocolFormatError(f"channel {k} has no value set")
            self._values[k] = tuple(sorted(set(values[k])))
        self._value_sets: dict[int, frozenset[str]] = {
            k: frozenset(vs) for k, vs in self._values.items()
        }
        self._local: dict[int, ExplicitLocal] = {}
        for k in range(lo + 1, hi + 1):
            if k not in local:
                raise ProtocolFormatError(f"channel {k} has no local condition")
            cond = local[k]
            self._local[k] = cond if isinstance(cond, ExplicitLocal) else ExplicitLocal(cond)
        self._atoms: dict[int, dict[str, frozenset[str]]] = {
            k: {name: frozenset(vals) for name, vals in table.items()}
            for k, table in (atoms or {}).items()
        }

    def values(self, k: int) -> tuple[str, ...]:
        self._check_channel(k)
        return self._values[k]

    def iter_values(self, k: int):
        return iter(self.values(k))

    def has_value(self, k: int, v) -> bool:
        self._check_channel(k)
        return v in self._value_sets[k]

    def local(self, k: int):
        if not self.window[0] < k <= self.window[1]:
            raise ValueError(f"no local condition at channel {k}")
        return self._local[k]

    def atom_names(self, k: int) -> tuple[str, ...]:
        return tuple(sorted(self._atoms.get(k, ())))

    def atom_declared(self, k: int, name: str) -> bool:
        return name in self._atoms.get(k, ())

    def atom_holds(self, k: int, name: str, value: str) -> bool:
        return value in self._atoms[k][name]

    def validate(self, require_continuity: bool = False) -> list[Violation]:
        """Well-formedness report; empty means the protocol is sound to use.

        Violations are data, not exceptions, so callers can show all of them.
        """
        out: list[Violation] = []
        lo, hi = self.window
        for k in self.channels():
            if not self._values[k]:
                out.append(Violation("empty-values", k, f"channel {k} has no values"))
        for k in range(lo + 1, hi + 1):
            cond = self._local[k]
            for u, v in sorted(cond.pairs):
                if u not in self._value_sets[k - 1]:
                    out.append(
                        Violation(
                            "pair-domain", k,
                            f"pair ({u!r}, {v!r}) uses {u!r} outside channel {k - 1}",
                        )
                    )
                if v not in self._value_sets[k]:
                    out.append(
                        Violation(
                            "pair-domain", k,
                            f"pair ({u!r}, {v!r}) uses {v!r} outside channel {k}",
                        )
                    )
        for k, table in sorted(self._atoms.items()):
            if not self.in_window(k):
                out.append(Violation("atom-channel", k, f"atoms declared outside the window at channel {k}"))
                continue
            for name in sorted(table):
                for v in sorted(table[name]):
                    if v not in self._value_sets[k]:
                        out.append(
                            Violation(
                                "atom-domain", k,
                                f"atom {name!r} at channel {k} is true at unknown value {v!r}",
                            )
                        )
        if require_continuity:
            for k in range(lo + 1, hi + 1):
                cond = self._local[k]
                for v in self._values[k - 1]:
                    if not any(s in self._value_sets[k] for s in cond.successors(v)):
                        out.append(
                            Violation(
                                "continuity", k,
                                f"value {v!r} at channel {k - 1} has no successor at channel {k}",
                            )
                        )
        return out


_NAMED_ALPHABETS = {"latin": "abcdefghijklmnopqrstuvwxyz"}


class TelephoneProtocol(ChainProtocol):
    """Word-passing chain: every channel carries words of a fixed length over
    one alphabet and each hop changes at most one letter.

    ``alphabet`` is a named alphabet (``"latin"`` is a-z) or a string or
    iterable of single characters; at least two distinct letters are
    required, and the chain needs at least two channels.

    For every word w and in-window channel k the atom ``eq_w`` is declared
    at k and true exactly at w. Value sets and atom tables are computed,
    never materialized, so long words stay affordable.

    The protocol is its own local condition: every hop has the one
    relation the alphabet fixes, adjacency in the Hamming graph, so
    ``local(k)`` returns the protocol. With a w-letter word over an
    s-letter alphabet each value has 1 + w*(s-1) neighbours, so the
    relation is never materialized: ``successors`` builds a word's
    neighbours on each call and nothing is kept per word.
    """

    def __init__(self, word_len: int, alphabet, chain_len: int):
        if isinstance(alphabet, str):
            alphabet = _NAMED_ALPHABETS.get(alphabet, alphabet)
        # Sorted and without repeats, so every word comes once and in the
        # sorted order its neighbour lists have.
        alpha = tuple(sorted(set(alphabet)))
        if word_len < 1:
            raise ValueError("word_len must be at least 1")
        if len(alpha) < 2:
            raise ValueError("alphabet needs at least two distinct letters")
        if any(len(c) != 1 for c in alpha):
            raise ValueError("alphabet entries must be single characters")
        if chain_len < 2:
            raise ValueError("chain_len must be at least 2")
        self.word_len = word_len
        self.alphabet = alpha
        self.window = (0, chain_len - 1)
        # Per letter, the alphabet's letters below it and above it.
        self._around = {c: (alpha[:i], alpha[i + 1 :]) for i, c in enumerate(alpha)}

    def iter_values(self, k: int):
        """Every word of the channel, once each, in sorted order."""
        self._check_channel(k)
        return (
            "".join(letters)
            for letters in itertools.product(self.alphabet, repeat=self.word_len)
        )

    def has_value(self, k: int, v) -> bool:
        self._check_channel(k)
        return (
            isinstance(v, str)
            and len(v) == self.word_len
            and all(c in self._around for c in v)
        )

    def local(self, k: int):
        if not self.window[0] < k <= self.window[1]:
            raise ValueError(f"no local condition at channel {k}")
        return self

    def holds(self, prev: str, cur: str) -> bool:
        """Whether the hop from prev to cur is allowed, at any channel: cur
        is among ``successors(prev)``, the same length as prev, and equal to
        it but for at most one position, where cur has a letter of the
        alphabet. On words the relation is symmetric. The walk in
        ``semantics`` relies on this equivalence: where it filters a channel
        by a truth set T, it visits the sorted members of T that ``holds``
        admits instead of listing the neighbours, which are sorted too, so
        the order is the one filtering gives."""
        if len(prev) != len(cur):
            return False
        changed = None
        for a, b in zip(prev, cur):
            if a != b:
                if changed is not None:
                    return False
                changed = b
        return changed is None or changed in self._around

    def _outside(self, letter: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """The alphabet's letters below and above a letter not in it."""
        return (
            tuple(c for c in self.alphabet if c < letter),
            tuple(c for c in self.alphabet if c > letter),
        )

    def successors(self, prev: str) -> tuple[str, ...]:
        """prev and every word one letter away, its neighbours at any hop,
        in sorted order: a word that changes position i to a smaller letter
        sorts before every word that changes a later position, and one with
        a larger letter after them. So the smaller words come position by
        position from the first, then prev, then the larger words from the
        last position back."""
        words = []
        above = []
        for i, original in enumerate(prev):
            lower, upper = self._around.get(original) or self._outside(original)
            head, tail = prev[:i], prev[i + 1 :]
            for c in lower:
                words.append(head + c + tail)
            above.append((head, upper, tail))
        words.append(prev)
        for head, upper, tail in reversed(above):
            for c in upper:
                words.append(head + c + tail)
        return tuple(words)

    # The relation is symmetric.
    predecessors = successors

    def atom_declared(self, k: int, name: str) -> bool:
        return name.startswith("eq_") and self.has_value(k, name[3:])

    def atom_holds(self, k: int, name: str, value: str) -> bool:
        return value == name[3:]

    def atom_values(self, k: int, name: str) -> frozenset[str]:
        """The values of channel k where the declared atom holds: its word."""
        return frozenset((name[3:],))

    def validate(self, require_continuity: bool = False) -> list[Violation]:
        # Well-formed by construction; every word neighbors itself, so the
        # continuity condition holds as well.
        return []


# The word-passing game on a chain, built and checked by its one constructor.
telephone = TelephoneProtocol


# --- run-level operations ---------------------------------------------------

def check_assignment(p: ChainProtocol, assignment) -> tuple:
    """The assignment as a tuple, once it has one value per window channel,
    each in its channel's value set. A wrong length raises ValueError, a
    label outside a value set ValueDomainError."""
    lo, hi = p.window
    r = tuple(assignment)
    if len(r) != hi - lo + 1:
        raise ValueError(
            f"assignment has {len(r)} values but the window [{lo}, {hi}] "
            f"has {hi - lo + 1} channels"
        )
    for k in p.channels():
        if not p.has_value(k, r[k - lo]):
            raise ValueDomainError(k, r[k - lo])
    return r


def is_run(p: ChainProtocol, assignment) -> bool:
    """True when every adjacent pair of the assignment satisfies its local
    condition. Checked first by ``check_assignment``."""
    lo, hi = p.window
    r = check_assignment(p, assignment)
    return all(
        p.local(k).holds(r[k - lo - 1], r[k - lo]) for k in range(lo + 1, hi + 1)
    )


_END = object()


def _paths(first, start: int, stop: int, successors):
    """Every path over channels start..stop, as tuples, in order: the value
    at ``start`` from ``first``, each next one from ``successors(j, prev)``.

    Iterative, so chain length is not bounded by the recursion limit.
    """
    prefix: list = []
    stack = [iter(first)]
    while stack:
        v = next(stack[-1], _END)
        if v is _END:
            stack.pop()
            if prefix:
                prefix.pop()
        elif start + len(prefix) == stop:
            yield (*prefix, v)
        else:
            prefix.append(v)
            stack.append(iter(successors(start + len(prefix), v)))


def runs(p: ChainProtocol):
    """Lazily enumerate every run, each exactly once, in lexicographic order
    of the per-channel value order."""
    lo, hi = p.window
    return _paths(
        p.iter_values(lo), lo, hi, lambda j, prev: p.local(j).successors(prev)
    )


def run_count(p: ChainProtocol) -> int:
    """Number of runs, by path counting along the chain (no enumeration)."""
    lo, hi = p.window
    counts = {v: 1 for v in p.iter_values(lo)}
    for k in range(lo + 1, hi + 1):
        cond = p.local(k)
        nxt: dict[str, int] = {}
        for v, c in counts.items():
            for u in cond.successors(v):
                nxt[u] = nxt.get(u, 0) + c
        counts = nxt
        if not counts:
            return 0
    return sum(counts.values())


def runs_fixing(p: ChainProtocol, k: int, v):
    """Exactly the runs whose value at channel k is v, in runs(p) order.

    One path walk that, up to channel k, keeps to the values from which v
    at channel k is reachable, so no full scan of the run set is needed.
    """
    lo, hi = p.window
    p._check_channel(k)
    if not p.has_value(k, v):
        raise ValueDomainError(k, v)
    # reach[j]: values at channel j from which v at channel k is reachable.
    reach: dict[int, set] = {k: {v}}
    for j in range(k, lo, -1):
        cond = p.local(j)
        reach[j - 1] = {u for w in reach[j] for u in cond.predecessors(w)}

    def successors(j: int, prev):
        after = p.local(j).successors(prev)
        return after if j > k else [u for u in after if u in reach[j]]

    return _paths(sorted(reach[lo]), lo, hi, successors)


def splice(p: ChainProtocol, r1, r2, k: int):
    """Glue two runs that agree at channel k: values up to k come from r1
    and from k on they come from r2. The result is again a run."""
    lo, hi = p.window
    p._check_channel(k)
    r1, r2 = tuple(r1), tuple(r2)
    if len(r1) != hi - lo + 1 or len(r2) != hi - lo + 1:
        raise ValueError("runs must cover exactly the window")
    i = k - lo
    if r1[i] != r2[i]:
        raise ValueError(
            f"runs disagree at channel {k}: {r1[i]!r} versus {r2[i]!r}"
        )
    return r1[:i] + r2[i:]


# Keeping r's strict prefix and taking everything from channel n on from rp
# is the same gluing as splice(p, r, rp, n).
prefix_splice = splice


# --- file format -------------------------------------------------------------

_TOP_KEYS = frozenset({"window", "channels", "local"})
_CHANNEL_KEYS = frozenset({"index", "values", "atoms"})
_LOCAL_KEYS = frozenset({"channel", "pairs"})


def protocol_from_dict(doc: dict) -> ExplicitChainProtocol:
    """Decode the JSON protocol document shape into an explicit protocol.

    Structural errors raise ProtocolFormatError: the document and each
    channel and local entry go through ``formula._json_object``, which names
    the object and the unknown or missing keys, and the constructor names a
    channel with no value set or no local condition. Semantic problems
    (pair or atom domains) are left to the protocol's validate() method.
    """
    _json_object(doc, _TOP_KEYS, ("window", "channels", "local"), "protocol document", ProtocolFormatError)
    # Indices must be genuine integers: JSON true/false are Python ints too.
    window = doc["window"]
    if (
        not isinstance(window, list)
        or len(window) != 2
        or not all(type(x) is int for x in window)
    ):
        raise ProtocolFormatError('"window" must be [lo, hi] with integer bounds')
    lo, hi = window
    if lo > hi:
        raise ProtocolFormatError(f"empty window [{lo}, {hi}]")

    values: dict[int, list[str]] = {}
    atoms: dict[int, dict[str, list[str]]] = {}
    if not isinstance(doc["channels"], list):
        raise ProtocolFormatError('"channels" must be a list')
    for entry in doc["channels"]:
        _json_object(entry, _CHANNEL_KEYS, ("index", "values"), "channel entry", ProtocolFormatError)
        k = entry["index"]
        if type(k) is not int or not lo <= k <= hi:
            raise ProtocolFormatError(f"channel index {k!r} outside the window")
        if k in values:
            raise ProtocolFormatError(f"channel {k} appears more than once")
        vs = entry["values"]
        if not isinstance(vs, list) or not all(isinstance(v, str) for v in vs):
            raise ProtocolFormatError(f'channel {k} "values" must be a list of strings')
        if len(set(vs)) != len(vs):
            raise ProtocolFormatError(f"channel {k} has duplicate values")
        values[k] = vs
        table = entry.get("atoms", {})
        if not isinstance(table, dict):
            raise ProtocolFormatError(f'channel {k} "atoms" must be an object')
        for name, tv in table.items():
            if not isinstance(tv, list) or not all(isinstance(v, str) for v in tv):
                raise ProtocolFormatError(
                    f"atom {name!r} at channel {k} must map to a list of strings"
                )
        atoms[k] = {name: list(tv) for name, tv in table.items()}

    local: dict[int, list[tuple[str, str]]] = {}
    if not isinstance(doc["local"], list):
        raise ProtocolFormatError('"local" must be a list')
    for entry in doc["local"]:
        _json_object(entry, _LOCAL_KEYS, ("channel", "pairs"), "local entry", ProtocolFormatError)
        k = entry["channel"]
        if type(k) is not int or not lo < k <= hi:
            raise ProtocolFormatError(
                f"local condition channel {k!r} must lie in ({lo}, {hi}]"
            )
        if k in local:
            raise ProtocolFormatError(f"local condition for channel {k} appears twice")
        pairs = entry["pairs"]
        if not isinstance(pairs, list) or not all(
            isinstance(pair, list)
            and len(pair) == 2
            and all(isinstance(x, str) for x in pair)
            for pair in pairs
        ):
            raise ProtocolFormatError(
                f'channel {k} "pairs" must be a list of [prev, cur] string pairs'
            )
        local[k] = [tuple(pair) for pair in pairs]

    return ExplicitChainProtocol((lo, hi), values, local, atoms)


def protocol_to_dict(p: ExplicitChainProtocol) -> dict:
    """Encode an explicit protocol in the JSON document shape."""
    lo, hi = p.window
    return {
        "window": [lo, hi],
        "channels": [
            {
                "index": k,
                "values": list(p.values(k)),
                "atoms": {
                    name: sorted(p._atoms[k][name]) for name in p.atom_names(k)
                },
            }
            for k in p.channels()
        ],
        "local": [
            {"channel": k, "pairs": [list(pair) for pair in sorted(p.local(k).pairs)]}
            for k in range(lo + 1, hi + 1)
        ],
    }


def load_protocol(path) -> ExplicitChainProtocol:
    """Read a protocol file, rejecting both bad structure and any
    well-formedness violations."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    p = protocol_from_dict(doc)
    problems = p.validate(require_continuity=False)
    if problems:
        raise ProtocolFormatError(
            "; ".join(v.detail for v in problems)
        )
    return p
