"""Shared builders and independent oracles for the test suite."""

import functools
import itertools

from dataclasses import dataclass

from chainlogic import (
    Atom,
    Bottom,
    Box,
    ExplicitChainProtocol,
    FormulaSyntaxError,
    Implies,
    SearchBounds,
    UndeclaredAtomError,
    ValueDomainError,
    conj,
    diamond,
    disj,
    enumerate_protocols,
    neg,
    runs,
    runs_fixing,
    truth,
)
from chainlogic.formula import CHANNEL_MAX, CHANNEL_MIN, Formula
from chainlogic.propositional import VariableLimitError


def syllogism_chain(rng, m):
    """The parts of a derivation of [c]A1 -> [c]Am from the chained
    syllogism (A1->A2) -> ((A2->A3) -> ... -> (A1->Am)): Am is an atom and
    each Ai = [ci]A(i+1). Returns the list A1..Am, the links Ai -> A(i+1),
    the chain A1 -> Am and the channel c."""
    a = [Atom(rng.randrange(4), rng.choice("pqrs"))]
    for _ in range(m - 1):
        a.insert(0, Box(rng.randrange(4), a[0]))
    links = [Implies(a[i], a[i + 1]) for i in range(m - 1)]
    return a, links, Implies(a[0], a[-1]), rng.randrange(4)


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


def candidate_key(p):
    """A protocol's value sets, relations and truth sets, comparable across
    separately built protocols."""
    lo, hi = p.window
    return (
        tuple(p.values(k) for k in p.channels()),
        tuple(tuple(sorted(p.local(k).pairs)) for k in range(lo + 1, hi + 1)),
        tuple(
            tuple((name, tuple(v for v in p.values(k) if p.atom_holds(k, name, v)))
                  for name in p.atom_names(k))
            for k in p.channels()
        ),
    )


def reference_equivalent_keys(p, relabellings):
    """candidate_key of every protocol isomorphic to p on a prefix of the
    labels: p with the values that lie on no run deleted, its survivors
    renamed in order onto a prefix of the labels (the first key), under
    every per-channel permutation of those labels. Each has p's runs up to
    renaming, so the verdict of p on every formula. The renamed value sets
    and relations depend only on p's own, so they are built once per
    (value sets, relations) and kept in the caller's dict
    ``relabellings``."""
    labels = "abcdefghijklmnopqrstuvwxyz"
    lo, hi = p.window
    structure = candidate_key(p)[:2]
    if structure not in relabellings:
        found = brute_force_runs(p)
        live = [sorted({r[k - lo] for r in found}) for k in p.channels()]
        values = tuple(tuple(labels[: len(vs)]) for vs in live)
        orders = [itertools.permutations(labels[: len(vs)]) for vs in live]
        renamings = []
        for order in itertools.product(*orders):
            rename = [dict(zip(vs, names)) for vs, names in zip(live, order)]
            relations = tuple(
                tuple(sorted(
                    (rename[k - lo - 1][u], rename[k - lo][v])
                    for u, v in p.local(k).pairs
                    if u in rename[k - lo - 1] and v in rename[k - lo]
                ))
                for k in range(lo + 1, hi + 1)
            )
            renamings.append((rename, values, relations))
        relabellings[structure] = renamings
    for rename, values, relations in relabellings[structure]:
        yield (
            values,
            relations,
            tuple(
                tuple(
                    (name, tuple(sorted(
                        to for v, to in names.items() if p.atom_holds(k, name, v)
                    )))
                    for name in p.atom_names(k)
                )
                for k, names in zip(p.channels(), rename)
            ),
        )


def reference_candidate_count(channels, max_values, atoms):
    """Size of the exhaustive candidate space as a sum over value-set size
    vectors, one term per vector (max_values^channels of them)."""
    total = 0
    for sizes in itertools.product(range(1, max_values + 1), repeat=channels):
        combos = 1
        for left, right in zip(sizes, sizes[1:]):
            combos *= (1 << (left * right)) - 1
        for s in sizes:
            combos *= 1 << (s * atoms)
        total += combos
    return total


@functools.lru_cache(maxsize=None)
def exhaustive_suite(channels, max_values, atoms):
    return tuple(enumerate_protocols(SearchBounds(channels, max_values, atoms)))


# --- the recursive formula walkers, kept as oracles for the iterative ones ---
#
# Each recurses once per nesting level, so they serve formulas of modest
# depth only; the library's walkers use explicit stacks.


def reference_render(f):
    if isinstance(f, Bottom):
        return "false"
    if isinstance(f, Atom):
        return f"{f.name}@{f.channel}"
    if isinstance(f, Box):
        return f"[{f.channel}]{reference_render(f.body)}"
    return f"({reference_render(f.lhs)} -> {reference_render(f.rhs)})"


def reference_scope_set(f):
    if isinstance(f, (Atom, Box)):
        return frozenset((f.channel,))
    if isinstance(f, Implies):
        return reference_scope_set(f.lhs) | reference_scope_set(f.rhs)
    return frozenset()


def reference_channel_support(f):
    if isinstance(f, Atom):
        return frozenset((f.channel,))
    if isinstance(f, Box):
        return frozenset((f.channel,)) | reference_channel_support(f.body)
    if isinstance(f, Implies):
        return reference_channel_support(f.lhs) | reference_channel_support(f.rhs)
    return frozenset()


def reference_shift_channels(f, delta):
    if isinstance(f, Bottom):
        return f
    if isinstance(f, Atom):
        return Atom(f.channel + delta, f.name)
    if isinstance(f, Box):
        return Box(f.channel + delta, reference_shift_channels(f.body, delta))
    return Implies(
        reference_shift_channels(f.lhs, delta), reference_shift_channels(f.rhs, delta)
    )


def reference_variables(f, index):
    """Maximal box/atom subformulas numbered by first occurrence."""
    if isinstance(f, Implies):
        reference_variables(f.lhs, index)
        reference_variables(f.rhs, index)
    elif not isinstance(f, Bottom):
        index.setdefault(f, len(index))
    return index


def _reference_truth_table(f, max_vars):
    index = reference_variables(f, {})
    n = len(index)
    if n > max_vars:
        raise VariableLimitError(f"{n} skeleton variables exceed the limit of {max_vars}")
    # Column of variable i: bit j is bit i of assignment j, so read from
    # the top bit down it is 2^i ones, 2^i zeros, repeated.
    masks = [
        int(("1" * (1 << i) + "0" * (1 << i)) * (1 << (n - i - 1)), 2) for i in range(n)
    ]
    return index, masks, (1 << (1 << n)) - 1


def _reference_mask(f, index, masks, full):
    if isinstance(f, Bottom):
        return 0
    if isinstance(f, Implies):
        return (full ^ _reference_mask(f.lhs, index, masks, full)) | _reference_mask(
            f.rhs, index, masks, full
        )
    return masks[index[f]]


def reference_is_tautology(f, max_vars=24):
    index, masks, full = _reference_truth_table(f, max_vars)
    return _reference_mask(f, index, masks, full) == full


def _reference_merge_clause(left, right):
    seen = set()
    out = []
    for lit in (*left, *right):
        var, pol = lit
        if (var, not pol) in seen:
            return None
        if lit not in seen:
            seen.add(lit)
            out.append(lit)
    return out


def _reference_cnf_clauses(f, positive, index):
    if isinstance(f, Bottom):
        return [[]] if positive else []
    if not isinstance(f, Implies):
        return [[(index[f], positive)]]
    if not positive:  # !(a -> b) is a & !b
        return _reference_cnf_clauses(f.lhs, True, index) + _reference_cnf_clauses(
            f.rhs, False, index
        )
    out = []
    for cl in _reference_cnf_clauses(f.lhs, False, index):
        for cr in _reference_cnf_clauses(f.rhs, True, index):
            merged = _reference_merge_clause(cl, cr)
            if merged is not None:
                out.append(merged)
    return out


def reference_scoped_cnf(f, max_vars=24):
    """Clauses in first-appearance order, duplicates dropped, literals as
    bindings or their negations (L -> false)."""
    index, _, _ = _reference_truth_table(f, max_vars)
    bindings = tuple(index)
    out, seen = [], set()
    for clause in _reference_cnf_clauses(f, True, index):
        if tuple(clause) not in seen:
            seen.add(tuple(clause))
            out.append(
                [bindings[v] if pol else Implies(bindings[v], Bottom()) for v, pol in clause]
            )
    return out


# --- the recursive-descent parser, kept as the oracle for formula.parse -----
#
# formula := impl
# impl    := or ("->" impl)?                    (right associative)
# or      := and ("|" and)*
# and     := unary ("&" unary)*
# unary   := "!" unary | "[" INT "]" unary | "<" INT ">" unary | primary
# primary := "false" | "true" | IDENT "@" INT | "(" formula ")"
# INT     := "-"? digits ; IDENT := [A-Za-z_][A-Za-z0-9_]*
#
# Whitespace between tokens is ignored.

_SINGLE_CHAR_TOKENS = {
    "[": "LBRACK",
    "]": "RBRACK",
    "<": "LANGLE",
    ">": "RANGLE",
    "(": "LPAREN",
    ")": "RPAREN",
    "!": "BANG",
    "&": "AMP",
    "|": "PIPE",
    "@": "AT",
}


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str
    text: str
    pos: int


def _is_ident_start(c: str) -> bool:
    return "a" <= c <= "z" or "A" <= c <= "Z" or c == "_"


def _is_ident_char(c: str) -> bool:
    return _is_ident_start(c) or "0" <= c <= "9"


def _int_token(text: str, pos: int) -> _Token:
    value = int(text)
    if not CHANNEL_MIN <= value <= CHANNEL_MAX:
        raise FormulaSyntaxError("channel index outside the representable range", pos)
    return _Token("INT", text, pos)


def _tokenize(text: str) -> list[_Token]:
    out: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _SINGLE_CHAR_TOKENS:
            out.append(_Token(_SINGLE_CHAR_TOKENS[c], c, i))
            i += 1
            continue
        if c == "-":
            if i + 1 < n and text[i + 1] == ">":
                out.append(_Token("ARROW", "->", i))
                i += 2
                continue
            if i + 1 < n and "0" <= text[i + 1] <= "9":
                j = i + 1
                while j < n and "0" <= text[j] <= "9":
                    j += 1
                out.append(_int_token(text[i:j], i))
                i = j
                continue
            raise FormulaSyntaxError("unexpected '-'", i)
        if "0" <= c <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            out.append(_int_token(text[i:j], i))
            i = j
            continue
        if _is_ident_start(c):
            j = i
            while j < n and _is_ident_char(text[j]):
                j += 1
            out.append(_Token("IDENT", text[i:j], i))
            i = j
            continue
        raise FormulaSyntaxError(f"unexpected character {c!r}", i)
    out.append(_Token("EOF", "", n))
    return out


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._i = 0

    def peek(self) -> _Token:
        return self._tokens[self._i]

    def advance(self) -> _Token:
        tok = self._tokens[self._i]
        self._i += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise FormulaSyntaxError(f"expected {what}", tok.pos)
        return self.advance()

    def formula(self) -> Formula:
        left = self._or()
        if self.peek().kind == "ARROW":
            self.advance()
            return Implies(left, self.formula())
        return left

    def _or(self) -> Formula:
        f = self._and()
        while self.peek().kind == "PIPE":
            self.advance()
            f = disj(f, self._and())
        return f

    def _and(self) -> Formula:
        f = self._unary()
        while self.peek().kind == "AMP":
            self.advance()
            f = conj(f, self._unary())
        return f

    def _unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "BANG":
            self.advance()
            return neg(self._unary())
        if tok.kind == "LBRACK":
            self.advance()
            k = self._channel()
            self.expect("RBRACK", "']'")
            return Box(k, self._unary())
        if tok.kind == "LANGLE":
            self.advance()
            k = self._channel()
            self.expect("RANGLE", "'>'")
            return diamond(k, self._unary())
        return self._primary()

    def _channel(self) -> int:
        tok = self.peek()
        if tok.kind != "INT":
            raise FormulaSyntaxError("expected a channel index", tok.pos)
        self.advance()
        return int(tok.text)

    def _primary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "IDENT":
            if tok.text == "false":
                self.advance()
                return Bottom()
            if tok.text == "true":
                self.advance()
                return truth()
            self.advance()
            self.expect("AT", "'@' after an atom name")
            return Atom(self._channel(), tok.text)
        if tok.kind == "LPAREN":
            self.advance()
            f = self.formula()
            self.expect("RPAREN", "')'")
            return f
        raise FormulaSyntaxError("expected a formula", tok.pos)


def reference_parse(text):
    """The character-loop tokenizer and the recursive-descent parser the
    library parsed with before its iterative parser."""
    parser = _Parser(_tokenize(text))
    f = parser.formula()
    tail = parser.peek()
    if tail.kind != "EOF":
        raise FormulaSyntaxError("unexpected trailing input", tail.pos)
    return f
