"""The iterative formula walkers and the shared evaluator against the
recursive oracles in conftest: on random formulas with box nesting,
out-of-window channels and shared subformulas, on formulas that share
subformulas at every level, and on input 100,000 levels deep."""

import functools
import hashlib
import random
import time
import tracemalloc

import pytest

from chainlogic import (
    Atom,
    Bottom,
    Box,
    EvalContext,
    Implies,
    SearchBounds,
    VariableLimitError,
    channel_support,
    conj,
    counterexample,
    evaluate,
    iff,
    is_tautology,
    member_phi,
    neg,
    render,
    runs,
    sample_protocol,
    scope,
    scoped_cnf,
    shift_channels,
    skeleton,
    valid_in,
)

from conftest import (
    enum_evaluate,
    full_relation,
    make_protocol,
    reference_channel_support,
    reference_is_tautology,
    reference_render,
    reference_scope_set,
    reference_scoped_cnf,
    reference_shift_channels,
    reference_variables,
)


def _random_formula(rng, depth):
    """Atoms p/q on the window channels 0..2 of a SearchBounds(3, 2, 2)
    protocol, boxes on channels -1..3 (two outside it), and iff, whose
    arguments are shared subformulas."""
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        if rng.random() < 0.15:
            return Bottom()
        return Atom(rng.randint(0, 2), rng.choice("pq"))
    if roll < 0.6:
        return Implies(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))
    if roll < 0.85:
        return Box(rng.randint(-1, 3), _random_formula(rng, depth - 1))
    return iff(_random_formula(rng, depth - 2), _random_formula(rng, depth - 2))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except VariableLimitError as exc:
        return str(exc)


def test_walkers_match_recursive_oracles():
    rng = random.Random(606)
    bounds = SearchBounds(3, 2, 2)
    for _ in range(500):
        f = _random_formula(rng, rng.randint(0, 6))
        assert render(f) == reference_render(f)
        assert scope(f).indices == reference_scope_set(f)
        channels = set(rng.sample(range(-1, 4), rng.randint(0, 3)))
        assert member_phi(f, channels) == (reference_scope_set(f) <= channels)
        assert channel_support(f) == reference_channel_support(f)
        delta = rng.randint(-3, 3)
        shifted = shift_channels(f, delta)
        assert shifted == reference_shift_channels(f, delta)
        assert render(shifted) == reference_render(reference_shift_channels(f, delta))
        assert skeleton(f).bindings == tuple(reference_variables(f, {}))
        for limit in (24, 3):
            assert _outcome(is_tautology, f, limit) == _outcome(reference_is_tautology, f, limit)
            assert _outcome(scoped_cnf, f, limit) == _outcome(reference_scoped_cnf, f, limit)
        p = sample_protocol(rng, bounds)
        all_runs = list(runs(p))
        r = all_runs[rng.randrange(len(all_runs))]
        assert evaluate(EvalContext(p), r, f) == enum_evaluate(p, r, f, {})


def _hash_children_first(f):
    if isinstance(f, Implies):
        _hash_children_first(f.lhs)
        _hash_children_first(f.rhs)
    elif isinstance(f, Box):
        _hash_children_first(f.body)
    return hash(f)


def test_hash_and_equality_do_not_depend_on_the_walk():
    """A hash computed in one walk equals one built up from hashed
    subformulas; a subformula shared on one side and compared against two
    different subformulas on the other is compared twice."""
    rng = random.Random(17)
    for _ in range(300):
        f = _random_formula(rng, rng.randint(1, 6))
        copy = reference_shift_channels(f, 0)
        assert hash(reference_shift_channels(f, 0)) == _hash_children_first(copy)
    p, q, r = Atom(0, "p"), Atom(0, "q"), Atom(0, "r")
    a = Implies(p, q)
    assert Implies(a, a) != Implies(Implies(p, q), Implies(p, r))
    assert Implies(a, a) == Implies(Implies(p, q), Implies(p, q))
    assert Box(1, Implies(a, a)) != Box(1, Implies(Implies(p, q), Implies(q, q)))


def test_skeleton_digest_is_unchanged():
    """is_tautology, rendered scoped_cnf (or the limit error) and rendered
    skeleton bindings of 4,000 seeded formulas, every fifth with a repeated
    subformula, at limits 24 and 6 (382 tautologies, 155 limit errors).
    The digest is the one the recursive walkers gave."""
    rng = random.Random(2)
    h = hashlib.sha256()
    for i in range(4000):
        f = _random_formula(rng, rng.randint(0, 7))
        if i % 5 == 0:
            f = Implies(f, Box(rng.randint(0, 3), f))
        for limit in (24, 6):
            try:
                cnf = [[render(lit) for lit in clause] for clause in scoped_cnf(f, limit)]
                verdict = (is_tautology(f, limit), cnf)
            except VariableLimitError as exc:
                verdict = str(exc)
            h.update(repr((verdict, [render(b) for b in skeleton(f).bindings])).encode())
    assert h.hexdigest() == "23f98225e29718d21522949820c3757754e6701078f828228f001467b79989ff"


def test_tautology_check_holds_few_columns():
    """A column has 2^variables bits, so the truth-table walk keeps one only
    while an implication still needs it: 2,047 implications over 16
    variables (8 KB a column) stay far below the 16 MB that keeping them
    all would take."""
    level = [Atom(i % 4, "pqrs"[i // 4 % 4]) for i in range(2048)]
    while len(level) > 1:
        level = [Implies(a, b) for a, b in zip(level[::2], level[1::2])]
    tracemalloc.start()
    try:
        is_tautology(level[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


_BASE = Implies(Box(1, Atom(0, "p")), Atom(2, "q"))


def _nested(depth, op=iff):
    f = _BASE
    for _ in range(depth):
        f = op(f, f)
    return f


def _base_countermodel():
    """Three channels where [1]p@0 holds at x and q@2 fails at w, so the
    first run, (u, x, w), falsifies _BASE."""
    return make_protocol(
        (0, 2),
        {0: ("u", "v"), 1: ("x", "y"), 2: ("w", "z")},
        {1: [("u", "x"), ("v", "y")], 2: full_relation(("x", "y"), ("w", "z"))},
        {0: {"p": ("u",)}, 1: {}, 2: {"q": ("z",)}},
    )


_SHARED_WALKS = [
    ("evaluate", lambda f: evaluate(EvalContext(_base_countermodel()), ("u", "x", "w"), f)),
    ("valid_in", lambda f: valid_in(EvalContext(_base_countermodel()), f)),
    ("counterexample", lambda f: counterexample(EvalContext(_base_countermodel()), f)),
    ("scoped_cnf", scoped_cnf),
]


@pytest.mark.parametrize(
    "name, walk",
    [
        ("hash", hash),
        ("==", lambda f: f == _nested(30)),
        ("skeleton", lambda f: skeleton(f).bindings),
        ("scope", lambda f: scope(f).indices),
        ("channel_support", channel_support),
        ("shift_channels", lambda f: shift_channels(f, 3)),
        ("is_tautology", is_tautology),
        *_SHARED_WALKS,
    ],
)
def test_shared_subformulas_are_walked_once(name, walk):
    """30 nested iff(f, f) have a few hundred distinct nodes but about 4^30
    paths; each walker visits a shared node once."""
    f = _nested(30)
    start = time.perf_counter()
    result = walk(f)
    assert time.perf_counter() - start < 1.0, name
    expected = {
        "==": True,
        "skeleton": (Box(1, Atom(0, "p")), Atom(2, "q")),
        "scope": frozenset({1, 2}),
        "channel_support": frozenset({0, 1, 2}),
        "is_tautology": True,
        "evaluate": True,
        "valid_in": True,
        "counterexample": None,
        "scoped_cnf": [],
    }
    if name in expected:
        assert result == expected[name]
    if name == "shift_channels":
        assert channel_support(result) == frozenset({3, 4, 5})
        inner = result.lhs.lhs  # iff(a, a) is conj(a -> a, a -> a)
        shared = inner.lhs is inner.rhs
        assert shared  # the sharing survives
        p = Atom(0, "p")
        atoms = shift_channels(Implies(p, p), 1)
        assert atoms.lhs is atoms.rhs


@pytest.mark.parametrize("name, walk", _SHARED_WALKS)
def test_shared_conjunctions_answer_as_their_base(name, walk):
    """30 nested conj(f, f) are equivalent to f, which the first run
    falsifies, and have about 2^30 paths; each answers as f does."""
    start = time.perf_counter()
    result = walk(_nested(30, conj))
    assert time.perf_counter() - start < 1.0, name
    assert result == walk(_BASE)
    assert result in (False, ("u", "x", "w"), [[neg(_BASE.lhs), _BASE.rhs]])


DEPTH = 100_000


@functools.lru_cache(maxsize=None)
def _deep(kind, channel):
    """100,000 nested !, [channel], or right-nested ->, built in a loop."""
    leaf = Atom(channel, "p")
    f = leaf
    for _ in range(DEPTH):
        if kind == "!":
            f = neg(f)
        elif kind == "[]":
            f = Box(channel, f)
        else:
            f = Implies(leaf, f)
    return f


@pytest.mark.parametrize("kind", ["!", "[]", "->"])
def test_deep_formulas_through_every_formula_function(kind):
    f = _deep(kind, 1)
    text = {
        "!": "(" * DEPTH + "p@1" + " -> false)" * DEPTH,
        "[]": "[1]" * DEPTH + "p@1",
        "->": "(p@1 -> " * DEPTH + "p@1" + ")" * DEPTH,
    }[kind]
    assert render(f) == text
    shifted = shift_channels(f, -1)
    assert hash(shifted) == hash(_deep(kind, 0))
    assert shifted == _deep(kind, 0)
    assert scope(f).indices == {1}
    assert member_phi(f, {1}) and not member_phi(f, {0})
    assert channel_support(f) == {1}
    leaf = f if kind == "[]" else Atom(1, "p")
    assert skeleton(f).bindings == (leaf,)
    # An even number of negations, a box, and p -> (p -> ... p).
    assert is_tautology(f) == (kind == "->")
    assert scoped_cnf(f) == ([] if kind == "->" else [[leaf]])


@pytest.mark.parametrize("kind", ["!", "->"])
def test_deep_formulas_evaluate_without_recursion(kind):
    """Modal depth 0, so no nested walk: the residual simplifier alone
    meets the depth."""
    f = _deep(kind, 0)
    p = make_protocol((0, 0), {0: ("a", "b")}, {}, {0: {"p": ("a",)}})
    ctx = EvalContext(p)
    assert evaluate(ctx, ("a",), f)
    assert evaluate(ctx, ("b",), f) == (kind == "->")
    assert valid_in(ctx, f) == (kind == "->")
    assert counterexample(ctx, f) == (None if kind == "->" else ("b",))
