import itertools
import random
import tracemalloc

import pytest

from chainlogic import semantics
from chainlogic import (
    Atom,
    Bottom,
    Box,
    EvalContext,
    Implies,
    RandomMode,
    SearchBounds,
    StrictWindowError,
    UndeclaredAtomError,
    ValueDomainError,
    conj,
    counterexample,
    disj,
    evaluate,
    iff,
    neg,
    parse,
    random_formula,
    runs,
    sample_protocol,
    scope,
    telephone,
    valid_in,
)
from chainlogic.propositional import DEFAULT_VARIABLE_LIMIT
from chainlogic.protocol import TelephoneProtocol

from conftest import (
    enum_counterexample,
    enum_evaluate,
    gateway_countermodel,
    make_protocol,
    two_value_cube,
)


def small_telephone():
    return telephone(3, "abc", 3)


def test_eval_clauses():
    p = two_value_cube()
    ctx = EvalContext(p)
    r = ("1", "0", "1")
    assert not evaluate(ctx, r, parse("false"))
    assert evaluate(ctx, r, parse("true"))
    assert evaluate(ctx, r, parse("p@0"))
    assert not evaluate(ctx, r, parse("p@1"))
    assert evaluate(ctx, r, parse("p@1 -> p@0"))
    assert not evaluate(ctx, r, parse("p@0 -> p@1"))


def test_eval_box_quantifies_over_shared_value():
    p = gateway_countermodel()
    ctx = EvalContext(p)
    # runs: (u,x,z) and (v,y,z); knowing channel 1 pins channel 0
    assert evaluate(ctx, ("u", "x", "z"), parse("[1]p@0"))
    assert not evaluate(ctx, ("u", "x", "z"), parse("[2]p@0"))
    assert not evaluate(ctx, ("u", "x", "z"), parse("[1]p@0 -> [2]p@0"))


def test_gateway_countermodel_validity():
    ctx = EvalContext(gateway_countermodel())
    f = parse("[1]p@0 -> [2]p@0")
    assert not valid_in(ctx, f)
    assert counterexample(ctx, f) == ("u", "x", "z")


def test_counterexample_trivial_cases():
    p = two_value_cube()
    ctx = EvalContext(p)
    assert counterexample(ctx, parse("true")) is None
    assert counterexample(ctx, parse("false")) == next(iter(runs(p)))


def test_telephone_symmetry_validity_sample():
    t = small_telephone()
    ctx = EvalContext(t)
    for w in ("aaa", "abc", "cba"):
        f = parse(f"[1]!(eq_{w}@0) -> [1]!(eq_{w}@2)")
        assert valid_in(ctx, f)


def test_undeclared_atom_errors():
    p = two_value_cube()
    ctx = EvalContext(p)
    with pytest.raises(UndeclaredAtomError):
        evaluate(ctx, ("0", "0", "0"), parse("q@0"))
    with pytest.raises(UndeclaredAtomError):
        evaluate(ctx, ("0", "0", "0"), parse("p@9"))
    with pytest.raises(ValueDomainError):
        evaluate(ctx, ("0", "7", "0"), parse("p@1"))


def test_unreached_leaves_are_still_checked():
    # Atoms and strict-window boxes are checked once per call, before the
    # formula is evaluated, so a branch that evaluation would short-circuit
    # does not hide them.
    t = telephone(1, "ab", 3)
    ctx = EvalContext(t)
    strict = EvalContext(t, strict_window=True)
    run = ("a", "a", "a")
    for c, text in ((ctx, "false -> eq_zz@0"), (strict, "false -> [9]eq_a@0")):
        error = UndeclaredAtomError if c is ctx else StrictWindowError
        f = parse(text)
        with pytest.raises(error):
            evaluate(c, run, f)
        with pytest.raises(error):
            valid_in(c, f)
        with pytest.raises(error):
            counterexample(c, f)


def test_wrong_length_run_is_a_value_error():
    ctx = EvalContext(telephone(1, "ab", 3))
    for run in (("a",), ("a", "a", "a", "a")):
        with pytest.raises(ValueError, match=f"assignment has {len(run)} values .* has 3 channels"):
            evaluate(ctx, run, parse("eq_a@2"))


def test_out_of_window_box_quantifies_all_runs():
    p = gateway_countermodel()
    ctx = EvalContext(p)
    # all runs end in z, so knowledge at any out-of-window channel is
    # exactly protocol-wide validity
    assert evaluate(ctx, ("u", "x", "z"), parse("[9]!(p@0)")) == valid_in(
        ctx, parse("!(p@0)")
    )
    assert evaluate(ctx, ("u", "x", "z"), Box(-5, parse("p@0 -> p@0")))
    strict = EvalContext(p, strict_window=True)
    with pytest.raises(StrictWindowError):
        evaluate(strict, ("u", "x", "z"), parse("[9]p@0"))


def test_memoization_is_invisible():
    rng = random.Random(9)
    for _ in range(40):
        p = sample_protocol(rng, SearchBounds(3, 2, 2))
        f = random_formula(rng, range(3), ("p", "q"), 4)
        ctx = EvalContext(p)
        for r in runs(p):
            assert evaluate(ctx, r, f) == enum_evaluate(p, r, f, None)


def test_locality_on_scope_agreement():
    rng = random.Random(10)
    for _ in range(1000):
        p = sample_protocol(rng, SearchBounds(3, 2, 2))
        all_runs = list(runs(p))
        f = random_formula(rng, range(3), ("p", "q"), 3)
        channels = sorted(scope(f).indices)
        groups = {}
        for r in all_runs:
            groups.setdefault(tuple(r[k] for k in channels), []).append(r)
        group = max(groups.values(), key=len)
        r1 = group[0]
        r2 = group[rng.randrange(len(group))]
        ctx = EvalContext(p)
        assert evaluate(ctx, r1, f) == evaluate(ctx, r2, f)


def test_s5_frame_properties():
    rng = random.Random(11)
    for _ in range(300):
        p = sample_protocol(rng, SearchBounds(3, 2, 1))
        all_runs = list(runs(p))
        r = all_runs[rng.randrange(len(all_runs))]
        k = rng.randrange(3)
        body = random_formula(rng, range(3), ("p",), 2)
        boxed = Box(k, body)
        ctx = EvalContext(p)
        if evaluate(ctx, r, boxed):
            assert evaluate(ctx, r, body)
            assert evaluate(ctx, r, Box(k, boxed))
        else:
            assert evaluate(ctx, r, Box(k, neg(boxed)))


def test_necessitation_on_suite_valid_formulas():
    rng = random.Random(12)
    suite = [sample_protocol(rng, SearchBounds(3, 2, 1)) for _ in range(60)]
    for text in ("[0]p@2 -> [1]p@2", "p@1 -> (p@2 -> p@1)", "true"):
        f = parse(text)
        assert all(valid_in(EvalContext(p), f) for p in suite)
        for k in range(3):
            boxed = Box(k, f)
            assert all(valid_in(EvalContext(p), boxed) for p in suite)


def test_eq1_instance_valid_on_sampled_suite():
    rng = random.Random(13)
    f = parse("[0]p@2 -> [1]p@2")
    for _ in range(200):
        p = sample_protocol(rng, SearchBounds(3, 2, 1))
        assert valid_in(EvalContext(p), f)


# --- the chain walk against the enumeration oracle ---------------------------

def _oracle_formula(rng, window, names, depth):
    """Random core formula whose atoms sit in the window and whose boxes may
    also sit one channel outside it on either side."""
    lo, hi = window
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        if rng.random() < 0.15:
            return Bottom()
        return Atom(rng.randint(lo, hi), rng.choice(names))
    if roll < 0.65:
        return Implies(
            _oracle_formula(rng, window, names, depth - 1),
            _oracle_formula(rng, window, names, depth - 1),
        )
    return Box(rng.randint(lo - 1, hi + 1), _oracle_formula(rng, window, names, depth - 1))


def _wide_formula(rng, window, names):
    """A box body with more skeleton literals than a truth table may have,
    which the walk must still decide."""
    lo, hi = window
    lits = {}
    while len(lits) <= DEFAULT_VARIABLE_LIMIT:
        a = Atom(rng.randint(lo, hi), rng.choice(names))
        b = Atom(rng.randint(lo, hi), rng.choice(names))
        lit = a if rng.random() < 0.5 else Box(rng.randint(lo - 1, hi + 1), Implies(a, b))
        lits[lit] = None
    f = Bottom()
    for lit in lits:
        f = Implies(neg(f), lit) if rng.random() < 0.5 else neg(Implies(f, neg(lit)))
    return Box(rng.randint(lo - 1, hi + 1), f)


@pytest.mark.parametrize(
    "bounds, pairs", [(SearchBounds(3, 2, 2), 700), (SearchBounds(4, 2, 1), 400)]
)
def test_walk_matches_enumeration_oracle(bounds, pairs):
    rng = random.Random(20 + bounds.num_channels)
    refuted = 0
    for i in range(pairs):
        p = sample_protocol(rng, bounds)
        names = bounds.atom_names
        if i % 10 == 0:
            f = _wide_formula(rng, p.window, names)
        elif i % 10 < 4:
            # Whether a run falsifies an equivalence depends on channels on
            # both sides of the one in the middle, so the walk state matters.
            f = iff(*(_oracle_formula(rng, p.window, names, 2) for _ in range(2)))
            f = Box(rng.randint(p.window[0] - 1, p.window[1] + 1), f) if i % 10 == 3 else f
        else:
            f = _oracle_formula(rng, p.window, names, rng.randint(1, 5))
        ctx = EvalContext(p)
        memo = {} if i % 3 != 0 else None
        for r in runs(p):
            assert evaluate(ctx, r, f) == enum_evaluate(p, r, f, memo), (r, f)
        expected = enum_counterexample(p, f, memo)
        assert counterexample(ctx, f) == expected, f
        assert valid_in(ctx, f) == (expected is None)
        refuted += expected is not None
    # Both verdicts occur often enough for the comparison to mean something.
    assert pairs // 5 < refuted < pairs - pairs // 5


@pytest.mark.parametrize("bounds, pairs", [(SearchBounds(3, 2, 2), 400)])
def test_box_prefixed_formulas_match_oracle(bounds, pairs):
    # counterexample settles a formula under leading boxes by one walk of
    # its body first; the verdict and the witness must not change.
    rng = random.Random(41)
    refuted = 0
    for i in range(pairs):
        p = sample_protocol(rng, bounds)
        lo, hi = p.window
        f = _oracle_formula(rng, p.window, bounds.atom_names, rng.randint(0, 3))
        for _ in range(1 + i % 3):
            f = Box(rng.randint(lo - 1, hi + 1), f)
        ctx = EvalContext(p)
        expected = enum_counterexample(p, f, {} if i % 2 == 0 else None)
        assert counterexample(ctx, f) == expected, f
        assert valid_in(ctx, f) == (expected is None)
        refuted += expected is not None
    assert pairs // 5 < refuted < pairs - pairs // 5


def test_transition_table_is_invisible():
    # falsify checks one formula object on many protocols, so its compiled
    # plans, and the transitions they remember, outlive every protocol.
    # Pinned walks (evaluate at each run) and unpinned ones (counterexample,
    # out-of-window boxes) take turns filling the same tables.
    rng = random.Random(43)
    texts = (
        "[0](p@1 -> [2]q@2) -> <1>(p@0 | q@2)",
        "[1]((p@0 -> q@2) & (q@2 -> p@0)) | [2](q@1 -> p@0)",
        # A pinned walk of this body starts at channel 1, an unpinned one
        # at 0, from the same start state.
        "[1](p@0 -> q@1)",
        "[3](p@0 -> [1]q@2) | [-1]!(q@1 & p@2)",
        # Bodies whose plans start False, with and without literals.
        "[1]!(p@0 -> true) | [2]false | q@1",
        "!(q@2 | true)",
    )
    formulas = [parse(t) for t in texts]
    formulas += [_oracle_formula(rng, (0, 2), ("p", "q"), 4) for _ in range(5)]
    assert semantics._compile(formulas[5]).start is False
    plans = [semantics._compile(f) for f in formulas]
    refuted = 0
    for i in range(200):
        p = sample_protocol(rng, SearchBounds(3, 2, 2))
        ctx, memo = EvalContext(p), {}
        for f in formulas:
            expected = enum_counterexample(p, f, memo)
            if i % 2:
                assert counterexample(ctx, f) == expected, f
            for r in runs(p):
                assert evaluate(ctx, r, f) == enum_evaluate(p, r, f, memo), (r, f)
            if not i % 2:
                assert counterexample(ctx, f) == expected, f
            refuted += expected is not None
    assert [semantics._compile(f) for f in formulas] == plans
    pairs = 200 * len(formulas)
    assert pairs // 5 < refuted < pairs - pairs // 5


def test_walk_simplifies_once_per_column(monkeypatch):
    # [0]!eq_zzzz@2 at aaaa: the walk visits the 101 words at channel 1, but
    # at channel 2 only zzzz could falsify the body and no run through aaaa
    # reaches it, so the walk visits no word there and steps once, on the
    # all-false column: the residual is simplified a handful of times, not
    # once per word.
    calls = []

    def counting(name):
        real = getattr(semantics, name)

        def counted(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(semantics, name, counted)

    counting("_partial")
    counting("_first_falsifying")
    t = telephone(4, "abcdefghijklmnopqrstuvwxyz", 3)
    assert evaluate(EvalContext(t), ("aaaa",) * 3, parse("[0]!eq_zzzz@2"))
    assert calls.count("_first_falsifying") == 1
    assert calls.count("_partial") <= 5


def test_evaluate_decides_atoms_through_column(monkeypatch):
    # _column is the one place a literal is decided: evaluate sends a
    # top-level atom there as it does a box.
    lits = []
    real = semantics._column

    def counted(ctx, group, k, v):
        lits.extend(group)
        return real(ctx, group, k, v)

    monkeypatch.setattr(semantics, "_column", counted)
    f = parse("eq_aaa@0 -> [1]eq_aaa@0")
    assert evaluate(EvalContext(small_telephone()), ("aaa", "aab", "abb"), f) is False
    assert lits[:2] == [f.lhs, f.rhs]


# --- values an atoms-only channel cannot falsify are skipped -----------------

def _sparse_formula(rng, atom_channels, box_channels, names, depth):
    """Random formula in which many channels hold atoms only and a value
    where they are all false settles what is left (negated conjunctions,
    implications, disjunctions), with boxes inside and around, some on the
    same channel as an atom and some outside the window."""
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        return Atom(rng.choice(atom_channels), rng.choice(names))
    a = _sparse_formula(rng, atom_channels, box_channels, names, depth - 1)
    if roll < 0.8:
        b = _sparse_formula(rng, atom_channels, box_channels, names, depth - 1)
        return neg(conj(a, b)) if roll < 0.55 else Implies(a, b) if roll < 0.7 else disj(a, b)
    return Box(rng.choice(box_channels), neg(a) if rng.random() < 0.5 else a)


def _sparse_protocol(rng, channels):
    """An explicit protocol over four values a channel whose atoms are true
    at none, one or two of them."""
    vals = ("a", "b", "c", "d")
    return make_protocol(
        (0, channels - 1),
        {k: vals for k in range(channels)},
        {
            k: [(u, w) for u in vals for w in vals if rng.random() < 0.6]
            for k in range(1, channels)
        },
        {
            k: {name: rng.sample(vals, rng.randint(0, 2)) for name in ("p", "q")}
            for k in range(channels)
        },
    )


def _sparse_family(rng, atom_channels, box_channels, names, count):
    """Hand-made shapes that tell the skip's conditions apart, then random
    ones. With atoms x, y at channel 1 and z at 2: ``!(x & y)`` and
    ``x -> z`` end a walk at an all-false column; ``x | ![1]!z`` holds a
    box beside the atom and is false at values where only the box holds;
    ``x | z`` does not end there."""
    x, y, z = (
        Atom(atom_channels[1], names[0]),
        Atom(atom_channels[1], names[1]),
        Atom(atom_channels[2], names[-1]),
    )
    lo = atom_channels[0]
    formulas = [
        Box(lo, neg(conj(x, y))),
        Box(lo, Implies(x, z)),
        neg(conj(Atom(lo, names[0]), z)),
        disj(x, neg(Box(x.channel, neg(z)))),
        Box(lo, disj(x, neg(Box(x.channel, neg(z))))),
        disj(x, z),
        Box(box_channels[-1], neg(conj(x, z))),
        Box(box_channels[0], Implies(z, Box(lo, neg(x)))),
    ]
    while len(formulas) < count:
        formulas.append(_sparse_formula(rng, atom_channels, box_channels, names, rng.randint(2, 4)))
    return formulas


def _match_oracle(rng, p, formulas, run_sample):
    """Check every formula on p against the enumeration oracle, on up to
    ``run_sample`` runs; the number of formulas refuted."""
    ctx, memo = EvalContext(p), {}
    all_runs = list(runs(p))
    sample = all_runs if len(all_runs) <= run_sample else rng.sample(all_runs, run_sample)
    refuted = 0
    for f in formulas:
        expected = enum_counterexample(p, f, memo)
        assert counterexample(ctx, f) == expected, f
        assert valid_in(ctx, f) == (expected is None), f
        for r in sample:
            assert evaluate(ctx, r, f) == enum_evaluate(p, r, f, memo), (r, f)
        refuted += expected is not None
    return refuted


def test_sparse_channel_skip_matches_oracle():
    # Each formula object is checked on every protocol of its family in
    # turn, so its plan outlives the protocols: a truth set kept on the
    # plan would filter one protocol's values by another's atoms.
    rng = random.Random(47)
    words = ["".join(w) for w in itertools.product("abc", repeat=2)]
    families = [
        (
            [telephone(2, "abc", n) for n in (3, 4, 5)],
            _sparse_family(rng, (0, 1, 2), (-1, 0, 1, 3, 5), [f"eq_{w}" for w in words], 14),
            40,
        ),
        (
            [telephone(3, "ab", 4)],
            _sparse_family(rng, (0, 1, 2, 3), (-1, 0, 2, 4), ["eq_aab", "eq_aba", "eq_bbb"], 14),
            60,
        ),
        (
            [_sparse_protocol(rng, 3 + i % 2) for i in range(24)],
            _sparse_family(rng, (0, 1, 2), (-1, 0, 1, 2, 3, 4), ["p", "q"], 16),
            30,
        ),
    ]
    for protocols, formulas, run_sample in families:
        refuted = sum(_match_oracle(rng, p, formulas, run_sample) for p in protocols)
        pairs = len(protocols) * len(formulas)
        assert pairs // 6 < refuted < pairs - pairs // 6


def test_sparse_channels_are_not_walked(monkeypatch):
    # Only the word w can make !eq_w@2 false, so no other word at channel 2
    # is visited: no step per (channel-1 word, channel-2 word) pair.
    calls = []
    real = semantics._step

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(semantics, "_step", counted)
    latin = "abcdefghijklmnopqrstuvwxyz"
    t = telephone(4, latin, 3)
    assert evaluate(EvalContext(t), ("aaaa",) * 3, parse("[0]!eq_zzzz@2"))
    assert len(calls) <= 5
    calls.clear()
    t = telephone(3, latin, 3)
    assert counterexample(EvalContext(t), parse("[0]!(eq_aaa@2 & eq_zzz@1)")) is None
    assert len(calls) <= 100


def test_filtered_channels_below_the_pin_match_oracle():
    # A box pinned at a high channel walks down to lo first, so the channels
    # it filters there are reached through predecessors.
    rng = random.Random(59)
    words = ["".join(w) for w in itertools.product("abc", repeat=2)]
    eq = [f"eq_{w}" for w in words]
    telephone_formulas = [
        parse(text)
        for text in (
            "[2]!eq_cb@0",
            "[2]!(eq_aa@0 & eq_cc@1)",
            "[3]!eq_bc@1",
            "[3]!(eq_ab@0 & eq_ba@2)",
            "[2](eq_ab@1 -> !eq_ca@0)",
            "[1]!eq_aa@0 | [2][0]!eq_bb@1",
        )
    ]
    telephone_formulas += [
        Box(rng.choice((2, 3)), _sparse_formula(rng, (0, 1, 2), (0, 1, 2), eq, rng.randint(2, 4)))
        for _ in range(8)
    ]
    explicit_formulas = [
        parse(text)
        for text in (
            "[2]!p@0",
            "[2]!(p@0 & q@0)",
            "[2]!(p@0 & q@1)",
            "[2](q@1 -> !p@0)",
            "[1]!q@0 | [2]!(p@1 & q@0)",
        )
    ]
    explicit_formulas += [
        Box(2, _sparse_formula(rng, (0, 1, 2), (0, 1, 2), ["p", "q"], rng.randint(2, 4)))
        for _ in range(9)
    ]
    families = [
        ([telephone(2, "abc", 3), telephone(2, "abc", 4)], telephone_formulas, 40),
        ([_sparse_protocol(rng, 3 + i % 2) for i in range(24)], explicit_formulas, 30),
    ]
    for protocols, formulas, run_sample in families:
        refuted = sum(_match_oracle(rng, p, formulas, run_sample) for p in protocols)
        pairs = len(protocols) * len(formulas)
        assert pairs // 8 < refuted < pairs - pairs // 8


class _DrawnTelephone(TelephoneProtocol):
    """A telephone whose every atom holds on the drawn set ``truth``, which
    may hold non-words, as no declared atom can."""

    truth = frozenset()

    def atom_values(self, k, name):
        return self.truth


def _walk_candidates(p, plan, x):
    """The values the walk visits at channel 1 of the telephone p from the
    start state of ``plan``, next to x, got as ``_first_falsifying`` gets
    them."""
    return list(semantics._candidates(p, plan, plan.start, 1, x))


def test_filtered_candidates_are_the_filtered_neighbours(monkeypatch):
    # Where the walk tests the truth set T for adjacency or membership (the
    # telephone's neighbours and the words it starts from), it visits the
    # values that filtering the listed candidates by T would keep, in the
    # same order, in both directions, for any T. p@1 is the control: its
    # all-false column is False, so channel 1 is never filtered for it.
    # At the first channel, the walk of !p@0 starts from every word of T:
    # p holds at no word, so each start is visited and dropped. The walk
    # of p@0 is the control: it lists channel 0 and stops at its first run.
    rng = random.Random(61)
    filtered, open_ = parse("!p@1"), parse("p@1")
    at_first = {filtered: parse("!p@0"), open_: parse("p@0")}
    visited = []
    real_column = semantics._column

    def column(ctx, lits, k, v):
        visited.append((k, v))
        return real_column(ctx, lits, k, v)

    monkeypatch.setattr(semantics, "_column", column)
    cases = []
    for word_len, alphabet in ((1, "abc"), (2, "abc"), (3, "ab"), (2, "bdz"), (3, "abc")):
        p = _DrawnTelephone(word_len, tuple(alphabet), 3)
        words = list(p.iter_values(1))
        outside = ["", "a" * (word_len + 1), "#" * word_len, "y" + words[0][1:]]
        cases.append((p, words + outside))
    # The walk visits an explicit protocol's stored neighbour tuples as they
    # stand: they are in value order, whatever order the pairs came in.
    vals = ("a", "b", "c", "d")
    for _ in range(30):
        pairs = [(u, w) for u in vals + ("x",) for w in vals + ("y",) if rng.random() < 0.5]
        rng.shuffle(pairs)
        p = make_protocol(
            (0, 2),
            {k: rng.sample(vals, rng.randint(1, 4)) for k in range(3)},
            {1: pairs, 2: pairs[::-1]},
        )
        for k in (1, 2):
            local = p.local(k)
            for u in vals + ("x",):
                assert list(local.successors(u)) == sorted(w for x, w in local.pairs if x == u)
            for w in vals + ("y",):
                assert list(local.predecessors(w)) == sorted(x for x, y in local.pairs if y == w)
    checked = 0
    for p, pool in cases:
        for _ in range(12):
            truth = p.truth = frozenset(rng.sample(pool, rng.choice((0, 1, 1, 2, 3, len(pool) // 2))))
            for f in (filtered, open_):
                plan = semantics._compile(f)
                keep = truth if f is filtered else None

                def expected(values):
                    return [c for c in values if keep is None or c in keep]

                visited.clear()
                first = semantics._compile(at_first[f])
                semantics._first_falsifying(EvalContext(p), first, None)
                got = [v for k, v in visited if k == 0]
                words = expected(p.iter_values(0))
                assert got == (words if f is filtered else words[:1]), (truth, f)
                for x in p.iter_values(0):
                    got = _walk_candidates(p, plan, x)
                    assert got == expected(p.local(1).successors(x)), (x, truth, f)
                for x in p.iter_values(2):
                    got = _walk_candidates(p, plan, x)
                    assert got == expected(p.local(2).predecessors(x)), (x, truth, f)
                    checked += 1
    assert checked > 1_000


def test_filtered_telephone_channels_build_no_neighbours(monkeypatch):
    # On a filtered telephone channel the walk tests the one word in T for
    # adjacency instead of listing the 1 + w·25 neighbours of a word, and an
    # unpinned walk filtered at its first channel lists no words there.
    calls = []

    def counting(cls, name, label):
        real = getattr(cls, name)

        def counted(*args):
            calls.append(label)
            return real(*args)

        monkeypatch.setattr(cls, name, counted)

    counting(TelephoneProtocol, "successors", "neighbours")
    counting(TelephoneProtocol, "predecessors", "neighbours")
    counting(TelephoneProtocol, "iter_values", "iter_values")
    latin = "abcdefghijklmnopqrstuvwxyz"
    t = telephone(3, latin, 3)
    assert valid_in(EvalContext(t), parse("[0]!(eq_aaa@2 & eq_zzz@1)"))
    assert calls.count("neighbours") == 0
    calls.clear()
    t = telephone(4, latin, 3)
    assert evaluate(EvalContext(t), ("aaaa",) * 3, parse("[0]!eq_zzzz@2"))
    assert calls.count("neighbours") <= 1
    calls.clear()
    assert counterexample(EvalContext(t), parse("!eq_zzzz@0")) == ("zzzz", "azzz", "aazz")
    assert "iter_values" not in calls


def test_telephone_walks_keep_no_per_word_memory():
    # The walk lists each word's 28 neighbours as it meets the word and
    # keeps none of them once the call is done, so memory stays flat.
    t = telephone(3, "abcdefghij", 4)
    ctx = EvalContext(t)
    f = parse("[0]!(eq_aaa@3 & eq_jjj@2)")
    tracemalloc.start()
    try:
        assert valid_in(ctx, f)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 512 * 1024


def test_box_prefix_does_not_skip_leaf_checks():
    t = telephone(1, "ab", 3)
    with pytest.raises(UndeclaredAtomError):
        counterexample(EvalContext(t), parse("[0][1](true | eq_zz@0)"))
    with pytest.raises(StrictWindowError):
        valid_in(EvalContext(t, strict_window=True), parse("[0][9]true"))
    assert valid_in(EvalContext(t), parse("[0][9]true"))


def test_valid_scales_past_enumeration():
    # 27 words and 7 neighbours per channel: about 10^33 runs on 40 channels.
    t = telephone(3, "abc", 40)
    ctx = EvalContext(t)
    # Words three letters apart never sit on adjacent channels (gap rule).
    assert valid_in(ctx, parse("[0]!(eq_ccc@39 & eq_aaa@38)"))
    # Three letters over 39 hops is allowed; the first run stays on aaa as
    # long as the remaining hops still reach ccc.
    witness = counterexample(ctx, parse("!(eq_aaa@0 & eq_ccc@39)"))
    assert witness == ("aaa",) * 37 + ("aac", "acc", "ccc")


# --- validity from the most selective telephone channel ----------------------

def test_valid_probes_the_most_selective_channel(monkeypatch):
    # Only runs through aaa at n-1 or zzz at n-2 can falsify the body, so
    # validity is settled by pinned walks from one of them: no channel is
    # listed and no neighbours are built, however long the literal-free
    # stretch below them.
    calls = []

    def counting(owner, name):
        real = getattr(owner, name)

        def counted(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(owner, name, counted)

    counting(TelephoneProtocol, "successors")
    counting(TelephoneProtocol, "predecessors")
    counting(TelephoneProtocol, "iter_values")
    counting(semantics, "_step")
    latin = "abcdefghijklmnopqrstuvwxyz"
    assert valid_in(EvalContext(telephone(3, latin, 4)), parse("[0]!(eq_aaa@3 & eq_zzz@2)"))
    assert calls.count("_step") <= 36
    assert set(calls) <= {"_step"}
    for n in (4, 5, 6):
        calls.clear()
        f = parse(f"[0]!(eq_aaa@{n - 1} & eq_ccc@{n - 2})")
        assert valid_in(EvalContext(telephone(3, "abc", n)), f)
        assert set(calls) <= {"_step"}, n


def test_one_walk_finds_the_witness_from_a_filtered_first_channel(monkeypatch):
    # A first channel that is already filtered is where the walk starts:
    # one walk finds the witness, and no channel's values are listed.
    # Otherwise the body under the leading box is asked whether any run
    # falsifies it, then the formula is walked in order for its first run.
    calls = []
    real = semantics._first_falsifying

    def counted(ctx, plan, pin, ordered=False):
        calls.append((pin, ordered))
        return real(ctx, plan, pin, ordered)

    def listed(self, k):
        calls.append(("iter_values", k))
        return real_values(self, k)

    real_values = TelephoneProtocol.iter_values
    monkeypatch.setattr(semantics, "_first_falsifying", counted)
    monkeypatch.setattr(TelephoneProtocol, "iter_values", listed)
    latin = "abcdefghijklmnopqrstuvwxyz"
    ctx = EvalContext(telephone(3, latin, 4))
    assert counterexample(ctx, parse("!(eq_aaa@3 & eq_zzz@0)")) == ("zzz", "azz", "aaz", "aaa")
    assert calls == [(None, True)]
    calls.clear()
    assert counterexample(ctx, parse("[0]!(eq_aaa@3 & eq_aab@2)")) == ("aaa",) * 4
    # The any-run walk of the body starts at (3, aaa); the ordered walk of
    # the formula lists channel 0, and the box at its first word is a walk
    # pinned there.
    assert calls == [(None, False), (None, True), ("iter_values", 0), ((0, "aaa"), False)]


def test_the_first_channel_is_decided_once(monkeypatch):
    # The walk decides whether channel 0 is filtered where it picks its
    # start, and nowhere else.
    decided = []
    real = semantics._filter_set

    def counted(p, plan, state, j):
        decided.append(j)
        return real(p, plan, state, j)

    monkeypatch.setattr(semantics, "_filter_set", counted)
    ctx = EvalContext(telephone(3, "abcdefghijklmnopqrstuvwxyz", 4))
    assert counterexample(ctx, parse("!(eq_aaa@3 & eq_zzz@0)")) == ("zzz", "azz", "aaz", "aaa")
    assert decided.count(0) == 1


def test_out_of_window_leading_box_walks_its_body_once(monkeypatch):
    # The body's verdict under an out-of-window leading box is recorded as
    # the box's, so the ordered walk's fold of the box hits the memo; a
    # second leading box adds one walk, for its own body.
    calls = []
    real = semantics._first_falsifying

    def counted(ctx, plan, pin, ordered=False):
        calls.append((pin, ordered))
        return real(ctx, plan, pin, ordered)

    monkeypatch.setattr(semantics, "_first_falsifying", counted)
    t = telephone(3, "abcdefghijklmnopqrstuvwxyz", 4)
    for text, walks, witness in [
        ("[9]!(eq_aaa@3 & eq_aab@2)", 2, ("aaa",) * 4),
        ("[9][8]!(eq_aaa@3 & eq_aab@2)", 3, ("aaa",) * 4),
        ("[9]!(eq_aaa@3 & eq_zzz@2)", 1, None),
    ]:
        calls.clear()
        assert counterexample(EvalContext(t), parse(text)) == witness, text
        assert len(calls) == walks, (text, calls)


class _PaddedTelephone(TelephoneProtocol):
    """A telephone whose atom eq_w also holds at two strings that are no
    word: one with a letter outside the alphabet and one a letter longer.
    No run carries them, so every verdict is the plain telephone's; only
    the truth sets name them."""

    def atom_holds(self, k, name, value):
        return value in self.atom_values(k, name)

    def atom_values(self, k, name):
        w = name[3:]
        return frozenset((w, "z" + w[1:], w + "a"))


def _probe_formula(rng, n, words):
    """A formula whose literals sit on a few channels high in the window
    [0, n-1]: atoms-only channels that a false column settles (negated
    conjunctions of disjunctions, the lhs of an implication), some with
    several atoms, and beside them box literals, boxes out of the window,
    and atoms-only channels whose false column settles nothing."""
    low = rng.randint(1, n - 1)
    channels = [low] if low == n - 1 or rng.random() < 0.3 else [low + 1, low]
    # Words two letters apart never sit on adjacent channels, so a negated
    # conjunction of such groups is often valid.
    drawn = rng.sample(words, rng.choice((1, 1, 2, 3)))
    far = [w for w in words if all(sum(x != y for x, y in zip(w, u)) > 1 for u in drawn)]

    def group(j, pool=words):
        g = Atom(j, "eq_" + rng.choice(pool))
        for _ in range(rng.choice((0, 0, 1, 2))):
            g = disj(g, Atom(j, "eq_" + rng.choice(pool)))
        return g

    def side():
        roll = rng.random()
        if roll < 0.4:
            return Atom(rng.randint(0, n - 1), "eq_" + rng.choice(words))
        body = neg(conj(group(rng.randint(0, n - 1)), group(rng.randint(0, n - 1))))
        return Box(rng.choice((-1, 0, n - 1, n, n + 2)), body if roll < 0.8 else neg(body))

    # One word never sits on a channel together with another.
    second = far if len(channels) > 1 else [w for w in words if w not in drawn]
    if not second or rng.random() < 0.2:
        second = words
    groups = [group(channels[0], drawn), group(channels[-1], second)]
    roll = rng.random()
    if roll < 0.55:
        core = neg(conj(*groups))
    elif roll < 0.7:
        core = Implies(groups[0], side())
    elif roll < 0.85:
        core = disj(*groups)
    else:
        core = neg(conj(groups[0], side()))
    roll = rng.random()
    if roll < 0.25:
        core = disj(core, side())
    elif roll < 0.4:
        core = conj(side(), core)
    if rng.random() < 0.4:
        core = Box(rng.choice((-1, 0, 1, n - 1, n)), core)
    return core


def _starts_above_lo(monkeypatch, ctx, plan):
    """Whether some run falsifies ``plan``, asked of the walk directly, and
    whether that walk starts above the first channel lo: it then neither
    lists lo's values nor tests words there. Nested walks do not count."""
    p = ctx.protocol
    lo = p.window[0]
    depth, at_lo = [0], []
    real = semantics._first_falsifying

    def walk(*args):
        depth[0] += 1
        try:
            return real(*args)
        finally:
            depth[0] -= 1

    def spy(name):
        method = getattr(p, name)

        def spied(k, *rest):
            if depth[0] == 1 and k == lo:
                at_lo.append(name)
            return method(k, *rest)

        monkeypatch.setattr(p, name, spied)

    monkeypatch.setattr(semantics, "_first_falsifying", walk)
    spy("iter_values")
    spy("has_value")
    refuted = walk(ctx, plan, None) is not None
    monkeypatch.undo()
    return refuted, not at_lo


def test_validity_from_the_selective_channel_matches_oracle(monkeypatch):
    # The walk starts only from words: the padded truth sets hold strings
    # that are no value of the channel. The witness must be the first run,
    # and the walk that asks whether any run falsifies the body must give
    # the oracle's verdict wherever it starts. The first three shapes are
    # settled only once the out-of-window box is read: before that, no
    # channel's false column takes them to True, but then a channel above
    # the first is filtered. The fourth has atoms-only channels that no
    # false column settles, so its walk starts from the first channel.
    rng = random.Random(67)
    families = []
    for word_len, alphabet, ns, count in ((2, "abc", (3, 4, 5), 18), (3, "ab", (4,), 24)):
        words = ["".join(w) for w in itertools.product(alphabet, repeat=word_len)]
        a, b = words[0], words[-1]
        for n in ns:
            hand = [
                conj(Box(n, disj(Atom(1, f"eq_{a}"), neg(Atom(1, f"eq_{a}")))),
                     neg(conj(Atom(n - 1, f"eq_{a}"), Atom(n - 2, f"eq_{b}")))),
                conj(Box(-1, neg(conj(Atom(2, f"eq_{a}"), Atom(1, f"eq_{b}")))),
                     neg(Atom(n - 1, f"eq_{b}"))),
                Box(0, conj(Box(n, neg(conj(Atom(n - 1, f"eq_{a}"), Atom(n - 2, f"eq_{b}")))),
                            neg(Atom(n - 1, f"eq_{a}")))),
                Box(0, disj(Atom(n - 1, f"eq_{a}"), Atom(n - 2, f"eq_{b}"))),
            ]
            formulas = hand + [_probe_formula(rng, n, words) for _ in range(count)]
            families.append((_PaddedTelephone(word_len, tuple(alphabet), n), formulas, len(hand)))
    refuted = decided = pairs = 0
    for p, formulas, hand in families:
        ctx, memo = EvalContext(p), {}
        all_runs = list(runs(p))
        sample = rng.sample(all_runs, 12)
        for i, f in enumerate(formulas):
            expected = enum_counterexample(p, f, memo)
            assert counterexample(ctx, f) == expected, f
            assert valid_in(ctx, f) == (expected is None), f
            for r in sample:
                assert evaluate(ctx, r, f) == enum_evaluate(p, r, f, memo), (r, f)
            body = f
            while type(body) is Box:
                body = body.body
            found, above = _starts_above_lo(monkeypatch, ctx, semantics._compile(body))
            assert found == (expected is not None), f
            if i < hand:
                assert above == (i < hand - 1), f
            refuted += expected is not None
            decided += above
            pairs += 1
    assert pairs // 5 < refuted < pairs - pairs // 5, refuted
    assert decided > pairs // 3, decided


class _TableTelephone(TelephoneProtocol):
    """A telephone whose atoms are the names in ``truth``, each true at the
    words of its set, so one atom may hold at several words."""

    truth: dict = {}

    def atom_declared(self, k, name):
        return name in self.truth

    def atom_holds(self, k, name, value):
        return value in self.truth[name]

    def atom_values(self, k, name):
        return self.truth[name]


def _multi_start_instance(rng, word_len, alphabet, n):
    """A protocol and a formula whose walk starts from the 2-3 words of
    atom s at a channel k at least two above the first. Below k there is
    no literal or a filtered channel with at least as many words; above
    it, a box or a negated atom (so no filtered channel) is true only at
    the one word of x. So every start leads to the same state, and the
    walks down from two starts meet the same (channel, value, state)."""
    p = _TableTelephone(word_len, alphabet, n)
    words = list(p.iter_values(0))
    starts = sorted(rng.sample(words, rng.choice((2, 3))))

    def near(w, u):
        return sum(a != b for a, b in zip(w, u)) <= 1

    # A word next to no start makes the formula valid; one next to a later
    # start but not the first is where a dead set shared by the starts
    # would hide the run.
    pool = rng.choice((
        words,
        [w for w in words if not near(w, starts[0])],
        [w for w in words if not any(near(w, u) for u in starts)],
    )) or words
    x = rng.choice(pool)
    below = rng.sample(words, rng.randint(len(starts), len(words)))
    p.truth = {"s": frozenset(starts), "x": frozenset((x,)),
               "y": frozenset(words) - {x}, "b": frozenset(below)}
    k = rng.randint(2, n - 2)
    above = Box(k + 1, Atom(k + 1, "x")) if rng.random() < 0.6 else neg(Atom(k + 1, "y"))
    parts = [Atom(k, "s"), above]
    if rng.random() < 0.4:
        parts.append(Atom(rng.randint(0, k - 1), "b"))
    rng.shuffle(parts)
    core = neg(conj(parts[0], conj(parts[1], parts[2]) if len(parts) == 3 else parts[1]))
    roll = rng.random()
    if roll < 0.25:
        core = Box(rng.choice((-1, n)), core)
    elif roll < 0.5:
        core = Box(rng.randint(0, n - 1), core)
    elif roll < 0.6:
        core = Implies(Atom(rng.randint(0, n - 1), "b"), Box(n + 1, core))
    return p, core


def test_walks_from_several_starts_match_oracle():
    # The walk from the words of T at k goes down to lo before it goes up,
    # so a dead (channel, value, state) on the way down held no falsifying
    # run only for the start it came from: each start needs its own dead
    # set. Two-letter words over "ab" share most neighbours, so the walks
    # down from two starts meet often; the longer words and the larger
    # alphabet leave room for valid formulas.
    rng = random.Random(83)
    checked = refuted = 0
    for word_len, alphabet, n, count in ((2, "ab", 6, 30), (3, "ab", 5, 40), (2, "abc", 5, 30)):
        sample = rng.sample(list(runs(telephone(word_len, alphabet, n))), 10)
        for _ in range(count):
            p, f = _multi_start_instance(rng, word_len, alphabet, n)
            ctx = EvalContext(p)
            memo = {}
            expected = enum_counterexample(p, f, memo)
            assert counterexample(ctx, f) == expected, f
            assert valid_in(ctx, f) == (expected is None), f
            for r in sample:
                assert evaluate(ctx, r, f) == enum_evaluate(p, r, f, memo), (r, f)
            refuted += expected is not None
            checked += 1
    assert checked // 5 < refuted < checked - checked // 5, refuted


def test_distant_eq_atoms_match_oracle():
    # Two words can sit on runs at channels g apart only if they differ in
    # at most g letters. Each pair of eq atoms is on that boundary: its
    # words differ in one letter more than its channels are apart, which
    # makes !(eq_u@i & eq_w@j) valid, or in exactly as many, which leaves it
    # refuted. Each is checked bare, on the unpinned walk, and under one
    # box at either end, on walks pinned there.
    rng = random.Random(89)
    words = ["".join(w) for w in itertools.product("abc", repeat=2)]
    for n in range(3, 7):
        p = telephone(2, "abc", n)
        ctx = EvalContext(p)
        for gap, apart in ((1, 2), (1, 1), (2, 2)) * 2:
            i = rng.randrange(n - gap)
            u = rng.choice(words)
            w = rng.choice([x for x in words if sum(a != b for a, b in zip(u, x)) == apart])
            body = parse(f"!(eq_{u}@{i} & eq_{w}@{i + gap})")
            for f in (body, Box(i, body), Box(i + gap, body)):
                expected = enum_counterexample(p, f, {})
                assert (expected is None) == (apart > gap), f
                assert counterexample(ctx, f) == expected, f
                assert valid_in(ctx, f) == (expected is None), f


def test_nested_out_of_window_boxes_fit_the_recursion_limit():
    # A nested box outside the window is a probe or a walk and a column,
    # two frames, like one inside it: 400 fit the default recursion limit.
    t = telephone(1, "ab", 2)
    for body, expected in ((Atom(1, "eq_a"), False), (neg(conj(Atom(1, "eq_a"), Atom(1, "eq_b"))), True)):
        f = body
        for _ in range(400):
            f = Box(5, f)
        assert evaluate(EvalContext(t), ("a", "a"), f) is expected
