import collections
import hashlib
import itertools
import json
import random
import re

import pytest

from chainlogic import (
    Atom,
    Bottom,
    Box,
    EvalContext,
    ExhaustiveMode,
    ExplicitChainProtocol,
    Implies,
    RandomMode,
    SearchBounds,
    SearchSpaceError,
    candidate_count,
    channel_support,
    check_script,
    counterexample,
    corpus,
    disj,
    display_gateway_family,
    embed_formula,
    enumerate_protocols,
    evaluate,
    falsify,
    instantiate_axiom,
    is_run,
    parse,
    proofcheck,
    protocol,
    protocol_from_dict,
    protocol_to_dict,
    random_formula,
    render,
    runs,
    sample_protocol,
    search,
    semantics,
    soundness_sweep,
    telephone,
    valid_in,
)

from chainlogic.formula import _flatten, _leaves

from conftest import (
    candidate_key,
    enum_counterexample,
    exhaustive_suite,
    reference_candidate_count,
    reference_candidates,
    reference_equivalent_keys,
)


def test_bounds_validation():
    with pytest.raises(SearchSpaceError):
        SearchBounds(0, 2)
    with pytest.raises(SearchSpaceError):
        SearchBounds(2, 0)
    with pytest.raises(SearchSpaceError):
        SearchBounds(2, 2, atoms_per_channel=-1)


def test_negative_samples_and_trials_are_refused():
    with pytest.raises(SearchSpaceError, match="samples"):
        SearchBounds(1, 2, mode=RandomMode(seed=1, samples=-5))
    assert SearchBounds(1, 2, mode=RandomMode(seed=1, samples=0)).mode.samples == 0
    with pytest.raises(SearchSpaceError, match="trials"):
        soundness_sweep("gateway", SearchBounds(3, 2, 2), -1)
    assert soundness_sweep("gateway", SearchBounds(3, 2, 2), 0).violations == 0


def test_enumerate_smallest_space():
    protocols = exhaustive_suite(2, 1, 0)
    assert len(protocols) == 1
    p = protocols[0]
    assert list(p.values(0)) == ["a"] and list(p.values(1)) == ["a"]
    assert sorted(p.local(1).pairs) == [("a", "a")]


def test_enumerate_canonical_order_is_stable():
    first = [protocol_to_dict(p) for p in enumerate_protocols(SearchBounds(2, 2, 1))]
    second = [protocol_to_dict(p) for p in enumerate_protocols(SearchBounds(2, 2, 1))]
    assert first == second
    sizes = [
        tuple(len(doc["channels"][k]["values"]) for k in range(2)) for doc in first
    ]
    assert sizes == sorted(sizes)


def test_enumerate_random_mode_is_deterministic():
    bounds = SearchBounds(2, 2, 0, mode=RandomMode(seed=42, samples=10))
    a = [protocol_to_dict(p) for p in enumerate_protocols(bounds)]
    b = [protocol_to_dict(p) for p in enumerate_protocols(bounds)]
    assert a == b
    assert len(a) == 10


def test_enumerate_ceiling():
    bounds = SearchBounds(3, 2, 2)
    assert candidate_count(bounds) > bounds.candidate_ceiling
    with pytest.raises(SearchSpaceError):
        next(iter(enumerate_protocols(bounds)))
    relaxed = SearchBounds(3, 2, 2, candidate_ceiling=2 * 10**6)
    assert next(iter(enumerate_protocols(relaxed))) is not None


def test_candidate_count_matches_generation():
    # zero-run candidates are part of the count but not the stream
    bounds = SearchBounds(2, 2, 1)
    generated = len(list(enumerate_protocols(bounds)))
    assert generated <= candidate_count(bounds)
    assert len(exhaustive_suite(2, 2, 0)) == 22


def test_candidate_count_matches_size_vector_sum():
    for channels, max_values, atoms in itertools.product(range(1, 5), range(1, 4), range(3)):
        assert candidate_count(SearchBounds(channels, max_values, atoms)) == (
            reference_candidate_count(channels, max_values, atoms)
        ), (channels, max_values, atoms)


def test_oversized_bounds_are_refused_at_once():
    # 2^40 size vectors, and a count too long to print in decimal; the
    # first channel alone has 2^27 - 2 candidates.
    with pytest.raises(SearchSpaceError, match="over the ceiling of 1000000"):
        falsify(parse("p@0"), SearchBounds(40, 2, 1), budget=1)
    bounds = SearchBounds(40, 26, 1)
    with pytest.raises(SearchSpaceError) as refused:
        falsify(parse("p@0"), bounds, budget=1)
    assert str(refused.value) == (
        "exhaustive space has more than 2^26 candidates, "
        "over the ceiling of 1000000"
    )


def test_refusal_stops_at_the_first_count_over_the_ceiling():
    # The first channel alone passes the ceiling, so no later channel is
    # counted: 400 channels are refused as fast as one.
    with pytest.raises(SearchSpaceError) as refused:
        falsify(parse("p@0"), SearchBounds(400, 26, 1), budget=1)
    assert str(refused.value) == (
        "exhaustive space has more than 2^26 candidates, over the ceiling of 1000000"
    )


@pytest.mark.parametrize("bounds", [(20000, 1, 1), (64, 1, 1), (40, 2, 1)])
def test_refusal_bound_is_below_the_total(bounds):
    # (20000, 1, 1) has exactly 2^20000 candidates, and each running count
    # on one value a channel is a power of two. N is the largest power of
    # two below the first running count over the ceiling.
    bounds = SearchBounds(*bounds)
    with pytest.raises(SearchSpaceError) as refused:
        falsify(parse("p@0"), bounds, budget=1)
    n = int(re.fullmatch(
        r"exhaustive space has more than 2\^(\d+) candidates, over the ceiling of 1000000",
        str(refused.value),
    ).group(1))
    assert 2**n < candidate_count(bounds)
    first = next(c for c in search._running_counts(bounds) if c > bounds.candidate_ceiling)
    assert 2**n < first <= 2 ** (n + 1)


@pytest.mark.parametrize("bounds", [(2, 2, 1), (3, 1, 2), (3, 2, 0), (2, 2, 2), (3, 2, 1)])
def test_enumerate_matches_reference_stream(bounds):
    got = [protocol_to_dict(p) for p in enumerate_protocols(SearchBounds(*bounds))]
    assert got == [protocol_to_dict(p) for p in reference_candidates(*bounds)]


def _reference_falsify(g, bounds, budget):
    """falsify by definition: counterexample on each candidate of the full
    canonical stream, cut at the budget. Also returns the position."""
    stream = itertools.islice(enumerate_protocols(bounds), budget)
    for position, p in enumerate(stream):
        run = counterexample(EvalContext(p), g)
        if run is not None:
            return position, (p, run)
    return None, None


@pytest.mark.parametrize("bounds, cases", [(SearchBounds(2, 2, 2), 60), (SearchBounds(3, 2, 1), 40)])
def test_skip_scan_matches_full_scan(bounds, cases):
    # falsify generates only the truth tables its formula reads; the hit,
    # the protocol's full document and the budget cut must match a scan of
    # every candidate.
    rng = random.Random(5 + bounds.num_channels)
    window = range(bounds.num_channels)
    no_atoms = [parse("[0]false"), parse("false"), parse("[1]false -> <0>true")]
    late_witnesses = 0
    for i in range(cases):
        if i < len(no_atoms):
            f = no_atoms[i]
        else:
            names = bounds.atom_names[: 1 + i % bounds.atoms_per_channel]
            f = random_formula(rng, window, names, rng.randint(1, 3))
        g = embed_formula(f, bounds)
        position, hit = _reference_falsify(g, bounds, 3_000)
        budgets = [rng.randint(1, 3_000)]
        if position is not None:
            # At the witness's own position the scan must stop just short.
            budgets += [position, position + 1]
            late_witnesses += position > 0
        for budget in budgets:
            _, expected = _reference_falsify(g, bounds, budget)
            got = falsify(f, bounds, budget)
            if expected is None:
                assert got is None, (render(f), budget)
            else:
                assert got is not None, (render(f), budget)
                assert protocol_to_dict(got[0]) == protocol_to_dict(expected[0])
                assert got[1] == expected[1]
    assert late_witnesses >= cases // 4


@pytest.mark.parametrize("bounds, cases", [
    (SearchBounds(2, 3, 1), 30), (SearchBounds(3, 1, 2), 30), (SearchBounds(2, 2, 1), 40),
])
def test_isomorph_free_scan_matches_full_scan(bounds, cases):
    # The scan skips candidates with a dead value or a smaller relabelling;
    # the hit and the budget cut must still match a scan of every candidate.
    rng = random.Random(11 + bounds.max_values_per_channel + bounds.atoms_per_channel)
    window = range(bounds.num_channels)
    late_witnesses = 0
    for i in range(cases):
        # Every other case is redrawn until it is not refuted by the very
        # first candidate, so that the cuts fall past skipped candidates.
        position = 0
        while position == 0:
            names = bounds.atom_names[: rng.randint(1, bounds.atoms_per_channel)]
            f = random_formula(rng, window, names, rng.randint(1, 3))
            g = embed_formula(f, bounds)
            position, _ = _reference_falsify(g, bounds, 3_000)
            if i % 2 == 0:
                break
        budgets = [rng.randint(1, 3_000)]
        if position is not None:
            budgets += [position, position + 1]
            late_witnesses += position > 0
        for budget in budgets:
            _, expected = _reference_falsify(g, bounds, budget)
            got = falsify(f, bounds, budget)
            if expected is None:
                assert got is None, (render(f), budget)
            else:
                assert got is not None, (render(f), budget)
                assert protocol_to_dict(got[0]) == protocol_to_dict(expected[0])
                assert got[1] == expected[1]
    assert late_witnesses >= cases // 4


@pytest.mark.parametrize("bounds", [(2, 2, 2), (3, 2, 1), (2, 3, 1)])
def test_every_skipped_candidate_has_an_earlier_checked_equivalent(bounds):
    # From the definition: a candidate the scan skips has the same verdict
    # as one it checks at an earlier position, so the first refuting
    # candidate is never skipped. Relabelling is a group action, so a
    # skipped candidate, trimmed, is a relabelling of a checked one exactly
    # when that one is a relabelling of it.
    b = SearchBounds(*bounds)
    names = b.atom_names
    checked = {
        position + t: candidate_key(
            search._build_protocol(sizes, masks, search._truth_masks(sizes, names, t), names)
        )
        for position, sizes, masks in search._exhaustive_blocks(b)
        for t in range(1 << (len(names) * sum(sizes)))
    }
    earliest = {}
    skipped = []
    relabellings = {}
    for position, p in enumerate(reference_candidates(*bounds)):
        if position in checked:
            assert checked[position] == candidate_key(p)
            for key in reference_equivalent_keys(p, relabellings):
                earliest.setdefault(key, position)
        else:
            skipped.append((position, p))
    assert len(checked) + len(skipped) == position + 1
    for position, p in skipped:
        trimmed = next(reference_equivalent_keys(p, relabellings))
        assert earliest.get(trimmed, position) < position, position


def _count_decisions(monkeypatch):
    """Record, for each falsify call after this, the calls to
    counterexample and _build_protocol, the block passes, and the
    candidates they decide."""
    calls = {"counterexample": 0, "_build_protocol": 0, "passes": 0, "decided": 0}

    def counting(name):
        real = getattr(search, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(search, name, counted)

    counting("counterexample")
    counting("_build_protocol")
    real_holds = search._holds

    def holds(entries, spreads, column, lo, width):
        calls["passes"] += 1
        calls["decided"] += width
        return real_holds(entries, spreads, column, lo, width)

    monkeypatch.setattr(search, "_holds", holds)
    return calls


def test_display_laws_check_few_candidates(monkeypatch):
    # Each law holds, so every candidate of a block that is not skipped is
    # decided by the block pass, one pass per block, and no protocol is
    # built or walked.
    calls = _count_decisions(monkeypatch)
    counts = []
    for f in display_gateway_family():
        calls.update(dict.fromkeys(calls, 0))
        assert falsify(f, SearchBounds(3, 2, 1), budget=10**6) is None
        counts.append((calls["counterexample"], calls["_build_protocol"], calls["decided"]))
        assert calls["passes"] == 22
    assert counts == [(0, 0, 76), (0, 0, 76), (0, 0, 264)]


def test_read_columns_once_per_size_vector(monkeypatch):
    # The kept blocks come grouped by their sizes, and a block's read
    # columns depend on its sizes alone, so a scan reads them once for each
    # size vector it reaches, not once per block.
    bounds = SearchBounds(3, 2, 1)
    kept = [sizes for _, sizes, _ in search._exhaustive_blocks(bounds)]
    distinct = list(dict.fromkeys(kept))
    assert (len(kept), len(distinct)) == (22, 8)
    real = search._read_columns
    calls = []

    def counted(sizes, names, read):
        calls.append(sizes)
        return real(sizes, names, read)

    monkeypatch.setattr(search, "_read_columns", counted)
    for f in display_gateway_family():
        calls.clear()
        assert falsify(f, bounds, budget=10**6) is None
        assert calls == distinct, render(f)


def test_falsify_decides_only_the_tables_it_reads(monkeypatch):
    # Unread atoms keep the all-zero table: [0]p@0 -> p@0 reads p alone, so
    # of the 266,304 candidates on one channel with six atoms, falsify
    # decides the 2 + 4 + 8 tables of p, one block pass per value count.
    bounds = SearchBounds(1, 3, 6)
    assert candidate_count(bounds) == 266_304
    calls = _count_decisions(monkeypatch)
    assert falsify(parse("[0]p@0 -> p@0"), bounds, budget=10**6) is None
    assert (calls["decided"], calls["passes"]) == (14, 3)


def _decoded(groups):
    """A block's runs, read off its cached value groups, in order."""
    if not groups:
        return ()
    return tuple(search._run(groups, r) for r in range(sum(groups[0]).bit_length()))


def _modal_depth(f):
    if isinstance(f, Box):
        return 1 + _modal_depth(f.body)
    if isinstance(f, Implies):
        return max(_modal_depth(f.lhs), _modal_depth(f.rhs))
    return 0


@pytest.mark.parametrize("bounds", [SearchBounds(3, 2, 1), SearchBounds(2, 3, 1)])
def test_block_pass_matches_the_walk(bounds):
    # On every kept block, the candidates the block pass refutes are the
    # ones on which counterexample finds a falsifying run, and the run the
    # pass names for each, the first whose lane lacks it, is the one
    # counterexample finds, and falsify reads the first of them off the
    # pass; also when the block is decided in two slices.
    # The formulas are refuted by none, some and all of a block's
    # candidates.
    rng = random.Random(41 + bounds.max_values_per_channel)
    c = bounds.num_channels
    window = range(c)
    names = bounds.atom_names
    every_atom = {(k, name) for k in window for name in names}
    formulas = [parse(f"[{c + 2}]p@0 -> p@0"), parse(f"p@0 -> [{c + 2}]p@{c - 1}")]
    while len(formulas) < 14:
        f = random_formula(rng, window, names, rng.randint(1, 4))
        if len(formulas) % 2:
            f = Box(-1, f)  # a box over a channel outside the window
        if 1 <= _modal_depth(f) <= 3:
            formulas.append(f)
    outcomes = collections.Counter()
    for _, sizes, masks in search._exhaustive_blocks(bounds):
        bits, columns = search._read_columns(sizes, names, every_atom)
        candidates = [
            search._build_protocol(
                sizes, masks, search._truth_masks(sizes, names, search._offset(bits, i)), names
            )
            for i in range(1 << len(bits))
        ]
        groups = search._block_runs(sizes, masks)
        block_runs = _decoded(groups)
        half = len(candidates) // 2
        for g in formulas:
            expected = [counterexample(EvalContext(p), g) for p in candidates]
            entries = _flatten(g)
            for lo, width in ((0, len(candidates)), (0, half), (half, len(candidates) - half)):
                spreads = search._spreads(groups, width)
                holds = search._holds(entries, spreads, lambda k, name: columns[k, name], lo, width)
                named = [
                    next(
                        (r for n, r in enumerate(block_runs) if not holds >> (n * width + i) & 1),
                        None,
                    )
                    for i in range(width)
                ]
                assert named == expected[lo:lo + width], render(g)
                hits = [(i, block_runs.index(r)) for i, r in enumerate(named) if r is not None]
                first = search._first_refuted(holds, spreads, width)
                assert first == (hits[0] if hits else None), render(g)
            refuted = len(expected) - expected.count(None)
            outcomes["none" if refuted == 0 else "all" if refuted == len(expected) else "some"] += 1
    assert min(outcomes["none"], outcomes["some"], outcomes["all"]) >= 20, outcomes


def test_budget_cuts_a_wide_block(monkeypatch):
    # The first refuting candidate is the last of the first block, which
    # has 256 candidates; the block pass decides none at or past the budget,
    # and the witness comes from the pass, so only the hit is built.
    bounds = SearchBounds(1, 2, 8)
    f = parse("!(p@0 & q@0 & r@0 & s@0 & t@0 & u@0 & v@0 & w@0)")
    assert _reference_falsify(f, bounds, 256)[0] == 255
    calls = _count_decisions(monkeypatch)
    for budget in (10, 255, 256):
        _, expected = _reference_falsify(f, bounds, budget)
        calls.update(dict.fromkeys(calls, 0))
        got = falsify(f, bounds, budget)
        if expected is None:
            assert got is None, budget
        else:
            assert protocol_to_dict(got[0]) == protocol_to_dict(expected[0])
            assert got[1] == expected[1]
        assert calls["decided"] <= budget
    assert (calls["decided"], calls["counterexample"], calls["_build_protocol"]) == (256, 0, 1)


def test_cold_scan_builds_only_its_witness(monkeypatch):
    # The exhaustive scan lists each block's runs from its relation masks,
    # so with the run cache cold a scan that refutes nothing calls the
    # constructor for no protocol, and one that refutes calls it once, for
    # its witness.
    built = []
    real_init = ExplicitChainProtocol.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(ExplicitChainProtocol, "__init__", counted)
    bounds = SearchBounds(3, 2, 1)
    for f, hits in ((display_gateway_family()[2], False), (parse("[1]p@0 -> [2]p@0"), True)):
        search._block_runs.cache_clear()
        built.clear()
        assert (falsify(f, bounds, budget=10**6) is not None) == hits
        assert len(built) == hits, render(f)


def test_display_laws_exhaustive_on_four_channels():
    bounds = SearchBounds(4, 2, 1, candidate_ceiling=1_100_000)
    assert candidate_count(bounds) == 1_090_576
    for f in display_gateway_family():
        assert falsify(f, bounds, budget=candidate_count(bounds)) is None, render(f)


def test_falsify_keeps_the_ceiling_and_rejects_negative_budgets():
    bounds = SearchBounds(3, 2, 2)
    with pytest.raises(SearchSpaceError) as listed:
        enumerate_protocols(bounds)
    with pytest.raises(SearchSpaceError) as scanned:
        falsify(parse("p@0"), bounds, budget=1)
    assert str(scanned.value) == str(listed.value)
    assert "over the ceiling of 1000000" in str(scanned.value)
    with pytest.raises(SearchSpaceError, match="budget"):
        falsify(parse("p@0"), SearchBounds(2, 2, 1), budget=-1)
    assert falsify(parse("false"), SearchBounds(2, 2, 1), budget=0) is None


def test_falsify_finds_and_reverifies_witness():
    f = parse("[1]p@0 -> [2]p@0")
    bounds = SearchBounds(3, 2, 1)
    hit = falsify(f, bounds, budget=100_000)
    assert hit is not None
    p, r = hit
    assert is_run(p, r)
    assert not evaluate(EvalContext(p), r, embed_formula(f, bounds))


def test_random_falsify_returns_the_first_refuted_sample():
    # Random mode walks the samples in stream order: the hit is the first
    # sample the walk refutes, with the walk's witness, and a budget that
    # stops short of it finds nothing.
    f = parse("[1]p@0 -> [2]p@0")
    bounds = SearchBounds(3, 2, 1, mode=RandomMode(3, 60))
    for i, p in enumerate(enumerate_protocols(bounds)):
        witness = counterexample(EvalContext(p), f)
        if witness is not None:
            break
    assert i == 14
    hit = falsify(f, bounds, budget=60)
    assert hit is not None
    assert (protocol_to_dict(hit[0]), hit[1]) == (protocol_to_dict(p), witness)
    assert falsify(f, bounds, budget=i) is None


def test_sampling_and_sweep_reports_state_their_failures():
    # A run test that every draw fails ends the sampler with an error, and
    # a report with violations counts them.
    with pytest.raises(SearchSpaceError, match="^could not sample a protocol with runs$"):
        search._draw(random.Random(0), SearchBounds(2, 2, 1), lambda sizes, masks: False)
    report = search.SweepReport("gateway", 10, 3, None)
    assert report.summary() == (
        "gateway: 10 sampled instances, 3 violations "
        "(a clean sweep supports soundness only within the sampled space)"
    )


def test_falsify_translates_channels():
    low = falsify(parse("p@0 -> [1]p@0"), SearchBounds(2, 2, 1), budget=10_000)
    high = falsify(parse("p@7 -> [8]p@7"), SearchBounds(2, 2, 1), budget=10_000)
    assert low is not None and high is not None
    assert protocol_to_dict(low[0]) == protocol_to_dict(high[0])
    assert low[1] == high[1]


def test_falsify_embedding_errors():
    with pytest.raises(SearchSpaceError, match="^formula spans 4 channels, bounds allow 3$"):
        falsify(parse("[0]p@0 -> [3]p@3"), SearchBounds(3, 2, 1), budget=10)
    with pytest.raises(SearchSpaceError, match=r"^formula uses atoms \['z'\] beyond"):
        falsify(parse("z@0"), SearchBounds(2, 2, 1), budget=10)
    with pytest.raises(SearchSpaceError, match="^formula spans 3 channels, bounds allow 2$"):
        embed_formula(parse("[-1]p@-3"), SearchBounds(2, 2, 1))
    assert embed_formula(parse("[-1]p@-3"), SearchBounds(3, 2, 1)) == parse("[2]p@0")


def test_falsify_absent_for_sound_gateway_instance():
    f = parse("[0]p@1 -> [1]p@1")
    assert falsify(f, SearchBounds(2, 2, 1), budget=100_000) is None
    random_bounds = SearchBounds(3, 2, 1, mode=RandomMode(seed=3, samples=150))
    assert falsify(f, random_bounds, budget=150) is None


def test_soundness_sweeps_clean():
    for schema in (
        "distributivity",
        "reflexivity",
        "self_awareness",
        "gateway",
        "disjunction",
    ):
        report = soundness_sweep(schema, SearchBounds(3, 2, 2), 200)
        assert report.violations == 0, report.first_witness
        assert report.first_witness is None
        assert "200" in report.summary()


def test_schemas_have_no_small_countermodel():
    # Exhaustive evidence for the five schemas on (3, 2, 1): phi and psi
    # range over false, p@k, [j]false and [j]p@k on channels 0..2, with
    # every k, and every n other than k for the gateway. No instance whose
    # side condition holds has a countermodel in the bounds; without the
    # side condition, each guarded schema has an instance that does.
    # Instances are kept in the embedded form falsify decides, once each.
    bounds = SearchBounds(3, 2, 1)
    window = range(bounds.num_channels)
    family = [Bottom(), *(Atom(k, "p") for k in window), *(Box(j, Bottom()) for j in window)]
    family += [Box(j, Atom(k, "p")) for j in window for k in window]
    instances = {}
    for k, phi in itertools.product(window, family):
        for schema, extras in (
            ("distributivity", [{"psi": psi} for psi in family]),
            ("reflexivity", [{}]),
            ("self_awareness", [{}]),
            ("gateway", [{"n": n} for n in window if n != k]),
            ("disjunction", [{"psi": psi} for psi in family]),
        ):
            for extra in extras:
                f, side_ok = instantiate_axiom(schema, {"k": k, "phi": phi, **extra})
                instances.setdefault((schema, side_ok), {})[embed_formula(f, bounds)] = None
    assert {schema for schema, side_ok in instances if side_ok} == set(_SWEEP_SCHEMAS)
    assert {schema for schema, side_ok in instances if not side_ok} == {
        "self_awareness", "gateway", "disjunction"
    }
    for (schema, side_ok), formulas in instances.items():
        found = (falsify(g, bounds, budget=10**6) for g in formulas)
        if side_ok:
            refuted = [(render(g), hit) for g, hit in zip(formulas, found) if hit is not None]
            assert refuted == [], schema
        else:
            assert any(hit is not None for hit in found), schema


def test_soundness_sweep_deterministic():
    bounds = SearchBounds(3, 2, 2, mode=RandomMode(seed=9, samples=1))
    a = soundness_sweep("gateway", bounds, 100)
    b = soundness_sweep("gateway", bounds, 100)
    assert (a.violations, a.first_witness) == (b.violations, b.first_witness)


def test_unguarded_schemas_do_fail():
    for schema in ("gateway", "disjunction", "self_awareness"):
        report = soundness_sweep(
            schema, SearchBounds(3, 2, 2), 400, enforce_side_conditions=False
        )
        assert report.violations >= 1, schema
        instance, p, r = report.first_witness
        assert not evaluate(EvalContext(p), r, instance), render(instance)



def _telephone_instances(rng, schema, window, words, guarded):
    """Instances of the schema on the window's channels, from the public
    random_formula and instantiate_axiom, with each p@k and q@k renamed to
    eq_w@k for a word w drawn per instance. The guarded arm draws phi and
    psi where the side condition can hold and keeps an instance only if it
    does; the unguarded arm draws from the whole window and keeps an
    instance only if its side condition fails."""

    def rename(f, names):
        t = type(f)
        if t is Atom:
            key = (f.name, f.channel)
            if key not in names:
                names[key] = "eq_" + rng.choice(words)
            return Atom(f.channel, names[key])
        if t is Implies:
            return Implies(rename(f.lhs, names), rename(f.rhs, names))
        if t is Box:
            return Box(f.channel, rename(f.body, names))
        return f

    while True:
        k = rng.choice(window)
        phi_pool = psi_pool = window
        if guarded and schema == "self_awareness":
            phi_pool = (k,)
        elif guarded and schema == "disjunction":
            phi_pool, psi_pool = window[: k + 1], window[k:]
        names = {}
        params = {
            "k": k,
            "n": rng.choice([n for n in window if n != k]),
            "phi": rename(random_formula(rng, phi_pool, ("p", "q"), 2), names),
            "psi": rename(random_formula(rng, psi_pool, ("p", "q"), 2), names),
        }
        f, side_ok = instantiate_axiom(schema, params)
        if side_ok == guarded:
            yield f


@pytest.mark.parametrize("length, alphabet, chain, count", [(2, "ab", 3, 100), (3, "abc", 3, 60)])
def test_schemas_are_sound_on_the_telephone(length, alphabet, chain, count):
    # The paper's soundness theorem on its flagship protocol: every guarded
    # instance of the five schemas is valid, and each schema with a side
    # condition has an invalid instance among those that break it, whose
    # counterexample is re-checked as a certificate. The walk's telephone
    # paths (selective start, filtered entry at truth-set words, Hamming
    # neighbour tables) decide every instance.
    t = telephone(length, alphabet, chain)
    ctx = EvalContext(t)
    window = tuple(range(chain))
    words = ["".join(w) for w in itertools.product(alphabet, repeat=length)]
    rng = random.Random(1)
    oracle = length == 2
    memo = {}  # the oracle's box verdicts, which depend on the protocol alone
    for schema in _SWEEP_SCHEMAS:
        guarded = _telephone_instances(rng, schema, window, words, True)
        for f in itertools.islice(guarded, count):
            assert valid_in(ctx, f), (schema, render(f))
            if oracle:
                assert enum_counterexample(t, f, memo) is None, (schema, render(f))
        if schema in ("distributivity", "reflexivity"):
            continue  # no side condition to break
        # Broken disjunction instances are refuted a few times in a hundred,
        # so the draws go on past count, up to ten times it, until one is.
        refuted = 0
        unguarded = _telephone_instances(rng, schema, window, words, False)
        for i, f in enumerate(unguarded):
            if i >= count and refuted or i == 10 * count:
                break
            r = counterexample(ctx, f)
            if oracle:
                assert r == enum_counterexample(t, f, memo), (schema, render(f))
            if r is not None:
                refuted += 1
                assert is_run(t, r) and evaluate(ctx, r, f) is False, (schema, render(f))
        assert refuted, schema


def _two_word(rng, f, words):
    """f with each atom eq_w@k, with probability one half, renamed to the
    disjunction eq_w@k | eq_u@k, drawn once per atom: u is the word of
    another atom of f at channel k if f has one, else any word but w. The
    substitution is uniform and keeps each atom's channel, so a schema
    instance stays an instance with the same side condition. The truth sets
    of a channel's atoms then join to two words, and where u is another
    atom's word, that atom tells u from w."""
    at = {}
    for k, name in _leaves(f):
        if name is not None:
            at.setdefault(k, []).append(name)
    names = {}

    def rename(g):
        t = type(g)
        if t is Atom:
            if g not in names:
                others = [n for n in at[g.channel] if n != g.name]
                others = others or ["eq_" + w for w in words if "eq_" + w != g.name]
                names[g] = disj(g, Atom(g.channel, rng.choice(others))) if rng.random() < 0.5 else g
            return names[g]
        if t is Implies:
            return Implies(rename(g.lhs), rename(g.rhs))
        if t is Box:
            return Box(g.channel, rename(g.body))
        return g

    return rename(f)


@pytest.mark.parametrize("alphabet", ["ab", "abc"])
def test_schemas_are_sound_on_the_telephone_with_two_word_truth_sets(alphabet):
    # The guarded instances of test_schemas_are_sound_on_the_telephone, on
    # two-letter words, renamed by _two_word: the truth sets a selective
    # start reads hold two words, and every instance is valid.
    t = telephone(2, alphabet, 3)
    ctx = EvalContext(t)
    window = (0, 1, 2)
    words = ["".join(w) for w in itertools.product(alphabet, repeat=2)]
    rng = random.Random(2)
    memo = {}
    for schema in _SWEEP_SCHEMAS:
        for f in itertools.islice(_telephone_instances(rng, schema, window, words, True), 40):
            f = _two_word(rng, f, words)
            assert valid_in(ctx, f), (schema, render(f))
            assert enum_counterexample(t, f, memo) is None, (schema, render(f))
    # phi -> [k]phi with phi box-free over one channel j other than k
    # breaks self-awareness's side condition. Each falsifying run passes
    # through the truth-set union T at j, at a word where phi holds, which
    # need not be T's least: counterexample must find the oracle's run.
    past_first = 0
    for _ in range(300):
        k, j = rng.sample(window, 2)
        names = ("eq_" + rng.choice(words), "eq_" + rng.choice(words))
        phi = random_formula(rng, (j,), names, 2)
        if any(name is None for _, name in _leaves(phi)):
            continue  # a box at j
        f, _ = instantiate_axiom("self_awareness", {"k": k, "phi": _two_word(rng, phi, words)})
        r = counterexample(ctx, f)
        assert r == enum_counterexample(t, f, memo), render(f)
        if r is not None:
            assert evaluate(ctx, r, f) is False, render(f)
            least = min(name[3:] for c, name in _leaves(f) if c == j and name)
            past_first += r[j] != least
    assert past_first >= 5, past_first


_SAMPLED_BOUNDS = ((3, 2, 2), (3, 3, 0), (4, 3, 2), (2, 2, 1))
_SWEEP_SCHEMAS = ("distributivity", "reflexivity", "self_awareness", "gateway", "disjunction")


def test_sample_stream_digest_is_unchanged():
    """protocol_to_dict of 400 seeded samples on each of four bounds. The
    digest is the one that building and run-counting every draw gave."""
    h = hashlib.sha256()
    for i, bounds in enumerate(_SAMPLED_BOUNDS):
        rng = random.Random(100 + i)
        for _ in range(400):
            p = sample_protocol(rng, SearchBounds(*bounds))
            h.update(json.dumps(protocol_to_dict(p), sort_keys=True).encode())
    assert h.hexdigest() == "4a79575a7d3f3d86c46b42ba5a738e6866d6072e93a16af10a2996a433613346"


def test_enforced_draws_meet_their_side_conditions(monkeypatch):
    """Under enforcement the sampler draws parameters that already meet the
    schema's side condition, so it yields every instance it builds."""
    seen = []

    def recording(schema, params):
        instance, side_ok = real(schema, params)
        seen.append(side_ok)
        return instance, side_ok

    real = proofcheck.instantiate_axiom
    monkeypatch.setattr(proofcheck, "instantiate_axiom", recording)
    for schema, channels in itertools.product(_SWEEP_SCHEMAS, (1, 2, 3, 4)):
        if schema == "gateway" and channels < 2:
            continue  # soundness_sweep refuses it: k and n must differ
        instances = search._sample_instances(
            schema, random.Random(channels), SearchBounds(channels, 2, 2), True
        )
        del seen[:]
        for _ in range(300):
            next(instances)
        assert len(seen) == 300 and all(seen), (schema, channels)


def test_sweep_report_digest_is_unchanged():
    """Trials, violations and the rendered first witness of 400-trial sweeps
    of all five schemas at two seeds, side conditions on and off (the
    unguarded gateway, disjunction and self-awareness sweeps all find
    witnesses). The digest is the one that instantiating the schema for
    every candidate (k, n) gave."""
    h = hashlib.sha256()
    for seed, schema in itertools.product((0, 40), _SWEEP_SCHEMAS):
        for enforce in (True, False):
            bounds = SearchBounds(3, 2, 2, mode=RandomMode(seed=seed, samples=1))
            report = soundness_sweep(schema, bounds, 400, enforce_side_conditions=enforce)
            witness = None
            if report.first_witness is not None:
                instance, p, r = report.first_witness
                witness = (render(instance), protocol_to_dict(p), list(r))
            h.update(json.dumps(
                [schema, enforce, report.trials, report.violations, witness], sort_keys=True
            ).encode())
    assert h.hexdigest() == "7146d1985d465e9c12eb5d14bfe576a5815fa2fb43b168c2434a17ce6a38b0dc"


def _witness_doc(witness):
    if witness is None:
        return None
    f, p, r = witness
    return render(f), protocol_to_dict(p), tuple(r)


def _check_sampled_pass(bounds, seed):
    """Replay 150 trials of each sweep, side conditions on and off, as
    soundness_sweep draws them, and check each trial's width-1 verdict
    against the walk."""
    names = bounds.atom_names
    verdicts = collections.Counter()
    for schema, enforce in itertools.product(_SWEEP_SCHEMAS, (True, False)):
        rng = random.Random(seed)
        instances = search._sample_instances(schema, rng, bounds, enforce)
        violations, first = 0, None
        for _ in range(150):
            instance = next(instances)
            sizes, masks, truth_masks = search._draw(rng, bounds, search._block_runs)
            groups = search._block_runs(sizes, masks)
            i = rng.randrange(sum(groups[0]).bit_length())
            run = search._run(groups, i)
            column = lambda k, name: search._value_bits(
                sizes[k], truth_masks[k][names.index(name)]
            )
            p = search._build_protocol(sizes, masks, truth_masks, names)
            for g in (instance.rhs, instance):
                decided = search._holds(_flatten(g), groups, column, 0, 1) >> i & 1
                walked = evaluate(EvalContext(p), run, g)
                assert decided == walked, (schema, render(g))
                verdicts[g is instance, walked] += 1
            if not walked:
                violations += 1
                first = first or (instance, p, run)
        report = soundness_sweep(schema, bounds, 150, enforce_side_conditions=enforce)
        assert report.violations == violations
        assert _witness_doc(report.first_witness) == _witness_doc(first)
    assert verdicts[True, False] >= 1, verdicts
    assert min(verdicts[False, True], verdicts[False, False]) >= 50, verdicts


@pytest.mark.parametrize("seed", [3, 17, 58])
def test_sampled_pass_matches_the_walk(seed):
    # Each sweep trial, replayed as soundness_sweep draws it, gets from the
    # block pass at width 1 the verdict the walk gives on the built
    # candidate at the drawn run, and the replay gives the sweep's report.
    # Instances rarely fail, so their consequents, which often do, are
    # checked too.
    _check_sampled_pass(SearchBounds(3, 2, 2, mode=RandomMode(seed=seed, samples=1)), seed)


def test_sampled_pass_matches_the_walk_past_a_machine_word():
    # The same replay on four channels of up to three values, where a block
    # has up to 81 runs. Random relations seldom give a block more than a
    # few dozen, so the width-1 pass is also checked at every run of blocks
    # of 72 and 81 runs, whose rows span two 64-bit words.
    bounds = SearchBounds(4, 3, 2, mode=RandomMode(seed=5, samples=1))
    _check_sampled_pass(bounds, 5)
    names = bounds.atom_names
    rng = random.Random(5)
    sizes = (3, 3, 3, 3)
    for masks in ((511, 511, 511), (511, 510, 511), (511, 511, 255)):
        groups = search._block_runs(sizes, masks)
        block_runs = _decoded(groups)
        assert len(block_runs) > 64
        for _ in range(20):
            truth_masks = tuple(tuple(rng.randrange(8) for _ in names) for _ in sizes)
            p = search._build_protocol(sizes, masks, truth_masks, names)
            g = random_formula(rng, range(4), names, 3)
            column = lambda k, name: search._value_bits(
                sizes[k], truth_masks[k][names.index(name)]
            )
            row = search._holds(_flatten(g), groups, column, 0, 1)
            walked = [evaluate(EvalContext(p), r, g) for r in block_runs]
            assert [bool(row >> r & 1) for r in range(len(block_runs))] == walked, render(g)


_FALSIFY_BOUNDS = ((2, 2, 1), (3, 2, 1), (2, 3, 1), (2, 2, 2), (1, 2, 4), (3, 1, 2), (2, 2, 3))


def test_falsify_answer_digest_is_unchanged():
    """Bounds, formula, budget, the hit's document and its run over 840
    seeded exhaustive falsify calls: 120 formulas of modal depth 1-4 over a
    random prefix of the atom names on each of seven bounds, budgets from 1
    to 10^6. The digest is the one that deciding a block's candidates as
    per-channel choice lists and walking the first refuting one gave."""
    h = hashlib.sha256()
    rng = random.Random(2024)
    for bounds in _FALSIFY_BOUNDS:
        b = SearchBounds(*bounds)
        window = range(b.num_channels)
        for _ in range(120):
            names = b.atom_names[: rng.randint(1, b.atoms_per_channel)]
            f = random_formula(rng, window, names, rng.randint(1, 4))
            while _modal_depth(f) == 0:
                f = random_formula(rng, window, names, rng.randint(1, 4))
            budget = rng.choice((1, 5, 50, 500, 5000, 10**6))
            hit = falsify(f, b, budget)
            answer = None if hit is None else (protocol_to_dict(hit[0]), list(hit[1]))
            h.update(json.dumps(
                [bounds, render(f), budget, answer], sort_keys=True
            ).encode())
    assert h.hexdigest() == "7ce651b8c38061947ad39d2f580dc3690b47fef5148c0f5537cd99d82f4ced25"


def test_sampling_builds_only_accepted_draws(monkeypatch):
    # Draws without a run are rejected on their integer encoding: N samples
    # construct N protocols and count or list no runs, and the gateway
    # sampler instantiates the schema once per returned instance. A sweep
    # decides its trials on the draws' integers, so it constructs only its
    # first witness, and the sweeps compile no formula for the walk.
    calls = []
    constructed = []
    real_init = ExplicitChainProtocol.__init__

    def counted_init(self, *args, **kwargs):
        constructed.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(ExplicitChainProtocol, "__init__", counted_init)

    def counting(name, module=search):
        real = getattr(module, name)

        def counted(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    def no_run_count(p):
        raise AssertionError("sampling counted runs")

    def no_run_list(*block):
        raise AssertionError("sampling listed runs")

    monkeypatch.setattr(protocol, "run_count", no_run_count)
    monkeypatch.setattr(search, "run_count", no_run_count, raising=False)
    counting("_build_protocol")
    counting("_random_candidate")
    counting("instantiate_axiom", proofcheck)
    bounds = SearchBounds(3, 2, 2)
    rng = random.Random(6)
    with monkeypatch.context() as m:
        m.setattr(search, "_block_runs", no_run_list)
        for _ in range(300):
            sample_protocol(rng, bounds)
    assert calls.count("_build_protocol") == len(constructed) == 300
    assert calls.count("_random_candidate") > 300  # some draws were rejected
    for enforce in (True, False):
        del calls[:]
        instances = search._sample_instances("gateway", rng, bounds, enforce)
        for _ in range(200):
            next(instances)
        assert calls.count("instantiate_axiom") == 200

    # A sweep lists the runs of each block it draws once, however often it
    # draws the block: every miss of the run cache is a new entry, and the
    # cache holds every block of the bounds.
    search._block_runs.cache_clear()
    del calls[:], constructed[:]
    report = soundness_sweep("reflexivity", SearchBounds(3, 2, 2), 300)
    assert report.trials == 300
    assert calls.count("_build_protocol") == len(constructed) == 0
    listed = search._block_runs.cache_info()
    assert 0 < listed.misses == listed.currsize < 300
    del calls[:]
    report = soundness_sweep("gateway", SearchBounds(3, 2, 2), 300, enforce_side_conditions=False)
    assert report.violations > 1
    assert calls.count("_build_protocol") == 1
    # Nor does a clean sweep on wide bounds, where most blocks it draws in
    # are fresh.
    del constructed[:]
    for schema in _SWEEP_SCHEMAS:
        assert soundness_sweep(schema, SearchBounds(6, 14, 2), 20).violations == 0
    assert constructed == []

    compiled = []
    real_compile = semantics._compile_object

    def compiling(key, f):
        compiled.append(key)
        return real_compile(key, f)

    monkeypatch.setattr(semantics, "_compile_object", compiling)
    for schema in _SWEEP_SCHEMAS:
        assert soundness_sweep(schema, SearchBounds(3, 2, 2), 100).violations == 0
    assert compiled == []


def _constructed(sizes, masks, truth=None, names=()):
    """The constructor's protocol of a draw's integers, from plain label
    lists, each channel's values in reverse order."""
    labels = "abc"
    return ExplicitChainProtocol(
        (0, len(sizes) - 1),
        {k: list(reversed(labels[:s])) for k, s in enumerate(sizes)},
        {
            k: [
                (labels[i], labels[j])
                for i in range(sizes[k - 1])
                for j in range(sizes[k])
                if mask >> (i * sizes[k] + j) & 1
            ]
            for k, mask in enumerate(masks, start=1)
        },
        None if truth is None else {
            k: {
                name: [labels[j] for j in range(s) if mask >> j & 1]
                for name, mask in zip(names, truth[k])
            }
            for k, s in enumerate(sizes)
        },
    )


@pytest.mark.parametrize("bounds", [(3, 2, 2), (2, 3, 1)], ids=str)
def test_block_cache_matches_runs(bounds):
    # Every block of the bounds: the reachability bitmasks find a run
    # exactly when it has one, and the runs read off its cached value
    # groups are the runs of the constructor's protocol, in order, for
    # every candidate of it; a runless block's entry is ().
    bounds = SearchBounds(*bounds)
    names = bounds.atom_names
    search._block_runs.cache_clear()
    blocks = 0
    for sizes in itertools.product(
        range(1, bounds.max_values_per_channel + 1), repeat=bounds.num_channels
    ):
        ranges = [range(1, 1 << (a * b)) for a, b in zip(sizes, sizes[1:])]
        for masks in itertools.product(*ranges):
            blocks += 1
            expected = tuple(runs(_constructed(sizes, masks)))
            assert bool(expected) == (search._live(sizes, masks)[0] != 0)
            groups = search._block_runs(sizes, masks)
            assert _decoded(groups) == expected
            if not expected:
                assert groups == ()
                continue
            for truth in ((0,) * len(names), (1,) * len(names)):
                p = search._build_protocol(sizes, masks, (truth,) * len(sizes), names)
                assert tuple(runs(p)) == expected
    assert blocks == (340 if bounds.num_channels == 3 else 673)


def test_block_cache_matches_runs_on_long_narrow_blocks():
    # Blocks of 12 channels of one or two values, where the ways to finish
    # a run are counted back across many channels: the runs read off the
    # groups are the constructor's, and the groups of a value on no run
    # are 0. Each relation is the union of two draws, so that most blocks
    # have runs, up to a few hundred.
    rng = random.Random(12)
    with_runs = 0
    for _ in range(50):
        sizes = tuple(rng.randint(1, 2) for _ in range(12))
        masks = tuple(
            rng.randrange(1, 1 << (a * b)) | rng.randrange(1 << (a * b))
            for a, b in zip(sizes, sizes[1:])
        )
        expected = tuple(runs(_constructed(sizes, masks)))
        groups = search._block_runs(sizes, masks)
        assert _decoded(groups) == expected
        with_runs += bool(expected)
        for k, live in enumerate(search._live(sizes, masks) if groups else ()):
            assert [g != 0 for g in groups[k]] == [bool(live >> v & 1) for v in range(sizes[k])]
    assert 30 <= with_runs < 50


@pytest.mark.parametrize("bounds", _SAMPLED_BOUNDS, ids=str)
def test_sampled_protocols_match_the_constructor(bounds):
    # Replaying the draws of sample_protocol through the constructor gives
    # an equal protocol.
    bounds = SearchBounds(*bounds)
    names = bounds.atom_names
    rng = random.Random(71)
    replay = random.Random(71)
    for _ in range(150):
        p = sample_protocol(rng, bounds)
        while True:
            sizes, masks, truth = search._random_candidate(replay, bounds)
            if search._live(sizes, masks)[0]:
                break
        q = _constructed(sizes, masks, truth, names)
        assert protocol_to_dict(p) == protocol_to_dict(q)
        for continuity in (False, True):
            assert p.validate(continuity) == q.validate(continuity)
        for k in q.channels():
            assert p.values(k) == q.values(k)
            assert p.atom_names(k) == q.atom_names(k)
            for v in q.values(k):
                assert p.has_value(k, v)
                for name in names:
                    assert p.atom_holds(k, name, v) == q.atom_holds(k, name, v)
                if k:
                    assert p.local(k).predecessors(v) == q.local(k).predecessors(v)
                if k < q.window[1]:
                    after = p.local(k + 1).successors(v)
                    assert after == q.local(k + 1).successors(v)
        assert list(runs(p)) == list(runs(q))


@pytest.mark.parametrize("enforce", [True, False], ids=["guarded", "unguarded"])
def test_one_channel_gateway_sweep_is_refused(enforce):
    # The gateway schema needs channels k != n; one channel has no such
    # pair, so the sweep refuses at once instead of drawing forever (side
    # conditions on) or from an empty list (off).
    with pytest.raises(SearchSpaceError, match="two distinct channels"):
        soundness_sweep(
            "gateway", SearchBounds(1, 2, 1), 3, enforce_side_conditions=enforce
        )
    report = soundness_sweep(
        "gateway", SearchBounds(2, 2, 1), 3, enforce_side_conditions=enforce
    )
    assert report.trials == 3


def test_sampled_protocols_share_safely():
    # Sampled protocols share their relation and label-set objects; each
    # still round-trips to an equal, valid document, and mutating what a
    # round trip returns leaves later samples as they were.
    bounds = SearchBounds(3, 2, 2)

    def later_samples():
        rng = random.Random(4)
        return [protocol_to_dict(sample_protocol(rng, bounds)) for _ in range(50)]

    expected = later_samples()
    rng = random.Random(3)
    samples = [sample_protocol(rng, bounds) for _ in range(200)]
    assert len({id(p.local(1)) for p in samples}) < len(samples)
    assert len({id(p._atoms[0]["p"]) for p in samples}) <= 4
    docs = [protocol_to_dict(p) for p in samples]
    for p, doc in zip(samples, docs):
        assert p.validate(require_continuity=False) == []
        q = protocol_from_dict(doc)
        assert q.validate(require_continuity=False) == []
        assert protocol_to_dict(q) == doc
        for k in q.channels():
            q._atoms[k].clear()
            if k > q.window[0]:
                q.local(k)._succ.clear()
                q.local(k)._pred.clear()
    assert later_samples() == expected
    assert [protocol_to_dict(p) for p in samples] == docs

def test_sweep_unknown_schema():
    with pytest.raises(SearchSpaceError):
        soundness_sweep("teleportation", SearchBounds(2, 2, 1), 5)


def test_corpus_theorems_never_falsified():
    scripts = corpus()
    for name, script in scripts.items():
        assert check_script(script).accepted
        goal = script.goal
        span = 4 if name == "lemma9_3way" else 3
        bounds = SearchBounds(span, 2, 3, mode=RandomMode(seed=21, samples=120))
        assert falsify(goal, bounds, budget=120) is None, name


def _span(f):
    support = channel_support(f)
    return max(support) - min(support) + 1


def test_corpus_theorems_settled_exhaustively():
    # Every candidate with 2 values and 3 atoms a channel over the goal's
    # span, with the ceiling lifted: the read set and the skipped blocks
    # keep the scan small. The teeth: a non-theorem is refuted there.
    for name, script in corpus().items():
        bounds = SearchBounds(_span(script.goal), 2, 3, candidate_ceiling=10**12)
        assert falsify(script.goal, bounds, budget=10**12) is None, name
    assert _span(corpus()["lemma9_3way"].goal) == 4
    bounds = SearchBounds(3, 2, 3, candidate_ceiling=10**12)
    assert falsify(parse("[1]p@0 -> [2]p@0"), bounds, budget=10**12) is not None


def test_corpus_theorems_valid_on_the_telephone():
    # Each goal with every atom name@k renamed to eq_w@k, w a seeded random
    # word per (name, k), is a channel-respecting instance of a theorem, so
    # valid on telephones long enough for its channels.
    for length, alphabet in ((2, "ab"), (3, "abc")):
        words = ["".join(w) for w in itertools.product(alphabet, repeat=length)]
        for name, script in corpus().items():
            n = max(2, max(channel_support(script.goal)) + 1)
            for chain in (n, n + 1):
                t = telephone(length, alphabet, chain)
                ctx = EvalContext(t)
                memo = {}  # the oracle's box verdicts, which depend on the protocol alone
                for seed in range(5):
                    rng, renamed = random.Random(seed), {}
                    g = parse(re.sub(
                        r"[A-Za-z_]\w*@(\d+)",
                        lambda m: renamed.setdefault(m[0], f"eq_{rng.choice(words)}@{m[1]}"),
                        render(script.goal),
                    ))
                    assert valid_in(ctx, g), (name, render(g))
                    if length == 2:
                        assert enum_counterexample(t, g, memo) is None, (name, render(g))


def test_display_family_valid_on_sampled_protocols():
    f1, f2, f3 = display_gateway_family()
    assert render(f2) == render(parse("[0][2]p@2 -> [0][1][2]p@2"))
    bounds = SearchBounds(3, 2, 1, mode=RandomMode(seed=5, samples=150))
    for p in enumerate_protocols(bounds):
        ctx = EvalContext(p)
        assert valid_in(ctx, f1) and valid_in(ctx, f2) and valid_in(ctx, f3)
