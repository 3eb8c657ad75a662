import itertools
import json
import random
import re
import string

import pytest

from chainlogic import (
    EvalContext,
    ExplicitChainProtocol,
    ProtocolFormatError,
    SearchBounds,
    RandomMode,
    ValueDomainError,
    is_run,
    load_protocol,
    prefix_splice,
    protocol_from_dict,
    protocol_to_dict,
    run_count,
    runs,
    runs_fixing,
    sample_protocol,
    counterexample,
    parse,
    splice,
    telephone,
)
from chainlogic.protocol import TelephoneProtocol

from conftest import (
    brute_force_runs,
    exhaustive_suite,
    full_relation,
    gateway_countermodel,
    make_protocol,
    two_value_cube,
)


def test_validate_clean_protocol():
    assert two_value_cube().validate(require_continuity=True) == []


def test_validate_continuity_violation():
    p = make_protocol(
        (0, 1),
        {0: ("u", "v"), 1: ("x",)},
        {1: [("u", "x")]},
    )
    assert p.validate() == []
    problems = p.validate(require_continuity=True)
    assert len(problems) == 1
    assert problems[0].kind == "continuity"
    assert problems[0].channel == 1
    assert "'v'" in problems[0].detail


def test_validate_atom_domain_violation():
    p = make_protocol(
        (0, 1),
        {0: ("a",), 1: ("a",)},
        {1: [("a", "a")]},
        {0: {"p": ("zzz",)}},
    )
    problems = p.validate()
    assert len(problems) == 1
    assert problems[0].kind == "atom-domain"


def test_validate_pair_domain_violation():
    p = make_protocol(
        (0, 1),
        {0: ("a",), 1: ("a",)},
        {1: [("a", "b")]},
    )
    kinds = {v.kind for v in p.validate()}
    assert kinds == {"pair-domain"}


def test_is_run_telephone_facts():
    t = telephone(4, "abcdefghijklmnopqrstuvwxyz", 3)
    assert is_run(t, ("byte", "bite", "cite"))
    assert is_run(t, ("toon", "boon", "book"))
    # two adjacent words three letters apart cannot be a hop
    assert sum(a != b for a, b in zip("byte", "book")) == 3
    assert not is_run(t, ("byte", "book", "book"))
    with pytest.raises(ValueDomainError):
        is_run(t, ("byte", "bite", "cit3"))
    with pytest.raises(ValueError):
        is_run(t, ("byte", "bite"))


def test_runs_full_product():
    p = two_value_cube()
    got = list(runs(p))
    assert len(got) == 8
    assert got == sorted(got)  # lexicographic enumeration
    assert got == brute_force_runs(p)


def test_runs_diagonal_filter():
    vs = ("0", "1")
    p = make_protocol(
        (0, 2),
        {0: vs, 1: vs, 2: vs},
        {1: [("0", "0"), ("1", "1")], 2: full_relation(vs, vs)},
    )
    got = list(runs(p))
    assert len(got) == 4
    assert got == brute_force_runs(p)


def test_runs_is_lazy():
    t = telephone(4, "abcdefghijklmnopqrstuvwxyz", 3)
    stream = runs(t)
    first = next(stream)
    assert first == ("aaaa", "aaaa", "aaaa")


def test_runs_and_runs_fixing_on_a_long_chain():
    # More channels than the recursion limit allows frames.
    t = telephone(1, "ab", 1200)
    assert next(runs(t)) == ("a",) * 1200
    fixed = runs_fixing(t, 600, "b")
    assert next(fixed) == ("a",) * 600 + ("b",) + ("a",) * 599
    assert next(fixed) == ("a",) * 600 + ("b",) + ("a",) * 598 + ("b",)


def test_run_count_examples():
    assert run_count(two_value_cube()) == 8
    assert run_count(telephone(1, "ab", 2)) == 4
    assert run_count(telephone(3, "abc", 3)) == 1323


def test_run_count_of_a_protocol_with_no_run():
    p = make_protocol((0, 1), {0: ("a",), 1: ("b",)}, {1: []})
    assert run_count(p) == 0
    assert list(runs(p)) == []
    assert list(runs_fixing(p, 1, "b")) == []


def test_run_count_matches_enumeration_on_samples():
    rng = random.Random(5)
    for _ in range(60):
        p = sample_protocol(rng, SearchBounds(3, 3, 0, mode=RandomMode(0, 1)))
        assert run_count(p) == len(brute_force_runs(p))


def test_runs_fixing_telephone():
    t = telephone(4, "abcdefghijklmnopqrstuvwxyz", 3)
    fixed = runs_fixing(t, 0, "byte")
    count = 0
    for r in fixed:
        assert r[0] == "byte"
        count += 1
    # 101 words within one letter of any 4-letter word, squared for two hops
    assert count == 101 * 101


def test_runs_fixing_small_and_errors():
    p = two_value_cube()
    fixed = list(runs_fixing(p, 1, "0"))
    assert len(fixed) == 4
    assert fixed == [r for r in runs(p) if r[1] == "0"]
    with pytest.raises(ValueDomainError):
        list(runs_fixing(p, 1, "9"))


def test_runs_fixing_partitions_run_set():
    rng = random.Random(6)
    for _ in range(30):
        p = sample_protocol(rng, SearchBounds(3, 2, 0, mode=RandomMode(0, 1)))
        total = run_count(p)
        for k in p.channels():
            per_value = {
                v: list(runs_fixing(p, k, v)) for v in p.iter_values(k)
            }
            assert sum(len(rs) for rs in per_value.values()) == total
            for v, rs in per_value.items():
                assert rs == [r for r in runs(p) if r[k - p.window[0]] == v]


@pytest.mark.parametrize(
    "word_len, alphabet, chain_len", [(1, "abc", 4), (2, "abc", 3), (2, "ab", 5)]
)
def test_runs_fixing_filters_runs_on_telephone(word_len, alphabet, chain_len):
    t = telephone(word_len, alphabet, chain_len)
    every = list(runs(t))
    for k in t.channels():
        for v in t.iter_values(k):
            assert list(runs_fixing(t, k, v)) == [r for r in every if r[k] == v], (k, v)


def test_splice():
    p = gateway_countermodel()
    assert splice(p, ("u", "x", "z"), ("v", "x", "z"), 1) == ("u", "x", "z")
    r = ("u", "x", "z")
    assert splice(p, r, r, 0) == r
    with pytest.raises(ValueError):
        splice(p, ("u", "x", "z"), ("v", "y", "z"), 1)


def test_prefix_splice():
    vs = ("0", "1")
    p = make_protocol(
        (0, 2),
        {0: vs, 1: vs, 2: vs},
        {1: full_relation(vs, vs), 2: full_relation(vs, vs)},
    )
    assert prefix_splice(p, ("0", "1", "0"), ("1", "1", "1"), 1) == ("0", "1", "1")
    assert prefix_splice(p, ("0", "1", "0"), ("0", "0", "1"), 0) == ("0", "0", "1")
    with pytest.raises(ValueError):
        prefix_splice(p, ("0", "1", "0"), ("1", "0", "1"), 1)


def test_splice_closure_sampled():
    rng = random.Random(7)
    for _ in range(20):
        p = sample_protocol(rng, SearchBounds(3, 2, 0, mode=RandomMode(0, 1)))
        all_runs = list(runs(p))
        for r1, r2 in itertools.product(all_runs, repeat=2):
            for k in p.channels():
                i = k - p.window[0]
                if r1[i] == r2[i]:
                    assert is_run(p, splice(p, r1, r2, k))
                    assert is_run(p, prefix_splice(p, r1, r2, k))


def test_telephone_local_condition():
    t = telephone(4, "abcdefghijklmnopqrstuvwxyz", 3)
    cond = t.local(1)
    assert cond.holds("byte", "bite")
    assert not cond.holds("byte", "book")
    assert "bite" in cond.successors("byte")
    assert len(cond.successors("byte")) == 1 + 4 * 25
    # symmetry
    rng = random.Random(8)
    small = telephone(2, "abc", 2)
    words = ["".join(t) for t in itertools.product("abc", repeat=2)]
    for _ in range(100):
        u, v = rng.choice(words), rng.choice(words)
        assert small.local(1).holds(u, v) == small.local(1).holds(v, u)


def _reference_neighbours(prev, alphabet):
    words = {prev}
    for i, original in enumerate(prev):
        for c in alphabet:
            if c != original:
                words.add(prev[:i] + c + prev[i + 1 :])
    return tuple(sorted(words))


@pytest.mark.parametrize("alphabet", ["ab", "abc", string.ascii_lowercase, "zyxa", "zyxaz"])
def test_hamming_neighbours_match_set_and_sort(alphabet):
    # Emitted in sorted order without a sort, for unsorted alphabets and
    # ones with a repeated letter, and around letters outside the alphabet:
    # below it, above it and between its letters.
    rng = random.Random(len(alphabet))
    outside = "#AbY~"
    for word_len in range(1, 6):
        cond = telephone(1, alphabet, 2).local(1)
        for i in range(60):
            pool = alphabet + outside if i % 3 == 0 else alphabet
            prev = "".join(rng.choice(pool) for _ in range(word_len))
            assert cond.successors(prev) == _reference_neighbours(prev, alphabet), prev
            assert cond.predecessors(prev) == cond.successors(prev)


@pytest.mark.parametrize("alphabet", ["ab", "abc", string.ascii_lowercase, "zyxa", "zyxaz"])
def test_hamming_holds_is_membership_in_successors(alphabet):
    # Any two strings: words and non-words, equal and different lengths,
    # near and far apart, with letters below, above and between the
    # alphabet's. The seed depends on the alphabet only.
    rng = random.Random(sum(map(ord, alphabet)))
    pool = alphabet + "#AbY~"
    cond = telephone(1, alphabet, 2).local(1)
    agreed = 0
    for _ in range(2_000):
        x = "".join(rng.choice(pool) for _ in range(rng.randint(0, 4)))
        roll = rng.random()
        if roll < 0.4 and x:
            # One position changed, to any letter of the pool.
            i = rng.randrange(len(x))
            y = x[:i] + rng.choice(pool) + x[i + 1 :]
        elif roll < 0.5:
            y = x
        elif roll < 0.6:
            y = x + rng.choice(pool)
        else:
            y = "".join(rng.choice(pool) for _ in range(rng.randint(0, 4)))
        expected = y in cond.successors(x)
        assert cond.holds(x, y) is expected, (x, y)
        agreed += expected
    assert 200 < agreed < 1_800
    a, b = sorted(alphabet)[:2]
    # zip would stop at the shorter word, and "#" is no letter to change to.
    assert not cond.holds(a + b, a + b + a) and not cond.holds(a + b + a, a + b)
    assert not cond.holds(a + b, a + "#") and cond.holds(a + "#", a + b)
    assert cond.holds("#", "#") and cond.holds("", "")


def test_telephone_words_are_sorted_and_distinct():
    # Built directly, from an unsorted alphabet with a repeat, the words
    # still come once each in sorted order, the order of the neighbour lists
    # and of the walk's filtered candidates, so the first run is the least.
    t = TelephoneProtocol(2, ("c", "a", "b", "a"), 3)
    words = list(t.iter_values(0))
    assert words == sorted(set(words)) and len(words) == 9
    every = list(runs(t))
    assert every == sorted(every) and len(every) == len(set(every)) == run_count(t)
    f = parse("!(eq_cb@0 | eq_ab@0) | eq_bb@2")
    assert counterexample(EvalContext(t), f) == next(r for r in every if r[0] in ("ab", "cb") and r[2] != "bb")


def test_telephone_atoms():
    t = telephone(3, "abc", 3)
    assert t.atom_declared(0, "eq_abc")
    assert not t.atom_declared(0, "eq_abcd")
    assert not t.atom_declared(0, "p")
    assert t.atom_holds(1, "eq_abc", "abc")
    assert not t.atom_holds(1, "eq_abc", "abb")
    assert t.validate(require_continuity=True) == []


def test_atom_values_is_the_truth_set():
    # eq_w for each word w of the telephone.
    t = telephone(2, "abc", 3)
    for k in t.channels():
        values = list(t.iter_values(k))
        for name in (f"eq_{w}" for w in values):
            assert t.atom_declared(k, name)
            truth = t.atom_values(k, name)
            for v in values:
                assert (v in truth) == t.atom_holds(k, name, v), (k, name, v)


def test_telephone_preconditions():
    # telephone is the constructor, so building the class directly is
    # checked the same way.
    for build in (telephone, TelephoneProtocol):
        with pytest.raises(ValueError, match="word_len"):
            build(0, "ab", 2)
        with pytest.raises(ValueError, match="two distinct letters"):
            build(2, "a", 2)
        with pytest.raises(ValueError, match="chain_len"):
            build(2, "ab", 1)
        with pytest.raises(ValueError, match="single characters"):
            build(2, ("a", "bc"), 2)


def test_channel_errors_name_the_channel_and_the_window():
    # Both protocol kinds refuse a local condition at the first channel or
    # past the last, and a value question outside the window.
    for p in (two_value_cube(), telephone(2, "ab", 3)):
        lo, hi = p.window
        for k in (lo, hi + 1):
            with pytest.raises(ValueError, match=f"^no local condition at channel {k}$"):
                p.local(k)
        asks = [lambda k: p.has_value(k, "a"), p.iter_values]
        if not isinstance(p, TelephoneProtocol):
            asks.append(p.values)
        for k in (lo - 1, hi + 1):
            message = f"channel {k} is outside the window [{lo}, {hi}]"
            for ask in asks:
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    ask(k)
    with pytest.raises(ProtocolFormatError, match=r"^empty window \[2, 1\]$"):
        ExplicitChainProtocol((2, 1), {}, {})
    p = two_value_cube()
    run = ("0",) * 3
    for r1, r2 in ((run[:2], run), (run, run + ("0",))):
        with pytest.raises(ValueError, match="^runs must cover exactly the window$"):
            splice(p, r1, r2, 1)


def test_a_named_alphabet_is_resolved():
    # "latin" names a-z, as on the command line, not the letters a, i, l,
    # n and t.
    t = telephone(3, "latin", 4)
    assert t.alphabet == tuple(string.ascii_lowercase)
    assert counterexample(EvalContext(t), parse("!eq_aab@2")) == ("aaa", "aaa", "aab", "aaa")


def test_protocol_json_round_trip():
    p = gateway_countermodel()
    doc = protocol_to_dict(p)
    again = protocol_from_dict(doc)
    assert protocol_to_dict(again) == doc
    assert list(runs(again)) == list(runs(p))


# Edits whose message must name the fault: the constructor reports a
# channel without a value set or a local condition, but an empty window is
# reported before any channel is read.
_DROP_LAST_CHANNEL = lambda d: d["channels"].pop()
_DROP_LAST_LOCAL = lambda d: d["local"].pop()
_REVERSE_WINDOW = lambda d: d.update(window=[2, 1])
_FAULT = {
    _DROP_LAST_CHANNEL: "channel 2",
    _DROP_LAST_LOCAL: "channel 2",
    _REVERSE_WINDOW: "empty window",
}


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(extra=1),
        lambda d: d["channels"][0].update(color="red"),
        lambda d: d["local"][0].update(note="x"),
        lambda d: d.pop("window"),
        _DROP_LAST_CHANNEL,
        _DROP_LAST_LOCAL,
        lambda d: d["local"].append({"channel": 2, "pairs": []}),
        lambda d: d["channels"].append(
            {"index": 0, "values": ["u", "v"], "atoms": {}}
        ),
        lambda d: d["channels"][0].update(values=["u", "u"]),
        lambda d: d["local"][0].update(pairs=[["u", "x", "y"]]),
        # JSON booleans are Python ints, but never indices
        lambda d: d.update(window=[False, 2]),
        lambda d: d["channels"][0].update(index=False),
        lambda d: d["local"][0].update(channel=True),
        _REVERSE_WINDOW,
        lambda d: d["channels"][0].pop("values"),
        lambda d: d["channels"][0]["atoms"].update(p="u"),
        lambda d: d["local"][0].pop("pairs"),
    ],
)
def test_protocol_format_rejections(mutate):
    doc = protocol_to_dict(gateway_countermodel())
    mutate(doc)
    with pytest.raises(ProtocolFormatError, match=_FAULT.get(mutate)):
        protocol_from_dict(doc)


def test_load_protocol_rejects_domain_violations(tmp_path):
    doc = protocol_to_dict(gateway_countermodel())
    doc["channels"][0]["atoms"]["p"] = ["zzz"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ProtocolFormatError):
        load_protocol(path)


@pytest.mark.parametrize("doc", [[], "protocol", None])
def test_protocol_document_must_be_an_object(doc):
    with pytest.raises(ProtocolFormatError, match="JSON object"):
        protocol_from_dict(doc)


@pytest.mark.parametrize(
    "mutate, detail",
    [
        (lambda d: d["channels"][0].update(values=[]), "channel 0 has no values"),
        (
            lambda d: d["local"][0]["pairs"].append(["w", "x"]),
            "uses 'w' outside channel 0",
        ),
    ],
)
def test_load_protocol_rejects_each_violation(tmp_path, mutate, detail):
    doc = protocol_to_dict(gateway_countermodel())
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ProtocolFormatError, match=detail):
        load_protocol(path)


def test_validate_atom_channel_violation():
    # The file format cannot place atoms outside the window; the
    # constructor can.
    p = make_protocol(
        (0, 1),
        {0: ("a",), 1: ("a",)},
        {1: [("a", "a")]},
        {5: {"p": ("a",)}},
    )
    assert [(v.kind, v.channel) for v in p.validate()] == [("atom-channel", 5)]


def test_exhaustive_suite_counts():
    assert len(exhaustive_suite(2, 1, 0)) == 1
    # frozen regression value, first computed by direct generation
    assert len(exhaustive_suite(2, 2, 0)) == 22
