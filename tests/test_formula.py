import copy
import importlib
import os
import pickle
import pkgutil
import random
import re
import subprocess
import sys

import pytest

import chainlogic
from chainlogic import (
    Atom,
    AxiomRule,
    Bottom,
    Box,
    ExhaustiveMode,
    FormulaSyntaxError,
    Implies,
    ModusPonensRule,
    NecessitationRule,
    PremiseRule,
    ProofLine,
    ProofScript,
    RandomMode,
    Scope,
    ScriptVerdict,
    SearchBounds,
    Skeleton,
    SweepReport,
    TautologyRule,
    VariableLimitError,
    Violation,
    channel_support,
    cnf_to_formula,
    conj,
    corpus,
    diamond,
    disj,
    iff,
    is_tautology,
    member_phi,
    neg,
    parse,
    random_formula,
    render,
    scope,
    scoped_cnf,
    script_to_dict,
    shift_channels,
    skeleton,
    truth,
)
from chainlogic.formula import _Frozen
from chainlogic.proofcheck import LineCheck

from conftest import reference_parse, syllogism_chain


def test_parse_core_forms():
    assert parse("false") == Bottom()
    assert parse("p@3") == Atom(3, "p")
    assert parse("p@-3") == Atom(-3, "p")
    assert parse("[2]([3]p@3 -> [4]q@4)") == Box(
        2, Implies(Box(3, Atom(3, "p")), Box(4, Atom(4, "q")))
    )


def test_parse_desugars():
    assert parse("true") == Implies(Bottom(), Bottom())
    assert parse("!p@1") == Implies(Atom(1, "p"), Bottom())
    assert parse("p@1 | q@2") == Implies(Implies(Atom(1, "p"), Bottom()), Atom(2, "q"))
    assert parse("p@1 & q@2") == Implies(
        Implies(Atom(1, "p"), Implies(Atom(2, "q"), Bottom())), Bottom()
    )
    assert parse("<2>p@2") == Implies(
        Box(2, Implies(Atom(2, "p"), Bottom())), Bottom()
    )


def test_parse_precedence():
    a, b, c = Atom(1, "a"), Atom(2, "b"), Atom(3, "c")
    assert parse("a@1 -> b@2 -> c@3") == Implies(a, Implies(b, c))
    assert parse("a@1 | b@2 & c@3") == disj(a, conj(b, c))
    assert parse("a@1 & b@2 -> c@3") == Implies(conj(a, b), c)
    assert parse("!a@1 & b@2") == conj(neg(a), b)
    assert parse("[1]a@1 & b@2") == conj(Box(1, a), b)


def test_parse_whitespace_insensitive():
    assert parse(" [ 2 ] p @ 2 ") == parse("[2]p@2")
    text = "\tp@0\n-> [1]\u00a0q@\t-2 &\n\n!\u00a0r@1"
    assert parse(text) == reference_parse(text) == parse("p@0 -> [1]q@-2 & !r@1")


@pytest.mark.parametrize(
    "text,offset",
    [
        ("[x]p", 1),
        ("", 0),
        ("p", 1),
        ("p@", 2),
        ("(p@1", 4),
        ("p@1 q@2", 4),
        ("p@1 -", 4),
        ("p@1 $ q@2 ((", 4),
        ("((p@1 -x", 6),
        (") p@99999999999999999999", 4),
        ("[1 p@0", 3),
        ("<1] p@0", 2),
        ("(true@1)", 5),
        ("p@0 )", 4),
        ("!(p@0 &)", 7),
    ],
)
def test_parse_errors_carry_offsets(text, offset):
    with pytest.raises(FormulaSyntaxError) as exc:
        parse(text)
    assert exc.value.position == offset


@pytest.mark.parametrize(
    "text,message,offset",
    [
        # A lexical error after the syntax error is reported instead.
        ("p@0 ) $", "unexpected character '$'", 6),
        ("[x] p@99999999999999999999", "channel index outside the representable range", 6),
        ("p@0 -> $", "unexpected character '$'", 7),
        ("(p@0 -", "unexpected '-'", 5),
        # Tabs, newlines and no-break spaces separate lexemes and count in
        # offsets.
        ("\tp@0 $", "unexpected character '$'", 5),
        ("p@0\n)", "unexpected trailing input", 4),
        ("\u00a0\u00a0p@", "expected a channel index", 4),
        ("p@0 ->\t\n", "expected a formula", 8),
        ("\u00a0p@0 \u00a0q@1", "unexpected trailing input", 6),
        ("[1]\tp@0\n& \u00a0(", "expected a formula", 12),
        # Letters and digits outside ASCII are no part of the grammar.
        ("é@0", "unexpected character 'é'", 0),
        ("p@²", "unexpected character '²'", 2),
        ("p@٣", "unexpected character '٣'", 2),
        ("[٣]p@0", "unexpected character '٣'", 1),
        ("ª@0", "unexpected character 'ª'", 0),
    ],
)
def test_parse_error_messages_match_reference_parser(text, message, offset):
    for parser in (reference_parse, parse):
        with pytest.raises(FormulaSyntaxError) as exc:
            parser(text)
        assert (str(exc.value), exc.value.position) == (f"{message} (at offset {offset})", offset)


def test_parse_rejects_out_of_range_channels():
    with pytest.raises(FormulaSyntaxError):
        parse(f"p@{2**63}")
    assert parse(f"p@{2**63 - 1}") == Atom(2**63 - 1, "p")
    with pytest.raises(FormulaSyntaxError):
        parse(f"[{-2**63 - 1}]p@0")
    assert parse(f"[{-2**63}]p@0") == Box(-2**63, Atom(0, "p"))


def test_huge_channel_indices_are_out_of_range():
    # Past 4,300 digits ``int`` refuses the text itself, so the range is
    # decided on the digits first; leading zeros do not count.
    nines = "9" * 5000
    for text, offset in ((f"p@{nines}", 2), (f"[-{nines}]p@0", 1), (f"[x] p@{nines}", 6)):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse(text)
        assert (str(exc.value), exc.value.position) == (
            f"channel index outside the representable range (at offset {offset})", offset
        )
    assert parse("p@" + "0" * 5000 + "1") == Atom(1, "p")
    assert parse("[-" + "0" * 5000 + "7]p@0") == Box(-7, Atom(0, "p"))
    assert parse("p@" + "0" * 30 + "9223372036854775807") == Atom(2**63 - 1, "p")
    with pytest.raises(FormulaSyntaxError):
        parse("p@" + "0" * 30 + "9223372036854775808")


@pytest.mark.parametrize(
    "digits", ["0", "0" * 18, "9" * 18, "0" * 17 + "7", "0" * 19, str(2**63 - 1), "1" + "0" * 18]
)
def test_channels_either_side_of_the_inline_read_agree(digits):
    # parse reads a channel of at most 18 ASCII digits with int() and
    # hands a longer or signed one to _channel; both give the same value.
    text = f"[{digits}]p@{digits} -> <-{digits}>p@-{digits}"
    assert parse(text) == reference_parse(text)
    assert parse(text).lhs == Box(int(digits), Atom(int(digits), "p"))


_SUGAR_ATOMS = ("p", "q", "eq_a", "R2", "_x")
_SPACES = ("", "", "", " ", "  ", "\t", "\n ")
_JUNK = list("[]<>()!&|@-0123456789 $é\u00a0") + ["->", "p", "true", "false", "@-", "9" * 20]


def _sugar_tokens(rng, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        if rng.random() < 0.15:
            return [rng.choice(("true", "false"))]
        return [rng.choice(_SUGAR_ATOMS), "@", str(rng.randint(-12, 12))]
    if roll < 0.45:
        k = str(rng.randint(-3, 3))
        prefix = rng.choice((["!"], ["[", k, "]"], ["<", k, ">"]))
        return prefix + _sugar_tokens(rng, depth - 1)
    if roll < 0.55:
        return ["(", *_sugar_tokens(rng, depth - 1), ")"]
    op = rng.choice(("&", "|", "->"))
    return [*_sugar_tokens(rng, depth - 1), op, *_sugar_tokens(rng, depth - 1)]


def _sugar_text(rng):
    tokens = _sugar_tokens(rng, rng.randint(0, 5))
    return rng.choice(_SPACES) + "".join(t + rng.choice(_SPACES) for t in tokens)


def _mangled(rng, text):
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(chars))
        if rng.random() < 0.4 and chars:
            del chars[min(i, len(chars) - 1)]
        else:
            chars.insert(i, rng.choice(_JUNK))
    return "".join(chars)


def _outcome(parser, text):
    try:
        return parser(text)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


def test_parse_matches_reference_parser():
    rng = random.Random(5)
    seen = set()
    for _ in range(12_000):
        text = _sugar_text(rng)
        for candidate in (text, _mangled(rng, text)):
            expected = _outcome(reference_parse, candidate)
            assert _outcome(parse, candidate) == expected, candidate
            seen.add(expected[1].split(" (at offset")[0] if type(expected) is tuple else "parsed")
    # Parsed formulas and every error message occur.
    assert seen == {
        "parsed",
        "expected a formula",
        "expected a channel index",
        "expected '@' after an atom name",
        "expected ']'",
        "expected '>'",
        "expected ')'",
        "unexpected trailing input",
        "unexpected '-'",
        "unexpected character '$'",
        "unexpected character 'é'",
        "channel index outside the representable range",
    }


_DEEP = 100_000


@pytest.mark.parametrize(
    "prefix,suffix,wrap",
    [
        ("!", "", neg),
        ("[1]", "", lambda f: Box(1, f)),
        ("<0>", "", lambda f: diamond(0, f)),
        ("(", " -> q@1)", lambda f: Implies(f, Atom(1, "q"))),
        ("q@1 -> ", "", lambda f: Implies(Atom(1, "q"), f)),
    ],
    ids=["negation", "box", "diamond", "parentheses", "implication"],
)
def test_parse_deep_nesting_without_recursion(prefix, suffix, wrap):
    expected = Atom(0, "p")
    for _ in range(_DEEP):
        expected = wrap(expected)
    assert parse(prefix * _DEEP + "p@0" + suffix * _DEEP) == expected


def _corpus_texts():
    """Every formula text of the corpus scripts: lines, goals, and axiom
    parameters."""
    texts = []
    for script in corpus().values():
        doc = script_to_dict(script)
        texts.append(doc["goal"])
        for line in doc["lines"]:
            texts.append(line["formula"])
            texts += [line["rule"][key] for key in ("phi", "psi") if key in line["rule"]]
    return texts


def _syllogism_texts(rng, m):
    """The formula texts of a derivation of [c]A1 -> [c]Am from the chained
    syllogism (A1->A2) -> ((A2->A3) -> ... -> (A1->Am)): Am is an atom and
    each Ai = [ci]A(i+1), so the text nests boxes m-1 deep inside m
    implications. Every tail of the syllogism is a line of the derivation."""
    a, links, chain, c = syllogism_chain(rng, m)
    formulas = [*a, *links, chain, Box(c, chain), Implies(Box(c, a[0]), Box(c, a[-1]))]
    tail = chain
    for link in reversed(links):
        tail = Implies(link, tail)
        formulas.append(tail)
    return [render(f) for f in formulas]


def test_parse_matches_reference_parser_on_long_texts():
    rng = random.Random(11)
    texts = _corpus_texts()
    for m in range(12, 21):
        texts += _syllogism_texts(rng, m)
    assert max(map(len, texts)) > 1000
    for text in texts:
        f = parse(text)
        assert f == reference_parse(text), text
        assert render(f) == text


def test_valid_texts_compute_no_offsets(monkeypatch):
    from chainlogic import formula

    original = formula._syntax_error
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(formula, "_syntax_error", counted)
    for text in _corpus_texts():
        parse(text)
    parse("!" * _DEEP + "p@0")
    assert calls == []
    with pytest.raises(FormulaSyntaxError):
        parse("[1]p@0 ) (q@1 -> $")
    assert len(calls) == 1


def test_render_examples():
    assert render(Bottom()) == "false"
    assert render(Implies(Atom(0, "p"), Bottom())) == "(p@0 -> false)"
    assert render(Box(1, Atom(1, "p"))) == "[1]p@1"
    assert render(parse("true")) == "(false -> false)"


def test_round_trip_random():
    rng = random.Random(1)
    for _ in range(2000):
        f = random_formula(rng, range(-3, 4), ("p", "q", "r"), 7)
        assert parse(render(f)) == f


def test_scope_examples():
    assert sorted(scope(parse("[2]([3]p@3 -> [4]q@4)")).indices) == [2]
    f = Implies(Box(1, Box(0, Atom(0, "p"))), Box(2, Box(0, Atom(0, "q"))))
    assert sorted(scope(f).indices) == [1, 2]
    assert scope(Bottom()).indices == frozenset()


def test_scope_conventions_and_monotonicity():
    import math

    empty = scope(Bottom())
    assert empty.min_val == math.inf and empty.max_val == -math.inf
    rng = random.Random(2)
    for _ in range(300):
        a = random_formula(rng, range(-2, 3), ("p", "q"), 4)
        b = random_formula(rng, range(-2, 3), ("p", "q"), 4)
        assert scope(Implies(a, b)).indices == scope(a).indices | scope(b).indices
        k = rng.randrange(-2, 3)
        assert scope(Box(k, a)).indices == frozenset((k,))
        sc = scope(a)
        if sc.indices:
            assert sc.min_val <= sc.max_val


def test_member_phi():
    assert member_phi(Box(1, Atom(1, "p")), {1, 2})
    assert not member_phi(Box(1, Atom(1, "p")), {2})
    assert member_phi(Bottom(), set())


def test_channel_support_and_shift():
    f = parse("[1]p@0 -> [2]p@0")
    assert channel_support(f) == frozenset({0, 1, 2})
    assert sorted(scope(f).indices) == [1, 2]
    assert shift_channels(f, 5) == parse("[6]p@5 -> [7]p@5")


def test_skeleton_examples():
    sk = skeleton(parse("[1]p@1 -> [1]p@1"))
    assert sk.num_vars == 1
    sk = skeleton(Bottom())
    assert sk.num_vars == 0
    sk = skeleton(parse("p@0 -> [0]p@0"))
    assert sk.num_vars == 2
    assert sk.bindings == (Atom(0, "p"), Box(0, Atom(0, "p")))


def test_skeleton_substitution_is_exact():
    rng = random.Random(3)
    for _ in range(500):
        f = random_formula(rng, range(0, 3), ("p", "q"), 5)
        sk = skeleton(f)
        assert len(set(sk.bindings)) == sk.num_vars
        for binding in sk.bindings:
            assert isinstance(binding, (Atom, Box))


def test_is_tautology():
    assert is_tautology(parse("((p@0 -> q@0) -> p@0) -> p@0"))
    assert is_tautology(parse("(p@1 & q@2) -> p@1"))
    assert not is_tautology(parse("[1]p@1 -> p@1"))
    assert is_tautology(parse("true"))
    assert not is_tautology(parse("false"))


def test_is_tautology_variable_limit():
    f = parse("p@0")
    for i in range(1, 5):
        f = disj(f, Atom(i, "p"))
    with pytest.raises(VariableLimitError):
        is_tautology(f, max_vars=3)
    assert is_tautology(disj(f, neg(parse("p@0"))), max_vars=6)


def test_scoped_cnf_examples():
    assert scoped_cnf(parse("p@1 | p@2")) == [[Atom(1, "p"), Atom(2, "p")]]
    assert scoped_cnf(parse("[1]p@1 & p@2")) == [
        [Box(1, Atom(1, "p"))],
        [Atom(2, "p")],
    ]
    assert scoped_cnf(parse("!(p@1 & [2]q@2)")) == [
        [neg(Atom(1, "p")), neg(Box(2, Atom(2, "q")))]
    ]


def test_scoped_cnf_constants():
    assert scoped_cnf(parse("true")) == []
    assert scoped_cnf(parse("false")) == [[]]
    assert is_tautology(iff(parse("true"), cnf_to_formula([])))


def test_scoped_cnf_properties():
    rng = random.Random(4)
    for _ in range(150):
        f = random_formula(rng, range(0, 4), ("p", "q"), 5)
        clauses = scoped_cnf(f)
        for clause in clauses:
            for lit in clause:
                assert len(scope(lit)) <= 1
                if isinstance(lit, Implies):  # negated literal
                    assert scope(lit).indices == scope(lit.lhs).indices
        assert is_tautology(iff(f, cnf_to_formula(clauses)))


def test_diamond_roundtrip():
    assert diamond(2, Atom(2, "p")) == parse("<2>p@2")
    assert truth() == parse("true")


def test_equal_formulas_built_apart_hash_and_compare_equal():
    text = "[0](p@1 -> [2]!q@2) & <1>(p@0 | false) -> true"
    a, b = parse(text), parse(text)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != parse("[0](p@1 -> [2]!q@2) & <1>(p@0 | false) -> false")
    # The cache is invisible to equality and repr, and survives reuse.
    assert repr(a) == repr(b) and "_hash" not in repr(a)
    assert hash(a) == hash(a) == hash(b)
    assert {a: 1}[parse(text)] == 1
    for copied in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert copied == a and hash(copied) == hash(a)


def test_formula_hashes_are_stable_across_interpreters():
    # With the string hash seed fixed, a formula's hash depends on nothing
    # else of the process, boxes included: no part of it is an address.
    probe = "from chainlogic import parse; print(hash(parse('[2](p@0 -> q@1)')))"
    env = dict(
        os.environ, PYTHONHASHSEED="0",
        PYTHONPATH=os.path.dirname(os.path.dirname(chainlogic.__file__)),
    )
    hashes = [
        subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
            env=env, check=True,
        ).stdout
        for _ in range(2)
    ]
    assert hashes[0] == hashes[1] != ""


def test_deep_formula_hashes_without_recursion():
    f = parse("p@0")
    for _ in range(20_000):
        f = Box(0, Implies(f, Bottom()))
    assert hash(f) == hash(f)


def _implication_chain(depth, leaf):
    f = leaf
    for i in range(depth):
        f = Implies(Atom(i % 3, "q"), f)
    return f


def test_deep_formulas_compare_without_recursion():
    a = _implication_chain(3_000, Atom(0, "p"))
    b = _implication_chain(3_000, Atom(0, "p"))
    c = _implication_chain(3_000, Atom(0, "r"))
    assert a is not b
    assert a == b and not a != b
    assert a != c and not a == c
    # The same verdicts once the hashes are cached, when unequal hashes
    # settle a comparison at the top.
    assert hash(a) == hash(b) and hash(a) != hash(c)
    assert a == b and a != c
    deep_box = Box(0, _implication_chain(20_000, Bottom()))
    assert deep_box == Box(0, _implication_chain(20_000, Bottom()))


def test_equality_is_structural_on_random_pairs():
    # Rendering is injective on the core forms, so it is an independent
    # witness of structural equality.
    rng = random.Random(17)
    formulas = [random_formula(rng, range(3), ("p", "q"), 3) for _ in range(300)]
    for i, a in enumerate(formulas):
        b = formulas[i - 1] if i % 3 else parse(render(a))
        if i % 2:
            hash(a)  # one side with a cached hash, the other without
        same = render(a) == render(b)
        assert (a == b) is same and (a != b) is not same, (render(a), render(b))
        assert (b == a) is same
    assert Atom(0, "p") != Box(0, Atom(0, "p")) and Atom(0, "p") != "p@0"
    assert Box(0, Atom(0, "p")) != Box(1, Atom(0, "p"))
    assert Atom(0, "p") != Atom(1, "p") and Bottom() == Bottom()


def _dataclass_repr(f):
    """The text a recursive dataclass repr gives: type name, then each
    field as name=repr(value)."""
    if isinstance(f, (Atom, Implies, Box)):
        fields = ", ".join(
            f"{name}={_dataclass_repr(getattr(f, name))}" for name in type(f).__slots__
        )
        return f"{type(f).__qualname__}({fields})"
    return repr(f)


def test_repr_is_the_dataclass_text_without_recursion():
    assert repr(parse("[0](p@0 -> false)")) == (
        "Box(channel=0, body=Implies(lhs=Atom(channel=0, name='p'), rhs=Bottom()))"
    )
    assert repr(Atom(-2, "it's")) == 'Atom(channel=-2, name="it\'s")'
    assert repr(Bottom()) == "Bottom()"
    rng = random.Random(23)
    for _ in range(300):
        f = random_formula(rng, range(-2, 3), ("p", "q"), 5)
        assert repr(f) == _dataclass_repr(f)
    f = parse("[1]" * _DEEP + "p@0")
    text = repr(f)
    assert text == "Box(channel=1, body=" * _DEEP + "Atom(channel=0, name='p')" + ")" * _DEEP


def _copies(f):
    """copy.copy, copy.deepcopy and a pickle round trip of f. A deep
    RecursionError fails at once, with a short message: pytest would format
    its traceback by comparing the frames' formulas, and stall."""
    try:
        return [copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))]
    except RecursionError:
        pass
    pytest.fail("copying or pickling the formula recursed")


def test_deep_formulas_copy_and_pickle_without_recursion():
    f = parse("[1]" * _DEEP + "p@0")
    for copied in _copies(f):
        assert copied is not f and copied == f
    g = Implies(Bottom(), Atom(0, "q"))
    for _ in range(20_000):
        g = Implies(Atom(1, "p"), g)
    assert all(copied == g for copied in _copies(g))


def test_copy_and_pickle_keep_shared_subformulas_shared():
    # 30 nested iffs: each side shared twice, so the tree has about 4^30
    # nodes but the formula object about 8 · 30.
    f = g = Atom(0, "p")
    for i in range(30):
        f, g = iff(f, Atom(i % 3, "q")), iff(g, Atom(i % 3, "q"))
    assert f is not g
    for copied in _copies(f):
        assert copied == f == g
        # iff(a, b) holds a twice: a -> b and b -> a.
        assert copied.lhs.lhs.lhs is copied.lhs.rhs.lhs.rhs
    assert len(pickle.dumps(f)) < 10_000
    assert copy.deepcopy(Bottom()) == Bottom()
    for f in (parse("p@0"), parse("false"), iff(parse("[2]!(p@0 & q@-1)"), parse("[0]false"))):
        assert all(copied == f and render(copied) == render(f) for copied in _copies(f))


# One value of each of the package's 20 value classes, built by keyword,
# with its repr, its __match_args__ and the tuple its hash is the hash of:
# the ones the frozen dataclass versions of these classes gave. Implies and
# Box hash the cached hashes of their children (Bottom's is hash("false")).
_P = Atom(channel=0, name="p")
_LINE = ProofLine(id=2, formula=_P, rule=PremiseRule())
_LINE_TEXT = "ProofLine(id=2, formula=Atom(channel=0, name='p'), rule=PremiseRule())"
_CHECK = LineCheck(line_id=1, ok=False, reason="why", tainted=True)
_CHECK_TEXT = "LineCheck(line_id=1, ok=False, reason='why', tainted=True)"
_VALUES = [
    (Bottom(), "Bottom()", (), ()),
    (_P, "Atom(channel=0, name='p')", ("channel", "name"), (0, "p")),
    (Implies(lhs=_P, rhs=Bottom()), "Implies(lhs=Atom(channel=0, name='p'), rhs=Bottom())",
     ("lhs", "rhs"), (hash((0, "p")), hash("false"))),
    (Box(channel=1, body=_P), "Box(channel=1, body=Atom(channel=0, name='p'))",
     ("channel", "body"), (1, hash((0, "p")), 0)),
    (Scope(indices=frozenset({2, -1})), "Scope(indices=frozenset({2, -1}))", ("indices",),
     (frozenset({2, -1}),)),
    (Skeleton(bindings=(_P, Box(1, Bottom()))),
     "Skeleton(bindings=(Atom(channel=0, name='p'), Box(channel=1, body=Bottom())))",
     ("bindings",), ((_P, Box(1, Bottom())),)),
    (Violation(kind="atom-channel", channel=3, detail="atoms declared outside"),
     "Violation(kind='atom-channel', channel=3, detail='atoms declared outside')",
     ("kind", "channel", "detail"), ("atom-channel", 3, "atoms declared outside")),
    (TautologyRule(), "TautologyRule()", (), ()),
    (PremiseRule(), "PremiseRule()", (), ()),
    (AxiomRule(schema="gateway", k=0, phi=_P, n=1),
     "AxiomRule(schema='gateway', k=0, phi=Atom(channel=0, name='p'), n=1, psi=None)",
     ("schema", "k", "phi", "n", "psi"), ("gateway", 0, _P, 1, None)),
    (ModusPonensRule(antecedent=1, implication=2),
     "ModusPonensRule(antecedent=1, implication=2)", ("antecedent", "implication"), (1, 2)),
    (NecessitationRule(channel=3, source=1), "NecessitationRule(channel=3, source=1)",
     ("channel", "source"), (3, 1)),
    (_LINE, _LINE_TEXT, ("id", "formula", "rule"), (2, _P, PremiseRule())),
    (ProofScript(lines=(_LINE,), goal=_P),
     f"ProofScript(lines=({_LINE_TEXT},), goal=Atom(channel=0, name='p'), premises_allowed=False)",
     ("lines", "goal", "premises_allowed"), ((_LINE,), _P, False)),
    (_CHECK, _CHECK_TEXT, ("line_id", "ok", "reason", "tainted"), (1, False, "why", True)),
    (ScriptVerdict(accepted=False, checks=(_CHECK,), failure=(1, "why")),
     f"ScriptVerdict(accepted=False, checks=({_CHECK_TEXT},), failure=(1, 'why'))",
     ("accepted", "checks", "failure"), (False, (_CHECK,), (1, "why"))),
    (ExhaustiveMode(), "ExhaustiveMode()", (), ()),
    (RandomMode(seed=7, samples=3), "RandomMode(seed=7, samples=3)", ("seed", "samples"), (7, 3)),
    (SearchBounds(num_channels=3, max_values_per_channel=2, mode=RandomMode(7, 3)),
     "SearchBounds(num_channels=3, max_values_per_channel=2, atoms_per_channel=0, "
     "mode=RandomMode(seed=7, samples=3), candidate_ceiling=1000000)",
     ("num_channels", "max_values_per_channel", "atoms_per_channel", "mode",
      "candidate_ceiling"), (3, 2, 0, RandomMode(7, 3), 10**6)),
    (SweepReport(schema="gateway", trials=10, violations=0, first_witness=None),
     "SweepReport(schema='gateway', trials=10, violations=0, first_witness=None)",
     ("schema", "trials", "violations", "first_witness"), ("gateway", 10, 0, None)),
]

# What each class with a required field raises when called with no
# argument. A slot field's class attribute is its slot descriptor, which is
# no default.
_MISSING = {
    Atom: "missing 2 required positional arguments: 'channel' and 'name'",
    Implies: "missing 2 required positional arguments: 'lhs' and 'rhs'",
    Box: "missing 2 required positional arguments: 'channel' and 'body'",
    Scope: "missing 1 required positional argument: 'indices'",
    Skeleton: "missing 1 required positional argument: 'bindings'",
    Violation: "missing 3 required positional arguments: 'kind', 'channel', and 'detail'",
    AxiomRule: "missing 3 required positional arguments: 'schema', 'k', and 'phi'",
    ModusPonensRule: "missing 2 required positional arguments: 'antecedent' and 'implication'",
    NecessitationRule: "missing 2 required positional arguments: 'channel' and 'source'",
    ProofLine: "missing 3 required positional arguments: 'id', 'formula', and 'rule'",
    ProofScript: "missing 2 required positional arguments: 'lines' and 'goal'",
    LineCheck: "missing 4 required positional arguments: 'line_id', 'ok', 'reason', and 'tainted'",
    ScriptVerdict: "missing 3 required positional arguments: 'accepted', 'checks', and 'failure'",
    RandomMode: "missing 2 required positional arguments: 'seed' and 'samples'",
    SearchBounds: (
        "missing 2 required positional arguments: "
        "'num_channels' and 'max_values_per_channel'"
    ),
    SweepReport: (
        "missing 4 required positional arguments: "
        "'schema', 'trials', 'violations', and 'first_witness'"
    ),
}


@pytest.mark.parametrize(
    "value, text, match_args, hashed", _VALUES, ids=[type(v).__name__ for v, *_ in _VALUES]
)
def test_value_classes_are_frozen_values(value, text, match_args, hashed):
    cls = type(value)
    assert repr(value) == text
    assert cls.__match_args__ == match_args
    assert hash(value) == hash(hashed)
    fields = tuple(getattr(value, name) for name in match_args)
    twin = cls(*fields)
    assert twin is not value and twin == value and hash(twin) == hash(value)
    assert not value != twin
    assert value.__eq__(object()) is NotImplemented and value != fields
    with pytest.raises(TypeError, match=rf"^{cls.__name__}(\.__init__)?\(\) "):
        cls(*fields, None)
    if match_args:
        missing = f"{cls.__name__}.__init__() {_MISSING[cls]}"
        with pytest.raises(TypeError, match=f"^{re.escape(missing)}$"):
            cls()
    for name in ("x", *match_args):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, 1)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(value, name)
    assert repr(value) == text and hash(value) == hash(hashed)
    for copied in _copies(value):
        assert type(copied) is cls and copied == value and repr(copied) == text


def test_every_value_class_is_built_by_the_compiled_constructor():
    # One construction path: each _Frozen subclass in the package with a
    # field gets the constructor _Frozen compiles, and none writes its own.
    for module in pkgutil.iter_modules(chainlogic.__path__):
        importlib.import_module(f"chainlogic.{module.name}")
    classes, seen = [], _Frozen.__subclasses__()
    while seen:
        cls = seen.pop()
        classes.append(cls)
        seen.extend(cls.__subclasses__())
    assert {Atom, Implies, Box, Bottom, SweepReport, LineCheck} < set(classes)
    for cls in classes:
        init = vars(cls).get("__init__")
        assert init is None or init.__code__.co_filename == "<string>", cls
        if vars(cls).get("__annotations__"):
            assert init is not None, cls
def test_value_classes_compare_by_class_and_fields():
    assert Bottom() == Bottom() and Bottom().__eq__(_P) is NotImplemented
    assert _P.__eq__(Bottom()) is NotImplemented and _P != Atom(0, "q")
    assert Scope(frozenset()) != Scope(frozenset({0}))
    assert Scope(frozenset({1})).__eq__(frozenset({1})) is NotImplemented
    assert Violation("a", None, "d") != Violation("a", 0, "d")
    assert Skeleton(()) != Scope(frozenset()) and repr(Skeleton(())) == "Skeleton(bindings=())"
    assert repr(Scope(frozenset())) == "Scope(indices=frozenset())"
    if sys.hash_info.width == 64:
        # The values the dataclass hashes gave on a 64-bit CPython.
        assert hash(Bottom()) == 5740354900026072187
        assert hash(Scope(frozenset({2, -1}))) == 5363735825650271313
        assert hash(Scope(frozenset())) == -8365660994716452983
    match Violation(kind="empty-values", channel=2, detail="channel 2 has no values"):
        case Violation(kind, channel, detail):
            assert (kind, channel, detail) == ("empty-values", 2, "channel 2 has no values")
    match Box(0, Implies(_P, Bottom())):
        case Box(channel, Implies(Atom(_, name), Bottom())):
            assert (channel, name) == (0, "p")
        case _:
            pytest.fail("the positional pattern did not match")
    match Scope(frozenset({4})):
        case Scope(indices):
            assert indices == {4}


@pytest.mark.parametrize("value", [v for v, *_ in _VALUES[4:7]], ids=lambda v: type(v).__name__)
def test_scope_skeleton_and_violation_copy_and_pickle(value):
    for copied in _copies(value):
        assert type(copied) is type(value) and copied == value and copied is not value
        assert repr(copied) == repr(value) and hash(copied) == hash(value)
        with pytest.raises(AttributeError):
            setattr(copied, value.__match_args__[0], None)
