"""The tautology decision: sign propagation, then the truth table over the
variables propagation left unfixed, against the recursive truth-table
oracle in conftest, and what it may cost."""

import io
import json
import random
import tracemalloc

import pytest

from chainlogic import Atom, Bottom, Box, Implies, disj, iff, is_tautology, neg, render, truth
from chainlogic.cli import run_cli
from chainlogic.propositional import _forced_signs

from conftest import (
    _reference_mask,
    _reference_truth_table,
    reference_is_tautology,
    reference_variables,
    syllogism_chain,
)


def _random_formula(rng, depth):
    """Few atoms and boxes, so that many draws are tautologies; false,
    true, negation, and iff, whose arguments are shared subformulas."""
    roll = rng.random()
    if depth <= 0 or roll < 0.2:
        leaf = rng.random()
        if leaf < 0.1:
            return Bottom()
        if leaf < 0.2:
            return truth()
        if leaf < 0.3:
            return Box(rng.randint(0, 1), Atom(0, "p"))
        return Atom(rng.randint(0, 1), rng.choice("pq"))
    if roll < 0.6:
        return Implies(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))
    if roll < 0.75:
        return neg(_random_formula(rng, depth - 1))
    return iff(_random_formula(rng, depth - 2), _random_formula(rng, depth - 2))


def _syllogism(m, conclusion):
    """The m-variable chained syllogism (A1->A2) -> ... -> (A(m-1)->Am) ->
    C, where C is conclusion(A1, Am), and its variables A1..Am."""
    a, links, _, _ = syllogism_chain(random.Random(m), m)
    f = conclusion(a[0], a[-1])
    for link in reversed(links):
        f = Implies(link, f)
    return f, a


# The conclusions: the syllogism's own, one that only propagation from the
# false end (F b in a true a -> b gives F a) closes, and the taut mutant's,
# which fails at A1 false and Am true.
def _chained(a1, am):
    return Implies(a1, am)


def _backward(a1, am):
    return disj(neg(a1), am)


def _mutant(a1, am):
    return Implies(am, a1)


def _parity(n):
    """The iff-chains of n atoms folded from the left and from the right:
    equivalent, and for n > 1 each true at half the assignments."""
    xs = [Atom(i % 4, "pqrs"[i // 4]) for i in range(n)]
    left, right = xs[0], xs[-1]
    for x in xs[1:]:
        left = iff(left, x)
    for x in reversed(xs[:-1]):
        right = iff(x, right)
    return left, right


def _assert_signs_are_forced(f):
    """``_forced_signs`` against the truth table: None only for a
    tautology, and otherwise each sign it fixes is the variable's value in
    every falsifying assignment. A tautology need not close."""
    index, masks, full = _reference_truth_table(f, 24)
    falsifying = full ^ _reference_mask(f, index, masks, full)
    fixed = _forced_signs(f, index)
    if fixed is None:
        assert falsifying == 0, render(f)
        return None
    for i, value in fixed.items():
        assert falsifying & masks[i] == (falsifying if value else 0), (render(f), i)
    return fixed


def test_is_tautology_matches_the_truth_table_oracle():
    rng = random.Random(36)
    verdicts = {True: 0, False: 0}
    closed = fixed_some = 0
    for _ in range(3000):
        f = _random_formula(rng, rng.randint(0, 7))
        verdict = is_tautology(f)
        assert verdict == reference_is_tautology(f), render(f)
        verdicts[verdict] += 1
        fixed = _assert_signs_are_forced(f)
        closed += fixed is None
        fixed_some += bool(fixed)
    # Both verdicts, closures and partial fixes all occur in the suite.
    assert min(verdicts.values()) > 300 and closed > 200 and fixed_some > 600, (
        verdicts, closed, fixed_some
    )

    # The syllogisms' verdicts are known by construction; the oracle, whose
    # table takes a second at 24 variables, confirms them up to 20.
    # Propagation alone closes the syllogisms; of the mutant it fixes A1
    # and Am, and leaves the links' inner variables to the table.
    for m in range(4, 25):
        for conclusion in (_chained, _backward, _mutant):
            f, a = _syllogism(m, conclusion)
            holds = conclusion is not _mutant
            assert is_tautology(f) == holds
            if m <= 20:
                assert reference_is_tautology(f) == holds
            index = reference_variables(f, {})
            signs = None if holds else {index[a[0]]: False, index[a[-1]]: True}
            assert _forced_signs(f, index) == signs

    # The two parity folds are equivalent: a tautology whose falsity forces
    # no sign.
    for n in range(2, 13):
        left, right = _parity(n)
        f = iff(left, right)
        assert is_tautology(f) and reference_is_tautology(f)
        assert _assert_signs_are_forced(f) == {}
        assert not is_tautology(left) and not reference_is_tautology(left)
        _assert_signs_are_forced(left)


@pytest.mark.parametrize("conclusion", [_chained, _backward], ids=["chained", "backward"])
def test_24_variable_syllogism_holds_no_table(conclusion):
    """The full table would hold 24 columns of 2 MB; propagation closes
    the syllogism with none."""
    f, _ = _syllogism(24, conclusion)
    tracemalloc.start()
    try:
        assert is_tautology(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def _prove_one_line(tmp_path, f):
    """run_cli's exit code and stdout on the script whose one line is f,
    justified as a tautology, and whose goal is f."""
    text = render(f)
    path = tmp_path / "taut.json"
    doc = {"goal": text, "lines": [{"id": 1, "formula": text, "rule": {"type": "taut"}}]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = io.StringIO()
    return run_cli(["prove", "--script", str(path)], stdout=out), out.getvalue()


def test_prove_takes_the_syllogism_up_to_the_variable_limit(tmp_path):
    f, _ = _syllogism(24, _chained)
    assert _prove_one_line(tmp_path, f) == (0, "accepted\n")
    # One variable more is refused on the skeleton's count, although
    # propagation alone would close it.
    f, _ = _syllogism(25, _chained)
    assert _forced_signs(f, reference_variables(f, {})) is None
    assert _prove_one_line(tmp_path, f) == (
        1, "rejected at line 1: tautology oracle variable limit exceeded; split the step\n"
    )
