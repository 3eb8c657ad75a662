"""The propositional layer: skeletons, the tautology decision and CNF.

A formula's skeleton reads its maximal box and atom subformulas as
propositional variables. ``is_tautology`` decides validity over the
skeleton, the oracle behind the proof checker's tautology lines, and
``scoped_cnf`` rewrites a formula into clauses of single-channel literals.
Both are exact for propositional consequences and blind to modal ones.

Only ``prove`` and ``falsify`` (through ``proofcheck``) load this module;
the verbs that evaluate formulas on protocols do not.
"""

from __future__ import annotations

from .formula import Bottom, Formula, Implies, _Frozen, _variables, conj, disj, truth

DEFAULT_VARIABLE_LIMIT = 24


class VariableLimitError(ValueError):
    """A truth-table check would need more variables than allowed."""


class Skeleton(_Frozen):
    """Propositional shape of a formula.

    The bindings are its maximal box/atom subformulas, numbered by first
    occurrence in a left-to-right traversal; syntactically identical
    subformulas share one variable.
    """
    bindings: tuple[Formula, ...]

    @property
    def num_vars(self) -> int:
        return len(self.bindings)


def skeleton(f: Formula) -> Skeleton:
    """Abstract maximal box/atom subformulas to variables, numbered by
    first occurrence in a left-to-right traversal."""
    return Skeleton(tuple(_variables(f)))


def _numbered(f: Formula, max_vars: int) -> dict[Formula, int]:
    """f's skeleton variable numbering, once its size is checked against
    ``max_vars``: the limit is on the skeleton, whatever a check then
    needs of it."""
    index = _variables(f)
    if len(index) > max_vars:
        raise VariableLimitError(
            f"{len(index)} skeleton variables exceed the limit of {max_vars}"
        )
    return index


def _variable_mask(i: int, num_vars: int) -> int:
    # Bit j of the mask holds assignment j's value for variable i, which is
    # bit i of j; built by doubling a 2^i-zeros / 2^i-ones block.
    half = 1 << i
    pattern = ((1 << half) - 1) << half
    width = half << 1
    total = 1 << num_vars
    while width < total:
        pattern |= pattern << width
        width <<= 1
    return pattern


def _truth_table(num_vars: int, fixed: dict[int, bool]):
    """Each skeleton variable's truth-table column as a bitmask over the
    assignments of the variables not in ``fixed``, and the all-ones mask.
    A variable in ``fixed`` (its number -> its value) has the constant
    column of its value; the others are numbered apart, in order."""
    free = num_vars - len(fixed)
    full = (1 << (1 << free)) - 1
    masks = []
    j = 0
    for i in range(num_vars):
        value = fixed.get(i)
        if value is None:
            masks.append(_variable_mask(j, free))
            j += 1
        else:
            masks.append(full if value else 0)
    return masks, full


def _mask(f: Formula, index: dict[Formula, int], masks: list[int], full: int) -> int:
    """Truth-table column of f, with box/atom subformulas as variables.

    Post-order with a stack of finished columns. Only an implication met a
    second time is remembered, so a shared subformula is computed at most
    twice, yet a formula that shares nothing holds no more columns at once
    than a recursive walk: a column has 2^variables bits.
    """
    columns = []
    met = set()
    remembered = {}
    stack = [f]
    pop, push = stack.pop, stack.append
    while stack:
        g = pop()
        t = type(g)
        if t is Implies:
            i = id(g)
            c = remembered.get(i)
            if c is None:
                push((i, i in met))
                met.add(i)
                push(g.rhs)
                push(g.lhs)
                continue
        elif t is tuple:  # (id of an implication, met before), sides done
            i, again = g
            b = columns.pop()
            c = (full ^ columns.pop()) | b
            if again:
                remembered[i] = c
        else:
            c = 0 if t is Bottom else masks[index[g]]
        columns.append(c)
    return columns[0]


def _forced_signs(f: Formula, index: dict[Formula, int]):
    """The values that "f is false" forces on f's skeleton variables, as a
    dict from variable number to value, or None when the forced signs
    clash, so that no assignment falsifies f.

    One worklist of (node, sign) pairs, with sign True for true, starts
    from (f, False) and applies the tableau rules of implication
    (Smullyan, "First-Order Logic", 1968) as unit propagation: F(a -> b)
    gives T a and F b; T(a -> b) gives T b once a is T, and F a once b is
    F. A node given both signs, or T false, closes. Every sign given holds
    in every assignment that falsifies f, so fixing the variables' signs
    leaves the truth table's verdict as it was.

    Variables are keyed by their number in ``index``, so equal literals
    share a sign, and false is variable -1, false from the start.
    Implications are keyed by identity, in a map of their own. A node not
    yet signed holds the list of what waits for its sign: (the sign
    awaited, the node to sign, the sign to give it).
    """
    variables: dict = {-1: False}
    implications: dict = {}
    todo = [(f, False)]
    pop, push = todo.pop, todo.append
    while todo:
        g, s = pop()
        t = type(g)
        if t is Implies:
            states, key = implications, id(g)
        else:
            states, key = variables, -1 if t is Bottom else index[g]
        old = states.get(key)
        if old is s:
            continue
        if old is (not s):
            return None
        states[key] = s
        if old:
            for awaited, h, sign in old:
                if awaited is s:
                    push((h, sign))
        if t is not Implies:
            continue
        a, b = g.lhs, g.rhs
        if not s:
            push((b, False))
            push((a, True))
            continue
        for side, awaited, h, sign in ((a, True, b, True), (b, False, a, False)):
            t = type(side)
            if t is Implies:
                states, key = implications, id(side)
            else:
                states, key = variables, -1 if t is Bottom else index[side]
            old = states.get(key)
            if old is awaited:
                push((h, sign))
            elif old is None:
                states[key] = [(awaited, h, sign)]
            elif type(old) is list:
                old.append((awaited, h, sign))
    return {i: s for i, s in variables.items() if i >= 0 and type(s) is bool}


def is_tautology(f: Formula, max_vars: int = DEFAULT_VARIABLE_LIMIT) -> bool:
    """Whether f holds under every assignment to its propositional skeleton.

    Box and atom subformulas are opaque variables, so the check is exact
    for propositional consequences and deliberately blind to modal ones.
    The signs that "f is false" forces are propagated first
    (``_forced_signs``); if they clash, f is a tautology with no table at
    all. Otherwise the truth table is built over only the variables left
    unfixed, the fixed ones taking their forced values, so it is never
    larger than the full table. Raises VariableLimitError when the
    skeleton has more than ``max_vars`` variables, before any of this.
    """
    index = _numbered(f, max_vars)
    fixed = _forced_signs(f, index)
    if fixed is None:
        return True
    masks, full = _truth_table(len(index), fixed)
    return _mask(f, index, masks, full) == full


# --- scope-sorted conjunctive normal form ---------------------------------

def _merge_clause(left, right):
    seen = set()
    out = []
    for lit in (*left, *right):
        var, pol = lit
        if (var, not pol) in seen:
            return None  # clause contains a literal and its negation
        if lit not in seen:
            seen.add(lit)
            out.append(lit)
    return out


def _cnf_clauses(f: Formula, index: dict[Formula, int]):
    """Clauses of f as lists of (variable, polarity) literals, each listed
    once, where it first appears. a -> b is !a | b and !(a -> b) is a & !b,
    so an lhs takes the opposite polarity. Work items are (formula,
    polarity, sides done); a finished item leaves its clauses on ``done``
    and in ``kept``, so a shared implication is converted once a polarity."""
    done = []
    kept = {}  # (id of an implication, polarity) -> its clauses
    stack = [(f, True, False)]
    while stack:
        g, pol, sides_done = stack.pop()
        if sides_done:
            right = done.pop()
            left = done.pop()
            if pol:
                clauses = (_merge_clause(cl, cr) for cl in left for cr in right)
                clauses = list({tuple(c): c for c in clauses if c is not None}.values())
            else:
                clauses = left + right
            done.append(kept.setdefault((id(g), pol), clauses))
        elif (id(g), pol) in kept:
            done.append(kept[id(g), pol])
        elif type(g) is Implies:
            stack += ((g, pol, True), (g.rhs, pol, False), (g.lhs, not pol, False))
        elif type(g) is Bottom:
            done.append([[]] if pol else [])
        else:
            done.append([[(index[g], pol)]])
    return done[0]


def scoped_cnf(
    f: Formula, max_vars: int = DEFAULT_VARIABLE_LIMIT
) -> list[list[Formula]]:
    """Conjunctive normal form whose literals each mention at most one channel.

    Literals are the maximal box/atom subformulas of f or their negations
    (written L -> false), so every literal's scope has size at most one.
    Clause and literal order follow first appearance in a left-to-right
    traversal, making the output deterministic. The result is equivalent
    to f at skeleton level; the equivalence is re-checked here on the full
    truth table and a failure would be an internal error.
    """
    index = _numbered(f, max_vars)
    masks, full = _truth_table(len(index), {})
    clauses = _cnf_clauses(f, index)

    got = full
    for clause in clauses:
        clause_mask = 0
        for var, pol in clause:
            clause_mask |= masks[var] if pol else (full ^ masks[var])
        got &= clause_mask
    if got != _mask(f, index, masks, full):
        raise RuntimeError("internal error: CNF is not equivalent to its input")

    bindings = tuple(index)
    return [
        [bindings[var] if pol else Implies(bindings[var], Bottom()) for var, pol in clause]
        for clause in clauses
    ]


def cnf_to_formula(clauses: list[list[Formula]]) -> Formula:
    """Fold CNF output back into one core formula (left-associated)."""
    if not clauses:
        return truth()

    def clause_formula(lits: list[Formula]) -> Formula:
        if not lits:
            return Bottom()
        g = lits[0]
        for lit in lits[1:]:
            g = disj(g, lit)
        return g

    out = clause_formula(clauses[0])
    for clause in clauses[1:]:
        out = conj(out, clause_formula(clause))
    return out
