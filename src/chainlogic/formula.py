"""Formulas over channel-indexed atoms and knowledge modalities.

The core language has four constructors: the false constant, atoms tagged
with the channel they describe, implication, and a box modality indexed by
a channel. Negation, conjunction, disjunction, the true constant, and the
diamond modality exist only in concrete syntax and are eliminated while
parsing, so every analysis below sees the four core forms only.
"""

from __future__ import annotations

import math
import re

# Channel indices are kept inside the signed 64-bit range; anything wider
# is rejected while parsing instead of silently wrapping elsewhere.
CHANNEL_MIN = -(1 << 63)
CHANNEL_MAX = (1 << 63) - 1


class FormulaSyntaxError(ValueError):
    """Malformed concrete syntax; carries the 0-based input offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class _Frozen:
    """The one base of the package's immutable value classes: equality,
    hash and repr go by the fields named in ``__match_args__``, as a frozen
    dataclass's would, and the fields are set once, by the constructor."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls):
        """Give a subclass without an ``__init__`` of its own the constructor
        a frozen dataclass would get: one argument per annotated field,
        defaulting to the class attribute of its name, then
        ``__post_init__`` if the class has one. A class that declares
        ``__slots__`` and no field keeps ``object.__init__``. A field that is
        a slot is set through its slot descriptor and has no default (the
        class attribute of its name is the descriptor), and every other
        slot in the MRO starts as None. Compiled from source, as in
        ``dataclasses``, with each slot's bound setter as a global, it is
        as fast as one written by hand."""
        own = vars(cls)
        names = tuple(own.get("__annotations__", ()))
        if "__init__" in own or "__slots__" in own and not names:
            return
        cls.__match_args__ = names
        slots = [s for c in cls.__mro__ for s in vars(c).get("__slots__", ())]
        params = ["self"] + [n if n in slots or n not in own else f"{n}=_own[{n!r}]" for n in names]
        body = [f"_set_{n}(self, {n})" if n in slots else f"_set(self, {n!r}, {n})" for n in names]
        body += [f"_set_{s}(self, None)" for s in slots if s not in names]
        if hasattr(cls, "__post_init__"):
            body.append("self.__post_init__()")
        namespace = {"__name__": cls.__module__, "_set": object.__setattr__, "_own": own}
        namespace.update({f"_set_{s}": getattr(cls, s).__set__ for s in slots})
        exec(f"def __init__({', '.join(params)}):\n " + "\n ".join(body or ["pass"]), namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        """The constructor call with keyword fields, e.g. ``Box(channel=0,
        body=Bottom())``, built from an explicit stack of pending text and
        nodes, so nesting depth costs no recursion."""
        parts = []
        stack: list = [self]
        while stack:
            x = stack.pop()
            if type(x) is str:
                parts.append(x)
                continue
            stack.append(")")
            names = type(x).__match_args__
            for i in range(len(names) - 1, -1, -1):
                value = getattr(x, names[i])
                stack.append(value if isinstance(value, _Frozen) else repr(value))
                stack.append(f"{', ' if i else ''}{names[i]}=")
            stack.append(type(x).__qualname__ + "(")
        return "".join(parts)


def _json_object(obj, allowed: frozenset, required: tuple, where: str, error: type) -> None:
    """Raise ``error`` unless obj is a JSON object with keys among
    ``allowed`` and every key of ``required``. The message names ``where``
    and the keys at fault: unknown keys sorted, missing keys in the order
    of ``required``. The file loaders of protocols and proof scripts check
    each object they read with it; a well-formed object allocates nothing."""
    if not isinstance(obj, dict):
        raise error(f"{where} must be a JSON object")
    if not allowed.issuperset(obj):
        raise error(f"unknown keys in {where}: {', '.join(sorted(map(str, obj.keys() - allowed)))}")
    for key in required:
        if key not in obj:
            raise error(f"{where} lacks {', '.join(repr(k) for k in required if k not in obj)}")


class Bottom(_Frozen):
    """The false constant."""

    __slots__ = ()
    _hash = hash("false")  # the finished hash _structural_hash reads; not a field


def _structural_hash(self) -> int:
    """Hash of the formula's structure.

    Each node computes it on first use and keeps it in its ``_hash`` slot,
    which equality and repr ignore, so memo lookups keyed by a formula cost
    O(1) after the first. The nodes still lacking a hash are hashed from an
    explicit stack, children first, so a deeply nested formula needs no
    recursion; a node stays on the stack until its children are hashed,
    so the subformulas of a shared node are walked once.
    """
    h = self._hash
    if h is not None:
        return h
    stack = [self]
    push = stack.append
    while stack:
        g = stack[-1]
        t = type(g)
        if t is Implies:
            a, b = g.lhs, g.rhs
            if a._hash is None or b._hash is None:
                if b._hash is None:
                    push(b)
                if a._hash is None:
                    push(a)
                continue
            h = hash((a._hash, b._hash))
        elif t is Box:
            if g.body._hash is None:
                push(g.body)
                continue
            # The third entry sets a box apart from an atom and an
            # implication; an int, as None's hash is its address.
            h = hash((g.channel, g.body._hash, 0))
        else:
            h = hash((g.channel, g.name))
        stack.pop()
        _set_hash(g, h)
    return self._hash


def _structural_eq(self, other) -> bool:
    """Structural equality of implications and boxes, from an explicit
    stack so that deeply nested formulas compare without recursion. Shared
    subformulas are skipped by identity, an implication met again with the
    partner it was last compared with is skipped, so formulas that share
    subformulas compare in time linear in their distinct nodes, and two
    nodes whose cached hashes differ are unequal at once. Atoms keep the
    generated field-wise equality: they have no subformulas.
    """
    if self is other:
        return True
    if type(other) is not type(self):
        return NotImplemented
    stack = [self, other]  # pairs to compare, flattened
    pop, push = stack.pop, stack.append
    partner = {}  # id of an implication -> the node it was last compared with
    while stack:
        b = pop()
        a = pop()
        t = type(a)
        if t is not type(b):
            return False
        ha = a._hash
        if ha is not None:
            hb = b._hash
            if hb is not None and ha != hb:
                return False
        if t is Implies:
            if partner.get(id(a)) is b:
                continue
            partner[id(a)] = b
            x, y = a.rhs, b.rhs
            if x is not y:
                push(x)
                push(y)
            x, y = a.lhs, b.lhs
            if x is not y:
                push(x)
                push(y)
        elif t is Box:
            if a.channel != b.channel:
                return False
            x, y = a.body, b.body
            if x is not y:
                push(x)
                push(y)
        elif t is Atom:
            if a.channel != b.channel or a.name != b.name:
                return False
    return True


class _Node(_Frozen):
    """Holds the cached structural hash of a non-constant formula node.

    A node's fields are the slots it names in ``__match_args__``; ``_hash``
    is state but not a field: equality and repr ignore it. The constructor
    ``_Frozen`` compiles fills the slots through the slot descriptors,
    since the frozen ``__setattr__`` refuses assignment, and starts
    ``_hash`` as None.
    """

    __slots__ = ("_hash",)

    def __reduce__(self):
        # Copy and pickle rebuild through the constructors (frozen fields
        # refuse assignment, and the cached hash is not state) from one flat
        # encoding, so nesting depth costs no recursion.
        return _unflatten, (_flatten(self),)


class Atom(_Node):
    """A proposition about the value of one channel.

    The channel index is part of the atom's identity, so p@1 and p@2 are
    distinct atoms even though they share a name.
    """

    __slots__ = ("channel", "name")
    channel: int
    name: str

    __hash__ = _structural_hash


class Implies(_Node):
    """Material implication."""

    __slots__ = ("lhs", "rhs")
    lhs: "Formula"
    rhs: "Formula"

    __eq__ = _structural_eq
    __hash__ = _structural_hash


class Box(_Node):
    """Channel-indexed knowledge: the body holds on every run that agrees
    with the current one at this channel."""

    __slots__ = ("channel", "body")
    channel: int
    body: "Formula"

    __eq__ = _structural_eq
    __hash__ = _structural_hash


_set_hash = _Node._hash.__set__


Formula = Bottom | Atom | Implies | Box


def _flatten(f: Formula) -> tuple:
    """f as a tuple of entries in post-order, one per distinct node object,
    so a shared subformula is encoded once and stays shared: ``(Atom,
    channel, name)``, ``(Bottom,)``, and ``(Implies, i, j)`` and ``(Box,
    channel, i)``, where i and j are the positions of the children's
    entries. Built from an explicit stack that visits each node once: a
    node with children goes back on the stack with a None marker above it
    and its children above that. Each finished subformula leaves its
    position on a second stack, so when the marker comes off, the node's
    children's positions are on top there and no child is looked up."""
    index: dict[int, int] = {}  # id of a node -> position of its entry
    entries = []
    done = []  # positions of the finished children of the marked nodes
    stack = [f]
    pop, push, finish = stack.pop, stack.append, done.append
    while stack:
        g = pop()
        if g is None:  # every child of the node under the marker is done
            g = pop()
            if type(g) is Implies:
                b = done.pop()
                entry = (Implies, done.pop(), b)
            else:
                entry = (Box, g.channel, done.pop())
        else:
            i = index.get(id(g))
            if i is not None:
                finish(i)
                continue
            t = type(g)
            if t is Implies:
                push(g)
                push(None)
                push(g.rhs)
                push(g.lhs)
                continue
            if t is Box:
                push(g)
                push(None)
                push(g.body)
                continue
            entry = (Atom, g.channel, g.name) if t is Atom else (Bottom,)
        i = index[id(g)] = len(entries)
        entries.append(entry)
        finish(i)
    return tuple(entries)


def _unflatten(entries: tuple) -> Formula:
    """The formula ``_flatten`` encoded as ``entries``, sharing what it
    shared."""
    nodes = []
    for entry in entries:
        t = entry[0]
        if t is Implies:
            nodes.append(Implies(nodes[entry[1]], nodes[entry[2]]))
        elif t is Box:
            nodes.append(Box(entry[1], nodes[entry[2]]))
        else:
            nodes.append(t(*entry[1:]))
    return nodes[-1]


# --- sugar, eliminated at parse time -------------------------------------

def neg(f: Formula) -> Formula:
    return Implies(f, Bottom())


def truth() -> Formula:
    return Implies(Bottom(), Bottom())


def disj(a: Formula, b: Formula) -> Formula:
    return Implies(Implies(a, Bottom()), b)


def conj(a: Formula, b: Formula) -> Formula:
    return Implies(Implies(a, Implies(b, Bottom())), Bottom())


def diamond(channel: int, f: Formula) -> Formula:
    return neg(Box(channel, neg(f)))


# --- concrete syntax ------------------------------------------------------
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

# One regular expression splits the text into lexemes, plain strings told
# apart by their first character, and one loop with an explicit operator
# stack (operator precedence, as in Dijkstra's shunting yard) builds the
# core AST from them, so nesting costs heap, not recursion. No offset is
# kept: only ``_syntax_error`` finds one, by matching the text again. The
# loop checks each lexeme it consumes, so the lexemes before the one it
# fails at are sound, and a lexical error anywhere still comes ahead of a
# syntax error: ``_syntax_error`` reports the first at or after the failure.

_LEXEMES = re.compile(r"->|[\][<>()!&|@]|-?[0-9]+|[A-Za-z_][A-Za-z0-9_]*|\S")


def _syntax_error(text: str, i: int, message: str) -> FormulaSyntaxError:
    """The error for parsing text that failed with ``message`` at lexeme i
    (i past the last lexeme for the end), unless a lexical error comes at
    or after lexeme i: then the first of those, a lone '-', a stray
    character or a channel outside the signed 64-bit range."""
    matches = list(_LEXEMES.finditer(text))
    for m in matches[i:]:
        s = m[0]
        c = s[0]
        if "0" <= c <= "9" or c == "-" and "0" <= s[1:2] <= "9":
            if _channel_value(s) is None:
                message = "channel index outside the representable range"
                return FormulaSyntaxError(message, m.start())
        elif not ("a" <= c <= "z" or "A" <= c <= "Z" or c == "_" or s == "->" or s in "[]<>()!&|@"):
            message = "unexpected '-'" if s == "-" else f"unexpected character {s!r}"
            return FormulaSyntaxError(message, m.start())
    return FormulaSyntaxError(message, matches[i].start() if i < len(matches) else len(text))


def _channel_value(s: str):
    """The integer lexeme s, or None outside the signed 64-bit range. Past
    19 digits, leading zeros aside, s is outside it, and ``int`` is not
    asked: it refuses a text of more than 4,300 digits."""
    digits = s.lstrip("-0")
    if len(digits) > 19:
        return None
    n = int(digits or "0")
    if s[0] == "-":
        n = -n
    return n if CHANNEL_MIN <= n <= CHANNEL_MAX else None


def _channel(text: str, lexemes: list[str], i: int) -> int:
    """Lexeme i as a channel index: an ASCII integer in the 64-bit range."""
    s = lexemes[i]
    c = s[:1]
    if not ("0" <= c <= "9" or c == "-" and "0" <= s[1:2] <= "9"):
        raise _syntax_error(text, i, "expected a channel index")
    channel = _channel_value(s)
    if channel is None:
        raise _syntax_error(text, i, "channel index outside the representable range")
    return channel


_BINARY = {"&": conj, "|": disj, "->": Implies}
# The operators on the stack that an incoming binary operator applies
# first: & and | are left associative, -> is right associative.
_APPLIED_BEFORE = {"&": ("&",), "|": ("&", "|"), "->": ("&", "|")}


def parse(text: str) -> Formula:
    """Parse concrete syntax into the four-constructor core AST."""
    # A channel lexeme that starts with an ASCII digit is all ASCII digits
    # (``_LEXEMES``), and 18 digits are below 2^63, so such a lexeme is
    # read inline with ``int``; any other goes through ``_channel``.
    lexemes = _LEXEMES.findall(text)
    lexemes.append("")  # the end marker
    ops = []  # "(", binary operators, and prefixes as (lexeme, channel)
    operands = []  # the left operand of each binary operator on ops
    depth = 0  # open parentheses
    i = 0
    while True:
        # An operand: prefixes and "(" wait on the stack, a primary ends it.
        s = lexemes[i]
        c = s[:1]
        i += 1
        if s == "[" or s == "<":
            d = lexemes[i]
            channel = int(d) if "0" <= d[:1] <= "9" and len(d) <= 18 else _channel(text, lexemes, i)
            close = "]" if s == "[" else ">"
            if lexemes[i + 1] != close:
                raise _syntax_error(text, i + 1, f"expected {close!r}")
            ops.append((s, channel))
            i += 2
            continue
        elif "a" <= c <= "z" or "A" <= c <= "Z" or c == "_":
            if s == "false":
                f = Bottom()
            elif s == "true":
                f = truth()
            else:
                if lexemes[i] != "@":
                    raise _syntax_error(text, i, "expected '@' after an atom name")
                d = lexemes[i + 1]
                if "0" <= d[:1] <= "9" and len(d) <= 18:
                    f = Atom(int(d), s)
                else:
                    f = Atom(_channel(text, lexemes, i + 1), s)
                i += 2
        elif s == "!":
            ops.append(("!", None))
            continue
        elif s == "(":
            ops.append("(")
            depth += 1
            continue
        else:
            raise _syntax_error(text, i - 1, "expected a formula")
        # A complete operand f: apply its prefixes, then close groups until
        # a binary operator or the end.
        while True:
            while ops and type(ops[-1]) is tuple:
                s, channel = ops.pop()
                if s == "!":
                    f = neg(f)
                elif s == "[":
                    f = Box(channel, f)
                else:
                    f = diamond(channel, f)
            s = lexemes[i]
            i += 1
            applied_before = _APPLIED_BEFORE.get(s)
            if applied_before is not None:
                while ops and ops[-1] in applied_before:
                    f = _BINARY[ops.pop()](operands.pop(), f)
                operands.append(f)
                ops.append(s)
                break
            if s == ")" and depth:
                while (op := ops.pop()) != "(":
                    f = _BINARY[op](operands.pop(), f)
                depth -= 1
                continue
            if depth:
                raise _syntax_error(text, i - 1, "expected ')'")
            if s:
                raise _syntax_error(text, i - 1, "unexpected trailing input")
            while ops:
                f = _BINARY[ops.pop()](operands.pop(), f)
            return f


def render(f: Formula) -> str:
    """Canonical fully parenthesized core syntax; parse(render(f)) == f."""
    out = []
    stack = [f]  # formulas still to render and the text between them
    while stack:
        g = stack.pop()
        t = type(g)
        if t is str:
            out.append(g)
        elif t is Implies:
            out.append("(")
            stack += (")", g.rhs, " -> ", g.lhs)
        elif t is Box:
            out.append(f"[{g.channel}]")
            stack.append(g.body)
        elif t is Atom:
            out.append(f"{g.name}@{g.channel}")
        else:
            out.append("false")
    return "".join(out)


def _literal_nodes(f: Formula, into_boxes: bool) -> list:
    """The atom and box nodes of f in left-to-right order, a box before the
    nodes in its body; box bodies are entered only when ``into_boxes``.
    Implications and entered boxes are walked once by identity, so a shared
    subformula costs one walk; a shared atom or box may be listed again."""
    out = []
    seen = set()
    stack = [f]
    pop, push, append = stack.pop, stack.append, out.append
    while stack:
        g = pop()
        t = type(g)
        if t is Implies:
            if id(g) not in seen:
                seen.add(id(g))
                push(g.rhs)
                push(g.lhs)
        elif t is Atom:
            append(g)
        elif t is Box:
            append(g)
            if into_boxes and id(g) not in seen:
                seen.add(id(g))
                push(g.body)
    return out


def _leaves(f: Formula) -> dict:
    """Every distinct atom (channel, name) and box (channel, None) anywhere
    in f, as dict keys in left-to-right order."""
    return {
        (g.channel, g.name if type(g) is Atom else None): None
        for g in _literal_nodes(f, True)
    }


# --- scope analysis -------------------------------------------------------

class Scope(_Frozen):
    """Finite channel set with the conventions min of empty = +inf and
    max of empty = -inf, so side-condition inequalities stay total."""
    indices: frozenset[int]

    @property
    def min_val(self) -> int | float:
        return min(self.indices) if self.indices else math.inf

    @property
    def max_val(self) -> int | float:
        return max(self.indices) if self.indices else -math.inf

    def __len__(self) -> int:
        return len(self.indices)


def _scope_set(f: Formula) -> frozenset[int]:
    return frozenset(g.channel for g in _literal_nodes(f, False))


def scope(f: Formula) -> Scope:
    """The minimal channel set whose language contains f.

    Atoms and boxes contribute their own index, implication unions its
    sides, and a box hides every channel mentioned beneath it.
    """
    return Scope(_scope_set(f))


def member_phi(f: Formula, channels) -> bool:
    """True when f lies in the language over the given channel set."""
    return _scope_set(f) <= frozenset(channels)


def channel_support(f: Formula) -> frozenset[int]:
    """Every channel index appearing anywhere in f, at any modal depth."""
    return frozenset(g.channel for g in _literal_nodes(f, True))


def shift_channels(f: Formula, delta: int) -> Formula:
    """Rebuild f with every channel index moved by ``delta``; a subformula
    shared in f is rebuilt once and shared in the result. Atom and Box
    entries of ``_flatten`` carry their channel second."""
    return _unflatten([
        (e[0], e[1] + delta, e[2]) if e[0] is Atom or e[0] is Box else e
        for e in _flatten(f)
    ])


# --- propositional skeleton variables -------------------------------------

def _variables(f: Formula) -> dict[Formula, int]:
    """f's maximal box/atom subformulas, each numbered by first occurrence."""
    index: dict[Formula, int] = {}
    for g in _literal_nodes(f, False):
        index.setdefault(g, len(index))
    return index


def iff(a: Formula, b: Formula) -> Formula:
    return conj(Implies(a, b), Implies(b, a))
