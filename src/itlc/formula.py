"""Syntax of the intuitionistic temporal language.

Formulas are immutable trees built from bottom, atoms, the connectives
and/or/implies, and the modalities next, eventually, henceforth, forall,
exists.  Negation `~a` abbreviates `a -> #` and `a <-> b` abbreviates
`(a -> b) & (b -> a)`; both are handled by the parser, and `~` also by
the printer.

Concrete grammar::

    formula := impl
    impl    := or ('->' impl)? | or '<->' or
    or      := and ('|' and)*
    and     := unary ('&' unary)*
    unary   := ('~'|'X'|'<>'|'[]'|'A'|'E') unary | atom | '#' | '(' formula ')'
    atom    := [a-z][a-zA-Z0-9_]*

Precedence: unary > '&' > '|' > '->' (right associative).

Nesting is bounded: parse refuses a formula nested more than MAX_NESTING
levels deep, counting parentheses as well as operators, because the
printers and a formula's first hash recurse over the tree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

from .errors import ParseError


class Formula:
    """Base class of all formula nodes, which are frozen dataclasses.

    A node's hash covers its type and its operands.  It is computed on
    first use and cached, so each node is hashed once and operands shared
    by '<->' are never walked twice; equality walks two formulas
    pairwise, each pair of nodes once.  The cached hash is no dataclass
    field: equality, repr, pickling and copying see only the operands.
    """

    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:  # first use; the operands cache theirs in turn
            value = hash((type(self), *(getattr(self, name) for name in self.__match_args__)))
            object.__setattr__(self, "_hash", value)
            return value

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Formula):
            return NotImplemented
        if type(self) is not type(other) or hash(self) != hash(other):
            return False
        seen: set[tuple[int, int]] = set()
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if type(a) is Atom:
                if a.name != b.name:
                    return False
                continue
            for x, y in zip(children(a), children(b)):
                if x is not y and (id(x), id(y)) not in seen:
                    if type(x) is not type(y):
                        return False
                    seen.add((id(x), id(y)))
                    stack.append((x, y))
        return True

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True, slots=True, eq=False)
class Bottom(Formula):
    pass


@dataclass(frozen=True, slots=True, eq=False)
class Atom(Formula):
    name: str


@dataclass(frozen=True, slots=True, eq=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True, eq=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True, eq=False)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True, eq=False)
class Next(Formula):
    body: Formula


@dataclass(frozen=True, slots=True, eq=False)
class Eventually(Formula):
    body: Formula


@dataclass(frozen=True, slots=True, eq=False)
class Henceforth(Formula):
    body: Formula


@dataclass(frozen=True, slots=True, eq=False)
class Forall(Formula):
    body: Formula


@dataclass(frozen=True, slots=True, eq=False)
class Exists(Formula):
    body: Formula


BOT = Bottom()


def neg(f: Formula) -> Formula:
    return Implies(f, BOT)


class Modality(Enum):
    NEXT = "X"
    EVENTUALLY = "<>"
    HENCEFORTH = "[]"
    FORALL = "A"
    EXISTS = "E"


#: Modalities admitted by the decision procedure (after exists-elimination).
DIAMOND_FRAGMENT = frozenset({Modality.NEXT, Modality.EVENTUALLY, Modality.FORALL})

_UNARY = {Next: Modality.NEXT, Eventually: Modality.EVENTUALLY,
          Henceforth: Modality.HENCEFORTH, Forall: Modality.FORALL,
          Exists: Modality.EXISTS}


def children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, (And, Or, Implies)):
        return (f.left, f.right)
    if isinstance(f, (Next, Eventually, Henceforth, Forall, Exists)):
        return (f.body,)
    return ()


# ---------------------------------------------------------------------------
# Parsing

_UNARY_TOKENS = {"~", "X", "<>", "[]", "A", "E"}

#: Deepest nesting parse accepts.  Exists elimination triples the depth, the
#: printer takes two stack frames per level and a formula's first hash one,
#: so this stays well inside Python's default recursion limit.
MAX_NESTING = 100
_TOO_DEEP = f"formula nested deeper than {MAX_NESTING} levels"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Yield (kind, value, position) triples; kind is 'op' or 'atom'."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "<":
            if text.startswith("<->", i):
                tokens.append(("op", "<->", i))
                i += 3
            elif text.startswith("<>", i):
                tokens.append(("op", "<>", i))
                i += 2
            else:
                raise ParseError("unknown token '<'", i)
        elif text.startswith("->", i):
            tokens.append(("op", "->", i))
            i += 2
        elif text.startswith("[]", i):
            tokens.append(("op", "[]", i))
            i += 2
        elif c in "~&|()#XAE":
            tokens.append(("op", c, i))
            i += 1
        elif c.islower():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("atom", text[i:j], i))
            i = j
        else:
            raise ParseError(f"unknown token {c!r}", i)
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.text = text
        self.depth = 0

    def deeper(self, position: int) -> None:
        """Enter one nesting level; the caller leaves it with depth -= 1."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(_TOO_DEEP, position)

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.pos += 1
        return tok

    def expect(self, value: str) -> None:
        tok = self.take()
        if tok[0] != "op" or tok[1] != value:
            raise ParseError(f"expected {value!r}, found {tok[1]!r}", tok[2])

    def impl(self) -> Formula:
        left = self.disj()
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "->":
            self.take()
            self.deeper(tok[2])
            right = self.impl()
            self.depth -= 1
            return Implies(left, right)
        if tok and tok[0] == "op" and tok[1] == "<->":
            self.take()
            right = self.disj()
            return And(Implies(left, right), Implies(right, left))
        return left

    def disj(self) -> Formula:
        f = self.conj()
        while (tok := self.peek()) and tok[0] == "op" and tok[1] == "|":
            self.take()
            f = Or(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.unary()
        while (tok := self.peek()) and tok[0] == "op" and tok[1] == "&":
            self.take()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        tok = self.take()
        kind, value, pos = tok
        if kind == "atom":
            return Atom(value)
        if value == "#":
            return BOT
        if value == "(":
            self.deeper(pos)
            f = self.impl()
            self.expect(")")
            self.depth -= 1
            return f
        if value in _UNARY_TOKENS:
            self.deeper(pos)
            body = self.unary()
            self.depth -= 1
            return {"~": lambda b: Implies(b, BOT), "X": Next, "<>": Eventually,
                    "[]": Henceforth, "A": Forall, "E": Exists}[value](body)
        raise ParseError(f"unexpected token {value!r}", pos)


def parse(text: str) -> Formula:
    """Parse formula text into its unique AST."""
    parser = _Parser(text)
    f = parser.impl()
    tok = parser.peek()
    if tok is not None:
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    # chains of '&' and '|' nest the tree without nesting the parser
    if _height(f) > MAX_NESTING:
        raise ParseError(_TOO_DEEP, 0)
    return f


def _height(f: Formula) -> int:
    """Operator levels of the syntax tree (0 for a leaf), counted without
    recursion.  '<->' shares its operands, so a node is walked again only
    when reached at a deeper level."""
    deepest: dict[int, int] = {}
    stack = [(f, 0)]
    while stack:
        g, level = stack.pop()
        if deepest.get(id(g), -1) >= level:
            continue
        deepest[id(g)] = level
        stack.extend((c, level + 1) for c in children(g))
    return max(deepest.values())


# ---------------------------------------------------------------------------
# Printing

_IMPL, _OR, _AND, _UNARY_LVL, _ATOM = 0, 1, 2, 3, 4


def _render(f: Formula, min_level: int) -> str:
    if isinstance(f, Bottom):
        return "#"
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Implies) and f.right == BOT:
        text, level = "~" + _render(f.left, _UNARY_LVL), _UNARY_LVL
    elif type(f) in _UNARY:
        text, level = _UNARY[type(f)].value + _render(children(f)[0], _UNARY_LVL), _UNARY_LVL
    elif isinstance(f, And):
        text, level = _render(f.left, _AND) + " & " + _render(f.right, _AND + 1), _AND
    elif isinstance(f, Or):
        text, level = _render(f.left, _OR) + " | " + _render(f.right, _OR + 1), _OR
    else:  # Implies, right associative
        text, level = _render(f.left, _IMPL + 1) + " -> " + _render(f.right, _IMPL), _IMPL
    return f"({text})" if level < min_level else text


def format_formula(f: Formula) -> str:
    """Render with minimal parentheses; parse(format_formula(f)) == f."""
    return _render(f, _IMPL)


# ---------------------------------------------------------------------------
# Structural operations

def subformulas(f: Formula) -> tuple[Formula, ...]:
    """All subformulas in post-order of first occurrence, deduplicated."""
    acc: list[Formula] = []
    seen: set[Formula] = set()
    stack = [(f, False)]
    while stack:
        g, expanded = stack.pop()
        if expanded:  # a formula never occurs inside itself, so g is new
            seen.add(g)
            acc.append(g)
        elif g not in seen:
            stack.append((g, True))
            for c in reversed(children(g)):
                stack.append((c, False))
    return tuple(acc)


def eliminate_exists(f: Formula) -> Formula:
    """Rewrite every exists subterm, innermost first, to ~A~body.

    The result evaluates to the same truth set on every model.  Each
    distinct subformula is rewritten once, so operands shared by '<->'
    stay shared.
    """
    out: dict[Formula, Formula] = {}
    for g in subformulas(f):  # post-order: operands are rewritten first
        if isinstance(g, Exists):
            out[g] = neg(Forall(neg(out[g.body])))
        elif isinstance(g, (And, Or, Implies)):
            out[g] = type(g)(out[g.left], out[g.right])
        elif isinstance(g, (Next, Eventually, Henceforth, Forall)):
            out[g] = type(g)(out[g.body])
        else:
            out[g] = g
    return out[f]


def fragment_of(f: Formula) -> frozenset[Modality]:
    """The exact set of modalities occurring in the formula."""
    return frozenset(_UNARY[type(g)] for g in subformulas(f) if type(g) in _UNARY)


def in_diamond_fragment(f: Formula) -> bool:
    return fragment_of(f) <= DIAMOND_FRAGMENT


# ---------------------------------------------------------------------------
# Translation into the classical bimodal language

def godel_tarski(f: Formula) -> str:
    """Print the interior-modality translation of a formula.

    Clauses: atoms gain a leading interior modality, implication becomes
    an interior-guarded classical arrow, henceforth gains an interior
    guard, everything else maps homomorphically.  Rendered tokens:
    '*' interior, '->' classical arrow, 'X'/'<>'/'[]'/'A'/'E'/'#' as in
    the source syntax.
    """
    if isinstance(f, Bottom):
        return "#"
    if isinstance(f, Atom):
        return "*" + f.name
    if isinstance(f, Implies):
        return f"*({godel_tarski(f.left)} -> {godel_tarski(f.right)})"
    if isinstance(f, And):
        return f"({godel_tarski(f.left)} & {godel_tarski(f.right)})"
    if isinstance(f, Or):
        return f"({godel_tarski(f.left)} | {godel_tarski(f.right)})"
    if isinstance(f, Henceforth):
        return "*[]" + godel_tarski(f.body)
    op = {Next: "X", Eventually: "<>", Forall: "A", Exists: "E"}[type(f)]
    return op + godel_tarski(f.body)


# ---------------------------------------------------------------------------
# Random generation (test and demo plumbing)

def random_formula(rng: random.Random, depth: int, atoms: tuple[str, ...] = ("p", "q"),
                   modalities: frozenset[Modality] = frozenset(Modality)) -> Formula:
    """Seeded random formula of the given maximum depth."""
    leaves = [Atom(a) for a in atoms] + [BOT]
    if depth <= 0:
        return rng.choice(leaves)
    ops: list[object] = [And, Or, Implies]
    unary = {Modality.NEXT: Next, Modality.EVENTUALLY: Eventually,
             Modality.HENCEFORTH: Henceforth, Modality.FORALL: Forall,
             Modality.EXISTS: Exists}
    ops.extend(unary[m] for m in sorted(modalities, key=lambda m: m.value))
    ops.append(None)  # stop early
    op = rng.choice(ops)
    if op is None:
        return rng.choice(leaves)
    if op in (And, Or, Implies):
        return op(random_formula(rng, depth - 1, atoms, modalities),
                  random_formula(rng, depth - 1, atoms, modalities))
    return op(random_formula(rng, depth - 1, atoms, modalities))
