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
    atom    := lower (letter | digit | '_')*

Precedence: unary > '&' > '|' > '->' (right associative).  Letters and
digits are Unicode ones: `lower` is a character for which `str.islower`
holds, `letter | digit` one for which `str.isalnum` does, and whitespace
one for which `str.isspace` does, so `é1` and `ßq` are atoms.  The
letters `X`, `A` and `E` are operators wherever a token starts: `Xp` is
X applied to `p`, while `pX` is one atom.

Formulas are hash-consed (see `Formula`): each formula is one object, so
equality and hashing are identity, with no cached hash and no equality
walk, and the operands '<->' shares are shared without extra work.  No
walk in this module recurses over a formula.  Nesting is bounded all
the same: parse refuses a formula nested more than MAX_NESTING levels
deep, counting parentheses as well as operators, because the parser
recurses once per level.
"""

from __future__ import annotations

import random
import re
import threading
import weakref
from dataclasses import dataclass
from enum import Enum

from .errors import ParseError


class Formula:
    """Base class of all formula nodes, which are frozen dataclasses.

    Nodes are hash-consed: building a node looks its type and operands up
    in one weak table and returns the live node if there is one, so equal
    formulas are one object, whether built through the API, parsed,
    copied or unpickled.  Equality and hashing are identity, with no
    cached hash and no equality walk, and '<->' shares its operands
    without extra work.  Keywords name the operands, as in
    `And(left=p, right=q)`.  A node's printed text and its child tuple
    (`children`) are kept on it and are no dataclass fields: repr,
    pickling and copying see only the operands.
    """

    __slots__ = ("_text", "_children", "__weakref__")

    def __new__(cls, *operands, **named):
        if named:  # keywords fill the operands after the positional ones
            operands += tuple(named.pop(name) for name in cls.__match_args__[len(operands):]
                              if name in named)
        if named or len(operands) != len(cls.__match_args__):
            raise TypeError(f"{cls.__name__} takes the operands {cls.__match_args__}")
        key = (cls, *operands)
        with _LOCK:  # look up and insert as one step
            node = _NODES.get(key)
            if node is None:
                node = _NODES[key] = object.__new__(cls)
                for name, value in zip(cls.__match_args__, operands):
                    object.__setattr__(node, name, value)
                object.__setattr__(node, "_children", () if cls is Atom else operands)
        return node

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __str__(self) -> str:
        return format_formula(self)


#: The live node of each (node type, *operands); a node leaves it when dropped.
_NODES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_LOCK = threading.Lock()


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Bottom(Formula):
    pass


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Atom(Formula):
    name: str


@dataclass(frozen=True, slots=True, eq=False, init=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Next(Formula):
    body: Formula


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Eventually(Formula):
    body: Formula


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Henceforth(Formula):
    body: Formula


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Forall(Formula):
    body: Formula


@dataclass(frozen=True, slots=True, eq=False, init=False)
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
    return f._children


# ---------------------------------------------------------------------------
# Parsing

_SYMBOLS = {m.value: t for t, m in _UNARY.items()}  # modality symbol -> node type

#: Deepest nesting parse accepts.  The parser takes a few stack frames per
#: level, so this stays well inside Python's default recursion limit.
MAX_NESTING = 100
_TOO_DEEP = f"formula nested deeper than {MAX_NESTING} levels"


#: An operator, or else a non-space character and the word characters after
#: it, an atom when that character is lower case (some, like 'ⓐ', are not word
#: characters).  Every character between two matches is whitespace.
_TOKEN = re.compile(r"(<->|<>|->|\[\]|[~&|()#XAE])|\S\w*")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, value, position) triples; kind is 'op' or 'atom'."""
    tokens = []
    for match in _TOKEN.finditer(text):
        value, position = match.group(), match.start()
        if match.lastindex:
            tokens.append(("op", value, position))
        elif value[0].islower():
            tokens.append(("atom", value, position))
        else:
            raise ParseError(f"unknown token {value[0]!r}", position)
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
        if value == "~" or value in _SYMBOLS:
            self.deeper(pos)
            body = self.unary()
            self.depth -= 1
            return neg(body) if value == "~" else _SYMBOLS[value](body)
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
    deepest: dict[Formula, int] = {}
    stack = [(f, 0)]
    while stack:
        g, level = stack.pop()
        if deepest.get(g, -1) >= level:
            continue
        deepest[g] = level
        stack.extend((c, level + 1) for c in children(g))
    return max(deepest.values())


# ---------------------------------------------------------------------------
# Printing

_IMPL, _OR, _AND, _UNARY_LVL = 0, 1, 2, 3
# (prefix, infix, level, least bare level per operand) by node type; "~" for a -> #
_SHAPES = {**{t: (s, "", _UNARY_LVL, (_UNARY_LVL,)) for s, t in [*_SYMBOLS.items(), ("~", "~")]},
           And: ("", " & ", _AND, (_AND, _AND + 1)), Or: ("", " | ", _OR, (_OR, _OR + 1)),
           Implies: ("", " -> ", _IMPL, (_IMPL + 1, _IMPL))}


def _texts(formulas, ops) -> list[str]:
    """The texts of formulas listed after their operands; ops is their
    `operand_table`.  These are the only printing rules: each text is built
    once from its operands' texts and levels, in time linear in the total
    text length."""
    out: list[tuple[str, int]] = []  # (text, level)
    for f, (op, a, b) in zip(formulas, ops):
        if a is None:
            text, level = ("#" if op is Bottom else f.name), _UNARY_LVL
        else:
            pre, infix, level, least = _SHAPES["~" if op is Implies and ops[b][0] is Bottom else op]
            text = pre + infix.join([out[k][0] if out[k][1] >= bare else f"({out[k][0]})"
                                     for k, bare in zip((a, b), least)])
        out.append((text, level))
    return [text for text, _ in out]


def format_texts(formulas, ops) -> tuple[str, ...]:
    """`_texts`, each cached on its node: a context's texts are read again
    by every certificate, verifier and profile list built over it."""
    texts = _texts(formulas, ops)
    for f, text in zip(formulas, texts):
        object.__setattr__(f, "_text", text)
    return tuple(texts)


def format_formula(f: Formula) -> str:
    """Render with minimal parentheses; parse(format_formula(f)) is f.
    Printed by `_texts` over `subformulas(f)`, once per distinct
    subformula, so the operands '<->' shares are printed once.  Only f's
    own text is cached: the texts of a chain's subformulas add up to the
    square of its depth."""
    if not hasattr(f, "_text"):
        nodes = subformulas(f)
        position = {g: k for k, g in enumerate(nodes)}
        texts = _texts(nodes, operand_table(nodes, position.__getitem__))
        object.__setattr__(f, "_text", texts[-1])
    return f._text


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


def operand_table(formulas, position) -> tuple[tuple[type, int | None, int | None], ...]:
    """(node type, first operand position, second operand position) of each formula,
    read by calling position on each operand and padded with None; the context,
    printer and model checker read it."""
    return tuple([(type(f), position(ops[0]), position(ops[1])) if len(ops) == 2 else
                  (type(f), position(ops[0]) if ops else None, None)
                  for f in formulas for ops in [children(f)]])


def eliminate_exists(f: Formula) -> Formula:
    """Rewrite every exists subterm, innermost first, to ~A~body.

    The result evaluates to the same truth set on every model.  Each
    distinct subformula is rewritten once, keyed by identity (nodes are
    hash-consed: no cached hash, no equality walk), so operands shared by
    '<->' stay shared without extra work, and a formula without exists
    comes back as the same object.
    """
    out: dict[Formula, Formula] = {}
    for g in subformulas(f):  # post-order: operands are rewritten first
        operands = [out[c] for c in children(g)]
        out[g] = (neg(Forall(neg(*operands))) if isinstance(g, Exists)
                  else type(g)(*operands) if operands else g)
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
    the source syntax.  Each distinct subformula's text is built once,
    bottom up, from its operands' texts.
    """
    text: dict[Formula, str] = {}
    for g in subformulas(f):  # post-order: operands come first
        if isinstance(g, Bottom):
            text[g] = "#"
        elif isinstance(g, Atom):
            text[g] = "*" + g.name
        elif isinstance(g, Implies):
            text[g] = f"*({text[g.left]} -> {text[g.right]})"
        elif isinstance(g, (And, Or)):
            text[g] = f"({text[g.left]}{_SHAPES[type(g)][1]}{text[g.right]})"
        else:
            text[g] = ("*[]" if isinstance(g, Henceforth) else _UNARY[type(g)].value) + text[g.body]
    return text[f]


# ---------------------------------------------------------------------------
# Random generation (test and demo plumbing)

def random_formula(rng: random.Random, depth: int, atoms: tuple[str, ...] = ("p", "q"),
                   modalities: frozenset[Modality] = frozenset(Modality)) -> Formula:
    """Seeded random formula of the given maximum depth."""
    leaves = [Atom(a) for a in atoms] + [BOT]
    if depth <= 0:
        return rng.choice(leaves)
    unary = [t for t, m in sorted(_UNARY.items(), key=lambda tm: tm[1].value) if m in modalities]
    op = rng.choice([And, Or, Implies, *unary, None])  # None stops early
    if op is None:
        return rng.choice(leaves)
    if op in (And, Or, Implies):
        return op(random_formula(rng, depth - 1, atoms, modalities),
                  random_formula(rng, depth - 1, atoms, modalities))
    return op(random_formula(rng, depth - 1, atoms, modalities))
