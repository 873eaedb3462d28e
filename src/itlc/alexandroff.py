"""Finite Alexandroff dynamical systems: model checking and analysis.

A finite poset with the down-set topology (opens are the downward closed
sets) and a monotone self-map is a dynamical system.  This module
evaluates the full language over such systems, searches for
countermodels by exhaustive enumeration up to isomorphism, and decides
minimality, recurrence and connectedness directly from their
definitions.  It is deliberately independent of the quasimodel machinery
so the two can check each other.

Element sets are integer bitmasks internally; the public API speaks in
element names.  Each model-checking call compiles its formulas once into
instructions read off `formula.operand_table` and runs them on lanes:
one pass gives each formula's truth masks under up to 256 valuations.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property

from .config import Caps, DEFAULT_CAPS, NO_DEADLINE, Deadline
from .errors import CapExceeded, SchemaError, read_json, write_json
from .formula import (And, Atom, Bottom, Eventually, Exists, Forall, Formula,
                      Henceforth, Implies, Next, Or, operand_table, subformulas)


_NOTHING: frozenset[str] = frozenset()


@dataclass(frozen=True)
class FinitePoset:
    """Finite partial order; down[i] is the bitmask of elements below i."""

    names: tuple[str, ...]
    down: tuple[int, ...]

    def __post_init__(self):
        n = len(self.names)
        if len(set(self.names)) != n:
            raise SchemaError("elements: duplicate names")
        for i in range(n):
            if not self.down[i] >> i & 1:
                raise SchemaError(f"order: not reflexive at {self.names[i]}")
        for i in range(n):
            for j in range(n):
                if self.down[i] >> j & 1:
                    if self.down[j] & ~self.down[i]:
                        raise SchemaError(
                            f"order: not transitive below {self.names[i]}")
                    if i != j and self.down[j] >> i & 1:
                        raise SchemaError(
                            f"order: antisymmetry fails on "
                            f"({self.names[i]}, {self.names[j]})")

    def leq(self, a: int, b: int) -> bool:
        return bool(self.down[b] >> a & 1)

    def __len__(self) -> int:
        return len(self.names)


@dataclass(frozen=True)
class FiniteSystem:
    """A finite poset with a monotone self-map."""

    poset: FinitePoset
    f: tuple[int, ...]

    def __post_init__(self):
        n = len(self.poset)
        if len(self.f) != n or any(not 0 <= y < n for y in self.f):
            raise SchemaError("map: not a total function on the elements")
        if (pair := _disorder(self.poset.down, self.f)) is not None:
            a, b = pair
            raise SchemaError(f"map: not monotone on ({self.names[a]}, {self.names[b]})")

    @property
    def names(self) -> tuple[str, ...]:
        return self.poset.names

    @property
    def down(self) -> tuple[int, ...]:
        return self.poset.down

    def __len__(self) -> int:
        return len(self.poset)

    def full_mask(self) -> int:
        return (1 << len(self.poset)) - 1

    def mask_of(self, members) -> int:
        index = {name: i for i, name in enumerate(self.names)}
        mask = 0
        for name in members:
            if name not in index:
                raise SchemaError(f"unknown element {name!r}")
            mask |= 1 << index[name]
        return mask

    @cached_property
    def _everything(self) -> frozenset[str]:
        return frozenset(self.names)

    def names_of(self, mask: int) -> frozenset[str]:
        """The names of the elements in a mask.  The empty set and the whole
        space, the commonest truth sets, are shared instead of built anew."""
        if not mask:
            return _NOTHING
        if mask == self.full_mask():
            return self._everything
        return frozenset(n for i, n in enumerate(self.names) if mask >> i & 1)


def _trusted(cls, *fields):
    """An instance of a frozen dataclass from fields the caller has already
    built valid, without running its checks again."""
    obj = object.__new__(cls)
    vars(obj).update(zip(cls.__dataclass_fields__, fields))
    return obj


def _disorder(down: tuple[int, ...], f) -> tuple[int, int] | None:
    """The first pair (a, b), a below b, whose images under f are out of
    order, scanning a in the outer loop; None when f is monotone."""
    for a, fa in enumerate(f):
        for b, fb in enumerate(f):
            if down[b] >> a & 1 and not down[fb] >> fa & 1:
                return a, b
    return None


def _converse(rows) -> list[int]:
    """The masks of the converse relation, such as up-sets from down-sets."""
    return [sum(1 << y for y, row in enumerate(rows) if row >> x & 1)
            for x in range(len(rows))]


def _union(masks, members: int) -> int:
    """The union of masks[i] over the elements i of a mask."""
    out = 0
    for i, mask in enumerate(masks):
        if members >> i & 1:
            out |= mask
    return out


def _order_closure(n: int, pairs) -> tuple[int, ...]:
    """Down-set masks of the reflexive-transitive closure of the
    (below, above) index pairs over n elements, by Warshall's algorithm."""
    down = [1 << i for i in range(n)]
    for a, b in pairs:
        down[b] |= 1 << a
    for k in range(n):
        for i in range(n):
            if down[i] >> k & 1:
                down[i] |= down[k]
    return tuple(down)


def system(names, order_pairs, mapping) -> FiniteSystem:
    """Build a system from named data; closes the order reflexively and
    transitively, then checks the invariants."""
    names = tuple(names)
    index = {n: i for i, n in enumerate(names)}
    pairs = []
    for a, b in order_pairs:
        if a not in index or b not in index:
            raise SchemaError(f"order: unknown element in ({a!r}, {b!r})")
        pairs.append((index[a], index[b]))
    down = _order_closure(len(names), pairs)
    for name in mapping:
        if name not in index:
            raise SchemaError(f"map: unknown element {name!r}")
    f = []
    for name in names:
        if name not in mapping:
            raise SchemaError(f"map: no image for {name!r}")
        target = mapping[name]
        if target not in index:
            raise SchemaError(f"map: unknown image {target!r}")
        f.append(index[target])
    return FiniteSystem(FinitePoset(names, down), tuple(f))


# ---------------------------------------------------------------------------
# Topology and semantics

def _interior_mask(X: FiniteSystem, mask: int) -> int:
    out = 0
    for i, below in enumerate(X.down):
        if below & ~mask == 0:
            out |= 1 << i
    return out


def interior(X: FiniteSystem, members) -> frozenset[str]:
    """Largest open (downward closed) subset: points whose cone fits inside."""
    return X.names_of(_interior_mask(X, X.mask_of(members)))


def closure(X: FiniteSystem, members) -> frozenset[str]:
    """Smallest closed superset: complement of the interior of the complement."""
    full = X.full_mask()
    return X.names_of(full & ~_interior_mask(X, full & ~X.mask_of(members)))


def _ones(copies: int, period: int) -> int:
    """copies one bits, period bits apart, the lowest at bit 0."""
    return ((1 << period * copies) - 1) // ((1 << period) - 1) if period else 0


class _Lanes:
    """The mask operations of one system on a block of `width` lanes.

    Lane v of an n-point system is bits v·n to v·n+n−1 of a register, so
    `&` and `|` act on every lane at once; `low` is bit 0 of every lane,
    `point` lane 0 whole and `full` every lane.  `image` and `cone` map
    each distance j − i to the bits j that preimage (j = f(i)) and
    interior (j strictly below i) move to bit i, one shift per distance."""

    __slots__ = ("n", "width", "point", "low", "full", "image", "cone")

    def __init__(self, X: FiniteSystem, width: int):
        n = self.n = len(X.f)
        self.width, self.point = width, (1 << n) - 1
        low = self.low = _ones(width, n)
        self.full = low * self.point
        self.image, self.cone = image, cone = {}, {}
        for i, y in enumerate(X.f):
            image[y - i] = image.get(y - i, 0) | low << y
        for i, below in enumerate(X.poset.down):
            below ^= 1 << i
            while below:
                j = below.bit_length() - 1
                cone[j - i] = cone.get(j - i, 0) | low << j
                below ^= 1 << j

    def some(self, mask: int) -> int:
        """The lanes where the mask is not empty, each filled whole."""
        hit = 0
        for j in range(self.n):
            hit |= mask >> j
        return (hit & self.low) * self.point


def _moved(mask: int, moves: dict[int, int]) -> int:
    """The mask with the moves of a distance table applied."""
    out = 0
    for d, source in moves.items():
        out |= (mask & source) >> d if d >= 0 else (mask & source) << -d
    return out


#: The node types _evaluate_mask knows; _compile refuses any other.
_NODE_TYPES = {Bottom, Atom, And, Or, Implies, Next, Eventually, Henceforth, Forall, Exists}

_Program = tuple[tuple[int, type, object, object], ...]


def _compile(formulas) -> _Program:
    """Instruction list over formulas listed after their operands, such as
    `subformulas(f)` or a context's formulas.

    Instruction i, (i, node type, a, b), is row i of `operand_table` with
    the atom's name in a: it writes formula i's truth mask to register i
    from its operands' registers a and b.
    """
    table = operand_table(formulas, {g: i for i, g in enumerate(formulas)}.__getitem__)
    if unknown := {op for op, _, _ in table} - _NODE_TYPES:
        raise TypeError(f"unknown formula node {next(g for g in formulas if type(g) in unknown)!r}")
    return tuple([(i, op, g.name if op is Atom else a, b)
                  for i, (g, (op, a, b)) in enumerate(zip(formulas, table))])


def _atoms(program: _Program) -> list[str]:
    return sorted({a for _, op, a, _ in program if op is Atom})


def _evaluate_mask(lanes: _Lanes, valuation: dict[str, int], program: _Program,
                   cache: dict[int, int]) -> int:
    """Truth masks of a compiled formula in every lane of a block, each
    lane under its own valuation (each atom's open masks, one per lane);
    cache is the register file, fresh for each call."""
    full, image = lanes.full, lanes.image
    for i, op, a, b in program:  # most frequent node types first
        if op is Implies:  # no point of the cone where a holds and b does not
            gap = cache[a] & ~cache[b]
            out = full ^ (gap | _moved(gap, lanes.cone))
        elif op is Atom:
            out = valuation[a]
        elif op is And:
            out = cache[a] & cache[b]
        elif op is Or:
            out = cache[a] | cache[b]
        elif op is Next:
            out = _moved(cache[a], image)
        elif op is Eventually:  # least fixpoint of m | pre(m)
            out = cache[a]
            while (grown := out | _moved(out, image)) != out:
                out = grown
        elif op is Henceforth:  # greatest fixpoint of m & pre(m)
            out = body = cache[a]
            while (shrunk := body & _moved(out, image)) != out:
                out = shrunk
        elif op is Forall:
            out = full ^ lanes.some(full ^ cache[a])
        elif op is Exists:
            out = lanes.some(cache[a])
        else:  # bottom
            out = 0
        cache[i] = out
    return out


def _valuation_masks(X: FiniteSystem, valuation) -> dict[str, int]:
    out = {}
    for atom, members in valuation.items():
        mask = members if isinstance(members, int) else X.mask_of(members)
        if _interior_mask(X, mask) != mask:
            raise SchemaError(f"valuation.{atom}: not downward closed")
        out[atom] = mask
    return out


def truth_masks(X: FiniteSystem, valuation, formulas) -> dict[int, int]:
    """The register file of one run over formulas listed after their
    operands, on one lane: register i holds the truth mask of formulas[i]."""
    masks = _valuation_masks(X, valuation)
    program = _compile(formulas)
    for atom in _atoms(program):
        if atom not in masks:
            raise KeyError(f"no valuation for atom {atom!r}")
    registers: dict[int, int] = {}
    _evaluate_mask(_Lanes(X, 1), masks, program, registers)
    return registers


def evaluate(X: FiniteSystem, valuation, f: Formula) -> frozenset[str]:
    """Truth set of a formula; always a downward closed set of elements.

    Implication relativizes to the cone below each point, next is the
    map preimage, eventually and henceforth are the least and greatest
    fixpoints of their unfoldings, and the quantifiers compare against
    the whole space.  Read off the last register of `truth_masks` over
    the subformulas, the same evaluator the valuation searches run.
    """
    registers = truth_masks(X, valuation, subformulas(f))
    return X.names_of(registers[len(registers) - 1])


def open_masks(X: FiniteSystem) -> list[int]:
    """All downward closed subsets, ascending as bitmasks.  Points are
    added in order of cone size, each to every set that already holds the
    rest of its cone."""
    down, opens = X.poset.down, [0]
    for i in sorted(range(len(down)), key=lambda i: down[i].bit_count()):
        opens += [m | 1 << i for m in opens if down[i] & ~m == 1 << i]
    return sorted(opens)


_BLOCK = 256  # the most valuations one evaluator pass tries


def _stacked(packed: dict[str, int], width: int, n: int, atom: str,
             choices: list[int]) -> dict[str, int]:
    """Packed masks of width lanes, copied once per choice with atom taking
    choice k in every lane of copy k: in product order, atom varies slowest."""
    lane, copies = _ones(width, n), _ones(len(choices), width * n)
    out = {b: m * copies for b, m in packed.items()}
    out[atom] = sum(m * lane << k * width * n for k, m in enumerate(choices))
    return out


def _falsifying(X: FiniteSystem, program: _Program, atoms: list[str], caps: Caps,
                deadline: Deadline, what: str) -> tuple[dict[str, int], int] | None:
    """The first valuation of the atoms to opens, in product order, that
    falsifies the compiled formula somewhere, with its truth mask, or None.
    Raises CapExceeded before trying any if there are more than
    caps.max_valuations.

    The valuations are tried in blocks of at most _BLOCK consecutive ones,
    one lane each, checking the deadline under what before each block.  In
    a block the last atoms take every combination of opens, the atom before
    them a run of opens, and the rest one open each, spread to every lane.
    The hit is the lowest failing lane of the first failing block."""
    opens = open_masks(X)
    total = len(opens) ** len(atoms)
    if total > caps.max_valuations:
        raise CapExceeded(f"{total} valuations exceed the cap")
    n, split, width, packed = len(X.f), len(atoms), 1, {}
    while split and width * len(opens) <= _BLOCK:
        split -= 1
        packed, width = _stacked(packed, width, n, atoms[split], opens), width * len(opens)
    blocks = [(width, packed)]  # (width, the varied atoms' masks) per run of opens
    if split:
        split, step = split - 1, _BLOCK // width
        blocks = [(width * len(run), _stacked(packed, width, n, atoms[split], run))
                  for run in (opens[d:d + step] for d in range(0, len(opens), step))]
    lanes_of = {w: _Lanes(X, w) for w in {w for w, _ in blocks}}
    for combo in itertools.product(opens, repeat=split):
        for w, packed in blocks:
            deadline.check(what)
            lanes = lanes_of[w]
            valuation = {a: m * lanes.low for a, m in zip(atoms, combo)} | packed
            truth = _evaluate_mask(lanes, valuation, program, {})
            if missing := truth ^ lanes.full:
                shift = ((missing & -missing).bit_length() - 1) // n * n
                return ({a: valuation[a] >> shift & lanes.point for a in atoms},
                        truth >> shift & lanes.point)
    return None


def is_valid_on_system(X: FiniteSystem, f: Formula, caps: Caps = DEFAULT_CAPS) -> bool:
    """Whether the formula holds everywhere under every open valuation."""
    program = _compile(subformulas(f))
    return _falsifying(X, program, _atoms(program), caps, caps.deadline(),
                       "validity check") is None


# ---------------------------------------------------------------------------
# System enumeration and countermodel search

def enumerate_posets(n: int) -> list[FinitePoset]:
    """All labelled posets on n elements, canonical order."""
    return list(_posets(n))


def _posets(n: int, deadline: Deadline = NO_DEADLINE):
    """Posets in the order of their relation bits, one per pair (i, j),
    i != j, meaning i below j: the up-sets of 0, 1, ... are chosen in
    turn, and a branch is kept only while they are antisymmetric and
    transitive among themselves (b above a needs up(b) within up(a)).
    The walk recurses once per element, n deep, and checks the deadline
    once per up-set chosen."""
    names = tuple(_element_names(n))
    # the possible up-sets of each element, ordered by their bits for j = 0, 1, ...
    choices = [sorted((m for m in range(1 << n) if not m >> i & 1),
                      key=lambda m: [m >> j & 1 for j in range(n)]) for i in range(n)]
    up = [0] * n

    def place(i: int):
        if i == n:
            yield _trusted(FinitePoset, names,
                           tuple(1 << j | below for j, below in enumerate(_converse(up))))
            return
        # up(i) lies within up(a) for each a below i, and holds up(a) for each a above i
        within = ~0
        for a in range(i):
            if up[a] >> i & 1:
                within &= up[a]
        for mask in choices[i]:
            if not mask & ~within and all(not (mask >> a & 1 and up[a] & ~mask)
                                          for a in range(i)):
                up[i] = mask
                deadline.check("poset enumeration")
                yield from place(i + 1)

    return place(0)


def monotone_maps(poset: FinitePoset):
    """The monotone self-maps of a poset, lazily, in product order.

    The images of elements 0, 1, ... are chosen in turn, each in
    ascending order, and an image is kept only if it is comparable as
    required with the images of the elements already placed: above the
    images of the elements below, below the images of those above."""
    n = len(poset)
    down = poset.down
    up = _converse(down)
    lower = [[a for a in range(i) if down[i] >> a & 1] for i in range(n)]
    upper = [[a for a in range(i) if down[a] >> i & 1] for i in range(n)]
    f = [0] * n

    def place(i: int):
        if i == n:
            yield tuple(f)
            return
        allowed = (1 << n) - 1
        for a in lower[i]:
            allowed &= up[f[a]]
        for a in upper[i]:
            allowed &= down[f[a]]
        while allowed:
            low = allowed & -allowed
            f[i] = low.bit_length() - 1
            yield from place(i + 1)
            allowed ^= low

    return place(0)


def enumerate_systems(n: int) -> list[FiniteSystem]:
    """All labelled systems on n elements, canonical order."""
    return list(_systems(n))


def _systems(n: int, deadline: Deadline = NO_DEADLINE):
    for poset in _posets(n, deadline):
        for f in monotone_maps(poset):
            yield _trusted(FiniteSystem, poset, f)


def _relabelled(down: tuple[int, ...], perm) -> tuple[int, ...]:
    """The down-sets of a poset after renaming each element i to perm[i]."""
    out = [0] * len(down)
    for j, below in enumerate(down):
        out[perm[j]] = sum(1 << perm[i] for i in range(len(down)) if below >> i & 1)
    return tuple(out)


def _first_of_each_class(n: int, deadline: Deadline):
    """The walk of _systems(n) with each isomorphism class evaluated once.

    Yields (count, X): X is the first system of its class in walk order,
    or None when the count systems just passed are copies of earlier ones.
    A poset is skipped when a relabelling of it came earlier, and stands
    for as many systems as the first poset of its class, since isomorphic
    posets have equally many monotone maps.  On a kept poset, a map is
    skipped when a conjugate of it under the poset's automorphisms came
    earlier."""
    classes = {}  # every relabelling of a kept poset -> [its class's map count]
    for poset in _posets(n, deadline):
        known = classes.get(poset.down)
        if known is not None:
            yield known[0], None
            continue
        maps = [0]
        autos = []
        for perm in itertools.permutations(range(n)):
            deadline.check("countermodel search")
            image = _relabelled(poset.down, perm)
            classes.setdefault(image, maps)
            if image == poset.down:
                autos.append((perm, sorted(range(n), key=perm.__getitem__)))
        seen = set()
        for f in monotone_maps(poset):
            maps[0] += 1
            if f in seen:
                yield 1, None
                continue
            if len(autos) > 1:  # add perm . f . perm^-1 for each automorphism perm
                seen.update(tuple(perm[f[i]] for i in inverse) for perm, inverse in autos)
            yield 1, _trusted(FiniteSystem, poset, f)


def _element_names(n: int) -> list[str]:
    return [f"e{i}" for i in range(n)]


@dataclass(frozen=True)
class Countermodel:
    system: FiniteSystem
    valuation: dict[str, frozenset[str]]
    point: str


def find_countermodel(f: Formula, max_points: int,
                      caps: Caps = DEFAULT_CAPS) -> Countermodel | None:
    """Search all systems up to the given size and all open valuations
    for a point falsifying the formula; first hit in canonical order.

    Only the first system of each isomorphism class is evaluated: a later
    copy that falsified the formula would have an earlier copy that
    falsifies it too, so the first hit is the one the full walk finds.
    Systems are enumerated lazily, and max_systems counts every labelled
    system the walk reaches, skipped copies included, so it and the
    timeout trip as the search reaches them; max_valuations bounds the
    valuations of each system evaluated."""
    deadline = caps.deadline()
    program = _compile(subformulas(f))
    atoms = _atoms(program)
    examined = 0
    for n in range(1, max_points + 1):
        for count, X in _first_of_each_class(n, deadline):
            examined += count
            if examined > caps.max_systems:
                raise CapExceeded(f"countermodel search passed {caps.max_systems} systems")
            deadline.check("countermodel search")
            if X is None:
                continue
            if hit := _falsifying(X, program, atoms, caps, deadline, "countermodel search"):
                valuation, truth = hit
                point = next(X.names[i] for i in range(n) if not truth >> i & 1)
                named = {a: X.names_of(m) for a, m in valuation.items()}
                return Countermodel(X, named, point)
    return None


# ---------------------------------------------------------------------------
# Dynamical properties

@dataclass(frozen=True)
class Analysis:
    minimal: bool
    recurrent: bool
    connected: bool

    def as_dict(self) -> dict:
        return {"minimal": self.minimal, "recurrent": self.recurrent,
                "connected": self.connected}


def analyze(X: FiniteSystem) -> Analysis:
    """Minimality, recurrence, and connectedness from their definitions.

    Minimal: the orbit of every point is dense (it meets every cone).
    Recurrent: every principal open contains a point that returns to it;
    principal opens suffice since every nonempty open contains one.
    Connected: no split into two disjoint nonempty opens, i.e. closing the
    first point under comparability reaches every point.
    """
    n, down, f = len(X), X.down, X.f
    orbit = []  # orbit[x]: the mask of x, f(x), f(f(x)), ...
    for x in range(n):
        mask = 0
        while not mask >> x & 1:
            mask |= 1 << x
            x = f[x]
        orbit.append(mask)
    minimal = all(below & mask for mask in orbit for below in down)
    returns = [orbit[f[y]] for y in range(n)]  # the points y reaches in one or more steps
    recurrent = all(_union(returns, below) & below for below in down)
    comparable = [above | below for above, below in zip(_converse(down), down)]
    component = 1
    while (grown := component | _union(comparable, component)) != component:
        component = grown
    return Analysis(minimal, recurrent, component == X.full_mask())


# ---------------------------------------------------------------------------
# Random generation

def random_system(n: int, seed: int = 0) -> FiniteSystem:
    """Seeded random system: a random DAG closed into a poset, and a
    monotone map found by rejection with a constant-map fallback."""
    if n < 1:
        raise ValueError("need at least one element")
    rng = random.Random(seed)
    names = tuple(_element_names(n))
    # i below j only for i < j, so the closure is acyclic
    pairs = [(i, j) for j in range(n) for i in range(j) if rng.random() < 0.35]
    poset = FinitePoset(names, _order_closure(n, pairs))
    for _ in range(512):
        f = tuple(rng.randrange(n) for _ in range(n))
        if _disorder(poset.down, f) is None:
            return FiniteSystem(poset, f)
    target = rng.randrange(n)
    return FiniteSystem(poset, tuple(target for _ in range(n)))


# ---------------------------------------------------------------------------
# Fixtures and file format

def minimal_five():
    """The five-point minimal disconnected system used across the tests.

    Two stacked components: w below v, and z below y below x.  The map
    sends v to x, w to z, and x, y, z onto the w/z two-cycle.  The images
    of x and y are forced to w: monotonicity pins f(y) to f(z)'s
    up-set, and density of the orbit of x needs f(x) in {w, z}; w is the
    only choice keeping the map monotone and the system minimal while
    falsifying the next/implication interchange at v.
    """
    X = system(
        ["v", "w", "x", "y", "z"],
        [("w", "v"), ("y", "x"), ("z", "y")],
        {"v": "x", "w": "z", "x": "w", "y": "w", "z": "w"},
    )
    valuation = {"p": frozenset({"y", "z"}), "q": frozenset({"z"})}
    return X, valuation


def system_to_json(X: FiniteSystem, valuation=None) -> dict:
    n = len(X)
    pairs = [[X.names[i], X.names[j]] for j in range(n) for i in range(n)
             if i != j and X.down[j] >> i & 1]
    data = {
        "elements": list(X.names),
        "order": pairs,
        "map": {X.names[i]: X.names[X.f[i]] for i in range(n)},
    }
    if valuation is not None:
        data["valuation"] = {a: sorted(members) for a, members in valuation.items()}
    return data


def _names(value, where: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise SchemaError(f"{where}: expected a list of element names")
    return value


def system_from_json(data: dict):
    """Parse and validate the system file shape; returns (system, valuation)."""
    if not isinstance(data, dict):
        raise SchemaError("system file must be an object")
    for field in ("elements", "order", "map"):
        if field not in data:
            raise SchemaError(f"missing field {field!r}")
    elements, order, mapping = data["elements"], data["order"], data["map"]
    if not _names(elements, "elements"):
        raise SchemaError("elements: a system needs at least one point")
    if not isinstance(order, list) or any(len(_names(p, "order")) != 2 for p in order):
        raise SchemaError("order: expected a list of [below, above] name pairs")
    if not isinstance(mapping, dict) or not all(isinstance(v, str) for v in mapping.values()):
        raise SchemaError("map: expected an object from element names to names")
    X = system(elements, order, mapping)
    valuation = None
    if "valuation" in data:
        if not isinstance(data["valuation"], dict):
            raise SchemaError("valuation: expected an object from atoms to element lists")
        masks = _valuation_masks(X, {atom: _names(members, f"valuation.{atom}")
                                     for atom, members in data["valuation"].items()})
        valuation = {atom: X.names_of(mask) for atom, mask in masks.items()}
    return X, valuation


def load_system(path):
    return system_from_json(read_json(path))


def save_system(X: FiniteSystem, valuation, path) -> None:
    write_json(path, system_to_json(X, valuation))
