"""Quasimodel search, certificates, and certificate verification.

A quasimodel is a finite downward-closed collection of moments carrying
a successor relation that is sensible on root labels, forward confluent
over the submoment order, serial, realizes every eventuality, and is
honest about universally quantified formulas.  A formula is falsifiable
exactly when some quasimodel over its subformula context contains a
world whose root label omits it, so falsifiability search is a greatest
fixpoint over the irreducible moments per universal profile, and a
validity verdict needs a proof that no such structure exists.

Two sound refutation routes back the VALID verdict: a label-viability
fixpoint that rules a profile out at the type level (every label in a
candidate structure needs a sensible successor, realizable
eventualities, and strictly larger revokers for its defects, all among
surviving labels), and exhaustive enumeration when it completes within
caps.  FALSIFIABLE verdicts always ship a certificate that is
re-verified from raw data before being reported.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import and_, or_
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .config import Caps, DEFAULT_CAPS, NO_DEADLINE, Deadline
from .errors import (CapExceeded, FragmentError, InvariantViolation,
                     ItlcError, SchemaError, read_json, write_json)
from .formula import (Bottom, Forall, Formula, Henceforth, children, eliminate_exists,
                      format_formula, parse, subformulas)
from .labels import (SigmaContext, one_world_label, profile_compatible, profile_masks,
                     reach_back, subformula_closure, viable_types)
from .moments import (Moment, MomentStore, _Generation, _SizeGeneration, _lift, _successor_masks,
                      below, check_kit, moment)


@dataclass(frozen=True)
class Check:
    """Boolean outcome with the first violated clause named."""

    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class Quasimodel:
    """Worlds (moments) with a successor relation and a universal profile.

    Worlds are kept in canonical order, and the successor relation is
    stored once, as rows: successors[i] is the ascending tuple of world
    i's successors.  profile is a mask over the context's universally
    quantified formulas, or None when the structure was not built against
    a fixed profile.  `_beneath`, the ascending indices of the worlds
    among each world's submoments, itself included, is built on first use.
    """

    sigma: SigmaContext
    worlds: tuple[Moment, ...]
    successors: tuple[tuple[int, ...], ...]
    profile: int | None = None

    def world_index(self) -> dict[Moment, int]:
        return {m: i for i, m in enumerate(self.worlds)}

    @property
    def s_edges(self) -> frozenset[tuple[int, int]]:
        """The successor relation as index pairs, built from the rows."""
        return frozenset((a, b) for a, row in enumerate(self.successors) for b in row)

    @cached_property
    def _beneath(self) -> tuple[tuple[int, ...], ...]:
        idx = self.world_index()
        return tuple(tuple(sorted(idx[sub] for sub in m.subtrees() if sub in idx))
                     for m in self.worlds)

    def order_pairs(self) -> list[tuple[int, int]]:
        """Strict submoment pairs (a, b) with world a below world b."""
        return sorted((a, b) for b, row in enumerate(self._beneath) for a in row if a != b)

    def root_lacks(self, index: int, formula_index: int) -> bool:
        return not self.worlds[index].label >> formula_index & 1

    def to_json_dict(self) -> dict:
        sigma = self.sigma
        profile = [] if self.profile is None else [i for i in range(len(sigma))
                                                   if self.profile >> i & 1]
        return {
            "sigma": list(sigma.texts),
            "profile": profile,
            "worlds": [{"id": i, "moment": m.to_json()} for i, m in enumerate(self.worlds)],
            "order": [list(p) for p in self.order_pairs()],
            "s_edges": [[a, b] for a, row in enumerate(self.successors) for b in row],
        }


class Lasso(NamedTuple):
    prefix: tuple[int, ...]
    loop: tuple[int, ...]


# ---------------------------------------------------------------------------
# Quasimodel validation

def check_quasimodel(q: Quasimodel, deadline: Deadline = NO_DEADLINE) -> Check:
    """Re-check every structural condition, naming the first failure;
    each eventuality's body is searched back from once, by `reach_back`
    along the inverted rows.  Each world's kit is checked once and every
    submoment must be a world, so every node is checked.  Each distinct row
    object is checked and made a bitset once, and reported at the first
    world holding it; sensibility and the profile are one mask test per
    world, confluence one AND per submoment."""
    sigma = q.sigma
    if not q.worlds:
        return Check(False, "no worlds")
    idx = q.world_index()
    if len(idx) != len(q.worlds):
        return Check(False, "duplicate worlds")
    with_label: dict[int, int] = {}  # the worlds with each label
    above = [0] * len(q.worlds)  # above[t]: the worlds with t among their submoments
    for i, m in enumerate(q.worlds):
        deadline.check("certificate verification")
        with_label[m.label] = with_label.get(m.label, 0) | 1 << i
        for t in q._beneath[i]:
            above[t] |= 1 << i
        try:
            check_kit(sigma, m.label, m.children)
        except ItlcError as err:
            return Check(False, f"world {i} is not a moment: {err}")
        # every submoment is a world, so its kit is checked in its own turn
        if len(q._beneath[i]) != len(m.subtrees()):
            return Check(False, f"world {i} has a submoment that is not a world")
    n, rows = len(q.worlds), q.successors
    if len(rows) != n:
        return Check(False, f"{len(rows)} successor rows for {n} worlds")
    # allowed[p]: the worlds whose labels may follow a label of pattern p;
    # reach_up[a2]: the worlds with a submoment in a2's row
    allowed: dict[tuple[int, int] | None, int] = {None: 0}
    read: dict[int, tuple[int, int]] = {}  # by the id of a row: its bitset and reach_up
    for a, row in enumerate(rows):
        deadline.check("certificate verification")
        if id(row) not in read:
            if not all(0 <= b < n for b in row):
                return Check(False, f"world {a} has a successor out of range")
            if any(b >= c for b, c in zip(row, row[1:])):
                return Check(False, f"successors of world {a} are not strictly ascending")
            read[id(row)] = (sum(1 << b for b in row), reduce(or_, (above[t] for t in row), 0))
        pattern = sigma.pattern_of(q.worlds[a].label)
        if pattern not in allowed:
            allowed[pattern] = sum(ws for label, ws in with_label.items()
                                   if label & pattern[0] == pattern[1])
        stray = read[id(row)][0] & ~allowed[pattern]
        if stray:
            return Check(False, f"edge ({a},{_lowest(stray)}) is not sensible")
    bits, reach_up = zip(*(read[id(row)] for row in rows))
    for i in range(n):
        if not rows[i]:
            return Check(False, f"world {i} has no successor")
    for a, beneath in enumerate(q._beneath):
        deadline.check("certificate verification")
        stray = bits[a] & ~reduce(and_, (reach_up[a2] for a2 in beneath))
        if stray:
            b = _lowest(stray)
            a2 = next(idx[sub] for sub in q.worlds[a].subtrees()
                      if not reach_up[idx[sub]] >> b & 1)
            return Check(False, f"edge ({a},{b}) not confluent below world {a2}")
    preds = _inverse(rows) if sigma.ev_pairs else []  # read only for eventualities
    found = {fb: reach_back([v for v in range(n) if q.worlds[v].label >> fb & 1],
                            preds.__getitem__, deadline, "certificate verification")
             for _, fb in sigma.ev_pairs}
    for i in range(n):
        label = q.worlds[i].label
        for fi, fb in sigma.ev_pairs:
            if label >> fi & 1 and i not in found[fb]:
                return Check(False,
                             f"eventuality {sigma.texts[fi]} of world {i} unrealized")
    for fi, fb in sigma.forall_pairs:
        everywhere_f = all(m.label >> fi & 1 for m in q.worlds)
        everywhere_b = all(m.label >> fb & 1 for m in q.worlds)
        if everywhere_f != everywhere_b:
            return Check(False, f"labels dishonest about {sigma.texts[fi]}")
    if q.profile is not None:
        # every submoment is a world: a world's node labels are the labels beneath it
        disagree = reduce(or_, (above[t] for t, m in enumerate(q.worlds)
                                if not profile_compatible(sigma, q.profile, m.label)), 0)
        if disagree:
            return Check(False, f"world {_lowest(disagree)} disagrees with the profile")
    return Check(True)


# ---------------------------------------------------------------------------
# Profile pruning

def _profile_mask(sigma: SigmaContext, profile) -> int:
    if isinstance(profile, int):
        if profile & ~sigma.forall_mask:
            raise ValueError("profile mask contains non-universal indices")
        return profile
    mask = 0
    for f in profile:
        if not isinstance(f, Forall) or f not in sigma.index:
            raise ValueError(f"not a universally quantified member: {f}")
        mask |= 1 << sigma.index[f]
    return mask


def prune_profile(store: MomentStore, profile, order=None) -> Quasimodel:
    """Greatest subset of the store that can sit inside a quasimodel
    whose labels follow the given universal profile.

    Moments whose node labels disagree with the profile are left out.
    A round drops the moments missing a submoment or a successor, then
    those owing a root eventuality from which no path of survivors
    reaches its body (`reach_back` over the inverted rows); a round that
    drops nothing ends it.  Removal order never affects the result;
    `order`, a permutation of the store's moments, exists so tests can
    demonstrate that.
    """
    if order is not None and (len(order), set(order)) != (len(store.moments), set(store.moments)):
        raise ValueError("order must list every moment of the store exactly once")
    return _prune(store.sigma, store.moments, _profile_mask(store.sigma, profile), order)


def _prune(sigma: SigmaContext, moments, mask: int, order=None,
           deadline: Deadline = NO_DEADLINE) -> Quasimodel:
    """`prune_profile` under a deadline, taking `order` as given; the survivors'
    rows, renumbered and so still ascending, become the result's successors.
    Each distinct row is renumbered once, so rows the carrier shares stay
    shared; when nothing was dropped, the rows are kept unchanged."""
    carrier = tuple(sorted({m for m in moments
                            if all(profile_compatible(sigma, mask, l) for l in m.node_labels())},
                           key=lambda m: m.key))
    index = {m: i for i, m in enumerate(carrier)}
    succ = _successor_lists(carrier, deadline)
    # a submoment outside the carrier maps to -1, which is never alive
    subs = [[index.get(sub, -1) for sub in m.subtrees() if sub is not m] for m in carrier]
    alive = set(range(len(carrier)))
    preds = _inverse(succ) if sigma.ev_pairs else []  # read only for eventualities
    sweep = range(len(carrier)) if order is None else [index[m] for m in order if m in index]
    before = None
    while len(alive) != before:
        deadline.check("profile pruning")
        before = len(alive)
        for i in sweep:
            if i in alive and not (all(k in alive for k in subs[i])
                                   and any(j in alive for j in succ[i])):
                alive.discard(i)
        for fi, fb in sigma.ev_pairs:
            found = reach_back([i for i in alive if carrier[i].label >> fb & 1],
                               lambda j: [i for i in preds[j] if i in alive],
                               deadline, "profile pruning")
            alive -= {i for i in alive if carrier[i].label >> fi & 1 and i not in found}
    renumber = {i: k for k, i in enumerate(sorted(alive))}
    renumbered: dict[int, tuple[int, ...]] = {}  # by the id of a row
    for i in renumber:
        if id(succ[i]) not in renumbered:
            renumbered[id(succ[i])] = (succ[i] if len(renumber) == len(carrier) else
                                       tuple(renumber[j] for j in succ[i] if j in renumber))
    return Quasimodel(sigma, tuple(carrier[i] for i in renumber),
                      tuple(renumbered[id(succ[i])] for i in renumber), mask)


def _successor_lists(moments, deadline: Deadline = NO_DEADLINE) -> list[tuple[int, ...]]:
    """For each moment v, the ascending indices of the moments w with
    `temporal_successor(v, w)`, read off `_successor_masks` with the
    moments as both sources and targets.  Moments with equal masks share
    one row."""
    return _mask_rows(_successor_masks(moments, moments, deadline))


def _mask_rows(masks) -> list[tuple[int, ...]]:
    """For each bitmask, the ascending indices of its set bits; equal masks
    share one row tuple."""
    rows: dict[int, tuple[int, ...]] = {}
    for mask in masks:
        if mask not in rows:
            row, rest = [], mask
            while rest:
                row.append(_lowest(rest))
                rest &= rest - 1
            rows[mask] = tuple(row)
    return [rows[mask] for mask in masks]


def _edge_rows(n: int, edges, remap: dict) -> tuple[tuple[int, ...], ...]:
    """The ascending rows of n worlds joined by `edges`, pairs of ids that
    remap numbers, each pair read once into its source's bitmask; equal rows
    share one tuple.  The first pair naming no world, as `_world` reads ids,
    raises KeyError(pair)."""
    masks = [0] * n
    for pair in edges:
        a, b = pair
        if (a.__class__ is bool or (source := remap.get(a)) is None
                or b.__class__ is bool or (target := remap.get(b)) is None):
            raise KeyError(pair)
        masks[source] |= 1 << target
    return tuple(_mask_rows(masks))


def _lowest(mask: int) -> int:
    """The index of a nonzero mask's lowest bit."""
    return (mask & -mask).bit_length() - 1


def _inverse(rows) -> list[list[int]]:
    """For each world, the ascending worlds whose rows hold it."""
    preds: list[list[int]] = [[] for _ in rows]
    for a, row in enumerate(rows):
        for b in row:
            preds[b].append(a)
    return preds


# ---------------------------------------------------------------------------
# Realizing paths

def build_realizing_path(q: Quasimodel, start: int) -> Lasso:
    """A lasso from the given world whose unrolling realizes every
    eventuality it ever promises.

    Pending eventualities are served round robin: step along a shortest
    path towards the oldest pending one, dropping whatever the current
    label realizes, and close the loop when a (world, pending) state
    repeats.  States are finitely many, so this terminates.  A start
    outside the worlds raises ValueError.
    """
    if not 0 <= start < len(q.worlds):
        raise ValueError(f"no world {start}")
    sigma = q.sigma
    trail: list[int] = []
    visited: dict[tuple[int, tuple[int, ...]], int] = {}
    queue: list[int] = []
    w = start
    while True:
        label = q.worlds[w].label
        queue = [b for b in queue if not label >> b & 1]
        for fi, fb in sigma.ev_pairs:
            if label >> fi & 1 and not label >> fb & 1 and fb not in queue:
                queue.append(fb)
        state = (w, tuple(queue))
        if state in visited:
            k = visited[state]
            lasso = Lasso(tuple(trail[:k]), tuple(trail[k:]))
            problem = _lasso_problem(q, start, lasso)
            if problem is not None:
                raise InvariantViolation(f"constructed lasso invalid: {problem}")
            return lasso
        visited[state] = len(trail)
        trail.append(w)
        if queue:
            w = _step_towards(q, w, queue[0])
        elif q.successors[w]:
            w = q.successors[w][0]
        else:
            raise InvariantViolation(f"world {w} has no successor")


def _step_towards(q: Quasimodel, start: int, body: int) -> int:
    """First edge of the canonical shortest path realizing the eventuality."""
    parent: dict[int, int] = {start: start}
    frontier = [start]
    while frontier:
        nxt = []
        for i in frontier:
            for j in q.successors[i]:
                if j not in parent:
                    parent[j] = i
                    if q.worlds[j].label >> body & 1:
                        while parent[j] != start:
                            j = parent[j]
                        return j
                    nxt.append(j)
        frontier = sorted(nxt)
    raise InvariantViolation(f"unrealizable eventuality reached from world {start}")


def _lasso_problem(q: Quasimodel, start: int, lasso: Lasso) -> str | None:
    sigma = q.sigma
    if not lasso.loop:
        return "empty loop"
    seq = list(lasso.prefix) + list(lasso.loop)
    if seq[0] != start:
        return "lasso does not start at its world"
    for a, b in zip(seq, seq[1:]):
        if b not in q.successors[a]:
            return f"missing edge ({a},{b})"
    if lasso.loop[0] not in q.successors[seq[-1]]:
        return "loop does not close"
    loop_start = len(lasso.prefix)
    for pos, i in enumerate(seq):
        label = q.worlds[i].label
        for fi, fb in sigma.ev_pairs:
            if not label >> fi & 1:
                continue
            if not any(q.worlds[j].label >> fb & 1 for j in seq[min(pos, loop_start):]):
                return f"eventuality {sigma.texts[fi]} unrealized at position {pos}"
    return None


def complete_path_below(q: Quasimodel, path: list[int], v0: int) -> list[int]:
    """Shadow a successor path from below: given a path and a world under
    its first element, return a path of the same length staying under it
    pointwise, choosing the canonically least world at each step.  A
    world index outside the worlds, in the path or as v0, raises
    ValueError.
    """
    if not path:
        raise ValueError("empty path")
    if not all(0 <= w < len(q.worlds) for w in (v0, *path)):
        raise ValueError("world index out of range")
    for a, b in zip(path, path[1:]):
        if b not in q.successors[a]:
            raise ValueError(f"({a},{b}) is not an edge")
    if not below(q.worlds[v0], q.worlds[path[0]]):
        raise ValueError("start world is not below the path start")
    out = [v0]
    for b in path[1:]:
        step = next((u for u in q._beneath[b] if u in q.successors[out[-1]]), None)
        if step is None:
            raise InvariantViolation("confluence failed while completing a path")
        out.append(step)
    return out


# ---------------------------------------------------------------------------
# Certificates

@dataclass(frozen=True)
class Certificate:
    """A falsification witness: a quasimodel, a world omitting the target,
    and a realizing lasso for every world."""

    target: Formula
    quasimodel: Quasimodel
    witness: int
    lassos: Mapping[int, Lasso]

    def __post_init__(self) -> None:  # read-only, so the cached JSON form stays current
        object.__setattr__(self, "lassos", MappingProxyType(dict(self.lassos)))

    def to_json_dict(self) -> dict:
        return {
            **self.quasimodel.to_json_dict(),
            "witness": self.witness,
            "target": format_formula(self.target),
            "lassos": {str(i): {"prefix": list(l.prefix), "loop": list(l.loop)}
                       for i, l in sorted(self.lassos.items())},
        }

    @cached_property
    def _json(self) -> dict:  # read, never changed, by verification and the writers
        return self.to_json_dict()

    def to_json_text(self) -> str:
        return json.dumps(self._json, indent=2)


def _moment_from_json(sigma: SigmaContext, data, where: str) -> Moment:
    """The moment a JSON object describes, read without checking its kit
    (`check_quasimodel` checks each world's); only the shape of each node is
    checked.  The context's intern table makes each distinct subtree one object."""
    if not isinstance(data, dict) or "label" not in data or "children" not in data:
        raise SchemaError(f"{where}: moment object needs 'label' and 'children'")
    mask, size = 0, len(sigma)
    for i in data["label"]:
        if type(i) is not int or not 0 <= i < size:  # JSON true is no index
            raise SchemaError(f"{where}.label: bad index {i!r}")
        mask |= 1 << i
    return moment(sigma, mask, [_moment_from_json(sigma, c, f"{where}.children[{k}]")
                                for k, c in enumerate(data["children"])], validate=False)


def certificate_from_json(data: dict, target: Formula) -> Certificate:
    """Rebuild a certificate from its JSON form, canonicalizing world ids."""
    outcome = _decode(data, target)
    if isinstance(outcome, Check):
        raise SchemaError(f"certificate invalid: {outcome.reason}")
    return outcome


def verify_certificate(cert, target: Formula, deadline: Deadline = NO_DEADLINE) -> Check:
    """Re-derive the context and re-check every invariant from raw data.

    Nothing from the producer is trusted: the context is rebuilt from the
    target formula (so no table `decide` built holds unchecked moments), the
    listed order is recomputed, every world is revalidated as a moment, and
    the edge, honesty, witness and lasso conditions are all checked directly.
    A deadline that passes raises CapExceeded.  It reads each listed edge
    once, and checks each world's kit and each distinct successor row once.
    """
    outcome = _decode(cert, target, deadline)
    return outcome if isinstance(outcome, Check) else Check(True)


def _decode(cert, target: Formula,
            deadline: Deadline = NO_DEADLINE) -> Check | Certificate:
    """The certificate rebuilt over canonical world indices, or a failed
    Check naming the first violated condition."""
    data = cert._json if isinstance(cert, Certificate) else cert
    try:
        return _verify(data, target, deadline)
    except CapExceeded:
        raise
    except (ItlcError, AttributeError, KeyError, TypeError, ValueError,
            RecursionError) as err:  # a moment nested past the interpreter's stack
        return Check(False, f"malformed certificate: {err}")


def _least_lengths(formulas) -> dict[Formula, int]:
    """A lower bound on the printed length of each formula, listed after its
    operands: the nodes of its unfolded tree other than '#', since every
    other node prints at least one character and a -> # prints as ~a.  It
    takes linear time, where printing a '<->' chain takes time and space
    exponential in its depth."""
    least: dict[Formula, int] = {}
    for f in formulas:
        least[f] = (type(f) is not Bottom) + sum(least[c] for c in children(f))
    return least


def _verify(data: dict, target: Formula,
            deadline: Deadline = NO_DEADLINE) -> Check | Certificate:
    """`_decode`'s work, raising on malformed data.  Worlds are read by shape
    only, and `check_quasimodel` checks their kits.  Each edge is read once into
    its source's bitmask, and equal masks become one row tuple, which
    `check_quasimodel` reads once; the first faulty edge listed is reported."""
    # a text equal to the one printed here needs no parse: parse(format_formula(f)) == f;
    # texts shorter than the least printed lengths are parsed without printing
    text = data["target"]
    if not (len(text) >= _least_lengths(subformulas(target))[target]
            and text == format_formula(target)) and parse(text) != target:
        return Check(False, "target mismatch")
    try:
        reduced, sigma = fragment_context(target)
    except FragmentError:
        return Check(False, "target outside the decidable fragment")
    listed = list(data["sigma"])
    if len(listed) != len(sigma):
        return Check(False, "sigma does not match the target's subformula closure")
    printable = sum(map(len, listed)) >= sum(_least_lengths(sigma.formulas).values())
    texts = sigma.texts if printable else (None,) * len(sigma)
    if not all(s == t or parse(s) == f for s, t, f in zip(listed, texts, sigma.formulas)):
        return Check(False, "sigma does not match the target's subformula closure")

    profile = 0
    for i in data["profile"]:
        if type(i) is not int or not sigma.forall_mask >> i & 1:
            return Check(False, f"profile index {i!r} is not a universal formula")
        profile |= 1 << i

    ids = [w["id"] for w in data["worlds"]]
    if any(isinstance(i, bool) for i in ids):
        return Check(False, "a world id is a boolean")
    if len(set(ids)) != len(ids):
        return Check(False, "duplicate world ids")
    by_id = {}
    for w in data["worlds"]:
        deadline.check("certificate verification")
        try:
            by_id[w["id"]] = _moment_from_json(sigma, w["moment"], f"worlds[{w['id']}]")
        except ItlcError as err:
            return Check(False, f"world is not a moment: {err}")
    if len(set(by_id.values())) != len(by_id):
        return Check(False, "two ids name the same moment")

    worlds = tuple(sorted(by_id.values(), key=lambda m: m.key))
    idx = {m: i for i, m in enumerate(worlds)}
    remap = {wid: idx[m] for wid, m in by_id.items()}
    edges = deadline.every(data["s_edges"], "certificate verification")
    try:
        q = Quasimodel(sigma, worlds, _edge_rows(len(worlds), edges, remap), profile)
    except KeyError as err:
        return Check(False, f"edge {err.args[0]} references an unknown world")

    listed_order = {(_world(remap, a), _world(remap, b)) for a, b in data["order"]}
    if listed_order != set(q.order_pairs()):
        return Check(False, "listed order disagrees with the submoment relation")

    structural = check_quasimodel(q, deadline)
    if not structural:
        return structural

    wid = data["witness"]
    try:
        witness = _world(remap, wid)
    except KeyError:
        return Check(False, "witness id unknown")
    if not q.root_lacks(witness, sigma.index[reduced]):
        return Check(False, "witness root label contains the target")

    original = {j: wid for wid, j in remap.items()}
    lassos = {}
    for i in range(len(worlds)):
        deadline.check("certificate verification")
        orig = original[i]
        entry = data["lassos"].get(str(orig))
        if entry is None:
            return Check(False, f"world {orig} has no lasso")
        lasso = Lasso(tuple(_world(remap, k) for k in entry["prefix"]),
                      tuple(_world(remap, k) for k in entry["loop"]))
        problem = _lasso_problem(q, i, lasso)
        if problem is not None:
            return Check(False, f"lasso for world {orig}: {problem}")
        lassos[i] = lasso
    return Certificate(target, q, witness, lassos)


def _world(remap: dict, wid) -> int:
    """The index of the world a certificate's id names: remap[wid], except
    that JSON true and false name no world, though True == 1 and False == 0
    as keys."""
    if isinstance(wid, bool):
        raise KeyError(wid)
    return remap[wid]


def save_certificate(cert: Certificate, path) -> None:
    """Write the canonical JSON form; bit-exact across runs."""
    write_json(path, cert._json)


def load_certificate(path, target: Formula) -> Certificate:
    return certificate_from_json(read_json(path), target)


# ---------------------------------------------------------------------------
# The decision procedure

def fragment_context(f: Formula) -> tuple[Formula, SigmaContext]:
    """f with its existentials eliminated, and the context of that formula;
    FragmentError unless it uses only next, eventually and forall."""
    reduced = eliminate_exists(f)
    sigma = subformula_closure(reduced)  # the one walk: the fragment test reads it
    if any(isinstance(g, Henceforth) for g in sigma.formulas):  # no E is left
        raise FragmentError(
            "need a next/eventually/forall formula (after removing "
            f"existentials); got {format_formula(reduced)}")
    return reduced, sigma


@dataclass(frozen=True)
class Verdict:
    """Outcome of decide: VALID, FALSIFIABLE (with certificate), or
    RESOURCE_LIMIT.  complete is True exactly when the verdict is
    definitive: a VALID answer always rests on conclusive refutations,
    a certificate proves FALSIFIABLE on its own, and a capped search is
    never definitive."""

    kind: str
    certificate: Certificate | None
    complete: bool
    profile_outcomes: tuple[str, ...] = ()


def decide(target: Formula, caps: Caps = DEFAULT_CAPS) -> Verdict:
    """Decide validity of a formula over dynamical topological systems.

    The formula is rewritten without existential quantifiers and must
    then use only next/eventually/forall.  A one-world quasimodel is tried
    first: for each valuation of the atoms (see `one_world_label`) the
    world's label is fixed, and the first label lacking the target is a
    certificate, with the world its own successor and every other profile
    not settled.  Otherwise each universal profile is screened by the
    label-viability fixpoint; profiles it refutes admit no falsifying
    structure at all.  For the remaining profiles,
    irreducible moments are generated over the viable labels by node
    count, smallest first, and pruned after each size layer; a surviving
    world omitting the target (plus honesty witnesses) yields FALSIFIABLE
    as soon as it appears, which is sound because a pruning fixpoint over
    a subtree-closed partial carrier is already a quasimodel.  The
    certificate is the sub-quasimodel those worlds generate in it (see
    _generated), verified before it is returned.  VALID is reported only
    when every profile was conclusively refuted, either at the type level
    or by an exhausted generation; a capped search, or one that runs past
    the timeout at any stage, falls back to RESOURCE_LIMIT.
    """
    reduced, sigma = fragment_context(target)
    deadline = caps.deadline()
    target_idx = sigma.index[reduced]
    forall_bodies = dict(sigma.forall_pairs)
    profiles = profile_masks(sigma)

    outcomes = {}
    capped = False
    try:
        label = one_world_label(sigma, target_idx, deadline)
        if label is not None:
            q = Quasimodel(sigma, (moment(sigma, label),), ((0,),), label & sigma.forall_mask)
            cert = Certificate(target, q, 0, {0: Lasso((), (0,))})
            return _falsified(cert, deadline, outcomes, profiles)

        needing: list[tuple[int, frozenset[int]]] = []
        for profile in profiles:
            viable = viable_types(sigma, profile, deadline)
            if _seeds(sorted(viable), profile, target_idx, forall_bodies) is not None:
                needing.append((profile, viable))
            else:
                outcomes[profile] = "refuted by label viability"
        if needing:
            allowed = frozenset().union(*(v for _, v in needing))
            generation = _SizeGeneration(sigma, caps, allowed_labels=allowed, deadline=deadline)
            while generation.grow():
                carrier = generation.snapshot()
                for profile, _ in needing:
                    q = _prune(sigma, carrier, profile, None, deadline)
                    seeds = _seeds([w.label for w in q.worlds], profile,
                                   target_idx, forall_bodies)
                    if seeds is None:
                        continue
                    q, renumber, lassos = _generated(q, seeds, deadline)
                    cert = Certificate(target=target, quasimodel=q,
                                       witness=renumber[seeds[0]], lassos=lassos)
                    return _falsified(cert, deadline, outcomes, profiles)
            capped = generation.capped
    except CapExceeded:
        capped = True

    # outcomes holds only viability refutations here
    for profile in profiles:
        outcomes.setdefault(profile, "inconclusive (capped)" if capped
                            else "no witness in complete enumeration")
    return Verdict("RESOURCE_LIMIT" if capped else "VALID", None, not capped,
                   _outcome_list(sigma, outcomes))


def _falsified(cert: Certificate, deadline: Deadline, outcomes: dict[int, str],
               profiles) -> Verdict:
    """FALSIFIABLE with the certificate once it verifies: its profile reads
    falsifiable, and the other profiles not yet refuted are not settled."""
    confirmed = verify_certificate(cert, cert.target, deadline)
    if not confirmed:
        raise InvariantViolation(f"emitted certificate failed: {confirmed.reason}")
    outcomes[cert.quasimodel.profile] = "falsifiable"
    for other in profiles:
        outcomes.setdefault(other, "not settled before falsification")
    return Verdict("FALSIFIABLE", cert, True, _outcome_list(cert.quasimodel.sigma, outcomes))


def _seeds(labels, profile: int, target_idx: int,
           forall_bodies: dict[int, int]) -> list[int] | None:
    """For the target, then for the body of each A-formula outside the
    profile, the index of the first label lacking it; None when no label
    lacks one of them."""
    lacked = [target_idx] + [fb for fi, fb in forall_bodies.items() if not profile >> fi & 1]
    seeds = [next((i for i, t in enumerate(labels) if not t >> k & 1), None) for k in lacked]
    return None if None in seeds else seeds


def _generated(q: Quasimodel, seeds: list[int], deadline: Deadline
               ) -> tuple[Quasimodel, dict[int, int], dict[int, Lasso]]:
    """The sub-quasimodel of q that the seed worlds generate, renumbered
    canonically, with the map from old to new world indices and a
    realizing lasso of each of its worlds.

    Kept worlds and edges are closed under three rules: a kept world's
    submoments are kept; so are the worlds and edges of its realizing
    lasso in q; and for a kept edge (a, b), each submoment a2 of a with no
    kept edge into the submoments of b gets the canonically least edge of
    q from a2 to a submoment of b, which exists because q is forward
    confluent.  The result is again a quasimodel: downward closed,
    serial, confluent, its eventualities realized along the kept lassos,
    and honest because the seeds include a world lacking the body of
    every A-formula outside the profile.
    """
    lassos: dict[int, Lasso] = {}
    edges: set[tuple[int, int]] = set()
    new_worlds = list(reversed(seeds))
    new_edges: list[tuple[int, int]] = []

    def keep(a: int, b: int) -> None:
        if (a, b) not in edges:
            edges.add((a, b))
            new_edges.append((a, b))
            new_worlds.extend((a, b))

    while new_worlds or new_edges:
        deadline.check("certificate construction")
        if new_worlds:
            i = new_worlds.pop()
            if i in lassos:
                continue
            new_worlds.extend(reversed(q._beneath[i]))
            deadline.check("lasso construction")
            lasso = lassos[i] = build_realizing_path(q, i)
            walk = lasso.prefix + lasso.loop + lasso.loop[:1]
            for a, b in zip(walk, walk[1:]):
                keep(a, b)
            continue
        a, b = new_edges.pop()
        under_b = q._beneath[b]
        for a2 in q._beneath[a]:
            if not any((a2, t) in edges for t in under_b):
                keep(a2, next(t for t in under_b if t in q.successors[a2]))
    kept = sorted(lassos)
    renumber = {i: k for k, i in enumerate(kept)}
    shrunk = Quasimodel(q.sigma, tuple(q.worlds[i] for i in kept),
                        _edge_rows(len(kept), edges, renumber), q.profile)
    return shrunk, renumber, {k: Lasso(*(tuple(renumber[j] for j in part) for part in lassos[i]))
                              for k, i in enumerate(kept)}


def _outcome_list(sigma: SigmaContext, outcomes: dict[int, str]) -> tuple[str, ...]:
    names = [(i, sigma.texts[i]) for i, _ in sigma.forall_pairs]
    return tuple(f"profile {{{', '.join(t for i, t in names if profile >> i & 1)}}}: {text}"
                 for profile, text in sorted(outcomes.items()))


# ---------------------------------------------------------------------------
# Extraction from finite systems

def extract_quasimodel(system, valuation, sigma: SigmaContext,
                       caps: Caps = DEFAULT_CAPS) -> Quasimodel:
    """Project a finite Alexandroff model onto its quasimodel.

    Point labels come from one model-checker run over the context.  The
    maximal label-preserving continuous simulation between irreducible
    moments and points is `_lift` over the moments, bitsets over the
    points: a moment simulates a point carrying its root label when every
    child simulates some point of the point's minimal neighborhood.
    The moments simulating at least one point, with the successor
    relation, form a quasimodel that falsifies exactly the context
    formulas the model falsifies; surjectivity and dynamicity of the
    simulation are asserted rather than assumed.
    """
    from . import alexandroff

    deadline = caps.deadline()
    registers = alexandroff.truth_masks(system, valuation, sigma.formulas)
    with_label: dict[int, int] = {}  # point label -> the points carrying it
    for x, name in enumerate(system.names):
        mask = sum(1 << i for i, truth in registers.items() if truth >> x & 1)
        if not sigma.is_type_mask(mask):
            raise InvariantViolation(f"point {name} carries a non-type label")
        with_label[mask] = with_label.get(mask, 0) | 1 << x

    generation = _Generation(sigma, caps, with_label, deadline)
    while generation.grow():
        pass
    if generation.tripped:
        raise generation.tripped

    snapshot = generation.snapshot()
    # children carry larger labels than their parents, so they come later in key order
    sim = _lift(snapshot[::-1], [with_label.get(m.label, 0) for m in reversed(snapshot)],
                alexandroff._converse(system.down), deadline, "simulation pruning")
    covered = reduce(or_, sim.values(), 0)
    if missing := [name for x, name in enumerate(system.names) if not covered >> x & 1]:
        raise InvariantViolation(f"simulation misses points {missing}")

    worlds = tuple(m for m in snapshot if sim[m])
    succ = _successor_lists(worlds, deadline)
    for m, row in zip(worlds, succ):
        reached = reduce(or_, (sim[worlds[j]] for j in row), 0)
        if any(sim[m] >> x & 1 and not reached >> y & 1 for x, y in enumerate(system.f)):
            raise InvariantViolation("simulation is not dynamic")

    q = Quasimodel(sigma, worlds, tuple(succ),
                   worlds[0].label & sigma.forall_mask if worlds else 0)
    confirmed = check_quasimodel(q)
    if not confirmed:
        raise InvariantViolation(f"extracted structure invalid: {confirmed.reason}")
    return q


def falsified_members(q: Quasimodel) -> tuple[Formula, ...]:
    """Context formulas some world's root label omits."""
    return tuple(f for i, f in enumerate(q.sigma.formulas)
                 if any(not m.label >> i & 1 for m in q.worlds))
