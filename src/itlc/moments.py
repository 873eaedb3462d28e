"""Finite labelled trees of types, their reductions, and the successor relation.

A moment is a finite rooted tree whose nodes carry types, with two
structural obligations: labels only grow along branches away from the
root (continuity), and every defect of a node's label is revoked by some
strict descendant carrying the antecedent without the consequent.
Moments are kept in canonical form (children sorted by a content key)
and interned per context, so isomorphic moments are the same object.

A moment is irreducible when no label-preserving monotone collapse maps
it onto a proper sub-collection of its nodes.  Its reduct is its
smallest retract, the core, which is unique up to isomorphism and so one
interned moment.  Both are computed by recursion on submoments: a moment
with irreducible children of strictly larger labels is irreducible
exactly when no child folds into a sibling's submoments.

The successor relation between moments holds when some node-level
relation pairs the roots, relates only sensible label pairs, and is
forward confluent over the tree orders.  Every row of it over a set of
targets is computed at once, as bitsets, by `_lift`, the one pass bottom
up over submoments, which also simulates a finite model's points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .config import Caps, DEFAULT_CAPS, NO_DEADLINE, Deadline
from .errors import CapExceeded, KitError, SigmaMismatchError
from .labels import SigmaContext, TypeSet


class Moment:
    """Interned canonical labelled tree.  Use moment()/graft() to build."""

    __slots__ = ("sigma", "label", "children", "height", "size", "_key", "_hash",
                 "_subtrees")

    def __init__(self, sigma: SigmaContext, label: int, children: tuple["Moment", ...]):
        self.sigma = sigma
        self.label = label
        self.children = children
        self.height = 1 + max((c.height for c in children), default=0)
        self.size = 1 + sum(c.size for c in children)
        # children compare by key, so this orders like the nested label tuple
        self._key = (label, children)
        self._hash = hash(self._key)
        self._subtrees: frozenset[Moment] | None = None

    @property
    def key(self):
        return self._key

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, Moment) and self.sigma == other.sigma and self._key == other._key

    def __lt__(self, other: "Moment") -> bool:
        return self._key < other._key

    def root_label(self) -> TypeSet:
        return TypeSet(self.sigma, self.label)

    def subtrees(self) -> frozenset["Moment"]:
        """All submoments, self included."""
        if self._subtrees is None:
            subs = {self}
            for c in self.children:
                subs |= c.subtrees()
            self._subtrees = frozenset(subs)
        return self._subtrees

    def node_labels(self) -> frozenset[int]:
        """The labels of all submoments, read off the cached `subtrees`."""
        return frozenset(m.label for m in self.subtrees())

    def to_json(self) -> dict:
        return {"label": [i for i in range(len(self.sigma)) if self.label >> i & 1],
                "children": [c.to_json() for c in self.children]}

    def __repr__(self) -> str:
        return f"Moment({self.sigma.format_mask(self.label)}, {len(self.children)} children)"


def _sorted_kids(sigma: SigmaContext, children) -> tuple[Moment, ...]:
    kids = tuple(sorted(children, key=lambda c: c._key))
    for c in kids:
        if c.sigma != sigma:
            raise SigmaMismatchError("child moment built over a different context")
    return kids


def moment(sigma: SigmaContext, label: int | TypeSet, children=(),
           validate: bool = True) -> Moment:
    """Intern a moment with the given root label and child moments.

    Children are sorted into canonical order; duplicates are kept, so the
    result represents the given tree up to isomorphism.  With validate on
    (the default) the label must be a type, child root labels must extend
    it, and every defect of the label must be absent from some child's
    root label; those three clauses are exactly what momenthood needs
    given that the children are already moments.
    """
    if isinstance(label, TypeSet):
        if label.sigma != sigma:
            raise SigmaMismatchError("label built over a different context")
        label = label.mask
    kids = _sorted_kids(sigma, children)
    if validate:
        check_kit(sigma, label, kids)
    return _intern(sigma, label, kids)


def _intern(sigma: SigmaContext, label: int, kids: tuple[Moment, ...]) -> Moment:
    """The interned moment with these sorted children; the moment's own key
    is the intern-table key, so no second tuple is kept."""
    cached = sigma._moment_cache.get((label, kids))
    if cached is None:
        cached = Moment(sigma, label, kids)
        sigma._moment_cache[cached._key] = cached
    return cached


def check_kit(sigma: SigmaContext, label: int, kids: tuple[Moment, ...]) -> None:
    """Raise KitError naming the violated clause, or return quietly."""
    if not sigma.is_type_mask(label):
        raise KitError(f"root label is not a type: {sigma.format_mask(label)}")
    for c in kids:
        if label & c.label != label:
            raise KitError(
                f"containment fails: root {sigma.format_mask(label)} not within "
                f"child root {sigma.format_mask(c.label)}")
    for i in sigma.defect_indices(label):
        if all(c.label >> i & 1 for c in kids):
            raise KitError(
                f"defect {sigma.texts[i]} of {sigma.format_mask(label)} "
                f"is revoked by no child")


def graft(phi: TypeSet, children) -> Moment:
    """Attach a set of child moments below a new root labelled phi.

    Children are treated as a set (duplicates collapse).  Raises KitError
    naming the violated clause when the pieces do not fit together.
    """
    return moment(phi.sigma, phi.mask, set(children), validate=True)


def submoment(m: Moment, path: tuple[int, ...]) -> Moment:
    """The restriction of m to the subtree at the given node address."""
    out = m
    for i in path:
        try:
            out = out.children[i]
        except IndexError:
            raise KeyError(f"no node at {path}") from None
    return out


def below(v: Moment, w: Moment) -> bool:
    """Whether v is a submoment of w (v below w in the moment order)."""
    return v in w.subtrees()


# ---------------------------------------------------------------------------
# Temporal successor

def temporal_successor(v: Moment, w: Moment) -> bool:
    """Whether w can follow v: some relation on nodes pairs the roots,
    relates only sensible label pairs, and is forward confluent.

    The roots must be sensible, and every child of v must be followed by
    some submoment of w.  A witness for the roots restricts to a witness
    for each child and the submoment it pairs the child with, and the root
    pair together with witnesses for the children is a witness for the
    roots.  This is `_successor_masks` over the one source v and the one
    target w.
    """
    if v.sigma != w.sigma:
        raise SigmaMismatchError("moments built over different contexts")
    return _successor_masks((v,), (w,))[0] == 1


def _successor_masks(sources, targets, deadline: Deadline = NO_DEADLINE) -> list[int]:
    """For each source v, the mask of the distinct targets that can follow
    it: bit j is set when `temporal_successor(v, targets[j])`.

    `_lift` over the submoments of the sources, on bitsets over the
    universe of the targets (bit j is targets[j]) and their submoments:
    fit(x) holds the moments whose root labels may follow x's, those with
    label & M == V for x's successor pattern (M, V), and above[u] the
    moments with u among their submoments.  The deadline is checked on
    every 256th step of the loops that collect the universe, above, the
    submoments of the sources and the fit masks, and once per submoment
    of a source.
    """
    what = "successor construction"
    index = {w: j for j, w in enumerate(targets)}
    universe = list(targets)
    above = [0] * len(universe)
    with_label: dict[int, int] = {}
    for i, u in enumerate(deadline.every(universe, what)):  # read as it grows
        with_label[u.label] = with_label.get(u.label, 0) | 1 << i
        for t in u.subtrees():
            j = index.get(t)
            if j is None:
                j = index[t] = len(universe)
                universe.append(t)
                above.append(0)
            above[j] |= 1 << i
    nodes = sorted({x for v in deadline.every(sources, what) for x in v.subtrees()},
                   key=lambda x: x.height)
    fit: dict[tuple[int, int], int] = {}
    for care in {p[0] for p in (x.sigma.pattern_of(x.label) for x in nodes) if p is not None}:
        for label, members in deadline.every(with_label.items(), what):
            key = (care, label & care)
            fit[key] = fit.get(key, 0) | members
    follow = _lift(nodes, [fit.get(x.sigma.pattern_of(x.label), 0) for x in nodes],
                   above, deadline, what)
    everything = (1 << len(targets)) - 1
    return [follow[v] & everything for v in sources]


def _lift(nodes, fits, above: list[int], deadline: Deadline, what: str) -> dict[Moment, int]:
    """One pass bottom up over moments listed children first, each paired
    with its fit mask in fits, on bitsets over a universe:

        follow(x) = fit(x) & AND over the children c of x of up(follow(c)),

    where up(S), the union of above[u] over the bits u of S, is built once
    per S.  Checks the deadline, under what, once per node."""
    ups: dict[int, int] = {}
    follow: dict[Moment, int] = {}
    for x, mask in zip(nodes, fits):
        deadline.check(what)
        for c in x.children:
            s = follow[c]
            up = ups.get(s)
            if up is None:
                up = ups[s] = _union(above, s)
            mask &= up
        follow[x] = mask
    return follow


def _union(masks: list[int], s: int) -> int:
    """The union of masks[u] over the bits u of s."""
    out = 0
    while s:
        low = s & -s
        out |= masks[low.bit_length() - 1]
        s ^= low
    return out


# ---------------------------------------------------------------------------
# Reduction and irreducibility

def _folds(u: Moment, v: Moment) -> bool:
    """Whether some label-preserving monotone node map sends u into v,
    root to root: the labels are equal and every child of u folds into
    some submoment of v.  Memoized per context."""
    if u.label != v.label:
        return False
    memo = u.sigma._fold_memo
    key = (u, v)
    hit = memo.get(key)
    if hit is None:
        hit = all(any(_folds(c, t) for t in v.subtrees()) for c in u.children)
        memo[key] = hit
    return hit


def _folds_into_sibling(kid: Moment, kids) -> bool:
    return any(_folds(kid, t) for other in kids if other is not kid
               for t in other.subtrees())


def is_irreducible(m: Moment) -> bool:
    """Whether no idempotent monotone label-preserving collapse onto a
    proper sub-collection of nodes exists, that is whether m is its own
    core: reduce(m) is m."""
    return reduce(m) is m


def reduce(m: Moment) -> Moment:
    """The core of m: its smallest retract, unique up to isomorphism and
    so a single interned moment, with the same root label.

    By recursion on the children.  Each child is replaced by its reduct;
    a reduct carrying the root's label is replaced by its own children,
    which carry strictly larger labels because a node sharing its label
    with a strict descendant collapses onto it.  Duplicates go, and then,
    canonically least first, every child that folds into a remaining
    sibling's submoments.  What is left is irreducible: a collapse fixes
    the root, the only node with its label, and maps each child into its
    own subtree, where it is a bijection because the child is irreducible.
    """
    memo = m.sigma._reduce_memo
    hit = memo.get(m)
    if hit is None:
        kids: set[Moment] = set()
        for c in m.children:
            r = reduce(c)
            kids.update(r.children if r.label == m.label else (r,))
        kept = sorted(kids, key=lambda k: k._key)
        for kid in tuple(kept):
            if _folds_into_sibling(kid, kept):
                kept.remove(kid)
        hit = moment(m.sigma, m.label, kept)
        memo[m] = hit
    return hit


# ---------------------------------------------------------------------------
# Enumeration of all irreducible moments

@dataclass
class MomentStore:
    """Interned irreducible moments for one context, with completeness status.

    complete is True only when the bottom-up generation exhausted every
    candidate within the caps; consumers must not treat an incomplete
    store as the full space.
    """

    sigma: SigmaContext
    moments: tuple[Moment, ...]
    complete: bool
    # heights 1 up to the layers begun, each with its moments in key order
    by_height: dict[int, tuple[Moment, ...]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.moments)


def _distinct_labels(kids: tuple[Moment, ...]) -> bool:
    """Whether the nodes below a candidate's root carry pairwise distinct
    labels.  The root needs no test: every node below it has a strictly
    larger label."""
    seen: set[int] = set()
    stack = list(kids)
    while stack:
        m = stack.pop()
        if m.label in seen:
            return False
        seen.add(m.label)
        stack.extend(m.children)
    return True


class _Generation:
    """Bottom-up layered generation of irreducible moments, by height.

    One engine serves both orders.  A layer grafts each root type below
    each set of pairwise distinct, already generated irreducibles with
    strictly larger root labels that _child_sets draws from the root's
    groups (see _groups); on layer one that set is empty, so the layer
    holds the defect-free types.  Such a candidate is irreducible exactly
    when no child folds into a sibling's submoments (see reduce), so it
    is rejected then; one whose node labels are pairwise distinct admits
    no fold and skips the test.  The orders differ only in _child_sets
    and _exhausted.  Here layer h holds the moments of height h, each
    with a child from layer h - 1; labels grow strictly along branches,
    so generation stops past the context size or at an empty layer.

    `layer` counts the layers begun and `height` is the height of the
    tallest moment generated, in either order.  One grow() call produces
    one non-empty layer, so a caller may interleave generation with its
    own searches and stop early; `tripped` keeps the CapExceeded of a
    resource limit that cut the space off before it was exhausted, and
    `capped` says whether there is one.

    allowed_labels, a collection of types, are the node labels; None means
    every type, whose enumeration raises CapExceeded if the deadline passes
    first.  A deadline passing during grow() caps the generation instead.
    """

    def __init__(self, sigma: SigmaContext, caps: Caps = DEFAULT_CAPS,
                 allowed_labels=None, deadline: Deadline | None = None):
        self.sigma = sigma
        self.caps = caps
        self.deadline = caps.deadline() if deadline is None else deadline
        self.types = sorted(sigma.type_masks(self.deadline) if allowed_labels is None
                            else set(allowed_labels))
        self.budget = 4 * caps.max_moments
        self.examined = 0
        self.count = 0
        self.tripped: CapExceeded | None = None
        self.exhausted = False
        self.layer = 0
        self.height = 0
        self.accepted: list[Moment] = []
        self.layers: list[list[Moment]] = []
        # per root type: its groups (see _groups) and the layers filed so far
        self.above: dict[int, list[tuple[int, list[Moment]]]] = {t: [] for t in self.types}
        self.filed = dict.fromkeys(self.types, 0)

    @property
    def capped(self) -> bool:
        return self.tripped is not None

    def _spend(self) -> None:
        self.examined += 1
        if self.count >= self.caps.max_moments or self.examined >= self.budget:
            raise CapExceeded("moment cap reached")

    def grow(self) -> list[Moment]:
        """Generate the next non-empty layer; [] once the space is exhausted
        or a cap tripped."""
        if self.capped or self.exhausted:
            return []
        try:
            while True:
                fresh = self._next_layer()
                self.accepted.extend(fresh)
                self.exhausted = self._exhausted(fresh)
                if fresh or self.exhausted:
                    return fresh
        except CapExceeded as err:
            self.tripped = err
            self.count = len(self.accepted)  # the cut layer reaches no caller
            return []

    def _next_layer(self) -> list[Moment]:
        self.layer += 1
        self.deadline.check("moment generation")
        fresh: list[Moment] = []
        for root in self.types:
            defect_ids = self.sigma.defect_indices(root)
            for kids in self.deadline.every(self._child_sets(self._groups(root)),
                                            "moment generation"):
                self._admit(root, defect_ids, kids, fresh)
        self.layers.append(fresh)
        self.height = max([self.height] + [m.height for m in fresh])
        return fresh

    def _groups(self, root: int) -> list[tuple[int, list[Moment]]]:
        """(layer, its moments above the root) for each generated layer
        with some, in layer order.  Each layer is filed once per root, on
        the root's first look after it, so no layer rescans earlier ones,
        and a cap that cuts a layer short spares the roots it missed."""
        groups = self.above[root]
        for layer in range(self.filed[root], len(self.layers)):
            self.deadline.check("moment generation")
            members = [m for m in self.layers[layer] if root & m.label == root and m.label != root]
            if members:
                groups.append((layer + 1, members))
        self.filed[root] = len(self.layers)
        return groups

    def _child_sets(self, groups: list[tuple[int, list[Moment]]]):
        """The empty set on layer one; later, a nonempty subset of the
        previous layer's group followed by any subset of the older groups,
        each by increasing size."""
        if self.layer == 1:
            yield ()
        if not groups or groups[-1][0] != self.layer - 1:
            return
        newest = groups[-1][1]
        older = [m for _, members in groups[:-1] for m in members]
        for k_new in range(1, len(newest) + 1):
            for new_part in itertools.combinations(newest, k_new):
                for k_old in range(len(older) + 1):
                    for old_part in itertools.combinations(older, k_old):
                        yield new_part + old_part

    def _exhausted(self, fresh: list[Moment]) -> bool:
        return not fresh or self.layer > len(self.sigma)

    def _admit(self, root: int, defect_ids, kids: tuple[Moment, ...],
               fresh: list[Moment]) -> None:
        """Examine one candidate, the root type over distinct generated
        irreducibles with strictly larger labels, and append it to fresh
        when it is an irreducible moment."""
        self._spend()
        if any(all(c.label >> i & 1 for c in kids) for i in defect_ids):
            return
        if not _distinct_labels(kids) and any(_folds_into_sibling(c, kids) for c in kids):
            return
        fresh.append(_intern(self.sigma, root, _sorted_kids(self.sigma, kids)))
        self.count += 1

    def snapshot(self) -> tuple[Moment, ...]:
        return tuple(sorted(set(self.accepted), key=lambda m: m.key))

    def store(self) -> MomentStore:
        moments = self.snapshot()
        return MomentStore(
            sigma=self.sigma,
            moments=moments,
            complete=not self.capped,
            by_height={h: tuple(m for m in moments if m.height == h)
                       for h in range(1, self.layer + 1)},
        )


class _SizeGeneration(_Generation):
    """The same engine ordered by node count: layer s holds the
    irreducible moments with s nodes, so a root's groups hold its
    moments of each size.

    A size-s candidate is a root type over a set of distinct generated
    irreducibles with strictly larger labels whose sizes add up to s - 1.
    Children are smaller than their parent, so the moments generated up
    to any layer are closed under submoments, and each candidate is
    examined exactly once, in the layer its size names; run to
    exhaustion, both orders examine the same candidates and accept the
    same moments.  A layer may be empty while a later one is not, so
    generation is exhausted only once no root has generated moments above
    it totalling the next layer's child size.
    """

    def _child_sets(self, groups: list[tuple[int, list[Moment]]]):
        return _sets_of_size(groups, self.layer - 1)

    def _exhausted(self, fresh: list[Moment]) -> bool:
        # the next layer's children must add up to self.layer nodes; max,
        # unlike all, files the layer under every root before the caller's
        # search, checking the deadline per root as it goes
        return max((sum(size * len(members) for size, members in self._groups(root))
                    for root in self.types), default=0) < self.layer


def _sets_of_size(groups: list[tuple[int, list[Moment]]], total: int):
    """Every set drawn from the groups of equal-sized moments, given in
    increasing size order, whose sizes add up to total; each set once.

    sums[j] has bit n set when the first j groups hold a set of n nodes,
    so the search only enters branches that complete.
    """
    sums = [1]
    for size, members in groups:
        acc = reach = sums[-1]
        for k in range(1, min(len(members), total // size) + 1):
            acc |= reach << k * size
        sums.append(acc)

    def pick(j: int, rest: int):
        if not rest:
            yield ()
            return
        size, members = groups[j - 1]
        for k in range(min(len(members), rest // size) + 1):
            if sums[j - 1] >> rest - k * size & 1:
                for part in itertools.combinations(members, k):
                    for others in pick(j - 1, rest - k * size):
                        yield others + part

    if sums[-1] >> total & 1:
        yield from pick(len(sums) - 1, total)


def enumerate_irreducibles(sigma: SigmaContext, caps: Caps = DEFAULT_CAPS,
                           allowed_labels=None) -> MomentStore:
    """Generate all irreducible moments bottom-up by height.

    Generation stops once a layer comes out empty (labels grow strictly
    along branches, so no irreducible is taller than the context size
    plus one) or when a cap trips, in which case the store is flagged
    incomplete.

    allowed_labels optionally restricts node labels to a collection of
    types; the result is then every irreducible all of whose node labels
    lie in it.  Without it every type is a node label, and a timeout that
    passes while the types are enumerated, before any moment exists,
    raises CapExceeded instead.
    """
    gen = _Generation(sigma, caps, allowed_labels)
    while gen.grow():
        pass
    return gen.store()
