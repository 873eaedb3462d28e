"""Subformula contexts, types, defects and sensible pairs.

A SigmaContext is a finite subformula-closed list of formulas with a fixed
index order; every label in the construction is a membership set over it,
stored as an integer bitmask.  A type is a membership set satisfying the
pointwise closure conditions below; a defect of a type is an implication
that neither holds nor has its antecedent, and therefore owes a witness
nearby; a sensible pair is a now/next-compatible pair of types.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .config import NO_DEADLINE, Deadline
from .errors import SigmaMismatchError
from .formula import (And, Atom, Bottom, Eventually, Forall, Formula, Implies,
                      Next, Or, children, format_texts, operand_table, subformulas)


class SigmaContext:
    """A subformula-closed set of formulas with deterministic indexing.

    Index order is post-order of first occurrence.  Also owns the caches
    shared by everything built over the same context (type enumeration,
    moment interning, memo tables).
    """

    def __init__(self, formulas: tuple[Formula, ...]):
        self.formulas = formulas
        self.index = {f: i for i, f in enumerate(formulas)}
        if len(self.index) != len(formulas):
            raise ValueError("duplicate formulas in context")
        for i, f in enumerate(formulas):
            for g in children(f):
                if self.index.get(g, i) >= i:  # missing, or indexed after f
                    raise ValueError(f"context not subformula-closed in post-order: "
                                     f"{g} must precede {f}")

        self._ops = operand_table(formulas, self.index.__getitem__)
        self.impl_triples = tuple((i, a, b) for i, (op, a, b) in enumerate(self._ops)
                                  if op is Implies)
        # every formula but the atoms, which `classical_pins` never pins
        self._connectives = tuple((i, op, a, b) for i, (op, a, b) in enumerate(self._ops)
                                  if op is not Atom)
        self.next_pairs, self.ev_pairs, self.forall_pairs = (
            tuple((i, a) for i, (op, a, _) in enumerate(self._ops) if op is node)
            for node in (Next, Eventually, Forall))
        # distinct formulas have distinct indices and, per modality,
        # distinct bodies, so these sums are unions
        self.forall_mask = sum(1 << i for i, _ in self.forall_pairs)
        self.next_body_mask = sum(1 << b for _, b in self.next_pairs)

        self._type_masks: tuple[int, ...] | None = None
        self._patterns: dict[int, tuple[int, int] | None] = {}
        self._type_memo: dict[int, bool] = {}
        self._moment_cache: dict = {}
        self._fold_memo: dict = {}
        self._reduce_memo: dict = {}

    def __len__(self) -> int:
        return len(self.formulas)

    def __contains__(self, f: Formula) -> bool:
        return f in self.index

    def __eq__(self, other: object) -> bool:
        return self is other or isinstance(other, SigmaContext) and self.formulas == other.formulas

    def __hash__(self) -> int:
        return hash(self.formulas)

    def __repr__(self) -> str:
        return f"SigmaContext({len(self.formulas)} formulas)"

    # -- type machinery on raw masks ------------------------------------

    def _bits(self, k: int, mask: int) -> tuple[int, ...]:
        """The values bit k may take in a type, given the bits of its operands.

        These are the type closure rules: bottom is never a member,
        conjunctions and disjunctions follow their operands, an implication
        holds when its consequent does and fails when only its antecedent
        does, and an eventuality holds when its body does.  Every other bit
        is free.
        """
        op, a, b = self._ops[k]
        if op is Bottom:
            return (0,)
        if op is And:
            return (mask >> a & mask >> b & 1,)
        if op is Or:
            return ((mask >> a | mask >> b) & 1,)
        if op is Implies and (mask >> a | mask >> b) & 1:
            return (mask >> b & 1,)
        if op is Eventually and mask >> a & 1:
            return (1,)
        return (0, 1)

    def is_type_mask(self, mask: int) -> bool:
        """Whether mask lies within the context and each bit takes a value
        that `_bits` allows it; answered once per mask and context."""
        known = self._type_memo.get(mask)
        if known is None:
            known = self._type_memo[mask] = 0 <= mask < 1 << len(self) and all(
                mask >> k & 1 in self._bits(k, mask) for k in range(len(self)))
        return known

    def types_matching(self, care: int, value: int,
                       deadline: Deadline = NO_DEADLINE) -> tuple[int, ...]:
        """The type masks t with t & care == value, in ascending numeric order.

        Operands are indexed before the formulas over them, so the masks
        are built one subformula at a time from [0]: every partial mask
        over the first k formulas is extended by each value `_bits` allows
        bit k that agrees with value where care pins bit k, and is dropped
        when there is none.  Every rule allows some value, so with nothing
        pinned every partial mask extends to a type and the cost follows
        the number of types, not 2^|Σ|.  The final sort is one unchecked
        step.
        """
        masks = [0]
        for k in range(len(self.formulas)):
            agree = (value >> k & 1,) if care >> k & 1 else (0, 1)
            masks = [m | b << k for m in deadline.every(masks, "type enumeration")
                     for b in self._bits(k, m) if b in agree]
        return tuple(sorted(masks))

    def type_masks(self, deadline: Deadline = NO_DEADLINE) -> tuple[int, ...]:
        """All type masks, `types_matching(0, 0)`, built once per context."""
        if self._type_masks is None:
            self._type_masks = self.types_matching(0, 0, deadline)
        return self._type_masks

    def defect_indices(self, mask: int) -> tuple[int, ...]:
        return tuple(i for i, l, _ in self.impl_triples
                     if not mask >> i & 1 and not mask >> l & 1)

    def successor_pattern(self, mask: int) -> tuple[int, int] | None:
        """The pattern (M, V) of the masks that may follow mask: w may
        follow exactly when w & M == V, or no w may when this is None.

        The rules of a sensible pair each pin one bit of the successor.
        An `X` formula pins its body to its own value, an `A` formula
        pins itself, and an eventuality pins itself too unless mask holds
        its body, in which case mask must hold the eventuality.  The
        pattern is None when two rules pin one bit to different values,
        for example `X<>r` absent while `<>r` is owed next.
        """
        value = 0
        for i, b in self.next_pairs:
            value |= (mask >> i & 1) << b
        care = self.forall_mask
        for i, b in self.ev_pairs:
            if not mask >> b & 1:
                care |= 1 << i
            elif not mask >> i & 1:
                return None
        # an X body that is also an A formula or an owed eventuality is
        # pinned twice: to the X formula's value and to its own
        if (value ^ mask) & self.next_body_mask & care:
            return None
        return care | self.next_body_mask, value | mask & care

    def pattern_of(self, mask: int) -> tuple[int, int] | None:
        """mask's `successor_pattern`, computed once per mask and context."""
        if mask not in self._patterns:
            self._patterns[mask] = self.successor_pattern(mask)
        return self._patterns[mask]

    def sensible_masks(self, now: int, nxt: int) -> bool:
        """Whether nxt may follow now, by now's `pattern_of`."""
        pattern = self.pattern_of(now)
        return pattern is not None and nxt & pattern[0] == pattern[1]

    @cached_property
    def texts(self) -> tuple[str, ...]:
        """`format_formula` of each formula, all printed in one pass."""
        return format_texts(self.formulas, self._ops)

    def format_mask(self, mask: int) -> str:
        return "{" + ", ".join(t for i, t in enumerate(self.texts) if mask >> i & 1) + "}"


def subformula_closure(f: Formula) -> SigmaContext:
    """Smallest subformula-closed context containing f."""
    return SigmaContext(subformulas(f))


@dataclass(frozen=True)
class TypeSet:
    """A type over a context: a membership mask satisfying the closure rules."""

    sigma: SigmaContext
    mask: int

    def __post_init__(self):
        if not self.sigma.is_type_mask(self.mask):
            raise ValueError(f"not a type: {self.sigma.format_mask(self.mask)}")

    def __contains__(self, f: Formula) -> bool:
        i = self.sigma.index.get(f)
        return i is not None and self.mask >> i & 1 == 1

    def members(self) -> tuple[Formula, ...]:
        return tuple(f for i, f in enumerate(self.sigma.formulas) if self.mask >> i & 1)

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(len(self.sigma)) if self.mask >> i & 1)

    def __repr__(self) -> str:
        return f"TypeSet({self.sigma.format_mask(self.mask)})"


def type_set(sigma: SigmaContext, members) -> TypeSet:
    """Build a TypeSet from an iterable of formulas."""
    mask = 0
    for f in members:
        if f not in sigma.index:
            raise SigmaMismatchError(f"{f} not in context")
        mask |= 1 << sigma.index[f]
    return TypeSet(sigma, mask)


def enumerate_types(sigma: SigmaContext) -> list[TypeSet]:
    """All types over the context, in canonical (numeric) order."""
    return [TypeSet(sigma, m) for m in sigma.type_masks()]


def defects(phi: TypeSet) -> tuple[Formula, ...]:
    """The implications owed a witness: absent together with their antecedent."""
    return tuple(phi.sigma.formulas[i] for i in phi.sigma.defect_indices(phi.mask))


def sensible_pair(phi: TypeSet, psi: TypeSet) -> bool:
    """Whether (phi, psi) is consistent as a now/next pair of types.

    Next-formulas transfer to the successor body, eventualities unfold
    (now iff realized now or owed next), and universally quantified
    members agree on both sides.
    """
    if phi.sigma is not psi.sigma and phi.sigma != psi.sigma:
        raise SigmaMismatchError("types built over different contexts")
    return phi.sigma.sensible_masks(phi.mask, psi.mask)


# ---------------------------------------------------------------------------
# Universal profiles and label viability

def profile_masks(sigma: SigmaContext) -> list[int]:
    """All subsets of the universally quantified formulas, canonical order.

    A profile fixes which forall-formulas appear in every label of a
    candidate structure; the subsets are ordered by ascending mask.
    """
    masks = [0]
    for i, _ in sigma.forall_pairs:
        masks += [m | 1 << i for m in masks]
    return sorted(masks)


def profile_pattern(sigma: SigmaContext, profile: int) -> tuple[int, int] | None:
    """The pattern (FM, FV) of the labels that follow the profile: a label
    does exactly when label & FM == FV.  FM covers the `A` bits and the
    bodies the profile promises; None when no label can follow it."""
    bodies = sum(1 << b for i, b in sigma.forall_pairs if profile >> i & 1)
    if profile & ~sigma.forall_mask or bodies & sigma.forall_mask & ~profile:
        return None
    return sigma.forall_mask | bodies, profile | bodies


def classical_pins(sigma: SigmaContext, ones: list[int], zeros: list[int]) -> None:
    """Pin each formula in index order by the classical reading of its
    connective, in every lane at once.

    Bit v of ones[k] or zeros[k] pins formula k to 1 or 0 in lane v; the
    lists hold the seeded pins and are extended in place.  These are the
    only such rules: `#` is 0; `&`, `|` and `->` take the value their
    pinned operands force; `X a` and `<>a` take a's pins; `A a` takes a's
    pins only in lanes where its own bit is free; every other formula
    keeps its seeds.  A lane where some formula is pinned both ways, in
    ones[k] & zeros[k], holds no type.
    """
    for k, op, a, b in sigma._connectives:
        if op is Or:
            ones[k] |= ones[a] | ones[b]
            zeros[k] |= zeros[a] & zeros[b]
        elif op is And:
            ones[k] |= ones[a] & ones[b]
            zeros[k] |= zeros[a] | zeros[b]
        elif op is Implies:
            ones[k] |= zeros[a] | ones[b]
            zeros[k] |= ones[a] & zeros[b]
        elif op is Forall:
            free = ~(ones[k] | zeros[k])
            ones[k] |= ones[a] & free
            zeros[k] |= zeros[a] & free
        elif op is Next or op is Eventually:
            ones[k] |= ones[a]
            zeros[k] |= zeros[a]
        elif op is Bottom:
            zeros[k] = -1  # every lane


def profile_type_pattern(sigma: SigmaContext, profile: int) -> tuple[int, int] | None:
    """`profile_pattern` extended by the bits every viable type of the
    profile takes: `classical_pins` on one lane, seeded by the pattern
    (`viable_types` says why the pins are sound); None when two pins
    disagree, and then the profile has no viable type."""
    pattern = profile_pattern(sigma, profile)
    if pattern is None:
        return None
    care, value = pattern
    ones = [value >> k & 1 for k in range(len(sigma))]
    zeros = [(care & ~value) >> k & 1 for k in range(len(sigma))]
    classical_pins(sigma, ones, zeros)
    ones, zeros = (sum((pin & 1) << k for k, pin in enumerate(pins)) for pins in (ones, zeros))
    return None if ones & zeros else (ones | zeros, ones)


_BLOCK_ATOMS = 8  # one-world valuations are tried 2^8 at a time


def one_world_label(sigma: SigmaContext, target: int,
                    deadline: Deadline = NO_DEADLINE) -> int | None:
    """The label of the first one-world quasimodel lacking formula target,
    or None.

    A world that is its own successor is labelled by a valuation of the
    atoms, tried in ascending order with the atoms in index order, and
    every other bit is what `classical_pins` makes of it.  Such a label is
    a type with no defect, since an absent implication holds its
    antecedent.  The world is sensible to itself, realizes each
    eventuality where it is owed, and is honest, because `A a` is absent
    only when a is.

    The valuations are taken in blocks of 2^_BLOCK_ATOMS, one lane each,
    in which only the first atoms vary, so a block costs one pass over the
    context.  The deadline is checked once per block."""
    atoms = [k for k, (op, _, _) in enumerate(sigma._ops) if op is Atom]
    low, high = atoms[:_BLOCK_ATOMS], atoms[_BLOCK_ATOMS:]
    full = (1 << (1 << len(low))) - 1
    seed_ones, seed_zeros = [0] * len(sigma), [0] * len(sigma)
    for j, k in enumerate(low):
        seed_ones[k] = sum(1 << v for v in range(1 << len(low)) if v >> j & 1)
        seed_zeros[k] = full ^ seed_ones[k]
    for block in range(1 << len(high)):
        deadline.check("one-world search")
        ones, zeros = seed_ones[:], seed_zeros[:]
        for j, k in enumerate(high):
            (ones if block >> j & 1 else zeros)[k] = full
        classical_pins(sigma, ones, zeros)
        lacking = zeros[target] & full
        if lacking:
            v = (lacking & -lacking).bit_length() - 1
            return sum((one >> v & 1) << k for k, one in enumerate(ones))
    return None


def profile_compatible(sigma: SigmaContext, profile: int, mask: int) -> bool:
    """Label agrees with the profile and carries every promised body."""
    pattern = profile_pattern(sigma, profile)
    return pattern is not None and mask & pattern[0] == pattern[1]


def viable_types(sigma: SigmaContext, profile: int,
                 deadline: Deadline = NO_DEADLINE) -> frozenset[int]:
    """Greatest set of profile-compatible types closed under the survival rules.

    Every label occurring anywhere in a serial, eventually-realizing,
    profile-honest structure must (a) have a sensible successor among the
    surviving labels, (b) realize each of its eventualities along a
    sensible path of surviving labels, and (c) have, for each of its
    defects, a strictly larger surviving label witnessing the antecedent
    without the consequent.  Pruning to the greatest such set is sound:
    a type outside it can appear in no such structure, and the removal
    order does not change it.

    The profile's types are built from its `profile_type_pattern` by
    `SigmaContext.types_matching`, never filtered out of all types.  That
    pattern extends `profile_pattern` by the pins of `classical_pins`;
    the profile pins every `A` bit, so no `A` formula takes its body's
    pins.  Two pins that disagree leave no types.  The pins are sound by
    induction over the index order: if the types removed by earlier pins
    lie in no fixpoint, a type that disagrees with the next pin lacks a
    sensible successor (`X`), owes an eventuality no label realizes
    (`<>`), keeps a defect no label revokes (`->` over an antecedent at
    0) or breaks a closure rule, so it lies in no fixpoint either, and
    the greatest fixpoint does not change.
    Certificates are still checked against the unpinned `profile_pattern`:
    the pins are a deduction of this search, not a rule of a quasimodel.

    The survivors are indexed by their `successor_pattern` (M, V), and M
    takes few distinct values.  A round first drops the types failing (a)
    or (c): (a) looks (M, V) up in the set of keys (M, w & M) of the
    survivors w, and (c) searches, for each defect, the list of
    survivors holding its antecedent and not its consequent.  It then
    runs one backward search per eventuality from the survivors holding
    its body: survivors without the body wait under their pattern, and
    each newly reached w releases the waiters under (M, w & M).  Those
    owing the eventuality and never reached are dropped, and a round that
    drops nothing ends it.  Every loop over types checks the deadline.
    """
    pattern = profile_type_pattern(sigma, profile)
    if pattern is None:
        return frozenset()

    def checked(types):
        return deadline.every(types, "label viability")

    patterns = {m: sigma.successor_pattern(m)
                for m in checked(sigma.types_matching(*pattern, deadline))}
    alive = {m for m, p in patterns.items() if p is not None}
    before = None
    while len(alive) != before:
        before = len(alive)
        cares = {patterns[m][0] for m in alive}
        keys = {(care, w & care) for w in checked(alive) for care in cares}
        revokers = {(a, c): [v for v in checked(alive) if v >> a & 1 and not v >> c & 1]
                    for _, a, c in sigma.impl_triples}
        alive = {m for m in checked(alive) if patterns[m] in keys
                 and all(any(v & m == m for v in revokers[a, c])
                         for i, a, c in sigma.impl_triples if not m >> i & 1 and not m >> a & 1)}
        for i, b in sigma.ev_pairs:
            waiting: dict[tuple[int, int], list[int]] = {}
            for v in checked(alive):
                if not v >> b & 1:
                    waiting.setdefault(patterns[v], []).append(v)
            held = {care for care, _ in waiting}
            reached = reach_back([w for w in alive if w >> b & 1],
                                 lambda w: [v for care in held
                                            for v in waiting.pop((care, w & care), ())],
                                 deadline, "label viability")
            alive = {m for m in alive if not m >> i & 1 or m in reached}
    return frozenset(alive)


def reach_back(start, predecessors, deadline: Deadline, what: str) -> set:
    """The nodes of start and those from which a path reaches one of them,
    found breadth first: `predecessors(w)` lists the nodes with a step into
    w.  The deadline is checked under what."""
    reached = set(start)
    queue = list(reached)
    for w in deadline.every(queue, what):  # the queue grows while it is read
        for v in predecessors(w):
            if v not in reached:
                reached.add(v)
                queue.append(v)
    return reached
