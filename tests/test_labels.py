import itertools
import random
import time

import pytest

import itlc
from itlc.config import Deadline
from itlc.formula import And, Atom, BOT, Eventually, Forall, Implies, Next, Or, parse
from itlc.labels import (SigmaContext, TypeSet, defects, enumerate_types,
                         sensible_pair, subformula_closure, type_set)
from itlc.moments import moment

p, q = Atom("p"), Atom("q")


def _is_type_reference(sigma, members):
    """Oracle written straight from the closure conditions."""
    if BOT in members:
        return False
    for f in sigma.formulas:
        if isinstance(f, And) and f in sigma.index:
            if (f in members) != (f.left in members and f.right in members):
                return False
        if isinstance(f, Or):
            if (f in members) != (f.left in members or f.right in members):
                return False
        if isinstance(f, Implies):
            if f in members and f.left in members and f.right not in members:
                return False
            if f.right in members and f not in members:
                return False
        if isinstance(f, Eventually):
            if f.body in members and f not in members:
                return False
    return True


def test_enumerate_types_atom_only():
    sigma = SigmaContext((p,))
    got = enumerate_types(sigma)
    assert [t.members() for t in got] == [(), (p,)]


def test_enumerate_types_eventually_oracle():
    sigma = subformula_closure(parse("<>p"))
    got = {t.members() for t in enumerate_types(sigma)}
    expected = set()
    for members in itertools.chain.from_iterable(
            itertools.combinations(sigma.formulas, k) for k in range(3)):
        if _is_type_reference(sigma, set(members)):
            expected.add(members)
    assert got == expected
    assert len(got) == 3
    assert (p,) not in got  # p without <>p breaks the unfolding condition


def test_worked_labels_are_enumerated(flagship_sigma, worked_labels):
    masks = {t.mask for t in enumerate_types(flagship_sigma)}
    for label in worked_labels:
        assert label.mask in masks


def test_enumerated_types_pass_reference_oracle():
    # the types built by the closure rules are exactly the member sets the
    # reference accepts, and is_type_mask agrees with it on every mask
    rng = random.Random(11)
    checked = 0
    for _ in range(40):
        f = itlc.random_formula(rng, depth=3,
                                modalities=itlc.DIAMOND_FRAGMENT)
        sigma = subformula_closure(f)
        if len(sigma) > 10:
            continue
        checked += 1
        masks = range(1 << len(sigma))
        accepted = [m for m in masks if _is_type_reference(
            sigma, {g for i, g in enumerate(sigma.formulas) if m >> i & 1})]
        assert [t.mask for t in enumerate_types(sigma)] == accepted
        assert [m for m in masks if sigma.is_type_mask(m)] == accepted
    assert checked >= 20


def test_defects_examples(worked_labels):
    sigma = subformula_closure(parse("p -> q"))
    empty = type_set(sigma, [])
    assert defects(empty) == (parse("p -> q"),)

    lu, lv, _ = worked_labels
    assert defects(lu) == (parse("~<>p"),)
    assert defects(lv) == ()


def test_defect_members_satisfy_definition():
    rng = random.Random(5)
    for _ in range(40):
        f = itlc.random_formula(rng, depth=3, modalities=itlc.DIAMOND_FRAGMENT)
        sigma = subformula_closure(f)
        if len(sigma) > 9:
            continue
        for t in enumerate_types(sigma):
            for d in defects(t):
                assert isinstance(d, Implies)
                assert d not in t and d.left not in t


def test_sensible_examples(worked_labels):
    lu, lv, lw = worked_labels
    assert sensible_pair(lv, lw)
    assert sensible_pair(lu, lu)
    assert not sensible_pair(lu, lv)

    sigma = subformula_closure(parse("X p"))
    with_next = type_set(sigma, [Next(p)])
    with_p = type_set(sigma, [p])
    empty = type_set(sigma, [])
    assert sensible_pair(with_next, with_p)
    assert not sensible_pair(with_next, empty)


def test_sensible_sigma_mismatch():
    a = type_set(SigmaContext((p,)), [p])
    b = type_set(SigmaContext((q,)), [q])
    with pytest.raises(itlc.SigmaMismatchError):
        sensible_pair(a, b)


def test_enumerated_types_recheck_implication_clause():
    sigma = subformula_closure(parse("(p -> q) & (q -> p)"))
    for t in enumerate_types(sigma):
        for f in sigma.formulas:
            if isinstance(f, Implies) and f in t and f.left in t:
                assert f.right in t


def test_eventuality_persists_across_sensible_chains():
    # if <>g holds without g now, the obligation transfers forward, and
    # onward again when still unrealized
    rng = random.Random(23)
    sigma = subformula_closure(parse("<>p & <>q"))
    types = enumerate_types(sigma)
    ev = [f for f in sigma.formulas if isinstance(f, Eventually)]
    for _ in range(300):
        a, b, c = (rng.choice(types) for _ in range(3))
        if not (sensible_pair(a, b) and sensible_pair(b, c)):
            continue
        for g in ev:
            if g in a and g.body not in a and g.body not in b:
                assert g in b
                if g.body not in b:
                    assert g in c or g.body in c


def test_sensible_pairs_agree_on_universals(flagship_sigma):
    types = enumerate_types(flagship_sigma)
    universals = [f for f in flagship_sigma.formulas if isinstance(f, Forall)]
    for a in types:
        for b in types:
            if sensible_pair(a, b):
                assert all((u in a) == (u in b) for u in universals)


def test_bottom_never_in_a_type(flagship_sigma):
    assert all(BOT not in t for t in enumerate_types(flagship_sigma))
    with pytest.raises(ValueError):
        TypeSet(flagship_sigma, 1 << flagship_sigma.index[BOT])


def test_masks_outside_the_context_are_not_types():
    sigma = subformula_closure(parse("X p -> p"))
    assert len(sigma) == 3
    beyond = 1 << len(sigma)
    for t in sigma.type_masks():
        with pytest.raises(ValueError):
            TypeSet(sigma, t | beyond)
        with pytest.raises(itlc.KitError, match="not a type"):
            moment(sigma, t | beyond)
    assert not sigma.is_type_mask(1 << 60)
    assert not sigma.is_type_mask(-1)


def test_context_lists_operands_first():
    # type enumeration reads each operand's bit before the formula's own
    with pytest.raises(ValueError, match="post-order"):
        SigmaContext((Implies(p, q), p, q))
    with pytest.raises(ValueError, match="post-order"):
        SigmaContext((Next(p),))
    assert SigmaContext((p, q, Implies(p, q))).type_masks() == (0, 1, 4, 6, 7)


def test_type_enumeration_checks_its_deadline():
    # 2^22 + 1 types: every choice of atoms, and the all-false one twice;
    # 2^21 + 1 of them leave p2 out
    wide = subformula_closure(parse(" | ".join(f"p{i}" for i in range(1, 23)) + " -> p1"))
    p2 = 1 << wide.index[Atom("p2")]
    for build in (wide.type_masks, lambda deadline: wide.types_matching(p2, 0, deadline)):
        start = time.monotonic()
        with pytest.raises(itlc.CapExceeded, match=r"^type enumeration passed "):
            build(itlc.Caps(timeout=0.2).deadline())
        assert time.monotonic() - start < 5


def test_type_enumeration_checks_its_deadline_every_256_partial_masks():
    sigma = subformula_closure(parse(" | ".join(f"p{i}" for i in range(1, 13)) + " -> p1"))
    checks = []

    class Recording(Deadline):
        def check(self, what):
            checks.append(what)

    types = sigma.types_matching(0, 0, Recording(None))
    # with nothing pinned every partial mask extends to a type, so the
    # partial masks over the first k formulas are the types cut to k bits
    partial = [len({t & (1 << k) - 1 for t in types}) for k in range(len(sigma))]
    assert set(checks) == {"type enumeration"}
    assert len(checks) >= sum(-(-n // 256) for n in partial)


def test_types_matching_builds_the_filtered_types(flagship_sigma):
    rng = random.Random(61)
    contexts = [flagship_sigma, subformula_closure(parse("A<>p -> (X ~p <-> ~X p)"))]
    while len(contexts) < 30:
        sigma = subformula_closure(itlc.eliminate_exists(
            itlc.random_formula(rng, depth=4, modalities=itlc.DIAMOND_FRAGMENT)))
        if len(sigma) <= 16:
            contexts.append(sigma)
    compared = forbidden = 0
    for sigma in contexts:
        types = sigma.type_masks()
        pins = {(0, 0)}
        pins.update(filter(None, (itlc.labels.profile_pattern(sigma, profile)
                                  for profile in itlc.labels.profile_masks(sigma))))
        pins.update(filter(None, map(sigma.successor_pattern, types)))
        for care, value in sorted(pins):
            assert sigma.types_matching(care, value) == tuple(
                t for t in types if t & care == value), (sigma.formulas[-1], care, value)
            compared += 1
        if BOT in sigma:
            # _bits never lets bottom into a type, so pinning it in builds nothing
            bottom = 1 << sigma.index[BOT]
            assert sigma.types_matching(bottom, bottom) == ()
            forbidden += 1
    assert compared > 300 and forbidden > 5


def test_viable_types_match_the_sweeping_oracle(flagship_sigma):
    from oracles import viability_oracle

    rng = random.Random(47)
    contexts = [flagship_sigma, subformula_closure(parse("A<>p -> (X ~p <-> ~X p)"))]
    while len(contexts) < 40:
        sigma = subformula_closure(itlc.eliminate_exists(
            itlc.random_formula(rng, depth=4, modalities=itlc.DIAMOND_FRAGMENT)))
        if sigma.ev_pairs and len(sigma) <= 16:
            contexts.append(sigma)
    dropped = 0
    for sigma in contexts:
        for profile in itlc.labels.profile_masks(sigma):
            viable = itlc.viable_types(sigma, profile)
            assert viable == viability_oracle(sigma, profile), (sigma.formulas[-1], profile)
            dropped += len(viable) < sum(itlc.labels.profile_compatible(sigma, profile, t)
                                         for t in sigma.type_masks())
    assert dropped > 50


def test_profile_pins_keep_the_viable_types():
    from oracles import viability_oracle

    # E's rewriting ~A~x puts an A formula in an implication's antecedent
    rng = random.Random(59)
    modalities = itlc.DIAMOND_FRAGMENT | {itlc.Modality.EXISTS}
    contexts = [subformula_closure(itlc.eliminate_exists(parse(s)))
                for s in ("EEp -> EE(p | q)", "EEp -> p & q", "E(p | Xq) -> X<>Eq")]
    while len(contexts) < 30:
        sigma = subformula_closure(itlc.eliminate_exists(
            itlc.random_formula(rng, 4, ("p", "q", "r"), modalities)))
        if len(sigma) <= 14 and any(isinstance(sigma.formulas[a], Forall)
                                    for _, a, _ in sigma.impl_triples):
            contexts.append(sigma)
    pinned = 0  # profiles whose pins drop some of their types
    for sigma in contexts:
        for profile in itlc.labels.profile_masks(sigma):
            viable = itlc.viable_types(sigma, profile)
            assert viable == viability_oracle(sigma, profile), (sigma.formulas[-1], profile)
            pins = itlc.labels.profile_type_pattern(sigma, profile)
            kept = sigma.types_matching(*pins) if pins else ()
            assert viable <= set(kept)
            pinned += len(kept) < sum(itlc.labels.profile_compatible(sigma, profile, t)
                                      for t in sigma.type_masks())
    assert pinned > 80

    # A X A p with A p outside the profile: the body X A p is pinned to 1
    # and, through A p, to 0, though the profile has types
    sigma = subformula_closure(parse("AXAp"))
    profile = 1 << sigma.index[parse("AXAp")]
    assert itlc.labels.profile_type_pattern(sigma, profile) is None
    assert any(itlc.labels.profile_compatible(sigma, profile, t) for t in sigma.type_masks())
    assert itlc.viable_types(sigma, profile) == viability_oracle(sigma, profile) == frozenset()


def test_successor_pattern_matches_the_literal_rules(flagship_sigma):
    from oracles import sensible_oracle

    rng = random.Random(53)
    # each pins one bit twice: an X body that is an eventuality or an A formula
    contexts = [flagship_sigma] + [subformula_closure(parse(s)) for s in
                                   ("X<>r -> <>r", "XAp -> Ap", "X<>Ap & XX<>q -> <>X<>q")]
    while len(contexts) < 40:
        sigma = subformula_closure(itlc.eliminate_exists(
            itlc.random_formula(rng, depth=4, modalities=itlc.DIAMOND_FRAGMENT)))
        if (sigma.next_pairs or sigma.ev_pairs) and len(sigma) <= 14:
            contexts.append(sigma)
    pinned_twice = 0
    for sigma in contexts:
        # tiny contexts: every mask, not only the types
        masks = range(1 << len(sigma)) if len(sigma) <= 6 else sigma.type_masks()
        for now in masks:
            pattern = sigma.successor_pattern(now)
            pinned_twice += pattern is None and sigma.is_type_mask(now)
            for nxt in masks:
                expected = sensible_oracle(sigma, now, nxt)
                assert (pattern is not None and nxt & pattern[0] == pattern[1]) == expected
                assert sigma.sensible_masks(now, nxt) == expected
    assert pinned_twice > 0


def test_type_serialization_indices(worked_labels):
    lu, _, _ = worked_labels
    assert lu.indices() == tuple(sorted(lu.indices()))
    rebuilt = TypeSet(lu.sigma, sum(1 << i for i in lu.indices()))
    assert rebuilt == lu
