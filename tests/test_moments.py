import random

import pytest

import itlc
from itlc.formula import Atom, parse
from itlc.labels import (SigmaContext, enumerate_types, profile_masks, subformula_closure,
                         type_set, viable_types)
from itlc.moments import (_Generation, _SizeGeneration, below, enumerate_irreducibles,
                          graft, is_irreducible, moment, reduce, submoment,
                          temporal_successor)
from itlc.quasimodel import _successor_lists, fragment_context
from oracles import all_moments_upto, reduction_oracle, successor_oracle

p = Atom("p")


# ---------------------------------------------------------------------------
# Grafting and submoments

def test_graft_single_node():
    sigma = subformula_closure(parse("p"))
    phi = type_set(sigma, [])
    m = graft(phi, [])
    assert m.size == 1 and m.height == 1


def test_graft_unrevoked_defect_fails(worked_labels):
    lu, _, _ = worked_labels
    with pytest.raises(itlc.KitError) as err:
        graft(lu, [])
    assert "~<>p" in str(err.value)


def test_graft_containment_failure():
    sigma = subformula_closure(parse("p & q"))
    phi = type_set(sigma, [p])
    other = moment(sigma, type_set(sigma, [Atom("q")]).mask)
    with pytest.raises(itlc.KitError) as err:
        graft(phi, [other])
    assert "containment" in str(err.value)


def test_graft_worked_moment(flagship_sigma, worked_labels, worked_moments):
    lu, lv, _ = worked_labels
    mu, mv, _ = worked_moments
    assert mu.size == 2
    assert mu.root_label() == lu
    assert mu.children == (mv,)


def test_submoment_examples(worked_moments):
    mu, mv, _ = worked_moments
    assert submoment(mu, ()) is mu
    assert submoment(mu, (0,)) is mv
    assert below(mv, mu) and not below(mu, mv)


def test_submoment_three_chain():
    sigma = subformula_closure(parse("<>p"))
    bottom = moment(sigma, type_set(sigma, [p, parse("<>p")]).mask)
    middle = moment(sigma, type_set(sigma, [parse("<>p")]).mask, [bottom])
    chain = moment(sigma, 0, [middle])
    assert submoment(chain, (0,)) is middle
    assert middle.size == 2
    with pytest.raises(KeyError):
        submoment(chain, (1,))


def test_graft_collapses_duplicates(flagship_sigma, worked_labels, worked_moments):
    lu, _, _ = worked_labels
    _, mv, _ = worked_moments
    assert graft(lu, [mv, mv]) is graft(lu, [mv])


# ---------------------------------------------------------------------------
# Irreducibility and reduction

def test_single_node_irreducible():
    sigma = subformula_closure(parse("p"))
    assert is_irreducible(moment(sigma, 0))


def test_equal_label_chain_reducible():
    sigma = subformula_closure(parse("p"))
    single = moment(sigma, 0)
    chain = moment(sigma, 0, [single])
    assert not is_irreducible(chain)
    assert reduce(chain) is single


def test_duplicate_siblings_reducible():
    sigma = subformula_closure(parse("<>p"))
    leaf = moment(sigma, type_set(sigma, [p, parse("<>p")]).mask)
    doubled = moment(sigma, 0, [leaf, leaf])
    assert not is_irreducible(doubled)
    assert reduce(doubled) is moment(sigma, 0, [leaf])


def test_sibling_fold_reducible_beyond_quick_filters():
    # distinct, non-isomorphic siblings with distinct labels where one
    # folds into the other's submoments: only the fold test rejects it
    sigma = subformula_closure(parse("p & q"))
    big = type_set(sigma, [p, Atom("q"), parse("p & q")]).mask
    leaf = moment(sigma, big)
    arm = moment(sigma, type_set(sigma, [p]).mask, [leaf])
    m = moment(sigma, 0, [arm, leaf])
    assert not is_irreducible(m)
    assert reduce(m) is moment(sigma, 0, [arm])


def test_reduce_fixed_point(worked_moments):
    mu, mv, mw = worked_moments
    for m in (mu, mv, mw):
        assert is_irreducible(m)
        assert reduce(m) is m


def test_reduce_matches_brute_force_oracle():
    for text, max_nodes in (("<>p", 4), ("p & q", 4), ("X p -> p", 4), ("<>p -> <>q", 3)):
        sigma = subformula_closure(parse(text))
        for m in all_moments_upto(sigma, max_nodes):
            expected_irreducible = not reduction_oracle(m)
            assert is_irreducible(m) == expected_irreducible, m
            reduct = reduce(m)
            assert is_irreducible(reduct)
            assert reduct.label == m.label
            assert reduct.size <= m.size
            if not expected_irreducible:
                smallest = min(len(keep) for keep in reduction_oracle(m))
                assert reduct.size == min(smallest, m.size)


def _node_labels_in_preorder(m):
    out = [m.label]
    for c in m.children:
        out.extend(_node_labels_in_preorder(c))
    return out


@pytest.mark.parametrize("text", ["X p -> p", "p & q"])
def test_distinct_node_labels_imply_irreducible(text):
    # generation accepts such candidates without the collapse search
    sigma = subformula_closure(parse(text))
    moments = all_moments_upto(sigma, 4)
    assert all(m.node_labels() == set(_node_labels_in_preorder(m)) for m in moments)
    distinct = [m for m in moments if len(set(_node_labels_in_preorder(m))) == m.size]
    assert any(m.size >= 3 for m in distinct)
    for m in distinct:
        assert is_irreducible(m), m


# ---------------------------------------------------------------------------
# Enumeration

def test_enumerate_empty_context():
    sigma = SigmaContext(())
    store = enumerate_irreducibles(sigma)
    assert len(store) == 1 and store.complete
    assert store.moments[0].size == 1


def test_enumerate_single_atom():
    sigma = SigmaContext((p,))
    store = enumerate_irreducibles(sigma)
    assert store.complete
    assert len(store) == 3
    sizes = sorted((m.height, m.size) for m in store.moments)
    assert sizes == [(1, 1), (1, 1), (2, 2)]


def test_enumerate_eventually_contains_chain():
    sigma = subformula_closure(parse("<>p"))
    store = enumerate_irreducibles(sigma)
    assert store.complete
    bottom = moment(sigma, type_set(sigma, [p, parse("<>p")]).mask)
    middle = moment(sigma, type_set(sigma, [parse("<>p")]).mask, [bottom])
    chain = moment(sigma, 0, [middle])
    assert chain in store.moments
    for m in store.moments:
        for sub in m.subtrees():
            assert sub in store.moments


def test_enumerated_invariants():
    for text in ("X p", "<>p", "X p -> p"):
        sigma = subformula_closure(parse(text))
        store = enumerate_irreducibles(sigma)
        assert store.complete
        for m in store.moments:
            assert m.height <= len(sigma) + 1
            assert is_irreducible(m)
            _assert_strict_growth(m)
            _assert_no_duplicate_siblings(m)


def _assert_strict_growth(m):
    for c in m.children:
        assert m.label & c.label == m.label and m.label != c.label
        _assert_strict_growth(c)


def _assert_no_duplicate_siblings(m):
    assert len(m.children) == len(set(m.children))
    for c in m.children:
        _assert_no_duplicate_siblings(c)


@pytest.mark.parametrize("text,count", [("<>p", 8), ("X p -> p", 23), ("~~p -> p", 5),
                                        ("p & q", 17)])
def test_enumeration_finds_every_small_irreducible(text, count):
    sigma = subformula_closure(parse(text))
    store = enumerate_irreducibles(sigma)
    assert store.complete
    small = {m for m in store.moments if m.size <= 4}
    assert small == {m for m in all_moments_upto(sigma, 4) if not reduction_oracle(m)}
    assert len(small) == count


@pytest.mark.parametrize("text,caps,expected", [
    ("(p -> q) | (q -> p)", itlc.Caps(max_moments=2000), (True, 3, 8000, 19)),
    ("X p -> p", itlc.Caps(), (False, 4, 1037, 47)),
])
def test_generation_counts_through_the_fold_check(text, caps, expected):
    gen = _Generation(subformula_closure(parse(text)), caps)
    while gen.grow():
        pass
    assert (gen.capped, gen.layer, gen.examined, gen.count) == expected


def test_enumerate_caps_flag_incomplete():
    sigma = subformula_closure(parse("X p -> p"))
    store = enumerate_irreducibles(sigma, itlc.Caps(max_moments=3))
    assert not store.complete
    assert len(store) <= 3


def _nested(m):
    return (m.label,) + tuple(_nested(c) for c in m.children)


@pytest.mark.parametrize("text", ["<>p", "X p -> p", "X ~p <-> ~X p"])
def test_key_orders_like_nested_label_tuples(text):
    store = enumerate_irreducibles(subformula_closure(parse(text)),
                                   itlc.Caps(max_moments=2000))
    moments = list(store.moments)
    random.Random(7).shuffle(moments)
    assert sorted(moments, key=lambda m: m.key) == sorted(moments, key=_nested)
    assert list(store.moments) == sorted(moments, key=_nested)


def test_capped_generation_counts():
    # the candidate count of the search before the distinct-label shortcut,
    # which the shortcut must not move; once the cap trips, count holds
    # only the moments of the layers kept, not those of the cut layer
    sigma = subformula_closure(parse("(X p -> X q) -> X(p -> q)"))
    gen = _Generation(sigma, itlc.Caps())
    while gen.grow():
        pass
    assert (gen.capped, gen.layer, gen.examined, gen.count) == (True, 2, 90_052, 32)
    assert gen.count == len(gen.snapshot())


def test_enumerate_restricted_labels(flagship_sigma, worked_labels):
    lu, lv, lw = worked_labels
    allowed = frozenset({lu.mask, lv.mask, lw.mask})
    store = enumerate_irreducibles(flagship_sigma, allowed_labels=allowed)
    assert store.complete
    assert all(m.node_labels() <= allowed for m in store.moments)


# ---------------------------------------------------------------------------
# Generation by node count

def _run_out(cls, sigma, allowed):
    gen = cls(sigma, itlc.Caps(max_moments=20_000), allowed_labels=allowed)
    layers = []
    while fresh := gen.grow():
        layers.append(fresh)
    assert gen.exhausted and not gen.capped
    return gen, layers


def _small_contexts(worked_labels):
    """(sigma, allowed labels) pairs whose irreducible moments run out
    within the test caps."""
    rng = random.Random(5)
    flagship_sigma = worked_labels[0].sigma
    contexts = [(flagship_sigma, frozenset(l.mask for l in worked_labels))]
    contexts += [(flagship_sigma, frozenset(rng.sample(flagship_sigma.type_masks(), 6)))
                 for _ in range(3)]
    # decide restricts the labels to those viable under some profile
    for text in ("X p -> p", "<>p -> p", "E p -> <>p", "p -> X p", "p -> p",
                 "<>p <-> (p | X<>p)"):
        _, sigma = fragment_context(parse(text))
        contexts.append((sigma, frozenset().union(
            *(viable_types(sigma, profile) for profile in profile_masks(sigma)))))
    contexts += [(subformula_closure(parse(text)), None)
                 for text in ("<>p", "~~p -> p", "p & q", "X p -> p")]
    for text in ("X(p & q) <-> (X p & X q)", "X(p -> q) -> (X p -> X q)"):
        sigma = subformula_closure(parse(text))
        contexts += [(sigma, frozenset(rng.sample(sigma.type_masks(), 6)))
                     for _ in range(2)]
    for _ in range(10):
        sigma = subformula_closure(itlc.random_formula(rng, depth=3))
        types = sigma.type_masks()
        contexts.append((sigma, frozenset(rng.sample(types, min(4, len(types))))))
    return contexts


def test_size_order_runs_out_to_the_height_order_space(worked_labels):
    contexts = _small_contexts(worked_labels)
    assert len(contexts) >= 20
    for sigma, allowed in contexts:
        by_height, _ = _run_out(_Generation, sigma, allowed)
        by_size, layers = _run_out(_SizeGeneration, sigma, allowed)
        assert set(by_size.accepted) == set(by_height.accepted)
        assert len(by_size.accepted) == len(by_height.accepted)
        assert by_size.examined == by_height.examined
        assert by_size.snapshot() == by_height.snapshot()
        assert by_size.height == by_height.height
        for layer in layers:
            assert len({m.size for m in layer}) == 1
            assert all(sub in by_size.accepted for m in layer for sub in m.subtrees())


def test_size_order_runs_past_an_empty_layer():
    # no irreducible moment of "~~p -> p" has five nodes, but one has six
    sigma = subformula_closure(parse("~~p -> p"))
    gen, layers = _run_out(_SizeGeneration, sigma, None)
    assert [layer[0].size for layer in layers] == [1, 2, 3, 4, 6]
    assert set(gen.accepted) == set(enumerate_irreducibles(sigma).moments)


# ---------------------------------------------------------------------------
# Temporal successor

def test_single_node_successor_is_sensibility():
    sigma = subformula_closure(parse("X p"))
    types = enumerate_types(sigma)
    for a in types:
        for b in types:
            va, vb = moment(sigma, a.mask), moment(sigma, b.mask)
            assert temporal_successor(va, vb) == itlc.sensible_pair(a, b)


def test_next_transfer_examples():
    sigma = subformula_closure(parse("X p"))
    src = moment(sigma, type_set(sigma, [parse("X p")]).mask)
    assert temporal_successor(src, moment(sigma, type_set(sigma, [p]).mask))
    assert not temporal_successor(src, moment(sigma, 0))


def test_worked_successor_matrix(worked_moments):
    mu, mv, mw = worked_moments
    assert temporal_successor(mu, mu)
    assert temporal_successor(mv, mv)
    assert temporal_successor(mv, mw)
    assert temporal_successor(mw, mw)
    assert not temporal_successor(mu, mv)
    assert not temporal_successor(mu, mw)


def test_successor_mismatched_contexts():
    a = moment(SigmaContext((p,)), 0)
    b = moment(SigmaContext((Atom("q"),)), 0)
    with pytest.raises(itlc.SigmaMismatchError):
        temporal_successor(a, b)


@pytest.mark.parametrize("text", ["X p", "<>p", "X p -> p"])
def test_successor_fixpoint_matches_brute_force(text):
    from oracles import relation_oracle

    sigma = subformula_closure(parse(text))
    # the implication context has many more types, so smaller moments
    universe = all_moments_upto(sigma, 3 if "->" in text else 4)
    assert universe
    pairs = [(v, w) for v in universe for w in universe]
    for v, w in pairs:
        assert temporal_successor(v, w) == successor_oracle(v, w), (v, w)
    # the literal oracle searches up to 2^12 relations per pair: a seeded
    # sample keeps the cross-check at a tenth of the time on the 30,625
    # pairs of the largest universe
    literal_results = set()
    for v, w in random.Random(7).sample(pairs, min(len(pairs), 2000)):
        literal = relation_oracle(v, w, limit=2**12)
        if literal is not None:
            assert temporal_successor(v, w) == literal, (v, w)
            literal_results.add(literal)
    assert literal_results == {True, False}


# the universes of the test above, one whose root patterns (M, V) take two
# masks M, one where a label with <>p but neither p nor X<>p has none, and
# one of height 3 where XXp pins p two steps on, so a child's row is read
# through the up sets of its own children
@pytest.mark.parametrize("text, max_nodes", [("X p", 4), ("<>p", 4), ("X p -> p", 3),
                                             ("A<>p -> (X ~p <-> ~X p)", 2), ("X<>p", 3),
                                             ("XX p", 3)])
def test_successor_rows_match_the_pairwise_relation(text, max_nodes):
    sigma = subformula_closure(parse(text))
    universe = all_moments_upto(sigma, max_nodes)
    rows = [[j for j, w in enumerate(universe) if successor_oracle(v, w)] for v in universe]
    assert list(map(list, _successor_lists(universe))) == rows
    assert [[j for j, w in enumerate(universe) if temporal_successor(v, w)]
            for v in universe] == rows
    patterns = [sigma.successor_pattern(m.label) for m in universe]
    if text == "X<>p":
        assert any(p is None and m.children for p, m in zip(patterns, universe))
    if text.startswith("A"):
        assert len({p[0] for p in patterns if p is not None}) > 1
    if text == "XX p":
        assert max(m.height for m in universe) == 3


def test_successor_construction_keeps_the_deadline():
    sigma = subformula_closure(parse("(X p -> X q) -> X(p -> q)"))
    carrier = enumerate_irreducibles(sigma, itlc.Caps(max_moments=300)).moments
    with pytest.raises(itlc.CapExceeded, match="^successor construction passed "):
        _successor_lists(carrier, itlc.config.Deadline(0))


def test_forward_confluence_exhaustive():
    sigma = subformula_closure(parse("<>p"))
    store = enumerate_irreducibles(sigma)
    for v in store.moments:
        for w in store.moments:
            if not temporal_successor(v, w):
                continue
            for v2 in v.subtrees():
                assert any(temporal_successor(v2, w2) for w2 in w.subtrees())


def test_reduction_stability_on_reducible_pairs():
    sigma = subformula_closure(parse("<>p"))
    store = enumerate_irreducibles(sigma)
    rng = random.Random(31)
    pairs_checked = 0
    moments_list = list(store.moments)
    for _ in range(300):
        v0, w0 = rng.choice(moments_list), rng.choice(moments_list)
        # pad with duplicate children to force reducibility where possible
        v = moment(sigma, v0.label, v0.children + v0.children) if v0.children else v0
        w = moment(sigma, w0.label, w0.children + w0.children) if w0.children else w0
        if temporal_successor(v, w):
            assert temporal_successor(reduce(v), reduce(w))
            pairs_checked += 1
    assert pairs_checked > 0
