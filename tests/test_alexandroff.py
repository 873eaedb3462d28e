import json
import math
import random
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass

import pytest

import itlc
from itlc import alexandroff
from itlc.alexandroff import (Analysis, FinitePoset, FiniteSystem, _posets, analyze,
                              closure, enumerate_posets, enumerate_systems, evaluate,
                              find_countermodel, interior, is_valid_on_system,
                              monotone_maps, open_masks, random_system, system,
                              system_from_json, system_to_json)
from itlc.config import Deadline
from itlc.formula import And, Formula, parse

from oracles import (brute_monotone_maps, brute_open_masks, brute_posets,
                     reference_countermodel, truth_oracle)


def _random_valuation(rng, X, atoms):
    opens = open_masks(X)
    return {a: X.names_of(rng.choice(opens)) for a in atoms}


# ---------------------------------------------------------------------------
# Structures and invariants

def test_antisymmetry_violation_names_pair():
    with pytest.raises(itlc.SchemaError) as err:
        system(["a", "b"], [("a", "b"), ("b", "a")], {"a": "a", "b": "b"})
    assert "antisymmetry" in str(err.value)
    assert "a" in str(err.value) and "b" in str(err.value)


def test_transitive_closure_applied():
    X = system(["a", "b", "c"], [("a", "b"), ("b", "c")], {n: n for n in "abc"})
    assert X.poset.leq(0, 2)


@pytest.mark.parametrize("down, fault", [
    ((0b10, 0b10), "not reflexive"),
    ((0b001, 0b011, 0b110), "not transitive"),
    ((0b11, 0b11), "antisymmetry"),
])
def test_poset_constructor_checks_the_order(down, fault):
    names = tuple(f"e{i}" for i in range(len(down)))
    with pytest.raises(itlc.SchemaError, match=fault):
        FinitePoset(names, down)


def test_non_monotone_map_rejected():
    with pytest.raises(itlc.SchemaError) as err:
        system(["a", "b"], [("a", "b")], {"a": "b", "b": "a"})
    assert "monotone" in str(err.value)


def test_valuation_must_be_open():
    X = system(["a", "b"], [("a", "b")], {"a": "a", "b": "b"})
    with pytest.raises(itlc.SchemaError):
        evaluate(X, {"p": {"b"}}, parse("p"))


# ---------------------------------------------------------------------------
# Topology

def test_interior_whole_and_empty(fixture_system):
    X, _ = fixture_system
    everything = set(X.names)
    assert interior(X, everything) == frozenset(everything)
    assert interior(X, set()) == frozenset()
    assert closure(X, set()) == frozenset()


def test_interior_fixture_example(fixture_system):
    X, _ = fixture_system
    assert interior(X, {"v", "w", "x"}) == frozenset({"v", "w"})


def test_closure_fixture_example(fixture_system):
    X, _ = fixture_system
    assert closure(X, {"w"}) == frozenset({"v", "w"})


def test_closure_is_extensive(fixture_system):
    X, _ = fixture_system
    rng = random.Random(17)
    for _ in range(100):
        members = {n for n in X.names if rng.random() < 0.5}
        assert closure(X, members) >= frozenset(members)


# ---------------------------------------------------------------------------
# Evaluation

def test_fixture_interchange_fails_at_v(fixture_system):
    X, val = fixture_system
    truth = evaluate(X, val, parse("(X p -> X q) -> X(p -> q)"))
    assert "v" not in truth
    assert truth == frozenset({"w", "x", "y", "z"})


def test_fixture_eventually_everywhere(fixture_system):
    X, val = fixture_system
    assert evaluate(X, val, parse("<>p")) == frozenset(X.names)


def test_two_point_universal_example():
    X = system(["e0", "e1"], [("e0", "e1")], {"e0": "e0", "e1": "e1"})
    whole = {"p": frozenset({"e0", "e1"})}
    bottom_only = {"p": frozenset({"e0"})}
    assert "e0" in evaluate(X, whole, parse("A p"))
    assert "e0" not in evaluate(X, bottom_only, parse("A p"))
    # the existential fragment cannot see the difference at e0
    for text in ("p", "<>p", "[]p", "E p", "~p", "p & p", "X p"):
        a = "e0" in evaluate(X, whole, parse(text))
        b = "e0" in evaluate(X, bottom_only, parse(text))
        assert a == b, text


def test_missing_atom_reported():
    X = system(["a"], [], {"a": "a"})
    with pytest.raises(KeyError):
        evaluate(X, {}, parse("p"))


@dataclass(frozen=True, slots=True, eq=False)
class _Unknown(Formula):
    """A node type the model checker has no rule for."""
    body: Formula


def test_evaluate_refuses_an_unknown_node_type():
    X = system(["a"], [], {"a": "a"})
    p = parse("p")
    for f in (_Unknown(p), And(p, _Unknown(p))):
        with pytest.raises(TypeError, match=r"^unknown formula node _Unknown\("):
            evaluate(X, {"p": {"a"}}, f)
        with pytest.raises(TypeError, match="unknown formula node"):
            is_valid_on_system(X, f)


def test_evaluate_matches_pointwise_oracle():
    rng = random.Random(53)
    for seed in range(300):
        X = random_system(rng.randint(1, 6), seed)
        val = _random_valuation(rng, X, ("p", "q"))
        f = itlc.random_formula(rng, depth=rng.choice((3, 4)))
        assert evaluate(X, val, f) == truth_oracle(X, val, f), str(f)


def test_truth_sets_always_open():
    rng = random.Random(29)
    for seed in range(60):
        X = random_system(rng.randrange(1, 6), seed)
        val = _random_valuation(rng, X, ("p", "q"))
        f = itlc.random_formula(rng, depth=3)
        mask = X.mask_of(evaluate(X, val, f))
        assert interior(X, X.names_of(mask)) == X.names_of(mask)


# ---------------------------------------------------------------------------
# Validity search

def test_identity_implication_always_valid(fixture_system):
    X, _ = fixture_system
    assert is_valid_on_system(X, parse("p -> p"))


def test_minimality_formula_on_fixture(fixture_system):
    X, _ = fixture_system
    assert is_valid_on_system(X, parse("E p -> <>p"))


def test_minimality_formula_fails_on_antichain():
    X = system(["a", "b"], [], {"a": "a", "b": "b"})
    assert not is_valid_on_system(X, parse("E p -> <>p"))


def test_validity_cap():
    X = system(["a", "b"], [], {"a": "a", "b": "b"})
    with pytest.raises(itlc.CapExceeded):
        is_valid_on_system(X, parse("p & q & r -> p"), itlc.Caps(max_valuations=3))


def test_countermodel_valuation_cap():
    # the one-point system already has 2^3 valuations
    with pytest.raises(itlc.CapExceeded, match="8 valuations exceed the cap"):
        find_countermodel(parse("p & q & r -> p"), 2, itlc.Caps(max_valuations=3))


def test_valuation_searches_check_the_deadline_every_256(monkeypatch):
    # the formula holds under each of the 8^4 = 4,096 valuations of the
    # 3-point antichain, so both searches try them all
    gaps = [0]  # valuations tried since each deadline check, the latest last

    class Stub(Deadline):
        def __init__(self):
            super().__init__(None)

        def check(self, what):
            gaps.append(0)

    evaluate_mask = alexandroff._evaluate_mask

    def counted(*args):
        gaps[-1] += 1
        return evaluate_mask(*args)

    monkeypatch.setattr(alexandroff, "_evaluate_mask", counted)
    monkeypatch.setattr(itlc.Caps, "deadline", lambda caps: Stub())
    f = parse("p1 & p2 & p3 & p4 -> p1")
    assert is_valid_on_system(system(["a", "b", "c"], [], {n: n for n in "abc"}), f)
    assert sum(gaps) == 8 ** 4 and max(gaps) <= 256
    gaps[:] = [0]
    assert find_countermodel(f, 3) is None
    assert sum(gaps) > 8 ** 4 and max(gaps) <= 256


def test_countermodel_examples():
    assert find_countermodel(parse("p -> p"), 3) is None
    found = find_countermodel(parse("X p -> p"), 2)
    assert found is not None and len(found.system) <= 2
    truth = evaluate(found.system, found.valuation, parse("X p -> p"))
    assert found.point not in truth


# First hits of the canonical search order: system, valuation, point.
_FIRST_HITS = {
    "X p -> p": ('{"elements": ["e0", "e1"], "map": {"e0": "e0", "e1": "e0"}, '
                 '"order": [], "valuation": {"p": ["e0"]}}', "e1"),
    "<>p -> p": ('{"elements": ["e0", "e1"], "map": {"e0": "e0", "e1": "e0"}, '
                 '"order": [], "valuation": {"p": ["e0"]}}', "e1"),
    "E p -> <>p": ('{"elements": ["e0", "e1"], "map": {"e0": "e0", "e1": "e0"}, '
                   '"order": [], "valuation": {"p": ["e1"]}}', "e0"),
    "p -> X p": ('{"elements": ["e0", "e1"], "map": {"e0": "e0", "e1": "e0"}, '
                 '"order": [], "valuation": {"p": ["e1"]}}', "e1"),
    "(p -> q) | (q -> p)": (
        '{"elements": ["e0", "e1", "e2"], "map": {"e0": "e0", "e1": "e0", "e2": "e0"}, '
        '"order": [["e1", "e0"], ["e2", "e0"]], "valuation": {"p": ["e1"], "q": ["e2"]}}',
        "e0"),
    "~~X p -> X ~~p": (
        '{"elements": ["e0", "e1", "e2"], "map": {"e0": "e0", "e1": "e1", "e2": "e1"}, '
        '"order": [["e1", "e0"], ["e2", "e0"]], "valuation": {"p": ["e1"]}}', "e0"),
}


@pytest.mark.parametrize("text", sorted(_FIRST_HITS))
def test_countermodel_first_hit_is_pinned(text):
    found = find_countermodel(parse(text), 3)
    data = system_to_json(found.system, found.valuation)
    assert (json.dumps(data, sort_keys=True), found.point) == _FIRST_HITS[text]


def test_countermodel_cap_distinct_from_none():
    with pytest.raises(itlc.CapExceeded):
        find_countermodel(parse("p -> p"), 3, itlc.Caps(max_systems=5))


def _outcome(search, f, max_points, caps=itlc.Caps()):
    """The search's hit as system file bytes and point, None, or the cap
    message."""
    try:
        found = search(f, max_points, caps)
    except itlc.CapExceeded as err:
        return str(err)
    if found is None:
        return None
    return json.dumps(system_to_json(found.system, found.valuation), sort_keys=True), found.point


def test_countermodel_first_hit_matches_the_full_walk():
    # the search evaluates one system per isomorphism class; the walk over
    # every labelled system must find the same first hit
    rng = random.Random(41)
    hits = 0
    for _ in range(200):
        f = itlc.random_formula(rng, 3, ("p", "q", "r"))
        expected = _outcome(reference_countermodel, f, 3)
        assert _outcome(find_countermodel, f, 3) == expected, str(f)
        hits += expected is not None
    assert hits >= 150


@pytest.mark.parametrize("text, reached", [("p -> p", 236), ("(p -> q) | (q -> p)", 98)])
@pytest.mark.parametrize("cap", [5, 11, 97, 98, 235, 236])
def test_countermodel_cap_trips_where_the_full_walk_trips(text, reached, cap):
    # 236 labelled systems have at most 3 points, and the first hit of
    # (p -> q) | (q -> p) is the 98th of them
    f = parse(text)
    caps = itlc.Caps(max_systems=cap)
    expected = _outcome(reference_countermodel, f, 3, caps)
    assert _outcome(find_countermodel, f, 3, caps) == expected
    assert (expected == f"countermodel search passed {cap} systems") == (cap < reached)


def test_countermodel_evaluates_one_system_per_class(monkeypatch):
    # 1, 10, 225 and 9,504 labelled systems on 1 to 4 points
    sizes = Counter()

    def counted(X):
        sizes[len(X)] += 1
        return open_masks(X)

    monkeypatch.setattr(alexandroff, "open_masks", counted)
    assert find_countermodel(parse("p -> p"), 4, itlc.Caps(max_systems=10**6)) is None
    assert sizes == {1: 1, 2: 6, 3: 43, 4: 452}


def test_countermodel_timeout_covers_the_class_checks():
    # the flagship has no countermodel with at most 5 points, found in
    # about a second; the 6-point walk runs far past the timeout
    start = time.monotonic()
    with pytest.raises(itlc.CapExceeded, match="timeout"):
        find_countermodel(parse("A(~p | <>p) -> (~<>p | <>p)"), 6,
                          itlc.Caps(timeout=0.5, max_systems=10**8))
    assert time.monotonic() - start < 1.5


# ---------------------------------------------------------------------------
# Dynamical properties

def test_analyze_singleton():
    X = system(["a"], [], {"a": "a"})
    assert analyze(X) == Analysis(minimal=True, recurrent=True, connected=True)


def test_analyze_fixture(fixture_system):
    X, _ = fixture_system
    assert analyze(X) == Analysis(minimal=True, recurrent=True, connected=False)


def test_analyze_two_chain_identity():
    X = system(["a", "b"], [("a", "b")], {"a": "a", "b": "b"})
    assert analyze(X) == Analysis(minimal=False, recurrent=True, connected=True)


# ---------------------------------------------------------------------------
# Generation

def test_random_system_deterministic():
    for n in (1, 3, 6):
        assert random_system(n, seed=42) == random_system(n, seed=42)


def test_random_system_single_point_forced():
    X = random_system(1, seed=5)
    assert len(X) == 1 and X.f == (0,)


def test_random_system_invariants_hold():
    # constructors validate the poset and monotonicity, so surviving
    # construction is the check
    for seed in range(1000):
        X = random_system(6, seed)
        assert len(X) == 6


def test_enumerate_systems_counts():
    assert len(enumerate_systems(1)) == 1
    assert len(enumerate_systems(2)) == 10
    assert len(enumerate_posets(3)) == 19


def test_labelled_poset_counts():
    # OEIS A001035
    assert [len(enumerate_posets(n)) for n in range(1, 6)] == [1, 3, 19, 219, 4231]


def test_enumeration_matches_brute_force():
    for n in range(1, 5):
        posets = list(_posets(n))
        assert posets == brute_posets(n)
        for poset in posets:
            assert list(monotone_maps(poset)) == brute_monotone_maps(poset)
            X = FiniteSystem(poset, tuple(range(n)))
            assert open_masks(X) == brute_open_masks(X)
    for seed in range(40):
        X = random_system(8, seed)
        assert open_masks(X) == brute_open_masks(X)


def test_monotone_maps_of_seven_point_chain():
    # the monotone self-maps of a chain of n points number C(2n - 1, n)
    chain = FinitePoset(tuple(f"e{i}" for i in range(7)),
                        tuple((1 << i + 1) - 1 for i in range(7)))
    assert sum(1 for _ in monotone_maps(chain)) == 1716 == math.comb(13, 7)


def test_first_monotone_map_comes_without_listing_the_rest():
    # the 7-point antichain has 7^7 = 823,543 monotone maps
    antichain = FinitePoset(tuple(f"e{i}" for i in range(7)), tuple(1 << i for i in range(7)))
    tracemalloc.start()
    try:
        first = next(iter(monotone_maps(antichain)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == (0,) * 7
    assert peak < 5 * 2**20


def test_expired_deadline_stops_poset_walk():
    # the walk checks the deadline before it chooses the first up-set, so
    # it stops before building any of the 130,023 posets on 6 points
    with pytest.raises(itlc.CapExceeded, match="poset enumeration passed"):
        next(_posets(6, Deadline(0)))


@pytest.mark.parametrize("field, value", [
    ("elements", 5), ("elements", [["v"]]), ("elements", []), ("order", [["v"]]),
    ("order", {"v": "w"}), ("map", ["v"]), ("valuation", {"p": 5}),
    ("valuation", {"p": 31}), ("valuation", ["p"]),
    ("map", {"v": "x", "w": "z", "x": "w", "y": "w", "z": "w", "b": "v"}),
])
def test_system_file_fields_are_type_checked(fixture_system, field, value):
    data = system_to_json(*fixture_system)
    data[field] = value
    with pytest.raises(itlc.SchemaError, match=f"^{field}"):
        system_from_json(data)


def test_json_round_trip(tmp_path, fixture_system):
    X, val = fixture_system
    data = system_to_json(X, val)
    Y, val2 = system_from_json(data)
    assert Y == X and val2 == val
    assert system_to_json(Y, val2) == data
