"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Failures raise, so a green run certifies every criterion at its
stated tolerance.
"""

import itertools
import random
import time

import pytest

import itlc
from itlc.alexandroff import enumerate_systems, open_masks
from itlc.formula import parse
from itlc.labels import subformula_closure
from itlc.moments import enumerate_irreducibles, is_irreducible
from itlc.quasimodel import check_quasimodel, extract_quasimodel

FLAGSHIP = "A(~p | <>p) -> (~<>p | <>p)"


def _report(criterion, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {criterion}: PASS{suffix}")


# ---------------------------------------------------------------------------

def test_criterion_01_flagship_falsifiability():
    f = parse(FLAGSHIP)
    t0 = time.monotonic()
    verdict = itlc.decide(f)
    assert verdict.kind == "FALSIFIABLE"
    assert itlc.verify_certificate(verdict.certificate, f)
    decide_seconds = time.monotonic() - t0
    assert decide_seconds <= 60.0
    none_found = itlc.find_countermodel(f, 4, itlc.Caps(max_systems=10**6))
    assert none_found is None
    _report(1, f"decide {decide_seconds:.2f}s; no countermodel up to 4 points")


def test_criterion_02_golden_structure(golden_quasimodel, flagship,
                                       flagship_sigma, worked_moments):
    q, idx = golden_quasimodel
    mu, mv, mw = worked_moments
    outcome = check_quasimodel(q)
    assert outcome, outcome.reason
    assert q.root_lacks(idx[mu], flagship_sigma.index[flagship])
    assert mv in mu.subtrees()
    assert {(idx[mu], idx[mu]), (idx[mv], idx[mv]), (idx[mv], idx[mw]),
            (idx[mw], idx[mw])} == set(q.s_edges)
    _report(2, "worked three-world structure checks; witness omits the target")


def test_criterion_03_fixture_model_check(fixture_system):
    t0 = time.monotonic()
    X, val = fixture_system
    truth = itlc.evaluate(X, val, parse("(X p -> X q) -> X(p -> q)"))
    assert "v" not in truth
    result = itlc.analyze(X)
    assert result.minimal is True
    assert result.connected is False
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(3, f"{elapsed*1000:.0f} ms")


def _harness_systems():
    for n in (1, 2, 3):
        yield from enumerate_systems(n)


def _random_harness(count=200, max_points=5):
    rng = random.Random(1234)
    for _ in range(count):
        yield itlc.random_system(rng.randrange(1, max_points + 1), rng.randrange(2**30))


def test_criterion_04_minimality_characterization():
    f = parse("E p -> <>p")
    t0 = time.monotonic()
    checked = 0
    for X in itertools.chain(_harness_systems(), _random_harness()):
        assert itlc.analyze(X).minimal == itlc.is_valid_on_system(X, f)
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    _report(4, f"{checked} systems in {elapsed:.1f}s")


def test_criterion_05_recurrence_characterization():
    f = parse("p -> ~~X<>p")
    t0 = time.monotonic()
    checked = 0
    for X in itertools.chain(_harness_systems(), _random_harness()):
        assert itlc.analyze(X).recurrent == itlc.is_valid_on_system(X, f)
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    _report(5, f"{checked} systems in {elapsed:.1f}s")


def test_criterion_06_connectedness():
    # a disconnected finite space has a clopen component to take for p
    f = parse("A(p | ~p) -> (A p | A~p)")
    t0 = time.monotonic()
    checked = 0
    for X in itertools.chain(_harness_systems(), _random_harness()):
        assert itlc.analyze(X).connected == itlc.is_valid_on_system(X, f)
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    _report(6, f"{checked} systems in {elapsed:.1f}s")


def test_criterion_07_semantics_identities():
    rng = random.Random(4321)
    pairs = 0
    while pairs < 100:
        X = itlc.random_system(rng.randrange(1, 6), rng.randrange(2**30))
        opens = open_masks(X)
        val = {a: X.names_of(rng.choice(opens)) for a in ("p", "q")}
        f = itlc.random_formula(rng, depth=3)
        body = itlc.evaluate(X, val, f)
        double_neg = itlc.evaluate(X, val, itlc.neg(itlc.neg(f)))
        assert double_neg == itlc.interior(X, itlc.closure(X, body))
        assert (itlc.evaluate(X, val, itlc.Exists(f))
                == itlc.evaluate(X, val, itlc.neg(itlc.Forall(itlc.neg(f)))))
        assert (itlc.evaluate(X, val, itlc.Eventually(f))
                == itlc.evaluate(X, val, itlc.Or(f, itlc.Next(itlc.Eventually(f)))))
        assert (itlc.evaluate(X, val, itlc.Henceforth(f))
                == itlc.evaluate(X, val, itlc.And(f, itlc.Next(itlc.Henceforth(f)))))
        pairs += 1
    _report(7, "100 random (system, valuation, formula) triples")


def test_criterion_08_oracle_soundness_loop():
    t0 = time.monotonic()
    for text in ("X p -> p", "<>p -> p", "E p -> <>p", "p -> X p"):
        f = parse(text)
        found = itlc.find_countermodel(f, 3)
        assert found is not None and len(found.system) <= 3
        reduced = itlc.eliminate_exists(f)
        sigma = subformula_closure(reduced)
        q = extract_quasimodel(found.system, found.valuation, sigma)
        assert check_quasimodel(q)
        assert any(not m.label >> sigma.index[reduced] & 1 for m in q.worlds)
        verdict = itlc.decide(f)
        assert verdict.kind == "FALSIFIABLE"
        assert itlc.verify_certificate(verdict.certificate, f)
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    _report(8, f"four formulas in {elapsed:.1f}s")


def test_criterion_09_validity_suite():
    for text in ("p -> p", "<>p <-> (p | X<>p)", "X(p & q) <-> (X p & X q)",
                 "X(p -> q) -> (X p -> X q)"):
        f = parse(text)
        verdict = itlc.decide(f)
        assert verdict.kind == "VALID", text
        assert verdict.complete, text
        assert itlc.find_countermodel(f, 3) is None, text
    _report(9, "four validities decided with the completeness flag")


def test_criterion_10_combinatorial_oracles():
    from oracles import all_moments_upto, successor_oracle

    t0 = time.monotonic()
    for text in ("X p", "<>p"):
        sigma = subformula_closure(parse(text))
        universe = all_moments_upto(sigma, 4)
        assert universe
        for v in universe:
            for w in universe:
                assert itlc.temporal_successor(v, w) == successor_oracle(v, w)

    single = itlc.SigmaContext((itlc.Atom("p"),))
    store = enumerate_irreducibles(single)
    assert len(store) == 3 and store.complete

    for text in ("X p", "<>p", "X p -> p"):
        sigma = subformula_closure(parse(text))
        store = enumerate_irreducibles(sigma)
        for m in store.moments:
            assert m.height <= len(sigma) + 1
            assert is_irreducible(m)
            stack = [m]
            while stack:
                node = stack.pop()
                for c in node.children:
                    assert node.label & c.label == node.label and node.label != c.label
                    stack.append(c)
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    _report(10, f"{elapsed:.1f}s")


def test_criterion_11_exists_fragment_agreement():
    # two-point chain, identity map; meanings tracked as truth-mask pairs
    # under the two valuations, closed under every fragment operator to
    # depth three; agreement at the bottom point must be invariant
    down = (0b01, 0b11)
    full = 0b11

    def interior_mask(m):
        return sum(1 << i for i in range(2) if down[i] & ~m == 0)

    def ops(a):
        yield a  # next is the identity map's preimage
        # eventually and henceforth collapse to the body for the identity map
        yield full if a else 0  # exists

    def binary(a, b):
        yield a & b
        yield a | b
        yield interior_mask((full & ~a) | b)

    meanings = {(full, 0b01), (0, 0)}  # p under both valuations; bottom
    for _ in range(3):
        fresh = set(meanings)
        for m1, m2 in meanings:
            for o1, o2 in zip(ops(m1), ops(m2)):
                fresh.add((o1, o2))
            for n1, n2 in meanings:
                for b1, b2 in zip(binary(m1, n1), binary(m2, n2)):
                    fresh.add((b1, b2))
        meanings = fresh
    for m1, m2 in meanings:
        assert (m1 & 1) == (m2 & 1), "fragment formula distinguishes the valuations"
    forall = (full, 0)  # universal quantifier separates them
    assert (forall[0] & 1) != (forall[1] & 1)
    _report(11, f"{len(meanings)} distinct meanings agree at the bottom point")


def test_criterion_12_determinism_across_thread_counts():
    texts = [FLAGSHIP, "X p -> p", "<>p -> p", "E p -> <>p", "p -> X p"]
    for text in texts:
        f = parse(text)
        serial = itlc.decide(f, itlc.Caps(jobs=1))
        threaded = itlc.decide(f, itlc.Caps(jobs=4))
        assert serial.kind == threaded.kind == "FALSIFIABLE"
        assert (serial.certificate.to_json_text()
                == threaded.certificate.to_json_text())
    _report(12, f"{len(texts)} certificates byte-identical at 1 and 4 threads")
