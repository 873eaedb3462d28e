import copy
import json
import pathlib
import random
import time
import tracemalloc

import pytest

import itlc
from itlc.errors import InvariantViolation
from itlc.formula import parse
from itlc.labels import profile_pattern, subformula_closure, type_set
from itlc.moments import _Generation, below, enumerate_irreducibles, moment
from itlc.quasimodel import (Lasso, Quasimodel, _prune, _successor_lists,
                             build_realizing_path, check_quasimodel, complete_path_below,
                             decide, extract_quasimodel, falsified_members,
                             fragment_context, prune_profile, verify_certificate)


# ---------------------------------------------------------------------------
# Profile pruning

def test_prune_next_context_keeps_everything():
    sigma = subformula_closure(parse("X p"))
    store = enumerate_irreducibles(sigma)
    q = prune_profile(store, frozenset())
    assert set(q.worlds) == set(store.moments)
    assert check_quasimodel(q)


def test_prune_removes_unrealizable_eventuality():
    sigma = subformula_closure(parse("<>#"))
    store = enumerate_irreducibles(sigma)
    q = prune_profile(store, frozenset())
    ev_index = sigma.index[parse("<>#")]
    assert all(not m.label >> ev_index & 1 for m in q.worlds)
    assert len(q.worlds) == 1  # just the empty-labelled point


def _flagship_store(flagship_sigma):
    viable = itlc.viable_types(flagship_sigma, flagship_sigma.forall_mask)
    return enumerate_irreducibles(flagship_sigma, allowed_labels=viable)


def test_prune_flagship_profile(flagship, flagship_sigma, worked_moments):
    mu, mv, mw = worked_moments
    store = _flagship_store(flagship_sigma)
    q = prune_profile(store, frozenset({parse("A(~p | <>p)")}))
    for m in (mu, mv, mw):
        assert m in q.worlds
    target = flagship_sigma.index[flagship]
    assert any(not m.label >> target & 1 for m in q.worlds)
    assert check_quasimodel(q)


def test_prune_order_independent(flagship_sigma):
    store = _flagship_store(flagship_sigma)
    profile = frozenset({parse("A(~p | <>p)")})
    forward = prune_profile(store, profile)
    backward = prune_profile(store, profile, order=list(reversed(store.moments)))
    assert forward.worlds == backward.worlds
    assert forward.s_edges == backward.s_edges


def test_prune_order_must_list_every_moment():
    # a sweep over a partial order would never test the moments left out,
    # and would keep 12 worlds here where the fixpoint keeps 5
    sigma = subformula_closure(parse("A<>p -> (X ~p <-> ~X p)"))
    store = enumerate_irreducibles(sigma, itlc.Caps(max_moments=3000))
    assert len(prune_profile(store, 0).worlds) == 5
    for order in ([], list(store.moments[1:]), list(store.moments) + [store.moments[0]]):
        with pytest.raises(ValueError, match="every moment"):
            prune_profile(store, 0, order=order)


def test_prune_matches_the_sweeping_oracle():
    import random

    from oracles import prune_oracle

    rng = random.Random(43)
    texts = ["<>#", "A<>p -> (X ~p <-> ~X p)", "<>p <-> (p | X<>p)", "E p -> <>p"]
    contexts = [subformula_closure(parse(t)) for t in texts]
    while len(contexts) < 28:
        sigma = subformula_closure(itlc.eliminate_exists(
            itlc.random_formula(rng, depth=4, modalities=itlc.DIAMOND_FRAGMENT)))
        if sigma.ev_pairs and len(sigma) <= 12:
            contexts.append(sigma)
    pruned = 0
    for sigma in contexts:
        store = enumerate_irreducibles(sigma, itlc.Caps(max_moments=200))
        shuffled = list(store.moments)
        rng.shuffle(shuffled)
        for profile in itlc.labels.profile_masks(sigma):
            worlds, edges = prune_oracle(store, profile)
            for order in (None, shuffled):
                q = prune_profile(store, profile, order=order)
                assert (q.worlds, q.s_edges) == (worlds, edges), sigma.formulas[-1]
            pruned += 0 < len(worlds) < len(store.moments)
    assert pruned > 20


def test_prune_renumbers_each_shared_row_once():
    from oracles import all_moments_upto

    kept_all = dropped = 0
    for text, max_nodes in [("X p", 4), ("<>p", 4), ("X p -> p", 3),
                            ("A<>p -> (X ~p <-> ~X p)", 2), ("X<>p", 3)]:
        sigma = subformula_closure(parse(text))
        universe = all_moments_upto(sigma, max_nodes)
        for profile in itlc.labels.profile_masks(sigma):
            q = _prune(sigma, universe, profile)
            carrier = sorted({m for m in universe
                              if all(itlc.labels.profile_compatible(sigma, profile, l)
                                     for l in m.node_labels())}, key=lambda m: m.key)
            succ = _successor_lists(carrier)
            index = {m: i for i, m in enumerate(carrier)}
            renumber = {index[m]: k for k, m in enumerate(q.worlds)}
            assert q.successors == tuple(tuple(renumber[j] for j in succ[i] if j in renumber)
                                         for i in renumber), (text, profile)
            # a row list shared in the carrier is one tuple in the result
            assert len({id(row) for row in q.successors}) <= len({id(succ[i]) for i in renumber})
            kept_all += len(q.worlds) == len(carrier)
            dropped += 0 < len(q.worlds) < len(carrier)
    assert kept_all and dropped


def test_prune_empty_result_is_allowed():
    sigma = subformula_closure(parse("A<>p"))
    viable = itlc.viable_types(sigma, sigma.forall_mask)
    store = enumerate_irreducibles(sigma, allowed_labels=viable)
    assert store.complete
    q = prune_profile(store, frozenset({parse("A<>p")}))
    # empty is a legitimate outcome; whatever survives honors the profile
    for m in q.worlds:
        assert all(itlc.labels.profile_compatible(sigma, q.profile, l)
                   for l in m.node_labels())


# ---------------------------------------------------------------------------
# Structural checking

def _rows(worlds, succ):
    """The ascending successor rows of worlds, succ mapping each to its successors."""
    idx = {m: i for i, m in enumerate(worlds)}
    return tuple(tuple(sorted(idx[t] for t in succ[m])) for m in worlds)


def test_golden_structure_passes(golden_quasimodel, flagship, flagship_sigma,
                                 worked_moments):
    q, idx = golden_quasimodel
    mu, _, _ = worked_moments
    assert check_quasimodel(q)
    assert q.root_lacks(idx[mu], flagship_sigma.index[flagship])


def test_golden_structure_without_realizer_fails(flagship_sigma, worked_moments):
    mu, mv, mw = worked_moments
    worlds = tuple(sorted([mu, mv], key=lambda m: m.key))
    rows = _rows(worlds, {mu: [mu], mv: [mv]})
    q = Quasimodel(flagship_sigma, worlds, rows, flagship_sigma.forall_mask)
    outcome = check_quasimodel(q)
    assert not outcome
    assert "unrealized" in outcome.reason


def test_defective_single_world_fails_revocation(flagship_sigma, worked_labels):
    lu, _, _ = worked_labels
    bad = moment(flagship_sigma, lu.mask, (), validate=False)
    q = Quasimodel(flagship_sigma, (bad,), ((0,),), flagship_sigma.forall_mask)
    outcome = check_quasimodel(q)
    assert not outcome
    assert "not a moment" in outcome.reason


def test_missing_submoment_fails(worked_moments, flagship_sigma):
    mu, _, mw = worked_moments
    worlds = tuple(sorted([mu, mw], key=lambda m: m.key))
    rows = _rows(worlds, {mu: [mu], mw: [mw]})
    q = Quasimodel(flagship_sigma, worlds, rows, flagship_sigma.forall_mask)
    outcome = check_quasimodel(q)
    assert not outcome
    assert "submoment" in outcome.reason


def test_insensible_edge_fails(flagship_sigma, worked_moments):
    mu, mv, mw = worked_moments
    worlds = tuple(sorted([mu, mv, mw], key=lambda m: m.key))
    rows = _rows(worlds, {mu: [mv], mv: [mv, mw], mw: [mw]})
    q = Quasimodel(flagship_sigma, worlds, rows, flagship_sigma.forall_mask)
    outcome = check_quasimodel(q)
    assert not outcome
    assert "sensible" in outcome.reason


def test_edge_from_a_label_without_successors_fails():
    # {<>p} owes <>p next while X<>p is absent, so no label may follow it
    sigma = subformula_closure(parse("X<>p"))
    owed = type_set(sigma, [parse("<>p")])
    assert sigma.successor_pattern(owed.mask) is None
    q = Quasimodel(sigma, (moment(sigma, owed),), ((0,),))
    assert check_quasimodel(q).reason == "edge (0,0) is not sensible"


def test_non_confluent_edge_fails(flagship_sigma, worked_moments):
    mu, mv, mw = worked_moments
    worlds = tuple(sorted([mu, mv, mw], key=lambda m: m.key))
    idx = {m: i for i, m in enumerate(worlds)}
    # mv lies below mu, but its only successor mw lies below no world under mu
    rows = _rows(worlds, {mu: [mu], mv: [mw], mw: [mw]})
    q = Quasimodel(flagship_sigma, worlds, rows, flagship_sigma.forall_mask)
    outcome = check_quasimodel(q)
    assert not outcome
    assert outcome.reason == f"edge ({idx[mu]},{idx[mu]}) not confluent below world {idx[mv]}"


def test_malformed_successor_rows_fail(golden_quasimodel, worked_moments):
    q, idx = golden_quasimodel
    _, mv, mw = worked_moments
    rows = list(q.successors)
    short = Quasimodel(q.sigma, q.worlds, tuple(rows[:-1]), q.profile)
    assert check_quasimodel(short).reason == "2 successor rows for 3 worlds"
    rows[idx[mw]] = (idx[mw], 3)
    outside = Quasimodel(q.sigma, q.worlds, tuple(rows), q.profile)
    assert check_quasimodel(outside).reason == f"world {idx[mw]} has a successor out of range"
    rows = list(q.successors)
    rows[idx[mv]] = tuple(reversed(rows[idx[mv]]))
    unsorted = Quasimodel(q.sigma, q.worlds, tuple(rows), q.profile)
    assert (check_quasimodel(unsorted).reason
            == f"successors of world {idx[mv]} are not strictly ascending")
    rows[idx[mv]] = (idx[mv], idx[mv])
    repeated = Quasimodel(q.sigma, q.worlds, tuple(rows), q.profile)
    assert (check_quasimodel(repeated).reason
            == f"successors of world {idx[mv]} are not strictly ascending")


def _strict_below_pairs(q):
    n = len(q.worlds)
    return [(a, b) for a in range(n) for b in range(n)
            if a != b and below(q.worlds[a], q.worlds[b])]


def test_golden_order_pairs_are_the_strict_submoment_pairs(golden_quasimodel,
                                                          worked_moments):
    q, idx = golden_quasimodel
    mu, mv, _ = worked_moments
    assert q.order_pairs() == _strict_below_pairs(q) == [(idx[mv], idx[mu])]


# ---------------------------------------------------------------------------
# Realizing paths

def test_lasso_no_eventualities(golden_quasimodel, worked_moments):
    q, idx = golden_quasimodel
    mu, _, _ = worked_moments
    lasso = build_realizing_path(q, idx[mu])
    assert lasso == Lasso((), (idx[mu],))


def test_lasso_realizes_pending(golden_quasimodel, worked_moments):
    q, idx = golden_quasimodel
    _, mv, mw = worked_moments
    lasso = build_realizing_path(q, idx[mv])
    seq = lasso.prefix + lasso.loop
    assert seq[0] == idx[mv]
    assert idx[mw] in seq
    # spot-check the realization rule on the loop
    p_index = q.sigma.index[parse("p")]
    ev_index = q.sigma.index[parse("<>p")]
    for world in lasso.loop:
        if q.worlds[world].label >> ev_index & 1:
            assert any(q.worlds[j].label >> p_index & 1 for j in lasso.loop)


def test_lassos_for_all_worlds(golden_quasimodel):
    q, _ = golden_quasimodel
    for i in range(len(q.worlds)):
        lasso = build_realizing_path(q, i)
        assert lasso.loop


def test_complete_path_below(golden_quasimodel, worked_moments):
    q, idx = golden_quasimodel
    mu, mv, _ = worked_moments
    path = [idx[mu], idx[mu]]
    assert complete_path_below(q, path, idx[mu]) == path
    assert complete_path_below(q, path, idx[mv]) == [idx[mv], idx[mv]]
    assert complete_path_below(q, [idx[mu]], idx[mv]) == [idx[mv]]


def test_complete_path_below_rejects_bad_start(golden_quasimodel, worked_moments):
    q, idx = golden_quasimodel
    mu, _, mw = worked_moments
    with pytest.raises(ValueError):
        complete_path_below(q, [idx[mw]], idx[mu])
    n = len(q.worlds)
    for path, v0 in (([idx[mu]], -1), ([idx[mu]], n), ([-1], idx[mu]), ([n], idx[mu]),
                     ([idx[mu], n], idx[mu])):
        with pytest.raises(ValueError):
            complete_path_below(q, path, v0)


def test_build_realizing_path_rejects_bad_start(golden_quasimodel):
    q, _ = golden_quasimodel
    for start in (-1, len(q.worlds)):
        with pytest.raises(ValueError):
            build_realizing_path(q, start)


# ---------------------------------------------------------------------------
# Decide and certificates

def test_decide_trivial_validity():
    assert decide(parse("p -> p")).kind == "VALID"


def test_decide_unfolding_validity():
    verdict = decide(parse("<>p <-> (p | X <> p)"))
    assert verdict.kind == "VALID" and verdict.complete


def test_decide_flagship(flagship):
    verdict = decide(flagship)
    assert verdict.kind == "FALSIFIABLE"
    assert verify_certificate(verdict.certificate, flagship)


def test_decide_next_regression():
    verdict = decide(parse("X p -> p"))
    assert verdict.kind == "FALSIFIABLE"
    assert verify_certificate(verdict.certificate, parse("X p -> p"))


def test_certificate_round_trip(tmp_path, flagship):
    verdict = decide(flagship)
    path = tmp_path / "cert.json"
    itlc.save_certificate(verdict.certificate, path)
    loaded = itlc.load_certificate(path, flagship)
    assert loaded == verdict.certificate
    assert loaded.to_json_text() == verdict.certificate.to_json_text()


def test_certificate_json_is_built_once(tmp_path, monkeypatch, flagship):
    built = []
    to_json_dict = itlc.quasimodel.Certificate.to_json_dict
    monkeypatch.setattr(itlc.quasimodel.Certificate, "to_json_dict",
                        lambda cert: built.append(cert) or to_json_dict(cert))
    cert = decide(flagship).certificate
    text = cert.to_json_text()
    itlc.save_certificate(cert, tmp_path / "cert.json")
    assert built == [cert]  # verification, printing and saving share one build
    assert (tmp_path / "cert.json").read_text(encoding="utf-8") == text + "\n"
    # what to_json_dict hands out is the caller's to change
    data = cert.to_json_dict()
    data["worlds"].clear()
    data["lassos"]["0"]["loop"].append(5)
    assert cert.to_json_text() == text
    # nor can its lassos change under the cached form
    with pytest.raises(TypeError):
        cert.lassos[0] = cert.lassos[1]
    assert verify_certificate(cert, flagship) and cert.to_json_text() == text


def test_verify_reports_a_missing_top_level_key(flagship):
    full = decide(flagship).certificate.to_json_dict()
    for key in full:
        data = {k: v for k, v in full.items() if k != key}
        assert verify_certificate(data, flagship).reason == f"malformed certificate: {key!r}"


def test_verify_rejects_tampered_witness(flagship, flagship_sigma):
    cert = decide(flagship).certificate
    data = cert.to_json_dict()
    assert verify_certificate(data, flagship)
    tampered = copy.deepcopy(data)
    target_idx = flagship_sigma.index[flagship]
    witness_entry = next(w for w in tampered["worlds"]
                         if w["id"] == tampered["witness"])
    _inject_label(witness_entry["moment"], target_idx)
    outcome = verify_certificate(tampered, flagship)
    assert not outcome


def _inject_label(moment_json, index):
    if index not in moment_json["label"]:
        moment_json["label"] = sorted(moment_json["label"] + [index])
    for child in moment_json["children"]:
        _inject_label(child, index)


def test_verify_rejects_broken_seriality(flagship):
    cert = decide(flagship).certificate
    data = copy.deepcopy(cert.to_json_dict())
    victim = data["witness"]
    data["s_edges"] = [e for e in data["s_edges"] if e[0] != victim]
    outcome = verify_certificate(data, flagship)
    assert not outcome


def test_verify_rejects_wrong_target(flagship):
    cert = decide(flagship).certificate
    assert not verify_certificate(cert.to_json_dict(), parse("p -> p"))


def test_verify_reasons_for_target_and_sigma_faults(flagship):
    data = decide(flagship).certificate.to_json_dict()
    sigma = data["sigma"]

    def reason(**fault):
        return verify_certificate({**data, **fault}, flagship).reason

    mismatch = "sigma does not match the target's subformula closure"
    assert reason(target="p -> p") == "target mismatch"
    assert reason(sigma=[sigma[1], sigma[0], *sigma[2:]]) == mismatch
    assert reason(sigma=sigma[:-1]) == mismatch
    assert reason(sigma=sigma + ["p"]) == mismatch
    for bad in ("p &", 7, None):
        assert reason(sigma=[*sigma[:2], bad, *sigma[3:]]).startswith("malformed certificate: ")
        assert reason(target=bad).startswith("malformed certificate: ")


def test_verify_parses_non_canonical_texts():
    target = parse("p <-> X p")
    data = decide(target).certificate.to_json_dict()
    respelled = {"p": "( p )", "Xp": "X p", "p -> Xp": "p->X p", "Xp -> p": "((X p) -> p)",
                 "(p -> Xp) & (Xp -> p)": "p <-> X p"}
    assert sorted(data["sigma"]) == sorted(respelled)
    data = {**data, "target": "(p)<->Xp", "sigma": [respelled[s] for s in data["sigma"]]}
    assert verify_certificate(data, target)


def test_canonical_sigma_past_the_parse_bound_verifies():
    # exists elimination triples the depth: the reduced target's canonical
    # text is refused by parse, so only the canonical match accepts it
    f = parse("E(" + " & ".join(["p"] * itlc.formula.MAX_NESTING) + ")")
    verdict = decide(f)
    assert verdict.kind == "FALSIFIABLE"
    data = json.loads(verdict.certificate.to_json_text())
    with pytest.raises(itlc.ParseError, match="nested deeper"):
        parse(data["sigma"][-1])
    assert verify_certificate(data, f)
    data["sigma"][-1] = f"({data['sigma'][-1]})"
    assert verify_certificate(data, f).reason.startswith("malformed certificate: ")


@pytest.mark.parametrize("levels", [22, 40])
def test_verify_refuses_a_tiny_certificate_without_printing_it(levels):
    # the canonical text of a '<->' chain doubles per level: refusing the
    # 22-level one took 376 MB, and the 40-level one did not finish
    chain = "p"
    for _ in range(levels):
        chain = f"(q <-> {chain})"
    target = parse(chain)
    count = len(fragment_context(target)[1])
    for sigma in ([], ["q"] * count):
        tracemalloc.start()
        try:
            start = time.monotonic()
            outcome = verify_certificate({"target": chain, "sigma": sigma}, target)
            elapsed = time.monotonic() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert outcome.reason == "sigma does not match the target's subformula closure"
        assert peak < 50e6 and elapsed < 1


def test_verify_honours_an_expired_deadline(flagship):
    cert = decide(flagship).certificate
    with pytest.raises(itlc.CapExceeded, match="certificate verification"):
        verify_certificate(cert, flagship, itlc.config.Deadline(0))


CERTS = pathlib.Path(__file__).parent.parent / "perfbench" / "data" / "certs.json"
DENSE = "p1 | p2 | p3 | p4 | p5 | p6 -> p1"


def _stored(formula):
    """The target and the stored certificate of one certs.json entry."""
    entries = json.loads(CERTS.read_text(encoding="utf-8"))
    return parse(formula), next(e["certificate"] for e in entries if e["formula"] == formula)


@pytest.fixture(scope="module")
def dense():
    # 64 one-node worlds, every one a successor of every one: 64 equal rows
    target, cert = _stored(DENSE)
    assert (len(cert["worlds"]), len(cert["s_edges"])) == (64, 4096)
    return target, cert


def _edges_reason(dense, *inserts):
    """The verifier's reason once each (position, pair) is inserted into the
    dense certificate's edge list, in turn."""
    target, cert = dense
    data = copy.deepcopy(cert)
    for at, pair in inserts:
        data["s_edges"].insert(at, pair)
    return verify_certificate(data, target).reason


def test_dense_certificate_reports_the_first_faulty_edge(dense):
    assert _edges_reason(dense, (2000, [5, 64])) == "edge [5, 64] references an unknown world"
    # True == 1 names world 1 as a key, but JSON true names no world
    assert (_edges_reason(dense, (1000, [3, True]), (3000, [1, 2, 3]))
            == "edge [3, True] references an unknown world")
    assert (_edges_reason(dense, (1000, [True, 3]), (3000, [1]))
            == "edge [True, 3] references an unknown world")
    assert (_edges_reason(dense, (1000, [1, 2, 3]), (3000, [0, 64]))
            == "malformed certificate: too many values to unpack (expected 2)")
    assert (_edges_reason(dense, (1000, [0, 64]), (3000, [1, 2, 3]))
            == "edge [0, 64] references an unknown world")
    # within a pair, its source is read first
    assert (_edges_reason(dense, (10, [[0], True]))
            == "malformed certificate: unhashable type: 'list'")
    assert _edges_reason(dense, (10, [64, [0]])) == "edge [64, [0]] references an unknown world"


def test_dense_certificate_takes_repeated_and_shuffled_edges(dense):
    target, cert = dense
    assert _edges_reason(dense, (4096, [7, 9]), (0, [63, 0])) is None
    data = copy.deepcopy(cert)
    random.Random(30).shuffle(data["s_edges"])
    assert verify_certificate(data, target)
    # the 64 equal rows are one tuple
    rows = itlc.quasimodel.certificate_from_json(data, target).quasimodel.successors
    assert len(rows) == 64 and len({id(row) for row in rows}) == 1


def test_verify_names_the_first_world_holding_a_bad_nested_label():
    target, cert = _stored("X ~p <-> ~X p")

    def spoiled(worlds):
        # every nested copy of the moment with this label gains index 99
        data = copy.deepcopy(cert)
        data["worlds"] = worlds(data["worlds"])
        stack = [c for w in data["worlds"] for c in w["moment"]["children"]]
        while stack:
            m = stack.pop()
            if m == {"label": [0, 4, 6, 7, 8], "children": []}:
                m["label"].append(99)
            stack.extend(m["children"])
        return verify_certificate(data, target).reason

    # 38 worlds hold it, the first of them in list order is named
    assert spoiled(list) == "world is not a moment: worlds[0].children[2].label: bad index 99"
    assert (spoiled(lambda ws: ws[::-1])
            == "world is not a moment: worlds[69].children[0].label: bad index 99")


def test_dense_fixture_is_the_stored_certificate(dense):
    fixtures = pathlib.Path(__file__).parent.parent / "fixtures"
    assert json.loads((fixtures / "dense-cert.json").read_text(encoding="utf-8")) == dense[1]
    with_true = json.loads((fixtures / "dense-cert-bool.json").read_text(encoding="utf-8"))
    assert [e for e in with_true["s_edges"] if bool in map(type, e)] == [[31, True]]


def test_timeout_bounds_the_profile_outcome_list():
    # 2^15 profiles: printing each one's A-formulas from scratch once took
    # 4.8 s past this 0.5 s timeout.  X ~p <-> ~X p holds at every
    # one-world label, so the search goes past the one-world stage, and the
    # first profile keeps label viability busy for over 3 s
    f = parse("E" * 12 + "p -> XX((EXp | E~r) & XX(q | #) & E(<>(r -> q) & ((q -> p) -> <>p)))"
              " | (X ~p <-> ~X p)")
    start = time.monotonic()
    verdict = decide(f, itlc.Caps(timeout=0.5))
    assert verdict.kind == "RESOURCE_LIMIT" and len(verdict.profile_outcomes) == 2 ** 15
    assert time.monotonic() - start < 2.5


def test_decide_resource_limit_never_claims_valid():
    verdict = decide(parse("X p -> p"), itlc.Caps(max_moments=2))
    assert verdict.kind in {"FALSIFIABLE", "RESOURCE_LIMIT"}
    if verdict.kind == "FALSIFIABLE":
        assert verify_certificate(verdict.certificate, parse("X p -> p"))


def test_decide_exhaustion_backstop(monkeypatch):
    # with the label-viability shortcut disabled, verdicts must not change:
    # validity then rests on exhausting the (tiny) moment space, and
    # falsifiability on the layered search
    monkeypatch.setattr(
        itlc.quasimodel, "viable_types",
        lambda sigma, profile, deadline: frozenset(
            t for t in sigma.type_masks()
            if itlc.labels.profile_compatible(sigma, profile, t)))
    verdict = decide(parse("p -> p"))
    assert verdict.kind == "VALID" and verdict.complete
    assert any("complete enumeration" in o for o in verdict.profile_outcomes)

    flagship = parse("A(~p | <>p) -> (~<>p | <>p)")
    verdict = decide(flagship, itlc.Caps(timeout=60))
    assert verdict.kind == "FALSIFIABLE"
    assert verify_certificate(verdict.certificate, flagship)


# The pool.json formulas (perfbench/data) with |Sigma| <= 10 that decide finds
# VALID, 143 of them, decided again with each profile's whole type list in
# place of label viability: these 28 come out VALID and complete within 2 s
# each by exhausting the moment search, the rest end in RESOURCE_LIMIT and
# none comes out FALSIFIABLE.
EXHAUSTIBLE = (
    "q -> q", "AA(# | p -> p)", "AAE(q -> q)", "A<>(# & q -> # & #)", "<>AA~#", "# -> q",
    "<>(# -> p | #) | A#", "A(A(# | #) -> # | <>p)", "E<>(A# -> # | q)", "<>(EE# | A~#)",
    "E(# -> p) | p", "<>((Ap -> <>p) | (# -> # | #))", "A((p & # -> # -> p) -> A(# -> p))",
    "(# -> Aq) | <>((q -> q) & ~#)", "<><>(p & # -> Ap)", "EE<>(p -> p)", "<>(p -> <>p -> <>p)",
    "(<>~# -> <>(q -> q)) | #", "E<><>(# -> q)", "E<><>(q -> q)", "~#", "E(# -> A~#)",
    "A<>(q & # -> # & q)", "<>EE~#", "# -> <>A#", "E(q -> q)", "<><>(# -> A#)", "<># -> p",
)


def _every_profile_type(sigma, profile, deadline):
    """The profile's whole type list, in place of `viable_types`."""
    pattern = profile_pattern(sigma, profile)
    return frozenset(sigma.types_matching(*pattern, deadline)) if pattern else frozenset()


def test_exhaustion_agrees_with_label_viability(monkeypatch):
    for text in EXHAUSTIBLE:
        verdict = decide(parse(text), itlc.Caps(timeout=2))
        assert (verdict.kind, verdict.complete) == ("VALID", True), text
    monkeypatch.setattr(itlc.quasimodel, "viable_types", _every_profile_type)
    for text in EXHAUSTIBLE:
        verdict = decide(parse(text), itlc.Caps(timeout=2))
        assert (verdict.kind, verdict.complete) == ("VALID", True), text
        assert any("complete enumeration" in o for o in verdict.profile_outcomes), text


# Draws of random_formula(Random(7), 5, ("p", "q", "r"), {X, <>, A, E}) that
# ran past a 10 s timeout while viability scanned the surviving types
# pairwise, and a formula that scan held up for most of a second.
FRONTIER = {"X(E(r & r) | XXp) -> (XXr | A(q | r)) & X<>X#": "FALSIFIABLE",
            "((<>(q -> p) -> r | (q -> q)) -> <>A<>p) -> X(Er & A#) | "
            "(X# & (r -> q) | (Ep -> r -> p))": "FALSIFIABLE",
            "XX(# & p) & EEXq -> EXEXp": "VALID",
            "((# -> r) & <>r -> Ar -> Eq) & (<>Xp -> EXq) -> A<>(<># | ~q)": "FALSIFIABLE",
            "X(((q | # -> <>#) -> E#) | (<><>p -> Ep -> Eq))": "FALSIFIABLE",
            # 1,244,160 types, of which the 256 profiles allow 224,910
            "(XEA(p | #) -> EA<>r) | (AXp -> XAq & EXq -> Ap)": "VALID",
            "E(A(A# -> Ar) & <>(q | Er)) -> (Ap & (q & r) | q -> <>Xp) & XEX(q & r)":
                "FALSIFIABLE"}


@pytest.mark.parametrize("text", sorted(FRONTIER))
def test_frontier_draws_are_decided(text):
    f = parse(text)
    verdict = decide(f, itlc.Caps(timeout=10))
    assert (verdict.kind, verdict.complete) == (FRONTIER[text], True)
    if verdict.kind == "FALSIFIABLE":
        assert verify_certificate(json.loads(verdict.certificate.to_json_text()), f)
    else:
        assert itlc.find_countermodel(f, 3) is None


VALIDITIES = ("p -> p", "<>p <-> (p | X<>p)", "X(p & q) <-> (X p & X q)",
              "X(p -> q) -> (X p -> X q)")
HARD = ("X ~p <-> ~X p", "A<>p -> (X ~p <-> ~X p)", "p1 | p2 | p3 | p4 | p5 | p6 -> p1",
        "(X p -> X q) -> X(p -> q)", "A(~p | <>p) -> (~<>p | <>p)", "X p -> p", "<>p -> p",
        "E p -> <>p", "p -> X p") + VALIDITIES
CERT_WORLDS = {"(X p -> X q) -> X(p -> q)": 2, "X ~p <-> ~X p": 2,
               "A(~p | <>p) -> (~<>p | <>p)": 3, "p1 | p2 | p3 | p4 | p5 | p6 -> p1": 1}


def test_decide_builds_each_profiles_types(monkeypatch):
    def refuse(self, deadline=None):
        raise AssertionError("decide enumerated the whole type space")

    monkeypatch.setattr(itlc.labels.SigmaContext, "type_masks", refuse)
    for text in HARD:
        verdict = decide(parse(text))
        assert verdict.kind == ("VALID" if text in VALIDITIES else "FALSIFIABLE"), text


# each E is an A formula in an implication's antecedent, so each doubles
# the profiles; only the bits a profile pins keep label viability on
# these from running out of time
E_CHAINS = {"EEEEEp -> EEEEE(p | q)": "VALID", "E" * 6 + "p -> " + "E" * 6 + "(p | q)": "VALID",
            "E" * 10 + "p -> p & q": "FALSIFIABLE"}


@pytest.mark.parametrize("text", sorted(E_CHAINS))
def test_e_chains_are_decided(text):
    f = parse(text)
    verdict = decide(f, itlc.Caps(timeout=5))
    assert (verdict.kind, verdict.complete) == (E_CHAINS[text], True)
    if verdict.kind == "FALSIFIABLE":
        assert verify_certificate(json.loads(verdict.certificate.to_json_text()), f)


POOL = pathlib.Path(__file__).parent.parent / "perfbench" / "data" / "pool.json"


def test_one_world_certificates_match_one_point_countermodels():
    # a one-world quasimodel's label is the classical collapse of a
    # valuation, so decide settles a formula with one world exactly when
    # the independent model checker finds a one-point countermodel
    pool = json.loads(POOL.read_text())
    texts = random.Random(25).sample([e["formula"] for e in pool["body"] + pool["tail"]], 300)
    one_world = 0
    for text in texts:
        f = parse(text)
        verdict = decide(f, itlc.Caps(timeout=30))
        cert = verdict.certificate
        if cert is not None and len(cert.quasimodel.worlds) == 1:
            one_world += 1
            assert itlc.find_countermodel(f, 1) is not None, text
            assert verify_certificate(json.loads(cert.to_json_text()), f), text
        else:
            assert itlc.find_countermodel(f, 1) is None, text
    assert 0 < one_world < len(texts)


def test_one_world_stage_tries_valuations_in_ascending_order():
    # p | q -> r fails at {p}, {q} and {p, q} without r; of the valuations of
    # (p, q, r), bits in index order, {p} is 1, {q} 2 and {p, q} 3
    f = parse("p | q -> r")
    cert = decide(f).certificate
    (world,) = cert.quasimodel.worlds
    sigma = cert.quasimodel.sigma
    assert sigma.format_mask(world.label) == "{p, p | q}"
    assert cert.quasimodel.successors == ((0,),) and cert.lassos == {0: Lasso((), (0,))}
    assert cert.quasimodel.profile == 0


def test_one_world_stage_finds_a_label_past_the_first_block():
    # valuations are tried 256 at a time over p1 ... p8; the first one
    # falsifying this sets only p9: valuation 256, lane 0 of the second block
    f = parse(" | ".join(f"p{i}" for i in range(1, 9)) + " | ~p9")
    verdict = decide(f)
    assert (verdict.kind, verdict.complete) == ("FALSIFIABLE", True)
    (world,) = verdict.certificate.quasimodel.worlds
    assert verdict.certificate.quasimodel.sigma.format_mask(world.label) == "{p9}"
    assert verify_certificate(json.loads(verdict.certificate.to_json_text()), f)


def test_one_world_stage_settles_a_long_e_chain():
    # 2^18 profiles, none of whose types are built; building them all
    # before any certificate took 6.7 s and 146 MB
    f = parse("E" * 18 + "p -> p & q")
    verdict = decide(f, itlc.Caps(timeout=10))
    assert (verdict.kind, verdict.complete) == ("FALSIFIABLE", True)
    assert len(verdict.certificate.quasimodel.worlds) == 1
    assert verify_certificate(json.loads(verdict.certificate.to_json_text()), f)


@pytest.mark.parametrize("text", HARD)
def test_certificate_is_generated_inside_the_pruned_structure(monkeypatch, text):
    shrinks = []
    generated = itlc.quasimodel._generated

    def recording(q, seeds, deadline):
        shrunk, renumber, lassos = generated(q, seeds, deadline)
        shrinks.append((q, shrunk, renumber))
        return shrunk, renumber, lassos

    monkeypatch.setattr(itlc.quasimodel, "_generated", recording)
    f = parse(text)
    verdict = decide(f)
    if text in VALIDITIES:
        assert verdict.kind == "VALID" and not shrinks
        return
    assert verdict.kind == "FALSIFIABLE"
    cert = verdict.certificate
    if CERT_WORLDS.get(text) == 1:  # settled by the one-world stage, before any pruning
        assert not shrinks and len(cert.quasimodel.worlds) == 1
        assert verify_certificate(json.loads(cert.to_json_text()), f)
        return
    (pruned, shrunk, renumber), = shrinks
    assert cert.quasimodel == shrunk and shrunk.profile == pruned.profile
    assert verify_certificate(json.loads(cert.to_json_text()), f)
    old = {new: i for i, new in renumber.items()}
    assert all(shrunk.worlds[k] is pruned.worlds[old[k]] for k in range(len(shrunk.worlds)))
    assert {(old[a], old[b]) for a, b in shrunk.s_edges} <= pruned.s_edges
    assert pruned.order_pairs() == _strict_below_pairs(pruned)
    assert shrunk.order_pairs() == _strict_below_pairs(shrunk)
    if text in CERT_WORLDS:
        assert len(shrunk.worlds) == CERT_WORLDS[text]


def _faults(q, rng):
    """Seeded single faults of q: a dropped edge, an added edge that is not
    sensible, an added sensible edge that breaks confluence, a row entry
    moved out of range, a reversed row, an emptied row, and a flipped bit
    of a world's root label.  A fault that q offers no place for is left
    out."""
    sigma, worlds, rows, n = q.sigma, q.worlds, q.successors, len(q.worlds)

    def with_row(a, row):
        return Quasimodel(sigma, worlds, rows[:a] + (tuple(row),) + rows[a + 1:], q.profile)

    a, b = rng.choice(sorted(q.s_edges))
    yield with_row(a, [c for c in rows[a] if c != b])
    absent = [(a, b) for a in range(n) for b in range(n) if b not in rows[a]]
    insensible = [(a, b) for a, b in absent
                  if not sigma.sensible_masks(worlds[a].label, worlds[b].label)]
    unconfluent = [(a, b) for a, b in absent if (a, b) not in insensible
                   and any(not set(rows[a2]) & set(q._beneath[b]) for a2 in q._beneath[a])]
    for pairs in (insensible, unconfluent):
        if pairs:
            a, b = rng.choice(pairs)
            yield with_row(a, sorted(rows[a] + (b,)))
    a = rng.randrange(n)
    row = list(rows[a])
    row[rng.randrange(len(row))] = rng.choice((-1, n))
    yield with_row(a, row)
    longer = [a for a in range(n) if len(rows[a]) > 1]
    if longer:
        a = rng.choice(longer)
        yield with_row(a, reversed(rows[a]))
    yield with_row(rng.randrange(n), ())
    i, k = rng.randrange(n), rng.randrange(len(sigma))
    flipped = moment(sigma, worlds[i].label ^ 1 << k, worlds[i].children, validate=False)
    yield Quasimodel(sigma, worlds[:i] + (flipped,) + worlds[i + 1:], rows, q.profile)


def test_check_quasimodel_matches_the_edge_by_edge_oracle(monkeypatch):
    import random

    from oracles import structure_oracle

    built = []
    generated = itlc.quasimodel._generated

    def recording(q, seeds, deadline):
        shrunk, renumber, lassos = generated(q, seeds, deadline)
        built.extend((q, shrunk))
        return shrunk, renumber, lassos

    monkeypatch.setattr(itlc.quasimodel, "_generated", recording)
    for text in HARD:
        if text not in VALIDITIES:
            assert decide(parse(text)).kind == "FALSIFIABLE"
    # pruned stores whose worlds are taller, with up to 7 submoments
    for text in ("X p -> p", "(p -> q) | (q -> p)"):
        store = enumerate_irreducibles(subformula_closure(parse(text)), itlc.Caps(max_moments=300))
        built.append(prune_profile(store, 0))
    rng = random.Random(16)
    reasons = set()
    for q in built:
        assert check_quasimodel(q) == structure_oracle(q) == itlc.quasimodel.Check(True)
        for _ in range(3):
            for faulty in _faults(q, rng):
                outcome = check_quasimodel(faulty)
                assert outcome == structure_oracle(faulty), outcome.reason
                reasons.add(" ".join(w for w in str(outcome.reason).split()
                                     if not any(ch.isdigit() for ch in w)))
    assert {"edge is not sensible", "edge not confluent below world",
            "world has a successor out of range", "world has no successor",
            "successors of world are not strictly ascending"} <= reasons


def test_check_quasimodel_checks_the_deadline_once_per_world_in_every_loop():
    sigma = subformula_closure(parse("p1 | p2 | p3 | p4 | p5 | p6 -> p1"))
    q = prune_profile(enumerate_irreducibles(sigma), 0)
    assert len(q.worlds) == 64
    with pytest.raises(itlc.CapExceeded, match="certificate verification"):
        check_quasimodel(q, itlc.config.Deadline(0))

    class Counting(itlc.config.Deadline):
        checks = 0

        def check(self, what):
            Counting.checks += 1
            super().check(what)

    assert check_quasimodel(q, Counting(None))
    # once per world in the kit, row and confluence passes
    assert Counting.checks >= 3 * len(q.worlds)


def test_check_quasimodel_reports_a_shared_faulty_row_at_its_first_world():
    from oracles import structure_oracle

    sigma = subformula_closure(parse(DENSE))
    q = prune_profile(enumerate_irreducibles(sigma), 0)
    assert len({id(row) for row in q.successors}) == 1
    row = q.successors[0]
    for bad, reason in ((row[:-1] + (64,), "world 5 has a successor out of range"),
                        (row[::-1], "successors of world 5 are not strictly ascending")):
        # one faulty row object, held by worlds 5, 9 and 40
        rows = tuple(bad if a in (5, 9, 40) else row for a in range(64))
        faulty = Quasimodel(sigma, q.worlds, rows, q.profile)
        assert (check_quasimodel(faulty) == structure_oracle(faulty)
                == itlc.quasimodel.Check(False, reason))


@pytest.mark.parametrize("text", ["(X p -> X q) -> X(p -> q)", "E(X(p -> q) | XXp)"])
def test_small_countermodels_are_found_before_the_moment_cap(text):
    start = time.perf_counter()
    verdict = decide(parse(text))
    assert time.perf_counter() - start < 1
    assert verdict.kind == "FALSIFIABLE"


def test_eight_disjuncts_are_decided_quickly():
    f = parse("p1 | p2 | p3 | p4 | p5 | p6 | p7 | p8 -> p1")
    start = time.perf_counter()
    verdict = decide(f)
    assert time.perf_counter() - start < 2
    assert verdict.kind == "FALSIFIABLE" and len(verdict.certificate.quasimodel.worlds) == 1


def test_ten_disjuncts_are_decided_in_little_memory():
    import tracemalloc

    # X p1 -> p1 holds at every one-world label, so this reaches moment
    # generation and pruning, and comes out with two worlds
    f = parse("p1 | p2 | p3 | p4 | p5 | p6 | p7 | p8 | p9 | p10 -> (X p1 -> p1)")
    tracemalloc.start()
    try:
        verdict = decide(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.kind == "FALSIFIABLE"
    assert peak < 32 * 2**20


# ---------------------------------------------------------------------------
# Extraction from finite systems

def test_extract_one_point_identity():
    X = itlc.system(["a"], [], {"a": "a"})
    sigma = subformula_closure(parse("p"))
    q = extract_quasimodel(X, {"p": frozenset({"a"})}, sigma)
    assert len(q.worlds) == 1
    assert q.worlds[0].label == type_set(sigma, [parse("p")]).mask


def test_extract_next_countermodel_witness():
    f = parse("X p -> p")
    found = itlc.find_countermodel(f, 2)
    assert found is not None
    sigma = subformula_closure(f)
    q = extract_quasimodel(found.system, found.valuation, sigma)
    assert check_quasimodel(q)
    assert any(not m.label >> sigma.index[f] & 1 for m in q.worlds)


def test_extract_fixture_falsifies_interchange(fixture_system):
    X, val = fixture_system
    f = parse("(X p -> X q) -> X(p -> q)")
    sigma = subformula_closure(f)
    q = extract_quasimodel(X, val, sigma)
    assert check_quasimodel(q)
    assert any(not m.label >> sigma.index[f] & 1 for m in q.worlds)


def test_extract_agrees_with_model_checker(fixture_system):
    X, val = fixture_system
    f = parse("(X p -> X q) -> X(p -> q)")
    sigma = subformula_closure(f)
    q = extract_quasimodel(X, val, sigma)
    full = frozenset(X.names)
    model_falsified = {g for g in sigma.formulas
                       if itlc.evaluate(X, val, g) != full}
    assert set(falsified_members(q)) == model_falsified


def test_soundness_hook():
    # a finite countermodel means decide can never answer VALID
    for text in ("X p -> p", "<>p -> p", "E p -> <>p", "p -> X p"):
        f = parse(text)
        assert itlc.find_countermodel(f, 3) is not None
        verdict = decide(f)
        assert verdict.kind == "FALSIFIABLE"
        assert verify_certificate(verdict.certificate, f)


def test_extract_agreement_on_random_systems():
    import random

    from itlc.alexandroff import open_masks

    rng = random.Random(77)
    checked = 0
    while checked < 25:
        X = itlc.random_system(rng.randrange(1, 5), rng.randrange(10**6))
        opens = open_masks(X)
        val = {a: X.names_of(rng.choice(opens)) for a in ("p", "q")}
        f = itlc.eliminate_exists(
            itlc.random_formula(rng, depth=2, modalities=itlc.DIAMOND_FRAGMENT))
        sigma = subformula_closure(f)
        if len(sigma) > 9:
            continue
        q = extract_quasimodel(X, val, sigma, itlc.Caps(timeout=30))
        assert check_quasimodel(q)
        full = frozenset(X.names)
        model_falsified = {g for g in sigma.formulas
                           if itlc.evaluate(X, val, g) != full}
        assert set(falsified_members(q)) == model_falsified
        checked += 1


def test_extract_keeps_the_moments_of_the_largest_simulation(fixture_system):
    import random

    from itlc.alexandroff import open_masks
    from oracles import simulation_oracle

    cases = [(*fixture_system, parse("(X p -> X q) -> X(p -> q)"))]
    rng = random.Random(31)
    while len(cases) < 31:
        X = itlc.random_system(rng.randrange(1, 5), rng.randrange(10**6))
        opens = open_masks(X)
        val = {a: X.names_of(rng.choice(opens)) for a in ("p", "q")}
        f = itlc.eliminate_exists(
            itlc.random_formula(rng, depth=2, modalities=itlc.DIAMOND_FRAGMENT))
        if len(subformula_closure(f)) <= 9:
            cases.append((X, val, f))
    pruned = 0
    for X, val, f in cases:
        sigma = subformula_closure(f)
        truth = {f: itlc.evaluate(X, val, f) for f in sigma.formulas}
        labels = [sum(1 << sigma.index[f] for f, members in truth.items() if name in members)
                  for name in X.names]
        store = enumerate_irreducibles(sigma, allowed_labels=labels)
        kept = {m for m, _ in simulation_oracle(store.moments, X, labels)}
        pruned += len(kept) < len(store.moments)
        assert extract_quasimodel(X, val, sigma).worlds == tuple(sorted(kept))
    assert pruned > 0


# Each invariant extract asserts, reached by breaking one of its inputs.

def test_extract_reports_a_non_type_point_label(monkeypatch, fixture_system):
    X, val = fixture_system
    sigma = subformula_closure(parse("X ~p <-> ~X p"))
    truth_masks = itlc.alexandroff.truth_masks

    def bottom_everywhere(X, valuation, formulas):
        registers = truth_masks(X, valuation, formulas)
        registers[sigma.index[parse("#")]] = X.full_mask()
        return registers

    monkeypatch.setattr(itlc.alexandroff, "truth_masks", bottom_everywhere)
    with pytest.raises(InvariantViolation, match=r"^point v carries a non-type label$"):
        extract_quasimodel(X, val, sigma)


def test_extract_reports_points_no_moment_simulates(monkeypatch, fixture_system):
    # without the moments holding z's label anywhere, no moment simulates z
    X, val = fixture_system
    sigma = subformula_closure(parse("(X p -> X q) -> X(p -> q)"))
    registers = itlc.alexandroff.truth_masks(X, val, sigma.formulas)
    z = X.names.index("z")
    label = sum(1 << i for i, truth in registers.items() if truth >> z & 1)
    snapshot = _Generation.snapshot
    monkeypatch.setattr(_Generation, "snapshot", lambda gen: tuple(
        m for m in snapshot(gen) if label not in m.node_labels()))
    with pytest.raises(InvariantViolation, match=r"^simulation misses points \['z'\]$"):
        extract_quasimodel(X, val, sigma)


def test_extract_reports_a_simulation_that_is_not_dynamic(monkeypatch, fixture_system):
    # the last world has one successor, the only one its points' images reach
    X, val = fixture_system
    sigma = subformula_closure(parse("(X p -> X q) -> X(p -> q)"))

    def dropping_the_last(worlds, deadline):
        rows = _successor_lists(worlds, deadline)
        assert len(rows[-1]) == 1
        return rows[:-1] + [()]

    monkeypatch.setattr(itlc.quasimodel, "_successor_lists", dropping_the_last)
    with pytest.raises(InvariantViolation, match=r"^simulation is not dynamic$"):
        extract_quasimodel(X, val, sigma)


def test_each_call_checks_one_deadline_in_every_loop(monkeypatch, fixture_system):
    clocks = []

    class Recording(itlc.config.Deadline):
        def __init__(self, timeout):
            super().__init__(timeout)
            self.seen = set()
            clocks.append(self)

        def check(self, what):
            self.seen.add(what)
            super().check(what)

    monkeypatch.setattr(itlc.config, "Deadline", Recording)
    assert decide(parse("X ~p <-> ~X p")).kind == "FALSIFIABLE"
    assert len(clocks) == 1
    assert clocks[0].seen == {"one-world search", "type enumeration", "label viability",
                              "moment generation",
                              "successor construction", "profile pruning",
                              "certificate construction", "lasso construction",
                              "certificate verification"}

    clocks.clear()
    enumerate_irreducibles(subformula_closure(parse("X ~p <-> ~X p")),
                           itlc.Caps(max_moments=2000))
    assert len(clocks) == 1
    assert clocks[0].seen == {"type enumeration", "moment generation"}

    clocks.clear()
    X, val = fixture_system
    extract_quasimodel(X, val, subformula_closure(parse("(X p -> X q) -> X(p -> q)")))
    assert len(clocks) == 1
    assert clocks[0].seen >= {"simulation pruning", "successor construction"}
    assert "type enumeration" not in clocks[0].seen


def test_label_viability_keeps_its_timeout():
    # a depth-7 draw (|Σ| 29) has a one-world countermodel, so decide is
    # given it with a disjunct that holds at every one-world label; the
    # empty profile of that (|Σ| 35) keeps the viability fixpoint busy for
    # over 3 s even with the bits it pins, on hosts fast or slow: every
    # loop over types checks the deadline once per 256 types
    f = parse("XX((EXp | E~r) & XX(q | #) & E(<>(r -> q) & ((q -> p) -> <>p)))")
    g = itlc.Or(f, parse("X ~p <-> ~X p"))
    start = time.monotonic()
    assert decide(g, itlc.Caps(timeout=0.3)).kind == "RESOURCE_LIMIT"
    assert time.monotonic() - start < 1.3

    sigma = fragment_context(g)[1]
    start = time.monotonic()
    with pytest.raises(itlc.CapExceeded, match=r"^label viability passed "):
        itlc.viable_types(sigma, 0, itlc.Caps(timeout=0.3).deadline())
    assert time.monotonic() - start < 1.3


def test_decoded_certificate_reads_back_its_own_json(flagship):
    cert = decide(flagship).certificate
    data = json.loads(cert.to_json_text())
    data["worlds"].reverse()
    for w in data["worlds"]:
        w["id"] += 100
    for key in ("order", "s_edges"):
        data[key] = [[a + 100, b + 100] for a, b in data[key]]
    data["witness"] += 100
    data["lassos"] = {str(int(k) + 100): {part: [i + 100 for i in v[part]] for part in v}
                      for k, v in data["lassos"].items()}
    assert verify_certificate(data, flagship)
    assert itlc.certificate_from_json(data, flagship) == cert


def test_a_moment_nested_past_the_stack_is_malformed(flagship):
    # read_json refuses JSON nested this deep, but a dict passed to the API
    # is read as given
    data = json.loads(decide(flagship).certificate.to_json_text())
    nested = {"label": [], "children": []}
    for _ in range(3000):
        nested = {"label": [], "children": [nested]}
    data["worlds"][0]["moment"] = nested
    assert verify_certificate(data, flagship).reason.startswith("malformed certificate: ")
    with pytest.raises(itlc.SchemaError, match="^certificate invalid: malformed certificate: "):
        itlc.certificate_from_json(data, flagship)


# field -> (target, path to an index or world id in its certificate, the JSON
# boolean put there); True == 1 and False == 0, so each certificate verified
# before booleans were refused
BOOLEAN_FAULTS = {
    "label": ("X p -> p", ("worlds", 0, "moment", "label", 0), True),
    "profile": ("A p -> q", ("profile", 0), True),
    "world id": ("~~p -> p", ("worlds", 1, "id"), True),
    "edge": ("~~p -> p", ("s_edges", 0, 0), False),
    "order": ("~~p -> p", ("order", 0, 0), True),
    "witness": ("~~p -> p", ("witness",), False),
    "lasso prefix": ("~~p -> p", ("lassos", "1", "prefix", 0), True),
    "lasso loop": ("~~p -> p", ("lassos", "1", "loop", 0), False),
}


@pytest.mark.parametrize("field", BOOLEAN_FAULTS)
def test_a_json_boolean_is_no_index(field):
    text, path, boolean = BOOLEAN_FAULTS[field]
    target = parse(text)
    data = json.loads(decide(target).certificate.to_json_text())
    *outer, last = path
    holder = data
    for key in outer:
        holder = holder[key]
    assert holder[last] == boolean and type(holder[last]) is int
    holder[last] = boolean
    if field == "world id":  # the world's lasso is listed under its id's text
        data["lassos"][str(boolean)] = data["lassos"].pop(str(int(boolean)))
    assert not verify_certificate(data, target)
    with pytest.raises(itlc.SchemaError, match="^certificate invalid: "):
        itlc.certificate_from_json(data, target)


def test_a_chain_deeper_than_the_recursion_limit_is_decided():
    # built through the API past parse's bound: the certificate's texts are
    # canonical, so the verifier reads them back without parsing
    chain = itlc.Atom("p")
    for _ in range(1500):
        chain = itlc.Next(chain)
    target = itlc.Implies(chain, itlc.Atom("q"))
    verdict = decide(target, itlc.Caps(timeout=30))
    assert verdict.kind == "FALSIFIABLE"
    data = json.loads(verdict.certificate.to_json_text())
    assert len(data["worlds"]) == 1
    assert verify_certificate(data, target)
