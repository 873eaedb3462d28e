import copy
import gc
import os
import pickle
import random
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import itlc
from itlc.formula import (MAX_NESTING, And, Atom, BOT, Bottom, Eventually, Exists,
                          Forall, Henceforth, Implies, Modality, Next, Or,
                          eliminate_exists, format_formula, fragment_of,
                          godel_tarski, in_diamond_fragment, parse,
                          random_formula, subformulas)
from itlc.labels import SigmaContext
from oracles import format_oracle

p, q, r = Atom("p"), Atom("q"), Atom("r")


def test_parse_negation_sugar():
    assert parse("~p") == Implies(p, BOT)


def test_parse_precedence():
    assert parse("p & q -> r") == Implies(And(p, q), r)
    assert parse("p | q & r") == Or(p, And(q, r))
    assert parse("p -> q -> r") == Implies(p, Implies(q, r))


def test_parse_biconditional_sugar():
    assert parse("p <-> q") == And(Implies(p, q), Implies(q, p))


def test_parse_flagship_structure(flagship):
    body = Or(Implies(p, BOT), Eventually(p))
    expected = Implies(Forall(body),
                       Or(Implies(Eventually(p), BOT), Eventually(p)))
    assert flagship == expected


def test_parse_modalities():
    assert parse("X p") == Next(p)
    assert parse("[]p") == Henceforth(p)
    assert parse("E p") == Exists(p)
    assert parse("#") == Bottom()


def test_parse_errors_carry_position():
    with pytest.raises(itlc.ParseError) as err:
        parse("p & ")
    assert err.value.position == 4
    with pytest.raises(itlc.ParseError):
        parse("p ? q")
    with pytest.raises(itlc.ParseError):
        parse("(p -> q")
    with pytest.raises(itlc.ParseError):
        parse("p q")


# text -> its (kind, value, position) tokens, or the ParseError message and position
LEXER_CASES = {
    "pX": [("atom", "pX", 0)],  # an operator letter inside a word
    "Xp": [("op", "X", 0), ("atom", "p", 1)],
    "é": [("atom", "é", 0)],
    "ßq": [("atom", "ßq", 0)],
    "ⓐb": [("atom", "ⓐb", 0)],  # lower case, though not a word character
    "pⓐ": [("atom", "p", 0), ("atom", "ⓐ", 1)],
    "　p": [("atom", "p", 1)],  # ideographic space
    "\x1cp": [("atom", "p", 1)],  # file separator
    "p -> q \t\n": [("atom", "p", 0), ("op", "->", 2), ("atom", "q", 5)],
    "p <-> <>q": [("atom", "p", 0), ("op", "<->", 2), ("op", "<>", 6), ("atom", "q", 8)],
    "q | _p": ("unknown token '_'", 4),
    "q | 1p": ("unknown token '1'", 4),
    "q | P": ("unknown token 'P'", 4),
    "q | <": ("unknown token '<'", 4),
    "q | <-p": ("unknown token '<'", 4),
    "q | -": ("unknown token '-'", 4),
    "q | [p": ("unknown token '['", 4),
}


@pytest.mark.parametrize("text", LEXER_CASES)
def test_lexer_edge_cases(text):
    expected = LEXER_CASES[text]
    if isinstance(expected, list):
        assert itlc.formula._tokenize(text) == expected
        return
    message, position = expected
    for read in (itlc.formula._tokenize, parse):
        with pytest.raises(itlc.ParseError) as err:
            read(text)
        assert (str(err.value), err.value.position) == (
            f"{message} (at position {position})", position)


NESTS = [
    lambda n: "X" * n + "p",
    lambda n: "E" * n + "p",
    lambda n: "(" * n + "p" + ")" * n,
    lambda n: " -> ".join(["p"] * (n + 1)),
    lambda n: " & ".join(["p"] * (n + 1)),
]


@pytest.mark.parametrize("nest", NESTS)
def test_nesting_bound(nest):
    deepest = parse(nest(MAX_NESTING))
    assert parse(format_formula(deepest)) == deepest
    reduced = eliminate_exists(deepest)  # up to three times as deep
    assert format_formula(reduced)
    assert subformulas(reduced)[-1] == reduced
    assert fragment_of(reduced) <= {Modality.NEXT, Modality.FORALL}
    godel_tarski(deepest)
    with pytest.raises(itlc.ParseError) as err:
        parse(nest(MAX_NESTING + 1))
    assert "nested deeper" in str(err.value)


def test_format_sugar_inverse():
    assert format_formula(Implies(p, BOT)) == "~p"
    assert format_formula(And(p, Or(q, r))) == "p & (q | r)"
    assert format_formula(Or(And(p, q), r)) == "p & q | r"
    assert format_formula(Implies(Implies(p, q), r)) == "(p -> q) -> r"
    assert format_formula(Next(Eventually(p))) == "X<>p"
    assert format_formula(Implies(Or(p, q), BOT)) == "~(p | q)"


def test_printer_matches_recursive_reference():
    # byte-identical to the recursive printer it replaced, for whole
    # formulas and for a context's texts
    rng = random.Random(20261019)
    cases = [random_formula(rng, depth, ("p", "q", "r")) for depth in range(7) for _ in range(200)]
    cases += [Implies(Implies(p, BOT), BOT), Implies(Implies(p, q), BOT), Implies(p, Implies(q, BOT)),
              Implies(BOT, BOT), Implies(BOT, p), Next(Implies(p, BOT)), Implies(Next(p), BOT),
              And(Implies(p, BOT), q), Implies(And(p, q), BOT), And(p, And(q, r)), And(And(p, q), r),
              Or(p, Or(q, r)), Or(Or(p, q), r), Or(And(p, q), r), And(Or(p, q), r),
              Implies(p, Implies(q, r)), Implies(Implies(p, q), r), Forall(Implies(p, q)),
              Implies(Or(p, q), And(q, r)), Or(Implies(p, q), r), And(Implies(p, q), Implies(q, p)),
              parse("(q <-> (q <-> (q <-> p)))")]
    deep = [parse(nest(MAX_NESTING)) for nest in NESTS]
    cases += deep + [eliminate_exists(f) for f in deep]
    for f in cases:
        assert format_formula(f) == format_oracle(f)
        sigma = SigmaContext(subformulas(f))
        assert sigma.texts == tuple(format_oracle(g) for g in sigma.formulas)


def test_round_trip_seeded():
    rng = random.Random(20240817)
    for _ in range(1000):
        f = random_formula(rng, depth=6, atoms=("p", "q", "r"))
        assert parse(format_formula(f)) == f


def test_format_is_identity_on_minimal_strings():
    # strings already in minimal-parenthesis form print back unchanged
    for text in ("~p", "p & q -> r", "p & (q | r)", "X<>p", "p | ~p",
                 "A(~p | <>p) -> ~<>p | <>p", "(p -> q) -> r", "#"):
        assert format_formula(parse(text)) == text


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**63), st.integers(min_value=0, max_value=5))
def test_round_trip_property(seed, depth):
    f = random_formula(random.Random(seed), depth)
    assert parse(format_formula(f)) == f


def _collect_nodes(f, acc):
    # independent of subformulas(): plain recursive node collection
    acc.add(f)
    if isinstance(f, (And, Or, Implies)):
        _collect_nodes(f.left, acc)
        _collect_nodes(f.right, acc)
    elif isinstance(f, (Next, Eventually, Henceforth, Forall, Exists)):
        _collect_nodes(f.body, acc)
    return acc


def test_closure_small_examples():
    assert set(subformulas(parse("<>p"))) == {p, Eventually(p)}
    assert len(subformulas(parse("<>p"))) == 2
    assert subformulas(p) == (p,)


def test_closure_flagship_matches_node_walk(flagship):
    got = subformulas(flagship)
    assert len(got) == 9
    assert set(got) == _collect_nodes(flagship, set())


def test_closure_idempotent_and_monotone():
    rng = random.Random(7)
    for _ in range(100):
        f = random_formula(rng, depth=4)
        subs = subformulas(f)
        for g in subs:
            assert set(subformulas(g)) <= set(subs)
        assert subformulas(subs[-1]) == subs


def test_eliminate_exists_examples():
    assert eliminate_exists(parse("E p")) == parse("~A~p")
    f = parse("A(~p | <>p) -> (~<>p | <>p)")
    assert eliminate_exists(f) == f
    assert eliminate_exists(parse("E E p")) == parse("~A~(~A~p)")


def test_eliminate_exists_removes_all_and_bounds_growth():
    rng = random.Random(99)
    for _ in range(200):
        f = random_formula(rng, depth=4)
        g = eliminate_exists(f)
        assert not any(isinstance(s, Exists) for s in subformulas(g))
        assert len(subformulas(g)) <= 4 * len(subformulas(f))


def test_godel_tarski_clauses():
    assert godel_tarski(p) == "*p"
    assert godel_tarski(BOT) == "#"
    assert godel_tarski(parse("<>[]p -> #")) == "*(<>*[]*p -> #)"
    assert godel_tarski(parse("p & q")) == "(*p & *q)"
    assert godel_tarski(parse("A p")) == "A*p"


def _occurrences(f):
    out = [f]
    if isinstance(f, (And, Or, Implies)):
        out += _occurrences(f.left) + _occurrences(f.right)
    elif isinstance(f, (Next, Eventually, Henceforth, Forall, Exists)):
        out += _occurrences(f.body)
    return out


def test_godel_tarski_linear_size():
    rng = random.Random(3)
    for _ in range(100):
        f = random_formula(rng, depth=4)
        occ = _occurrences(f)
        stars = godel_tarski(f).count("*")
        expected = sum(1 for g in occ
                       if isinstance(g, (Atom, Implies, Henceforth)))
        assert stars == expected


def test_fragment_of(flagship):
    assert fragment_of(flagship) == {Modality.EVENTUALLY, Modality.FORALL}
    assert in_diamond_fragment(flagship)
    assert fragment_of(parse("[]p")) == {Modality.HENCEFORTH}
    assert not in_diamond_fragment(parse("[]p"))
    assert fragment_of(eliminate_exists(parse("E p"))) == {Modality.FORALL}
    assert in_diamond_fragment(eliminate_exists(parse("E p")))


def test_decide_rejects_henceforth_but_checker_accepts():
    with pytest.raises(itlc.FragmentError):
        itlc.decide(parse("[]p"))
    X, val = itlc.minimal_five()
    itlc.evaluate(X, val, parse("[]p"))  # no error


# ---------------------------------------------------------------------------
# Hashing

def test_equal_formulas_hash_equal():
    rng = random.Random(61)
    for _ in range(200):
        f = random_formula(rng, depth=4)
        again = parse(format_formula(f))
        assert again == f and hash(again) == hash(f)
    text = "A(~p | <>p) -> (~<>p | <>p)"
    assert hash(parse(text)) == hash(parse(text))
    assert parse("p & q") != parse("q & p") and parse("p & q") != parse("p | q")
    assert Atom("p") != "p"


def test_hash_distinguishes_node_types():
    # hashing is identity, and a dropped node's address can be reused: keep
    # each node alive while it is hashed
    binary = [And(p, q), Or(p, q), Implies(p, q)]
    unary = [Next(p), Eventually(p), Henceforth(p), Forall(p), Exists(p)]
    assert len({hash(f) for f in binary}) == 3
    assert len({hash(f) for f in unary}) == 5


def test_cached_hash_is_not_state():
    f = parse("X p -> p & q")
    hash(f)
    assert repr(f) == ("Implies(left=Next(body=Atom(name='p')), "
                       "right=And(left=Atom(name='p'), right=Atom(name='q')))")
    for copied in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert copied == f and hash(copied) == hash(f)


def test_unpickled_formula_rehashes_under_this_process():
    # string hashes differ between processes with different hash seeds, so
    # a pickled cached hash would miss the dict entry below
    text = "A(~p | <>p) -> (~<>p | <>p)"
    seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=str(Path(itlc.__file__).resolve().parents[1]))
    script = ("import pickle, sys; from itlc import parse; "
              f"f = parse({text!r}); hash(f); sys.stdout.buffer.write(pickle.dumps(f))")
    data = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          capture_output=True).stdout
    loaded = pickle.loads(data)
    assert loaded == parse(text)
    assert {parse(text): "found"}.get(loaded) == "found"


def test_nested_biconditionals_stay_linear():
    chain = "p"
    for _ in range(40):
        chain = f"(q <-> {chain})"
    # the twin's two chains are parsed separately yet are one object, so
    # its closure adds only c -> c and (c -> c) & (c -> c) to the chain c's
    for text, size in ((chain, 3 * 40 + 2), (f"{chain} <-> {chain}", 3 * 40 + 4)):
        start = time.perf_counter()
        reduced = eliminate_exists(parse(text))
        assert in_diamond_fragment(reduced)
        sigma = itlc.subformula_closure(reduced)
        assert time.perf_counter() - start < 1.0
        assert len(sigma) == size  # per level: two implications, one conjunction
    start = time.perf_counter()
    assert parse(chain) == parse(chain) and parse(chain) != parse(chain.replace("p", "r"))
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# Hash-consing

def test_one_node_per_formula():
    assert And(p, q) is And(left=p, right=q) is And(p, right=q)
    assert Atom(name="p") is p and Bottom() is BOT
    f = parse("A(~p | <>p) -> (~<>p | <>p)")
    for again in (eval(repr(f), vars(itlc)), copy.copy(f), copy.deepcopy(f),
                  pickle.loads(pickle.dumps(f)), parse(str(f))):
        assert again is f
    assert eliminate_exists(f) is f


@pytest.mark.parametrize("build", [lambda: And(p), lambda: And(p, q, r), lambda: And(p, left=q),
                                   lambda: And(right=q), lambda: Next(p, body=q), lambda: Bottom(p)])
def test_wrong_operands_are_refused(build):
    with pytest.raises(TypeError):
        build()


def test_a_dropped_formula_leaves_the_table():
    f = parse("X(zz -> <>zz)")
    dropped = weakref.ref(f)
    del f
    gc.collect()
    assert dropped() is None


def test_formulas_deeper_than_the_recursion_limit():
    # built through the API: parse refuses them, but nothing recurses over them
    levels = 5000
    assert levels > sys.getrecursionlimit()
    chains = []
    for _ in range(2):
        chain = p
        for _ in range(levels):
            chain = Next(chain)
        chains.append(chain)
    chain, again = chains
    assert again is chain and again == chain and hash(again) == hash(chain)
    assert chain != Next(chain) and len(itlc.subformula_closure(chain)) == levels + 1
    assert format_formula(chain) == "X" * levels + "p"
    assert godel_tarski(chain) == "X" * levels + "*p"
    assert eliminate_exists(chain) is chain and fragment_of(chain) == {Modality.NEXT}


def test_printing_caches_only_the_text_asked_for():
    # each subformula of an X chain has a text as long as its depth, so
    # caching them all would keep the square of the depth alive
    levels = 5000
    chain = Atom("deep")
    for _ in range(levels):
        chain = Next(chain)
    assert str(chain) == "X" * levels + "deep"
    assert sum(len(getattr(g, "_text", "")) for g in subformulas(chain)) <= 2 * levels
    # a context's texts are read again by every certificate, so they stay cached
    f = parse("X(zz -> <>zz)")
    sigma = itlc.subformula_closure(f)
    assert all(getattr(g, "_text", None) == t for g, t in zip(sigma.formulas, sigma.texts))
