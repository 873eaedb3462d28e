import pytest

import itlc


@pytest.fixture(scope="session")
def flagship():
    return itlc.parse("A(~p | <>p) -> (~<>p | <>p)")


@pytest.fixture(scope="session")
def flagship_sigma(flagship):
    return itlc.subformula_closure(flagship)


@pytest.fixture(scope="session")
def worked_labels(flagship, flagship_sigma):
    """The three labels of the worked falsifying structure: u, v, w."""
    P = itlc.parse
    theta = P("~<>p | <>p")
    disj = P("~p | <>p")
    lu = itlc.type_set(flagship_sigma, [P("A(~p | <>p)"), disj, P("~p")])
    lv = itlc.type_set(flagship_sigma,
                       [P("<>p"), P("~p"), disj, flagship, theta, P("A(~p | <>p)")])
    lw = itlc.type_set(flagship_sigma,
                       [P("p"), disj, flagship, theta, P("A(~p | <>p)"), P("<>p")])
    return lu, lv, lw


@pytest.fixture(scope="session")
def worked_moments(flagship_sigma, worked_labels):
    lu, lv, lw = worked_labels
    mv = itlc.moment(flagship_sigma, lv)
    mw = itlc.moment(flagship_sigma, lw)
    mu = itlc.graft(lu, [mv])
    return mu, mv, mw


@pytest.fixture(scope="session")
def golden_quasimodel(flagship_sigma, worked_moments):
    """The three worked moments with the drawn successor rows."""
    mu, mv, mw = worked_moments
    worlds = tuple(sorted([mu, mv, mw], key=lambda m: m.key))
    idx = {m: i for i, m in enumerate(worlds)}
    succ = {mu: [mu], mv: [mv, mw], mw: [mw]}
    rows = tuple(tuple(sorted(idx[t] for t in succ[m])) for m in worlds)
    profile = flagship_sigma.forall_mask
    return itlc.Quasimodel(flagship_sigma, worlds, rows, profile), idx


@pytest.fixture(scope="session")
def fixture_system():
    return itlc.minimal_five()
