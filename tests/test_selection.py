import math
import types

import numpy as np
import pytest

import blockfit as bf
from blockfit import FamilySpec, selection
from blockfit.engine import MixtureParams, complete_data_loglik, mstep
from blockfit.families import PoissonParams
from blockfit.selection import SelectionRecord, _choose, icl_penalty, map_assignment

POISSON = FamilySpec("poisson")


def test_map_assignment_rules():
    assert map_assignment(np.array([[0.9, 0.1]]))[0] == 0
    assert map_assignment(np.array([[0.5, 0.5]]))[0] == 0  # tie -> smallest index
    hard = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=float)
    assert list(map_assignment(hard)) == [1, 0, 2]


def test_icl_penalty_arithmetic():
    pen = icl_penalty(POISSON, 3, 100, directed=False)
    want = 0.5 * (6 * math.log(9900) - 2 * math.log(100))
    assert pen == pytest.approx(want, abs=1e-12)
    assert pen == pytest.approx(22.996, abs=1e-3)
    # Q=1 has no proportion term
    pen1 = icl_penalty(POISSON, 1, 50, directed=False)
    assert pen1 == pytest.approx(0.5 * 1 * math.log(50 * 49), abs=1e-12)
    # unordered convention halves the edge count
    pen_u = icl_penalty(POISSON, 3, 100, directed=False, edge_count="unordered")
    assert pen_u == pytest.approx(0.5 * (6 * math.log(4950) - 2 * math.log(100)), abs=1e-12)


def test_icl_decomposition():
    params = MixtureParams(alpha=np.array([0.5, 0.5]),
                           theta=PoissonParams(lam=np.array([[5.0, 0.5], [0.5, 3.0]])))
    g, _ = bf.sample_graph(params, 20, False, POISSON, seed=0)
    fr = bf.fit(g, POISSON, 2, seed=0, restarts=3)
    got = bf.icl(g, POISSON, fr)
    labels = fr.map_assignment
    hard = np.zeros((20, 2))
    hard[np.arange(20), labels] = 1.0
    refit = mstep(g, POISSON, hard, prev=fr.params.theta)
    cll = complete_data_loglik(g, POISSON, refit, labels)
    assert got == pytest.approx(cll - icl_penalty(POISSON, 2, 20, False), abs=1e-9)


def test_choose_breaks_ties_toward_smaller_q():
    records = [SelectionRecord(q=2, fit=None, icl=-10.0),
               SelectionRecord(q=3, fit=None, icl=-10.0),
               SelectionRecord(q=4, fit=None, icl=-11.0)]
    assert _choose(records).q == 2


def test_select_q_recovers_two_blocks():
    params = MixtureParams(alpha=np.array([0.5, 0.5]),
                           theta=PoissonParams(lam=np.array([[6.0, 0.5], [0.5, 6.0]])))
    g, _ = bf.sample_graph(params, 40, False, POISSON, seed=1)
    res = bf.select_q(g, POISSON, range(1, 4), seed=1,
                      fit_options={"restarts": 3})
    assert res.chosen_q == 2
    assert [rec.q for rec in res.records] == [1, 2, 3]
    assert res.best_fit.icl == res.record(2).icl


def test_select_q_is_deterministic():
    params = MixtureParams(alpha=np.array([0.6, 0.4]),
                           theta=PoissonParams(lam=np.array([[4.0, 1.0], [1.0, 3.0]])))
    g, _ = bf.sample_graph(params, 25, False, POISSON, seed=2)
    a = bf.select_q(g, POISSON, range(1, 4), seed=7, fit_options={"restarts": 2})
    b = bf.select_q(g, POISSON, range(1, 4), seed=7, fit_options={"restarts": 2})
    assert a.chosen_q == b.chosen_q
    for ra, rb in zip(a.records, b.records):
        assert ra.icl == rb.icl
        assert ra.fit.bound == rb.fit.bound


def test_a_sweep_checks_its_graph_once(monkeypatch):
    """select_q builds one workspace, the one check of its graph, and hands it
    to the fit and the ICL of every Q."""
    from blockfit.families import _Family

    g, _ = bf.sample_graph(MixtureParams(alpha=[0.5, 0.5], theta=PoissonParams(
        lam=[[4.0, 1.0], [1.0, 3.0]])), 40, False, POISSON, seed=0)
    want = bf.select_q(g, POISSON, range(1, 4), seed=2)
    checks, real = [], _Family.check_graph
    monkeypatch.setattr(_Family, "check_graph", lambda *a: checks.append(1) or real(*a))
    got = bf.select_q(g, POISSON, range(1, 4), seed=2)
    assert len(checks) == 1
    assert [rec.icl for rec in got.records] == [rec.icl for rec in want.records]
    single = bf.fit(g, POISSON, 2, seed=2002)
    assert bf.icl(g, POISSON, single) == got.record(2).icl


def test_a_sweep_refuses_a_graph_its_family_does_not_fit():
    # the one check runs before the first fit, so no Q is fitted
    g, _ = bf.sample_graph(MixtureParams(alpha=[1.0], theta=PoissonParams(lam=[[3.0]])), 12,
                           False, POISSON, seed=0)
    with pytest.raises(bf.FamilyError, match="0/1 values"):
        bf.select_q(g, FamilySpec("bernoulli"), range(1, 3), seed=0)


def test_select_q_records_failures_without_aborting():
    params = MixtureParams(alpha=np.array([1.0]), theta=PoissonParams(lam=np.array([[2.0]])))
    g, _ = bf.sample_graph(params, 5, False, POISSON, seed=3)
    # Q > n fails for Q=6 but the sweep still returns the valid fits
    res = bf.select_q(g, POISSON, [1, 6], seed=0, fit_options={"restarts": 1})
    assert res.chosen_q == 1
    rec = res.record(6)
    assert rec.fit is None and rec.icl == -np.inf and rec.error


def test_select_q_bad_range():
    params = MixtureParams(alpha=np.array([1.0]), theta=PoissonParams(lam=np.array([[2.0]])))
    g, _ = bf.sample_graph(params, 5, False, POISSON, seed=4)
    with pytest.raises(ValueError):
        bf.select_q(g, POISSON, [])
    with pytest.raises(ValueError):
        bf.select_q(g, POISSON, [3, 2, 1])


@pytest.mark.parametrize("q_range, message", [
    ([1, 2.7], "q_range holds 2.7, which is not an integer"),
    ([2, 2], "q_range repeats Q = 2"),
    ([1, 2, 2, 3], "q_range repeats Q = 2"),
    ([True, 2], "q_range holds True, which is not an integer"),
], ids=["fraction", "repeat", "repeat-inside", "bool"])
def test_select_q_refuses_fractional_and_repeated_q(q_range, message):
    """Q is neither truncated (2.7 would fit Q = 2) nor fitted twice."""
    params = MixtureParams(alpha=np.array([1.0]), theta=PoissonParams(lam=np.array([[2.0]])))
    g, _ = bf.sample_graph(params, 5, False, POISSON, seed=4)
    with pytest.raises(ValueError, match=message):
        bf.select_q(g, POISSON, q_range)


def test_select_q_refuses_a_negative_seed_before_its_first_fit(monkeypatch):
    """Every fit would refuse the seed, which the sweep reported only as
    "every Q in the sweep failed to fit"."""
    params = MixtureParams(alpha=np.array([1.0]), theta=PoissonParams(lam=np.array([[2.0]])))
    g, _ = bf.sample_graph(params, 5, False, POISSON, seed=4)

    def no_fit(*args, **kwargs):
        raise AssertionError("select_q fitted before it checked the seed")

    monkeypatch.setattr(selection, "fit", no_fit)
    with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
        bf.select_q(g, POISSON, range(1, 3), seed=-1)


def test_select_q_accepts_seed_sequences_and_keeps_integer_streams():
    params = MixtureParams(alpha=np.array([0.5, 0.5]),
                           theta=PoissonParams(lam=np.array([[4.0, 1.0], [1.0, 3.0]])))
    g, _ = bf.sample_graph(params, 30, False, POISSON, seed=0)
    opts = {"restarts": 2}
    a = bf.select_q(g, POISSON, range(1, 4), fit_options=opts, seed=[1, 2])
    b = bf.select_q(g, POISSON, range(2, 4), fit_options=opts, seed=[1, 2])
    assert a.record(3).icl == b.record(3).icl  # streams are keyed by (seed, Q)
    # an integer seed s fits Q with seed s * 1000 + Q
    c = bf.select_q(g, POISSON, range(1, 3), fit_options=opts, seed=3)
    assert c.record(2).fit.bound == bf.fit(g, POISSON, 2, seed=3002, **opts).bound


def _three_block_graph(n, seed):
    truth = bf.grid_params(a=0.7, lam=3.0, gamma_ratio=0.3, q_star=3)
    g, _ = bf.sample_graph(truth, n, False, POISSON, seed=seed)
    return g


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_stopped_sweep_fits_what_a_full_sweep_fits(seed):
    """The fitted Q are a prefix of the range, each with the bound and ICL
    of its single-Q sweep bit for bit, and the choice is the argmax over
    single-Q sweeps of the whole range."""
    g = _three_block_graph(40, seed)
    opts = {"restarts": 1}
    q_range = range(1, 8)
    res = bf.select_q(g, POISSON, q_range, seed=seed, fit_options=opts)
    singles = [bf.select_q(g, POISSON, [q], seed=seed, fit_options=opts).records[0]
               for q in q_range]
    fitted = [rec.q for rec in res.records]
    assert res.skipped, "the sweep ran to the end of its range"
    assert fitted + res.skipped == list(q_range)
    for rec, single in zip(res.records, singles):
        assert rec.q == single.q
        assert rec.fit.bound == single.fit.bound
        assert rec.icl == single.icl
    assert res.chosen_q == _choose(singles).q
    assert res.stop_reason and f"Q={fitted[-1]}" in res.stop_reason


def _scripted_sweep(monkeypatch, icls):
    """select_q over Q = 1..len(icls) whose fit at Q has ICL icls[Q - 1];
    None marks a failed fit."""
    def fake_fit(graph, spec, q, cov, **kwargs):
        if icls[q - 1] is None:
            raise bf.NumericalError(f"no fit at Q={q}")
        return types.SimpleNamespace(q=q)

    monkeypatch.setattr(selection, "fit", fake_fit)
    monkeypatch.setattr(selection, "icl", lambda graph, spec, fr, cov, **kw: icls[fr.q - 1])
    # a real graph, because the sweep builds its one workspace from it
    g, _ = bf.sample_graph(MixtureParams(alpha=[1.0], theta=PoissonParams(lam=[[2.0]])), 8,
                           False, POISSON, seed=0)
    return selection.select_q(g, POISSON, range(1, len(icls) + 1), seed=0)


@pytest.mark.parametrize("icls, fitted, chosen", [
    ([-10.0, -12.0, -13.0, -9.0], 3, 1),               # two falls stop the sweep
    ([-10.0, -10.0, -10.0, -5.0], 3, 1),               # ties are misses
    ([-10.0, None, -11.0, -5.0], 3, 1),                # a failed fit is a miss
    ([-10.0, -11.0, -9.0, -10.0, -8.0], 5, 5),         # a new best resets the count
    ([None, None, None, -10.0, -11.0, -9.0], 6, 6),    # no miss before the first finite ICL
    ([None, -10.0, -11.0, -12.0, -1.0], 4, 2),
    ([-10.0, -5.0, -6.0], 3, 2),                       # the range ends at the first miss
    ([-10.0, -11.0, -12.0], 3, 1),                     # ... or at the second
], ids=["falls", "ties", "failure", "reset", "failures-first", "failure-then-falls",
        "ends-at-one-miss", "ends-at-two-misses"])
def test_the_sweep_stops_after_two_misses(monkeypatch, icls, fitted, chosen):
    res = _scripted_sweep(monkeypatch, icls)
    assert [rec.q for rec in res.records] == list(range(1, fitted + 1))
    assert res.skipped == list(range(fitted + 1, len(icls) + 1))
    assert res.chosen_q == chosen
    assert (res.stop_reason is None) == (fitted == len(icls))
    if res.skipped:
        assert res.stop_reason.endswith(f"Q={', '.join(map(str, res.skipped))} not fitted")


def test_a_selection_cell_chooses_as_with_full_sweeps(monkeypatch):
    config = bf.GridConfig(n=50, a=0.5, lam=2.0, gamma_ratio=0.5, q_star=3, s=10, seed=3)
    fits = []
    real = selection.fit

    def counted(*args, **kwargs):
        fits.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(selection, "fit", counted)
    opts = {"restarts": 1}
    stopped = bf.run_experiment(config, mode="selection", q_max=6, fit_options=opts)
    n_stopped = len(fits)
    monkeypatch.setattr(selection, "STOP_AFTER_MISSES", 7)  # never reached over Q = 1..6
    full = bf.run_experiment(config, mode="selection", q_max=6, fit_options=opts)
    assert len(fits) - n_stopped == 60 > n_stopped
    assert stopped.q_frequencies == full.q_frequencies
    assert stopped.replicates_done == full.replicates_done == 10
