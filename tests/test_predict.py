import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blockfit as bf
from blockfit import FamilySpec
from blockfit.engine import FitResult, MixtureParams, VariationalPosterior
from blockfit.families import GaussianParams, PoissonParams, PoissonRegParams
from blockfit.graph import CSR_MAX_DENSITY, EdgeColumns, EdgeCovariates, ValuedGraph, build_graph
from blockfit.predict import (
    _pair_r_squared,
    prediction_report,
    predict_degrees,
    predict_edges,
    r_squared,
)

POISSON = FamilySpec("poisson")
GAUSSIAN = FamilySpec("gaussian")
PRMH = FamilySpec("poisson-prmh")


def make_fit(params, tau, spec):
    tau = np.asarray(tau, dtype=float)
    return FitResult(params=params, posterior=VariationalPosterior(tau=tau),
                     bound_trajectory=[0.0], entropy=0.0,
                     map_assignment=np.argmax(tau, axis=1), converged=True,
                     iterations=1, spec=spec)


def test_single_class_prediction_is_block_rate():
    n = 6
    params = MixtureParams(alpha=np.array([1.0]), theta=PoissonParams(lam=np.array([[2.5]])))
    g, _ = bf.sample_graph(params, n, False, POISSON, seed=0)
    fr = make_fit(params, np.ones((n, 1)), POISSON)
    xhat = predict_edges(fr, g)
    off = ~np.eye(n, dtype=bool)
    assert xhat[off] == pytest.approx(np.full(n * (n - 1), 2.5))
    assert predict_degrees(fr, g) == pytest.approx(np.full(n, (n - 1) * 2.5))


def test_hard_tau_prediction_exact_block_constants():
    lam = np.array([[4.0, 1.0], [1.0, 2.0]])
    params = MixtureParams(alpha=np.array([0.5, 0.5]), theta=PoissonParams(lam=lam))
    z = np.array([0, 0, 1, 1, 1])
    tau = np.zeros((5, 2))
    tau[np.arange(5), z] = 1.0
    g, _ = bf.sample_graph(params, 5, False, POISSON, seed=1)
    fr = make_fit(params, tau, POISSON)
    xhat = predict_edges(fr, g)
    for i in range(5):
        for j in range(5):
            if i != j:
                assert xhat[i, j] == pytest.approx(lam[z[i], z[j]])


def test_prmh_prediction_covariate_factor():
    # beta = -0.317, lam = 1, y = 3.82 -> prediction ~ 0.298
    params = MixtureParams(alpha=np.array([1.0]),
                           theta=PoissonRegParams(lam=np.array([[1.0]]),
                                                  beta=np.array([-0.317]), shared=True))
    n = 3
    y = np.full((n, n, 1), 3.82)
    cov = EdgeCovariates.from_matrix(y, directed=False)
    vals = np.zeros((n, n))
    g = ValuedGraph.from_matrix(vals, directed=False, value_kind="count")
    fr = make_fit(params, np.ones((n, 1)), PRMH)
    xhat = predict_edges(fr, g, cov)
    assert xhat[0, 1] == pytest.approx(math.exp(-0.317 * 3.82), abs=1e-12)
    assert xhat[0, 1] == pytest.approx(0.298, abs=1e-3)


def test_degrees_are_row_sums_identity():
    rng = np.random.default_rng(2)
    lam = np.array([[3.0, 0.5], [0.5, 1.0]])
    params = MixtureParams(alpha=np.array([0.5, 0.5]), theta=PoissonParams(lam=lam))
    g, _ = bf.sample_graph(params, 12, False, POISSON, seed=3)
    tau = rng.dirichlet(np.ones(2), size=12)
    fr = make_fit(params, tau, POISSON)
    xhat = predict_edges(fr, g)
    assert predict_degrees(fr, g) == pytest.approx(xhat.sum(axis=1), abs=0)


def test_r_squared_examples():
    obs = [1.0, 2.0, 3.0]
    assert r_squared(obs, obs) == pytest.approx(1.0)
    assert r_squared(obs, [2.0, 2.0, 2.0]) == pytest.approx(0.0)
    # hand-checked: residuals (0, 1, 1), total 2
    assert r_squared([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        r_squared([1.0, 1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        r_squared([1.0], [1.0])


def test_prediction_report_consistency():
    lam = np.array([[5.0, 0.5], [0.5, 2.0]])
    params = MixtureParams(alpha=np.array([0.5, 0.5]), theta=PoissonParams(lam=lam))
    g, _ = bf.sample_graph(params, 30, False, POISSON, seed=4)
    fr = bf.fit(g, POISSON, 2, seed=0, restarts=3)
    rep = prediction_report(fr, g)
    assert rep.predicted_degrees == pytest.approx(rep.predicted_edges.sum(axis=1), abs=0)
    assert rep.observed_degrees == pytest.approx(g.weighted_degrees())
    assert rep.r2_degrees <= 1.0 and rep.r2_edges <= 1.0
    # training-data prediction with a decent fit should explain most of K
    assert rep.r2_degrees > 0.5


def _graph_values(draw, rng, kind, directed, sparse):
    """An (n, n) value matrix, symmetric when undirected; with ``sparse``, at
    most CSR_MAX_DENSITY of its entries are non-zero."""
    def draw_values(size):
        if kind == "count":
            return rng.poisson(2.0, size) if not sparse else rng.integers(1, 10, size)
        return rng.normal(size=size) if not sparse else rng.normal(size=size) + 5.0

    n = draw(st.integers(10, 40) if sparse else st.integers(2, 12))
    if sparse:
        iu, ju = np.nonzero(~np.eye(n, dtype=bool)) if directed else np.triu_indices(n, 1)
        budget = int(CSR_MAX_DENSITY * n * n) // (1 if directed else 2)
        pick = rng.choice(iu.size, draw(st.integers(0, budget)), replace=False)
        vals = np.zeros((n, n))
        vals[iu[pick], ju[pick]] = draw_values(pick.size)
    else:
        vals = draw_values((n, n)).astype(float)
    if not directed:
        vals = np.triu(vals, 1) + np.triu(vals, 1).T
    return vals


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_report_r2_edges_matches_the_gathered_pairs(data):
    draw = data.draw
    kind = draw(st.sampled_from(["count", "real"]))
    directed = draw(st.booleans())
    sparse = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    g = ValuedGraph.from_matrix(_graph_values(draw, rng, kind, directed, sparse), directed, kind)
    if sparse:
        assert g.sparse_values is not None
    dense = g
    if sparse and kind == "count" and draw(st.booleans()):
        # the same graph as build_graph keeps it: its CSR array alone
        iu, ju = np.nonzero(g.values if directed else np.triu(g.values))
        g = build_graph(g.n, directed, EdgeColumns(iu, ju, g.values[iu, ju]), kind, fill=0)
        assert vars(g)["_values"] is None
    n, Q = g.n, draw(st.integers(1, 3))
    block = rng.uniform(0.1, 6.0, (Q, Q))
    if not directed:
        block = (block + block.T) / 2
    if kind == "count":
        spec, params = POISSON, PoissonParams(lam=block)
    else:
        spec, params = GAUSSIAN, GaussianParams(mu=block - 3.0, sigma2=np.ones((Q, Q)))
    fr = make_fit(MixtureParams(alpha=np.full(Q, 1.0 / Q), theta=params),
                  rng.dirichlet(np.ones(Q), size=n), spec)

    xhat = predict_edges(fr, g)
    xobs = dense.values.copy()
    off = ~np.eye(n, dtype=bool)
    if not directed:
        off = np.triu(off)
    try:
        want = r_squared(xobs[off], xhat[off])
    except ValueError:
        with pytest.raises(ValueError):
            _pair_r_squared(g, xhat)
        with pytest.raises(ValueError):  # constant edges give constant degrees
            prediction_report(fr, g)
        return
    assert _pair_r_squared(g, xhat) == pytest.approx(want, rel=1e-9, abs=1e-12)
    kobs = xobs.sum(axis=1)
    if np.ptp(kobs) == 0:
        with pytest.raises(ValueError):  # r2_degrees
            prediction_report(fr, g)
        return
    rep = prediction_report(fr, g)
    assert dense is g or vars(g)["_values"] is None  # read from the CSR array
    assert rep.r2_edges == pytest.approx(want, rel=1e-9, abs=1e-12)
    assert rep.observed_degrees.tobytes() == kobs.tobytes()
    assert np.array_equal(rep.predicted_degrees, rep.predicted_edges.sum(axis=1))
    assert np.shares_memory(rep.observed_edges, g.values)
    assert not rep.observed_edges.flags.writeable


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("value", [0.0, 3.0])
def test_pair_r2_refuses_constant_edges(directed, value):
    n = 30
    g = ValuedGraph.from_matrix(np.full((n, n), value), directed)
    assert (g.sparse_values is not None) == (value == 0.0)
    xhat = np.full((n, n), 1.0)
    np.fill_diagonal(xhat, 0.0)
    with pytest.raises(ValueError, match="zero variance"):
        _pair_r_squared(g, xhat)


def test_pair_r2_keeps_precision_on_a_mostly_zero_graph():
    # about 1.5 % of the pairs are non-zero, so SS_tot is mostly ~5e5 equal
    # (0 - mean)^2 terms, and R^2 near 0.01 magnifies their rounding: a plain
    # dot product per row block is off by about 2e-12 here
    rng = np.random.default_rng(2)
    n = 1000
    iu = np.triu_indices(n, 1)
    x = np.where(rng.random(iu[0].size) < 0.015, rng.integers(1, 6, iu[0].size), 0)
    xh = 0.03 + 0.01 * x * rng.random(iu[0].size)
    X, Xhat = np.zeros((n, n)), np.zeros((n, n))
    X[iu], Xhat[iu] = x, xh
    g = ValuedGraph.from_matrix(X + X.T, False, "count")
    total, pairs = int(x.sum()), x.size
    ss_tot = Fraction(int((x * x).sum())) - Fraction(total * total, pairs)
    ss_res = math.fsum((x - xh) ** 2)
    want = 1.0 - ss_res / float(ss_tot)
    assert _pair_r_squared(g, Xhat + Xhat.T) == pytest.approx(want, rel=1e-13, abs=0)


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("kind", ["poisson-prmi", "linreg", "simplereg"])
def test_covariate_predictions_match_the_loop_over_blocks(kind, directed):
    """X_hat_ij = sum_ql tau_iq tau_jl E[X_ij | q, l], by loops, for the
    families whose block means depend on the covariates."""
    from blockfit.families import LinearRegressionParams, SimpleRegressionParams

    rng = np.random.default_rng(4)
    n, Q, p = 12, 3, 2 if kind != "simplereg" else 1
    y = rng.normal(0.0, 0.5, (n, n, p))
    if not directed:
        y = (y + y.transpose(1, 0, 2)) / 2
    cov = EdgeCovariates.from_matrix(y, directed)
    beta = rng.normal(0.0, 0.5, (Q, Q, p))
    if kind == "poisson-prmi":
        params = PoissonRegParams(lam=rng.uniform(0.5, 4.0, (Q, Q)), beta=beta, shared=False)

        def mean(q, l, i, j):
            return params.lam[q, l] * math.exp(params.beta[q, l] @ cov.y[i, j])
    elif kind == "linreg":
        params = LinearRegressionParams(beta=beta, sigma2=np.ones((Q, Q)))

        def mean(q, l, i, j):
            return params.beta[q, l] @ cov.y[i, j]
    else:
        params = SimpleRegressionParams(intercept=rng.normal(0.0, 1.0, (Q, Q)), slope=-0.7,
                                        sigma2=1.0)

        def mean(q, l, i, j):
            return params.intercept[q, l] + params.slope * cov.y[i, j, 0]
    spec = FamilySpec(kind, covariate_dim=p)
    g = ValuedGraph.from_matrix(np.zeros((n, n)), directed,
                                value_kind="count" if kind == "poisson-prmi" else "real")
    tau = rng.dirichlet(np.ones(Q), size=n)
    got = predict_edges(make_fit(MixtureParams(alpha=np.full(Q, 1 / Q), theta=params), tau, spec),
                        g, cov, spec=spec)
    want = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                want[i, j] = sum(tau[i, q] * tau[j, l] * mean(q, l, i, j)
                                 for q in range(Q) for l in range(Q))
    assert np.all(np.diag(got) == 0.0)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
