"""Score containers, the E-step line search and the Ward start against
direct evaluations.

The decomposed scores are checked against the (Q, Q, n, n) tensor of
scalar ``log_density`` values, which shares no code with the sum-of-products
path (see ``oracle_utils.DenseScores``); coefficients with rows of zeros,
such as PRMI's one-hot ones, against the tensor of the same decomposition;
the E-step's change in J against two ``lower_bound`` calls; the
Gram-matrix profile distances against ``pdist`` on the explicit n x 2n
profile matrix; the CSR statistics of sparse count graphs against the same
scores built on the dense array; the class-major softmax against the
row-wise one, and -sum log X! from a value histogram against gammaln.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.spatial.distance import pdist
from scipy.special import gammaln, xlogy

from blockfit import FamilySpec, ValuedGraph
from blockfit.engine import (
    TAU_EPS,
    MixtureParams,
    _bound_change,
    _normalize_rows,
    _profile_distances,
    _softmax_rows,
    complete_data_loglik,
    estep_fixed_point,
    fit,
    init_partition,
    lower_bound,
    mstep,
)
from blockfit.errors import NumericalError
from blockfit.families import (
    FAMILIES,
    FAMILY_KINDS,
    LOG_FACTORIAL_HIST_MAX,
    PROB_FLOOR,
    BernoulliParams,
    BivariateGaussianParams,
    DecomposedScores,
    GaussianParams,
    LinearRegressionParams,
    MultinomialParams,
    PoissonParams,
    PoissonRegParams,
    SimpleRegressionParams,
    _Family,
    _log_factorial_total,
    _StatFamily,
    expfam_mle,
    get_family,
    weighted_mle,
)
from blockfit.graph import CSR_MAX_DENSITY, EdgeCovariates
from blockfit.predict import prediction_report
from blockfit.selection import icl, icl_penalty, select_q
from blockfit.simulate import sample_graph

from oracle_utils import DenseScores

NUM_LABELS = 3
P = 2  # covariate dimension (simplereg: 1)


def _mirror(vals, directed, paired=False):
    """Copy the upper triangle onto the lower one (couples swapped)."""
    if directed:
        return vals
    upper = np.triu(np.ones(vals.shape[:2], dtype=bool), 1)
    if paired:
        return np.where(upper[:, :, None], vals, vals.transpose(1, 0, 2)[:, :, ::-1])
    if vals.ndim == 3:
        return np.where(upper[:, :, None], vals, vals.transpose(1, 0, 2))
    return np.where(upper, vals, vals.T)


def _profile(g):
    if g.value_kind == "paired":
        return np.hstack([g.values[:, :, 0], g.values[:, :, 1]])
    return np.hstack([g.values, g.values.T])


# ---------------------------------------------------------------------------
# Ward start from Gram products

INTEGER_KINDS = {
    "count": ("count", lambda rng, shape: rng.integers(0, 10 ** 6, shape)),
    "binary": ("count", lambda rng, shape: rng.integers(0, 2, shape)),
    "sparse-count": ("count", lambda rng, shape: (
        rng.integers(0, 10 ** 6, shape) * (rng.random(shape) < 0.03))),
    "label": ("label", lambda rng, shape: rng.integers(1, NUM_LABELS + 1, shape)),
    "paired-int": ("paired", lambda rng, shape: rng.integers(-50, 50, shape)),
}
REAL_KINDS = {
    "real": ("real", lambda rng, shape: rng.uniform(-1e3, 1e3, shape)),
    "paired-real": ("paired", lambda rng, shape: rng.normal(0.0, 10.0, shape)),
}


def _draw_graph(data, kinds):
    name = data.draw(st.sampled_from(sorted(kinds)))
    value_kind, sample = kinds[name]
    paired = value_kind == "paired"
    directed = not paired and data.draw(st.booleans())
    n = data.draw(st.integers(2, 9))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    vals = sample(rng, (n, n, 2) if paired else (n, n)).astype(float)
    vals = _mirror(vals, directed, paired)
    return ValuedGraph.from_matrix(vals, directed, value_kind=value_kind,
                                   num_labels=NUM_LABELS if value_kind == "label" else None)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_gram_distances_are_pdist_bit_for_bit_on_integer_values(data):
    g = _draw_graph(data, INTEGER_KINDS)
    profile = _profile(g)
    assert np.array_equal(_profile_distances(g), pdist(profile))
    Q = data.draw(st.integers(2, g.n))
    want = fcluster(linkage(profile, method="ward"), t=Q, criterion="maxclust") - 1
    got = np.argmax(init_partition(g, Q).tau, axis=1)
    assert np.array_equal(got, want)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_gram_distances_match_pdist_on_real_values(data):
    # cancellation in sq_i + sq_j - 2 G_ij is relative to the profile norms,
    # so the bound is on squared distances at that scale
    g = _draw_graph(data, REAL_KINDS)
    profile = _profile(g)
    sq = np.sum(profile * profile, axis=1)
    iu, ju = np.triu_indices(g.n, 1)
    got, want = _profile_distances(g), pdist(profile)
    assert np.all(np.abs(got ** 2 - want ** 2) <= 1e-12 * (sq[iu] + sq[ju]))


# ---------------------------------------------------------------------------
# Decomposed scores: mask and fixed parts


def _sym(a, directed):
    return a if directed else 0.5 * (a + np.swapaxes(a, 0, 1))


def _instance(kind, rng, n, Q, directed):
    """(graph, covariates, params) for one family with random parameters."""
    p = 1 if kind == "simplereg" else P
    shape = (n, n)
    value_kind = "count"
    if kind in ("poisson", "poisson-prmh", "poisson-prmi"):
        vals = rng.poisson(2.0, shape)
    elif kind == "bernoulli":
        vals = rng.integers(0, 2, shape)
    elif kind == "multinomial":
        vals, value_kind = rng.integers(1, NUM_LABELS + 1, shape), "label"
    elif kind == "bigauss":
        vals, value_kind = rng.normal(0.0, 1.5, (n, n, 2)), "paired"
    else:
        vals, value_kind = rng.normal(0.0, 1.5, shape), "real"
    vals = _mirror(vals.astype(float), directed, value_kind == "paired")
    g = ValuedGraph.from_matrix(vals, directed, value_kind=value_kind,
                                num_labels=NUM_LABELS if kind == "multinomial" else None)
    spec = FamilySpec(kind, num_labels=NUM_LABELS if kind == "multinomial" else None,
                      covariate_dim=p if kind in ("poisson-prmh", "poisson-prmi",
                                                  "linreg", "simplereg") else None)
    cov = None
    if spec.uses_covariates:
        cov = EdgeCovariates.from_matrix(_mirror(rng.normal(0.0, 1.0, (n, n, p)), directed),
                                         directed)

    rates = _sym(rng.gamma(2.0, 1.0, (Q, Q)), directed)
    params = {
        "poisson": lambda: PoissonParams(lam=rates),
        "poisson-prmh": lambda: PoissonRegParams(lam=rates, beta=rng.normal(0, 0.5, p)),
        "poisson-prmi": lambda: PoissonRegParams(
            lam=rates, beta=_sym(rng.normal(0, 0.5, (Q, Q, p)), directed), shared=False),
        "bernoulli": lambda: BernoulliParams(pi=_sym(rng.uniform(0.05, 0.95, (Q, Q)), directed)),
        "multinomial": lambda: MultinomialParams(
            probs=_sym(rng.dirichlet(np.ones(NUM_LABELS), (Q, Q)), directed)),
        "gaussian": lambda: GaussianParams(mu=_sym(rng.normal(0, 1, (Q, Q)), directed),
                                           sigma2=_sym(rng.uniform(0.5, 2, (Q, Q)), directed)),
        "bigauss": lambda: _bigauss_params(rng, Q),
        "linreg": lambda: LinearRegressionParams(
            beta=_sym(rng.normal(0, 1, (Q, Q, p)), directed),
            sigma2=_sym(rng.uniform(0.5, 2, (Q, Q)), directed)),
        "simplereg": lambda: SimpleRegressionParams(
            intercept=_sym(rng.normal(0, 1, (Q, Q)), directed),
            slope=float(rng.normal()), sigma2=float(rng.uniform(0.5, 2))),
    }[kind]()
    return g, cov, spec, params


def _bigauss_params(rng, Q):
    # undirected symmetry: block (l, q) sees the couple swapped
    mu = rng.normal(0, 1, (Q, Q, 2))
    mu = 0.5 * (mu + mu.transpose(1, 0, 2)[..., ::-1])
    A = rng.normal(0, 0.5, (Q, Q, 2, 2))
    cov = A @ np.swapaxes(A, -1, -2) + np.eye(2)
    cov = 0.5 * (cov + cov.transpose(1, 0, 2, 3)[..., ::-1, ::-1])
    return BivariateGaussianParams(mu=mu, cov=cov)


def _oracle_tensor(g, cov, spec, params):
    """L[q, l, i, j] = log f_ql(X_ij) from the scalar log-density, zero diagonal."""
    fam = get_family(spec)
    Q = params.Q
    L = np.zeros((Q, Q, g.n, g.n))
    for i in range(g.n):
        for j in range(g.n):
            if i == j:
                continue
            y = None if cov is None else cov.y[i, j]
            for q in range(Q):
                for l in range(Q):
                    L[q, l, i, j] = fam.log_density(params, q, l, g.values[i, j], y=y)
    return L


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(FAMILY_KINDS), directed=st.booleans(), n=st.integers(2, 6),
       Q=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_scores_match_the_scalar_log_density(kind, directed, n, Q, seed):
    directed = directed and kind != "bigauss"
    rng = np.random.default_rng(seed)
    g, cov, spec, params = _instance(kind, rng, n, Q, directed)
    ops = get_family(spec).scorer(g, cov)(params)
    L = _oracle_tensor(g, cov, spec, params)
    oracle = DenseScores(L, directed)
    tau = rng.dirichlet(np.ones(Q), size=n)
    half = 1.0 if directed else 0.5

    # J's edge term: decomposed, dense block tensor plus fixed, and the oracle
    scale = max(1.0, half * np.einsum("iq,qlij,jl->", tau, np.abs(L), tau))
    want = oracle.edge_term(tau)
    assert abs(ops.edge_term(tau) - want) <= 1e-9 * scale
    dense = half * np.einsum("iq,qlij,jl->", tau, ops.dense(), tau) + ops.fixed
    assert abs(dense - want) <= 1e-9 * scale

    # the E-step's proposal: node scores may differ from the oracle's by a
    # row constant (the fixed part) but not in their softmax
    log_alpha = np.log(rng.dirichlet(np.ones(Q)))
    got = _softmax_rows(log_alpha + ops.node_scores(tau))
    assert np.max(np.abs(got - _softmax_rows(log_alpha + oracle.node_scores(tau)))) <= 1e-12

    # the proposal is an ascent direction: grad J . (P - tau) >= 0
    D = ops.node_scores(tau)
    slope = (log_alpha + D - np.log(tau)) * (got - tau)
    assert slope.sum() >= -1e-12 * scale

    # the change in J the line search tests is the change in lower_bound
    cand = _normalize_rows(tau + rng.uniform(0.0, 1.0) * (got - tau))
    mix = MixtureParams(alpha=np.exp(log_alpha), theta=params)
    want = lower_bound(g, spec, cand, mix, cov) - lower_bound(g, spec, tau, mix, cov)
    change = _bound_change(cand - tau, log_alpha + D, log_alpha + ops.node_scores(cand),
                           xlogy(tau, tau), xlogy(cand, cand))
    assert abs(change - want) <= 1e-9 * scale


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(FAMILY_KINDS), directed=st.booleans(), n=st.integers(2, 8),
       Q=st.integers(2, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_estep_bound_never_decreases_with_more_sweeps(kind, directed, n, Q, seed):
    # the E-step is deterministic, so max_sweeps=k+1 continues the run of k
    directed = directed and kind != "bigauss"
    rng = np.random.default_rng(seed)
    g, cov, spec, params = _instance(kind, rng, n, Q, directed)
    mix = MixtureParams(alpha=rng.dirichlet(np.ones(Q)), theta=params)
    tau0 = rng.dirichlet(np.ones(Q), size=n)
    bounds = [lower_bound(g, spec, _normalize_rows(tau0), mix, cov)]
    for k in range(1, 9):
        post = estep_fixed_point(g, spec, mix, tau0, cov, max_sweeps=k)
        bounds.append(lower_bound(g, spec, post.tau, mix, cov))
    assert all(b >= a - 1e-12 * max(1.0, abs(a)) for a, b in zip(bounds, bounds[1:]))


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(FAMILY_KINDS), directed=st.booleans(), n=st.integers(3, 8),
       Q=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_mstep_does_not_lower_the_bound_and_freezes_empty_blocks(kind, directed, n, Q, seed):
    directed = directed and kind != "bigauss"
    # a Poisson regression on at most 1 + p pairs need have no finite MLE
    # (undirected n = 3); test_newton_without_a_finite_mle_raises pins one
    pairs = n * (n - 1) if directed else n * (n - 1) // 2
    assume(kind not in ("poisson-prmh", "poisson-prmi") or pairs > 1 + P)
    rng = np.random.default_rng(seed)
    g, cov, spec, params = _instance(kind, rng, n, Q, directed)
    mix = MixtureParams(alpha=rng.dirichlet(np.ones(Q)), theta=params)
    tau = rng.dirichlet(np.ones(Q), size=n)
    half = 1.0 if directed else 0.5
    scale = half * np.einsum("iq,qlij,jl->", tau, np.abs(_oracle_tensor(g, cov, spec, params)), tau)
    new = mstep(g, spec, tau, cov, prev=params)
    assert lower_bound(g, spec, tau, new, cov) >= lower_bound(g, spec, tau, mix, cov) - 1e-9 * scale

    # a tau whose last class is empty: every block of that class keeps prev
    if Q == 1:
        return
    empty = np.zeros((n, Q))
    empty[:, :-1] = rng.dirichlet(np.ones(Q - 1), size=n)
    theta = mstep(g, spec, empty, cov, prev=params).theta
    degen = theta.degenerate
    assert degen[-1].all() and degen[:, -1].all()
    for arr in FAMILIES[kind].params:
        if not arr.blockwise:
            continue
        assert np.array_equal(getattr(theta, arr.name)[degen], getattr(params, arr.name)[degen])


@pytest.mark.parametrize("kind, directed", [(k, d) for k in FAMILY_KINDS for d in (False, True)
                                             if not (d and k == "bigauss")])
def test_mstep_freezes_the_blockwise_arrays_of_an_empty_class(kind, directed):
    """With the last class empty, block-wise arrays keep prev's value on its
    blocks, shared arrays are estimated from the other blocks, and
    undirected block-wise arrays come out symmetric (bigauss: with the
    couple swapped across the block index)."""
    rng = np.random.default_rng(21)
    n, Q = 10, 3
    g, cov, spec, prev = _instance(kind, rng, n, Q, directed)
    tau = np.zeros((n, Q))
    tau[:, :-1] = rng.dirichlet(np.ones(Q - 1), size=n)
    fam = get_family(spec)
    theta = fam.weighted_mle(tau, g, cov, prev=prev)
    fresh = fam.weighted_mle(tau, g, cov)
    degen = theta.degenerate
    assert degen[-1].all() and degen[:, -1].all() and not degen[:-1, :-1].any()
    for arr in FAMILIES[kind].params:
        got, old, new = (getattr(t, arr.name) for t in (theta, prev, fresh))
        if arr.blockwise:
            assert np.array_equal(got[degen], old[degen])
            assert np.allclose(got[~degen], new[~degen], rtol=1e-6, atol=1e-9)
        else:
            assert not np.array_equal(got, old)
            assert np.allclose(got, new, rtol=1e-6, atol=1e-9)
        if arr.blockwise and not directed:
            swapped = np.swapaxes(got, 0, 1)
            if kind == "bigauss":
                swapped = swapped[..., ::-1] if arr.name == "mu" else swapped[..., ::-1, ::-1]
            assert np.array_equal(got, swapped)


def test_bigauss_statistics_are_built_once_per_graph():
    rng = np.random.default_rng(4)
    g, cov, spec, params = _instance("bigauss", rng, 5, 2, False)
    make = get_family(spec).scorer(g, cov)
    first, second = make(params), make(params)
    assert len(first.stats) == 5
    assert all(a is b for a, b in zip(first.stats, second.stats))


STAT_KINDS = [k for k in FAMILY_KINDS if issubclass(FAMILIES[k].family, _StatFamily)]


@pytest.mark.parametrize("kind", STAT_KINDS)
def test_a_fit_builds_its_statistics_once(kind, monkeypatch):
    """The scorer and every M-step of a fit, over all its restarts, read one
    statistics list."""
    rng = np.random.default_rng(7)
    g, cov, spec, _ = _instance(kind, rng, 12, 2, False)
    cls = FAMILIES[kind].family
    real = cls.statistics
    built = []

    def counted(self, graph, cov):
        built.append(real(self, graph, cov))
        return built[-1]

    monkeypatch.setattr(cls, "statistics", counted)
    fr = fit(g, spec, 2, cov, seed=0, restarts=2)
    assert len(built) == 1
    assert fr.iterations >= 1


@pytest.mark.parametrize("kind", STAT_KINDS)
def test_icl_builds_its_statistics_once(kind, monkeypatch):
    """ICL's hard-label M-step and likelihood share one statistics list,
    and give what each gives with its own."""
    rng = np.random.default_rng(7)
    g, cov, spec, _ = _instance(kind, rng, 12, 2, False)
    fr = fit(g, spec, 2, cov, seed=0, restarts=1)
    labels = fr.map_assignment
    hard = np.eye(2)[labels]
    refit = mstep(g, spec, hard, cov, prev=fr.params.theta)
    want = complete_data_loglik(g, spec, refit, labels, cov) - icl_penalty(spec, 2, 12, False)
    cls = FAMILIES[kind].family
    real = cls.statistics
    built = []

    def counted(self, graph, cov):
        built.append(real(self, graph, cov))
        return built[-1]

    monkeypatch.setattr(cls, "statistics", counted)
    assert icl(g, spec, fr, cov) == want
    assert len(built) == 1


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_each_call_checks_its_inputs_once(kind, monkeypatch):
    """A fit, over all its restarts and iterations, an ICL and a select_q
    sweep, over all its Q, check the graph and covariates once, when their
    workspace is built; a call handed that workspace checks nothing, and a
    call without one checks once."""
    rng = np.random.default_rng(7)
    g, cov, spec, _ = _instance(kind, rng, 12, 2, kind != "bigauss")
    real = _Family.check_graph
    checks = []

    def counted(self, graph, c):
        checks.append(kind)
        return real(self, graph, c)

    monkeypatch.setattr(_Family, "check_graph", counted)

    def count(call):
        checks.clear()
        call()
        return len(checks)

    fits = []
    assert count(lambda: fits.append(fit(g, spec, 2, cov, seed=0, restarts=3))) == 1
    fr = fits[0]
    tau, theta, labels = fr.posterior.tau, fr.params, fr.map_assignment
    assert count(lambda: icl(g, spec, fr, cov)) == 1
    workspace = get_family(spec).mstep_workspace(g, cov)
    assert count(lambda: fit(g, spec, 2, cov, seed=0, restarts=3, workspace=workspace)) == 0
    assert count(lambda: icl(g, spec, fr, cov, workspace=workspace)) == 0
    assert count(lambda: select_q(g, spec, range(1, 4), cov, seed=0,
                                  fit_options={"restarts": 2})) == 1
    assert count(lambda: mstep(g, spec, tau, cov)) == 1
    assert count(lambda: mstep(g, spec, tau, cov, workspace=workspace)) == 0
    assert count(lambda: weighted_mle(spec, tau, g, cov)) == 1
    assert count(lambda: weighted_mle(spec, tau, g, cov, workspace=workspace)) == 0
    assert count(lambda: lower_bound(g, spec, tau, theta, cov)) == 1
    assert count(lambda: estep_fixed_point(g, spec, theta, tau, cov)) == 1
    assert count(lambda: complete_data_loglik(g, spec, theta, labels, cov)) == 1
    assert count(lambda: complete_data_loglik(g, spec, theta, labels, cov,
                                              workspace=workspace)) == 0
    assert count(lambda: prediction_report(fr, g, cov)) == 1


# 16044 ... 19473 overflowed in the Newton Hessian; 58755 walked past
# REG_BETA_BOUND.  Each is an undirected n = 3 draw: 3 pairs for 1 + p = 3
# parameters.
@pytest.mark.parametrize("seed", [16044, 16085, 17671, 17736, 19473, 58755])
def test_newton_without_a_finite_mle_raises(seed):
    rng = np.random.default_rng(seed)
    g, cov, spec, params = _instance("poisson-prmh", rng, 3, 1, False)
    rng.dirichlet(np.ones(1))  # the M half-step test's alpha
    tau = rng.dirichlet(np.ones(1), size=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError):
            mstep(g, spec, tau, cov, prev=params)


# ---------------------------------------------------------------------------
# PRMI's per-block statistics and coefficients with rows of zeros


@settings(max_examples=60, deadline=None)
@given(directed=st.booleans(), csr=st.booleans(), n=st.integers(2, 12), Q=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_coefficients_with_zero_rows_match_the_tensor(directed, csr, n, Q, seed):
    """Rows (and columns) of zeros are skipped, not mis-scored."""
    rng = np.random.default_rng(seed)
    stats, coeffs = [], []
    for _ in range(3):
        S = np.where(rng.random((n, n)) < 0.3, rng.normal(size=(n, n)), 0.0)
        np.fill_diagonal(S, 0.0)
        stats.append(sparse.csr_array(S) if csr else S)
        C = rng.normal(size=(Q, Q))
        C[rng.random(Q) < 0.5] = 0.0
        C[:, rng.random(Q) < 0.5] = 0.0
        coeffs.append(C)
    ops = DecomposedScores(stats, coeffs, directed, mask=rng.normal(size=(Q, Q)), fixed=1.5)
    oracle = DenseScores(ops.dense(), directed)
    tau = rng.dirichlet(np.ones(Q), size=n)
    want = oracle.node_scores(tau)
    assert np.max(np.abs(ops.node_scores(tau) - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
    edge = oracle.edge_term(tau) + 1.5
    assert abs(ops.edge_term(tau) - edge) <= 1e-12 * max(1.0, abs(edge))


def _prmi_instance(n, Q, directed, seed=0):
    rng = np.random.default_rng(seed)
    y = _mirror(rng.normal(0.0, 1.0, (n, n, P)), directed)
    y[np.arange(n), np.arange(n)] = 0.0
    cov = EdgeCovariates.from_matrix(y, directed)
    spec = FamilySpec("poisson-prmi", covariate_dim=P)
    theta = PoissonRegParams(lam=_sym(rng.gamma(2.0, 1.0, (Q, Q)), directed),
                             beta=_sym(rng.normal(0, 0.4, (Q, Q, P)), directed), shared=False)
    mix = MixtureParams(alpha=np.full(Q, 1.0 / Q), theta=theta)
    g, _ = sample_graph(mix, n, directed, spec, seed=seed, cov=cov)
    return g, cov, spec, theta


@pytest.mark.parametrize("directed", [False, True])
def test_prmi_scores_one_statistic_per_block(directed):
    g, cov, spec, theta = _prmi_instance(7, 3, directed)
    ops = get_family(spec).scorer(g, cov)(theta)
    blocks = [(q, l) for q in range(3) for l in range(3) if directed or q <= l]
    assert len(ops.stats) == len(ops.coeffs) == len(blocks)
    for (q, l), S, C in zip(blocks, ops.stats, ops.coeffs):
        one_hot = np.zeros((3, 3))
        one_hot[q, l] = 1.0
        if not directed:
            one_hot[l, q] = 1.0
        assert np.array_equal(C, one_hot)
        assert S.shape == (7, 7) and np.all(np.diag(S) == 0.0)
    assert ops.mask is None and ops.fixed == _log_factorial_total(g)


@pytest.mark.parametrize("directed", [False, True])
def test_a_prmi_fit_holds_no_block_tensor(directed):
    """n = 300, Q = 5: the (Q, Q, n, n) tensor alone takes 17 MiB, and a
    fit that held it peaked at 41 MiB; with one statistic per block the
    peak is 16 MiB undirected and 23 MiB directed."""
    g, cov, spec, _ = _prmi_instance(300, 5, directed)
    tracemalloc.start()
    try:
        fr = fit(g, spec, 5, cov, seed=0, restarts=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fr.iterations >= 1
    assert peak < 30 * 2 ** 20


# ---------------------------------------------------------------------------
# CSR statistics of sparse count graphs


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["poisson", "bernoulli"]), directed=st.booleans(),
       n=st.integers(10, 40), Q=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_csr_statistics_agree_with_the_dense_array(kind, directed, n, Q, seed):
    rng = np.random.default_rng(seed)
    _, _, spec, params = _instance(kind, rng, n, Q, directed)
    # at most CSR_MAX_DENSITY * n^2 non-zero entries, counting both mirrors
    off = np.flatnonzero(~np.eye(n, dtype=bool) & (directed | np.triu(np.ones((n, n), bool))))
    nnz = rng.integers(0, int(CSR_MAX_DENSITY * n * n) // (1 if directed else 2) + 1)
    vals = np.zeros(n * n)
    vals[rng.choice(off, nnz, replace=False)] = (
        rng.integers(1, 8, nnz) if kind == "poisson" else 1.0)
    X = _mirror(vals.reshape(n, n), directed)
    g = ValuedGraph.from_matrix(X, directed)
    assert isinstance(g.sparse_values, sparse.csr_array)

    # the Ward start takes the CSR Gram product, bit for bit
    assert np.array_equal(_profile_distances(g), pdist(_profile(g)))

    fam = get_family(spec)
    ops = fam.scorer(g, None)(params)
    assert sparse.issparse(ops.stats[0])
    log_fact = -gammaln(X + 1.0).sum() * (1.0 if directed else 0.5)
    ref = DecomposedScores([X], ops.coeffs, directed, mask=ops.mask, fixed=log_fact)
    tau = rng.dirichlet(np.ones(Q), size=n)

    D, want = ops.node_scores(tau), ref.node_scores(tau)
    assert isinstance(D, np.ndarray)
    assert np.max(np.abs(D - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))
    edge = ref.edge_term(tau)
    assert abs(ops.edge_term(tau) - edge) <= 1e-9 * max(1.0, abs(edge))
    mix = MixtureParams(alpha=rng.dirichlet(np.ones(Q)), theta=params)
    J = -xlogy(tau, tau).sum() + tau.sum(axis=0) @ np.log(mix.alpha) + edge
    assert abs(lower_bound(g, spec, tau, mix) - J) <= 1e-9 * max(1.0, abs(J))
    assert np.array_equal(ops.dense(), ref.dense())

    # the M-step's block means against the dense weighted sums
    got = getattr(fam.weighted_mle(tau, g, None), FAMILIES[kind].params[0].name)
    mean = expfam_mle(lambda x: x, lambda t: t, lambda m: m, tau, g)
    if kind == "bernoulli":
        mean = np.clip(mean, PROB_FLOOR, 1.0 - PROB_FLOOR)
    assert np.max(np.abs(got - mean)) <= 1e-9 * max(1e-300, np.max(np.abs(mean)))


# ---------------------------------------------------------------------------
# Class-major softmax and -sum log X! from a histogram


def _row_softmax(scores):
    """The row-wise softmax, clipped and renormalized, as a reference."""
    e = scores - scores.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    np.maximum(e, TAU_EPS, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


@pytest.mark.parametrize("Q", [*range(1, 9), 9, 23, 130, 300])
def test_softmax_rows_is_the_row_wise_softmax_bit_for_bit(Q):
    # Q = 1: the transpose of an (n, 1) array is contiguous, so a softmax
    # that did not copy would overwrite its argument; Q > 8 takes numpy's
    # pairwise row-sum order, beyond 128 its halving
    rng = np.random.default_rng(Q)
    for n in (1, 2, 60, 1000):
        scores = rng.uniform(-1e3, 1e3, (n, Q)) * rng.uniform(0.0, 1.0, (n, 1))
        want = _row_softmax(scores.copy())
        # node_scores hands the softmax the transpose of a class-major array
        for arg in (scores.copy(), np.array(scores.T, order="C").T):
            before = arg.copy()
            got = _softmax_rows(arg)
            assert got.shape == (n, Q)
            assert np.array_equal(got, want)
            assert np.array_equal(arg, before)


@settings(max_examples=150, deadline=None)
@given(directed=st.booleans(), n=st.integers(2, 30),
       density=st.sampled_from([0.0, 0.03, 0.5, 1.0]),
       top=st.sampled_from([1, 9, LOG_FACTORIAL_HIST_MAX, LOG_FACTORIAL_HIST_MAX + 1, 10 ** 6]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_log_factorial_total_is_the_gammaln_sum(directed, n, density, top, seed):
    # low densities give the CSR view (at most CSR_MAX_DENSITY non-zero),
    # high ones the dense array; top above the cap takes the gammaln path
    rng = np.random.default_rng(seed)
    vals = np.where(rng.random((n, n)) < density, rng.integers(0, top + 1, (n, n)), 0)
    if density > 0:
        vals[0, 1] = top
    X = _mirror(vals.astype(float), directed)
    g = ValuedGraph.from_matrix(X, directed)
    pairs = ~np.eye(n, dtype=bool) if directed else np.triu(np.ones((n, n), bool), 1)
    want = -gammaln(X[pairs] + 1.0).sum()
    got = _log_factorial_total(g)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
    if density == 0.0:
        assert got == 0.0

    # PRMH folds it into fixed with the pair sum of X * (Y . beta)
    spec = FamilySpec("poisson-prmh", covariate_dim=P)
    cov = EdgeCovariates.from_matrix(_mirror(rng.normal(0.0, 1.0, (n, n, P)), directed), directed)
    beta = rng.normal(0.0, 0.5, P)
    ops = get_family(spec).scorer(g, cov)(PoissonRegParams(lam=np.ones((1, 1)), beta=beta))
    fixed = want + (X * (cov.y @ beta))[pairs].sum()
    assert abs(ops.fixed - fixed) <= 1e-12 * max(1.0, abs(want), abs(fixed))
