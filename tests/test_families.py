import math

import numpy as np
import pytest
from scipy.special import expit, gammaln, logit

import blockfit as bf
from blockfit import FamilyError, FamilySpec, SingularBlockError
from blockfit.engine import MixtureParams
from blockfit.families import (
    BernoulliParams,
    GaussianParams,
    PoissonParams,
    PoissonRegParams,
    get_family,
)
from blockfit.graph import EdgeCovariates, ValuedGraph

import oracle_utils as ou

POISSON = FamilySpec("poisson")
PRMH = FamilySpec("poisson-prmh")
PRMI = FamilySpec("poisson-prmi")


def diag_graph(values, directed=True, kind="count", num_labels=None):
    return ValuedGraph.from_matrix(np.asarray(values, dtype=float), directed,
                                   value_kind=kind, num_labels=num_labels)


def hard_tau(labels, Q):
    labels = np.asarray(labels)
    tau = np.zeros((labels.size, Q))
    tau[np.arange(labels.size), labels] = 1.0
    return tau


def rand_graph(rng, n, directed=True, max_count=6):
    vals = rng.integers(0, max_count, (n, n)).astype(float)
    if not directed:
        vals = np.triu(vals, 1)
        vals = vals + vals.T
    return diag_graph(vals, directed)


def rand_cov(rng, n, p, directed=True):
    y = rng.normal(0, 1, (n, n, p))
    if not directed:
        y = (y + y.transpose(1, 0, 2)) / 2
    return EdgeCovariates.from_matrix(y, directed)


# ---------------------------------------------------------------------------
# log_density examples


def test_poisson_log_density_examples():
    params = PoissonParams(lam=np.array([[1.0]]))
    assert bf.log_density(POISSON, params, 0, 0, 0) == pytest.approx(-1.0)
    params2 = PoissonParams(lam=np.array([[2.0]]))
    assert bf.log_density(POISSON, params2, 0, 0, 2) == pytest.approx(math.log(2) - 2)


def test_bernoulli_log_density_example():
    params = BernoulliParams(pi=np.array([[0.5]]))
    assert bf.log_density(FamilySpec("bernoulli"), params, 0, 0, 1) == pytest.approx(math.log(0.5))


def test_prmh_log_density_covariate_effect():
    # rate lam * exp(beta y); at x=0 the log-density is minus the rate
    params = PoissonRegParams(lam=np.array([[1.0]]), beta=np.array([-0.317]), shared=True)
    got = bf.log_density(PRMH, params, 0, 0, 0, y=[3.82])
    assert got == pytest.approx(-math.exp(-0.317 * 3.82), abs=1e-12)
    assert got == pytest.approx(-0.298, abs=1e-3)  # ~70% reduction at the mean


def test_log_density_errors():
    with pytest.raises(FamilyError):
        bf.log_density(POISSON, PoissonParams(lam=np.array([[-1.0]])), 0, 0, 0)
    with pytest.raises(FamilyError):
        bf.log_density(FamilySpec("bernoulli"), BernoulliParams(pi=np.array([[1.5]])), 0, 0, 1)
    with pytest.raises(FamilyError):
        bf.log_density(PRMH, PoissonRegParams(lam=np.array([[1.0]]),
                                              beta=np.array([0.0])), 0, 0, 1)
    with pytest.raises(FamilyError):
        bf.log_density(FamilySpec("gaussian"),
                       GaussianParams(mu=np.array([[0.0]]), sigma2=np.array([[0.0]])), 0, 0, 1)


def test_zero_rate_surrogate_is_large_negative():
    params = PoissonParams(lam=np.array([[0.0]]))
    assert bf.log_density(POISSON, params, 0, 0, 0) == 0.0
    assert bf.log_density(POISSON, params, 0, 0, 1) <= -1e12


# ---------------------------------------------------------------------------
# weighted_mle closed forms


def test_poisson_mle_hard_weights():
    # hard weights selecting edges with values {2, 4}
    g = diag_graph([[0, 2, 0], [4, 0, 0], [0, 0, 0]])
    tau = hard_tau([0, 0, 1], 2)
    params = bf.weighted_mle(POISSON, tau, g)
    assert params.lam[0, 0] == pytest.approx(3.0)


def test_poisson_mle_between_block():
    # between-block values {0, 0, 6} under a hard assignment
    vals = np.zeros((4, 4))
    vals[0, 3] = vals[3, 0] = 6.0  # pairs (0,1), (0,2), (0,3) cross the blocks
    g = diag_graph(vals, directed=False)
    tau = hard_tau([0, 1, 1, 1], 2)
    params = bf.weighted_mle(POISSON, tau, g)
    assert params.lam[0, 1] == pytest.approx(2.0)
    assert params.lam[1, 0] == pytest.approx(2.0)


def test_gaussian_mle_hard_weights():
    g = diag_graph([[0, 1, 0], [3, 0, 0], [0, 0, 0]], kind="real")
    tau = hard_tau([0, 0, 1], 2)
    params = bf.weighted_mle(FamilySpec("gaussian"), tau, g)
    assert params.mu[0, 0] == pytest.approx(2.0)
    assert params.sigma2[0, 0] == pytest.approx(1.0)


def test_bernoulli_mle_uniform_weights():
    vals = np.zeros((4, 4))
    vals[0, 1] = vals[1, 0] = 1
    vals[2, 3] = vals[3, 2] = 1
    g = diag_graph(vals, directed=True)
    tau = np.full((4, 1), 1.0)
    params = bf.weighted_mle(FamilySpec("bernoulli"), tau, g)
    # 4 ones among 12 ordered pairs
    assert params.pi[0, 0] == pytest.approx(4 / 12)
    # all weights equal on the subgraph {1,1,0,0}
    g2 = diag_graph([[0, 1], [1, 0]])
    tau2 = np.full((2, 1), 1.0)
    assert bf.weighted_mle(FamilySpec("bernoulli"), tau2, g2).pi[0, 0] == pytest.approx(1.0)


def test_simple_regression_two_blocks_common_slope():
    # Perfectly linear data X = a_z + 2 y with block intercepts a: the
    # two-block weighted least-squares system is solved exactly by
    # b = 2, a_ql = block intercepts (zero residuals at the optimum).
    rng = np.random.default_rng(5)
    n = 6
    labels = np.array([0, 0, 0, 1, 1, 1])
    intercepts = np.array([[1.0, 3.0], [3.0, 5.0]])
    y = rng.normal(0, 1, (n, n))
    y = (y + y.T) / 2
    np.fill_diagonal(y, 0.0)
    x = intercepts[labels[:, None], labels[None, :]] + 2.0 * y
    np.fill_diagonal(x, 0.0)
    g = diag_graph(x, directed=False, kind="real")
    cov = EdgeCovariates.from_matrix(y, directed=False)
    tau = hard_tau(labels, 2)
    params = bf.weighted_mle(FamilySpec("simplereg"), tau, g, cov)
    assert params.slope == pytest.approx(2.0, abs=1e-10)
    assert params.intercept == pytest.approx(intercepts, abs=1e-9)
    assert params.sigma2 <= 1e-10


def test_simple_regression_empty_blocks_without_prev_take_the_pooled_intercept():
    # without prev, a degenerate block's intercept is the estimate from all
    # blocks pooled: the one-class fit, whose tau sums the classes
    rng = np.random.default_rng(15)
    n = 8
    g = diag_graph(2.0 + rng.normal(0, 1, (n, n)), kind="real")
    cov = rand_cov(rng, n, 1)
    tau = np.zeros((n, 3))
    tau[:, :2] = ou.random_tau(rng, n, 2)  # class 3 is empty
    spec = FamilySpec("simplereg")
    params = bf.weighted_mle(spec, tau, g, cov)
    pooled = bf.weighted_mle(spec, np.ones((n, 1)), g, cov).intercept[0, 0]
    degen = params.degenerate
    assert degen[2].all() and degen[:, 2].all() and not degen[:2, :2].any()
    assert abs(pooled) > 1.0
    assert params.intercept[degen] == pytest.approx(np.full(degen.sum(), pooled), rel=1e-9)


def test_poisson_pm_mle_uniform_tau_and_loops():
    rng = np.random.default_rng(1)
    g = rand_graph(rng, 4)
    # uniform tau: every block estimate equals the global off-diagonal mean
    tau = np.full((4, 3), 1 / 3)
    lam = bf.poisson_pm_mle(tau, g)
    mean = g.values[~np.eye(4, dtype=bool)].mean()
    assert lam == pytest.approx(np.full((3, 3), mean))
    # random tau vs direct evaluation of the quotient
    tau = ou.random_tau(rng, 4, 3)
    lam = bf.poisson_pm_mle(tau, g)
    for q in range(3):
        for l in range(3):
            assert lam[q, l] == pytest.approx(ou.loop_weighted_mean(tau, g.values, q, l))


def test_weighted_mle_direct_formula_agreement_all_families():
    """Random weights against independently coded Table-style formulas."""
    rng = np.random.default_rng(2)
    n, Q = 6, 2
    tau = ou.random_tau(rng, n, Q)

    g = rand_graph(rng, n)
    lam = bf.weighted_mle(POISSON, tau, g).lam
    bern_vals = (rng.random((n, n)) < 0.4).astype(float)
    np.fill_diagonal(bern_vals, 0)
    gb = diag_graph(bern_vals)
    pi = bf.weighted_mle(FamilySpec("bernoulli"), tau, gb).pi
    gr = diag_graph(rng.normal(0, 2, (n, n)), kind="real")
    gau = bf.weighted_mle(FamilySpec("gaussian"), tau, gr)
    for q in range(Q):
        for l in range(Q):
            assert lam[q, l] == pytest.approx(ou.loop_weighted_mean(tau, g.values, q, l), abs=1e-10)
            assert pi[q, l] == pytest.approx(ou.loop_weighted_mean(tau, bern_vals, q, l), abs=1e-10)
            mu = ou.loop_weighted_mean(tau, gr.values, q, l)
            assert gau.mu[q, l] == pytest.approx(mu, abs=1e-10)
            assert gau.sigma2[q, l] == pytest.approx(
                ou.loop_weighted_moment(tau, gr.values, q, l, mu), abs=1e-10)

    labels_vals = rng.integers(1, 4, (n, n)).astype(float)
    np.fill_diagonal(labels_vals, 0)
    gl = diag_graph(labels_vals, kind="label", num_labels=3)
    probs = bf.weighted_mle(FamilySpec("multinomial", num_labels=3), tau, gl).probs
    for q in range(Q):
        for l in range(Q):
            for k in range(1, 4):
                ind = (labels_vals == k).astype(float)
                assert probs[q, l, k - 1] == pytest.approx(
                    ou.loop_weighted_mean(tau, ind, q, l), abs=1e-10)


def test_weighted_mle_scale_invariance():
    rng = np.random.default_rng(3)
    g = rand_graph(rng, 5)
    tau = ou.random_tau(rng, 5, 2)
    a = bf.weighted_mle(POISSON, tau, g).lam
    b = bf.weighted_mle(POISSON, tau * 1.0, g).lam  # library takes tau, weights are
    assert a == pytest.approx(b)                     # products, so scaling tau by c
    c = bf.poisson_pm_mle(0.35 * tau, g)             # scales every weight by c^2
    assert c == pytest.approx(a, rel=1e-12)


def test_one_hot_weights_match_subsample_mle():
    rng = np.random.default_rng(4)
    n = 8
    labels = np.array([0, 0, 0, 1, 1, 1, 0, 1])  # both blocks have >= 2 nodes
    g = rand_graph(rng, n, directed=False)
    tau = hard_tau(labels, 2)
    lam = bf.weighted_mle(POISSON, tau, g).lam
    for q in range(2):
        for l in range(2):
            sub = [g.values[i, j] for i in range(n) for j in range(n)
                   if i != j and labels[i] == q and labels[j] == l]
            assert lam[q, l] == pytest.approx(np.mean(sub))


def test_undirected_symmetric_estimates():
    rng = np.random.default_rng(6)
    for spec, kind in [(POISSON, "count"), (FamilySpec("gaussian"), "real")]:
        vals = rng.integers(0, 5, (6, 6)).astype(float)
        vals = np.triu(vals, 1)
        vals = vals + vals.T
        g = diag_graph(vals, directed=False, kind=kind)
        tau = ou.random_tau(rng, 6, 3)
        params = bf.weighted_mle(spec, tau, g)
        block = params.lam if spec.kind == "poisson" else params.mu
        assert np.array_equal(block, block.T)


def test_degenerate_block_frozen():
    g = diag_graph([[0, 2], [4, 0]])
    tau = np.array([[1.0, 0.0], [1.0, 0.0]])  # class 2 empty
    prev = PoissonParams(lam=np.array([[9.0, 7.0], [6.0, 5.0]]))
    params = bf.weighted_mle(POISSON, tau, g, prev=prev)
    assert params.lam[0, 0] == pytest.approx(3.0)
    assert params.degenerate[1, 1]
    assert params.lam[1, 1] == pytest.approx(5.0)  # frozen at previous value


def test_bivariate_gaussian_moments():
    rng = np.random.default_rng(7)
    n = 8
    raw = rng.normal(0, 1, (n, n, 2))
    vals = np.zeros_like(raw)
    for i in range(n):
        for j in range(i + 1, n):
            vals[i, j] = raw[i, j]
            vals[j, i] = raw[i, j, ::-1]
    g = ValuedGraph.from_matrix(vals, directed=False, value_kind="paired")
    tau = ou.random_tau(rng, n, 2)
    params = bf.weighted_mle(FamilySpec("bigauss"), tau, g)
    x1, x2 = vals[:, :, 0], vals[:, :, 1]
    for q in range(2):
        for l in range(2):
            m1 = ou.loop_weighted_mean(tau, x1, q, l)
            m2 = ou.loop_weighted_mean(tau, x2, q, l)
            # block symmetrization averages the (q,l) and swapped (l,q) sums,
            # which are identical by construction of the paired storage
            assert params.mu[q, l, 0] == pytest.approx(m1, abs=1e-10)
            assert params.mu[q, l, 1] == pytest.approx(m2, abs=1e-10)
            e12 = ou.loop_weighted_mean(tau, x1 * x2, q, l)
            assert params.cov[q, l, 0, 1] == pytest.approx(e12 - m1 * m2, abs=1e-10)
    # swap symmetry across the block index
    assert params.mu[0, 1] == pytest.approx(params.mu[1, 0][::-1])


def test_linear_regression_weighted_ls():
    rng = np.random.default_rng(8)
    n, p = 7, 2
    g = diag_graph(rng.normal(0, 1, (n, n)), kind="real")
    cov = rand_cov(rng, n, p)
    tau = ou.random_tau(rng, n, 2)
    params = bf.weighted_mle(FamilySpec("linreg", covariate_dim=p), tau, g, cov)
    # normal equations per block, assembled with loops
    for q in range(2):
        for l in range(2):
            G = np.zeros((p, p))
            r = np.zeros(p)
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    w = tau[i, q] * tau[j, l]
                    G += w * np.outer(cov.y[i, j], cov.y[i, j])
                    r += w * cov.y[i, j] * g.values[i, j]
            beta = np.linalg.solve(G, r)
            assert params.beta[q, l] == pytest.approx(beta, abs=1e-10)


def test_linear_regression_singular_design():
    n = 5
    g = diag_graph(np.ones((n, n)) - np.eye(n), kind="real")
    y = np.zeros((n, n, 2))
    y[:, :, 0] = 1.0
    y[:, :, 1] = 2.0  # perfectly collinear columns
    cov = EdgeCovariates.from_matrix(y, directed=True)
    tau = np.ones((n, 1))
    with pytest.raises(SingularBlockError):
        bf.weighted_mle(FamilySpec("linreg", covariate_dim=2), tau, g, cov)


# ---------------------------------------------------------------------------
# Poisson regression


def test_poisson_regression_inert_covariate():
    rng = np.random.default_rng(9)
    g = rand_graph(rng, 6)
    y = np.zeros((6, 6, 1))
    cov = EdgeCovariates.from_matrix(y, directed=True)
    tau = ou.random_tau(rng, 6, 2)
    lam, beta = bf.poisson_regression_mle(tau, g, cov, mode="homogeneous")
    assert beta == pytest.approx(np.zeros(1))
    assert lam == pytest.approx(bf.poisson_pm_mle(tau, g))
    lam_i, beta_i = bf.poisson_regression_mle(tau, g, cov, mode="inhomogeneous")
    assert beta_i == pytest.approx(np.zeros((2, 2, 1)))
    assert lam_i == pytest.approx(bf.poisson_pm_mle(tau, g))


def test_poisson_regression_grid_search_oracle():
    # single block, one binary covariate: compare against an iteratively
    # refined grid search over the same likelihood
    rng = np.random.default_rng(10)
    n = 12
    t = rng.integers(0, 2, n)
    y = np.abs(t[:, None] - t[None, :]).astype(float)[:, :, None]
    rate = 2.0 * np.exp(0.8 * y[:, :, 0])
    x = rng.poisson(rate).astype(float)
    np.fill_diagonal(x, 0)
    g = diag_graph(x, directed=True)
    cov = EdgeCovariates.from_matrix(y, directed=True)
    tau = np.ones((n, 1))
    lam, beta = bf.poisson_regression_mle(tau, g, cov, mode="homogeneous")
    lam_grid, beta_grid = ou.grid_search_poisson_reg(
        x, y, lam_range=(0.5, 8.0), beta_range=(-2.0, 2.0), refinements=5, size=61)
    assert lam[0, 0] == pytest.approx(lam_grid, abs=1e-3)
    assert beta[0] == pytest.approx(beta_grid, abs=1e-3)


def test_poisson_regression_gradient_and_monotonicity():
    rng = np.random.default_rng(11)
    n, p = 9, 1
    t = rng.uniform(0, 2, n)
    y = np.abs(t[:, None] - t[None, :])[:, :, None]
    cov = EdgeCovariates.from_matrix(y.copy(), directed=True)
    rate = 1.5 * np.exp(-0.4 * y[:, :, 0])
    x = rng.poisson(rate).astype(float)
    np.fill_diagonal(x, 0)
    g = diag_graph(x, directed=True)
    tau = ou.random_tau(rng, n, 2)

    for mode, shared in [("homogeneous", True), ("inhomogeneous", False)]:
        warm_lam = np.full((2, 2), x[x > 0].mean() if np.any(x > 0) else 1.0)
        warm_beta = np.zeros(p) if shared else np.zeros((2, 2, p))
        lam, beta = bf.poisson_regression_mle(tau, g, cov, mode=mode,
                                              warm_start=(warm_lam, warm_beta))
        g_loglam, g_beta = ou.loop_poisson_reg_grad(tau, x, cov.y, lam, beta, shared)
        assert np.max(np.abs(g_loglam)) < 1e-6
        assert np.max(np.abs(g_beta)) < 1e-6
        ll_fit = ou.loop_poisson_reg_loglik(tau, x, cov.y, lam, beta, shared)
        ll_warm = ou.loop_poisson_reg_loglik(tau, x, cov.y, warm_lam, warm_beta, shared)
        assert ll_fit >= ll_warm - 1e-8


@pytest.mark.parametrize("mode", ["homogeneous", "inhomogeneous"])
def test_poisson_regression_mle_refuses_what_weighted_mle_refuses(mode):
    rng = np.random.default_rng(16)
    tau = hard_tau(np.arange(12) % 2, 2)
    y = rng.normal(size=(12, 12, 1))
    y[np.arange(12), np.arange(12)] = 0.0
    g = rand_graph(rng, 12, directed=False)
    with pytest.raises(FamilyError, match="symmetric covariates"):
        bf.poisson_regression_mle(tau, g, EdgeCovariates(p=1, y=y), mode=mode)
    real = diag_graph(rng.normal(size=(12, 12)), kind="real")
    with pytest.raises(FamilyError, match="expects count values"):
        bf.poisson_regression_mle(tau, real, EdgeCovariates.from_matrix(y, True), mode=mode)


def test_prmh_homogeneous_recovers_shared_effect():
    rng = np.random.default_rng(12)
    n = 60
    t = rng.integers(0, 3, n)
    y = np.abs(t[:, None] - t[None, :]).astype(float)
    y = (y + y.T) / 2
    cov = EdgeCovariates.from_matrix(y.copy()[:, :, None], directed=False)
    z = rng.integers(0, 2, n)
    lam_true = np.array([[4.0, 1.0], [1.0, 2.5]])
    rate = lam_true[z[:, None], z[None, :]] * np.exp(-0.5 * y)
    x = rng.poisson(np.triu(rate, 1))
    x = (x + x.T).astype(float)
    g = diag_graph(x, directed=False)
    tau = hard_tau(z, 2)
    lam, beta = bf.poisson_regression_mle(tau, g, cov, mode="homogeneous")
    assert beta[0] == pytest.approx(-0.5, abs=0.1)
    assert lam == pytest.approx(lam_true, rel=0.35)


# ---------------------------------------------------------------------------
# exponential-family generic path


def test_expfam_poisson_consistency():
    rng = np.random.default_rng(13)
    g = rand_graph(rng, 6)
    tau = ou.random_tau(rng, 6, 2)
    theta = bf.expfam_mle(lambda x: x, np.exp, np.log, tau, g)
    assert np.exp(theta) == pytest.approx(bf.poisson_pm_mle(tau, g), abs=1e-10)


def test_expfam_bernoulli_consistency():
    rng = np.random.default_rng(14)
    vals = (rng.random((6, 6)) < 0.5).astype(float)
    np.fill_diagonal(vals, 0)
    g = diag_graph(vals)
    tau = ou.random_tau(rng, 6, 2)
    theta = bf.expfam_mle(lambda x: x, expit, logit, tau, g)
    pi = bf.weighted_mle(FamilySpec("bernoulli"), tau, g).pi
    assert expit(theta) == pytest.approx(pi, abs=1e-10)


def test_expfam_out_of_range():
    g = diag_graph(np.zeros((3, 3)))  # all-zero Poisson block
    tau = np.ones((3, 1))
    with pytest.raises(FamilyError):
        bf.expfam_mle(lambda x: x, np.exp, np.log, tau, g)


# ---------------------------------------------------------------------------
# parameter counts


def test_param_count_examples():
    assert bf.param_count(POISSON, 3, directed=False) == 6
    assert bf.param_count(PRMH, 4, directed=False) == 11
    assert bf.param_count(FamilySpec("bernoulli"), 3, directed=True) == 9


def test_param_count_printed_families():
    for Q in range(1, 11):
        blocks_u = Q * (Q + 1) // 2
        assert bf.param_count(POISSON, Q, directed=False) == blocks_u
        assert bf.param_count(PRMI, Q, directed=False) == Q * (Q + 1)
        assert bf.param_count(PRMH, Q, directed=False) == 1 + blocks_u
    assert bf.param_count(FamilySpec("multinomial", num_labels=4), 2, True) == 3 * 4
    assert bf.param_count(FamilySpec("gaussian"), 3, True) == 18
    assert bf.param_count(FamilySpec("bigauss"), 2, False) == 15  # 2 and 3 per unordered block
    assert bf.param_count(FamilySpec("linreg", covariate_dim=2), 2, True) == 12
    assert bf.param_count(FamilySpec("simplereg"), 3, True) == 11


def test_family_spec_validation():
    with pytest.raises(FamilyError):
        FamilySpec("nope")
    with pytest.raises(FamilyError):
        FamilySpec("multinomial")
    with pytest.raises(FamilyError):
        FamilySpec("simplereg", covariate_dim=2)
    assert FamilySpec("poisson-prmh").covariate_dim == 1
    assert FamilySpec("poisson-prmh").uses_covariates
    assert not FamilySpec("poisson").uses_covariates


def test_covariates_on_another_node_count_are_refused():
    rng = np.random.default_rng(0)
    g = rand_graph(rng, 10, directed=False)
    cov = rand_cov(rng, 12, 1, directed=False)
    with pytest.raises(FamilyError, match=r"12 nodes.*n=10"):
        bf.fit(g, PRMH, 2, cov, restarts=1)


def test_undirected_fits_refuse_asymmetric_covariates():
    rng = np.random.default_rng(1)
    g = rand_graph(rng, 12, directed=False)
    y = rng.normal(size=(12, 12, 1))
    y[np.arange(12), np.arange(12)] = 0.0
    direct = EdgeCovariates(p=1, y=y)
    assert not direct.symmetric  # computed once, at construction
    with pytest.raises(FamilyError, match="symmetric covariates"):
        bf.fit(g, PRMH, 2, direct, restarts=1)
    with pytest.raises(FamilyError, match="symmetric covariates"):
        bf.weighted_mle(PRMH, hard_tau(np.arange(12) % 2, 2), g, direct)
    with pytest.raises(bf.GraphBuildError, match="symmetric"):
        EdgeCovariates.from_matrix(y, directed=False)
    entries = [(i, j, y[i, j]) for i in range(12) for j in range(12) if i != j]
    with pytest.raises(bf.GraphBuildError, match="conflicting duplicate covariate"):
        bf.attach_covariates(g, entries)
    # a directed graph takes them
    gd = rand_graph(rng, 12, directed=True)
    fr = bf.fit(gd, PRMH, 2, EdgeCovariates.from_matrix(y, directed=True), restarts=1, seed=0)
    assert np.isfinite(fr.bound)
    assert bf.fit(gd, PRMH, 2, direct, restarts=1, seed=0).bound == fr.bound


@pytest.mark.parametrize("kind, p, directed, bound, iterations", [
    ("simplereg", 1, False, "-0x1.cc134270b4e02p+8", 2),
    ("simplereg", 1, True, "-0x1.84001607798eep+9", 2),
    ("linreg", 2, False, "-0x1.23bacebf7ccf8p+9", 18),
    ("linreg", 2, True, "-0x1.fad47023b0a41p+9", 2),
])
def test_regression_fits_read_the_covariates_zero_diagonal(kind, p, directed, bound, iterations):
    """The covariates' diagonal is zero by construction, so simplereg and
    linreg use y as it is.  These bounds are the ones the fits gave when
    the families zeroed the diagonal again themselves, bit for bit."""
    rng = np.random.default_rng(7)
    n = 24
    z = np.arange(n) % 2
    y = rng.normal(0, 1, (n, n, p))
    X = rng.normal(0, 1, (n, n)) + 2.0 * (z[:, None] == z[None, :]) + y.sum(axis=2)
    if not directed:
        y = (y + y.transpose(1, 0, 2)) / 2
        X = np.triu(X, 1)
        X = X + X.T
    g = ValuedGraph.from_matrix(X, directed, value_kind="real")
    cov = EdgeCovariates.from_matrix(y, directed)
    fr = bf.fit(g, FamilySpec(kind, covariate_dim=p), 2, cov, seed=0, restarts=2)
    assert (fr.bound.hex(), fr.iterations) == (bound, iterations)
