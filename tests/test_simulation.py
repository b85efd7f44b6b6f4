import numpy as np
import pytest

import blockfit as bf
from blockfit import FamilySpec, GridConfig, grid_params, rmse, run_experiment, sample_graph
from blockfit import simulate
from blockfit.engine import MixtureParams
from blockfit.families import PoissonParams

POISSON = FamilySpec("poisson")


def test_grid_params_balanced_cell_by_hand():
    params = grid_params(a=1.0, lam=2.0, gamma_ratio=0.5, q_star=3)
    assert params.alpha == pytest.approx(np.full(3, 1 / 3))
    lam = params.theta.lam
    # s = 1/3, lambda' = 2 / (1/3 + 0.5 * 2/3) = 3
    assert lam[0, 0] == pytest.approx(3.0)
    assert lam[0, 1] == pytest.approx(1.5)
    mean = (1 / 3) * 3.0 + (2 / 3) * 1.5
    assert mean == pytest.approx(2.0)


def test_grid_params_unbalanced_proportions():
    params = grid_params(a=0.2, lam=2.0, gamma_ratio=0.5, q_star=3)
    # exact values 0.80645/0.16129/0.03226; printed as 80.6/16.1/3.3 (%)
    assert params.alpha == pytest.approx([0.806, 0.161, 0.033], abs=1e-3)
    assert params.alpha == pytest.approx(np.array([0.2, 0.04, 0.008]) / 0.248, abs=1e-15)
    assert params.alpha[0] >= params.alpha[1] >= params.alpha[2]


def test_grid_params_gamma_one_flattens_blocks():
    params = grid_params(a=0.5, lam=2.0, gamma_ratio=1.0, q_star=3)
    assert params.theta.lam == pytest.approx(np.full((3, 3), 2.0))


def test_grid_params_mean_intensity_identity():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.uniform(0.1, 1.0)
        lam = rng.uniform(0.5, 8.0)
        gam = rng.uniform(0.1, 1.5)
        q = int(rng.integers(2, 6))
        params = grid_params(a, lam, gam, q)
        mean = params.alpha @ params.theta.lam @ params.alpha
        assert mean == pytest.approx(lam, abs=1e-12)


def test_sample_graph_degenerate_cases():
    params = MixtureParams(alpha=np.array([1.0, 0.0]),
                           theta=PoissonParams(lam=np.array([[2.0, 1.0], [1.0, 2.0]])))
    g, z = sample_graph(params, 10, False, POISSON, seed=0)
    assert set(z) == {0}
    zero = MixtureParams(alpha=np.array([0.5, 0.5]),
                         theta=PoissonParams(lam=np.zeros((2, 2))))
    g0, _ = sample_graph(zero, 8, False, POISSON, seed=1)
    assert g0.values.sum() == 0.0


def test_sample_graph_block_means_monte_carlo():
    params = grid_params(a=1.0, lam=5.0, gamma_ratio=0.1, q_star=3)
    lam = params.theta.lam
    n, s = 100, 200
    sums = np.zeros((3, 3))
    counts = np.zeros((3, 3))
    for rep in range(s):
        g, z = sample_graph(params, n, False, POISSON, seed=[5, rep])
        onehot = np.zeros((n, 3))
        onehot[np.arange(n), z] = 1.0
        mask = ~np.eye(n, dtype=bool)
        sums += onehot.T @ (g.values * mask) @ onehot
        w = onehot.T @ mask.astype(float) @ onehot
        counts += w
    means = sums / counts
    se = np.sqrt(lam / counts)  # Poisson variance
    assert np.all(np.abs(means - lam) <= 3 * se + 1e-12)


def test_rmse_examples_and_two_pass():
    truth = np.array([1.0, 2.0])
    est = np.stack([truth, truth])
    assert rmse(est, truth) == pytest.approx(np.zeros(2))
    est2 = np.stack([truth + 1, truth - 1])
    assert rmse(est2, truth) == pytest.approx(np.ones(2))
    rng = np.random.default_rng(1)
    est3 = rng.normal(0, 1, (7, 3))
    truth3 = rng.normal(0, 1, 3)
    direct = np.array([np.sqrt(sum((est3[s, k] - truth3[k]) ** 2 for s in range(7)) / 7)
                       for k in range(3)])
    assert rmse(est3, truth3) == pytest.approx(direct, abs=1e-12)


def test_run_experiment_estimation_seeded_determinism():
    config = GridConfig(n=30, a=1.0, lam=3.0, gamma_ratio=0.1, q_star=2, s=4, seed=11)
    opts = {"restarts": 2}
    rep1 = run_experiment(config, mode="estimation", fit_options=opts)
    rep2 = run_experiment(config, mode="estimation", fit_options=opts)
    assert np.array_equal(rep1.rmse_alpha, rep2.rmse_alpha)
    assert np.array_equal(rep1.rmse_lambda, rep2.rmse_lambda)
    assert rep1.mean_normalized_entropy == rep2.mean_normalized_entropy
    assert rep1.replicates_done == 4
    assert rep1.rmse_alpha.shape == (2,)
    assert np.all(rep1.rmse_alpha >= 0)
    rows = rep1.csv_rows()
    assert any(r["parameter"] == "alpha_1" for r in rows)
    assert any(r["parameter"] == "normalized_entropy" for r in rows)


def test_run_experiment_selection_mode():
    config = GridConfig(n=30, a=1.0, lam=4.0, gamma_ratio=0.1, q_star=2, s=3, seed=5)
    rep = run_experiment(config, mode="selection", q_max=3, fit_options={"restarts": 2})
    assert rep.q_frequencies
    assert sum(rep.q_frequencies.values()) == pytest.approx(1.0)
    assert max(rep.q_frequencies, key=rep.q_frequencies.get) == 2
    rows = rep.csv_rows()
    assert any(r["parameter"].startswith("freq_q_") for r in rows)


def test_grid_config_validation():
    with pytest.raises(ValueError):
        GridConfig(n=10, a=0.0, lam=1.0, gamma_ratio=0.5)
    with pytest.raises(ValueError):
        GridConfig(n=10, a=0.5, lam=-1.0, gamma_ratio=0.5)
    with pytest.raises(ValueError):
        GridConfig(n=10, a=0.5, lam=1.0, gamma_ratio=0.5, s=0)


CELL = dict(n=30, a=0.5, lam=2.0, gamma_ratio=0.5, q_star=3, s=2, seed=1)


@pytest.mark.parametrize("field, value, message", [
    ("n", 30.9, "n must be an integer, got 30.9"),
    ("n", True, "n must be an integer, got True"),
    ("n", "30", "n must be an integer, got '30'"),
    ("q_star", 2.5, "q_star must be an integer, got 2.5"),
    ("s", 2.7, "s must be an integer, got 2.7"),
    ("s", False, "s must be an integer, got False"),
    ("seed", 1.9, "seed must be an integer, got 1.9"),
    ("seed", True, "seed must be an integer, got True"),
    ("a", True, "a must be a finite real number, got True"),
    ("a", float("nan"), "a must be a finite real number, got nan"),
    ("lam", True, "lam must be a finite real number, got True"),
    ("lam", float("inf"), "lam must be a finite real number, got inf"),
    ("gamma_ratio", "0.5", "gamma_ratio must be a finite real number, got '0.5'"),
    ("gamma_ratio", -float("inf"), "gamma_ratio must be a finite real number, got -inf"),
    ("a", 1.5, r"a must lie in \(0, 1\]"),
    ("n", 1, "need s >= 1, n >= 2, q_star >= 1"),
])
def test_grid_config_refuses_what_is_not_a_cell(field, value, message):
    with pytest.raises(ValueError, match=message):
        GridConfig(**{**CELL, field: value})


def test_grid_config_stores_integers_and_floats():
    config = GridConfig(**{**CELL, "n": 30.0, "a": 1, "lam": np.float64(2.0),
                           "s": np.int64(2), "seed": None})
    assert (config.n, config.a, config.lam, config.s, config.seed) == (30, 1.0, 2.0, 2, None)
    assert type(config.n) is int and type(config.s) is int
    assert type(config.a) is float and type(config.lam) is float


def test_run_experiment_rejects_bad_mode():
    config = GridConfig(n=10, a=1.0, lam=1.0, gamma_ratio=0.5, s=1)
    with pytest.raises(ValueError):
        run_experiment(config, mode="nope")


@pytest.mark.parametrize("kind, extra", [("bernoulli", {}),
                                         ("poisson-prmh", {"covariate_dim": 1})])
def test_run_experiment_refuses_a_family_the_grid_cannot_fit(monkeypatch, kind, extra):
    def no_replicate(*args, **kwargs):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(simulate, "sample_graph", no_replicate)
    config = GridConfig(n=10, a=1.0, lam=1.0, gamma_ratio=0.5, s=2)
    for mode in ("estimation", "selection"):
        with pytest.raises(bf.FamilyError, match=repr(kind)):
            run_experiment(config, FamilySpec(kind, **extra), mode=mode)


def _planted(kind, rng, n):
    """(spec, true block parameters, covariates or None, tolerance) for a
    two-class graph of ``kind``; the blocks obey the undirected symmetry
    (bigauss: (l, q) holds the swapped couple of (q, l))."""
    from blockfit import families as fm
    from blockfit.graph import EdgeCovariates

    y = rng.normal(0.0, 0.5, (n, n, 2))
    cov2 = EdgeCovariates.from_matrix((y + y.transpose(1, 0, 2)) / 2, directed=False)
    cov1 = EdgeCovariates.from_matrix(cov2.y[:, :, :1], directed=False)
    if kind == "multinomial":
        probs = np.array([[[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]],
                          [[0.1, 0.3, 0.6], [0.2, 0.6, 0.2]]])
        return FamilySpec(kind, num_labels=3), fm.MultinomialParams(probs), None, 0.05
    if kind == "gaussian":
        return (FamilySpec(kind), fm.GaussianParams(mu=np.array([[2.0, -1.0], [-1.0, 0.5]]),
                                                    sigma2=np.array([[0.5, 1.0], [1.0, 0.8]])),
                None, 0.1)
    if kind == "bigauss":
        mu = np.array([[[1.0, 1.0], [0.5, -0.5]], [[-0.5, 0.5], [-1.0, -1.0]]])
        c = np.array([[[[1.0, 0.3], [0.3, 1.0]], [[1.0, 0.2], [0.2, 0.5]]],
                      [[[0.5, 0.2], [0.2, 1.0]], [[0.8, -0.3], [-0.3, 0.8]]]])
        return FamilySpec(kind), fm.BivariateGaussianParams(mu=mu, cov=c), None, 0.1
    if kind == "linreg":
        beta = np.array([[[1.0, -0.5], [0.2, 0.8]], [[0.2, 0.8], [-1.0, 0.3]]])
        return (FamilySpec(kind, covariate_dim=2),
                fm.LinearRegressionParams(beta=beta, sigma2=np.array([[0.3, 0.5], [0.5, 0.2]])),
                cov2, 0.1)
    if kind == "simplereg":
        return (FamilySpec(kind),
                fm.SimpleRegressionParams(intercept=np.array([[2.0, -1.0], [-1.0, 0.5]]),
                                          slope=1.5, sigma2=0.4),
                cov1, 0.1)
    assert kind == "poisson-prmi"
    beta = np.array([[[0.5, -0.3], [-0.8, 0.2]], [[-0.8, 0.2], [0.3, 0.6]]])
    return (FamilySpec(kind, covariate_dim=2),
            fm.PoissonRegParams(lam=np.array([[4.0, 1.0], [1.0, 2.5]]), beta=beta, shared=False),
            cov2, 0.15)


@pytest.mark.parametrize("kind, directed", [
    ("multinomial", False), ("multinomial", True), ("gaussian", False), ("gaussian", True),
    ("bigauss", False), ("linreg", False), ("linreg", True), ("simplereg", False),
    ("simplereg", True), ("poisson-prmi", False), ("poisson-prmi", True)])
def test_sample_graph_draws_a_valid_graph_whose_hard_label_mle_is_the_truth(kind, directed):
    """Every family's sampler gives a graph check_graph accepts, and the
    M-step at the planted labels lands within ``tol`` (absolute) of each
    true parameter; bigauss values are undirected only."""
    from blockfit import families as fm

    n = 150
    spec, theta, cov, tol = _planted(kind, np.random.default_rng(0), n)
    params = MixtureParams(alpha=np.array([0.4, 0.6]), theta=theta)
    g, z = sample_graph(params, n, directed, spec, seed=1, cov=cov)
    fm.get_family(spec).check_graph(g, cov)
    assert g.directed == directed and g.value_kind == fm.FAMILIES[kind].value_kind
    tau = np.eye(2)[z]
    est = bf.weighted_mle(spec, tau, g, cov)
    for name, want in theta.arrays().items():
        got = np.asarray(getattr(est, name))
        assert np.max(np.abs(got - want)) <= tol, (name, got, want)
