import math

import numpy as np
import pytest
from scipy.special import gammaln

import blockfit as bf
from blockfit import FamilySpec
from blockfit.engine import (
    MixtureParams,
    classification_entropy,
    complete_data_loglik,
    estep_fixed_point,
    exact_loglik,
    exact_posterior_marginals,
    init_partition,
    lower_bound,
    mstep,
    relabel_descending,
)
from blockfit.families import BernoulliParams, PoissonParams, get_family
from blockfit.graph import ValuedGraph

import oracle_utils as ou

POISSON = FamilySpec("poisson")


def pois_params(lam, alpha=None):
    lam = np.asarray(lam, dtype=float)
    Q = lam.shape[0]
    alpha = np.full(Q, 1.0 / Q) if alpha is None else np.asarray(alpha, dtype=float)
    return MixtureParams(alpha=alpha, theta=PoissonParams(lam=lam))


def sample_poisson(lam, alpha, n, seed, directed=False):
    params = pois_params(lam, alpha)
    return bf.sample_graph(params, n, directed, POISSON, seed=seed)


def random_instance(rng, kind="poisson"):
    n = int(rng.integers(4, 9))
    Q = int(rng.integers(1, 4))
    alpha = rng.dirichlet(np.ones(Q) * 3)
    directed = bool(rng.integers(2))
    if kind == "poisson":
        lam = rng.gamma(2.0, 2.0, (Q, Q))
        if not directed:
            lam = (lam + lam.T) / 2
        params = MixtureParams(alpha=alpha, theta=PoissonParams(lam=lam))
        spec = POISSON
    else:
        pi = rng.beta(2, 2, (Q, Q))
        if not directed:
            pi = (pi + pi.T) / 2
        params = MixtureParams(alpha=alpha, theta=BernoulliParams(pi=pi))
        spec = FamilySpec("bernoulli")
    g, _ = bf.sample_graph(params, n, directed, spec, seed=int(rng.integers(2 ** 31)))
    return g, spec, params


# ---------------------------------------------------------------------------
# lower_bound


def test_lower_bound_single_class_is_plain_loglik():
    g, _ = sample_poisson([[2.0]], [1.0], 6, seed=0)
    params = pois_params([[2.0]])
    tau = np.ones((6, 1))
    want = sum(x * np.log(2.0) - 2.0 - gammaln(x + 1)
               for (i, j) in [(i, j) for i in range(6) for j in range(i + 1, 6)]
               for x in [g.values[i, j]])
    assert lower_bound(g, POISSON, tau, params) == pytest.approx(want)
    assert exact_loglik(g, POISSON, params) == pytest.approx(want)


def test_lower_bound_tiny_directed_example():
    g = ValuedGraph.from_matrix(np.zeros((2, 2)), directed=True, value_kind="count")
    params = pois_params([[1.0]])
    assert lower_bound(g, POISSON, np.ones((2, 1)), params) == pytest.approx(-2.0)


def test_lower_bound_matches_definition_loops():
    rng = np.random.default_rng(0)
    for _ in range(8):
        g, spec, params = random_instance(rng)
        Q = params.Q
        tau = ou.random_tau(rng, g.n, Q)
        lam = params.theta.lam

        def logf(q, l, i, j):
            x = g.values[i, j]
            return x * np.log(lam[q, l]) - lam[q, l] - gammaln(x + 1)

        want = ou.loop_lower_bound(g, tau, params.alpha, logf)
        assert lower_bound(g, spec, tau, params) == pytest.approx(want, abs=1e-9)


def test_bound_sandwich_random_and_fitted_tau():
    rng = np.random.default_rng(1)
    for _ in range(30):
        g, spec, params = random_instance(rng, kind=rng.choice(["poisson", "bernoulli"]))
        tau = ou.random_tau(rng, g.n, params.Q)
        exact = exact_loglik(g, spec, params)
        assert lower_bound(g, spec, tau, params) <= exact + 1e-9
        post = estep_fixed_point(g, spec, params, tau)
        assert lower_bound(g, spec, post.tau, params) <= exact + 1e-9


def test_directed_undirected_edge_count_convention():
    rng = np.random.default_rng(2)
    vals = rng.integers(0, 5, (5, 5)).astype(float)
    vals = np.triu(vals, 1)
    vals = vals + vals.T
    g_u = ValuedGraph.from_matrix(vals, directed=False, value_kind="count")
    g_d = ValuedGraph.from_matrix(vals, directed=True, value_kind="count")
    params = pois_params([[2.0, 0.7], [0.7, 1.1]], [0.4, 0.6])
    tau = ou.random_tau(rng, 5, 2)
    ent = classification_entropy(tau)
    mix = float(tau.sum(axis=0) @ np.log(params.alpha))
    j_u = lower_bound(g_u, POISSON, tau, params)
    j_d = lower_bound(g_d, POISSON, tau, params)
    # directed counts every ordered pair: the edge term doubles
    assert j_d - ent - mix == pytest.approx(2.0 * (j_u - ent - mix), rel=1e-12)


# ---------------------------------------------------------------------------
# E-step


def test_estep_single_class():
    g, _ = sample_poisson([[1.5]], [1.0], 5, seed=1)
    params = pois_params([[1.5]])
    post = estep_fixed_point(g, POISSON, params, np.ones((5, 1)))
    assert post.converged
    assert post.tau == pytest.approx(np.ones((5, 1)))


def test_estep_exchangeable_uniform_fixed_point():
    g, _ = sample_poisson([[2.0, 0.5], [0.5, 2.0]], [0.5, 0.5], 6, seed=2)
    params = pois_params(np.full((2, 2), 1.3))  # identical blocks, equal alpha
    tau0 = np.full((6, 2), 0.5)
    post = estep_fixed_point(g, POISSON, params, tau0)
    assert post.converged
    assert post.tau == pytest.approx(tau0, abs=1e-9)


def test_estep_fixed_point_residual_and_oracle_marginals():
    # well-separated blocks: hard assignment, and the mean-field optimum
    # matches the enumerated posterior per node
    lam = np.array([[15.0, 0.04], [0.04, 4.0]])
    truth = np.array([0, 0, 0, 1, 1, 1])
    fam = get_family(POISSON)
    worst_tv = 0.0
    for seed in range(5):
        rng = np.random.default_rng([seed, 17])
        vals = fam.sample_matrix(PoissonParams(lam=lam), truth, rng, None, False)
        g = ValuedGraph.from_matrix(vals, directed=False, value_kind="count")
        fr = bf.fit(g, POISSON, 2, seed=seed, restarts=6)
        # fitted tau hard-assigns nodes to their generating classes
        pred = fr.map_assignment
        same = np.array_equal(pred, truth) or np.array_equal(1 - pred, truth)
        assert same
        marg = exact_posterior_marginals(g, POISSON, fr.params)
        tv = 0.5 * np.abs(fr.posterior.tau - marg).sum(axis=1).max()
        worst_tv = max(worst_tv, tv)
        # residual of the fixed point at exit
        post = estep_fixed_point(g, POISSON, fr.params, fr.posterior.tau)
        ops = fam.scorer(g, None)(fr.params.theta)
        scores = np.log(np.maximum(fr.params.alpha, 1e-300)) + ops.node_scores(post.tau)
        prop = np.exp(scores - scores.max(axis=1, keepdims=True))
        prop = prop / prop.sum(axis=1, keepdims=True)
        assert np.max(np.abs(prop - post.tau)) < 1e-6
    assert worst_tv < 1e-3


def test_estep_does_not_decrease_bound():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g, spec, params = random_instance(rng)
        tau0 = ou.random_tau(rng, g.n, params.Q)
        post = estep_fixed_point(g, spec, params, tau0)
        assert (lower_bound(g, spec, post.tau, params)
                >= lower_bound(g, spec, tau0, params) - 1e-8)


def test_estep_scores_each_iterate_once(monkeypatch):
    # one node-score product for the start and one per Jacobi update; the
    # softmax runs once per update plus once for the converged proposal
    from collections import Counter

    from blockfit import engine, families

    g, _ = sample_poisson([[6.0, 0.5], [0.5, 3.0]], [0.5, 0.5], 40, seed=5)
    params = pois_params([[5.0, 1.0], [1.0, 2.0]])
    tau0 = ou.random_tau(np.random.default_rng(6), g.n, 2)
    calls = Counter()

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(families.DecomposedScores, "node_scores")
    counted(engine, "_softmax_rows")
    post = estep_fixed_point(g, POISSON, params, tau0)
    assert post.converged
    updates = calls["_softmax_rows"] - 1
    assert updates >= 1
    assert calls["node_scores"] == 1 + updates


def test_estep_backtracks_when_the_full_update_lowers_the_bound(monkeypatch):
    # disassortative blocks from a random start: some Jacobi proposals would
    # lower J, and the line search shortens them instead of a row-wise pass
    from collections import Counter

    from blockfit import families

    g, _ = sample_poisson([[0.5, 6.0], [6.0, 0.5]], [0.5, 0.5], 20, seed=8)
    calls = Counter()
    for owner in (families.DecomposedScores, families.DenseScores):
        def wrapper(*args, _original=owner.node_scores, **kwargs):
            calls["node_scores"] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, "node_scores", wrapper)
    fr = bf.fit(g, POISSON, 2, seed=8, restarts=1, init="random")
    diag = fr.diagnostics
    assert diag["estep_backtracks"] > 0
    assert np.all(np.diff(fr.bound_trajectory) >= 0)
    # one product per E-step entry, accepted step and rejected candidate
    assert calls["node_scores"] == fr.iterations + diag["estep_sweeps"] + diag["estep_backtracks"]


# ---------------------------------------------------------------------------
# M-step


def test_mstep_alpha_examples():
    g, _ = sample_poisson([[1.0]], [1.0], 4, seed=3)
    tau = np.zeros((4, 2))
    tau[:3, 0] = 1.0
    tau[3, 1] = 1.0
    params = mstep(g, POISSON, tau)
    assert params.alpha == pytest.approx([0.75, 0.25])
    uniform = np.full((4, 3), 1 / 3)
    assert mstep(g, POISSON, uniform).alpha == pytest.approx(np.full(3, 1 / 3))


def test_mstep_alpha_column_means():
    rng = np.random.default_rng(4)
    g, _ = sample_poisson([[2.0, 1.0], [1.0, 2.0]], [0.5, 0.5], 5, seed=4)
    tau = ou.random_tau(rng, 5, 2)
    params = mstep(g, POISSON, tau)
    want = np.array([sum(tau[i, q] for i in range(5)) / 5 for q in range(2)])
    assert params.alpha == pytest.approx(want, abs=1e-15)


# ---------------------------------------------------------------------------
# fit


def test_fit_single_class_poisson():
    g, _ = sample_poisson([[2.5]], [1.0], 7, seed=5)
    fr = bf.fit(g, POISSON, 1, restarts=1)
    mean = g.values[~np.eye(7, dtype=bool)].mean()
    assert fr.params.theta.lam[0, 0] == pytest.approx(mean)
    assert fr.converged
    assert fr.bound == pytest.approx(exact_loglik(g, POISSON, fr.params))


def test_fit_monotone_trajectories():
    rng = np.random.default_rng(6)
    for _ in range(25):
        g, spec, params = random_instance(rng, kind=rng.choice(["poisson", "bernoulli"]))
        fr = bf.fit(g, spec, int(rng.integers(1, 4)), restarts=2,
                    seed=int(rng.integers(10 ** 6)))
        traj = np.asarray(fr.bound_trajectory)
        assert np.all(np.diff(traj) >= -1e-8)


def test_fit_bound_below_exact_loglik():
    rng = np.random.default_rng(7)
    for _ in range(8):
        g, spec, _ = random_instance(rng)
        Q = int(rng.integers(1, 3))
        fr = bf.fit(g, spec, Q, restarts=2, seed=1)
        assert fr.bound <= exact_loglik(g, spec, fr.params) + 1e-9


def test_fit_label_permutation_equivariance():
    g, z = sample_poisson([[6.0, 0.5], [0.5, 2.0]], [0.5, 0.5], 10, seed=8)
    labels = np.array(z)
    fr1 = bf.fit(g, POISSON, 2, init=labels, restarts=1)
    fr2 = bf.fit(g, POISSON, 2, init=1 - labels, restarts=1)
    assert fr1.bound == pytest.approx(fr2.bound, abs=1e-10)
    assert fr1.params.alpha == pytest.approx(fr2.params.alpha, abs=1e-9)


def test_mixture_params_reject_a_theta_of_another_q():
    with pytest.raises(bf.FamilyError, match="Q=3"):
        MixtureParams(alpha=np.array([0.5, 0.5]), theta=PoissonParams(lam=np.ones((3, 3))))


def test_fit_rejects_bad_inputs():
    g, _ = sample_poisson([[1.0]], [1.0], 4, seed=9)
    with pytest.raises(ValueError):
        bf.fit(g, POISSON, 0)
    with pytest.raises(bf.FamilyError):
        bf.fit(g, FamilySpec("poisson-prmh"), 1)  # covariates missing


# ---------------------------------------------------------------------------
# init, entropy, relabel


def test_init_partition_strategies():
    g, _ = sample_poisson([[1.0]], [1.0], 6, seed=10)
    assert init_partition(g, 1).tau == pytest.approx(np.ones((6, 1)))
    given = init_partition(g, 3, strategy="given", labels=[0, 1, 2, 0, 1, 2])
    assert given.tau[0, 0] == pytest.approx(0.95)
    assert given.tau[0, 1] == pytest.approx(0.025)
    rand = init_partition(g, 2, strategy="random", seed=0)
    assert rand.tau.shape == (6, 2)
    with pytest.raises(ValueError):
        init_partition(g, 7)


def test_init_partition_hierarchical_separates_cliques():
    # two disconnected Poisson cliques
    n = 10
    vals = np.zeros((n, n))
    for blk in (range(5), range(5, 10)):
        for i in blk:
            for j in blk:
                if i < j:
                    vals[i, j] = vals[j, i] = 8.0
    g = ValuedGraph.from_matrix(vals, directed=False, value_kind="count")
    labels = np.argmax(init_partition(g, 2, strategy="hierarchical").tau, axis=1)
    assert len(set(labels[:5])) == 1
    assert len(set(labels[5:])) == 1
    assert labels[0] != labels[5]


def test_classification_entropy_examples():
    hard = np.zeros((4, 3))
    hard[:, 0] = 1.0
    assert classification_entropy(hard) == 0.0
    uniform = np.full((100, 3), 1 / 3)
    assert classification_entropy(uniform) == pytest.approx(100 * math.log(3))
    assert classification_entropy(np.array([[0.5, 0.5]])) == pytest.approx(math.log(2))
    rng = np.random.default_rng(11)
    tau = ou.random_tau(rng, 50, 4)
    h = classification_entropy(tau)
    assert 0.0 <= h <= 50 * math.log(4)


def test_relabel_descending():
    params = pois_params([[1.0, 2.0], [3.0, 4.0]], [0.2, 0.8])
    tau = np.array([[0.1, 0.9], [0.3, 0.7]])
    out, tau2 = relabel_descending(params, tau)
    assert out.alpha == pytest.approx([0.8, 0.2])
    assert out.theta.lam == pytest.approx(np.array([[4.0, 3.0], [2.0, 1.0]]))
    assert tau2 == pytest.approx(tau[:, ::-1])
    # already sorted -> identity; ties keep original order
    sorted_params = pois_params([[1.0, 2.0], [3.0, 4.0]], [0.5, 0.5])
    out2, tau3 = relabel_descending(sorted_params, tau)
    assert out2.alpha == pytest.approx([0.5, 0.5])
    assert out2.theta.lam == pytest.approx(sorted_params.theta.lam)
    assert tau3 == pytest.approx(tau)


# ---------------------------------------------------------------------------
# exact oracle


def test_exact_loglik_hand_enumeration():
    # n=2 directed, Q=2: log-sum-exp over the 4 assignments, by hand
    lam = np.array([[1.0, 2.0], [0.5, 3.0]])
    alpha = np.array([0.5, 0.5])
    params = pois_params(lam, alpha)
    x01, x10 = 3.0, 1.0
    g = ValuedGraph.from_matrix(np.array([[0.0, x01], [x10, 0.0]]), directed=True,
                                value_kind="count")

    def lp(x, l):
        return x * math.log(l) - l - math.lgamma(x + 1)

    terms = [math.log(alpha[z0]) + math.log(alpha[z1]) + lp(x01, lam[z0, z1]) + lp(x10, lam[z1, z0])
             for z0 in (0, 1) for z1 in (0, 1)]
    m = max(terms)
    want = m + math.log(sum(math.exp(t - m) for t in terms))
    assert exact_loglik(g, POISSON, params) == pytest.approx(want, abs=1e-12)


def test_exact_loglik_too_large():
    g, _ = sample_poisson([[1.0]], [1.0], 30, seed=12)
    params = pois_params(np.full((4, 4), 1.0), np.full(4, 0.25))
    with pytest.raises(bf.NumericalError):
        exact_loglik(g, POISSON, params)


def test_complete_data_loglik_matches_loops():
    rng = np.random.default_rng(13)
    g, spec, params = random_instance(rng)
    labels = rng.integers(0, params.Q, g.n)
    lam = params.theta.lam
    want = sum(math.log(params.alpha[z]) for z in labels)
    for i, j in ou.edge_pairs(g.n, g.directed):
        x = g.values[i, j]
        l_ = lam[labels[i], labels[j]]
        want += x * np.log(l_) - l_ - gammaln(x + 1)
    assert complete_data_loglik(g, spec, params, labels) == pytest.approx(want, abs=1e-9)


def test_fit_accepts_any_numpy_seed_and_keeps_integer_streams():
    g, _ = sample_poisson([[4.0, 1.0], [1.0, 3.0]], [0.5, 0.5], 30, seed=0)
    a = bf.fit(g, POISSON, 2, seed=[1, 2], restarts=3)
    b = bf.fit(g, POISSON, 2, seed=[1, 2], restarts=3)
    assert np.array_equal(a.posterior.tau, b.posterior.tau)
    bf.fit(g, POISSON, 2, seed=np.random.SeedSequence(7), init="random", restarts=2)
    # an integer seed s gives restart r the stream of default_rng([s, r])
    labels = np.random.default_rng([5, 0]).integers(0, 2, size=g.n)
    c = bf.fit(g, POISSON, 2, seed=5, init="random", restarts=1)
    d = bf.fit(g, POISSON, 2, init=labels, restarts=1)
    assert np.array_equal(c.posterior.tau, d.posterior.tau)


def test_fit_keeps_the_earliest_of_restarts_that_tie(monkeypatch):
    # restart 1 ends 1e-15 relative above restart 0: a tie up to rounding,
    # which must not decide between them
    from blockfit import engine

    g, _ = sample_poisson([[4.0, 1.0], [1.0, 3.0]], [0.5, 0.5], 12, seed=0)
    params = pois_params([[4.0, 1.0], [1.0, 3.0]])
    J = -123.456
    starts, finals = [], [J, J + 1e-15 * abs(J)]

    def fake_run_em(graph, spec, scorer, tau0, *args):
        starts.append(tau0)
        return {"params": params, "tau": tau0, "trajectory": [J, finals[len(starts) - 1]],
                "converged": True, "iterations": 1, "estep_unconverged": 0,
                "estep_sweeps": 0, "estep_backtracks": 0, "estep_converged": True}

    monkeypatch.setattr(engine, "_run_em", fake_run_em)
    fr = bf.fit(g, POISSON, 2, seed=0, restarts=2)
    assert len(starts) == 2 and finals[1] > finals[0]
    assert not np.array_equal(starts[0], starts[1])
    assert np.array_equal(fr.posterior.tau, starts[0]) and fr.bound == J


def test_posterior_reports_final_estep_convergence(monkeypatch):
    from blockfit import engine

    g, _ = sample_poisson([[2.0, 1.5], [1.5, 2.0]], [0.5, 0.5], 30, seed=0)
    assert bf.fit(g, POISSON, 2, seed=1, restarts=1).posterior.converged is True
    monkeypatch.setattr(engine, "ESTEP_MAX_SWEEPS", 1)
    fr = bf.fit(g, POISSON, 2, seed=1, restarts=1)
    assert fr.posterior.converged is False


def test_hierarchical_start_falls_back_on_overflowing_profiles():
    g, _ = sample_poisson([[2.0, 0.5], [0.5, 2.0]], [0.5, 0.5], 12, seed=0)
    X = g.values.copy()
    X[0, 1] = X[1, 0] = 1e155  # squared profile distances overflow to inf
    g = ValuedGraph.from_matrix(X, directed=False)
    with pytest.raises(ValueError):
        init_partition(g, 2)
    fr = bf.fit(g, POISSON, 2, seed=0, restarts=1)
    assert "finite" in fr.diagnostics["init_fallback"]
    assert bf.fit(g, POISSON, 2, seed=0, restarts=1, init="random").diagnostics[
        "init_fallback"] is None
