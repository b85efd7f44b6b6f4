"""One seed rule and one start chain: the seeds every fit, sweep and grid
cell accepts, the random streams they draw, and the checks made before any
start."""

import numpy as np
import pytest

import blockfit as bf
from blockfit import FamilySpec, GridConfig, engine, simulate
from blockfit.engine import MixtureParams, check_seed, substream
from blockfit.families import PoissonParams

POISSON = FamilySpec("poisson")


def _graph(n=30, seed=0):
    params = MixtureParams(alpha=np.array([0.5, 0.5]),
                           theta=PoissonParams(lam=np.array([[4.0, 1.0], [1.0, 3.0]])))
    return bf.sample_graph(params, n, False, POISSON, seed=seed)[0]


def _spawned(seed, key):
    """Today's rule for a seed that is neither None nor an integer."""
    parent = np.random.default_rng(seed).bit_generator.seed_seq
    return np.random.SeedSequence(parent.entropy, spawn_key=(*parent.spawn_key, key))


def _same_stream(a, b):
    return np.array_equal(np.random.default_rng(a).integers(0, 2 ** 62, 8),
                          np.random.default_rng(b).integers(0, 2 ** 62, 8))


@pytest.mark.parametrize("options", [{"restarts": 1}, {"restarts": 2}, {"init": "random"}],
                         ids=["one-restart", "two-restarts", "random-start"])
def test_fit_refuses_a_negative_seed_however_it_starts(options):
    with pytest.raises(ValueError, match="^seed must be at least 0, got -1$"):
        bf.fit(_graph(), POISSON, 2, seed=-1, **options)


def test_check_seed_refuses_only_negative_integers():
    for seed in (None, 0, 7, np.int64(3), [1, 2], np.random.SeedSequence(5)):
        check_seed(seed)
    for seed in (-1, np.int64(-4)):
        with pytest.raises(ValueError, match="seed must be at least 0"):
            check_seed(seed)


def test_substream_rules():
    assert substream(None, 3) is None
    assert substream(7, 3) == [7, 3]
    assert substream(np.int64(7), 3) == [7, 3] and type(substream(np.int64(7), 3)[0]) is int
    for seed in ([1, 2], np.random.SeedSequence(5)):
        assert _same_stream(substream(seed, 3), _spawned(seed, 3))
        assert not _same_stream(substream(seed, 3), substream(seed, 4))


def test_a_seed_inside_fit_options_is_refused_by_select_q():
    with pytest.raises(TypeError, match="seed"):
        bf.select_q(_graph(), POISSON, range(1, 3), fit_options={"seed": 4}, seed=1)


@pytest.mark.parametrize("mode", simulate.MODES)
def test_a_seed_inside_fit_options_is_refused_by_run_experiment(mode):
    config = GridConfig(n=20, a=0.6, lam=3.0, gamma_ratio=0.3, q_star=2, s=2, seed=1)
    with pytest.raises(TypeError, match="seed"):
        bf.run_experiment(config, mode=mode, q_max=3, fit_options={"seed": 4})


@pytest.mark.parametrize("Q", [0, 31])
def test_fit_checks_q_before_any_start(monkeypatch, Q):
    """A Q outside 1..n no longer walks the fallback chain."""
    g = _graph()

    def no_start(*args, **kwargs):
        raise AssertionError("fit started before it checked Q")

    monkeypatch.setattr(engine, "init_partition", no_start)
    with pytest.raises(ValueError, match=f"^Q must lie in 1..n, got {Q}$"):
        bf.fit(g, POISSON, Q)


@pytest.mark.parametrize("args, options, message", [
    ((True,), {}, "Q must be an integer, got True"),
    ((2.5,), {}, "Q must be an integer, got 2.5"),
    ((2,), {"restarts": 0}, "restarts must be at least 1, got 0"),
    ((2,), {"restarts": -3}, "restarts must be at least 1, got -3"),
    ((2,), {"restarts": 1.5}, "restarts must be an integer, got 1.5"),
    ((2,), {"restarts": True}, "restarts must be an integer, got True"),
    ((2,), {"init": np.full(30, 0.7)}, "labels must be integers, got float64 entries"),
], ids=["q-bool", "q-fraction", "restarts-0", "restarts-negative", "restarts-fraction",
        "restarts-bool", "fractional-labels"])
def test_fit_refuses_arguments_it_would_bend_before_any_start(monkeypatch, args, options,
                                                                message):
    """A bool Q, fewer than one restart and fractional labels are refused,
    not read as one class, one restart and all-zero labels."""
    real = engine.init_partition

    def no_fit_start(graph, Q, strategy="hierarchical", **kwargs):
        if strategy != "given":  # the given start is where labels are checked
            raise AssertionError("fit started before it checked its arguments")
        return real(graph, Q, strategy, **kwargs)

    monkeypatch.setattr(engine, "init_partition", no_fit_start)
    with pytest.raises(ValueError, match=f"^{message}$"):
        bf.fit(_graph(), POISSON, *args, **options)


def test_fit_takes_integral_floats_and_labels():
    want = bf.fit(_graph(), POISSON, 2, restarts=2, seed=1, init=np.arange(30) % 2)
    got = bf.fit(_graph(), POISSON, 2.0, restarts=2.0, seed=1, init=np.arange(30.0) % 2)
    assert got.bound_trajectory == want.bound_trajectory
    assert got.diagnostics["restarts"] == 2


def test_mixture_params_q_is_derived_not_taken():
    theta = PoissonParams(lam=np.ones((2, 2)))
    assert MixtureParams(alpha=np.array([0.5, 0.5]), theta=theta).Q == 2
    with pytest.raises(TypeError):
        MixtureParams(np.array([0.5, 0.5]), theta, Q=7)


@pytest.mark.parametrize("options, message", [
    ({"strategy": "bogus"}, "unknown init strategy 'bogus'"),
    ({"strategy": "random", "seed": -1}, "seed must be at least 0, got -1"),
    ({"strategy": "given", "labels": [0, 0, 1, 0, 0]}, "labels must be length n"),
], ids=["strategy", "seed", "labels"])
def test_init_partition_checks_its_arguments_at_q_1(options, message):
    """Q = 1 has one partition, but the arguments are checked as for Q >= 2."""
    g = _graph(n=5)
    with pytest.raises(ValueError, match=message):
        engine.init_partition(g, 1, **options)
    assert engine.init_partition(g, 1, strategy="random", seed=0).tau.shape == (5, 1)


def test_the_hier_alias_names_the_hierarchical_start():
    fr = bf.fit(_graph(), POISSON, 2, restarts=1, init="hier")
    assert fr.diagnostics["init"] == "hierarchical"
    with pytest.raises(ValueError, match="unknown init strategy 'hier'"):
        engine.init_partition(_graph(), 2, strategy="hier")


# ---------------------------------------------------------------------------
# The streams, written out as literals


@pytest.mark.parametrize("seed", [0, 7, np.int64(3), [1, 2], np.random.SeedSequence(5)],
                         ids=["0", "7", "int64", "list", "seedsequence"])
def test_fit_draws_restart_r_from_its_stream(monkeypatch, seed):
    g, Q, restarts = _graph(), 3, 3
    drawn = []
    real = engine.init_partition

    def spy(*args, **kwargs):
        start = real(*args, **kwargs)
        drawn.append(np.argmax(start.tau, axis=1))
        return start

    monkeypatch.setattr(engine, "init_partition", spy)
    bf.fit(g, POISSON, Q, init="random", restarts=restarts, seed=seed)
    for r in range(restarts):
        if isinstance(seed, (int, np.integer)):
            rng = np.random.default_rng([int(seed), r])
        else:
            rng = np.random.default_rng(_spawned(seed, r))
        assert np.array_equal(drawn[r], rng.integers(0, Q, size=g.n))


@pytest.mark.parametrize("seed", [0, 7, np.int64(3), [1, 2], np.random.SeedSequence(5)],
                         ids=["0", "7", "int64", "list", "seedsequence"])
def test_select_q_fits_q_with_its_seed(seed):
    g, opts = _graph(), {"restarts": 2}
    sweep = bf.select_q(g, POISSON, range(1, 4), fit_options=opts, seed=seed)
    for rec in sweep.records:
        if isinstance(seed, (int, np.integer)):
            seed_q = int(seed) * 1000 + rec.q
        else:
            seed_q = _spawned(seed, rec.q)
        want = bf.fit(g, POISSON, rec.q, seed=seed_q, **opts)
        assert rec.fit.bound_trajectory == want.bound_trajectory
        assert np.array_equal(rec.fit.posterior.tau, want.posterior.tau)


@pytest.mark.parametrize("seed", [None, 0, 7])
def test_run_experiment_samples_and_fits_replicate_r_from_its_seeds(monkeypatch, seed):
    config = GridConfig(n=24, a=0.6, lam=3.0, gamma_ratio=0.3, q_star=2, s=3, seed=seed)
    seen = []
    fit_fn, sample_fn = simulate.fit, simulate.sample_graph

    def keep_sample(*args, **kwargs):
        seen.append(("sample", kwargs["seed"]))
        return sample_fn(*args, **kwargs)

    def keep_fit(*args, **kwargs):
        seen.append(("fit", kwargs["seed"]))
        return fit_fn(*args, **kwargs)

    monkeypatch.setattr(simulate, "fit", keep_fit)
    monkeypatch.setattr(simulate, "sample_graph", keep_sample)
    report = bf.run_experiment(config, fit_options={"restarts": 2})
    base = 0 if seed is None else seed
    assert seen == [(kind, [base, r] if kind == "sample" else base * 100003 + r)
                    for r in range(3) for kind in ("sample", "fit")]

    truth = bf.grid_params(0.6, 3.0, 0.3, 2)
    alphas = []
    for r in range(3):
        g, _ = sample_fn(truth, 24, False, POISSON, seed=[base, r])
        alphas.append(fit_fn(g, POISSON, 2, seed=base * 100003 + r, restarts=2).params.alpha)
    assert np.array_equal(report.rmse_alpha, bf.rmse(np.stack(alphas), truth.alpha))

