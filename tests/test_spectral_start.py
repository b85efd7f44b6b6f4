"""The spectral start that ``fit`` takes on graphs with a CSR view."""

import numpy as np
import pytest

import blockfit as bf
from blockfit import FamilySpec, engine
from blockfit.engine import init_partition
from blockfit.graph import ValuedGraph
from blockfit.simulate import grid_params

POISSON = FamilySpec("poisson")


def ari(a, b):
    """Adjusted Rand index of two label vectors (Hubert & Arabie 1985)."""
    a = np.unique(a, return_inverse=True)[1]
    b = np.unique(b, return_inverse=True)[1]
    table = np.zeros((a.max() + 1, b.max() + 1))
    np.add.at(table, (a, b), 1.0)

    def pairs(x):
        return float(np.sum(x * (x - 1.0) / 2.0))

    rows, cols = pairs(table.sum(axis=1)), pairs(table.sum(axis=0))
    expected = rows * cols / pairs(np.array([a.size], dtype=float))
    return (pairs(table) - expected) / (0.5 * (rows + cols) - expected)


def planted_sparse(seed, n=400, directed=False, lam=0.04):
    """A planted three-class Poisson graph of about 4 % density."""
    g, z = bf.sample_graph(grid_params(0.7, lam, 0.1, 3), n, directed, POISSON, seed=seed)
    assert g.sparse_values is not None
    return g, z


def start_labels(g, Q):
    return np.argmax(init_partition(g, Q, strategy="spectral").tau, axis=1)


@pytest.mark.parametrize("directed", [False, True])
def test_spectral_start_recovers_planted_classes(directed):
    for seed in range(5):
        g, z = planted_sparse([seed, 31], directed=directed)
        assert ari(z, start_labels(g, 3)) >= 0.9


def test_spectral_start_depends_on_the_graph_and_q_alone():
    g, _ = planted_sparse([1, 32])
    assert np.array_equal(start_labels(g, 3), start_labels(g, 3))
    fits = [bf.fit(g, POISSON, 3, restarts=1, seed=s) for s in (0, 1, 12345)]
    for fr in fits:
        assert fr.diagnostics["init"] == "spectral"
        assert fr.diagnostics["init_fallback"] is None
        assert np.array_equal(fr.map_assignment, fits[0].map_assignment)
        assert fr.bound_trajectory == fits[0].bound_trajectory


@pytest.mark.parametrize("directed", [False, True])
def test_bound_never_decreases_after_a_spectral_start(directed):
    g, _ = planted_sparse([2, 33], directed=directed)
    fr = bf.fit(g, POISSON, 3, restarts=1, seed=4)
    assert fr.diagnostics["init"] == "spectral"
    traj = np.asarray(fr.bound_trajectory)
    assert np.all(np.diff(traj) >= -1e-9 * np.abs(traj[1:]))


def test_spectral_start_reads_magnitudes_for_degrees_of_signed_values():
    # +1 within classes, -1 across and four times as often: the row sums of
    # X are about -15, which would make the regularized degrees negative
    rng = np.random.default_rng(34)
    n = 1000
    z = rng.integers(0, 2, n)
    same = z[:, None] == z[None, :]
    present = np.triu(rng.random((n, n)) < np.where(same, 0.01, 0.04), 1)
    X = np.where(same, 1.0, -1.0) * present
    g = ValuedGraph.from_matrix(X + X.T, directed=False, value_kind="real")
    assert g.sparse_values is not None and g.values.sum(axis=1).mean() < -10
    assert ari(z, start_labels(g, 2)) >= 0.9
    fr = bf.fit(g, FamilySpec("gaussian"), 2, restarts=1, seed=0)
    assert fr.diagnostics["init"] == "spectral"


def test_spectral_start_falls_back_beyond_the_classes_the_spectrum_shows():
    # a fourth eigenvector comes from the noise bulk: k-means would halve a class
    g, _ = planted_sparse([4, 36])
    with pytest.raises(ValueError, match="3 of the 4 leading eigenvalues clear the noise edge"):
        init_partition(g, 4, strategy="spectral")
    fr = bf.fit(g, POISSON, 4, restarts=1, seed=0)
    assert fr.diagnostics["init"] == "hierarchical"
    assert "noise edge" in fr.diagnostics["init_fallback"]
    want = bf.fit(g, POISSON, 4, restarts=1, seed=0, init="hierarchical")
    assert fr.bound_trajectory == want.bound_trajectory


def test_spectral_start_at_q_equal_to_n():
    # the power block is capped at n columns; no spectrum of 7 nodes shows
    # 7 classes above the noise, so the start falls back
    X = np.zeros((7, 7))
    X[0, 1] = X[1, 0] = 3.0
    g = ValuedGraph.from_matrix(X, directed=False)
    assert g.sparse_values is not None
    with pytest.raises(ValueError, match="of the 7 leading eigenvalues clear the noise edge"):
        init_partition(g, 7, strategy="spectral")
    fr = bf.fit(g, POISSON, 7, restarts=1, seed=0)
    assert fr.diagnostics["init"] == "hierarchical"
    assert "noise edge" in fr.diagnostics["init_fallback"]


def test_spectral_start_falls_back_on_an_all_zero_graph():
    g = ValuedGraph.from_matrix(np.zeros((30, 30)), directed=False)
    with pytest.raises(ValueError, match="degree"):
        init_partition(g, 2, strategy="spectral")
    fr = bf.fit(g, POISSON, 2, restarts=1, seed=0)
    assert fr.diagnostics["init"] == "hierarchical"
    assert "every degree is zero" in fr.diagnostics["init_fallback"]
    want = bf.fit(g, POISSON, 2, restarts=1, seed=0, init="hierarchical")
    assert fr.bound_trajectory == want.bound_trajectory


def test_spectral_start_falls_back_when_k_means_cannot_fill_q_clusters(monkeypatch):
    g, _ = planted_sparse([5, 37])
    # an embedding with two distinct rows cannot give three clusters
    two_points = np.repeat([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]], [100, 300], axis=0)
    monkeypatch.setattr(engine, "_spectral_embedding", lambda graph, Q, rng: two_points)
    with pytest.raises(ValueError, match="fewer than 3 non-empty clusters"):
        init_partition(g, 3, strategy="spectral")
    fr = bf.fit(g, POISSON, 3, restarts=1, seed=0)
    assert fr.diagnostics["init"] == "hierarchical"
    assert "fewer than 3 non-empty clusters" in fr.diagnostics["init_fallback"]


@pytest.mark.parametrize("restarts", [1, 3])
def test_dense_graphs_keep_the_hierarchical_start_bit_for_bit(restarts):
    # the graphs of criterion 1's n = 100 cell: no CSR view, so no change
    for r in range(3):
        g, _ = bf.sample_graph(grid_params(0.5, 2.0, 0.5, 3), 100, False, POISSON,
                               seed=[42, r])
        assert g.sparse_values is None
        got = bf.fit(g, POISSON, 3, restarts=restarts, seed=r)
        want = bf.fit(g, POISSON, 3, restarts=restarts, seed=r, init="hierarchical")
        assert got.diagnostics["init"] == want.diagnostics["init"] == "hierarchical"
        assert got.bound_trajectory == want.bound_trajectory
        assert np.array_equal(got.posterior.tau, want.posterior.tau)
        assert np.array_equal(got.params.theta.lam, want.params.theta.lam)


def test_fit_records_each_start():
    g, z = planted_sparse([3, 35])
    assert bf.fit(g, POISSON, 3, restarts=1, seed=0, init="random").diagnostics["init"] == "random"
    assert bf.fit(g, POISSON, 3, restarts=1, init=z).diagnostics["init"] == "given"
    assert bf.fit(g, POISSON, 3, restarts=1, init="hier").diagnostics["init"] == "hierarchical"


def test_fit_takes_the_spectral_start_by_name():
    g, _ = planted_sparse([3, 36])
    got = bf.fit(g, POISSON, 3, restarts=2, seed=0, init="spectral")
    want = bf.fit(g, POISSON, 3, restarts=2, seed=0)
    assert got.diagnostics["init"] == want.diagnostics["init"] == "spectral"
    assert got.bound_trajectory == want.bound_trajectory
    assert np.array_equal(got.posterior.tau, want.posterior.tau)
    assert np.array_equal(got.params.theta.lam, want.params.theta.lam)


def test_start_labels_go_in_only_as_an_array():
    g, z = bf.sample_graph(grid_params(0.7, 2.0, 0.1, 3), 30, False, POISSON, seed=3)
    with pytest.raises(ValueError, match="unknown init strategy 'given'"):
        bf.fit(g, POISSON, 3, restarts=1, init="given")
    with pytest.raises(TypeError):
        bf.fit(g, POISSON, 3, restarts=1, init_labels=z)
