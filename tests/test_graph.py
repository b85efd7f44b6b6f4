import numpy as np
import pytest

from blockfit import GraphBuildError, ValuedGraph, attach_covariates, build_graph


def test_directed_construction():
    g = build_graph(2, True, [(0, 1, 3), (1, 0, 0)], "count")
    assert g.value(0, 1) == 3
    assert g.value(1, 0) == 0
    assert g.n_pairs() == 2


def test_undirected_symmetry():
    g = build_graph(3, False, [(0, 1, 2), (0, 2, 5), (1, 2, 0)], "count")
    assert g.value(1, 0) == 2
    assert g.value(2, 0) == 5
    assert np.array_equal(g.values, g.values.T)
    assert g.n_pairs() == 3


def test_self_loop_rejected():
    with pytest.raises(GraphBuildError):
        build_graph(2, True, [(0, 0, 1), (0, 1, 1), (1, 0, 1)], "count")


def test_out_of_range_index():
    with pytest.raises(GraphBuildError):
        build_graph(2, True, [(0, 2, 1)], "count")


def test_conflicting_duplicate():
    with pytest.raises(GraphBuildError):
        build_graph(3, False, [(0, 1, 2), (1, 0, 3), (0, 2, 0), (1, 2, 0)], "count")
    # agreeing duplicates are fine
    g = build_graph(3, False, [(0, 1, 2), (1, 0, 2), (0, 2, 0), (1, 2, 0)], "count")
    assert g.value(0, 1) == 2


def test_value_domain_checks():
    with pytest.raises(GraphBuildError):
        build_graph(2, True, [(0, 1, -1), (1, 0, 0)], "count")
    with pytest.raises(GraphBuildError):
        build_graph(2, True, [(0, 1, 1.5), (1, 0, 0)], "count")
    with pytest.raises(GraphBuildError):
        build_graph(2, True, [(0, 1, np.inf), (1, 0, 0)], "real")
    with pytest.raises(GraphBuildError):
        build_graph(2, False, [(0, 1, 4)], "label", num_labels=3)


def test_missing_pair_and_fill():
    with pytest.raises(GraphBuildError):
        build_graph(3, False, [(0, 1, 2)], "count")
    g = build_graph(3, False, [(0, 1, 2)], "count", fill=0)
    assert g.value(0, 2) == 0
    # directed graphs need both orientations unless filled
    with pytest.raises(GraphBuildError):
        build_graph(2, True, [(0, 1, 1)], "count")


def test_round_trip():
    rng = np.random.default_rng(0)
    n = 5
    entries = [(i, j, int(v)) for (i, j), v in zip(
        [(i, j) for i in range(n) for j in range(n) if i != j],
        rng.integers(0, 9, n * (n - 1)))]
    g = build_graph(n, True, entries, "count")
    for i, j, v in entries:
        assert g.value(i, j) == v


def test_paired_values():
    g = build_graph(3, False, [(0, 1, (1.0, 2.0)), (0, 2, (0.0, 3.0)), (2, 1, (5.0, 4.0))],
                    "paired")
    assert g.value(0, 1) == (1.0, 2.0)
    assert g.value(1, 0) == (2.0, 1.0)
    assert g.value(1, 2) == (4.0, 5.0)
    # paired entries given from both sides must be consistent couples
    with pytest.raises(GraphBuildError):
        build_graph(2, False, [(0, 1, (1.0, 2.0)), (1, 0, (1.0, 2.0))], "paired")
    with pytest.raises(GraphBuildError):
        build_graph(2, True, [(0, 1, (1.0, 2.0)), (1, 0, (2.0, 1.0))], "paired")


def test_from_matrix_validation():
    with pytest.raises(GraphBuildError):
        ValuedGraph.from_matrix(np.array([[0.0, 1.0], [2.0, 0.0]]), directed=False)
    g = ValuedGraph.from_matrix(np.array([[9.0, 1.0], [1.0, 0.0]]), directed=False)
    assert g.value(0, 1) == 1.0  # diagonal ignored


def test_values_are_immutable():
    g = build_graph(2, True, [(0, 1, 1), (1, 0, 0)], "count")
    with pytest.raises(ValueError):
        g.values[0, 1] = 7


def test_attach_covariates():
    g = build_graph(3, False, [(0, 1, 1), (0, 2, 0), (1, 2, 2)], "count")
    cov = attach_covariates(g, [(0, 1, [1.0]), (0, 2, [2.0]), (1, 2, [0.5])])
    assert cov.p == 1
    assert cov.vector(1, 0)[0] == 1.0  # symmetric convention
    with pytest.raises(GraphBuildError):
        attach_covariates(g, [(0, 1, [1.0]), (0, 2, [2.0])])  # missing pair
    with pytest.raises(GraphBuildError):
        attach_covariates(g, [(0, 1, [1.0]), (0, 2, [2.0, 1.0]), (1, 2, [0.5])])
    with pytest.raises(GraphBuildError):
        attach_covariates(g, [(0, 1, [np.nan]), (0, 2, [2.0]), (1, 2, [0.5])])


def test_direct_construction_refuses_a_nonzero_diagonal():
    vals = np.array([[1.0, 2.0], [2.0, 0.0]])
    with pytest.raises(GraphBuildError, match="zero diagonal"):
        ValuedGraph(n=2, directed=False, value_kind="count", values=vals)
    paired = np.zeros((2, 2, 2))
    paired[1, 1, 1] = 3.0
    with pytest.raises(GraphBuildError, match="zero diagonal"):
        ValuedGraph(n=2, directed=False, value_kind="paired", values=paired)
    g = ValuedGraph.from_matrix(vals, directed=False)
    assert g.values[0, 0] == 0.0 and g.value(0, 1) == 2.0
