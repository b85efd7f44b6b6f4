import csv
import dataclasses
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockfit import GraphBuildError, ValuedGraph, attach_covariates, build_graph
from blockfit.graph import EdgeColumns, EdgeCovariates
from blockfit.io import load_graph


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


def test_construction_leaves_the_callers_array_writeable():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    g = ValuedGraph(n=2, directed=False, value_kind="count", values=a)
    y = np.zeros((3, 3, 1))
    cov = EdgeCovariates(p=1, y=y)
    assert a.flags.writeable and y.flags.writeable
    assert not g.values.flags.writeable and not cov.y.flags.writeable
    with pytest.raises(ValueError):
        cov.y[0, 1, 0] = 1.0


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


def test_only_build_graph_skips_the_finiteness_scan():
    bad = np.array([[0.0, np.nan], [np.nan, 0.0]])
    with pytest.raises(GraphBuildError, match="non-finite"):
        ValuedGraph(n=2, directed=False, value_kind="real", values=bad)
    paired = np.zeros((2, 2, 2))
    paired[0, 1, 1] = paired[1, 0, 0] = np.inf
    with pytest.raises(GraphBuildError, match="non-finite"):
        ValuedGraph(n=2, directed=False, value_kind="paired", values=paired)
    g = ValuedGraph.from_matrix(np.ones((2, 2)), directed=False, value_kind="real")
    with pytest.raises(GraphBuildError, match="non-finite"):
        dataclasses.replace(g, values=bad)
    # build_graph checks each entry instead, and gives the same graph
    rng = np.random.default_rng(5)
    X = np.triu(rng.poisson(0.05, (40, 40)).astype(float), 1)
    X += X.T
    entries = [(i, j, X[i, j]) for i, j in zip(*np.nonzero(np.triu(X)))]
    built = build_graph(40, False, entries, "count", fill=0)
    want = ValuedGraph.from_matrix(X, directed=False)
    assert built.values.tobytes() == want.values.tobytes()
    assert (built.sparse_values != want.sparse_values).nnz == 0


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_build_graph_seeds_the_dense_csr_view(data):
    """The CSR view seeded from the entries is the one the dense values give."""
    draw = data.draw
    kind = draw(st.sampled_from(["count", "real", "paired"]))
    paired = kind == "paired"
    directed = not paired and draw(st.booleans())
    n = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    density = draw(st.sampled_from([0.0, 0.02, 0.05, 0.3]))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j and (directed or i < j)]
    listed = rng.random(len(pairs)) < draw(st.sampled_from([1.0, 0.97, 0.3]))
    entries = []
    for (i, j), kept in zip(pairs, listed):
        val = tuple(rng.choice([1.0, 2.0]) if rng.random() < density else rng.choice([0.0, -0.0])
                    for _ in range(2 if paired else 1))
        if kept and not directed and rng.random() < 0.5:
            entries.append((j, i, val[::-1]))
        elif kept:
            entries.append((i, j, val))
    fills = [(0.0, 0.0), (-0.0, 0.0), (0.0, 1.0), (1.0, 0.0)] if paired else [0.0, -0.0, 1.0]
    fill = None if listed.all() else draw(st.sampled_from(fills))

    g = build_graph(n, directed, entries, kind, fill=fill)
    if not np.any(fill):
        assert "sparse_values" in vars(g)  # seeded at build, no pass over the dense values
    want = ValuedGraph(n=n, directed=directed, value_kind=kind, values=g.values).sparse_values
    got = g.sparse_values
    assert (got is None) == (want is None)
    if want is not None:
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert got.shape == want.shape and got.has_canonical_format


NUM_LABELS = 3


def _mirrored(vals):
    """values[j, i] for every (i, j): the transpose, couples swapped for "paired"."""
    return vals[:, :, ::-1].transpose(1, 0, 2) if vals.ndim == 3 else vals.T


def _ways_in(n, directed, kind, vals):
    """Build the graph of the zero-diagonal array ``vals`` through every way in."""
    m = NUM_LABELS if kind == "label" else None
    entries = [(i, j, tuple(vals[i, j].tolist()) if vals.ndim == 3 else float(vals[i, j]))
               for i in range(n) for j in range(n) if i != j]  # both orientations
    base = ValuedGraph(n=2, directed=True, value_kind="real", values=np.zeros((2, 2)))

    def load():
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "edges.csv"
            with open(path, "w", newline="", encoding="utf-8") as fh:
                w = csv.writer(fh, lineterminator="\n")
                w.writerow(["i", "j", "v1", "v2"] if kind == "paired" else ["i", "j", "value"])
                w.writerows([i, j, *map(repr, np.atleast_1d(v).tolist())] for i, j, v in entries)
            return load_graph(path, directed=directed, value_kind=kind, num_labels=m, n=n)

    return {
        "constructor": lambda: ValuedGraph(n=n, directed=directed, value_kind=kind,
                                           values=vals.copy(), num_labels=m),
        "replace": lambda: dataclasses.replace(base, n=n, directed=directed, value_kind=kind,
                                               values=vals.copy(), num_labels=m),
        "from_matrix": lambda: ValuedGraph.from_matrix(vals, directed, kind, num_labels=m),
        "build_graph": lambda: build_graph(n, directed, entries, kind, num_labels=m),
        "load_graph": load,
    }


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_every_way_in_checks_values_alike(data):
    """Each way into a graph refuses the same values and stores the same bytes."""
    draw = data.draw
    kind = draw(st.sampled_from(["count", "label", "real", "paired"]))
    paired = kind == "paired"
    directed = not paired and draw(st.booleans())
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (n, n, 2) if paired else (n, n)
    if kind == "count":
        vals = rng.integers(0, 5, shape).astype(float)
    elif kind == "label":
        vals = rng.integers(1, NUM_LABELS + 1, shape).astype(float)
    else:
        vals = rng.normal(0.0, 2.0, shape)
    if not directed:
        upper = np.triu(np.ones((n, n), dtype=bool))
        vals = np.where(upper[:, :, None] if paired else upper, vals, _mirrored(vals))
    vals[np.arange(n), np.arange(n)] = 0.0

    # one off-diagonal value, maybe out of its domain, and maybe without its mirror
    x = draw(st.sampled_from([None, 2.5, -1.0, 0.0, NUM_LABELS + 1.0, np.nan]))
    if x is not None:
        i, j = draw(st.sampled_from([(i, j) for i in range(n) for j in range(n) if i != j]))
        at, mirror = (i, j), (j, i)
        if paired:
            c = draw(st.integers(0, 1))
            at, mirror = (i, j, c), (j, i, 1 - c)
        vals[at] = x
        if not directed and draw(st.booleans()):
            vals[mirror] = x
    off = vals[~np.eye(n, dtype=bool)]
    in_domain = {"count": (off >= 0) & (off == np.trunc(off)),
                 "label": (off >= 1) & (off <= NUM_LABELS) & (off == np.trunc(off)),
                 "real": np.isfinite(off), "paired": np.isfinite(off)}[kind].all()
    valid = in_domain and (directed or np.array_equal(vals, _mirrored(vals)))

    got = {}
    for way, build in _ways_in(n, directed, kind, vals).items():
        if valid:
            got[way] = build().values.tobytes()
        else:
            with pytest.raises(GraphBuildError):
                build()
    assert len(set(got.values())) <= 1
    if valid:
        assert got["constructor"] == vals.tobytes()


@pytest.mark.parametrize("kind, directed, x01, x10", [
    ("count", False, 2.5, 2.5),  # log X! would truncate it
    ("count", True, -1.0, 0.0),  # np.bincount would refuse it inside fit
    ("label", True, 7.0, 1.0),  # beyond m = 2
    ("real", False, 1.0, 2.0),  # an asymmetric undirected matrix
])
def test_direct_construction_refuses_values_outside_the_model(kind, directed, x01, x10):
    vals = np.array([[0.0, x01, 1.0], [x10, 0.0, 1.0], [1.0, 1.0, 0.0]])
    with pytest.raises(GraphBuildError, match=r"\(0,1\)|\(1,0\)"):
        ValuedGraph(n=3, directed=directed, value_kind=kind, values=vals,
                    num_labels=2 if kind == "label" else None)


def test_a_write_to_the_callers_array_changes_no_graph():
    a = np.zeros((30, 30))
    a[0, 1] = a[1, 0] = 1.0
    g = ValuedGraph(n=30, directed=False, value_kind="count", values=a)
    view = g.sparse_values  # cached before the write
    y = np.zeros((3, 3, 1))
    cov = EdgeCovariates(p=1, y=y)
    a[0, 1] = 2.5
    y[0, 1, 0] = 4.0
    assert g.values[0, 1] == 1.0 and g.value(0, 1) == 1.0
    assert g.sparse_values is view and view[0, 1] == 1.0
    assert cov.y[0, 1, 0] == 0.0 and cov.symmetric


def test_ways_in_that_make_their_own_array_copy_it_no_more():
    """from_matrix, build_graph and EdgeCovariates.from_matrix allocate one
    n x n array, which the constructor keeps instead of copying."""
    n = 512
    one = n * n * 8
    rng = np.random.default_rng(3)
    vals = rng.normal(size=(n, n))
    vals = vals + vals.T
    entries = EdgeColumns(np.arange(n - 1), np.arange(1, n), np.ones((n - 1, 1)))
    builds = {
        "from_matrix": lambda: ValuedGraph.from_matrix(vals, False, "real"),
        "build_graph": lambda: build_graph(n, False, entries, "real", fill=0.0),
        "covariates": lambda: EdgeCovariates.from_matrix(vals, directed=False),
    }
    for way, build in builds.items():
        tracemalloc.start()
        try:
            kept = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert one <= peak < 1.5 * one, way
        del kept
