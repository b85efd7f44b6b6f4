"""Count graphs that build_graph keeps as their CSR array alone."""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import blockfit as bf
from blockfit import FamilySpec, ValuedGraph, build_graph
from blockfit.graph import CSR_MAX_DENSITY
from blockfit.io import load_graph, write_fit_json
from blockfit.predict import prediction_report
from blockfit.selection import icl

POISSON = FamilySpec("poisson")


def _csr_only(g):
    """Whether ``g`` holds no dense values."""
    return vars(g)["_values"] is None


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_csr_only_graph_behaves_as_its_dense_twin(data):
    """build_graph's CSR-only graph and from_matrix's dense graph of the same
    values agree bit for bit: values, degrees, fits, ICL and reports."""
    draw = data.draw
    kind = draw(st.sampled_from(["poisson", "bernoulli"]))
    directed = draw(st.booleans())
    n = draw(st.integers(10, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    iu, ju = np.nonzero(~np.eye(n, dtype=bool)) if directed else np.triu_indices(n, 1)
    budget = int(CSR_MAX_DENSITY * n * n) // (1 if directed else 2)
    pick = rng.choice(iu.size, draw(st.integers(2, budget)), replace=False)
    X = np.zeros((n, n))
    X[iu[pick], ju[pick]] = rng.integers(1, 10, pick.size) if kind == "poisson" else 1.0
    if not directed:
        X += X.T
    listed = rng.random(iu.size) < draw(st.sampled_from([0.0, 0.1]))  # some zeros too
    listed[pick] = True
    a, b = iu[listed], ju[listed]
    flip = (not directed) & (rng.random(a.size) < 0.5)  # undirected pairs either way round
    a, b = np.where(flip, b, a), np.where(flip, a, b)
    entries = [(i, j, X[i, j]) for i, j in zip(a.tolist(), b.tolist())]

    g = build_graph(n, directed, entries, "count", fill=0)
    twin = ValuedGraph.from_matrix(X, directed)
    assert _csr_only(g)
    for i, j in rng.integers(0, n, (50, 2)).tolist():
        if i != j:
            assert g.value(i, j) == twin.value(i, j)
    assert g.weighted_degrees().tobytes() == twin.weighted_degrees().tobytes()

    spec = FamilySpec(kind)
    Q, seed = draw(st.integers(1, 3)), draw(st.integers(0, 1000))
    fits = [bf.fit(h, spec, Q, restarts=2, seed=seed) for h in (g, twin)]
    assert fits[0].map_assignment.tolist() == fits[1].map_assignment.tolist()
    assert fits[0].bound_trajectory == fits[1].bound_trajectory
    assert fits[0].diagnostics == fits[1].diagnostics
    assert icl(g, spec, fits[0]) == icl(twin, spec, fits[1])
    reports = []
    for h, fr in zip((g, twin), fits):
        try:
            reports.append(prediction_report(fr, h))
        except ValueError as exc:  # constant degrees, or all predictions exact
            reports.append(str(exc))
    assert _csr_only(g)  # nothing above built the dense values
    if isinstance(reports[0], str):
        assert reports[0] == reports[1]
    else:
        rep, want = reports
        assert (rep.r2_degrees, rep.r2_edges) == (want.r2_degrees, want.r2_edges)
        assert rep.predicted_degrees.tobytes() == want.predicted_degrees.tobytes()
        assert np.array_equal(rep.predicted_degrees, rep.predicted_edges.sum(axis=1))
        assert rep.predicted_edges.tobytes() == want.predicted_edges.tobytes()
    assert g.values.tobytes() == twin.values.tobytes()
    assert not g.values.flags.writeable and g.scalar_values is g.values


def _planted_edge_csv(path, n, per_node, seed):
    """A 3-class undirected count graph with about ``per_node`` non-zero
    pairs per node, written as its non-zero pairs, without an n x n array."""
    rng = np.random.default_rng(seed)
    z = rng.integers(0, 3, n)
    m = int(1.25 * per_node * n)  # about 40 % of the draws are kept
    i, j = rng.integers(0, n, m), rng.integers(0, n, m)
    keep = (i != j) & ((z[i] == z[j]) | (rng.random(m) < 0.1))
    key = np.unique(np.minimum(i, j)[keep] * n + np.maximum(i, j)[keep])
    a, b = key // n, key % n
    v = 1 + rng.poisson(np.where(z[a] == z[b], 2.0 + z[a], 0.5))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("i,j,value\n")
        fh.writelines(f"{x},{y},{w}\n" for x, y, w in zip(a.tolist(), b.tolist(), v.tolist()))


def test_the_sparse_chain_allocates_no_n_squared_array(tmp_path):
    """load -> fit -> ICL -> fit JSON -> report on n = 4000 stays far below
    one n x n float64 array (128 MB)."""
    n = 4000
    path = tmp_path / "edges.csv"
    _planted_edge_csv(path, n, 13, seed=4)
    tracemalloc.start()
    try:
        g = load_graph(path, n=n, fill=0)
        fr = bf.fit(g, POISSON, 3, restarts=1, seed=0)
        fr.icl = icl(g, POISSON, fr)
        write_fit_json(tmp_path / "fit.json", fr, POISSON)
        rep = prediction_report(fr, g, spec=POISSON)
        summary = (rep.r2_degrees, rep.r2_edges, rep.observed_degrees, rep.predicted_degrees)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fr.diagnostics["init"] == "spectral"  # Ward's start would build an n x n Gram
    assert peak < 32 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"
    assert _csr_only(g)
    assert all(np.isfinite(x).all() for x in summary)
    assert 0.0 < rep.r2_degrees <= 1.0


def test_the_prediction_csv_of_a_csr_only_graph_is_written_in_row_blocks(tmp_path):
    """blockfit predict's writer on n = 2000 stays far below one n x n
    float64 array (32 MB) and never builds the graph's dense values.

    The traced run hands each block's rows to a sink that drops them
    unformatted: formatting makes one short-lived string per row, which
    leaves the peak as it is but costs tracemalloc about 10 s here.  The
    untraced run writes the file.
    """
    from blockfit.io import write_prediction_csv

    class Sink:
        def write(self, text):
            pass

        def writelines(self, lines):
            pass

    n = 2000
    path = tmp_path / "edges.csv"
    _planted_edge_csv(path, n, 13, seed=5)
    g = load_graph(path, n=n, fill=0)
    rep = prediction_report(bf.fit(g, POISSON, 3, restarts=1, seed=0), g, spec=POISSON)
    tracemalloc.start()
    try:
        write_prediction_csv(Sink(), rep, g.directed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"
    out = tmp_path / "pred.csv"
    with open(out, "w", newline="", encoding="utf-8") as fh:
        write_prediction_csv(fh, rep, g.directed)
    assert _csr_only(g) and "predicted_edges" not in vars(rep)
    with open(out, encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == 1 + n + n * (n - 1) // 2 + 2
