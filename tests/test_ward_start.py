"""The Ward (hierarchical) start: its memory check and its lazy imports."""

import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import blockfit as bf
from blockfit import FamilySpec, build_graph, engine
from blockfit import graph as graph_module
from blockfit.engine import init_partition
from blockfit.graph import ValuedGraph
from blockfit.simulate import grid_params

POISSON = FamilySpec("poisson")


def dense_graph(n, directed=False, seed=0):
    g, _ = bf.sample_graph(grid_params(0.5, 2.0, 0.5, 3), n, directed, POISSON, seed=seed)
    assert g.sparse_values is None
    return g


def sparse_graph(n, directed=False, seed=0, lam=0.04):
    """A planted three-class count graph that holds only its CSR array."""
    h, _ = bf.sample_graph(grid_params(0.7, lam, 0.1, 3), n, directed, POISSON, seed=seed)
    X = h.values if directed else np.triu(h.values)
    i, j = np.nonzero(X)
    g = build_graph(n, directed, list(zip(i.tolist(), j.tolist(), X[i, j].tolist())), "count",
                    fill=0)
    assert vars(g)["_values"] is None
    return g


def paired_graph(n, seed=0):
    rng = np.random.default_rng(seed)
    A, B = np.triu(rng.normal(size=(n, n)), 1), np.triu(rng.normal(size=(n, n)), 1)
    return ValuedGraph.from_matrix(np.stack([A + B.T, B + A.T], axis=2), False, "paired")


def too_little_memory(monkeypatch, phys=2 ** 10):
    monkeypatch.setattr(graph_module, "_physical_memory", lambda: phys)


def test_a_ward_start_too_large_for_memory_is_refused_before_it_allocates(monkeypatch):
    n = 2000
    g = dense_graph(n)
    need = engine._ward_peak_bytes(g)
    assert need == 12 * n * n
    too_little_memory(monkeypatch, phys=need - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            init_partition(g, 3, strategy="hierarchical")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == (
        f"hierarchical start: Ward linkage on n={n} nodes needs {need / 2 ** 30:.1f} GiB, "
        f"more than the {(need - 1) / 2 ** 30:.1f} GiB of physical memory")
    assert peak < n * n // 16, f"peak {peak} bytes"
    # the other starts allocate no n^2 distances and are not checked
    assert init_partition(g, 3, strategy="random", seed=0).tau.shape == (n, 3)


@pytest.mark.parametrize("make", [
    lambda: dense_graph(300),
    lambda: dense_graph(300, directed=True),
    lambda: paired_graph(300),
    lambda: sparse_graph(300, lam=0.03),
    lambda: sparse_graph(300, directed=True, lam=0.03),
], ids=["dense", "dense-directed", "paired", "csr", "csr-directed"])
def test_the_checked_bytes_cover_the_ward_start(make):
    """The bytes checked are within 1 % of the start's traced peak, or above
    it; the first start, which imports the linkage, runs untraced."""
    g = make()
    init_partition(g, 3, strategy="hierarchical")
    tracemalloc.start()
    try:
        init_partition(g, 3, strategy="hierarchical")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.01 * engine._ward_peak_bytes(g)


@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
def test_a_csr_graphs_gram_matrix_is_filled_without_a_whole_sparse_product(directed):
    """Near 5 % density, a whole sparse product X X^T held beside the dense
    Gram matrix took the start to 18.8 n^2 bytes (26.8 n^2 directed); row
    blocks keep it near the 12 n^2 of G and its condensed copy."""
    n = 2000
    g = sparse_graph(n, directed=directed, lam=0.05)
    assert 0.04 < g.sparse_values.nnz / (n * n) <= 0.05
    init_partition(g, 3, strategy="hierarchical")
    tracemalloc.start()
    try:
        init_partition(g, 3, strategy="hierarchical")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12.7 * n * n
    assert peak <= engine._ward_peak_bytes(g)


def test_fit_on_a_dense_graph_falls_back_to_random_when_ward_would_not_fit(monkeypatch):
    g = dense_graph(60)
    want = bf.fit(g, POISSON, 3, restarts=2, seed=5, init="random")
    too_little_memory(monkeypatch)
    fr = bf.fit(g, POISSON, 3, restarts=2, seed=5)
    assert fr.diagnostics["init"] == "random"
    assert fr.diagnostics["init_fallback"].startswith(
        "hierarchical start failed, random start used: hierarchical start: Ward linkage on "
        "n=60 nodes needs 0.0 GiB, more than the 0.0 GiB of physical memory")
    assert fr.bound_trajectory == want.bound_trajectory
    assert np.array_equal(fr.posterior.tau, want.posterior.tau)


def test_fit_on_a_csr_graph_names_both_fallbacks(monkeypatch):
    g = sparse_graph(400, seed=[4, 36])
    too_little_memory(monkeypatch)
    fr = bf.fit(g, POISSON, 4, restarts=1, seed=0)
    assert fr.diagnostics["init"] == "random"
    spectral, ward = fr.diagnostics["init_fallback"].split("; ")
    assert spectral.startswith("spectral start failed, hierarchical start used: "
                               "spectral start: 3 of the 4 leading eigenvalues")
    assert ward.startswith("hierarchical start failed, random start used: "
                           "hierarchical start: Ward linkage on n=400 nodes needs")
    assert vars(g)["_values"] is None


@pytest.mark.parametrize("phys", [None, 2 ** 62])
def test_enough_memory_leaves_the_ward_start_as_it_was(monkeypatch, phys):
    """A host with the memory, or one that does not report it, fits as
    before the check."""
    g = dense_graph(80, seed=3)
    want = bf.fit(g, POISSON, 3, restarts=2, seed=1)
    monkeypatch.setattr(graph_module, "_physical_memory", lambda: phys)
    got = bf.fit(g, POISSON, 3, restarts=2, seed=1)
    assert got.diagnostics["init"] == "hierarchical" and got.diagnostics["init_fallback"] is None
    assert got.bound_trajectory == want.bound_trajectory
    assert np.array_equal(got.posterior.tau, want.posterior.tau)


CHAIN = r"""
import json, sys
import numpy as np
import blockfit as bf
import blockfit.cli
from blockfit import FamilySpec, ValuedGraph, build_graph
from blockfit.io import write_fit_json
from blockfit.predict import prediction_report
from blockfit.selection import icl
from blockfit.simulate import grid_params

def clustering():
    return sorted(m for m in sys.modules if m.startswith(("scipy.cluster", "scipy.spatial")))

out = {"import": clustering()}
poisson = FamilySpec("poisson")
h, _ = bf.sample_graph(grid_params(0.7, 0.04, 0.1, 3), 300, False, poisson, seed=1)
X = np.triu(h.values)
i, j = np.nonzero(X)
rows = list(zip(i.tolist(), j.tolist(), X[i, j].tolist()))
g = build_graph(300, False, rows, "count", fill=0)
fr = bf.fit(g, poisson, 3, restarts=2, seed=0)
fr.icl = icl(g, poisson, fr)
write_fit_json(sys.argv[1] + "/fit.json", fr, poisson)
rep = prediction_report(fr, g, spec=poisson)
out["csr_only"] = vars(g)["_values"] is None
out["init"] = fr.diagnostics["init"]
out["chain"] = clustering()
with open(sys.argv[1] + "/edges.csv", "w") as fh:
    fh.write("i,j,value\n" + "".join(f"{a},{b},{v}\n" for a, b, v in rows))
main = blockfit.cli.main
codes = [main(["fit", "--edges", sys.argv[1] + "/edges.csv", "--n", "300", "--fill", "0",
               "--q", "3", "--restarts", "1", "--out", sys.argv[1] + "/cli.json"]),
         main(["predict", "--fit", sys.argv[1] + "/cli.json", "--edges",
               sys.argv[1] + "/edges.csv", "--fill", "0", "--out", sys.argv[1] + "/pred.csv"]),
         main(["report", "--fit", sys.argv[1] + "/cli.json"])]
out["cli"] = clustering()
out["codes"] = codes
dense = ValuedGraph.from_matrix(h.values + 3.0 * (1 - np.eye(300)), False)
out["dense_init"] = bf.fit(dense, poisson, 3, restarts=1, seed=0).diagnostics["init"]
out["ward"] = clustering()
print(json.dumps(out))
"""


def test_only_a_ward_start_loads_scipys_clustering_modules(tmp_path):
    """In a fresh interpreter, import, a spectral fit, ICL, the fit JSON, the
    prediction report and the CLI's fit, predict and report on a CSR-only
    graph load neither scipy.cluster nor scipy.spatial; a dense fit's Ward
    start does."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(bf.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", CHAIN, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["csr_only"] and out["init"] == "spectral" and out["codes"] == [0, 0, 0]
    assert out["import"] == out["chain"] == out["cli"] == []
    assert out["dense_init"] == "hierarchical"
    assert "scipy.cluster.hierarchy" in out["ward"]
    assert "scipy.spatial.distance" in out["ward"]
