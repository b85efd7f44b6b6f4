"""The benchmark tracer's hooks still fit the package.

``bench/tracer.py`` rebinds the entry points it lists and reads each one
from its owner's ``__dict__``, so renaming or deleting one of them makes
every traced benchmark run fail.  These tests catch that without running
the benchmark.
"""

import sys
from pathlib import Path

import numpy as np

import blockfit as bf
from blockfit import FamilySpec, engine, io, predict, selection
from blockfit.engine import MixtureParams
from blockfit.families import PoissonParams, PoissonRegParams
from blockfit.graph import EdgeCovariates

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
import tracer  # noqa: E402

POISSON = FamilySpec("poisson")


def test_every_entry_point_is_defined_on_its_owner():
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _ in tracer.ENTRY_POINTS if attr not in owner.__dict__]
    assert missing == []


def test_tracer_wraps_a_fit_and_restores_the_package():
    params = MixtureParams(alpha=np.array([0.5, 0.5]),
                           theta=PoissonParams(lam=np.array([[5.0, 0.5], [0.5, 2.0]])))
    g, _ = bf.sample_graph(params, 20, False, POISSON, seed=0)
    spans = tracer.Tracer()
    try:
        spans.install()
        bf.fit(g, POISSON, 2, seed=0, restarts=1)
    finally:
        spans.restore()
    assert spans.restored()
    totals = spans.totals(0)
    assert {"engine.fit", "engine.mstep", "families.node_scores"} <= set(totals)


def test_tracer_records_the_fit_and_predict_chain(tmp_path):
    """The calls of ``blockfit fit`` then ``blockfit predict``, as the
    pm-sparse workload makes them, each reach their traced entry point."""
    params = MixtureParams(alpha=np.array([0.5, 0.5]),
                           theta=PoissonParams(lam=np.array([[4.0, 0.2], [0.2, 1.5]])))
    g, _ = bf.sample_graph(params, 16, False, POISSON, seed=1)
    spans = tracer.Tracer()
    try:
        spans.install()
        fr = engine.fit(g, POISSON, 2, seed=0, restarts=1)
        fr.icl = selection.icl(g, POISSON, fr)
        io.write_fit_json(tmp_path / "fit.json", fr, POISSON)
        predict.prediction_report(fr, g, spec=POISSON)
    finally:
        spans.restore()
    assert spans.restored()
    totals = spans.totals(0)
    chain = {"engine.fit", "selection.icl", "io.write_fit_json", "predict.prediction_report"}
    assert chain <= set(totals)
    assert all(totals[name][0] == 1 for name in chain)


def test_tracer_records_the_prmh_mstep():
    """A PRMH fit hands its M-step workspace through ``engine.mstep`` to
    ``families.weighted_mle``; both spans must still be recorded, or the
    prmh-select layer metrics of the benchmark read zero."""
    spec = FamilySpec("poisson-prmh", covariate_dim=2)
    rng = np.random.default_rng(2)
    n = 16
    y = rng.normal(size=(n, n, 2))
    cov = EdgeCovariates.from_matrix(y + y.transpose(1, 0, 2), directed=False)
    params = MixtureParams(alpha=np.array([0.5, 0.5]),
                           theta=PoissonRegParams(lam=np.array([[4.0, 0.5], [0.5, 2.0]]),
                                                  beta=np.array([-0.3, 0.2]), shared=True))
    g, _ = bf.sample_graph(params, n, False, spec, seed=3, cov=cov)
    spans = tracer.Tracer()
    try:
        spans.install()
        fr = bf.fit(g, spec, 2, cov, seed=0, restarts=1)
    finally:
        spans.restore()
    assert spans.restored()
    totals = spans.totals(0)
    assert {"engine.mstep", "families.weighted_mle"} <= set(totals)
    # one M-step per EM iteration plus the one that starts the run
    assert totals["engine.mstep"][0] == totals["families.weighted_mle"][0] == fr.iterations + 1


def test_tracer_records_the_start_of_a_sparse_fit():
    """A graph with a CSR view takes the spectral start through
    ``engine.init_partition``, so ``engine.init_partition_s`` keeps
    measuring the start on the pm-sparse workload."""
    params = MixtureParams(alpha=np.array([0.5, 0.5]),
                           theta=PoissonParams(lam=np.array([[0.08, 0.01], [0.01, 0.06]])))
    g, _ = bf.sample_graph(params, 200, False, POISSON, seed=4)
    assert g.sparse_values is not None
    spans = tracer.Tracer()
    try:
        spans.install()
        fr = engine.fit(g, POISSON, 2, seed=0, restarts=1)
    finally:
        spans.restore()
    assert spans.restored()
    assert fr.diagnostics["init"] == "spectral"
    assert spans.totals(0)["engine.init_partition"][0] == 1


def test_tracer_records_the_load_path(tmp_path):
    """``io.load_graph`` parses through ``io.read_edge_csv`` and
    ``io.load_covariates`` attaches through ``graph.attach_covariates``, so
    the CSV layer metrics of the benchmark read non-zero on every workload
    that loads files."""
    edges = tmp_path / "edges.csv"
    edges.write_text("i,j,value\n0,1,2\n0,2,0\n1,2,5\n", encoding="utf-8")
    covs = tmp_path / "cov.csv"
    covs.write_text("i,j,y1,y2\n0,1,1.0,0.5\n0,2,-1.0,2.0\n1,2,0.0,1.5\n", encoding="utf-8")
    spans = tracer.Tracer()
    try:
        spans.install()
        g = io.load_graph(edges)
        cov = io.load_covariates(g, covs)
    finally:
        spans.restore()
    assert spans.restored()
    assert g.value(2, 1) == 5.0 and cov.vector(1, 2).tolist() == [0.0, 1.5]
    totals = spans.totals(0)
    layers = ("io.read_edge_csv", "graph.build_graph", "io.load_covariates",
              "graph.attach_covariates")
    assert {name: totals.get(name, (0,))[0] for name in layers} == dict.fromkeys(layers, 1)
    parent = {name: spans.spans[up][0] for name, _, _, up, _ in spans.spans if up is not None}
    assert parent == {"io.read_edge_csv": "io.load_graph", "graph.build_graph": "io.load_graph",
                      "graph.attach_covariates": "io.load_covariates"}
