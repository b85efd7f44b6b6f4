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
from blockfit.families import PoissonParams

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
