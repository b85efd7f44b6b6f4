"""Seeded outputs of the package's main calls, and the record that keeps them.

Every case below runs a public call at fixed seeds: ``fit`` for the nine
families in each orientation their value kind allows, the spectral,
hierarchical, random and given starts with both fallbacks, one
``select_q`` sweep that stops before the end of its range, ``run_experiment``
in both modes, ``icl`` and the R^2 of ``prediction_report``.  A case yields
three groups of outputs:

* ``exact`` -- labels, fitted and chosen Q, iteration counts and the start
  taken, which must match exactly;
* ``close`` -- bounds, ICL, RMSEs and R^2, which must match to
  ``REL_TOL`` relative: BLAS thread counts move bounds in the last bits;
* ``bits`` -- tau, the bound trajectories and the fitted parameters, for
  the hash only.

``tests/test_seeded_record.py`` recomputes the first two groups and
compares them with ``seeded_record.json``.  Usage::

    PYTHONPATH=src python tests/seeded_record.py          # rewrite the record
    PYTHONPATH=src python tests/seeded_record.py --diff   # what moved; exit 1 if any
    PYTHONPATH=src python tests/seeded_record.py --hash   # SHA-256 of every output

The hash covers the float bits of all three groups.  Two trees that hash
the same under ``OPENBLAS_NUM_THREADS=1`` compute the same numbers, bit for
bit; a refactor that must not move any result compares the two hashes.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

import blockfit as bf
from blockfit import FamilySpec, MixtureParams
from blockfit.families import (
    FAMILY_KINDS,
    BernoulliParams,
    BivariateGaussianParams,
    GaussianParams,
    LinearRegressionParams,
    MultinomialParams,
    PoissonParams,
    PoissonRegParams,
    SimpleRegressionParams,
)
from blockfit.graph import EdgeCovariates, ValuedGraph
from blockfit.predict import prediction_report
from blockfit.simulate import GridConfig, grid_params, run_experiment

RECORD = Path(__file__).with_name("seeded_record.json")
REL_TOL = 1e-10
N = 30
P = 2  # covariate dimension of PRMH, PRMI and linreg


def _sym(a, directed):
    """``a`` with its (Q, Q) block axes made symmetric when undirected."""
    return a if directed else 0.5 * (a + np.swapaxes(a, 0, 1))


def _covariates(rng, n, p, directed):
    y = rng.normal(0.0, 0.5, (n, n, p))
    if not directed:
        y = 0.5 * (y + np.swapaxes(y, 0, 1))
    return EdgeCovariates.from_matrix(y, directed)


def _theta(kind, Q, directed, rng):
    """Well-separated parameters of family ``kind`` at Q classes."""
    within = np.eye(Q, dtype=bool)
    if kind == "poisson":
        return PoissonParams(lam=np.where(within, 5.0, 0.8))
    if kind == "poisson-prmh":
        return PoissonRegParams(lam=np.where(within, 4.0, 0.7), beta=np.array([0.6, -0.4]))
    if kind == "poisson-prmi":
        beta = _sym(rng.normal(0.0, 0.4, (Q, Q, P)), directed)
        return PoissonRegParams(lam=np.where(within, 4.0, 0.7), beta=beta, shared=False)
    if kind == "bernoulli":
        return BernoulliParams(pi=np.where(within, 0.7, 0.1))
    if kind == "multinomial":
        probs = np.where(within[:, :, None], [0.7, 0.2, 0.1], [0.1, 0.2, 0.7])
        return MultinomialParams(probs=probs)
    if kind == "gaussian":
        return GaussianParams(mu=np.where(within, 2.0, -1.0), sigma2=np.where(within, 1.0, 1.5))
    if kind == "bigauss":
        mu = np.repeat(np.where(within, 1.5, -1.0)[:, :, None], 2, axis=2)
        cov = np.broadcast_to([[1.0, 0.3], [0.3, 1.0]], (Q, Q, 2, 2)).copy()
        return BivariateGaussianParams(mu=mu, cov=cov)
    if kind == "linreg":
        beta = _sym(rng.normal(0.0, 1.0, (Q, Q, P)), directed)
        beta[within] += 2.0
        return LinearRegressionParams(beta=beta, sigma2=np.full((Q, Q), 0.5))
    if kind == "simplereg":
        return SimpleRegressionParams(intercept=np.where(within, 2.0, -1.0), slope=0.8,
                                      sigma2=0.6)
    raise KeyError(kind)


def _spec(kind):
    if kind == "multinomial":
        return FamilySpec(kind, num_labels=3)
    if kind == "simplereg":
        return FamilySpec(kind, covariate_dim=1)
    if FamilySpec(kind).uses_covariates:
        return FamilySpec(kind, covariate_dim=P)
    return FamilySpec(kind)


def _family_instance(kind, directed, Q, seed):
    """(graph, covariates, spec) sampled from well-separated parameters."""
    rng = np.random.default_rng([seed, 7])
    spec = _spec(kind)
    cov = _covariates(rng, N, spec.covariate_dim, directed) if spec.uses_covariates else None
    alpha = np.full(Q, 1.0 / Q)
    theta = _theta(kind, Q, directed, rng)
    g, _ = bf.sample_graph(MixtureParams(alpha=alpha, theta=theta), N, directed, spec,
                           seed=[seed, 8], cov=cov)
    return g, cov, spec


def _fit_outputs(fr):
    exact = {"labels": fr.map_assignment.tolist(), "Q": fr.params.Q,
             "iterations": fr.iterations, "init": fr.diagnostics["init"],
             "restarts_failed": fr.diagnostics["restarts_failed"]}
    bits = {"tau": fr.posterior.tau, "trajectory": np.array(fr.bound_trajectory),
            "alpha": fr.params.alpha, **fr.params.theta.arrays()}
    return exact, {"bound": float(fr.bound)}, bits


def _merge(*parts):
    """Outputs of several calls in one case, keys prefixed by each part's name."""
    out = ({}, {}, {})
    for prefix, groups in parts:
        for mine, theirs in zip(out, groups):
            mine.update({f"{prefix}{k}": v for k, v in theirs.items()})
    return out


def _family_case(kind, directed, Q, seed):
    g, cov, spec = _family_instance(kind, directed, Q, seed)
    fr = bf.fit(g, spec, Q, cov, seed=seed, restarts=2)
    extra = {"icl": bf.icl(g, spec, fr, cov)}
    if kind not in ("multinomial", "bigauss"):
        report = prediction_report(fr, g, cov)
        extra.update(r2_degrees=report.r2_degrees, r2_edges=report.r2_edges)
    return _merge(("", _fit_outputs(fr)), ("", ({}, extra, {})))


def _planted_sparse(seed, n=400):
    """A planted three-class Poisson graph of about 4 % density, with a CSR view."""
    g, _ = bf.sample_graph(grid_params(0.7, 0.04, 0.1, 3), n, False, FamilySpec("poisson"),
                           seed=seed)
    assert g.sparse_values is not None
    return g


def _start_cases():
    poisson = FamilySpec("poisson")
    sparse = _planted_sparse([4, 36])
    dense, _, _ = _family_instance("poisson", False, 3, 11)
    labels = np.arange(N) % 3
    overflow = dense.values.copy()
    overflow[0, 1] = overflow[1, 0] = 1e155  # squared profile distances overflow to inf
    overflow = ValuedGraph.from_matrix(overflow, directed=False)
    return {
        "start/spectral-csr": lambda: bf.fit(sparse, poisson, 3, seed=0, restarts=1),
        "start/spectral-to-hierarchical": lambda: bf.fit(sparse, poisson, 4, seed=0, restarts=1),
        "start/hierarchical": lambda: bf.fit(dense, poisson, 3, seed=1, restarts=2,
                                             init="hierarchical"),
        "start/random": lambda: bf.fit(dense, poisson, 3, seed=2, restarts=2, init="random"),
        "start/given": lambda: bf.fit(dense, poisson, 3, seed=3, restarts=2, init=labels),
        "start/hierarchical-to-random": lambda: bf.fit(overflow, poisson, 3, seed=4, restarts=1),
    }


def _sweep_case():
    g, _, spec = _family_instance("poisson", False, 2, 21)
    res = bf.select_q(g, spec, range(1, 7), seed=5, fit_options={"restarts": 2})
    fitted = [rec.q for rec in res.records]
    exact = {"fitted_q": fitted, "skipped": res.skipped, "chosen_q": res.chosen_q,
             "iterations": [rec.fit.iterations for rec in res.records],
             "labels": res.best_fit.map_assignment.tolist()}
    close = {"icl": [rec.icl for rec in res.records],
             "bounds": [float(rec.fit.bound) for rec in res.records]}
    bits = {f"tau_{rec.q}": rec.fit.posterior.tau for rec in res.records}
    return exact, close, bits


def _experiment_cases():
    cell = GridConfig(n=N, a=0.7, lam=3.0, gamma_ratio=0.2, q_star=2, s=4, seed=3)

    def estimation():
        rep = run_experiment(cell, mode="estimation", fit_options={"restarts": 2})
        close = {"rmse_alpha": rep.rmse_alpha.tolist(),
                 "rmse_lambda": rep.rmse_lambda.ravel().tolist(),
                 "entropy": rep.mean_normalized_entropy}
        return {"done": rep.replicates_done, "failed": rep.replicates_failed}, close, {}

    def selection():
        rep = run_experiment(cell, mode="selection", q_max=4, fit_options={"restarts": 1})
        freq = {str(q): f for q, f in sorted(rep.q_frequencies.items())}
        return {"done": rep.replicates_done, "frequencies": freq}, {}, {}

    return {"experiment/estimation": estimation, "experiment/selection": selection}


def cases():
    """Case name -> callable returning its (exact, close, bits) outputs."""
    out = {}
    for Q, kind in zip([2, 3, 2, 3, 2, 3, 2, 3, 2], FAMILY_KINDS):
        for directed in (False, True):
            if directed and kind == "bigauss":
                continue  # paired values are undirected only
            name = f"fit/{kind}/{'directed' if directed else 'undirected'}/Q{Q}"
            out[name] = lambda k=kind, d=directed, q=Q: _family_case(k, d, q, seed=Q + 10 * d)
    for name, call in _start_cases().items():
        out[name] = lambda call=call: _fit_outputs(call())
    out["select_q/stops-early"] = _sweep_case
    out.update(_experiment_cases())
    return out


def outputs():
    """Case name -> (exact, close, bits), every case run once."""
    return {name: call() for name, call in cases().items()}


def record(outs):
    """The JSON record: the exact and close outputs of every case."""
    return {name: {"exact": exact, "close": close} for name, (exact, close, _) in outs.items()}


def digest(outs) -> str:
    """SHA-256 over every output, floats by their bits, in a fixed order."""
    h = hashlib.sha256()
    for name in sorted(outs):
        for group in outs[name]:
            for key in sorted(group):
                value = group[key]
                h.update(f"{name}/{key}".encode())
                if isinstance(value, (float, np.ndarray)) or (
                        isinstance(value, list) and value and isinstance(value[0], float)):
                    h.update(np.asarray(value, dtype=float).tobytes())
                else:
                    h.update(json.dumps(value, sort_keys=True).encode())
    return h.hexdigest()


def _relative_change(a, b):
    """Largest |b - a| / max(|a|, |b|) over paired entries (0 where equal)."""
    return max((0.0 if x == y else abs(y - x) / max(abs(x), abs(y)) for x, y in zip(a, b)),
               default=0.0)


def mismatches(want, got):
    """Lines naming each output of ``got`` that differs from the record
    ``want``: the exact fields that differ, and each close field that moved
    beyond ``REL_TOL``, with its relative change."""
    bad = []
    if sorted(want) != sorted(got):
        bad.append(f"cases differ: {sorted(set(want) ^ set(got))}")
    for name in sorted(set(want) & set(got)):
        w, g = want[name], got[name]
        for key in sorted(set(w["exact"]) | set(g["exact"])):
            old, new = w["exact"].get(key), g["exact"].get(key)
            if old != new:
                shown = f"{old!r} -> {new!r}" if len(repr(old)) + len(repr(new)) < 60 else "differ"
                bad.append(f"{name}: exact {key} {shown}")
        for key, value in sorted(w["close"].items()):
            a, b = np.atleast_1d(value), np.atleast_1d(g["close"].get(key, np.nan))
            if a.shape != b.shape:
                bad.append(f"{name}: close {key} has shape {b.shape}, recorded {a.shape}")
            elif not all(math.isclose(x, y, rel_tol=REL_TOL) for x, y in zip(a, b)):
                bad.append(f"{name}: close {key} moved by {_relative_change(a, b):.3g} relative")
    return bad


def load():
    with RECORD.open(encoding="utf-8") as fh:
        return json.load(fh)


def main(argv):
    outs = outputs()
    if argv == ["--hash"]:
        print(digest(outs))
        return 0
    if argv == ["--diff"]:
        bad = mismatches(load(), record(outs))
        print("\n".join(bad) or f"no case of {len(outs)} moved")
        return 1 if bad else 0
    if argv:
        print(__doc__.split("Usage::")[1].split("\n\n")[1], file=sys.stderr)
        return 2
    RECORD.write_text(json.dumps(record(outs), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(outs)} cases to {RECORD}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
