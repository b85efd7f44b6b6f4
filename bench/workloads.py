"""The four benchmark workloads: input generation, set-up, solve and checks.

Each workload is a class with these steps:

* ``generate(seed, workdir)`` draws the inputs with ``simulate.sample_graph``
  (or writes a grid config), stores them as the CSV/JSON files the ``io``
  module reads, and returns the manifest: one item per input, with its
  files and planted labels, under ``ITEMS``.  It runs in a child process
  and is never timed.
* ``load(item)`` turns one input's files into ``ValuedGraph`` (and
  ``EdgeCovariates``) objects, or into a ``GridConfig``, through the public
  ``io`` calls: the set-up.
* ``call(loaded, item)`` makes the call a user waits on for one input (a
  fit, an ICL sweep, the fit-and-predict chain, a grid cell).  Each is
  timed on its own; making it once for every input is one pass.
* ``check(outputs, manifest)`` validates what the calls of one pass
  returned and gives the operations attempted and failed plus the quality
  figures.

Every call into blockfit goes through a module attribute looked up at call
time (``engine.fit``, not a name bound at import), so the tracer's wrappers
are the ones called when tracing is on.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from blockfit import engine, io, predict, selection, simulate
from blockfit.engine import MixtureParams
from blockfit.families import FamilySpec, PoissonRegParams
from blockfit.graph import EdgeCovariates

POISSON = FamilySpec("poisson")
REL_TOL = 1e-9   # allowed relative decrease between bound_trajectory entries


# ---------------------------------------------------------------------------
# Shared helpers


def adjusted_rand_index(a, b) -> float:
    """ARI of two label vectors (Hubert & Arabie 1985)."""
    a = np.unique(np.asarray(a), return_inverse=True)[1]
    b = np.unique(np.asarray(b), return_inverse=True)[1]
    table = np.zeros((a.max() + 1, b.max() + 1))
    np.add.at(table, (a, b), 1.0)

    def pairs(x):
        return float(np.sum(x * (x - 1.0) / 2.0))

    total = pairs(np.array([a.size], dtype=float))
    both = pairs(table)
    rows, cols = pairs(table.sum(axis=1)), pairs(table.sum(axis=0))
    expected = rows * cols / total
    top = 0.5 * (rows + cols)
    if top == expected:
        return 1.0
    return (both - expected) / (top - expected)


def monotone(trajectory) -> bool:
    """True when no entry of the bound trajectory drops below the previous
    one by more than REL_TOL relative."""
    traj = [float(j) for j in trajectory]
    return all(b >= a - REL_TOL * max(1.0, abs(a)) for a, b in zip(traj, traj[1:]))


def n_pairs(n):
    """Node pairs of an undirected graph, the terms of J's edge sum."""
    return n * (n - 1) // 2


def write_edge_csv(path, values, keep_zeros=True):
    """Undirected edge list, one row per pair i < j, header i,j,value."""
    n = values.shape[0]
    iu, ju = np.triu_indices(n, 1)
    v = values[iu, ju]
    if not keep_zeros:
        nz = v != 0
        iu, ju, v = iu[nz], ju[nz], v[nz]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("i,j,value\n")
        fh.writelines(f"{i},{j},{int(x)}\n" for i, j, x in zip(iu.tolist(), ju.tolist(), v.tolist()))


def write_covariate_csv(path, y):
    """Undirected covariates, one row per pair i < j, header i,j,y1..yp."""
    n, _, p = y.shape
    iu, ju = np.triu_indices(n, 1)
    cols = [y[iu, ju, d].tolist() for d in range(p)]
    header = "i,j," + ",".join(f"y{d + 1}" for d in range(p)) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header)
        for row, (i, j) in enumerate(zip(iu.tolist(), ju.tolist())):
            fh.write(f"{i},{j}," + ",".join(repr(c[row]) for c in cols) + "\n")


@dataclass
class Checked:
    """What ``check`` found on one pass."""

    attempted: int = 0
    failed: int = 0
    quality: dict = field(default_factory=dict)   # end-to-end quality metrics
    details: dict = field(default_factory=dict)   # printed, not gated
    problems: list = field(default_factory=list)  # failed checks, one line each

    def operation(self, weight, ok, what):
        """Count ``weight`` operations, all failed when ``ok`` is false."""
        self.attempted += weight
        if not ok:
            self.failed += weight
            self.problems.append(what)

    def fail_all(self, what):
        """A check on the whole pass failed: every operation counts as failed."""
        self.problems.append(what)
        self.failed = self.attempted


def fit_checks(out: Checked, fr, labels, ari_floor, what):
    """Counts the fit's EM restarts as operations: the ones the fit reports
    as failed, or all of them when its bound decreased or its ARI is below
    the floor.  Returns the ARI."""
    ari = adjusted_rand_index(labels, fr.map_assignment)
    restarts = int(fr.diagnostics["restarts"])
    failed = int(fr.diagnostics["restarts_failed"])
    if not monotone(fr.bound_trajectory):
        out.operation(restarts, False, f"{what}: bound decreased")
    elif ari < ari_floor:
        out.operation(restarts, False, f"{what}: ARI {ari:.3f} < {ari_floor}")
    else:
        out.operation(restarts - failed, True, what)
        out.operation(failed, failed == 0, f"{what}: {failed} restarts failed")
    return ari


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    name = ""
    why = ""
    ITEMS = "graphs"     # manifest key of the per-input items

    def __init__(self, **size):
        for key, value in size.items():
            if not hasattr(self, key):
                raise TypeError(f"{self.name}: unknown size parameter {key!r}")
            setattr(self, key, value)

    def generate(self, seed, workdir):
        raise NotImplementedError

    def items(self, manifest):
        return manifest[self.ITEMS]

    def load(self, item):
        raise NotImplementedError

    def call(self, loaded, item):
        raise NotImplementedError

    def check(self, outputs, manifest) -> Checked:
        raise NotImplementedError

    def fits(self, outputs):
        """Every FitResult a pass returned."""
        raise NotImplementedError


class PmDense(Workload):
    """Full edge lists of Poisson PM graphs, one hierarchical-start fit each."""

    name = "pm-dense"
    why = ("three dense n=1000 Poisson graphs from full edge lists: CSV row parsing "
           "in set-up; dense score products, the E-step loop and Ward in the solve")
    n = 1000
    graphs = 3
    a, lam, gamma = 0.7, 1.0, 0.8
    Q = 3
    restarts = 1
    ari_floor = 0.8

    def generate(self, seed, workdir):
        truth = simulate.grid_params(self.a, self.lam, self.gamma, self.Q)
        items = []
        for k in range(self.graphs):
            g, z = simulate.sample_graph(truth, self.n, False, POISSON, seed=[seed, k])
            path = os.path.join(workdir, f"edges_{k}.csv")
            write_edge_csv(path, g.values)
            items.append({"edges": path, "labels": z.tolist(), "fit_seed": seed * 100 + k})
        return {"graphs": items}

    def load(self, item):
        return io.load_graph(item["edges"])

    def call(self, g, item):
        return engine.fit(g, POISSON, self.Q, restarts=self.restarts, seed=item["fit_seed"])

    def check(self, outputs, manifest):
        out = Checked()
        aris, per_pair = [], []
        for k, (fr, item) in enumerate(zip(outputs, manifest["graphs"])):
            aris.append(fit_checks(out, fr, item["labels"], self.ari_floor, f"graph {k}"))
            per_pair.append(-fr.bound / n_pairs(self.n))
        out.quality = {"ari": float(np.mean(aris)), "neg_bound_per_pair": float(np.mean(per_pair))}
        out.details = {"iterations": [fr.iterations for fr in outputs]}
        return out

    def fits(self, outputs):
        return list(outputs)


class PmSparse(Workload):
    """Sparse Poisson graphs given as their non-zero pairs and loaded with
    fill=0, each put through the calls of ``blockfit fit`` and
    ``blockfit predict``."""

    name = "pm-sparse"
    why = ("eight n=1000 graphs at 1.5% density: the n^2 fill loop in build_graph, Ward "
           "initialisation on dense profiles, ICL, fit JSON and prediction")
    n = 1000
    graphs = 8
    a, lam, gamma = 0.7, 0.015, 0.1
    Q = 3
    ari_floor = 0.8

    def generate(self, seed, workdir):
        truth = simulate.grid_params(self.a, self.lam, self.gamma, self.Q)
        items = []
        for k in range(self.graphs):
            g, z = simulate.sample_graph(truth, self.n, False, POISSON, seed=[seed, k])
            path = os.path.join(workdir, f"edges_{k}.csv")
            write_edge_csv(path, g.values, keep_zeros=False)
            items.append({"edges": path, "labels": z.tolist(), "fit_seed": seed * 100 + k,
                          "fit_json": os.path.join(workdir, f"fit_{k}.json")})
        return {"graphs": items}

    def load(self, item):
        return io.load_graph(item["edges"], n=self.n, fill=0)

    def call(self, g, item):
        """The calls of ``blockfit fit`` then ``blockfit predict``."""
        fr = engine.fit(g, POISSON, self.Q, restarts=1, seed=item["fit_seed"])
        fr.icl = selection.icl(g, POISSON, fr)
        io.write_fit_json(item["fit_json"], fr, POISSON,
                          extra={"n": g.n, "directed": g.directed, "covariate_mean": None})
        return fr, predict.prediction_report(fr, g, spec=POISSON)

    def check(self, outputs, manifest):
        out = Checked()
        aris, per_pair = [], []
        for k, ((fr, report), item) in enumerate(zip(outputs, manifest["graphs"])):
            aris.append(fit_checks(out, fr, item["labels"], self.ari_floor, f"graph {k}"))
            per_pair.append(-fr.bound / n_pairs(self.n))
            if not np.array_equal(report.predicted_degrees, report.predicted_edges.sum(axis=1)):
                out.fail_all(f"graph {k}: predicted_degrees != predicted_edges.sum(axis=1)")
            if not np.isfinite(fr.icl):
                out.fail_all(f"graph {k}: ICL is {fr.icl}")
        out.quality = {"ari": float(np.mean(aris)), "neg_bound_per_pair": float(np.mean(per_pair))}
        out.details = {"iterations": [fr.iterations for fr, _ in outputs],
                       "r2_degrees": [round(rep.r2_degrees, 4) for _, rep in outputs]}
        return out

    def fits(self, outputs):
        return [fr for fr, _ in outputs]


class PrmhSelect(Workload):
    """ICL sweeps Q = 1..q_max of the PRMH model, one per small graph with two
    covariates."""

    name = "prmh-select"
    why = ("ICL sweeps Q=1..6 of PRMH on 100 graphs of n=60 with 2 covariates: "
           "Newton M-steps, Gauss-Seidel fallbacks and ICL, where per-call overhead dominates")
    n = 60
    graphs = 100
    q_max = 6
    restarts = 1
    ari_floor = 0.8
    q_hit_floor = 0.5
    lam = ((6.0, 1.5, 0.5), (1.5, 4.0, 1.0), (0.5, 1.0, 2.5))
    beta = (-0.3, 0.2)

    @property
    def spec(self):
        return FamilySpec("poisson-prmh", covariate_dim=len(self.beta))

    def generate(self, seed, workdir):
        lam = np.array(self.lam)
        q = lam.shape[0]
        truth = MixtureParams(alpha=np.full(q, 1.0 / q),
                              theta=PoissonRegParams(lam=lam, beta=np.array(self.beta), shared=True))
        items = []
        for k in range(self.graphs):
            rng = np.random.default_rng([seed, k, 0])
            # y1: distance between node types; y2: symmetric pair noise
            t = rng.integers(0, 3, self.n).astype(float)
            y1 = np.abs(t[:, None] - t[None, :])
            noise = np.triu(rng.normal(size=(self.n, self.n)), 1)
            y2 = 0.5 * (noise + noise.T)
            cov = EdgeCovariates.from_matrix(np.stack([y1, y2], axis=2), directed=False)
            g, z = simulate.sample_graph(truth, self.n, False, self.spec, seed=[seed, k, 1], cov=cov)
            edges = os.path.join(workdir, f"edges_{k}.csv")
            covs = os.path.join(workdir, f"cov_{k}.csv")
            write_edge_csv(edges, g.values)
            write_covariate_csv(covs, cov.y)
            items.append({"edges": edges, "cov": covs, "labels": z.tolist(),
                          "q_star": q, "fit_seed": seed * 100 + k})
        return {"graphs": items}

    def load(self, item):
        g = io.load_graph(item["edges"])
        return g, io.load_covariates(g, item["cov"])

    def call(self, loaded, item):
        g, cov = loaded
        return selection.select_q(g, self.spec, range(1, self.q_max + 1), cov=cov,
                                  fit_options={"restarts": self.restarts}, seed=item["fit_seed"])

    def check(self, outputs, manifest):
        out = Checked()
        aris, per_pair, chosen = [], [], []
        for k, (sel, item) in enumerate(zip(outputs, manifest["graphs"])):
            for rec in sel.records:
                what = f"graph {k} Q={rec.q}"
                if rec.fit is None:
                    out.operation(1, False, f"{what}: {rec.error}")
                else:
                    out.operation(1, monotone(rec.fit.bound_trajectory), f"{what}: bound decreased")
            best = sel.best_fit
            aris.append(adjusted_rand_index(item["labels"], best.map_assignment))
            per_pair.append(-best.bound / n_pairs(self.n))
            chosen.append(sel.chosen_q)
        hits = float(np.mean([c == item["q_star"] for c, item in zip(chosen, manifest["graphs"])]))
        ari = float(np.mean(aris))
        if ari < self.ari_floor or hits < self.q_hit_floor:
            out.fail_all(f"mean ARI {ari:.3f} (floor {self.ari_floor}), "
                         f"q_hit_frac {hits:.2f} (floor {self.q_hit_floor})")
        out.quality = {"ari": ari, "neg_bound_per_pair": float(np.mean(per_pair))}
        out.details = {"chosen_q": chosen, "q_hit_frac": hits}
        return out

    def fits(self, outputs):
        return [rec.fit for sel in outputs for rec in sel.records if rec.fit is not None]


class SimCell(Workload):
    """Replicates of one estimation cell of the paper's simulation grid.

    Each replicate is its own ``run_experiment`` call on a one-replicate
    cell (seeded per replicate), so replicates are timed one by one: one
    Gauss-Seidel fallback costs 0.1-1 s against ~30 ms for a typical fit,
    and the interquartile mean of the replicates is steady where the cell
    total is not.
    """

    name = "sim-cell"
    why = ("340 replicates of the grid cell n=100 a=0.5 lambda=2 gamma=0.5, one "
           "run_experiment call each: tiny PM fits where per-fit overhead dominates")
    ITEMS = "configs"
    n, a, lam, gamma, q_star = 100, 0.5, 2.0, 0.5, 3
    cells = 340
    replicates = 1
    restarts = 3
    ari_floor = 0.5

    def generate(self, seed, workdir):
        paths = []
        for c in range(self.cells):
            paths.append(os.path.join(workdir, f"cell_{c}.json"))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                json.dump({"n": self.n, "a": self.a, "lambda": self.lam, "gamma": self.gamma,
                           "q_star": self.q_star, "s": self.replicates,
                           "seed": seed * 1000 + c}, fh)
        return {"configs": paths}

    @staticmethod
    def grid_config(path):
        """The GridConfig of a config file, as ``blockfit simulate`` reads it."""
        raw = io.read_grid_config(path)
        return simulate.GridConfig(n=raw["n"], a=raw["a"], lam=raw["lambda"],
                                   gamma_ratio=raw["gamma"], q_star=raw["q_star"],
                                   s=raw["s"], seed=raw["seed"])

    def load(self, path):
        return self.grid_config(path)

    def run_cell(self, config):
        """run_experiment on one cell; returns (report, [(fit, planted labels)]).

        The fits and planted labels made inside run_experiment are kept for
        the checks by a pass-through on the two names it calls, sample_graph
        then fit for each replicate."""
        kept, planted = [], []
        fit_fn, sample_fn = simulate.fit, simulate.sample_graph

        def keep_sample(*args, **kwargs):
            g, z = sample_fn(*args, **kwargs)
            planted.append(z)
            return g, z

        def keep_fit(*args, **kwargs):
            kept.append((fit_fn(*args, **kwargs), planted[-1]))
            return kept[-1][0]

        simulate.fit, simulate.sample_graph = keep_fit, keep_sample
        try:
            report = simulate.run_experiment(config, fit_options={"restarts": self.restarts})
        finally:
            simulate.fit, simulate.sample_graph = fit_fn, sample_fn
        return report, kept

    def call(self, config, path):
        return self.run_cell(config)

    def check(self, outputs, manifest):
        out = Checked()
        aris, per_pair = [], []
        for c, (report, kept) in enumerate(outputs):
            out.operation(report.replicates_failed, report.replicates_failed == 0,
                          f"cell {c}: {report.replicates_failed} replicates failed")
            if len(kept) != report.replicates_done:
                out.operation(report.replicates_done, False,
                              f"cell {c}: {len(kept)} fits seen, {report.replicates_done} reported")
            for r, (fr, z) in enumerate(kept):
                out.operation(1, monotone(fr.bound_trajectory), f"cell {c} replicate {r}: bound decreased")
                aris.append(adjusted_rand_index(z, fr.map_assignment))
                per_pair.append(-fr.bound / n_pairs(self.n))
        ari = float(np.mean(aris)) if aris else 0.0
        if ari < self.ari_floor:
            out.fail_all(f"mean ARI {ari:.3f} (floor {self.ari_floor})")
        out.quality = {"ari": ari, "neg_bound_per_pair": float(np.mean(per_pair)) if per_pair else 0.0}
        # RMSE over every replicate of the run, as one cell of that size gives
        truth = simulate.grid_params(self.a, self.lam, self.gamma, self.q_star)
        fitted = self.fits(outputs)
        if fitted:
            iu = np.triu_indices(self.q_star)
            lam = simulate.rmse(np.stack([fr.params.theta.lam for fr in fitted]), truth.theta.lam)
            out.details["rmse_lambda"] = float(np.mean(lam[iu]))
        out.details["replicates_failed"] = sum(rep.replicates_failed for rep, _ in outputs)
        return out

    def fits(self, outputs):
        return [fr for _, kept in outputs for fr, _ in kept]


WORKLOADS = {w.name: w for w in (PmDense, PmSparse, PrmhSelect, SimCell)}
