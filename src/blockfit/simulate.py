"""Synthetic graph generation and the simulation-study harness.

The grid parameterization: proportions alpha_q proportional to a**q
(descending), within-class intensity lambda' on the diagonal and
lambda' * gamma_ratio off it, with lambda' solved so the mean connection
intensity sum_ql alpha_q alpha_l lambda_ql equals the requested lambda
whatever (a, gamma_ratio) are:

    lambda' = lambda / (s + gamma_ratio * (1 - s)),   s = sum_q alpha_q**2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import families
from .engine import FitResult, MixtureParams, fit
from .errors import BlockfitError, NumericalError
from .families import FamilySpec, PoissonParams
from .graph import EdgeCovariates, ValuedGraph
from .selection import select_q


@dataclass(frozen=True)
class GridConfig:
    """One cell of the simulation grid."""

    n: int
    a: float
    lam: float
    gamma_ratio: float
    q_star: int = 3
    s: int = 100
    seed: int | None = None

    def __post_init__(self):
        if not 0 < self.a <= 1:
            raise ValueError("a must lie in (0, 1]")
        if self.lam <= 0 or self.gamma_ratio <= 0:
            raise ValueError("lam and gamma_ratio must be > 0")
        if self.s < 1 or self.n < 2 or self.q_star < 1:
            raise ValueError("need s >= 1, n >= 2, q_star >= 1")


@dataclass
class ExperimentReport:
    """Per-cell summaries: RMSE of alpha and lambda, mean normalized
    entropy, and (in selection mode) the Q-selection frequency table."""

    mode: str
    config: GridConfig
    replicates_done: int
    replicates_failed: int
    alpha_truth: np.ndarray | None = None
    lambda_truth: np.ndarray | None = None
    rmse_alpha: np.ndarray | None = None
    rmse_lambda: np.ndarray | None = None
    mean_normalized_entropy: float | None = None
    q_frequencies: dict = field(default_factory=dict)

    def csv_rows(self):
        """Plot-ready rows: one per parameter, plus entropy/frequencies."""
        c = self.config
        cell = dict(n=c.n, a=c.a, lam=c.lam, gamma_ratio=c.gamma_ratio,
                    q_star=c.q_star, s=self.replicates_done)
        rows = []
        if self.mode == "estimation":
            for q in range(c.q_star):
                rows.append({**cell, "parameter": f"alpha_{q + 1}",
                             "truth": self.alpha_truth[q],
                             "rmse": self.rmse_alpha[q]})
            for q in range(c.q_star):
                for l in range(q, c.q_star):
                    rows.append({**cell, "parameter": f"lambda_{q + 1}{l + 1}",
                                 "truth": self.lambda_truth[q, l],
                                 "rmse": self.rmse_lambda[q, l]})
            rows.append({**cell, "parameter": "normalized_entropy",
                         "truth": "", "rmse": self.mean_normalized_entropy})
        else:
            for q, freq in sorted(self.q_frequencies.items()):
                rows.append({**cell, "parameter": f"freq_q_{q}", "truth": "",
                             "rmse": freq})
        return rows


def grid_params(a: float, lam: float, gamma_ratio: float, q_star: int = 3) -> MixtureParams:
    """Mixture parameters for one grid cell (Poisson intensities)."""
    q = np.arange(1, q_star + 1, dtype=float)
    alpha = a ** q
    alpha /= alpha.sum()
    s = float(np.sum(alpha ** 2))
    lam_prime = lam / (s + gamma_ratio * (1.0 - s))
    lam_mat = np.full((q_star, q_star), lam_prime * gamma_ratio)
    np.fill_diagonal(lam_mat, lam_prime)
    return MixtureParams(alpha=alpha, theta=PoissonParams(lam=lam_mat))


def sample_graph(params: MixtureParams, n: int, directed: bool, spec: FamilySpec,
                 seed=None, cov: EdgeCovariates | None = None):
    """Draw (graph, true labels): Z_i iid multinomial(alpha), then edges
    conditionally independent from the block distributions (once per
    unordered pair for undirected graphs)."""
    rng = np.random.default_rng(seed)
    fam = families.get_family(spec)
    if spec.uses_covariates and cov is None:
        raise BlockfitError(f"family {spec.kind!r} needs covariates to sample")
    z = rng.choice(params.Q, size=n, p=params.alpha)
    values = fam.sample_matrix(params.theta, z, rng, cov, directed)
    g = ValuedGraph.from_matrix(values, directed=directed,
                                value_kind=families.FAMILIES[spec.kind].value_kind,
                                num_labels=spec.num_labels)
    return g, z


def rmse(estimates, truth) -> np.ndarray:
    """sqrt(mean over replicates of squared error), one value per parameter."""
    est = np.asarray(estimates, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if est.shape[0] < 1 or est.shape[1:] != truth.shape:
        raise ValueError("estimates must stack replicates over axis 0")
    return np.sqrt(np.mean((est - truth) ** 2, axis=0))


def _replicate_seed(config, r):
    base = 0 if config.seed is None else int(config.seed)
    return [base, r]


def run_experiment(config: GridConfig, spec: FamilySpec | None = None,
                   mode: str = "estimation", *, q_max: int | None = None,
                   fit_options: dict | None = None, n_jobs: int = 1) -> ExperimentReport:
    """Run one grid cell.

    estimation: fit at the true q_star, report per-parameter RMSE (classes
    aligned by descending estimated proportions) and mean normalized
    entropy H/n.  selection: sweep Q = 1..q_max (10 by default, 5 when
    n >= 1000) and report how often each Q is chosen.  Replicates whose fit
    fails are dropped and counted.
    """
    spec = spec or FamilySpec("poisson")
    if mode not in ("estimation", "selection"):
        raise ValueError(f"unknown mode {mode!r}")
    truth = grid_params(config.a, config.lam, config.gamma_ratio, config.q_star)
    fam = families.get_family(spec)
    if mode == "estimation" and fam.block_means(truth.theta) is None:
        raise BlockfitError(f"estimation mode has no block-parameter matrix for {spec.kind!r}")
    opts = dict(fit_options or {})
    opts.pop("seed", None)
    if q_max is None:
        q_max = 5 if config.n >= 1000 else 10

    def one(r):
        seed_r = _replicate_seed(config, r)
        g, _ = sample_graph(truth, config.n, directed=False, spec=spec, seed=seed_r)
        fit_seed = (0 if config.seed is None else int(config.seed)) * 100003 + r
        if mode == "estimation":
            fr = fit(g, spec, config.q_star, seed=fit_seed, **opts)
            theta_hat = fam.block_means(fr.params.theta)
            return fr.params.alpha, theta_hat, fr.entropy / config.n
        sel = select_q(g, spec, range(1, q_max + 1), seed=fit_seed, fit_options=opts)
        return sel.chosen_q

    results, failed = [], 0
    if n_jobs and n_jobs > 1:
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            futures = list(pool.map(_safe(one), range(config.s)))
    else:
        futures = [_safe(one)(r) for r in range(config.s)]
    for res in futures:
        if res is None:
            failed += 1
        else:
            results.append(res)
    if not results:
        raise NumericalError("every replicate failed")

    report = ExperimentReport(mode=mode, config=config, replicates_done=len(results),
                              replicates_failed=failed)
    if mode == "estimation":
        alphas = np.stack([r[0] for r in results])
        lambdas = np.stack([r[1] for r in results])
        report.alpha_truth = truth.alpha
        report.lambda_truth = fam.block_means(truth.theta)
        report.rmse_alpha = rmse(alphas, truth.alpha)
        report.rmse_lambda = rmse(lambdas, report.lambda_truth)
        report.mean_normalized_entropy = float(np.mean([r[2] for r in results]))
    else:
        qs, counts = np.unique([int(r) for r in results], return_counts=True)
        total = counts.sum()
        report.q_frequencies = {int(q): float(c) / total for q, c in zip(qs, counts)}
    return report


def _safe(fn):
    def wrapped(r):
        try:
            return fn(r)
        except (BlockfitError, np.linalg.LinAlgError):
            return None
    return wrapped
