"""Goodness-of-fit predictions: per-edge values, weighted degrees, R^2.

Predicted edge values average the block means under the posterior,
X_hat_ij = sum_ql tau_iq tau_jl E[X_ij | q, l] (for the covariate Poisson
models E[X_ij | q, l] = lam_ql exp(beta' y_ij)); predicted weighted
degrees are their row sums, so K_hat_i == sum_{j != i} X_hat_ij by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import families
from .engine import FitResult
from .errors import BlockfitError
from .graph import EdgeCovariates, ValuedGraph


_BLOCK = 1 << 16  # matrix entries per row block of the R^2 sums


@dataclass
class PredictionReport:
    """Observed and predicted edge values and weighted degrees, with R^2.

    ``observed_edges`` is the graph's own read-only ``scalar_values`` (no
    copy); ``r2_edges`` is taken over the pairs i < j of an undirected graph
    and i != j of a directed one.
    """

    observed_degrees: np.ndarray   # (n,)
    predicted_degrees: np.ndarray  # (n,)
    observed_edges: np.ndarray     # (n, n), zero diagonal, read-only
    predicted_edges: np.ndarray    # (n, n), zero diagonal
    r2_degrees: float
    r2_edges: float


def predict_edges(fit_result: FitResult, graph: ValuedGraph,
                  cov: EdgeCovariates | None = None, spec=None) -> np.ndarray:
    """X_hat for every ordered pair (zero diagonal)."""
    spec = spec or getattr(fit_result, "spec", None)
    if spec is None:
        raise BlockfitError("predict_edges needs the family spec")
    fam = families.get_family(spec)
    fam.check_graph(graph, cov)
    tau = fit_result.posterior.tau
    if tau.shape[0] != graph.n:
        raise BlockfitError("fit and graph disagree on the number of nodes")
    return fam.predicted_matrix(fit_result.params.theta, tau, graph, cov)


def predict_degrees(fit_result: FitResult, graph: ValuedGraph,
                    cov: EdgeCovariates | None = None, spec=None) -> np.ndarray:
    """K_hat_i = sum_{j != i} X_hat_ij (row sums of predict_edges)."""
    return predict_edges(fit_result, graph, cov, spec=spec).sum(axis=1)


def r_squared(observed, predicted) -> float:
    """Coefficient of determination 1 - SS_res / SS_tot (can be negative)."""
    obs = np.asarray(observed, dtype=float).ravel()
    pred = np.asarray(predicted, dtype=float).ravel()
    if obs.size != pred.size or obs.size < 2:
        raise ValueError("need two same-length vectors of at least 2 points")
    ss_tot = float(np.sum((obs - obs.mean()) ** 2))
    if ss_tot == 0.0:
        raise ValueError("observed values have zero variance")
    ss_res = float(np.sum((obs - pred) ** 2))
    return 1.0 - ss_res / ss_tot


def _pair_r_squared(graph: ValuedGraph, xhat) -> float:
    """R^2 of ``xhat`` against the graph's values over its node pairs.

    Both matrices have a zero diagonal, so the sums run over all ordered
    pairs i != j.  An undirected graph counts each pair i < j twice in every
    sum, which leaves the mean and the ratio SS_res / SS_tot as over i < j.
    The mean is Sum x over the pair count; SS_tot (about that mean, with the
    diagonal left out) and SS_res are summed over blocks of rows, so no
    temporary is larger than a block; each block is summed pairwise, as
    :func:`r_squared` sums, since a dot product of a sparse graph's many
    equal (0 - mean)^2 terms loses about 1e-12 of R^2.
    """
    X = graph.scalar_values
    n = graph.n
    mean = X.sum() / (n * (n - 1))
    ss_tot = ss_res = 0.0
    step = max(1, _BLOCK // n)
    for r in range(0, n, step):
        rows = slice(r, r + step)
        res = X[rows] - xhat[rows]
        ss_res += float(np.square(res, out=res).sum())
        dev = X[rows] - mean
        k = np.arange(dev.shape[0])
        dev[k, r + k] = 0.0  # the diagonal is no pair
        ss_tot += float(np.square(dev, out=dev).sum())
    if ss_tot == 0.0:
        raise ValueError("observed values have zero variance")
    return 1.0 - ss_res / ss_tot


def prediction_report(fit_result: FitResult, graph: ValuedGraph,
                      cov: EdgeCovariates | None = None, spec=None) -> PredictionReport:
    """Observed-versus-predicted tables for edges and weighted degrees.

    ``observed_edges`` is ``graph.scalar_values`` itself, read-only and with
    a zero diagonal; the degrees are the row sums of the two edge matrices.
    ``r2_edges`` is summed as described in :func:`_pair_r_squared`, without
    (n, n) temporaries beyond ``predicted_edges``.
    """
    xhat = predict_edges(fit_result, graph, cov, spec=spec)
    khat = xhat.sum(axis=1)
    kobs = graph.weighted_degrees()
    return PredictionReport(
        observed_degrees=kobs,
        predicted_degrees=khat,
        observed_edges=graph.scalar_values,
        predicted_edges=xhat,
        r2_degrees=r_squared(kobs, khat),
        r2_edges=_pair_r_squared(graph, xhat),
    )
