"""Goodness-of-fit predictions: per-edge values, weighted degrees, R^2.

Predicted edge values average the block means under the posterior,
X_hat_ij = sum_ql tau_iq tau_jl E[X_ij | q, l] (for the covariate Poisson
models E[X_ij | q, l] = lam_ql exp(beta' y_ij)); predicted weighted
degrees are their row sums, so K_hat_i == sum_{j != i} X_hat_ij by
construction.  Every family predicts a block of rows at a time, so a report
needs no (n, n) array unless its edge tables are read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import families
from .engine import FitResult
from .errors import BlockfitError
from .graph import EdgeCovariates, ValuedGraph


_BLOCK = 1 << 16  # matrix entries per row block of the predictions and R^2 sums


def _row_blocks(n):
    """Slices of consecutive rows of an (n, n) matrix, about ``_BLOCK``
    entries each."""
    step = max(1, _BLOCK // n)
    return [slice(r, min(n, r + step)) for r in range(0, n, step)]


def _stacked(predicted_rows, n) -> np.ndarray:
    """The (n, n) matrix whose row blocks are ``predicted_rows(rows)``."""
    out = np.empty((n, n))
    for rows in _row_blocks(n):
        out[rows] = predicted_rows(rows)
    return out


@dataclass
class PredictionReport:
    """Observed and predicted weighted degrees, with R^2 over the degrees
    and over the node pairs; the edge tables are read on demand.

    ``r2_edges`` is taken over the pairs i < j of an undirected graph and
    i != j of a directed one.  ``observed_edges`` is the graph's own
    read-only ``scalar_values`` (no copy; a graph stored as its CSR array
    builds them on this first read).  ``predicted_edges`` is built on first
    read from the same row blocks that gave ``predicted_degrees``, so
    ``predicted_degrees == predicted_edges.sum(axis=1)`` exactly, and kept.
    Until they are read, a report holds O(n) arrays.
    """

    observed_degrees: np.ndarray   # (n,)
    predicted_degrees: np.ndarray  # (n,)
    r2_degrees: float
    r2_edges: float
    graph: ValuedGraph = field(repr=False)
    predicted_rows: Callable[[slice], np.ndarray] = field(repr=False)  # rows -> X_hat[rows]

    @property
    def observed_edges(self) -> np.ndarray:
        """(n, n), zero diagonal, read-only."""
        return self.graph.scalar_values

    @cached_property
    def predicted_edges(self) -> np.ndarray:
        """(n, n), zero diagonal."""
        return _stacked(self.predicted_rows, self.graph.n)


def _predictor(fit_result: FitResult, graph: ValuedGraph, cov, spec):
    """rows -> X_hat[rows] for a slice of rows, after the checks of
    :func:`predict_edges`."""
    spec = spec or getattr(fit_result, "spec", None)
    if spec is None:
        raise BlockfitError("predict_edges needs the family spec")
    fam = families.get_family(spec)
    fam.check_graph(graph, cov)
    tau = fit_result.posterior.tau
    if tau.shape[0] != graph.n:
        raise BlockfitError("fit and graph disagree on the number of nodes")
    theta = fit_result.params.theta
    return lambda rows: fam.predicted_rows(theta, tau, rows, cov)


def predict_edges(fit_result: FitResult, graph: ValuedGraph,
                  cov: EdgeCovariates | None = None, spec=None) -> np.ndarray:
    """X_hat for every ordered pair (zero diagonal)."""
    return _stacked(_predictor(fit_result, graph, cov, spec), graph.n)


def predict_degrees(fit_result: FitResult, graph: ValuedGraph,
                    cov: EdgeCovariates | None = None, spec=None) -> np.ndarray:
    """K_hat_i = sum_{j != i} X_hat_ij (row sums of predict_edges), summed
    one row block at a time, without the (n, n) X_hat."""
    predicted_rows = _predictor(fit_result, graph, cov, spec)
    khat = np.empty(graph.n)
    for rows in _row_blocks(graph.n):
        khat[rows] = predicted_rows(rows).sum(axis=1)
    return khat


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


def _pair_pass(graph: ValuedGraph, predicted_rows, kobs):
    """One pass over row blocks: the predicted degrees, and R^2 of the
    predictions against the graph's values over its node pairs.

    Each block of predictions ``predicted_rows(rows)`` gives its rows'
    degrees and its share of the sums; the observed rows are read with
    :meth:`ValuedGraph.scalar_rows`, from the CSR array of a graph that
    holds only that, so no temporary is larger than a block.  Both
    matrices have a zero diagonal, so the sums run over all ordered pairs
    i != j.  An undirected graph counts each pair i < j twice in every sum,
    which leaves the mean and the ratio SS_res / SS_tot as over i < j.  The
    mean is the sum of the observed degrees ``kobs`` over the pair count;
    SS_tot (about that mean, with the diagonal left out) and SS_res are
    summed block by block, each block pairwise, as :func:`r_squared` sums,
    since a dot product of a sparse graph's many equal (0 - mean)^2 terms
    loses about 1e-12 of R^2.
    """
    n = graph.n
    mean = kobs.sum() / (n * (n - 1))
    khat = np.empty(n)
    ss_tot = ss_res = 0.0
    for rows in _row_blocks(n):
        xhat = predicted_rows(rows)
        khat[rows] = xhat.sum(axis=1)
        X = graph.scalar_rows(rows)
        res = X - xhat
        ss_res += float(np.square(res, out=res).sum())
        dev = X - mean
        k = np.arange(dev.shape[0])
        dev[k, rows.start + k] = 0.0  # the diagonal is no pair
        ss_tot += float(np.square(dev, out=dev).sum())
    if ss_tot == 0.0:
        raise ValueError("observed values have zero variance")
    return khat, 1.0 - ss_res / ss_tot


def _pair_r_squared(graph: ValuedGraph, xhat) -> float:
    """R^2 of the (n, n) matrix ``xhat`` against the graph's values over its
    node pairs, summed as :func:`_pair_pass` sums."""
    return _pair_pass(graph, xhat.__getitem__, graph.weighted_degrees())[1]


def prediction_report(fit_result: FitResult, graph: ValuedGraph,
                      cov: EdgeCovariates | None = None, spec=None) -> PredictionReport:
    """Observed-versus-predicted weighted degrees and R^2 for a fit.

    One pass over blocks of about ``_BLOCK`` entries (:func:`_pair_pass`)
    predicts each block of rows once and gives the predicted degrees (the
    blocks' row sums) and ``r2_edges``.  That is O(n^2 Q) time, and
    O(nnz + block) memory on a graph that holds only its CSR array: the
    report's ``observed_edges`` and ``predicted_edges`` are (n, n) arrays
    built only when read (see :class:`PredictionReport`).
    """
    predicted_rows = _predictor(fit_result, graph, cov, spec)
    kobs = graph.weighted_degrees()
    khat, r2_edges = _pair_pass(graph, predicted_rows, kobs)
    return PredictionReport(
        observed_degrees=kobs,
        predicted_degrees=khat,
        r2_degrees=r_squared(kobs, khat),
        r2_edges=r2_edges,
        graph=graph,
        predicted_rows=predicted_rows,
    )
