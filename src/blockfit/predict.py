"""Goodness-of-fit predictions: per-edge values, weighted degrees, R^2.

Predicted edge values average the block means under the posterior,
X_hat_ij = sum_ql tau_iq tau_jl E[X_ij | q, l] (for the covariate Poisson
models E[X_ij | q, l] = lam_ql exp(beta' y_ij)); predicted weighted
degrees are their row sums, so K_hat_i == sum_{j != i} X_hat_ij by
construction.  Every family predicts a block of rows at a time, so a report
holds O(n) arrays: R^2 over the pairs reads the observed non-zero entries
of each block of rows, and the (n, n) predicted table is built only when
read, on every read, and never kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    builds them on this first read, and keeps them).  ``predicted_edges`` is
    built on every read from the same row blocks that gave
    ``predicted_degrees``, so ``predicted_degrees ==
    predicted_edges.sum(axis=1)`` exactly, and is never kept: read it once
    into a local.  The report itself holds O(n) arrays.
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

    @property
    def predicted_edges(self) -> np.ndarray:
        """(n, n), zero diagonal; a new array on every read."""
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
    degrees (its row sums) and its share of the sums.  The observed side is
    read only as the rows' non-zero entries (:meth:`ValuedGraph.row_nonzeros`),
    so no observed row is densified.  A block's squared residuals are its
    squared predictions, replaced by (X - X_hat)^2 at the non-zeros, in a
    new array: the block may be a view of the caller's.  Both matrices have
    a zero diagonal, so the sums run over the N = n (n - 1) ordered pairs
    i != j; an undirected graph counts each pair i < j twice in every sum,
    which leaves the mean and SS_res / SS_tot as over i < j.  The mean is
    sum(kobs) / N and SS_tot = sum_nz (X - mean)^2 + (N - nnz) mean^2.
    Residuals are taken per entry and each block is summed pairwise, as
    :func:`r_squared` sums: expanding SS_res as sum X^2 - 2 sum X X_hat
    + sum X_hat^2 loses about 1e-4 of R^2 on a dense graph whose mean is
    1e6, and a dot product of a sparse graph's many small terms about 1e-12.
    """
    n = graph.n
    pairs = n * (n - 1)
    mean = kobs.sum() / pairs
    khat = np.empty(n)
    ss_tot = ss_res = 0.0
    nnz = 0
    for rows in _row_blocks(n):
        xhat = predicted_rows(rows)
        khat[rows] = xhat.sum(axis=1)
        r, j, x = graph.row_nonzeros(rows)
        res = np.square(xhat)
        res[r, j] = np.square(x - xhat[r, j])
        ss_res += float(res.sum())
        ss_tot += float(np.square(x - mean).sum())
        nnz += x.size
    ss_tot += (pairs - nnz) * float(mean) ** 2
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
    blocks' row sums) and ``r2_edges``, whose observed side reads only the
    non-zero entries of the rows.  That is O(n^2 Q) time, and
    O(nnz + block) memory on a graph that holds only its CSR array.  The
    report's ``observed_edges`` and ``predicted_edges`` are (n, n) arrays
    built only when read; ``predicted_edges`` is rebuilt on each read and
    not kept, so read it once into a local (see :class:`PredictionReport`).
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
