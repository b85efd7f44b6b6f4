"""ICL computation and selection of the number of latent groups.

    ICL(m_Q) = max_gamma log P(X, Z~ | gamma, m_Q)
               - 1/2 { P_Q log[n(n-1)] - (Q - 1) log n }

where Z~ is the MAP assignment from the fitted posterior and gamma is
re-optimized under that hard assignment (one hard-weight M-step).  The
edge-count term uses n(n-1) for both directed and undirected graphs, as
printed; ``edge_count="unordered"`` switches to n(n-1)/2 for sensitivity
checks.

A sweep (:func:`select_q`) fits the Q of its range in ascending order and
stops once ``STOP_AFTER_MISSES`` = 2 consecutive Q fail to beat the best
ICL so far.  A Q misses when its ICL does not exceed that best (a tie or a
failed fit is a miss, as in the argmax's tie rule); no Q misses before the
first finite ICL.  The fits past the ICL maximum are the costliest of a
sweep, since EM needs more iterations the more classes it has to split or
empty.  Why two: ICL sometimes dips once and then rises above its best,
but was not seen to after two dips.  Over 220 sweeps of the simulation
grid and of the covariate-absorption check, stopping at the first miss
changed 16 choices, stopping at the second none.  The range stays the
upper bound.  The Q that are not fitted are absent from the records and
listed in :attr:`SelectionResult.skipped`.  The fitted ones keep their
(seed, Q) streams, so their fits and ICLs are those of a full sweep, and
the choice differs from a full sweep's only where a skipped Q would have
beaten the best.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from . import families
from .engine import FitResult, check_seed, complete_data_loglik, fit, mstep, substream
from .errors import BlockfitError, NumericalError
from .graph import EdgeCovariates, ValuedGraph

# A sweep stops after this many consecutive Q that fail to beat the best ICL.
STOP_AFTER_MISSES = 2


@dataclass
class SelectionRecord:
    q: int
    fit: FitResult | None
    icl: float
    error: str | None = None


@dataclass
class SelectionResult:
    """Per-Q fits with their ICL values and the argmax choice.

    ``records`` holds the fitted Q only.  When the sweep stopped before the
    end of its range, ``skipped`` lists the Q it did not fit and
    ``stop_reason`` says why; otherwise they are empty and None.
    """

    records: list
    chosen_q: int
    skipped: list = field(default_factory=list)
    stop_reason: str | None = None

    def record(self, q) -> SelectionRecord:
        for rec in self.records:
            if rec.q == q:
                return rec
        raise KeyError(q)

    @property
    def best_fit(self) -> FitResult:
        return self.record(self.chosen_q).fit


def map_assignment(tau) -> np.ndarray:
    """Per-node argmax class, ties to the smallest index."""
    return np.argmax(np.asarray(tau, dtype=float), axis=1)


def icl_penalty(spec, Q: int, n: int, directed: bool, edge_count: str = "ordered") -> float:
    """1/2 { P_Q log m - (Q - 1) log n } with m = n(n-1) (or half of it)."""
    if edge_count not in ("ordered", "unordered"):
        raise ValueError(f"unknown edge-count convention {edge_count!r}")
    m = n * (n - 1) if edge_count == "ordered" else n * (n - 1) // 2
    p_q = families.param_count(spec, Q, directed)
    return 0.5 * (p_q * np.log(m) - (Q - 1) * np.log(n))


def icl(graph: ValuedGraph, spec, fit_result: FitResult,
        cov: EdgeCovariates | None = None, *, edge_count: str = "ordered",
        workspace=None) -> float:
    """ICL of a fitted model.

    gamma is re-optimized under the hard MAP assignment before evaluating
    the complete-data log-likelihood; P_Q stays at its nominal value even
    when classes come out empty (their blocks are frozen, not dropped).
    The M-step and the likelihood share one workspace, whose building is
    the one check of the graph and covariates; a ``workspace`` handed in
    (the family's ``mstep_workspace(graph, cov)``, as for
    :func:`engine.mstep`) is trusted and not checked again.
    """
    Q = fit_result.params.Q
    n = graph.n
    labels = np.asarray(fit_result.map_assignment, dtype=int)
    hard = np.zeros((n, Q))
    hard[np.arange(n), labels] = 1.0
    if workspace is None:
        workspace = families.get_family(spec).mstep_workspace(graph, cov)
    hard_params = mstep(graph, spec, hard, cov, prev=fit_result.params.theta,
                        workspace=workspace)
    cll = complete_data_loglik(graph, spec, hard_params, labels, cov, workspace=workspace)
    return float(cll - icl_penalty(spec, Q, n, graph.directed, edge_count))


def select_q(graph: ValuedGraph, spec, q_range, cov: EdgeCovariates | None = None,
             fit_options: dict | None = None, seed=None, *,
             edge_count: str = "ordered") -> SelectionResult:
    """Fit the Q of ``q_range`` in turn and pick the ICL maximizer.

    ``q_range`` holds distinct integers in ascending order; its last Q is
    the largest tried.  The sweep stops once ``STOP_AFTER_MISSES`` = 2
    consecutive Q fail to beat the best ICL so far, counting only Q after
    the first finite ICL; a tie or a failed fit counts as a miss.  Two,
    not one, because ICL sometimes dips once and then rises above its
    best, but was not seen to after two dips (module docstring).  The
    Q left are not fitted: they are absent from ``records`` and listed in
    ``skipped``.  Ties break toward smaller Q; Q is fitted with seed
    ``seed * 1000 + Q`` (``substream(seed, Q)`` for a non-integer seed),
    so it gets the fit a full sweep gives it.  A negative integer seed is
    refused before the first fit, and a ``"seed"`` in ``fit_options``, which
    go to :func:`engine.fit` as they are, raises TypeError.  The graph and
    covariates are checked once, when the sweep builds the one workspace
    that every fit and ICL of it shares, so inputs the family does not fit
    raise before the first fit.  Failed fits are recorded with ICL = -inf
    instead of aborting the sweep.
    """
    q_list = []
    for q in q_range:
        if isinstance(q, bool) or not isinstance(q, numbers.Real) or not float(q).is_integer():
            raise ValueError(f"q_range holds {q!r}, which is not an integer")
        if q_list and int(q) == q_list[-1]:
            raise ValueError(f"q_range repeats Q = {int(q)}")
        q_list.append(int(q))
    if not q_list or sorted(q_list) != q_list:
        raise ValueError("q_range must be nonempty and ascending")
    check_seed(seed)
    workspace = families.get_family(spec).mstep_workspace(graph, cov)

    records = []
    for q in q_list:
        if _misses(records) == STOP_AFTER_MISSES:
            break
        seed_q = int(seed) * 1000 + q if isinstance(seed, numbers.Integral) else substream(seed, q)
        try:
            fr = fit(graph, spec, q, cov, seed=seed_q, workspace=workspace,
                     **(fit_options or {}))
            fr.icl = icl(graph, spec, fr, cov, edge_count=edge_count, workspace=workspace)
            records.append(SelectionRecord(q=q, fit=fr, icl=fr.icl))
        except (BlockfitError, ValueError, np.linalg.LinAlgError) as exc:
            records.append(SelectionRecord(q=q, fit=None, icl=-np.inf, error=str(exc)))

    best = _choose(records)
    if not np.isfinite(best.icl):
        raise NumericalError("every Q in the sweep failed to fit")
    skipped = q_list[len(records):]
    reason = None
    if skipped:
        missed = " and ".join(f"Q={rec.q}" for rec in records[-STOP_AFTER_MISSES:])
        reason = (f"ICL at {missed} did not beat the best, {best.icl:.4f} at Q={best.q}; "
                  f"Q={', '.join(map(str, skipped))} not fitted")
    return SelectionResult(records=records, chosen_q=best.q, skipped=skipped, stop_reason=reason)


def _misses(records):
    """Consecutive Q at the end of ``records`` whose ICL does not beat the
    best before them, counted from the first finite ICL on."""
    best, misses = -np.inf, 0
    for rec in records:
        if rec.icl > best:
            best, misses = rec.icl, 0
        elif np.isfinite(best):
            misses += 1
    return misses


def _choose(records):
    """Argmax ICL; exact ties break toward the smaller Q (records ascend)."""
    best = records[0]
    for rec in records[1:]:
        if rec.icl > best.icl:
            best = rec
    return best
