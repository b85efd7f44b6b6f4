"""Alternating maximization of the variational lower bound.

The bound for a factorized surrogate posterior tau and parameters
gamma = (alpha, theta) is

    J(tau, gamma) = - sum_iq tau_iq log tau_iq + sum_iq tau_iq log alpha_q
                    + sum_{i != j} sum_ql tau_iq tau_jl log f_ql(X_ij),

with the edge sum running over i < j for undirected graphs.  The E-step
iterates the mean-field fixed point

    tau_iq  propto  alpha_q prod_{j != i} prod_l [f_ql(X_ij) f_lq(X_ji)]^tau_jl

(the f_lq factor drops for undirected graphs) in the log domain; the
M-step delegates to the closed-form / GLM updates in :mod:`families`.

Monotonicity of J is enforced, not hoped for: each E-sweep moves towards
the synchronous (Jacobi) proposal, which maximizes every row's concave part
of J, by the longest step 1, 1/2, 1/4, ... that does not lower J (see
:func:`_estep_core`).  An E-step that raises J keeps variational EM
monotone (Neal & Hinton 1998).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.spatial.distance import squareform
from scipy.special import logsumexp, xlogy

from . import families
from .errors import BlockfitError, FamilyError, NumericalError
from .graph import EdgeCovariates, ValuedGraph

TAU_EPS = 1e-16          # clip for tau entries before logs
ALPHA_FLOOR = 1e-300     # keeps log alpha finite when a class empties
ESTEP_TOL = 1e-6         # max-norm fixed-point residual
ESTEP_MAX_SWEEPS = 200
ESTEP_MIN_STEP = 2.0 ** -30  # shortest line-search step before a sweep gives up
OUTER_TOL = 1e-6         # relative bound change
OUTER_MAX_ITER = 500
ENUM_LIMIT = 10 ** 7     # largest Q**n the exact oracle will enumerate


@dataclass
class MixtureParams:
    """gamma = (alpha, theta): group proportions plus connectivity params."""

    alpha: np.ndarray
    theta: object
    Q: int = 0

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        if self.alpha.ndim != 1 or self.alpha.size < 1:
            raise BlockfitError("alpha must be a 1-d simplex vector")
        if np.any(self.alpha < -1e-12) or abs(self.alpha.sum() - 1.0) > 1e-8:
            raise BlockfitError("alpha must be nonnegative and sum to 1")
        self.Q = self.alpha.size
        if self.theta.Q != self.Q:
            raise FamilyError(f"theta has Q={self.theta.Q} groups but alpha has {self.Q}")


@dataclass
class VariationalPosterior:
    """Row-stochastic (n, Q) matrix of approximate class memberships."""

    tau: np.ndarray
    converged: bool = True

    def __post_init__(self):
        self.tau = np.asarray(self.tau, dtype=float)
        if self.tau.ndim != 2:
            raise BlockfitError("tau must be an (n, Q) matrix")
        if np.any(self.tau < 0) or np.max(np.abs(self.tau.sum(axis=1) - 1.0)) > 1e-6:
            raise BlockfitError("tau rows must be nonnegative and sum to 1")


@dataclass
class FitResult:
    params: MixtureParams
    posterior: VariationalPosterior
    bound_trajectory: list
    entropy: float
    map_assignment: np.ndarray
    converged: bool
    iterations: int
    icl: float | None = None
    spec: object | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def bound(self) -> float:
        return self.bound_trajectory[-1]


# ---------------------------------------------------------------------------
# Local helpers


def _normalize_rows(tau):
    tau = np.clip(tau, TAU_EPS, 1.0)
    return tau / tau.sum(axis=1, keepdims=True)


def _softmax_rows(scores):
    """Row softmax, clipped and renormalized as by :func:`_normalize_rows` in
    one buffer (entries are <= 1 before the clip, so the lower clip suffices)."""
    e = scores - scores.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    np.maximum(e, TAU_EPS, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def _log_alpha(alpha):
    return np.log(np.maximum(alpha, ALPHA_FLOOR))


def _scorer(spec, graph, cov):
    fam = families.get_family(spec)
    fam.check_graph(graph, cov)
    return fam.scorer(graph, cov)


def _entropy_term(tau):
    return -float(xlogy(tau, tau).sum())


def _bound_from_ops(ops, tau, log_alpha):
    return _entropy_term(tau) + float(tau.sum(axis=0) @ log_alpha) + ops.edge_term(tau)


# ---------------------------------------------------------------------------
# Spec operations


def lower_bound(graph: ValuedGraph, spec, tau, params: MixtureParams,
                cov: EdgeCovariates | None = None) -> float:
    """Evaluate J(tau, gamma); entropy terms use the 0 log 0 = 0 convention."""
    tau = np.asarray(tau, dtype=float)
    ops = _scorer(spec, graph, cov)(params.theta)
    return _bound_from_ops(ops, tau, _log_alpha(params.alpha))


def classification_entropy(tau) -> float:
    """H = -sum_iq tau_iq log tau_iq, between 0 and n log Q."""
    return _entropy_term(np.asarray(tau, dtype=float))


def _bound_change(delta, A, A_cand, tlogt, clogc):
    """J(cand) - J(tau) for delta = cand - tau, from A = log alpha + D and
    x log x at both iterates.

    D is linear and symmetric (tau . D(s) = s . D(tau)), so the alpha and
    edge parts are delta . (A(cand) + A(tau)) / 2; the entropy part is
    summed entry by entry.  Rounding scales with the step, not with |J|.
    """
    return 0.5 * float(np.vdot(delta, A_cand + A)) + float((tlogt - clogc).sum())


def _estep_core(ops, log_alpha, tau, tol, max_sweeps):
    """Line-searched Jacobi sweeps, along which J never decreases.

    A sweep proposes P = softmax(log alpha + D(tau)) and stops, converged,
    once max|P - tau| < tol.  Otherwise it accepts the first of
    tau + t (P - tau), t = 1, 1/2, ... (renormalized when t < 1) whose J
    does not fall, or returns tau unconverged below ``ESTEP_MIN_STEP``.
    Returns (tau, converged, sweeps, backtracks), counting accepted steps
    and rejected candidates; each, like the entry, costs one product.
    """
    A = ops.node_scores(tau)
    A += log_alpha
    tlogt = xlogy(tau, tau)
    sweeps = backtracks = 0
    for _ in range(max_sweeps):
        prop = _softmax_rows(A)
        step = prop - tau
        if np.abs(step).max() < tol:
            return tau, True, sweeps, backtracks
        t, cand, delta = 1.0, prop, step
        while True:
            A_cand = ops.node_scores(cand)
            A_cand += log_alpha
            clogc = xlogy(cand, cand)
            gain = _bound_change(delta, A, A_cand, tlogt, clogc)
            # a damped step may round to no move at all, which would only
            # repeat this sweep, so it must raise J strictly
            if gain > 0.0 or (gain == 0.0 and t == 1.0):
                break
            backtracks += 1
            t *= 0.5
            if t < ESTEP_MIN_STEP:
                return tau, False, sweeps, backtracks
            cand = _normalize_rows(tau + t * step)
            delta = cand - tau
        tau, A, tlogt = cand, A_cand, clogc
        sweeps += 1
    return tau, False, sweeps, backtracks


def estep_fixed_point(graph: ValuedGraph, spec, params: MixtureParams, tau_init,
                      cov: EdgeCovariates | None = None, *,
                      tol: float = ESTEP_TOL,
                      max_sweeps: int = ESTEP_MAX_SWEEPS) -> VariationalPosterior:
    """Solve the mean-field fixed point for tau at fixed gamma.

    Runs synchronous sweeps in the log domain (per-row max subtraction
    before exponentiation), each shortened by halving when the full update
    would lower J, so that J never decreases.  A start that no sweep can
    improve on, or non-convergence within ``max_sweeps``, returns the last
    iterate flagged unconverged.
    """
    tau0 = _normalize_rows(np.asarray(tau_init, dtype=float).copy())
    ops = _scorer(spec, graph, cov)(params.theta)
    tau, converged, _, _ = _estep_core(ops, _log_alpha(params.alpha), tau0, tol, max_sweeps)
    return VariationalPosterior(tau=tau, converged=converged)


def mstep(graph: ValuedGraph, spec, tau, cov: EdgeCovariates | None = None,
          prev=None) -> MixtureParams:
    """alpha_q = mean_i tau_iq; theta by the family's weighted MLE."""
    tau = np.asarray(tau, dtype=float)
    alpha = tau.mean(axis=0)
    alpha = alpha / alpha.sum()
    theta = families.weighted_mle(spec, tau, graph, cov, prev=prev)
    return MixtureParams(alpha=alpha, theta=theta)


def _profile_distances(graph: ValuedGraph) -> np.ndarray:
    """Condensed Euclidean distances between the nodes' edge-value profiles.

    The profile of node i is the row [A_i, B_i], with (A, B) = (X, X^T), or
    the two channels of paired values.  The squared distances are
    sq_i + sq_j - 2 G_ij from the Gram matrix G = A A^T + B B^T, two matrix
    products instead of a pairwise loop over the n x 2n profiles.
    """
    if graph.value_kind == "paired":
        A, B = graph.values[:, :, 0], graph.values[:, :, 1]
    else:
        A, B = graph.values, graph.values.T
    # overflowing profiles give inf/nan here, which the linkage refuses
    with np.errstate(over="ignore", invalid="ignore"):
        G = A @ A.T
        G += B @ B.T
        sq = G.diagonal().copy()
        G *= -2.0
        G += sq[:, None]
        G += sq[None, :]
        np.maximum(G, 0.0, out=G)
        np.fill_diagonal(G, 0.0)
        dist = squareform(G, checks=False)
        return np.sqrt(dist, out=dist)


def init_partition(graph: ValuedGraph, Q: int, strategy: str = "hierarchical",
                   seed=None, labels=None) -> VariationalPosterior:
    """Initial tau as a softened hard partition (0.95 on the assigned class).

    ``hierarchical`` clusters the nodes by Euclidean distance between their
    edge-value profiles (row and column concatenated) with Ward linkage cut
    at Q groups; ``random`` draws labels uniformly; ``given`` softens the
    supplied label vector.

    The hierarchical distances come from Gram products (see
    :func:`_profile_distances`).  For integer values (count, binary, label)
    every intermediate is an exact integer while the squared profile norms
    stay below 2**53, so the distances, the linkage and the labels are
    bit-identical to ``linkage(profile, "ward")``; for real values they agree
    to rounding.  Profiles whose squared distances overflow make the linkage
    raise its ``ValueError`` about non-finite distances, as it did on the
    profiles themselves.
    """
    n = graph.n
    if Q < 1 or Q > n:
        raise ValueError(f"Q must lie in 1..n, got {Q}")
    if Q == 1:
        return VariationalPosterior(tau=np.ones((n, 1)))
    if strategy in ("hier", "hierarchical"):
        Z = linkage(_profile_distances(graph), method="ward")
        labels = fcluster(Z, t=Q, criterion="maxclust") - 1
    elif strategy == "random":
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, Q, size=n)
    elif strategy == "given":
        if labels is None:
            raise ValueError("strategy 'given' requires a label vector")
        labels = np.asarray(labels, dtype=int)
        if labels.shape != (n,) or labels.min() < 0 or labels.max() >= Q:
            raise ValueError("labels must be length n with values in 0..Q-1")
    else:
        raise ValueError(f"unknown init strategy {strategy!r}")
    tau = np.full((n, Q), 0.05 / (Q - 1))
    tau[np.arange(n), labels] = 0.95
    return VariationalPosterior(tau=tau)


def relabel_descending(params: MixtureParams, tau):
    """Joint relabeling so that alpha_1 >= alpha_2 >= ... (stable on ties)."""
    tau = np.asarray(tau, dtype=float)
    perm = np.argsort(-params.alpha, kind="stable")
    out = MixtureParams(alpha=params.alpha[perm], theta=params.theta.permute(perm))
    return out, tau[:, perm]


def _run_em(graph, spec, scorer, tau0, cov, tol, max_outer, estep_tol, estep_max_sweeps):
    tau = tau0
    params = mstep(graph, spec, tau, cov)
    ops = scorer(params.theta)
    log_alpha = _log_alpha(params.alpha)
    j = _bound_from_ops(ops, tau, log_alpha)
    traj = [j]
    converged = False
    est_ok = True
    estep_unconverged = sweeps = backtracks = 0
    iterations = 0
    for iterations in range(1, max_outer + 1):
        tau, est_ok, est_sweeps, est_backtracks = _estep_core(
            ops, log_alpha, tau, estep_tol, estep_max_sweeps)
        estep_unconverged += not est_ok
        sweeps += est_sweeps
        backtracks += est_backtracks
        traj.append(_bound_from_ops(ops, tau, log_alpha))
        params = mstep(graph, spec, tau, cov, prev=params.theta)
        ops = scorer(params.theta)
        log_alpha = _log_alpha(params.alpha)
        j_new = _bound_from_ops(ops, tau, log_alpha)
        traj.append(j_new)
        if abs(j_new - j) < tol * max(1.0, abs(j_new)):
            j = j_new
            converged = True
            break
        j = j_new
    return {
        "params": params,
        "tau": tau,
        "trajectory": traj,
        "converged": converged,
        "iterations": iterations,
        "estep_unconverged": estep_unconverged,
        "estep_sweeps": sweeps,
        "estep_backtracks": backtracks,
        "estep_converged": est_ok,
    }


def spawn_seed(seed, key: int) -> np.random.SeedSequence:
    """Seed of sub-stream ``key`` of any seed :func:`numpy.random.default_rng`
    takes; the same (seed, key) always gives the same stream."""
    parent = np.random.default_rng(seed).bit_generator.seed_seq
    return np.random.SeedSequence(parent.entropy, spawn_key=(*parent.spawn_key, key))


def _restart_rng(seed, r):
    """Generator of restart r: integer seeds keep the stream of [seed, r]."""
    if seed is None or isinstance(seed, numbers.Integral):
        return np.random.default_rng(None if seed is None else [int(seed), r])
    return np.random.default_rng(spawn_seed(seed, r))


def fit(graph: ValuedGraph, spec, Q: int, cov: EdgeCovariates | None = None, *,
        init: str = "hierarchical", init_labels=None, restarts: int = 5,
        seed=None, tol: float = OUTER_TOL, max_outer: int = OUTER_MAX_ITER,
        estep_tol: float = ESTEP_TOL, estep_max_sweeps: int = ESTEP_MAX_SWEEPS) -> FitResult:
    """Best-of-restarts variational EM fit with Q latent groups.

    The first restart uses the requested ``init`` strategy (hierarchical
    clustering by default; a random start replaces it when the linkage
    refuses the profiles, noted in ``diagnostics["init_fallback"]``); the
    remaining ones use random partitions seeded from ``seed``, which may be
    anything :func:`numpy.random.default_rng` accepts.  The fit with the
    highest final bound is returned, with classes relabeled in descending
    estimated-proportion order.

    Raises
    ------
    NumericalError
        If every restart fails with a numerical/family error.
    """
    if Q < 1:
        raise ValueError("Q must be >= 1")
    fam = families.get_family(spec)
    fam.check_graph(graph, cov)
    scorer = fam.scorer(graph, cov)

    if not isinstance(init, str):
        init_labels, init = np.asarray(init, dtype=int), "given"
    if init == "hier":
        init = "hierarchical"
    if init not in ("hierarchical", "random", "given"):
        raise ValueError(f"unknown init strategy {init!r}")

    inits = []
    init_fallback = None
    if init == "hierarchical":
        try:
            inits.append(init_partition(graph, Q, strategy="hierarchical").tau)
        except ValueError as exc:
            # profile distances that overflow to inf make the linkage refuse them
            init_fallback = f"hierarchical start failed, random start used: {exc}"
    elif init == "given":
        inits.append(init_partition(graph, Q, strategy="given", labels=init_labels).tau)
    for r in range(len(inits), max(1, restarts)):
        inits.append(init_partition(graph, Q, strategy="random",
                                    seed=_restart_rng(seed, r)).tau)

    best = None
    failures = []
    estep_counts = dict.fromkeys(("estep_unconverged", "estep_sweeps", "estep_backtracks"), 0)
    for r, tau0 in enumerate(inits):
        try:
            out = _run_em(graph, spec, scorer, tau0, cov, tol, max_outer,
                          estep_tol, estep_max_sweeps)
        except (FamilyError, NumericalError, np.linalg.LinAlgError) as exc:
            failures.append(f"restart {r}: {exc}")
            continue
        for key in estep_counts:
            estep_counts[key] += out[key]
        if best is None or out["trajectory"][-1] > best["trajectory"][-1]:
            best = out
    if best is None:
        raise NumericalError("all restarts diverged: " + "; ".join(failures))

    params, tau = relabel_descending(best["params"], best["tau"])
    assignment = np.argmax(tau, axis=1)
    return FitResult(
        params=params,
        posterior=VariationalPosterior(tau=tau, converged=best["estep_converged"]),
        bound_trajectory=best["trajectory"],
        entropy=classification_entropy(tau),
        map_assignment=assignment,
        converged=best["converged"],
        iterations=best["iterations"],
        spec=spec,
        diagnostics={
            "restarts": len(inits),
            "restarts_failed": len(failures),
            "failures": failures,
            **estep_counts,
            "empty_classes": int(np.sum(params.alpha < 1e-8)),
            "init_fallback": init_fallback,
        },
    )


# ---------------------------------------------------------------------------
# Exact enumeration oracle (test scale)


def _dense_loglik(graph, spec, params, cov):
    """(Q, Q, n, n) block-dependent log-densities and the scalar rest."""
    n, Q = graph.n, params.Q
    if Q * Q * n * n > 5 * 10 ** 7:
        raise NumericalError("dense log-density tensor too large")
    ops = _scorer(spec, graph, cov)(params.theta)
    return ops.dense(), ops.fixed


def _pair_list(graph):
    n = graph.n
    if graph.directed:
        return [(i, j) for i in range(n) for j in range(n) if i != j]
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _assignment_logliks(graph, spec, params, cov):
    """Complete-data log-likelihood of every one of the Q**n assignments."""
    n, Q = graph.n, params.Q
    total = Q ** n
    if total > ENUM_LIMIT:
        raise NumericalError(f"enumeration of {Q}**{n} assignments is too large")
    L, fixed = _dense_loglik(graph, spec, params, cov)
    log_alpha = _log_alpha(params.alpha)
    pairs = _pair_list(graph)
    radix = Q ** np.arange(n, dtype=np.int64)
    lls = np.empty(total)
    chunk = 1 << 16
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        Zc = (idx[:, None] // radix[None, :]) % Q
        ll = log_alpha[Zc].sum(axis=1) + fixed
        for i, j in pairs:
            ll += L[Zc[:, i], Zc[:, j], i, j]
        lls[start:start + idx.size] = ll
    return lls, radix


def exact_loglik(graph: ValuedGraph, spec, params: MixtureParams,
                 cov: EdgeCovariates | None = None) -> float:
    """log P(X; gamma) by summing the complete-data likelihood over all
    Q**n assignments (log-sum-exp).  Guarded to Q**n <= 10**7."""
    lls, _ = _assignment_logliks(graph, spec, params, cov)
    return float(logsumexp(lls))


def exact_posterior_marginals(graph: ValuedGraph, spec, params: MixtureParams,
                              cov: EdgeCovariates | None = None) -> np.ndarray:
    """P(Z_i = q | X; gamma) for every node, by full enumeration."""
    n, Q = graph.n, params.Q
    lls, radix = _assignment_logliks(graph, spec, params, cov)
    w = np.exp(lls - lls.max())
    marg = np.zeros((n, Q))
    idx = np.arange(lls.size, dtype=np.int64)
    for i in range(n):
        digits = (idx // radix[i]) % Q
        for q in range(Q):
            marg[i, q] = w[digits == q].sum()
    return marg / marg.sum(axis=1, keepdims=True)


def complete_data_loglik(graph: ValuedGraph, spec, params: MixtureParams, labels,
                         cov: EdgeCovariates | None = None) -> float:
    """log P(X, Z; gamma) for a hard assignment Z given as labels."""
    labels = np.asarray(labels, dtype=int)
    n, Q = graph.n, params.Q
    onehot = np.zeros((n, Q))
    onehot[np.arange(n), labels] = 1.0
    ops = _scorer(spec, graph, cov)(params.theta)
    return float(_log_alpha(params.alpha)[labels].sum() + ops.edge_term(onehot))
