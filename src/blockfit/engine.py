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
from scipy import sparse
from scipy.special import logsumexp, xlogy

from . import families
from .errors import BlockfitError, FamilyError, NumericalError
from .graph import EdgeCovariates, ValuedGraph, _check_memory

TAU_EPS = 1e-16          # clip for tau entries before logs
ALPHA_FLOOR = 1e-300     # keeps log alpha finite when a class empties
ESTEP_TOL = 1e-6         # max-norm fixed-point residual
ESTEP_MAX_SWEEPS = 200
ESTEP_MIN_STEP = 2.0 ** -30  # shortest line-search step before a sweep gives up
OUTER_TOL = 1e-6         # relative bound change
OUTER_MAX_ITER = 500
ENUM_LIMIT = 10 ** 7     # largest Q**n the exact oracle will enumerate
SPECTRAL_STEPS = 10      # block power steps (two products each) of the spectral start
SPECTRAL_OVERSAMPLE = 3  # columns iterated beyond the Q kept
KMEANS_RUNS = 3          # k-means++ seedings of the spectral start; the best is kept
KMEANS_MAX_ITER = 100
SPECTRAL_SEED = 20111    # fixed stream: the spectral start depends on (graph, Q) alone
GRAM_BLOCK = 2 ** 18     # entries in one row block of a CSR graph's Ward Gram matrix
# the start a fit takes when its first start fails with ValueError
START_FALLBACK = {"spectral": "hierarchical", "hierarchical": "random"}
# the names of the first start that fit takes besides a label vector
INIT_STARTS = ("auto", "spectral", "hierarchical", "hier", "random")
# a fit with several starts runs each to SHORT_RUN_FACTOR * tol and only the
# best of them on to tol; 3 and 100 were slower or lost ARI on the n = 100 cell
SHORT_RUN_FACTOR = 10


@dataclass
class MixtureParams:
    """gamma = (alpha, theta): group proportions plus connectivity params."""

    alpha: np.ndarray
    theta: object
    Q: int = field(init=False)  # alpha.size

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
    """Row softmax, clipped and renormalized as by :func:`_normalize_rows`,
    returned as the transpose of a class-major (Q, n) buffer.

    Reducing along axis 0 of that buffer is about 4x faster than along
    rows of Q entries at n = 1000, Q = 3.  The buffer is forced to be a
    copy: at Q = 1 the transpose of an (n, 1) array is already contiguous,
    and a view would let the softmax overwrite ``scores``.  The class sums
    keep numpy's row-sum order (:func:`_class_sums`), so the result is
    bit-identical to the row-wise softmax.  Entries are <= 1 before the
    clip, so the lower clip suffices.
    """
    e = np.array(scores.T, order="C")
    e -= e.max(axis=0)
    np.exp(e, out=e)
    e /= _class_sums(e)
    np.maximum(e, TAU_EPS, out=e)
    e /= _class_sums(e)
    return e.T


def _class_sums(e):
    """Sums over axis 0 of a (Q, n) array, adding in the order of numpy's
    pairwise sum along a row of Q entries: one by one below 8 entries, in 8
    interleaved partial sums up to 128, halves (cut at a multiple of 8)
    beyond."""
    Q = e.shape[0]
    if Q < 8:
        return e.sum(axis=0)
    if Q > 128:
        half = Q // 2 - (Q // 2) % 8
        return _class_sums(e[:half]) + _class_sums(e[half:])
    r = e[:8].copy()
    for i in range(8, Q - Q % 8, 8):
        r += e[i:i + 8]
    s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for i in range(Q - Q % 8, Q):
        s += e[i]
    return s


def _log_alpha(alpha):
    return np.log(np.maximum(alpha, ALPHA_FLOOR))


def _scorer(spec, graph, cov, workspace=None):
    """The family's scorer; the inputs are checked unless ``workspace``,
    built only for checked ones, is given."""
    fam = families.get_family(spec)
    if workspace is None:
        fam.check_graph(graph, cov)
    return fam.scorer(graph, cov, workspace)


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
    and rejected candidates; each, like the entry, costs one product.  The
    iterates are transposes of class-major arrays (see
    :func:`_softmax_rows`); tau is returned node-major (C-ordered), so the
    M-step and the bound sum it over the nodes in the same order as the
    start.
    """
    A = ops.node_scores(tau)
    A += log_alpha
    tlogt = xlogy(tau, tau)
    sweeps = backtracks = 0
    for _ in range(max_sweeps):
        prop = _softmax_rows(A)
        step = prop - tau
        if np.abs(step).max() < tol:
            return np.ascontiguousarray(tau), True, sweeps, backtracks
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
                return np.ascontiguousarray(tau), False, sweeps, backtracks
            cand = _normalize_rows(tau + t * step)
            delta = cand - tau
        tau, A, tlogt = cand, A_cand, clogc
        sweeps += 1
    return np.ascontiguousarray(tau), False, sweeps, backtracks


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
          prev=None, workspace=None) -> MixtureParams:
    """alpha_q = mean_i tau_iq; theta by the family's weighted MLE.

    ``workspace`` is the family's ``mstep_workspace(graph, cov)``, which
    :func:`fit` builds once and passes to each of its M-steps.  It is built
    only for a graph and covariates that passed ``check_graph``, so a call
    handed one checks nothing; without one, the call checks them once."""
    tau = np.asarray(tau, dtype=float)
    alpha = tau.mean(axis=0)
    alpha = alpha / alpha.sum()
    theta = families.weighted_mle(spec, tau, graph, cov, prev=prev, workspace=workspace)
    return MixtureParams(alpha=alpha, theta=theta)


def _profile_distances(graph: ValuedGraph) -> np.ndarray:
    """Condensed Euclidean distances between the nodes' edge-value profiles.

    The profile of node i is the row [A_i, B_i], with (A, B) = (X, X^T), or
    the two channels of paired values.  The squared distances are
    sq_i + sq_j - 2 G_ij from the Gram matrix G = A A^T + B B^T, matrix
    products instead of a pairwise loop over the n x 2n profiles.  A
    symmetric X gives G = 2 X X^T, one product (numpy runs it as one syrk);
    the graph's CSR view, when it has one, fills G ``GRAM_BLOCK`` entries at
    a time, so that no sparse product larger than a block is held beside G.
    """
    from scipy.spatial.distance import squareform

    # overflowing profiles give inf/nan here, which the linkage refuses
    with np.errstate(over="ignore", invalid="ignore"):
        if graph.value_kind == "paired":
            A, B = graph.values[:, :, 0], graph.values[:, :, 1]
            G = A @ A.T
            G += B @ B.T
        else:
            X = graph.sparse_values
            if X is None:
                X = graph.values
                G = X @ X.T
                if graph.directed:
                    G += X.T @ X
            else:
                Xt = X.T.tocsr() if graph.directed else X  # symmetric X: its own X^T
                G = np.empty((graph.n, graph.n))
                step = max(1, GRAM_BLOCK // graph.n)
                for i in range(0, graph.n, step):
                    rows = slice(i, i + step)
                    (X[rows] @ Xt).toarray(out=G[rows])
                    if graph.directed:
                        G[rows] += (Xt[rows] @ X).toarray()
                del Xt  # not held beside the distances
            if not graph.directed:
                G *= 2.0
        sq = G.diagonal().copy()
        G *= -2.0
        G += sq[:, None]
        G += sq[None, :]
        np.maximum(G, 0.0, out=G)
        np.fill_diagonal(G, 0.0)
        dist = squareform(G, checks=False)
        return np.sqrt(dist, out=dist)


def _ward_peak_bytes(graph: ValuedGraph) -> int:
    """Bytes the Ward start allocates at its peak, beyond the graph itself.

    The dense Gram matrix G (8 n^2) and the condensed distances that
    squareform copies out of it (4 n^2) give 12 n^2, and 16 n^2 when dense
    values sum two whole products (directed or paired); the linkage then
    holds the distances and its own copy (8 n^2).  A graph with a CSR view
    fills G in row blocks, and a block's sparse product and dense copy
    (at most 24 bytes an entry) are allowed for on top; a directed graph's
    transposed CSR copy (at most 5 % of n^2 entries) is freed before the
    distances are made.
    """
    n = graph.n
    if graph.value_kind != "paired" and graph.sparse_values is not None:
        return 12 * n * n + 24 * GRAM_BLOCK
    return (16 if graph.directed or graph.value_kind == "paired" else 12) * n * n


def _ward_labels(graph: ValuedGraph, Q: int) -> np.ndarray:
    """Labels 0..Q-1 of the Ward linkage of the profile distances, cut at Q
    groups.

    ValueError, before any n^2 array is allocated, when the start's peak
    (:func:`_ward_peak_bytes`) exceeds physical memory.  scipy's clustering
    modules, with the ``scipy.linalg`` and ``scipy.spatial`` they load, are
    imported here on the first Ward start, so that a run that never takes
    one never loads them.
    """
    _check_memory(_ward_peak_bytes(graph), f"hierarchical start: Ward linkage on n={graph.n} "
                  "nodes", ValueError)
    from scipy.cluster.hierarchy import fcluster, linkage

    Z = linkage(_profile_distances(graph), method="ward")
    return fcluster(Z, t=Q, criterion="maxclust") - 1


def _spectral_embedding(graph: ValuedGraph, Q: int, rng) -> np.ndarray:
    """Rows of the top-Q eigenvectors of the regularized Laplacian, scaled
    by their eigenvalues (Rohe, Chatterjee & Yu 2011; Qin & Rohe 2013).

    L = D_r^{-1/2} X D_c^{-1/2}, with D_r and D_c the row and column sums
    of |X| plus their mean, so that negative values cannot make a degree
    negative.  ``SPECTRAL_STEPS`` block power steps on L^T L (L^2 when X
    is symmetric), each two products and a QR of ``Q + SPECTRAL_OVERSAMPLE``
    columns (at most n), find the subspace of the Q eigenpairs of largest
    |lambda|; a Rayleigh-Ritz step then takes them from V^T L V.  When X is
    not symmetric (directed, or the first components of paired couples)
    that step is the SVD of L V instead, and the embedding is [U s, V s].
    L is built from the graph's CSR view (from the dense values when it
    has none), so a step costs O(nnz Q); the rest is numpy, because ARPACK
    would bring scipy's own OpenBLAS and a second thread pool.

    ValueError when a kept eigenvalue lies inside the noise bulk of L,
    whose edge is about sqrt(mean_i sum_j X_ij^2) / mean degree: on
    homogeneous degrees the noise X - E X has norm near
    2 sqrt(mean_i sum_j Var X_ij), bounded here by the second moments, and
    D is near twice the mean degree.  An eigenvector from the bulk carries
    no class signal, and k-means then cuts a class into halves that EM
    merges slowly, if at all: without this check a select_q sweep over
    Q = 1..6 of a 3-class n = 1000 graph took 1.7 s instead of 0.28 s with
    Ward starts (one BLAS thread, 2-core Xeon VM), and its fits at
    Q = 4..6 ended 20-46 lower in J.
    """
    X = graph.sparse_values
    if X is None:
        X = sparse.csr_array(graph.scalar_values)
    n = graph.n
    A = abs(X)
    d_row, d_col = A.sum(axis=1), A.sum(axis=0)
    reg = d_row.mean()
    if not reg > 0:
        raise ValueError("spectral start: every degree is zero")
    rows = np.repeat(np.arange(n), np.diff(X.indptr))
    with np.errstate(all="ignore"):
        scale = 1.0 / np.sqrt((d_row + reg)[rows] * (d_col + reg)[X.indices])
        L = sparse.csr_array((X.data * scale, X.indices, X.indptr), shape=(n, n))
        V = rng.standard_normal((n, min(n, Q + SPECTRAL_OVERSAMPLE)))
        two_sided = graph.directed or graph.value_kind == "paired"
        Lt = L.T if two_sided else L
        for _ in range(SPECTRAL_STEPS):
            V = np.linalg.qr(Lt @ (L @ V))[0]
        if two_sided:
            U, R = np.linalg.qr(L @ V)
            P, s, Rt = np.linalg.svd(R)
            lam = s[:Q]
            emb = np.hstack([(U @ P[:, :Q]) * lam, (V @ Rt[:Q].T) * lam])
        else:
            H = V.T @ (L @ V)
            w, W = np.linalg.eigh(0.5 * (H + H.T))
            top = np.argsort(-np.abs(w), kind="stable")[:Q]
            lam = w[top]
            emb = (V @ W[:, top]) * lam
        edge = np.sqrt(np.square(X.data).sum() / n) / reg
    if not np.all(np.isfinite(emb)):
        raise ValueError("spectral start: the embedding is not finite")
    clear = int(np.sum(np.abs(lam) > edge))
    if clear < Q:
        raise ValueError(f"spectral start: {clear} of the {Q} leading eigenvalues "
                         f"clear the noise edge {edge:.3g}")
    return emb


def _kmeans(points: np.ndarray, Q: int, rng) -> np.ndarray:
    """Labels of the best of ``KMEANS_RUNS`` k-means++ seedings, each refined
    by Lloyd steps until no label changes, by within-cluster sum of squares.

    A seeding that finds fewer than Q distinct points, or a Lloyd step that
    empties a cluster, drops its run; ValueError when every run is dropped.
    """
    P = np.ascontiguousarray(points.T)  # (d, n): sums over d run along rows
    n = P.shape[1]
    best, best_ss = None, np.inf
    for _ in range(KMEANS_RUNS):
        picks = [rng.integers(n)]
        d2 = np.square(P - P[:, picks]).sum(axis=0)
        while len(picks) < Q and d2.sum() > 0:
            cum = np.cumsum(d2)
            # side="right" lands where d2 > 0, on a point not yet picked
            k = np.searchsorted(cum, rng.uniform() * cum[-1], side="right")
            picks.append(min(int(k), n - 1))
            np.minimum(d2, np.square(P - P[:, picks[-1:]]).sum(axis=0), out=d2)
        if len(picks) < Q:
            continue
        centres, labels = points[picks], None
        for _ in range(KMEANS_MAX_ITER):
            # squared distances up to the per-point constant |p|^2
            dist = np.square(centres).sum(axis=1)[:, None] - 2.0 * (centres @ P)
            new = dist.argmin(axis=0)
            if labels is not None and np.array_equal(new, labels):
                break
            labels = new
            member = (labels == np.arange(Q)[:, None]).astype(float)
            counts = member.sum(axis=1)
            if not counts.all():
                break
            centres = (member @ points) / counts[:, None]
        if not counts.all():
            continue
        ss = float(dist[labels, np.arange(n)].sum())
        if ss < best_ss:
            best, best_ss = labels, ss
    if best is None:
        raise ValueError(f"spectral start: k-means found fewer than {Q} non-empty clusters")
    return best


def check_seed(seed) -> None:
    """ValueError for a negative integer seed, which no random stream takes;
    any other seed is left to :func:`numpy.random.default_rng`."""
    if isinstance(seed, (int, numbers.Integral)) and seed < 0:
        raise ValueError(f"seed must be at least 0, got {seed}")


def substream(seed, key: int):
    """Seed of sub-stream ``key`` of ``seed``: None for None, ``[seed, key]``
    for an integer, else the SeedSequence of ``default_rng(seed)`` with
    ``key`` appended to its spawn key."""
    if seed is None or isinstance(seed, numbers.Integral):
        return None if seed is None else [int(seed), key]
    parent = np.random.default_rng(seed).bit_generator.seed_seq
    return np.random.SeedSequence(parent.entropy, spawn_key=(*parent.spawn_key, key))


def init_partition(graph: ValuedGraph, Q: int, strategy: str = "hierarchical",
                   seed=None, labels=None) -> VariationalPosterior:
    """Initial tau as a softened hard partition (0.95 on the assigned class).

    ``hierarchical`` clusters the nodes by Euclidean distance between their
    edge-value profiles (row and column concatenated) with Ward linkage cut
    at Q groups; ``spectral`` runs k-means on a regularized spectral
    embedding (see :func:`_spectral_embedding` and :func:`_kmeans`), in
    O(nnz) per product on a graph with a CSR view; ``random`` draws labels
    uniformly from ``default_rng(seed)`` (:func:`check_seed`); ``given``
    softens the supplied label vector, whose entries must be integers
    (integral floats are taken).  Fallbacks are :func:`fit`'s.

    The spectral start draws from a fixed stream, so, like the hierarchical
    one, it depends on (graph, Q) alone.  It raises ValueError when every
    degree is zero, the embedding is not finite, fewer than Q eigenvalues
    stand clear of the noise (so that Q exceeds the classes the spectrum
    shows), or k-means cannot fill Q clusters.

    The hierarchical distances come from Gram products (see
    :func:`_profile_distances`).  For integer values (count, binary, label)
    every intermediate is an exact integer while the squared profile norms
    stay below 2**53, so the distances, the linkage and the labels are
    bit-identical to ``linkage(profile, "ward")``; for real values they agree
    to rounding.  The hierarchical start raises ValueError when its 12-16
    n^2 bytes (:func:`_ward_peak_bytes`) would exceed physical memory,
    checked before any is allocated, and when profiles whose squared
    distances overflow make the linkage refuse its non-finite distances, as
    it did on the profiles themselves.  scipy's clustering modules are
    imported on the first hierarchical start (see :func:`_ward_labels`), so
    the other starts never load them.
    """
    n = graph.n
    if Q < 1 or Q > n:
        raise ValueError(f"Q must lie in 1..n, got {Q}")
    if strategy not in ("hierarchical", "spectral", "random", "given"):
        raise ValueError(f"unknown init strategy {strategy!r}")
    if strategy == "random":
        check_seed(seed)
    if strategy == "given":
        if labels is None:
            raise ValueError("strategy 'given' requires a label vector")
        labels = np.asarray(labels)
        if labels.dtype.kind not in "iuf" or not np.all(np.isfinite(labels) & (labels % 1 == 0)):
            raise ValueError(f"labels must be integers, got {labels.dtype} entries")
        labels = labels.astype(int)
        if labels.shape != (n,) or labels.min() < 0 or labels.max() >= Q:
            raise ValueError("labels must be length n with values in 0..Q-1")
    if Q == 1:
        return VariationalPosterior(tau=np.ones((n, 1)))
    if strategy == "hierarchical":
        labels = _ward_labels(graph, Q)
    elif strategy == "spectral":
        rng = np.random.default_rng(SPECTRAL_SEED)
        labels = _kmeans(_spectral_embedding(graph, Q, rng), Q, rng)
    elif strategy == "random":
        labels = np.random.default_rng(seed).integers(0, Q, size=n)
    tau = np.full((n, Q), 0.05 / (Q - 1))
    tau[np.arange(n), labels] = 0.95
    return VariationalPosterior(tau=tau)


def relabel_descending(params: MixtureParams, tau):
    """Joint relabeling so that alpha_1 >= alpha_2 >= ... (stable on ties)."""
    tau = np.asarray(tau, dtype=float)
    perm = np.argsort(-params.alpha, kind="stable")
    out = MixtureParams(alpha=params.alpha[perm], theta=params.theta.permute(perm))
    return out, tau[:, perm]


def _run_em(graph, spec, scorer, tau0, cov, tol, max_outer, workspace=None, *, state=None):
    """Variational EM from ``tau0`` until an outer iteration changes the
    bound by less than ``tol`` relative, or for ``max_outer`` iterations.

    Returns the run's state: ``params``, ``tau``, ``trajectory``,
    ``iterations``, ``change`` (the last bound change), ``converged`` and
    ``estep_converged``, with the ``estep_*`` counts of this call alone.  A
    ``state`` returned at a looser tol resumes that run instead (``tau0`` is
    then unused); its scores are rebuilt from its parameters, so the two
    calls end where one call at ``tol`` ends, bit for bit.  A state whose
    last change already meets ``tol`` comes back as it is.
    """
    ops = None
    if state is None:
        params = mstep(graph, spec, tau0, cov, workspace=workspace)
        ops = scorer(params.theta)
        state = {"params": params, "tau": tau0, "iterations": 0, "change": np.inf,
                 "trajectory": [_bound_from_ops(ops, tau0, _log_alpha(params.alpha))],
                 "estep_converged": True}
    params, tau, traj = state["params"], state["tau"], list(state["trajectory"])
    iterations, change, est_ok = state["iterations"], state["change"], state["estep_converged"]
    j = traj[-1]
    converged = change < tol * max(1.0, abs(j))
    estep_unconverged = sweeps = backtracks = 0
    if not converged and iterations < max_outer:
        if ops is None:
            ops = scorer(params.theta)
        log_alpha = _log_alpha(params.alpha)
        for iterations in range(iterations + 1, max_outer + 1):
            tau, est_ok, est_sweeps, est_backtracks = _estep_core(
                ops, log_alpha, tau, ESTEP_TOL, ESTEP_MAX_SWEEPS)
            estep_unconverged += not est_ok
            sweeps += est_sweeps
            backtracks += est_backtracks
            traj.append(_bound_from_ops(ops, tau, log_alpha))
            ops = None  # the next scores are built without the old ones alive
            params = mstep(graph, spec, tau, cov, prev=params.theta, workspace=workspace)
            ops = scorer(params.theta)
            log_alpha = _log_alpha(params.alpha)
            j_new = _bound_from_ops(ops, tau, log_alpha)
            traj.append(j_new)
            change, j = abs(j_new - j), j_new
            if change < tol * max(1.0, abs(j_new)):
                converged = True
                break
    return {
        "params": params,
        "tau": tau,
        "trajectory": traj,
        "converged": converged,
        "iterations": iterations,
        "change": change,
        "estep_unconverged": estep_unconverged,
        "estep_sweeps": sweeps,
        "estep_backtracks": backtracks,
        "estep_converged": est_ok,
    }


def _leader(runs):
    """Key of the run with the highest final bound in ``runs`` (keys
    ascending), the earliest one when bounds agree to 1e-12 relative."""
    top = max(out["trajectory"][-1] for out in runs.values())
    return next(r for r, out in runs.items()
                if out["trajectory"][-1] >= top - 1e-12 * max(1.0, abs(top)))


def fit(graph: ValuedGraph, spec, Q: int, cov: EdgeCovariates | None = None, *,
        init: str = "auto", restarts: int = 5,
        seed=None, tol: float = OUTER_TOL, max_outer: int = OUTER_MAX_ITER,
        workspace=None) -> FitResult:
    """Best-of-restarts variational EM fit with Q latent groups.

    The first restart uses the requested ``init`` strategy.  The default,
    ``"auto"``, takes the spectral start of :func:`init_partition` on a
    graph with a CSR view (``graph.sparse_values`` is not None) and the
    hierarchical one otherwise; ``"spectral"``, ``"hierarchical"`` (or
    ``"hier"``), ``"random"`` or a label vector ask for that start.  A
    start that fails with ValueError gives way to the next of
    ``START_FALLBACK``: spectral to hierarchical, and hierarchical (its
    12-16 n^2 bytes exceed physical memory, or its linkage refuses the
    profiles) to random, each step noted with its reason in
    ``diagnostics["init_fallback"]``; ``diagnostics["init"]`` names the
    start taken.  Only a hierarchical start imports scipy's clustering
    modules, on its first use.
    Restart r of the rest draws a random partition from
    ``default_rng(substream(seed, r))``, ``[seed, r]`` for an integer
    seed.  ValueError before any start unless Q and ``restarts`` are
    integers (:func:`families.as_int`: a bool is not), Q lies in 1..n,
    ``restarts`` is at least 1, a label vector holds integers and the seed
    is not a negative integer (:func:`check_seed`).  The graph and
    covariates are checked once, when the fit's workspace is built
    (:meth:`families._Family.mstep_workspace`); a ``workspace`` handed in,
    as :func:`selection.select_q` hands one to every Q, is trusted.

    With several starts, every start first runs only to the loose tolerance
    ``SHORT_RUN_FACTOR * tol`` (the "small EM" of Biernacki, Celeux &
    Govaert 2003).  The start whose short run ends with the highest bound
    (the earliest one when bounds agree to 1e-12 relative) then carries on
    to ``tol`` from where it stopped, and the others stop there; if it
    fails on the way, the next-ranked start carries on instead.  The fit
    returned is that start's full run, bit for bit, with classes relabeled
    in descending estimated-proportion order.  One start runs straight to
    ``tol``.  ``diagnostics["short_run_bounds"]`` holds each start's bound
    at the end of its short run (None for a start that failed; the whole
    entry is None for one start), ``diagnostics["continued"]`` the index of
    the start carried on, and the ``estep_*`` counts sum over every run.

    Raises
    ------
    NumericalError
        If every restart fails with a numerical/family error, in its short
        run or on its way to ``tol``.
    """
    check_seed(seed)
    Q, restarts = families.as_int("Q", Q), families.as_int("restarts", restarts)
    if not 1 <= Q <= graph.n:
        raise ValueError(f"Q must lie in 1..n, got {Q}")
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    fam = families.get_family(spec)
    if workspace is None:
        workspace = fam.mstep_workspace(graph, cov)
    scorer = fam.scorer(graph, cov, workspace)

    labels = None
    if not isinstance(init, str):
        labels, init = init, "given"
    elif init not in INIT_STARTS:
        raise ValueError(f"unknown init strategy {init!r}")
    elif init == "auto":
        init = "hierarchical" if graph.sparse_values is None else "spectral"
    elif init == "hier":
        init = "hierarchical"

    inits, fallbacks = [], []
    while init in START_FALLBACK:
        try:
            inits.append(init_partition(graph, Q, strategy=init).tau)
            break
        except ValueError as exc:
            fallbacks.append(f"{init} start failed, {START_FALLBACK[init]} start used: {exc}")
            init = START_FALLBACK[init]
    if init == "given":
        inits.append(init_partition(graph, Q, strategy="given", labels=labels).tau)
    for r in range(len(inits), restarts):
        inits.append(init_partition(graph, Q, strategy="random", seed=substream(seed, r)).tau)

    # several starts each run to the loose tol, and only the leader goes on
    several = len(inits) > 1
    runs, failures, short_bounds = {}, [], []
    estep_counts = dict.fromkeys(("estep_unconverged", "estep_sweeps", "estep_backtracks"), 0)

    def run(r, tol, state=None):
        try:
            out = _run_em(graph, spec, scorer, inits[r], cov, tol, max_outer, workspace,
                          state=state)
        except (FamilyError, NumericalError, np.linalg.LinAlgError) as exc:
            failures.append(f"restart {r}{'' if state is None else ' (continued)'}: {exc}")
            return None
        for key in estep_counts:
            estep_counts[key] += out[key]
        return out

    for r in range(len(inits)):
        out = run(r, SHORT_RUN_FACTOR * tol if several else tol)
        short_bounds.append(None if out is None else out["trajectory"][-1])
        if out is not None:
            runs[r] = out
    best = None
    while best is None:
        if not runs:
            raise NumericalError("all restarts diverged: " + "; ".join(failures))
        continued = _leader(runs)
        best = run(continued, tol, runs.pop(continued)) if several else runs[continued]

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
            "init": init,
            "init_fallback": "; ".join(fallbacks) or None,
            "short_run_bounds": short_bounds if several else None,
            "continued": continued,
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


def _assignment_logliks(graph, spec, params, cov):
    """Complete-data log-likelihood of every one of the Q**n assignments."""
    n, Q = graph.n, params.Q
    total = Q ** n
    if total > ENUM_LIMIT:
        raise NumericalError(f"enumeration of {Q}**{n} assignments is too large")
    L, fixed = _dense_loglik(graph, spec, params, cov)
    log_alpha = _log_alpha(params.alpha)
    pairs = graph.pair_index()
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
                         cov: EdgeCovariates | None = None, *, workspace=None) -> float:
    """log P(X, Z; gamma) for a hard assignment Z given as labels;
    ``workspace`` is as for :func:`mstep`, which the scorer may share: the
    inputs are checked only without one."""
    labels = np.asarray(labels, dtype=int)
    n, Q = graph.n, params.Q
    onehot = np.zeros((n, Q))
    onehot[np.arange(n), labels] = 1.0
    ops = _scorer(spec, graph, cov, workspace)(params.theta)
    return float(_log_alpha(params.alpha)[labels].sum() + ops.edge_term(onehot))
