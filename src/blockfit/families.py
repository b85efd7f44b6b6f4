"""Edge-distribution families: log-densities and weighted ML updates.

Every family answers three questions for the fitting engine:

* scoring -- log f_ql(X_ij) for all blocks (q, l) and pairs (i, j), for
  every family as a sum-of-products decomposition
  log f_ql(X_ij) = sum_k S_k[i,j] C_k[q,l]  (cheap matrix products, see
  :class:`DecomposedScores`).  PRMI, whose log-density has no block-free
  statistic, takes one statistic per block with a one-hot coefficient.
  A decomposition keeps only the statistics whose coefficient varies with
  the block as n x n arrays: the off-diagonal indicator becomes a (Q, Q)
  ``mask`` coefficient scored in closed form, and every term that is the
  same for all blocks (-log X!, PRMH's X * g, simplereg's shared-slope
  terms) is summed once into the scalar ``fixed``, which the E-step's
  softmax never needs.  Poisson thus costs one n x n product per E-sweep
  and orientation, and Poisson and Bernoulli take the graph's CSR view as
  their statistic when it has one, which makes that product and every
  block sum O(nnz Q);
* estimation -- the maximizer of the weighted log-likelihood
  sum_{i != j} tau_iq tau_jl log f_ql(X_ij).  One driver,
  :meth:`_Family.weighted_mle`, serves every family: it takes the block
  weights, asks the family for its estimate, freezes the degenerate blocks
  (below), makes undirected estimates symmetric and builds the record.
  The seven families with block-free statistics (Poisson, Bernoulli,
  multinomial, Gaussian, bigauss, linreg, simplereg) derive from
  :class:`_StatFamily`: each lists its n x n statistics S_k once, and the
  same list feeds the scorer (with the family's coefficients) and the
  estimate, which maps the block sums T_k = tau^T S_k tau and the block
  weights to the parameters.  The Poisson regressions run Newton on the
  weighted GLM objective.  Each fit builds once what its M-steps reuse
  (``mstep_workspace``), after the one check of its graph and covariates:
  the statistics list, which its scorer shares, or the regressions'
  covariate channels;
* bookkeeping -- sampling and block means per family; the rest comes from
  two tables.  The registry :data:`FAMILIES` maps each kind to its class,
  the value kind of its graphs (read by the CLI, sampling and
  ``check_graph``), its use of covariates and its parameter arrays, each
  block-wise (leading (Q, Q) axes) or shared, with a trailing shape and a
  domain.  :class:`BlockParams`, the one parameter record, validates those
  arrays when it is built and derives ``Q``, ``permute``, the JSON round
  trip and :func:`param_count` from the same row.

Blocks whose total weight falls below ``DEGENERATE_REL_TOL`` times the
overall weight are flagged in the ``degenerate`` mask, and every block-wise
array keeps its previous value there (without one, the family's estimate
pooled over all blocks: for the Poisson regressions the rate of all blocks
together with beta = 0), so a temporarily empty class cannot poison the
fit with NaNs.  Shared arrays are estimated from the other blocks.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cache, partial
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.special import gammaln

from .errors import FamilyError, NumericalError, SingularBlockError
from .graph import EdgeCovariates, ValuedGraph

# Surrogate for log f of an impossible value (x > 0 under a zero Poisson
# rate, x = 1 under pi = 0, ...); keeps the fixed point finite.
LOG_ZERO = -1.0e12

# Block weight below this fraction of the total weight -> frozen parameter.
DEGENERATE_REL_TOL = 1e-12

# Variance floor for the Gaussian-type families.
VAR_FLOOR = 1e-12

# Fitted probabilities stay inside (0, 1): a weighted mean that rounds to
# exactly 1.0 would push log(1 - pi) onto the LOG_ZERO surrogate and wreck
# the bound for edges carrying clipped-tau residual weight.
PROB_FLOOR = 1e-12

# Largest count whose -log X! is read from a histogram of the values (see
# _log_factorial_total), and the entries counted per chunk.  The histogram
# costs a gammaln call over its 4097 bins at most, about 0.1 ms.
LOG_FACTORIAL_HIST_MAX = 4096
_HIST_CHUNK = 1 << 16

# Poisson-regression Newton controls.
REG_MAX_ITER = 100
REG_REL_TOL = 1e-8
REG_GRAD_TOL = 1e-8
REG_BETA_BOUND = 1e3


def as_int(name, value):
    """``value`` as an int.  A bool, a number with a fraction or a
    non-number, which int() would take, truncate or parse, raises
    ValueError.  The builtin type leads the isinstance tuple: it matches at
    once, where the numbers ABC alone takes about 0.3 us per check."""
    if isinstance(value, bool) or not (isinstance(value, (int, numbers.Integral))
                                       or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class FamilySpec:
    """Choice of edge distribution plus its structural options.

    Parameters
    ----------
    kind : str
        One of ``FAMILY_KINDS``.
    num_labels : int, optional
        Number of labels m for the multinomial family.
    covariate_dim : int, optional
        Covariate dimension p for the regression families (simplereg is
        scalar, p = 1).

    Both are integers when given (:func:`as_int`).
    """

    kind: str
    num_labels: int | None = None
    covariate_dim: int | None = None

    def __post_init__(self):
        if self.kind not in FAMILIES:
            raise FamilyError(f"unknown family kind {self.kind!r}")
        for name in ("num_labels", "covariate_dim"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, as_int(name, getattr(self, name)))
        dims = {d for a in FAMILIES[self.kind].params for d in a.shape}
        if "m" in dims and (self.num_labels is None or self.num_labels < 2):
            raise FamilyError(f"{self.kind} family requires num_labels >= 2")
        if self.uses_covariates:
            p = 1 if self.covariate_dim is None else self.covariate_dim
            # a family with no p-sized parameter has one slope: scalar covariate
            if "p" not in dims and p != 1:
                raise FamilyError(f"{self.kind} uses a scalar covariate (p = 1)")
            if p < 1:
                raise FamilyError("covariate dimension must be >= 1")
            object.__setattr__(self, "covariate_dim", p)

    @property
    def uses_covariates(self) -> bool:
        return FAMILIES[self.kind].covariates


def _spec_sizes(spec: FamilySpec) -> dict:
    """Values of the symbolic trailing sizes of :class:`ParamArray`."""
    return {"p": spec.covariate_dim, "m": spec.num_labels}


# ---------------------------------------------------------------------------
# Parameter records


def _finite(a):
    return None if np.all(np.isfinite(a)) else "must be finite"


def _nonnegative(a):
    return None if np.all(np.isfinite(a) & (a >= 0)) else "must be finite and >= 0"


def _unit(a):
    return None if np.all((a >= 0) & (a <= 1)) else "must lie in [0, 1]"


def _simplex(a):
    return _unit(a) or (None if np.allclose(a.sum(axis=-1), 1.0, atol=1e-8)
                        else "must sum to 1 over the labels")


def _positive(a):
    return None if np.all(a > 0) else "must be > 0"


def _spd2(a):
    det = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    if not np.all((a[..., 0, 0] > 0) & (det > 0)):
        return "must be positive definite"
    return None if np.allclose(a[..., 0, 1], a[..., 1, 0]) else "must be symmetric"


@dataclass(frozen=True)
class ParamArray:
    """One named parameter array in a family's row of :data:`FAMILIES`.

    A ``blockwise`` array has leading (Q, Q) axes, one value per block
    (q, l); a shared one holds a single value for all blocks.  ``shape`` is
    the trailing shape, in which "p" stands for the covariate dimension and
    "m" for the number of labels.  ``domain`` maps the array to None or to
    what is wrong with it, and ``what`` names the array in that message.
    """

    name: str
    blockwise: bool
    shape: tuple
    domain: object
    what: str

    def dof(self, sizes) -> int:
        """Independent values per block (block-wise) or in all (shared)."""
        shape = [sizes.get(d, d) for d in self.shape]
        size = int(np.prod(shape))
        if self.domain is _simplex:
            return size - size // shape[-1]
        return 3 if self.domain is _spd2 else size


class BlockParams:
    """Connectivity parameters theta of one family kind.

    Each array of the kind's row in :data:`FAMILIES` is an attribute
    (``theta.lam``), as are the row's flags (``theta.shared``), ``Q`` and
    ``degenerate``, the (Q, Q) mask of blocks the last M-step froze.  The
    record is validated once, here, whichever way it is built (M-step, fit
    JSON, user code): block-wise arrays are (Q, Q, *trailing) with one Q,
    shared arrays have their trailing shape, the sizes "p" and "m" agree
    across arrays and with ``sizes`` when given, and values lie in their
    domains; otherwise FamilyError.
    """

    def __init__(self, kind, degenerate=None, *, sizes=None, **values):
        if kind not in FAMILIES:
            raise FamilyError(f"unknown family kind {kind!r}")
        row = FAMILIES[kind]
        sizes = {d: n for d, n in (sizes or {}).items() if n is not None}
        Q = None
        for arr in row.params:
            a = np.asarray(values.pop(arr.name), dtype=float)
            if a.size == 0:
                raise FamilyError(f"{arr.name} must not be empty")
            if arr.blockwise and Q is None:
                Q = a.shape[0] if a.ndim else "Q"
            lead = (Q, Q) if arr.blockwise else ()
            if a.ndim == len(lead) + len(arr.shape):
                for d, n in zip(arr.shape, a.shape[len(lead):]):
                    if isinstance(d, str):
                        sizes.setdefault(d, n)
            want = lead + tuple(sizes.get(d, d) for d in arr.shape)
            if a.shape != want:
                raise FamilyError(
                    f"{arr.name} must have shape ({', '.join(map(str, want))}), got {a.shape}")
            problem = arr.domain(a)
            if problem:
                raise FamilyError(f"{arr.what} {problem}")
            setattr(self, arr.name, a)
        if values:
            raise TypeError(f"unexpected {kind} parameters: {', '.join(values)}")
        if degenerate is not None:
            degenerate = np.asarray(degenerate, dtype=bool)
            if degenerate.shape != (Q, Q):
                raise FamilyError(f"degenerate must have shape ({Q}, {Q}), got {degenerate.shape}")
        self.kind, self.Q, self.degenerate = kind, Q, degenerate
        for flag, value in row.flags:
            setattr(self, flag, value)

    def arrays(self) -> dict:
        """The parameter arrays by name, in table order."""
        return {a.name: getattr(self, a.name) for a in FAMILIES[self.kind].params}

    def permute(self, perm):
        """The same parameters with classes relabeled: block (q, l) of the
        result is block (perm[q], perm[l]) of this record."""
        ix = np.ix_(perm, perm)
        blockwise = FAMILIES[self.kind].blockwise
        values = {k: v[ix] if k in blockwise else v for k, v in self.arrays().items()}
        return BlockParams(self.kind, None if self.degenerate is None else self.degenerate[ix],
                           **values)

    def __repr__(self):
        values = ", ".join(f"{k}={v!r}" for k, v in self.arrays().items())
        return f"BlockParams({self.kind!r}, {values})"


# Constructors of the records, one per family (PoissonRegParams serves both
# Poisson regressions); they take the arrays of the table row by name.


def PoissonParams(lam, degenerate=None) -> BlockParams:
    """Poisson mixture (PM): rates ``lam`` (Q, Q)."""
    return BlockParams("poisson", degenerate, lam=lam)


def PoissonRegParams(lam, beta, shared=True, degenerate=None) -> BlockParams:
    """Poisson regression: rates ``lam`` (Q, Q), coefficients ``beta`` (p,)
    for PRMH (``shared``) or (Q, Q, p) for PRMI."""
    return BlockParams("poisson-prmh" if shared else "poisson-prmi", degenerate,
                       lam=lam, beta=beta)


def BernoulliParams(pi, degenerate=None) -> BlockParams:
    """Bernoulli: edge probabilities ``pi`` (Q, Q)."""
    return BlockParams("bernoulli", degenerate, pi=pi)


def MultinomialParams(probs, degenerate=None) -> BlockParams:
    """Multinomial: label probabilities ``probs`` (Q, Q, m)."""
    return BlockParams("multinomial", degenerate, probs=probs)


def GaussianParams(mu, sigma2, degenerate=None) -> BlockParams:
    """Gaussian: means ``mu`` and variances ``sigma2``, both (Q, Q)."""
    return BlockParams("gaussian", degenerate, mu=mu, sigma2=sigma2)


def BivariateGaussianParams(mu, cov, degenerate=None) -> BlockParams:
    """Bivariate Gaussian: means ``mu`` (Q, Q, 2), covariances ``cov`` (Q, Q, 2, 2)."""
    return BlockParams("bigauss", degenerate, mu=mu, cov=cov)


def LinearRegressionParams(beta, sigma2, degenerate=None) -> BlockParams:
    """Linear regression: coefficients ``beta`` (Q, Q, p), variances ``sigma2`` (Q, Q)."""
    return BlockParams("linreg", degenerate, beta=beta, sigma2=sigma2)


def SimpleRegressionParams(intercept, slope, sigma2, degenerate=None) -> BlockParams:
    """Simple regression: ``intercept`` (Q, Q), shared ``slope`` and ``sigma2``."""
    return BlockParams("simplereg", degenerate, intercept=intercept, slope=slope, sigma2=sigma2)


# ---------------------------------------------------------------------------
# Score containers consumed by the variational engine


class DecomposedScores:
    """log f_ql(X_ij) = sum_k stats[k][i, j] * coeffs[k][q, l]
                        + mask[q, l] + c_ij   (i != j).

    All stats carry a zero diagonal, so sums over j automatically exclude
    j = i.  A statistic may be a ``scipy.sparse`` CSR array (the graph's
    :attr:`~blockfit.graph.ValuedGraph.sparse_values`); every product puts
    it on the left, so it stays sparse until :meth:`dense`.  Two parts need
    no n x n statistic:

    * ``mask`` -- the (Q, Q) coefficient of the off-diagonal indicator
      (log(1 - pi), -lam, normalizing constants).  Its product with tau has
      the closed form M @ tau = colsum(tau) - tau, O(nQ);
    * ``fixed`` -- the pair sum of c_ij, every term that is the same for all
      blocks (-log X!, PRMH's X * g, ...), as one scalar.  It shifts each
      row of the node scores by a constant, which cancels in the softmax,
      so :meth:`node_scores` leaves it out; :meth:`edge_term` adds it once
      (tau rows sum to 1).

    A coefficient with a row of zeros (PRMI's one-hot coefficients, one per
    block) takes one matrix-vector product per non-zero row,
    D^T[r] += S (tau C[r]), instead of a product over all Q rows; for
    directed graphs likewise one per non-zero column on the transposed
    side, (tau C[:, c]) S.  Which rows and columns those are is decided
    once, here; a coefficient without zeros costs one count.
    """

    def __init__(self, stats, coeffs, directed, mask=None, fixed=0.0):
        self.stats = [s if sparse.issparse(s) else np.asarray(s) for s in stats]
        self.coeffs = [np.asarray(c, dtype=float) for c in coeffs]
        self.directed = directed
        self.mask = None if mask is None else np.asarray(mask, dtype=float)
        self.fixed = float(fixed)
        self._lines = [_live_lines(C) for C in self.coeffs]

    def node_scores(self, tau):
        """D[i, q] = sum_{j != i} sum_l tau[j, l] * g_ql(i, j), less ``fixed``.

        For directed graphs g includes both log f_ql(X_ij) and
        log f_lq(X_ji); for undirected graphs only the former.

        The sum is accumulated class-major, as the (Q, n) array D^T, and
        returned as its transpose (a view): D^T += (C tau^T) S^T streams a
        dense n x n statistic in the orientation BLAS runs faster, 1.4x
        the node-major S (tau C^T) at n = 1000, Q = 3 on one Xeon core.
        S^T is not replaced by S for undirected graphs, whose paired
        (bigauss) statistics are not symmetric.  A CSR statistic stays on
        the left, S (tau C^T), and is added transposed.  The transposed
        side of a directed graph is the same product of (S^T, C^T).
        """
        Dt = np.zeros((tau.shape[1], tau.shape[0]))
        for S, C, (rows, cols) in zip(self.stats, self.coeffs, self._lines):
            _add_product(Dt, S, C, rows, tau)
            if self.directed:
                _add_product(Dt, S.T, C.T, cols, tau)
        if self.mask is not None:
            rest = (tau.sum(axis=0) - tau).T  # (M @ tau)^T
            Dt += self.mask @ rest
            if self.directed:
                Dt += self.mask.T @ rest
        return Dt.T

    def edge_term(self, tau):
        """sum over pairs (ordered, or i<j when undirected) of ttlogf."""
        t = 0.0
        for S, C, (rows, _) in zip(self.stats, self.coeffs, self._lines):
            if rows is None:
                t += np.sum(_block_sums(S, tau) * C)
            else:
                t += sum(tau[:, r] @ (S @ (tau @ C[r])) for r in rows)
        if self.mask is not None:
            col = tau.sum(axis=0)
            t += np.sum((np.outer(col, col) - tau.T @ tau) * self.mask)
        return (t if self.directed else 0.5 * t) + self.fixed

    def dense(self):
        """(Q, Q, n, n) tensor of the block-dependent part (without ``fixed``)."""
        S = np.stack([s.toarray() if sparse.issparse(s) else s for s in self.stats])
        C = np.stack(self.coeffs)
        L = np.einsum("kql,kij->qlij", C, S)
        if self.mask is not None:
            L += self.mask[:, :, None, None] * _offdiag_mask(S.shape[-1])
        return L

    # Kept only because bench/tracer.py looks this name up on the class; the
    # next change to the benchmark removes it.  Nothing calls it.
    gs_state = None


def _live_lines(C):
    """(rows, columns) of C that hold a non-zero entry, as index arrays, each
    None when every one does.  A C without zeros costs one count."""
    if np.count_nonzero(C) == C.size:
        return None, None
    rows, cols = C.any(axis=1), C.any(axis=0)
    return (None if rows.all() else np.flatnonzero(rows),
            None if cols.all() else np.flatnonzero(cols))


def _add_product(Dt, S, C, rows, tau):
    """Dt[q] += S @ (tau @ C[q]) for every row q of C as one product, or
    for the rows q in ``rows`` as one matrix-vector product each."""
    if rows is None:
        Dt += (S @ (tau @ C.T)).T if sparse.issparse(S) else (C @ tau.T) @ S.T
        return
    for r in rows:
        Dt[r] += S @ (tau @ C[r])


class DenseScores:
    """Empty.  bench/tracer.py looks these three names up on the class; the
    next change to the benchmark removes it, as it does ``gs_state`` on
    :class:`DecomposedScores`.  No family scores through it."""

    node_scores = edge_term = gs_state = None


# ---------------------------------------------------------------------------
# Shared numeric helpers


def _safe_log(a):
    """log with LOG_ZERO standing in for log 0."""
    a = np.asarray(a, dtype=float)
    return np.where(a > 0, np.log(np.where(a > 0, a, 1.0)), LOG_ZERO)


def _offdiag_mask(n):
    return 1.0 - np.eye(n)


def _pair_total(S, directed):
    """sum of S_ij over the pairs (i != j, or i < j when undirected and S
    is symmetric)."""
    t = float(S.sum() - np.trace(S))
    return t if directed else 0.5 * t


def _log_factorial_total(graph):
    """-sum of log X_ij! over the pairs, through the CSR view when the graph
    has one.

    Count graphs hold non-negative integers (their constructor checks), so
    when the largest is at most ``LOG_FACTORIAL_HIST_MAX`` the sum is
    sum_k #{X_ij = k} log k!, from a histogram of the values counted in
    chunks of ``_HIST_CHUNK`` entries (no n^2 integer copy).  Larger values
    sum gammaln(x + 1) over the entries x > 1 (log 0! = log 1! = 0).
    """
    x = _scalar_entries(graph).reshape(-1)
    top = x.max(initial=0.0)
    if top <= LOG_FACTORIAL_HIST_MAX:
        counts = np.zeros(int(top) + 1, dtype=np.int64)
        for start in range(0, x.size, _HIST_CHUNK):
            counts += np.bincount(x[start:start + _HIST_CHUNK].astype(np.intp),
                                  minlength=counts.size)
        t = -float(counts @ gammaln(np.arange(counts.size) + 1.0))
    else:
        t = -float(gammaln(x[x > 1.0] + 1.0).sum())
    return t if graph.directed else 0.5 * t


def _scalar_entries(graph):
    """Every scalar value that may be non-zero: the data of the CSR view
    when the graph has one, else the dense values."""
    S = graph.sparse_values
    return graph.scalar_values if S is None else S.data


def _scalar_statistic(graph):
    """The scalar values as a statistic: the CSR view when the graph has one."""
    S = graph.sparse_values
    return graph.scalar_values if S is None else S


def _zero_diagonal(S):
    np.fill_diagonal(S, 0.0)
    return S


def _without_diagonal(block, rows):
    """``block``, the rows ``rows`` (a slice) of an (n, n) matrix, with the
    entries of the diagonal set to zero."""
    k = np.arange(block.shape[0])
    block[k, rows.indices(block.shape[1])[0] + k] = 0.0
    return block


def _block_sums(S, tau):
    """T[q, l] = sum_ij tau_iq S_ij tau_jl.  A CSR statistic is multiplied
    from the left, O(nnz Q); a dense one keeps (tau^T S) tau."""
    return tau.T @ (S @ tau) if sparse.issparse(S) else tau.T @ S @ tau


def _block_weights(tau, n):
    """W[q, l] = sum_{i != j} tau_iq tau_jl and the degenerate-block mask."""
    col = tau.sum(axis=0)
    W = np.outer(col, col) - tau.T @ tau  # removes the i = j terms exactly
    total = W.sum()
    degen = W <= DEGENERATE_REL_TOL * max(total, 1.0)
    return W, degen


def _floor_variance(v):
    """A variance estimate held at or above ``VAR_FLOOR``."""
    return np.maximum(v, VAR_FLOOR)


def _weighted_ratio(num, W, degen):
    out = np.zeros_like(num, dtype=float)
    np.divide(num, W, out=out, where=~degen if num.ndim == 2 else ~degen[..., None])
    return out


def _frozen(est, degen, src):
    """``est`` with ``src`` on the degenerate blocks (trailing axes broadcast)."""
    return np.where(degen.reshape(degen.shape + (1,) * (est.ndim - 2)), src, est)


def _symmetrize(a):
    if a.ndim == 2:
        return 0.5 * (a + a.T)
    return 0.5 * (a + np.swapaxes(a, 0, 1))


# ---------------------------------------------------------------------------
# Family implementations


class _Family:
    def __init__(self, spec: FamilySpec):
        self.spec = spec
        self.kind = spec.kind
        self.blockwise = FAMILIES[spec.kind].blockwise

    # -- validation ---------------------------------------------------------

    def check_graph(self, graph: ValuedGraph, cov):
        if self.spec.uses_covariates and cov is None:
            raise FamilyError(f"family {self.kind!r} requires edge covariates")
        if self.spec.uses_covariates and cov.p != self.spec.covariate_dim:
            raise FamilyError(
                f"covariate dimension {cov.p} does not match spec p={self.spec.covariate_dim}")
        if cov is not None and cov.y.shape[0] != graph.n:
            raise FamilyError(f"covariates on {cov.y.shape[0]} nodes for a graph of n={graph.n}")
        if cov is not None and not graph.directed and not cov.symmetric:
            raise FamilyError("an undirected graph needs symmetric covariates (y_ij == y_ji)")
        entry = FAMILIES[self.kind]
        if entry.strict_kind and graph.value_kind != entry.value_kind:
            raise FamilyError(f"{self.kind} family expects {entry.value_kind} values")

    # -- scoring ------------------------------------------------------------

    def scorer(self, graph: ValuedGraph, cov, workspace=None):
        """Return a callable params -> score container, caching the
        parameter-independent pieces.  ``workspace`` is the fit's
        :meth:`mstep_workspace`, which the statistics families share and
        build when it is not given."""
        raise NotImplementedError

    def log_density(self, params, q, l, x, y=None):
        raise NotImplementedError

    # -- estimation ---------------------------------------------------------

    def mstep_workspace(self, graph: ValuedGraph, cov):
        """What :meth:`weighted_mle` and the scorer reuse across the M-steps
        of one fit, never kept past it.  Built only for inputs that pass
        :meth:`check_graph`, the fit's one check: a call handed it trusts them."""
        self.check_graph(graph, cov)
        return self.build_workspace(graph, cov)

    def build_workspace(self, graph, cov):
        """The workspace of :meth:`mstep_workspace`, from checked inputs."""
        raise NotImplementedError

    def block_estimate(self, tau, graph, cov, W, degen, prev, workspace):
        """(est, pooled): the parameter arrays by name, right on the blocks
        that ``degen`` does not flag, and a callable returning the arrays
        estimated from all blocks pooled, the freeze value without ``prev``."""
        raise NotImplementedError

    def finish(self, est, directed):
        """What follows the freeze: undirected block-wise estimates made
        symmetric."""
        if directed:
            return est
        return {k: _symmetrize(v) if k in self.blockwise else v for k, v in est.items()}

    def weighted_mle(self, tau, graph, cov, prev=None, workspace=None):
        """The M-step of every family: :meth:`block_estimate` from the block
        weights and ``workspace`` (built, and so the inputs checked, for this
        call when not given); on the degenerate blocks each block-wise array
        frozen at ``prev``'s value, or at the pooled one without ``prev``;
        then :meth:`finish` and the record."""
        if workspace is None:
            workspace = self.mstep_workspace(graph, cov)
        W, degen = _block_weights(tau, graph.n)
        est, pooled = self.block_estimate(tau, graph, cov, W, degen, prev, workspace)
        if np.any(degen):
            src = pooled() if prev is None else prev.arrays()
            est = {k: _frozen(v, degen, src[k]) if k in self.blockwise else v
                   for k, v in est.items()}
        return BlockParams(self.kind, degen, **self.finish(est, graph.directed))

    # -- sampling / prediction ----------------------------------------------

    def sample_matrix(self, params, z, rng, cov, directed):
        raise NotImplementedError

    def predicted_rows(self, params, tau, rows, cov):
        """X_hat[rows] for a slice of rows, where X_hat[i, j] =
        sum_ql tau_iq tau_jl E[X_ij | q, l] off the diagonal and 0 on it;
        this default serves the families whose block means do not depend on
        covariates."""
        return _without_diagonal(tau[rows] @ self.block_means(params) @ tau.T, rows)

    def block_means(self, params):
        """Per-block mean value, when it does not depend on covariates."""
        return None


class _StatFamily(_Family):
    """A family with log f_ql(X_ij) = sum_k S_k[i, j] C_k[q, l] + mask[q, l] + c_ij
    whose statistics S_k do not depend on the parameters.

    The same statistics feed the scorer and the M-step, whose block sums
    T_k = tau^T S_k tau and block weights W are all the estimate reads.  A
    fit builds the list once, as its :meth:`mstep_workspace`, and hands it
    to the scorer too.  A family declares:

    * :meth:`statistics` -- the list of n x n arrays S_k, zero diagonals;
    * :meth:`constant` -- the pair sum of c_ij, the terms that are the same
      for every block (-log X!); only the scorer needs it;
    * :meth:`coefficients` -- (the C_k, the (Q, Q) mask or None) of a record;
    * :meth:`estimate` -- the parameter arrays by name from (T, W) on the
      blocks that ``degen`` does not flag; the pooled estimate is the same
      map of the sums over all blocks.
    """

    def statistics(self, graph, cov):
        raise NotImplementedError

    def constant(self, graph, cov):
        return 0.0

    def coefficients(self, params):
        raise NotImplementedError

    def estimate(self, T, W, degen):
        raise NotImplementedError

    def build_workspace(self, graph, cov):
        """The statistics, built once per fit for the scorer and every M-step."""
        return self.statistics(graph, cov)

    def block_estimate(self, tau, graph, cov, W, degen, prev, workspace):
        T = [_block_sums(S, tau) for S in workspace]

        def pooled():
            return self.estimate([t.sum(keepdims=True) for t in T], W.sum(keepdims=True),
                                 np.zeros((1, 1), bool))

        return self.estimate(T, W, degen), pooled

    def scorer(self, graph, cov, workspace=None):
        return self.score_maker(graph, cov, self.statistics(graph, cov)
                                if workspace is None else workspace)

    def score_maker(self, graph, cov, stats):
        """The scorer on the fit's statistics ``stats``."""
        fixed = self.constant(graph, cov)
        directed = graph.directed

        def make(params):
            coeffs, mask = self.coefficients(params)
            return DecomposedScores(stats, coeffs, directed, mask=mask, fixed=fixed)

        return make


def _blocks(Q, directed):
    """The blocks (q, l) with parameters of their own: every block when
    directed, q <= l when undirected."""
    return [(q, l) for q in range(Q) for l in range(Q) if directed or q <= l]


def _blockify(a, z):
    """Expand a (Q, Q, ...) block array to edge shape via labels z."""
    return a[np.ix_(z, z)]


def _edge_matrix(X, directed):
    """Sampled values with a zero diagonal; undirected graphs keep the upper
    triangle, mirrored."""
    np.fill_diagonal(X, 0.0)
    if directed:
        return X
    u = np.triu(X, 1)
    return u + u.T


class _PoissonFamily(_StatFamily):
    def statistics(self, graph, cov):
        return [_scalar_statistic(graph)]

    def constant(self, graph, cov):
        return _log_factorial_total(graph)

    def coefficients(self, params):
        return [_safe_log(params.lam)], -params.lam

    def log_density(self, params, q, l, x, y=None):
        lam = float(params.lam[q, l])
        loglam = np.log(lam) if lam > 0 else LOG_ZERO
        return float(x * loglam - lam - gammaln(x + 1.0))

    def estimate(self, T, W, degen):
        return {"lam": _weighted_ratio(T[0], W, degen)}

    def sample_matrix(self, params, z, rng, cov, directed):
        R = _blockify(params.lam, z)
        X = rng.poisson(R).astype(float)
        return _edge_matrix(X, directed)

    def block_means(self, params):
        return params.lam


class _PoissonRegFamily(_Family):
    def __init__(self, spec):
        super().__init__(spec)
        self.shared = dict(FAMILIES[spec.kind].flags)["shared"]

    def scorer(self, graph, cov, workspace=None):
        """PRMH: the statistics X and exp(Y beta) with coefficients log lam
        and -lam, and X * Y beta in ``fixed``.  PRMI: one statistic per
        block (q, l), q <= l when undirected,
        B_ql = X * (log lam_ql + Y beta_ql) - lam_ql exp(Y beta_ql),
        with a one-hot coefficient at (q, l), and also at (l, q) when
        undirected.  Both put
        -sum log X! in ``fixed``."""
        X = graph.scalar_values
        Y = cov.y
        directed = graph.directed
        log_fact = _log_factorial_total(graph)

        if self.shared:
            def make(params):
                g = Y @ params.beta
                E = _zero_diagonal(np.exp(g))
                fixed = log_fact + _pair_total(X * g, directed)
                return DecomposedScores([X, E], [_safe_log(params.lam), -params.lam],
                                        directed, fixed=fixed)
        else:
            def make(params):
                Q = params.Q
                loglam = _safe_log(params.lam)
                E = np.empty_like(X)
                stats, coeffs = [], []
                for q, l in _blocks(Q, directed):
                    B = Y @ params.beta[q, l]
                    np.exp(B, out=E)
                    E *= params.lam[q, l]
                    B += loglam[q, l]
                    B *= X
                    B -= E
                    stats.append(_zero_diagonal(B))
                    C = np.zeros((Q, Q))
                    C[q, l] = 1.0
                    if not directed:
                        C[l, q] = 1.0
                    coeffs.append(C)
                return DecomposedScores(stats, coeffs, directed, fixed=log_fact)

        return make

    def log_density(self, params, q, l, x, y=None):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        beta = params.beta if self.shared else params.beta[q, l]
        lam = float(params.lam[q, l])
        g = float(beta @ y)
        loglam = np.log(lam) if lam > 0 else LOG_ZERO
        return float(x * (loglam + g) - lam * np.exp(g) - gammaln(x + 1.0))

    def build_workspace(self, graph, cov):
        return _GLMWorkspace(graph, cov, self.shared)

    def block_estimate(self, tau, graph, cov, W, degen, prev, workspace):
        """Newton from ``prev`` (else from beta = 0): PRMH fits one beta
        jointly across blocks with per-block intercepts log lam_ql, PRMI
        each block on its own.  ``workspace`` is the fit's
        :class:`_GLMWorkspace`.  The pooled value is the rate of all blocks
        with beta = 0."""
        X = graph.scalar_values
        Q = tau.shape[1]
        A = tau.T @ X @ tau

        if self.shared:
            beta0 = np.zeros(cov.p) if prev is None else prev.beta
            beta, B = _newton_profile(A.ravel(), workspace.xy,
                                      partial(workspace.sums, tau, tau), beta0, "shared-beta fit")
            B = B.reshape(Q, Q)
            lam = np.where(B > 0, A / np.maximum(B, 1e-300), 0.0)
        else:
            beta = np.zeros((Q, Q, cov.p)) if prev is None else np.array(prev.beta)
            lam = np.zeros((Q, Q))
            C = np.matmul(tau.T, workspace.xy @ tau)  # (p, Q, Q): tau_q^T (X * Y_d) tau_l
            for q, l in _blocks(Q, graph.directed):
                if degen[q, l]:
                    continue
                sums_at = partial(workspace.sums, tau[:, q:q + 1], tau[:, l:l + 1])
                b, B = _newton_profile(A[q, l].reshape(1), C[:, q, l], sums_at, beta[q, l],
                                       f"block ({q},{l})")
                B = B[0]
                beta[q, l] = b
                lam[q, l] = A[q, l] / B if B > 0 else 0.0
                if not graph.directed and q != l:
                    beta[l, q] = b
                    lam[l, q] = lam[q, l]

        def pooled():
            return {"lam": A.sum() / max(W.sum(), 1e-300), "beta": 0.0}

        return {"lam": lam, "beta": beta}, pooled

    def sample_matrix(self, params, z, rng, cov, directed):
        if self.shared:
            g = cov.y @ params.beta
        else:
            B = _blockify(params.beta, z)  # (n, n, p)
            g = np.einsum("ijd,ijd->ij", cov.y, B)
        R = _blockify(params.lam, z) * np.exp(g)
        X = rng.poisson(R).astype(float)
        return _edge_matrix(X, directed)

    def predicted_rows(self, params, tau, rows, cov):
        Y = cov.y[rows]
        if self.shared:
            out = (tau[rows] @ params.lam @ tau.T) * np.exp(Y @ params.beta)
        else:
            Q = params.Q
            out = np.zeros(Y.shape[:2])
            for q in range(Q):
                for l in range(Q):
                    E = np.exp(Y @ params.beta[q, l])
                    out += np.outer(tau[rows, q], tau[:, l]) * params.lam[q, l] * E
        return _without_diagonal(out, rows)


class _BernoulliFamily(_StatFamily):
    def check_graph(self, graph, cov):
        super().check_graph(graph, cov)
        if not np.all(np.isin(_scalar_entries(graph), (0.0, 1.0))):  # the diagonal is zero
            raise FamilyError("Bernoulli family expects 0/1 values")

    def statistics(self, graph, cov):
        return [_scalar_statistic(graph)]

    def coefficients(self, params):
        logp = _safe_log(params.pi)
        log1mp = _safe_log(1.0 - params.pi)
        return [logp - log1mp], log1mp

    def log_density(self, params, q, l, x, y=None):
        pi = float(params.pi[q, l])
        logp = np.log(pi) if pi > 0 else LOG_ZERO
        log1mp = np.log(1 - pi) if pi < 1 else LOG_ZERO
        return float(x * (logp - log1mp) + log1mp)

    def estimate(self, T, W, degen):
        return {"pi": _weighted_ratio(T[0], W, degen)}

    def finish(self, est, directed):
        pi = np.clip(est["pi"], PROB_FLOOR, 1.0 - PROB_FLOOR)
        return super().finish({"pi": pi}, directed)

    def sample_matrix(self, params, z, rng, cov, directed):
        P = _blockify(params.pi, z)
        X = (rng.random(P.shape) < P).astype(float)
        return _edge_matrix(X, directed)

    def block_means(self, params):
        return params.pi


class _MultinomialFamily(_StatFamily):
    def check_graph(self, graph, cov):
        super().check_graph(graph, cov)
        if graph.num_labels != self.spec.num_labels:
            raise FamilyError("graph num_labels does not match the family spec")

    def statistics(self, graph, cov):
        # all m indicators: folding one into the mask would give
        # (log p_k - LOG_ZERO) coefficients when p_m = 0; the diagonal
        # holds 0, which is no label
        X = graph.scalar_values
        return [(X == k).astype(float) for k in range(1, self.spec.num_labels + 1)]

    def coefficients(self, params):
        return [_safe_log(params.probs[:, :, k]) for k in range(self.spec.num_labels)], None

    def log_density(self, params, q, l, x, y=None):
        k = int(x)
        m = self.spec.num_labels
        if not 1 <= k <= m:
            raise FamilyError(f"label {x!r} outside 1..{m}")
        p = float(params.probs[q, l, k - 1])
        return float(np.log(p)) if p > 0 else LOG_ZERO

    def estimate(self, T, W, degen):
        # renormalized against accumulated rounding before the freeze, so
        # that frozen blocks keep their previous value bit for bit
        probs = np.stack([_weighted_ratio(t, W, degen) for t in T], axis=-1)
        s = probs.sum(axis=-1, keepdims=True)
        probs = np.divide(probs, s, out=np.full_like(probs, 1.0 / probs.shape[-1]), where=s > 0)
        return {"probs": probs}

    def sample_matrix(self, params, z, rng, cov, directed):
        P = _blockify(params.probs, z)  # (n, n, m)
        cdf = np.cumsum(P, axis=-1)
        u = rng.random(P.shape[:2])
        X = 1.0 + np.sum(u[:, :, None] > cdf, axis=-1)
        X = np.minimum(X, self.spec.num_labels).astype(float)
        return _edge_matrix(X, directed)

    def block_means(self, params):
        labels = np.arange(1, self.spec.num_labels + 1, dtype=float)
        return params.probs @ labels


class _GaussianFamily(_StatFamily):
    def statistics(self, graph, cov):
        X = graph.scalar_values
        return [X, X * X]

    def coefficients(self, params):
        mu, s2 = params.mu, params.sigma2
        const = -0.5 * mu * mu / s2 - 0.5 * np.log(2.0 * np.pi * s2)
        return [mu / s2, -0.5 / s2], const

    def log_density(self, params, q, l, x, y=None):
        mu, s2 = float(params.mu[q, l]), float(params.sigma2[q, l])
        return float(-0.5 * (x - mu) ** 2 / s2 - 0.5 * np.log(2.0 * np.pi * s2))

    def estimate(self, T, W, degen):
        mu = _weighted_ratio(T[0], W, degen)
        ex2 = _weighted_ratio(T[1], W, degen)
        return {"mu": mu, "sigma2": _floor_variance(ex2 - mu * mu)}

    def sample_matrix(self, params, z, rng, cov, directed):
        mu = _blockify(params.mu, z)
        sd = np.sqrt(_blockify(params.sigma2, z))
        X = rng.normal(mu, sd)
        return _edge_matrix(X, directed)

    def block_means(self, params):
        return params.mu


class _BivariateGaussianFamily(_StatFamily):
    @staticmethod
    def _precision(cov):
        det = cov[..., 0, 0] * cov[..., 1, 1] - cov[..., 0, 1] * cov[..., 1, 0]
        P = np.empty_like(cov)
        P[..., 0, 0] = cov[..., 1, 1] / det
        P[..., 1, 1] = cov[..., 0, 0] / det
        P[..., 0, 1] = -cov[..., 0, 1] / det
        P[..., 1, 0] = -cov[..., 1, 0] / det
        return P, det

    def statistics(self, graph, cov):
        X1 = graph.values[:, :, 0]
        X2 = graph.values[:, :, 1]
        return [X1 * X1, X2 * X2, X1 * X2, X1, X2]

    def coefficients(self, params):
        P, det = self._precision(params.cov)
        mu = params.mu
        pm = np.einsum("qlab,qlb->qla", P, mu)
        const = (-0.5 * np.einsum("qla,qla->ql", mu, pm)
                 - np.log(2.0 * np.pi) - 0.5 * np.log(det))
        return [-0.5 * P[..., 0, 0], -0.5 * P[..., 1, 1], -P[..., 0, 1],
                pm[..., 0], pm[..., 1]], const

    def log_density(self, params, q, l, x, y=None):
        v = np.asarray(x, dtype=float)
        if v.shape != (2,):
            raise FamilyError("bivariate Gaussian expects a value couple (x_ij, x_ji)")
        mu = params.mu[q, l]
        cov = params.cov[q, l]
        P = np.linalg.inv(cov)
        d = v - mu
        return float(-0.5 * d @ P @ d - np.log(2.0 * np.pi)
                     - 0.5 * np.log(np.linalg.det(cov)))

    def estimate(self, T, W, degen):
        e11, e22, e12, m1, m2 = (_weighted_ratio(t, W, degen) for t in T)
        mu = np.stack([m1, m2], axis=-1)
        covm = np.empty(W.shape + (2, 2))
        covm[..., 0, 0] = _floor_variance(e11 - m1 * m1)
        covm[..., 1, 1] = _floor_variance(e22 - m2 * m2)
        covm[..., 0, 1] = covm[..., 1, 0] = e12 - m1 * m2
        # keep determinants positive against rounding
        det = covm[..., 0, 0] * covm[..., 1, 1] - covm[..., 0, 1] ** 2
        bad = det <= 0
        if np.any(bad):
            shrink = np.sqrt(covm[..., 0, 0] * covm[..., 1, 1] / np.maximum(covm[..., 0, 1] ** 2, VAR_FLOOR))
            covm[..., 0, 1] = np.where(bad, covm[..., 0, 1] * shrink * (1 - 1e-9), covm[..., 0, 1])
            covm[..., 1, 0] = covm[..., 0, 1]
        return {"mu": mu, "cov": covm}

    def finish(self, est, directed):
        # undirected symmetry swaps the two components across the block index
        mu, covm = est["mu"], est["cov"]
        return {"mu": 0.5 * (mu + mu.transpose(1, 0, 2)[..., ::-1]),
                "cov": 0.5 * (covm + covm.transpose(1, 0, 2, 3)[..., ::-1, ::-1])}

    def sample_matrix(self, params, z, rng, cov, directed):
        mu = _blockify(params.mu, z)       # (n, n, 2)
        C = _blockify(params.cov, z)       # (n, n, 2, 2)
        l11 = np.sqrt(C[..., 0, 0])
        l21 = C[..., 1, 0] / l11
        l22 = np.sqrt(np.maximum(C[..., 1, 1] - l21 ** 2, VAR_FLOOR))
        e = rng.standard_normal(mu.shape)
        v1 = mu[..., 0] + l11 * e[..., 0]
        v2 = mu[..., 1] + l21 * e[..., 0] + l22 * e[..., 1]
        n = mu.shape[0]
        out = np.zeros((n, n, 2))
        iu, ju = np.triu_indices(n, 1)
        out[iu, ju, 0] = v1[iu, ju]
        out[iu, ju, 1] = v2[iu, ju]
        out[ju, iu, 0] = v2[iu, ju]
        out[ju, iu, 1] = v1[iu, ju]
        return out

    def block_means(self, params):
        return params.mu[..., 0]


class _LinearRegressionFamily(_StatFamily):
    """Statistics X^2, X y_d (d < p) and y_d y_e (d <= e), in that order."""

    def statistics(self, graph, cov):
        X = graph.scalar_values
        Y = cov.y
        p = cov.p
        return ([X * X] + [X * Y[:, :, d] for d in range(p)]
                + [Y[:, :, d] * Y[:, :, e] for d in range(p) for e in range(d, p)])

    def coefficients(self, params):
        beta, s2 = params.beta, params.sigma2
        p = beta.shape[-1]
        coeffs = [-0.5 / s2]
        coeffs += [beta[:, :, d] / s2 for d in range(p)]
        for d in range(p):
            for e in range(d, p):
                w = 1.0 if d == e else 2.0
                coeffs.append(-0.5 * w * beta[:, :, d] * beta[:, :, e] / s2)
        return coeffs, -0.5 * np.log(2.0 * np.pi * s2)

    def log_density(self, params, q, l, x, y=None):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        s2 = float(params.sigma2[q, l])
        mean = float(params.beta[q, l] @ y)
        return float(-0.5 * (x - mean) ** 2 / s2 - 0.5 * np.log(2.0 * np.pi * s2))

    def estimate(self, T, W, degen):
        p = self.spec.covariate_dim
        ex2, r = T[0], np.stack(T[1:1 + p], axis=-1)
        G = np.empty(W.shape + (p, p))
        cross = iter(T[1 + p:])
        for d in range(p):
            for e in range(d, p):
                G[..., d, e] = G[..., e, d] = next(cross)
        beta = np.zeros(W.shape + (p,))
        sigma2 = np.ones(W.shape)
        for q in range(W.shape[0]):
            for l in range(W.shape[1]):
                if degen[q, l]:
                    continue
                try:
                    b = np.linalg.solve(G[q, l], r[q, l])
                except np.linalg.LinAlgError:
                    raise SingularBlockError((q, l)) from None
                beta[q, l] = b
                rss = ex2[q, l] - 2.0 * b @ r[q, l] + b @ G[q, l] @ b
                sigma2[q, l] = _floor_variance(rss / W[q, l])
        return {"beta": beta, "sigma2": sigma2}

    def sample_matrix(self, params, z, rng, cov, directed):
        B = _blockify(params.beta, z)
        mean = np.einsum("ijd,ijd->ij", cov.y, B)
        sd = np.sqrt(_blockify(params.sigma2, z))
        X = rng.normal(mean, sd)
        return _edge_matrix(X, directed)

    def predicted_rows(self, params, tau, rows, cov):
        Y = cov.y[rows]
        out = np.zeros(Y.shape[:2])
        for d in range(cov.p):
            out += (tau[rows] @ params.beta[:, :, d] @ tau.T) * Y[:, :, d]
        return _without_diagonal(out, rows)


class _SimpleRegressionFamily(_StatFamily):
    """Statistics X, y, X y, y^2 and X^2.  The scorer keeps only X and y as
    n x n statistics and folds the shared-slope terms into ``fixed``."""

    def statistics(self, graph, cov):
        X = graph.scalar_values
        Y = cov.y[:, :, 0]
        return [X, Y, X * Y, Y * Y, X * X]

    def score_maker(self, graph, cov, stats):
        X, Y, XY, YY, XX = stats
        directed = graph.directed
        sxy, syy, sxx = (_pair_total(S, directed) for S in (XY, YY, XX))

        def make(params):
            a, b, s2 = params.intercept, params.slope, params.sigma2
            const = -0.5 * a * a / s2 - 0.5 * np.log(2.0 * np.pi * s2)
            fixed = (b * sxy - 0.5 * sxx - 0.5 * b * b * syy) / s2
            return DecomposedScores([X, Y], [a / s2, -a * b / s2], directed,
                                    mask=const, fixed=fixed)

        return make

    def log_density(self, params, q, l, x, y=None):
        y0 = float(np.atleast_1d(np.asarray(y, dtype=float))[0])
        s2 = float(params.sigma2)
        mean = float(params.intercept[q, l]) + params.slope * y0
        return float(-0.5 * (x - mean) ** 2 / s2 - 0.5 * np.log(2.0 * np.pi * s2))

    def estimate(self, T, W, degen):
        """Common slope b as pooled weighted covariance over pooled weighted
        variance, block intercepts a_ql = Xbar_ql - b ybar_ql, and a single
        sigma2 normalized by the total weight."""
        sx, sy, sxy, syy, sxx = T
        ok = ~degen
        xbar = _weighted_ratio(sx, W, degen)
        ybar = _weighted_ratio(sy, W, degen)
        # centered pooled sums: sum_ql [ Sxy - W xbar ybar ]
        cov_xy = np.where(ok, sxy - W * xbar * ybar, 0.0).sum()
        var_y = np.where(ok, syy - W * ybar * ybar, 0.0).sum()
        if var_y <= 0:
            raise SingularBlockError((0, 0), "covariate has zero pooled variance")
        b = cov_xy / var_y
        a = xbar - b * ybar
        # sigma2: weighted residual moment pooled over all blocks and edges
        rss = (sxx - 2 * a * sx - 2 * b * sxy + a * a * W
               + 2 * a * b * sy + b * b * syy)
        sigma2 = _floor_variance(np.where(ok, rss, 0.0).sum() / max(W.sum(), 1e-300))
        return {"intercept": a, "slope": b, "sigma2": sigma2}

    def sample_matrix(self, params, z, rng, cov, directed):
        mean = _blockify(params.intercept, z) + params.slope * cov.y[:, :, 0]
        X = rng.normal(mean, np.sqrt(params.sigma2))
        return _edge_matrix(X, directed)

    def predicted_rows(self, params, tau, rows, cov):
        out = tau[rows] @ params.intercept @ tau.T + params.slope * cov.y[rows, :, 0]
        return _without_diagonal(out, rows)


# ---------------------------------------------------------------------------
# The family registry


class FamilyEntry(NamedTuple):
    """One family kind: its implementation, data and parameter arrays."""

    family: type          # the _Family subclass
    value_kind: str       # graph value kind it reads, loads and samples
    strict_kind: bool     # check_graph refuses graphs of another value kind
    covariates: bool      # needs edge covariates
    params: tuple         # ParamArray rows, in JSON order
    flags: tuple = ()     # (name, value) constants of the record, also in JSON

    @property
    def blockwise(self) -> set:
        """Names of the arrays with leading (Q, Q) axes."""
        return {a.name for a in self.params if a.blockwise}


_RATES = ParamArray("lam", True, (), _nonnegative, "Poisson rates")
_COEFFS = "regression coefficients"

FAMILIES = {
    "bernoulli": FamilyEntry(_BernoulliFamily, "count", False, False, (
        ParamArray("pi", True, (), _unit, "Bernoulli probabilities"),)),
    "multinomial": FamilyEntry(_MultinomialFamily, "label", True, False, (
        ParamArray("probs", True, ("m",), _simplex, "label probabilities"),)),
    "gaussian": FamilyEntry(_GaussianFamily, "real", False, False, (
        ParamArray("mu", True, (), _finite, "Gaussian means"),
        ParamArray("sigma2", True, (), _positive, "Gaussian variances"))),
    "bigauss": FamilyEntry(_BivariateGaussianFamily, "paired", True, False, (
        ParamArray("mu", True, (2,), _finite, "bivariate means"),
        ParamArray("cov", True, (2, 2), _spd2, "bivariate covariance matrices"))),
    "poisson": FamilyEntry(_PoissonFamily, "count", True, False, (_RATES,)),
    "poisson-prmh": FamilyEntry(_PoissonRegFamily, "count", True, True, (
        _RATES, ParamArray("beta", False, ("p",), _finite, _COEFFS)), (("shared", True),)),
    "poisson-prmi": FamilyEntry(_PoissonRegFamily, "count", True, True, (
        _RATES, ParamArray("beta", True, ("p",), _finite, _COEFFS)), (("shared", False),)),
    "linreg": FamilyEntry(_LinearRegressionFamily, "real", False, True, (
        ParamArray("beta", True, ("p",), _finite, _COEFFS),
        ParamArray("sigma2", True, (), _positive, "regression variances"))),
    "simplereg": FamilyEntry(_SimpleRegressionFamily, "real", False, True, (
        ParamArray("intercept", True, (), _finite, "regression parameters"),
        ParamArray("slope", False, (), _finite, "regression parameters"),
        ParamArray("sigma2", False, (), _positive, "regression variance"))),
}

FAMILY_KINDS = tuple(FAMILIES)


@cache
def get_family(spec: FamilySpec) -> _Family:
    """The one family object of ``spec``: it holds only what the frozen
    spec fixes, so equal specs share it."""
    return FAMILIES[spec.kind].family(spec)


# ---------------------------------------------------------------------------
# Poisson regression (weighted GLM) fitting


def _newton_profile(A_vec, c_vec, sums_at, beta0, label):
    """Maximize h(beta) = c . beta - sum_r A_r log B_r(beta) by Newton with
    step halving.  ``sums_at(beta)`` returns what :meth:`_GLMWorkspace.sums`
    does: B (R,), its gradient (R, p) and its Hessian (R, p, p) in beta,
    all from one pass, so every beta is evaluated once.  Each iteration tests
    the gradient before it forms the p x p Hessian.  Concave, so this is
    plain IRLS with the block intercepts profiled out exactly.  Returns
    (beta, B at beta)."""
    beta = np.array(beta0, dtype=float)
    p = beta.size
    pos = A_vec > 0
    A_pos = A_vec[pos]
    ridge = 1e-12 * np.eye(p)

    def h(b):
        S = sums_at(b)  # (B, gradient, Hessian)
        Bp = S[0][pos]
        if not ((Bp > 0).all() and np.isfinite(Bp).all()):
            return -np.inf, S
        return float(c_vec @ b - (A_pos * np.log(Bp)).sum()), S

    def gradient(S):
        ratio = np.where(pos, A_vec / np.maximum(S[0], 1e-300), 0.0)
        return ratio, c_vec - ratio @ S[1]

    # a trial step may overflow exp(Y . beta), and far from the optimum
    # ratio / B can overflow: such a point is refused or raises below
    with np.errstate(over="ignore", invalid="ignore"):
        val, S = h(beta)
        for it in range(REG_MAX_ITER):
            ratio, grad = gradient(S)
            if not grad.size or np.abs(grad).max() <= REG_GRAD_TOL:
                break
            # negative Hessian of h (positive semidefinite)
            B, gB, hB = S
            Hneg = np.einsum("r,rde->de", ratio, hB)
            Hneg -= np.einsum("r,rd,re->de", ratio / np.maximum(B, 1e-300), gB, gB)
            if not (np.isfinite(grad).all() and np.isfinite(Hneg).all()):
                raise NumericalError(f"Poisson regression overflowed in {label}")
            Hneg += ridge * max(1.0, Hneg.trace())
            try:
                step = np.linalg.solve(Hneg, grad)
            except np.linalg.LinAlgError:
                raise NumericalError(f"singular IRLS system in {label}") from None
            accepted = None
            t = 1.0
            while t > 1e-12:
                cand = beta + t * step
                cand_val, cand_S = h(cand)
                if cand_val >= val - 1e-12 * max(1.0, abs(val)):
                    accepted = (cand, cand_val, cand_S)
                    break
                t *= 0.5
            if accepted is None:
                break  # no improving step at floating-point resolution
            moved = np.abs(accepted[0] - beta).max()
            improved = accepted[1] - val
            beta, val, S = accepted
            if np.abs(beta).max() > REG_BETA_BOUND:
                raise NumericalError(
                    f"unbounded Poisson regression (possible separation) in {label}")
            if improved <= REG_REL_TOL * max(1.0, abs(val)) and moved < 1e-12:
                break
        else:
            if np.abs(gradient(S)[1]).max() > 1e-4:
                raise NumericalError(f"Poisson regression did not converge in {label}")
    return beta, S[0]


# Doubles in the channel stack of one row block of _GLMWorkspace.sums
# (2 MiB): a single block at n = 60, about 40 rows at n = 1000 and p = 2.
_GLM_BLOCK_ELEMS = 1 << 18


class _GLMWorkspace:
    """What the Poisson-regression M-step reads of a graph and its
    covariates, built once per fit (:meth:`_Family.mstep_workspace`)
    and dropped with it.

    It holds the covariates channel-major, ``y`` (p, n, n), for the
    products E * Y_d, and the responses weighted by them: for PRMH the sums
    c_d = sum X * Y_d, which do not depend on tau, and for PRMI the products
    X * Y_d, from which each M-step takes the block sums
    tau_q^T (X * Y_d) tau_l.  Y . beta is taken from the covariates as
    given, pair-major, whose row-wise dot products round as the scorer's.
    """

    def __init__(self, graph, cov, shared):
        X = graph.scalar_values
        self.pair_major = cov.y
        self.y = np.ascontiguousarray(np.moveaxis(cov.y, 2, 0))
        if shared:
            self.xy = np.array([(X * y).sum() for y in self.y])
        else:
            self.xy = X * self.y
        n, p = graph.n, cov.p
        # channel k > p of the pass is E * Y_d * Y_e for the k-th pair d <= e
        self.pairs = [(d, e) for d in range(p) for e in range(d, p)]
        packed = {pair: k for k, pair in enumerate(self.pairs, 1 + p)}
        self.hessian = np.array([packed[min(d, e), max(d, e)]
                                 for d in range(p) for e in range(p)])
        K = 1 + p + len(self.pairs)
        self.rows = max(1, _GLM_BLOCK_ELEMS // (K * n))
        # the channel stack of one pass, reused by every call: a new one per
        # pass is an mmap whose pages fault in again each time
        self.stack = np.empty((K, min(self.rows, n), n))

    def sums(self, left, right, beta):
        """At beta, the weighted sums left^T F right of F = E, E * Y_d and
        E * Y_d * Y_e, where E_ij = exp(Y_ij . beta) off the diagonal and 0
        on it, flattened over the blocks: B (R,), its gradient (R, p) and
        its Hessian (R, p, p) in beta.  PRMH weighs with (tau, tau), PRMI
        block (q, l) with the columns (tau[:, [q]], tau[:, [l]]).

        One exp per entry and one product per channel and entry, taken
        ``self.rows`` rows at a time, so that the channel stack never holds
        more than ``_GLM_BLOCK_ELEMS`` doubles; each symmetric Hessian
        channel is formed once.  Within one block every sum rounds as
        (left^T F) right taken one channel at a time, and the gradient and
        Hessian come out C-ordered for the Newton step's products: its
        iterates, which decide where the E-steps stop, do not depend on how
        the channels are stacked.
        """
        Y = self.y
        p, n = Y.shape[0], Y.shape[1]
        K = 1 + p + len(self.pairs)
        L = None
        for r0 in range(0, n, self.rows):
            r1 = min(n, r0 + self.rows)
            F = self.stack[:, :r1 - r0]
            np.matmul(self.pair_major[r0:r1].reshape(-1, p), beta, out=F[0].reshape(-1))
            np.exp(F[0], out=F[0])
            F[0].reshape(-1)[r0::n + 1] = 0.0  # the diagonal entries of these rows
            np.multiply(F[0], Y[:, r0:r1], out=F[1:1 + p])
            for k, (d, e) in enumerate(self.pairs, 1 + p):
                np.multiply(F[1 + d], Y[e, r0:r1], out=F[k])
            part = np.matmul(left[r0:r1].T, F)  # (K, Ql, n)
            L = part if L is None else L + part
        T = np.matmul(L, right).reshape(K, -1)
        hessian = T.take(self.hessian, axis=0).T.copy().reshape(-1, p, p)
        return T[0], T[1:1 + p].T.copy(), hessian


# ---------------------------------------------------------------------------
# Module-level operations (dispatch on the family spec)


def log_density(spec: FamilySpec, params, q, l, x, y=None) -> float:
    """log f_ql(x), scalar path; ``y`` is the covariate vector of the pair
    for the regression families.

    Impossible values under boundary parameters (x > 0 with a zero rate,
    x = 1 with pi = 0, ...) return the LOG_ZERO surrogate instead of -inf
    so downstream fixed points stay well defined.
    """
    if spec.uses_covariates and y is None:
        raise FamilyError(f"family {spec.kind!r} requires a covariate vector")
    return get_family(spec).log_density(params, q, l, x, y=y)


def weighted_mle(spec: FamilySpec, tau, graph: ValuedGraph, cov: EdgeCovariates | None = None,
                 prev=None, workspace=None):
    """Maximize sum_{i != j} sum_ql tau_iq tau_jl log f_ql(X_ij) over theta.

    ``tau`` is (n, Q); the weight of edge (i, j) in block (q, l) is
    tau[i, q] * tau[j, l].  Closed forms for the classical families, Newton
    on the weighted GLM objective for the Poisson regressions.  On blocks
    with vanishing weight, flagged in the result's ``degenerate`` mask, the
    block-wise arrays keep ``prev``'s value (without ``prev``, a value
    pooled over all blocks).
    ``workspace`` is what the family's ``mstep_workspace(graph, cov)`` built
    for this graph and covariates, reused across the M-steps of a fit.  A
    workspace is built only for inputs that passed ``check_graph``, so they
    are not checked again; without one, the call builds it, checking them.
    """
    tau = np.asarray(tau, dtype=float)
    return get_family(spec).weighted_mle(tau, graph, cov, prev=prev, workspace=workspace)


def poisson_pm_mle(tau, graph: ValuedGraph) -> np.ndarray:
    """lam_ql = sum_{i!=j} tau_iq tau_jl X_ij / sum_{i!=j} tau_iq tau_jl."""
    params = weighted_mle(FamilySpec("poisson"), tau, graph)
    return params.lam


def poisson_regression_mle(tau, graph: ValuedGraph, cov: EdgeCovariates,
                           mode: str = "homogeneous", warm_start=None):
    """Weighted Poisson-regression MLE.

    Parameters
    ----------
    mode : {"homogeneous", "inhomogeneous"}
        Homogeneous fits one shared coefficient vector across all blocks
        (block-specific intercepts log lam_ql); inhomogeneous fits each
        block independently.
    warm_start : (lam, beta), optional
        Starting point, and the value of degenerate blocks; the returned
        solution never has lower weighted log-likelihood than it.

    Returns
    -------
    (lam, beta) : rates (Q, Q) and coefficients ((p,) or (Q, Q, p)), as
    :func:`weighted_mle` gives them for PRMH or PRMI.
    """
    if mode not in ("homogeneous", "inhomogeneous"):
        raise ValueError(f"unknown mode {mode!r}")
    shared = mode == "homogeneous"
    spec = FamilySpec("poisson-prmh" if shared else "poisson-prmi", covariate_dim=cov.p)
    prev = None if warm_start is None else PoissonRegParams(*warm_start, shared=shared)
    theta = weighted_mle(spec, tau, graph, cov, prev=prev)
    return theta.lam, theta.beta


def expfam_mle(sufficient_stat, grad_A, inverse_grad_A, tau, graph: ValuedGraph) -> np.ndarray:
    """Generic natural-parameter update theta = (grad A)^{-1}(weighted mean of Psi).

    ``sufficient_stat`` maps a value array to Psi(x) elementwise, and
    ``grad_A`` / ``inverse_grad_A`` act elementwise on arrays.  Raises
    FamilyError when the weighted mean falls outside the range of grad A.
    """
    tau = np.asarray(tau, dtype=float)
    X = graph.scalar_values
    M = _offdiag_mask(graph.n)
    psi = np.asarray(sufficient_stat(X), dtype=float) * M
    W, degen = _block_weights(tau, graph.n)
    if np.any(degen):
        raise FamilyError("empty block: weighted sufficient statistic undefined")
    m = (tau.T @ psi @ tau) / W
    with np.errstate(all="ignore"):
        theta = np.asarray(inverse_grad_A(m), dtype=float)
        if not np.all(np.isfinite(theta)):
            raise FamilyError("weighted mean outside the range of grad A")
        back = np.asarray(grad_A(theta), dtype=float)
    if not np.allclose(back, m, rtol=1e-6, atol=1e-10):
        raise FamilyError("inverse_grad_A is not a right inverse of grad_A at the weighted mean")
    return theta


def param_count(spec: FamilySpec, Q: int, directed: bool) -> int:
    """Number of independent theta parameters P_Q for the ICL penalty.

    Each block-wise array counts once per block (Q**2 blocks, Q (Q + 1) / 2
    when undirected) and each shared array once; a probability vector over
    m labels has m - 1 free values and a 2 x 2 covariance matrix 3.
    """
    if Q < 1:
        raise FamilyError("Q must be >= 1")
    blocks = Q * Q if directed else Q * (Q + 1) // 2
    sizes = _spec_sizes(spec)
    return sum(a.dof(sizes) * (blocks if a.blockwise else 1) for a in FAMILIES[spec.kind].params)


def theta_to_jsonable(spec: FamilySpec, params: BlockParams) -> dict:
    """The arrays as nested lists (shared scalars as floats), then the flags."""
    data = {k: v.tolist() for k, v in params.arrays().items()}
    data.update(FAMILIES[spec.kind].flags)
    return data


def theta_from_jsonable(spec: FamilySpec, data: dict) -> BlockParams:
    """Parameters from their JSON form; invalid values raise FamilyError."""
    entry = FAMILIES[spec.kind]
    for flag, value in entry.flags:
        if flag in data and bool(data[flag]) != value:
            raise FamilyError(f"{flag}={data[flag]!r} does not fit family {spec.kind!r}")
    return BlockParams(spec.kind, sizes=_spec_sizes(spec),
                       **{a.name: data[a.name] for a in entry.params})
