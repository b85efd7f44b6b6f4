"""The Poisson-regression M-step (PRMH and PRMI) against the implementation
it replaced, kept here as the reference.

The reference rebuilds the off-diagonal mask, the sums of X * Y_d and every
E * Y_d * Y_e product at each M-step and Newton point; the library builds
them once per fit in a ``_GLMWorkspace`` and takes B, its gradient and its
Hessian from one pass.  Both must give the same rates, coefficients,
degenerate masks and errors.
"""

import numpy as np
import pytest

import blockfit as bf
from blockfit import FamilySpec, engine, families, selection
from blockfit.errors import NumericalError
from blockfit.families import (
    REG_BETA_BOUND,
    REG_GRAD_TOL,
    REG_MAX_ITER,
    REG_REL_TOL,
    PoissonRegParams,
    _block_weights,
    _frozen,
    _offdiag_mask,
    get_family,
)
from blockfit.graph import EdgeCovariates, ValuedGraph, build_graph

RTOL = 1e-10


# ---------------------------------------------------------------------------
# Reference: the M-step as it was before the per-fit workspace


def _ref_newton_profile(A_vec, c_vec, B_at, beta0, label, overflowed):
    beta = np.array(beta0, dtype=float)
    pos = A_vec > 0

    def h(b):
        with np.errstate(over="ignore", invalid="ignore"):
            B, derivatives = B_at(b)
        Bp = B[pos]
        if not np.all(np.isfinite(Bp)) or np.any(Bp <= 0):
            overflowed.append(b)
            return -np.inf, B, derivatives
        return float(c_vec @ b - np.sum(A_vec[pos] * np.log(Bp))), B, derivatives

    val, B, derivatives = h(beta)
    for it in range(REG_MAX_ITER):
        with np.errstate(over="ignore", invalid="ignore"):
            gB, hB = derivatives(hessian=True)
            ratio = np.where(pos, A_vec / np.maximum(B, 1e-300), 0.0)
            grad = c_vec - gB.T @ ratio
            Hneg = np.einsum("r,rde->de", ratio, hB)
            Hneg -= np.einsum("r,rd,re->de", ratio / np.maximum(B, 1e-300), gB, gB)
        gnorm = np.max(np.abs(grad)) if grad.size else 0.0
        if gnorm <= REG_GRAD_TOL:
            break
        if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(Hneg))):
            raise NumericalError(f"Poisson regression overflowed in {label}")
        Hneg += 1e-12 * np.eye(len(beta)) * max(1.0, np.trace(Hneg))
        try:
            step = np.linalg.solve(Hneg, grad)
        except np.linalg.LinAlgError:
            raise NumericalError(f"singular IRLS system in {label}") from None
        accepted = None
        t = 1.0
        while t > 1e-12:
            cand = beta + t * step
            cand_val, cand_B, cand_derivatives = h(cand)
            if cand_val >= val - 1e-12 * max(1.0, abs(val)):
                accepted = (cand, cand_val, cand_B, cand_derivatives)
                break
            t *= 0.5
        if accepted is None:
            break
        moved = np.max(np.abs(accepted[0] - beta))
        improved = accepted[1] - val
        beta, val, B, derivatives = accepted
        if np.max(np.abs(beta)) > REG_BETA_BOUND:
            raise NumericalError(
                f"unbounded Poisson regression (possible separation) in {label}")
        if improved <= REG_REL_TOL * max(1.0, abs(val)) and moved < 1e-12:
            break
    else:
        gB, _ = derivatives(hessian=False)
        ratio = np.where(pos, A_vec / np.maximum(B, 1e-300), 0.0)
        grad = c_vec - gB.T @ ratio
        if np.max(np.abs(grad)) > 1e-4:
            raise NumericalError(f"Poisson regression did not converge in {label}")
    return beta, B


def _ref_glm_sums(left, right, Y, mask):
    p = Y.shape[-1]

    def B_at(beta):
        E = np.exp(Y @ beta) * mask
        B = (left.T @ E @ right).ravel()

        def derivatives(hessian):
            gB = np.stack([(left.T @ (E * Y[:, :, d]) @ right).ravel() for d in range(p)],
                          axis=1)
            if not hessian:
                return gB, None
            hB = np.empty((B.size, p, p))
            for d in range(p):
                for e in range(d, p):
                    v = (left.T @ (E * Y[:, :, d] * Y[:, :, e]) @ right).ravel()
                    hB[:, d, e] = hB[:, e, d] = v
            return gB, hB

        return B, derivatives

    return B_at


def _ref_fit(tau, graph, cov, shared, warm_start=None, overflowed=None):
    """(lam, beta, degenerate) as the Poisson-regression M-step gave them
    before its undirected symmetrization; every refused trial point is
    appended to ``overflowed``."""
    overflowed = [] if overflowed is None else overflowed
    X = graph.scalar_values
    Y = cov.y
    n, p = graph.n, cov.p
    Q = tau.shape[1]
    mask = _offdiag_mask(n)
    W, degen = _block_weights(tau, n)
    A = tau.T @ X @ tau

    if shared:
        beta0 = np.zeros(p) if warm_start is None else np.asarray(warm_start[1], dtype=float)
        c = np.array([(X * Y[:, :, d]).sum() for d in range(p)])
        beta, B = _ref_newton_profile(A.ravel(), c, _ref_glm_sums(tau, tau, Y, mask), beta0,
                                      "shared-beta fit", overflowed)
        B = B.reshape(Q, Q)
        lam = np.where(B > 0, A / np.maximum(B, 1e-300), 0.0)
    else:
        beta = np.zeros((Q, Q, p)) if warm_start is None else np.array(warm_start[1], dtype=float)
        lam = np.zeros((Q, Q))
        pairs = [(q, l) for q in range(Q) for l in range(Q)
                 if graph.directed or q <= l]
        for q, l in pairs:
            if degen[q, l]:
                continue
            c_ql = np.array([tau[:, q] @ (X * Y[:, :, d]) @ tau[:, l] for d in range(p)])
            B_at = _ref_glm_sums(tau[:, q], tau[:, l], Y, mask)
            b, B = _ref_newton_profile(A[q, l].reshape(1), c_ql, B_at, beta[q, l],
                                       f"block ({q},{l})", overflowed)
            B = B[0]
            beta[q, l] = b
            lam[q, l] = A[q, l] / B if B > 0 else 0.0
            if not graph.directed and q != l:
                beta[l, q] = b
                lam[l, q] = lam[q, l]

    if np.any(degen):
        if warm_start is not None:
            lam = _frozen(lam, degen, warm_start[0])
            if not shared:
                beta = _frozen(beta, degen, warm_start[1])
        else:
            pooled = A.sum() / max(W.sum(), 1e-300)
            lam = np.where(degen, pooled, lam)
    return lam, beta, degen


# ---------------------------------------------------------------------------
# Instances


def _symmetric(a, directed):
    """``a`` (n, n) or (n, n, p) with its upper triangle mirrored when
    undirected."""
    if directed:
        return a
    if a.ndim == 3:
        return np.stack([_symmetric(a[:, :, d], False) for d in range(a.shape[2])], axis=2)
    u = np.triu(a, 1)
    return u + u.T


def _instance(seed, n, p, Q, directed, y_scale=1.0):
    """A count graph drawn from block rates and a shared effect of p
    covariates, with a random tau."""
    rng = np.random.default_rng(seed)
    y = _symmetric(y_scale * rng.normal(size=(n, n, p)), directed)
    cov = EdgeCovariates.from_matrix(y, directed)
    z = rng.integers(0, Q, n)
    lam = rng.uniform(0.5, 4.0, (Q, Q))
    beta = rng.normal(scale=0.3, size=p)
    x = rng.poisson(lam[np.ix_(z, z)] * np.exp(np.clip(cov.y @ beta, -20, 5))).astype(float)
    g = ValuedGraph.from_matrix(_symmetric(x, directed), directed)
    tau = rng.dirichlet(np.ones(Q), size=n)
    return g, cov, tau, rng


def _warm(rng, Q, p, shared, beta_scale=0.5):
    lam = rng.uniform(0.5, 3.0, (Q, Q))
    lam = 0.5 * (lam + lam.T)
    beta = rng.normal(scale=beta_scale, size=p if shared else (Q, Q, p))
    if not shared:
        beta = 0.5 * (beta + beta.transpose(1, 0, 2))
    return lam, beta


def _mstep(tau, graph, cov, shared, warm_start=None):
    """(lam, beta, degenerate) of the family's M-step, with ``prev`` built
    from the warm start."""
    spec = FamilySpec("poisson-prmh" if shared else "poisson-prmi", covariate_dim=cov.p)
    prev = None if warm_start is None else PoissonRegParams(*warm_start, shared=shared)
    theta = get_family(spec).weighted_mle(tau, graph, cov, prev=prev)
    return theta.lam, theta.beta, theta.degenerate


def _symmetrized(want, directed, shared):
    """The reference as the M-step finishes it: undirected rates and PRMI
    coefficients made symmetric."""
    if isinstance(want, str) or directed:
        return want
    lam, beta = families._symmetrize(want[0]), want[1]
    return (lam, beta if shared else families._symmetrize(beta)) + tuple(want[2:])


def _outcome(fn):
    try:
        return fn()
    except NumericalError as exc:
        return f"NumericalError: {exc}"


def _assert_same(got, want):
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    for a, b in zip(got[:2], want[:2]):
        np.testing.assert_allclose(a, b, rtol=RTOL, atol=RTOL * max(1.0, np.max(np.abs(b))))
    if len(want) > 2:
        assert np.array_equal(got[2], want[2])


# ---------------------------------------------------------------------------
# Tests


@pytest.mark.parametrize("rows", ["one block", "one row per block"])
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("shared", [True, False], ids=["prmh", "prmi"])
def test_mstep_matches_the_reference(shared, directed, p, rows, monkeypatch):
    if rows == "one row per block":
        monkeypatch.setattr(families, "_GLM_BLOCK_ELEMS", 1)
    mode = "homogeneous" if shared else "inhomogeneous"
    for seed in range(6):
        g, cov, tau, rng = _instance(seed, int(8 + 3 * seed), p, 1 + seed % 3, directed)
        Q = tau.shape[1]
        for warm in (None, _warm(rng, Q, p, shared)):
            want = _symmetrized(_outcome(lambda: _ref_fit(tau, g, cov, shared, warm)),
                                directed, shared)
            _assert_same(_outcome(lambda: _mstep(tau, g, cov, shared, warm)), want)
            if not isinstance(want, str):
                want = want[:2]
            _assert_same(_outcome(lambda: bf.poisson_regression_mle(
                tau, g, cov, mode=mode, warm_start=warm)), want)


@pytest.mark.parametrize("shared", [True, False], ids=["prmh", "prmi"])
@pytest.mark.parametrize("directed", [False, True])
def test_degenerate_blocks_match_the_reference(shared, directed):
    p, Q = 2, 3
    for seed in range(4):
        g, cov, tau, rng = _instance(100 + seed, 12, p, Q, directed)
        tau[:, -1] = 0.0  # the last class is empty
        tau /= tau.sum(axis=1, keepdims=True)
        for warm in (None, _warm(rng, Q, p, shared)):
            want = _symmetrized(_ref_fit(tau, g, cov, shared, warm), directed, shared)
            got = _mstep(tau, g, cov, shared, warm)
            assert want[2][-1].all() and want[2][:, -1].all()
            _assert_same(got, want)


@pytest.mark.parametrize("shared", [True, False], ids=["prmh", "prmi"])
def test_overflowing_trial_steps_match_the_reference(shared):
    """From a start far off the optimum the first Newton step overflows
    exp(Y . beta); both implementations refuse that point and halve."""
    p, Q = 2, 2
    refused = 0
    for seed in range(8):
        g, cov, tau, rng = _instance(200 + seed, 14, p, Q, True, y_scale=3.0)
        warm = _warm(rng, Q, p, shared, beta_scale=3.0)
        overflowed = []
        want = _outcome(lambda: _ref_fit(tau, g, cov, shared, warm, overflowed))
        refused += bool(overflowed)
        _assert_same(_outcome(lambda: _mstep(tau, g, cov, shared, warm)), want)
    assert refused  # the case is exercised


def test_errors_match_the_reference():
    """Undirected n = 3 draws: 3 pairs for 1 + p = 3 parameters, which need
    have no finite MLE.  With small covariates the iteration walks past
    REG_BETA_BOUND; with these large ones its Hessian overflows."""
    draws = [(seed, 0.01) for seed in range(20)] + [(168, 1.0), (168, 5.0), (298, 5.0)]
    messages = set()
    for seed, y_scale in draws:
        g, cov, tau, rng = _instance(300 + seed, 3, 2, 1, False, y_scale=y_scale)
        for warm in (None, _warm(rng, 1, 2, True)):
            want = _symmetrized(_outcome(lambda: _ref_fit(tau, g, cov, True, warm)),
                                False, True)
            _assert_same(_outcome(lambda: _mstep(tau, g, cov, True, warm)), want)
            if isinstance(want, str):
                messages.add(want.split(" in ")[0])
    assert messages == {
        "NumericalError: unbounded Poisson regression (possible separation)",
        "NumericalError: Poisson regression overflowed"}


@pytest.mark.parametrize("kind", ["poisson-prmh", "poisson-prmi"])
def test_fit_and_select_q_leave_graph_and_covariates_as_they_were(kind):
    """Nothing derived from the covariates outlives a fit: the M-step's
    workspace lives in the fit, not on the graph or the covariates."""
    g0, cov, _, _ = _instance(7, 16, 2, 2, False)
    entries = [(i, j, g0.value(i, j)) for i in range(16) for j in range(i + 1, 16)]
    g = build_graph(16, False, entries, "count")  # seeds the graph's CSR view
    spec = FamilySpec(kind, covariate_dim=2)
    graph_attrs, cov_attrs = dict(g.__dict__), dict(cov.__dict__)
    engine.fit(g, spec, 2, cov, seed=0, restarts=2)
    selection.select_q(g, spec, range(1, 4), cov, fit_options={"restarts": 1}, seed=0)
    for obj, attrs in ((g, graph_attrs), (cov, cov_attrs)):
        assert obj.__dict__.keys() == attrs.keys()
        assert all(obj.__dict__[k] is v for k, v in attrs.items())
