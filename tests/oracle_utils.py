"""Independent brute-force evaluations used as oracles in the tests.

Everything here is deliberately written with explicit Python loops over
edges and blocks, so it shares no code path with the vectorized library
implementations it checks.
"""

import numpy as np
from scipy.special import gammaln


def edge_pairs(n, directed):
    if directed:
        return [(i, j) for i in range(n) for j in range(n) if i != j]
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def loop_block_weight(tau, q, l):
    n = tau.shape[0]
    return sum(tau[i, q] * tau[j, l] for i in range(n) for j in range(n) if i != j)


def loop_weighted_mean(tau, values, q, l):
    n = tau.shape[0]
    num = sum(tau[i, q] * tau[j, l] * values[i, j]
              for i in range(n) for j in range(n) if i != j)
    return num / loop_block_weight(tau, q, l)


def loop_weighted_moment(tau, values, q, l, center):
    n = tau.shape[0]
    num = sum(tau[i, q] * tau[j, l] * (values[i, j] - center) ** 2
              for i in range(n) for j in range(n) if i != j)
    return num / loop_block_weight(tau, q, l)


def loop_lower_bound(graph, tau, alpha, logf):
    """J from the definition; ``logf(q, l, i, j)`` supplies log f_ql(X_ij)."""
    n, Q = tau.shape
    ent = -sum(tau[i, q] * np.log(tau[i, q])
               for i in range(n) for q in range(Q) if tau[i, q] > 0)
    mix = sum(tau[i, q] * np.log(alpha[q])
              for i in range(n) for q in range(Q) if tau[i, q] > 0 and alpha[q] > 0)
    edge = 0.0
    for i, j in edge_pairs(graph.n, graph.directed):
        for q in range(Q):
            for l in range(Q):
                edge += tau[i, q] * tau[j, l] * logf(q, l, i, j)
    return ent + mix + edge


def loop_poisson_reg_loglik(tau, X, Y, lam, beta, shared):
    """Weighted Poisson-regression log-likelihood by direct summation."""
    n, Q = tau.shape
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for q in range(Q):
                for l in range(Q):
                    b = beta if shared else beta[q, l]
                    rate = lam[q, l] * np.exp(float(np.dot(b, Y[i, j])))
                    if rate <= 0:
                        ll = 0.0 if X[i, j] == 0 else -1e12
                    else:
                        ll = X[i, j] * np.log(rate) - rate - gammaln(X[i, j] + 1)
                    total += tau[i, q] * tau[j, l] * ll
    return total


def loop_poisson_reg_grad(tau, X, Y, lam, beta, shared):
    """Gradient of the weighted log-likelihood in (log lam_ql, beta)."""
    n, Q = tau.shape
    p = Y.shape[2]
    g_loglam = np.zeros((Q, Q))
    g_beta = np.zeros((Q, Q, p)) if not shared else np.zeros(p)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for q in range(Q):
                for l in range(Q):
                    b = beta if shared else beta[q, l]
                    mu = lam[q, l] * np.exp(float(np.dot(b, Y[i, j])))
                    w = tau[i, q] * tau[j, l]
                    g_loglam[q, l] += w * (X[i, j] - mu)
                    contrib = w * (X[i, j] - mu) * Y[i, j]
                    if shared:
                        g_beta += contrib
                    else:
                        g_beta[q, l] += contrib
    return g_loglam, g_beta


def grid_search_poisson_reg(X, Y, lam_range, beta_range, refinements=3, size=41):
    """Single-block (lam, beta) maximizer of the unweighted Poisson
    regression likelihood by iteratively refined grid search."""
    mask = ~np.eye(X.shape[0], dtype=bool)
    x = X[mask]
    y = Y[:, :, 0][mask]

    def ll(lam, beta):
        rate = lam * np.exp(beta * y)
        return float(np.sum(x * np.log(rate) - rate))

    lam_lo, lam_hi = lam_range
    beta_lo, beta_hi = beta_range
    best = None
    for _ in range(refinements):
        lams = np.linspace(lam_lo, lam_hi, size)
        betas = np.linspace(beta_lo, beta_hi, size)
        vals = np.array([[ll(l_, b_) for b_ in betas] for l_ in lams])
        il, ib = np.unravel_index(np.argmax(vals), vals.shape)
        best = (lams[il], betas[ib])
        dl = (lam_hi - lam_lo) / (size - 1)
        db = (beta_hi - beta_lo) / (size - 1)
        lam_lo, lam_hi = best[0] - 2 * dl, best[0] + 2 * dl
        beta_lo, beta_hi = best[1] - 2 * db, best[1] + 2 * db
    return best


def random_tau(rng, n, Q):
    return rng.dirichlet(np.ones(Q), size=n)


class DenseScores:
    """Fallback holding the full (Q, Q, n, n) log-density tensor."""

    fixed = 0.0  # the tensor holds every term

    def __init__(self, tensor, directed):
        self.tensor = np.asarray(tensor)
        n = self.tensor.shape[-1]
        self.tensor[:, :, np.arange(n), np.arange(n)] = 0.0
        self.directed = directed

    def node_scores(self, tau):
        D = np.einsum("qlij,jl->iq", self.tensor, tau)
        if self.directed:
            D += np.einsum("lqji,jl->iq", self.tensor, tau)
        return D

    def edge_term(self, tau):
        t = np.einsum("iq,qlij,jl->", tau, self.tensor, tau)
        return t if self.directed else 0.5 * t

    def dense(self):
        return self.tensor
