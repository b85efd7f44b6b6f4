"""Fit a two-group Poisson mixture to a small valued graph.

Simulates an undirected count network with a strong core group and a
weaker one, runs the variational EM fit, and inspects what comes back:
group proportions, block intensities, soft memberships and the bound
trajectory, then checks the fit as the paper does: predicted against
observed weighted degrees and edge values, by R^2.
"""

import numpy as np

import blockfit as bf

spec = bf.FamilySpec("poisson")

# ground truth: 60% of nodes in a dense class (rate 6 within), the rest in
# a sparse one; cross-class edges are rare
truth = bf.MixtureParams(
    alpha=np.array([0.6, 0.4]),
    theta=bf.families.PoissonParams(lam=np.array([[6.0, 0.5],
                                                  [0.5, 2.0]])),
)
graph, labels = bf.sample_graph(truth, n=80, directed=False, spec=spec, seed=7)
print(f"simulated graph: n={graph.n}, undirected, "
      f"total weight {graph.values.sum() / 2:.0f}")

result = bf.fit(graph, spec, Q=2, seed=0)

print(f"\nconverged: {result.converged} after {result.iterations} outer iterations")
print(f"final bound J = {result.bound:.2f}")
print(f"alpha_hat = {np.round(result.params.alpha, 3)}   (truth: 0.6, 0.4)")
print("lambda_hat =")
print(np.round(result.params.theta.lam, 2))

# the bound can only go up: each E and M half-step maximizes it in turn
steps = np.diff(np.asarray(result.bound_trajectory))
print(f"\nbound trajectory: {len(result.bound_trajectory)} values, "
      f"smallest step {steps.min():.2e} (never below -1e-8)")

# soft memberships are sharp here; the MAP labels recover the partition
agreement = max(
    np.mean(result.map_assignment == labels),
    np.mean(result.map_assignment == 1 - labels),
)
print(f"MAP assignment matches the generating classes for "
      f"{100 * agreement:.0f}% of nodes")
print(f"classification entropy H = {result.entropy:.3f} "
      f"(0 = perfectly sharp, max = {graph.n * np.log(2):.1f})")

# goodness of fit: predicted weighted degrees K_hat_i = sum_j X_hat_ij and
# edge values X_hat_ij = sum_ql tau_iq tau_jl lambda_ql against the graph's
report = bf.prediction_report(result, graph)
print(f"\nR2(degrees) = {report.r2_degrees:.3f}  R2(edges) = {report.r2_edges:.3f}")
