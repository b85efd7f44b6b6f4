"""Pick the number of groups with the ICL criterion.

Sweeps Q = 1..6 on data simulated with three latent groups and shows the
ICL curve: the complete-data likelihood keeps improving with Q while the
penalty 1/2 {P_Q log[n(n-1)] - (Q-1) log n} eventually wins.  The curve
ends where the sweep stops: once ICL fails to beat its best at two
consecutive Q, the larger Q of the range are not fitted.
"""

import numpy as np

import blockfit as bf

spec = bf.FamilySpec("poisson")

# the paper-style medium cell: proportions ~ a^q with a = 0.5, mean
# intensity 2, between/within ratio 0.5
truth = bf.grid_params(a=0.5, lam=2.0, gamma_ratio=0.5, q_star=3)
print("true alpha:", np.round(truth.alpha, 3))
print("true lambda:")
print(np.round(truth.theta.lam, 2))

graph, _ = bf.sample_graph(truth, n=150, directed=False, spec=spec, seed=11)

sweep = bf.select_q(graph, spec, q_range=range(1, 7), seed=3)

print(f"\n{'Q':>3} {'J':>12} {'ICL':>12} {'entropy':>9}")
for rec in sweep.records:
    mark = "  <- chosen" if rec.q == sweep.chosen_q else ""
    print(f"{rec.q:>3} {rec.fit.bound:>12.1f} {rec.icl:>12.1f} "
          f"{rec.fit.entropy:>9.2f}{mark}")

if sweep.skipped:
    print(f"sweep stopped: {sweep.stop_reason}")

print(f"\nselected Q = {sweep.chosen_q} (simulated with Q* = 3)")

best = sweep.best_fit
print("alpha_hat:", np.round(best.params.alpha, 3))

# the criterion's two ingredients, reported separately
pen = bf.icl_penalty(spec, sweep.chosen_q, graph.n, graph.directed)
print(f"penalty at the chosen Q: {pen:.2f}; "
      f"complete-data log-likelihood: {best.icl + pen:.2f}")
