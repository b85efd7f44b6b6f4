"""blockfit command line: fit, select, simulate, predict, report.

Exit codes: 0 ok, 2 usage, 3 input format, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

import numpy as np

from . import io as bio
from .engine import fit
from .errors import BlockfitError, GraphBuildError, InputFormatError, NumericalError
from .families import FAMILIES, FAMILY_KINDS, FamilySpec
from .predict import prediction_report
from .selection import icl, select_q
from .simulate import GridConfig, run_experiment

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4


class _UsageError(Exception):
    """Arguments that parse but cannot be meant; checked before any file is read."""


def _load_inputs(args):
    g = bio.load_graph(args.edges, directed=args.directed,
                       value_kind=FAMILIES[args.family].value_kind,
                       num_labels=args.labels, n=args.n, fill=args.fill)
    cov = bio.load_covariates(g, args.cov) if args.cov else None
    spec = FamilySpec(kind=args.family, num_labels=args.labels,
                      covariate_dim=None if cov is None else cov.p)
    if spec.uses_covariates and cov is None:
        raise InputFormatError(f"family {args.family!r} requires --cov")
    return g, cov, spec


def _read_labels(path, n, q):
    """Initial labels from a CSV: n integers in 0..q-1."""
    try:
        with warnings.catch_warnings():  # an empty file is reported below
            warnings.simplefilter("ignore", UserWarning)
            labels = np.loadtxt(path, dtype=int, delimiter=",", ndmin=1)
    except ValueError as exc:
        raise InputFormatError(f"{path}: labels must be integers ({exc})") from exc
    if labels.shape != (n,):
        raise InputFormatError(f"{path}: expected {n} labels, got {labels.size}")
    if labels.min() < 0 or labels.max() >= q:
        raise InputFormatError(f"{path}: labels must lie in 0..{q - 1}, "
                               f"got {labels.min()}..{labels.max()}")
    return labels


def _fit_options(args, n, q):
    """Fit options from the flags; ``q`` bounds the labels of ``--init file``."""
    opts = {"restarts": args.restarts, "tol": args.tol, "max_outer": args.max_iter}
    if args.init == "file":
        if not args.init_file:
            raise InputFormatError("--init file requires --init-file")
        opts["init"] = _read_labels(args.init_file, n, q)
    else:
        opts["init"] = args.init  # fit reads "hier" as "hierarchical"
    return opts


def _add_common_fit_flags(sub):
    sub.add_argument("--edges", required=True, help="edge-list CSV (i,j,value)")
    sub.add_argument("--cov", help="covariate CSV (i,j,y1..yp)")
    sub.add_argument("--family", default="poisson", choices=FAMILY_KINDS)
    sub.add_argument("--labels", type=int, help="label count m (multinomial)")
    sub.add_argument("--directed", action="store_true")
    sub.add_argument("--n", type=int, help="node count (default: inferred)")
    sub.add_argument("--fill", type=float, help="value for unlisted pairs")
    sub.add_argument("--restarts", type=int, default=5)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--tol", type=float, default=1e-6)
    sub.add_argument("--max-iter", type=int, default=500)
    sub.add_argument("--init", choices=("auto", "hier", "random", "file"), default="auto",
                     help="start of the first restart: auto (spectral on graphs with a "
                          "CSR view, else hier), hier (Ward linkage), random, or file")
    sub.add_argument("--init-file", help="CSV of n initial labels in 0..Q-1 for --init file")


def _covariate_mean(cov):
    if cov is None:
        return None
    off = ~np.eye(cov.y.shape[0], dtype=bool)
    return [float(m) for m in cov.y[off].mean(axis=0)]


def cmd_fit(args):
    if args.q < 1:
        raise _UsageError(f"--q must be at least 1, got {args.q}")
    g, cov, spec = _load_inputs(args)
    if args.q > g.n:
        raise InputFormatError(f"--q {args.q} exceeds the graph's {g.n} nodes")
    result = fit(g, spec, args.q, cov, seed=args.seed, **_fit_options(args, g.n, args.q))
    result.icl = icl(g, spec, result, cov)
    extra = {"n": g.n, "directed": g.directed, "covariate_mean": _covariate_mean(cov)}
    out = args.out or "fit.json"
    bio.write_fit_json(out, result, spec, extra=extra)
    print(f"fit: Q={args.q} J={result.bound_trajectory[-1]:.4f} "
          f"ICL={result.icl:.4f} converged={result.converged} -> {out}")
    return EXIT_OK


def cmd_select(args):
    if args.qmin < 1:
        raise _UsageError(f"--qmin must be at least 1, got {args.qmin}")
    if args.qmin > args.qmax:
        raise _UsageError(f"--qmin {args.qmin} exceeds --qmax {args.qmax}")
    g, cov, spec = _load_inputs(args)
    result = select_q(g, spec, range(args.qmin, args.qmax + 1), cov,
                      fit_options=_fit_options(args, g.n, args.qmax), seed=args.seed,
                      edge_count=args.edge_count_convention)
    out = args.out or "selection.csv"
    fmt = "json" if out.endswith(".json") else "csv"
    bio.write_selection_table(out, result, fmt=fmt)
    for rec in result.records:
        j = "nan" if rec.fit is None else f"{rec.fit.bound:.4f}"
        print(f"Q={rec.q} J={j} ICL={rec.icl:.4f}" + ("  <- chosen" if rec.q == result.chosen_q else ""))
    if args.fit_out:
        best = result.best_fit
        extra = {"n": g.n, "directed": g.directed, "covariate_mean": _covariate_mean(cov)}
        bio.write_fit_json(args.fit_out, best, spec, extra=extra)
    print(f"chosen Q = {result.chosen_q} -> {out}")
    return EXIT_OK


def cmd_simulate(args):
    raw = bio.read_grid_config(args.config)
    try:
        config = GridConfig(
            n=int(raw["n"]), a=float(raw["a"]),
            lam=float(raw.get("lambda", raw.get("lam"))),
            gamma_ratio=float(raw.get("gamma", raw.get("gamma_ratio"))),
            q_star=int(raw.get("q_star", 3)), s=int(raw.get("s", 100)),
            seed=None if raw.get("seed") is None else int(raw["seed"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"bad grid config: {exc}") from exc
    mode = args.mode or raw.get("mode", "estimation")
    q_max = raw.get("q_max")
    report = run_experiment(config, mode=mode,
                            q_max=None if q_max is None else int(q_max))
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "report.csv")
    bio.write_report_csv(csv_path, report)
    lines = [f"mode={report.mode} cell: n={config.n} a={config.a} lambda={config.lam} "
             f"gamma={config.gamma_ratio} Q*={config.q_star} "
             f"S={report.replicates_done} (failed {report.replicates_failed})"]
    if report.mode == "estimation":
        lines.append(f"mean normalized entropy H/n = {report.mean_normalized_entropy:.4f}")
        lines.append("RMSE(alpha) = " + " ".join(f"{v:.4f}" for v in report.rmse_alpha))
        q = config.q_star
        lam_rmse = [f"{report.rmse_lambda[a, b]:.4f}" for a in range(q) for b in range(a, q)]
        lines.append("RMSE(lambda_ql), q<=l = " + " ".join(lam_rmse))
    else:
        freq = ", ".join(f"Q={q}: {100 * f:.0f}%" for q, f in sorted(report.q_frequencies.items()))
        lines.append("selection frequencies: " + freq)
    summary = "\n".join(lines) + "\n"
    with open(os.path.join(args.out, "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write(summary)
    print(summary, end="")
    return EXIT_OK


def cmd_predict(args):
    result, spec, data = bio.read_fit_json(args.fit)
    # read the graph as it was fitted
    args.family, args.labels = spec.kind, spec.num_labels
    args.directed, args.n = bool(data.get("directed")), data.get("n")
    g, cov, _ = _load_inputs(args)
    report = prediction_report(result, g, cov, spec=spec)
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            bio.write_prediction_csv(fh, report, g.directed)
    else:
        bio.write_prediction_csv(sys.stdout, report, g.directed)
    print(f"R2(degrees) = {report.r2_degrees:.4f}  R2(edges) = {report.r2_edges:.4f}",
          file=sys.stderr)
    return EXIT_OK


def _format_matrix(mat, names):
    width = max(8, max(len(s) for s in names) + 2)
    head = " " * width + "".join(f"{s:>{width}}" for s in names)
    lines = [head]
    for q, row in enumerate(mat):
        lines.append(f"{names[q]:>{width}}" + "".join(f"{v:>{width}.3f}" for v in row))
    return lines


def cmd_report(args):
    result, spec, data = bio.read_fit_json(args.fit)
    Q = result.params.Q
    names = [f"C{q + 1}" for q in range(Q)]
    sizes = np.bincount(result.map_assignment, minlength=Q)
    lines = [
        f"family: {spec.kind}   Q = {Q}   n = {len(result.map_assignment)}",
        f"converged: {result.converged}   J = {result.bound_trajectory[-1]:.4f}"
        + ("" if result.icl is None else f"   ICL = {result.icl:.4f}"),
        "group sizes (MAP): " + " ".join(f"{names[q]}={sizes[q]}" for q in range(Q)),
        "alpha_hat (%): " + " ".join(f"{100 * a:.1f}" for a in result.params.alpha),
        "theta:",
    ]
    theta = result.params.theta
    block = getattr(theta, "lam", getattr(theta, "pi", getattr(theta, "mu", None)))
    if block is not None and np.ndim(block) == 2:
        lines += _format_matrix(np.asarray(block), names)
    else:
        lines.append(json.dumps(data["theta"], indent=1))
    beta = getattr(theta, "beta", None)
    if beta is not None and np.ndim(beta) == 1:
        lines.append("beta_hat: " + " ".join(f"{b:.4f}" for b in np.atleast_1d(beta)))
        ybar = data.get("covariate_mean")
        if ybar:
            effect = float(np.exp(np.dot(beta, ybar)))
            lines.append(f"covariate effect at mean y (exp(beta.ybar)): {effect:.3f}")
    if args.baseline:
        base, base_spec, _ = bio.read_fit_json(args.baseline)
        if result.icl is None or base.icl is None:
            lines.append("delta ICL: unavailable (missing stored ICL)")
        else:
            lines.append(f"delta ICL switching from {base_spec.kind} (Q={base.params.Q}) "
                         f"to {spec.kind} (Q={Q}): {result.icl - base.icl:.4f}")
    print("\n".join(lines))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="blockfit",
                                     description="Mixture models for valued graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit at a fixed number of groups")
    _add_common_fit_flags(p_fit)
    p_fit.add_argument("--q", type=int, required=True)
    p_fit.add_argument("--out", help="output fit JSON (default fit.json)")
    p_fit.set_defaults(func=cmd_fit)

    p_sel = sub.add_parser("select", help="ICL sweep over a Q range")
    _add_common_fit_flags(p_sel)
    p_sel.add_argument("--qmin", type=int, default=1)
    p_sel.add_argument("--qmax", type=int, default=10)
    p_sel.add_argument("--edge-count-convention", choices=("ordered", "unordered"),
                       default="ordered")
    p_sel.add_argument("--out", help="output table CSV/JSON (default selection.csv)")
    p_sel.add_argument("--fit-out", help="also store the chosen fit as JSON")
    p_sel.set_defaults(func=cmd_select)

    p_sim = sub.add_parser("simulate", help="run one simulation-grid cell")
    p_sim.add_argument("--config", required=True, help="grid config (JSON or key=value)")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--mode", choices=("estimation", "selection"))
    p_sim.set_defaults(func=cmd_simulate)

    p_pred = sub.add_parser("predict", help="edge/degree predictions and R2")
    p_pred.add_argument("--fit", required=True, help="fit JSON")
    p_pred.add_argument("--edges", required=True)
    p_pred.add_argument("--cov")
    p_pred.add_argument("--fill", type=float)
    p_pred.add_argument("--out", help="output CSV (default stdout)")
    p_pred.set_defaults(func=cmd_predict)

    p_rep = sub.add_parser("report", help="plain-text model summary")
    p_rep.add_argument("--fit", required=True)
    p_rep.add_argument("--baseline", help="second fit JSON for a delta-ICL comparison")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"blockfit: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InputFormatError, GraphBuildError, FileNotFoundError) as exc:
        print(f"blockfit: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"blockfit: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except BlockfitError as exc:
        print(f"blockfit: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
