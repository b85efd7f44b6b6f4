"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 bench/selftest.py

For every workload it generates tiny inputs, makes one traced run and
checks that

* the outputs pass the workload's checks;
* every per-layer metric is reported, and the ones a workload is meant to
  move are non-zero on it;
* the direct children of the ``engine.fit`` spans plus
  ``engine.fit_self_s`` add up to ``engine.fit_s`` within 3 %;
* every entry point is the original object again afterwards;
* BENCHMARK.json names exactly the workloads and metrics the code reports.

Exits with 1 when any workload fails a check.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

TINY = {
    "pm-dense": {"n": 80, "graphs": 2, "gamma": 0.3},
    "pm-sparse": {"n": 150, "graphs": 1, "lam": 0.2},
    "prmh-select": {"n": 40, "graphs": 2, "q_max": 3, "restarts": 2},
    "sim-cell": {"n": 40, "cells": 3, "replicates": 2, "restarts": 2, "gamma": 0.2, "lam": 5.0},
}

# Metrics that must be non-zero on a workload: the layers it exercises.
FIT = ("engine.fit_s", "engine.fit_self_s", "engine.fit_calls", "engine.mstep_s",
       "engine.mstep_calls", "engine.init_partition_s", "engine.init_partition_calls",
       "families.weighted_mle_s", "families.node_scores_s", "families.node_scores_calls",
       "families.node_scores_gflop", "families.node_scores_gbytes",
       "families.edge_term_s", "families.edge_term_calls")
EXPECTED = {
    "pm-dense": FIT + ("io.read_edge_csv_s", "graph.build_graph_s"),
    "pm-sparse": FIT + ("io.read_edge_csv_s", "graph.build_graph_s", "io.write_fit_json_s",
                        "selection.icl_s", "selection.icl_calls", "predict.prediction_report_s"),
    "prmh-select": FIT + ("io.read_edge_csv_s", "graph.build_graph_s", "io.load_covariates_s",
                          "graph.attach_covariates_s", "selection.select_q_s",
                          "selection.icl_s", "selection.icl_calls"),
    "sim-cell": FIT + ("simulate.sample_graph_s", "simulate.sample_graph_calls"),
}


def entry_point_objects(tracer_module):
    return [(owner, attr, owner.__dict__[attr])
            for owner, attr, _ in tracer_module.ENTRY_POINTS]


def check_benchmark_json(workloads):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != run.PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from run.PER_LAYER")
    return problems


def main():
    run.add_source_path()
    import tracer as tracer_module
    import workloads

    problems = check_benchmark_json(workloads)
    os.makedirs(run.WORK, exist_ok=True)
    for name, size in TINY.items():
        workload = workloads.WORKLOADS[name](**size)
        before = entry_point_objects(tracer_module)
        workdir = os.path.join(run.WORK, f"selftest-{name}-{os.getpid()}")
        os.makedirs(workdir)
        tracer = tracer_module.Tracer()
        try:
            manifest = workload.generate(7, workdir)
            result = run.run(workload, 7, 0.0, True, workdir, lambda line: None,
                             manifest=manifest, tracer=tracer)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        found = []
        if not result["correct"] or result["failed"]:
            found.append(f"output checks failed ({result['failed']}/{result['attempted']})")
        missing = sorted(set(run.PER_LAYER) - set(metrics))
        if missing:
            found.append(f"metrics not reported: {missing}")
        zero = [m for m in EXPECTED[name] if not metrics.get(m)]
        if zero:
            found.append(f"zero on this workload: {zero}")
        _, fit_s, fit_self = tracer.totals(1)["engine.fit"]   # first traced pass
        children = tracer.children_time("engine.fit", 1)
        if abs(children + fit_self - fit_s) > 0.03 * fit_s:
            found.append(f"fit children {children:.4f} + self {fit_self:.4f} != fit {fit_s:.4f}")
        if not tracer.restored() or entry_point_objects(tracer_module) != before:
            found.append("entry points not restored")
        status = "ok" if not found else "FAIL: " + "; ".join(found)
        print(f"{name}: {status}")
        problems.extend(f"{name}: {line}" for line in found)
    for line in problems:
        print(f"selftest: {line}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
