"""blockfit benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload pm-dense --seed 1 --seconds 10 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  Inputs are generated from ``--seed`` in a child process (not
timed) under ``.bench_work/``.  The workload makes one call per input (a
fit, sweep, chain or grid cell), cycling over the inputs until the calls
have used up ``--seconds`` (:func:`timed_calls`); the last cycle may be
cut short, so a run takes about as long on a slow host as on a fast one.
Each input after the first (which the warm-up loads) is loaded just before
its first call, so the loads are spread over the run rather than made in
one burst; ``setup_s`` is the median time to load one input.  ``solve_s`` (:func:`solve_time`) takes each input's
median call, which removes spikes of the shared host, and then the
interquartile mean over the inputs, which averages the inputs' mix of EM
iteration counts without letting the rare very slow fits decide the
figure.  The outputs of every cycle are checked.

With ``--trace 1`` the package entry points are wrapped by
:class:`tracer.Tracer`; untraced and traced passes over all inputs
alternate and the per-layer metrics, per call, come from the traced ones.
The last line of standard output is the JSON result; lines before it are
for people.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "peak_rss_mb": "MB",
    "ari": "1",
    "neg_bound_per_pair": "nat",
}

# per-layer metric -> (span name, what is read: "s", "self_s", "calls")
SETUP_LAYERS = {
    "io.read_edge_csv_s": ("io.read_edge_csv", "s"),
    "io.load_covariates_s": ("io.load_covariates", "s"),
    "graph.build_graph_s": ("graph.build_graph", "s"),
    "graph.attach_covariates_s": ("graph.attach_covariates", "s"),
}
SOLVE_LAYERS = {
    "io.write_fit_json_s": ("io.write_fit_json", "s"),
    "engine.fit_s": ("engine.fit", "s"),
    "engine.fit_self_s": ("engine.fit", "self_s"),
    "engine.fit_calls": ("engine.fit", "calls"),
    "engine.init_partition_s": ("engine.init_partition", "s"),
    "engine.init_partition_calls": ("engine.init_partition", "calls"),
    "engine.mstep_s": ("engine.mstep", "s"),
    "engine.mstep_calls": ("engine.mstep", "calls"),
    "families.weighted_mle_s": ("families.weighted_mle", "s"),
    "families.node_scores_s": ("families.node_scores", "s"),
    "families.node_scores_calls": ("families.node_scores", "calls"),
    "families.edge_term_s": ("families.edge_term", "s"),
    "families.edge_term_calls": ("families.edge_term", "calls"),
    "families.gs_state_calls": ("families.gs_state", "calls"),
    "selection.select_q_s": ("selection.select_q", "s"),
    "selection.icl_s": ("selection.icl", "s"),
    "selection.icl_calls": ("selection.icl", "calls"),
    "predict.prediction_report_s": ("predict.prediction_report", "s"),
    "simulate.sample_graph_s": ("simulate.sample_graph", "s"),
    "simulate.sample_graph_calls": ("simulate.sample_graph", "calls"),
}
PER_LAYER = {
    **{name: ("count" if what == "calls" else "s")
       for name, (_, what) in {**SETUP_LAYERS, **SOLVE_LAYERS}.items()},
    "families.node_scores_gflop": "Gflop",
    "families.node_scores_gbytes": "GB",
    "engine.restarts_failed": "count",
    "engine.estep_unconverged": "count",
    "bench.trace_overhead_frac": "1",
}


class SourceMissing(RuntimeError):
    pass


def add_source_path():
    """Import blockfit from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "blockfit", "__init__.py")):
        raise SourceMissing(f"no blockfit package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import blockfit
    if os.path.dirname(os.path.dirname(os.path.abspath(blockfit.__file__))) != SRC:
        raise SourceMissing(f"blockfit was imported from {blockfit.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# Machine record


def _blas_threads():
    """OpenBLAS thread count from the library numpy loaded, if it says."""
    import ctypes
    import glob
    import numpy
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_record():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": _cpu_model(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "processes": 1,
    }


# ---------------------------------------------------------------------------
# Phases


def generate_inputs(workload_name, seed, workdir):
    """Run the generator in a child process so its memory is not counted."""
    cmd = [sys.executable, os.path.abspath(__file__), "--generate-into", workdir,
           "--workload", workload_name, "--seed", str(seed)]
    subprocess.run(cmd, check=True, timeout=170)
    with open(os.path.join(workdir, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_setup(workload, manifest):
    """Load every input once; returns (objects, seconds per load)."""
    loaded, times = [], []
    for item in workload.items(manifest):
        t0 = time.perf_counter()
        loaded.append(workload.load(item))
        times.append(time.perf_counter() - t0)
    return loaded, times


def warm_up(workload, manifest):
    """One untimed, unchecked load and call of the first input, so BLAS
    threads, lazy imports and first-touch memory exist before timing: the
    first pm-sparse call otherwise takes twice as long as the next.
    Returns the loaded first input."""
    item = workload.items(manifest)[0]
    first = workload.load(item)
    workload.call(first, item)
    return first


class Tally:
    """Checks over every pass of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first = None

    def add(self, checked):
        self.attempted += checked.attempted
        self.failed += checked.failed
        self.problems.extend(checked.problems)
        if self.first is None:
            self.first = checked


def summary(times):
    """Quartiles and extremes of a list of seconds, for the log."""
    if len(times) < 2:
        return f"{times[0]:.6g} s"
    q1, q2, q3 = statistics.quantiles(times, n=4)
    return (f"min {min(times):.6g} q1 {q1:.6g} median {q2:.6g} q3 {q3:.6g} "
            f"max {max(times):.6g} s")


def interquartile_mean(values):
    """Mean of the sorted values left after dropping a quarter (rounded
    down) at each end; the plain mean of fewer than four values."""
    values = sorted(values)
    cut = len(values) // 4
    return statistics.fmean(values[cut:len(values) - cut])


def solve_time(per_input):
    """``solve_s`` of a run from the call times of each input: each input's
    median, then the interquartile mean over the inputs called."""
    return interquartile_mean(statistics.median(times) for times in per_input if times)


def timed_calls(workload, manifest, first, seconds, tally):
    """Call the workload on its inputs in turn, cycling, until the calls
    have used up ``seconds`` (two calls at least, so that a load of the
    second input is timed); returns (seconds per load,
    seconds per call of each input).  ``first`` is the first input, loaded
    by the warm-up; every other input is loaded just before its first call.
    Each cycle's outputs are checked, the last one's even when it was cut
    short."""
    items = workload.items(manifest)
    loaded = [first] + [None] * (len(items) - 1)
    setup_times, per_input, made, outputs = [], [[] for _ in items], [], []
    while len(made) < 2 or sum(made) + statistics.median(made) <= seconds:
        k = len(made) % len(items)
        if loaded[k] is None:
            t0 = time.perf_counter()
            loaded[k] = workload.load(items[k])
            setup_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        outputs.append(workload.call(loaded[k], items[k]))
        made.append(time.perf_counter() - t0)
        per_input[k].append(made[-1])
        if len(outputs) == len(items):
            tally.add(workload.check(outputs, manifest))
            outputs = []
    if outputs:
        tally.add(workload.check(outputs, manifest))
    return setup_times, per_input


def timed_pass(workload, loaded, manifest, tally):
    """Make every call once; returns (seconds per call, outputs)."""
    times, outputs = [], []
    for g, item in zip(loaded, workload.items(manifest)):
        t0 = time.perf_counter()
        outputs.append(workload.call(g, item))
        times.append(time.perf_counter() - t0)
    tally.add(workload.check(outputs, manifest))
    return times, outputs


def layer_metrics(tracer, setup_trace, setup_units, pass_traces, pass_outputs, workload,
                  overhead):
    """Per-layer metrics: set-up layers per input load, solve layers per call
    (pass totals over the calls in a pass; median over traced passes for
    times, counts from the first traced pass, which every later pass
    repeats)."""
    calls = len(pass_outputs)
    metrics = {}
    setup_totals = tracer.totals(setup_trace)
    for name, (span, what) in SETUP_LAYERS.items():
        total = setup_totals.get(span, (0, 0.0, 0.0))[1]
        metrics[name] = total / max(1, setup_units)
    per_pass = []
    for trace in pass_traces:
        totals = tracer.totals(trace)
        row = {}
        for name, (span, what) in SOLVE_LAYERS.items():
            count, total, own = totals.get(span, (0, 0.0, 0.0))
            row[name] = {"s": total, "self_s": own, "calls": count}[what] / calls
        counts = tracer.counters.get(trace, {})
        row["families.node_scores_gflop"] = counts.get("families.node_scores_flop", 0) / 1e9 / calls
        row["families.node_scores_gbytes"] = counts.get("families.node_scores_bytes", 0) / 1e9 / calls
        per_pass.append(row)
    for name in per_pass[0]:
        if name.endswith("_calls") or name.startswith("families.node_scores_g"):
            metrics[name] = per_pass[0][name]
        else:
            metrics[name] = statistics.median(row[name] for row in per_pass)
    fits = workload.fits(pass_outputs)
    metrics["engine.restarts_failed"] = sum(int(f.diagnostics.get("restarts_failed", 0)) for f in fits)
    metrics["engine.estep_unconverged"] = sum(int(f.diagnostics.get("estep_unconverged", 0)) for f in fits)
    metrics["bench.trace_overhead_frac"] = overhead
    return metrics


def run(workload, seed, seconds, trace, workdir, log, manifest=None, tracer=None):
    """One benchmark run; returns the result object printed as JSON.

    ``manifest`` (inputs already generated) and ``tracer`` are for the
    self-test, which uses tiny sizes and inspects the spans afterwards.
    """
    from tracer import Tracer

    if manifest is None:
        manifest = generate_inputs(workload.name, seed, workdir)
    first = warm_up(workload, manifest)
    tally = Tally()
    if not trace:
        setup_times, per_input = timed_calls(workload, manifest, first, seconds, tally)
        calls = [t for times in per_input for t in times]
        log(f"setup: {len(setup_times)} loads, {summary(setup_times)}")
        log(f"solve: {len(calls)} calls of {len(setup_times) + 1} inputs, {summary(calls)}")
        metrics = {
            "setup_s": statistics.median(setup_times),
            "solve_s": solve_time(per_input),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **tally.first.quality,
        }
        units = END_TO_END
    else:
        tracer = tracer or Tracer()
        with tracer:
            loaded, setup_times = run_setup(workload, manifest)
        plain, traced, traces, both = [], [], [], []
        outputs = None
        start = time.perf_counter()
        while True:
            plain_times = timed_pass(workload, loaded, manifest, tally)[0]
            tracer.trace_id = len(traces) + 1
            with tracer:
                traced_times, outputs_pass = timed_pass(workload, loaded, manifest, tally)
            plain.append(plain_times)
            traced.append(traced_times)
            traces.append(tracer.trace_id)
            both.append(sum(plain_times) + sum(traced_times))
            if outputs is None:
                outputs = outputs_pass
            if time.perf_counter() - start + statistics.median(both) > seconds:
                break
        overhead = solve_time(zip(*traced)) / solve_time(zip(*plain)) - 1.0
        log(f"untraced calls: {summary([t for p in plain for t in p])}; "
            f"traced calls: {summary([t for p in traced for t in p])}; overhead {overhead:+.4f}")
        if not tracer.restored():
            tally.problems.append("tracer left a wrapper installed")
        metrics = layer_metrics(tracer, 0, len(setup_times), traces, outputs, workload, overhead)
        spans_path = os.path.join(WORK, f"spans-{workload.name}-{seed}.jsonl")
        tracer.write(spans_path)
        log(f"{len(tracer.spans)} spans written to {os.path.relpath(spans_path, ROOT)}")
        units = PER_LAYER
    for name, value in tally.first.details.items():
        log(f"{name}: {value}")
    for line in tally.problems[:20]:
        log(f"CHECK FAILED: {line}")
    return {
        "correct": not tally.problems and tally.failed == 0,
        "attempted": int(tally.attempted),
        "failed": int(tally.failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--generate-into", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        add_source_path()
    except SourceMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()

    if args.generate_into:
        manifest = workload.generate(args.seed, args.generate_into)
        with open(os.path.join(args.generate_into, "manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        return 0

    def log(line):
        print(f"# {line}", flush=True)

    log(f"workload {workload.name} seed {args.seed}: {workload.why}")
    log("machine: " + json.dumps(machine_record()))
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"run-{workload.name}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result = run(workload, args.seed, args.seconds, bool(args.trace), workdir, log)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, m in result["metrics"].items():
        log(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
