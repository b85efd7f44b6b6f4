"""Spans around the public entry points of each blockfit module.

A :class:`Tracer` rebinds the functions (and score-container methods) named
in :data:`ENTRY_POINTS` to timing wrappers, in every module of the package
that holds a reference to them, so that a name imported with
``from .engine import fit`` is wrapped where it is used (``selection.fit``,
``simulate.fit``).  Each call records a span: name, start, end and the
index of the enclosing span.  Spans stay in memory until :meth:`write`.
:meth:`restore` puts every original object back.

Nothing in the package itself is modified on disk; the spans sit at module
boundaries only, so time inside a function that no child span covers is
that function's self time.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

import blockfit
from blockfit import engine, families, graph, io, predict, selection, simulate

# (owner, attribute, span name).  Owners are modules or classes; a module
# function is also rebound in every other package module that imported it.
ENTRY_POINTS = (
    (io, "read_edge_csv", "io.read_edge_csv"),
    (io, "load_graph", "io.load_graph"),
    (io, "load_covariates", "io.load_covariates"),
    (io, "write_fit_json", "io.write_fit_json"),
    (graph, "build_graph", "graph.build_graph"),
    (graph, "attach_covariates", "graph.attach_covariates"),
    (engine, "fit", "engine.fit"),
    (engine, "mstep", "engine.mstep"),
    (engine, "init_partition", "engine.init_partition"),
    (families, "weighted_mle", "families.weighted_mle"),
    (families.DecomposedScores, "node_scores", "families.node_scores"),
    (families.DenseScores, "node_scores", "families.node_scores"),
    (families.DecomposedScores, "edge_term", "families.edge_term"),
    (families.DenseScores, "edge_term", "families.edge_term"),
    (families.DecomposedScores, "gs_state", "families.gs_state"),
    (families.DenseScores, "gs_state", "families.gs_state"),
    (selection, "select_q", "selection.select_q"),
    (selection, "icl", "selection.icl"),
    (predict, "prediction_report", "predict.prediction_report"),
    (simulate, "sample_graph", "simulate.sample_graph"),
    (simulate, "run_experiment", "simulate.run_experiment"),
)


def package_modules():
    """Every imported module of the blockfit package."""
    prefix = blockfit.__name__ + "."
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == blockfit.__name__ or name.startswith(prefix))]


def node_scores_cost(scores, tau):
    """Computed (flops, bytes) of one ``node_scores`` call.

    DecomposedScores does, per statistic S (n x n) and orientation,
    T = tau @ C^T (2nQ^2 flops), S @ T (2n^2 Q flops) and D += (nQ flops),
    reading S once (8n^2 bytes) plus tau, C, T and D (about 4nQ + Q^2
    doubles).  DenseScores contracts the (Q, Q, n, n) tensor with tau once
    per orientation: 2Q^2 n^2 flops over 8Q^2 n^2 bytes.  Bytes ignore
    cache reuse; they are what the shapes force through memory at least
    once.
    """
    n, Q = tau.shape
    sides = 2 if scores.directed else 1
    if isinstance(scores, families.DecomposedScores):
        k = len(scores.stats)
        flops = k * sides * (2 * n * n * Q + 2 * n * Q * Q + n * Q)
        nbytes = k * sides * 8 * (n * n + 4 * n * Q + Q * Q)
    else:
        flops = sides * 2 * Q * Q * n * n
        nbytes = sides * 8 * (Q * Q * n * n + 2 * n * Q)
    return flops, nbytes


class Tracer:
    """Records spans while installed; restores the package on exit."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or None, trace id]
        self.counters = {}   # trace id -> Counter
        self.trace_id = 0
        self._stack = []
        self._saved = []     # (owner, attribute, original)

    # -- installation -------------------------------------------------------

    def install(self):
        modules = package_modules()
        for owner, attr, name in ENTRY_POINTS:
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, name)
            if isinstance(owner, type):
                self._rebind(owner, attr, wrapper, original)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper, original)
        return self

    def _rebind(self, owner, attr, wrapper, original):
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    def _wrap(self, fn, name):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter
        cost = node_scores_cost if name == "families.node_scores" else None

        def wrapper(*args, **kwargs):
            if cost is not None:
                flops, nbytes = cost(args[0], args[1])
                counts = counters.setdefault(self.trace_id, Counter())
                counts["families.node_scores_flop"] += flops
                counts["families.node_scores_bytes"] += nbytes
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.trace_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.span_name = name
        return wrapper

    # -- results ------------------------------------------------------------

    def restored(self):
        """True when no wrapper is left in the package."""
        owners = package_modules() + [owner for owner, _, _ in ENTRY_POINTS if isinstance(owner, type)]
        return not self._saved and not any(
            hasattr(value, "span_name") for owner in owners for value in vars(owner).values())

    def totals(self, trace_id):
        """{name: (calls, inclusive seconds, self seconds)} over the spans
        of one trace.

        Self time is a span's duration minus the time its child spans
        cover; children of one span never overlap (one thread), so the
        covered time is the sum of their durations.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, trace in self.spans:
            if parent is not None and trace == trace_id:
                child_time[parent] += end - start
        out = {}
        for (name, start, end, _, trace), covered in zip(self.spans, child_time):
            if trace != trace_id:
                continue
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + (end - start), own + (end - start - covered))
        return out

    def children_time(self, parent_name, trace_id):
        """Seconds covered by direct children of spans named ``parent_name``."""
        covered = 0.0
        for name, start, end, parent, trace in self.spans:
            if trace == trace_id and parent is not None and self.spans[parent][0] == parent_name:
                covered += end - start
        return covered

    def write(self, path):
        """Spans as JSON lines: name, start, end, parent, trace id."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, trace) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "trace": trace}) + "\n")
