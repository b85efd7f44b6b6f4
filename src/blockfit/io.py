"""File formats: edge/covariate CSVs, fit JSON, selection tables, reports.

Edge-list CSV: header ``i,j,value`` (or ``i,j,v1,v2`` for paired values);
covariate CSV: header ``i,j,y1..yp``; 0-based node indices, UTF-8.  The
accepted dialect:

* the header is the first non-blank line; its cells are matched without
  regard to case or surrounding spaces;
* every other row has exactly one cell per header column, separated by
  commas; a cell may be wrapped in double quotes, and spaces around a
  number are ignored;
* ``i`` and ``j`` are written as integers (``1.0`` or ``1e3`` is an error),
  values as any float literal; an empty cell is an error;
* empty and whitespace-only lines are skipped anywhere in the file; a line
  of empty cells such as ``,,`` is an error; ``#`` starts no comment;
* a malformed row raises :class:`InputFormatError` naming ``path:line``.

The dense graph built from a file holds n*n floats (twice that for paired
values, p times for covariates); a file whose largest index asks for more
than the machine's physical memory is refused with a ``GraphBuildError``
before anything that size is allocated.

Fit results serialize to JSON with full float precision, so a written and
re-read fit reproduces predictions bit-identically.
"""

from __future__ import annotations

import csv
import json
import re
import warnings
from io import StringIO

import numpy as np

from . import families
from .engine import FitResult, MixtureParams, VariationalPosterior
from .errors import BlockfitError, InputFormatError
from .families import FamilySpec
from .graph import EdgeColumns, EdgeCovariates, ValuedGraph, attach_covariates, build_graph
from .selection import SelectionResult


_HEADER = re.compile(r"((?:[^\S\n]*\n)*)([^\n]*)")  # blank lines, then the header
_BLANK_LINE = re.compile(r"\n[^\S\n]+(?=\n|$)")
_LOADTXT_ROW = re.compile(r" at row (\d+)(; use `usecols`.*)?")


def _read_columns(path, value_columns) -> EdgeColumns:
    """Parse an ``i,j,<values>`` CSV into columns.

    The header is the first non-blank line, read with :mod:`csv`;
    ``value_columns(path, header)`` checks its lower-cased cells and returns
    the number of value columns w.  The body is parsed in one
    :func:`numpy.loadtxt` call into int64 ``i``, ``j`` and (m, w) float
    values.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    blank, head = _HEADER.match(text).groups()
    if not head.strip():
        raise InputFormatError(f"{path}: empty file")
    width = value_columns(path, [h.strip().lower() for h in next(csv.reader([head]))])
    header_line = blank.count("\n") + 1
    # loadtxt skips empty lines but not whitespace-only ones: empty those
    body = _BLANK_LINE.sub("\n", text[len(blank) + len(head):])
    dtype = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64, (width,))])
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(StringIO(body), dtype=dtype, delimiter=",", quotechar='"',
                              comments=None, ndmin=1)
    except ValueError as exc:
        raise _row_error(path, exc, body, header_line) from exc
    return EdgeColumns(rows["i"], rows["j"], rows["v"])


def _row_error(path, exc, body, header_line):
    """InputFormatError naming the file line of the row a loadtxt error names.

    loadtxt numbers only the non-empty lines it parses, from 0 in conversion
    errors and from 1 in column-count errors; ``body`` starts with the rest
    of the header line.
    """
    message = str(exc)
    found = _LOADTXT_ROW.search(message)
    line = "?"
    if found is not None:
        row = int(found.group(1)) - (not message.startswith("could not convert"))
        offsets = [k for k, text in enumerate(body.split("\n")) if text]
        if 0 <= row < len(offsets):
            line = header_line + offsets[row]
    return InputFormatError(f"{path}:{line}: {_LOADTXT_ROW.sub('', message)}")


def _edge_header(path, header):
    if header[:2] != ["i", "j"]:
        raise InputFormatError(f"{path}: header must start with i,j")
    if header[2:] == ["value"]:
        return 1
    if header[2:] == ["v1", "v2"]:
        return 2
    raise InputFormatError(f"{path}: expected columns i,j,value or i,j,v1,v2")


def _covariate_header(path, header):
    if header[:2] != ["i", "j"] or len(header) < 3:
        raise InputFormatError(f"{path}: header must be i,j,y1..yp")
    p = len(header) - 2
    if header[2:] != [f"y{d + 1}" for d in range(p)]:
        raise InputFormatError(f"{path}: covariate columns must be named y1..y{p}")
    return p


def _read_edges(path):
    cols = _read_columns(path, _edge_header)
    if cols.i.size == 0:
        raise InputFormatError(f"{path}: no edges")
    return cols, cols.values.shape[1] == 2


def read_edge_csv(path):
    """Parse an edge-list CSV.  Returns (entries, paired) where entries are
    (i, j, value) triples (value is a couple when paired)."""
    cols, paired = _read_edges(path)
    values = map(tuple, cols.values.tolist()) if paired else cols.values[:, 0].tolist()
    return list(zip(cols.i.tolist(), cols.j.tolist(), values)), paired


def read_covariate_csv(path):
    """Parse a covariate CSV; returns (entries, p)."""
    cols = _read_columns(path, _covariate_header)
    return list(zip(cols.i.tolist(), cols.j.tolist(), cols.values.tolist())), cols.values.shape[1]


def load_graph(edges_path, directed=False, value_kind="count", num_labels=None,
               n=None, fill=None) -> ValuedGraph:
    cols, paired = _read_edges(edges_path)
    if paired:
        value_kind = "paired"
    if n is None:
        n = 1 + int(max(cols.i.max(), cols.j.max()))
    return build_graph(n, directed, cols, value_kind, num_labels=num_labels, fill=fill)


def load_covariates(graph: ValuedGraph, cov_path) -> EdgeCovariates:
    return attach_covariates(graph, _read_columns(cov_path, _covariate_header))


# ---------------------------------------------------------------------------
# Fit JSON


def fit_to_jsonable(fit: FitResult, spec: FamilySpec | None = None,
                    extra: dict | None = None) -> dict:
    spec = spec or fit.spec
    data = {
        "family": spec.kind,
        "num_labels": spec.num_labels,
        "covariate_dim": spec.covariate_dim,
        "Q": fit.params.Q,
        "alpha": fit.params.alpha.tolist(),
        "theta": families.theta_to_jsonable(spec, fit.params.theta),
        "tau": fit.posterior.tau.tolist(),
        "J_trajectory": [float(j) for j in fit.bound_trajectory],
        "entropy": float(fit.entropy),
        "map_assignment": [int(z) for z in fit.map_assignment],
        "converged": bool(fit.converged),
        "iterations": int(fit.iterations),
        "icl": None if fit.icl is None else float(fit.icl),
    }
    if extra:
        data.update(extra)
    return data


def write_fit_json(path, fit: FitResult, spec: FamilySpec | None = None,
                   extra: dict | None = None):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(fit_to_jsonable(fit, spec, extra), fh, indent=1, sort_keys=True)
        fh.write("\n")


def fit_from_jsonable(data: dict):
    """Rebuild (FitResult, FamilySpec) from the JSON payload.

    ``Q``, the size of ``alpha``, the width of ``tau`` and the labels of
    ``map_assignment`` (one per row of ``tau``) must agree.
    """
    try:
        spec = FamilySpec(kind=data["family"], num_labels=data.get("num_labels"),
                          covariate_dim=data.get("covariate_dim"))
        theta = families.theta_from_jsonable(spec, data["theta"])
        params = MixtureParams(alpha=np.asarray(data["alpha"], dtype=float), theta=theta)
        posterior = VariationalPosterior(tau=np.asarray(data["tau"], dtype=float))
        labels = np.asarray(data["map_assignment"], dtype=int)
        Q = params.Q
        if data["Q"] != Q:
            raise ValueError(f"Q is {data['Q']} but alpha has {Q} groups")
        if labels.ndim != 1 or posterior.tau.shape != (labels.size, Q):
            raise ValueError(f"tau has shape {posterior.tau.shape}, expected "
                             f"({labels.size}, {Q}) from map_assignment and alpha")
        if np.any((labels < 0) | (labels >= Q)):
            raise ValueError(f"map_assignment has labels outside 0..{Q - 1}")
        fit = FitResult(
            params=params,
            posterior=posterior,
            bound_trajectory=list(data["J_trajectory"]),
            entropy=float(data["entropy"]),
            map_assignment=labels,
            converged=bool(data["converged"]),
            iterations=int(data.get("iterations", 0)),
            icl=data.get("icl"),
            spec=spec,
        )
    except (KeyError, TypeError, ValueError, BlockfitError) as exc:
        raise InputFormatError(f"malformed fit JSON: {exc}") from exc
    return fit, spec


def read_fit_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputFormatError(f"cannot read fit JSON {path}: {exc}") from exc
    fit, spec = fit_from_jsonable(data)
    return fit, spec, data


# ---------------------------------------------------------------------------
# Tables


def write_selection_table(path, result: SelectionResult, fmt="csv"):
    rows = []
    for rec in result.records:
        rows.append({
            "Q": rec.q,
            "J": "" if rec.fit is None else rec.fit.bound,
            "ICL": rec.icl if fmt == "csv" or np.isfinite(rec.icl) else None,
            "entropy": "" if rec.fit is None else rec.fit.entropy,
            "chosen": int(rec.q == result.chosen_q),
            "error": rec.error or "",
        })
    if fmt == "json":
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"chosen_q": result.chosen_q, "sweep": rows}, fh, indent=1,
                      allow_nan=False)
            fh.write("\n")
        return
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


_PAIR_CHUNK = 1 << 16  # node pairs formatted per write


def _floats(a):
    return np.asarray(a, dtype=float).tolist()


def write_prediction_csv(fh, report, directed):
    """Single CSV stream with a record-type discriminator column.

    Values are written as ``repr(float)``, which never needs quoting.  Edge
    rows cover the pairs i < j (every i != j when directed) in row-major
    order.
    """
    n = report.observed_degrees.size
    fh.write("record,i,j,observed,predicted\n")
    fh.writelines(map("degree,{},,{!r},{!r}\n".format, range(n),
                      _floats(report.observed_degrees), _floats(report.predicted_degrees)))
    iu, ju = np.nonzero(~np.eye(n, dtype=bool)) if directed else np.triu_indices(n, 1)
    for s in range(0, iu.size, _PAIR_CHUNK):
        i, j = iu[s:s + _PAIR_CHUNK], ju[s:s + _PAIR_CHUNK]
        fh.writelines(map("edge,{},{},{!r},{!r}\n".format, i.tolist(), j.tolist(),
                          _floats(report.observed_edges[i, j]),
                          _floats(report.predicted_edges[i, j])))
    fh.write(f"r2,degree,,{float(report.r2_degrees)!r},\n")
    fh.write(f"r2,edge,,{float(report.r2_edges)!r},\n")


def write_report_csv(path, report):
    rows = report.csv_rows()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def read_grid_config(path) -> dict:
    """Grid config as JSON, or as key=value lines."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputFormatError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
        if not isinstance(data, dict):
            raise InputFormatError(f"{path}: config must be a JSON object")
        return data
    except json.JSONDecodeError:
        pass
    data = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputFormatError(f"{path}:{ln}: expected key=value")
        key, _, value = line.partition("=")
        try:
            data[key.strip()] = json.loads(value.strip())
        except json.JSONDecodeError:
            data[key.strip()] = value.strip()
    return data
