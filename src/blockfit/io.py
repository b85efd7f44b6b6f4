"""File formats: edge/covariate CSVs, fit JSON, selection tables, reports.

Edge-list CSV: header ``i,j,value`` (or ``i,j,v1,v2`` for paired values);
covariate CSV: header ``i,j,y1..yp``; 0-based node indices, UTF-8.  The
accepted dialect:

* the header is the first non-blank line; its cells are matched without
  regard to case or surrounding spaces, and a quote it leaves open is an
  error;
* every other row has exactly one cell per header column, separated by
  commas; a cell may be wrapped in double quotes, and spaces around a
  number are ignored;
* ``i`` and ``j`` are written as integers (``1.0`` or ``1e3`` is an error),
  values as any float literal; an empty cell is an error;
* empty and whitespace-only lines are skipped anywhere in the file; a line
  of empty cells such as ``,,`` is an error; ``#`` starts no comment;
* a malformed row raises :class:`InputFormatError` naming ``path:line``.

Of a regular file, the lines through the header are read with :mod:`csv`;
numpy then parses the body from the file by name, in chunks in C.  A body
that parse refuses (whitespace-only lines, a malformed row), an undecodable
file, a name that numpy would decompress (``.gz``, ``.bz2``, ``.xz``,
``.lzma``) and any input that is not a regular file (a pipe, a FIFO,
``/dev/stdin``, read only once) go through the whole-text parse instead,
which accepts the same dialect and reports the errors, so the result does
not depend on the path taken.

The dense graph built from a file holds n*n floats (twice that for paired
values, p times for covariates); a file whose largest index asks for more
than the machine's physical memory is refused with a ``GraphBuildError``
before anything that size is allocated.

Fit results serialize to strict JSON with full float precision, so a written
and re-read fit reproduces predictions bit-identically.
"""

from __future__ import annotations

import csv
import json
import os
import re
import warnings
from io import StringIO

import numpy as np

from . import families, predict
from .engine import FitResult, MixtureParams, VariationalPosterior
from .errors import BlockfitError, InputFormatError
from .families import FamilySpec
from .graph import EdgeColumns, EdgeCovariates, ValuedGraph, attach_covariates, build_graph
from .selection import SelectionResult


_HEADER = re.compile(r"((?:[^\S\n]*\n)*)([^\n]*)")  # blank lines, then the header
_BLANK_LINE = re.compile(r"\n[^\S\n]+(?=\n|$)")
_LOADTXT_ROW = re.compile(r" at row (\d+)(; use `usecols`.*)?")
# names numpy's DataSource would decompress
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _read_columns(path, value_columns) -> EdgeColumns:
    """Parse an ``i,j,<values>`` CSV into columns.

    The header is the first non-blank line, read with :mod:`csv`;
    ``value_columns(path, header)`` checks its lower-cased cells and returns
    the number of value columns w.  The body is parsed into int64 ``i``,
    ``j`` and (m, w) float values.  A regular file is read only through its
    header here and its body parsed by :func:`_read_body`; any other input
    (a pipe, a FIFO, ``/dev/stdin``), a name numpy would decompress, and a
    body :func:`_read_body` refuses are read once as a whole text and parsed
    by :func:`_parse_text`, which also reports the error.
    """
    name = _fast_path_name(path)
    text = head = None
    try:
        with open(path, encoding="utf-8") as fh:
            if name is None:
                text = fh.read()
                blank, head = _HEADER.match(text).groups()
                header_line = blank.count("\n") + 1
            else:
                for header_line, head in enumerate(fh, 1):
                    if head.strip():
                        break
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    if head is None or not head.strip():
        raise InputFormatError(f"{path}: empty file")
    header = _header_cells(path, header_line, head.rstrip("\n"))
    width = value_columns(path, [h.strip().lower() for h in header])
    rows = None if name is None else _read_body(name, width, header_line)
    if rows is None:
        rows = _parse_text(path, width, _read_text(path) if text is None else text)
    return EdgeColumns(rows["i"], rows["j"], rows["v"])


def _header_cells(path, line, head):
    """The cells of the header ``head``, line ``line`` of ``path``.

    :mod:`csv` carries a quoted cell still open at the end of a line over to
    the next one, and outside its strict mode closes it silently at the end
    of the input.  Read with an empty line after it, a header that leaves a
    quote open swallows that line and gives one row instead of two: such a
    header is refused.  (Strict mode would also refuse ``"i" ,j,value``,
    whose spaces after a quoted cell the dialect allows.)
    """
    rows = list(csv.reader([head, ""]))
    if len(rows) == 1:
        raise InputFormatError(f"{path}:{line}: unclosed quote in the header")
    return rows[0]


def _fast_path_name(path):
    """The absolute name :func:`_read_body` may hand to numpy, or None.

    Only a regular file is read twice (its header, then its body by name):
    a pipe or FIFO reopened would have lost what the first read took.
    numpy opens names through :class:`numpy.lib.npyio.DataSource`, so the
    name is made absolute (a URL-like one is never fetched), and a name
    ending in a compressed suffix is refused (a plain-text ``edges.csv.gz``
    is read as text).
    """
    if not isinstance(path, (str, os.PathLike)):
        return None
    name = os.fspath(path)
    if not isinstance(name, str) or name.endswith(_COMPRESSED_SUFFIXES):
        return None
    return os.path.abspath(name) if os.path.isfile(name) else None


def _loadtxt(source, width, **kwargs):
    dtype = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64, (width,))])
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(source, dtype=dtype, delimiter=",", quotechar='"', comments=None,
                          ndmin=1, **kwargs)


def _read_body(name, width, header_line):
    """The rows after line ``header_line`` of the file ``name``, parsed by numpy.

    numpy parses a file it opens by name in chunks in C, about twice as
    fast as the lines of a text it is handed.  Returns None when the file
    cannot be parsed this way: whitespace-only lines, a malformed row, an
    unreadable or undecodable file.
    """
    try:
        return _loadtxt(name, width, skiprows=header_line, encoding="utf-8")
    except (OSError, ValueError):
        return None


def _read_text(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc


def _parse_text(path, width, text):
    """Parse the whole text of ``path`` after its header: the reference
    parse and the fallback of :func:`_read_body`.

    Whitespace-only lines are emptied, which loadtxt then skips, and a
    malformed row raises :class:`InputFormatError` naming ``path:line``.
    """
    blank, head = _HEADER.match(text).groups()
    header_line = blank.count("\n") + 1
    # loadtxt skips empty lines but not whitespace-only ones: empty those
    body = _BLANK_LINE.sub("\n", text[len(blank) + len(head):])
    try:
        return _loadtxt(StringIO(body), width)
    except ValueError as exc:
        raise _row_error(path, exc, body, header_line) from exc


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


def read_edge_csv(path):
    """Parse an edge-list CSV.  Returns (columns, paired): the
    :class:`EdgeColumns` of its rows (w = 2 value columns when paired)."""
    cols = _read_columns(path, _edge_header)
    if cols.i.size == 0:
        raise InputFormatError(f"{path}: no edges")
    return cols, cols.values.shape[1] == 2


def read_covariate_csv(path):
    """Parse a covariate CSV.  Returns (columns, p): the
    :class:`EdgeColumns` of its rows, with p covariate columns."""
    cols = _read_columns(path, _covariate_header)
    return cols, cols.values.shape[1]


def load_graph(edges_path, directed=False, value_kind="count", num_labels=None,
               n=None, fill=None) -> ValuedGraph:
    cols, paired = read_edge_csv(edges_path)
    if paired:
        value_kind = "paired"
    if n is None:
        n = 1 + int(max(cols.i.max(), cols.j.max()))
    return build_graph(n, directed, cols, value_kind, num_labels=num_labels, fill=fill)


def load_covariates(graph: ValuedGraph, cov_path) -> EdgeCovariates:
    return attach_covariates(graph, read_covariate_csv(cov_path)[0])


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
        "icl": float(fit.icl) if fit.icl is not None and np.isfinite(fit.icl) else None,
    }
    if extra:
        data.update(extra)
    return data


def write_fit_json(path, fit: FitResult, spec: FamilySpec | None = None,
                   extra: dict | None = None):
    """Write :func:`fit_to_jsonable` as strict JSON (``allow_nan=False``).

    A non-finite ICL is written as null.
    """
    data = fit_to_jsonable(fit, spec, extra)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(data, sort_keys=True, allow_nan=False) + "\n")


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
    """One row per Q of the sweep's range.  ``status`` tells a fitted Q from
    a failed one (its error in ``error``) and from one the sweep stopped
    before (``skipped``: no J, ICL or entropy); the JSON form also carries
    the stop reason."""
    rows = []
    for rec in result.records:
        rows.append({
            "Q": rec.q,
            "status": "failed" if rec.fit is None else "fitted",
            "J": "" if rec.fit is None else rec.fit.bound,
            "ICL": rec.icl if fmt == "csv" or np.isfinite(rec.icl) else None,
            "entropy": "" if rec.fit is None else rec.fit.entropy,
            "chosen": int(rec.q == result.chosen_q),
            "error": rec.error or "",
        })
    for q in result.skipped:
        rows.append({"Q": q, "status": "skipped", "J": "", "ICL": "" if fmt == "csv" else None,
                     "entropy": "", "chosen": 0, "error": ""})
    if fmt == "json":
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"chosen_q": result.chosen_q, "stop_reason": result.stop_reason,
                       "sweep": rows}, fh, indent=1, allow_nan=False)
            fh.write("\n")
        return
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _floats(a):
    return np.asarray(a, dtype=float).tolist()


def write_prediction_csv(fh, report, directed):
    """Single CSV stream with a record-type discriminator column.

    Values are written as ``repr(float)``, which never needs quoting.  Edge
    rows cover the pairs i < j (every i != j when directed) in row-major
    order.  They are written one row block of the report at a time, from
    the graph's rows and the report's predicted rows, so no (n, n) array is
    built.
    """
    n = report.observed_degrees.size
    fh.write("record,i,j,observed,predicted\n")
    fh.writelines(map("degree,{},,{!r},{!r}\n".format, range(n),
                      _floats(report.observed_degrees), _floats(report.predicted_degrees)))
    cols = np.arange(n)
    names = np.array([str(k) for k in range(n)], dtype=object)  # each index formatted once
    for rows in predict._row_blocks(n):
        keep = cols != cols[rows, None] if directed else cols > cols[rows, None]
        r, j = np.nonzero(keep)
        fh.writelines(map("edge,{},{},{!r},{!r}\n".format,
                          names[r + rows.start].tolist(), names[j].tolist(),
                          _floats(report.graph.scalar_rows(rows)[keep]),
                          _floats(report.predicted_rows(rows)[keep])))
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
