"""Graph ingest: entry lists and CSV files against the dense constructors."""

import csv
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from blockfit import GraphBuildError, InputFormatError, ValuedGraph, attach_covariates, build_graph
from blockfit.graph import EdgeCovariates
from blockfit.io import load_covariates, load_graph, read_covariate_csv, read_edge_csv

NUM_LABELS = 3
FINITE = st.floats(allow_nan=False, allow_infinity=False)
ELEMENTS = {
    "count": st.integers(0, 9).map(float),
    "real": FINITE,
    "label": st.integers(1, NUM_LABELS).map(float),
    "paired": FINITE,
}


def _pairs(n, directed):
    if directed:
        return [(i, j) for i in range(n) for j in range(n) if i != j]
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _mirror(vals, directed, paired):
    """Copy the upper triangle onto the lower one (couples swapped)."""
    if directed:
        return vals
    upper = np.triu(np.ones(vals.shape[:2], dtype=bool), 1)
    if paired:
        return np.where(upper[:, :, None], vals, vals.transpose(1, 0, 2)[:, :, ::-1])
    if vals.ndim == 3:
        return np.where(upper[:, :, None], vals, vals.transpose(1, 0, 2))
    return np.where(upper, vals, vals.T)


def _entries(draw, vals, directed, keep):
    """Shuffled (i, j, vals[i, j]) entries of the kept pairs, with flipped
    orientations and agreeing duplicates."""
    n = vals.shape[0]
    out = []
    for i, j in _pairs(n, directed):
        if not keep[i, j]:
            continue
        for _ in range(draw(st.integers(1, 2))):
            a, b = (j, i) if not directed and draw(st.booleans()) else (i, j)
            v = vals[a, b]
            out.append((a, b, tuple(v.tolist()) if v.ndim else float(v)))
    return draw(st.permutations(out))


def _write_csv(path, header, entries):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for i, j, v in entries:
            w.writerow([i, j] + [repr(float(x)) for x in np.atleast_1d(v)])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_build_and_load_match_from_matrix(data):
    draw = data.draw
    kind = draw(st.sampled_from(sorted(ELEMENTS)))
    paired = kind == "paired"
    directed = not paired and draw(st.booleans())
    n = draw(st.integers(2, 6))
    shape = (n, n, 2) if paired else (n, n)
    vals = draw(hnp.arrays(float, shape, elements=ELEMENTS[kind]))
    keep = draw(hnp.arrays(bool, (n, n)))
    fill = None
    if not keep[~np.eye(n, dtype=bool)].all():
        fill = draw(hnp.arrays(float, shape[2:], elements=ELEMENTS[kind]))
        vals[~keep] = fill
    num_labels = NUM_LABELS if kind == "label" else None
    want = ValuedGraph.from_matrix(_mirror(vals, directed, paired), directed, kind,
                                   num_labels=num_labels)
    entries = _entries(draw, want.values, directed, keep | keep.T if not directed else keep)
    fill_arg = None if fill is None else (tuple(fill.tolist()) if paired else float(fill))

    g = build_graph(n, directed, entries, kind, num_labels=num_labels, fill=fill_arg)
    assert g.values.tobytes() == want.values.tobytes()
    if not entries:
        return  # a CSV without edges is refused
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edges.csv"
        _write_csv(path, ["i", "j", "v1", "v2"] if paired else ["i", "j", "value"], entries)
        loaded = load_graph(path, directed=directed, value_kind=kind, num_labels=num_labels,
                            n=n, fill=fill_arg)
    assert loaded.values.tobytes() == want.values.tobytes()



def test_paired_fill_is_swapped_below_the_diagonal():
    g = build_graph(3, False, [(0, 1, (2.0, 3.0))], "paired", fill=(0.0, 1.0))
    want = np.array([[[0, 0], [2, 3], [0, 1]],
                     [[3, 2], [0, 0], [0, 1]],
                     [[1, 0], [1, 0], [0, 0]]], dtype=float)
    assert g.values.tobytes() == want.tobytes()
    assert g.values.tobytes() == ValuedGraph.from_matrix(want, False, "paired").values.tobytes()

@settings(max_examples=75, deadline=None)
@given(st.data())
def test_covariates_match_from_matrix(data):
    draw = data.draw
    directed = draw(st.booleans())
    n = draw(st.integers(2, 5))
    p = draw(st.integers(1, 3))
    y = _mirror(draw(hnp.arrays(float, (n, n, p), elements=FINITE)), directed, paired=False)
    want = EdgeCovariates.from_matrix(y, directed)
    host = ValuedGraph.from_matrix(np.zeros((n, n)), directed)
    entries = _entries(draw, want.y, directed, np.ones((n, n), dtype=bool))

    assert attach_covariates(host, entries).y.tobytes() == want.y.tobytes()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cov.csv"
        _write_csv(path, ["i", "j"] + [f"y{d + 1}" for d in range(p)], entries)
        assert load_covariates(host, path).y.tobytes() == want.y.tobytes()


MALFORMED = [
    ("wrong column count", read_edge_csv, "i,j,value\n0,1,2\n1,0,3,4\n", 3),
    ("too few columns", read_edge_csv, "i,j,v1,v2\n0,1,2,3\n\n1,0,3\n", 4),
    ("float index", read_edge_csv, "i,j,value\n0,1,2\n\n1.0,0,3\n", 4),
    ("empty value", read_edge_csv, "i,j,value\n0,1,\n", 2),
    ("quoted comma", read_edge_csv, 'i,j,value\n"0",1,"2"\n"1,0",3,4\n', 3),
    ("whitespace rows", read_edge_csv, "i,j,value\n0,1,2\n   \n\t\n1,0,x\n", 5),
    ("blank before header", read_edge_csv, "  \n\ni,j,value\n0,1,2\n1,0,zz\n", 5),
    ("empty cells", read_edge_csv, "i,j,value\n0,1,2\n,,\n", 3),
    ("covariate columns", read_covariate_csv, "i,j,y1,y2\n0,1,1.0,2.0\n1,0,1.0\n", 3),
]


@pytest.mark.parametrize("case, reader, text, line", MALFORMED,
                         ids=[case[0] for case in MALFORMED])
def test_malformed_rows_name_their_line(tmp_path, case, reader, text, line):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(InputFormatError, match=re.escape(f"{path}:{line}:")):
        reader(path)


def test_dialect_quotes_spaces_and_blank_rows(tmp_path):
    path = tmp_path / "ok.csv"
    path.write_text('\n I , J ,Value\n"0", 1 ,"2"\n   \n\n1,0, 2.5e0 \n', encoding="utf-8")
    entries, paired = read_edge_csv(path)
    assert not paired and entries == [(0, 1, 2.0), (1, 0, 2.5)]


def test_dense_size_guard_allocates_nothing(tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text("i,j,value\n0,10000000,1\n", encoding="utf-8")
    tracemalloc.start()
    try:
        with pytest.raises(GraphBuildError, match="n=10000001"):
            load_graph(path, fill=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20


def test_errors_name_the_first_offending_entry():
    with pytest.raises(GraphBuildError, match=r"\(2,1\)"):
        build_graph(3, True, [(0, 1, 1), (2, 1, -1), (1, 2, -1)], "count", fill=0)
    with pytest.raises(GraphBuildError, match=r"pair \(0, 2\)"):
        build_graph(3, False, [(0, 1, 1), (2, 0, 1), (0, 2, 2), (1, 0, 3)], "count")
    with pytest.raises(GraphBuildError, match=r"pair \(1, 2\)"):
        build_graph(3, False, [(0, 1, 1), (2, 0, 1)], "count")
    with pytest.raises(GraphBuildError, match=r"\(1,2\)"):
        ValuedGraph.from_matrix([[0, 1, 2], [1, 0, 9], [2, 9, 0]], False, "label",
                                num_labels=3)
