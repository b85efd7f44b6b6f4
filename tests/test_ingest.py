"""Graph ingest: entry lists and CSV files against the dense constructors."""

import bz2
import csv
import gzip
import lzma
import os
import re
import tempfile
import tracemalloc
import urllib.request
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from blockfit import GraphBuildError, InputFormatError, ValuedGraph, attach_covariates, build_graph
from blockfit import graph as graph_module
from blockfit import io as blockfit_io
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
    ("unclosed header quote", read_edge_csv, '\n i,j,"value\n0,1,2\n', 2),
    ("unclosed covariate header quote", read_covariate_csv, 'i,j,y1,"y2\n0,1,1,2\n', 1),
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
    cols, paired = read_edge_csv(path)
    assert not paired and (cols.i.tolist(), cols.j.tolist()) == ([0, 1], [1, 0])
    assert cols.values.tolist() == [[2.0], [2.5]]


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


def _first_missing_by_mask(n, directed, entries):
    """The first missing pair as an n x n mask over the given pairs finds it."""
    missing = np.ones((n, n), dtype=bool)
    for i, j, _ in entries:
        missing[i, j] = False
        if not directed:
            missing[j, i] = False
    np.fill_diagonal(missing, False)
    if not directed:
        missing = np.triu(missing)
    p, q = np.argwhere(missing)[0]
    return f"missing entry for pair ({p}, {q})"


@pytest.mark.parametrize("directed", [False, True])
def test_incomplete_lists_name_the_pair_the_mask_names(directed):
    rng = np.random.default_rng(23)
    for _ in range(400):
        n = int(rng.integers(2, 9))
        pairs = _pairs(n, directed)
        kept = rng.choice(len(pairs), int(rng.integers(0, len(pairs))), replace=False)
        entries = [(*pairs[k], 1.0) for k in kept]
        entries += [entries[k] for k in rng.integers(0, len(entries), 2)] if entries else []
        if not directed:  # either orientation
            entries = [(j, i, v) if rng.random() < 0.5 else (i, j, v) for i, j, v in entries]
        with pytest.raises(GraphBuildError) as info:
            build_graph(n, directed, entries, "count")
        assert str(info.value) == _first_missing_by_mask(n, directed, entries)


@pytest.mark.parametrize("directed", [False, True])
def test_a_missing_pair_is_found_without_an_n_squared_mask(directed):
    n = 5000
    entries = [(0, 1, 2), (3, 1, 1), (2, 4, 5), (n - 1, n - 2, 1)]
    tracemalloc.start()
    try:
        with pytest.raises(GraphBuildError, match=re.escape("missing entry for pair (0, 2)")):
            build_graph(n, directed, entries, "count")
        with pytest.raises(GraphBuildError, match=re.escape("missing entry for pair (0, 1)")):
            build_graph(n, directed, entries[1:], "count")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"
    # every pair but the last, in each orientation's order
    n = 300
    last = (n - 1, n - 2) if directed else (n - 2, n - 1)
    i, j = np.nonzero(~np.eye(n, dtype=bool)) if directed else np.triu_indices(n, 1)
    keep = (i != last[0]) | (j != last[1])
    cols = graph_module.EdgeColumns(i[keep], j[keep], np.ones((int(keep.sum()), 1)))
    with pytest.raises(GraphBuildError, match=re.escape(f"missing entry for pair {last}")):
        build_graph(n, directed, cols, "count")


VALID = [
    ("blank lines before the header", "edge", "\n  \n\t\ni,j,value\n0,1,2\n1,2,3\n"),
    ("empty body lines", "edge", "i,j,value\n\n0,1,2\n\n\n1,2,3\n\n"),
    ("CRLF", "edge", "\r\n \r\ni,j,value\r\n0,1,2\r\n\r\n1,2,3\r\n"),
    ("quoted cells", "edge", '"i","j","value"\n"0",1,"2.5"\n1,"2",3\n'),
    ("spaces after quoted header cells", "edge", '"i" ,"j"  ,value\n0,1,2\n'),
    ("spaces around numbers", "edge", "i,j,value\n 0 ,1,  2e0 \n\t1,\t2 ,3\n"),
    ("no final newline", "edge", "i,j,value\n0,1,2\n1,2,3"),
    ("header only", "edge", "i,j,value\n"),
    ("paired", "edge", " I , J , V1 , V2 \r\n0,1,2,-0.0\n\n2,1, 3 ,4"),
    ("p = 2 covariates", "cov", '\n\ni,j,y1,y2\r\n0,1,0.5,"-1"\r\n\r\n 1,2,1e-3,2\r\n2,0,-0.0,7'),
]


@pytest.mark.parametrize("case, kind, text", VALID, ids=[case[0] for case in VALID])
def test_fast_and_text_parses_agree(tmp_path, case, kind, text):
    """The body read by numpy from the file equals the whole-text parse."""
    path = tmp_path / "ok.csv"
    path.write_bytes(text.encode("utf-8"))
    header = blockfit_io._edge_header if kind == "edge" else blockfit_io._covariate_header
    cols = blockfit_io._read_columns(path, header)
    width = cols.values.shape[1]
    want = blockfit_io._parse_text(path, width, blockfit_io._read_text(path))
    lines = text.replace("\r\n", "\n").split("\n")
    header_line = next(k for k, line in enumerate(lines, 1) if line.strip())
    fast = blockfit_io._read_body(blockfit_io._fast_path_name(path), width, header_line)
    assert fast is not None
    assert fast.dtype == want.dtype and fast.tobytes() == want.tobytes()
    assert cols.values.tobytes() == want["v"].tobytes()
    assert cols.i.tobytes() == want["i"].tobytes() and cols.j.tobytes() == want["j"].tobytes()


def test_clean_files_never_reach_the_text_parse(tmp_path, monkeypatch):
    def refuse(path, width, text):
        raise AssertionError(f"{path} went through the whole-text parse")

    monkeypatch.setattr(blockfit_io, "_parse_text", refuse)
    edges, cov = tmp_path / "edges.csv", tmp_path / "cov.csv"
    edges.write_text("\ni,j,value\n0,1,2\n\n0,2,0\r\n1,2,5", encoding="utf-8")
    cov.write_text("i,j,y1,y2\n0,1,1,2\n0,2,3,4\n1,2,5,6\n", encoding="utf-8")
    g = load_graph(edges)
    assert g.values.tolist() == [[0, 2, 0], [2, 0, 5], [0, 5, 0]]
    assert load_covariates(g, cov).y[2, 1].tolist() == [5.0, 6.0]


def test_compressed_names_are_read_as_text(tmp_path):
    """numpy decompresses these names when it opens them; the readers
    treat every file as plain text."""
    text = "i,j,value\n0,1,2\n1,2,3\n0,2,0\n"
    plain = tmp_path / "edges.csv"
    plain.write_text(text, encoding="utf-8")
    want = load_graph(plain).values
    for suffix, compress in ((".gz", gzip.compress), (".bz2", bz2.compress),
                             (".xz", lzma.compress), (".lzma", lzma.compress)):
        path = tmp_path / f"edges.csv{suffix}"
        path.write_text(text, encoding="utf-8")
        assert load_graph(path).values.tobytes() == want.tobytes()
        path.write_bytes(compress(text.encode("utf-8")))
        assert blockfit_io._fast_path_name(path) is None


def test_url_like_relative_names_are_local_files(tmp_path, monkeypatch):
    def no_network(*args, **kwargs):
        raise AssertionError("tried to fetch a URL")

    monkeypatch.setattr(urllib.request, "urlopen", no_network)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "http:" / "localhost").mkdir(parents=True)
    (tmp_path / "http:" / "localhost" / "edges.csv").write_text("i,j,value\n0,1,2\n",
                                                                encoding="utf-8")
    name = blockfit_io._fast_path_name("http://localhost/edges.csv")
    assert name == str(tmp_path / "http:" / "localhost" / "edges.csv")
    assert load_graph("http://localhost/edges.csv").value(1, 0) == 2.0


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
def test_pipes_are_read_once(tmp_path):
    """A pipe (a FIFO, ``/dev/stdin``, a shell ``<(...)``) cannot be reopened
    for its body after its header was read: its text must load as it does
    from a regular file, past the first read-ahead chunk too."""
    rows = "".join(f"{i},{j},{(i * j) % 3}\n" for i in range(80) for j in range(i + 1, 80))
    cases = [(load_graph, "\n i,j,value\n" + rows),
             (read_edge_csv, "i,j,value\r\n" + rows.replace("\n", "\r\n", 5)),
             (read_edge_csv, "i,j,value\n" + rows + "  \n"),
             (read_edge_csv, "i,j,value\n" + rows + "3,4,x\n" + rows[:99]),
             (read_edge_csv, '\ni,j,"value\n' + rows)]
    for load, text in cases:
        assert 8192 < len(text) < 32768  # past numpy's and io's chunks, within a pipe buffer
        plain = tmp_path / "edges.csv"
        plain.write_text(text, encoding="utf-8")
        try:
            want = load(plain)
        except InputFormatError as exc:
            want = str(exc).replace(str(plain), "<input>")
        r, w = os.pipe()
        try:
            os.write(w, text.encode("utf-8"))
            os.close(w)
            name = f"/dev/fd/{r}"
            try:
                got = load(name)
            except InputFormatError as exc:
                got = str(exc).replace(name, "<input>")
        finally:
            os.close(r)
        if isinstance(want, ValuedGraph):
            assert got.values.tobytes() == want.values.tobytes()
        elif isinstance(want, str):
            assert got == want
        else:
            (got_cols, got_paired), (want_cols, want_paired) = got, want
            assert got_paired == want_paired
            for a, b in zip(got_cols, want_cols):
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assemble_reference(n, directed, paired, entries, fill):
    """Plain-Python assembly: (values, None), or (None, the first error)."""
    seen = {}
    for i, j, val in entries:
        a, b = (i, j) if directed or i < j else (j, i)
        if paired and i > j:
            val = val[::-1]
        if seen.setdefault((a, b), val) != val:
            return None, f"conflicting duplicate entry for pair ({a}, {b})"
    out = [[[0.0] * (2 if paired else 1) for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n) if directed else range(a + 1, n):
            if a == b:
                continue
            val = seen.get((a, b), fill)
            if val is None:
                return None, f"missing entry for pair ({a}, {b})"
            out[a][b] = list(val)
            if not directed:
                out[b][a] = list(val[::-1] if paired else val)
    return np.array(out), None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_assemble_matches_a_dict_reference(data):
    draw = data.draw
    paired = draw(st.booleans())
    directed = not paired and draw(st.booleans())
    n = draw(st.integers(2, 5))
    node = st.integers(0, n - 1)
    value = st.tuples(*[st.sampled_from([0.0, -0.0, 1.0, 2.5])] * (2 if paired else 1))
    pairs = _pairs(n, directed)
    keep = draw(st.just([True] * len(pairs))
                | st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    entries = [(i, j, draw(value)) for (i, j), kept in zip(pairs, keep) if kept]
    entries += draw(st.lists(st.tuples(node, node, value).filter(lambda e: e[0] != e[1]),
                             max_size=2))
    for i, j, val in draw(st.lists(st.sampled_from(entries), max_size=n)) if entries else []:
        entries.append((i, j, val))  # an agreeing duplicate
    if not directed:  # each entry in either orientation
        entries = [(j, i, val[::-1] if paired else val) if draw(st.booleans()) else (i, j, val)
                   for i, j, val in entries]
    entries = draw(st.permutations(entries))
    fill = draw(st.none() | value)
    want, error = _assemble_reference(n, directed, paired, entries, fill)

    cols = graph_module._columns(entries, 2 if paired else 1)
    call = lambda: graph_module._assemble(  # noqa: E731
        n, directed, cols, "entry", "paired" if paired else "real",
        fill=None if fill is None else np.array(fill))
    if error is not None:
        with pytest.raises(GraphBuildError) as info:
            call()
        assert str(info.value) == error
        return
    assert call()[0].tobytes() == want.tobytes()
