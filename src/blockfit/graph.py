"""Immutable valued-graph containers with optional per-edge covariates.

Edge values are (n, n) arrays (or (n, n, 2) for paired values) whose
diagonal is structurally zero and never read: every model in this package
sums over i != j only.  Undirected graphs store a symmetric array so that
reading (i, j) and (j, i) always agrees; for the paired kind the two
components swap under transposition.

Every way in, the ``io`` readers included, passes the :class:`ValuedGraph`
constructor, which refuses a bad kind, shape or diagonal, and values outside
their domain or, when undirected, not symmetric (:func:`build_graph` checks
its entries instead, before it stores them).

Count and binary graphs are often mostly zeros.  Below ``CSR_MAX_DENSITY``
a graph also offers its scalar values as a cached CSR array
(:attr:`ValuedGraph.sparse_values`), from which the Poisson and Bernoulli
statistics, the spectral start that ``engine.fit`` takes on such a graph,
ICL and prediction read only the non-zero entries.  The Ward start, asked
for or taken when the spectral start fails, forms its Gram products from
them too, one block of rows at a time, but still allocates about 12 n^2
bytes for the dense Gram matrix and the distances, which ``engine`` checks
against physical memory first.  A count graph that :func:`build_graph`
assembles from entries below that density keeps only this CSR array: its
dense ``values`` are built from it on first read, so such a graph loads,
fits and reports in O(nnz) memory.  Every other graph stores its dense
values, and one made from them builds the CSR array on first use.
"""

from __future__ import annotations

import os
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy import sparse

from .errors import GraphBuildError

VALUE_KINDS = ("count", "real", "label", "paired")

# Largest fraction of non-zero scalar values (over all n^2 entries) at which
# a graph offers its CSR view.  The CSR products of the E-step pay off up to
# about 30 % density, the sparse Gram product of the Ward start only below
# about 3-5 %.  On n = 1000 Poisson fits with Q = 3 (one Xeon core, one
# BLAS thread) the CSR fit, view included, is 2x faster at 1.5 % density.
# At 5 % it is 1.1x slower for a fit of 2 EM iterations, where the Ward
# start dominates, and 3x faster for one of 13; at 6.6 %, 1.4x slower and
# 1.8x faster.  These fits used the Ward start; a graph with the view now
# gets the spectral start by default, so the Gram product's 3-5 % break-even
# applies to a Ward start that is asked for, or taken because the spectral
# start failed (fewer classes than Q clear the spectrum's noise).
CSR_MAX_DENSITY = 0.05


def _freeze(a):
    """A read-only view of ``a`` (made contiguous); ``a`` itself stays
    writeable."""
    a = np.ascontiguousarray(a).view()
    a.flags.writeable = False
    return a


class EdgeColumns(NamedTuple):
    """Edge entries as parallel arrays, the form the CSV readers produce.

    ``i`` and ``j`` hold the int64 node indices of the m entries; ``values``
    is a float array of shape (m, w) with one row per entry: w = 1 for
    scalar values, 2 for paired couples (X_ij, X_ji), p for covariates.
    """

    i: np.ndarray
    j: np.ndarray
    values: np.ndarray


def _raise_first(bad, message):
    """Raise GraphBuildError(message(k)) for the first row k of ``bad``, an
    (m,) or (m, w) mask, that holds a True."""
    if bad.any():
        raise GraphBuildError(message(int(bad.reshape(len(bad), -1).any(axis=1).argmax())))


def _check_values(v, value_kind, num_labels, where, skip=None):
    """Reject the first row of ``v`` (m, w) holding a non-finite value or a
    value outside the domain of ``value_kind``; ``where(k)`` names row k.
    Rows ``skip`` (an index or slice) are exempt from the domain."""
    _raise_first(~np.isfinite(v), lambda k: f"non-finite value at {where(k)}")
    if value_kind == "count":
        bad, domain = (v < 0) | (v != np.trunc(v)), "a nonnegative integer"
    elif value_kind == "label":
        bad = (v < 1) | (v > num_labels) | (v != np.trunc(v))
        domain = f"an integer in 1..{num_labels}"
    else:
        return
    if skip is not None:
        bad[skip] = False
    _raise_first(bad, lambda k: (
        f"{value_kind} value must be {domain} at {where(k)}, got {float(v[k, 0])!r}"))


def _check_kind(n, directed, value_kind, num_labels):
    """Refuse a node count and value kind that no graph can have."""
    if n < 2:
        raise GraphBuildError("graph needs at least 2 nodes")
    if value_kind not in VALUE_KINDS:
        raise GraphBuildError(f"unknown value kind {value_kind!r}")
    if value_kind == "paired" and directed:
        raise GraphBuildError("paired values are defined on undirected graphs only")
    if value_kind == "label" and not num_labels:
        raise GraphBuildError("label kind requires num_labels")


def _physical_memory():
    """Bytes of physical memory, or None where the platform does not report them."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _check_memory(need, what, error=GraphBuildError):
    """Raise ``error`` when ``need`` bytes for ``what`` exceed physical memory."""
    phys = _physical_memory()
    if phys is not None and need > phys:
        raise error(f"{what} needs {need / 2 ** 30:.1f} GiB, "
                    f"more than the {phys / 2 ** 30:.1f} GiB of physical memory")


def _check_dense_size(n, width):
    """Refuse an (n, n, width) float64 array larger than physical memory."""
    _check_memory(n * n * width * 8, f"a dense {n}x{n}x{width} array for n={n}")


class _Values:
    """The ``values`` field of :class:`ValuedGraph`.

    The dense array lives in the instance's ``_values``.  A graph stored as
    its CSR array alone holds None there, and builds (and keeps, read-only)
    the dense array from :attr:`ValuedGraph.sparse_values` on first read.
    """

    def __get__(self, g, owner=None):
        if g is None:
            raise AttributeError("values")  # a field without a default
        vals = vars(g)["_values"]
        if vals is None:
            vals = vars(g)["_values"] = _freeze(g.sparse_values.toarray())
        return vals

    def __set__(self, g, vals):
        vars(g)["_values"] = vals


@dataclass(frozen=True, repr=False)
class ValuedGraph:
    """A complete valued graph on n nodes without self-loops.

    Parameters
    ----------
    n : int
        Node count, at least 2.
    directed : bool
        Whether (i, j) and (j, i) carry independent values.
    value_kind : {"count", "real", "label", "paired"}
        Domain of the edge values.  "paired" holds (X_ij, X_ji) couples on
        undirected pairs and is the storage used by the bivariate-Gaussian
        family.
    values : ndarray
        Shape (n, n), or (n, n, 2) for "paired", with a zero diagonal
        (:meth:`from_matrix` zeroes it).  Off the diagonal every value must
        be finite: counts non-negative integers, labels integers in
        1..num_labels; undirected values symmetric, "paired" ones with the
        swapped couple at (j, i).  The first value that fails raises
        :class:`GraphBuildError` naming its (i,j).  The graph keeps a
        read-only copy; the caller's array stays its own.
    num_labels : int, optional
        Number of possible labels m for the "label" kind.

    A sparse count graph from :func:`build_graph` stores only
    :attr:`sparse_values`; ``values`` and :attr:`scalar_values` are then
    built on first read and kept, while :meth:`value`,
    :meth:`weighted_degrees`, :meth:`row_nonzeros` and :meth:`scalar_rows`
    read the CSR array.
    """

    n: int
    directed: bool
    value_kind: str
    values: np.ndarray = _Values()  # a required field; _Values gives no default
    num_labels: int | None = None
    # values is an array made for this graph (from_matrix), kept without a copy
    _owned: InitVar[bool] = False
    # set only by build_graph, whose _entry_pairs has checked every entry it
    # stored in an array of its own, or in the CSR array ``_csr`` alone
    _checked: InitVar[bool] = False
    _csr: InitVar[sparse.csr_array | None] = None

    def __post_init__(self, _owned, _checked, _csr):
        n = self.n
        _check_kind(n, self.directed, self.value_kind, self.num_labels)
        if _csr is not None:
            self.__dict__["sparse_values"] = _csr
            return
        paired = self.value_kind == "paired"
        want = (n, n, 2) if paired else (n, n)
        given = vars(self)["_values"]
        if _owned or _checked:
            vals = np.ascontiguousarray(given, dtype=float)
        else:
            vals = np.array(given, dtype=float, order="C")
        if vals.shape != want:
            raise GraphBuildError(f"values must have shape {want}, got {vals.shape}")
        if vals[np.arange(n), np.arange(n)].any():
            raise GraphBuildError("values must have a zero diagonal (self-loops excluded)")
        if not _checked:
            def where(k):
                return "({},{})".format(*divmod(k, n))

            # rows 0, n+1, 2(n+1), ... are the diagonal, whose zero is no label
            _check_values(vals.reshape(n * n, -1), self.value_kind, self.num_labels, where,
                          skip=slice(None, None, n + 1))
            if not self.directed:
                mirror = vals[:, :, ::-1].transpose(1, 0, 2) if paired else vals.T
                _raise_first((vals != mirror).reshape(n * n, -1), lambda k: (
                    f"undirected graph requires symmetric values, but {where(k)} differs "
                    "from its mirror"))
        object.__setattr__(self, "values", _freeze(vals))

    def __repr__(self):
        held = "CSR" if self._csr_only else "dense"
        return (f"ValuedGraph(n={self.n}, directed={self.directed}, "
                f"value_kind={self.value_kind!r}, num_labels={self.num_labels}, {held})")

    @classmethod
    def from_matrix(cls, values, directed, value_kind="count", num_labels=None):
        """Build from a copy of a dense value array with its diagonal set to
        zero; the constructor checks the rest."""
        vals = np.array(values, dtype=float)
        n = len(vals) if vals.ndim else 0
        if vals.shape[:2] == (n, n):
            vals[np.arange(n), np.arange(n)] = 0.0
        return cls(n=n, directed=bool(directed), value_kind=value_kind, values=vals,
                   num_labels=num_labels, _owned=True)

    @property
    def _csr_only(self) -> bool:
        """Whether the graph holds no dense values (yet): read the CSR array."""
        return vars(self)["_values"] is None

    def value(self, i, j):
        """Edge value X_ij; a couple (X_ij, X_ji) for the paired kind."""
        if i == j:
            raise GraphBuildError("no value stored on the diagonal (self-loops excluded)")
        if self._csr_only:
            return float(self.sparse_values[i, j])
        v = self.values[i, j]
        return tuple(v) if self.value_kind == "paired" else float(v)

    @property
    def scalar_values(self) -> np.ndarray:
        """The (n, n) matrix of X_ij (first component for the paired kind)."""
        return self.values[:, :, 0] if self.value_kind == "paired" else self.values

    def row_nonzeros(self, rows: slice):
        """The non-zero entries of ``scalar_values[rows]`` for a slice of
        consecutive rows, in row-major order, as ``(r, j, x)``: the row
        within the slice, the column and the value of each.

        Read from the CSR view when the graph has one, so a graph that holds
        only its CSR array builds no dense values; otherwise from the dense
        rows.
        """
        S = self.sparse_values
        if S is None:
            X = self.scalar_values[rows]
            r, j = np.nonzero(X)
            return r, j, X[r, j]
        r0, r1, _ = rows.indices(self.n)
        lo, hi = S.indptr[r0], S.indptr[r1]
        r = np.repeat(np.arange(r1 - r0), np.diff(S.indptr[r0:r1 + 1]))
        return r, S.indices[lo:hi], S.data[lo:hi]

    def scalar_rows(self, rows: slice) -> np.ndarray:
        """``scalar_values[rows]`` for a slice of consecutive rows, without building the
        dense values of a graph that holds only its CSR array (a new array
        scattered from :meth:`row_nonzeros` then, else a read-only view)."""
        if not self._csr_only:
            return self.scalar_values[rows]
        r0, r1, _ = rows.indices(self.n)
        r, j, x = self.row_nonzeros(rows)
        out = np.zeros((r1 - r0, self.n))
        out[r, j] = x
        return out

    @cached_property
    def sparse_values(self) -> sparse.csr_array | None:
        """:attr:`scalar_values` as a CSR array when at most a fraction
        ``CSR_MAX_DENSITY`` of its entries is non-zero, else None.

        Built on first use and kept: the values are immutable.
        :func:`build_graph` sets it from the entries instead.
        """
        X = self.scalar_values
        return sparse.csr_array(X) if _sparse_enough(np.count_nonzero(X), self.n) else None

    def pair_index(self):
        """Ordered index pairs (i, j), i != j for directed, i < j otherwise."""
        n = self.n
        if self.directed:
            return [(i, j) for i in range(n) for j in range(n) if i != j]
        return [(i, j) for i in range(n) for j in range(i + 1, n)]

    def n_pairs(self) -> int:
        return self.n * (self.n - 1) if self.directed else self.n * (self.n - 1) // 2

    def weighted_degrees(self) -> np.ndarray:
        """K_i = sum_{j != i} X_ij (row sums of the scalar values)."""
        if self._csr_only:
            return self.sparse_values.sum(axis=1)
        return self.scalar_values.sum(axis=1)


@dataclass(frozen=True)
class EdgeCovariates:
    """Per-edge covariate vectors y_ij of fixed dimension p.

    Defined on exactly the same index set as the host graph; for undirected
    hosts y_ij == y_ji, which an undirected fit checks through
    ``symmetric``, computed once at construction.  ``y`` is kept as a
    read-only copy; the caller's array stays its own.
    """

    p: int
    y: np.ndarray = field(repr=False)  # (n, n, p), zero diagonal (checked)
    symmetric: bool = field(init=False, repr=False)  # y_ij == y_ji for every pair
    # y is an array made for these covariates, kept without a copy
    _owned: InitVar[bool] = False

    def __post_init__(self, _owned):
        if _owned:
            arr = np.ascontiguousarray(self.y, dtype=float)
        else:
            arr = np.array(self.y, dtype=float, order="C")
        if arr.ndim != 3 or arr.shape[2] != self.p or arr.shape[0] != arr.shape[1]:
            raise GraphBuildError("covariates must have shape (n, n, p)")
        if not np.all(np.isfinite(arr)):
            raise GraphBuildError("non-finite covariate entry")
        diag = arr[np.arange(arr.shape[0]), np.arange(arr.shape[0])]
        _raise_first(diag != 0.0, lambda k: (
            f"covariates must have a zero diagonal: y[{k},{k}] = {diag[k].tolist()}"))
        object.__setattr__(self, "y", _freeze(arr))
        object.__setattr__(self, "symmetric", bool(np.array_equal(arr, arr.transpose(1, 0, 2))))

    @classmethod
    def from_matrix(cls, y, directed):
        arr = np.array(y, dtype=float)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        n = arr.shape[0]
        arr[np.arange(n), np.arange(n), :] = 0.0
        cov = cls(p=arr.shape[2], y=arr, _owned=True)
        if not directed and not cov.symmetric:
            raise GraphBuildError("undirected covariates must be symmetric")
        return cov

    def vector(self, i, j) -> np.ndarray:
        if i == j:
            raise GraphBuildError("no covariate stored on the diagonal")
        return self.y[i, j]


def _columns(entries, width=None) -> EdgeColumns:
    """(i, j, values) arrays from an entry list or :class:`EdgeColumns`.

    Entries are (i, j, value) triples whose values all have the same size;
    ``width``, when given, is the size every value must have.
    """
    if not isinstance(entries, EdgeColumns):
        entries = list(entries)
        if not entries:
            empty = np.empty(0, dtype=np.int64)
            return EdgeColumns(empty, empty, np.empty((0, width or 0)))
        ii, jj, vv = zip(*entries)
        i = np.fromiter(map(int, ii), dtype=np.int64, count=len(ii))
        j = np.fromiter(map(int, jj), dtype=np.int64, count=len(jj))
        try:
            v = np.array(vv, dtype=float)
        except ValueError as exc:
            sizes = np.array([np.size(x) for x in vv])
            _raise_first(sizes != sizes[0], lambda k: (
                f"value size mismatch at ({i[k]},{j[k]}): {sizes[k]} != {sizes[0]}"))
            raise GraphBuildError(f"malformed entry values: {exc}") from exc
        entries = EdgeColumns(i, j, v)
    i, j, v = entries
    v = np.asarray(v, dtype=float)
    if v.ndim == 1:
        v = v[:, None]
    if width is not None and v.shape[1:] != (width,):
        raise GraphBuildError(f"each entry needs {width} value(s), got shape {v.shape[1:]}")
    return EdgeColumns(np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64), v)


def _has_repeats(key):
    """Whether some key occurs twice; one O(m) pass when the keys increase."""
    if np.all(key[1:] > key[:-1]):
        return False
    key = np.sort(key)
    return bool(np.any(key[1:] == key[:-1]))


def _entry_pairs(n, directed, cols, what, value_kind="real", num_labels=None, fill=None):
    """Validate entry columns; returns the distinct pairs they give.

    Rejects self-loops, out-of-range indices, non-finite or out-of-domain
    values, conflicting duplicates and, without ``fill``, missing pairs;
    each error names the first offending entry in input order.  Entries
    are keyed by the flat index ``a*n + b`` of (a, b) = (i, j) when
    directed, (min, max) when undirected; "paired" couples given as (j, i)
    with j > i are swapped to match.  Only when some key repeats are the
    entries sorted, checked for conflicting duplicates and reduced to the
    first entry of each pair; keys in increasing order cost one O(m) check.
    Nothing of size n^2 is allocated, missing pairs included (see
    :func:`_first_missing_pair`), and an (n, n, w) array that would not
    fit in memory is refused first.

    Returns ``(a, b, key, v)``: the indices, flat key and (w,) value of
    each distinct pair, in no particular order.
    """
    i, j, v = cols
    w = v.shape[1]
    _check_dense_size(n, w)

    def where(k):
        return f"({i[k]},{j[k]})"

    _raise_first(i == j, lambda k: f"self-loop {what} {where(k)} not allowed")
    _raise_first((i < 0) | (i >= n) | (j < 0) | (j >= n),
                 lambda k: f"node index out of range in {what} {where(k)}; n={n}")
    _check_values(v, value_kind, num_labels, where)
    if fill is not None:
        _check_values(fill[None, :], value_kind, num_labels, lambda k: "fill")

    if directed:
        a, b = i, j
    else:
        a, b = np.minimum(i, j), np.maximum(i, j)
        if value_kind == "paired":
            v = np.where((i > j)[:, None], v[:, ::-1], v)
    key = a * n + b
    if _has_repeats(key):
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        starts = np.ones(key.size, dtype=bool)
        starts[1:] = sorted_key[1:] != sorted_key[:-1]
        head = order[starts]  # first entry of each pair, in key order
        clash = np.zeros(key.size, dtype=bool)
        clash[order] = np.any(v[order] != v[head[np.cumsum(starts) - 1]], axis=1)
        _raise_first(clash, lambda k: f"conflicting duplicate {what} for pair ({a[k]}, {b[k]})")
        a, b, key, v = a[head], b[head], key[head], v[head]

    n_pairs = n * (n - 1) if directed else n * (n - 1) // 2
    if key.size < n_pairs and fill is None:
        raise GraphBuildError("missing {} for pair ({}, {})".format(
            what, *_first_missing_pair(n, directed, key)))
    return a, b, key, v


def _first_missing_pair(n, directed, key):
    """The first pair (p, q) in row-major order, p < q when undirected, whose
    flat key ``p*n + q`` is not among the distinct keys ``key``.

    Each pair's rank, its position in that order, is computed from its key;
    the sorted ranks of the given pairs run 0, 1, 2, ... up to the first gap.
    This costs O(m log m) time and O(m + n) memory for m keys.
    """
    a, b = np.divmod(np.sort(key), n)
    if directed:
        rank = a * (n - 1) + b - (b > a)
    else:
        rank = a * (2 * n - a - 1) // 2 + b - a - 1
    gap = rank != np.arange(rank.size)
    t = int(gap.argmax()) if gap.any() else rank.size
    if directed:
        p, c = divmod(t, n - 1)
        return p, c + (c >= p)
    rows = np.arange(n)
    starts = rows * (2 * n - rows - 1) // 2  # rank of (p, p + 1)
    p = int(np.searchsorted(starts, t, side="right")) - 1
    return p, t - int(starts[p]) + p + 1


def _scatter(n, directed, pairs, fill=None, swap=False):
    """The dense (n, n, w) array of the pairs :func:`_entry_pairs` returned.

    Values are scattered through the flat keys and, when undirected, their
    mirrors (b, a), which hold the swapped couple when ``swap`` ("paired"),
    so this costs O(m) beyond the allocation.  A complete list without
    ``fill`` writes every off-diagonal entry, so its array is allocated
    uninitialised.  Unspecified pairs hold ``fill``, and below the diagonal
    of a paired graph the swapped fill couple.
    """
    a, b, key, v = pairs
    w = v.shape[1]
    vals = np.empty((n, n, w)) if fill is None else np.full((n, n, w), fill)
    flat = vals.reshape(n * n, w)
    flat[key] = v
    if not directed:
        if swap and fill is not None:
            # also when f0 == f1: (0.0, -0.0) is equal to its swap, not bitwise
            vals[np.tri(n, k=-1, dtype=bool)] = fill[::-1]
        flat[b * n + a] = v[:, ::-1] if swap else v
    vals[np.arange(n), np.arange(n)] = 0.0
    return vals


def _assemble(n, directed, cols, what, value_kind="real", num_labels=None, fill=None):
    """Validate entry columns (:func:`_entry_pairs`) and scatter them into a
    dense (n, n, w) array (:func:`_scatter`).

    Returns ``(vals, a, b, v)``: the array, and the indices and (w,) value
    of each distinct pair, in no particular order.
    """
    pairs = _entry_pairs(n, directed, cols, what, value_kind, num_labels, fill)
    a, b, _, v = pairs
    return _scatter(n, directed, pairs, fill, swap=value_kind == "paired"), a, b, v


def _sparse_enough(nnz, n):
    """Whether an (n, n) matrix with ``nnz`` non-zero entries gets a CSR view."""
    return nnz <= CSR_MAX_DENSITY * (n * n)


def _pairs_csr(n, directed, a, b, v, nnz):
    """The CSR array :attr:`ValuedGraph.sparse_values` would build from the
    dense values of the pairs (sorted indices, no stored zeros, the first
    component of paired couples), built from the m pairs instead; ``nnz``
    is the count of its non-zero entries."""
    if not directed:
        a, b, v = np.concatenate([a, b]), np.concatenate([b, a]), np.concatenate([v, v[:, ::-1]])
    keep = v[:, 0] != 0
    index = np.int32 if nnz <= np.iinfo(np.int32).max else np.int64  # as scipy's, from dense
    # built through COO, whose conversion sorts the indices
    return sparse.csr_array((v[keep, 0], (a[keep].astype(index), b[keep].astype(index))),
                            shape=(n, n))


def build_graph(n, directed, entries, value_kind, num_labels=None, fill=None) -> ValuedGraph:
    """Validate an edge list and assemble a :class:`ValuedGraph`.

    A count graph whose non-zero values (fill included) are at most
    ``CSR_MAX_DENSITY`` of its n^2 entries keeps only its CSR array, built
    from the entries: no n^2 array is allocated.  Any other graph is
    scattered into its dense values, and its CSR view is seeded from the
    entries when it is that sparse.  A non-zero ``fill`` puts a value on
    every unspecified pair: the view is then None when those values alone
    make the graph too dense, and is otherwise left to the dense values,
    from which it is O(m) for a list that complete.

    Parameters
    ----------
    entries : iterable of (i, j, value), or EdgeColumns
        For the "paired" kind each value is a couple (X_ij, X_ji).
    fill : scalar or couple, optional
        Value assigned to unspecified pairs.  Without it the specification
        must be complete: every ordered (directed) or unordered (undirected)
        pair must appear, and absence is an error.  Agreeing duplicates are
        allowed.

    Raises
    ------
    GraphBuildError
        On self-loops, out-of-range indices, conflicting duplicates,
        non-finite or out-of-domain values, missing pairs when no fill
        value was given, or a dense array larger than physical memory.
        The size is checked before anything of size n^2 is allocated, and
        finding the first missing pair costs O(m log m), so an incomplete
        list of any size gets its error instead of a failed allocation.
        The check refuses n^2 * 8 bytes (16 for paired values), even for a
        graph that would keep only its CSR array.
    """
    _check_kind(n, directed, value_kind, num_labels)
    width = 2 if value_kind == "paired" else 1
    if fill is not None:
        fill = np.broadcast_to(np.asarray(fill, dtype=float), (width,))
    pairs = _entry_pairs(n, directed, _columns(entries, width), "entry", value_kind, num_labels,
                         fill)
    a, b, _, v = pairs
    first = [0] if directed else [0, -1]  # the mirror (b, a) holds a couple's second component
    nnz = sum(np.count_nonzero(v[:, c]) for c in first)
    n_pairs = n * (n - 1) if directed else n * (n - 1) // 2
    unset = 0 if fill is None else (n_pairs - a.size) * np.count_nonzero(fill[first])
    sparse_enough = _sparse_enough(nnz + unset, n)
    csr = _pairs_csr(n, directed, a, b, v, nnz) if sparse_enough and not unset else None
    # a CSR array stores no -0.0, so such a count stays dense to keep its bytes
    if (csr is not None and value_kind == "count" and not np.signbit(v).any()
            and (fill is None or not np.signbit(fill).any())):
        return ValuedGraph(n=n, directed=directed, value_kind=value_kind, values=None,
                           _checked=True, _csr=csr)
    vals = _scatter(n, directed, pairs, fill, swap=width == 2)
    g = ValuedGraph(n=n, directed=directed, value_kind=value_kind,
                    values=vals if width == 2 else vals[:, :, 0], num_labels=num_labels,
                    _checked=True)
    if not sparse_enough or csr is not None:
        g.__dict__["sparse_values"] = csr
    return g


def attach_covariates(graph: ValuedGraph, cov_entries) -> EdgeCovariates:
    """Validate covariate vectors against a host graph.

    ``cov_entries`` is an iterable of (i, j, vector), or EdgeColumns.  The
    index set must match the graph exactly (same symmetry convention), all
    vectors must share one dimension p >= 1 and all entries must be finite.
    """
    cols = _columns(cov_entries)
    if cols.i.size == 0:
        raise GraphBuildError("empty covariate specification")
    if cols.values.shape[1] < 1:
        raise GraphBuildError("covariate dimension must be >= 1")
    y = _assemble(graph.n, graph.directed, cols, "covariate")[0]
    return EdgeCovariates(p=y.shape[2], y=y, _owned=True)
