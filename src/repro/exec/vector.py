"""Columnar batches: struct-of-arrays chunks with selection vectors.

A :class:`ColumnarBatch` is the unit of data flow of the vectorized
execution path: instead of a ``list`` of row tuples, a batch holds one
value sequence per output column plus an optional **selection vector** — a
sequence of row indices into those columns.  Filters refine the selection
without touching the data; projections that merely reorder columns share
the underlying sequences (zero copy); scans emit the base table's column
lists directly with a ``range`` selection per chunk.

Row tuples are materialized only at protocol boundaries
(:meth:`ColumnarBatch.to_rows`): when a legacy row-protocol operator sits
downstream, or when a :class:`~repro.exec.context.QueryResult`'s rows are
first read.  Both directions preserve exact row-level semantics, so ported
and unported operators compose freely.

NumPy, when importable, accelerates selection and gather for columns that
are ``numpy.ndarray``\\ s; the feature is gated behind
:func:`set_numpy_enabled` and every code path has a pure-Python fallback,
keeping the package free of hard dependencies.  The numpy / pure-Python
split lives in this module's primitives (:func:`take`, :func:`passing`,
:func:`valid_rowids`, :func:`equal_positions`, :func:`distinct_positions`,
:func:`run_slots`, :func:`key_runs`, :func:`joint_codes`,
:func:`group_counts`, ...) and in the kernels of
:mod:`repro.exec.kernels` and :mod:`repro.exec.grouping` built from them:
operators call them and never branch on numpy themselves.
"""

from __future__ import annotations

from array import array as _array
from bisect import bisect_left, bisect_right
from collections import Counter
from functools import partial
from itertools import accumulate, compress, count, product
from math import prod
from typing import Sequence

try:  # pragma: no cover - exercised via the CI numpy leg
    import numpy as _np
except Exception:  # pragma: no cover
    _np = None

#: Whether the accelerated gather paths are active.  Auto-detected from
#: numpy importability; flip with :func:`set_numpy_enabled`.
_numpy_enabled = _np is not None


def numpy_available() -> bool:
    """True when numpy could be imported."""
    return _np is not None


def numpy_enabled() -> bool:
    """True when the numpy-accelerated gather paths are active."""
    return _numpy_enabled and _np is not None


def set_numpy_enabled(enabled: bool | None) -> None:
    """Enable/disable numpy acceleration; ``None`` restores auto-detection."""
    global _numpy_enabled
    _numpy_enabled = (_np is not None) if enabled is None else bool(enabled)


class DictVector:
    """Read-optimized view of a dictionary-encoded column.

    Pairs an int64 ``codes`` ndarray (an atomic snapshot of the column's
    code buffer) with the column's live ``values``/``index`` dictionary,
    shared by reference: the dictionary is append-only and every code in
    the snapshot was published *after* its value (see
    ``repro.relational.column.DictColumn``), so decoding never races a
    concurrent writer.  Sequence reads decode to plain strings — row-path
    consumers work unchanged — while the vectorized kernels reach
    ``codes`` directly and stay in the dense integer domain through
    selections, gathers and replication.  ``ranks`` is the dictionary's
    one-slot sort-rank memo (``DictColumn.ranks``, shared by reference like
    the dictionary itself; see :func:`repro.exec.ordering.ranks`), and
    ``strings`` its one-slot memo of the values as a '<U' array
    (``DictColumn.strings``; see :func:`dictionary_strings`).
    """

    __slots__ = ("codes", "values", "index", "ranks", "strings")

    #: Duck-typed marker shared with ``DictColumn`` (no cross-layer import).
    is_dictionary = True

    def __init__(
        self,
        codes,
        values: list,
        index: dict,
        ranks: list | None = None,
        strings: list | None = None,
    ):
        self.codes = codes
        self.values = values
        self.index = index
        self.ranks = [None] if ranks is None else ranks
        self.strings = [None] if strings is None else strings

    def with_codes(self, codes) -> "DictVector":
        """``codes`` over this vector's dictionary and memos."""
        return DictVector(codes, self.values, self.index, self.ranks, self.strings)

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.with_codes(self.codes[i])
        return self.values[self.codes[i]]

    def __iter__(self):
        values = self.values
        return iter([values[c] for c in self.codes.tolist()])

    def tolist(self) -> list:
        values = self.values
        return [values[c] for c in self.codes.tolist()]


def dict_vector(values) -> "DictVector | None":
    """``values`` as a :class:`DictVector` when it is dictionary-encoded
    (and the numpy paths are active), else ``None`` — the single gate the
    vectorized kernels use for their code-domain fast paths."""
    if _numpy_enabled and type(values) is DictVector:
        return values
    return None


def as_index_array(indices: Sequence[int]):
    """``indices`` as an ndarray suitable for fancy-indexing.

    ``range`` converts via ``np.arange`` — ``np.asarray`` would fall back
    to the per-element sequence protocol, which costs more than the gather
    it feeds.
    """
    if isinstance(indices, _np.ndarray):
        return indices
    if type(indices) is range:
        return _np.arange(indices.start, indices.stop, indices.step, dtype=_np.intp)
    return _np.asarray(indices, dtype=_np.intp)


def gather(values: Sequence, indices: Sequence[int]) -> list:
    """``[values[i] for i in indices]`` with a numpy fast path.

    Always returns a plain Python list (numpy results are converted via
    ``tolist()`` so no numpy scalars leak into row tuples or hash keys).
    """
    if _numpy_enabled and _np is not None:
        if isinstance(values, _np.ndarray):
            return values[as_index_array(indices)].tolist()
        if type(values) is DictVector:
            decode = values.values
            codes = values.codes[as_index_array(indices)]
            return [decode[c] for c in codes.tolist()]
    return [values[i] for i in indices]


def take(values: Sequence, indices: Sequence[int]) -> Sequence:
    """:func:`gather` that stays in the array domain.

    When ``values`` is an ndarray (and numpy is enabled) the result is an
    ndarray, so chained gathers — CSR expansion, pointer follows,
    replication — never round-trip through Python lists.  A ``range`` (an
    unfiltered chunk's selection) gathers into an ndarray too.  Other
    inputs behave exactly like :func:`gather`.  Use :func:`gather` instead at row
    boundaries, where plain Python values are required.
    """
    if _numpy_enabled and _np is not None:
        if isinstance(values, _np.ndarray):
            return values[as_index_array(indices)]
        if type(values) is DictVector:
            # Stay in the code domain: gather the codes, share the
            # dictionary — selections/joins never decode intermediate rows.
            return values.with_codes(values.codes[as_index_array(indices)])
        if type(values) is range:
            # A selection over a contiguous chunk composes in numpy too.
            return as_index_array(values)[as_index_array(indices)]
    return [values[i] for i in indices]


def concat(parts: Sequence[Sequence]) -> Sequence:
    """``parts`` end to end as one column, in the best domain they share.

    ndarrays of one dtype kind concatenate natively and dictionary vectors
    over one dictionary concatenate their codes; any other mix (lists,
    typed buffers, different dictionaries) lands in a plain value list.
    """
    if len(parts) == 1:
        return parts[0]
    if _numpy_enabled and _np is not None:
        first = parts[0]
        if isinstance(first, _np.ndarray):
            kind = first.dtype.kind
            if all(isinstance(p, _np.ndarray) and p.dtype.kind == kind for p in parts):
                return _np.concatenate(parts)
        elif type(first) is DictVector:
            values = first.values
            if all(type(p) is DictVector and p.values is values for p in parts):
                return first.with_codes(_np.concatenate([p.codes for p in parts]))
    out: list = []
    for part in parts:
        out.extend(as_values(part))
    return out


def as_values(values: Sequence) -> Sequence:
    """A column as plain Python values (ndarray -> list, others pass through)."""
    if _np is not None and isinstance(values, _np.ndarray):
        return values.tolist()
    if type(values) is DictVector:
        return values.tolist()
    return values


def owned(values: Sequence) -> Sequence:
    """A copy of a column that shares no buffer with ``values`` (immutable
    tuples and ranges pass through).  A dictionary vector copies its codes
    and keeps sharing its append-only dictionary, whose codes never move."""
    if _np is not None and isinstance(values, _np.ndarray):
        return values.copy()
    if type(values) is DictVector:
        return values.with_codes(owned(values.codes))
    if isinstance(values, (tuple, range)):
        return values
    if isinstance(values, (list, _array)):
        return values[:]
    return list(values)


def is_ndarray(values) -> bool:
    """True when ``values`` is an ndarray and the numpy paths are active."""
    return _numpy_enabled and _np is not None and isinstance(values, _np.ndarray)


class LazyMask:
    """A rowid predicate as a boolean column filled on demand.

    The shape of a pushed-down predicate that has no dense vectorized form
    (OR, NOT, IS NULL, a LIKE with ``_`` or an inner ``%`` over a list
    column, anything over a NULL-bearing column — and every predicate when
    numpy is disabled), and of whether a stripped pattern branch matches
    (:func:`repro.exec.kernels.branch_reduce`).
    ``mask[rowids]`` answers like a dense boolean ndarray would, but calls
    ``check`` once per lookup with the *distinct* rowids not asked about
    before, so one mask shared by all batches of a traversal decides each
    rowid it actually reaches at most once.  ``check`` returns the positions of the rowids it was
    given whose predicate holds (:meth:`per_rowid` wraps a per-rowid
    predicate).  ``length`` is the (pinned) extent of the table the rowids
    address.

    With numpy enabled at construction the lookup is array in, bool
    ndarray out, and ``check`` gets an ndarray; otherwise any int sequence
    in, a list of truth values out, and ``check`` gets a list of ints.
    """

    __slots__ = ("_check", "_known", "_value")

    def __init__(self, check, length: int):
        self._check = check
        if _numpy_enabled and _np is not None:
            self._known = _np.zeros(length, dtype=bool)
            self._value = _np.zeros(length, dtype=bool)
        else:
            self._known = bytearray(length)
            self._value = bytearray(length)

    @classmethod
    def per_rowid(cls, predicate, length: int) -> "LazyMask":
        """A mask whose ``check`` calls ``predicate(rowid)`` per rowid."""

        def check(rowids):
            return list(compress(count(), map(predicate, as_values(rowids))))

        return cls(check, length)

    def __getitem__(self, rowids):
        known, value = self._known, self._value
        if type(known) is bytearray:
            unknown = list(dict.fromkeys(r for r in rowids if not known[r]))
            if unknown:
                for j in self._check(unknown):
                    value[unknown[j]] = 1
                for r in unknown:
                    known[r] = 1
            return [value[r] for r in rowids]
        rowids = as_index_array(rowids)
        unknown = rowids[~known[rowids]]
        if len(unknown):
            unknown = _np.unique(unknown)
            value[unknown[as_index_array(self._check(unknown))]] = True
            known[unknown] = True
        return value[rowids]


def passing(mask, rowids) -> "Sequence[int] | None":
    """Positions of ``rowids`` whose ``mask`` entry is set; None when all are.

    ``mask`` is a dense boolean ndarray or a :class:`LazyMask`.  The result
    feeds :func:`take` / :meth:`ColumnarBatch.take` in either domain, so
    operators filter by a pushed-down predicate without branching on numpy.
    """
    if _numpy_enabled and _np is not None:
        keep = mask[as_index_array(rowids)]
        return None if keep.all() else _np.flatnonzero(keep)
    keep = mask[rowids]
    return None if all(keep) else [j for j, k in enumerate(keep) if k]


def value_store(like: Sequence, length: int) -> Sequence:
    """``length`` per-rowid slots for values of ``like``'s domain, filled
    by :func:`scatter` and read back with :func:`take`: an ndarray of its
    dtype, a dictionary vector over its dictionary, or (any other column)
    a list of NULLs.  Only slots written are meant to be read."""
    if is_ndarray(like):
        return _np.zeros(length, dtype=like.dtype)
    if dict_vector(like) is not None:
        return like.with_codes(_np.zeros(length, dtype=like.codes.dtype))
    return [None] * length


def scatter(store: Sequence, rowids: Sequence[int], values: Sequence) -> None:
    """``store[rowids[j]] = values[j]`` for every ``j``; ``values`` is in
    ``store``'s domain (see :func:`value_store`)."""
    if type(store) is DictVector:
        store.codes[as_index_array(rowids)] = values.codes
    elif is_ndarray(store):
        store[as_index_array(rowids)] = values
    else:
        for rowid, value in zip(rowids, values):
            store[rowid] = value


def valid_rowids(rowids) -> "Sequence[int] | None":
    """Positions of ``rowids`` that address a row (neither NULL nor
    negative); None when all do.  Integer ndarrays cannot hold NULL, so
    there only the sign is checked."""
    if is_ndarray(rowids):
        valid = rowids >= 0
        return None if valid.all() else _np.flatnonzero(valid)
    keep = [j for j, r in enumerate(rowids) if r is not None and r >= 0]
    return None if len(keep) == len(rowids) else keep


def equal_positions(left, right) -> Sequence[int]:
    """Positions where two row-aligned columns hold equal values."""
    if is_ndarray(left) or is_ndarray(right):
        return _np.flatnonzero(_np.asarray(left) == _np.asarray(right))
    return [t for t, (a, b) in enumerate(zip(left, right)) if a == b]


def distinct_positions(pairs, n: int) -> "Sequence[int] | None":
    """Positions of the ``n`` rows where every ``(left, right)`` pair of
    row-aligned int columns differs; None when all rows do."""
    if pairs and all(is_ndarray(a) and is_ndarray(b) for a, b in pairs):
        keep = None
        for a, b in pairs:
            unequal = a != b
            keep = unequal if keep is None else keep & unequal
        return None if keep.all() else _np.flatnonzero(keep)
    keep = [j for j in range(n) if all(a[j] != b[j] for a, b in pairs)]
    return None if len(keep) == n else keep


def nonempty_slices(offsets, vertices) -> Sequence[int]:
    """Positions of ``vertices`` whose CSR slice in ``offsets`` holds at
    least one edge."""
    if is_ndarray(offsets):
        v = as_index_array(vertices)
        return _np.flatnonzero(offsets[v + 1] > offsets[v])
    return [j for j, v in enumerate(vertices) if offsets[v + 1] != offsets[v]]


def sorted_runs(column) -> tuple[Sequence[int], Sequence[int]]:
    """The runs of equal values in a sorted column: ``(starts, counts)``,
    each run's first position and length."""
    if is_ndarray(column):
        heads = _np.ones(len(column), dtype=bool)
        _np.not_equal(column[1:], column[:-1], out=heads[1:])
        starts = _np.flatnonzero(heads)
        return starts, _np.diff(starts, append=len(column))
    starts = [t for t in range(len(column)) if not t or column[t] != column[t - 1]]
    return starts, [b - a for a, b in zip(starts, starts[1:] + [len(column)])]


def run_slots(keys, space: int):
    """Direct-address tables over the runs of the sorted int ``keys``, all
    below ``space``: ``(slots, run_lengths)``.  ``slots[k]`` is the first
    position of key ``k``'s run, -1 for every ``k`` in ``[0, space)`` not
    in ``keys``; ``run_lengths[p]`` is the length of the run holding
    position ``p``, None when no two keys are equal.  int64 ndarrays for
    ndarray ``keys``, ``array('q')`` buffers otherwise."""
    starts, counts = sorted_runs(keys)
    distinct = len(starts) == len(keys)
    if is_ndarray(keys):
        slots = _np.full(space, -1, dtype=_np.int64)
        slots[keys[starts]] = starts
        return slots, None if distinct else _np.repeat(counts, counts)
    slots = _array("q", [-1]) * space
    run_lengths = _array("q")
    for start, count in zip(starts, counts):
        slots[keys[start]] = start
        run_lengths.extend([count] * count)
    return slots, None if distinct else run_lengths


def run_positions(starts, counts):
    """Every position of the runs ``[starts[j], starts[j] + counts[j])``,
    run by run: ``(owners, positions)`` with ``owners[t]`` the run ``j``
    position ``t`` belongs to."""
    if is_ndarray(counts):
        owners = _np.repeat(_np.arange(len(counts), dtype=_np.intp), counts)
        firsts = _np.cumsum(counts) - counts
        positions = _np.arange(len(owners), dtype=_np.intp) + _np.repeat(starts - firsts, counts)
        return owners, positions
    owners: list[int] = []
    positions: list[int] = []
    for j, (start, count) in enumerate(zip(starts, counts)):
        owners.extend([j] * count)
        positions.extend(range(start, start + count))
    return owners, positions


def csr_positions(vertices, offsets):
    """Whole-batch CSR walk: ``(parents, positions)``, or None when the
    batch reaches no edge.

    ``vertices`` are the bound rowids of one batch (any int sequence).
    Output row ``t`` extends input row ``parents[t]`` with the CSR
    position ``positions[t]`` (an index into the adjacency's edge array,
    or into any array in its order, such as a key view's), in (input row,
    adjacency) order.  With ndarray ``offsets`` this is two gathers and a
    run expansion and returns ndarrays; otherwise a Python walk returns
    lists of plain ints.
    """
    if not is_ndarray(offsets):
        parents: list[int] = []
        positions: list[int] = []
        for j, vertex in enumerate(vertices):
            lo, hi = offsets[vertex], offsets[vertex + 1]
            if lo != hi:
                parents.extend([j] * (hi - lo))
                positions.extend(range(lo, hi))
        return (parents, positions) if parents else None
    v = as_index_array(vertices)
    if not len(v):
        return None
    lo = offsets[v]
    deg = offsets[v + 1] - lo
    if not deg.any():
        return None
    return run_positions(lo, deg)


def degree_sums(offsets, vertices) -> Sequence[int]:
    """Prefix sums of the CSR degrees of ``vertices`` in ``offsets``: entry
    ``j`` counts the edges of ``vertices[:j]``, so there are
    ``len(vertices) + 1``."""
    if is_ndarray(offsets):
        v = as_index_array(vertices)
        sums = _np.zeros(len(v) + 1, dtype=_np.int64)
        _np.cumsum(offsets[v + 1] - offsets[v], out=sums[1:])
        return sums
    return list(accumulate((offsets[v + 1] - offsets[v] for v in vertices), initial=0))


def cut_points(sums: Sequence[Sequence[int]], limit: int) -> list[int]:
    """Slice bounds ``[0, ..., n]`` over ``n`` rows with one prefix-sum
    column of work per alternative in ``sums`` (each ``n + 1`` long,
    ``n > 0``): each slice is the longest run of rows, at least one, on
    which some column's work stays within ``limit`` — the furthest of the
    columns' cuts, one binary search each."""
    n = len(sums[0]) - 1
    if min(column[-1] for column in sums) <= limit:
        return [0, n]
    search = partial(_np.searchsorted, side="right") if is_ndarray(sums[0]) else bisect_right
    bounds = [0]
    while bounds[-1] < n:
        first = bounds[-1]
        # ``search`` finds the first row end past the budget, so the cut
        # sits one before it: at most n, at least ``first`` itself.
        last = max(search(column, column[first] + limit) for column in sums) - 1
        bounds.append(max(first + 1, int(last)))
    return bounds


def radix_keys(vertices, radix: int) -> Sequence[int]:
    """``vertices[j] * radix`` per vertex: the vertex half of the pair keys
    :func:`pair_keys` completes, computed once for every root they pair
    with."""
    if _numpy_enabled and _np is not None:
        return as_index_array(vertices) * radix
    return [v * radix for v in vertices]


def pair_keys(heads, roots) -> Sequence[int]:
    """One int key ``heads[j] + roots[j]`` per row-aligned (vertex, root)
    pair, ``heads`` from :func:`radix_keys` with a radix above every
    root."""
    if is_ndarray(roots):
        return heads + roots
    return [h + r for h, r in zip(heads, roots)]


def code_vector(codes: Sequence[int]) -> Sequence[int]:
    """Group codes in the best gatherable domain (intp ndarray when
    enabled, the sequence itself otherwise)."""
    if _numpy_enabled and _np is not None:
        return as_index_array(codes)
    return codes


def zero_codes(n: int) -> Sequence[int]:
    """Group codes putting all ``n`` rows in group 0."""
    if _numpy_enabled and _np is not None:
        return _np.zeros(n, dtype=_np.intp)
    return [0] * n


def group_counts(codes, num_groups: int) -> Sequence[int]:
    """Rows per group: entry ``g`` counts the ``codes`` equal to ``g``
    (every code is below ``num_groups``)."""
    if is_ndarray(codes):
        return _np.bincount(codes, minlength=num_groups)
    counts = [0] * num_groups
    for code, rows in Counter(codes).items():
        counts[code] = rows
    return counts


#: Widest key space the mixed-radix fold combines: it must stay in exact
#: int64.  Wider spaces (≥7 near-full-cardinality keys, not a shape any
#: tracked workload produces) take the tuple-dict combine.
_MAX_RADIX = 1 << 62


def joint_codes(columns, radixes: Sequence[int]):
    """One dense group code per row of the row-aligned code ``columns``
    (column ``i``'s codes below ``radixes[i]``): ``(codes, parts)`` with
    ``parts[i][g]`` group ``g``'s code in column ``i``.

    numpy folds the columns by mixed radix into one int64 column and
    factorizes it (groups in radix order); otherwise, and for key spaces
    past :data:`_MAX_RADIX`, a dict numbers the zipped per-row code tuples
    (groups in first-appearance order).
    """
    if _numpy_enabled and _np is not None and prod(radixes) <= _MAX_RADIX:
        combined = None
        for codes, radix in zip(columns, radixes):
            codes = _np.asarray(codes, dtype=_np.int64)
            combined = codes if combined is None else combined * radix + codes
        uniq, codes = _np.unique(combined, return_inverse=True)
        parts = []
        for radix in reversed(radixes):
            parts.append((uniq % radix).tolist())
            uniq = uniq // radix
        parts.reverse()
        return codes, parts
    code_of: dict = {}
    setdefault = code_of.setdefault
    codes = [setdefault(key, len(code_of)) for key in zip(*map(as_values, columns))]
    return code_vector(codes), list(zip(*code_of))


def key_runs(keys, probes, distinct: bool, slots=None, run_lengths=None):
    """Look ``probes`` up in the sorted ``keys``: ``(hits, lo, counts)``.
    ``hits`` are the positions of the probes found (None when all are); per
    found probe, its equal keys are ``keys[lo:lo + count]``.  ``counts`` is
    None when ``distinct`` (no two keys are equal).

    With a direct-address table ``slots`` (``slots[key]`` the first
    position of ``key``'s run, -1 when absent; every probe must index it)
    and, for keys that are not distinct, the per-position ``run_lengths``,
    a probe is one gather and its count one more.  Without one, the probes
    are binary-searched.  Both give the same answer, with numpy or without.
    """
    if slots is not None:
        if is_ndarray(slots):
            lo = slots[probes]
            found = lo >= 0
            if found.all():
                hits = None
            else:
                hits = _np.flatnonzero(found)
                lo = lo[hits]
        else:
            lo = [slots[key] for key in probes]
            if min(lo, default=0) >= 0:
                hits = None
            else:
                hits = [j for j, at in enumerate(lo) if at >= 0]
                lo = [at for at in lo if at >= 0]
        return hits, lo, None if distinct else take(run_lengths, lo)
    if is_ndarray(keys):
        lo = _np.searchsorted(keys, probes)
        if distinct:
            found = keys[_np.minimum(lo, len(keys) - 1)] == probes
            counts = None
        else:
            counts = _np.searchsorted(keys, probes, "right") - lo
            found = counts > 0
        if found.all():
            return None, lo, counts
        hits = _np.flatnonzero(found)
        return hits, lo[hits], None if counts is None else counts[hits]
    hits: list[int] = []
    lows: list[int] = []
    counts = []
    for j, key in enumerate(probes):
        lo = bisect_left(keys, key)
        hi = bisect_right(keys, key, lo)
        if hi > lo:
            hits.append(j)
            lows.append(lo)
            counts.append(hi - lo)
    return (None if len(hits) == len(probes) else hits), lows, None if distinct else counts


def product_positions(runs, n: int, size: int):
    """The rows of a product over row-aligned runs, in ``size``-row chunks.

    ``runs`` holds one ``(starts, counts)`` per factor: candidate ``j``'s
    run covers positions ``[starts[j], starts[j] + counts[j])`` (counts
    None: one position each; starts None: the factor's positions are not
    wanted, only its counts).  Candidate ``j`` of ``n`` yields one row per
    combination of its runs' positions, in ``itertools.product`` order,
    candidates in order.  Each chunk is ``(candidates, positions)``: every
    row's candidate and, per wanted factor, every row's position.
    """
    if numpy_enabled():
        yield from _product_vectors(runs, n, size)
        return
    wanted = [i for i, (starts, _) in enumerate(runs) if starts is not None]
    candidates: list[int] = []
    positions: list[list[int]] = [[] for _ in wanted]
    for j in range(n):
        spans = []
        for starts, counts in runs:
            start = 0 if starts is None else starts[j]
            spans.append(range(start, start + (1 if counts is None else counts[j])))
        combos = list(product(*spans))
        candidates.extend([j] * len(combos))
        for column, i in zip(positions, wanted):
            column.extend([combo[i] for combo in combos])
    for lo in range(0, len(candidates), size):
        hi = lo + size
        yield candidates[lo:hi], [column[lo:hi] for column in positions]


def _product_vectors(runs, n, size):
    """:func:`product_positions` as numpy array passes, one chunk at a
    time: row ``t`` of candidate ``k``'s block takes, from factor ``i``,
    position ``starts_i[k] + (t // stride_i) % count_i`` with ``stride_i``
    the product of the later factors' counts."""
    multiplicity = None
    for _, counts in runs:
        if counts is not None:
            multiplicity = counts if multiplicity is None else multiplicity * counts
    if multiplicity is None:
        total = n
    else:
        ends = _np.cumsum(multiplicity)
        total = int(ends[-1])
    wanted = any(starts is not None for starts, _ in runs)
    strides = {}
    if wanted and multiplicity is not None:
        stride = None
        for i in reversed(range(len(runs))):
            strides[i] = stride
            counts = runs[i][1]
            if counts is not None:
                stride = counts if stride is None else stride * counts
    for lo in range(0, total, size):
        t = _np.arange(lo, min(lo + size, total), dtype=_np.int64)
        k = t if total == n else _np.searchsorted(ends, t, "right")
        positions = []
        if wanted:
            within = None if total == n else t - (ends[k] - multiplicity[k])
            for i, (starts, counts) in enumerate(runs):
                if starts is None:
                    continue
                at = starts[k]
                if counts is not None and within is not None:
                    stride = strides[i]
                    at = at + (within if stride is None else within // stride[k]) % counts[k]
                positions.append(at)
        yield k, positions


#: Widest string (in characters) a column may hold and still vectorize:
#: '<U' arrays cost 4 * max_len bytes per row, so one long outlier value
#: would multiply the cached view's memory by max_len / avg_len.
_MAX_VECTOR_STR_CHARS = 256


def vector_view(values: Sequence) -> Sequence:
    """The read-optimized representation of a column.

    With numpy enabled, typed ``array.array`` buffers convert in one
    ``memcpy`` and cleanly-typed lists (no ``None``, uniform scalar or
    string type) convert by copy; anything that would land in an
    ``object`` dtype — or numpy itself being disabled — returns the input
    unchanged.  The result is always a *copy*: it never locks the source
    buffer against future appends, so callers may cache it and tables stay
    appendable (caches are invalidated on append).

    Conversions that cannot round-trip the exact values are rejected:

    * string columns containing NULs (``'\\x00'`` is truncated by '<U'
      arrays) or values longer than :data:`_MAX_VECTOR_STR_CHARS` (fixed
      width would blow up memory) stay as lists;
    * int values that numpy would coerce to ``float64`` (beyond int64
      range, e.g. after an overflow promotion) stay as lists, so the
      columnar path never sees rounded ints.
    """
    if not _numpy_enabled or _np is None:
        return values
    if isinstance(values, _np.ndarray):
        return values
    if type(values) is DictVector:
        return values
    if getattr(values, "is_dictionary", False):
        # A DictColumn: snapshot the code buffer (tobytes() copies
        # atomically under the GIL — same rationale as the array branch
        # below) and share the append-only dictionary by reference.
        codes = values.codes
        return DictVector(
            _np.frombuffer(codes.tobytes(), dtype=codes.typecode),
            values.values,
            values.index,
            values.ranks,
            values.strings,
        )
    if isinstance(values, _array):
        # Snapshot through tobytes() rather than np.array(values): the
        # latter exports the array's C buffer for the duration of the
        # copy, and a concurrent append (a Table writer on another thread)
        # would then die with "BufferError: cannot resize an array that is
        # exporting buffers".  tobytes() copies atomically under the GIL,
        # so building a view never locks or crashes writers.
        return _np.frombuffer(values.tobytes(), dtype=values.typecode)
    if type(values) is list:
        source = values
        # Convert from an atomic copy (a list slice copies under the GIL,
        # like tobytes() above): np.asarray walks the list twice, and a
        # Table writer extending it in between dies with "Inconsistent
        # object during array creation".
        values = values[:]
        if values and type(values[0]) is str:
            # Pre-scan string columns before allocating the fixed-width
            # array: rejects NULs, oversized values and mixed types in one
            # pass without building a throwaway '<U' copy.
            for v in values:
                if (
                    type(v) is not str
                    or len(v) > _MAX_VECTOR_STR_CHARS
                    or "\x00" in v
                ):
                    return source
        try:
            view = _np.asarray(values)
        except (TypeError, ValueError, OverflowError):
            return source
        # Accept the view only when the dtype provably round-trips the
        # source values: numpy happily coerces mixed lists to a common
        # dtype ([1, 'a'] -> '<U21', [True, 2] -> int64, big ints ->
        # float64), which would silently change what the columnar path
        # sees versus the row path.
        kind = view.dtype.kind
        if kind == "U":
            if type(values[0]) is not str:  # stringified non-str values
                return source
        elif kind in "iu":
            if not all(type(v) is int for v in values):
                return source
        elif kind == "b":
            if not all(type(v) is bool for v in values):
                return source
        elif kind == "f":
            if not all(type(v) is float for v in values):
                return source
        else:  # object, datetime, complex, ... — no vectorized story
            return source
        return view
    return values


def dictionary_strings(dv: DictVector):
    """``dv``'s dictionary values as one '<U' ndarray, indexed by code and
    memoized per watermark; None when :func:`vector_view` declines them (a
    NUL or an over-long value).

    A predicate on a dictionary column tests this array in one numpy op
    over the distinct values and broadcasts to rows through the codes.  As in :func:`repro.exec.ordering.dictionary_ranks`, the slice
    pins the dictionary at its current length: every code of a published
    snapshot resolves below it, and a concurrent append only makes the
    next call rebuild.
    """
    values = dv.values
    watermark = len(values)
    memo = dv.strings[0]
    if memo is None or memo[0] != watermark:
        view = vector_view(values[:watermark])
        if not (isinstance(view, _np.ndarray) and view.dtype.kind == "U"):
            view = None
        memo = dv.strings[0] = (watermark, view)
    return memo[1]


#: The array form of each string test :func:`string_test` builds.
_STRING_TESTS = {
    "prefix": lambda window, s: _np.char.startswith(window, s),
    "suffix": lambda window, s: _np.char.endswith(window, s),
    "infix": lambda window, s: _np.char.find(window, s) >= 0,
    "exact": lambda window, s: window == s,
    "in": lambda window, strings: _np.isin(window, strings),
}


def string_test(kind: str, operand):
    """A string test as an array body: ``window -> bool ndarray``.

    ``kind`` is a LIKE shape — ``"prefix"``, ``"suffix"``, ``"infix"`` or
    ``"exact"`` against the string ``operand`` — or ``"in"`` against a
    tuple of strings.  The body raises ``TypeError`` on a window whose dtype
    is not '<U', so its caller runs its row body instead.  None without
    numpy, or when an operand holds a NUL: '<U' arrays drop trailing NULs,
    so no array test of such an operand is exact.
    """
    operands = operand if kind == "in" else (operand,)
    if _np is None or any("\x00" in s for s in operands):
        return None
    if kind == "in":
        operand = _np.array(operand, dtype=str)
    test = _STRING_TESTS[kind]

    def body(window):
        if window.dtype.kind != "U":
            raise TypeError(f"{kind} tests '<U' windows, not {window.dtype}")
        return test(window, operand)

    return body


def index_vector(n: int) -> Sequence[int]:
    """``range(n)`` as the best gatherable domain (ndarray when enabled)."""
    if _numpy_enabled and _np is not None:
        return _np.arange(n, dtype=_np.intp)
    return range(n)


def cached_vector(cache: dict, key, values: Sequence) -> Sequence:
    """Memoized :func:`vector_view` for immutable columns (index arrays)."""
    if not _numpy_enabled or _np is None:
        return values
    view = cache.get(key)
    if view is None:
        view = vector_view(values)
        cache[key] = view
    return view


class ColumnarBatch:
    """One chunk of rows stored column-wise.

    Attributes:
        columns: one indexable sequence per output column.  Sequences may be
            shared with other batches or with base-table storage (zero-copy
            slices); treat them as read-only.
        length: the number of addressable positions in each column (the raw
            row space the selection indexes into).  When ``selection`` is
            None every column must have exactly ``length`` elements.
        selection: optional sequence of row indices (ints in
            ``[0, length)``); when present, the batch's visible rows are
            ``columns[c][i] for i in selection`` and ``length`` only bounds
            the index space.  ``None`` means all ``length`` rows are
            visible (the all-selected fast path).
    """

    __slots__ = ("columns", "length", "selection")

    def __init__(
        self,
        columns: list,
        length: int,
        selection: Sequence[int] | None = None,
    ):
        self.columns = columns
        self.length = length
        self.selection = selection

    # ------------------------------------------------------------------ #
    # construction / conversion boundaries
    # ------------------------------------------------------------------ #

    @classmethod
    def from_rows(cls, rows: Sequence[tuple]) -> "ColumnarBatch":
        """Transpose a list of row tuples into a dense columnar batch."""
        if not rows:
            return cls([], 0, None)
        if not rows[0]:
            return cls([], len(rows), None)
        return cls([list(c) for c in zip(*rows)], len(rows), None)

    def to_rows(self) -> list[tuple]:
        """Materialize the visible rows as a list of tuples."""
        sel = self.selection
        if not self.columns:
            return [()] * (len(sel) if sel is not None else self.length)
        if sel is None:
            return list(zip(*(as_values(c) for c in self.columns)))
        return list(zip(*(gather(c, sel) for c in self.columns)))

    # ------------------------------------------------------------------ #
    # shape
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.selection) if self.selection is not None else self.length

    @property
    def width(self) -> int:
        return len(self.columns)

    # ------------------------------------------------------------------ #
    # column access
    # ------------------------------------------------------------------ #

    def column(self, i: int) -> Sequence:
        """Column ``i``'s visible values (gathered when a selection is set)."""
        if self.selection is None:
            return as_values(self.columns[i])
        return gather(self.columns[i], self.selection)

    def column_vector(self, i: int) -> Sequence:
        """Column ``i``'s visible values in the array domain when possible.

        Unlike :meth:`column`, an ndarray column stays an ndarray (values
        may be numpy scalars); use only inside vectorized kernels, never to
        build row tuples.
        """
        if self.selection is None:
            return self.columns[i]
        return take(self.columns[i], self.selection)

    def gathered_columns(self) -> list:
        """All columns with the selection applied (dense, row-aligned)."""
        return [self.column(i) for i in range(len(self.columns))]

    def compact(self) -> "ColumnarBatch":
        """An equivalent batch with no selection vector (gathers once)."""
        if self.selection is None:
            return self
        return ColumnarBatch(self.gathered_columns(), len(self), None)

    def dense(self) -> "ColumnarBatch":
        """:meth:`compact` that stays in the array domain — what a pipeline
        breaker buffers: ndarray / dictionary columns are taken, never
        decoded, and nothing outside the visible rows stays referenced."""
        sel = self.selection
        if sel is None:
            return self
        return ColumnarBatch([take(c, sel) for c in self.columns], len(sel), None)

    @classmethod
    def concat(cls, batches: "Sequence[ColumnarBatch]") -> "ColumnarBatch":
        """Dense ``batches`` of one width stacked into one dense batch."""
        if len(batches) == 1:
            return batches[0]
        columns = [
            concat([b.columns[i] for b in batches])
            for i in range(len(batches[0].columns))
        ]
        return cls(columns, sum(b.length for b in batches), None)

    # ------------------------------------------------------------------ #
    # row selection
    # ------------------------------------------------------------------ #

    def take(self, positions: Sequence[int]) -> "ColumnarBatch":
        """New batch keeping the visible rows at ``positions`` (in order).

        ``positions`` index *visible* rows; they compose with any existing
        selection.  An empty ``positions`` yields an empty batch.
        """
        sel = self.selection
        if sel is None:
            new_sel: Sequence[int] = positions
        else:
            new_sel = take(sel, positions)
        return ColumnarBatch(self.columns, self.length, new_sel)

    def head(self, k: int) -> "ColumnarBatch":
        """The first ``k`` visible rows (self when ``k >= len(self)``)."""
        n = len(self)
        if k >= n:
            return self
        sel = self.selection
        if sel is None:
            return ColumnarBatch(self.columns, self.length, range(k))
        return ColumnarBatch(self.columns, self.length, sel[:k])


__all__ = [
    "ColumnarBatch",
    "DictVector",
    "dict_vector",
    "gather",
    "take",
    "concat",
    "as_values",
    "owned",
    "is_ndarray",
    "LazyMask",
    "passing",
    "valid_rowids",
    "equal_positions",
    "distinct_positions",
    "nonempty_slices",
    "sorted_runs",
    "run_slots",
    "run_positions",
    "csr_positions",
    "degree_sums",
    "cut_points",
    "radix_keys",
    "pair_keys",
    "code_vector",
    "zero_codes",
    "group_counts",
    "joint_codes",
    "key_runs",
    "product_positions",
    "vector_view",
    "dictionary_strings",
    "string_test",
    "index_vector",
    "cached_vector",
    "numpy_available",
    "numpy_enabled",
    "set_numpy_enabled",
]
