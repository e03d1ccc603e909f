"""Vectorized grouping: NaN-canonical keys, factorize + segment reductions.

This module is the grouping engine behind ``AggregateOp`` and ``DistinctOp``
(and the NaN-canonical key helpers the graph side's ``AllDistinct`` shares).
``GROUP BY`` runs one three-step pipeline per batch:

1. **Factorize** each key column to dense group codes.  ndarray columns go
   through one C-level ``np.unique(return_inverse=True)``; every other
   column (strings with NULLs, computed expressions, any column with numpy
   off) takes a loss-free dict walk that produces the same groups.
2. **Combine** multi-key codes into a single code column
   (:func:`repro.exec.vector.joint_codes`): numpy folds them by mixed-radix
   arithmetic and re-factorizes the result, and group keys decode back out
   of the radix; without numpy, or past exact int64, a dict numbers the
   zipped per-row code tuples.
3. **Segment-reduce** the aggregate arguments: COUNT from the group sizes
   (:func:`repro.exec.vector.group_counts`), SUM/AVG/MIN/MAX of ndarrays
   via one stable argsort of the codes plus ``ufunc.reduceat`` over the
   sorted values; string MIN/MAX compare rows by order and decode only
   each group's winner.  List argument columns (NULL-bearing, or numpy
   off) reduce through an equivalent skip-NULL loop.

Batches then merge into the streaming state by *group*, not by row, so the
Python-dict work scales with the number of distinct keys per batch.  One
dictionary key column, or one ndarray key column of high cardinality,
keeps its whole state in arrays instead (:class:`_SingleKeyArrayGroups`):
a dictionary key groups by its code, through a direct-address map, and
the grouped output stays typed.  ``DISTINCT`` keeps one of two
states (:class:`StreamingDistinct`): a sorted typed array for one typed
column, the canonical seen-set walked per row for everything else.

The steps are the same with numpy on or off: the mode only decides what
the :mod:`repro.exec.vector` primitives compute with, and the typed paths
select on the data (ndarray and dictionary columns exist only while numpy
is on).

**Key semantics** (shared by every engine/backend combination):

* NULL (``None``) is a regular grouping value: all NULL keys form one
  group, as SQL's ``GROUP BY`` / ``DISTINCT`` treatment of NULLs requires.
* Float ``NaN`` keys are **canonicalized** to a single module-level NaN
  (:data:`NAN`) before they are hashed or compared.  ``NaN != NaN`` would
  otherwise put every NaN row in its own group (dict identity) while
  ``np.unique`` collapses them — the semantics bug this module fixes;
  Postgres and DuckDB both group NaNs together.
* Aggregates skip NULLs; an aggregate over no non-NULL input is NULL
  (COUNT: 0).  For MIN/MAX over floats, NaN orders **above** every other
  value (the Postgres rule): ``MIN`` only returns NaN when all inputs are
  NaN, ``MAX`` returns NaN when any input is.  This is what the segment
  reductions (``np.fmin`` / ``np.maximum``) compute natively, and the
  row-path accumulators mirror it so the engines agree by construction.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from repro.errors import PlanError
from repro.exec import ordering, vector
from repro.exec.vector import is_ndarray

#: The canonical NaN key.  Python dicts and sets shortcut equality with an
#: identity check, so routing every NaN through this one object makes NaN
#: keys hash- and lookup-stable even though ``NaN != NaN``.
NAN = float("nan")

#: Sentinel for "no non-NULL value seen yet" in MIN/MAX cells.
MISSING = object()


def canonical(value: Any) -> Any:
    """``value`` with NaN replaced by the canonical :data:`NAN` object.

    Only NaN-like values are not self-equal, so the test is one C-level
    comparison for every ordinary key (ints, strings, None, dates).
    """
    if value != value:
        return NAN
    return value


def canonical_row(row: tuple) -> tuple:
    """``row`` with every NaN element canonicalized (same object when clean)."""
    for v in row:
        if v != v:
            return tuple(canonical(v) for v in row)
    return row


def canonical_column(values: Sequence) -> Sequence:
    """A column as plain Python values with every NaN canonicalized.

    Row-boundary helper: the result is safe to zip into key tuples that
    hash/compare without per-row canonicalization.  Clean inputs come back
    untouched (the input object for lists, ``tolist`` for ndarrays and
    dictionary vectors); dirty float ndarrays pay one ``tolist`` plus
    O(#NaN) patches.
    """
    if is_ndarray(values):
        if values.dtype.kind != "f":
            return vector.as_values(values)
        np = vector._np
        mask = np.isnan(values)
        vals = values.tolist()
        if mask.any():
            for i in np.flatnonzero(mask).tolist():
                vals[i] = NAN
        return vals
    if vector.dict_vector(values) is not None:
        return values.tolist()  # dictionary strings hold no NaN
    for v in values:
        if v != v:
            return [NAN if v != v else v for v in values]
    return values


# --------------------------------------------------------------------- #
# factorization
# --------------------------------------------------------------------- #


def factorize(values: Sequence, n: int) -> tuple[Sequence[int], list]:
    """Dense group codes for one key column: ``(codes, uniques)``.

    ``codes[j]`` is the group code of row ``j`` (``0 <= code < len(uniques)``)
    and ``uniques[code]`` is the group's key as a plain Python value (NaN
    canonicalized).  ndarray columns factorize via one ``np.unique``; every
    other sequence takes the loss-free dict walk (which is also the NULL /
    mixed-type reference semantics).  Code order follows np.unique's sorted
    order on the array path and first-appearance order on the dict path —
    callers must not rely on either.
    """
    dv = vector.dict_vector(values)
    if dv is not None:
        # Dictionary columns arrive pre-factorized: their codes are already
        # dense group codes over the *column's* dictionary, so one unique
        # over ints compacts them to batch-local codes and the uniques
        # decode through the dictionary (strings hold no NaN/NULL).
        np = vector._np
        uniq_codes, codes = np.unique(dv.codes, return_inverse=True)
        decode = dv.values
        return codes, [decode[c] for c in uniq_codes.tolist()]
    if is_ndarray(values) and values.dtype.kind in "biufU":
        np = vector._np
        uniques_arr, codes = np.unique(values, return_inverse=True)
        first_nan = _nan_tail(uniques_arr)
        if first_nan >= 0:
            if first_nan < len(uniques_arr) - 1:
                codes = np.minimum(codes, first_nan)
            return codes, uniques_arr[:first_nan].tolist() + [NAN]
        return codes, uniques_arr.tolist()
    code_of: dict = {}
    codes_l: list[int] = []
    uniques_list: list = []
    append = codes_l.append
    for v in values:
        if v != v:
            v = NAN
        code = code_of.get(v)
        if code is None:
            code = len(uniques_list)
            code_of[v] = code
            uniques_list.append(v)
        append(code)
    return codes_l, uniques_list


def _nan_tail(uniques) -> int:
    """Index of the first NaN in an ``np.unique`` output array, or -1.

    NaNs sort to the end of np.unique's output.  Newer numpy already
    collapses them to a single entry; older releases keep one per
    occurrence — callers fold everything from this index on into one
    canonical NaN group, version-independently.
    """
    if uniques.dtype.kind == "f" and len(uniques) and uniques[-1] != uniques[-1]:
        return int(vector._np.isnan(uniques).argmax())
    return -1


def _collapse_nan_counts(uniq, counts):
    """Apply the NaN-collapse rule to a ``(uniques, counts)`` pair:
    ``(nan_free_uniques, counts, first_nan_index_or_-1)`` with all NaN
    tallies folded into one trailing count."""
    first_nan = _nan_tail(uniq)
    if first_nan < 0:
        return uniq, counts, -1
    np = vector._np
    counts = np.concatenate((counts[:first_nan], [counts[first_nan:].sum()]))
    return uniq[:first_nan], counts, first_nan


def _unique_counts_canonical(column) -> tuple[list, Sequence[int]]:
    """``np.unique(..., return_counts=True)`` with the NaN-collapse rule:
    ``(keys, counts)`` where keys are plain Python values, all NaNs folded
    into one trailing canonical :data:`NAN` entry."""
    uniq, counts = vector._np.unique(column, return_counts=True)
    uniq, counts, first_nan = _collapse_nan_counts(uniq, counts)
    keys = uniq.tolist()
    if first_nan >= 0:
        keys.append(NAN)
    return keys, counts


def combine_codes(
    factorized: list[tuple[Sequence[int], list]], n: int
):
    """Fold per-column codes into one dense code column plus decoded keys.

    Returns ``(codes, keys)`` where ``codes`` holds the batch-local group
    id of each of the ``n`` rows (an intp ndarray when numpy is enabled)
    and ``keys[g]`` is group ``g``'s key — the bare unique value for a
    single key column, a tuple for several, ``()`` for none.
    """
    if len(factorized) == 1:
        codes, uniques = factorized[0]
        return vector.code_vector(codes), uniques
    if not factorized:
        return vector.zero_codes(n), [()]
    codes, parts = vector.joint_codes(
        [codes for codes, _ in factorized], [len(uniques) for _, uniques in factorized]
    )
    # Decode each group's per-column codes back to the unique values.
    key_parts = [
        [uniques[i] for i in part] for part, (_, uniques) in zip(parts, factorized)
    ]
    return codes, list(zip(*key_parts))


# --------------------------------------------------------------------- #
# accumulators (row-path cells; also the merge cells of the batch engine)
# --------------------------------------------------------------------- #


def make_accumulator(func: str):
    """``(initial_cell, update, final)`` for one aggregate function.

    Cells are O(1) running state — count / (count, sum) / best-so-far — so
    aggregation buffers scale with the number of groups, not input rows.
    NULLs are skipped; an aggregate over no non-NULL input is NULL
    (COUNT: 0).  MIN/MAX order NaN above every non-NaN value (the Postgres
    rule), which keeps the per-row path batch-order-independent and equal
    to the segment reductions.
    """
    if func == "COUNT":
        return (
            0,
            lambda cell, v: cell + 1 if v is not None else cell,
            lambda cell: cell,
        )
    if func in ("SUM", "AVG"):
        def update(cell, v):
            return cell if v is None else (cell[0] + 1, cell[1] + v)

        if func == "SUM":
            final = lambda cell: cell[1] if cell[0] else None  # noqa: E731
        else:
            final = lambda cell: cell[1] / cell[0] if cell[0] else None  # noqa: E731
        return (0, 0), update, final
    if func == "MIN":
        def update(cell, v):
            if v is None or cell is MISSING:
                return cell if v is None else v
            if cell != cell:  # NaN is the greatest: anything displaces it
                return v
            if v != v:  # ... and never displaces a non-NaN minimum
                return cell
            return v if v < cell else cell

        return MISSING, update, lambda cell: None if cell is MISSING else cell
    if func == "MAX":
        def update(cell, v):
            if v is None or cell is MISSING:
                return cell if v is None else v
            if v != v:  # NaN is the greatest: it wins any MAX
                return v
            if cell != cell:
                return cell
            return v if v > cell else cell

        return MISSING, update, lambda cell: None if cell is MISSING else cell
    raise PlanError(f"unknown aggregate function {func!r}")


def _merge_fn(func: str, update) -> Callable[[Any, Any], Any]:
    """Merge two cells of ``func`` (associative; both sides may be partial)."""
    if func == "COUNT":
        return lambda a, b: a + b
    if func in ("SUM", "AVG"):
        return lambda a, b: (a[0] + b[0], a[1] + b[1])

    # MIN/MAX: a partial cell is either MISSING or a plain value, and the
    # per-row update rule is exactly the pairwise merge rule.
    def merge(a, b):
        if b is MISSING:
            return a
        return update(a, b)

    return merge


# --------------------------------------------------------------------- #
# segment reductions
# --------------------------------------------------------------------- #

#: ndarray dtype kinds the ufunc reductions handle.  MIN/MAX over strings
#: ('<U' ndarrays, dictionary vectors) reduce by order
#: (:func:`_ordered_winners`); everything else reduces through the
#: skip-NULL loop.
_REDUCIBLE_KINDS = "biuf"

#: ``np.add.reduceat`` over int64 wraps silently on overflow, while the
#: row path's Python ints are exact.  Sums whose accumulated magnitude
#: could reach this bound leave the vectorized path instead.
_INT_SUM_BOUND = 1 << 62


def _int_sum_peak(values) -> int:
    """Largest absolute value of an int-kind ndarray, as an exact Python
    int (``np.abs`` itself wraps on the int64 minimum)."""
    if not len(values):
        return 0
    return max(int(values.max()), -int(values.min()))


def _segment_reduce_array(func: str, values, order, starts, counts_list):
    """Per-group cells for one ndarray argument column (no NULLs possible).

    Returns None when the reduction cannot run exactly (int sums that
    could overflow int64); the caller then uses the Python-int loop.
    """
    np = vector._np
    if func == "COUNT":
        return counts_list
    if (
        func in ("SUM", "AVG")
        and values.dtype.kind in "iu"
        and _int_sum_peak(values) * len(values) >= _INT_SUM_BOUND
    ):
        return None
    sorted_values = values[order]
    if func in ("SUM", "AVG"):
        totals = np.add.reduceat(sorted_values, starts).tolist()
        return list(zip(counts_list, totals))
    return _extremes(func, sorted_values, starts).tolist()


def _extremes(func: str, sorted_values, starts):
    """MIN/MAX per segment of a number ndarray sorted by group, one
    segment starting at each of ``starts``."""
    np = vector._np
    if func == "MIN":
        # fmin skips NaN, so a group's MIN is NaN only when it is all-NaN.
        return np.fmin.reduceat(sorted_values, starts)
    # MAX: maximum propagates NaN — any NaN in the group wins.
    return np.maximum.reduceat(sorted_values, starts)


def _ordered_winners(func: str, values, codes, counts):
    """The position of each group's MIN/MAX row of a string argument, so
    only each group's winning row decodes.

    A '<U' ndarray is its own order (numpy compares it in Python's
    code-point order); a dictionary column orders by its dictionary's rank
    table, the one ORDER BY uses.  One group costs one argmin/argmax; several
    cost one lexsort by (group, order), each group's extreme at its segment
    start or end.  Every group of the batch holds at least one row.
    """
    np = vector._np
    dv = vector.dict_vector(values)
    order = values if dv is None else ordering.dictionary_ranks(dv)[dv.codes]
    if len(counts) == 1:
        return [order.argmin() if func == "MIN" else order.argmax()]
    ends = np.cumsum(counts)
    return np.lexsort((order, codes))[ends - counts if func == "MIN" else ends - 1]


def segment_extremes(func: str, values, codes, counts) -> Sequence:
    """MIN or MAX of ``values`` per group, in the values' own domain.

    Row ``t`` belongs to group ``codes[t]``; group ``g`` holds
    ``counts[g]`` rows, at least one.  The rules are GROUP BY's: a number
    ndarray reduces through the segment ufuncs (NaN above every number)
    and stays an ndarray, strings (a dictionary vector or '<U' ndarray)
    compare by order and stay the same kind of vector, and anything else
    reduces through the skip-NULL loop into a list, None for a group
    without a non-NULL value.
    """
    if is_ndarray(values) and values.dtype.kind in _REDUCIBLE_KINDS:
        np = vector._np
        order = np.argsort(codes, kind="stable")
        starts = np.concatenate(([0], np.cumsum(counts[:-1])))
        return _extremes(func, values[order], starts)
    if vector.dict_vector(values) is not None or (
        is_ndarray(values) and values.dtype.kind == "U"
    ):
        return vector.take(values, _ordered_winners(func, values, codes, counts))
    cells = _segment_reduce_seq(
        func, vector.as_values(values), vector.as_values(codes), len(counts)
    )
    return [None if cell is MISSING else cell for cell in cells]


def _segment_reduce_seq(func: str, values, codes_list, num_groups: int):
    """Per-group cells for a generic argument column (NULLs skipped)."""
    initial, update, _ = make_accumulator(func)
    cells = [initial] * num_groups
    for code, v in zip(codes_list, values):
        if v is not None:
            cells[code] = update(cells[code], v)
    return cells


# --------------------------------------------------------------------- #
# typed single-key global state
# --------------------------------------------------------------------- #


def _null_free(values) -> bool:
    """Whether ``values`` cannot hold a NULL, so COUNT over it is the group
    size: a non-object ndarray or a dictionary vector."""
    return (
        is_ndarray(values) and values.dtype.kind != "O"
    ) or vector.dict_vector(values) is not None


def _reducible(funcs: Sequence[str], arg_cols: list) -> bool:
    """Every aggregate argument is an ndarray the ufunc reductions handle,
    the implicit COUNT(*) argument (None), or a NULL-free COUNT argument."""
    for func, values in zip(funcs, arg_cols):
        if values is None or (
            is_ndarray(values) and values.dtype.kind in _REDUCIBLE_KINDS
        ):
            continue
        if func != "COUNT" or not _null_free(values):
            return False
    return True


class _SingleKeyArrayGroups:
    """Fully-typed grouping state for one key column.

    For single-key grouping whose argument columns are all ndarrays, the
    *global* state — not just the per-batch reduction — stays in the array
    domain: every batch row maps to a group id (gid, creation order) and
    per-group cells merge by fancy-indexed arithmetic, with no Python-level
    work per distinct key.  How a key finds its gid depends on the key:

    * a **dictionary** key (:class:`~repro.exec.vector.DictVector`) is
      grouped by address: its code already is a dense group id over the
      column's dictionary, stable across batches because the dictionary
      only appends and every batch view shares it.  ``_slot[code]`` is the
      code's gid (-1 while unseen), grown when a batch carries a code past
      its end (an append since the last batch); COUNT is one bincount over
      the gids.  A batch opens its new groups in ascending code order.
      Keys stay codes (``_codes``, gid -> code) and leave as a dictionary
      vector over the same dictionary;
    * an **ndarray** key keeps its known keys in a sorted ndarray and maps
      batch keys to gids via one ``np.searchsorted``.  NaN keys cannot live
      in the sorted search array (``NaN != NaN`` breaks the membership
      test), so the single NaN group — np.unique sorts NaNs last, and
      :func:`factorize`'s collapse rule applies here too — is tracked as a
      sidecar gid.  ``keys`` holds one canonical Python key per gid.
    """

    __slots__ = (
        "funcs",
        "keys",
        "_dict",
        "_slot",
        "_codes",
        "_count_only",
        "_sorted",
        "_sgids",
        "_nan_gid",
        "_cells",
        "_sum_bounds",
    )

    def __init__(self, funcs: Sequence[str], key_col):
        np = vector._np
        self.funcs = list(funcs)
        self._count_only = all(f == "COUNT" for f in funcs)
        self.keys: list = []
        dv = vector.dict_vector(key_col)
        #: The key column's dictionary (an empty view of it) when the key is
        #: dictionary-encoded, else None (the sorted-key state).
        self._dict = None
        if dv is not None:
            self._dict = dv.with_codes(np.empty(0, dtype=np.int64))
        self._slot = np.empty(0, dtype=np.intp)
        self._codes = np.empty(0, dtype=np.int64)
        self._sorted = None
        self._sgids = None
        self._nan_gid = -1
        self._cells: list | None = None
        #: Per-aggregate accumulated |sum| ceiling for int arguments: the
        #: typed totals live in int64 arrays, so once the worst case could
        #: reach _INT_SUM_BOUND the state demotes (exactly, via tolist) to
        #: the dict engine's Python-int cells instead of wrapping.
        self._sum_bounds: dict[int, int] = {}

    @property
    def num_groups(self) -> int:
        return len(self._codes) if self._dict is not None else len(self.keys)

    def key_values(self) -> list:
        """The group keys as plain Python values, in gid order."""
        if self._dict is None:
            return list(self.keys)
        decode = self._dict.values
        return [decode[c] for c in self._codes.tolist()]

    @staticmethod
    def eligible(funcs: Sequence[str], key_col, arg_cols: list) -> bool:
        """Whether a batch's columns fit the typed state: a dictionary key
        or an ndarray key of a sortable kind, and every argument
        reducible (:func:`_reducible`)."""
        if vector.dict_vector(key_col) is None and not (
            is_ndarray(key_col) and key_col.dtype.kind in "biufU"
        ):
            return False
        return _reducible(funcs, arg_cols)

    def consume(self, key_col, arg_cols: list, n: int) -> bool:
        """Fold one batch in; False when the batch does not fit — another
        key kind or dictionary, an argument that is not ndarray-reducible,
        an int sum that could overflow — and the caller then demotes this
        state to the dict engine."""
        dv = vector.dict_vector(key_col)
        if self._dict is None:
            if dv is not None or not (
                is_ndarray(key_col) and key_col.dtype.kind in "biufU"
            ):
                return False
        elif dv is None or dv.values is not self._dict.values:
            return False
        if not _reducible(self.funcs, arg_cols):
            return False
        new_bounds: dict[int, int] = {}
        for i, (func, values) in enumerate(zip(self.funcs, arg_cols)):
            if (
                values is not None
                and func in ("SUM", "AVG")
                and values.dtype.kind in "iu"
            ):
                ceiling = self._sum_bounds.get(i, 0) + _int_sum_peak(values) * n
                if ceiling >= _INT_SUM_BOUND:
                    return False
                new_bounds[i] = ceiling
        self._sum_bounds.update(new_bounds)
        if dv is not None:
            self._consume_codes(dv.codes, arg_cols)
        else:
            self._consume_sorted(key_col, arg_cols)
        return True

    # -- dictionary keys: the direct-address map ------------------------ #

    def _address(self, codes, in_order: bool = False):
        """The gid of every code, opening a group for each unseen one: in
        ascending code order, or — ``in_order``, for distinct codes — in
        the order given."""
        np = vector._np
        slot = self._slot
        try:
            gids = slot[codes]
        except IndexError:  # a code past the map's end: grow it
            top = int(codes.max()) + 1
            slot = np.full(max(top, 2 * len(slot)), -1, dtype=np.intp)
            slot[: len(self._slot)] = self._slot
            self._slot = slot
            gids = slot[codes]
        if gids.min() < 0:
            new_codes = codes[gids < 0]
            if not in_order:
                seen = np.zeros(len(slot), dtype=bool)
                seen[new_codes] = True
                new_codes = np.flatnonzero(seen)
            previous = len(self._codes)
            slot[new_codes] = np.arange(previous, previous + len(new_codes))
            self._codes = np.concatenate((self._codes, new_codes))
            gids = slot[codes]
        return gids

    def _consume_codes(self, codes, arg_cols: list) -> None:
        np = vector._np
        previous = len(self._codes)
        gids = self._address(codes)
        total = len(self._codes)
        tallies = np.bincount(gids, minlength=total)
        if self._count_only:
            # Every COUNT is the group size (its arguments are NULL-free):
            # add the tallies, widened by the new groups.
            cells = self._cells or [("count", tallies[:0]) for _ in self.funcs]
            for i, (_, counts) in enumerate(cells):
                if len(counts) < total:
                    counts = np.concatenate(
                        (counts, np.zeros(total - len(counts), dtype=counts.dtype))
                    )
                counts += tallies
                cells[i] = ("count", counts)
            self._cells = cells
            return
        present = np.flatnonzero(tallies)
        self._fold(present, previous, self._partials(arg_cols, gids, tallies[present]))

    # -- ndarray keys: the sorted-key state ----------------------------- #

    def _consume_sorted(self, key_col, arg_cols: list) -> None:
        np = vector._np
        count_only = self._count_only
        if count_only and self._sorted is not None and self._merge_known(key_col):
            return
        codes = None
        if count_only:
            # COUNT-style aggregates need no row->group codes at all (a
            # COUNT argument is NULL-free, so COUNT(x) is the group size):
            # one sort-and-count per batch.
            uniq, counts = np.unique(key_col, return_counts=True)
            uniq, counts, nan_local = _collapse_nan_counts(uniq, counts)
        else:
            uniq, codes = np.unique(key_col, return_inverse=True)
            nan_local = _nan_tail(uniq)
            if nan_local >= 0:
                if nan_local < len(uniq) - 1:
                    codes = np.minimum(codes, nan_local)
                uniq = uniq[:nan_local]
        num_local = len(uniq) + (1 if nan_local >= 0 else 0)
        if not count_only:
            counts = np.bincount(codes, minlength=num_local)
        partials = self._partials(arg_cols, codes, counts)
        self._merge(uniq, nan_local, num_local, partials)

    def _merge_known(self, key_col) -> bool:
        """COUNT-only steady-state merge: probe every row against the known
        sorted keys and bincount the hit gids — no per-batch np.unique sort
        at all.  False (nothing merged) when any row's key is new, or NaN
        appears (``NaN == NaN`` fails the hit test); the unique-based slow
        path then handles the batch.
        """
        np = vector._np
        sorted_keys = self._sorted
        if sorted_keys.dtype != key_col.dtype:
            return False
        pos = np.searchsorted(sorted_keys, key_col)
        np.minimum(pos, len(sorted_keys) - 1, out=pos)
        if not (sorted_keys[pos] == key_col).all():
            return False
        tallies = np.bincount(self._sgids[pos], minlength=len(self.keys))
        assert self._cells is not None
        for cell in self._cells:
            counts = cell[1]
            counts += tallies
        return True

    def _merge(self, uniq, nan_local: int, num_local: int, partials: list) -> None:
        """Resolve a batch's sorted distinct keys (plus a trailing NaN group
        at ``nan_local``) to gids, opening new groups, and fold the
        partials in."""
        np = vector._np
        previous = len(self.keys)
        gids = np.empty(num_local, dtype=np.intp)
        if len(uniq):
            if self._sorted is None:
                known = np.zeros(len(uniq), dtype=bool)
            else:
                if self._sorted.dtype != uniq.dtype:
                    common = np.result_type(self._sorted, uniq)
                    self._sorted = self._sorted.astype(common)
                    uniq = uniq.astype(common)
                pos = np.searchsorted(self._sorted, uniq)
                clipped = np.minimum(pos, len(self._sorted) - 1)
                known = (self._sorted[clipped] == uniq) & (pos < len(self._sorted))
                if known.any():
                    gids[: len(uniq)][known] = self._sgids[clipped[known]]
            fresh = ~known
            if fresh.any():
                new_keys = uniq[fresh]
                new_gids = np.arange(
                    previous, previous + len(new_keys), dtype=np.intp
                )
                gids[: len(uniq)][fresh] = new_gids
                self.keys.extend(new_keys.tolist())
                if self._sorted is None:
                    self._sorted = new_keys.copy()
                    self._sgids = new_gids
                else:
                    at = np.searchsorted(self._sorted, new_keys)
                    self._sorted = np.insert(self._sorted, at, new_keys)
                    self._sgids = np.insert(self._sgids, at, new_gids)
        if nan_local >= 0:
            if self._nan_gid < 0:
                self._nan_gid = len(self.keys)
                self.keys.append(NAN)
            gids[num_local - 1] = self._nan_gid
        self._fold(gids, previous, partials)

    # -- shared: per-batch partials and their fold ---------------------- #

    def _partials(self, arg_cols: list, codes, counts) -> list:
        """One partial per aggregate for a batch whose rows carry group
        codes ``codes``: partial ``g`` belongs to the ``g``-th smallest code
        present, which ``counts[g]`` rows carry (``codes`` may be None when
        every aggregate is a COUNT)."""
        np = vector._np
        order = starts = None
        partials: list = []
        for func, values in zip(self.funcs, arg_cols):
            if values is None or func == "COUNT":
                partials.append(("count", counts))
                continue
            if order is None:
                order = np.argsort(codes, kind="stable")
                starts = np.concatenate(([0], np.cumsum(counts[:-1])))
            sorted_values = values[order]
            if func in ("SUM", "AVG"):
                partials.append(
                    ("sum", counts, np.add.reduceat(sorted_values, starts))
                )
            elif func == "MIN":
                partials.append(("min", np.fmin.reduceat(sorted_values, starts)))
            else:
                partials.append(("max", np.maximum.reduceat(sorted_values, starts)))
        return partials

    def _fold(self, gids, previous: int, partials: list) -> None:
        """Fold partials whose ``i``-th entry belongs to group ``gids[i]``
        into the cells; groups from ``previous`` on are new, and their gids
        ascend with ``i``."""
        np = vector._np
        new_locals = np.flatnonzero(gids >= previous)
        exist_locals = np.flatnonzero(gids < previous)
        exist_gids = gids[exist_locals]
        if self._cells is None:
            self._cells = [self._appended(None, p, new_locals) for p in partials]
            return
        for i, partial in enumerate(partials):
            cell = self._appended(self._cells[i], partial, new_locals)
            if len(exist_locals):
                cell = self._scattered(cell, partial, exist_locals, exist_gids)
            self._cells[i] = cell

    @staticmethod
    def _appended(cell, partial, new_locals):
        """Cell arrays extended with the new groups' partial values (the
        partials themselves, so no identity-element corner cases)."""
        np = vector._np
        kind = partial[0]
        if kind == "sum":
            _, counts, totals = partial
            if cell is None:
                return ("sum", counts[new_locals].copy(), totals[new_locals].copy())
            _, gcounts, gtotals = cell
            return (
                "sum",
                np.concatenate((gcounts, counts[new_locals])),
                np.concatenate(
                    (
                        gtotals.astype(np.result_type(gtotals, totals), copy=False),
                        totals[new_locals],
                    )
                ),
            )
        arr = partial[1]
        if cell is None:
            return (kind, arr[new_locals].copy())
        garr = cell[1].astype(np.result_type(cell[1], arr), copy=False)
        return (kind, np.concatenate((garr, arr[new_locals])))

    @staticmethod
    def _scattered(cell, partial, locals_, gids):
        """Merge existing groups' partials by fancy-indexed arithmetic.
        Group ids are unique within a batch, so in-place index ops are safe."""
        np = vector._np
        kind = cell[0]
        if kind == "count":
            cell[1][gids] += partial[1][locals_]
            return cell
        if kind == "sum":
            _, gcounts, gtotals = cell
            _, counts, totals = partial
            gcounts[gids] += counts[locals_]
            gtotals = gtotals.astype(np.result_type(gtotals, totals), copy=False)
            gtotals[gids] = gtotals[gids] + totals[locals_]
            return ("sum", gcounts, gtotals)
        arr = cell[1].astype(np.result_type(cell[1], partial[1]), copy=False)
        if kind == "min":
            # fmin: NaN never displaces a real minimum (all-NaN stays NaN).
            arr[gids] = np.fmin(arr[gids], partial[1][locals_])
        else:
            # maximum: NaN propagates — any NaN in the group wins MAX.
            arr[gids] = np.maximum(arr[gids], partial[1][locals_])
        return (kind, arr)

    # -- partial-state merging ------------------------------------------ #

    def merge_state(self, other: "_SingleKeyArrayGroups") -> bool:
        """Merge another typed state in (the parallel partial-state merge).

        Dictionary states address the other state's codes directly, opening
        its new groups in its creation order.  Sorted-key states realign
        the other state's cells from creation order to sorted-key order
        through its ``_sgids`` permutation and fold them in through the
        searchsorted/scatter machinery per-batch partials use.  Returns
        False — nothing merged — when the states differ in key kind or
        dictionary, or exact int sums could overflow the typed int64
        totals; the caller then merges via Python cells.
        """
        if other._cells is None:
            return True
        if (self._dict is None) != (other._dict is None) or (
            self._dict is not None and self._dict.values is not other._dict.values
        ):
            return False
        np = vector._np
        merged_bounds: dict[int, int] = dict(self._sum_bounds)
        for i, ceiling in other._sum_bounds.items():
            total = merged_bounds.get(i, 0) + ceiling
            if total >= _INT_SUM_BOUND:
                return False
            merged_bounds[i] = total
        self._sum_bounds = merged_bounds
        if self._dict is not None:
            previous = len(self._codes)
            gids = self._address(other._codes, in_order=True)
            self._fold(gids, previous, other._cells)
            return True
        if other._sorted is not None:
            order = other._sgids
            uniq = other._sorted
        else:
            order = np.empty(0, dtype=np.intp)
            uniq = np.empty(0, dtype=np.intp)
        num_local = len(uniq)
        nan_local = -1
        if other._nan_gid >= 0:
            order = np.concatenate(
                (order, np.asarray([other._nan_gid], dtype=np.intp))
            )
            num_local += 1
            nan_local = num_local - 1
        partials: list = []
        for kind, *arrays in other._cells:
            if kind == "sum":
                counts, totals = arrays
                partials.append(("sum", counts[order], totals[order]))
            else:
                partials.append((kind, arrays[0][order]))
        self._merge(uniq, nan_local, num_local, partials)
        return True

    # -- output / demotion ---------------------------------------------- #

    def cell_lists(self) -> list[list]:
        """Cells as the dict engine's Python representation (per aggregate)."""
        if self._cells is None:
            return [[] for _ in self.funcs]
        out: list[list] = []
        for kind, *arrays in self._cells:
            if kind == "sum":
                out.append(list(zip(arrays[0].tolist(), arrays[1].tolist())))
            else:
                out.append(arrays[0].tolist())
        return out

    def result_columns(self) -> list:
        """Key column then one column per aggregate, typed: a dictionary
        key leaves as a dictionary vector, the cells as ndarrays."""
        if self._dict is not None:
            columns: list = [self._dict.with_codes(self._codes)]
        else:
            columns = [list(self.keys)]
        if self._cells is None:
            return columns + [[] for _ in self.funcs]
        for (kind, *arrays), func in zip(self._cells, self.funcs):
            if kind == "sum" and func == "AVG":
                # Groups only exist for rows seen, and ndarray argument
                # columns carry no NULLs — counts are always positive.
                columns.append(arrays[1] / arrays[0])
            else:
                columns.append(arrays[-1])
        return columns


# --------------------------------------------------------------------- #
# streaming grouped aggregation
# --------------------------------------------------------------------- #


class GroupedAggregation:
    """Streaming multi-key grouped aggregation over columnar batches.

    Feed dense per-batch key/argument columns via :meth:`consume`; read the
    grouped output column-major via :meth:`result_columns` once the input
    is drained.  State per group is one key entry plus one O(1) cell per
    aggregate, so :attr:`num_groups` is exactly what a memory budget should
    charge.

    Args:
        num_keys: number of grouping key columns.
        funcs: one aggregate function name per output aggregate.
    """

    #: First-batch distinct count from which the typed array state takes
    #: over an ndarray key: below it, per-batch merges touch so few groups
    #: that the dict engine's Python work is cheaper than the sorted-key
    #: state's fixed-cost vectorized bookkeeping.  A dictionary key takes
    #: the typed state at any group count: its code is its address.
    _ARRAY_MODE_MIN_GROUPS = 128

    def __init__(self, num_keys: int, funcs: Sequence[str]):
        self.num_keys = num_keys
        self.funcs = list(funcs)
        self._count_only = all(f == "COUNT" for f in funcs)
        accumulators = [make_accumulator(f) for f in funcs]
        self._initials = [init for init, _, _ in accumulators]
        self._finals = [final for _, _, final in accumulators]
        self._merges = [
            _merge_fn(f, update) for f, (_, update, _) in zip(funcs, accumulators)
        ]
        self._gid_of: dict = {}
        self._key_columns: list[list] = [[] for _ in range(num_keys)]
        self._cells: list[list] = [[] for _ in funcs]
        self._array: _SingleKeyArrayGroups | None = None
        self._array_refused = num_keys != 1

    @property
    def num_groups(self) -> int:
        if self._array is not None:
            return self._array.num_groups
        return len(self._gid_of)

    def consume(self, key_cols: list, arg_cols: list, n: int) -> None:
        """Fold one batch into the grouped state.

        ``key_cols`` are the dense grouping columns (ndarray or sequence,
        each of ``n`` visible rows); ``arg_cols`` align with the configured
        aggregates (None for COUNT(*), whose argument is implicit).
        """
        if not n:
            return
        if self._array is not None:
            if self._array.consume(key_cols[0], arg_cols, n):
                return
            # Ineligible batch shapes (list column, string MIN/MAX, ...):
            # demote the typed state to the dict engine, permanently.
            self._demote_array()
        self._consume_batch(key_cols, arg_cols, n)

    def _maybe_promote(
        self, key_col, arg_cols: list, n: int, observed_groups: int = 0
    ) -> bool:
        """Switch an empty state to the typed array engine when the first
        batch has a dictionary key, or reveals high cardinality; consumes
        the batch on success."""
        if (
            self._array_refused
            or self._gid_of
            or (
                observed_groups < self._ARRAY_MODE_MIN_GROUPS
                and vector.dict_vector(key_col) is None
            )
            or not _SingleKeyArrayGroups.eligible(self.funcs, key_col, arg_cols)
        ):
            return False
        self._array = _SingleKeyArrayGroups(self.funcs, key_col)
        return self._array.consume(key_col, arg_cols, n)

    def _demote_array(self) -> None:
        array = self._array
        assert array is not None
        self._array = None
        self._array_refused = True
        keys = array.key_values()
        self._gid_of = {key: gid for gid, key in enumerate(keys)}
        self._key_columns = [keys]
        self._cells = array.cell_lists()

    # -- the batch pipeline -------------------------------------------- #

    def _consume_batch(self, key_cols: list, arg_cols: list, n: int) -> None:
        np = vector._np
        if (
            self.num_keys == 1
            and vector.dict_vector(key_cols[0]) is not None
            and self._maybe_promote(key_cols[0], arg_cols, n)
        ):
            return
        if (
            self._count_only
            and self.num_keys == 1
            # COUNT(x) equals the group size only when x cannot hold NULLs
            # (or is the implicit COUNT(*) argument).  A list argument may
            # carry Nones and must count per row.
            and all(v is None or _null_free(v) for v in arg_cols)
        ):
            # COUNT-style aggregates over one ndarray key need no row->group
            # codes: one sort-and-count per batch, then a merge over the
            # batch's (few) distinct keys.
            key0 = key_cols[0]
            if is_ndarray(key0) and key0.dtype.kind in "biufU":
                keys, counts = _unique_counts_canonical(key0)
                if self._maybe_promote(key0, arg_cols, n, len(keys)):
                    return
                counts_list = counts.tolist()
                self._merge(keys, [counts_list] * len(self.funcs))
                return
        factorized = [factorize(c, n) for c in key_cols]
        if self.num_keys == 1 and self._maybe_promote(
            key_cols[0], arg_cols, n, len(factorized[0][1])
        ):
            return
        codes, keys = combine_codes(factorized, n)
        num_groups = len(keys)
        counts = vector.group_counts(codes, num_groups)
        counts_list = vector.as_values(counts)
        order = starts = codes_list = None
        partials: list = []
        for func, values in zip(self.funcs, arg_cols):
            if values is None:  # COUNT(*)
                partials.append(counts_list)
                continue
            partial = None
            minmax = func in ("MIN", "MAX")
            if is_ndarray(values) and values.dtype.kind in _REDUCIBLE_KINDS:
                if order is None:
                    order = np.argsort(codes, kind="stable")
                    starts = np.concatenate(([0], np.cumsum(counts[:-1])))
                partial = _segment_reduce_array(
                    func, values, order, starts, counts_list
                )
            elif minmax and (
                vector.dict_vector(values) is not None
                or (is_ndarray(values) and values.dtype.kind == "U")
            ):
                winners = _ordered_winners(func, values, codes, counts)
                partial = vector.as_values(vector.take(values, winners))
            if partial is None:  # list column, or an overflow-prone int sum
                if codes_list is None:
                    codes_list = vector.as_values(codes)
                # as_values: ndarray inputs must reduce over plain Python
                # values here (exact big-int sums, no numpy scalars in cells).
                partial = _segment_reduce_seq(
                    func, vector.as_values(values), codes_list, num_groups
                )
            partials.append(partial)
        self._merge(keys, partials)

    def _merge(self, keys: list, partials: list) -> None:
        """Fold one batch's per-group partial cells into the global state."""
        gid_of = self._gid_of
        get = gid_of.get
        key_columns = self._key_columns
        cells = self._cells
        merges = self._merges
        single = self.num_keys == 1
        for g, key in enumerate(keys):
            gid = get(key)
            if gid is None:
                gid = len(gid_of)
                gid_of[key] = gid
                if single:
                    key_columns[0].append(key)
                else:
                    for i, v in enumerate(key):
                        key_columns[i].append(v)
                for i, partial in enumerate(partials):
                    cells[i].append(partial[g])
            else:
                for i, partial in enumerate(partials):
                    cells[i][gid] = merges[i](cells[i][gid], partial[g])

    # -- partial-state merging (morsel-driven parallel aggregation) ----- #

    def merge_from(self, other: "GroupedAggregation") -> None:
        """Fold another (partial) aggregation state into this one.

        The other state's per-group cells are exactly the partial cells
        :meth:`_merge` consumes (the merge functions are associative), so a
        stream split into per-worker partials and merged in morsel order
        produces the same groups and aggregates as serial consumption.
        Typed array partials stay typed: the first one is adopted
        wholesale and later ones fold in through the scatter-merge
        machinery (:meth:`_SingleKeyArrayGroups.merge_state`), so merging
        high-cardinality partials does no Python-per-key work.  ``other``
        is consumed (possibly demoted in place to read its cells); it must
        not receive further batches.
        """
        if other._array is not None:
            if (
                self._array is None
                and not self._gid_of
                and not self._array_refused
            ):
                # First typed partial into an empty state: adopt it.
                self._array = other._array
                other._array = None
                return
            if self._array is not None and self._array.merge_state(other._array):
                return
            other._demote_array()
        if not other._gid_of:
            return
        if self._array is not None:
            self._demote_array()
        self._merge(list(other._gid_of), other._cells)

    # -- spill support (out-of-core aggregation) ------------------------ #

    def export_and_reset(self) -> tuple[list, list]:
        """Move the whole state out as ``(keys, cells)`` partial frames.

        The return shape is exactly what :meth:`_merge` (and therefore
        :meth:`absorb`) consumes: group keys in gid order (bare values for
        single-key states, tuples otherwise) plus one partial-cell list
        per aggregate.  The engine resets to empty — the out-of-core
        aggregation spills these frames per hash partition and re-absorbs
        them partition by partition on drain.
        """
        if self._array is not None:
            self._demote_array()
        keys = list(self._gid_of)
        cells = self._cells
        self._gid_of = {}
        self._key_columns = [[] for _ in range(self.num_keys)]
        self._cells = [[] for _ in self.funcs]
        self._array = None
        self._array_refused = self.num_keys != 1
        return keys, cells

    def absorb(self, keys: list, cells: list) -> None:
        """Fold exported ``(keys, cells)`` partials back in.

        Keys are re-canonicalized: a NaN key that round-tripped through a
        spill file is a *different* float object, and NaN-key stability
        rests on the canonical :data:`NAN` identity.
        """
        if not keys:
            return
        if self._array is not None:
            self._demote_array()
        if self.num_keys == 1:
            keys = [canonical(k) for k in keys]
        elif self.num_keys:
            keys = [canonical_row(k) for k in keys]
        self._merge(keys, cells)

    # -- output --------------------------------------------------------- #

    def ensure_group(self) -> None:
        """Materialize the single global group of a no-key aggregation over
        empty input (``SELECT COUNT(*) FROM empty`` is one row, not zero)."""
        if self.num_keys == 0 and not self._gid_of:
            self._gid_of[()] = 0
            for i, init in enumerate(self._initials):
                self._cells[i].append(init)

    def result_columns(self) -> list[list]:
        """The grouped output, column-major: key columns then one finalized
        column per aggregate.  Never transposes through row tuples."""
        if self._array is not None:
            return self._array.result_columns()
        out: list[list] = list(self._key_columns)
        for final, cells in zip(self._finals, self._cells):
            out.append([final(cell) for cell in cells])
        return out


# --------------------------------------------------------------------- #
# streaming distinct
# --------------------------------------------------------------------- #

class StreamingDistinct:
    """Streaming DISTINCT over columnar batches with canonical NaN keys.

    :meth:`positions` returns, per batch, the visible-row positions (in
    arrival order) whose full row key was never seen before — the batch's
    survivors.  Two states hold the seen keys:

    * a **typed** state for one ndarray or dictionary column, mirroring
      :class:`_SingleKeyArrayGroups`: known keys (dictionary codes for a
      dictionary column) live in one sorted ndarray and each batch resolves
      via ``np.unique`` + ``searchsorted``, with no per-key Python work at
      any distinct ratio.  NaN cannot live in the sorted array
      (``NaN != NaN``), so a seen NaN is one sidecar flag, found with the
      :func:`_nan_tail` rule the grouping state uses;
    * the canonical **seen-set** of NaN-canonical key tuples, walked per
      row, for everything else (several columns, plain lists, numpy off).

    The first batch that does not fit the typed state demotes it into the
    seen-set, permanently (single-column keys are 1-tuples in both), so
    survivors are state-independent and batch-split-independent.
    """

    def __init__(self) -> None:
        self._seen: set = set()
        #: Typed single-column state: sorted ndarray of seen raw keys
        #: (dictionary codes when ``_typed_decode`` is set) plus the seen-NaN
        #: flag, engaged while ``_typed_ok`` and demoted into ``_seen`` the
        #: first time a batch does not fit.
        self._typed_seen = None
        self._typed_decode: list | None = None
        self._typed_nan = False
        self._typed_ok = True

    @property
    def seen_count(self) -> int:
        count = len(self._seen) + self._typed_nan
        if self._typed_seen is not None:
            count += len(self._typed_seen)
        return count

    def export_keys(self) -> list[tuple]:
        """Move every seen key out as canonical tuples; reset to empty.

        The out-of-core DISTINCT spills these per hash partition at
        switchover, so drain-time replay knows which keys were already
        emitted in the streaming phase.
        """
        self._demote_typed()
        keys = list(self._seen)
        self._seen = set()
        self._typed_ok = True
        return keys

    def positions(self, columns: list, n: int) -> list[int]:
        if not n:
            return []
        if self._typed_ok and len(columns) == 1:
            kept = self._positions_typed(columns[0])
            if kept is not None:
                return kept
        self._demote_typed()
        return self._positions_rows(columns, n)

    def _positions_typed(self, column):
        """Sorted-ndarray seen state for one typed key column; None when
        the batch does not fit (the caller then demotes the state)."""
        np = vector._np
        dv = vector.dict_vector(column)
        if dv is not None:
            if self._typed_decode is None and self._typed_seen is None:
                self._typed_decode = dv.values
            elif self._typed_decode is not dv.values:
                return None
            raw = dv.codes
        elif (
            is_ndarray(column)
            and column.dtype.kind in "biufU"
            and self._typed_decode is None
        ):
            raw = column
        else:
            return None
        uniq, first_idx = np.unique(raw, return_index=True)
        new_nan = None
        first_nan = _nan_tail(uniq)
        if first_nan >= 0:
            if not self._typed_nan:
                self._typed_nan = True
                new_nan = first_idx[first_nan:].min()
            uniq, first_idx = uniq[:first_nan], first_idx[:first_nan]
        seen = self._typed_seen
        if seen is None or not len(seen):
            self._typed_seen = uniq
            fresh_idx = first_idx
        else:
            if seen.dtype != uniq.dtype:
                common = np.result_type(seen, uniq)
                seen = self._typed_seen = seen.astype(common)
                uniq = uniq.astype(common)
            pos = np.searchsorted(seen, uniq)
            clipped = np.minimum(pos, len(seen) - 1)
            fresh = (seen[clipped] != uniq) | (pos >= len(seen))
            if fresh.any():
                self._typed_seen = np.insert(seen, pos[fresh], uniq[fresh])
            fresh_idx = first_idx[fresh]
        if new_nan is not None:
            fresh_idx = np.append(fresh_idx, new_nan)
        return np.sort(fresh_idx).tolist()

    def _demote_typed(self) -> None:
        """Fold the typed sorted-seen state into the generic seen-set (key
        formats match: single-column keys are 1-tuples), permanently."""
        self._typed_ok = False
        seen = self._typed_seen
        if seen is None:
            return
        self._typed_seen = None
        decode = self._typed_decode
        if decode is not None:
            self._seen.update((decode[c],) for c in seen.tolist())
            self._typed_decode = None
        else:
            self._seen.update((v,) for v in seen.tolist())
        if self._typed_nan:
            self._seen.add((NAN,))
            self._typed_nan = False

    def _positions_rows(self, columns: list, n: int) -> list[int]:
        seen = self._seen
        add = seen.add
        kept: list[int] = []
        if not columns:
            if () not in seen:
                add(())
                kept.append(0)
            return kept
        # Column-wise canonicalization (O(#NaN) patches per batch) keeps
        # the hot dedup loop free of per-row canonicalization calls: the
        # zipped tuples are already canonical keys.
        rows: Iterable[tuple] = zip(*(canonical_column(c) for c in columns))
        return [
            j for j, row in enumerate(rows) if not (row in seen or add(row))
        ]


__all__ = [
    "NAN",
    "MISSING",
    "canonical",
    "canonical_row",
    "canonical_column",
    "factorize",
    "combine_codes",
    "make_accumulator",
    "GroupedAggregation",
    "StreamingDistinct",
]
