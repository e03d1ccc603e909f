"""Typed column storage backends.

A :class:`~repro.relational.table.Table` column lives in one of four
physical representations, selected per column from the schema dtype:

* ``array.array`` — the **typed buffer** for INT (``'q'``) and FLOAT
  (``'d'``) columns: a dense C buffer of machine scalars.  Indexing and
  slicing return plain Python values, so the row-tuple protocol is
  unchanged, while the buffer converts to a numpy ``ndarray`` in one
  ``memcpy`` for the vectorized kernels.
* :class:`DictColumn` — the **dictionary** backend for STRING columns:
  an ``array.array('q')`` of codes plus a per-column value dictionary
  (code -> str and str -> code).  Reads decode transparently, so the
  row protocol is unchanged, while the vectorized kernels operate on the
  dense integer codes (see :class:`repro.exec.vector.DictVector`):
  string predicates become integer compares, joins probe on translated
  codes, and grouping reuses codes as ready-made group ids.  Memory
  drops to 8 bytes/row + one copy of each distinct value.
* ``list`` — the **object fallback** for dates, booleans, and any typed
  or dictionary column that observes a ``None`` (NULL) or a value its
  representation cannot hold.  Promotion is one-way and loss-free: the
  typed buffer is expanded back into a plain list, so semantics never
  change, only speed.
* ``numpy.ndarray`` — never the *storage* (numpy stays an optional
  dependency and append-heavy loads favour ``array.array``), but the
  *read-optimized view* the columnar kernels gather from; see
  :func:`repro.exec.vector.vector_view` and ``Table.vector``.

The backend is process-global and has two values: ``"dict"`` (the
default, the layout above) and ``"list"``, set by
``set_storage_backend("list")`` or ``REPRO_STORAGE=list``, which forces
every new column onto plain lists — the reference behaviour the parity
suites and CI pin against the default.
"""

from __future__ import annotations

import sys
from array import array
from typing import Any, Sequence

from repro import settings
from repro.relational.types import DataType

LIST = "list"

#: ``set_storage_backend``'s override; None defers to ``REPRO_STORAGE``.
_backend: str | None = None


#: Bulk loads re-examine a dictionary column's distinct ratio once this many
#: rows have accumulated; below the floor small tables always stay encoded.
#: The check runs on the *whole* accumulated column, never a prefix: a
#: low-cardinality column whose values cycle with a period longer than any
#: fixed sample (every value in the first lap is new) must not look
#: unique-heavy just because we peeked early.
DEMOTE_MIN_ROWS = 1024

#: Distinct-values / rows watermark above which a bulk-loaded STRING column
#: is demoted to plain list storage: interning a never-repeating content
#: column costs ~3x on ingest for no query-side win (``bulk_load``'s
#: ``dict_vs_list``).  Values > 1.0 disable demotion (the ratio never
#: exceeds 1).
DEMOTE_DISTINCT_RATIO = 0.6


class DictDemotion(TypeError):
    """Raised by ``DictColumn.extend`` when the cardinality heuristic fires.

    A ``TypeError`` subclass so the standard loss-free promotion in
    :func:`extend_values` handles it: the column is rebuilt as a plain list
    and the remaining load skips interning entirely.
    """


def storage_backend() -> str:
    """The active storage backend: ``"dict"`` or ``"list"``."""
    return _backend or settings.current().storage


def set_storage_backend(name: str | None) -> None:
    """Select the storage backend for columns created afterwards.

    ``None`` restores the default (the ``REPRO_STORAGE`` environment
    variable, falling back to ``"dict"``).  Existing tables keep the
    storage they were built with.
    """
    global _backend
    if name is not None and name not in settings.STORAGE_BACKENDS:
        raise ValueError(
            f"unknown storage backend {name!r}: must be one of "
            f"{settings.STORAGE_BACKENDS}"
        )
    _backend = name


class DictColumn:
    """Dictionary-encoded string column: int64 codes + a value dictionary.

    Mirrors the slice of the ``array.array`` protocol the table layer
    uses (``append`` / ``extend`` / ``tolist`` / indexing / iteration),
    decoding on every read, so row-at-a-time code never sees codes.  A
    non-string value (``None``, mixed types, unhashables) raises
    ``TypeError`` from ``append``/``extend``, which triggers the same
    loss-free list promotion as an out-of-range int on a typed buffer.

    Interning is append-only and ordered for lock-free readers: a value
    is published in :attr:`values` *before* its code is appended to
    :attr:`codes`, so any code visible in a snapshot of ``codes`` (see
    ``DictVector``) always resolves against ``values``.  Codes are
    therefore stable for the lifetime of the column — the property the
    grouping and join kernels rely on to reuse per-dictionary state
    across batches.  ``ranks`` is a one-slot memo the ordering kernel
    fills with the dictionary's sort ranks (``repro.exec.ordering``); it
    travels with every ``DictVector`` view, so the dictionary is sorted
    once per watermark, not once per ``ORDER BY``.  ``strings`` is the
    same kind of memo for the values as one '<U' array, which a predicate
    on the column tests in one numpy op (``repro.exec.vector.
    dictionary_strings``) instead of one Python call per value.
    """

    __slots__ = ("codes", "values", "index", "ranks", "strings")

    #: Duck-typed marker (also on ``repro.exec.vector.DictVector``) so the
    #: exec layer can detect dictionary data without importing this module.
    is_dictionary = True

    def __init__(self) -> None:
        self.codes = array("q")
        self.values: list[str] = []
        self.index: dict[str, int] = {}
        self.ranks: list = [None]
        self.strings: list = [None]

    def append(self, value: Any) -> None:
        if type(value) is not str:
            raise TypeError(f"dictionary column cannot hold {value!r}")
        code = self.index.get(value)
        if code is None:
            code = len(self.values)
            self.values.append(value)
            self.index[value] = code
        self.codes.append(code)

    def extend(self, items: Sequence[Any]) -> None:
        """Bulk append.  Raises ``TypeError`` on the first non-string value
        with no codes consumed (the dictionary may have interned the clean
        prefix — harmless, since the caller promotes to a list).

        Bulk loads also apply the **cardinality heuristic**: once the
        column (existing rows + this batch) reaches the demotion floor, a
        distinct-values/rows ratio above the watermark raises
        :class:`DictDemotion` — unique-heavy content columns fall back to
        plain list storage instead of keeping a dictionary nothing will
        ever probe.  The ratio is evaluated over the *entire* column after
        the batch is interned, not a prefix sample: a column whose values
        repeat with a period longer than the floor (sequential ids cycling
        through a 2k-value domain, say) is all-new for its whole first lap
        and would misread as unique-heavy under any early peek.  The check
        fires exactly once per call and only on this bulk path;
        row-at-a-time ``append`` never demotes.
        """
        index = self.index
        values = self.values
        codes: list[int] = []
        for value in items:
            if type(value) is not str:
                raise TypeError(f"dictionary column cannot hold {value!r}")
            code = index.get(value)
            if code is None:
                code = len(values)
                values.append(value)
                index[value] = code
            codes.append(code)
        total = len(self.codes) + len(codes)
        if total >= DEMOTE_MIN_ROWS and len(values) > DEMOTE_DISTINCT_RATIO * total:
            raise DictDemotion(
                f"distinct ratio {len(values)}/{total} exceeds "
                f"{DEMOTE_DISTINCT_RATIO} at {total} rows"
            )
        self.codes.extend(codes)

    def tolist(self) -> list:
        values = self.values
        return [values[c] for c in self.codes]

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            values = self.values
            return [values[c] for c in self.codes[i]]
        return self.values[self.codes[i]]

    def __iter__(self):
        values = self.values
        return iter([values[c] for c in self.codes])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DictColumn({len(self.codes)} rows, "
            f"{len(self.values)} distinct)"
        )


def make_storage(dtype: DataType) -> list | array | DictColumn:
    """Fresh, empty storage for one column of ``dtype``."""
    if storage_backend() == LIST:
        return []
    if dtype is DataType.STRING:
        return DictColumn()
    typecode = dtype.array_typecode()
    if typecode is None:
        return []
    return array(typecode)


def append_value(storage, value: Any):
    """Append ``value``, promoting a typed/dict buffer to a list when it
    cannot hold the value (NULL, wrong type, out of range).  Returns the
    storage to keep using — a new list after promotion, the input
    otherwise."""
    if type(storage) is list:
        storage.append(value)
        return storage
    try:
        storage.append(value)
        return storage
    except (TypeError, OverflowError):
        promoted = storage.tolist()
        promoted.append(value)
        return promoted


def extend_values(storage, values: Sequence[Any]):
    """Bulk :func:`append_value`: one C-level ``extend`` on the clean path.

    ``array.extend`` consumes its input incrementally, so on failure the
    promoted list is rebuilt from the pre-call prefix — a bad value mid-batch
    cannot duplicate the values consumed before it.  (``DictColumn.extend``
    is all-or-nothing, which the same prefix rebuild also handles.)
    """
    if type(storage) is list:
        storage.extend(values)
        return storage
    before = len(storage)
    try:
        storage.extend(values)
        return storage
    except (TypeError, OverflowError):
        promoted = storage.tolist()[:before]
        promoted.extend(values)
        return promoted


def is_dict(storage: Any) -> bool:
    """True when ``storage`` is a dictionary-encoded column."""
    return type(storage) is DictColumn


def column_nbytes(storage) -> int:
    """Resident payload bytes of one column's storage.

    * typed buffer: ``itemsize * len`` (the C buffer);
    * dictionary: 8 bytes per code + each distinct value's object size —
      the duplication-factor saving the bench reports;
    * list: an 8-byte slot per row + every row's object size (shared
      objects are charged per reference, matching what a row-major
      engine would hold live).
    """
    if isinstance(storage, array):
        return len(storage) * storage.itemsize
    if type(storage) is DictColumn:
        codes = storage.codes
        return len(codes) * codes.itemsize + sum(
            sys.getsizeof(v) for v in storage.values
        )
    return 8 * len(storage) + sum(sys.getsizeof(v) for v in storage)


__all__ = [
    "LIST",
    "DEMOTE_MIN_ROWS",
    "DEMOTE_DISTINCT_RATIO",
    "DictColumn",
    "DictDemotion",
    "storage_backend",
    "set_storage_backend",
    "make_storage",
    "append_value",
    "extend_values",
    "is_dict",
    "column_nbytes",
]
