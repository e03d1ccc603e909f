"""The ordering kernel: sort keys as order-preserving integer rank vectors.

``ORDER BY`` has one definition of order, shared by every key type and
every backend: ``None`` first, then values ascending, NaN after every other
value (all NaNs tie) — reversed as a whole for a descending key — and rows
that tie on every key keep their arrival order.  :func:`ranks` turns one
``(key column, asc)`` pair into integers that sort exactly that way, so
multi-key, mixed-direction ordering is a lexicographic sort of int vectors:
no per-row key tuples, no comparison objects.

A key column is whatever a :class:`~repro.exec.vector.ColumnarBatch` holds:
an ndarray, a :class:`~repro.exec.vector.DictVector` (ranked through its
dictionary's memoized rank table — the dictionary is sorted once per
watermark, the rows never are), a typed buffer or a plain list.  Array
columns rank and sort in numpy, everything else in pure Python; operators
call :func:`argsort` / :func:`top_k` / :func:`admit` and never see which.

Ranks are only comparable within one call: a streaming consumer carries its
state between batches as *rows* (see ``TopKOp``), not as ranks.
"""

from __future__ import annotations

import heapq
import operator
from typing import Any, Sequence

from repro.exec import vector
from repro.exec.vector import DictVector, take

SortKey = tuple[Sequence, bool]


def dictionary_ranks(dv: DictVector):
    """``rank[code]`` for ``dv``'s dictionary, memoized per watermark.

    The one order of dictionary values: ORDER BY keys rank through it, and
    string MIN/MAX (:mod:`repro.exec.grouping`) compare rows by it.  The
    slice pins the dictionary at its current length: every code of a
    published snapshot resolves below it (values are published before
    their codes), and a concurrent append only makes the next call rebuild.
    """
    np = vector._np
    values = dv.values
    watermark = len(values)
    memo = dv.ranks[0]
    if memo is None or memo[0] != watermark:
        order = sorted(range(watermark), key=values[:watermark].__getitem__)
        table = np.empty(watermark, dtype=np.int64)
        table[order] = np.arange(watermark, dtype=np.int64)
        memo = dv.ranks[0] = (watermark, table)
    return memo[1]


def _value_ranks(values: Sequence) -> list[int]:
    """Dense ranks of plain values: ``None`` 0, NaN last.  Sorts the
    distinct values only; raises ``TypeError`` for values Python cannot
    order against each other."""
    distinct = set(values)
    distinct.discard(None)
    ordered = sorted(v for v in distinct if v == v)
    table: dict[Any, int] = {v: r for r, v in enumerate(ordered, 1)}
    table[None] = 0
    lookup, nan_rank = table.get, len(ordered) + 1
    return [lookup(v, nan_rank) for v in values]


def ranks(column: Sequence, asc: bool = True) -> Sequence[int]:
    """``column`` as integers whose ascending order is the key's order.

    An int64 ndarray for array columns, a list of ints otherwise.  Equal
    values get equal ranks, so later keys (and arrival) break the tie.
    """
    np = vector._np
    dv = vector.dict_vector(column)
    if dv is not None:
        out = dictionary_ranks(dv)[dv.codes]
    elif vector.is_ndarray(column):
        if column.dtype.kind in "ib":
            out = column.astype(np.int64, copy=False)
        else:
            # Sorted-distinct positions; float NaNs collapse into the last.
            out = np.unique(column, return_inverse=True)[1]
    else:
        out = _value_ranks(vector.as_values(column))
        return out if asc else [-r for r in out]
    return out if asc else ~out


def _lexsort(vectors: list) -> Sequence[int]:
    """Stable positions ordering rows by ``vectors`` (first is primary)."""
    np = vector._np
    if any(vector.is_ndarray(v) for v in vectors):
        if len(vectors) == 1:
            return np.argsort(vectors[0], kind="stable")
        return np.lexsort([np.asarray(v, dtype=np.int64) for v in reversed(vectors)])
    n = len(vectors[0])
    key = vectors[0] if len(vectors) == 1 else list(zip(*vectors))
    return sorted(range(n), key=key.__getitem__)


def argsort(keys: list[SortKey]) -> Sequence[int]:
    """Row positions in ``ORDER BY keys`` order (stable by arrival)."""
    return _lexsort([ranks(column, asc) for column, asc in keys])


def top_k(keys: list[SortKey], k: int) -> Sequence[int]:
    """The first ``k`` positions of :func:`argsort`, without the full sort.

    Only the first key is ranked for every row; its k-th smallest rank is
    the cut, and later keys are ranked just for the rows at or inside it
    (fewer than ``k`` plus the rows tied at the cut).
    """
    (column, asc), later = keys[0], keys[1:]
    n = len(column)
    if k >= n:
        return argsort(keys)
    if k <= 0:
        return []
    first = ranks(column, asc)
    if vector.is_ndarray(first):
        np = vector._np
        cut = np.partition(first, k - 1)[k - 1]
        inside = np.flatnonzero(first <= cut)
    else:
        cut = heapq.nsmallest(k, first)[-1]
        inside = [i for i, r in enumerate(first) if r <= cut]
    vectors = [take(first, inside)]
    vectors += [ranks(take(c, inside), a) for c, a in later]
    return take(inside, _lexsort(vectors)[:k])


def admit(column: Sequence, asc: bool, bound: Any, strict: bool) -> "Sequence[int] | None":
    """Positions of ``column`` that can still order before ``bound``.

    ``bound`` is a key *value* (a streaming top-k's current k-th best);
    ``strict`` drops rows equal to it as well (they arrive later, so on a
    sole key they lose the tie).  Returns None when no row can be ruled
    out — always for a NULL or NaN bound, which have no cheap comparison:
    the caller then ranks the whole batch, which is correct, only slower.
    """
    if bound is None or bound != bound:
        return None
    dv = vector.dict_vector(column)
    if dv is not None:
        code = dv.index.get(bound)
        if code is None:
            return None
        table = dictionary_ranks(dv)
        column, bound = table[dv.codes], table[code]
    if asc:
        before = operator.lt if strict else operator.le
    else:
        before = operator.gt if strict else operator.ge
    if vector.is_ndarray(column):
        keep = before(column, bound)
        if not asc and column.dtype.kind == "f":
            keep |= column != column  # NaN leads a descending key
        return None if keep.all() else vector._np.flatnonzero(keep)
    if asc:
        keep = [j for j, v in enumerate(column) if v is None or before(v, bound)]
    else:
        keep = [
            j
            for j, v in enumerate(column)
            if v is not None and (before(v, bound) or v != v)
        ]
    return None if len(keep) == len(column) else keep


__all__ = ["dictionary_ranks", "ranks", "argsort", "top_k", "admit"]
