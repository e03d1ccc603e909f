"""Shared streaming kernels.

The relational and graph operator families used to carry two private copies
of the same inner loops (filter, project, hash build, hash probe, adjacency
expansion).  These generators/helpers are the single shared implementation
both families are now built from, in two flavours:

* the **row kernels** (top half) operate on batches that are lists of row
  tuples and preserve row order — the relational operators' reference
  bodies and the grace hash join (graph operators reach them only through
  the rows boundary, :func:`repro.exec.operator.to_rows`);
* the **columnar kernels** (bottom half) operate on
  :class:`~repro.exec.vector.ColumnarBatch` chunks: filters refine
  selection vectors, projections gather columns, hash build/probe extract
  whole key columns at once.  These are the vectorized hot loops of the
  engine.

The columnar hash build and probe are the one in-memory join body: the
relational ``HashJoin`` (any number of keys, zero included — one bucket,
the cross / theta join) and the graph ``PatternHashJoin`` (which only
chooses the build side) both call them.  This module is the only one that
knows the table format — key -> bucket list of row tuples — and the only
one that reads or merges buckets (:func:`merge_hash_tables` for parallel
build shards).
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from repro.exec import vector
from repro.exec.context import Buffer, ExecutionContext, close_stream
from repro.exec.grouping import segment_extremes
from repro.exec.vector import (
    ColumnarBatch,
    LazyMask,
    csr_positions,
    cut_points,
    degree_sums,
    equal_positions,
    is_ndarray,
    key_runs,
    nonempty_slices,
    pair_keys,
    passing,
    product_positions,
    radix_keys,
    run_positions,
    scatter,
    sorted_runs,
    take,
    value_store,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.exec.operator import Operator

Batch = list


def emit_batches(
    ctx: ExecutionContext, op: "Operator", stream: Iterable[Batch]
) -> Iterator[Batch]:
    """Count each non-empty batch of ``op``'s ``stream`` and pass it on.

    ``stream`` is closed on any exit — including an ``emit``-raised
    cancellation/fault — so the close cascades into suspended upstream
    generators and their ``finally`` blocks release buffers deterministically
    rather than at GC time.
    """
    try:
        for batch in stream:
            if not batch:
                continue
            ctx.emit(len(batch), op)
            yield batch
    finally:
        close_stream(stream)


def chunked(rows: list, size: int) -> Iterator[Batch]:
    """Re-chunk a materialized row list into batches of ``size``."""
    for start in range(0, len(rows), size):
        yield rows[start : start + size]


def filter_batches(
    batches: Iterable[Batch], keep: Callable[[tuple], Any]
) -> Iterator[Batch]:
    """Keep the rows of each batch for which ``keep(row)`` is truthy."""
    for batch in batches:
        out = [row for row in batch if keep(row)]
        if out:
            yield out


def map_batches(
    batches: Iterable[Batch], transform: Callable[[Batch], Batch]
) -> Iterator[Batch]:
    """Apply a whole-batch transform (projection, gather) to each batch."""
    for batch in batches:
        out = transform(batch)
        if out:
            yield out


def scalar_key(index: int) -> Callable[[tuple], Any]:
    """Single-column join key; ``None`` values never match (SQL semantics)."""
    return lambda row: row[index]


def tuple_key(indices: list[int]) -> Callable[[tuple], Any]:
    """Multi-column join key; returns None (no match) when any part is NULL."""

    def key(row: tuple) -> Any:
        parts = tuple(row[i] for i in indices)
        return None if any(p is None for p in parts) else parts

    return key


def build_hash_table(
    batches: Iterable[Batch],
    key_of: Callable[[tuple], Any],
    buffer: Buffer,
) -> dict[Any, list]:
    """Drain ``batches`` into ``key -> [rows]``, charging ``buffer``.

    Rows whose key is ``None`` are skipped (SQL NULLs never join).  The
    buffer is grown incrementally so an exploding build side trips the
    memory budget mid-build, not after the fact.
    """
    table: dict[Any, list] = {}
    try:
        for batch in batches:
            kept = 0
            for row in batch:
                key = key_of(row)
                if key is None:
                    continue
                bucket = table.get(key)
                if bucket is None:
                    table[key] = [row]
                else:
                    bucket.append(row)
                kept += 1
            buffer.grow(kept)
    finally:
        # A mid-build budget trip (or injected fault) must not leave the
        # build stream suspended: close it so upstream finallys run now.
        close_stream(batches)
    return table


def probe_hash_table(
    batches: Iterable[Batch],
    table: dict[Any, list],
    key_of: Callable[[tuple], Any],
    batch_size: int,
) -> Iterator[Batch]:
    """Stream probe: concatenate each probing row with its matches.

    The build values must be tuples (full rows or pre-trimmed extras); the
    output row is ``probe_row + value``.  Output is re-chunked to
    ``batch_size`` so joins with high fan-out keep bounded in-flight state.
    """
    lookup = table.get
    out: list = []
    for batch in batches:
        for row in batch:
            matches = lookup(key_of(row))
            if not matches:
                continue
            if len(matches) == 1:
                out.append(row + matches[0])
            else:
                out.extend([row + match for match in matches])
            if len(out) >= batch_size:
                yield out
                out = []
    if out:
        yield out


#: Recursion ceiling for grace-join re-partitioning.  A partition whose
#: build side still exceeds the working-set limit after this many re-salted
#: splits is dominated by one giant key group; splitting further cannot
#: help, so it builds in memory (tripping the *budget* only if it genuinely
#: exceeds it).
GRACE_MAX_DEPTH = 8


def grace_hash_join(
    build_batches: Iterable[Batch],
    probe_batches: Iterable[Batch],
    build_key: Callable[[tuple], Any],
    probe_key: Callable[[tuple], Any],
    buffer: Buffer,
    ctx: ExecutionContext,
    label: str,
    value_of: Callable[[tuple], Any] | None = None,
) -> Iterator[Batch]:
    """Out-of-core hash join: partitioned build with cold-partition spilling.

    The build side hash-partitions into :func:`spill_partition_count`
    partitions; while the query's tracked working set fits under
    ``ctx.spill_limit()`` the pairs stay in memory (charged to
    ``buffer``), and when a batch would push past the limit the largest
    partition is evicted to a spill file — so the build cannot trip the
    budget's OOM however much state the rest of the plan holds.
    The probe streams matches against the frozen resident partitions
    immediately (in probe order) and defers rows belonging to spilled
    partitions to per-partition probe files; each spilled partition then
    joins independently — re-partitioned recursively under a fresh hash
    salt while its build side still exceeds the limit — and its matches
    are emitted partition by partition after the streamed phase.  Output
    row order therefore differs from the in-memory join (which is
    order-contractual nowhere); the row *set* is identical, which the
    spill parity suite pins.

    Build values are picklable tuples (full rows, or ``value_of``-trimmed
    extras); output rows are ``probe_row + value``.  Every file I/O runs
    through the manager's ``spill`` fault site, and all files are reaped
    as their partition drains (and unconditionally at manager close).
    """
    from repro.exec.scheduler import spill_partition_count
    from repro.exec.spill import PartitionWriter, spill_hash

    manager = ctx.spill
    assert manager is not None
    limit = ctx.spill_limit()
    assert limit is not None
    P = spill_partition_count(ctx.parallelism)
    resident: list[list] = [[] for _ in range(P)]
    spilled: dict[int, PartitionWriter] = {}

    def spill_build_partition(p: int, staged: dict[int, list]) -> int:
        """Move partition ``p`` (resident + staged pairs) to its file;
        returns how many staged rows stopped needing memory."""
        writer = spilled.get(p)
        if writer is None:
            writer = spilled[p] = PartitionWriter(manager, f"{label} build p{p}")
        pairs = resident[p]
        if pairs:
            writer.extend(pairs)
            buffer.shrink(len(pairs))
            resident[p] = []
        staged_pairs = staged.pop(p, None)
        if staged_pairs:
            writer.extend(staged_pairs)
            return len(staged_pairs)
        return 0

    try:
        # Phase 1 — partitioned build with eviction before overflow.
        for batch in build_batches:
            staged: dict[int, list] = {}
            for row in batch:
                key = build_key(row)
                if key is None:
                    continue
                value = row if value_of is None else value_of(row)
                p = spill_hash(key) % P
                writer = spilled.get(p)
                if writer is not None:
                    writer.append((key, value))
                else:
                    staged.setdefault(p, []).append((key, value))
            added = sum(len(v) for v in staged.values())
            while added and ctx.buffered_rows + added > limit:
                victim = max(
                    range(P),
                    key=lambda q: len(resident[q]) + len(staged.get(q, ())),
                )
                if not (len(resident[victim]) + len(staged.get(victim, ()))):
                    break  # nothing left to evict; added == 0 next check
                added -= spill_build_partition(victim, staged)
            for p, pairs in staged.items():
                resident[p].extend(pairs)
            if added:
                buffer.grow(added)
    finally:
        close_stream(build_batches)

    # Freeze the resident partitions into one probe table (their key sets
    # are disjoint, so one dict probes them all at in-memory speed).
    table = _table_of_pairs(resident)
    resident.clear()
    resident_rows = buffer.rows  # the frozen table's charge, released below

    # Phase 2 — streamed probe: resident matches emit now, spilled-partition
    # probe rows defer to per-partition files.
    probe_writers: dict[int, PartitionWriter] = {}
    lookup = table.get
    size = ctx.batch_size
    out: list = []
    try:
        for batch in probe_batches:
            for row in batch:
                key = probe_key(row)
                if key is None:
                    continue
                if spilled:
                    p = spill_hash(key) % P
                    if p in spilled:
                        writer = probe_writers.get(p)
                        if writer is None:
                            writer = probe_writers[p] = PartitionWriter(
                                manager, f"{label} probe p{p}"
                            )
                        writer.append(row)
                        continue
                matches = lookup(key)
                if not matches:
                    continue
                if len(matches) == 1:
                    out.append(row + matches[0])
                else:
                    out.extend([row + match for match in matches])
                if len(out) >= size:
                    yield out
                    out = []
    finally:
        close_stream(probe_batches)
    if out:
        yield out

    # The streamed phase is over: drop the resident table and its charge
    # before terminal partitions build (each charges up to the limit, so
    # stacking them on the still-resident table could trip the budget the
    # spill exists to avoid).
    table.clear()
    buffer.shrink(resident_rows)

    # Phase 3 — drain spilled partitions, recursing (re-salted) while a
    # partition's build side still exceeds the working-set limit.
    stack = [
        (spilled[p], probe_writers.get(p), 1) for p in sorted(spilled)
    ]
    while stack:
        build_writer, probe_writer, salt = stack.pop()
        if probe_writer is None or probe_writer.rows == 0:
            # No probe rows can match this partition: drop it unread.
            build_writer.delete()
            if probe_writer is not None:
                probe_writer.delete()
            continue
        # Headroom is what the query's *tracked* working set still allows:
        # downstream breakers may be holding rows of their own.  A partition
        # above it re-partitions; with no headroom at all, splitting cannot
        # help and the terminal build's transient overshoot is accepted.
        headroom = limit - ctx.buffered_rows
        if headroom > 0 and build_writer.rows > headroom and salt <= GRACE_MAX_DEPTH:
            manager.check("merge", f"{label} p:salt{salt}")
            sub_build: dict[int, PartitionWriter] = {}
            sub_probe: dict[int, PartitionWriter] = {}
            for chunk in build_writer.drain():
                for key, value in chunk:
                    q = spill_hash(key, salt) % P
                    writer = sub_build.get(q)
                    if writer is None:
                        writer = sub_build[q] = PartitionWriter(
                            manager, f"{label} build s{salt}p{q}"
                        )
                    writer.append((key, value))
            for chunk in probe_writer.drain():
                for row in chunk:
                    q = spill_hash(probe_key(row), salt) % P
                    if q not in sub_build:
                        continue
                    writer = sub_probe.get(q)
                    if writer is None:
                        writer = sub_probe[q] = PartitionWriter(
                            manager, f"{label} probe s{salt}p{q}"
                        )
                    writer.append(row)
            build_writer.delete()
            probe_writer.delete()
            stack.extend(
                (sub_build[q], sub_probe.get(q), salt + 1)
                for q in sorted(sub_build)
            )
            continue
        # Terminal partition: build in memory (charged), stream its probe.
        count = build_writer.rows
        buffer.grow(count)
        part_table = _table_of_pairs(build_writer.drain())
        build_writer.delete()
        yield from probe_hash_table(probe_writer.drain(), part_table, probe_key, size)
        probe_writer.delete()
        part_table.clear()
        buffer.shrink(count)


def _table_of_pairs(chunks: Iterable[list]) -> dict[Any, list]:
    """``key -> [values]`` from chunks of ``(key, value)`` pairs, in order."""
    table: dict[Any, list] = {}
    for chunk in chunks:
        for key, value in chunk:
            bucket = table.get(key)
            if bucket is None:
                table[key] = [value]
            else:
                bucket.append(value)
    return table


class ChunkSizer:
    """Adaptive flush threshold for expansion-heavy loops.

    Tracks the loop's cumulative input/output rows and re-derives the
    target chunk size from :meth:`ExecutionContext.expansion_batch_size`
    after every observation, so loops whose fan-out balloons output
    batches shrink their in-flight chunks instead of holding
    ``fan-out x batch_size`` rows between flushes.  Its one columnar user
    is :func:`probe_hash_table_columnar`, whose matches are build-row
    tuples until they are transposed; the only operator body still using it
    is ``CsrJoin``'s row body.  Column-backed expansions
    (:func:`expand_columnar`) emit fixed ``ctx.batch_size`` slices.
    """

    __slots__ = ("_ctx", "size", "rows_in", "rows_out")

    def __init__(self, ctx: ExecutionContext):
        self._ctx = ctx
        self.size = ctx.batch_size
        self.rows_in = 0
        self.rows_out = 0

    def observe(self, rows_in: int, rows_out: int) -> None:
        """Record one input batch's observed fan-out and retune the size."""
        self.rows_in += rows_in
        self.rows_out += rows_out
        self.size = self._ctx.expansion_batch_size(self.rows_in, self.rows_out)


# ---------------------------------------------------------------------- #
# columnar kernels
# ---------------------------------------------------------------------- #


def emit_columnar(
    ctx: ExecutionContext, op: "Operator", stream: Iterable[ColumnarBatch]
) -> Iterator[ColumnarBatch]:
    """Columnar counterpart of :func:`emit_batches` (same close guarantee)."""
    try:
        for cb in stream:
            n = len(cb)
            if not n:
                continue
            ctx.emit(n, op)
            yield cb
    finally:
        close_stream(stream)


def filter_columnar(
    batches: Iterable[ColumnarBatch],
    predicate: "Callable[[Sequence, Sequence[int] | None, int], Sequence[int] | None]",
) -> Iterator[ColumnarBatch]:
    """Refine each batch's selection vector by a compiled columnar predicate.

    The predicate returns the input selection object unchanged when every
    visible row passes, in which case the batch itself is forwarded
    (all-selected fast path, no allocation).
    """
    for cb in batches:
        sel = predicate(cb.columns, cb.selection, cb.length)
        if sel is cb.selection:
            yield cb
        elif sel is None or len(sel):
            yield ColumnarBatch(cb.columns, cb.length, sel)


def key_columns(cb: ColumnarBatch, indices: list[int]) -> list:
    """Per-row join keys extracted whole-column-at-a-time.

    Single-column keys are the gathered column itself (``None`` entries are
    SQL NULLs and never join); multi-column keys are tuples, collapsed to
    ``None`` when any part is NULL; no key columns is the key ``()`` for
    every row (a join without an equi conjunct: one bucket).
    """
    if not indices:
        return [()] * len(cb)
    if len(indices) == 1:
        return list(cb.column(indices[0]))
    cols = [cb.column(i) for i in indices]
    return [None if None in parts else parts for parts in zip(*cols)]


def _single_key_dict(cb: ColumnarBatch, key_indices: list[int]):
    """The key column as a ``DictVector`` when a single dictionary-encoded
    key drives this batch, else None (the generic path)."""
    if len(key_indices) != 1:
        return None
    return vector.dict_vector(cb.column_vector(key_indices[0]))


class _DictKeyCache:
    """Per-dictionary memo mapping codes to hash-table state.

    Join kernels keep the hash table keyed by *values* (so partitioned
    builds merge by key and mixed dict/non-dict sides compose), but
    per-row work drops to an integer list index: ``slots[code]`` caches
    whatever the kernel derives from the decoded key (a build bucket, a
    probe match list).  Dictionaries are append-only with stable codes,
    so the memo survives across batches; it re-primes when a batch
    arrives from a different base column (values list identity) and
    extends when the dictionary grew.  ``_MISS`` marks un-derived slots —
    ``None`` is a legitimate cached result (a probe miss).
    """

    __slots__ = ("values", "slots", "derive", "_complete")

    _MISS = object()

    def __init__(self, derive):
        self.values: list | None = None
        self.slots: list = []
        self.derive = derive
        #: Eager-derivation watermark: slots below it were filled by
        #: :meth:`prime_eager`, so a steady-state batch (same dictionary,
        #: unchanged length) re-primes in O(1) instead of rescanning.
        self._complete = 0

    def prime(self, values: list) -> list:
        miss = self._MISS
        if self.values is not values:
            self.values = values
            self.slots = [miss] * len(values)
            self._complete = 0
        elif len(self.slots) < len(values):
            self.slots.extend([miss] * (len(values) - len(self.slots)))
        return self.slots

    def get(self, code: int):
        slot = self.slots[code]
        if slot is self._MISS:
            slot = self.derive(self.values[code])
            self.slots[code] = slot
        return slot

    def prime_eager(self, values: list) -> list:
        """Prime and derive *every* slot up front, so per-row access is a
        plain ``slots[code]`` list index with no Python-level call.  Only
        for side-effect-free ``derive`` functions: eager derivation visits
        dictionary values the batch stream may never contain."""
        slots = self.prime(values)
        n = len(slots)
        if self._complete < n:
            derive = self.derive
            for code in range(self._complete, n):
                slots[code] = derive(values[code])
            self._complete = n
        return slots


def build_hash_table_columnar(
    batches: Iterable[ColumnarBatch],
    key_indices: list[int],
    buffer: Buffer | None,
    keep: list[int] | None = None,
) -> dict[Any, list]:
    """Columnar hash build: key -> [row tuples].

    Keys are extracted column-at-a-time; the stored values are materialized
    row tuples of the ``keep`` columns (all columns when None; ``[]``
    stores ``()``) — the build side is genuinely buffered state, so tuple
    materialization here matches what the memory budget charges.  A
    dictionary-encoded single key skips per-row string hashing: each
    distinct value is interned into the table once and its bucket is
    reached through the code thereafter.  Pass ``buffer=None`` when the
    caller already charged the input's rows.
    """
    table: dict[Any, list] = {}

    def intern_bucket(key: str) -> list:
        bucket = table.get(key)
        if bucket is None:
            bucket = []
            table[key] = bucket
        return bucket

    cache = _DictKeyCache(intern_bucket)
    try:
        for cb in batches:
            if keep is None:
                values = cb.to_rows()
            else:
                kept = [cb.columns[i] for i in keep]
                values = ColumnarBatch(kept, cb.length, cb.selection).to_rows()
            count = 0
            dv = _single_key_dict(cb, key_indices)
            if dv is not None:
                slots = cache.prime(dv.values)
                miss = _DictKeyCache._MISS
                intern = cache.get
                for code, value in zip(dv.codes.tolist(), values):
                    bucket = slots[code]
                    if bucket is miss:
                        bucket = intern(code)
                    bucket.append(value)
                count = len(values)
            else:
                keys = key_columns(cb, key_indices)
                for key, value in zip(keys, values):
                    if key is None:
                        continue
                    bucket = table.get(key)
                    if bucket is None:
                        table[key] = [value]
                    else:
                        bucket.append(value)
                    count += 1
            if buffer is not None:
                buffer.grow(count)
    finally:
        close_stream(batches)
    return table


def merge_hash_tables(shards: Sequence[dict[Any, list]]) -> dict[Any, list]:
    """One table from per-worker build shards, merged in shard order.

    Shards built from consecutive morsels concatenate each key's bucket in
    global row order, so probing the merged table emits exactly what a
    serial build would.
    """
    table = shards[0]
    for shard in shards[1:]:
        for key, bucket in shard.items():
            existing = table.get(key)
            if existing is None:
                table[key] = bucket
            else:
                existing.extend(bucket)
    return table


def probe_hash_table_columnar(
    batches: Iterable[ColumnarBatch],
    table: dict[Any, list],
    key_indices: list[int],
    ctx: ExecutionContext,
) -> Iterator[ColumnarBatch]:
    """Columnar stream probe: probe columns gather, build tuples transpose.

    For each probe batch the key column is extracted at once; matching rows
    are described by a parent-position vector (which probe row each output
    row replicates) plus the matched build tuples, and the output batch is
    assembled column-wise: probe columns are gathered through the parent
    vector, build values are transposed at C speed.  Output is re-chunked
    so joins with high fan-out keep bounded in-flight state.
    """
    lookup = table.get
    sizer = ChunkSizer(ctx)
    # Dictionary-encoded probe keys translate once per distinct value: the
    # probe column's dictionary is remapped onto the build table's buckets
    # (the build-side dictionary remap — ``table.get`` is side-effect free,
    # so every slot derives eagerly).  Each probe batch then resolves as
    # one vectorized mask gather over its codes: rows that miss the build
    # table never reach the Python match loop at all.
    cache = _DictKeyCache(lookup)
    hit_mask = None
    hit_src: list | None = None
    for cb in batches:
        dv = _single_key_dict(cb, key_indices)
        if dv is not None:
            np = vector._np
            slots = cache.prime_eager(dv.values)
            if hit_src is not slots or len(hit_mask) != len(slots):
                hit_mask = np.fromiter(
                    map(bool, slots), dtype=bool, count=len(slots)
                )
                hit_src = slots
            codes = dv.codes
            hits = np.flatnonzero(hit_mask[codes])
            found = zip(hits.tolist(), map(slots.__getitem__, codes[hits].tolist()))
        else:
            # The build never stores a None key, so NULL probe keys miss.
            found = enumerate(map(lookup, key_columns(cb, key_indices)))
        parents: list[int] = []
        builds: list[tuple] = []
        flushed = 0
        for j, matches in found:
            if not matches:
                continue
            if len(matches) == 1:
                parents.append(j)
                builds.append(matches[0])
            else:
                parents.extend([j] * len(matches))
                builds.extend(matches)
            if len(parents) >= sizer.size:
                # Flush mid-batch so high-multiplicity keys cannot
                # balloon in-flight (budget-invisible) assembly state.
                flushed += len(parents)
                yield from chunk_columnar(
                    replicate_columnar(cb, parents, transpose_rows(builds)),
                    sizer.size,
                )
                parents, builds = [], []
        sizer.observe(len(cb), flushed + len(parents))
        if parents:
            yield from chunk_columnar(
                replicate_columnar(cb, parents, transpose_rows(builds)), sizer.size
            )


def transpose_rows(rows: list[tuple]) -> list:
    """Row tuples -> column tuples (C-speed zip); [] for empty/zero-width."""
    if not rows or not rows[0]:
        return []
    return list(zip(*rows))


def replicate_columnar(
    cb: ColumnarBatch, parents: list[int], new_columns: list, carry=None
) -> ColumnarBatch:
    """Expansion assembly: replicate ``cb``'s rows through ``parents`` and
    append ``new_columns``.

    ``parents`` holds, per output row, the position of the visible input
    row it extends; ``new_columns`` are dense sequences aligned with
    ``parents`` (the per-output-row new values).  ``carry`` lists the
    input columns the output keeps, in order (None: all of them): a graph
    operator carries only the variables read above it (the liveness walk,
    :func:`repro.graph.optimizer.carry_live`), so a column nothing reads
    again is never gathered.  The result is a compact batch (no selection
    vector); ndarray inputs stay ndarrays, so chained expansions gather
    natively.
    """
    sel = cb.selection
    raw = parents if sel is None else take(sel, parents)
    columns = cb.columns if carry is None else [cb.columns[i] for i in carry]
    cols = [take(c, raw) for c in columns]
    cols.extend(new_columns)
    return ColumnarBatch(cols, len(parents), None)


def csr_expand_vectors(vertices, offsets, edges):
    """Whole-batch CSR expansion: ``(parents, edge_ids)``.

    ``vertices`` are the bound rowids of one batch (any int sequence).
    Output row ``t`` extends input row ``parents[t]`` with adjacent edge
    ``edge_ids[t]``, in (input row, adjacency) order.  When ``offsets`` /
    ``edges`` are ndarrays this is :func:`~repro.exec.vector.csr_positions`
    plus one fancy-index into the CSR edge array, and returns ndarrays;
    otherwise a Python walk over the typed arrays returns lists of plain
    ints.  Returns None when the batch expands to nothing.
    """
    if not (is_ndarray(offsets) and is_ndarray(edges)):
        parents: list[int] = []
        edge_ids: list[int] = []
        for j, vertex in enumerate(vertices):
            lo, hi = offsets[vertex], offsets[vertex + 1]
            if lo != hi:
                parents.extend([j] * (hi - lo))
                edge_ids.extend(edges[lo:hi])
        return (parents, edge_ids) if parents else None
    expanded = csr_positions(vertices, offsets)
    if expanded is None:
        return None
    parents, positions = expanded
    return parents, edges[positions]


def expand_columnar(
    source: Iterable[ColumnarBatch],
    ctx: ExecutionContext,
    column: int,
    offsets: Sequence[int],
    edges: Sequence[int],
    gathers: Sequence,
    emask=None,
    vmask=None,
    carry=None,
) -> Iterator[ColumnarBatch]:
    """The CSR expansion body of EXPAND_EDGE, the fused EXPAND and the
    predefined CSR_JOIN.

    Each visible row of each ``source`` batch extends, in adjacency order,
    by every edge rowid ``e`` adjacent to its vertex in ``column`` (rowids,
    never NULL) whose ``emask`` entry is set.  The appended columns are
    ``gathers``, each indexed by edge rowid — ``None`` appends ``e``
    itself — and ``vmask`` filters on the first of them (a fused expand's
    far endpoint).  ``emask`` / ``vmask`` are rowid masks
    (:func:`~repro.relational.expr.rowid_mask`), so no predicate shape
    changes how the adjacency is walked.  ``carry`` names the input
    columns each output row keeps (:func:`replicate_columnar`).

    One batch expands at once (:func:`csr_expand_vectors`) and leaves in
    ``ctx.batch_size`` slices whether numpy is on or off: the numpy /
    pure-Python split lives in :func:`csr_expand_vectors` and the
    :mod:`repro.exec.vector` primitives (``passing``, ``take``), so both
    modes emit the same chunks.  Chunks are column-backed, so they are
    never shrunk by fan-out the way a row body's tuple chunks are.
    """
    size = ctx.batch_size
    for cb in source:
        expanded = csr_expand_vectors(cb.column_vector(column), offsets, edges)
        if expanded is None:
            continue
        parents, edge_ids = expanded
        if emask is not None:
            kept = passing(emask, edge_ids)
            if kept is not None:
                parents, edge_ids = take(parents, kept), take(edge_ids, kept)
        new_columns = [edge_ids if g is None else take(g, edge_ids) for g in gathers]
        if vmask is not None:
            kept = passing(vmask, new_columns[0])
            if kept is not None:
                parents = take(parents, kept)
                new_columns = [take(c, kept) for c in new_columns]
        for start in range(0, len(parents), size):
            stop = start + size
            yield replicate_columnar(
                cb, parents[start:stop], [c[start:stop] for c in new_columns], carry
            )


def degree_products(offsets_a, offsets_b) -> int:
    """``Σ_v deg_a(v) · deg_b(v)`` over two CSR offset arrays of one vertex
    relation — the number of two-edge walks through a shared middle."""
    if is_ndarray(offsets_a) and is_ndarray(offsets_b):
        np = vector._np
        return int(np.dot(np.diff(offsets_a), np.diff(offsets_b)))
    return sum(
        (a1 - a0) * (b1 - b0)
        for a0, a1, b0, b1 in zip(offsets_a, offsets_a[1:], offsets_b, offsets_b[1:])
    )


class WalkStep(NamedTuple):
    """One edge of a pattern walk (:func:`walk_count`).

    From the bound vertices in column ``source``, follow the CSR adjacency
    ``offsets`` / ``edges`` to the far endpoints ``far`` (indexed by edge
    rowid).  A new vertex becomes the next column (``target`` None); a
    closing edge keeps the rows whose far endpoint equals column ``target``.
    """

    source: int
    offsets: Sequence[int]
    edges: Sequence[int]
    far: Sequence[int]
    target: int | None


#: Bound on the rows one walk step expands at once: a step's input is cut
#: into slices of at most this many rows, so no array exceeds it times the
#: largest degree.
WALK_ROWS = 4096


def walk_count(starts: Sequence[int], steps: Sequence[WalkStep], limit: int = WALK_ROWS) -> int:
    """How many rows a walk from ``starts`` (column 0) along ``steps``
    reaches: the homomorphic matches of a pattern whose edges ``steps``
    visit in an order where each leaves an already-bound vertex.

    Every step is one :func:`csr_expand_vectors` over at most ``limit``
    rows; a closing edge is an equality filter on the bound column.  Numpy
    array passes when the adjacency views are ndarrays, Python lists of
    plain ints otherwise.
    """
    if steps and is_ndarray(steps[0].offsets):
        starts = vector.as_index_array(starts)
    return _walk([starts], steps, limit)


def _walk(columns: list, steps: Sequence[WalkStep], limit: int) -> int:
    rows = len(columns[0])
    if not steps or not rows:
        return rows
    if rows > limit:
        return sum(
            _walk([column[lo : lo + limit] for column in columns], steps, limit)
            for lo in range(0, rows, limit)
        )
    step = steps[0]
    expanded = csr_expand_vectors(columns[step.source], step.offsets, step.edges)
    if expanded is None:
        return 0
    parents, edge_ids = expanded
    if step.target is None:
        if len(steps) == 1:
            return len(parents)
        columns = [take(column, parents) for column in columns]
        columns.append(take(step.far, edge_ids))
    else:
        hits = equal_positions(
            take(step.far, edge_ids), take(columns[step.target], parents)
        )
        if len(steps) == 1:
            return len(hits)
        columns = [take(column, take(parents, hits)) for column in columns]
    return _walk(columns, steps[1:], limit)


#: Bound on the (bound row, adjacent edge) pairs EXPAND_INTERSECT reads at
#: once, as a multiple of ``ctx.batch_size``: an input batch is cut into row
#: slices whose summed leg degrees stay within about this many batches (a
#: single row above it is a slice of its own).  Only the slice's smallest
#: leg materializes its pairs; the cut counts every leg so that slices, and
#: with them output chunks, do not depend on which leg drives.
INTERSECT_PAIRS_PER_BATCH = 16


class IntersectLeg(NamedTuple):
    """One leg of an EXPAND_INTERSECT star, resolved for execution.

    ``column`` is the bound leaf's position in the input batch; ``offsets``
    is the leaf's CSR offsets — a vector view, so an ndarray exactly when
    numpy is on; ``view`` is the adjacency's neighbor-ordered
    :class:`~repro.graph.index.KeyView` in the same domain; ``mask`` is the
    edge predicate's rowid mask (None: no predicate) and ``kept`` whether
    the leg's edge rowid is an output column.
    """

    column: int
    offsets: Sequence[int]
    view: Any
    mask: Any
    kept: bool


def intersect_expand(
    source: Iterable[ColumnarBatch],
    ctx: ExecutionContext,
    legs: Sequence[IntersectLeg],
    radix: int,
    vmask,
    carry=None,
) -> Iterator[ColumnarBatch]:
    """EXPAND_INTERSECT: close a star on every input row by intersecting
    its legs' neighbor sets, the smallest set driving and the others
    probed — a worst-case-optimal join step.

    A (bound vertex, root) pair is one integer key ``vertex * radix + root``;
    ``radix`` is the root label's pinned vertex extent, which bounds every
    far rowid.  Each leg's :class:`~repro.graph.index.KeyView` lists its
    adjacency in neighbor order with those keys sorted, so no key is ever
    sorted here.  Per row slice, the leg with the smallest summed degree
    drives: only its bound vertices CSR-expand, into view positions whose
    roots are one gather from the view's far-endpoint array; the pairs
    come out in (row, root) order with parallel edges adjacent — its runs.
    The driver gathers its edge rowids only when its edge mask or its kept
    edge column reads them.  Every other leg is probed in its view: the
    run ``[lo, lo + count)`` of a pair's key holds that leg's parallel
    edges to the root.  A probe key is one gather of the slice's bound
    vertices, scaled by the radix once per slice, plus the root.  A dense
    view answers each probe with one gather from its direct-address slot
    table (plus one from its run lengths when it has parallel edges); a
    sparse one, whose table would not be linear in its edge count, is
    binary-searched (one ``searchsorted`` plus an equality test when it
    has no parallel edges).  Edge masks filter the driver's pairs and
    the probed runs; ``vmask`` (the root's vertex mask, None without a
    predicate) filters the driver's candidates before any probe.

    A common pair's multiplicity is the product of its run lengths.  Output
    row ``t`` of a pair's block takes, from leg ``i``'s run, the edge at
    ``(t // stride_i) % count_i`` with ``stride_i`` the product of the later
    legs' counts — ``itertools.product`` order over the runs, which hold
    their edges in edge-rowid order.  When every pair is one row (no leg
    keeps a run longer than one edge), the output chunks are plain slices
    of the candidates.  Each output row carries the input columns
    ``carry`` lists (:func:`replicate_columnar`), then the kept legs' edge
    rowids, then the root.

    Output rows follow (input row, root rowid) order, in chunks of
    ``ctx.batch_size`` rows.  An input batch is processed in row slices cut
    on the cumulative degrees of all legs (:data:`INTERSECT_PAIRS_PER_BATCH`),
    so a batch of hub vertices never holds more than a fixed multiple of
    the batch size in pairs at once.  One body runs with numpy on or off:
    the numpy / pure-Python split lives in the :mod:`repro.exec.vector`
    primitives it is built from (``csr_positions``, ``degree_sums``,
    ``cut_points``, ``key_runs``, ``product_positions``, ...), so both
    modes emit the same chunks.
    """
    size = ctx.batch_size
    limit = INTERSECT_PAIRS_PER_BATCH * size
    for cb in source:
        if not len(cb):
            continue
        bound = [cb.column_vector(leg.column) for leg in legs]
        reach = [degree_sums(leg.offsets, vertices) for leg, vertices in zip(legs, bound)]
        bounds = cut_points(reach, limit)
        for first, last in zip(bounds, bounds[1:]):
            work = [sums[last] - sums[first] for sums in reach]
            driver = work.index(min(work))
            if work[driver]:
                yield from _intersect_slice(
                    cb,
                    legs,
                    [v[first:last] for v in bound],
                    first,
                    driver,
                    radix,
                    vmask,
                    size,
                    carry,
                )


def _intersect_slice(cb, legs, bound, first, driver, radix, vmask, size, carry):
    """Intersect the batch rows from ``first`` on whose bound vertices per
    leg are ``bound``, ``legs[driver]`` expanding and the others probed,
    and emit the rows (see :func:`intersect_expand`)."""
    leg = legs[driver]
    view = leg.view
    expanded = csr_positions(bound[driver], leg.offsets)
    if expanded is None:
        return
    parents, positions = expanded
    edge_ids = None
    if leg.mask is not None or leg.kept:
        edge_ids = take(view.edges, positions)
    if leg.mask is not None:
        kept = passing(leg.mask, edge_ids)
        if kept is not None:
            if not len(kept):
                return
            parents, positions = take(parents, kept), take(positions, kept)
            edge_ids = take(edge_ids, kept)
    roots = take(view.far, positions)
    # The candidates: the driver's distinct (slice row, root) pairs, in
    # order.  Per leg, runs ``(starts, counts, edges)`` aligned with them:
    # a candidate's edges are ``edges[starts:starts + counts]``; counts
    # None means one edge each, and a trimmed leg keeps no starts.
    runs = [None] * len(legs)
    if view.distinct:
        starts = vector.index_vector(len(roots)) if leg.kept else None
        runs[driver] = (starts, None, edge_ids)
    else:
        starts, counts = sorted_runs(pair_keys(radix_keys(parents, radix), roots))
        runs[driver] = (starts, counts, edge_ids)
        parents, roots = take(parents, starts), take(roots, starts)

    def narrow(selected):
        nonlocal parents, roots
        parents, roots = take(parents, selected), take(roots, selected)
        for i, run in enumerate(runs):
            if run is not None:
                starts, counts, edges = run
                runs[i] = (
                    None if starts is None else take(starts, selected),
                    None if counts is None else take(counts, selected),
                    edges,
                )
        return len(parents)

    if vmask is not None:
        kept = passing(vmask, roots)
        if kept is not None and not narrow(kept):
            return
    for i, leg in enumerate(legs):
        if i == driver:
            continue
        view = leg.view
        probes = pair_keys(take(radix_keys(bound[i], radix), parents), roots)
        hits, lo, counts = key_runs(view.keys, probes, view.distinct, view.slots, view.run_lengths)
        if hits is not None and not narrow(hits):
            return
        edges = view.edges
        if leg.mask is not None:
            if counts is None:
                kept = passing(leg.mask, take(edges, lo))
                if kept is not None:
                    lo = take(lo, kept)
            else:
                # Mask every run's edges and re-run what is left; the
                # leg's runs then index the compacted survivors.
                owners, positions = run_positions(lo, counts)
                kept = passing(leg.mask, take(edges, positions))
                if kept is not None:
                    owners, edges = take(owners, kept), take(edges, take(positions, kept))
                    lo, counts = sorted_runs(owners)
                    kept = take(owners, lo)
            if kept is not None and not narrow(kept):
                return
        runs[i] = (lo, counts, edges)
    if first:
        # Slice rows -> batch rows.
        parents = take(vector.index_vector(first + len(bound[driver]))[first:], parents)
    kept_runs = [run for run, leg in zip(runs, legs) if leg.kept]
    if all(counts is None for _, counts, _ in runs):
        # Every candidate is one row: each chunk is a slice of them.
        for lo in range(0, len(roots), size):
            hi = lo + size
            new_columns = [take(edges, starts[lo:hi]) for starts, _, edges in kept_runs]
            new_columns.append(roots[lo:hi])
            yield replicate_columnar(cb, parents[lo:hi], new_columns, carry)
        return
    factors = [(starts if leg.kept else None, counts) for (starts, counts, _), leg in zip(runs, legs)]
    for k, positions in product_positions(factors, len(roots), size):
        new_columns = [take(edges, at) for (_, _, edges), at in zip(kept_runs, positions)]
        new_columns.append(take(roots, k))
        yield replicate_columnar(cb, take(parents, k), new_columns, carry)


class BranchStep(NamedTuple):
    """One edge of a stripped pattern branch, resolved for execution.

    From a bound vertex, follow the CSR adjacency ``offsets`` / ``edges`` to
    the far endpoints ``far`` (indexed by edge rowid) — vector views, so
    ndarrays exactly when numpy is on.  ``emask`` / ``vmask`` are the rowid
    masks of the edge's and the far vertex's predicates (None: no
    predicate); ``steps`` are the far vertex's own sub-branches, each of
    which a reached vertex must satisfy too; ``reduce`` holds one
    ``(func, values)`` pair per attribute of the far vertex the branch
    reduces — MIN or MAX and the attribute column, indexed by rowid (see
    :func:`branch_reduce`).
    """

    offsets: Sequence[int]
    edges: Sequence[int]
    far: Sequence[int]
    emask: Any
    vmask: Any
    steps: tuple
    reduce: tuple = ()


class _Memo(NamedTuple):
    """A step's per-vertex memo: the lazy mask of the vertices it leaves
    from that have a match, and one value store per reduced attribute of
    the step's subtree (``funcs``, the step's own attributes first)."""

    mask: LazyMask
    funcs: list
    stores: list


def branch_reduce(
    source: Iterable[ColumnarBatch],
    column: int,
    steps: Sequence[BranchStep],
) -> Iterator[ColumnarBatch]:
    """Keep the rows whose bound vertex in ``column`` (the *anchor*) has at
    least one match of every branch in ``steps``, and append one column per
    reduced attribute: the least (MIN) or greatest (MAX) value of that
    attribute over the anchor's matches of its branch.

    This is per-anchor aggregation in one semiring per attribute: (or,
    and) decides whether a branch matches at all — the EXISTS check, the
    instance with nothing to reduce, which appends nothing and passes the
    input's rows on unchanged — and (min | max, ×) reduces a value.  Every
    branch keeps its memo per distinct vertex (:func:`_memo`): a
    :class:`~repro.exec.vector.LazyMask` of the vertices with a match plus
    one value store per reduced attribute, so each batch decides only the
    distinct anchors no earlier batch asked about, and each branch sees
    only the anchors the earlier ones accepted.  A branch CSR-expands its
    undecided vertices, filters the expansion through the edge mask, then
    through the far vertex's mask and its sub-branches' own memos, keeps
    the vertices with a surviving edge and reduces the far vertices' values
    per vertex with the MIN / MAX rules of GROUP BY
    (:func:`~repro.exec.grouping.segment_extremes`: NULLs skipped, strings
    by value, NaN above every number), in the values' own domain.  Each far vertex is decided
    once per query, whichever anchor reaches it.  The memos live in this
    generator's own state, so concurrent morsel chains never share them.
    The same steps run over ndarrays with numpy on and over lists of plain
    ints off (the :mod:`repro.exec.vector` primitives).
    """
    memos = list(map(_memo, steps))
    masks = [memo.mask for memo in memos]
    stores = [store for memo in memos for store in memo.stores]
    for cb in source:
        kept = _passing_all(masks, cb.column_vector(column))
        if kept is not None:
            if not len(kept):
                continue
            cb = cb.take(kept)
        if stores:
            anchors = cb.column_vector(column)
            values = [take(store, anchors) for store in stores]
            cb = ColumnarBatch(cb.dense().columns + values, len(anchors), None)
        yield cb


def _memo(step: BranchStep) -> _Memo:
    """``step``'s memo over the vertices it leaves from (its CSR covers
    every rowid it can be asked about)."""
    subs = list(map(_memo, step.steps))
    funcs = [func for func, _ in step.reduce] + [f for sub in subs for f in sub.funcs]
    likes = [values for _, values in step.reduce] + [s for sub in subs for s in sub.stores]
    length = len(step.offsets) - 1
    stores = [value_store(like, length) for like in likes]
    masks = [] if step.vmask is None else [step.vmask]
    masks += [sub.mask for sub in subs]
    reach = partial(_reach, step, masks, subs, funcs, stores)
    return _Memo(LazyMask(reach, length), funcs, stores)


def _passing_all(masks, rowids):
    """Positions of ``rowids`` every mask passes, each mask asked only
    about the survivors of the earlier ones; None when all pass."""
    kept = None
    for mask in masks:
        hits = passing(mask, rowids if kept is None else take(rowids, kept))
        if hits is not None:
            kept = hits if kept is None else take(kept, hits)
            if not len(kept):
                break
    return kept


def _reach(step: BranchStep, masks, subs, funcs, stores, vertices):
    """Positions of ``vertices`` with at least one edge of ``step`` that
    passes its edge mask and reaches a far vertex every one of ``masks``
    passes; each such vertex's MIN / MAX of every reduced attribute over
    those far vertices goes into ``stores``."""
    if step.emask is None and not masks and not funcs:
        return nonempty_slices(step.offsets, vertices)
    expanded = csr_expand_vectors(vertices, step.offsets, step.edges)
    if expanded is None:
        return []
    parents, edge_ids = expanded
    if step.emask is not None:
        kept = passing(step.emask, edge_ids)
        if kept is not None:
            parents, edge_ids = take(parents, kept), take(edge_ids, kept)
    far = take(step.far, edge_ids)
    kept = _passing_all(masks, far)
    if kept is not None:
        parents, far = take(parents, kept), take(far, kept)
    # ``parents`` ascend, so each vertex's surviving edges are one run.
    starts, counts = sorted_runs(parents)
    positions = take(parents, starts)
    if funcs and len(positions):
        values = [take(column, far) for _, column in step.reduce]
        values += [take(store, far) for sub in subs for store in sub.stores]
        codes = run_positions(starts, counts)[0]
        rowids = take(vertices, positions)
        for func, store, column in zip(funcs, stores, values):
            scatter(store, rowids, segment_extremes(func, column, codes, counts))
    return positions


def chunk_columnar(cb: ColumnarBatch, size: int) -> Iterator[ColumnarBatch]:
    """Split an oversized batch into <= ``size``-row chunks (zero-copy)."""
    n = len(cb)
    if n <= size:
        if n:
            yield cb
        return
    for start in range(0, n, size):
        yield cb.take(range(start, min(start + size, n)))


def rows_to_columnar(
    batches: Iterable[Batch],
) -> Iterator[ColumnarBatch]:
    """Adapt a row-batch stream to the columnar protocol (the mirror of
    :func:`repro.exec.operator.to_rows`; same close guarantee as
    :func:`emit_batches`)."""
    try:
        for batch in batches:
            if batch:
                yield ColumnarBatch.from_rows(batch)
    finally:
        close_stream(batches)
