"""Spill-to-disk out-of-core execution: temp-file lifecycle + serializer.

The memory budget is, by default, a cliff: sort / hash-build / aggregation
buffers trip :class:`~repro.errors.OutOfMemoryError` at the limit, which
*is* the paper's reproduction (the QC3 / IC3-1 OOM entries) and stays
byte-exact.  Arming spill turns the budget into a working-set knob: the
pipeline breakers hash-partition their buffered state and move cold
partitions to temp files, recursing partition by partition on drain, so
queries degrade gracefully instead of dying one row past the cliff.

Arming is opt-in and resolves like every other lifecycle knob (explicit
value wins, then environment)::

    execute_plan(plan, spill=True)                    # temp dir, threshold = budget
    execute_plan(plan, spill=SpillConfig(directory="/fast-ssd", threshold_rows=100_000))
    REPRO_SPILL_DIR=/fast-ssd REPRO_SPILL_THRESHOLD=100000  # env arming

``False`` disarms regardless of environment (how the OOM-pinning tests
keep the paper's trip points exact under the CI spill leg).  Unarmed
execution pays a single ``ctx.spill is None`` test per breaker — the same
zero-cost contract the cancellation and fault hooks honor.

Two layers live here:

* :class:`SpillManager` — owns one query's temp-file lifecycle: a lazily
  created per-query directory, thread-safe file allocation (parallel
  workers spill independently), idempotent :meth:`SpillManager.close`
  that reaps every file, and a process-exit sweep (``atexit``) that
  removes directories of managers a crashed path never closed.  Managers
  are created and closed by ``open_plan`` in the same
  deterministic-teardown ``finally`` cascade that releases buffers,
  so no temp files survive success, failure, cancellation, or injected
  disk faults.
* the **typed partition serializer** — :class:`SpillFile` frames.  Row
  frames pickle lists of row tuples; batch frames encode a
  :class:`~repro.exec.vector.ColumnarBatch` column by column, keeping
  typed representations typed: ``array.array`` columns round-trip as
  (typecode, raw buffer), ndarray columns as (dtype, raw buffer),
  dictionary columns as encoded codes plus their value dictionary — so a
  spilled batch deserializes loss-free, NULLs/NaNs included, without
  widening to Python objects.  Aggregation partials round-trip through
  state frames that substitute a pickle-stable marker for the identity
  :data:`~repro.exec.grouping.MISSING` sentinel.

Disk faults: every write/read/merge funnels through
:meth:`SpillManager.check`, the ``spill`` site of the fault harness
(``REPRO_FAULTS="kind=disk,site=spill"`` injects ``ENOSPC``), so unwind
paths of out-of-core execution are testable like every other boundary.
"""

from __future__ import annotations

import atexit
import os
import pickle
import shutil
import tempfile
import threading
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator

from repro import settings
from repro.exec import vector
from repro.exec.grouping import MISSING
from repro.exec.vector import ColumnarBatch, DictVector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.context import ExecutionContext

__all__ = [
    "SpillConfig",
    "SpillManager",
    "SpillFile",
    "PartitionWriter",
    "resolve_spill",
    "spill_hash",
    "encode_batch",
    "decode_batch",
]

#: Rows a PartitionWriter accumulates before flushing one frame to disk.
#: In-flight (uncharged) staging, like the one batch every streaming
#: operator holds; kept small so resident spill state stays a constant.
WRITE_BUFFER_ROWS = 256


@dataclass
class SpillConfig:
    """Where and when a query may spill.

    ``directory`` roots the per-query temp directory (None = the system
    temp dir); ``threshold_rows`` is the per-buffer row count above which
    a breaker moves state to disk (None = the query's
    ``memory_budget_rows``, i.e. spill exactly instead of OOMing).
    """

    directory: str | None = None
    threshold_rows: int | None = None


def resolve_spill(value: Any = None) -> SpillConfig | None:
    """Resolve the effective spill config: explicit value wins, then env.

    ``None`` reads ``REPRO_SPILL_DIR`` / ``REPRO_SPILL_THRESHOLD``
    (neither set = disarmed, the default); ``False`` disarms regardless of
    the environment; ``True`` arms with defaults; a string is a spill
    directory; an int is a threshold; a :class:`SpillConfig` passes
    through.
    """
    if value is None:
        env = settings.current()
        if env.spill_dir is None and env.spill_threshold is None:
            return None
        return SpillConfig(env.spill_dir, env.spill_threshold)
    if value is False:
        return None
    if value is True:
        return SpillConfig()
    if isinstance(value, str):
        return SpillConfig(directory=value)
    if isinstance(value, int):
        return SpillConfig(threshold_rows=value)
    if isinstance(value, SpillConfig):
        return value
    raise TypeError(f"cannot resolve a spill config from {value!r}")


def spill_hash(key: Any, salt: int = 0) -> int:
    """Deterministic-per-process partition hash of one (canonical) key.

    Recursive grace-join / grouping partitioning re-salts so an oversized
    partition actually splits on the next level instead of mapping every
    key back to itself.
    """
    return hash((salt, key))


# --------------------------------------------------------------------- #
# process-exit sweep guard
# --------------------------------------------------------------------- #

_live_lock = threading.Lock()
_live_managers: "set[SpillManager]" = set()


def _sweep_live_managers() -> None:  # pragma: no cover - exercised via subprocess
    """Remove every live manager's directory at interpreter exit.

    Normal paths close managers in ``finally`` cascades; this guard covers
    crash paths (e.g. ``os._exit``-adjacent teardown, a generator the GC
    never finalized) so no temp directories outlive the process.
    """
    with _live_lock:
        managers = list(_live_managers)
    for manager in managers:
        manager.close()


atexit.register(_sweep_live_managers)


class SpillManager:
    """Owns one query's spill-file lifecycle.

    The temp directory is created lazily on the first file, so an
    armed-but-idle query touches the filesystem not at all.  File
    allocation and frame appends are thread-safe: parallel workers spill
    independently through one shared manager.  :meth:`close` is
    idempotent and reaps everything; the module's ``atexit`` sweep closes
    managers that crash paths never reached.
    """

    def __init__(self, config: SpillConfig | None = None):
        self.config = config or SpillConfig()
        self._lock = threading.Lock()
        self._dir: str | None = None
        self._counter = 0
        self._files: list[SpillFile] = []
        self._closed = False
        self._ctx: "ExecutionContext | None" = None
        self.files_created = 0
        self.bytes_written = 0
        with _live_lock:
            _live_managers.add(self)

    @property
    def threshold_rows(self) -> int | None:
        return self.config.threshold_rows

    @property
    def directory(self) -> str | None:
        """The per-query temp directory (None until the first file)."""
        return self._dir

    def bind(self, ctx: "ExecutionContext") -> "SpillManager":
        """Attach the owning context so spill I/O sees its fault hooks."""
        self._ctx = ctx
        return self

    def check(self, point: str, label: str) -> None:
        """Fault hook guarding one spill I/O: ``point`` is ``write`` /
        ``read`` / ``merge``; armed ``disk`` faults raise ``ENOSPC`` here."""
        ctx = self._ctx
        if ctx is not None and ctx.faults is not None:
            ctx.faults.on_spill(ctx, point, label)

    def create_file(self, label: str) -> "SpillFile":
        """Allocate one spill file (thread-safe)."""
        with self._lock:
            if self._closed:
                raise RuntimeError("spill manager is closed")
            if self._dir is None:
                root = self.config.directory
                if root is not None:
                    os.makedirs(root, exist_ok=True)
                self._dir = tempfile.mkdtemp(prefix="repro-spill-", dir=root)
            self._counter += 1
            self.files_created += 1
            path = os.path.join(self._dir, f"part-{self._counter:05d}.bin")
        spill_file = SpillFile(self, path, label)
        with self._lock:
            self._files.append(spill_file)
        return spill_file

    def live_files(self) -> int:
        """Spill files currently on disk (forensics for the leak tests)."""
        with self._lock:
            return sum(1 for f in self._files if not f.deleted)

    def close(self) -> None:
        """Close every file handle and remove the temp directory.

        Idempotent; called from the same ``finally`` cascade that releases
        buffers, and from the process-exit sweep for crash paths.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            files = list(self._files)
            directory = self._dir
        for spill_file in files:
            spill_file._close_handles()
            spill_file.deleted = True  # rmtree below reaps them wholesale
        if directory is not None:
            shutil.rmtree(directory, ignore_errors=True)
        with _live_lock:
            _live_managers.discard(self)


class SpillFile:
    """One append-only spill file of tagged, framed partitions.

    Frames are self-describing: row frames (pickled lists of row tuples),
    batch frames (typed columnar encoding, see :func:`encode_batch`), and
    state frames (aggregation partials with the ``MISSING`` sentinel made
    pickle-stable).  Appends from parallel workers serialize under a
    per-file lock; reads are sequential over the frames in append order.
    """

    __slots__ = ("manager", "path", "label", "rows_written", "deleted", "_lock", "_handle")

    def __init__(self, manager: SpillManager, path: str, label: str):
        self.manager = manager
        self.path = path
        self.label = label
        self.rows_written = 0
        self.deleted = False
        self._lock = threading.Lock()
        self._handle = None

    # -- writing -------------------------------------------------------- #

    def _append(self, payload: bytes, rows: int) -> None:
        self.manager.check("write", self.label)
        with self._lock:
            if self.deleted:
                raise RuntimeError(f"spill file {self.path} was deleted")
            if self._handle is None:
                self._handle = open(self.path, "ab")
            self._handle.write(payload)
            self.rows_written += rows
        self.manager.bytes_written += len(payload)

    def append_rows(self, rows: list) -> None:
        """Append one row frame (a list of row tuples)."""
        if not rows:
            return
        self._append(pickle.dumps(("R", rows), protocol=pickle.HIGHEST_PROTOCOL), len(rows))

    def append_batch(self, batch: ColumnarBatch) -> None:
        """Append one typed batch frame (loss-free columnar encoding)."""
        if not len(batch):
            return
        self._append(
            pickle.dumps(("B", encode_batch(batch)), protocol=pickle.HIGHEST_PROTOCOL),
            len(batch),
        )

    def append_state(self, keys: list, cells: list) -> None:
        """Append one aggregation-state frame: per-group keys plus the
        per-aggregate partial cell lists (``MISSING`` made pickle-stable)."""
        if not keys:
            return
        payload = ("S", keys, [_encode_cells(c) for c in cells])
        self._append(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL), len(keys))

    # -- reading -------------------------------------------------------- #

    def _frames(self) -> Iterator[tuple]:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
        self.manager.check("read", self.label)
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb") as handle:
            while True:
                try:
                    yield pickle.load(handle)
                except EOFError:
                    return

    def read_rows(self) -> Iterator[list]:
        """Yield row lists back, frame by frame, in append order (batch
        frames decode through the row boundary)."""
        for frame in self._frames():
            if frame[0] == "R":
                yield frame[1]
            elif frame[0] == "B":
                yield decode_batch(frame[1]).to_rows()
            else:  # pragma: no cover - guarded by the writers
                raise ValueError(f"unexpected spill frame tag {frame[0]!r}")

    def read_batches(self) -> Iterator[ColumnarBatch]:
        """Yield columnar batches back, typed columns still typed."""
        for frame in self._frames():
            if frame[0] == "B":
                yield decode_batch(frame[1])
            elif frame[0] == "R":
                yield ColumnarBatch.from_rows(frame[1])
            else:  # pragma: no cover - guarded by the writers
                raise ValueError(f"unexpected spill frame tag {frame[0]!r}")

    def read_states(self) -> Iterator[tuple[list, list]]:
        """Yield ``(keys, cells)`` aggregation-state frames back."""
        for frame in self._frames():
            if frame[0] != "S":  # pragma: no cover - guarded by the writers
                raise ValueError(f"unexpected spill frame tag {frame[0]!r}")
            yield frame[1], [_decode_cells(c) for c in frame[2]]

    def delete(self) -> None:
        """Remove the file early (its partition has been fully drained)."""
        self._close_handles()
        self.deleted = True
        try:
            os.unlink(self.path)
        except OSError:
            pass

    def _close_handles(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


class PartitionWriter:
    """Buffered appender for one spill partition.

    Stages up to :data:`WRITE_BUFFER_ROWS` items in memory (in-flight,
    uncharged — the same contract as a streaming operator's one batch in
    flight) and flushes them as one frame; the backing file is allocated
    lazily so partitions that never receive a row never touch disk.
    """

    __slots__ = ("manager", "label", "kind", "file", "_pending", "rows")

    def __init__(self, manager: SpillManager, label: str, kind: str = "rows"):
        self.manager = manager
        self.label = label
        self.kind = kind
        self.file: SpillFile | None = None
        self._pending: list = []
        self.rows = 0

    def append(self, item: Any) -> None:
        self._pending.append(item)
        self.rows += 1
        if len(self._pending) >= WRITE_BUFFER_ROWS:
            self.flush()

    def extend(self, items: list) -> None:
        self._pending.extend(items)
        self.rows += len(items)
        if len(self._pending) >= WRITE_BUFFER_ROWS:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        if self.file is None:
            self.file = self.manager.create_file(self.label)
        self.file.append_rows(self._pending)
        self._pending = []

    def drain(self) -> Iterator[list]:
        """Flush and yield every appended item back, in append order."""
        self.flush()
        if self.file is not None:
            yield from self.file.read_rows()

    def delete(self) -> None:
        self._pending = []
        if self.file is not None:
            self.file.delete()
            self.file = None


# --------------------------------------------------------------------- #
# typed columnar serializer
# --------------------------------------------------------------------- #


class _MissingToken:
    """Pickle-stable stand-in for the identity MISSING sentinel.

    ``MISSING = object()`` compares by identity, which a pickle round-trip
    would silently break (an unpickled ``object()`` is a *different*
    object, so MIN/MAX merges would treat empty partials as real values).
    The encoder substitutes this *class* — classes pickle by reference, so
    identity survives — and the decoder restores the sentinel.
    """


def _encode_cells(cells: list) -> list:
    if any(cell is MISSING for cell in cells):
        return [_MissingToken if cell is MISSING else cell for cell in cells]
    return cells


def _decode_cells(cells: list) -> list:
    return [MISSING if cell is _MissingToken else cell for cell in cells]


def encode_batch(batch: ColumnarBatch) -> tuple:
    """Encode one batch, keeping typed columns typed.

    ``array.array`` → ``("a", typecode, raw bytes)``; ndarray →
    ``("n", dtype str, raw bytes)``; dictionary vectors → ``("d", codes,
    values)`` with the codes themselves typed-encoded; everything else
    (plain lists with NULLs/NaNs, object columns) pickles as
    ``("p", list)``.  The batch is compacted first so selection vectors
    never serialize unreferenced backing rows.
    """
    compact = batch.compact()
    return (
        [_encode_column(column) for column in compact.columns],
        len(compact),
    )


def _encode_column(column: Any) -> tuple:
    if isinstance(column, array):
        return ("a", column.typecode, column.tobytes())
    if isinstance(column, DictVector):
        return ("d", _encode_column(column.codes), list(column.values))
    if vector.is_ndarray(column):
        if column.dtype.kind in "biuf":
            return ("n", column.dtype.str, column.tobytes())
        # Object / string ndarrays carry Python values; keep them exact.
        return ("p", column.tolist())
    return ("p", list(column))


def decode_batch(encoded: tuple) -> ColumnarBatch:
    """Decode :func:`encode_batch` output back into a columnar batch."""
    columns, length = encoded
    return ColumnarBatch([_decode_column(c) for c in columns], length)


def _decode_column(encoded: tuple) -> Any:
    tag = encoded[0]
    if tag == "a":
        column = array(encoded[1])
        column.frombytes(encoded[2])
        return column
    if tag == "d":
        codes = _decode_column(encoded[1])
        values = encoded[2]
        return DictVector(codes, values, {v: i for i, v in enumerate(values)})
    if tag == "n":
        np = vector._np
        if np is not None:
            return np.frombuffer(encoded[2], dtype=encoded[1]).copy()
        # Written with numpy, read without (``set_numpy_enabled(False)``
        # mid-process): rebuild through the equivalent typed buffer.
        typecode = {"<i8": "q", "<f8": "d"}.get(encoded[1])
        if typecode is None:
            raise ValueError(
                f"cannot decode ndarray column of dtype {encoded[1]!r} without numpy"
            )
        column = array(typecode)
        column.frombytes(encoded[2])
        return column
    if tag == "p":
        return encoded[1]
    raise ValueError(f"unknown spill column tag {tag!r}")
