"""Process-level memory governor: per-query budget leases from a global pool.

The executor's memory budget has always been *per query*: each
:class:`~repro.exec.context.ExecutionContext` carries its own
``memory_budget_rows`` cliff, calibrated so the paper's OOM entries
(RelGoNoEI on QC3, Kùzu on IC3-1) trip exactly.  A serving tier runs many
queries at once, and the box has one memory, so per-query budgets must be
*leased* from a process-global pool — that admission-control brick is this
module.

Design constraints, in order:

1. **Default config is the identity.**  The default governor is unbounded:
   every lease is granted immediately with exactly the requested per-query
   budget, so single-query semantics — and the paper's OOM trip points —
   are byte-exact with or without the governor in the call path.
2. **Release is guaranteed by teardown.**  ``open_plan`` releases the
   lease in the same ``finally`` that closes the operator stream, so a
   cancelled, timed-out, faulted, or abandoned query returns its budget
   to the pool deterministically (not at GC).
3. **Admission is explicit.**  A bounded governor either grants the lease,
   waits up to an admission timeout for running queries to finish, or
   raises :class:`~repro.errors.AdmissionError` — it never silently shrinks
   a request.

A bounded pool is built explicitly — ``MemoryGovernor(total_rows=...,
admission_timeout=...)`` handed to ``Database(governor=)``,
``execute_plan(governor=)`` or :func:`set_global_governor`.
"""

from __future__ import annotations

import threading
import time

from repro.errors import AdmissionError

__all__ = [
    "MemoryGovernor",
    "MemoryLease",
    "global_governor",
    "set_global_governor",
    "resolve_governor",
]


class MemoryLease:
    """A granted slice of the governor's pool; release is idempotent.

    ``budget_rows`` is the per-query budget the executing context should
    run under (``None`` = unlimited, exactly as a caller-passed
    ``memory_budget_rows=None`` behaves today).  ``charged_rows`` is what
    the lease counts against the pool — zero for unlimited requests under
    an unbounded governor, so observability never distorts admission.
    """

    __slots__ = ("budget_rows", "charged_rows", "label", "_governor", "_released")

    def __init__(
        self,
        governor: "MemoryGovernor",
        budget_rows: int | None,
        charged_rows: int,
        label: str,
    ):
        self.budget_rows = budget_rows
        self.charged_rows = charged_rows
        self.label = label
        self._governor = governor
        self._released = False

    @property
    def released(self) -> bool:
        return self._released

    def release(self) -> None:
        """Return this lease's charge to the pool (safe to call twice)."""
        if self._released:
            return
        self._released = True
        self._governor._release(self)

    def __enter__(self) -> "MemoryLease":
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "released" if self._released else "held"
        return (
            f"MemoryLease(budget_rows={self.budget_rows}, "
            f"charged_rows={self.charged_rows}, label={self.label!r}, {state})"
        )


class MemoryGovernor:
    """Grants per-query budget leases from a global row pool.

    ``total_rows=None`` (the default) is the unbounded governor: leases are
    granted immediately and carry the request through unchanged.  A bounded
    governor admits a query only while its requested budget fits in the
    remaining pool; a request for an unlimited budget (``None``) claims the
    whole pool, serializing against every other lease.
    """

    def __init__(
        self,
        total_rows: int | None = None,
        admission_timeout: float = 0.0,
    ):
        if total_rows is not None and total_rows <= 0:
            total_rows = None
        self.total_rows = total_rows
        self.admission_timeout = max(0.0, admission_timeout)
        self._cond = threading.Condition()
        self._leased_rows = 0
        self._active = 0

    @property
    def leased_rows(self) -> int:
        with self._cond:
            return self._leased_rows

    @property
    def active_leases(self) -> int:
        with self._cond:
            return self._active

    def lease(
        self,
        budget_rows: int | None = None,
        label: str = "",
        timeout: float | None = None,
    ) -> MemoryLease:
        """Lease a per-query budget; block up to the admission timeout.

        Raises :class:`AdmissionError` immediately for requests that can
        never fit, and after the timeout for requests waiting on running
        queries to release capacity.
        """
        if self.total_rows is None:
            # Unbounded pool: the lease is the identity on the request.
            with self._cond:
                self._active += 1
                charge = budget_rows if budget_rows and budget_rows > 0 else 0
                self._leased_rows += charge
            return MemoryLease(self, budget_rows, charge, label)

        total = self.total_rows
        want = total if budget_rows is None else budget_rows
        if want > total:
            raise AdmissionError(want, total, self.leased_rows)
        granted = None if budget_rows is None else budget_rows
        wait = self.admission_timeout if timeout is None else max(0.0, timeout)
        deadline = time.monotonic() + wait
        with self._cond:
            while self._leased_rows + want > total:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise AdmissionError(want, total, self._leased_rows)
                self._cond.wait(min(remaining, 0.05))
            self._leased_rows += want
            self._active += 1
        return MemoryLease(self, granted, want, label)

    def _release(self, lease: MemoryLease) -> None:
        with self._cond:
            self._leased_rows -= lease.charged_rows
            self._active -= 1
            self._cond.notify_all()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemoryGovernor(total_rows={self.total_rows}, "
            f"leased_rows={self.leased_rows}, active={self.active_leases})"
        )


_GLOBAL: MemoryGovernor | None = None
_GLOBAL_LOCK = threading.Lock()


def global_governor() -> MemoryGovernor:
    """The process-wide governor (unbounded until one is installed)."""
    global _GLOBAL
    if _GLOBAL is None:
        with _GLOBAL_LOCK:
            if _GLOBAL is None:
                _GLOBAL = MemoryGovernor()
    return _GLOBAL


def set_global_governor(governor: MemoryGovernor | None) -> MemoryGovernor | None:
    """Swap the process-wide governor; returns the previous one.

    ``None`` resets to the default unbounded governor (tests use this
    to restore the default after installing a bounded governor).
    """
    global _GLOBAL
    with _GLOBAL_LOCK:
        previous = _GLOBAL
        _GLOBAL = governor
    return previous


def resolve_governor(governor: MemoryGovernor | None) -> MemoryGovernor:
    """An explicit governor wins; otherwise the process-global one."""
    return governor if governor is not None else global_governor()
