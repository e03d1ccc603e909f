"""Fault-injection harness: deliberate failures at executor boundaries.

The paper's evaluation treats failures as first-class results (OOM and OT
entries), which means the engine's *unwind* paths are load-bearing — and
unwind paths are exactly the code normal tests never exercise.  This
module injects errors, artificial OOMs, delays, and cancellations at the
same named boundaries where the lifecycle layer checks for cancellation:

* ``emit``  — ``ExecutionContext.emit`` (every operator's per-batch
  accounting hook, labeled with the operator's ``cached_label()``, which
  is formatted only while an injector is armed);
* ``grow``  — ``Buffer.grow`` (every tracked intermediate, labeled with
  the buffer label, e.g. ``"HASH_JOIN (…) build"``);
* ``exchange`` — the morsel scheduler's queue hand-offs (labels
  ``"EXCHANGE put"`` / ``"EXCHANGE get"`` / ``"EXCHANGE fold"``);
* ``spill`` — the out-of-core layer's disk I/O (labels
  ``"<buffer label> [write]"`` / ``[read]`` / ``[merge]``), where the
  ``disk`` kind below simulates a full or failing spill device.

A schedule is armed either programmatically (pass a
:class:`FaultInjector` to ``execute_plan(faults=...)``) or via the
``REPRO_FAULTS`` env var.  The spec grammar is semicolon-separated
faults of comma-separated ``key=value`` pairs::

    REPRO_FAULTS="kind=error,site=grow,label=build,after=3"
    REPRO_FAULTS="kind=delay,delay=0.05,site=emit;kind=oom,site=exchange"

Keys (all optional except ``kind``):

* ``kind``  — ``error`` | ``oom`` | ``delay`` | ``cancel`` | ``disk``
  (``disk`` raises ``OSError(ENOSPC)``, the real exception class a full
  spill device produces — out-of-core unwind paths must survive plain
  environment errors, not just engine-domain ones)
* ``site``  — ``emit`` | ``grow`` | ``exchange`` | ``spill`` | ``any``
  (default)
* ``label`` — substring match against the boundary label ('' = any)
* ``after`` — fire on the Nth matching hit (default 1; a huge value like
  ``after=1000000000`` arms the harness without ever firing — the CI
  chaos leg runs tier-1 this way to pin zero behavioral drift)
* ``times`` — how many consecutive hits fire after that (default 1;
  0 = never stop)
* ``delay`` — seconds for ``kind=delay`` (default 0.01); the sleep polls
  the query handle so a cancelled/timed-out query is not held hostage
* ``rate``/``seed`` — probabilistic firing: each matching hit fires with
  probability ``rate`` from a per-fault ``random.Random(seed)`` stream
  (deterministic across runs; ``after``/``times`` still gate)

Injection sites pay a single ``is None`` test when no injector is armed —
the serial hot path is untouched by default, the same contract the
cancellation checks honor.
"""

from __future__ import annotations

import errno
import random
import threading
import time
from typing import TYPE_CHECKING, Iterator

from repro import settings
from repro.errors import InjectedFault, OutOfMemoryError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.context import ExecutionContext
    from repro.exec.operator import Operator

__all__ = [
    "Fault",
    "FaultInjector",
    "parse_faults",
    "resolve_faults",
    "plan_boundaries",
]

_KINDS = ("error", "oom", "delay", "cancel", "disk")
_SITES = ("emit", "grow", "exchange", "spill", "any")


class Fault:
    """One armed fault: where it matches, when it fires, what it does."""

    __slots__ = (
        "kind",
        "site",
        "label",
        "after",
        "times",
        "delay",
        "rate",
        "_rng",
        "_hits",
        "_fired",
    )

    def __init__(
        self,
        kind: str,
        site: str = "any",
        label: str = "",
        after: int = 1,
        times: int = 1,
        delay: float = 0.01,
        rate: float = 1.0,
        seed: int = 0,
    ):
        if kind not in _KINDS:
            raise ValueError(f"fault kind must be one of {_KINDS}, got {kind!r}")
        if site not in _SITES:
            raise ValueError(f"fault site must be one of {_SITES}, got {site!r}")
        if after < 1:
            raise ValueError(f"fault 'after' must be >= 1, got {after}")
        self.kind = kind
        self.site = site
        self.label = "" if label == "*" else label
        self.after = after
        self.times = times
        self.delay = delay
        self.rate = rate
        self._rng = random.Random(seed) if rate < 1.0 else None
        self._hits = 0
        self._fired = 0

    def matches(self, site: str, label: str) -> bool:
        if self.site != "any" and self.site != site:
            return False
        return self.label in label

    def should_fire(self) -> bool:
        """Advance this fault's hit counter; True when this hit fires.

        Caller holds the injector lock, so the counters need none of
        their own.
        """
        self._hits += 1
        if self._hits < self.after:
            return False
        if self.times > 0 and self._fired >= self.times:
            return False
        if self._rng is not None and self._rng.random() >= self.rate:
            return False
        self._fired += 1
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Fault(kind={self.kind!r}, site={self.site!r}, label={self.label!r}, "
            f"after={self.after}, times={self.times}, hits={self._hits})"
        )


class FaultInjector:
    """Holds armed faults and evaluates them at executor boundaries.

    One injector is shared by every worker thread of a query, so hit
    counting is serialized under a lock; the decision of *whether a fault
    fires* is therefore deterministic in hit order (and fully
    deterministic in serial runs).
    """

    def __init__(self, faults: "list[Fault] | None" = None):
        self.faults = list(faults or [])
        self._lock = threading.Lock()

    def add(self, fault: Fault) -> "FaultInjector":
        self.faults.append(fault)
        return self

    # -- boundary hooks -------------------------------------------------

    def on_emit(self, ctx: "ExecutionContext", label: str, rows: int) -> None:
        self._hit(ctx, "emit", label)

    def on_grow(self, ctx: "ExecutionContext", label: str, rows: int) -> None:
        self._hit(ctx, "grow", label)

    def on_exchange(self, ctx: "ExecutionContext", point: str, label: str) -> None:
        self._hit(ctx, "exchange", f"{label} [{point}]")

    def on_spill(self, ctx: "ExecutionContext", point: str, label: str) -> None:
        self._hit(ctx, "spill", f"{label} [{point}]")

    # -- firing ---------------------------------------------------------

    def _hit(self, ctx: "ExecutionContext", site: str, label: str) -> None:
        fired: Fault | None = None
        with self._lock:
            for fault in self.faults:
                if fault.matches(site, label) and fault.should_fire():
                    fired = fault
                    break
        if fired is not None:
            self._fire(fired, ctx, site, label)

    def _fire(
        self, fault: Fault, ctx: "ExecutionContext", site: str, label: str
    ) -> None:
        if fault.kind == "error":
            raise InjectedFault(f"injected fault at {site}:{label}")
        if fault.kind == "oom":
            raise OutOfMemoryError(
                ctx.buffered_rows, ctx.memory_budget_rows or 0, label
            )
        if fault.kind == "disk":
            # The real exception class a full spill device raises, on
            # purpose: the unwind paths must not depend on engine-domain
            # error types to clean up temp files and buffers.
            raise OSError(errno.ENOSPC, f"injected disk fault at {site}:{label}")
        if fault.kind == "cancel":
            handle = ctx.handle
            if handle is not None:
                handle.cancel(f"injected cancel at {site}:{label}")
                handle.check()
            return
        # kind == "delay": sleep in short slices, honoring cancellation so
        # a delayed worker can't outlive its query.
        deadline = time.monotonic() + fault.delay
        handle = ctx.handle
        while True:
            if handle is not None:
                handle.check()
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            time.sleep(min(remaining, 0.005))


def parse_faults(spec: str) -> FaultInjector:
    """Parse a ``REPRO_FAULTS``-style spec into an injector.

    Semicolon-separated faults; each fault is comma-separated
    ``key=value`` pairs (see the module docstring for the grammar).
    """
    faults: list[Fault] = []
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        kwargs: dict[str, object] = {}
        for pair in clause.split(","):
            pair = pair.strip()
            if not pair:
                continue
            if "=" not in pair:
                raise ValueError(
                    f"fault spec entries must be key=value, got {pair!r}"
                )
            key, _, value = pair.partition("=")
            key = key.strip()
            value = value.strip()
            if key in ("kind", "site", "label"):
                kwargs[key] = value
            elif key in ("after", "times", "seed"):
                kwargs[key] = int(value)
            elif key in ("delay", "rate"):
                kwargs[key] = float(value)
            else:
                raise ValueError(f"unknown fault spec key {key!r}")
        if "kind" not in kwargs:
            raise ValueError(f"fault spec clause {clause!r} is missing kind=")
        faults.append(Fault(**kwargs))  # type: ignore[arg-type]
    return FaultInjector(faults)


def resolve_faults(value: "FaultInjector | str | None") -> "FaultInjector | None":
    """Resolve the effective injector: explicit value wins, then env.

    ``None`` reads ``REPRO_FAULTS`` (unset/empty = no injection, the
    default); a string is parsed as a spec; an injector passes through.
    Each resolution builds a fresh injector so hit counters never leak
    between queries.
    """
    if value is None:
        spec = settings.current().faults
        return parse_faults(spec) if spec else None
    if isinstance(value, str):
        return parse_faults(value)
    return value


def _walk(plan: "Operator") -> "Iterator[Operator]":
    yield plan
    for child in plan.children():
        yield from _walk(child)


def plan_boundaries(plan: "Operator") -> list[str]:
    """The operator labels of a plan, in pre-order, deduplicated.

    These are the ``emit``-site labels the fault matrix iterates over; for
    a parallelized plan (run through ``parallelize_plan`` first) the list
    includes the cloned per-morsel chains' labels and the exchange
    operators themselves.
    """
    seen: set[str] = set()
    labels: list[str] = []
    for op in _walk(plan):
        label = op.cached_label()
        if label not in seen:
            seen.add(label)
            labels.append(label)
    return labels
