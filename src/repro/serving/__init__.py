"""Serving layer: sessions, plan cache, admission, pool, wire — the shell.

The paper's evaluation runs one query at a time; a serving deployment runs
*many*, concurrently, against data that keeps growing.  This package is the
thin stateful tier that turns the single-shot framework into that:

* :class:`~repro.serving.database.Database` — catalog + config + shared
  :class:`~repro.exec.governor.MemoryGovernor` + shared
  :class:`~repro.serving.plan_cache.PlanCache` + shared
  :class:`~repro.serving.pool.WorkerPool`; ``connect()`` opens sessions.
* :class:`~repro.serving.database.Session` — submits SQL / SQL-PGQ text;
  ``execute`` is synchronous (with optional DB-API ``?`` ``params``),
  ``submit`` queues a cancellable
  :class:`~repro.serving.database.PendingQuery` on the shared pool,
  ``prepare`` returns a
  :class:`~repro.serving.prepared.PreparedStatement`; ``close()`` tears
  down everything in flight.
* :mod:`~repro.serving.plan_cache` — parameterized plan caching: repeated
  query shapes skip lexer/parser/binder/optimizer entirely, rebinding
  literals into a cached optimized plan.
* :mod:`~repro.serving.wire` / :mod:`~repro.serving.client` — a
  length-prefixed JSON-framed socket protocol
  (:class:`~repro.serving.wire.Server`) and its blocking
  :class:`~repro.serving.client.Client`, a drop-in ``Session`` over the
  network; every :class:`~repro.errors.ReproError` maps to a stable wire
  code (:data:`~repro.errors.WIRE_CODES`) so typed failures round-trip.

Single-shot semantics are unchanged: a Database with a default config and
an unbounded governor executes exactly what ``RelGoFramework.run`` would —
the serving tier adds reuse, admission and transport, never different
answers.
"""

from repro.errors import (
    INTERNAL_ERROR_CODE,
    PROTOCOL_ERROR_CODE,
    WIRE_CODES,
    error_code,
    error_from_wire,
    error_to_wire,
)
from repro.serving.client import Client, WirePendingQuery, WirePreparedStatement
from repro.serving.database import Database, PendingQuery, Session
from repro.serving.plan_cache import (
    CacheStats,
    Fingerprint,
    PlanCache,
    PlanTemplate,
    bind_plan,
    cached_optimize,
    fingerprint,
    param_sites,
)
from repro.serving.pool import WorkerPool
from repro.serving.prepared import PreparedStatement
from repro.serving.wire import ProtocolError, Server

__all__ = [
    # stateful shell
    "Database",
    "Session",
    "PendingQuery",
    "PreparedStatement",
    "WorkerPool",
    # wire front-end
    "Server",
    "Client",
    "WirePendingQuery",
    "WirePreparedStatement",
    "ProtocolError",
    # wire error codes
    "WIRE_CODES",
    "INTERNAL_ERROR_CODE",
    "PROTOCOL_ERROR_CODE",
    "error_code",
    "error_to_wire",
    "error_from_wire",
    # plan cache
    "PlanCache",
    "PlanTemplate",
    "CacheStats",
    "Fingerprint",
    "fingerprint",
    "bind_plan",
    "cached_optimize",
    "param_sites",
]
