"""Tracing from outside the program: spans around the engine's public calls.

The traced pass wraps each layer's public function or method *from here*
(attribute replacement, undone by :meth:`Tracer.uninstall`); nothing under
``src/`` changes.  A span is ``(id, parent id, request id, name, start,
end)``; spans of one request share its id; a span's self time is its
duration minus its children's.  Spans stay in memory until the benchmark
ends, then :meth:`Tracer.dump` writes them.  A span with no parent starts
a new request, so request ids need no cooperation from the traced program:
in the server process each ``PendingQuery.run`` is one, in the harness each
``Session.execute`` / ``Client.execute``.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from pathlib import Path

#: (module, attribute path, span name).  Module-level names are patched in
#: the namespace their caller reads them from.
BOUNDARIES = (
    ("repro.serving.client", "Client.execute", "serving.client.execute"),
    ("repro.serving.database", "Session.execute", "serving.database.execute"),
    ("repro.serving.database", "PendingQuery.run", "serving.database.execute"),
    ("repro.serving.database", "cached_optimize", "serving.plan_cache.cached_optimize"),
    ("repro.serving.plan_cache", "fingerprint", "serving.plan_cache.fingerprint"),
    ("repro.serving.plan_cache", "PlanCache.lookup", "serving.plan_cache.lookup"),
    ("repro.serving.plan_cache", "PlanTemplate.bind", "serving.plan_cache.bind"),
    ("repro.core.sqlpgq.parser", "Parser.parse_statement", "core.sqlpgq.parse"),
    ("repro.core.sqlpgq.binder", "bind_query", "core.sqlpgq.bind"),
    ("repro.core.framework", "RelGoFramework.optimize", "core.framework.optimize"),
    ("repro.core.framework", "apply_filter_into_match", "core.rules.apply"),
    ("repro.core.framework", "apply_trim_and_fuse", "core.rules.apply"),
    ("repro.graph.optimizer", "GraphOptimizer.optimize", "graph.optimizer.optimize"),
    ("repro.relational.optimizer.planner", "RelationalOptimizer.optimize", "relational.optimizer.optimize"),
    ("repro.serving.database", "execute_plan", "exec.execute_plan"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------- #

    def _new_id(self) -> int:
        with self._lock:
            self._next += 1
            return self._next

    def last_request(self) -> int:
        """Id of the request whose outermost span last ran on this thread."""
        return getattr(self._local, "request", 0)

    def _wrap(self, fn, name: str):
        local = self._local
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._new_id()
            parent = getattr(local, "span", 0)
            if not parent:
                local.request = self._new_id()
            local.span = span
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                local.span = parent
                # list.append is atomic under the GIL
                spans.append((span, parent, local.request, name, start, end))

        return traced

    # -- installation ------------------------------------------------------- #

    def install(self) -> "Tracer":
        for module_name, path, span_name in BOUNDARIES:
            owner = importlib.import_module(module_name)
            *holders, attr = path.split(".")
            for holder in holders:
                owner = getattr(owner, holder)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span_name))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- writing ------------------------------------------------------------ #

    def dump(self, path: Path, extra: dict | None = None) -> None:
        children: dict[int, float] = {}
        for _, parent, _, _, start, end in self.spans:
            children[parent] = children.get(parent, 0.0) + (end - start)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            **(extra or {}),
            "fields": ["span", "parent", "request", "name", "start_s", "end_s", "self_s"],
            "spans": [
                [s, p, r, n, start, end, (end - start) - children.get(s, 0.0)]
                for s, p, r, n, start, end in self.spans
            ],
        }))
