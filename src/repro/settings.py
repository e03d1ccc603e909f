"""Configuration: the one module that reads the process environment.

Every knob resolves with the same precedence — per-call argument, then
the ``RelGoConfig`` field, then the environment, then the default:

===========================  ==========================================  ==========  ===============================================
variable                     meaning                                     default     overridden by
===========================  ==========================================  ==========  ===============================================
``REPRO_STORAGE``            column storage for tables created           ``dict``    ``set_storage_backend(name)``
                             afterwards: ``dict`` / ``list``
``REPRO_PARALLELISM``        morsel-driven degree of parallelism         ``1``       ``RelGoConfig.parallelism``,
                             (values below 1 mean 1)                                 ``execute_plan(parallelism=)``
``REPRO_QUERY_TIMEOUT``      per-query deadline in seconds               none        ``RelGoConfig.query_timeout``,
                             (non-positive = none)                                   ``execute_plan(timeout=)``,
                                                                                     ``Session.execute(timeout=)``
``REPRO_SPILL_DIR``          arms spill; root of per-query spill dirs    disarmed    ``RelGoConfig.spill``, ``execute_plan(spill=)``
``REPRO_SPILL_THRESHOLD``    arms spill; rows a query keeps resident     disarmed    ``RelGoConfig.spill``, ``execute_plan(spill=)``
                             before spilling (>= 1)
``REPRO_FAULTS``             fault-injection spec                        none        ``execute_plan(faults=)``
                             (grammar: ``repro.exec.faults``)
``REPRO_SERVING``            ``0`` / ``1``: ``System`` text queries go   ``0``       —
                             through a serving plan cache
``REPRO_WIRE``               ``0`` / ``1``: ``Database.connect()``       ``0``       ``Database.serve()`` + ``Client(address)``
                             returns a socket-backed ``Client``
===========================  ==========================================  ==========  ===============================================

The environment is parsed and validated once, when this module is first
imported, and again on :func:`reload` — never per query.  A malformed
value raises :class:`ValueError` there instead of silently disarming
the knob it was meant to set.
"""

from __future__ import annotations

import os
from typing import Callable, NamedTuple

__all__ = ["EnvSettings", "STORAGE_BACKENDS", "current", "reload"]

STORAGE_BACKENDS = ("dict", "list")


class EnvSettings(NamedTuple):
    """The environment layer of the configuration, parsed and validated."""

    storage: str = "dict"
    parallelism: int = 1
    query_timeout: float | None = None
    spill_dir: str | None = None
    spill_threshold: int | None = None
    faults: str = ""
    serving: bool = False
    wire: bool = False


def _storage(raw: str) -> str:
    name = raw.lower()
    if name not in STORAGE_BACKENDS:
        raise ValueError(f"must be one of {STORAGE_BACKENDS}")
    return name


def _parallelism(raw: str) -> int:
    return max(1, int(raw))


def _query_timeout(raw: str) -> float | None:
    seconds = float(raw)
    return seconds if seconds > 0 else None


def _spill_dir(raw: str) -> str:
    if os.path.exists(raw) and not os.path.isdir(raw):
        raise ValueError("exists and is not a directory")
    return raw


def _spill_threshold(raw: str) -> int:
    rows = int(raw)
    if rows < 1:
        raise ValueError("must be a row count >= 1")
    return rows


def _faults(raw: str) -> str:
    # Only the grammar is checked here: hit counters live on the injector,
    # so ``resolve_faults`` parses a fresh one per query from this spec.
    from repro.exec.faults import parse_faults

    parse_faults(raw)
    return raw


def _flag(raw: str) -> bool:
    if raw not in ("0", "1"):
        raise ValueError("must be 0 or 1")
    return raw == "1"


_PARSERS: dict[str, Callable[[str], object]] = {
    "storage": _storage,
    "parallelism": _parallelism,
    "query_timeout": _query_timeout,
    "spill_dir": _spill_dir,
    "spill_threshold": _spill_threshold,
    "faults": _faults,
    "serving": _flag,
    "wire": _flag,
}


def _parse() -> EnvSettings:
    values = {}
    for name, parse in _PARSERS.items():
        variable = f"REPRO_{name.upper()}"
        raw = os.environ.get(variable, "").strip()
        if not raw:
            continue  # unset or empty: the field's default
        try:
            values[name] = parse(raw)
        except ValueError as exc:
            raise ValueError(f"{variable}={raw!r}: {exc}") from None
    return EnvSettings(**values)


_current = _parse()


def current() -> EnvSettings:
    """The settings parsed at import or at the last :func:`reload`."""
    return _current


def reload() -> EnvSettings:
    """Re-read the environment (tests and embedders that change it)."""
    global _current
    _current = _parse()
    return _current
