"""Scalar data types and NULL semantics for the relational engine.

The engine supports the small set of types the paper's workloads need:
64-bit integers, double-precision floats, strings, booleans and dates.
Dates are stored as ISO-8601 strings ("YYYY-MM-DD"); lexicographic order on
that representation coincides with chronological order, which keeps
comparisons simple and fast in pure Python.

``None`` is the engine's NULL.  Comparisons and arithmetic involving NULL
yield NULL, and predicates treat NULL as "not satisfied" (SQL three-valued
logic collapsed to two-valued at filter boundaries, the way real engines
apply WHERE clauses).
"""

from __future__ import annotations

import enum
from typing import Any

from repro.errors import SchemaError


class DataType(enum.Enum):
    """A scalar column type."""

    INT = "INT"
    FLOAT = "FLOAT"
    STRING = "STRING"
    BOOL = "BOOL"
    DATE = "DATE"

    def array_typecode(self) -> str | None:
        """The ``array.array`` typecode backing this type's typed storage.

        INT maps to a signed 64-bit buffer and FLOAT to a C double —
        exactly the value domains :meth:`validate` admits.  Types whose
        values are Python objects (strings, dates, booleans) return None
        and stay in plain lists.
        """
        if self is DataType.INT:
            return "q"
        if self is DataType.FLOAT:
            return "d"
        return None

    def validate(self, value: Any) -> Any:
        """Return ``value`` coerced for this type, or raise :class:`SchemaError`.

        ``None`` (NULL) is always accepted.
        """
        if value is None:
            return None
        if self is DataType.BOOL:
            if isinstance(value, bool):
                return value
            raise SchemaError(f"expected BOOL, got {value!r}")
        if self is DataType.INT:
            if isinstance(value, bool) or not isinstance(value, int):
                raise SchemaError(f"expected INT, got {value!r}")
            return value
        if self is DataType.FLOAT:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SchemaError(f"expected FLOAT, got {value!r}")
            return float(value)
        if self is DataType.DATE:
            if isinstance(value, str) and _looks_like_date(value):
                return value
            raise SchemaError(f"expected DATE as 'YYYY-MM-DD', got {value!r}")
        if isinstance(value, str):
            return value
        raise SchemaError(f"expected STRING, got {value!r}")


def _looks_like_date(value: str) -> bool:
    """Cheap structural check for ISO dates; full parsing is not needed."""
    if len(value) != 10 or value[4] != "-" or value[7] != "-":
        return False
    return (
        value[:4].isdigit() and value[5:7].isdigit() and value[8:10].isdigit()
    )


def comparable(left: DataType, right: DataType) -> bool:
    """Whether two data types may appear on the two sides of a comparison."""
    numeric = {DataType.INT, DataType.FLOAT}
    if left in numeric and right in numeric:
        return True
    if left in (DataType.STRING, DataType.DATE) and right in (DataType.STRING, DataType.DATE):
        return True
    return left is right
