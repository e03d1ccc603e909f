"""Cardinality estimation for join ordering.

Base relations: ``rows × selectivity(pushed predicate)`` where selectivity
comes from :mod:`repro.relational.statistics` (low-order or histogram tier).
Leaves that are not base scans (notably SCAN_GRAPH_TABLE) expose their own
``estimated_rows`` / ``column_ndv`` — that is how RelGo's GLogue-backed
graph cardinalities flow into the relational optimizer.

Joins use the classic distinct-value formula
``|L ⋈ R| = |L|·|R| / Π max(ndv(l_k), ndv(r_k))`` over these leaf numbers,
per leaf set (:meth:`repro.relational.optimizer.dp.JoinProblem.mask_rows`).
"""

from __future__ import annotations

from repro.relational.catalog import Catalog
from repro.relational.logical import LogicalNode, LogicalScan
from repro.relational.statistics import predicate_selectivity


class CardinalityModel:
    """Estimates leaf cardinalities and distinct counts against a catalog."""

    def __init__(self, catalog: Catalog, histograms: bool = False):
        self.catalog = catalog
        self.histograms = histograms

    # ------------------------------------------------------------------ #
    # leaves
    # ------------------------------------------------------------------ #

    def leaf_rows(self, node: LogicalNode) -> float:
        if isinstance(node, LogicalScan):
            stats = self.catalog.stats(node.table_name, histograms=self.histograms)
            selectivity = predicate_selectivity(node.predicate, stats)
            return max(stats.row_count * selectivity, 1e-6)
        estimated = getattr(node, "estimated_rows", None)
        if estimated is not None:
            return max(float(estimated), 1e-6)
        return 1000.0  # unknown leaf: neutral default

    def leaf_ndv(self, node: LogicalNode, column: str) -> float:
        """Number of distinct values of ``column`` in the leaf's output."""
        rows = self.leaf_rows(node)
        if isinstance(node, LogicalScan):
            stats = self.catalog.stats(node.table_name, histograms=self.histograms)
            tail = column.rsplit(".", 1)[-1]
            ndv = float(stats.distinct(tail))
            return max(min(ndv, rows), 1.0)
        ndv_fn = getattr(node, "column_ndv", None)
        if ndv_fn is not None:
            value = ndv_fn(column)
            if value is not None:
                return max(min(float(value), rows), 1.0)
        return max(rows, 1.0)
