"""The one ``REPRO_*`` reader: parsing, precedence, and who may read.

Three guarantees:

1. **One table** — each of the eight variables parses to its documented
   default when unset, to the documented value when valid, and raises
   ``ValueError`` at ``settings.reload()`` when malformed.
2. **One precedence** — per-call argument > ``RelGoConfig`` field >
   environment > default, observed on the context ``open_plan`` resolves.
3. **One reader** — ``os.environ`` is touched by ``settings.py`` only, and
   never between ``Session.execute`` entry and return.
"""

from __future__ import annotations

import ast
import os
import re
from pathlib import Path

import pytest

from conftest import build_fig2_catalog
from repro import settings
from repro.core.framework import RelGoConfig
from repro.exec import SpillConfig, numpy_available, open_plan
from repro.relational.catalog import Catalog
from repro.relational.column import set_storage_backend, storage_backend
from repro.relational.physical import SeqScan
from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType
from repro.serving import Database

SRC = Path(__file__).resolve().parent.parent / "src"
NEVER = 10**9

#: field, unset default, [(raw, parsed), ...], [malformed raw, ...];
#: ``{tmp}`` is the test's temp directory, ``{file}`` a regular file in it.
VARIABLES = [
    ("storage", "dict", [(" LIST ", "list"), ("Dict", "dict")], ["columnar", "typed"]),
    ("parallelism", 1, [("4", 4), ("0", 1)], ["many", "2.5"]),
    ("query_timeout", None, [("7.5", 7.5), ("0", None), ("-1", None)], ["soon"]),
    ("spill_dir", None, [("{tmp}", "{tmp}"), ("{tmp}/new", "{tmp}/new")], ["{file}"]),
    ("spill_threshold", None, [("500", 500)], ["a-lot", "0"]),
    (
        "faults",
        "",
        [(f"kind=error,after={NEVER}", f"kind=error,after={NEVER}")],
        ["kind=bogus", "after=3", "kind=error,after"],
    ),
    ("serving", False, [("1", True), ("0", False)], ["yes"]),
    ("wire", False, [("1", True), ("0", False)], ["on"]),
]


def test_the_table_covers_every_field():
    assert [row[0] for row in VARIABLES] == list(settings.EnvSettings._fields)


@pytest.mark.parametrize("field,default,valid,malformed", VARIABLES)
def test_variable_parses_and_validates(
    field, default, valid, malformed, repro_env, tmp_path
):
    regular_file = tmp_path / "a-file"
    regular_file.write_text("")

    def fill(value):
        if not isinstance(value, str):
            return value
        return value.format(tmp=tmp_path, file=regular_file)

    assert getattr(repro_env(**{field: None}), field) == default
    assert getattr(repro_env(**{field: ""}), field) == default  # empty = unset
    for raw, parsed in valid:
        assert getattr(repro_env(**{field: fill(raw)}), field) == fill(parsed)
    for raw in malformed:
        before = settings.current()
        with pytest.raises(ValueError, match=f"REPRO_{field.upper()}"):
            repro_env(**{field: fill(raw)})
        assert settings.current() is before  # a failed reload changes nothing


def _resolved(plan, config: RelGoConfig | None = None, **call):
    """What one query runs under: ``open_plan``'s resolved context."""
    keywords = {**(config or RelGoConfig()).execution_settings(), **call}
    with open_plan(plan, **keywords) as (ctx, _):
        return {
            "parallelism": ctx.parallelism,
            "timeout": None if ctx.handle is None else ctx.handle.deadline_seconds,
            "spill": None if ctx.spill is None else ctx.spill.config,
            "faults": None
            if ctx.faults is None
            else [fault.kind for fault in ctx.faults.faults],
        }


#: observed key, default, then (layer, value observed once it is added):
#: environment, ``RelGoConfig`` field (None = the knob has no field),
#: per-call argument.
PRECEDENCE = [
    ("parallelism", 1,
     ({"parallelism": 4}, 4), ({"parallelism": 2}, 2), ({"parallelism": 3}, 3)),
    ("timeout", None,
     ({"query_timeout": 7.5}, 7.5), ({"query_timeout": 2.0}, 2.0), ({"timeout": 1.25}, 1.25)),
    ("spill", None,
     ({"spill_threshold": 500}, SpillConfig(threshold_rows=500)),
     ({"spill": 64}, SpillConfig(threshold_rows=64)),
     ({"spill": False}, None)),
    ("faults", None,
     ({"faults": f"kind=error,after={NEVER}"}, ["error"]),
     (None, ["error"]),
     ({"faults": f"kind=oom,after={NEVER}"}, ["oom"])),
]


def _people() -> Catalog:
    catalog = Catalog()
    catalog.create_table(
        TableSchema(
            "People",
            [Column("name", DataType.STRING), Column("age", DataType.INT)],
        ),
        rows=[("Ann", 34), ("Bob", 28), ("Cid", 41)],
    )
    return catalog


@pytest.mark.parametrize("key,default,env,config,call", PRECEDENCE)
def test_argument_beats_config_beats_environment(
    key, default, env, config, call, repro_env
):
    plan = SeqScan(_people().table("People"), "t")
    repro_env(**{name: None for name in settings.EnvSettings._fields})
    assert _resolved(plan)[key] == default
    repro_env(**env[0])
    assert _resolved(plan)[key] == env[1]
    fields = RelGoConfig(**config[0]) if config[0] is not None else None
    assert _resolved(plan, fields)[key] == config[1]
    assert _resolved(plan, fields, **call[0])[key] == call[1]


def test_storage_override_beats_environment(repro_env):
    try:
        set_storage_backend(None)
        repro_env(storage="list")
        assert storage_backend() == "list"
        set_storage_backend("dict")
        assert storage_backend() == "dict"
        set_storage_backend(None)
        assert storage_backend() == "list"
        repro_env(storage=None)
        assert storage_backend() == "dict"
    finally:
        set_storage_backend(None)


def test_storage_has_two_backends(repro_env):
    """Storage x numpy is one 2x2 matrix: ``typed`` is no backend, no CI
    leg selects it and no code asks for it."""
    retired = "typed"
    assert settings.STORAGE_BACKENDS == ("dict", "list")
    with pytest.raises(ValueError, match="'dict', 'list'"):
        set_storage_backend(retired)
    with pytest.raises(ValueError, match=r"REPRO_STORAGE.*'dict', 'list'"):
        repro_env(storage=retired)
    root = SRC.parent
    assert "REPRO_STORAGE=typed" not in (root / ".github/workflows/ci.yml").read_text()
    for folder in ("src", "tests", "benchmarks"):
        for path in (root / folder).rglob("*.py"):
            assert not re.search(r"set_storage_backend\(\s*[\"']typed", path.read_text()), path


# --------------------------------------------------------------------- #
# architecture guards
# --------------------------------------------------------------------- #


def _sources() -> dict[str, str]:
    return {
        str(path.relative_to(SRC)): path.read_text() for path in SRC.rglob("*.py")
    }


def test_only_settings_reads_the_environment():
    readers = {
        name for name, text in _sources().items()
        if re.search(r"os\.environ|getenv", text)
    }
    assert readers == {"repro/settings.py"}
    names = set()
    for text in _sources().values():
        names.update(re.findall(r"REPRO_[A-Z_]+", text))
    names.discard("REPRO_ERROR")  # a wire error code (repro/errors.py)
    assert names == {
        f"REPRO_{field.upper()}" for field in settings.EnvSettings._fields
    }


def _callers(sources: dict[str, str], name: str) -> set[tuple[str, str]]:
    """Every (module, function) under ``src/`` whose body calls ``name``."""
    found = set()
    for module, text in sources.items():
        for function in ast.walk(ast.parse(text)):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.Call):
                    target = node.func
                    called = getattr(target, "attr", None) or getattr(target, "id", None)
                    if called == name:
                        found.add((module, function.name))
    return found


def test_one_lifecycle_one_cache():
    sources = _sources()
    for step in ("lease", "pin_plan", "parallelize_plan", "SpillManager"):
        assert _callers(sources, step) == {("repro/exec/context.py", "open_plan")}
    assert "PlanTemplate" not in sources["repro/serving/prepared.py"]
    assert ".remove(" not in sources["repro/serving/plan_cache.py"]


def test_graph_operators_speak_one_protocol():
    """The graph half has one body per operator: no row twin, and rows come
    from one adapter (``exec/operator.py::to_rows``)."""
    sources = _sources()
    graph_half = (
        "repro/graph/physical.py",
        "repro/core/scan_graph_table.py",
        "repro/systems/kuzu_like.py",
    )

    def classes(module: str) -> list[ast.ClassDef]:
        tree = ast.parse(sources[module])
        return [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]

    one_protocol = [cls for module in graph_half for cls in classes(module)]
    one_protocol += [
        cls for cls in classes("repro/exec/operator.py") if cls.name == "MaterializeOp"
    ]
    assert len(one_protocol) > 15
    for cls in one_protocol:
        defined = {n.name for n in cls.body if isinstance(n, ast.FunctionDef)}
        assert not defined & {"batches", "_stream", "_scan"}, cls.name
    # Graph operators build no row tuples: a pattern join buffers dense
    # columnar batches and hands them to the shared hash kernels, and only
    # the spill path's grace join crosses the rows boundary (through the
    # default ``batches`` adapter).
    assert "to_rows()" not in sources["repro/graph/physical.py"]
    for cls in one_protocol:
        called = {
            getattr(node.func, "attr", None) or getattr(node.func, "id", None)
            for node in ast.walk(cls)
            if isinstance(node, ast.Call)
        }
        assert not called & {"to_rows", "from_rows", "chunked"}, cls.name
    adapters = [
        module
        for module, text in sources.items()
        if re.search(r"^def to_rows\(", text, re.M)
    ]
    assert adapters == ["repro/exec/operator.py"]
    assert not any("materialize_plan" in text for text in sources.values())
    with pytest.raises(ImportError):
        from repro.exec import materialize_plan  # noqa: F401


def test_one_hash_join_body():
    """``HashJoin`` and ``PatternHashJoin`` run the one columnar build and
    probe; only the kernels module reads or merges hash buckets; a keyless
    join is a zero-key ``HashJoin``, so the nested-loop join is gone."""
    sources = _sources()

    def cls(module: str, name: str) -> ast.ClassDef:
        (found,) = (
            node
            for node in ast.walk(ast.parse(sources[module]))
            if isinstance(node, ast.ClassDef) and node.name == name
        )
        return found

    def calls(node: ast.AST) -> set[str]:
        return {
            getattr(call.func, "attr", None) or getattr(call.func, "id", None)
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
        }

    joins = [
        cls("repro/relational/physical.py", "HashJoin"),
        cls("repro/graph/physical.py", "PatternHashJoin"),
    ]
    for join in joins:
        (body,) = (n for n in join.body if getattr(n, "name", None) == "_stream_columnar")
        # The build may sit in a helper (HashJoin's parallel shards); the
        # probe is the body's own call.
        assert {"build_hash_table_columnar", "probe_hash_table_columnar"} <= calls(join)
        assert "probe_hash_table_columnar" in calls(body), join.name
        # No bucket access: tables are opaque outside the kernels.
        assert not calls(join) & {"get", "items", "setdefault", "extend"}, join.name
        names = {n.id for n in ast.walk(join) if isinstance(n, ast.Name)}
        assert not names & {"bucket", "matches", "lookup"}, join.name
    (hash_body,) = (n for n in joins[0].body if getattr(n, "name", None) == "_stream_columnar")
    # The columnar body never falls back to the row body, spilled or not.
    assert not calls(hash_body) & {"_stream", "batches"}
    assert "merge_hash_tables" in calls(joins[0])
    for module, text in sources.items():
        assert "NestedLoopJoin" not in text, module
        assert "expand_batches" not in text, module
    for module in ("repro/relational/physical.py", "repro/graph/physical.py"):
        assert not re.search(r"\bbucket", sources[module]), module


def test_operators_never_branch_on_numpy():
    """The operator modules hold no numpy branch: the split lives in the
    ``exec/vector.py`` primitives and the kernels.  ``EXPAND``,
    ``EXPAND_EDGE`` and ``CSR_JOIN`` run the one CSR expansion body, no
    columnar body walks CSR offsets itself, and only ``CsrJoin``'s row body
    still adapts its chunks to fan-out."""
    sources = _sources()
    operator_modules = [
        "repro/relational/physical.py",
        "repro/graph/physical.py",
        "repro/core/scan_graph_table.py",
    ] + sorted(m for m in sources if m.startswith("repro/systems/"))
    for module in operator_modules:
        found = re.findall(r"\b(is_ndarray|numpy_enabled|_np|np)\b", sources[module])
        assert not found, (module, found)

    def methods(module: str):
        """``(class, method, node)`` of every method defined in ``module``."""
        for cls in ast.walk(ast.parse(sources[module])):
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef):
                        yield cls.name, node.name, node

    def named(node: ast.AST) -> set[str]:
        return {
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
        }

    sizers = set()
    for module in sources:
        if module == "repro/exec/kernels.py":
            continue
        for cls, name, node in methods(module):
            if "ChunkSizer" in named(node):
                sizers.add((cls, name))
        tree = ast.parse(sources[module])
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                assert "ChunkSizer" not in named(node), (module, node.name)
    assert sizers == {("CsrJoin", "_stream")}
    kernels = {
        n.name: n
        for n in ast.parse(sources["repro/exec/kernels.py"]).body
        if isinstance(n, ast.FunctionDef)
    }
    assert {n for n, f in kernels.items() if "ChunkSizer" in named(f)} == {
        "probe_hash_table_columnar"
    }
    assert "csr_expand_vectors" in named(kernels["expand_columnar"])
    assert not named(kernels["expand_columnar"]) & {"is_ndarray", "_np", "np"}

    bodies = {
        (cls, name): node
        for module in sources
        for cls, name, node in methods(module)
        if name == "_stream_columnar"
    }
    for cls in ("Expand", "ExpandEdge", "CsrJoin"):
        assert "expand_columnar" in named(bodies[cls, "_stream_columnar"]), cls
    for key, body in bodies.items():
        for node in ast.walk(body):
            if isinstance(node, ast.Subscript):
                assert "offsets" not in ast.unparse(node.value), key
    for module, text in sources.items():
        assert "bindings_equal" not in text, module


def test_expand_intersect_is_one_kernel():
    """EXPAND_INTERSECT's body is one call to the pair-key kernel: no
    per-row neighbor maps, no per-edge predicate calls in the operator."""
    physical = _sources()["repro/graph/physical.py"]
    for gone in ("_neighbor_map_fn", "iter_product", "rowid_predicate"):
        assert gone not in physical, gone
    (op,) = (
        node
        for node in ast.walk(ast.parse(physical))
        if isinstance(node, ast.ClassDef) and node.name == "ExpandIntersect"
    )
    (body,) = (n for n in op.body if getattr(n, "name", None) == "_stream_columnar")
    calls = [
        node.func.id
        for node in ast.walk(body)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    ]
    assert calls.count("intersect_expand") == 1
    kernels = _sources()["repro/exec/kernels.py"]
    for gone in ("_key_runs", "_emit_common"):
        assert gone not in kernels, gone


def test_intersect_probes_sorted_views_without_sorting():
    """EXPAND_INTERSECT is one body in both modes — ``intersect_expand`` and
    every kernel- or vector-module function it reaches — and it never
    sorts: the driving leg's pairs come out of its key view in order, the
    others are probed through the view's slot table, one gather per probe
    (``slots[probes]`` with numpy, ``slots[key]`` per probe without), or,
    for a view too sparse for a table, by binary search (``searchsorted``
    with numpy, ``bisect`` without)."""
    sources = _sources()
    functions = {}
    for module in ("repro/exec/vector.py", "repro/exec/kernels.py"):
        tree = ast.parse(sources[module])
        functions.update(
            (node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)
        )

    def called(node):
        for call in ast.walk(node):
            if isinstance(call, ast.Call):
                func = call.func
                yield func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)

    body, todo = set(), ["intersect_expand"]
    while todo:
        name = todo.pop()
        if name not in body:
            body.add(name)
            todo.extend(c for c in called(functions[name]) if c in functions)
    assert {"intersect_expand", "_intersect_slice", "csr_positions", "key_runs"} <= body
    assert {"searchsorted", "bisect_left", "bisect_right"} <= set(called(functions["key_runs"]))
    gathers = {
        ast.unparse(node)
        for node in ast.walk(functions["key_runs"])
        if isinstance(node, ast.Subscript)
    }
    assert {"slots[probes]", "slots[key]"} <= gathers
    (probe,) = (
        call
        for call in ast.walk(functions["_intersect_slice"])
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "key_runs"
    )
    assert {"view.slots", "view.run_lengths"} <= set(map(ast.unparse, probe.args))
    assert not {"_intersect_vectors", "_intersect_lists"} & functions.keys()
    for name in sorted(body):
        sorts = {c for c in called(functions[name])} & {"sort", "argsort", "lexsort", "sorted"}
        assert not sorts, (name, sorts)


def test_predicates_have_one_vectorized_body():
    """The dense rowid mask is the selection refiner's own body, and the
    predefined joins filter through it instead of falling back to their
    row bodies."""
    from repro.relational.expr import (
        CompiledPredicate,
        and_,
        compile_predicate_mask,
        eq,
        ge,
        starts_with,
    )

    sources = _sources()
    for module, text in sources.items():
        for gone in ("_numpy_mask", "_NO_NUMPY_PATH"):
            assert gone not in text, (module, gone)
    layout = {"t.a": 0, "t.s": 1}
    for pred in (
        ge("t.a", 3),
        eq("t.s", "x"),
        and_(ge("t.a", 3), starts_with("t.s", "x")),
    ):
        mask = compile_predicate_mask(pred, layout)
        assert isinstance(mask.__self__, CompiledPredicate)
        assert mask.__func__ is CompiledPredicate.mask
    assert "Operator.columnar_batches(self" not in sources["repro/relational/physical.py"]


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
def test_string_predicates_are_dense(monkeypatch):
    """With numpy on, a string predicate is one array op: LIKE and IN over
    a demoted '<U' column test the column's view, every predicate over a
    dictionary column tests the dictionary's '<U' values in one op, so
    ``rowid_mask`` returns an ndarray and never calls the per-value Python
    test."""
    import numpy as np

    from repro.exec import set_numpy_enabled
    from repro.relational import expr
    from repro.relational.expr import InList, Like, and_, col, eq, gt, rowid_mask

    calls: list = []
    one_column = expr._one_column

    def counting(idx, test, *args, **kwargs):
        def counted(value):
            calls.append(value)
            return test(value)

        return one_column(idx, counted, *args, **kwargs)

    monkeypatch.setattr(expr, "_one_column", counting)
    rows = [(f"{'BKa'[i % 3]}{i}", ["m", "f", "4.5", "7.1"][i % 4]) for i in range(1200)]
    set_storage_backend("dict")
    set_numpy_enabled(True)
    try:
        table = Catalog().create_table(
            TableSchema("t", [Column("name", DataType.STRING), Column("kind", DataType.STRING)]),
            rows=rows,
        )
        # ``name`` is unique-heavy, so DEMOTE_DISTINCT_RATIO demotes it to
        # a list with a '<U' view; ``kind`` stays a dictionary.
        assert table.vector("name").dtype.kind == "U"
        assert getattr(table.columns["kind"], "is_dictionary", False)
        for pred in (
            Like(col("name"), "B%"),
            InList(col("name"), ("a", "b")),
            and_(Like(col("name"), "K%"), eq(col("kind"), "m")),
            gt(col("kind"), "5.0"),
        ):
            mask = rowid_mask(table, pred)
            assert isinstance(mask, np.ndarray), pred
            assert mask.sum() == sum(expr.rowid_predicate(table, pred)(r) for r in range(len(rows)))
    finally:
        set_numpy_enabled(None)
        set_storage_backend(None)
    assert calls == [], "a per-value Python test ran"


def test_branch_checks_have_one_kernel():
    """DeadBranchRule's per-anchor checks are one operator over one kernel:
    the EXISTS-only filter and its kernel are gone, EXISTS is
    ``branch_reduce``'s boolean instance (a ``BranchReduce`` with nothing
    to reduce), the operator makes one kernel call and the kernel loops
    over batches, branches and masks only, never over rows, and never
    branches on numpy; and nothing turns the rule on or off but
    ``enable_rules``."""
    from dataclasses import fields

    from repro.graph.optimizer import LoweringConfig
    from repro.graph.physical import Branch, BranchReduce, ScanVertex

    sources = _sources()
    for module, text in sources.items():
        for gone in ("exists_filter", "ExistsFilter", "ExistsStep", "ExistsBranch", "_branch_mask"):
            assert gone not in text, (module, gone)
    physical = ast.parse(sources["repro/graph/physical.py"])
    (op,) = (
        node
        for node in ast.walk(physical)
        if isinstance(node, ast.ClassDef) and node.name == "BranchReduce"
    )
    (body,) = (n for n in op.body if getattr(n, "name", None) == "_stream_columnar")
    assert not any(isinstance(n, (ast.For, ast.comprehension)) for n in ast.walk(body))
    calls = [
        node.func.id
        for node in ast.walk(physical)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    ]
    assert calls.count("branch_reduce") == 1
    # The boolean instance: a branch without reductions is an EXISTS check
    # and appends no column; one with reductions appends one per attribute.
    child = ScanVertex(None, "a", "P")
    leaf = Branch("L", "out", "b", "P")
    reducing = Branch("L", "out", "c", "P", reduce=(("MIN", "name"), ("MAX", "age")))
    for branches, label, width in (((leaf,), "EXISTS", 0), ((leaf, reducing), "REDUCE", 2)):
        check = BranchReduce(child, None, None, "a", branches)
        assert check._label().startswith(f"{label} a (")
        assert [v.name for v in check.output_vars] == ["a", "c.name", "c.age"][: 1 + width]
    kernels = ast.parse(sources["repro/exec/kernels.py"])
    functions = {n.name: n for n in kernels.body if isinstance(n, ast.FunctionDef)}
    per_branch = {
        "source", "masks", "memos", "memo.stores", "stores", "likes", "steps", "step.steps", "step.reduce",
        "subs", "sub.funcs", "sub.stores", "zip(funcs, stores, values)",
    }
    for name in ("branch_reduce", "_memo", "_passing_all", "_reach"):
        for node in ast.walk(functions[name]):
            if isinstance(node, (ast.For, ast.comprehension)):
                assert ast.unparse(node.iter) in per_branch, (name, ast.unparse(node.iter))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                assert node.func.attr != "tolist", name
            if isinstance(node, (ast.Name, ast.Attribute)):
                assert getattr(node, "id", getattr(node, "attr", None)) not in (
                    "is_ndarray", "_np", "np", "numpy_enabled"
                ), name
    switches = [f.name for f in fields(RelGoConfig)] + [f.name for f in fields(LoweringConfig)]
    switches += list(settings.EnvSettings._fields)
    assert not [s for s in switches if re.search("dead|branch|semi|pruned|reduc", s)]
    assert len(settings.EnvSettings._fields) == len(VARIABLES)


def test_graph_kernels_have_one_algorithm():
    """EXPAND_INTERSECT and EXISTS run one algorithm with numpy on or off:
    the per-mode walks are gone, every adjacency has a key view in both
    modes, and no kernel falls back when a view is missing."""
    sources = _sources()
    for module, text in sources.items():
        for gone in ("_intersect_walk", "_exists_walk", "_walk_reaches", "_all_vectors", "_exists_vectors"):
            assert gone not in text, (module, gone)
    (adjacency,) = (
        node
        for node in ast.walk(ast.parse(sources["repro/graph/index.py"]))
        if isinstance(node, ast.ClassDef) and node.name == "Adjacency"
    )
    (key_view,) = (n for n in adjacency.body if getattr(n, "name", None) == "key_view")
    for node in ast.walk(key_view):
        if isinstance(node, ast.Return):
            assert node.value is not None and ast.unparse(node.value) != "None"
    assert "None" not in ast.unparse(key_view.returns)
    assert not re.search(r"view is (not )?None", sources["repro/exec/kernels.py"])


def test_grouping_has_one_algorithm():
    """GROUP BY and DISTINCT run one algorithm with numpy on or off: the
    grouping engine never asks for the mode, the per-row GROUP BY walk and
    the factorizing DISTINCT with its ratio fallback are gone, and code
    combination never gives up on a batch."""
    sources = _sources()
    assert "numpy_enabled" not in sources["repro/exec/grouping.py"]
    for module, text in sources.items():
        for gone in ("_consume_rows", "_positions_vectorized", "_DISTINCT_FALLBACK"):
            assert gone not in text, (module, gone)
    (combine,) = (
        node
        for node in ast.walk(ast.parse(sources["repro/exec/grouping.py"]))
        if isinstance(node, ast.FunctionDef) and node.name == "combine_codes"
    )
    for node in ast.walk(combine):
        if isinstance(node, ast.Return):
            assert node.value is not None and ast.unparse(node.value) != "None"


def test_hot_execute_reads_no_environment(monkeypatch):
    class NoEnvironment(dict):
        def __getitem__(self, key):
            raise AssertionError(f"environment read on the hot path: {key}")

        get = __contains__ = __getitem__

    with Database(_people()) as db, db._local_connect() as session:
        session.execute("SELECT name FROM People WHERE age = 28")
        hits = db.plan_cache.stats.hits
        monkeypatch.setattr(os, "environ", NoEnvironment())
        try:
            result = session.execute("SELECT name FROM People WHERE age = 41")
        finally:
            monkeypatch.undo()
    assert result.rows == [("Cid",)]
    assert db.plan_cache.stats.hits == hits + 1


def test_cache_hit_walks_no_plan(monkeypatch):
    """A plan-cache hit pays for its literals only: the rebind sites and the
    tables to pin were recorded when the plan was first stored and run, so
    a hot ``Session.execute`` or ``PreparedStatement.execute`` walks no
    plan tree, and the fingerprint scan calls back once per literal."""
    import repro.exec.context as context_mod
    import repro.serving.plan_cache as cache_mod

    catalog, _ = build_fig2_catalog()
    sql = (
        "SELECT g.n FROM GRAPH_TABLE (G MATCH (a:Person)-[k:Knows]->(b:Person) "
        "WHERE b.name = {} AND k.date > {} COLUMNS (a.name AS n)) g"
    )
    with Database(catalog) as db, db._local_connect() as session:
        db.warmup()
        session.execute(sql.format("'Bob'", "'2023-01-01'"))
        prepared = session.prepare(sql.format("?", "?"))
        prepared.execute(["Bob", "2023-01-01"])

        def boom(*args, **kwargs):
            raise AssertionError("a plan walk on the cache-hit path")

        class CountingScan:
            """``_SCAN`` with its ``sub`` callback counted."""

            def __init__(self, pattern):
                self.pattern, self.calls = pattern, 0

            def sub(self, repl, text):
                def counted(match):
                    self.calls += 1
                    return repl(match)

                return self.pattern.sub(counted, text)

        scan = CountingScan(cache_mod._SCAN)
        monkeypatch.setattr(cache_mod, "_sites", boom)
        monkeypatch.setattr(context_mod, "_pin_targets", boom)
        monkeypatch.setattr(cache_mod, "_SCAN", scan)
        hits = db.plan_cache.stats.hits
        first = session.execute(sql.format("'Tom'", "'2023-01-01'"))
        assert scan.calls == 2
        second = prepared.execute(["Tom", "2023-01-01"])
        assert scan.calls == 2
        monkeypatch.undo()
        assert db.plan_cache.stats.hits == hits + 2
    assert first.rows == second.rows == [("Bob",)]
