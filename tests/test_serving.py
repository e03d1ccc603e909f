"""Serving layer: plan cache, sessions, and concurrency under live writers.

Three layers of guarantees are pinned here:

1. **Plan cache correctness** — fingerprints (the literal-only scan
   against a reference that matches every word), rebinding (through the
   recorded sites, against the generic walk they replaced, and the
   ``x = 5 AND x = 5`` dedup trap), baked-slot variants (LIMIT / LIKE /
   IN / implicit aliases), catalog-version invalidation, LRU bounds.
2. **Session lifecycle** — execute/submit/cancel/close; a closed session
   leaks nothing: no threads, no governor leases, no spill files.
3. **Snapshot consistency under concurrency** — N sessions × M queries
   against tables a writer thread is appending to: every result reflects
   one published epoch (chunk-aligned counts, monotonic per session), and
   graph queries over a pinned CSR index are bit-stable.
"""

from __future__ import annotations

import copy
import re
import threading
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_fig2_catalog
from repro.errors import (
    AdmissionError,
    ParameterError,
    ParseError,
    QueryCancelled,
    SessionClosed,
)
from repro.exec.context import open_plan
from repro.exec.governor import MemoryGovernor
from repro.exec.operator import Operator
from repro.exec.scheduler import ExchangeOp
from repro.graph.physical import (
    Branch,
    BranchReduce,
    Expand,
    ExpandIntersect,
    ScanVertex,
    StarLeg,
)
from repro.relational import column as column_mod
from repro.relational.catalog import Catalog
from repro.relational.column import (
    DictColumn,
    DictDemotion,
    is_dict,
    set_storage_backend,
)
from repro.relational.expr import (
    Arith,
    Comparison,
    Expr,
    ParamLiteral,
    col,
    param_slots,
    substitute_params,
)
from repro.relational.logical import AggregateSpec
from repro.relational.physical import AggregateOp, SeqScan
from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType
from repro.serving import Database, fingerprint
from repro.serving.plan_cache import (
    PLACEHOLDER,
    PlanCache,
    bind_plan,
    compile_template,
    param_sites,
    scan_text,
)
from repro.systems.base import make_system


# Databases opened by the helpers below; an autouse fixture closes them
# after each test so shared-pool worker threads (repro-pool-*) and wire
# threads never leak into other suites' thread-leak assertions.
_OPEN_DBS: list[Database] = []


def _track(db: Database) -> Database:
    _OPEN_DBS.append(db)
    return db


@pytest.fixture(autouse=True)
def _close_tracked_dbs():
    yield
    while _OPEN_DBS:
        _OPEN_DBS.pop().close()


def _people_db(rows=None, **kwargs) -> Database:
    catalog = Catalog()
    catalog.create_table(
        TableSchema(
            "People",
            [
                Column("id", DataType.INT),
                Column("name", DataType.STRING),
                Column("age", DataType.INT),
            ],
            primary_key="id",
        ),
        rows=rows
        if rows is not None
        else [
            (1, "Ann", 34),
            (2, "Bob", 28),
            (3, "Cid", 41),
            (4, "Dee", 28),
        ],
    )
    return _track(Database(catalog=catalog, **kwargs))


def _fig2_db():
    catalog, mapping = build_fig2_catalog()
    db = _track(Database(catalog=catalog))
    db.warmup()
    return db


# ---------------------------------------------------------------------- #
# fingerprinting
# ---------------------------------------------------------------------- #

#: The reference scanner: one match per keyword, identifier and literal.
#: ``scan_text`` matches literals only and must normalize every text to
#: the same ``(normalized, values)``.
_WORD_SCAN = re.compile(
    r"""
      '(?:[^']|'')*'            # string literal (with '' escapes)
    | --[^\n]*                  # line comment
    | [^\W\d]\w*                # identifier / keyword
    | \d+(?:\.\d+)?             # number literal
    | \?                        # DB-API parameter placeholder
    """,
    re.VERBOSE,
)


def _word_scan_text(sql: str):
    values = []

    def norm(match):
        text = match.group(0)
        head = text[0]
        if head == "'":
            values.append(text[1:-1].replace("''", "'"))
            return "?"
        if text.startswith("--"):
            return " "
        if head.isdigit():
            values.append(float(text) if "." in text else int(text))
            return "?"
        if head == "?":
            values.append(PLACEHOLDER)
            return "?"
        return text

    return " ".join(_WORD_SCAN.sub(norm, sql).split()), tuple(values)


#: Fragments whose concatenations put digits inside and right after names
#: (``p2``, ``_1``, ``x1.5``, ``1e5``), after ``.``, ``(``, quotes and
#: operators, and quotes, digits and ``?`` inside comments and strings.
_SQL_PIECES = st.one_of(
    st.sampled_from(
        ["SELECT", "p2", "_1", "x1", "x1.5", "a_b", "é1", "Ω9", "ß", "中文", "naïve",
         "1e5", ".5", "1.", "1.x", "''", "'", "?", "--", "\n", " ", ".", "(", ")",
         ",", "=", "<", "-", "+", "*", "_"]
    ),
    st.integers(0, 10**6).map(str),
    st.from_regex(r"\d{1,3}\.\d{1,3}", fullmatch=True),
    st.text(alphabet="ab1 ?'-.", max_size=6).map(lambda s: "'" + s.replace("'", "''") + "'"),
    st.text(alphabet="ab1 ?'-.", max_size=6).map(lambda s: "--" + s + "\n"),
)


class TestFingerprint:
    def test_literals_become_slots_in_text_order(self):
        fp = fingerprint("SELECT a FROM t WHERE x = 5 AND y = 'it''s' AND z = 1.5")
        assert fp.normalized.count("?") == 3
        assert fp.values == (5, "it's", 1.5)
        assert fp.type_names == ("int", "str", "float")

    def test_whitespace_and_comments_do_not_split_shapes(self):
        a = fingerprint("SELECT a FROM t WHERE x = 5")
        b = fingerprint("SELECT  a\n FROM t -- a comment\n WHERE x = 7")
        assert a.normalized == b.normalized
        assert a.key == b.key

    def test_literal_types_split_shapes(self):
        a = fingerprint("SELECT a FROM t WHERE x = 5")
        b = fingerprint("SELECT a FROM t WHERE x = 5.0")
        assert a.normalized == b.normalized
        assert a.key != b.key

    def test_keywords_and_identifiers_are_not_slots(self):
        fp = fingerprint("SELECT a FROM t WHERE flag = TRUE AND b IS NOT NULL")
        assert fp.values == ()

    def test_string_contents_never_tokenize(self):
        fp = fingerprint("SELECT a FROM t WHERE name = '5 -- SELECT 9'")
        assert fp.values == ("5 -- SELECT 9",)
        assert fp.normalized.count("?") == 1

    def test_digits_inside_names_are_not_slots(self):
        fp = fingerprint("SELECT p2.x1, _1 FROM t9 AS p2 WHERE p2.a_3 = 4 AND é1 = x1.5")
        assert fp.values == (4, 5)
        assert fp.normalized == "SELECT p2.x1, _1 FROM t9 AS p2 WHERE p2.a_3 = ? AND é1 = x1.?"

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_SQL_PIECES, max_size=24).map("".join))
    def test_literal_only_scan_matches_the_word_scan(self, text):
        assert scan_text(text) == _word_scan_text(text)

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="ab_xé中19.5e'-?() =\n", max_size=40))
    def test_literal_only_scan_matches_the_word_scan_on_character_soup(self, text):
        assert scan_text(text) == _word_scan_text(text)


# ---------------------------------------------------------------------- #
# plan cache: hits, rebinding, variants, invalidation
# ---------------------------------------------------------------------- #
# plan cache: binding through recorded sites
# ---------------------------------------------------------------------- #

#: The generic rebind walk the recorded sites replaced: every operator's
#: expression and child attributes probed, every expression substituted.
#: ``PlanTemplate.bind`` must build the same plans, sharing the same
#: parameter-free subtrees, and ``param_sites`` must find the same slots.
_GENERIC_EXPR_ATTRS = (
    "predicate", "edge_predicate", "src_predicate", "dst_predicate",
    "vertex_predicate", "condition", "residual", "exprs", "keys", "group_by",
    "aggregates", "legs", "branches",
)  # fmt: skip
_GENERIC_CHILD_ATTRS = ("child", "left", "right", "graph_op", "plans")


def _generic_rebind_item(item, values):
    if isinstance(item, Expr):
        return substitute_params(item, values)
    if isinstance(item, (tuple, list)):
        parts = [_generic_rebind_item(p, values) for p in item]
        if all(a is b for a, b in zip(parts, item)):
            return item
        return parts if isinstance(item, list) else tuple(parts)
    if isinstance(item, AggregateSpec):
        if item.arg is None:
            return item
        arg = substitute_params(item.arg, values)
        return item if arg is item.arg else AggregateSpec(item.func, arg, item.alias)
    if isinstance(item, StarLeg):
        if item.edge_predicate is None:
            return item
        pred = substitute_params(item.edge_predicate, values)
        return item if pred is item.edge_predicate else replace(item, edge_predicate=pred)
    if isinstance(item, Branch):
        changes = {}
        for attr in ("edge_predicate", "vertex_predicate", "branches"):
            part = getattr(item, attr)
            if part is not None:
                bound = _generic_rebind_item(part, values)
                if bound is not part:
                    changes[attr] = bound
        return replace(item, **changes) if changes else item
    return item


def _generic_bind(op, values):
    clone = None

    def mutate(attr, value):
        nonlocal clone
        if clone is None:
            clone = copy.copy(op)
            clone.__dict__.pop("_label_text", None)
        setattr(clone, attr, value)

    for attr in _GENERIC_EXPR_ATTRS:
        item = getattr(op, attr, None)
        if item is not None:
            bound = _generic_rebind_item(item, values)
            if bound is not item:
                mutate(attr, bound)
    for attr in _GENERIC_CHILD_ATTRS:
        node = getattr(op, attr, None)
        if isinstance(node, Operator):
            rebound = _generic_bind(node, values)
            if rebound is not node:
                mutate(attr, rebound)
        elif isinstance(node, list) and node and isinstance(node[0], Operator):
            rebound_list = [_generic_bind(sub, values) for sub in node]
            if any(a is not b for a, b in zip(rebound_list, node)):
                mutate(attr, rebound_list)
    return clone if clone is not None else op


def _generic_slots(op) -> set[int]:
    out: set[int] = set()

    def collect(item):
        if isinstance(item, Expr):
            out.update(param_slots(item))
        elif isinstance(item, (tuple, list)):
            for part in item:
                collect(part)
        elif isinstance(item, AggregateSpec):
            if item.arg is not None:
                out.update(param_slots(item.arg))
        elif isinstance(item, StarLeg):
            if item.edge_predicate is not None:
                out.update(param_slots(item.edge_predicate))
        elif isinstance(item, Branch):
            for part in (item.edge_predicate, item.vertex_predicate, item.branches):
                if part is not None:
                    collect(part)

    def visit(node):
        for attr in _GENERIC_EXPR_ATTRS:
            item = getattr(node, attr, None)
            if item is not None:
                collect(item)
        for attr in _GENERIC_CHILD_ATTRS:
            child = getattr(node, attr, None)
            for sub in child if isinstance(child, list) else [child]:
                if isinstance(sub, Operator):
                    visit(sub)

    visit(op)
    return out


def _operators(op) -> list:
    """Every operator reachable through the child attributes."""
    out = [op]
    for attr in _GENERIC_CHILD_ATTRS:
        child = getattr(op, attr, None)
        for sub in child if isinstance(child, list) else [child]:
            if isinstance(sub, Operator):
                out.extend(_operators(sub))
    return out


def _shared(bound, template) -> set[int]:
    """Ids of the template's operators a bound plan reuses."""
    return {id(n) for n in _operators(bound)} & {id(n) for n in _operators(template)}


def _same_plan(a, b) -> bool:
    """Structural equality: same operator types, equal attributes (memos
    aside), operators compared recursively."""
    if a is b:
        return True
    if isinstance(a, Operator):
        if type(a) is not type(b):
            return False
        memos = {"_label_text", "_pin_memo"}
        left = {k: v for k, v in vars(a).items() if k not in memos}
        right = {k: v for k, v in vars(b).items() if k not in memos}
        return left.keys() == right.keys() and all(
            _same_plan(v, right[k]) for k, v in left.items()
        )
    if isinstance(a, (tuple, list)):
        return (
            type(a) is type(b)
            and len(a) == len(b)
            and all(_same_plan(x, y) for x, y in zip(a, b))
        )
    return a == b


def _rows(plan) -> list[tuple]:
    with open_plan(plan, columnar=False) as (_, stream):
        return sorted(row for batch in stream for row in batch)


def _redrawn(values, slots):
    """``values`` with every expression slot moved to another value: ints
    and floats shift, dates move a year back, first names rotate."""
    from repro.workloads.ldbc.generator import FIRST_NAMES

    out = list(values)
    for slot in slots:
        value = out[slot]
        if isinstance(value, (int, float)):
            out[slot] = value + 1
        elif re.fullmatch(r"\d{4}-\d\d-\d\d", value):
            out[slot] = f"{int(value[:4]) - 1}{value[4:]}"
        elif value in FIRST_NAMES:
            out[slot] = FIRST_NAMES[(FIRST_NAMES.index(value) + 1) % len(FIRST_NAMES)]
    return tuple(out)


@pytest.fixture(scope="module")
def paper_statements():
    """All 58 IC / QR / QC / JOB statements over small LDBC and IMDB."""
    from repro.graph.index import build_graph_index
    from repro.workloads.job import JobParams, generate_imdb, job_queries
    from repro.workloads.ldbc import (
        LdbcParams,
        generate_ldbc,
        ic_queries,
        qc_queries,
        qr_queries,
    )

    ldbc, ldbc_mapping = generate_ldbc(LdbcParams(persons=80, forums=10, seed=3))
    ldbc.register_graph_index(build_graph_index(ldbc_mapping))
    imdb, imdb_mapping = generate_imdb(JobParams.scaled(0.25))
    imdb.register_graph_index(build_graph_index(imdb_mapping))
    ldbc_suite = {**ic_queries(), **qr_queries(), **qc_queries()}
    statements = [(n, sql, ldbc, "snb") for n, sql in ldbc_suite.items()]
    statements += [(n, sql, imdb, "imdb") for n, sql in job_queries().items()]
    assert len(statements) == 58
    return statements


class TestBindSites:
    @pytest.mark.parametrize("system_name", ["relgo", "duckdb"])
    def test_sites_bind_like_the_generic_walk(self, paper_statements, system_name):
        for name, sql, catalog, graph in paper_statements:
            system = make_system(system_name, catalog, graph)
            fp = fingerprint(sql)
            optimized, template = compile_template(
                PlanCache(), fp, sql, catalog, system.framework.optimize
            )
            # The one store-time walk rejects no plan the generic slot
            # walk accepted.
            assert template is not None, name
            plan = optimized.physical
            slots = param_sites(plan)[0]
            assert slots == _generic_slots(plan)
            for values in (fp.values, _redrawn(fp.values, slots)):
                by_sites, generic = template.bind(values), _generic_bind(plan, values)
                assert _same_plan(by_sites, generic), name
                assert by_sites.explain() == generic.explain(), name
                assert _shared(by_sites, plan) == _shared(generic, plan), name
                rows = [
                    system.framework.execute(replace(optimized, physical=p)).sorted_rows()
                    for p in (by_sites, generic)
                ]
                assert rows[0] == rows[1], name

    def test_sites_reach_plan_records_and_list_children(self, fig2):
        catalog, mapping, index = fig2
        person = catalog.table("Person")

        def param(value, slot):
            return ParamLiteral(value, slot=slot)

        # a -> b -> x, then c closes the star a -> c <- x.
        path = Expand(
            Expand(
                ScanVertex(mapping, "a", "Person"), index, mapping,
                "a", "b", "Person", "Knows", "out",
            ),
            index, mapping, "b", "x", "Person", "Knows", "out",
        )  # fmt: skip
        legs = [
            StarLeg("a", "Knows", "out", edge_predicate=Comparison(">", col("date"), param("2023-01-01", 0))),
            StarLeg("x", "Knows", "out"),
        ]  # fmt: skip
        star = ExpandIntersect(path, index, mapping, legs, "c", "Person")
        nested = Branch(
            "Likes", "in", "q", "Person",
            vertex_predicate=Comparison("=", col("name"), param("Bob", 2)),
        )  # fmt: skip
        graph_plan = BranchReduce(
            star, index, mapping, "c",
            (Branch(
                "Likes", "out", "m", "Message",
                edge_predicate=Comparison("<", col("date"), param("2024-03-30", 1)),
                branches=(nested,),
            ),),
        )  # fmt: skip
        exchange = ExchangeOp([
            SeqScan(person, "p", Comparison("<", col("p.person_id"), param(2, 3))),
            SeqScan(person, "p", Comparison(">", col("p.person_id"), param(2, 4))),
        ])  # fmt: skip
        relational_plan = AggregateOp(
            exchange,
            [(col("p.name"), "name")],
            [
                AggregateSpec("SUM", Arith("+", col("p.place_id"), param(1, 5)), "s"),
                AggregateSpec("COUNT", None, "n"),
            ],
        )
        values = ("2023-02-01", "2024-03-29", "Tom", 3, 1, 10)
        for plan, slots in ((graph_plan, {0, 1, 2}), (relational_plan, {3, 4, 5})):
            found, sites = param_sites(plan)
            assert found == _generic_slots(plan) == slots
            by_sites, generic = bind_plan(plan, sites, values), _generic_bind(plan, values)
            assert _same_plan(by_sites, generic)
            assert by_sites.explain() == generic.explain()
            assert _shared(by_sites, plan) == _shared(generic, plan)
            assert _rows(by_sites) == _rows(generic)
            assert param_sites(by_sites) == (set(), None)
        bound = bind_plan(graph_plan, param_sites(graph_plan)[1], values)
        assert _shared(bound, graph_plan) == {id(path), id(path.child), id(path.child.child)}


# ---------------------------------------------------------------------- #


class TestPlanCache:
    def test_hit_rebinds_literals(self):
        db = _people_db()
        with db.connect() as ses:
            r1 = ses.execute("SELECT name FROM People WHERE age = 28 ORDER BY name")
            r2 = ses.execute("SELECT name FROM People WHERE age = 41 ORDER BY name")
        assert r1.rows == [("Bob",), ("Dee",)]
        assert r2.rows == [("Cid",)]
        assert db.plan_cache.stats.hits == 1
        assert db.plan_cache.stats.misses == 1

    def test_hot_path_skips_the_frontend(self, monkeypatch):
        db = _people_db()
        ses = db.connect()
        ses.execute("SELECT name FROM People WHERE age = 28")
        import repro.core.sqlpgq.binder as binder_mod
        import repro.core.sqlpgq.parser as parser_mod

        def boom(*a, **k):  # pragma: no cover - would mean a cache miss
            raise AssertionError("frontend invoked on a cache hit")

        # Patch at the source modules: cached_optimize imports these at
        # call time, so a hit must never touch either.
        monkeypatch.setattr(parser_mod, "Parser", boom)
        monkeypatch.setattr(binder_mod, "bind_query", boom)
        r = ses.execute("SELECT name FROM People WHERE age = 34")
        assert r.rows == [("Ann",)]
        ses.close()

    def test_duplicate_conjunct_dedup_is_uncacheable_not_wrong(self):
        # and_() dedups conjuncts by string: `age = 28 AND age = 28`
        # collapses to one conjunct, losing a parameter slot.  The safety
        # valve must refuse to cache that plan; a later query with two
        # DIFFERENT values must not be answered from it.
        db = _people_db()
        with db.connect() as ses:
            r1 = ses.execute("SELECT name FROM People WHERE age = 28 AND age = 28")
            assert sorted(r1.rows) == [("Bob",), ("Dee",)]
            assert db.plan_cache.stats.uncacheable == 1
            assert len(db.plan_cache) == 0
            r2 = ses.execute("SELECT name FROM People WHERE age = 28 AND age = 41")
            assert r2.rows == []

    def test_baked_limit_gets_its_own_variant(self):
        db = _people_db()
        with db.connect() as ses:
            r2 = ses.execute("SELECT name FROM People ORDER BY name LIMIT 2")
            r3 = ses.execute("SELECT name FROM People ORDER BY name LIMIT 3")
            assert len(r2.rows) == 2 and len(r3.rows) == 3
            assert db.plan_cache.stats.misses == 2  # distinct variants
            again = ses.execute("SELECT name FROM People ORDER BY name LIMIT 2")
            assert len(again.rows) == 2
            assert db.plan_cache.stats.hits == 1

    def test_baked_like_pattern_variants(self):
        db = _people_db()
        with db.connect() as ses:
            ra = ses.execute("SELECT name FROM People WHERE name LIKE 'B%'")
            rb = ses.execute("SELECT name FROM People WHERE name LIKE 'D%'")
            assert ra.rows == [("Bob",)]
            assert rb.rows == [("Dee",)]
            rb2 = ses.execute("SELECT name FROM People WHERE name LIKE 'D%'")
            assert rb2.rows == [("Dee",)]
            assert db.plan_cache.stats.hits == 1

    def test_baked_in_list_variants(self):
        db = _people_db()
        with db.connect() as ses:
            ra = ses.execute("SELECT name FROM People WHERE age IN (28, 34)")
            rb = ses.execute("SELECT name FROM People WHERE age IN (41, 99)")
            assert sorted(ra.rows) == [("Ann",), ("Bob",), ("Dee",)]
            assert rb.rows == [("Cid",)]

    def test_implicit_alias_parity_on_hits(self):
        # `age + 1` has no explicit alias; its printed form embeds the
        # literal, so the slot is baked — same value hits, new value gets
        # its own variant, and column names always match an uncached parse.
        db = _people_db()
        with db.connect() as ses:
            r1 = ses.execute("SELECT age + 1 FROM People WHERE id = 1")
            r2 = ses.execute("SELECT age + 1 FROM People WHERE id = 2")
            assert r1.columns == r2.columns == ["(age + 1)"]
            assert r1.rows == [(35,)] and r2.rows == [(29,)]
            assert db.plan_cache.stats.hits == 1
            r3 = ses.execute("SELECT age + 2 FROM People WHERE id = 1")
            assert r3.columns == ["(age + 2)"]
            assert r3.rows == [(36,)]

    def test_ddl_and_analyze_invalidate(self):
        db = _people_db()
        ses = db.connect()
        ses.execute("SELECT name FROM People WHERE age = 28")
        db.catalog.analyze()  # statistics epoch moved
        ses.execute("SELECT name FROM People WHERE age = 28")
        assert db.plan_cache.stats.invalidations == 1
        assert db.plan_cache.stats.hits == 0
        ses.close()

    def test_graph_query_rebind(self):
        db = _fig2_db()
        with db.connect() as ses:
            q = (
                "SELECT g.p1_name FROM GRAPH_TABLE (G "
                "MATCH (p1:Person)-[k:Knows]->(p2:Person) "
                "WHERE p2.name = 'Bob' "
                "COLUMNS (p1.name AS p1_name)) g"
            )
            r1 = ses.execute(q)
            r2 = ses.execute(q.replace("'Bob'", "'Tom'"))
            assert sorted(r1.rows) == [("David",), ("Tom",)]
            assert sorted(r2.rows) == [("Bob",)]
            assert db.plan_cache.stats.hits == 1

    def test_plans_with_exists_checks_stay_cacheable(self):
        # JOB24's dead movie_info branch becomes an EXISTS check whose
        # predicate (it.info = 'genres') holds a parameter slot: the
        # rebind walk must see it, or the safety valve refuses the plan.
        from repro.workloads.job import JobParams, generate_imdb
        from repro.workloads.job.queries import job_queries

        catalog, mapping = generate_imdb(JobParams.scaled(0.3, seed=5))
        db = _track(Database(catalog))
        reference = make_system("relgo_norule", catalog, "imdb")
        sql = job_queries(["JOB24"])["JOB24"]
        variants = [
            sql,
            sql.replace("'revenge'", "'murder'"),
            sql.replace("'genres'", "'budget'"),
        ]
        with db.connect() as ses:
            for i, text in enumerate(variants):
                result = ses.execute(text)
                expected = reference.framework.execute(reference.optimize(text))
                assert sorted(result.rows) == expected.sorted_rows(), text
                assert db.plan_cache.stats.hits == i
                assert db.plan_cache.stats.uncacheable == 0
        assert "EXISTS t" in make_system("relgo", catalog, "imdb").optimize(sql).explain()

    def test_plans_with_reduced_branches_rebind(self):
        # JOB16's company and cast branches become one REDUCE on t whose
        # branch predicates (cn.country_code, n.name) hold parameter slots:
        # a hit that redraws the root's keyword and the reduced company
        # branch's country must answer like a cold compile.
        from repro.workloads.job import JobParams, generate_imdb
        from repro.workloads.job.queries import job_queries

        catalog, mapping = generate_imdb(JobParams.scaled(0.3, seed=5))
        db = _track(Database(catalog))
        sql = job_queries(["JOB16"])["JOB16"]
        redrawn = sql.replace("'character-name-in-title'", "'sequel'").replace("'[us]'", "'[de]'")
        assert redrawn.count("'sequel'") == redrawn.count("'[de]'") == 1
        relgo = make_system("relgo", catalog, "imdb")
        assert "REDUCE t (" in relgo.optimize(sql).explain()
        with db.connect() as ses:
            for i, text in enumerate([sql, redrawn]):
                result = ses.execute(text)
                cold = relgo.framework.execute(relgo.optimize(text))
                assert sorted(result.rows) == cold.sorted_rows(), text
                assert db.plan_cache.stats.hits == i
                assert db.plan_cache.stats.uncacheable == 0
        assert cold.sorted_rows() != relgo.framework.execute(relgo.optimize(sql)).sorted_rows()

    def test_lru_eviction_is_bounded(self):
        db = _people_db()
        db.plan_cache.capacity = 4
        with db.connect() as ses:
            for i in range(1, 11):
                # LIMIT is a baked slot: every distinct count is its own
                # cache variant, so ten queries make ten entries.
                ses.execute(f"SELECT name FROM People ORDER BY name LIMIT {i}")
        assert len(db.plan_cache) <= 4
        assert db.plan_cache.stats.evictions >= 6

    def test_cache_survives_data_appends(self):
        # Appends do NOT bump the catalog version: snapshots give cached
        # plans a consistent view, and the rebound plan sees new rows.
        db = _people_db()
        with db.connect() as ses:
            r1 = ses.execute("SELECT name FROM People WHERE age = 28")
            db.catalog.table("People").append((5, "Eve", 28))
            r2 = ses.execute("SELECT name FROM People WHERE age = 28")
        assert sorted(r1.rows) == [("Bob",), ("Dee",)]
        assert sorted(r2.rows) == [("Bob",), ("Dee",), ("Eve",)]
        assert db.plan_cache.stats.hits == 1

    def test_unbound_cache_objects_are_version_zero(self):
        cache = PlanCache(capacity=2)
        assert cache._catalog_version() == 0


# ---------------------------------------------------------------------- #
# sessions: lifecycle, cancellation, admission, leaks
# ---------------------------------------------------------------------- #


class TestSessionLifecycle:
    def test_ddl_via_session(self):
        catalog, _ = build_fig2_catalog()
        # Strip the pre-registered graph: register through the session.
        fresh = Catalog()
        for name in catalog.table_names():
            fresh.add_table(catalog.table(name))
        db = _track(Database(catalog=fresh))
        ddl = (
            "CREATE PROPERTY GRAPH G2 "
            "VERTEX TABLES (Person KEY (person_id), Message KEY (message_id)) "
            "EDGE TABLES (Likes SOURCE KEY (pid) REFERENCES Person (person_id) "
            "DESTINATION KEY (mid) REFERENCES Message (message_id))"
        )
        with db.connect() as ses:
            r = ses.execute(ddl)
            assert r.rows == [("ok",)]
            assert fresh.has_graph("G2")
            out = ses.execute(
                "SELECT COUNT(*) AS n FROM GRAPH_TABLE (G2 "
                "MATCH (p:Person)-[l:Likes]->(m:Message) "
                "COLUMNS (p.name AS name)) g"
            )
            assert out.rows == [(4,)]

    def test_closed_session_rejects_queries(self):
        db = _people_db()
        ses = db.connect()
        ses.close()
        with pytest.raises(SessionClosed):
            ses.execute("SELECT name FROM People")
        db.close()
        with pytest.raises(SessionClosed):
            db.connect()

    def test_submit_result(self):
        db = _people_db()
        with db.connect() as ses:
            pending = ses.submit("SELECT COUNT(*) AS n FROM People")
            assert pending.result(timeout=30).rows == [(4,)]
            assert pending.done()

    def test_submit_cancel(self):
        rows = [(i, f"n{i}", i % 50) for i in range(4000)]
        db = _people_db(rows=rows)
        with db.connect() as ses:
            # Self-joins make enough batches for a boundary check to land.
            pending = ses.submit(
                "SELECT COUNT(*) AS n FROM People p1, People p2, People p3 "
                "WHERE p1.age = p2.age AND p2.age = p3.age"
            )
            pending.cancel("test cancel")
            with pytest.raises(QueryCancelled):
                pending.result(timeout=60)

    def test_close_cancels_in_flight_queries(self):
        rows = [(i, f"n{i}", i % 50) for i in range(4000)]
        db = _people_db(rows=rows)
        ses = db.connect()
        pending = ses.submit(
            "SELECT COUNT(*) AS n FROM People p1, People p2, People p3 "
            "WHERE p1.age = p2.age AND p2.age = p3.age"
        )
        ses.close()  # cancels + joins
        assert pending.done()
        with pytest.raises((QueryCancelled, Exception)):
            pending.result(timeout=1)

    def test_no_leaked_threads_or_leases(self):
        from tests.test_lifecycle import assert_no_repro_threads

        governor = MemoryGovernor(total_rows=100_000, admission_timeout=5.0)
        db = _people_db()
        db.governor = governor
        with db.connect() as ses:
            futures = [
                ses.submit("SELECT name FROM People WHERE age >= 0 ORDER BY name")
                for _ in range(8)
            ]
            for f in futures:
                assert len(f.result(timeout=60).rows) == 4
        assert governor.active_leases == 0
        assert governor.leased_rows == 0
        # The shared pool's workers live exactly as long as the Database:
        # close() joins them (and any wire threads), leaving zero repro-*
        # threads behind.
        db.close()
        assert_no_repro_threads()

    def test_admission_error_surfaces(self):
        db = _people_db()
        db.governor = MemoryGovernor(total_rows=10, admission_timeout=0.0)
        db.config.memory_budget_rows = 100  # can never fit
        with db.connect() as ses:
            with pytest.raises(AdmissionError):
                ses.execute("SELECT name FROM People")

    def test_no_spill_files_leak(self, tmp_path, repro_env):
        repro_env(spill_dir=tmp_path, spill_threshold=64)
        rows = [(i, f"name{i % 97:03d}", i % 13) for i in range(3000)]
        db = _people_db(rows=rows)
        with db.connect() as ses:
            r = ses.execute("SELECT id, name FROM People ORDER BY name, id")
            assert len(r.rows) == 3000
            expected = sorted(((i, n) for i, n, _ in rows), key=lambda t: (t[1], t[0]))
            assert r.rows == expected
        leftovers = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert leftovers == []


# ---------------------------------------------------------------------- #
# concurrency: snapshot consistency under live writers
# ---------------------------------------------------------------------- #

CHUNK = 50


class TestConcurrentSessions:
    def test_sessions_see_chunk_aligned_monotonic_counts(self):
        rows = [(i, f"n{i}", i) for i in range(CHUNK)]
        db = _people_db(rows=rows)
        table = db.catalog.table("People")
        stop = threading.Event()

        def writer():
            next_id = CHUNK
            while not stop.is_set():
                table.extend(
                    [(next_id + j, f"n{next_id + j}", next_id + j) for j in range(CHUNK)]
                )
                next_id += CHUNK
                if next_id > 40 * CHUNK:
                    break

        failures: list[str] = []

        def reader(n_queries: int):
            with db.connect() as ses:
                last = 0
                for _ in range(n_queries):
                    count = ses.execute(
                        "SELECT COUNT(*) AS n FROM People WHERE id >= 0"
                    ).rows[0][0]
                    if count % CHUNK != 0:
                        failures.append(f"torn count {count}")
                    if count < last:
                        failures.append(f"count went backwards {last} -> {count}")
                    last = count

        w = threading.Thread(target=writer)
        readers = [threading.Thread(target=reader, args=(25,)) for _ in range(4)]
        w.start()
        for r in readers:
            r.start()
        for r in readers:
            r.join()
        stop.set()
        w.join()
        assert failures == []

    def test_graph_results_stable_under_vertex_edge_appends(self):
        db = _fig2_db()
        person = db.catalog.table("Person")
        knows = db.catalog.table("Knows")
        q = (
            "SELECT COUNT(*) AS n FROM GRAPH_TABLE (G "
            "MATCH (p1:Person)-[k:Knows]->(p2:Person) "
            "COLUMNS (p1.name AS name)) g"
        )
        with db.connect() as ses:
            baseline = ses.execute(q).rows[0][0]
            stop = threading.Event()

            def writer():
                next_pid = 1000
                next_kid = 1000
                while not stop.is_set():
                    # Vertex first, then the edge referencing it — the
                    # global epoch order readers may observe.
                    person.append((next_pid, f"p{next_pid}", 101))
                    knows.append((next_kid, 1, next_pid, "2024-01-01"))
                    next_pid += 1
                    next_kid += 1
                    if next_pid > 1200:
                        break

            w = threading.Thread(target=writer)
            w.start()
            try:
                # The CSR index is pinned at its build version: results are
                # bit-stable no matter how many appends land mid-stream.
                for _ in range(20):
                    assert ses.execute(q).rows[0][0] == baseline
            finally:
                stop.set()
                w.join()

    def test_many_sessions_shared_cache(self):
        db = _people_db()
        errors: list[str] = []

        def client(worker_id: int):
            with db.connect() as ses:
                for i in range(10):
                    age = (28, 34, 41)[i % 3]
                    got = sorted(
                        ses.execute(
                            f"SELECT name FROM People WHERE age = {age}"
                        ).rows
                    )
                    want = {
                        28: [("Bob",), ("Dee",)],
                        34: [("Ann",)],
                        41: [("Cid",)],
                    }[age]
                    if got != want:
                        errors.append(f"worker {worker_id}: {age} -> {got}")

        threads = [threading.Thread(target=client, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        stats = db.plan_cache.stats
        assert stats.hits + stats.misses == 60
        assert stats.hits >= 50  # one shape, one miss per racy optimize at worst


# ---------------------------------------------------------------------- #
# satellites: dictionary demotion + dictionary-aware ORDER BY
# ---------------------------------------------------------------------- #


@pytest.fixture()
def dict_backend():
    """Force the dict backend (the suite may run under REPRO_STORAGE=...)."""
    set_storage_backend("dict")
    yield
    set_storage_backend(None)


class TestDictDemotion:
    def test_unique_heavy_bulk_load_demotes_to_list(self, dict_backend, monkeypatch):
        monkeypatch.setattr(column_mod, "DEMOTE_MIN_ROWS", 100)
        catalog = Catalog()
        table = catalog.create_table(
            TableSchema(
                "U",
                [Column("id", DataType.INT), Column("payload", DataType.STRING)],
                primary_key="id",
            ),
            rows=[(i, f"unique-payload-{i}") for i in range(500)],
        )
        assert not is_dict(table.columns["payload"])
        assert list(table.column("payload"))[:2] == [
            "unique-payload-0",
            "unique-payload-1",
        ]

    def test_repetitive_bulk_load_stays_dictionary(self, dict_backend, monkeypatch):
        monkeypatch.setattr(column_mod, "DEMOTE_MIN_ROWS", 100)
        catalog = Catalog()
        table = catalog.create_table(
            TableSchema(
                "R",
                [Column("id", DataType.INT), Column("city", DataType.STRING)],
                primary_key="id",
            ),
            rows=[(i, f"city{i % 10}") for i in range(500)],
        )
        assert is_dict(table.columns["city"])

    def test_demotion_is_loss_free(self, monkeypatch):
        monkeypatch.setattr(column_mod, "DEMOTE_MIN_ROWS", 10)
        monkeypatch.setattr(column_mod, "DEMOTE_DISTINCT_RATIO", 0.5)
        col = DictColumn()
        col.extend(["a", "b", "a", "b"])  # low cardinality prefix
        values = [f"v{i}" for i in range(100)]
        with pytest.raises(DictDemotion):
            col.extend(values)

    def test_single_row_appends_never_demote(self):
        col = DictColumn()
        for i in range(50):
            col.append(f"unique{i}")
        assert len(col) == 50


class TestDictOrderBy:
    def _db(self, n=2000, cities=7):
        rows = [(i, f"city{(i * 31) % cities}", i % 5) for i in range(n)]
        catalog = Catalog()
        catalog.create_table(
            TableSchema(
                "T",
                [
                    Column("id", DataType.INT),
                    Column("city", DataType.STRING),
                    Column("b", DataType.INT),
                ],
                primary_key="id",
            ),
            rows=rows,
        )
        return _track(Database(catalog=catalog)), rows

    def test_parity_with_python_sort(self):
        db, rows = self._db()
        with db.connect() as ses:
            r = ses.execute("SELECT id, city FROM T WHERE b >= 2 ORDER BY city, id")
        expected = sorted(
            ((i, c) for i, c, b in rows if b >= 2), key=lambda t: (t[1], t[0])
        )
        assert r.rows == expected

    def test_desc_and_mixed_keys(self):
        db, rows = self._db(n=500)
        with db.connect() as ses:
            r = ses.execute("SELECT id, city FROM T ORDER BY city DESC, id")
        expected = sorted(((i, c) for i, c, _ in rows), key=lambda t: t[0])
        expected.sort(key=lambda t: t[1], reverse=True)
        assert r.rows == expected

    def test_order_by_expression_key_still_works(self):
        db, rows = self._db(n=300)
        with db.connect() as ses:
            r = ses.execute("SELECT id FROM T ORDER BY id * -1 LIMIT 5")
        assert [t[0] for t in r.rows] == [299, 298, 297, 296, 295]

    def test_spill_path_falls_back_to_value_domain(self, tmp_path, repro_env):
        repro_env(spill_dir=tmp_path, spill_threshold=128)
        db, rows = self._db(n=2000)
        with db.connect() as ses:
            r = ses.execute("SELECT id, city FROM T ORDER BY city, id")
        expected = sorted(((i, c) for i, c, _ in rows), key=lambda t: (t[1], t[0]))
        assert r.rows == expected
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []


class TestServingKnob:
    """REPRO_SERVING=1: System text queries run through a plan cache."""

    Q = (
        "SELECT g.p1_name FROM GRAPH_TABLE (G "
        "MATCH (p1:Person)-[k:Knows]->(p2:Person) "
        "WHERE p2.name = 'Bob' "
        "COLUMNS (p1.name AS p1_name)) g"
    )

    def test_system_text_runs_hit_the_cache(self, fig2, repro_env):
        repro_env(serving=1)
        catalog, _, _ = fig2
        system = make_system("relgo", catalog)
        assert system.plan_cache is not None
        r1 = system.run(self.Q, query_name="q")
        r2 = system.run(self.Q.replace("'Bob'", "'Tom'"), query_name="q")
        assert r1.ok() and r2.ok()
        assert system.plan_cache.stats.hits == 1
        assert system.plan_cache.stats.misses == 1

    def test_armed_results_match_unarmed(self, fig2, repro_env):
        repro_env(serving=None)
        catalog, _, _ = fig2
        baseline = make_system("relgo", catalog)
        assert baseline.plan_cache is None
        want = baseline.optimize(self.Q)
        repro_env(serving=1)
        armed = make_system("relgo", catalog)
        # Second optimize of the shape is a rebind of the cached template;
        # the engine must produce the same rows either way.
        armed.optimize(self.Q)
        got = armed.optimize(self.Q)
        assert armed.plan_cache.stats.hits == 1
        from repro.exec.context import execute_plan

        assert (
            execute_plan(got.physical).sorted_rows()
            == execute_plan(want.physical).sorted_rows()
        )

    def test_bind_errors_still_classified(self, fig2, repro_env):
        repro_env(serving=1)
        catalog, _, _ = fig2
        system = make_system("relgo", catalog)
        result = system.run("SELECT nope FROM Nowhere", query_name="bad")
        assert result.status == "error"
        assert result.detail.startswith("bind:")


# ---------------------------------------------------------------------- #
# DB-API parameters: `?` placeholders on execute/submit
# ---------------------------------------------------------------------- #


class TestQueryParams:
    def test_execute_with_params(self):
        db = _people_db()
        with db.connect() as ses:
            r = ses.execute("SELECT name FROM People WHERE age = ?", params=[28])
        assert sorted(r.rows) == [("Bob",), ("Dee",)]

    def test_params_share_cache_with_literal_form(self):
        # `age = ?` with params=[28] and `age = 28` normalize identically:
        # one fingerprint, one template, shared hits.
        db = _people_db()
        with db.connect() as ses:
            ses.execute("SELECT name FROM People WHERE age = ?", params=[28])
            r = ses.execute("SELECT name FROM People WHERE age = 41")
        assert r.rows == [("Cid",)]
        assert db.plan_cache.stats.misses == 1
        assert db.plan_cache.stats.hits == 1

    def test_submit_with_params(self):
        db = _people_db()
        with db.connect() as ses:
            pending = ses.submit(
                "SELECT name FROM People WHERE age = ?", params=[41]
            )
            assert pending.result(timeout=30).rows == [("Cid",)]

    def test_param_count_mismatch_is_typed(self):
        db = _people_db()
        with db.connect() as ses:
            with pytest.raises(ParameterError):
                ses.execute(
                    "SELECT name FROM People WHERE age = ?", params=[28, 41]
                )
            with pytest.raises(ParameterError):
                ses.execute("SELECT name FROM People WHERE age = ?")

    def test_unbindable_param_type_is_typed(self):
        db = _people_db()
        with db.connect() as ses:
            with pytest.raises(ParameterError):
                ses.execute(
                    "SELECT name FROM People WHERE age = ?", params=[True]
                )

    def test_placeholder_without_params_machinery_is_a_parse_error(self):
        # A plain (non-parameterizing) parse must reject `?` with a clear
        # message, not an "unexpected character".
        from repro.core.sqlpgq.parser import Parser

        with pytest.raises(ParseError, match="placeholder"):
            Parser("SELECT a FROM t WHERE x = ?").parse_statement()

    def test_placeholder_in_baked_position(self):
        # LIMIT consumes its literal structurally, so a `?` there is baked
        # into the plan shape: each distinct value is its own cache variant.
        db = _people_db()
        with db.connect() as ses:
            r2 = ses.execute(
                "SELECT name FROM People ORDER BY name LIMIT ?", params=[2]
            )
            r3 = ses.execute(
                "SELECT name FROM People ORDER BY name LIMIT ?", params=[3]
            )
            again = ses.execute(
                "SELECT name FROM People ORDER BY name LIMIT ?", params=[2]
            )
        assert len(r2.rows) == 2 and len(r3.rows) == 3 and len(again.rows) == 2
        assert db.plan_cache.stats.misses == 2
        assert db.plan_cache.stats.hits == 1

    def test_mixed_placeholders_and_literals(self):
        db = _people_db()
        with db.connect() as ses:
            r = ses.execute(
                "SELECT name FROM People WHERE age = ? AND id >= 1 "
                "ORDER BY name LIMIT ?",
                params=[28, 1],
            )
        assert r.rows == [("Bob",)]


# ---------------------------------------------------------------------- #
# prepared statements
# ---------------------------------------------------------------------- #


class TestPreparedStatements:
    def test_prepare_execute_rebind(self):
        db = _people_db()
        with db.connect() as ses:
            stmt = ses.prepare("SELECT name FROM People WHERE age = ?")
            assert sorted(stmt.execute([28]).rows) == [("Bob",), ("Dee",)]
            assert stmt.execute([41]).rows == [("Cid",)]
            stmt.close()

    def test_hot_path_skips_scan_and_frontend(self, monkeypatch):
        # After the first execute compiles the template, later executes
        # probe the shared cache with a fingerprint built from the merged
        # params: a counted hit, with no text scan, no parser, no binder.
        db = _people_db()
        ses = db.connect()
        stmt = ses.prepare("SELECT name FROM People WHERE age = ?")
        stmt.execute([28])
        import repro.core.sqlpgq.binder as binder_mod
        import repro.core.sqlpgq.parser as parser_mod
        import repro.serving.plan_cache as cache_mod
        import repro.serving.prepared as prepared_mod

        def boom(*a, **k):  # pragma: no cover - would mean a re-prepare
            raise AssertionError("frontend invoked on prepared hot path")

        monkeypatch.setattr(parser_mod, "Parser", boom)
        monkeypatch.setattr(binder_mod, "bind_query", boom)
        monkeypatch.setattr(cache_mod, "scan_text", boom)
        monkeypatch.setattr(prepared_mod, "scan_text", boom)
        hits = db.plan_cache.stats.hits
        assert stmt.execute([34]).rows == [("Ann",)]
        assert stmt.execute([41]).rows == [("Cid",)]
        assert db.plan_cache.stats.hits == hits + 2
        ses.close()

    def test_epoch_invalidation_reprepares_transparently(self):
        db = _people_db()
        with db.connect() as ses:
            stmt = ses.prepare("SELECT name FROM People WHERE age = ?")
            assert sorted(stmt.execute([28]).rows) == [("Bob",), ("Dee",)]
            db.catalog.analyze()  # DDL-equivalent: schema/stats epoch bump
            # Same handle, new epoch: the shared cache drops the stale
            # template and the statement recompiles against the new
            # catalog — same answer.
            assert sorted(stmt.execute([28]).rows) == [("Bob",), ("Dee",)]
            assert db.plan_cache.stats.invalidations == 1
            assert stmt.execute([41]).rows == [("Cid",)]

    def test_eviction_by_adhoc_traffic_recompiles_transparently(self):
        # The statement owns no plans: ad-hoc shapes filling the shared
        # cache evict its template, and the next execute just recompiles.
        db = _people_db(cache_capacity=2)
        with db.connect() as ses:
            stmt = ses.prepare("SELECT name FROM People WHERE age = ?")
            assert stmt.execute([41]).rows == [("Cid",)]
            ses.execute("SELECT id FROM People WHERE age = 28")
            ses.execute("SELECT age FROM People WHERE id = 1")
            assert db.plan_cache.stats.evictions == 1
            misses = db.plan_cache.stats.misses
            assert stmt.execute([34]).rows == [("Ann",)]
            assert db.plan_cache.stats.misses == misses + 1
            hits = db.plan_cache.stats.hits
            assert stmt.execute([41]).rows == [("Cid",)]
            assert db.plan_cache.stats.hits == hits + 1

    def test_param_mismatch_is_typed(self):
        db = _people_db()
        with db.connect() as ses:
            stmt = ses.prepare("SELECT name FROM People WHERE age = ?")
            with pytest.raises(ParameterError):
                stmt.execute([1, 2])
            with pytest.raises(ParameterError):
                stmt.execute()

    def test_concurrent_execute_on_one_handle(self):
        db = _people_db()
        want = {28: [("Bob",), ("Dee",)], 34: [("Ann",)], 41: [("Cid",)]}
        errors: list[str] = []
        with db.connect() as ses:
            stmt = ses.prepare("SELECT name FROM People WHERE age = ?")

            def worker(worker_id: int):
                for i in range(10):
                    age = (28, 34, 41)[(worker_id + i) % 3]
                    got = sorted(stmt.execute([age]).rows)
                    if got != want[age]:
                        errors.append(f"worker {worker_id}: {age} -> {got}")

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert errors == []

    def test_closed_statement_rejects_execute(self):
        db = _people_db()
        with db.connect() as ses:
            stmt = ses.prepare("SELECT name FROM People WHERE age = ?")
            stmt.close()
            with pytest.raises(SessionClosed):
                stmt.execute([28])

    def test_session_close_closes_statements(self):
        db = _people_db()
        ses = db.connect()
        stmt = ses.prepare("SELECT name FROM People WHERE age = ?")
        ses.close()
        with pytest.raises(SessionClosed):
            stmt.execute([28])

    def test_baked_placeholder_variants(self):
        db = _people_db()
        with db.connect() as ses:
            stmt = ses.prepare("SELECT name FROM People ORDER BY name LIMIT ?")
            assert len(stmt.execute([2]).rows) == 2
            assert len(stmt.execute([3]).rows) == 3
            assert len(stmt.execute([2]).rows) == 2


# ---------------------------------------------------------------------- #
# the shared worker pool
# ---------------------------------------------------------------------- #


class TestWorkerPool:
    def test_pool_bounds_concurrency(self):
        # 8 sessions x 4 in-flight queries each on a pool of 4: every
        # query completes, and no more than 4 worker threads ever start.
        db = _people_db(workers=4)
        sessions = [db.connect() for _ in range(8)]
        try:
            futures = [
                ses.submit("SELECT name FROM People WHERE age = ?", params=[28])
                for ses in sessions
                for _ in range(4)
            ]
            for f in futures:
                assert sorted(f.result(timeout=60).rows) == [("Bob",), ("Dee",)]
        finally:
            for ses in sessions:
                ses.close()
        assert db.pool.worker_count <= 4

    def test_cancel_while_queued_completes_immediately(self):
        # One worker, one slow query hogging it: queued queries cancelled
        # behind it complete as QueryCancelled without waiting for a worker.
        rows = [(i, f"n{i}", i % 50) for i in range(4000)]
        db = _people_db(rows=rows, workers=1)
        with db.connect() as ses:
            slow = ses.submit(
                "SELECT COUNT(*) AS n FROM People p1, People p2, People p3 "
                "WHERE p1.age = p2.age AND p2.age = p3.age"
            )
            queued = [ses.submit("SELECT name FROM People") for _ in range(4)]
            for q in queued:
                q.cancel("jumped the queue")
            for q in queued:
                with pytest.raises(QueryCancelled):
                    q.result(timeout=10)
            slow.cancel("done probing")
            with pytest.raises(QueryCancelled):
                slow.result(timeout=60)

    def test_submit_after_database_close_raises(self):
        db = _people_db()
        ses = db.connect()
        db.close()
        with pytest.raises(SessionClosed):
            ses.submit("SELECT name FROM People")

    def test_error_notes_carry_query_context(self):
        db = _people_db()
        with db.connect() as ses:
            pending = ses.submit("SELECT name FROM People WHERE age = ?")
            with pytest.raises(ParameterError) as info:
                pending.result(timeout=30)
        notes = getattr(info.value, "__notes__", [])
        assert any("SELECT name FROM People" in n for n in notes)

    def test_worker_size_resolution(self):
        from repro.serving.pool import DEFAULT_WORKERS, WorkerPool

        default = WorkerPool()
        assert default.size == DEFAULT_WORKERS
        default.close()
        with pytest.raises(ValueError):
            WorkerPool(0)
        pool = WorkerPool(2)
        assert pool.size == 2 and pool.worker_count == 0  # lazy spawn
        pool.close()
