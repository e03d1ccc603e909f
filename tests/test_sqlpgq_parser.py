"""SQL/PGQ frontend: lexing, parsing, binding, and end-to-end execution of
the paper's Fig. 1 query text."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.framework import RelGoConfig, RelGoFramework
from repro.core.sqlpgq import parse_and_bind, parse_statement
from repro.core.sqlpgq.binder import execute_ddl
from repro.core.sqlpgq.lexer import KEYWORDS, SYMBOLS, tokenize
from repro.errors import BindError, ParseError, UnsupportedFeatureError
from repro.relational.catalog import Catalog
from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType

from tests.conftest import build_fig2_catalog

FIG1_SQL = """
SELECT p2_name, p.name AS place_name
FROM GRAPH_TABLE (G
  MATCH (p1:Person)-[:Likes]->(m:Message),
        (p2:Person)-[:Likes]->(m),
        (p1)-[:Knows]->(p2)
  COLUMNS (p1.name AS p1_name,
           p1.place_id AS p1_place_id,
           p2.name AS p2_name)
) g JOIN Place p ON g.p1_place_id = p.id
WHERE g.p1_name = 'Tom';
"""


def test_parse_fig1_structure():
    ast = parse_statement(FIG1_SQL)
    gt = ast.graph_table
    assert gt is not None
    assert gt.graph_name == "G"
    assert len(gt.paths) == 3
    assert [c.alias for c in gt.columns] == ["p1_name", "p1_place_id", "p2_name"]
    assert gt.alias == "g"
    assert len(ast.tables) == 1 and ast.tables[0].alias == "p"
    assert len(ast.join_conditions) == 1
    assert ast.where is not None


def test_bind_fig1_pattern(fig2):
    catalog, _, _ = fig2
    query = parse_and_bind(FIG1_SQL, catalog)
    clause = query.graph_table
    assert clause is not None
    pattern = clause.pattern
    assert sorted(pattern.vertices) == ["m", "p1", "p2"]
    assert pattern.num_edges == 3
    labels = sorted(e.label for e in pattern.edges.values())
    assert labels == ["Knows", "Likes", "Likes"]


def test_fig1_executes_correctly(fig2):
    catalog, _, _ = fig2
    query = parse_and_bind(FIG1_SQL, catalog)
    framework = RelGoFramework(catalog, "G", RelGoConfig())
    framework.prepare()
    result, _ = framework.run(query)
    assert result.sorted_rows() == [("Bob", "Germany")]


def test_fig1_agnostic_equals_converged(fig2):
    catalog, _, _ = fig2
    query = parse_and_bind(FIG1_SQL, catalog)
    converged = RelGoFramework(catalog, "G", RelGoConfig())
    converged.prepare()
    agnostic = RelGoFramework(
        catalog, "G", RelGoConfig(graph_aware=False, use_graph_index=False)
    )
    r1, _ = converged.run(query)
    r2, _ = agnostic.run(query)
    assert r1.sorted_rows() == r2.sorted_rows()


def test_in_clause_where_becomes_constraint(fig2):
    catalog, _, _ = fig2
    sql = """
    SELECT n FROM GRAPH_TABLE (G
      MATCH (a:Person)-[k:Knows]->(b:Person)
      WHERE a.name = 'Tom' AND k.date >= '2023-01-01'
      COLUMNS (b.name AS n)) g
    """
    query = parse_and_bind(sql, catalog)
    pattern = query.graph_table.pattern
    assert pattern.vertices["a"].predicate is not None
    assert pattern.edges["k"].predicate is not None
    framework = RelGoFramework(catalog, "G", RelGoConfig())
    framework.prepare()
    result, _ = framework.run(query)
    assert result.rows == [("Bob",)]


def test_label_inference_from_edge(fig2):
    catalog, _, _ = fig2
    sql = """
    SELECT n FROM GRAPH_TABLE (G
      MATCH (a)-[:Knows]->(b)
      COLUMNS (b.name AS n)) g
    """
    query = parse_and_bind(sql, catalog)
    pattern = query.graph_table.pattern
    assert pattern.vertices["a"].label == "Person"
    assert pattern.vertices["b"].label == "Person"


def test_edge_label_inference_unique(fig2):
    catalog, _, _ = fig2
    sql = """
    SELECT c FROM GRAPH_TABLE (G
      MATCH (a:Person)-[e]->(b:Message)
      COLUMNS (b.content AS c)) g
    """
    query = parse_and_bind(sql, catalog)
    assert query.graph_table.pattern.edges["e"].label == "Likes"


def test_incoming_edge_direction(fig2):
    catalog, _, _ = fig2
    sql = """
    SELECT n FROM GRAPH_TABLE (G
      MATCH (m:Message)<-[:Likes]-(p:Person)
      COLUMNS (p.name AS n, m.content AS c)) g
    """
    query = parse_and_bind(sql, catalog)
    edge = next(iter(query.graph_table.pattern.edges.values()))
    assert edge.src == "p" and edge.dst == "m"


def test_aggregate_and_order_by(fig2):
    catalog, _, _ = fig2
    sql = """
    SELECT g.n AS n, COUNT(*) AS c FROM GRAPH_TABLE (G
      MATCH (a:Person)-[:Likes]->(m:Message)
      COLUMNS (a.name AS n)) g
    GROUP BY g.n ORDER BY c DESC, n ASC LIMIT 2
    """
    query = parse_and_bind(sql, catalog)
    framework = RelGoFramework(catalog, "G", RelGoConfig())
    framework.prepare()
    result, _ = framework.run(query)
    assert result.rows == [("Bob", 2), ("David", 1)]


def test_id_and_label_columns(fig2):
    catalog, _, _ = fig2
    sql = """
    SELECT g.pid AS pid, g.lbl AS lbl FROM GRAPH_TABLE (G
      MATCH (a:Person)
      COLUMNS (ID(a) AS pid, LABEL(a) AS lbl)) g
    """
    query = parse_and_bind(sql, catalog)
    framework = RelGoFramework(catalog, "G", RelGoConfig())
    framework.prepare()
    result, _ = framework.run(query)
    assert sorted(result.rows) == [(1, "Person"), (2, "Person"), (3, "Person")]


def test_create_property_graph_ddl():
    catalog, _ = build_fig2_catalog()
    fresh = Catalog()
    # Rebuild the same base tables in a fresh catalog without a graph.
    for name in ("Person", "Message", "Likes", "Knows", "Place"):
        src = catalog.table(name)
        fresh.create_table(src.schema, rows=list(src.iter_rows()))
    ddl = """
    CREATE PROPERTY GRAPH G2
    VERTEX TABLES (
      Person PROPERTIES (person_id, name, place_id),
      Message PROPERTIES (message_id, content)
    )
    EDGE TABLES (
      Likes SOURCE KEY (pid) REFERENCES Person (person_id)
            DESTINATION KEY (mid) REFERENCES Message (message_id)
            PROPERTIES (date),
      Knows SOURCE KEY (pid1) REFERENCES Person (person_id)
            DESTINATION KEY (pid2) REFERENCES Person (person_id)
    )
    """
    statement = parse_statement(ddl)
    mapping = execute_ddl(statement, fresh)
    assert sorted(mapping.vertices) == ["Message", "Person"]
    assert sorted(mapping.edges) == ["Knows", "Likes"]
    mapping.validate()


def test_parse_error_reports_location():
    with pytest.raises(ParseError):
        parse_statement("SELECT FROM")


def test_unknown_graph_raises(fig2):
    catalog, _, _ = fig2
    with pytest.raises(Exception):
        parse_and_bind(
            "SELECT x FROM GRAPH_TABLE (NoSuchGraph MATCH (a:Person) "
            "COLUMNS (a.name AS x)) g",
            catalog,
        )


def test_multi_var_in_clause_where_rejected(fig2):
    catalog, _, _ = fig2
    sql = """
    SELECT n FROM GRAPH_TABLE (G
      MATCH (a:Person)-[:Knows]->(b:Person)
      WHERE a.name = b.name
      COLUMNS (b.name AS n)) g
    """
    with pytest.raises(UnsupportedFeatureError):
        parse_and_bind(sql, catalog)


def test_disconnected_pattern_rejected(fig2):
    catalog, _, _ = fig2
    sql = """
    SELECT n FROM GRAPH_TABLE (G
      MATCH (a:Person), (b:Message)
      COLUMNS (a.name AS n)) g
    """
    with pytest.raises(Exception):
        parse_and_bind(sql, catalog)


# --------------------------------------------------------------------- #
# lexer: one compiled alternation, checked against the character walk it
# replaced
# --------------------------------------------------------------------- #


def reference_tokenize(text: str) -> list[tuple]:
    """The former character-by-character lexer, as ``(kind, value, line,
    column)`` tuples."""
    tokens = []
    i = 0
    line = 1
    line_start = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            line_start = i + 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        column = i - line_start + 1
        if ch == "'":
            j = i + 1
            buf = []
            while j < n:
                if text[j] == "'":
                    if j + 1 < n and text[j + 1] == "'":
                        buf.append("'")
                        j += 2
                        continue
                    break
                buf.append(text[j])
                j += 1
            else:
                raise ParseError("unterminated string literal", line, column)
            tokens.append(("STRING", "".join(buf), line, column))
            i = j + 1
            continue
        if ch.isdigit():
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    if j + 1 >= n or not text[j + 1].isdigit():
                        break
                    seen_dot = True
                j += 1
            tokens.append(("NUMBER", text[i:j], line, column))
            i = j
            continue
        if ch == "?":
            tokens.append(("PARAM", "?", line, column))
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(("KEYWORD", upper, line, column))
            else:
                tokens.append(("IDENT", word, line, column))
            i = j
            continue
        matched = None
        for symbol in SYMBOLS:
            if text.startswith(symbol, i):
                matched = symbol
                break
        if matched is None:
            raise ParseError(f"unexpected character {ch!r}", line, column)
        tokens.append(("SYMBOL", matched, line, column))
        i += len(matched)
    tokens.append(("EOF", "", line, n - line_start + 1))
    return tokens


def _lexed(lex, text):
    """Tokens as tuples, or the ParseError's (message, line, column)."""
    try:
        return [tuple(token) for token in lex(text)]
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.column)


def test_lexer_matches_reference_on_suite_texts():
    from repro.workloads.registry import suite, suite_names

    texts = [sql for name in suite_names() for sql in suite(name).values()]
    assert len(texts) == 58
    for text in texts + [FIG1_SQL]:
        assert _lexed(tokenize, text) == _lexed(reference_tokenize, text)


#: Fragments random texts are made of: every token shape, ``''`` escapes
#: and unterminated quotes, ``--`` comments, ``1.x`` / ``1.2.3`` number
#: edges, unicode letters and whitespace, and characters no token starts
#: with.  Characters that are ``str.isdigit()`` but not decimal ("²") are
#: left out: the reference made NUMBER tokens of them that ``int()`` then
#: rejected, where the regex reports an unexpected character.
LEXER_FRAGMENTS = [
    "SELECT", "select", "From", "graph_table", "MATCH", "x", "_y1", "naïve",
    "δέλτα", "名前", "ß", "1", "42", "3.14", "1.", "1.x", "1.2.3", ".5", "'",
    "''", "'a'", "'it''s'", "'\n'", "--", "-- note", "->", "<-", "<=", ">=",
    "<>", "<", ">", "-", "(", ")", "[", "]", ",", ".", "=", "+", "*", "/",
    "%", ";", ":", "?", " ", "  ", "\t", "\n", "\r", "\u00a0", "\u2028",
    "!", "½", "#", "$",
]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(LEXER_FRAGMENTS), max_size=24))
def test_lexer_matches_reference_on_random_texts(fragments):
    text = "".join(fragments)
    assert _lexed(tokenize, text) == _lexed(reference_tokenize, text)


def test_unterminated_string_reports_its_opening_quote():
    # A possessive match: the lexer must not read 'a' and then start a new
    # string at the last quote.
    with pytest.raises(ParseError) as info:
        tokenize("SELECT 'a''")
    assert (info.value.line, info.value.column) == (1, 8)


def test_non_decimal_digit_is_an_unexpected_character():
    with pytest.raises(ParseError, match="unexpected character '²'") as info:
        tokenize("SELECT ² FROM x")
    assert info.value.column == 8
    assert tokenize("SELECT x² FROM t")[1] == ("IDENT", "x²", 1, 8)
