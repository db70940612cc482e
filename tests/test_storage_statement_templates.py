"""The statement cache's token templates, against a fresh parse.

A text whose token template the user DBMS has admitted is tokenized and its
constants bound into the template's parameterized statement; nothing parses
it.  These tests hold that shortcut to what a parse of the text gives: the
statement, its parameters, its rows and its plan (token ↔ AST agreement), and
the Query Profiler's record of it (record equality).
"""

from __future__ import annotations

import copy
import functools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import CQMS
from repro.analysis.corpus import DOMAINS, dml_statements, domain_statements
from repro.clock import SimulatedClock
from repro.core import profiler as profiler_module
from repro.core.records import statement_artefacts
from repro.errors import ReproError
from repro.sql.canonicalize import (
    canonicalize,
    collect_parameters,
    constants_keep_order,
    cut_at_parameters,
    parameterize_statement,
    with_constants,
)
from repro.sql.parser import parse
from repro.sql.tokenizer import TokenType, tokenize
from repro.workloads import QueryLogGenerator, WorkloadConfig, build_database

#: Statements whose literal tokens and parameters do not line up one to one,
#: or whose constants decide the canonicalizer's order or the features' dedup.
EDGE_CASES = [
    "SELECT name FROM Lakes WHERE area_km2 > -5",
    "SELECT name, TRUE FROM Lakes WHERE lake_id < 3 AND FALSE = FALSE",
    "SELECT name FROM Lakes WHERE state IS NULL OR area_km2 > 5",
    "SELECT name FROM Lakes WHERE state = NULL OR lake_id = 2",
    "SELECT name FROM Lakes WHERE area_km2 > 1 ORDER BY lake_id LIMIT 3 OFFSET 1",
    "SELECT name FROM Lakes WHERE lake_id IN (1, 2, 3)",
    "SELECT name FROM Lakes WHERE lake_id IN (4, 2)",
    "SELECT name FROM Lakes WHERE lake_id = 5",
    "SELECT name FROM Lakes WHERE lake_id = 5.0",
    "SELECT name FROM Lakes WHERE lake_id = '5'",
    "SELECT CAST(area_km2 AS INTEGER) FROM Lakes WHERE lake_id < 4",
    "SELECT CAST(name AS VARCHAR(10)) FROM Lakes WHERE lake_id < 3",
    "SELECT state, COUNT(*) FROM Lakes GROUP BY state HAVING COUNT(*) > 1",
    "SELECT name FROM Lakes WHERE name = 'O''Hara' OR area_km2 BETWEEN 1 AND 9",
    "SELECT name FROM Lakes WHERE lake_id = 1 OR lake_id = 2",
    "SELECT name FROM Lakes WHERE lake_id < 2 AND lake_id < 9",
    "SELECT lake_id + 1, name FROM Lakes WHERE max_depth_m * 2 > 30 GROUP BY lake_id + 1, name",
    "SELECT name FROM Lakes WHERE CASE WHEN area_km2 > 5 THEN 'big' ELSE 'small' END = 'big'",
    "SELECT L.name FROM Lakes L WHERE L.lake_id IN "
    "(SELECT W.lake_id FROM WaterTemp W WHERE W.temp < 12)",
    "UPDATE Lakes SET max_depth_m = 3 WHERE lake_id = 2",
    "DELETE FROM WaterTemp WHERE month = 13",
]


def _literal_end(token) -> int:
    """Where a NUMBER/STRING token ends in its text (a string's value has
    its doubled quotes undone)."""
    if token.type is TokenType.STRING:
        return token.position + len(token.value) + token.value.count("'") + 2
    return token.position + len(token.value)


def redraw(text: str, constant) -> str:
    """``text`` with each literal token replaced by ``constant(token)``."""
    parts: list[str] = []
    done = 0
    for token in tokenize(text):
        if token.type in (TokenType.NUMBER, TokenType.STRING):
            parts += [text[done:token.position], constant(token)]
            done = _literal_end(token)
    parts.append(text[done:])
    return "".join(parts)


def written(token) -> str:
    """A literal token as the text writes it."""
    if token.type is TokenType.STRING:
        return "'" + token.value.replace("'", "''") + "'"
    return token.value


def _drawn(kind: str, number: int, data) -> str:
    if kind == "int":
        return str(number)
    if kind == "negative":
        return f"-{number}"
    if kind == "float":
        return data.draw(st.sampled_from([f"{number}.5", f"{number}.0", f"{number}e0"]))
    value = data.draw(st.sampled_from(["", "x", "O'Hara", "5", "WA", "%a%"]))
    return "'" + value.replace("'", "''") + "'"


def _kind_of(token) -> str:
    if token.type is TokenType.STRING:
        return "text"
    return "float" if any(mark in token.value for mark in ".eE") else "int"


def instance(text: str, number: int) -> str:
    """``text`` with each number written as ``number`` (a float as
    ``number.5``), but for the ones its token template pins: LIMIT, OFFSET
    and a VARCHAR length.  Strings are kept."""
    tokens = tokenize(text)
    kept = {
        token.position
        for before, token in zip(tokens, tokens[1:])
        if before.value in ("LIMIT", "OFFSET") or (before.value == "(" and "VARCHAR" in text)
    }

    def constant(token) -> str:
        if token.type is TokenType.STRING or token.position in kept:
            return written(token)
        return f"{number}.5" if _kind_of(token) == "float" else str(number)

    return redraw(text, constant)


#: Token-level edits of a corpus text (see :func:`edited`).
EDITS = ("kind", "negative", "limit", "in_list", "quotes")


def edited(text: str, edit: str, place: int) -> str | None:
    """``text`` with one token-level ``edit`` at the ``place``-th token it
    fits (counted round), or None when it fits none: a literal of another
    kind (``5`` → ``'7'``, ``5.5`` or ``'x'`` → ``7``), a ``-`` put before a
    number, a LIMIT/OFFSET value changed, an IN list lengthened by a value of
    its first one's kind, or a string with ``''`` escapes."""
    tokens = tokenize(text)
    fits: list[tuple] = []
    for index, token in enumerate(tokens):
        number = token.type is TokenType.NUMBER
        literal = number or token.type is TokenType.STRING
        before = [other.value for other in tokens[max(0, index - 2):index]]
        if edit == "kind" and literal:
            new = "'7'" if _kind_of(token) == "int" else "7"
        elif edit == "negative" and number:
            new = "-" + token.value
        elif edit == "limit" and number and before[-1:] in (["LIMIT"], ["OFFSET"]):
            new = str(int(token.value) + 1)
        elif edit == "in_list" and literal and before == ["IN", "("]:
            longer = token.value + "1" if number else written(token)[:-1] + "z'"
            new = written(token) + ", " + longer
        elif edit == "quotes" and not number and literal:
            new = "'it''s " + written(token)[1:]
        else:
            continue
        fits.append((token, new))
    if not fits:
        return None
    token, new = fits[place % len(fits)]
    return text[:token.position] + new + text[_literal_end(token):]


_ENGINES: dict[str, tuple] = {}
_CORPUS: list[tuple[str, str]] = []


def _engines(domain: str):
    """The domain's (plan cache on, plan cache off) databases, alike in data."""
    if domain not in _ENGINES:
        cold = build_database(domain, scale=1, seed=7)
        cold.set_plan_cache_size(0)
        _ENGINES[domain] = (build_database(domain, scale=1, seed=7), cold)
    return _ENGINES[domain]


def _corpus() -> list[tuple[str, str]]:
    if not _CORPUS:
        for domain in DOMAINS:
            texts = domain_statements(domain) + dml_statements(_engines(domain)[1])
            _CORPUS.extend((domain, text) for text in texts)
        _CORPUS.extend(("limnology", text) for text in EDGE_CASES)
    return _CORPUS


@functools.cache
def _fitting(edit: str) -> list[tuple[str, str]]:
    """The corpus texts ``edit`` fits."""
    return [(domain, text) for domain, text in _corpus() if edited(text, edit, 0) is not None]


def _rows(rows) -> list:
    """Rows as a sorted multiset; floats to 9 digits (a cached plan may join,
    and so sum, in another order than a cold one)."""
    return sorted(
        repr(tuple(round(v, 9) if isinstance(v, float) else v for v in row)) for row in rows
    )


def _typed(values) -> list:
    return [(type(value), value) for value in values]


def _run(database, text):
    try:
        return database.execute(text), None
    except (ReproError, ValueError, TypeError) as error:
        return None, (type(error), str(error))


def check_against_a_fresh_parse(domain: str, text: str) -> bool | None:
    """Run ``text`` through the cached engine and compare it with a parse and
    a cache-off run; True when the cached run was a statement-cache hit,
    None when the text failed on both."""
    cached_db, cold_db = _engines(domain)
    result, error = _run(cached_db, text)
    cold, cold_error = _run(cold_db, text)
    assert error == cold_error, text
    if result is None:
        return None
    assert result.rowcount == cold.rowcount and _rows(result.rows) == _rows(cold.rows), text
    parsed = parse(text)
    statement = with_constants(result.statement)
    assert statement == parsed and repr(statement) == repr(parsed), text
    if result.prepared is not None:
        assert _typed(p.value for p in collect_parameters(result.statement)) == _typed(
            p.value for p in parameterize_statement(parsed)[1]
        ), text
        assert _typed(result.prepared.values) == _typed(
            cached_db._plan_cache.prepare(parsed).values
        ), text
        assert cold_db.explain(statement).lines == cold_db.explain(text).lines, text
    return result.stats.statement_cache_hit


class TestTokenTemplatesAgreeWithTheParser:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(st.data())
    def test_redrawn_constants_read_as_a_fresh_parse(self, data):
        domain, text = data.draw(st.sampled_from(_corpus()))
        dml = not text.lstrip().upper().startswith("SELECT")
        # Three instances of one token template: the first is parsed (and
        # its template admitted) unless the template was admitted already.
        for _ in range(3):
            texts = redraw(
                text,
                lambda token: _drawn(
                    _kind_of(token), data.draw(st.integers(0, 20 if dml else 400)), data
                ),
            )
            check_against_a_fresh_parse(domain, texts)
        if not dml:
            # A kind may change: 5, 5.0, -5 and '5' are other templates.
            texts = redraw(
                text,
                lambda token: _drawn(
                    data.draw(st.sampled_from(["int", "negative", "float", "text"])),
                    data.draw(st.integers(0, 400)),
                    data,
                ),
            )
            check_against_a_fresh_parse(domain, texts)

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(st.data())
    def test_token_edits_read_as_a_fresh_parse(self, data):
        """Corpus texts with one token-level edit: the edited shape's first
        instance admits its template and the second binds into it."""
        edit = data.draw(st.sampled_from(EDITS))
        domain, text = data.draw(st.sampled_from(_fitting(edit)))
        place = data.draw(st.integers(0, 20))
        dml = not text.lstrip().upper().startswith("SELECT")
        numbers = data.draw(st.lists(st.integers(0, 20 if dml else 400), min_size=2, max_size=2))
        for number in numbers:
            texts = edited(instance(text, number), edit, place)
            hit = check_against_a_fresh_parse(domain, texts)
        # One shape, pinned tokens alike: a second instance that runs binds.
        assert hit is not False, texts

    @pytest.mark.parametrize("text", EDGE_CASES)
    def test_each_edge_case_is_admitted_and_rebinds(self, text):
        """Every edge case is admitted at its first instance: the later ones
        are hits.  Numbers move; LIMIT, OFFSET and a VARCHAR length stay, as
        they are pinned."""
        hits = [check_against_a_fresh_parse("limnology", instance(text, n)) for n in (3, 4, 5)]
        assert hits[1] and hits[2], text


class TestAdmission:
    def test_a_pinned_limit_rebinds_only_its_own_texts(self):
        database = build_database("limnology", scale=1, seed=7)
        sql = "SELECT lake_id FROM Lakes WHERE area_km2 > {} ORDER BY lake_id LIMIT {}"
        for area, limit in ((1, 3), (2, 3), (3, 3)):
            database.execute(sql.format(area, limit))
        other = database.execute(sql.format(4, 2))
        assert not other.stats.statement_cache_hit and len(other.rows) == 2
        again = database.execute(sql.format(5, 2))
        assert again.stats.statement_cache_hit and len(again.rows) == 2

    def test_a_repeated_text_puts_back_its_pinned_template(self):
        """``LIMIT 3`` displaces the ``LIMIT 4`` template; the repeat of a
        ``LIMIT 4`` text, a byte-identical hit, restores it for the next."""
        database = build_database("limnology", scale=1, seed=7)
        sql = "SELECT name FROM Lakes WHERE area_km2 > {} ORDER BY lake_id LIMIT {} OFFSET 1"
        hits = [
            database.execute(sql.format(area, limit)).stats.statement_cache_hit
            for area, limit in ((0, 4), (5, 3), (0, 4), (128, 4))
        ]
        assert hits == [False, False, True, True]

    def test_a_shape_is_admitted_at_its_first_text(self):
        database = build_database("limnology", scale=1, seed=7)
        first = database.execute("SELECT name FROM Lakes WHERE lake_id < 3")
        assert first.prepared.template is not None
        stats = database.plan_cache_stats()
        assert (stats.statement_hits, stats.statement_misses) == (0, 1)
        second = database.execute("SELECT name FROM Lakes WHERE lake_id < 4")
        assert second.stats.statement_cache_hit
        assert second.prepared.template == first.prepared.template

    def test_an_insert_or_ddl_text_is_tokenized_only_by_its_parse(self, monkeypatch):
        from repro.sql import parser
        from repro.storage import plan_cache

        database = build_database("limnology", scale=1, seed=7)
        tokenized: list[tuple[str, str]] = []
        for module in (plan_cache, parser):
            original = module.tokenize
            monkeypatch.setattr(
                module,
                "tokenize",
                lambda text, name=module.__name__, original=original: (
                    tokenized.append((name, text)) or original(text)
                ),
            )
        texts = [
            "CREATE TABLE Notes (id INTEGER, body TEXT)",
            "INSERT INTO Notes VALUES (1, 'a')",
            "  /* a comment first */ SELECT id FROM Notes WHERE id = 1",
        ]
        for text in texts:
            database.execute(text)
        # Each text is tokenized once: the SELECT's parse reads the tokens
        # the statement cache looked up.
        assert tokenized == [
            ("repro.sql.parser", texts[0]),
            ("repro.sql.parser", texts[1]),
            ("repro.storage.plan_cache", texts[2]),
        ]


class TestCanonicalSplice:
    @pytest.mark.parametrize(
        "text, proven",
        [
            ("SELECT a FROM t WHERE a < 1 AND b > 2", True),
            ("SELECT a FROM t WHERE a < 1 AND a > 2", True),
            ("SELECT a FROM t WHERE a = 1 OR a = 2", False),
            ("SELECT a FROM t WHERE a IN (3, 1)", False),
            ("SELECT a FROM t WHERE a IN (3)", True),
            ("SELECT a FROM t WHERE a IN (3, NULL)", False),
            ("SELECT a FROM t WHERE a = 1 AND a IS NULL", True),
            ("SELECT a FROM t WHERE a = 1 AND a = NULL", False),
            ("SELECT a + 1 FROM t GROUP BY a + 1, a + 2", False),
            ("SELECT a FROM t WHERE a = 'x' AND ab = 'y'", True),
        ],
    )
    def test_order_is_proven_only_when_constants_cannot_decide_it(self, text, proven):
        canonical = canonicalize(parameterize_statement(parse(text))[0])
        assert constants_keep_order(canonical) is proven

    def test_the_cut_text_splices_to_the_canonical_text(self):
        statement, params = parameterize_statement(
            parse("SELECT a FROM t WHERE b = 'it''s' AND c BETWEEN 1 AND 2.5")
        )
        pieces, slots = cut_at_parameters(statement, params)
        assert len(pieces) == len(slots) + 1 == 4
        spliced = pieces[0] + "".join(
            constant + piece for constant, piece in zip(("'it''s'", "1", "2.5"), pieces[1:])
        )
        assert spliced == "SELECT a FROM t WHERE b = 'it''s' AND c BETWEEN 1 AND 2.5"
        assert slots == (0, 1, 2)


def _fresh(rng: random.Random):
    def constant(token) -> str:
        if token.type is TokenType.STRING:
            return written(token)
        if _kind_of(token) == "float":
            return f"{rng.uniform(0, 30):.3f}"
        return str(rng.randint(1, 30))

    return constant


class TestRecordsOfFreshConstants:
    @pytest.mark.parametrize("text", EDGE_CASES)
    def test_edge_case_records_equal_a_fresh_derivation(self, fresh_cqms, text):
        """Spliced or derived from the bound statement, whichever the
        template allows, a record reads as a parse of its text."""
        schema = fresh_cqms.database.schema_columns()
        for number in (3, 4, 5, 0):
            # Constants fall along the text, so a sort the template could not
            # prove would put them in another order than the text's; the last
            # instance writes one constant throughout, so two predicates that
            # differ only in their constants merge.
            falling = iter(range(number + 90, 0, -10) if number else [7] * 9)

            def constant(token) -> str:
                if token.type is TokenType.STRING or "LIMIT" in text or "VARCHAR" in text:
                    return written(token)
                value = next(falling)
                return f"{value}.5" if _kind_of(token) == "float" else str(value)

            sql = redraw(text, constant)
            record = fresh_cqms.submit("alice", sql).record
            artefacts = (
                record.statement_kind, record.features, record.canonical_text,
                record.template_text,
            )
            fresh = statement_artefacts(record.text, schema, True)
            assert artefacts == fresh and repr(artefacts) == repr(fresh), sql

    def test_every_record_equals_a_fresh_derivation_under_its_log_time_schema(
        self, monkeypatch
    ):
        """A fresh-constants replay, with a column renamed halfway: every
        record reads as ``statement_artefacts`` of its text under the schema
        it was logged with, the rename makes the templates' shared artefacts
        derive again, and no later submit changes an earlier record."""
        filed: list[tuple] = []
        original = profiler_module.template_artefacts

        def recording(prepared, schema_columns):
            filed.append((prepared.template, schema_columns))
            return original(prepared, schema_columns)

        monkeypatch.setattr(profiler_module, "template_artefacts", recording)
        clock = SimulatedClock()
        database = build_database("limnology", scale=1, seed=7, clock=clock)
        cqms = CQMS(database, clock=clock)
        rng = random.Random(11)
        events = QueryLogGenerator(WorkloadConfig(num_sessions=30, seed=3)).generate()
        snapshots = []
        for number, event in enumerate(events):
            if not cqms.access_control.has_principal(event.user):
                cqms.register_user(event.user, event.group)
            texts = [redraw(event.sql, _fresh(rng)), event.sql]
            if number == len(events) // 2:
                texts.insert(0, "ALTER TABLE WaterTemp RENAME COLUMN depth TO depth_m")
            for sql in texts:
                execution = cqms.submit(event.user, sql, timestamp=event.timestamp)
                record = execution.record
                artefacts = (
                    record.statement_kind, record.features, record.canonical_text,
                    record.template_text,
                )
                fresh = statement_artefacts(record.text, database.schema_columns(), True)
                assert artefacts == fresh and repr(artefacts) == repr(fresh), record.text
                snapshots.append((execution, copy.deepcopy(artefacts)))
        for execution, artefacts in snapshots:
            record = execution.record
            assert (
                record.statement_kind, record.features, record.canonical_text,
                record.template_text,
            ) == artefacts
        stats = database.plan_cache_stats()
        assert stats.template_hits > len(events) // 2
        # Templates filed before the rename were derived again after it.
        schemas_by_template: dict[tuple, set] = {}
        for template, schema in filed:
            schemas_by_template.setdefault(template, set()).add(id(schema))
        assert any(len(schemas) == 2 for schemas in schemas_by_template.values())

    def test_each_template_builds_its_shared_artefacts_once(self, monkeypatch):
        """A fresh-constants replay: every build of a template's shared
        artefacts is filed under an admitted token template, and each
        ``(template, key)`` builds once, so no text's build is thrown away."""
        builds: list[tuple] = []
        original = profiler_module.template_artefacts

        def recording(prepared, schema_columns):
            builds.append((prepared.template, (True, database.catalog.version)))
            return original(prepared, schema_columns)

        monkeypatch.setattr(profiler_module, "template_artefacts", recording)
        clock = SimulatedClock()
        database = build_database("limnology", scale=1, seed=7, clock=clock)
        cqms = CQMS(database, clock=clock)
        rng = random.Random(5)
        events = QueryLogGenerator(WorkloadConfig(num_sessions=20, seed=4)).generate()
        for event in events:
            if not cqms.access_control.has_principal(event.user):
                cqms.register_user(event.user, event.group)
            for _ in range(2):
                cqms.submit(event.user, redraw(event.sql, _fresh(rng)), timestamp=event.timestamp)
        assert len(builds) > 10
        assert all(template is not None for template, _ in builds)
        assert len(set(builds)) == len(builds)
