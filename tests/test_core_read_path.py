"""The Search & Browse reads answered from state the Query Storage keeps on
write, against the reference each of them replaced.

* ``find_queries_like_partial`` reads the ``DataSources`` / ``Attributes``
  postings; ``by_feature_sql(generate_feature_sql(...))`` — the paper's
  Figure 1 SQL over the feature relations — is the reference.
* ``OutputSummary.contains_value`` / ``contains`` probe cached cell and row
  sets; a scan of the sampled rows is the reference.
* ``QueryStore.popularity()`` is cached per generation; a recount over the
  log is the reference.
* A durable reopen reads each output summary back from the sample columns
  of its ``Queries`` row; the summary the store was closed with is the
  reference, and meta-SQL ``LIKE`` over ``OutputSamples.sampleRows`` finds
  at least what query-by-data finds.
* kNN scores each entry of the Query Storage's shape table once and walks
  the shapes best first; a brute-force scan of the principal's visible log
  is the reference, and a rebuild from ``all_queries()`` is the reference
  for the shape table itself.
* Every read kind starts from the visibility postings
  (``AccessControl.visible_qids``) and the store's filed haystacks; a
  ``can_see`` scan of ``all_queries()`` is the reference, after every kind
  of write, a change of grants or groups, and a durable reopen.
"""

from __future__ import annotations

import copy
import dataclasses
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CQMS, CQMSConfig, SimulatedClock, build_database
from repro.core.meta_query import DataCondition, FeatureCondition, _figure1_conditions
from repro.core.query_store import FEATURE_RELATIONS, QueryStore, _queries_row, _record, _schema
from repro.core.records import LoggedQuery, OutputSummary, RuntimeStats, draft_features
from repro.errors import DurabilityError, MetaQueryError, ReproError
from repro.mining.knn import KNNIndex
from repro.mining.similarity import weighted_feature_similarity
from repro.sql.canonicalize import canonical_text
from repro.sql.features import extract_features
from repro.sql.parse_tree import TreePattern, match_pattern, to_parse_tree
from repro.storage.database import Database
from repro.storage.types import DataType
from repro.workloads import QueryLogGenerator, WorkloadConfig


def _principals(cqms: CQMS) -> list[str]:
    """The administrator plus the first user of each group (five at most)."""
    chosen: dict[str, str] = {}
    for principal in cqms.access_control.principals():
        if principal.is_admin:
            chosen.setdefault("", principal.name)
        else:
            chosen.setdefault(principal.group, principal.name)
    return list(chosen.values())[:5]


def assert_like_partial_agrees(cqms: CQMS) -> int:
    """Every logged text as the probe, every chosen principal: the postings
    give exactly the qids the Figure 1 SQL gives, in qid order.  Returns how
    many (probe, principal) answers were non-empty."""
    meta = cqms.meta_query
    principals = _principals(cqms)
    reference: dict[tuple[str, str], set[int]] = {}
    non_empty = 0
    for probe in sorted({record.text for record in cqms.store.all_queries()}):
        try:
            sql = meta.generate_feature_sql(probe)
        except MetaQueryError:
            with pytest.raises(MetaQueryError, match="references no tables"):
                meta.find_queries_like_partial(principals[0], probe)
            continue
        for principal in principals:
            if (principal, sql) not in reference:
                reference[principal, sql] = {
                    record.qid for record in meta.by_feature_sql(principal, sql)
                }
            got = [record.qid for record in meta.find_queries_like_partial(principal, probe)]
            assert got == sorted(reference[principal, sql]), (principal, probe)
            non_empty += bool(got)
    return non_empty


def assert_popularity_is_a_recount(store: QueryStore) -> None:
    recount: dict[str, int] = {}
    for record in store.all_queries():
        if record.canonical_text:
            recount[record.canonical_text] = recount.get(record.canonical_text, 0) + 1
    assert dict(store.popularity()) == recount


def _replayed(config: CQMSConfig | None = None, num_sessions: int = 30) -> CQMS:
    clock = SimulatedClock()
    database = build_database("limnology", scale=1, seed=7, clock=clock)
    cqms = CQMS(database, config=config, clock=clock)
    cqms.register_user("admin", group="ops", is_admin=True)
    workload = QueryLogGenerator(WorkloadConfig(num_users=8, num_sessions=num_sessions, seed=42))
    cqms.replay_workload(workload.generate())
    return cqms


class TestLikePartialAgreesWithFigure1Sql:
    def test_every_logged_statement_as_the_probe(self):
        cqms = _replayed()
        assert assert_like_partial_agrees(cqms) > 0
        assert_popularity_is_a_recount(cqms.store)

    def test_after_delete_repair_and_visibility_change(self):
        cqms = _replayed()
        store, admin = cqms.store, cqms.admin()
        popularity = store.popularity()
        # A delete of one record of a repeated text and of a unique one.
        for record in store.all_queries()[:40:7]:
            admin.delete_query("admin", record.qid)
        assert store.popularity() is not popularity
        assert_popularity_is_a_recount(store)
        assert assert_like_partial_agrees(cqms) > 0

        # A rename repairs (replace_text) every query that read the column:
        # their attribute postings move from temp to temp_c.
        cqms.database.execute("ALTER TABLE WaterTemp RENAME COLUMN temp TO temp_c")
        report = cqms.run_maintenance()
        assert len(report.repaired) > 5
        repaired = store.get(report.repaired[0])
        assert ("temp_c", "watertemp") in repaired.features.attributes
        assert not store.qids_with_features([("temp", "watertemp")])
        assert_popularity_is_a_recount(store)
        assert assert_like_partial_agrees(cqms) > 0

        for record in store.all_queries()[::5]:
            admin.set_visibility("admin", record.qid, "private")
        for record in store.all_queries()[1::5]:
            admin.set_visibility("admin", record.qid, "public")
        assert assert_like_partial_agrees(cqms) > 0

        cqms.submit("admin", "SELECT T.temp_c FROM WaterTemp T WHERE T.temp_c < 18")
        assert_popularity_is_a_recount(store)
        assert assert_like_partial_agrees(cqms) > 0

    def test_text_mode_store_has_no_features_to_find(self):
        cqms = _replayed(CQMSConfig(profiling_mode="text"), num_sessions=10)
        assert assert_like_partial_agrees(cqms) == 0
        assert_popularity_is_a_recount(cqms.store)

    def test_durable_store_after_reopen(self, tmp_path):
        """Reopen rebuilds the postings from the recovered relations: without
        that, every search here would come back empty while the SQL finds
        the queries."""
        config = CQMSConfig(data_dir=str(tmp_path / "store"))
        cqms = _replayed(config, num_sessions=15)
        principals = [(p.name, p.group, p.is_admin) for p in cqms.access_control.principals()]
        before = assert_like_partial_agrees(cqms)
        popularity = dict(cqms.store.popularity())
        database = cqms.database
        cqms.close()
        with CQMS(database, config=config) as reopened:
            for name, group, is_admin in principals:
                reopened.register_user(name, group=group, is_admin=is_admin)
            assert assert_like_partial_agrees(reopened) == before > 0
            assert dict(reopened.store.popularity()) == popularity
            assert_popularity_is_a_recount(reopened.store)

    def test_results_come_back_in_qid_order(self, fresh_cqms):
        for sql in (
            "SELECT * FROM WaterTemp T WHERE T.temp < 18",
            "SELECT * FROM Lakes",
            "SELECT T.temp FROM WaterTemp T",
        ):
            fresh_cqms.submit("alice", sql)
        results = fresh_cqms.search_like_partial("alice", "SELECT FROM WaterTemp")
        assert [record.qid for record in results] == [1, 3]

    def test_popularity_is_read_only_and_shared(self, fresh_cqms):
        fresh_cqms.submit("alice", "SELECT * FROM Lakes")
        popularity = fresh_cqms.store.popularity()
        assert fresh_cqms.store.popularity() is popularity
        with pytest.raises(TypeError):
            popularity["select * from lakes"] = 9


NAN = float("nan")
#: Cells of the kinds a SQL output holds, with the ones that compare equal
#: across types (1, 1.0, True) and a NaN.
CELLS = [0, 1, 1.0, True, False, None, "1", "a", 2.5, NAN]


def summary_key(summary: OutputSummary | None):
    """A summary as a comparable value that tells apart what ``==`` does not:
    a cell's type (``1``, ``1.0``, ``True``, ``"1"``), ``-0.0`` and NaN."""
    if summary is None:
        return None
    rows = [tuple((type(cell).__name__, repr(cell)) for cell in row) for row in summary.rows]
    return summary.columns, rows, summary.total_rows, summary.complete


def _reference_contains_value(summary: OutputSummary, value) -> bool:
    return any(value in row for row in summary.rows)


def _reference_contains(summary: OutputSummary, values) -> bool:
    return tuple(values) in {tuple(row) for row in summary.rows}


class TestQueryByDataProbes:
    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(st.tuples(st.sampled_from(CELLS), st.sampled_from(CELLS)), max_size=6),
        probe=st.sampled_from([*CELLS, float("nan"), "b", -1]),
        row_probe=st.tuples(st.sampled_from(CELLS), st.sampled_from(CELLS)),
    )
    def test_set_probes_agree_with_a_scan(self, rows, probe, row_probe):
        summary = OutputSummary(columns=["a", "b"], rows=rows, total_rows=len(rows))
        assert summary.contains_value(probe) == _reference_contains_value(summary, probe)
        assert summary.contains(row_probe) == _reference_contains(summary, row_probe)
        assert summary.contains(list(row_probe)) == _reference_contains(summary, row_probe)

    @pytest.mark.parametrize("probe", [1, 1.0, True, None, NAN, float("nan"), 0, "1"])
    def test_named_probes(self, probe):
        summary = OutputSummary(columns=["a", "b"], rows=[(1, None), ("x", NAN)], total_rows=2)
        assert summary.contains_value(probe) == _reference_contains_value(summary, probe)

    def test_unhashable_probe_and_cells_keep_the_scan_answer(self):
        summary = OutputSummary(columns=["a"], rows=[([1, 2],), (3,)], total_rows=2)
        assert summary.contains_value([1, 2]) is True
        assert summary.contains_value([3]) is False
        assert summary.contains_value(3) is True
        hashable = OutputSummary(columns=["a"], rows=[(1,), (2,)], total_rows=2)
        assert hashable.contains_value([1]) is False
        assert hashable.contains_value({}) is False

    def test_summary_rebuilt_by_reopen(self):
        """Reopen reads the summary back from the ``Queries`` row that
        ``add`` wrote, with every cell's type kept."""
        original = OutputSummary(
            columns=["name", "temp", "wet", "depth", "name"],
            rows=[("Lake Union", 17, True, None, "18.5"), ("Green Lake", 18.5, False, 3, "007")],
            total_rows=2,
        )
        store = QueryStore()
        record = LoggedQuery(qid=1, user="u", group="g", text="SELECT 1", timestamp=0.0)
        record.output = original
        record.runtime = RuntimeStats(result_cardinality=2)
        store.add(record)
        (row,) = store.meta_database.table("Queries").rows()
        rebuilt = _record(row, [], {}).output
        assert summary_key(rebuilt) == summary_key(original)
        for probe in ["Lake Union", 17, 17.0, True, 1, False, 0, None, 18.5, 3, "17", "18.5", NAN]:
            assert rebuilt.contains_value(probe) == _reference_contains_value(original, probe)
        near_misses = [("Lake Union", 17.0, 1, None, 18.5), ("Green Lake", 18.5, 0, 4, 7)]
        for row in [*original.rows, *near_misses]:
            assert rebuilt.contains(row) == _reference_contains(original, row)

    def test_cached_sets_are_not_part_of_the_value(self):
        summary = OutputSummary(columns=["a"], rows=[(1,), (2,)], total_rows=2)
        untouched = copy.deepcopy(summary)
        assert summary.contains_value(2) and summary.contains((1,))
        assert summary == untouched
        assert repr(summary) == repr(untouched)


CELL_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(
        [-0.0, "18.5", "True", "NULL", "007", "", 'say "hi"', "back\\slash", "Zürich", "湖"]
    ),
    st.text(),
)


@st.composite
def output_summaries(draw) -> OutputSummary:
    """Summaries whose column names may repeat, as a ``SELECT *`` join's do."""
    names = st.sampled_from(["lake_id", "name", "temp", "Zürich", 'a"b'])
    columns = draw(st.lists(names, min_size=1, max_size=4))
    rows = draw(st.lists(st.tuples(*[CELL_VALUES] * len(columns)), max_size=5))
    unsampled = draw(st.integers(min_value=0, max_value=3))
    total_rows = len(rows) + unsampled
    return OutputSummary(columns=columns, rows=rows, total_rows=total_rows, complete=not unsampled)


#: Cell values the durable log below adds to the limnology output: text that
#: reads like a number, a boolean, NULL or a padded integer, and non-ASCII.
NOTES = ["18.5", "True", "007", "NULL", "Lac Léman", 'say "hi"']


def _replayed_with_notes(config: CQMSConfig) -> CQMS:
    """A replayed log plus SELECTs of a table of tricky text cells."""
    cqms = _replayed(config, num_sessions=15)
    cqms.database.execute("CREATE TABLE Notes (id INTEGER, note TEXT)")
    for number, note in enumerate(NOTES):
        literal = note.replace("'", "''")
        cqms.database.execute(f"INSERT INTO Notes VALUES ({number}, '{literal}')")
    cqms.submit("admin", "SELECT * FROM Notes")
    cqms.submit("admin", "SELECT N.note, L.name FROM Notes N, Lakes L WHERE N.id = L.lake_id")
    return cqms


class TestOutputSamplesRow:
    @settings(max_examples=200, deadline=None)
    @given(summary=output_summaries())
    def test_round_trip(self, summary):
        record = LoggedQuery(qid=1, user="u", group="g", text="SELECT 1", timestamp=0.0)
        record.output = summary
        record.runtime = RuntimeStats(result_cardinality=summary.total_rows)
        rebuilt = _record(tuple(_queries_row(record).values()), [], {}).output
        assert summary_key(rebuilt) == summary_key(summary)

    def test_durable_reopen_reads_the_summaries_it_closed_with(self, tmp_path):
        """Duplicate column names of a ``SELECT *`` join, empty samples and
        text cells that read like numbers all come back as they were."""
        config = CQMSConfig(data_dir=str(tmp_path / "store"))
        cqms = _replayed_with_notes(config)
        records = cqms.store.all_queries()
        before = {record.qid: summary_key(record.output) for record in records}
        outputs = [record.output for record in records if record.output is not None]
        assert any(len(set(output.columns)) < len(output.columns) for output in outputs)
        assert any(not output.rows for output in outputs)
        assert any(output.contains_value("18.5") for output in outputs)
        database = cqms.database
        cqms.close()
        with CQMS(database, config=config) as reopened:
            records = reopened.store.all_queries()
            assert {record.qid: summary_key(record.output) for record in records} == before
            count = reopened.store.execute_meta_sql("SELECT COUNT(*) FROM OutputSamples")
            assert count.scalar() == len(outputs)

    def test_meta_sql_like_finds_what_query_by_data_finds(self):
        """``sampleRows LIKE '%"v"%'`` is the meta-SQL form of query-by-data
        for a text value: engine LIKE ignores case, so it may find more."""
        cqms = _replayed_with_notes(CQMSConfig())
        values = {
            cell
            for record in cqms.store.all_queries()
            if record.output is not None
            for row in record.output.rows
            for cell in row
            if isinstance(cell, str) and not {"%", "_", '"', "\\"} & set(cell)
        }
        assert "Lac Léman" in values and len(values) > 10
        for value in sorted(values):
            literal = value.replace("'", "''")
            found = cqms.store.execute_meta_sql(
                f"SELECT qid FROM OutputSamples WHERE sampleRows LIKE '%\"{literal}\"%'"
            ).column("qid")
            by_data = cqms.search_by_data("admin", DataCondition(include_values=[value]))
            assert {record.qid for record in by_data} <= set(found), value
            assert by_data, value

    def test_a_per_cell_data_directory_is_refused(self, tmp_path):
        """A data directory written when ``OutputSamples`` held one row per
        sampled cell raises, naming the table and both column lists."""
        data_dir = str(tmp_path / "store")
        database = Database.open(data_dir, name="query_storage")
        for schema in FEATURE_RELATIONS:
            if schema.name == "OutputSamples":
                schema = _schema(
                    "OutputSamples",
                    ("qid", DataType.INTEGER),
                    ("rowIndex", DataType.INTEGER),
                    ("columnName", DataType.TEXT),
                    ("cellValue", DataType.TEXT),
                )
            database.create_table(schema)
        database.insert_rows(
            "OutputSamples", [{"qid": 1, "rowIndex": 0, "columnName": "name", "cellValue": "x"}]
        )
        database.close()
        for _ in range(2):
            with pytest.raises(
                DurabilityError,
                match=r"OutputSamples\(qid, rowIndex, columnName, cellValue\); "
                r"this version reads OutputSamples\(qid, columnNames, sampleRows\)",
            ):
                QueryStore(data_dir=data_dir)


# ---------------------------------------------------------------------------
# kNN over the shape table
# ---------------------------------------------------------------------------

#: Drafts with constants no logged query has, and unfinished ones.
FRESH_DRAFTS = [
    "SELECT * FROM WaterTemp T WHERE T.temp < 17.125",
    "SELECT * FROM WaterSalinity S, WaterTemp T WHERE S.lake_id = T.lake_id AND T.depth > 3.3",
    "SELECT L.name FROM Lakes L WHERE L.area_km2 > 12.5",
    "SELECT * FROM WaterSalinity S, WaterTemp T WHERE",
    "SELECT FROM Lakes, WaterTemp",
]


def brute_force_knn(cqms: CQMS, probe: str) -> list[tuple[LoggedQuery, float]]:
    """The definition: every logged SELECT with features whose weighted
    feature similarity to the probe is above zero, by (−similarity, qid)."""
    probe_sets = draft_features(probe).feature_sets()
    weights = cqms.config.feature_weights
    scored = []
    for record in cqms.store.select_queries():
        if record.features is not None:
            similarity = weighted_feature_similarity(probe_sets, record.feature_sets(), weights)
            if similarity > 0.0:
                scored.append((record, similarity))
    return sorted(scored, key=lambda pair: (-pair[1], pair[0].qid))


def _canonical(record: LoggedQuery) -> str:
    return record.canonical_text or record.text


@pytest.mark.parametrize("feature_weights", [{}, {"predicates": 0.0}], ids=["default", "no-predicates"])
def test_knn_is_the_brute_force_top_k(paper_env, monkeypatch, feature_weights):
    """Every principal, every distinct logged text and a few fresh drafts:
    ``knn_candidates`` and ``knn`` are the first k of the brute-force order
    over the principal's visible log, with the same scores; an excluded qid
    is skipped; ``recommend`` fills to min(k, distinct similar canonical
    texts)."""
    cqms = paper_env.cqms
    for key, weight in feature_weights.items():
        monkeypatch.setitem(cqms.config.feature_weights, key, weight)
    meta = cqms.meta_query
    probes = sorted({record.text for record in cqms.store.select_queries()}) + FRESH_DRAFTS
    visible = {
        principal.name: {
            record.qid for record in cqms.access_control.visible_log(principal, cqms.store)
        }
        for principal in cqms.access_control.principals()
    }
    full = 0
    for text in probes:
        scored = brute_force_knn(cqms, text)
        probe = draft_features(text)  # read once, as CQMS.assist reads a draft
        for principal, qids in visible.items():
            expected = [(record, score) for record, score in scored if record.qid in qids]
            pairs = [(record.qid, score) for record, score in expected]
            got = meta.knn_candidates(principal, probe, k=5)
            assert [(record.qid, score) for record, score in got] == pairs[:5], (principal, text)
            assert [record.qid for record in meta.knn(principal, probe, k=10)] == [
                qid for qid, _ in pairs[:10]
            ]
            eligible = {_canonical(record) for record, _ in expected}
            recommended = cqms.recommend(principal, probe, k=5)
            assert len(recommended) == min(5, len(eligible)), (principal, text)
            canonicals = [_canonical(item.record) for item in recommended]
            assert len(set(canonicals)) == len(canonicals) and set(canonicals) <= eligible
            full += len(eligible) >= 5
        if scored:
            excluded = {scored[0][0].qid}
            got = meta.knn_candidates("admin", probe, k=5, exclude_qids=excluded)
            assert [(record.qid, score) for record, score in got] == [
                (record.qid, score) for record, score in scored[1:6]
            ]
    assert full > len(visible) * len(probes) // 2


def assert_shapes_agree(store: QueryStore) -> None:
    """The shape table equals a rebuild from ``all_queries()``."""
    rebuilt: dict[tuple, tuple[dict, list[int]]] = {}
    for record in store.all_queries():
        if record.is_select and record.features is not None:
            sets = record.feature_sets()
            rebuilt.setdefault(tuple(sets.items()), (sets, []))[1].append(record.qid)
    assert {
        tuple(shape.sets.items()): (shape.sets, shape.qids) for shape in store.shapes()
    } == rebuilt


def _constants_shifted(sql: str, copy_number: int) -> str:
    """``sql`` with every numeric comparison constant moved: a new text and
    canonical text, the same constant-free feature sets."""
    return re.sub(
        r"([<>=]\s*)(\d+(?:\.\d+)?)",
        lambda match: f"{match.group(1)}{float(match.group(2)) + copy_number / 8}",
        sql,
    )


class TestShapeTable:
    def test_follows_add_remove_repair_and_visibility(self):
        cqms = _replayed()
        store, admin = cqms.store, cqms.admin()
        assert_shapes_agree(store)
        shapes = len(store.shapes())
        assert 0 < shapes < len(store.select_queries())
        for record in store.all_queries()[:40:7]:
            admin.delete_query("admin", record.qid)
        assert_shapes_agree(store)

        cqms.database.execute("ALTER TABLE WaterTemp RENAME COLUMN temp TO temp_c")
        assert len(cqms.run_maintenance().repaired) > 5
        assert_shapes_agree(store)
        new_text = "SELECT * FROM Sensors N WHERE N.installed_year < 1999"
        qid = store.all_queries()[3].qid
        store.replace_text(
            qid,
            new_text,
            extract_features(new_text),
            canonical_text(new_text),
            canonical_text(new_text, strip_constants=True),
        )
        assert_shapes_agree(store)
        assert [record.qid for record in cqms.similar_queries("admin", new_text, k=1)] == [qid]

        for record in store.all_queries()[::5]:
            admin.set_visibility("admin", record.qid, "private")
        assert_shapes_agree(store)
        cqms.submit("admin", "SELECT T.temp_c FROM WaterTemp T WHERE T.temp_c < 18")
        cqms.submit("admin", "DELETE FROM Lakes WHERE lake_id = -1")
        assert_shapes_agree(store)

    def test_durable_reopen_rebuilds_it(self, tmp_path):
        config = CQMSConfig(data_dir=str(tmp_path / "store"))
        cqms = _replayed(config, num_sessions=15)
        cqms.admin().delete_query("admin", cqms.store.all_queries()[2].qid)
        assert_shapes_agree(cqms.store)
        closed = {tuple(shape.sets.items()): shape.qids for shape in cqms.store.shapes()}
        database = cqms.database
        cqms.close()
        with CQMS(database, config=config) as reopened:
            assert_shapes_agree(reopened.store)
            assert {
                tuple(shape.sets.items()): shape.qids for shape in reopened.store.shapes()
            } == closed

    def test_a_knn_call_scores_each_shape_once_whatever_the_log_size(self, monkeypatch):
        """On a log and on the same log with three more copies of every query
        under other constants (no new shape), a kNN, recommend or assist call
        evaluates the similarity once per shape, and the token-Jaccard index
        is never asked."""
        workload = QueryLogGenerator(WorkloadConfig(num_users=8, num_sessions=30, seed=42)).generate()
        logs = []
        for copies in (1, 4):
            clock = SimulatedClock()
            cqms = CQMS(build_database("limnology", scale=1, seed=7, clock=clock), clock=clock)
            cqms.register_user("admin", group="ops", is_admin=True)
            for copy_number in range(copies):
                cqms.replay_workload(
                    dataclasses.replace(event, sql=_constants_shifted(event.sql, copy_number))
                    for event in workload
                )
            logs.append(cqms)
        once, four = logs
        assert len(four.store) == 4 * len(once.store)
        assert len(four.store.shapes()) == len(once.store.shapes())

        def refuse(*args, **kwargs):
            raise AssertionError("kNN went through KNNIndex.nearest")

        monkeypatch.setattr(KNNIndex, "nearest", refuse)
        evaluations = []
        monkeypatch.setattr(
            "repro.core.meta_query.weighted_feature_similarity",
            lambda *args: evaluations.append(1) or weighted_feature_similarity(*args),
        )
        counts = []
        for cqms in logs:
            per_call = []
            for user, probe in [(event.user, event.sql) for event in workload[::9]]:
                for call in (
                    lambda: cqms.similar_queries(user, probe, k=10),
                    lambda: cqms.recommend(user, probe, k=5),
                    lambda: cqms.assist(user, probe.split(" WHERE ")[0], k=3),
                ):
                    evaluations.clear()
                    assert call()
                    per_call.append(len(evaluations))
            assert max(per_call) <= len(cqms.store.shapes())
            counts.append(per_call)
        assert counts[0] == counts[1]


# ---------------------------------------------------------------------------
# Every read kind against a can_see scan of the log
# ---------------------------------------------------------------------------

KEYWORDS = [["watertemp"], ["lakes", "name"], ["temp", "<"], ["zebrafish"]]
NEEDLES = ["FROM WaterTemp", "lake_id", "salinity >"]
CONDITIONS = [
    FeatureCondition(tables_all=["WaterTemp"], statement_kind="select"),
    FeatureCondition(tables_all=["lakes", "watertemp"]),
    FeatureCondition(attributes=[("temp", "WaterTemp")], max_cardinality=50),
    FeatureCondition(tables_any=["Lakes", "CityLocations"]),
    FeatureCondition(only_valid=True),
]
PATTERNS = [
    TreePattern(label="select", children=(TreePattern(label="table", value="watertemp"),)),
    TreePattern(label="table", value="lakes"),
]
DRAFTS = [
    "SELECT FROM WaterTemp", "SELECT L.name FROM Lakes L, WaterTemp T WHERE", *FRESH_DRAFTS[:2]
]


def _reference_visible(cqms: CQMS, principal: str) -> list[LoggedQuery]:
    """The definition: a ``can_see`` scan of the whole log, in qid order."""
    can_see = cqms.access_control.can_see
    return [record for record in cqms.store.all_queries() if can_see(principal, record)]


def _tree_matches(record: LoggedQuery, pattern: TreePattern) -> bool:
    try:
        return match_pattern(to_parse_tree(record.text), pattern)
    except ReproError:
        return False


def _qids(records) -> list[int]:
    return [record.qid for record in records]


def assert_reads_agree(cqms: CQMS, principals: list[str]) -> None:
    """For each principal, each read kind returns exactly what a ``can_see``
    scan of ``store.all_queries()`` filtered by the read's own condition
    returns (kNN, recommend and the two baselines by their orders)."""
    meta, recommender = cqms.meta_query, cqms.recommender
    values = sorted(
        {
            cell
            for record in cqms.store.all_queries()
            if record.output is not None
            for row in record.output.rows[:1]
            for cell in row
            if isinstance(cell, str)
        }
    )[:4]
    for principal in principals:
        visible = _reference_visible(cqms, principal)
        assert _qids(cqms.access_control.visible_log(principal, cqms.store)) == _qids(visible)
        assert set(cqms.access_control.visible_qids(principal, cqms.store)) == set(_qids(visible))
        for words in KEYWORDS:
            expected = [
                record
                for record in visible
                if all(
                    word in (record.text + " " + " ".join(record.annotations)).lower()
                    for word in words
                )
            ]
            assert _qids(cqms.search_keyword(principal, words)) == _qids(expected), words
        for needle in NEEDLES:
            expected = [record for record in visible if needle.lower() in record.text.lower()]
            assert _qids(cqms.search_substring(principal, needle)) == _qids(expected), needle
        for condition in CONDITIONS:
            expected = [record for record in visible if condition.matches(record)]
            assert _qids(cqms.search_features(principal, condition)) == _qids(expected), condition
        for draft in DRAFTS:
            tables, attributes = _figure1_conditions(draft)
            expected = [
                record
                for record in visible
                if record.features is not None
                and set(tables) <= record.features.table_set()
                and set(attributes) <= record.features.attribute_set()
            ]
            assert _qids(cqms.search_like_partial(principal, draft)) == _qids(expected), draft
            scored = [pair for pair in brute_force_knn(cqms, draft) if pair[0] in visible]
            got = meta.knn_candidates(principal, draft, k=5)
            assert [(r.qid, s) for r, s in got] == [(r.qid, s) for r, s in scored[:5]], draft
            eligible = {_canonical(record) for record, _ in scored}
            recommended = cqms.recommend(principal, draft, k=5)
            assert len(recommended) == min(5, len(eligible))
            assert {_canonical(item.record) for item in recommended} <= eligible
        for value in values:
            condition = DataCondition(include_values=[value])
            expected = [r for r in visible if r.is_select and condition.matches(r)]
            assert _qids(cqms.search_by_data(principal, condition)) == _qids(expected), value
        for pattern in PATTERNS:
            expected = [r for r in visible if r.is_select and _tree_matches(r, pattern)]
            assert _qids(cqms.search_parse_tree(principal, pattern)) == _qids(expected), pattern
        selects = [record for record in visible if record.is_select]
        shuffled = list(selects)
        random.Random(3).shuffle(shuffled)
        got = recommender.recommend_random(principal, k=7, seed=3)
        assert _qids(item.record for item in got) == _qids(shuffled[:7])
        popularity = cqms.store.popularity()
        newest: dict[str, LoggedQuery] = {}
        for record in selects:
            known = newest.get(_canonical(record))
            if known is None or record.timestamp > known.timestamp:
                newest[_canonical(record)] = record
        ranked = sorted(newest.items(), key=lambda item: (-popularity.get(item[0], 0), item[1].qid))
        got = recommender.recommend_popular(principal, k=5)
        assert _qids(item.record for item in got) == [record.qid for _, record in ranked[:5]]


def _agreement_principals(cqms: CQMS) -> list[str]:
    """The administrator, one user per group, and a user holding a grant."""
    return [*_principals(cqms), "grantee"]


class TestReadPathsAgreeWithCanSee:
    def _cqms(self, config: CQMSConfig | None = None) -> CQMS:
        cqms = _replayed(config, num_sessions=15)
        cqms.register_user("grantee", group="elsewhere")
        return cqms

    def test_after_every_kind_of_write(self):
        cqms = self._cqms()
        store, admin, access = cqms.store, cqms.admin(), cqms.access_control
        principals = _agreement_principals(cqms)
        assert_reads_agree(cqms, principals)

        # add: every visibility, in any case, by users of two groups.
        users = [p for p in principals if p not in ("admin", "grantee")]
        for number, visibility in enumerate(["private", "PUBLIC", "group", "Private", None]):
            cqms.submit(
                users[number % len(users)],
                f"SELECT L.name FROM Lakes L WHERE L.area_km2 > {number + 40}",
                visibility=visibility,
            )
        stored = {record.visibility for record in store.all_queries()}
        assert stored <= {"private", "group", "public"}
        assert_reads_agree(cqms, principals)

        # remove, set_visibility
        for record in store.all_queries()[:30:6]:
            admin.delete_query("admin", record.qid)
        for record in store.all_queries()[::4]:
            admin.set_visibility("admin", record.qid, "private")
        for record in store.all_queries()[1::9]:
            admin.set_visibility("admin", record.qid, "public")
        assert_reads_agree(cqms, principals)

        # grant / revoke
        private = [record for record in store.all_queries() if record.visibility == "private"]
        for record in private[:6]:
            access.grant(record.qid, "grantee")
        access.grant(max(store.qids()) + 100, "grantee")
        assert_reads_agree(cqms, principals)
        for record in private[:3]:
            access.revoke(record.qid, "grantee")
        assert_reads_agree(cqms, principals)

        # a user re-registered into another group, and an annotation
        mover = users[-1]
        cqms.register_user(mover, group=access.principal(users[0]).group)
        cqms.annotate("admin", store.all_queries()[2].qid, "Zebrafish survey, see notes")
        assert_reads_agree(cqms, principals)

        # a repair (replace_text refiles the record)
        cqms.database.execute("ALTER TABLE WaterTemp RENAME COLUMN temp TO temp_c")
        assert cqms.run_maintenance().repaired
        assert_reads_agree(cqms, principals)

    def test_after_a_durable_reopen(self, tmp_path):
        config = CQMSConfig(data_dir=str(tmp_path / "store"))
        cqms = self._cqms(config)
        for record in cqms.store.all_queries()[::3]:
            cqms.admin().set_visibility("admin", record.qid, "public")
        for record in cqms.store.all_queries()[1::4]:
            cqms.admin().set_visibility("admin", record.qid, "private")
        cqms.annotate("admin", cqms.store.all_queries()[1].qid, "zebrafish")
        principals = _agreement_principals(cqms)
        registered = [(p.name, p.group, p.is_admin) for p in cqms.access_control.principals()]
        assert_reads_agree(cqms, principals)
        database = cqms.database
        cqms.close()
        with CQMS(database, config=config) as reopened:
            for name, group, is_admin in registered:
                reopened.register_user(name, group=group, is_admin=is_admin)
            private = [r for r in reopened.store.all_queries() if r.visibility == "private"]
            reopened.access_control.grant(private[0].qid, "grantee")
            assert_reads_agree(reopened, principals)

    def test_an_annotation_is_found_by_keyword_search(self, fresh_cqms):
        """The haystack a record is filed under follows its annotations."""
        qid = fresh_cqms.submit("alice", "SELECT * FROM Lakes").record.qid
        fresh_cqms.submit("alice", "SELECT * FROM WaterTemp")
        assert fresh_cqms.search_keyword("bob", ["zebrafish"]) == []
        fresh_cqms.annotate("bob", qid, "Zebrafish habitat")
        for user in ("alice", "bob", "root"):
            assert _qids(fresh_cqms.search_keyword(user, ["zebrafish", "lakes"])) == [qid]
        assert fresh_cqms.search_keyword("carol", ["zebrafish"]) == []
        assert fresh_cqms.search_substring("alice", "zebrafish") == []
