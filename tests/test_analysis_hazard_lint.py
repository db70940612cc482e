"""Tests for the engine hazard lint (ast-walking rules over engine source).

Each rule gets a firing and a non-firing fixture written to ``tmp_path``
(under a ``storage/`` directory where the rule's severity depends on it),
plus one test that the real engine tree is ERROR-free — the invariant the CI
``lint-and-verify`` step enforces.
"""

import textwrap
from pathlib import Path

import pytest

from repro.analysis.framework import Severity
from repro.analysis.hazard_lint import lint_paths

REPO_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def lint_snippet(tmp_path, code, *, storage=True):
    directory = tmp_path / ("storage" if storage else "client")
    directory.mkdir(exist_ok=True)
    (directory / "fixture.py").write_text(textwrap.dedent(code))
    return list(lint_paths([tmp_path]))


def rules_of(diagnostics):
    return {d.rule for d in diagnostics}


class TestWalPairing:
    def test_unpaired_heap_mutation_fires(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            class Table:
                def insert(self, row_id, row):
                    self._store_slot(row_id, row)

                def delete(self, row_id):
                    try:
                        self._discard_slot(row_id)
                        self.wal_emit("delete", row_id)
                    except BaseException:
                        raise
            """,
        )
        assert "wal-pairing" in rules_of(diagnostics)
        assert len([d for d in diagnostics if d.rule == "wal-pairing"]) == 1

    def test_guarded_mutation_is_clean(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            class Table:
                def insert(self, row_id, row):
                    try:
                        self._store_slot(row_id, row)
                        self.wal_emit("insert", row_id)
                    except BaseException:
                        self._discard_slot(row_id)
                        raise
            """,
        )
        assert "wal-pairing" not in rules_of(diagnostics)

    def test_restore_methods_exempt(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            class Table:
                def wal_hook(self):
                    self.wal_emit("noop")

                def restore_row(self, row_id, row):
                    self._store_slot(row_id, row)
            """,
        )
        assert "wal-pairing" not in rules_of(diagnostics)

    def test_classes_without_wal_are_exempt(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            class Cache:
                def put(self, key, value):
                    self._store_slot(key, value)
            """,
        )
        assert "wal-pairing" not in rules_of(diagnostics)

    def test_real_table_with_delete_emission_stripped_fires(self, tmp_path):
        """The rule watches the primitives the real heap writes through:
        ``Table.delete`` without its WAL emission is one ERROR, the file as
        committed is none."""
        source = (REPO_SRC / "storage" / "table.py").read_text()
        emission = textwrap.dedent(
            """\
            if self.wal_emit is not None:
                try:
                    self.wal_emit({"op": "delete", "tbl": self.name, "rid": row_id})
                except BaseException:
                    self._store_slot(row_id, row)  # un-log-able: restore the row
                    for index, position in indexed:
                        index.insert(row[position], row_id)
                    raise
            """
        )
        emission = textwrap.indent(emission, " " * 8)
        assert source.count(emission) == 1
        for name, text, expected in (
            ("committed", source, 0),
            ("stripped", source.replace(emission, ""), 1),
        ):
            directory = tmp_path / name / "storage"
            directory.mkdir(parents=True)
            (directory / "table.py").write_text(text)
            found = [d for d in lint_paths([tmp_path / name]) if d.rule == "wal-pairing"]
            assert len(found) == expected, (name, found)
            assert all(d.severity is Severity.ERROR and "Table.delete" in d.message for d in found)

    def test_batch_insert_without_rollback_fires(self, tmp_path):
        """The batch write goes through ``_store_slots``; the rule must see it
        (and not the one-row primitive that is written over it)."""
        diagnostics = lint_snippet(
            tmp_path,
            """
            class Table:
                def _store_slot(self, row_id, row):
                    self._store_slots(row_id, (row,))

                def insert_many(self, rows):
                    self._store_slots(self._next_row_id, rows)
                    if self.wal_emit is not None:
                        self.wal_emit({"op": "insert_many", "rows": rows})

                def append_unlogged(self, rows):
                    self._store_slots(self._next_row_id, rows)
            """,
        )
        found = sorted(d.message for d in diagnostics if d.rule == "wal-pairing")
        assert len(found) == 2
        assert "Table.append_unlogged mutates the heap without emitting" in found[0]
        assert "Table.insert_many calls wal_emit without the rollback idiom" in found[1]

    def test_real_insert_many_with_emission_stripped_fires(self, tmp_path):
        """``Table._insert`` (the body of ``insert_many``) without its
        emission-and-rollback block keeps only its ``_store_slots`` call:
        still one ERROR, so the batch write has not left the rule's sight."""
        source = (REPO_SRC / "storage" / "table.py").read_text()
        start = source.index("        if self.wal_emit is not None:", source.index("def _insert("))
        end = source.index("        self._next_row_id = row_ids.stop")
        block = source[start:end]
        assert '"op": "insert_many"' in block and "self._discard_slot(row_id)" in block
        directory = tmp_path / "storage"
        directory.mkdir()
        (directory / "table.py").write_text(source[:start] + source[end:])
        found = [d for d in lint_paths([tmp_path]) if d.rule == "wal-pairing"]
        assert len(found) == 1 and "Table._insert mutates the heap" in found[0].message


class TestLockAcrossYield:
    def test_yield_under_lock_fires(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            def scan(self):
                with self._lock:
                    for row in self._rows.values():
                        yield row
            """,
        )
        assert "lock-across-yield" in rules_of(diagnostics)

    def test_snapshot_then_yield_is_clean(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            def scan(self):
                with self._lock:
                    snapshot = list(self._rows.values())
                for row in snapshot:
                    yield row
            """,
        )
        assert "lock-across-yield" not in rules_of(diagnostics)

    def test_nested_generator_not_attributed(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            def build(self):
                with self._lock:
                    def inner():
                        yield 1
                    return inner
            """,
        )
        assert "lock-across-yield" not in rules_of(diagnostics)


class TestBroadExcept:
    def test_storage_broad_except_is_error(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            def load(path):
                try:
                    return open(path)
                except Exception:
                    return None
            """,
            storage=True,
        )
        found = [d for d in diagnostics if d.rule == "broad-except"]
        assert found and found[0].severity is Severity.ERROR

    def test_swallowing_outside_storage_is_warning(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            def load(path):
                try:
                    return open(path)
                except Exception:
                    return None
            """,
            storage=False,
        )
        found = [d for d in diagnostics if d.rule == "broad-except"]
        assert found and found[0].severity is Severity.WARNING

    def test_narrow_except_is_clean(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            def load(path):
                try:
                    return open(path)
                except (OSError, ValueError):
                    return None
            """,
            storage=True,
        )
        assert "broad-except" not in rules_of(diagnostics)

    def test_base_exception_with_reraise_is_clean(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            def apply(self):
                try:
                    self.mutate()
                except BaseException:
                    self.rollback()
                    raise
            """,
            storage=True,
        )
        assert "broad-except" not in rules_of(diagnostics)

    def test_base_exception_swallowed_is_error(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            def apply(self):
                try:
                    self.mutate()
                except BaseException:
                    pass
            """,
            storage=False,
        )
        found = [d for d in diagnostics if d.rule == "broad-except"]
        assert found and found[0].severity is Severity.ERROR


class TestWallClock:
    def test_time_time_call_fires(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            import time

            def stamp():
                return time.time()
            """,
        )
        found = [d for d in diagnostics if d.rule == "wall-clock"]
        assert found and found[0].severity is Severity.ERROR

    def test_datetime_now_fires(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            from datetime import datetime

            def stamp():
                return datetime.now()
            """,
        )
        assert "wall-clock" in rules_of(diagnostics)

    def test_monotonic_call_is_warning(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            import time

            def stamp():
                return time.monotonic()
            """,
        )
        found = [d for d in diagnostics if d.rule == "wall-clock"]
        assert found and found[0].severity is Severity.WARNING

    def test_uncalled_reference_and_perf_counter_are_clean(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            import time

            def make_clock(clock=None):
                tick = clock or time.monotonic
                started = time.perf_counter()
                return tick, started
            """,
        )
        assert "wall-clock" not in rules_of(diagnostics)

    def test_clock_module_exempt(self, tmp_path):
        (tmp_path / "clock.py").write_text(
            "import time\n\ndef now():\n    return time.time()\n"
        )
        assert "wall-clock" not in rules_of(lint_paths([tmp_path]))


class TestPagePinProtocol:
    def test_mutating_read_page_fires(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            def corrupt(self, page_id, codec):
                page = self._store.read(page_id, codec)
                page[0] = "row"
            """,
        )
        assert "page-pin-protocol" in rules_of(diagnostics)

    def test_pinned_mutation_without_mark_dirty_fires(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            def silent_write(self, page_id, codec):
                page = self._store.fetch(page_id, codec)
                try:
                    page.pop(3, None)
                finally:
                    self._store.unpin(page_id)
            """,
        )
        fired = [d for d in diagnostics if d.rule == "page-pin-protocol"]
        assert len(fired) == 1
        assert "mark_dirty" in fired[0].message

    def test_fetch_without_unpin_fires(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            def leak_pin(self, page_id, codec):
                page = self._store.fetch(page_id, codec)
                page[0] = "row"
                self._store.mark_dirty(page_id)
                return page
            """,
        )
        fired = [d for d in diagnostics if d.rule == "page-pin-protocol"]
        assert len(fired) == 1
        assert "unpin" in fired[0].message

    def test_full_protocol_is_clean(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            def store_slot(self, page_id, codec, slot, row):
                page = self._store.fetch(page_id, codec)
                try:
                    page[slot] = row
                    self._store.mark_dirty(page_id)
                finally:
                    self._store.unpin(page_id)
            """,
        )
        assert "page-pin-protocol" not in rules_of(diagnostics)

    def test_readonly_iteration_is_clean(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            def scan(self, page_id, codec):
                page = self._store.read(page_id, codec)
                return [row for row in page.values()]
            """,
        )
        assert "page-pin-protocol" not in rules_of(diagnostics)

    def test_non_store_receivers_are_ignored(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            def load(self, path):
                data = self._file.read(4096)
                cache = self._cache.fetch(path)
                cache["data"] = data
                return cache
            """,
        )
        assert "page-pin-protocol" not in rules_of(diagnostics)


class TestGcTuning:
    def test_each_tuning_call_fires_as_error(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            import gc

            def run(work):
                gc.disable()
                gc.set_threshold(100_000)
                gc.freeze()
                return work()
            """,
            storage=False,
        )
        found = [d for d in diagnostics if d.rule == "gc-tuning"]
        assert len(found) == 3
        assert all(d.severity is Severity.ERROR for d in found)

    def test_aliased_and_imported_calls_fire(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            import gc as collector
            from gc import disable as off

            def run():
                off()
                collector.freeze()
            """,
        )
        assert len([d for d in diagnostics if d.rule == "gc-tuning"]) == 2

    def test_reading_and_collecting_are_clean(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            import gc

            def census():
                gc.collect()
                gc.enable()
                return gc.get_count(), gc.isenabled(), gc.get_threshold()
            """,
        )
        assert "gc-tuning" not in rules_of(diagnostics)


class TestEngineTree:
    def test_engine_source_has_no_errors(self):
        report = lint_paths([REPO_SRC])
        assert report.errors == [], "\n" + report.render()
