"""Run store: content addressing, execution, integrity, bit-replay."""

from __future__ import annotations

import json

import pytest

from repro.errors import ChecksumMismatchError, ConfigurationError
from repro.service.scenario import scenario_digest, scenario_from_jsonable
from repro.service.store import RUN_ID_LEN, RunStore

SMALL = {
    "scenario": "store-t",
    "schema": 1,
    "seed": 11,
    "grid": {"kind": ["lesk"], "n": [8, 16], "adversary": ["random"]},
    "reps": 4,
    "sharding": {"block_size": 2},
}


@pytest.fixture()
def store(tmp_path):
    return RunStore(tmp_path / "store")


@pytest.fixture()
def scenario():
    return scenario_from_jsonable(SMALL)


class TestRegister:
    def test_run_id_is_digest_prefix(self, store, scenario):
        record, created = store.register(scenario)
        assert created
        assert record.run_id == scenario_digest(scenario)[:RUN_ID_LEN]
        assert store.status(record.run_id)["state"] == "queued"

    def test_idempotent_by_content(self, store, scenario):
        record, created = store.register(scenario)
        # same document, different key order in source -> same run
        again = scenario_from_jsonable(json.loads(json.dumps(SMALL)))
        record2, created2 = store.register(again)
        assert not created2
        assert record2.run_id == record.run_id
        assert store.run_ids() == [record.run_id]

    def test_manifest_names_digest_and_invocation(self, store, scenario):
        record, _ = store.register(
            scenario, invocation={"subcommand": "test", "argv": ["x"]}
        )
        manifest = store.manifest(record.run_id)
        assert manifest["scenario_digest"] == scenario_digest(scenario)
        assert manifest["invocation"] == {"subcommand": "test", "argv": ["x"]}
        assert manifest["preset"] == "scenario"

    def test_get_by_unique_prefix(self, store, scenario):
        record, _ = store.register(scenario)
        assert store.get(record.run_id[:6]).run_id == record.run_id
        with pytest.raises(ConfigurationError, match="no run"):
            store.get("ffffffff")


class TestExecuteAndReplay:
    def test_execute_writes_checksummed_table(self, store, scenario):
        record, _ = store.register(scenario)
        assert store.execute(record, jobs=1) == "done"
        table = store.load_table(record.run_id)
        assert len(table.rows) == 2
        assert (record.root / "SCENARIO.txt").exists()
        assert (record.root / "SCENARIO.csv").exists()
        status = store.status(record.run_id)
        assert status["state"] == "done"
        assert status["table_checksum"]

    def test_done_run_is_not_reexecuted(self, store, scenario):
        record, _ = store.register(scenario)
        store.execute(record)
        journal_len = len(store.journal(record.run_id))
        assert store.execute(record) == "done"  # no-op
        assert len(store.journal(record.run_id)) == journal_len

    def test_results_invariant_under_worker_count(self, tmp_path, scenario):
        payloads = []
        for jobs in (1, 3):
            store = RunStore(tmp_path / f"store-{jobs}")
            record, _ = store.register(scenario)
            store.execute(record, jobs=jobs)
            payloads.append(
                (record.root / "tables" / "SCENARIO.json").read_text()
            )
        assert payloads[0] == payloads[1]

    def test_replay_is_bit_identical(self, store, scenario):
        record, _ = store.register(scenario)
        store.execute(record, jobs=2)
        report = store.replay(record.run_id, jobs=1)
        assert report.identical, report.detail
        assert "REPRODUCED" in report.describe()

    def test_cancel_between_cells(self, store, scenario):
        record, _ = store.register(scenario)
        calls = iter([False, True])  # cancel before the second cell
        state = store.execute(record, should_cancel=lambda: next(calls))
        assert state == "cancelled"
        assert store.status(record.run_id)["state"] == "cancelled"

    def test_interrupted_run_resumes_from_block_checkpoints(
        self, store, scenario
    ):
        record, _ = store.register(scenario)
        calls = iter([False, True])
        assert store.execute(record, should_cancel=lambda: next(calls)) == "cancelled"
        blocks_after_cancel = list(record.shards_dir.glob("block-*.json"))
        assert blocks_after_cancel  # first cell's blocks are checkpointed
        # re-execution restores those blocks and finishes identically
        assert store.execute(record) == "done"
        assert store.replay(record.run_id).identical

    def test_telemetry_export_when_enabled(self, tmp_path):
        scenario = scenario_from_jsonable(
            {**SMALL, "telemetry": {"enabled": True, "stride": 4}}
        )
        store = RunStore(tmp_path / "store")
        record, _ = store.register(scenario)
        store.execute(record)
        assert (record.root / "telemetry" / "telemetry.jsonl").exists()
        assert (record.root / "telemetry" / "metrics.prom").exists()


class TestIntegrity:
    def test_tampered_table_detected(self, store, scenario):
        record, _ = store.register(scenario)
        store.execute(record)
        path = record.tables_dir / "SCENARIO.json"
        data = json.loads(path.read_text())
        data["table"]["rows"][0]["success"] = 0.123
        path.write_text(json.dumps(data))
        with pytest.raises(ChecksumMismatchError, match="integrity"):
            store.load_table(record.run_id)
        with pytest.raises(ChecksumMismatchError):
            store.verify(record.run_id)

    def test_tampered_scenario_detected(self, store, scenario):
        record, _ = store.register(scenario)
        store.execute(record)
        path = record.root / "scenario.json"
        doc = json.loads(path.read_text())
        doc["seed"] = 999  # would silently change every seed derivation
        path.write_text(json.dumps(doc))
        with pytest.raises(ChecksumMismatchError, match="altered"):
            store.verify(record.run_id)

    def test_format_1_run_refused_by_name(self, store, scenario):
        """A run stored before the one-stream engine change (manifest format
        1, whose scenario.json still carries ``engine.batched``) is refused
        for what it is, not reported as tampered or as an invalid document."""
        record, _ = store.register(scenario)
        store.execute(record)
        manifest_path = record.root / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format"] = 1
        manifest_path.write_text(json.dumps(manifest))
        scenario_path = record.root / "scenario.json"
        doc = json.loads(scenario_path.read_text())
        doc["engine"] = {"batched": True, "max_slots": None, "compact_interval": None}
        scenario_path.write_text(json.dumps(doc))
        for check in (store.verify, store.replay):
            with pytest.raises(ConfigurationError) as err:
                check(record.run_id)
            message = str(err.value)
            assert "manifest format 1" in message
            assert "packed RNG stream" in message
            assert "altered" not in message and "engine.batched" not in message

    def test_verify_passes_on_intact_run(self, store, scenario):
        record, _ = store.register(scenario)
        store.execute(record)
        store.verify(record.run_id)  # no raise


class TestQueryAndProgress:
    def test_query_filters(self, store, scenario):
        record, _ = store.register(scenario)
        assert store.query(state="queued")[0]["run_id"] == record.run_id
        assert store.query(state="done") == []
        assert store.query(name="store-t")[0]["run_id"] == record.run_id
        assert store.query(name="other") == []

    def test_progress_counts_cells(self, store, scenario):
        record, _ = store.register(scenario)
        store.execute(record)
        progress = store.progress(record.run_id)
        assert progress["cells_done"] == 2
        assert progress["cells_total"] == 2
        assert progress["state"] == "done"
