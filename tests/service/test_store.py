"""JobStore/JobRecord: durable records, strict parsing, aggregates."""

import pytest

from repro.serialization import SpecError
from repro.service.store import (
    DEFAULT_MAX_ATTEMPTS,
    JobNotFound,
    JobRecord,
    JobStore,
    JobStoreError,
    new_job_id,
)


class TestJobRecord:
    def test_round_trip(self):
        record = JobRecord(
            job_id="001-abc",
            config={"duration_s": 0.05},
            digest="ab" * 32,
            state="leased",
            attempts=2,
            max_attempts=5,
            not_before=12.5,
            error="boom",
            created_s=1.0,
            finished_s=None,
        )
        assert JobRecord.from_dict(record.to_dict()) == record

    def test_unknown_key_rejected(self):
        with pytest.raises(SpecError, match="bogus"):
            JobRecord.from_dict({"job_id": "x", "bogus": 1})

    def test_job_id_required(self):
        with pytest.raises(SpecError, match="job_id"):
            JobRecord.from_dict({"state": "queued"})

    def test_invalid_state_rejected(self):
        with pytest.raises(SpecError, match="state"):
            JobRecord(job_id="x", state="running")

    def test_config_must_be_dict_or_null(self):
        with pytest.raises(SpecError, match="config"):
            JobRecord.from_dict({"job_id": "x", "config": [1, 2]})

    def test_quarantined_means_failed_at_attempt_cap(self):
        poisoned = JobRecord(job_id="x", state="failed", attempts=3, max_attempts=3)
        assert poisoned.terminal and poisoned.quarantined
        plain_failure = JobRecord(job_id="x", state="failed", attempts=1, max_attempts=3)
        assert plain_failure.terminal and not plain_failure.quarantined
        assert not JobRecord(job_id="x", state="queued").terminal


class TestJobIds:
    def test_unique_and_time_sortable_shape(self):
        ids = {new_job_id() for _ in range(64)}
        assert len(ids) == 64
        for job_id in ids:
            millis, _, suffix = job_id.partition("-")
            assert len(millis) == 13 and millis.isdigit()
            assert suffix


class TestJobStore:
    def test_submit_get_update(self, store, small_config):
        config = small_config().to_dict()
        record = store.submit(config, digest="ab" * 32)
        assert record.state == "queued"
        assert record.attempts == 0
        assert record.max_attempts == DEFAULT_MAX_ATTEMPTS
        assert record.created_s > 0
        loaded = store.get(record.job_id)
        assert loaded == record
        loaded.state = "done"
        store.update(loaded)
        assert store.get(record.job_id).state == "done"

    def test_submit_born_done_is_terminal(self, store):
        record = store.submit({"x": 1}, digest="ab" * 32, state="done")
        assert record.terminal
        assert record.finished_s is not None

    def test_job_id_collision_rejected(self, store):
        store.submit({"x": 1}, job_id="001-dup")
        with pytest.raises(JobStoreError, match="collision"):
            store.submit({"x": 2}, job_id="001-dup")

    def test_missing_job_raises_not_found(self, store):
        with pytest.raises(JobNotFound):
            store.get("no-such-job")

    def test_torn_record_raises_and_is_skipped_by_records(self, store):
        good = store.submit({"x": 1}, job_id="001-good")
        store.path_for("000-torn").write_text('{"job_id": "000-torn", "sta')
        with pytest.raises(JobStoreError, match="unreadable"):
            store.get("000-torn")
        assert [record.job_id for record in store.records()] == [good.job_id]

    def test_job_ids_sorted(self, store):
        for job_id in ("003-c", "001-a", "002-b"):
            store.submit({"x": 1}, job_id=job_id)
        assert store.job_ids() == ["001-a", "002-b", "003-c"]

    def test_env_var_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_DIR", str(tmp_path / "from-env"))
        store = JobStore()
        assert store.root == tmp_path / "from-env"
        assert store.jobs_dir.is_dir() and store.leases_dir.is_dir()


class TestAggregates:
    def test_counts_and_queue_depth(self, store):
        store.submit({"x": 1}, job_id="001-a")
        store.submit({"x": 2}, job_id="002-b", state="done")
        poisoned = store.submit({"x": 3}, job_id="003-c")
        poisoned.state = "failed"
        poisoned.attempts = poisoned.max_attempts
        store.update(poisoned)
        counts = store.counts()
        assert counts == {
            "queued": 1, "leased": 0, "done": 1, "failed": 1,
            "quarantined": 1, "leases": 0,
        }
        assert store.queue_depth() == 1

    def test_record_with_group_fields_is_unreadable(self, store, old_group_record):
        with pytest.raises(JobStoreError, match="kind"):
            store.get(old_group_record)
