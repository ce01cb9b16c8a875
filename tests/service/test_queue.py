"""WorkQueue: lease exclusivity, heartbeats, backoff, reclaim after death.

These tests never sleep: the queue reads epoch time through
``repro.service.clock.wall_s``, which is monkeypatched to a controllable
fake so lease expiry and backoff gates are driven deterministically.
"""

import pytest

from repro.service import clock
from repro.service.queue import WorkQueue


class FakeWallClock:
    def __init__(self, start=1_000.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def wall(monkeypatch):
    fake = FakeWallClock()
    monkeypatch.setattr(clock, "wall_s", fake)
    return fake


@pytest.fixture
def queue(store, wall):
    return WorkQueue(store, lease_ttl_s=10.0, backoff_base_s=1.0, backoff_cap_s=8.0)


class TestClaim:
    def test_claims_oldest_queued_job_first(self, store, queue):
        store.submit({"x": 2}, job_id="002-b")
        store.submit({"x": 1}, job_id="001-a")
        record = queue.claim("w1")
        assert record.job_id == "001-a"
        assert record.state == "leased"
        assert record.attempts == 1
        assert store.get("001-a").state == "leased"
        assert queue.lease_path("001-a").exists()

    def test_lease_is_exclusive(self, store, queue):
        store.submit({"x": 1}, job_id="001-a")
        assert queue.claim("w1").job_id == "001-a"
        assert queue.claim("w2") is None

    def test_skips_terminal_and_backoff_gated_jobs(self, store, queue, wall):
        store.submit({"x": 1}, job_id="002-d", state="done")
        gated = store.submit({"x": 2}, job_id="003-b")
        gated.not_before = wall.now + 5.0
        store.update(gated)
        assert queue.claim("w1") is None
        wall.advance(5.0)
        assert queue.claim("w1").job_id == "003-b"

    def test_skips_records_it_cannot_read(self, store, queue, old_group_record):
        store.submit({"x": 1}, job_id="002-a")
        assert queue.claim("w1").job_id == "002-a"
        assert queue.claim("w1") is None

    def test_claim_rechecks_record_under_lease(self, store, queue):
        # The record completes between the scan and the lease: claim must
        # notice on re-read and back out, releasing the lease it grabbed.
        record = store.submit({"x": 1}, job_id="001-a")
        original_get = store.get_waiting

        def complete_then_get(job_id):
            current = original_get(job_id)
            if not queue.lease_path(job_id).exists():
                return current  # the pre-lease scan sees it queued
            current.state = "done"
            store.update(current)
            return original_get(job_id)  # gone from jobs/: JobNotFound

        store.get_waiting = complete_then_get
        assert queue.claim("w1") is None
        store.get_waiting = original_get
        assert store.get(record.job_id).state == "done"
        assert not queue.lease_path(record.job_id).exists()


class TestHeartbeatAndRelease:
    def test_heartbeat_extends_expiry(self, store, queue, wall):
        store.submit({"x": 1}, job_id="001-a")
        queue.claim("w1")
        first = queue._read_lease(queue.lease_path("001-a"))
        wall.advance(4.0)
        refreshed = queue.heartbeat("001-a", "w1")
        assert refreshed.expires_s == pytest.approx(first.expires_s + 4.0)
        on_disk = queue._read_lease(queue.lease_path("001-a"))
        assert on_disk.expires_s == pytest.approx(refreshed.expires_s)
        assert on_disk.owner == "w1"

    def test_release_is_idempotent(self, store, queue):
        store.submit({"x": 1}, job_id="001-a")
        queue.claim("w1")
        queue.release("001-a")
        queue.release("001-a")
        assert not queue.lease_path("001-a").exists()

    def test_torn_lease_reads_as_none(self, queue):
        path = queue.lease_path("001-a")
        path.write_text('{"job_id": "001-a", "own')
        assert queue._read_lease(path) is None


class TestCompleteAndFail:
    def test_complete_marks_done_and_drops_lease(self, store, queue):
        store.submit({"x": 1}, job_id="001-a")
        record = queue.claim("w1")
        done = queue.complete(record, digest="ab" * 32)
        assert done.state == "done"
        assert done.digest == "ab" * 32
        assert done.finished_s is not None
        assert store.get("001-a").state == "done"
        assert not queue.lease_path("001-a").exists()

    def test_backoff_doubles_to_cap(self, queue):
        assert queue.backoff_s(0) == 0.0
        assert [queue.backoff_s(n) for n in (1, 2, 3, 4, 5)] == [1.0, 2.0, 4.0, 8.0, 8.0]

    def test_fail_requeues_with_backoff_below_cap(self, store, queue, wall):
        store.submit({"x": 1}, job_id="001-a", max_attempts=3)
        record = queue.claim("w1")
        failed = queue.fail_attempt(record, "boom")
        assert failed.state == "queued"
        assert failed.error == "boom"
        assert failed.not_before == pytest.approx(wall.now + 1.0)
        assert not queue.lease_path("001-a").exists()
        # Gated now; claimable again once the backoff elapses.
        assert queue.claim("w1") is None
        wall.advance(1.0)
        assert queue.claim("w1").attempts == 2

    def test_fail_at_cap_quarantines(self, store, queue, wall):
        store.submit({"x": 1}, job_id="001-a", max_attempts=2)
        for _ in range(2):
            record = queue.claim("w1")
            failed = queue.fail_attempt(record, "boom")
            wall.advance(10.0)
        assert failed.state == "failed"
        assert failed.quarantined
        assert failed.finished_s is not None
        assert queue.claim("w1") is None  # quarantined jobs never run again


class TestReclaim:
    def test_live_lease_not_reclaimed(self, store, queue, wall):
        store.submit({"x": 1}, job_id="001-a")
        queue.claim("w1")
        wall.advance(5.0)  # inside the 10 s TTL
        assert queue.reclaim_expired() == []
        assert store.get("001-a").state == "leased"

    def test_expired_lease_requeues_job(self, store, queue, wall):
        store.submit({"x": 1}, job_id="001-a")
        queue.claim("w1")
        wall.advance(11.0)
        assert queue.reclaim_expired() == ["001-a"]
        record = store.get("001-a")
        assert record.state == "queued"
        assert record.attempts == 1  # the dead worker's attempt still counts
        assert record.not_before == pytest.approx(wall.now + 1.0)
        assert not queue.lease_path("001-a").exists()
        wall.advance(1.0)
        assert queue.claim("w2").attempts == 2

    def test_expiry_at_attempt_cap_quarantines(self, store, queue, wall):
        store.submit({"x": 1}, job_id="001-a", max_attempts=1)
        queue.claim("w1")
        wall.advance(11.0)
        queue.reclaim_expired()
        record = store.get("001-a")
        assert record.state == "failed"
        assert record.quarantined
        assert "worker presumed dead" in record.error

    def test_lease_on_terminal_record_just_dropped(self, store, queue, wall):
        # Worker died after completing the job but before releasing.
        store.submit({"x": 1}, job_id="001-a")
        record = queue.claim("w1")
        record.state = "done"
        store.update(record)
        wall.advance(11.0)
        assert queue.reclaim_expired() == []
        assert not queue.lease_path("001-a").exists()
        assert store.get("001-a").state == "done"

    def test_orphan_lease_without_record_dropped(self, store, queue, wall):
        queue._try_create_lease("999-ghost", "w1")
        wall.advance(11.0)
        assert queue.reclaim_expired() == []
        assert not queue.lease_path("999-ghost").exists()
