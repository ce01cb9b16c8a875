"""Interface queue (drop tail) and the RIPPLE re-ordering buffer (Rq)."""

from collections import deque

import pytest
from hypothesis import given, strategies as st

from repro.mac.queues import DropTailQueue, ReorderBuffer
from repro.packet import Packet


def pkt(seq, dst=3):
    return Packet(src=0, dst=dst, size_bytes=1000, seq=seq)


class TestDropTailQueue:
    def test_fifo_order(self):
        queue = DropTailQueue(capacity=10)
        for i in range(5):
            queue.push(pkt(i), i)
        popped = [queue.pop()[0].seq for _ in range(5)]
        assert popped == [0, 1, 2, 3, 4]

    def test_capacity_enforced(self):
        queue = DropTailQueue(capacity=3)
        results = [queue.push(pkt(i)) for i in range(5)]
        assert results == [True, True, True, False, False]
        assert queue.stats.dropped == 2
        assert len(queue) == 3

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            DropTailQueue(capacity=0)

    def test_peek_does_not_remove(self):
        queue = DropTailQueue(capacity=5)
        queue.push(pkt(0), "hop")
        assert queue.peek()[0].seq == 0
        assert len(queue) == 1

    def test_pop_matching_preserves_order_of_rest(self):
        queue = DropTailQueue(capacity=10)
        for i, hop in enumerate([1, 2, 1, 2, 1]):
            queue.push(pkt(i), hop)
        taken = queue.pop_matching(lambda _p, hop: hop == 1, limit=2)
        assert [p.seq for p, _ in taken] == [0, 2]
        remaining = [p.seq for p, _ in queue]
        assert remaining == [1, 3, 4]

    def test_pop_matching_respects_limit(self):
        queue = DropTailQueue(capacity=10)
        for i in range(6):
            queue.push(pkt(i), "x")
        taken = queue.pop_matching(lambda _p, hop: True, limit=4)
        assert len(taken) == 4 and len(queue) == 2

    def test_stats_counters(self):
        queue = DropTailQueue(capacity=2)
        queue.push(pkt(0))
        queue.push(pkt(1))
        queue.push(pkt(2))
        queue.pop()
        assert queue.stats.enqueued == 2
        assert queue.stats.dequeued == 1
        assert queue.stats.dropped == 1

    @given(st.lists(st.integers(min_value=0, max_value=5), max_size=40))
    def test_never_exceeds_capacity(self, hops):
        queue = DropTailQueue(capacity=7)
        for i, hop in enumerate(hops):
            queue.push(pkt(i), hop)
        assert len(queue) <= 7

    @given(
        hops=st.lists(st.integers(min_value=0, max_value=3), max_size=50),
        calls=st.lists(
            st.tuples(
                st.sets(st.integers(min_value=0, max_value=3)),
                st.integers(min_value=0, max_value=20),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_pop_matching_equals_the_whole_queue_rebuild(self, hops, calls):
        """Popping matching head entries in place takes what the full rebuild took."""
        queue = DropTailQueue(capacity=50)
        for i, hop in enumerate(hops):
            queue.push(pkt(i), hop)
        expected = deque(queue)
        dequeued = 0
        for wanted, limit in calls:

            def predicate(_packet, hop):
                return hop in wanted

            taken, expected = _rebuilding_pop_matching(expected, predicate, limit)
            dequeued += len(taken)
            assert queue.pop_matching(predicate, limit) == taken
            assert list(queue) == list(expected)
            assert queue.stats.dequeued == dequeued


def _rebuilding_pop_matching(entries, predicate, limit):
    """``pop_matching`` as it was: every call rebuilds the whole queue."""
    entries = deque(entries)
    taken = []
    remaining = deque()
    while entries and len(taken) < limit:
        packet, metadata = entries.popleft()
        if predicate(packet, metadata):
            taken.append((packet, metadata))
        else:
            remaining.append((packet, metadata))
    remaining.extend(entries)
    return taken, remaining


class TestReorderBuffer:
    """The Rq of Section III-B6: strictly in-order release per origin."""

    def test_in_order_release(self):
        rq = ReorderBuffer()
        out = []
        for seq in range(3):
            out.extend(rq.accept(0, seq, pkt(seq), flush_below=0))
        assert [p.seq for p in out] == [0, 1, 2]

    def test_gap_holds_back_later_packets(self):
        rq = ReorderBuffer()
        assert rq.accept(0, 1, pkt(1), 0) == []
        assert rq.accept(0, 2, pkt(2), 0) == []
        released = rq.accept(0, 0, pkt(0), 0)
        assert [p.seq for p in released] == [0, 1, 2]

    def test_duplicates_are_dropped(self):
        rq = ReorderBuffer()
        rq.accept(0, 0, pkt(0), 0)
        assert rq.accept(0, 0, pkt(0), 0) == []

    def test_flush_below_releases_partial_run(self):
        rq = ReorderBuffer()
        rq.accept(0, 1, pkt(1), 0)
        rq.accept(0, 3, pkt(3), 0)
        # The origin gave up on seq 0 and 2: watermark 4 releases 1 and 3 in order.
        released = rq.flush(0, flush_below=4)
        assert [p.seq for p in released] == [1, 3]
        assert rq.pending(0) == 0
        assert rq.next_expected(0) == 4

    def test_flush_carried_by_data_frame(self):
        rq = ReorderBuffer()
        rq.accept(0, 1, pkt(1), 0)
        released = rq.accept(0, 2, pkt(2), flush_below=1)
        assert [p.seq for p in released] == [1, 2]

    def test_origins_are_independent(self):
        rq = ReorderBuffer()
        assert rq.accept(0, 0, pkt(0), 0) != []
        assert rq.accept(5, 1, pkt(1), 0) == []  # origin 5 still waits for its seq 0
        assert rq.pending(5) == 1

    def test_old_packet_after_flush_is_ignored(self):
        rq = ReorderBuffer()
        rq.flush(0, flush_below=10)
        assert rq.accept(0, 4, pkt(4), 0) == []

    def test_flush_below_current_watermark_is_noop(self):
        rq = ReorderBuffer()
        rq.accept(0, 0, pkt(0), 0)
        rq.accept(0, 1, pkt(1), 0)
        # A stale (lower) watermark must not rewind next_expected or
        # re-release anything.
        assert rq.flush(0, flush_below=1) == []
        assert rq.next_expected(0) == 2

    def test_flush_at_exact_next_expected_is_noop(self):
        rq = ReorderBuffer()
        rq.accept(0, 0, pkt(0), 0)
        assert rq.flush(0, flush_below=1) == []
        assert rq.next_expected(0) == 1

    def test_header_only_accept_advances_watermark(self):
        # packet=None models a frame whose sub-packets were all corrupted but
        # whose header (carrying flush_below) survived.
        rq = ReorderBuffer()
        rq.accept(0, 2, pkt(2), 0)
        released = rq.accept(0, -1, None, flush_below=2)
        assert [p.seq for p in released] == [2]
        assert rq.next_expected(0) == 3

    def test_flush_releases_held_run_beyond_watermark(self):
        # Watermark 2 releases 1; 2 and 3 are contiguous from there, so the
        # whole run goes out in order.
        rq = ReorderBuffer()
        rq.accept(0, 1, pkt(1), 0)
        rq.accept(0, 2, pkt(2), 0)
        rq.accept(0, 3, pkt(3), 0)
        released = rq.flush(0, flush_below=2)
        assert [p.seq for p in released] == [1, 2, 3]
        assert rq.pending(0) == 0
        assert rq.next_expected(0) == 4

    def test_duplicate_of_held_packet_not_double_released(self):
        rq = ReorderBuffer()
        rq.accept(0, 1, pkt(1), 0)
        rq.accept(0, 1, pkt(1), 0)  # duplicate while still held
        released = rq.accept(0, 0, pkt(0), 0)
        assert [p.seq for p in released] == [0, 1]

    @given(order=st.permutations(list(range(8))))
    def test_any_arrival_order_releases_in_order(self, order):
        rq = ReorderBuffer()
        released = []
        for seq in order:
            released.extend(rq.accept(0, seq, pkt(seq), 0))
        assert [p.seq for p in released] == list(range(8))

    @given(
        order=st.permutations(list(range(10))),
        drop=st.sets(st.integers(min_value=0, max_value=9), max_size=4),
    )
    def test_releases_are_monotone_even_with_drops(self, order, drop):
        """Abandoned sequence numbers never cause out-of-order or duplicate release."""
        rq = ReorderBuffer()
        released = []
        for seq in order:
            if seq in drop:
                continue  # the origin never manages to deliver these
            released.extend(rq.accept(0, seq, pkt(seq), 0))
        # The origin eventually gives up on the dropped ones and advances its
        # watermark past everything it sent.
        released.extend(rq.flush(0, 10))
        seqs = [p.seq for p in released]
        assert seqs == sorted(seqs)
        assert len(seqs) == len(set(seqs))
        assert set(seqs) == set(range(10)) - drop
