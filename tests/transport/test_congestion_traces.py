"""Forced-drop trajectory tests: each controller against hand-computed traces.

Two layers of coverage:

* **Unit trajectories** drive a bare controller through a scripted event
  sequence (ACKs, duplicate ACKs, timeouts) and assert the exact
  ``cwnd``/``ssthresh`` values at every step.  The expected floats are
  computed by hand from the published state machines — slow start doubles,
  ``ssthresh = max(flight/2, 2)`` at fast retransmit, RFC 6582 partial-ACK
  deflation, the cubic ``W(t) = C(t-K)^3 + W_max`` curve — not by running
  the code under test.
* **Pipe episodes** run a real :class:`~repro.transport.tcp.TcpSender`
  over the deterministic :class:`tests.transport.harness.TcpPipe` with a
  :class:`tests.transport.harness.DropScript` forcing the named
  episode: triple-dupACK fast retransmit, partial ACK (two holes in one
  window), full-window loss -> RTO with exponential backoff, and
  reorder-without-loss (a delayed segment causing a spurious fast
  retransmit).
"""

from __future__ import annotations

import pytest

from repro.sim.units import ms
from repro.transport.congestion import (
    CubicController,
    NewRenoController,
    RenoController,
    TahoeController,
)
from tests.transport.harness import TcpPipe

#: ``srtt`` handed to bare controllers in unit trajectories (10 ms).
SRTT_NS = ms(10)


def grow(controller, acks, start_ack=1, flight=4):
    """Feed ``acks`` single-segment cumulative ACKs outside recovery."""
    for i in range(acks):
        assert controller.on_ack(start_ack + i, 1, flight, 0, SRTT_NS) is False


class TestRenoTrajectory:
    """The seed machine: fast recovery with ssthresh-floored partial ACKs."""

    def test_triple_dupack_partial_and_full_ack(self):
        c = RenoController().attach(awnd_segments=64, initial_cwnd=2.0)
        assert (c.cwnd, c.ssthresh) == (2.0, 64.0)

        # Slow start: each ACK adds one full segment.
        grow(c, 2)
        assert c.cwnd == 4.0

        # Episode: triple duplicate ACK with 4 segments in flight.
        assert c.on_dupack(4, 6, 0, SRTT_NS) is False
        assert c.on_dupack(4, 6, 0, SRTT_NS) is False
        assert c.cwnd == 4.0  # first two dupacks change nothing
        assert c.on_dupack(4, 6, 0, SRTT_NS) is True  # fast retransmit
        assert c.ssthresh == 2.0  # max(4/2, 2)
        assert c.cwnd == 5.0  # ssthresh + 3
        assert c.in_recovery and c.recover == 5

        # A further dupack inflates the window while the hole persists.
        assert c.on_dupack(4, 6, 0, SRTT_NS) is False
        assert c.cwnd == 6.0

        # Partial ACK (ack 4 <= recover): retransmit the next hole and
        # deflate, but never below ssthresh (the seed's floor).
        assert c.on_ack(4, 2, 2, 0, SRTT_NS) is True
        assert c.cwnd == 5.0  # max(2, 6 - 2 + 1)
        assert c.in_recovery

        # Full ACK (ack 6 > recover): recovery exits at ssthresh.
        assert c.on_ack(6, 2, 0, 0, SRTT_NS) is False
        assert not c.in_recovery
        assert c.cwnd == 2.0

        # Now at ssthresh: congestion avoidance adds 1/cwnd per segment.
        assert c.on_ack(7, 1, 1, 0, SRTT_NS) is False
        assert c.cwnd == 2.5

    def test_timeout_collapses_to_one_segment(self):
        c = RenoController().attach(64, 2.0)
        grow(c, 6)
        assert c.cwnd == 8.0
        c.on_timeout(flight_size=8, now_ns=0)
        assert c.cwnd == 1.0
        assert c.ssthresh == 4.0  # max(8/2, 2)
        assert not c.in_recovery


class TestTahoeTrajectory:
    """No fast recovery: three dupacks cost a full slow-start epoch."""

    def test_triple_dupack_slow_starts(self):
        c = TahoeController().attach(64, 2.0)
        grow(c, 2)
        assert c.cwnd == 4.0

        assert c.on_dupack(4, 6, 0, SRTT_NS) is False
        assert c.on_dupack(4, 6, 0, SRTT_NS) is False
        assert c.on_dupack(4, 6, 0, SRTT_NS) is True  # retransmit the hole...
        assert c.cwnd == 1.0  # ...but collapse instead of halving
        assert c.ssthresh == 2.0
        assert not c.in_recovery  # Tahoe never enters recovery

        # Further dupacks neither inflate nor retransmit.
        assert c.on_dupack(4, 6, 0, SRTT_NS) is False
        assert c.cwnd == 1.0

        # The recovering ACK slow-starts (1 < ssthresh), then CA.
        assert c.on_ack(4, 2, 0, 0, SRTT_NS) is False
        assert c.cwnd == 3.0
        assert c.on_ack(5, 1, 0, 0, SRTT_NS) is False
        assert c.cwnd == pytest.approx(3.0 + 1.0 / 3.0)


class TestNewRenoTrajectory:
    """RFC 6582: pure partial-ACK deflation and burst-avoiding exit."""

    def test_partial_ack_deflates_below_ssthresh(self):
        c = NewRenoController().attach(64, 2.0)
        grow(c, 8)
        assert c.cwnd == 10.0

        for _ in range(2):
            assert c.on_dupack(12, 13, 0, SRTT_NS) is False
        assert c.on_dupack(12, 13, 0, SRTT_NS) is True
        assert c.ssthresh == 6.0  # max(12/2, 2)
        assert c.cwnd == 9.0  # ssthresh + 3
        assert c.recover == 12

        # Partial ACK for 8 segments: deflate by the amount acked plus
        # one MSS — NO ssthresh floor (Reno would stop at 6.0 here).
        assert c.on_ack(9, 8, 4, 0, SRTT_NS) is True
        assert c.cwnd == 2.0  # max(9 - 8 + 1, 1)
        assert c.in_recovery

        # Full ACK with 3 segments left in flight: exit at
        # min(ssthresh, flight + 1) to avoid a deflation burst.
        assert c.on_ack(13, 4, 3, 0, SRTT_NS) is False
        assert c.cwnd == 4.0  # min(6, 3 + 1)
        assert not c.in_recovery

    def test_reno_floor_is_the_divergence(self):
        """Same episode through the seed machine: the floor binds at 6.0."""
        c = RenoController().attach(64, 2.0)
        grow(c, 8)
        for _ in range(2):
            c.on_dupack(12, 13, 0, SRTT_NS)
        assert c.on_dupack(12, 13, 0, SRTT_NS) is True
        assert c.on_ack(9, 8, 4, 0, SRTT_NS) is True
        assert c.cwnd == 6.0  # max(ssthresh=6, 2)
        assert c.on_ack(13, 4, 3, 0, SRTT_NS) is False
        assert c.cwnd == 6.0  # flat ssthresh exit


class TestCubicTrajectory:
    """Time-based growth: the window follows W(t) = C(t-K)^3 + W_max."""

    def make_post_loss(self):
        """A cubic flow that lost at cwnd=10 and exited recovery at 7.0."""
        c = CubicController().attach(64, 2.0)
        grow(c, 8)
        assert c.cwnd == 10.0
        for _ in range(2):
            assert c.on_dupack(10, 11, 0, SRTT_NS) is False
        assert c.on_dupack(10, 11, 0, SRTT_NS) is True
        assert c.w_max == 10.0  # first loss: plateau = cwnd at loss
        assert c.ssthresh == 7.0  # max(10 * 0.7, 2)
        assert c.cwnd == 10.0  # ssthresh + 3
        assert c.on_ack(11, 1, 0, ms(15), SRTT_NS) is False  # full ACK
        assert c.cwnd == 7.0
        return c

    def test_congestion_avoidance_follows_the_cubic_curve(self):
        c = self.make_post_loss()
        # Hand-computed from W(t) = 10 + 0.4*(t + srtt - K)^3 with
        # K = ((10-7)/0.4)^(1/3), per-ACK pacing cwnd += (target-cwnd)/cwnd,
        # and the TCP-friendly w_est floor
        # (w_est += 3(1-b)/(1+b) * newly/cwnd, which dominates early on).
        expected = [
            (ms(20), 7.0108043217),
            (ms(30), 7.0308219435),
            (ms(40), 7.0586452493),
            (ms(70), 7.0930426852),
            (ms(120), 7.1472975400),
        ]
        for now_ns, want in expected:
            assert c.on_ack(12, 1, 5, now_ns, SRTT_NS) is False
            assert c.cwnd == pytest.approx(want, rel=1e-9)
        # The epoch anchored at the first CA ack with K back to the plateau.
        assert c._k == pytest.approx(((10.0 - 7.0) / 0.4) ** (1.0 / 3.0))
        # Concave region: growth is monotone and still below the plateau.
        assert c.cwnd < c.w_max

    def test_fast_convergence_shrinks_the_plateau(self):
        c = self.make_post_loss()
        c.on_ack(12, 1, 5, ms(20), SRTT_NS)
        before = c.cwnd
        assert before < c.w_max
        for _ in range(2):
            c.on_dupack(7, 13, ms(25), SRTT_NS)
        assert c.on_dupack(7, 13, ms(25), SRTT_NS) is True
        # Lost ground since the last plateau: concede bandwidth by
        # recording a shrunken W_max = cwnd * (2 - beta) / 2.
        assert c.w_max == pytest.approx(before * (2.0 - 0.7) / 2.0)
        assert c.ssthresh == pytest.approx(max(before * 0.7, 2.0))

    def test_timeout_starts_a_new_epoch(self):
        c = self.make_post_loss()
        c.on_ack(12, 1, 5, ms(20), SRTT_NS)
        cwnd_at_loss = c.cwnd
        c.on_timeout(flight_size=5, now_ns=ms(30))
        assert c.cwnd == 1.0
        assert c.ssthresh == pytest.approx(max(cwnd_at_loss * 0.7, 2.0))
        assert c._epoch_start_ns == -1  # next CA ack re-anchors the curve

    def test_no_params_disable_fast_convergence(self):
        c = CubicController(fast_convergence=False).attach(64, 2.0)
        grow(c, 8)
        for _ in range(3):
            c.on_dupack(10, 11, 0, SRTT_NS)
        c.on_ack(11, 1, 0, ms(15), SRTT_NS)
        assert c.cwnd == 7.0
        c.on_ack(12, 1, 5, ms(20), SRTT_NS)
        before = c.cwnd
        for _ in range(3):
            c.on_dupack(7, 13, ms(25), SRTT_NS)
        assert c.w_max == pytest.approx(before)  # plateau NOT shrunk


ALL_CONTROLLERS = [RenoController, TahoeController, NewRenoController, CubicController]


class TestPipeEpisodes:
    """Scripted-drop episodes over the deterministic two-host pipe."""

    def test_triple_dupack_fast_retransmit(self):
        pipe = TcpPipe()
        pipe.script.drop(5)
        pipe.sender.send_bytes(40 * 1000)
        pipe.run_seconds(2.0)
        assert pipe.script.dropped == 1
        assert pipe.sender.stats.fast_retransmits == 1
        assert pipe.sender.stats.timeouts == 0
        assert pipe.sender.transfer_complete
        assert pipe.sink.next_expected == 40
        # The trace shows the halving: ssthresh fell from awnd (64) to
        # flight/2 exactly once, and recovery was entered and exited.
        assert any(s.in_recovery for s in pipe.trace)
        assert not pipe.trace[-1].in_recovery
        halved = min(s.ssthresh for s in pipe.trace)
        assert 2.0 <= halved < 64.0

    def test_partial_ack_two_holes_one_window(self):
        pipe = TcpPipe()
        pipe.script.drop(6).drop(9)
        pipe.sender.send_bytes(40 * 1000)
        pipe.run_seconds(2.0)
        assert pipe.script.dropped == 2
        # One dupack burst covers both holes: the second is retransmitted
        # on the partial ACK, with no second fast retransmit and no RTO.
        assert pipe.sender.stats.fast_retransmits == 1
        assert pipe.sender.stats.timeouts == 0
        assert pipe.sender.stats.retransmissions >= 2
        assert pipe.sender.transfer_complete

    def test_full_window_loss_rto_and_backoff(self):
        pipe = TcpPipe()
        # The whole initial window (cwnd=2) is lost, and the first RTO
        # retransmission is lost too: 1 s RTO, then a doubled 2 s RTO.
        pipe.script.drop(0, times=2).drop(1)
        pipe.sender.send_bytes(6 * 1000)
        pipe.run_seconds(5.0)
        assert pipe.sender.stats.timeouts == 2
        assert pipe.sender.stats.rto_backoffs == 1  # only the second fired backed off
        assert pipe.sender.stats.fast_retransmits == 0
        assert pipe.sender.transfer_complete
        assert pipe.script.exhausted

    def test_reorder_without_loss_spurious_fast_retransmit(self):
        pipe = TcpPipe()
        # Delay one segment by 2.5x RTT: later segments arrive first,
        # dupacks accumulate, and the sender fast-retransmits a segment
        # that was never lost.
        pipe.script.delay(8, ms(25))
        pipe.sender.send_bytes(40 * 1000)
        pipe.run_seconds(2.0)
        assert pipe.script.dropped == 0
        assert pipe.script.delayed == 1
        assert pipe.sender.stats.fast_retransmits >= 1  # spurious
        assert pipe.sender.stats.timeouts == 0
        # Both copies eventually arrive: the sink saw a duplicate and a
        # re-ordered arrival, yet delivered everything.
        assert pipe.sink.stats.duplicate_segments >= 1
        assert pipe.sink.stats.reordered_segments >= 1
        assert pipe.sender.transfer_complete

    def test_tahoe_collapses_where_reno_halves(self):
        traces = {}
        for controller_cls in (RenoController, TahoeController):
            pipe = TcpPipe(controller=controller_cls())
            pipe.script.drop(5)
            pipe.sender.send_bytes(40 * 1000)
            pipe.run_seconds(2.0)
            assert pipe.sender.transfer_complete
            traces[controller_cls.name] = pipe.trace
        assert any(s.cwnd == 1.0 for s in traces["tahoe"])
        assert all(s.cwnd > 1.0 for s in traces["reno"])
        assert not any(s.in_recovery for s in traces["tahoe"])

    @pytest.mark.parametrize("controller_cls", ALL_CONTROLLERS, ids=lambda c: c.name)
    def test_every_variant_recovers_from_a_scripted_drop(self, controller_cls):
        pipe = TcpPipe(controller=controller_cls())
        pipe.script.drop(5)
        pipe.sender.send_bytes(30 * 1000)
        pipe.run_seconds(3.0)
        assert pipe.sender.stats.fast_retransmits == 1
        assert pipe.sender.stats.timeouts == 0
        assert pipe.sender.transfer_complete
        assert pipe.sink.next_expected == 30

    @pytest.mark.parametrize("controller_cls", ALL_CONTROLLERS, ids=lambda c: c.name)
    def test_episodes_are_deterministic(self, controller_cls):
        def run():
            pipe = TcpPipe(controller=controller_cls())
            pipe.script.drop(3).drop(9).delay(14, ms(25))
            pipe.sender.send_bytes(50 * 1000)
            pipe.run_seconds(4.0)
            return pipe.trace, pipe.sender.stats, pipe.sim.now

        first, second = run(), run()
        assert first == second
