"""ChannelAccess against a slot-stepping reference model.

:class:`SlotSteppingAccess` below is the DCF contention procedure as a timer
per DIFS and one more per backoff slot.  :class:`~repro.mac.base.ChannelAccess`
arms one grant event per idle period instead, so the two must agree on every
grant instant and every backoff draw, including the same-instant ties the
reference gets from its scheduling order.
"""

import random

import pytest

from repro.core.ripple import RippleMac
from repro.mac.base import ChannelAccess, RouteDecision
from repro.mac.frames import SubPacket, build_data_frame
from repro.mac.timing import DEFAULT_TIMING
from repro.packet import Packet
from repro.phy.channel import WirelessChannel
from repro.phy.error_models import BitErrorModel
from repro.phy.params import PhyParams
from repro.phy.propagation import ShadowingPropagation
from repro.phy.radio import Radio
from repro.routing.mcexor import McExorMac
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams, UniformStream
from repro.sim.units import us

SLOT = DEFAULT_TIMING.slot_ns
SIFS = DEFAULT_TIMING.sifs_ns
DIFS = DEFAULT_TIMING.difs_ns

#: A sensed signal's start is scheduled one propagation delay ahead; the
#: longest in any registered topology is 3.1 us (Roofnet).
SIGNAL_LEAD = us(3)


class SlotSteppingAccess:
    """Reference model: one timer for the DIFS, then one per backoff slot."""

    def __init__(self, sim, radio, timing, rng, on_granted):
        self._sim = sim
        self._radio = radio
        self._timing = timing
        self._uniforms = UniformStream(rng)
        self._on_granted = on_granted
        self.cw = timing.cw_min
        self._active = False
        self._remaining_slots = None
        self._difs_event = None
        self._slot_event = None

    def request(self):
        if self._active:
            return
        self._active = True
        self._radio.hold_mac_active()
        self._try_resume()

    def defer_to(self, when):
        """No-op: the per-slot timers get every tie from their arming order."""

    def record_success(self):
        self.cw = self._timing.cw_min

    def record_failure(self):
        self.cw = min(self.cw * 2, self._timing.cw_max)

    def notify_busy(self):
        self._cancel_timers()

    def notify_idle(self):
        if self._active:
            self._try_resume()

    def _cancel_timers(self):
        if self._difs_event is not None:
            self._difs_event.cancel()
            self._difs_event = None
        if self._slot_event is not None:
            self._slot_event.cancel()
            self._slot_event = None

    def _try_resume(self):
        if self._radio.busy:
            return
        self._cancel_timers()
        self._difs_event = self._sim.schedule(self._timing.difs_ns, self._difs_elapsed)

    def _difs_elapsed(self):
        self._difs_event = None
        if self._remaining_slots is None:
            self._remaining_slots = int(self._uniforms.next_float() * self.cw)
        self._count_down()

    def _slot_elapsed(self):
        self._slot_event = None
        self._remaining_slots -= 1
        self._count_down()

    def _count_down(self):
        if self._remaining_slots <= 0:
            self._active = False
            self._remaining_slots = None
            self._radio.release_mac_active()
            self._on_granted()
            return
        self._slot_event = self._sim.schedule(self._timing.slot_ns, self._slot_elapsed)


class _Medium:
    """The two carrier-sense facts ChannelAccess reads from its radio, and its holds there."""

    def __init__(self):
        self.busy = False
        self.is_transmitting = False
        self.holds = 0

    def hold_mac_active(self):
        self.holds += 1

    def release_mac_active(self):
        self.holds -= 1


class _RecordingUniforms:
    """Wraps a station's backoff stream and records every draw."""

    def __init__(self, inner):
        self._inner = inner
        self.draws = []

    def next_float(self):
        value = self._inner.next_float()
        self.draws.append(value)
        return value


def _busy_periods(rng, horizon):
    """``(start, end, own)`` busy periods whose gaps hit slot boundaries and straddle the DIFS.

    Only gaps of at least a SIFS can end in our own transmission: its
    relay or ACK timer is armed at the idle edge, a SIFS or more ahead.
    """
    periods = []
    idle_from = us(5)
    while idle_from < horizon:
        choice = rng.random()
        if choice < 0.45:
            gap = DIFS + rng.randrange(0, 20) * SLOT  # exactly on a slot boundary
        elif choice < 0.65:
            gap = rng.randrange(1, DIFS)  # inside the DIFS
        else:
            gap = DIFS + rng.randrange(0, 40 * SLOT)
        start = idle_from + gap
        end = start + rng.randrange(us(20), us(400))
        periods.append((start, end, gap >= SIFS and rng.random() < 0.4))
        idle_from = end
    return periods


def _drive(access_cls, seed, horizon=us(20_000)):
    """Run one scripted station; return its grant instants, draws and boundary hits."""
    script = random.Random(seed)
    periods = _busy_periods(script, horizon)
    sim = Simulator()
    medium = _Medium()
    grants = []
    state = {"contending": False, "resumed_at": 0}
    hits = {"signal": 0, "own": 0, "difs": 0}

    def granted():
        grants.append(sim.now)
        state["contending"] = False
        # Vary the window between rounds, as exchange outcomes do.
        if random.Random(seed * 7919 + len(grants)).random() < 0.3:
            access.record_failure()
        else:
            access.record_success()
        delay = random.Random(seed * 104729 + len(grants)).randrange(0, us(300))
        sim.schedule(delay, request)

    access = access_cls(sim, medium, DEFAULT_TIMING, RandomStreams(seed).stream_for("mac", 1), granted)
    uniforms = _RecordingUniforms(access._uniforms)
    access._uniforms = uniforms

    def request():
        if not state["contending"]:
            state["contending"] = True
            if not medium.busy:
                state["resumed_at"] = sim.now
        access.request()

    def busy_edge(end, own):
        # The access holds the radio's edges exactly while it contends.
        assert medium.holds == state["contending"]
        if state["contending"]:
            counted = sim.now - state["resumed_at"] - DIFS
            if counted < 0:
                hits["difs"] += 1
            elif counted > 0 and counted % SLOT == 0:
                hits["own" if own else "signal"] += 1
        medium.busy = True
        medium.is_transmitting = own
        access.notify_busy()
        sim.schedule_at(end, idle_edge)

    def idle_edge():
        assert medium.holds == state["contending"]
        medium.busy = False
        medium.is_transmitting = False
        if state["contending"]:
            state["resumed_at"] = sim.now
        access.notify_idle()
        # Our own transmissions are armed here, after the access resumed.
        upcoming = next((p for p in periods if p[0] > sim.now), None)
        if upcoming is not None and upcoming[2]:
            sim.schedule_at(upcoming[0], busy_edge, upcoming[1], True)
            access.defer_to(upcoming[0])

    for start, end, own in periods:
        if not own:
            sim.schedule_at(max(0, start - SIGNAL_LEAD), sim.schedule_at, start, busy_edge, end, False)
    sim.schedule(0, request)
    sim.run(until=horizon)
    return grants, uniforms.draws, hits


class TestAgainstSlotSteppingReference:
    @pytest.mark.parametrize("seed", range(12))
    def test_same_grants_and_draws(self, seed):
        ref_grants, ref_draws, hits = _drive(SlotSteppingAccess, seed)
        grants, draws, new_hits = _drive(ChannelAccess, seed)
        assert hits == new_hits
        assert len(ref_grants) > 20
        assert grants == ref_grants
        # The reference draws at the end of the DIFS, ChannelAccess when
        # contention resumes: a round cut off by the horizon may hold one more.
        assert draws[: len(ref_draws)] == ref_draws
        assert len(draws) - len(ref_draws) in (0, 1)

    def test_scripts_cover_every_tie(self):
        totals = {"signal": 0, "own": 0, "difs": 0}
        for seed in range(12):
            for kind, count in _drive(ChannelAccess, seed)[2].items():
                totals[kind] += count
        assert all(count >= 5 for count in totals.values()), totals


def _idle_backoffs(rounds, seed=1):
    """Backoff slots of ``rounds`` grants on a medium that stays idle, each at ``cw_min``.

    The reference above draws as ChannelAccess does, so these tests hold
    the draw itself to the DCF's uniform window.
    """
    sim = Simulator()
    delays = []
    requested = {"at": 0}

    def request():
        requested["at"] = sim.now
        access.request()

    def granted():
        delays.append(sim.now - requested["at"] - DIFS)
        access.record_success()
        if len(delays) < rounds:
            sim.schedule(0, request)

    access = ChannelAccess(
        sim, _Medium(), DEFAULT_TIMING, RandomStreams(seed).stream_for("mac", 1), granted
    )
    sim.schedule(0, request)
    sim.run()
    assert len(delays) == rounds
    assert all(delay % SLOT == 0 for delay in delays)
    return [delay // SLOT for delay in delays]


class TestBackoffDraws:
    def test_mean_backoff(self):
        # 4,000 draws uniform over [0, 16) slots: mean 7.5, standard error 0.07.
        slots = _idle_backoffs(4000)
        assert sum(slots) / len(slots) == pytest.approx((DEFAULT_TIMING.cw_min - 1) / 2, abs=0.3)

    def test_backoff_spans_the_whole_window(self):
        assert set(_idle_backoffs(4000)) == set(range(DEFAULT_TIMING.cw_min))

    def test_failures_double_the_window_up_to_cw_max(self):
        access = ChannelAccess(
            Simulator(), _Medium(), DEFAULT_TIMING, RandomStreams(1).stream_for("mac", 1), lambda: None
        )
        windows = [access.cw]
        for _ in range(8):
            access.record_failure()
            windows.append(access.cw)
        assert windows == [16, 32, 64, 128, 256, 512, 1024, 1024, 1024]
        access.record_success()
        assert access.cw == DEFAULT_TIMING.cw_min


def _first_at_tie(access_cls, backoff_slots, mac_cls=RippleMac, rank=None):
    """What node 1 sends first when its own grant and a relay or ACK fall due together.

    Node 1 starts contending while node 0's frame is on the air, with a
    backoff of exactly ``backoff_slots``, and decodes that frame as the
    forwarder of rank ``rank``.  By default that is the RIPPLE rank whose
    relay deferral (``rank * slot + SIFS``) ends at the same nanosecond as
    the grant.  Returns ``"timer"`` when the relay or ACK went first and
    ``"grant"`` when node 1's own frame did.
    """
    rank = backoff_slots + 2 if rank is None else rank
    sim = Simulator()
    phy = PhyParams()
    channel = WirelessChannel(
        sim,
        phy,
        propagation=ShadowingPropagation(shadowing_deviation_db=0.0),
        error_model=BitErrorModel(0.0),
        rng=RandomStreams(1),
    )
    sender = Radio(0, (0.0, 0.0), channel)
    mac = mac_cls(sim, 1, Radio(1, (100.0, 0.0), channel), phy, DEFAULT_TIMING, RandomStreams(1))
    mac.access = access_cls(sim, mac.radio, DEFAULT_TIMING, mac.rng, mac._on_access_granted)
    if mac_cls is not RippleMac:
        mac.on_channel_busy = mac.access.notify_busy
        mac.on_channel_idle = mac.access.notify_idle

    class FixedDraw:
        def next_float(self):
            return (backoff_slots + 0.5) / mac.access.cw

    mac.access._uniforms = FixedDraw()
    forwarders = tuple(range(10, 10 + rank - 1)) + (1,)
    packet = Packet(src=0, dst=4, size_bytes=1000, seq=0)
    frame = build_data_frame(
        DEFAULT_TIMING, origin=0, final_dst=4, transmitter=0, receiver=None,
        subpackets=[SubPacket(packet=packet, mac_seq=0, bits=DEFAULT_TIMING.subpacket_bits(1000))],
        forwarder_list=forwarders,
    )
    assert frame.priority_rank(1) == rank
    transmission = sender.transmit(frame, frame.airtime_ns(phy))
    own = Packet(src=1, dst=5, size_bytes=200, seq=0)
    sim.schedule(us(5), mac.enqueue, own, RouteDecision(final_dst=5))
    sim.run(until=transmission.end_time + us(1))
    assert mac.radio.idle_since >= transmission.end_time  # the frame has just ended
    sim.run(until=mac.radio.idle_since + DIFS + backoff_slots * SLOT)
    stats = mac.stats
    sent = {"timer": stats.relayed_data_frames + stats.ack_frames_sent, "grant": stats.data_frames_sent}
    assert sorted(sent.values()) == [0, 1]
    return max(sent, key=sent.get)


class TestTimerAndGrantTie:
    def test_relay_armed_at_the_idle_edge_goes_before_the_grant(self):
        assert _first_at_tie(ChannelAccess, 1) == "timer"

    def test_a_zero_backoff_is_granted_before_the_relay(self):
        assert _first_at_tie(ChannelAccess, 0) == "grant"

    @pytest.mark.parametrize("backoff_slots", [0, 1, 2, 5])
    def test_relay_tie_matches_the_reference(self, backoff_slots):
        assert _first_at_tie(ChannelAccess, backoff_slots) == _first_at_tie(
            SlotSteppingAccess, backoff_slots
        )

    def test_mcexor_ack_tie_matches_the_reference(self):
        # The rank-9 forwarder acknowledges 10 SIFS (160 us) after the frame,
        # which is DIFS plus 14 slots: it needs max_forwarders of 9 or more.
        for access_cls in (ChannelAccess, SlotSteppingAccess):
            assert _first_at_tie(access_cls, 14, mac_cls=McExorMac, rank=9) == "timer"
