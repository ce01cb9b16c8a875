"""The timing table against the timings it looks up.

:mod:`repro.mac.timetable` memoises frame airtimes, DCF's ACK timeout,
the plain-ACK airtime preExOR and MCExOR slot by, and RIPPLE's mTXOP
timeout process-wide.  Every lookup must equal its reference,
:meth:`MacFrame.airtime_ns`, :meth:`MacTiming.ack_timeout_ns`,
:meth:`MacTiming.ack_airtime_ns` and :meth:`RippleMac.mtxop_timeout_ns`,
for every PHY a MAC can hold: both
profiles and every rung of rate adaptation's default ladder, looked up in
an interleaved order so an entry keyed by too little would be served to
the wrong rate.
"""

from types import SimpleNamespace

import pytest

from repro.core.ripple import RippleMac
from repro.experiments.runner import ScenarioConfig, run_scenario
from repro.mac.frames import SubPacket, build_ack_frame, build_data_frame
from repro.mac.rate_adapt import default_rate_ladder
from repro.mac.timetable import (
    ack_airtime_ns,
    ack_timeout_ns,
    frame_airtime_ns,
    mtxop_timeout_ns,
)
from repro.mac.timing import DEFAULT_TIMING, MacTiming
from repro.packet import Packet
from repro.phy.params import HIGH_RATE_PHY, LOW_RATE_PHY
from repro.phy.radio import Radio
from repro.sim.units import us
from repro.spec import MacSpec
from repro.topology.standard import line_topology

#: Every PHY a MAC can hold: each profile at each rung of its default ladder.
PHYS = [
    profile.with_rates(rate, profile.basic_rate_bps)
    for profile in (HIGH_RATE_PHY, LOW_RATE_PHY)
    for rate in default_rate_ladder(profile.data_rate_bps)
]

TIMINGS = [DEFAULT_TIMING, MacTiming(sifs_ns=us(10), slot_ns=us(20))]

#: Payload sizes (bytes) of the sub-packets a data frame carries.
LAYOUTS = [[], [0], [1], [40], [200], [1000], [1460], [1500] * 4, [1000, 40, 1460] * 5 + [7]]


def data_frame(timing, sizes, forwarders):
    subpackets = [
        SubPacket(Packet(src=0, dst=9, size_bytes=size, seq=i), i, timing.subpacket_bits(size))
        for i, size in enumerate(sizes)
    ]
    return build_data_frame(
        timing, origin=0, final_dst=9, transmitter=0, receiver=None,
        subpackets=subpackets, forwarder_list=tuple(range(1, forwarders + 1)),
    )


def ack_frame(timing, forwarders):
    return build_ack_frame(
        timing, origin=9, final_dst=0, transmitter=9, receiver=None, acked_seqs=(0, 1),
        ack_for_frame=1, forwarder_list=tuple(range(1, forwarders + 1)),
    )


def test_frame_airtimes_equal_the_frames_own():
    frames = [
        data_frame(timing, sizes, forwarders)
        for timing in TIMINGS
        for sizes in LAYOUTS
        for forwarders in range(6)
    ] + [ack_frame(timing, forwarders) for timing in TIMINGS for forwarders in range(6)]
    for _ in range(2):  # the second pass is served from the table
        for frame in frames:
            for phy in PHYS:
                assert frame_airtime_ns(frame, phy) == frame.airtime_ns(phy), (frame, phy)


def test_ack_timeouts_equal_the_timings_own():
    for _ in range(2):
        for timing in TIMINGS:
            for phy in PHYS + [HIGH_RATE_PHY.with_rates(216e6, 6e6)]:
                assert ack_timeout_ns(timing, phy) == timing.ack_timeout_ns(phy)


def test_ack_airtimes_equal_the_timings_own():
    for _ in range(2):
        for timing in TIMINGS:
            for phy in PHYS + [HIGH_RATE_PHY.with_rates(216e6, 6e6)]:
                assert ack_airtime_ns(phy) == timing.ack_airtime_ns(phy), phy


def test_mtxop_timeouts_equal_ripples_own():
    for _ in range(2):
        for timing in TIMINGS:
            for sizes in LAYOUTS:
                for forwarders in range(6):
                    frame = data_frame(timing, sizes, forwarders)
                    for phy in PHYS:
                        mac = SimpleNamespace(timing=timing, phy=phy)
                        assert mtxop_timeout_ns(timing, phy, frame) == RippleMac.mtxop_timeout_ns(
                            mac, frame
                        )


@pytest.mark.parametrize("inner", ["dcf", "ripple"])
def test_every_frame_of_a_rate_adapting_run_lasts_its_airtime_at_the_rate_held(monkeypatch, inner):
    sent = []
    transmit = Radio.transmit

    def recording(radio, frame, duration_ns):
        sent.append((duration_ns, frame.airtime_ns(radio.mac.phy), radio.mac.phy.data_rate_bps))
        return transmit(radio, frame, duration_ns)

    monkeypatch.setattr(Radio, "transmit", recording)
    run_scenario(
        ScenarioConfig(
            topology=line_topology(3), mac=MacSpec("rate_adapt", {"inner": inner, "up_after": 3}),
            duration_s=0.3, seed=2,
        )
    )
    assert len({rate for _, _, rate in sent}) > 1  # the rate stepped
    assert all(duration == airtime for duration, airtime, _ in sent)
