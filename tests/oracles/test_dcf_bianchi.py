"""DCF with n saturated stations against Bianchi's model.

``n`` stations 15 m from one receiver each keep a frame of one 1000-byte
datagram queued for it; BER 0, so every loss is a collision.  Bianchi's
model (G. Bianchi, "Performance analysis of the IEEE 802.11 distributed
coordination function", IEEE JSAC 18(3), 2000) gives the probability
``tau`` that a station transmits in a slot.  With the retry limit of 7,
a frame gets 8 attempts, the ``i``-th drawing its backoff from a window
of ``W_i = min(16 * 2**i, 1024)`` slots, so with conditional collision
probability ``p``

    tau = sum_i p**i / sum_i p**i * (W_i + 1) / 2,   p = 1 - (1 - tau)**(n - 1)

solved as a fixed point.  A slot is idle (``slot``), a success
(``T_s = DIFS + T_data + SIFS + T_ack``) or a collision
(``T_c = DIFS + T_data``), and the stations deliver the payload of the
successful share of those slots.  At ``n = 1`` this is the closed form of
``test_dcf_closed_form.py``, 40.130 Mb/s.

Tolerance.  Over seeds 1-10 at 1 s the simulator delivered 0.948-0.964
(n = 2), 0.950-0.962 (n = 3), 0.948-0.968 (n = 5) and 0.951-0.970
(n = 10) of the model's 45.509, 46.819, 46.972 and 45.683 Mb/s.  The
offset does not trend with ``n``, so one band, [0.94, 0.98], holds every
``n``.  Counting the ACK timeout in ``T_c`` instead gives 0.966-0.982 at
n = 2 and 1.041-1.062 at n = 10: that trend comes from how the collision
time is counted.  A contention window that does not double on failure
delivers 0.80-0.81 of the model at n = 10 (seeds 1-3), and fails the
band.

The offset.  Bianchi's chain counts a busy period as one slot of a
deferring station's backoff.  In this simulator a deferring station's
counter is frozen through the busy period and, after DIFS, drops one per
idle slot.  So each busy period costs the waiting stations a slot the
model does not charge.  A simulator that took one slot off a frozen
counter whenever it resumed delivered 0.999, 0.994, 0.989 and 0.981 of
the model at n = 2, 3, 5 and 10 (means over seeds 1-5).
"""

import math

import pytest

from repro.experiments.runner import ScenarioConfig, run_scenario
from repro.mac.timing import DEFAULT_TIMING
from repro.phy.params import PhyParams
from repro.topology.spec import FlowSpec, TopologySpec

DATAGRAM_BYTES = 1000  # the udp-saturating source's datagram size

#: Simulated over model throughput, for every station count.
BAND = (0.94, 0.98)


def bianchi_mbps(n):
    timing, phy = DEFAULT_TIMING, PhyParams()
    windows = [
        min(timing.cw_min * 2**stage, timing.cw_max) for stage in range(timing.retry_limit + 1)
    ]

    def tau_given(p):
        attempts = sum(p**stage for stage in range(len(windows)))
        slots = sum(p**stage * (window + 1) / 2 for stage, window in enumerate(windows))
        return attempts / slots

    # 1 - (1 - tau(p))**(n - 1) - p falls from p = 0 to p = 1: bisect its root.
    low, high = 0.0, 1.0
    for _ in range(100):
        p = (low + high) / 2
        if 1 - (1 - tau_given(p)) ** (n - 1) > p:
            low = p
        else:
            high = p
    tau = tau_given(p)
    busy = 1 - (1 - tau) ** n
    success = n * tau * (1 - tau) ** (n - 1)
    t_data = timing.data_frame_airtime_ns(phy, [DATAGRAM_BYTES])
    t_success = timing.difs_ns + t_data + timing.sifs_ns + timing.ack_airtime_ns(phy)
    t_collision = timing.difs_ns + t_data
    slot_ns = (
        (1 - busy) * timing.slot_ns + success * t_success + (busy - success) * t_collision
    )
    return success * DATAGRAM_BYTES * 8 / slot_ns * 1e3


def star(n):
    """``n`` senders evenly spaced on a 15-m circle around receiver 0."""
    positions = {0: (0.0, 0.0)}
    for station in range(1, n + 1):
        angle = 2 * math.pi * (station - 1) / n
        positions[station] = (15.0 * math.cos(angle), 15.0 * math.sin(angle))
    return TopologySpec(
        name=f"star-{n}",
        positions=positions,
        flows=[FlowSpec(station, station, 0, kind="udp-saturating") for station in range(1, n + 1)],
        route_sets={"ROUTE0": {(station, 0): [station, 0] for station in range(1, n + 1)}},
    )


def test_model_values():
    assert bianchi_mbps(1) == pytest.approx(40.130, abs=5e-4)
    assert [round(bianchi_mbps(n), 3) for n in (2, 3, 5, 10)] == [
        45.509, 46.819, 46.972, 45.683
    ]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 3, 5, 10])
def test_saturated_stations_deliver_the_model(n, seed):
    result = run_scenario(ScenarioConfig(
        topology=star(n), scheme_label="D", route_set="ROUTE0",
        bit_error_rate=0.0, duration_s=1.0, seed=seed,
    ))
    # ScenarioResult.total_throughput_mbps counts only TCP flows.
    assert len(result.flows) == n
    delivered = sum(flow.throughput_mbps for flow in result.flows)
    low, high = BAND
    assert low <= delivered / bianchi_mbps(n) <= high
