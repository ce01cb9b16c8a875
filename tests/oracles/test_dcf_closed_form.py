"""DCF and AFR against their closed form: one saturated station on a clean link.

A station that always has a frame queued and never collides or loses one
repeats the same cycle: DIFS, a fresh backoff of ``(CW_min - 1)/2`` slots
on average, the data frame, SIFS and the ACK.  Each frame carries ``A``
datagrams of ``L`` bits: one under DCF, and under AFR the 16 it
aggregates, since the saturating source always has that many queued.  So
the station delivers

    A * L / (DIFS + (CW_min - 1)/2 * slot + T_data(A) + SIFS + T_ack)

where the airtimes come from :class:`~repro.mac.timing.MacTiming`, with a
sub-header and CRC per datagram in ``T_data(A)`` (the 802.11 cycle of
Bianchi's model with one station: G. Bianchi, "Performance analysis of
the IEEE 802.11 distributed coordination function", IEEE JSAC 18(3),
2000).

Tolerance.  Over seeds 1-10 at 1 s the simulator delivered 0.9974-1.0027
of DCF's 40.130 Mb/s and 0.9992-1.0030 of AFR's 168.073 Mb/s.  The spread
is the backoff draws': a uniform draw over 16 slots has a standard
deviation of 41.5 us, so ~5,000 DCF frames a second put one second's
total at about 0.29% of its mean, and ~1,300 AFR frames at about 0.15%
(one AFR frame more or less moves it 0.08%).  The test allows 1% for DCF
and 0.75% for AFR, over three of those deviations.  A DIFS one slot
longer moves DCF by about 4.5% and AFR by about 1.2%, and fails both; an
AFR cap of 15 datagrams delivers 0.985 of the formula, and fails it.
"""

import pytest

from repro.experiments.runner import ScenarioConfig, run_scenario
from repro.mac.timing import DEFAULT_TIMING
from repro.phy.params import PhyParams
from repro.topology.spec import FlowSpec, TopologySpec

DATAGRAM_BYTES = 1000  # the udp-saturating source's datagram size


#: Per paper label: datagrams per frame, and the tolerance.
SCHEMES = {"D": (1, 0.01), "A": (16, 0.0075)}


def closed_form_mbps(aggregation):
    timing, phy = DEFAULT_TIMING, PhyParams()
    cycle_ns = (
        timing.difs_ns
        + (timing.cw_min - 1) / 2 * timing.slot_ns
        + timing.data_frame_airtime_ns(phy, [DATAGRAM_BYTES] * aggregation)
        + timing.sifs_ns
        + timing.ack_airtime_ns(phy)
    )
    return aggregation * DATAGRAM_BYTES * 8 / cycle_ns * 1e3


PAIR = TopologySpec(
    name="pair-20m",
    positions={0: (0.0, 0.0), 1: (20.0, 0.0)},
    flows=[FlowSpec(0, 0, 1, kind="udp-saturating")],
    route_sets={"ROUTE0": {(0, 1): [0, 1]}},
)


def test_closed_form_value():
    assert closed_form_mbps(SCHEMES["D"][0]) == pytest.approx(40.130, abs=5e-4)
    assert closed_form_mbps(SCHEMES["A"][0]) == pytest.approx(168.073, abs=5e-4)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_one_saturated_station_delivers_the_closed_form(scheme, seed):
    aggregation, tolerance = SCHEMES[scheme]
    result = run_scenario(ScenarioConfig(
        topology=PAIR, scheme_label=scheme, route_set="ROUTE0",
        bit_error_rate=0.0, duration_s=1.0, seed=seed,
    ))
    # ScenarioResult.total_throughput_mbps counts only TCP flows.
    (flow,) = result.flows
    assert flow.kind == "udp"
    assert flow.throughput_mbps == pytest.approx(closed_form_mbps(aggregation), rel=tolerance)
