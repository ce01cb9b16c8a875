"""RIPPLE against its closed form: one mTXOP after another on a clean line.

Six stations 180 m apart, shadowing off, BER 0: each station decodes only
its neighbours and senses two hops away, so the one saturated source's
mTXOPs over the five hops never collide and never lose a frame.  By the
timing rules in :mod:`repro.core.ripple`'s module notes, an mTXOP over
``h`` hops, with ``h - 1`` forwarders ranked ``r = 1`` (nearest the
destination) to ``h - 1``, costs

    DIFS + (CW_min - 1)/2 * slot + T_data         the source wins the channel
    + sum over r of (SIFS + r * slot + T_data)    each forwarder relays the data
    + SIFS + T_ack                                the destination acknowledges
    + sum over r of (SIFS + (r - 1) * slot + T_ack)   each forwarder relays the ACK
    + 2 * h * d                                   each frame reaches the next hop d later

and delivers ``A`` datagrams of ``L`` bytes: ``A`` = 1 under R1 and 16
under R16, whose source always has 16 queued.  The airtimes come from
:class:`~repro.mac.timing.MacTiming`, with the ``h - 1`` forwarder-list
entries in every header, and ``d`` is the propagation delay over 180 m
(600 ns).  Without the ``2 * h * d`` term the simulator sits 0.3-0.7%
below the formula.

Tolerance.  Over seeds 1-10 at 1 s the simulator delivered 0.9998-1.0031
(R1) and 0.9971-1.0007 (R16) of the formula's 9.674 and 35.183 Mb/s.  R1's
spread is the backoff draws' (a uniform draw over 16 slots has a standard
deviation of 41.5 us, so ~1,200 mTXOPs a second put one second's total at
about 0.14% of its mean); R16's is one mTXOP more or less in the second,
0.36% of its throughput.  The test allows 0.75%, over twice the widest
deviation seen.  Data relays deferring ``(rank - 1)`` slots instead of
``rank`` slots shorten every mTXOP by ``h - 1`` slots, moving R1 by about
4.4% and R16 by about 1%, and fail it.
"""

import pytest

from repro.experiments.runner import ScenarioConfig, run_scenario
from repro.mac.timing import DEFAULT_TIMING
from repro.phy.params import PhyParams
from repro.phy.propagation import propagation_delay_ns
from repro.topology.spec import FlowSpec, TopologySpec

DATAGRAM_BYTES = 1000  # the udp-saturating source's datagram size
HOPS = 5
SPACING_M = 180.0
PHY = PhyParams(propagation_params={"shadowing_deviation_db": 0.0})
AGGREGATION = {"R1": 1, "R16": 16}


def closed_form_mbps(aggregation, hops=HOPS):
    timing = DEFAULT_TIMING
    forwarders = hops - 1
    data = timing.data_frame_airtime_ns(PHY, [DATAGRAM_BYTES] * aggregation, forwarders)
    ack = timing.ack_airtime_ns(PHY, forwarders)
    ranks = range(1, hops)
    cycle_ns = timing.difs_ns + (timing.cw_min - 1) / 2 * timing.slot_ns + data
    cycle_ns += sum(timing.sifs_ns + rank * timing.slot_ns + data for rank in ranks)
    cycle_ns += timing.sifs_ns + ack
    cycle_ns += sum(timing.sifs_ns + (rank - 1) * timing.slot_ns + ack for rank in ranks)
    cycle_ns += 2 * hops * propagation_delay_ns(SPACING_M)
    return aggregation * DATAGRAM_BYTES * 8 / cycle_ns * 1e3


LINE = TopologySpec(
    name=f"line-{HOPS}-hops-{SPACING_M:.0f}m",
    positions={node: (SPACING_M * node, 0.0) for node in range(HOPS + 1)},
    flows=[FlowSpec(0, 0, HOPS, kind="udp-saturating")],
    route_sets={"ROUTE0": {(0, HOPS): list(range(HOPS + 1))}},
)


def test_closed_form_values():
    assert propagation_delay_ns(SPACING_M) == 600
    assert closed_form_mbps(AGGREGATION["R1"]) == pytest.approx(9.6737, abs=5e-5)
    assert closed_form_mbps(AGGREGATION["R16"]) == pytest.approx(35.1832, abs=5e-5)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("scheme", sorted(AGGREGATION))
def test_back_to_back_mtxops_deliver_the_closed_form(scheme, seed):
    result = run_scenario(ScenarioConfig(
        topology=LINE, scheme_label=scheme, route_set="ROUTE0", phy=PHY,
        bit_error_rate=0.0, duration_s=1.0, seed=seed,
    ))
    # ScenarioResult.total_throughput_mbps counts only TCP flows.
    (flow,) = result.flows
    assert flow.kind == "udp"
    assert flow.throughput_mbps == pytest.approx(closed_form_mbps(AGGREGATION[scheme]), rel=0.0075)
