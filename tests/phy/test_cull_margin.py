"""The sweepable cull margin: PhyParams.max_deviation_sigmas end to end.

The channel's receiver cull excludes a radio only when its deterministic
path-loss power plus the *largest possible* fade still misses the
carrier-sense threshold; the largest fade is ``shadowing_deviation_db *
max_deviation_sigmas``.  Making the margin a PhyParams field (ROADMAP
dense-mesh note) lets a scenario trade a statistically tiny model
deviation (4σ ≈ a 3e-5 clip probability per draw) for a much tighter
cull radius — these tests pin the wiring from the config/spec layer down
to the per-sender candidate lists.
"""

import pytest

from repro.phy.params import PhyParams
from repro.topology.network import WirelessNetwork
from repro.topology.roofnet import roofnet_scenario


def _total_candidates(phy: PhyParams) -> int:
    """Sum of candidate-list lengths over every sender on the Roofnet layout."""
    spec = roofnet_scenario(seed=7)
    network = WirelessNetwork(phy=phy, seed=1)
    network.add_nodes(spec.positions)
    channel = network.channel
    return sum(
        len(channel.candidate_receivers(node.radio)) for node in network.nodes.values()
    )


class TestSweepableCullMargin:
    #: A carrier-sense threshold at which the Roofnet pair distances
    #: straddle the 4σ/6σ cull radii (the stock -145.5 dBm threshold puts
    #: even the 4σ radius beyond the layout's ~900 m diameter).
    CS_THRESHOLD_DBM = -110.0

    def test_4_sigma_culls_more_than_6_sigma_on_roofnet(self):
        base = dict(cs_threshold_dbm=self.CS_THRESHOLD_DBM, rx_threshold_dbm=-105.0)
        six = _total_candidates(PhyParams(max_deviation_sigmas=6.0, **base))
        four = _total_candidates(PhyParams(max_deviation_sigmas=4.0, **base))
        n = len(roofnet_scenario(seed=7).positions)
        assert four < six <= n * (n - 1)
        assert four > 0

    def test_margin_flows_from_phy_into_propagation(self):
        network = WirelessNetwork(phy=PhyParams(max_deviation_sigmas=4.0))
        assert network.propagation.max_deviation_sigmas == 4.0
        # and the cull bound follows the margin: 8 dB deviation * 4 sigmas
        assert network.propagation.max_shadowing_db() == pytest.approx(32.0)

    def test_default_margin_unchanged(self):
        """The default stays at 6σ, keeping pre-existing runs bit-identical."""
        assert PhyParams().max_deviation_sigmas == 6.0
        assert WirelessNetwork().propagation.max_deviation_sigmas == 6.0

    def test_margin_round_trips_through_serialization(self):
        phy = PhyParams(max_deviation_sigmas=4.0)
        data = phy.to_dict()
        assert data["max_deviation_sigmas"] == 4.0
        assert PhyParams.from_dict(data) == phy

    def test_margin_addressable_from_the_spec_layer(self):
        from repro.spec import ScenarioConfig

        four = ScenarioConfig.from_dict(
            {"topology": {"name": "roofnet"}, "phy": {"max_deviation_sigmas": 4.0}}
        )
        assert four.phy.max_deviation_sigmas == 4.0
        # Different margins must hash to different sweep-cache digests.
        from repro.experiments.parallel import config_digest

        six = ScenarioConfig.from_dict({"topology": {"name": "roofnet"}})
        assert config_digest(four) != config_digest(six)
