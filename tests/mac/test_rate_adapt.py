"""ARF rate adaptation: controller state machine and wrapper composition."""

from __future__ import annotations

import pytest

from repro.experiments.runner import ScenarioConfig, run_scenario
from repro.mac.rate_adapt import ArfRateController, default_rate_ladder
from repro.phy.params import PhyParams
from repro.spec import MacSpec
from repro.topology.standard import line_topology


class _FakeAccess:
    def __init__(self):
        self.outcome_listener = None


class _FakeMac:
    """Just enough MAC surface for the controller: an access seam and a phy."""

    def __init__(self, phy=None):
        self.phy = phy or PhyParams()
        self.access = _FakeAccess()


class TestLadder:
    def test_default_ladder_tops_out_at_the_configured_rate(self):
        assert default_rate_ladder(216e6) == (27e6, 54e6, 108e6, 216e6)
        assert default_rate_ladder(6e6) == (0.75e6, 1.5e6, 3e6, 6e6)

    def test_controller_starts_on_the_configured_rate(self):
        mac = _FakeMac()
        controller = ArfRateController(mac)
        assert controller.current_rate_bps == 216e6
        assert mac.phy.data_rate_bps == 216e6

    def test_rejects_macs_without_a_channel_access_seam(self):
        class Bare:
            phy = PhyParams()

        with pytest.raises(ValueError, match="ChannelAccess"):
            ArfRateController(Bare())

    def test_rejects_unsorted_ladders(self):
        with pytest.raises(ValueError, match="ascending"):
            ArfRateController(_FakeMac(), rates=[54e6, 6e6])


class TestStateMachine:
    def make(self, **kwargs):
        mac = _FakeMac()
        controller = ArfRateController(
            mac, rates=[6e6, 12e6, 24e6, 54e6, 108e6, 216e6], **kwargs
        )
        return mac, controller

    def test_consecutive_failures_step_down(self):
        mac, controller = self.make(down_after=2)
        controller.record_outcome(False)
        assert controller.current_rate_bps == 216e6  # one failure is not a streak
        controller.record_outcome(False)
        assert controller.current_rate_bps == 108e6
        assert mac.phy.data_rate_bps == 108e6

    def test_success_resets_the_failure_streak(self):
        _, controller = self.make(down_after=2)
        controller.record_outcome(False)
        controller.record_outcome(True)
        controller.record_outcome(False)
        assert controller.current_rate_bps == 216e6

    def test_consecutive_successes_step_up_and_probe_failure_falls_back(self):
        mac, controller = self.make(up_after=3, down_after=2)
        for _ in range(4):
            controller.record_outcome(False)
        assert controller.current_rate_bps == 54e6
        for _ in range(3):
            controller.record_outcome(True)
        assert controller.current_rate_bps == 108e6  # stepped up
        controller.record_outcome(False)  # single failure at the probe rate
        assert controller.current_rate_bps == 54e6
        assert controller.steps_up == 1 and controller.steps_down >= 1
        assert mac.phy.data_rate_bps == 54e6

    def test_survived_probe_requires_full_streak_to_fall_back(self):
        _, controller = self.make(up_after=2, down_after=2)
        controller.record_outcome(True)
        controller.record_outcome(True)
        assert controller.current_rate_bps == 216e6  # already at the top: stay

    def test_rate_floor_and_ceiling(self):
        _, controller = self.make(up_after=1, down_after=1)
        for _ in range(20):
            controller.record_outcome(False)
        assert controller.current_rate_bps == 6e6
        for _ in range(40):
            controller.record_outcome(True)
        assert controller.current_rate_bps == 216e6

    def test_basic_rate_stays_at_the_profile_value(self):
        # Per-node capping of the control rate would break the ACK-airtime
        # contract between differently-adapted peers (the sender budgets its
        # ACK timeout from its own basic rate), so only the data rate moves.
        mac, controller = self.make(down_after=1)
        for _ in range(3):
            controller.record_outcome(False)
        assert mac.phy.data_rate_bps == 24e6
        assert mac.phy.basic_rate_bps == 54e6


class TestEndToEnd:
    BASE = dict(duration_s=0.05, seed=2)

    def run(self, mac_spec):
        return run_scenario(
            ScenarioConfig(topology=line_topology(3), mac=mac_spec, **self.BASE)
        )

    def test_wraps_dcf_by_default_and_runs(self):
        result = self.run(MacSpec("rate_adapt"))
        assert result.events_processed > 0
        assert result.flows

    def test_wraps_ripple_with_opportunistic_routing(self):
        result = self.run(MacSpec("rate_adapt", {"inner": "ripple"}))
        baseline = self.run(MacSpec("ripple"))
        # The wrapped scheme must get forwarder lists (it would deadlock at
        # zero throughput without them); adaptation may alter the numbers.
        assert result.flows[0].throughput_mbps > 0
        assert baseline.flows[0].throughput_mbps > 0

    def test_deterministic_and_serializable(self):
        spec = MacSpec("rate_adapt", {"inner": "ripple", "up_after": 3})
        first = self.run(spec)
        second = self.run(spec)
        assert first.to_dict() == second.to_dict()

    def test_cannot_wrap_itself(self):
        with pytest.raises(ValueError, match="cannot wrap itself"):
            self.run(MacSpec("rate_adapt", {"inner": "rate_adapt"}))

    def test_inner_scheme_param_typos_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            self.run(MacSpec("rate_adapt", {"inner": "ripple", "max_agregation": 8}))
