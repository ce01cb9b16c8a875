"""Per-plan fade blocks against the per-link buffers they replaced.

A sender's dispatch plan fills one raw-draw column per candidate link and
turns 16 rows of every column into fades at once.  The reference here is
the design before it: each link draws ``fade_batch_db(generator, 64)`` into
a buffer of its own, every plan refill takes the next 16 fades of each of
its links, and a plan dropped when stations move loses the rest of those
16 rows.  Twin :class:`RandomStreams` with the same seed feed the two, so
every block the plan transforms must equal the reference's block exactly,
through refills, invalidations at every row of a block, links that leave
the candidate set and rejoin it, and carries of different lengths.
"""

import dataclasses

import numpy as np
import pytest

from repro.phy.channel import WirelessChannel
from repro.phy.params import PhyParams
from repro.phy.propagation import RayleighFading, RicianFading, ShadowingPropagation
from repro.phy.radio import Radio
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams

MODELS = {
    "shadowing": ShadowingPropagation(),
    "rayleigh": RayleighFading(),
    "rician": RicianFading(k_factor=4.0),
}

#: Far beyond every model's cull margin: a radio here is in no plan.
FAR = (1.0e6, 0.0)


class CountingGenerator:
    """A generator that counts the raw draws a fill asks of it."""

    def __init__(self, generator):
        self.generator = generator
        self.drawn = 0

    def standard_normal(self, *, out):
        self.drawn += len(out)
        return self.generator.standard_normal(out=out)

    def standard_exponential(self, *, out):
        self.drawn += len(out)
        return self.generator.standard_exponential(out=out)


class CountingStreams(RandomStreams):
    """Keyed ``shadowing`` streams wrapped in :class:`CountingGenerator`."""

    def __init__(self, seed):
        super().__init__(seed)
        self.counted = {}

    def stream_for(self, name, *keys):
        generator = super().stream_for(name, *keys)
        if name != "shadowing":
            return generator
        if keys not in self.counted:
            self.counted[keys] = CountingGenerator(generator)
        return self.counted[keys]


class Reference:
    """The per-link buffers: 64 fades per draw, 16 per refill, a dropped plan's rows lost."""

    def __init__(self, model, seed):
        self.model = model
        self.streams = RandomStreams(seed)
        self.buffers = {}  # link -> [fades, index]
        self.rows_left = {}  # sender -> rows left in its plan's current block
        self.blocks = []

    def take(self, key):
        buffer = self.buffers.setdefault(key, [np.empty(0), 0])
        if buffer[1] >= len(buffer[0]):
            generator = self.streams.stream_for("shadowing", *key)
            buffer[:] = [self.model.fade_batch_db(generator, 64), 0]
        buffer[1] += 16
        return buffer[0][buffer[1] - 16 : buffer[1]]

    def transmit(self, sender, receivers):
        if not self.rows_left.get(sender):
            self.blocks.append(np.column_stack([self.take((sender, r)) for r in receivers]))
            self.rows_left[sender] = 16
        self.rows_left[sender] -= 1

    def invalidate(self):
        self.rows_left.clear()


class Rig:
    """A channel whose plans' fade blocks and sensing codes are recorded, beside a :class:`Reference`."""

    def __init__(self, model, positions, params=PhyParams(), seed=3):
        self.reference = Reference(model, seed)
        model = dataclasses.replace(model)  # the recording below must not touch the reference
        transform = model.fades_from_raw
        self.blocks = []

        def recording(raw):
            fades = transform(raw)
            self.blocks.append(fades.copy())
            return fades

        object.__setattr__(model, "fades_from_raw", recording)
        self.streams = CountingStreams(seed)
        self.channel = WirelessChannel(Simulator(), params, propagation=model, rng=self.streams)
        self.radios = [Radio(i, position, self.channel) for i, position in enumerate(positions)]
        self.served = []  # (power row, code row) per transmission

    def transmit(self, frames, sender=0):
        channel, radio = self.channel, self.radios[sender]
        for _ in range(frames):
            receivers = [other.node_id for other in channel.candidate_receivers(radio)]
            channel.start_transmission(radio, None, 100)
            self.reference.transmit(sender, receivers)
            plan = channel._plans[sender]
            block = self.reference.blocks[-1]
            powers = [float(fade) + mean for fade, mean in zip(block[plan.row_index - 1], plan.means)]
            self.served.append((powers, plan.rows[plan.row_index - 1]))

    def move(self, node, position):
        self.radios[node].move_to(position)
        self.reference.invalidate()

    def draws(self, receiver, sender=0):
        """Raw draws made so far from the link ``sender`` -> ``receiver``'s generator."""
        return self.streams.counted[(sender, receiver)].drawn

    def assert_blocks_match(self):
        assert len(self.blocks) == len(self.reference.blocks) > 0
        for ours, theirs in zip(self.blocks, self.reference.blocks):
            assert ours.shape == theirs.shape
            assert np.array_equal(ours, theirs)


def _line(*xs):
    return [(0.0, 0.0)] + [(float(x), 0.0) for x in xs]


@pytest.mark.parametrize("name", sorted(MODELS))
def test_blocks_match_per_link_buffers_over_several_refills(name):
    rig = Rig(MODELS[name], _line(60, 140, 230, 90))
    rig.transmit(16 * 9 + 5)
    assert len(rig.blocks) == 10  # two and a half fills of 64
    rig.assert_blocks_match()
    assert rig.draws(1) == 3 * 64 * MODELS[name].raw_per_fade


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("offset", range(17))
def test_an_invalidation_at_any_row_of_a_block_loses_only_the_rest_of_that_block(name, offset):
    rig = Rig(MODELS[name], _line(60, 140, 230))
    rig.transmit(16 * 5 + offset)
    rig.move(3, (231.0, 0.0))
    rig.transmit(16 + offset)
    rig.move(2, (141.0, 0.0))
    rig.transmit(100)
    rig.assert_blocks_match()


@pytest.mark.parametrize("name", sorted(MODELS))
def test_a_link_that_leaves_the_candidate_set_keeps_its_draws_until_it_rejoins(name):
    rig = Rig(MODELS[name], _line(60, 140, 230))
    rig.transmit(20)
    rig.move(2, FAR)
    rig.transmit(40)
    assert rig.radios[2] not in rig.channel.candidate_receivers(rig.radios[0])
    rig.move(2, (140.0, 0.0))
    rig.transmit(90)
    rig.assert_blocks_match()


@pytest.mark.parametrize("name", sorted(MODELS))
def test_a_rebuilt_plan_tops_columns_up_only_to_the_longest_carry(name):
    per_fade = MODELS[name].raw_per_fade
    rig = Rig(MODELS[name], [(0.0, 0.0), (60.0, 0.0), FAR, FAR])
    rig.transmit(16)  # link 0->1 draws 64 fades and serves 16
    rig.move(1, FAR)  # ... and carries 48
    rig.move(2, (140.0, 0.0))
    rig.transmit(48)  # link 0->2 draws 64 fades and serves 48
    rig.move(1, (60.0, 0.0))  # link 0->2 carries 16
    rig.move(3, (230.0, 0.0))  # link 0->3 is new: it carries nothing
    rig.transmit(1)
    # The first fill copies both carries and draws only up to the longest, 48.
    assert [rig.draws(node) for node in (1, 2, 3)] == [
        64 * per_fade, (64 + 32) * per_fade, 48 * per_fade
    ]
    rig.transmit(47)
    assert [rig.draws(node) for node in (1, 2, 3)] == [
        64 * per_fade, (64 + 32) * per_fade, 48 * per_fade
    ]
    rig.transmit(1)  # the carried rows are spent: every column draws a whole batch
    assert [rig.draws(node) for node in (1, 2, 3)] == [
        128 * per_fade, (128 + 32) * per_fade, 112 * per_fade
    ]
    rig.transmit(100)
    rig.assert_blocks_match()


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("offset", [0, 5, 16, 47, 64])
def test_a_plan_rebuilt_over_the_same_links_takes_the_old_draws_whole(name, offset):
    per_fade = MODELS[name].raw_per_fade
    rig = Rig(MODELS[name], _line(60, 140, 230))
    rig.transmit(16 + offset)
    old = rig.channel._plans[0]
    rig.move(3, (231.0, 0.0))  # the same candidates, in the same delay order
    rig.move(2, (141.0, 0.0))  # a second move before the sender's next frame
    rig.transmit(1)
    plan = rig.channel._plans[0]
    assert plan is not old and plan.links == old.links
    assert plan._raw is old._raw  # adopted, not copied through the links' carries
    assert all(link.carry is None for link in plan.links)
    drawn = 64 if 16 + offset < 48 else 128
    assert [rig.draws(node) for node in (1, 2, 3)] == [drawn * per_fade] * 3
    rig.transmit(100)
    rig.assert_blocks_match()


def test_release_drops_kept_plans_without_handing_draws_back():
    rig = Rig(MODELS["shadowing"], _line(60, 140))
    rig.transmit(16)
    links = rig.channel._plans[0].links
    rig.move(2, (141.0, 0.0))  # the plan is kept for the sender's next frame
    rig.channel.release()
    assert not rig.channel._plans and not rig.channel._dropped
    assert [link.carry for link in links] == [None, None]


def test_release_drops_plans_without_handing_draws_back():
    rig = Rig(MODELS["shadowing"], _line(60, 140))
    rig.transmit(16)  # 48 rows beyond the current block: a hand-back would carry them
    links = rig.channel._plans[0].links
    rig.channel.release()
    assert not rig.channel._plans and not rig.channel._link_fades
    assert [link.carry for link in links] == [None, None]


@pytest.mark.parametrize(
    "params",
    [PhyParams(), PhyParams(rx_threshold_dbm=-150.0, cs_threshold_dbm=-140.0)],
    ids=["rx above cs", "rx below cs"],
)
@pytest.mark.parametrize("name", sorted(MODELS))
def test_codes_classify_each_power_as_the_per_receiver_compares_did(name, params):
    # Distances spread across both thresholds, so every code occurs.
    rig = Rig(MODELS[name], _line(150, 200, 230, 260, 300, 380, 450), params=params)
    rig.transmit(160)
    codes = set()
    for powers, row in rig.served:
        expected = [
            0 if power < params.cs_threshold_dbm else 2 if power >= params.rx_threshold_dbm else 1
            for power in powers
        ]
        assert row == expected
        codes.update(row)
    assert codes == ({0, 1, 2} if params.rx_threshold_dbm > params.cs_threshold_dbm else {0, 2})
