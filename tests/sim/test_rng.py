"""Named random streams: determinism and independence."""

import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from repro.sim.rng import _ZERO_COUNTER, RandomStreams, UniformStream, _philox_generator


class TestRandomStreams:
    def test_same_seed_same_stream(self):
        a = RandomStreams(seed=42).stream("backoff")
        b = RandomStreams(seed=42).stream("backoff")
        assert list(a.integers(0, 100, 10)) == list(b.integers(0, 100, 10))

    def test_different_seeds_differ(self):
        a = RandomStreams(seed=1).stream("backoff")
        b = RandomStreams(seed=2).stream("backoff")
        assert list(a.integers(0, 10**9, 8)) != list(b.integers(0, 10**9, 8))

    def test_named_streams_are_independent_of_request_order(self):
        first = RandomStreams(seed=7)
        x1 = first.stream("alpha").random()
        second = RandomStreams(seed=7)
        second.stream("beta")  # request another stream first
        x2 = second.stream("alpha").random()
        assert x1 == x2

    def test_different_names_give_different_sequences(self):
        streams = RandomStreams(seed=3)
        a = streams.stream("shadowing").random(5)
        b = streams.stream("biterror").random(5)
        assert list(a) != list(b)

    def test_stream_is_cached(self):
        streams = RandomStreams(seed=3)
        assert streams.stream("x") is streams.stream("x")

    def test_fork_changes_seed(self):
        base = RandomStreams(seed=10)
        fork = base.fork(5)
        assert fork.seed == 15
        assert base.stream("a").random() != fork.stream("a").random()


class TestKeyedStreams:
    """stream_for: per-key substreams independent of everything but (seed, name, keys)."""

    def test_same_seed_same_keys_same_draws(self):
        a = RandomStreams(seed=11).stream_for("shadowing", 3, 7)
        b = RandomStreams(seed=11).stream_for("shadowing", 3, 7)
        assert list(a.random(10)) == list(b.random(10))

    def test_different_keys_are_independent(self):
        streams = RandomStreams(seed=11)
        ab = streams.stream_for("shadowing", 0, 1).random(8)
        ba = streams.stream_for("shadowing", 1, 0).random(8)
        other = streams.stream_for("shadowing", 0, 2).random(8)
        assert list(ab) != list(ba)
        assert list(ab) != list(other)

    def test_draws_do_not_depend_on_which_other_links_draw(self):
        # The culling guarantee: skipping some links entirely must not move
        # any other link's sample path.
        full = RandomStreams(seed=5)
        for sender in range(4):
            for receiver in range(4):
                if sender != receiver:
                    full.stream_for("shadowing", sender, receiver).random(3)
        probe_full = full.stream_for("shadowing", 2, 3).random(5)

        culled = RandomStreams(seed=5)
        probe_culled = culled.stream_for("shadowing", 2, 3)
        probe_culled.random(3)  # only this link ever draws
        assert list(probe_culled.random(5)) == list(probe_full)

    def test_forget_drops_one_name_and_its_streams_restart(self):
        streams = RandomStreams(seed=11)
        link = streams.stream_for("biterror", 0, 1)
        first = link.random(3).tolist()
        backoff = streams.stream_for("backoff", 0)
        backoff.random(3)
        streams.forget("biterror")
        restarted = streams.stream_for("biterror", 0, 1)
        assert restarted is not link
        assert restarted.random(3).tolist() == first
        # Other names keep their generators and their place.
        assert streams.stream_for("backoff", 0) is backoff

    def test_keyed_stream_is_cached_and_stateful(self):
        streams = RandomStreams(seed=2)
        first = streams.stream_for("biterror", 1, 2)
        assert streams.stream_for("biterror", 1, 2) is first
        x = first.random()
        # A fresh registry reproduces the concatenated sample path.
        replay = RandomStreams(seed=2).stream_for("biterror", 1, 2)
        assert replay.random() == x

    def test_no_keys_is_the_plain_named_stream(self):
        streams = RandomStreams(seed=9)
        assert streams.stream_for("mobility") is streams.stream("mobility")

    def test_keyed_and_named_streams_do_not_collide(self):
        streams = RandomStreams(seed=4)
        named = streams.stream("mac").random(6)
        keyed = RandomStreams(seed=4).stream_for("mac", 0).random(6)
        assert list(named) != list(keyed)

    def test_keys_are_order_sensitive(self):
        streams = RandomStreams(seed=8)
        assert list(streams.stream_for("s", 1, 2).random(4)) != list(
            streams.stream_for("s", 2, 1).random(4)
        )


class TestPhiloxBatching:
    """Counter-based streams: batching is a pure optimisation, never a reseed.

    The channel batches fade draws (``standard_normal(n)``) and bit-error
    draws (``random(n)``) per sender; these tests pin the numpy contract
    the batching relies on — a vectorised draw consumes the Philox counter
    stream exactly like n scalar draws — plus the keying properties that
    make per-link batches independent of each other.
    """

    def test_streams_are_counter_based_philox(self):
        stream = RandomStreams(seed=1).stream("shadowing")
        assert type(stream.bit_generator).__name__ == "Philox"

    def test_standard_normal_batch_equals_scalar_draws(self):
        batched = RandomStreams(seed=6).stream_for("fading", 1, 2)
        scalar = RandomStreams(seed=6).stream_for("fading", 1, 2)
        assert list(batched.standard_normal(16)) == [
            scalar.standard_normal() for _ in range(16)
        ]

    def test_uniform_batch_equals_scalar_draws(self):
        batched = RandomStreams(seed=6).stream_for("biterror", 1, 2)
        scalar = RandomStreams(seed=6).stream_for("biterror", 1, 2)
        assert list(batched.random(16)) == [scalar.random() for _ in range(16)]

    def test_batch_boundaries_do_not_move_the_sample_path(self):
        # Splitting one batch into several must reproduce the same sequence:
        # the dispatch plan's refill size is a tuning knob, not a semantic.
        one = RandomStreams(seed=9).stream_for("fading", 0, 3)
        split = RandomStreams(seed=9).stream_for("fading", 0, 3)
        whole = list(one.standard_normal(24))
        parts = list(split.standard_normal(5)) + list(split.standard_normal(19))
        assert whole == parts

    def test_keyed_streams_independent_of_registration_order(self):
        forward = RandomStreams(seed=4)
        for key in range(6):
            forward.stream_for("fading", key)
        backward = RandomStreams(seed=4)
        for key in reversed(range(6)):
            backward.stream_for("fading", key)
        for key in range(6):
            assert list(forward.stream_for("fading", key).random(4)) == list(
                backward.stream_for("fading", key).random(4)
            )

    def test_name_and_keys_cannot_collide_by_concatenation(self):
        # The key material length-prefixes the stream name, so a name that
        # swallows part of the key list maps to a different Philox key.
        streams = RandomStreams(seed=2)
        assert list(streams.stream_for("s", 11).random(4)) != list(
            streams.stream_for("s1", 1).random(4)
        )


def _reference_generator(seed, name, keys):
    """The stream as numpy's own keyed constructor builds it."""
    material = f"{seed}|{len(name)}:{name}|" + ",".join(str(int(k)) for k in keys)
    key = np.frombuffer(hashlib.sha256(material.encode("utf-8")).digest()[:16], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _state(generator):
    """A generator's full bit-generator state, arrays as lists."""
    state = generator.bit_generator.state
    return {
        **state,
        "state": {name: array.tolist() for name, array in state["state"].items()},
        "buffer": state["buffer"].tolist(),
    }


KEYED_TRIPLES = list(
    itertools.product(
        [0, 1, 7, 2**31 + 5, -3],
        ["mac", "biterror", "shadowing", "", "s|1"],
        [(), (0,), (3, 7), (7, 3), (2**40, 1, 2)],
    )
)


class TestKeyedConstruction:
    """``_philox_generator`` builds the generator ``Philox(key=...)`` builds."""

    @pytest.mark.parametrize("seed, name, keys", KEYED_TRIPLES)
    def test_state_and_first_draws_equal_numpys_keyed_constructor(self, seed, name, keys):
        fast, reference = _philox_generator(seed, name, keys), _reference_generator(seed, name, keys)
        assert _state(fast) == _state(reference)
        assert fast.random() == reference.random()
        assert fast.standard_normal() == reference.standard_normal()
        assert fast.standard_exponential() == reference.standard_exponential()
        assert fast.integers(0, 2**62) == reference.integers(0, 2**62)
        assert _state(fast) == _state(reference)

    def test_shared_counter_stays_read_only_zeros(self):
        for seed, name, keys in KEYED_TRIPLES * 4:
            _philox_generator(seed, name, keys).random(9)
        assert not _ZERO_COUNTER.flags.writeable
        assert _ZERO_COUNTER.tolist() == [0, 0, 0, 0]


class TestUniformStream:
    """Buffered uniforms serve exactly the generator's scalar sequence."""

    @pytest.mark.parametrize("offset", [0, 1, 100, 127, 128, 129, 255])
    @pytest.mark.parametrize("count", [1, 127, 128, 129, 300])
    def test_take_equals_scalar_draws_after_any_offset(self, offset, count):
        uniforms = UniformStream(RandomStreams(seed=3).stream_for("biterror", 0, 1))
        scalar = RandomStreams(seed=3).stream_for("biterror", 0, 1)
        assert uniforms.take(offset) == [scalar.random() for _ in range(offset)]
        assert uniforms.take(count) == [scalar.random() for _ in range(count)]
        # The draws after a long request continue the same sequence.
        assert uniforms.take(5) == [scalar.random() for _ in range(5)]
        assert uniforms.next_float() == scalar.random()

    @pytest.mark.parametrize("offset", [0, 1, 100, 127, 128, 129, 255])
    @pytest.mark.parametrize("count", [1, 127, 128, 129, 300, 100_000])
    def test_skip_leaves_the_stream_where_take_does(self, offset, count):
        uniforms = UniformStream(RandomStreams(seed=3).stream_for("biterror", 0, 1))
        reference = UniformStream(RandomStreams(seed=3).stream_for("biterror", 0, 1))
        assert uniforms.take(offset) == reference.take(offset)
        uniforms.skip(count)
        reference.take(count)
        assert uniforms.take(300) == reference.take(300)
        assert uniforms.next_float() == reference.next_float()

    def test_a_long_skip_allocates_a_bounded_array(self):
        uniforms = UniformStream(RandomStreams(seed=3).stream_for("biterror", 0, 1))
        uniforms.take(5)
        tracemalloc.start()
        try:
            uniforms.skip(100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 100,000 float64s are 800 KB; a chunk is 8 KB.
        assert peak < 16 * UniformStream.SKIP_CHUNK
