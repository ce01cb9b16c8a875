"""Named, seeded random-number streams.

Every source of randomness in the simulator (MAC backoff draws, channel
shadowing, bit errors, traffic inter-arrivals, ...) pulls from its own
named stream derived from a single root seed.  This has two benefits:

* **Reproducibility** — a scenario with a given seed produces exactly the
  same packet-level trace on every run, which the test-suite and the
  property-based tests rely on.
* **Variance isolation** — changing, say, the traffic model does not
  perturb the channel-noise sample path, so scheme comparisons (the bar
  charts in the paper's Figs. 3-12) see the same channel realisations.

Streams are backed by the **Philox counter-based generator**: each stream
is ``Generator(Philox(key=...))`` with a 128-bit key derived by hashing
``(seed, name, keys)``.  A counter-based generator's output is a pure
function of (key, counter), so the mapping name → stream is stable
regardless of the order in which streams are first requested, and
deriving a stream is a single hash — no SeedSequence spawning tree, no
entropy-pool state shared between streams.

Construction skips numpy's seeding path: ``Philox(key=...)`` would draw
a ``SeedSequence`` from OS entropy and convert the counter word by word,
then override both.  :func:`_philox_generator` passes the key through
:class:`_PhiloxKey`, an ``ISeedSequence`` whose state is the key, and a
shared read-only zero counter, which ``Philox`` copies: the same
generator state at under half the cost (a 1-s Roofnet scenario builds ~500).

Keyed substreams
----------------
:meth:`RandomStreams.stream_for` extends the same derivation with integer
keys: ``stream_for("shadowing", sender_id, receiver_id)`` is one
independent stream *per link*, derived only from ``(seed, name, keys)``.
This is what lets the channel skip receivers that are provably out of
range without perturbing any other link's sample path — under a single
shared stream, every skipped draw would shift the randomness of every
radio registered after it.  It is also the paper's own independence
assumption made literal: "losses between the source and different
forwarders are independent" (Section IV).

Batching contract
-----------------
numpy Generators fill vectorised draws from the same bit stream as
repeated scalar calls, so ``generator.standard_normal(n)`` equals ``n``
scalar draws element for element (same for ``random``, ``normal``,
``standard_exponential``).  The channel's per-link fade buffers and the
:class:`UniformStream` helper below rely on this: buffering draws in
blocks is invisible to any consumer of the value sequence.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Tuple, cast

import numpy as np
from numpy.random.bit_generator import ISeedSequence


class _PhiloxKey(ISeedSequence):
    """A seed sequence whose state is a derived 128-bit Philox key.

    ``Philox`` takes the two ``uint64`` words it asks for as its key.
    """

    __slots__ = ("_key",)

    def __init__(self, key: np.ndarray) -> None:
        self._key = key

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self._key


#: The initial Philox counter, shared: ``Philox`` copies it.
_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)
_ZERO_COUNTER.flags.writeable = False


def _philox_generator(seed: int, name: str, keys: Tuple[int, ...]) -> np.random.Generator:
    """A Philox generator keyed purely by ``(seed, name, keys)``.

    The 128-bit Philox key is the truncated SHA-256 of an unambiguous
    encoding of the triple (the name is length-prefixed so no
    ``(name, keys)`` pair can collide with another by sliding bytes
    between the fields).  Collision probability between any two distinct
    triples is 2**-128 — far below SeedSequence's spawn-key guarantees —
    and the derivation is order-free by construction: no generator's
    stream depends on which other streams exist.  The state equals
    ``Generator(Philox(key=key))``'s.
    """
    material = f"{seed}|{len(name)}:{name}|" + ",".join(str(int(k)) for k in keys)
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    key = np.frombuffer(digest[:16], dtype=np.uint64)
    # numpy's stub types ``seed`` as a SeedSequence or integers, but
    # BitGenerator accepts any ISeedSequence, numpy's documented interface.
    seed_sequence = cast(np.random.SeedSequence, _PhiloxKey(key))
    return np.random.Generator(np.random.Philox(seed_sequence, counter=_ZERO_COUNTER))


class RandomStreams:
    """A registry of named :class:`numpy.random.Generator` streams."""

    __slots__ = ("_seed", "_streams", "_keyed")

    def __init__(self, seed: int = 1) -> None:
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}
        self._keyed: Dict[Tuple[str, Tuple[int, ...]], np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """Root seed from which every named stream is derived."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The stream only depends on ``(seed, name)``, never on creation
        order, so adding a new consumer of randomness does not disturb
        existing streams.
        """
        generator = self._streams.get(name)
        if generator is None:
            generator = _philox_generator(self._seed, name, ())
            self._streams[name] = generator
        return generator

    def stream_for(self, name: str, *keys: int) -> np.random.Generator:
        """Return the generator for ``name`` keyed by ``keys`` (e.g. a link).

        The stream depends only on ``(seed, name, keys)`` — not on creation
        order, not on how many other streams exist — so per-link draws such
        as ``stream_for("shadowing", sender, receiver)`` are reproducible
        even when the set of links actually exercised changes (receiver
        culling, mobility, registration-order changes).

        Generators are cached: repeated calls with the same key return the
        *same* generator object, whose state advances across calls — that
        is what keeps a link's fading sample path continuous over a run.
        ``stream_for(name)`` with no keys is identical to ``stream(name)``.
        """
        if not keys:
            return self.stream(name)
        cache_key = (name, keys)
        generator = self._keyed.get(cache_key)
        if generator is None:
            generator = _philox_generator(self._seed, name, keys)
            self._keyed[cache_key] = generator
        return generator

    def forget(self, name: str) -> None:
        """Drop every stream named ``name``, keyed or not, freeing its generators.

        A stream asked for again afterwards restarts from its first draw,
        so forget a name only when no draw under it follows, as when a
        finished run frees its per-link generators.
        """
        self._streams.pop(name, None)
        self._keyed = {key: generator for key, generator in self._keyed.items() if key[0] != name}

    def fork(self, offset: int) -> "RandomStreams":
        """A new registry with a seed offset; used for independent replications."""
        return RandomStreams(seed=self._seed + int(offset))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        keyed = sorted(f"{name}{list(keys)}" for name, keys in self._keyed)
        return f"RandomStreams(seed={self._seed}, streams={sorted(self._streams)}, keyed={keyed})"


class UniformStream:
    """Buffered uniform [0, 1) draws from one generator.

    Scalar ``generator.random()`` calls cost ~1 µs each in numpy dispatch
    overhead; this helper refills a 128-draw block at a time and serves
    plain Python floats.  By the batching contract above the served
    sequence is *identical* to scalar draws, so swapping a call site from
    ``rng.random()`` to ``uniforms.take(1)[0]`` (or :meth:`next_float`)
    changes nothing but the wall-clock cost.  Refills splice the unserved
    tail onto the fresh block, so :meth:`take` spans block boundaries
    without skipping or reordering draws; a request longer than the tail
    plus one block draws as many as it needs.
    """

    BLOCK = 128

    #: Most uniforms :meth:`skip` draws and discards per generator call.
    SKIP_CHUNK = 1024

    __slots__ = ("generator", "_buffer", "_index")

    def __init__(self, generator: np.random.Generator) -> None:
        self.generator = generator
        self._buffer: List[float] = []
        self._index = 0

    def take(self, count: int) -> List[float]:
        """The stream's next ``count`` uniforms, as plain Python floats."""
        index = self._index
        buffer = self._buffer
        if index + count > len(buffer):
            buffer = self._refill(index, count)
            index = 0
        self._index = index + count
        return buffer[index : index + count]

    def skip(self, count: int) -> None:
        """Consume the stream's next ``count`` uniforms without serving them.

        The draws that follow are those that would follow ``take(count)``,
        but no Python float is built: the buffered part is stepped over,
        and the rest is drawn and discarded in chunks of at most
        :attr:`SKIP_CHUNK`, so skipping a long run allocates no long array.
        By the batching contract a discarded chunk leaves the generator
        where serving it would.
        """
        index = self._index + count
        unserved = index - len(self._buffer)
        if unserved <= 0:
            self._index = index
            return
        self._buffer = []
        self._index = 0
        random = self.generator.random
        while unserved > 0:
            chunk = min(unserved, self.SKIP_CHUNK)
            random(chunk)
            unserved -= chunk

    def _refill(self, index: int, count: int) -> List[float]:
        """The unserved tail from ``index`` on, then fresh draws: at least ``count``."""
        tail = self._buffer[index:]
        buffer = tail + self.generator.random(max(self.BLOCK, count - len(tail))).tolist()
        self._buffer = buffer
        return buffer

    def next_float(self) -> float:
        """The stream's single next uniform (the scalar hot-path entry point)."""
        index = self._index
        buffer = self._buffer
        if index >= len(buffer):
            buffer = self.generator.random(self.BLOCK).tolist()
            self._buffer = buffer
            index = 0
        self._index = index + 1
        return buffer[index]
