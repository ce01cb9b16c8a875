"""The shared broadcast medium.

The channel is the single object through which every transmission flows.
For each transmission it decides, per potential receiver,

* whether the signal is strong enough to be *sensed* (contributes to
  carrier sensing and can collide with other receptions),
* whether it is strong enough to be *decoded* (candidate for delivery),

using the shadowing propagation model with an independent per-link,
per-frame fading draw — exactly the independence assumption the paper
relies on ("losses between the source and different forwarders are
independent").  Signals below the carrier-sense threshold are invisible,
which is what creates hidden terminals in the Fig. 5(b), Wigle and
Roofnet scenarios.

Bit errors (the i.i.d. BER model) are applied at reception completion by
the receiving radio via :meth:`WirelessChannel.apply_bit_errors`, for a
frame its MAC acts on.  A frame no MAC acts on draws nothing; its link
owes the draws instead (:meth:`WirelessChannel.owe_bit_errors`, and
"Owed bit-error draws" below).

Hot-path design
---------------
Dispatch is O(degree), not O(radios).  Per sender the channel keeps a
:class:`_DispatchPlan`: the radios whose deterministic path-loss power
plus the maximum possible shadowing fade (the propagation model bounds
its draws at ``max_deviation_sigmas``) still reaches the carrier-sense
threshold.  Everything else provably cannot sense the frame, so skipping
it is exact, not approximate.  Skipping is only sound because every link
draws fading and bit errors from its *own* keyed RNG stream
(:meth:`~repro.sim.rng.RandomStreams.stream_for`) — with the old single
shared stream, culling one receiver would have shifted every other
link's sample path.

Fade draws are **batched across the whole candidate list**: the plan
fills a ``(BLOCK, k)`` matrix column-by-column from the per-link fade
buffers (each column is one link's own keyed stream, so per-link sample
paths stay independent and registration-order-free), adds the
precomputed mean powers in one vectorised operation, and serves one
ready-made row of received powers per transmission.  Per frame the
dispatch loop is then pure Python-float compares — no numpy scalar
dispatch at all.

Each plan is sorted by propagation delay once, when it is built, and
carries each receiver's ``(delay, signal_start, signal_end)`` entry with
the bound radio callbacks made once.  Per frame the dispatch loop keeps
the entries of the receivers that sense it and hands them to
:meth:`~repro.sim.engine.Simulator.schedule_runs`: the frame's arrivals
and its departures become two delay-sorted signal runs of one heap entry
each, not two entries per receiver.  No per-reception object exists:
each item's payload is the frame's :class:`Transmission` when the power
reaches the reception threshold and ``None`` when it only reaches the
carrier-sense threshold, and each radio keeps no more than a count of
the signals it senses plus the one clean frame among them (see
:mod:`repro.phy.radio`).  Plans are invalidated whenever any radio moves
or registers; runs already in flight keep the entries they were given.
The per-link fade streams survive invalidation, so a rebuilt plan
continues each link's draws instead of restarting them.  But the rows
of the dropped plan's current block that no frame was served yet are
lost with it, so under mobility the fades a link's frames get depend on
when stations moved (deterministically: the same seed gives the same
run).

A finished network is cyclic garbage (radio and channel, radio and MAC,
and the radio callbacks in the plans refer to each other), so only a full
collection would free those buffers.  :meth:`WirelessChannel.release`
frees them, and the per-link generators the stream registry keeps, as
soon as a run is summarised; the counters stay.

Owed bit-error draws
--------------------
A link's bit-error uniforms come from its own keyed stream, read in the
order frames end at the receiver, ``1 + len(subpackets)`` per frame.  On
a mesh most frames a radio decodes are ones its MAC ignores, and their
draws would only choose between two :class:`~repro.phy.radio.RadioStats`
counters.  So such a frame draws nothing: its link adds the uniforms the
frame would have consumed to an owed count.  The link builds its
:class:`~repro.sim.rng.UniformStream`, and the Philox generator behind
it, only when a MAC first acts on a frame over it, and every read skips
what is owed first (:meth:`~repro.sim.rng.UniformStream.skip`).  So each
frame a MAC acts on reads the same positions of its link's sequence as if
every frame had drawn, and a link that only ever carries ignored frames
never builds a generator.
"""

from __future__ import annotations

import itertools
import math
from operator import itemgetter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.phy.error_models import BitErrorModel, FrameErrorResult
from repro.phy.params import PhyParams
from repro.phy.propagation import PathLossModel, propagation_delay_ns
from repro.phy.radio import Radio
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams, UniformStream


class _LinkFadeStream:
    """Buffered, bounded fade draws for one (sender, receiver) link.

    Scalar generator calls cost ~1.5 us each in numpy call overhead;
    drawing a batch through the propagation model's ``fade_batch_db`` and
    serving it block-wise produces the *identical* value sequence (models
    fill vectorised draws from the same bit stream in order — the
    hot-path contract in :mod:`repro.phy.propagation`) at a fraction of
    the cost.  The buffer belongs to the link's keyed RNG stream, not to
    the dispatch-plan cache: geometry invalidation rebuilds plans but
    keeps these objects, so a rebuilt plan continues the link's draws.
    Draws a dropped plan had taken into its block but not served are
    skipped (see the module notes).
    """

    #: Draws pulled from the generator per refill; must be a multiple of
    #: :attr:`_DispatchPlan.BLOCK` so block serving never straddles a refill.
    BATCH = 64

    __slots__ = ("generator", "propagation", "_buffer", "_index")

    def __init__(self, generator: np.random.Generator, propagation) -> None:
        self.generator = generator
        self.propagation = propagation
        self._buffer: Optional[np.ndarray] = None
        self._index = 0

    def take_block(self, count: int) -> np.ndarray:
        """The link's next ``count`` bounded fades, in dB (an ndarray view)."""
        index = self._index
        buffer = self._buffer
        if buffer is None or index >= len(buffer):
            buffer = self.propagation.fade_batch_db(self.generator, self.BATCH)
            self._buffer = buffer
            index = 0
        self._index = index + count
        return buffer[index : index + count]


class _LinkNoise:
    """One directed link's bit-error uniforms, built on first read (module notes).

    ``owed`` counts the uniforms of the frames decoded over the link that
    no MAC acted on since the last read.  ``uniforms`` stays None, and no
    generator exists, until a MAC first acts on a frame over the link.
    """

    __slots__ = ("uniforms", "owed")

    def __init__(self) -> None:
        self.uniforms: Optional[UniformStream] = None
        self.owed = 0


class _DispatchPlan:
    """One sender's precomputed dispatch state (see module docstring).

    Candidates are in delay order.  ``entries`` holds per-candidate
    ``(delay_ns, signal_start, signal_end)`` tuples — the bound radio
    callbacks are created once here instead of twice per frame in the
    dispatch loop.  ``refill`` assembles the next ``BLOCK``
    transmissions' received-power rows in one vectorised pass: column
    ``j`` of the fade matrix comes from candidate ``j``'s own link
    stream, so batching across the candidate list never couples links.
    """

    #: Transmissions' worth of power rows produced per vectorised refill.
    BLOCK = 16

    __slots__ = ("radios", "entries", "fade_streams", "means", "end_own", "rows", "row_index", "_matrix")

    def __init__(
        self,
        radios: List[Radio],
        entries: List[Tuple[int, object, object]],
        fade_streams: List[_LinkFadeStream],
        means: np.ndarray,
        end_own,
    ) -> None:
        self.radios = radios
        self.entries = entries
        self.fade_streams = fade_streams
        self.means = means
        self.end_own = end_own
        self.rows: List[List[float]] = []
        self.row_index = 0
        self._matrix = np.empty((self.BLOCK, len(fade_streams))) if fade_streams else None

    def refill(self) -> List[List[float]]:
        """Produce the next ``BLOCK`` rows of per-candidate received powers."""
        matrix = self._matrix
        block = self.BLOCK
        for column, fades in enumerate(self.fade_streams):
            matrix[:, column] = fades.take_block(block)
        rows = (matrix + self.means).tolist()
        self.rows = rows
        return rows


@dataclass(slots=True)
class Transmission:
    """A frame in flight on the medium."""

    transmission_id: int
    frame: object
    sender: Radio
    start_time: int
    duration_ns: int

    @property
    def end_time(self) -> int:
        return self.start_time + self.duration_ns


@dataclass(slots=True)
class ChannelStats:
    """Medium-wide counters used by experiments and tests."""

    transmissions: int = 0
    deliveries_attempted: int = 0


class WirelessChannel:
    """Shared wireless medium connecting every radio in the scenario."""

    __slots__ = (
        "sim",
        "params",
        "propagation",
        "error_model",
        "rng",
        "model_propagation_delay",
        "stats",
        "_radios",
        "_ids",
        "_distance_cache",
        "_plans",
        "_link_fades",
        "_link_noise",
        "_prob_cache",
    )

    #: Hard cap on cached per-pair distances; reached only by scenarios with
    #: thousands of stations, where a rare full drop is cheaper than growth.
    DISTANCE_CACHE_MAX = 1 << 16

    #: Hard cap on per-link stream buffers (fades and bit-error uniforms,
    #: each ~1 KB: a Generator plus a batch).  Overflow drops the whole
    #: table, owed bit-error counts included: the keyed stream registry
    #: retains every generator's state, so surviving links resume their
    #: sample paths minus any unserved buffered draws, and a link's next
    #: frames read the positions it owed instead of skipping them (a link
    #: that never built its generator reads them from its first draw) — a
    #: deterministic (same-seed-same-everything) but real perturbation,
    #: which is why the cap is far above any current workload's link count.
    LINK_FADES_MAX = 1 << 16

    def __init__(
        self,
        sim: Simulator,
        params: PhyParams,
        propagation: Optional[PathLossModel] = None,
        error_model: Optional[BitErrorModel] = None,
        rng: Optional[RandomStreams] = None,
        model_propagation_delay: bool = True,
    ) -> None:
        self.sim = sim
        self.params = params
        # No explicit model: build the one the PHY parameters name (default
        # "shadowing" inheriting params.max_deviation_sigmas), so direct
        # channel construction honours phy.propagation exactly like
        # WirelessNetwork does.
        self.propagation = propagation or params.build_propagation()
        self.error_model = error_model or BitErrorModel()
        self.rng = rng or RandomStreams()
        self.model_propagation_delay = model_propagation_delay
        self.stats = ChannelStats()
        self._radios: List[Radio] = []
        self._ids = itertools.count()
        #: Cached pairwise distances, dropped whenever any radio moves.
        self._distance_cache: Dict[Tuple[int, int], float] = {}
        #: Per-sender dispatch plans (see module docstring).
        self._plans: Dict[int, _DispatchPlan] = {}
        #: Per-link fade buffers; keyed by (sender, receiver) node ids and
        #: deliberately *not* geometry-invalidated (fades are i.i.d. per
        #: frame, so they stay valid when stations move).
        self._link_fades: Dict[Tuple[int, int], _LinkFadeStream] = {}
        #: Per-link bit-error uniforms and owed counts, same lifecycle as fades.
        self._link_noise: Dict[Tuple[int, int], _LinkNoise] = {}
        #: Memoised block success probabilities (few distinct bit counts).
        self._prob_cache: Dict[int, float] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, radio: Radio) -> None:
        """Add a radio to the medium (called from ``Radio.__init__``).

        Registration invalidates the cached geometry: dispatch plans must
        learn about the newcomer, and a reused node id must not resurrect a
        previous radio's cached distances.
        """
        self._radios.append(radio)
        self._invalidate_geometry()

    @property
    def radios(self) -> List[Radio]:
        """Registered radios, as a defensive copy.

        External callers may mutate the returned list freely; the
        per-transmission hot path never goes through this property (it
        would pay an O(N) copy per frame) — it iterates the internal list
        and the per-sender dispatch plans instead.
        """
        return list(self._radios)

    # ------------------------------------------------------------------
    # Transmission dispatch
    # ------------------------------------------------------------------
    def start_transmission(self, sender: Radio, frame, duration_ns: int) -> Transmission:
        """Propagate ``frame`` from ``sender`` to every radio that can hear it."""
        sim = self.sim
        duration_ns = int(duration_ns)
        now = sim.now
        transmission = Transmission(
            transmission_id=next(self._ids),
            frame=frame,
            sender=sender,
            start_time=now,
            duration_ns=duration_ns,
        )
        self.stats.transmissions += 1
        plan = self._plans.get(sender.node_id)
        if plan is None:
            plan = self._build_plan(sender)
            self._plans[sender.node_id] = plan
        entries = plan.entries
        if entries:
            rows = plan.rows
            row_index = plan.row_index
            if row_index >= len(rows):
                rows = plan.refill()
                row_index = 0
            powers = rows[row_index]
            plan.row_index = row_index + 1
            params = self.params
            cs_threshold = params.cs_threshold_dbm
            rx_threshold = params.rx_threshold_dbm
            sensed: List[Tuple[int, object, object]] = []
            payloads: List[Optional[Transmission]] = []
            add_sensed = sensed.append
            add_payload = payloads.append
            for entry, power in zip(entries, powers):
                if power < cs_threshold:
                    continue  # too weak even to sense: no carrier, no interference
                add_sensed(entry)
                add_payload(transmission if power >= rx_threshold else None)
            if sensed:
                self.stats.deliveries_attempted += len(sensed)
                sim.schedule_runs(now, now + duration_ns, sensed, payloads)
        sim.schedule_signal(now + duration_ns, plan.end_own, transmission)
        return transmission

    # ------------------------------------------------------------------
    # Neighborhood index
    # ------------------------------------------------------------------
    def _plan_for(self, sender: Radio) -> _DispatchPlan:
        """``sender``'s dispatch plan, built lazily and cached until invalidated."""
        plan = self._plans.get(sender.node_id)
        if plan is None:
            plan = self._build_plan(sender)
            self._plans[sender.node_id] = plan
        return plan

    def _build_plan(self, sender: Radio) -> _DispatchPlan:
        """Receivers ``sender`` could possibly reach, with link RNGs attached.

        A radio is excluded only when its deterministic received power plus
        the largest fade the propagation model can produce
        (:meth:`~repro.phy.propagation.ShadowingPropagation.max_shadowing_db`)
        still misses the carrier-sense threshold — a *sound* cull, not a
        heuristic one.  Each entry carries the link's deterministic power
        and propagation delay (both pure functions of the frozen geometry)
        so per-frame dispatch is one buffered fade row and a compare per
        candidate.  The per-link fade streams outlive the plan, so
        rebuilding it after a move continues each link's draws instead of
        restarting them, minus the rows the old plan drew and never served.
        """
        propagation = self.propagation
        params = self.params
        power_floor = params.cs_threshold_dbm - propagation.max_shadowing_db()
        tx_power = params.tx_power_dbm
        mean_power = propagation.mean_received_power_dbm
        model_delay = self.model_propagation_delay
        sender_id = sender.node_id
        candidates: List[Tuple[int, Radio, _LinkFadeStream, float]] = []
        for radio in self._radios:
            if radio is sender:
                continue
            distance = self.distance(sender, radio)
            mean_dbm = mean_power(tx_power, distance)
            if mean_dbm < power_floor:
                continue
            delay = propagation_delay_ns(distance) if model_delay else 0
            fades = self._fades_for(sender_id, radio.node_id)
            candidates.append((delay, radio, fades, mean_dbm))
        # Signal runs need the plan in delay order.  The sort is stable, so
        # equal delays keep registration order and each frame's callbacks
        # fire in the order per-receiver heap entries gave them.  The one
        # tie that could order differently is an arrival and a departure of
        # the same frame at the same nanosecond, which needs a delay spread
        # at least as long as the frame: kilometres.
        candidates.sort(key=itemgetter(0))
        return _DispatchPlan(
            [candidate[1] for candidate in candidates],
            [(delay, radio._signal_start, radio._signal_end) for delay, radio, _, _ in candidates],
            [candidate[2] for candidate in candidates],
            np.array([candidate[3] for candidate in candidates]),
            sender._end_own_transmission,
        )

    def _fades_for(self, sender_id: int, receiver_id: int) -> _LinkFadeStream:
        """The (cached) buffered fade stream of one directed link."""
        key = (sender_id, receiver_id)
        fades = self._link_fades.get(key)
        if fades is None:
            fades = _LinkFadeStream(
                self.rng.stream_for("shadowing", sender_id, receiver_id),
                self.propagation,
            )
            if len(self._link_fades) >= self.LINK_FADES_MAX:
                self._link_fades.clear()
            self._link_fades[key] = fades
        return fades

    def candidate_receivers(self, sender: Radio) -> List[Radio]:
        """The radios a transmission from ``sender`` would be dispatched to, in delay order.

        Nearer radios come first; radios at equal delay keep their
        registration order.  Exposed for tests and diagnostics; the margin
        guarantee is that any
        radio *not* in this list can never receive power at or above the
        carrier-sense threshold from ``sender`` at the current geometry.
        """
        return list(self._plan_for(sender).radios)

    def _invalidate_geometry(self) -> None:
        """Drop every geometry-derived cache (distances, dispatch plans)."""
        self._distance_cache.clear()
        self._plans.clear()

    def release(self) -> None:
        """Free the plans, per-link streams and owed counts of a finished run.

        The stream registry forgets the per-link generators too.
        :attr:`stats` and every radio's and MAC's counters stay readable.
        The channel must not transmit afterwards: its links would restart
        their sample paths.
        """
        self._invalidate_geometry()
        self._link_fades.clear()
        self._link_noise.clear()
        self.rng.forget("shadowing")
        self.rng.forget("biterror")

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def apply_bit_errors(self, frame, receiver: Optional[Radio] = None,
                         sender: Optional[Radio] = None) -> FrameErrorResult:
        """Run the i.i.d. BER model over a decoded frame's header and sub-packets.

        When the receiving radio (and the transmitting one) are known the
        draws come from the link's keyed stream — buffered through a
        :class:`~repro.sim.rng.UniformStream`, which serves the identical
        uniform sequence as scalar draws — keeping bit-error sample paths
        independent across forwarders.  What the link owes
        (:meth:`owe_bit_errors`) is skipped first.  Anonymous callers fall
        back to the shared ``biterror`` stream.
        """
        if receiver is None or sender is None:
            rng = self.rng.stream("biterror")
            subpacket_bits = [subpacket.bits for subpacket in frame.subpackets]
            return self.error_model.evaluate_frame(frame.header_bits, subpacket_bits, rng)
        subpackets = frame.subpackets
        key = (sender.node_id, receiver.node_id)
        link = self._link_noise.get(key)
        if link is None:
            link = self._new_link_noise(key)
        uniforms = link.uniforms
        if uniforms is None or link.owed:
            uniforms = self._settle(link, key)
        draws = uniforms.take(1 + len(subpackets))
        # Block success probabilities are memoised in a plain dict:
        # ``BitErrorModel.success_probability`` is already lru_cache-backed,
        # but its guard branches plus the lru machinery cost more than a
        # dict hit on the few distinct bit counts a scenario uses.
        cache = self._prob_cache
        model_success = self.error_model.success_probability
        bits = frame.header_bits
        probability = cache.get(bits)
        if probability is None:
            probability = model_success(bits)
            cache[bits] = probability
        header_ok = draws[0] < probability
        subpacket_ok = []
        append = subpacket_ok.append
        index = 0
        for subpacket in subpackets:
            bits = subpacket.bits
            probability = cache.get(bits)
            if probability is None:
                probability = model_success(bits)
                cache[bits] = probability
            index += 1
            append(draws[index] < probability)
        return FrameErrorResult(header_ok=header_ok, subpacket_ok=subpacket_ok)

    def owe_bit_errors(self, frame, receiver: Radio, sender: Radio) -> None:
        """Record that ``receiver`` decoded ``frame`` from ``sender`` and nothing acts on it.

        No draw is made: the link owes the ``1 + len(frame.subpackets)``
        uniforms :meth:`apply_bit_errors` would have consumed, and its next
        evaluation skips them (module notes).
        """
        key = (sender.node_id, receiver.node_id)
        link = self._link_noise.get(key)
        if link is None:
            link = self._new_link_noise(key)
        link.owed += 1 + len(frame.subpackets)

    def _new_link_noise(self, key: Tuple[int, int]) -> _LinkNoise:
        """A fresh entry for the directed link ``key``, owing nothing."""
        if len(self._link_noise) >= self.LINK_FADES_MAX:
            self._link_noise.clear()
        link = self._link_noise[key] = _LinkNoise()
        return link

    def _settle(self, link: _LinkNoise, key: Tuple[int, int]) -> UniformStream:
        """``link``'s uniforms, built on first use, with what it owes skipped."""
        uniforms = link.uniforms
        if uniforms is None:
            uniforms = link.uniforms = UniformStream(self.rng.stream_for("biterror", *key))
        uniforms.skip(link.owed)
        link.owed = 0
        return uniforms

    def distance(self, a: Radio, b: Radio) -> float:
        """Euclidean distance between two radios in metres (cached per pair).

        The cache is keyed symmetrically by the node-id pair — (a, b) and
        (b, a) share one entry — and invalidated whenever any radio moves
        or registers (:meth:`notify_position_changed`, :meth:`register`),
        so transmissions always see *current* geometry even mid-run under
        mobility.  Size is bounded by :data:`DISTANCE_CACHE_MAX`.
        """
        key = (a.node_id, b.node_id) if a.node_id <= b.node_id else (b.node_id, a.node_id)
        cached = self._distance_cache.get(key)
        if cached is None:
            ax, ay = a.position
            bx, by = b.position
            cached = math.hypot(ax - bx, ay - by)
            if len(self._distance_cache) >= self.DISTANCE_CACHE_MAX:
                self._distance_cache.clear()
            self._distance_cache[key] = cached
        return cached

    def notify_position_changed(self, radio: Optional[Radio] = None) -> None:
        """Invalidate cached per-pair geometry after a mobility update.

        Moves arrive in batches (one mobility tick relocates many nodes), so
        every geometry cache is dropped rather than surgically pruned.
        """
        self._invalidate_geometry()

    def link_delivery_probability(self, a: Radio, b: Radio, frame_bits: int = 8000) -> float:
        """Expected frame delivery probability on link a→b.

        Combines the shadowing outage probability with the BER-induced frame
        error probability.  Used by the ETX metric and by topology helpers;
        the per-frame simulation never uses this closed form.
        """
        distance = self.distance(a, b)
        p_power = self.propagation.reception_probability(
            self.params.tx_power_dbm, distance, self.params.rx_threshold_dbm
        )
        p_bits = self.error_model.success_probability(frame_bits)
        return p_power * p_bits
