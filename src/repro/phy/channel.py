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
frame its MAC acts on.  A frame no MAC acts on draws nothing; the
receiving radio counts the draws it owes the link instead ("Owed
bit-error draws" below).

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

Fade draws are **batched across the whole candidate list**: each plan
owns one Fortran-order matrix of raw draws, ``BATCH`` (64) fades deep
with a column per candidate, and once per 64 frames fills every column
in place from that link's own keyed generator (the propagation model's
:meth:`~repro.phy.propagation.PathLossModel.fill_raw`), so per-link
sample paths stay independent and registration-order-free.  Every
``BLOCK`` (16) frames one vectorised transform
(:meth:`~repro.phy.propagation.PathLossModel.fades_from_raw`) turns the
next 16 rows of all columns into fades, adds the precomputed mean powers
and compares each power with both thresholds, giving one row of sensing
codes per transmission: 0 not sensed, 1 sensed, 2 decodable.  The
powers and compares are those of a per-receiver loop, ``mean + fade`` in
float64 against each threshold.  Per frame the dispatch loop then tests
small Python ints — no numpy call and no float compare at all.

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
continues each link's draws instead of restarting them.  A dropped plan
is kept until its sender's next plan is built.  When the new plan holds
the same links in the same order, as it mostly does under mobility, it
adopts the old plan's raw draws and their position, starting at the next
block.  Otherwise the old plan hands each link its raw draws beyond the
current block (one copy per plan), and the new plan's first fill serves
each link's carry first, topping columns up from their generators only
to the longest carry among its links, so it draws no fade a whole-batch
fill would not.  Both ways give each link the same draws: only its own
sender's plan reads a link's column, so nothing reads it between the
drop and the rebuild.  The rows of the dropped plan's current block that
no frame was served yet are lost with it, so under mobility the fades a
link's frames get depend on when stations moved (deterministically: the
same seed gives the same run).  A link that leaves every plan keeps its
carry until one takes it again.

Stations no route reaches
-------------------------
A scenario whose routes are fixed for the run names, before it starts,
every station its traffic can make transmit or name in a frame
(:func:`repro.experiments.runner.reachable_stations`).  Any other station
never transmits and is never a frame's receiver, final destination or
forwarder, so whatever it senses or decodes changes nothing any other
station does.  :meth:`WirelessChannel.restrict_dispatch` leaves such
stations out of every plan, as plans leave out a station beyond the cull
margin: no column, no fade generator, no sensing code and no signal-run
item.  Each column a plan keeps is its own link's stream, so every kept
link draws what it would draw with nobody left out, and the kept stations'
callbacks keep their instants and their order.  The runs lose only the
left-out stations' items, which lowers ``events_processed``.
:meth:`~WirelessChannel.start_transmission` raises
:class:`UnreachableStation` when a left-out station transmits or a frame
names one, so a route the set missed stops the run instead of changing
it.

A finished network is cyclic garbage (radio and channel, radio and MAC,
and the radio callbacks in the plans refer to each other), so only a full
collection would free the plans' matrices and the links' streams.
:meth:`WirelessChannel.release` drops them, kept plans included, without
handing draws back, and the per-link generators the stream registry
keeps, as soon as a run is summarised
(:meth:`~repro.topology.network.WirelessNetwork.release`); the counters
stay.

Owed bit-error draws
--------------------
A link's bit-error uniforms come from its own keyed stream, read in the
order frames end at the receiver, ``1 + len(subpackets)`` per frame.  On
a mesh most frames a radio decodes are ones its MAC ignores, and their
draws would only choose between two :class:`~repro.phy.radio.RadioStats`
counters.  So such a frame draws nothing: the receiving radio adds the
uniforms the frame would have consumed to ``Radio.owed``, its owed count
per sender, in ``_signal_end`` itself, with no call into the channel.  A
link builds its :class:`~repro.sim.rng.UniformStream`, and the Philox
generator behind it, only when a MAC first acts on a frame over it, and
every read first pops what the receiver owes that sender and skips it
(:meth:`~repro.sim.rng.UniformStream.skip`).  So each frame a MAC acts on
reads the same positions of its link's sequence as if every frame had
drawn, and a link that only ever carries ignored frames never builds a
generator.  The owed counts are bounded by the senders a radio decodes,
and survive a :data:`WirelessChannel.LINK_FADES_MAX` overflow, which
drops only built streams.
"""

from __future__ import annotations

import itertools
import math
from operator import itemgetter
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from repro.phy.error_models import BitErrorModel, FrameErrorResult
from repro.phy.params import PhyParams
from repro.phy.propagation import PathLossModel, propagation_delay_ns
from repro.phy.radio import Radio
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams, UniformStream


class _LinkFadeStream:
    """One directed link's fade generator, plus what a dropped plan handed back.

    The generator is the link's own keyed stream, and only the one plan
    that holds the link reads it, into the link's column.  ``carry`` is
    None or the raw draws an invalidated plan had drawn beyond its current
    block (a contiguous vector, the link's next draws in order); the next
    plan that holds the link serves them first.  These objects are keyed
    by link, not by plan: geometry invalidation rebuilds plans but keeps
    them, so a rebuilt plan continues each link's draws.
    """

    __slots__ = ("generator", "carry")

    def __init__(self, generator: np.random.Generator) -> None:
        self.generator = generator
        self.carry: Optional[np.ndarray] = None


class _DispatchPlan:
    """One sender's precomputed dispatch state (see module docstring).

    Candidates are in delay order.  ``entries`` holds per-candidate
    ``(delay_ns, signal_start, signal_end)`` tuples — the bound radio
    callbacks are created once here instead of twice per frame in the
    dispatch loop.  The plan owns one Fortran-order matrix of raw fade
    draws with a column per candidate: :meth:`refill` fills every column
    from its own link's generator once per :attr:`BATCH` frames and turns
    the next :attr:`BLOCK` rows of all columns into sensing codes at once,
    so batching across the candidate list never couples links.
    """

    #: Transmissions' worth of sensing codes produced per vectorised refill.
    BLOCK = 16
    #: Fades drawn per column per fill; a multiple of :attr:`BLOCK`, so a
    #: block never straddles two fills.
    BATCH = 64

    __slots__ = (
        "radios", "entries", "links", "means", "end_own", "rows", "row_index",
        "_propagation", "_sensed_dbm", "_decoded_dbm", "_raw", "_next", "_end",
    )

    def __init__(
        self,
        radios: List[Radio],
        entries: List[Tuple[int, object, object]],
        links: List[_LinkFadeStream],
        means: np.ndarray,
        end_own,
        propagation: PathLossModel,
        params: PhyParams,
    ) -> None:
        self.radios = radios
        self.entries = entries
        self.links = links
        self.means = means
        self.end_own = end_own
        #: The current block's sensing codes, one row per transmission.
        self.rows: List[List[int]] = []
        self.row_index = 0
        self._propagation = propagation
        self._sensed_dbm = params.cs_threshold_dbm
        # A power that reaches both thresholds is decodable: the larger one.
        self._decoded_dbm = max(params.cs_threshold_dbm, params.rx_threshold_dbm)
        depth = self.BATCH * propagation.raw_per_fade
        self._raw = np.empty((depth, len(links)), order="F")
        #: Raw rows of the next block, and raw rows filled.  ``_end`` is 0
        #: until the first fill, which takes the links' carries.
        self._next = 0
        self._end = 0

    def refill(self) -> List[List[int]]:
        """The next ``BLOCK`` rows of per-candidate sensing codes.

        Code 0: the power misses the carrier-sense threshold; 1: it is
        sensed; 2: it is also decodable.  The power is ``mean + fade`` in
        float64, compared with each threshold as the per-receiver loop
        compared it.
        """
        start = self._next
        if start >= self._end:
            self._fill()
            start = 0
        stop = self._next = start + self.BLOCK * self._propagation.raw_per_fade
        powers = self.means + self._propagation.fades_from_raw(self._raw[start:stop])
        codes = (powers >= self._sensed_dbm).view(np.int8)
        codes += powers >= self._decoded_dbm
        rows = codes.tolist()
        self.rows = rows
        return rows

    def _fill(self) -> None:
        """Refill every column from its first row.

        The first fill puts each link's carry first and tops every column
        up only to the longest carry, so it draws no fade a whole-batch
        fill would not; without carries, and at every later fill, each
        column draws a whole batch.
        """
        fill = self._propagation.fill_raw
        raw = self._raw
        end = len(raw)
        if not self._end:
            carried = [len(link.carry) for link in self.links if link.carry is not None]
            end = max(carried, default=0) or end
        for index, link in enumerate(self.links):
            column = raw[:, index]
            kept = 0
            if link.carry is not None:
                kept = len(link.carry)
                column[:kept] = link.carry
                link.carry = None
            if kept < end:
                fill(link.generator, column[kept:end])
        self._end = end

    def adopt(self, dropped: "_DispatchPlan") -> None:
        """Continue the raw draws of ``dropped``, a plan over the same links, at its next block.

        The rows from its ``_next`` on are exactly what it would hand back.
        """
        self._raw = dropped._raw
        self._next = dropped._next
        self._end = dropped._end

    def hand_back(self) -> None:
        """Give every link the raw draws beyond the current block, for a plan over other links.

        One copy for the whole plan; each link's carry is its column of
        it.  The current block's unserved rows are lost (module notes).  A
        plan that never filled took no carries, so it has nothing to give.
        """
        start, end = self._next, self._end
        if start >= end:
            return
        tail = np.array(self._raw[start:end], order="F")
        for column, link in enumerate(self.links):
            link.carry = tail[:, column]


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


class UnreachableStation(RuntimeError):
    """A station left out of dispatch transmitted, or a frame named one."""


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
        "_dropped",
        "_excluded",
        "_link_fades",
        "_link_uniforms",
        "_prob_cache",
    )

    #: Hard cap on cached per-pair distances; reached only by scenarios with
    #: thousands of stations, where a rare full drop is cheaper than growth.
    DISTANCE_CACHE_MAX = 1 << 16

    #: Hard cap on each per-link stream table (fade streams and bit-error
    #: uniforms, each ~1 KB: a Generator plus its draws).  Overflow drops
    #: that whole table.  The keyed stream registry retains every
    #: generator's state, so surviving links resume their sample paths
    #: minus any drawn but unserved draws (a fade carry, a uniform
    #: buffer); the owed bit-error counts live on the radios and survive,
    #: so a rebuilt uniform stream still skips them — a deterministic
    #: (same-seed-same-everything) but real perturbation, which is why the
    #: cap is far above any current workload's link count.
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
        #: Plans dropped by an invalidation, kept until their sender's next
        #: plan is built (module notes).
        self._dropped: Dict[int, _DispatchPlan] = {}
        #: Node ids left out of every plan (module notes); empty: none.
        self._excluded: FrozenSet[int] = frozenset()
        #: Per-link fade streams; keyed by (sender, receiver) node ids and
        #: deliberately *not* geometry-invalidated (fades are i.i.d. per
        #: frame, so they stay valid when stations move).
        self._link_fades: Dict[Tuple[int, int], _LinkFadeStream] = {}
        #: Per-link bit-error uniforms, built on first use (module notes).
        self._link_uniforms: Dict[Tuple[int, int], UniformStream] = {}
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

    def restrict_dispatch(self, reachable: Iterable[int]) -> None:
        """Leave every registered station outside ``reachable`` out of dispatch.

        ``reachable`` holds node ids: the stations the scenario's traffic
        can make transmit or name in a frame (module notes).  Plans are
        rebuilt without the others, and a transmission by one of them, or a
        frame naming one, raises :class:`UnreachableStation`.  A station
        registered later is dispatched to.
        """
        kept = set(reachable)
        self._excluded = frozenset(
            radio.node_id for radio in self._radios if radio.node_id not in kept
        )
        self._invalidate_geometry()

    @property
    def excluded(self) -> FrozenSet[int]:
        """Node ids left out of dispatch by :meth:`restrict_dispatch` (empty: none)."""
        return self._excluded

    # ------------------------------------------------------------------
    # Transmission dispatch
    # ------------------------------------------------------------------
    def start_transmission(self, sender: Radio, frame, duration_ns: int) -> Transmission:
        """Propagate ``frame`` from ``sender`` to every radio that can hear it."""
        excluded = self._excluded
        if excluded and (
            sender.node_id in excluded
            or frame.receiver in excluded
            or frame.final_dst in excluded
            or not excluded.isdisjoint(frame.forwarder_list)
        ):
            raise UnreachableStation(
                f"station {sender.node_id} sent frame {frame.frame_id} (receiver "
                f"{frame.receiver}, final_dst {frame.final_dst}, forwarders "
                f"{list(frame.forwarder_list)}), but stations {sorted(excluded)} are "
                f"left out of dispatch: no route was found to reach them"
            )
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
            codes = rows[row_index]
            plan.row_index = row_index + 1
            sensed: List[Tuple[int, object, object]] = []
            payloads: List[Optional[Transmission]] = []
            add_sensed = sensed.append
            add_payload = payloads.append
            for entry, code in zip(entries, codes):
                if code:  # 0: too weak even to sense, no carrier, no interference
                    add_sensed(entry)
                    add_payload(transmission if code == 2 else None)
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
        heuristic one — or when :meth:`restrict_dispatch` left its station
        out, which is as sound (module notes).  Each entry carries the
        link's deterministic power and propagation delay (both pure
        functions of the frozen geometry) so per-frame dispatch is one
        precomputed code per candidate.  The
        per-link fade streams outlive the plan, so rebuilding it after a
        move continues each link's draws instead of restarting them, minus
        the rows of the old plan's current block that it never served.
        """
        propagation = self.propagation
        params = self.params
        power_floor = params.cs_threshold_dbm - propagation.max_shadowing_db()
        tx_power = params.tx_power_dbm
        mean_power = propagation.mean_received_power_dbm
        model_delay = self.model_propagation_delay
        sender_id = sender.node_id
        excluded = self._excluded
        candidates: List[Tuple[int, Radio, _LinkFadeStream, float]] = []
        for radio in self._radios:
            if radio is sender or radio.node_id in excluded:
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
        plan = _DispatchPlan(
            [candidate[1] for candidate in candidates],
            [(delay, radio._signal_start, radio._signal_end) for delay, radio, _, _ in candidates],
            [candidate[2] for candidate in candidates],
            np.array([candidate[3] for candidate in candidates]),
            sender._end_own_transmission,
            propagation,
            params,
        )
        dropped = self._dropped.pop(sender_id, None)
        if dropped is not None:
            if dropped.links == plan.links:
                plan.adopt(dropped)
            else:
                dropped.hand_back()
        return plan

    def _fades_for(self, sender_id: int, receiver_id: int) -> _LinkFadeStream:
        """The (cached) fade stream of one directed link."""
        key = (sender_id, receiver_id)
        fades = self._link_fades.get(key)
        if fades is None:
            fades = _LinkFadeStream(self.rng.stream_for("shadowing", sender_id, receiver_id))
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
        """Drop every geometry-derived cache (distances, dispatch plans).

        Each dropped plan is kept until its sender's next plan is built,
        which adopts its draws or has it hand them back (module notes).
        """
        self._distance_cache.clear()
        self._dropped.update(self._plans)
        self._plans.clear()

    def release(self) -> None:
        """Free the plans and per-link streams of a finished run.

        Plans go without handing anything back, and the stream registry
        forgets the per-link generators too.  :attr:`stats` and every
        radio's and MAC's counters stay readable.  The channel must not
        transmit afterwards: its links would restart their sample paths.
        """
        self._distance_cache.clear()
        self._plans.clear()
        self._dropped.clear()
        self._link_fades.clear()
        self._link_uniforms.clear()
        self.rng.forget("shadowing")
        self.rng.forget("biterror")

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def apply_bit_errors(self, frame, receiver: Radio, sender: Radio) -> FrameErrorResult:
        """Run the i.i.d. BER model over a decoded frame's header and sub-packets.

        The draws come from the link's keyed stream — buffered through a
        :class:`~repro.sim.rng.UniformStream`, which serves the identical
        uniform sequence as scalar draws — keeping bit-error sample paths
        independent across forwarders.  What the receiver owes the link
        (``receiver.owed``, module notes) is skipped first.
        """
        subpackets = frame.subpackets
        sender_id = sender.node_id
        key = (sender_id, receiver.node_id)
        uniforms = self._link_uniforms.get(key)
        if uniforms is None:
            uniforms = self._new_uniforms(key)
        skipped = receiver.owed.pop(sender_id, 0)
        if skipped:
            uniforms.skip(skipped)
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

    def _new_uniforms(self, key: Tuple[int, int]) -> UniformStream:
        """The bit-error uniforms of the directed link ``key``, built on its first read."""
        if len(self._link_uniforms) >= self.LINK_FADES_MAX:
            self._link_uniforms.clear()
        uniforms = self._link_uniforms[key] = UniformStream(self.rng.stream_for("biterror", *key))
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
