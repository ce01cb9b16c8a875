"""Event-heap discrete-event simulator.

This is the from-scratch replacement for the NS-2 scheduler the paper's
implementation runs on.  The design is deliberately small:

* :class:`Event` — a cancellable callback scheduled at an absolute
  integer-nanosecond timestamp.
* :class:`Simulator` — a binary-heap event queue with a monotonically
  increasing sequence number used as a tie-breaker so that events
  scheduled at the same timestamp fire in scheduling order
  (deterministic FIFO among ties).

Protocol code schedules relative timers with :meth:`Simulator.schedule`
and cancels them with :meth:`Event.cancel` (cancellation is lazy: the
heap entry stays in place and is skipped when popped, which is O(1) and
avoids heap surgery).

Performance notes
-----------------
The heap holds plain tuples rather than the :class:`Event` objects
themselves: tuple comparison is a single C-level operation, whereas
comparing objects dispatches to Python ``__lt__`` once per sift step —
on simulation workloads that comparison alone was ~15 % of total
runtime.  Two entry shapes share the heap, distinguished by length:

* ``(time, seq, event)`` — a cancellable :class:`Event` timer.
* ``(time, seq, callback, payload)`` — a *signal* entry: fixed-shape and
  never cancelled, carrying no :class:`Event` at all.  The PHY's
  end-of-transmission callbacks use it directly
  (:meth:`Simulator.schedule_signal`), and so does every *signal run*.

A signal run is one frame's receptions as a sequence of items sorted by
time (:meth:`Simulator.schedule_runs`): all its arrivals, or all its
departures.  The whole run occupies one signal entry, keyed by its next
item's ``(time, seq)``, whose callback is the run walker.  The walker
fires that item, then each following one inline for as long as the
item's ``(time, seq)`` sorts below the heap top and lies within
:meth:`Simulator.run`'s horizon — exactly when the item's own entry
would have been popped next — and otherwise puts one entry for the rest
of the run back on the heap.  Every item keeps its own sequence number
and counts as one processed event, so callbacks fire at the same
instants and in the same order as if each item had an entry of its own.
``run(max_events=...)`` fires one item per pop, so its count stays exact.

:class:`Event` objects themselves are recycled through a freelist: an
event returns to the free pool when its heap entry is consumed (fired,
popped-as-cancelled, or dropped by compaction), never earlier.  Because
recycling waits for the heap entry, an :class:`Event` is referenced by
at most one heap entry at any time and a fired/cancelled handle can
never alias a live timer.  Stale ``cancel()`` calls on a recycled
handle are already no-ops by the handle discipline every caller follows
(clear-your-handle-before-reuse), and events sitting in the freelist
always have ``cancelled=True`` so a late cancel cannot corrupt
accounting.

The run loop peeks/pops on a local alias of the heap;
:meth:`Simulator._compact` must therefore rebuild the heap *in place*
(``self._heap[:] = ...``) so the alias never goes stale when a
callback's cancellation triggers compaction mid-run.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple


class Event:
    """A single scheduled callback.

    Events are ordered by ``(time, seq)``: ``time`` is absolute simulation
    time in nanoseconds and ``seq`` is the scheduling sequence number used
    to break ties deterministically.  The ordering lives in the heap's
    ``(time, seq, event)`` tuples, not on the object, so :class:`Event`
    defines no comparison methods.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "on_cancel")

    def __init__(
        self,
        time: int,
        seq: int,
        callback: Callable[..., None],
        args: tuple = (),
        on_cancel: Optional[Callable[[], None]] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.on_cancel = on_cancel

    def cancel(self) -> None:
        """Mark the event so that it is skipped when its time arrives.

        Cancelling an event that has already fired (a stale handle) is a
        no-op: firing marks the event cancelled first, so the early return
        below keeps the simulator's cancellation accounting untouched.
        """
        if self.cancelled:
            return
        self.cancelled = True
        if self.on_cancel is not None:
            self.on_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(time={self.time}, seq={self.seq}, {state})"


#: An Event heap entry ``(time, seq, event)``; signal entries (signal runs
#: included) are the four-tuple ``(time, seq, callback, payload)`` — see the
#: module notes.
HeapEntry = Tuple[Any, ...]

#: Run-walker horizons: outside :meth:`Simulator.run`, and under its
#: ``max_events``, no item fires inline; an unbounded run inlines at any
#: time.  Pushing an item back instead of firing it inline is always
#: exact, so the bounds only need to lie beyond every event time.
_INLINE_NEVER = -(1 << 63)
_INLINE_ALWAYS = 1 << 63


class SimulationError(RuntimeError):
    """Raised when the simulator is used incorrectly (e.g. scheduling in the past)."""


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial simulation clock value in nanoseconds (defaults to 0).

    Notes
    -----
    The simulator only advances time when :meth:`run` is called;
    callbacks scheduled by other callbacks at the current time are
    executed in FIFO order before the clock moves on.
    """

    __slots__ = (
        "now",
        "_heap",
        "_seq",
        "_running",
        "_processed",
        "_cancelled_pending",
        "_free",
        "_horizon",
    )

    #: Minimum heap size before lazy-cancellation compaction kicks in; below
    #: this the scan costs more than the memory it reclaims.
    COMPACT_MIN_HEAP = 64

    #: Largest number of recycled Event objects kept on the freelist; beyond
    #: this the spike is returned to the allocator instead of being pinned
    #: forever.  A class attribute so tests can subclass with ``0`` to get a
    #: no-freelist reference engine.
    FREELIST_MAX = 4096

    def __init__(self, start_time: int = 0) -> None:
        #: Current simulation time in nanoseconds: a plain slot, not a
        #: property, since every timer and carrier-sense edge reads it.
        #: Only :meth:`run` and the signal-run walker write it.
        self.now: int = int(start_time)
        self._heap: List[HeapEntry] = []
        self._seq: int = 0
        self._running: bool = False
        self._processed: int = 0
        self._cancelled_pending: int = 0
        self._free: List[Event] = []
        #: Latest time at which the run walker may fire an item inline.
        self._horizon: int = _INLINE_NEVER

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    @property
    def processed_events(self) -> int:
        """Number of callbacks executed so far (cancelled events excluded)."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of heap entries still pending, cancelled ones included.

        A signal run's remaining items share one entry.
        """
        return len(self._heap)

    @property
    def cancelled_pending_events(self) -> int:
        """Number of cancelled events still occupying heap slots."""
        return self._cancelled_pending

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` nanoseconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        when = self.now + int(delay)
        seq = self._seq
        self._seq = seq + 1
        free = self._free
        if free:
            event = free.pop()
            event.time = when
            event.seq = seq
            event.callback = callback
            event.args = args
            event.cancelled = False
        else:
            event = Event(when, seq, callback, args, self._note_cancelled)
        heapq.heappush(self._heap, (when, seq, event))
        return event

    def schedule_at(self, when: int, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run at absolute time ``when``."""
        when = int(when)
        if when < self.now:
            raise SimulationError(
                f"cannot schedule at {when} ns, current time is {self.now} ns"
            )
        seq = self._seq
        self._seq = seq + 1
        free = self._free
        if free:
            event = free.pop()
            event.time = when
            event.seq = seq
            event.callback = callback
            event.args = args
            event.cancelled = False
        else:
            event = Event(when, seq, callback, args, self._note_cancelled)
        heapq.heappush(self._heap, (when, seq, event))
        return event

    def schedule_signal(self, when: int, callback: Callable[..., None], arg: Any) -> None:
        """Hot-path variant of :meth:`schedule_at` for channel signal events.

        Skips the public-API conveniences — integer coercion, the
        past-scheduling guard, and returning a handle — because the caller
        (PHY dispatch) schedules these in bulk, always in the future, and
        never cancels them.  No :class:`Event` is allocated at all: the
        heap entry *is* the event (``(when, seq, callback, arg)``), which
        is what makes the signal path allocation-free.
        """
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (when, seq, callback, arg))

    def schedule_runs(
        self,
        start: int,
        end: int,
        items: List[Tuple[int, Callable[..., None], Callable[..., None]]],
        payloads: List[Any],
    ) -> None:
        """Schedule a frame's signal windows as two signal runs (see the module notes).

        ``items`` holds ``(offset, open_callback, close_callback)`` tuples
        sorted by ``offset``, and ``payloads[i]`` belongs to ``items[i]``.
        Window ``i`` opens with ``open_callback(payloads[i])`` at
        ``start + offset`` and closes with ``close_callback(payloads[i])``
        at ``end + offset``; its opening takes sequence number ``s + 2i``
        and its closing ``s + 2i + 1``, where ``s`` is the next free one.
        Both runs go on the heap as one entry each.  Like
        :meth:`schedule_signal`, this is a hot path: it checks nothing
        (``items`` must not be empty), and the caller never cancels a
        window.
        """
        seq = self._seq
        self._seq = seq + 2 * len(items)
        offset = items[0][0]
        fire = self._fire_run
        heap = self._heap
        heapq.heappush(heap, (start + offset, seq, fire, [0, start, seq, 1, items, payloads]))
        heapq.heappush(heap, (end + offset, seq + 1, fire, [0, end, seq + 1, 2, items, payloads]))

    def _fire_run(self, run: List[Any]) -> None:
        """Fire a signal run's next item, then each later one that is due first.

        ``run`` is ``[index, base, seq, slot, items, payloads]``: item ``i``
        fires ``items[i][slot](payloads[i])`` at ``base + items[i][0]`` with
        sequence number ``seq + 2i``.  The caller has set the clock to item
        ``index`` and counts it; every item fired inline is counted here.
        If a callback raises, the items after it go back on the heap.
        """
        index, base, seq, slot, items, payloads = run
        heap = self._heap
        horizon = self._horizon
        end = len(items)
        try:
            items[index][slot](payloads[index])
            index += 1
            while index < end:
                item = items[index]
                when = base + item[0]
                if when > horizon:
                    break
                if heap:
                    top_time = heap[0][0]
                    if when > top_time or (when == top_time and seq + 2 * index > heap[0][1]):
                        break
                self.now = when
                item[slot](payloads[index])
                index += 1
                self._processed += 1
            else:
                return
        except BaseException:
            if index > run[0]:
                self._processed += 1  # the caller counts the first item only on return
            index += 1  # the item that raised is spent, as a popped entry would be
            if index < end:
                run[0] = index
                heapq.heappush(heap, (base + items[index][0], seq + 2 * index, self._fire_run, run))
            raise
        run[0] = index
        heapq.heappush(heap, (when, seq + 2 * index, self._fire_run, run))

    def _note_cancelled(self) -> None:
        """Bookkeeping hook invoked by :meth:`Event.cancel`.

        Lazy cancellation leaves the heap entry in place; once more than half
        of the heap is dead weight the whole structure is rebuilt so that long
        runs with heavy timer churn cannot grow memory unboundedly.
        """
        self._cancelled_pending += 1
        if (
            len(self._heap) >= self.COMPACT_MIN_HEAP
            and self._cancelled_pending * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify (in place: see module notes).

        Dropped entries release their :class:`Event` objects back to the
        freelist — compaction is one of the three places a heap entry is
        consumed (with fire and popped-as-cancelled), and recycling is
        tied to entry consumption, never to ``cancel()`` itself.
        """
        live: List[HeapEntry] = []
        append = live.append
        free = self._free
        free_max = self.FREELIST_MAX
        for entry in self._heap:
            if len(entry) == 3 and entry[2].cancelled:
                if len(free) < free_max:
                    free.append(entry[2])
            else:
                append(entry)
        self._heap[:] = live
        heapq.heapify(self._heap)
        self._cancelled_pending = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> None:
        """Run until the event queue empties, ``until`` is reached, or ``max_events`` fire.

        ``until`` is an absolute time in nanoseconds; events scheduled exactly
        at ``until`` are executed, later ones are left pending and the clock
        is advanced to ``until``.  When ``max_events`` stops the run first the
        clock only advances to ``until`` if no runnable event at or before
        ``until`` remains pending — otherwise it stays at the last executed
        event so a later ``run`` call can resume without time going backwards.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run call)")
        self._running = True
        executed = 0
        truncated = False
        # The hot loop: local aliases save an attribute lookup per event, and the
        # optional bounds collapse to plain integer compares (budget counts
        # down from -1 forever when max_events is None and never hits zero;
        # horizon is pushed beyond any event time when until is None).
        heap = self._heap
        heappop = heapq.heappop
        free = self._free
        free_max = self.FREELIST_MAX
        budget = -1 if max_events is None else max_events
        unbounded = until is None
        horizon = 0 if until is None else until
        if max_events is None:
            self._horizon = _INLINE_ALWAYS if unbounded else horizon
        try:
            while heap:
                entry = heap[0]
                when = entry[0]
                if not unbounded and when > horizon:
                    break
                if budget == 0:
                    truncated = True
                    break
                budget -= 1
                heappop(heap)
                if len(entry) == 4:
                    # Signal fast path: fixed-shape, never cancelled.
                    if when < self.now:
                        raise SimulationError("event heap corrupted: time went backwards")
                    self.now = when
                    entry[2](entry[3])
                    executed += 1
                    continue
                event = entry[2]
                if event.cancelled:
                    self._cancelled_pending -= 1
                    if len(free) < free_max:
                        free.append(event)
                    budget += 1  # consumed a dead entry, not an event
                    continue
                if when < self.now:
                    raise SimulationError("event heap corrupted: time went backwards")
                self.now = when
                event.cancelled = True  # guards against stale-handle re-execution
                event.callback(*event.args)
                if len(free) < free_max:
                    free.append(event)
                executed += 1
            if until is not None and until > self.now:
                if not truncated or not self._has_runnable_event_before(until):
                    self.now = until
        finally:
            self._processed += executed
            self._running = False
            self._horizon = _INLINE_NEVER

    def _has_runnable_event_before(self, when: int) -> bool:
        """Whether any non-cancelled event at or before ``when`` is pending."""
        return any(
            entry[0] <= when and (len(entry) == 4 or not entry[2].cancelled)
            for entry in self._heap
        )
