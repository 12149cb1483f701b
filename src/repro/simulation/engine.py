"""A minimal, fast discrete-event simulation engine.

The engine keeps a binary heap of scheduled callbacks. Events are
cancellable (lazy deletion), deterministically ordered by
``(time, priority, sequence)`` so that runs are reproducible for a given
seed, and carry arbitrary positional arguments for their callback.

Performance notes (the engine is the hot path of every simulator):

* heap entries are plain ``(time, priority, seq, handle)`` tuples, so
  ``heapq`` compares them in C instead of dispatching to
  ``EventHandle.__lt__`` — the ``seq`` component is unique, so the
  handle itself is never compared;
* cancelled events are lazily deleted, but the heap is *compacted*
  (filter + ``heapify``) once tombstones dominate, keeping pushes and
  pops logarithmic in the number of *live* events.  ``heapify`` of the
  filtered entries preserves the dispatch order exactly because the
  ``(time, priority, seq)`` key is a total order;
* :meth:`Simulator.schedule_many` amortizes bulk insertion (probe
  bursts, trace arrivals) by choosing between repeated pushes and a
  single ``heapify`` based on the relative batch size;
* events that are never cancelled and arrive in nondecreasing time
  order (the decentralized plane's control messages, which all pay one
  constant delay) skip the heap: :meth:`Simulator.post` appends them to
  a FIFO *lane* in O(1). A lane entry is ``(time, 0, seq, fn, args)``
  and takes the next sequence number, exactly as ``schedule_at(time,
  fn, *args)`` would; the dispatch loop runs the lane head whenever its
  ``(time, 0, seq)`` key sorts before the live heap head's ``(time,
  priority, seq)``. The two queues therefore merge into the same total
  order the heap alone gives, so dispatch order, ``events_processed``
  and the ``until`` / ``max_events`` stops are unchanged. ``post``
  rejects a time earlier than ``now`` or than the lane's last entry and
  returns no handle;
* the dispatch loop binds its hot attributes to locals.

Example
-------
>>> sim = Simulator()
>>> fired = []
>>> handle = sim.schedule(5.0, fired.append, "a")
>>> _ = sim.schedule(1.0, fired.append, "b")
>>> sim.run()
>>> fired
['b', 'a']
"""

from __future__ import annotations

import heapq
import time as _time
from collections import deque
from typing import Any, Callable, Deque, Iterable, List, Optional, Tuple

#: Compaction never triggers below this many tombstones (tiny heaps are
#: cheap to scan and rebuilding them would be pure overhead).
_COMPACT_MIN_TOMBSTONES = 256


class SimulationError(RuntimeError):
    """Raised on invalid use of the engine (e.g. scheduling in the past)."""


class EventHandle:
    """Handle for a scheduled event, usable to cancel it.

    Attributes
    ----------
    time:
        Absolute simulation time at which the event fires.
    cancelled:
        True once :meth:`cancel` has been called (or the event fired).
    """

    __slots__ = ("time", "priority", "seq", "fn", "args", "cancelled", "_sim")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        fn: Callable[..., None],
        args: tuple,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn: Optional[Callable[..., None]] = fn
        self.args = args
        self.cancelled = False
        self._sim: Optional["Simulator"] = None

    def cancel(self) -> None:
        """Cancel the event; a no-op if it already fired or was cancelled."""
        if self.cancelled:
            return
        self.cancelled = True
        self.fn = None
        self.args = ()
        sim = self._sim
        if sim is not None:
            self._sim = None
            sim._tombstones += 1

    def __lt__(self, other: "EventHandle") -> bool:
        return (self.time, self.priority, self.seq) < (
            other.time,
            other.priority,
            other.seq,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time:.4f}, seq={self.seq}, {state})"


class Simulator:
    """Discrete-event simulator with cancellable, prioritised events.

    Parameters
    ----------
    start_time:
        Initial value of the simulation clock (default 0.0).
    obs:
        Optional :class:`repro.obs.Obs` bundle. The engine itself only
        uses it coarsely — one ``engine.dispatch`` wall-timer sample per
        :meth:`run` call and an ``engine.compactions`` counter — so the
        per-event dispatch loop stays untouched either way.
    """

    __slots__ = (
        "_now",
        "_heap",
        "_lane",
        "_seq",
        "_events_processed",
        "_running",
        "_tombstones",
        "_obs",
    )

    def __init__(self, start_time: float = 0.0, obs: Optional[Any] = None) -> None:
        self._now = float(start_time)
        # (time, priority, seq, handle) tuples; seq is unique so the
        # handle component is never compared.
        self._heap: List[Tuple[float, int, int, EventHandle]] = []
        # (time, 0, seq, fn, args) tuples in nondecreasing (time, seq)
        # order; see post().
        self._lane: Deque[tuple] = deque()
        self._seq = 0
        self._events_processed = 0
        self._running = False
        self._tombstones = 0  # cancelled-but-still-queued entries
        self._obs = obs

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including cancelled stubs)."""
        return len(self._heap) + len(self._lane)

    def sequence_marker(self) -> int:
        """Opaque counter that advances on every scheduled event.

        Two observations of the same marker value bracket a window in
        which *nothing* was scheduled — batching layers (see
        ``repro.decentralized.simulator``) use this to prove that
        coalescing consecutive same-time messages into one event cannot
        reorder them relative to any other event.
        """
        return self._seq

    def credit_events(self, count: int) -> None:
        """Count ``count`` extra logical events as processed.

        Batched deliveries execute many logical events inside one engine
        event; crediting keeps :attr:`events_processed` comparable with
        the unbatched engine (one increment per delivered callback).
        """
        if count < 0:
            raise SimulationError(f"negative event credit: {count}")
        self._events_processed += count

    def schedule(
        self,
        delay: float,
        fn: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` time units from now.

        ``priority`` breaks ties among events at the same timestamp; lower
        values run first.
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.schedule_at(self._now + delay, fn, *args, priority=priority)

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute simulation time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, priority, seq, fn, args)
        handle._sim = self
        heapq.heappush(self._heap, (time, priority, seq, handle))
        if self._tombstones > _COMPACT_MIN_TOMBSTONES:
            self._maybe_compact()
        return handle

    def post(self, time: float, fn: Callable[..., None], *args: Any) -> None:
        """Queue ``fn(*args)`` at ``time`` on the FIFO lane.

        Dispatches exactly like ``schedule_at(time, fn, *args)`` (priority
        0, the next sequence number) but costs an append instead of a
        heap push. The caller promises the event is never cancelled (no
        handle is returned) and that its posts come in nondecreasing
        time order; a time earlier than ``now`` or than the lane's last
        entry raises :class:`SimulationError`.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot post at {time} before current time {self._now}"
            )
        lane = self._lane
        if lane and time < lane[-1][0]:
            raise SimulationError(
                f"cannot post at {time} before the lane's last entry at "
                f"{lane[-1][0]}"
            )
        seq = self._seq
        self._seq = seq + 1
        lane.append((time, 0, seq, fn, args))

    def schedule_many(
        self,
        items: Iterable[Tuple[float, Callable[..., None], tuple]],
        *,
        absolute: bool = False,
        priority: int = 0,
    ) -> List[EventHandle]:
        """Batched :meth:`schedule`: one ``(delay, fn, args)`` per item.

        With ``absolute=True`` the first element of each item is an
        absolute timestamp instead of a delay. Equivalent to calling
        :meth:`schedule` / :meth:`schedule_at` once per item in order
        (identical sequence numbers, hence identical dispatch order),
        but large batches are inserted with a single ``heapify`` instead
        of one sift per event.
        """
        now = self._now
        heap = self._heap
        seq = self._seq
        entries: List[Tuple[float, int, int, EventHandle]] = []
        handles: List[EventHandle] = []
        for time, fn, args in items:
            if not absolute:
                time = now + time
            if time < now:
                raise SimulationError(
                    f"cannot schedule at {time} before current time {now}"
                )
            handle = EventHandle(time, priority, seq, fn, tuple(args))
            handle._sim = self
            entries.append((time, priority, seq, handle))
            handles.append(handle)
            seq += 1
        self._seq = seq
        # k pushes cost ~k*log2(n); extend+heapify costs ~(n+k). Pick the
        # cheaper; both yield the same heap *order* (total order by key).
        k, n = len(entries), len(heap)
        if k and n + k > 0 and k * max((n + k).bit_length(), 1) > n + k:
            heap.extend(entries)
            heapq.heapify(heap)
        else:
            push = heapq.heappush
            for entry in entries:
                push(heap, entry)
        if self._tombstones > _COMPACT_MIN_TOMBSTONES:
            self._maybe_compact()
        return handles

    def _maybe_compact(self) -> None:
        """Rebuild the heap without tombstones once they dominate.

        Order-preserving: the filtered entries are re-heapified and the
        ``(time, priority, seq)`` key is a total order, so subsequent
        pops return live events in exactly the original sequence.
        """
        heap = self._heap
        if self._tombstones * 2 <= len(heap):
            return
        self._heap = [entry for entry in heap if not entry[3].cancelled]
        heapq.heapify(self._heap)
        self._tombstones = 0
        if self._obs is not None:
            self._obs.counters.inc("engine.compactions")

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run events until the queue empties, ``until`` passes, or
        ``max_events`` have executed. Returns the final clock value.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        self._running = True
        executed = 0
        heap = self._heap
        lane = self._lane
        pop = heapq.heappop
        popleft = lane.popleft
        unbounded = until is None and max_events is None
        obs = self._obs
        started = _time.perf_counter() if obs is not None else 0.0
        try:
            while True:
                if lane:
                    # The lane head runs first iff its (time, 0, seq) key
                    # sorts before the heap head's (time, priority, seq);
                    # seq is unique, so the tuples never compare past
                    # their third element. A cancelled heap head that
                    # sorts first is popped below, then compared again.
                    item = lane[0]
                    if not heap or item < heap[0]:
                        if not unbounded:
                            if until is not None and item[0] > until:
                                break
                            if max_events is not None and executed >= max_events:
                                break
                        popleft()
                        self._now = item[0]
                        item[3](*item[4])
                        executed += 1
                        self._events_processed += 1
                        if heap is not self._heap:  # a callback compacted
                            heap = self._heap
                        continue
                elif not heap:
                    break
                entry = heap[0]
                head = entry[3]
                if head.cancelled:
                    pop(heap)
                    self._tombstones -= 1
                    continue
                if not unbounded:
                    if until is not None and entry[0] > until:
                        break
                    if max_events is not None and executed >= max_events:
                        break
                pop(heap)
                self._now = entry[0]
                fn, args = head.fn, head.args
                # Mark consumed so stale handles are inert — without
                # going through cancel(), which would count a tombstone.
                head.cancelled = True
                head.fn = None
                head.args = ()
                head._sim = None
                assert fn is not None
                fn(*args)
                executed += 1
                self._events_processed += 1
                if heap is not self._heap:  # a callback forced compaction
                    heap = self._heap
        finally:
            self._running = False
            if obs is not None:
                obs.timers.add(
                    "engine.dispatch", _time.perf_counter() - started
                )
        if until is not None:
            if heap or lane:
                # The earliest queued time; a cancelled heap stub counts,
                # as it always has.
                following = heap[0][0] if heap else lane[0][0]
                if lane and lane[0][0] < following:
                    following = lane[0][0]
                if following > until:
                    self._now = until
            elif self._now < until:
                self._now = until
        return self._now

    def peek_next_time(self) -> Optional[float]:
        """Time of the next pending (non-cancelled) event, or None."""
        heap = self._heap
        lane = self._lane
        # Drop cancelled heap heads only while they are next in line, as
        # run() does.
        while heap and heap[0][3].cancelled and not (lane and lane[0] < heap[0]):
            heapq.heappop(heap)
            self._tombstones -= 1
        if lane and (not heap or lane[0] < heap[0]):
            return lane[0][0]
        return heap[0][0] if heap else None
