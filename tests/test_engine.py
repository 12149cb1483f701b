"""Unit tests for the discrete-event engine."""

import random

import pytest

from repro.simulation.engine import SimulationError, Simulator


def test_events_run_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, "late")
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(3.0, fired.append, "middle")
    sim.run()
    assert fired == ["early", "middle", "late"]


def test_clock_advances_to_event_times():
    sim = Simulator()
    times = []
    sim.schedule(2.5, lambda: times.append(sim.now))
    sim.schedule(7.0, lambda: times.append(sim.now))
    sim.run()
    assert times == [2.5, 7.0]
    assert sim.now == 7.0


def test_ties_break_by_priority_then_sequence():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "b", priority=1)
    sim.schedule(1.0, fired.append, "a", priority=0)
    sim.schedule(1.0, fired.append, "c", priority=1)
    sim.run()
    assert fired == ["a", "b", "c"]


def test_cancelled_events_do_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "cancelled")
    sim.schedule(2.0, fired.append, "kept")
    handle.cancel()
    sim.run()
    assert fired == ["kept"]


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()
    assert sim.events_processed == 0


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "in")
    sim.schedule(10.0, fired.append, "out")
    sim.run(until=5.0)
    assert fired == ["in"]
    assert sim.now == 5.0
    sim.run()
    assert fired == ["in", "out"]


def test_run_max_events():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule(float(i + 1), fired.append, i)
    sim.run(max_events=2)
    assert fired == [0, 1]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_zero_delay_allowed():
    sim = Simulator()
    fired = []
    sim.schedule(0.0, fired.append, "now")
    sim.run()
    assert fired == ["now"]
    assert sim.now == 0.0


def test_peek_next_time_skips_cancelled():
    sim = Simulator()
    h1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    h1.cancel()
    assert sim.peek_next_time() == 2.0


def test_events_processed_counter():
    sim = Simulator()
    for i in range(4):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_processed == 4


def test_handle_args_passed_through():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda a, b: seen.append((a, b)), 1, "x")
    sim.run()
    assert seen == [(1, "x")]


def test_start_time_offset():
    sim = Simulator(start_time=100.0)
    assert sim.now == 100.0
    fired = []
    sim.schedule(1.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [101.0]


# -- the FIFO lane (Simulator.post) -------------------------------------------


def test_post_runs_in_fifo_order_with_the_heap():
    sim = Simulator()
    fired = []
    sim.post(1.0, fired.append, "lane-a")
    sim.schedule_at(1.0, fired.append, "heap-late", priority=1)
    sim.schedule_at(1.0, fired.append, "heap-early", priority=-1)
    sim.post(1.0, fired.append, "lane-b")
    sim.schedule_at(0.5, fired.append, "heap-first")
    assert sim.pending_events == 5
    assert sim.peek_next_time() == 0.5
    sim.run()
    # Lane entries are priority 0 and ordered by their sequence number.
    assert fired == ["heap-first", "heap-early", "lane-a", "lane-b", "heap-late"]
    assert sim.events_processed == 5
    assert sim.pending_events == 0


def test_post_rejects_a_time_before_now_or_the_lane_tail():
    sim = Simulator()
    sim.schedule_at(2.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.post(1.0, lambda: None)
    sim.post(3.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.post(2.5, lambda: None)
    sim.post(3.0, lambda: None)  # equal times are in order
    assert sim.pending_events == 2


class _Script:
    """Drives one simulator through a seeded random script of events.

    ``lane`` events are queued with :meth:`Simulator.post` when
    ``use_lane`` is set and with ``schedule_at`` otherwise; everything
    else (times, priorities, cancellations, run cut-offs, the events a
    callback schedules) comes from the same random stream, so two
    scripts with one seed issue identical calls as long as their events
    fire in the same order.
    """

    def __init__(self, seed, use_lane):
        self.sim = Simulator()
        self.rng = random.Random(seed)
        self.use_lane = use_lane
        self.fired = []
        self.handles = []  # heap events only: lane events are never cancelled
        self.lane_tail = 0.0
        self.next_id = 0

    def _fire(self, event_id):
        self.fired.append((event_id, self.sim.now, self.sim.events_processed))
        if self.rng.random() < 0.4:  # a callback that schedules and posts
            self.add(self.rng.randint(1, 3))

    def _id(self):
        self.next_id += 1
        return self.next_id

    def add(self, count):
        sim, rng = self.sim, self.rng
        for _ in range(count):
            kind = rng.randrange(5)
            if kind < 2:
                time = max(sim.now, self.lane_tail) + rng.choice((0.0, 0.0, 0.5, 1.0))
                self.lane_tail = time
                if self.use_lane:
                    sim.post(time, self._fire, self._id())
                else:
                    sim.schedule_at(time, self._fire, self._id())
                continue
            time = sim.now + rng.choice((0.0, 0.5, 1.0, 1.5))
            priority = rng.choice((-1, 0, 1))
            if kind == 2:
                self.handles.append(
                    sim.schedule_at(time, self._fire, self._id(), priority=priority)
                )
            elif kind == 3:
                self.handles.append(
                    sim.schedule(
                        time - sim.now, self._fire, self._id(), priority=priority
                    )
                )
            else:
                items = [
                    (time + rng.choice((0.0, 0.5)), self._fire, (self._id(),))
                    for _ in range(rng.randint(1, 3))
                ]
                self.handles.extend(
                    sim.schedule_many(items, absolute=True, priority=priority)
                )
            if self.handles and rng.random() < 0.3:
                rng.choice(self.handles).cancel()

    def play(self, rounds):
        sim, rng = self.sim, self.rng
        states = []
        for _ in range(rounds):
            self.add(rng.randint(1, 4))
            mode = rng.randrange(3)
            if mode == 0:
                sim.run(until=sim.now + rng.choice((0.0, 0.5, 1.0, 2.0)))
            elif mode == 1:
                sim.run(max_events=1)
            states.append(self.state() + (sim.peek_next_time(),))
        sim.run()
        states.append(self.state())
        return states

    def state(self):
        return (self.sim.now, self.sim.events_processed, self.sim.pending_events)


@pytest.mark.parametrize("seed", range(40))
def test_lane_dispatches_exactly_like_the_heap(seed):
    with_lane, heap_only = _Script(seed, True), _Script(seed, False)
    assert with_lane.play(30) == heap_only.play(30)
    assert with_lane.fired == heap_only.fired
    assert len(with_lane.fired) > 30  # the script did fire events
