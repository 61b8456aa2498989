"""Tests for the discrete-event kernel."""

import pytest

from repro.simmachine.events import (
    Event,
    InstrumentedSimulator,
    ScrambledTieSimulator,
    Simulator,
    _mix64,
)
from repro.util.errors import SimulationError


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, lambda: fired.append("b"))
    sim.schedule(1.0, lambda: fired.append("a"))
    sim.schedule(3.0, lambda: fired.append("c"))
    sim.run()
    assert fired == ["a", "b", "c"]


def test_same_time_events_fire_in_scheduling_order():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(1.0, lambda i=i: fired.append(i))
    sim.run()
    assert fired == list(range(10))


def test_now_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(5.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [5.0]
    assert sim.now == 5.0


def test_schedule_from_within_callback():
    sim = Simulator()
    fired = []

    def first():
        fired.append(("first", sim.now))
        sim.schedule(1.5, lambda: fired.append(("second", sim.now)))

    sim.schedule(1.0, first)
    sim.run()
    assert fired == [("first", 1.0), ("second", 2.5)]


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(10.0, lambda: fired.append(10))
    sim.run(until=5.0)
    assert fired == [1]
    assert sim.now == 5.0  # advanced exactly to the horizon
    sim.run()  # remaining event still live
    assert fired == [1, 10]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    ev = sim.schedule(1.0, lambda: fired.append("x"))
    sim.schedule(2.0, lambda: fired.append("y"))
    sim.cancel(ev)
    sim.run()
    assert fired == ["y"]


def test_cancel_is_idempotent_and_pending_tracks_live_events():
    sim = Simulator()
    ev = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending == 2
    sim.cancel(ev)
    sim.cancel(ev)
    assert sim.pending == 1


def test_scheduling_into_the_past_raises():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_step_returns_false_on_empty_queue():
    sim = Simulator()
    assert sim.step() is False


def test_zero_delay_event_fires_at_current_time():
    sim = Simulator()
    times = []
    sim.schedule(1.0, lambda: sim.schedule(0.0, lambda: times.append(sim.now)))
    sim.run()
    assert times == [1.0]


def test_max_events_guard():
    sim = Simulator()

    def loop():
        sim.schedule(0.0, loop)

    sim.schedule(0.0, loop)
    with pytest.raises(SimulationError):
        sim.run(max_events=1000)


# ----------------------------------------------------------------------
# Heap entries are (time, seq, Event) tuples


def test_heap_holds_time_seq_event_tuples():
    sim = Simulator()
    ev = sim.schedule(1.5, lambda: None)
    assert sim._heap == [(1.5, 0, ev)]
    assert isinstance(ev, Event) and (ev.time, ev.seq) == (1.5, 0)
    assert ev.origin is None
    with pytest.raises(AttributeError):
        ev.unknown_tag = 1          # __slots__: no per-event dict


def test_cancelled_tuple_entry_is_skipped_by_step_and_peek():
    sim = Simulator()
    fired = []
    first = sim.schedule(1.0, lambda: fired.append("first"))
    sim.schedule(2.0, lambda: fired.append("second"))
    sim.cancel(first)
    # the cancelled entry still heads the heap (lazy deletion) ...
    assert sim._heap[0][2] is first
    # ... but the peek drops it and reports the next live time
    assert sim._peek_time() == 2.0
    assert sim.step() is True
    assert fired == ["second"] and sim.now == 2.0
    assert sim.step() is False


def test_pending_counts_live_tuple_entries():
    sim = Simulator()
    evs = [sim.schedule(float(t), lambda: None) for t in (3, 1, 2, 1)]
    assert sim.pending == 4 and len(sim._heap) == 4
    sim.cancel(evs[1])
    sim.cancel(evs[1])
    assert sim.pending == 3 and len(sim._heap) == 4
    sim.step()
    assert sim.pending == 2
    sim.run()
    assert sim.pending == 0 and sim._heap == []


def test_instrumented_simulator_tags_origin_on_the_event():
    sim = InstrumentedSimulator()

    def subsystem_a():
        return sim.schedule_at(1.0, lambda: None)

    def subsystem_b():
        return sim.schedule(1.0, lambda: None)

    ev_a, ev_b = subsystem_a(), subsystem_b()
    assert ev_a.origin.endswith(":subsystem_a")
    assert ev_b.origin.endswith(":subsystem_b")
    # the heap entry carries the tagged event itself
    assert {entry[2] for entry in sim._heap} == {ev_a, ev_b}
    sim.run()
    (group,) = sim.finish()
    assert group.time == 1.0
    assert group.origins == (ev_a.origin, ev_b.origin)


def test_scrambled_same_time_tie_orders_by_unique_key():
    fired = []
    sim = ScrambledTieSimulator(seed=5)
    evs = [sim.schedule_at(1.0, lambda i=i: fired.append(i))
           for i in range(16)]
    keys = [ev.seq for ev in evs]
    # splitmix64 is a bijection: every insertion index gets its own key,
    # so tuple comparison never falls through to the Event
    assert len(set(keys)) == len(keys)
    assert keys == [_mix64(sim._scramble_seed ^ i) for i in range(16)]
    sim.run()
    assert fired == sorted(range(16), key=lambda i: keys[i])
    assert fired != list(range(16))        # a real permutation
    # time still dominates the scrambled key
    late = ScrambledTieSimulator(seed=5)
    order = []
    late.schedule_at(2.0, lambda: order.append("late"))
    late.schedule_at(1.0, lambda: order.append("early"))
    late.run()
    assert order == ["early", "late"]


def test_scrambled_tie_with_cancelled_entry():
    sim = ScrambledTieSimulator(seed=2)
    fired = []
    evs = [sim.schedule_at(1.0, lambda i=i: fired.append(i))
           for i in range(4)]
    sim.cancel(evs[2])
    sim.run()
    assert sorted(fired) == [0, 1, 3]
    assert sim.pending == 0
