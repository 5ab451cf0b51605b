"""Unit tests for simulated processes, timers, and periodic tasks."""

import pytest

from repro.sim import Engine, Process, Timer
from repro.sim.engine import SimulationError


def test_process_after_schedules_work():
    engine = Engine()
    process = Process(engine, "p")
    fired = []
    process.after(1.0, fired.append, "x")
    engine.run_until_idle()
    assert fired == ["x"]


def test_killed_process_cancels_pending_work():
    engine = Engine()
    process = Process(engine, "p")
    fired = []
    process.after(1.0, fired.append, "x")
    process.kill()
    engine.run_until_idle()
    assert fired == []
    assert not process.alive


def test_dead_process_cannot_schedule():
    engine = Engine()
    process = Process(engine, "p")
    process.kill()
    with pytest.raises(SimulationError):
        process.after(1.0, lambda: None)


def test_crash_is_alias_for_kill():
    engine = Engine()
    process = Process(engine, "p")
    process.crash()
    assert not process.alive


def test_revive_allows_scheduling_again():
    engine = Engine()
    process = Process(engine, "p")
    process.kill()
    process.revive()
    fired = []
    process.after(0.5, fired.append, 1)
    engine.run_until_idle()
    assert fired == [1]


def test_kill_mid_run_stops_callbacks():
    engine = Engine()
    process = Process(engine, "p")
    fired = []
    process.after(1.0, lambda: (fired.append("a"), process.kill()))
    process.after(2.0, fired.append, "b")
    engine.run_until_idle()
    assert fired == [("a", None)] or fired[0][0] == "a"
    assert "b" not in fired


def test_every_repeats_until_killed():
    engine = Engine()
    process = Process(engine, "p")
    ticks = []
    process.every(1.0, lambda: ticks.append(engine.now))
    engine.run(until=5.5)
    assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]
    process.kill()
    engine.run(until=10.0)
    assert len(ticks) == 5


def test_periodic_task_stop():
    engine = Engine()
    process = Process(engine, "p")
    ticks = []
    task = process.every(1.0, lambda: ticks.append(1))
    engine.run(until=2.5)
    task.stop()
    engine.run(until=10.0)
    assert len(ticks) == 2


def test_periodic_interval_must_be_positive():
    engine = Engine()
    process = Process(engine, "p")
    with pytest.raises(SimulationError):
        process.every(0.0, lambda: None)


def test_timer_fires_once():
    engine = Engine()
    fired = []
    timer = Timer(engine, lambda: fired.append(engine.now))
    timer.start(2.0)
    engine.run_until_idle()
    assert fired == [2.0]
    assert timer.fired_count == 1
    assert not timer.armed


def test_timer_restart_replaces_deadline():
    engine = Engine()
    fired = []
    timer = Timer(engine, lambda: fired.append(engine.now))
    timer.start(2.0)
    engine.advance(1.0)
    timer.restart(2.0)  # now fires at t=3
    engine.run_until_idle()
    assert fired == [3.0]


def test_timer_stop_prevents_fire():
    engine = Engine()
    fired = []
    timer = Timer(engine, lambda: fired.append(1))
    timer.start(1.0)
    timer.stop()
    engine.run_until_idle()
    assert fired == []


def test_timer_deadline_property():
    engine = Engine()
    timer = Timer(engine, lambda: None)
    assert timer.deadline is None
    timer.start(4.0)
    assert timer.deadline == 4.0
    timer.stop()
    assert timer.deadline is None


def test_timer_rearm_after_fire():
    engine = Engine()
    fired = []
    timer = Timer(engine, lambda: fired.append(engine.now))
    timer.start(1.0)
    engine.run_until_idle()
    timer.start(1.0)
    engine.run_until_idle()
    assert fired == [1.0, 2.0]
    assert timer.fired_count == 2


# ----------------------------------------------------------------------
# owned-event bookkeeping: bounded list, amortised compaction
# ----------------------------------------------------------------------

def test_periodic_task_keeps_owned_events_bounded():
    # Fired events must leave the owned list: a 10,000-tick task holds
    # one live event at a time, so the list never outgrows one
    # compaction trigger.
    engine = Engine()
    process = Process(engine, "p")
    sizes = []
    task = process.every(0.001, lambda: sizes.append(len(process._owned_events)))
    engine.run(until=10.0005)
    assert task.ticks == 10_000
    assert max(sizes) <= 257
    assert len(process._owned_events) <= 257


def test_many_live_events_compact_logarithmically(monkeypatch):
    passes = []
    compact = Process._compact_owned

    def counting(self):
        passes.append(len(self._owned_events))
        compact(self)

    monkeypatch.setattr(Process, "_compact_owned", counting)
    engine = Engine()
    process = Process(engine, "p")
    events = [process.after(10.0, lambda: None) for _ in range(1000)]
    # 1,000 live events: passes at 257 and 515 entries, never per call
    assert passes == [257, 515]
    assert len(process._owned_events) == 1000
    # after they all fire, 1,000 more calls still cost a handful of
    # passes: one drops the fired ones, the rest track the live growth
    engine.run(until=10.0)
    assert all(event.fired for event in events)
    for _ in range(1000):
        process.after(1.0, lambda: None)
    assert passes[2:] == [1031, 257, 515]
    assert len(process._owned_events) == 1000


def test_kill_cancels_events_scheduled_after_compaction():
    engine = Engine()
    process = Process(engine, "p")
    fired = []
    early = [process.after(1.0, fired.append, "early") for _ in range(200)]
    engine.run(until=1.0)
    assert len(fired) == 200 and all(e.fired for e in early)
    # 200 fired + 100 live: the 257th call compacts the fired ones away
    late = [process.after(5.0 + i, fired.append, "late") for i in range(100)]
    assert len(process._owned_events) < 257
    late += [process.after(5.0, fired.append, "late") for _ in range(300)]
    process.kill()
    assert all(event.cancelled for event in late)
    engine.run_until_idle()
    assert fired.count("late") == 0
