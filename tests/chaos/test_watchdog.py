"""Tests for the liveness watchdog: verdicts, recovery, diagnosis."""

from types import SimpleNamespace

import pytest

from repro.chaos.watchdog import LivenessWatchdog, StallDiagnosis, WatchdogConfig
from repro.runtime_events.events import WatchdogRecovered, WatchdogStalled
from repro.chaos.inject import FaultLog
from tests.helpers import make_dataflow


class FakeProbe:
    """A controllable stand-in for the S output probe."""

    def __init__(self):
        self._callbacks = []
        self._done = False
        self._frontier = (0,)

    def on_advance(self, callback):
        self._callbacks.append(callback)

    def done(self):
        return self._done

    def frontier(self):
        return self._frontier

    def advance(self, frontier=(1,)):
        self._frontier = frontier
        for callback in list(self._callbacks):
            callback(frontier)

    def finish(self):
        self._done = True


def build():
    df = make_dataflow(num_workers=2, workers_per_process=2)
    stream, group = df.new_input("data")
    stream.sink(lambda w, t, recs: None)
    runtime = df.build()
    group.close_all()
    return runtime


def test_config_validation():
    with pytest.raises(ValueError):
        WatchdogConfig(poll_interval_s=0.0)
    with pytest.raises(ValueError):
        WatchdogConfig(stall_after_s=0.0)
    with pytest.raises(ValueError):
        WatchdogConfig(stall_after_s=5.0, give_up_after_s=1.0)


def test_clean_run_completes():
    runtime = build()
    probe = FakeProbe()
    watchdog = LivenessWatchdog(
        runtime, probe, WatchdogConfig(0.05, 0.2, 1.0)
    )
    watchdog.start()
    runtime.sim.schedule_at(0.04, probe.finish)
    runtime.sim.run(until=2.0)
    assert watchdog.verdict == "completed"
    assert not watchdog.failed
    assert watchdog.recoveries == 0


def test_stall_then_advance_is_recovered():
    runtime = build()
    log = FaultLog(runtime.sim.trace)
    probe = FakeProbe()
    nudged = []
    controller = SimpleNamespace(nudge=lambda: nudged.append(runtime.sim.now))
    watchdog = LivenessWatchdog(
        runtime,
        probe,
        WatchdogConfig(0.05, 0.2, 5.0),
        controller=controller,
    )
    watchdog.start()
    # Nothing advances until 0.5s: well past the 0.2s stall threshold.
    runtime.sim.schedule_at(0.5, probe.advance)
    runtime.sim.schedule_at(0.6, probe.finish)
    runtime.sim.run(until=2.0)
    assert watchdog.verdict == "recovered"
    assert watchdog.recoveries == 1
    assert not watchdog.failed
    # The stall nudged the controller once, with a structured diagnosis.
    assert len(nudged) == 1
    (diagnosis,) = watchdog.diagnoses
    assert isinstance(diagnosis, StallDiagnosis)
    assert diagnosis.at == nudged[0]
    assert log.count(WatchdogStalled) == 1
    assert log.count(WatchdogRecovered) == 1


def test_give_up_produces_stalled_verdict_and_diagnosis():
    runtime = build()
    probe = FakeProbe()
    watchdog = LivenessWatchdog(
        runtime, probe, WatchdogConfig(0.05, 0.2, 0.5)
    )
    watchdog.start()
    # Keep the clock moving without ever advancing the probe.
    runtime.sim.schedule_at(1.5, lambda: None)
    runtime.sim.run(until=2.0)
    assert watchdog.verdict == "stalled"
    assert watchdog.failed
    assert watchdog.diagnoses
    diagnosis = watchdog.diagnoses[-1]
    assert diagnosis.frontier == (0,)
    assert diagnosis.last_advance_at == 0.0
    assert "stalled" in diagnosis.describe()


def test_advances_keep_watchdog_quiet():
    runtime = build()
    log = FaultLog(runtime.sim.trace)
    probe = FakeProbe()
    watchdog = LivenessWatchdog(
        runtime, probe, WatchdogConfig(0.05, 0.2, 1.0)
    )
    watchdog.start()
    for i in range(1, 10):
        runtime.sim.schedule_at(i * 0.1, lambda i=i: probe.advance((i,)))
    runtime.sim.schedule_at(1.0, probe.finish)
    runtime.sim.run(until=3.0)
    assert watchdog.verdict == "completed"
    assert log.count(WatchdogStalled) == 0
