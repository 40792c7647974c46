"""Tests for the autoscaler's threshold policy, driven sample by sample.

``Autoscaler.decide`` is separated from the simulation scheduling exactly
so these tests can feed it mean-load samples directly: no runtime, a
recording stub for the coordinator.
"""

import pytest

from repro.elastic import Autoscaler, AutoscalerConfig, MembershipDirectory


class StubCoordinator:
    """Records scale requests and settles the directory immediately."""

    def __init__(self, directory):
        self.directory = directory
        self.busy = False
        self.calls = []

    def scale_out(self, workers):
        self.calls.append(("out", tuple(workers)))
        for w in workers:
            self.directory.mark_joining(w)
            self.directory.mark_active(w)

    def scale_in(self, workers):
        self.calls.append(("in", tuple(workers)))
        for w in workers:
            self.directory.mark_draining(w)
            self.directory.mark_retired(w)


def make(config=None, num_workers=6, active_workers=4):
    directory = MembershipDirectory(num_workers, active_workers=active_workers)
    coordinator = StubCoordinator(directory)
    scaler = Autoscaler(
        runtime=None,
        telemetry=None,
        directory=directory,
        coordinator=coordinator,
        config=config
        or AutoscalerConfig(
            scale_out_load=1000.0,
            scale_in_load=200.0,
            trigger_samples=2,
            cooldown_s=3.0,
        ),
        stop_s=60.0,
    )
    return scaler, coordinator, directory


def test_single_spike_does_not_trigger():
    scaler, coordinator, _ = make()
    assert scaler.decide(5000.0, now=0.0) == "none"
    assert scaler.decide(500.0, now=0.5) == "none"  # band resets the streak
    assert scaler.decide(5000.0, now=1.0) == "none"
    assert coordinator.calls == []


def test_consecutive_high_samples_scale_out_lowest_standby():
    scaler, coordinator, directory = make()
    assert scaler.decide(2000.0, now=0.0) == "none"
    assert scaler.decide(2000.0, now=0.5) == "scale-out"
    assert coordinator.calls == [("out", (4,))]
    assert directory.active() == (0, 1, 2, 3, 4)


def test_consecutive_low_samples_scale_in_highest_active():
    scaler, coordinator, directory = make()
    scaler.decide(100.0, now=0.0)
    assert scaler.decide(100.0, now=0.5) == "scale-in"
    assert coordinator.calls == [("in", (3,))]
    assert directory.active() == (0, 1, 2)


def test_hysteresis_band_resets_both_streaks():
    scaler, coordinator, _ = make()
    scaler.decide(2000.0, now=0.0)
    scaler.decide(500.0, now=0.5)   # inside the band: streak cleared
    scaler.decide(100.0, now=1.0)
    scaler.decide(500.0, now=1.5)   # clears the low streak too
    scaler.decide(100.0, now=2.0)
    assert coordinator.calls == []


def test_cooldown_suppresses_as_hold():
    scaler, coordinator, _ = make()
    scaler.decide(2000.0, now=0.0)
    assert scaler.decide(2000.0, now=0.5) == "scale-out"
    scaler.decide(2000.0, now=1.0)
    assert scaler.decide(2000.0, now=1.5) == "hold"  # within cooldown_s=3
    holds = [d for d in scaler.decisions if d.action == "hold"]
    assert holds and holds[-1].reason == "cooldown"
    # After the cooldown the same pressure acts again.
    scaler.decide(2000.0, now=4.0)
    assert scaler.decide(2000.0, now=4.5) == "scale-out"
    assert coordinator.calls == [("out", (4,)), ("out", (5,))]


def test_busy_coordinator_suppresses_as_hold():
    scaler, coordinator, _ = make()
    coordinator.busy = True
    scaler.decide(2000.0, now=0.0)
    assert scaler.decide(2000.0, now=0.5) == "hold"
    assert scaler.decisions[-1].reason == "busy"
    assert coordinator.calls == []


def test_bounds_no_standby_and_min_workers():
    scaler, _, _ = make(num_workers=4, active_workers=4)
    scaler.decide(2000.0, now=0.0)
    assert scaler.decide(2000.0, now=0.5) == "hold"
    assert scaler.decisions[-1].reason in ("at-max", "no-standby")

    config = AutoscalerConfig(
        scale_out_load=1000.0, scale_in_load=200.0,
        trigger_samples=1, cooldown_s=0.0, min_workers=1,
    )
    scaler, coordinator, directory = make(
        config=config, num_workers=2, active_workers=2
    )
    assert scaler.decide(0.0, now=0.0) == "scale-in"
    assert directory.active() == (0,)
    assert scaler.decide(0.0, now=1.0) == "hold"
    assert scaler.decisions[-1].reason == "at-min"


def test_max_workers_caps_scale_out():
    config = AutoscalerConfig(
        scale_out_load=1000.0, scale_in_load=200.0,
        trigger_samples=1, cooldown_s=0.0, max_workers=4,
    )
    scaler, coordinator, _ = make(config=config)
    assert scaler.decide(2000.0, now=0.0) == "hold"
    assert scaler.decisions[-1].reason == "at-max"
    assert coordinator.calls == []


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(min_workers=3, max_workers=2),  # cap below the floor
        dict(scale_out_load=100.0, scale_in_load=100.0),  # no hysteresis band
        dict(min_workers=0),
        dict(max_workers=9),  # cap above the provisioned slots
        dict(step=0),
        dict(decide_s=0.0),
    ],
)
def test_config_validation_rejects_bad_knobs(kwargs):
    with pytest.raises(ValueError):
        AutoscalerConfig(**kwargs).validate(num_workers=6)


def test_config_validation_accepts_defaults():
    AutoscalerConfig().validate(num_workers=6)
