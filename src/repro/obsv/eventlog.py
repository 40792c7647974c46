"""Versioned event logs: record the full bus stream plus run provenance.

A log is a JSON-lines file with three kinds of lines:

1. **Header** (first line): format version, the complete experiment
   config (including seeds, chaos fault plans, and planner tuning — the
   provenance replay needs to re-execute the run), and which topics were
   recorded.
2. **Events** (one per bus event, in publication order): the event's
   class name, topic, and fields.  Exotic field values (timestamps,
   antichain snapshots) are stringified — the log is an *artifact* of the
   run, not its wire format; replay re-executes from the config rather
   than re-injecting events.
3. **Footer** (last line): the run's ``result_fingerprint``, per-topic
   event counts, and headline totals.  A log without a footer is
   truncated — the recorded process died mid-run — and replay refuses it.

The recorder is a plain bus subscriber, so recording cannot perturb the
simulation (the bus invariant), which is exactly what makes the recorded
fingerprint a sound replay target.
"""

from __future__ import annotations

import dataclasses
import json
from typing import IO, Iterable, Optional

from repro.errors import ConfigError
from repro.runtime_events.bus import TraceBus
from repro.runtime_events.events import TOPICS
from repro.versions import (
    EVENT_LOG_READ_VERSIONS,
    EVENT_LOG_RETIRED_REASON,
    EVENT_LOG_VERSION,
)


class EventLogError(ValueError):
    """A log cannot be recorded, parsed, or faithfully replayed."""


# -- config provenance ----------------------------------------------------------

# ExperimentConfig fields that are observers/outputs, not run semantics:
# they are stripped on read so a replay does not re-record or re-export.
_OBSERVER_FIELDS = (
    "record_log",
    "export_metrics",
    "collect_topic_counts",
)
# Fields since removed from ExperimentConfig.  Headers recorded while they
# existed still carry them, so they are dropped on read ahead of the
# unknown-field check: a recorded log must keep replaying.
# `profile_shards`, `metrics_port` and `metrics_flush_s` were observers;
# `reference_routing` pinned a routing path whose simulated results were
# byte-identical to the default; the `wal_*` knobs, which no flag or spec
# set, are now the WAL backend's constructor defaults.
_RETIRED_FIELDS = (
    "profile_shards",
    "reference_routing",
    "metrics_port",
    "metrics_flush_s",
    "wal_segment_bytes",
    "wal_compact_threshold",
    "wal_sync_every",
)
# AutoscalerConfig fields since removed: `policy` named the only policy,
# and `stop_s` is the run's duration, which the harness now passes.
_RETIRED_AUTOSCALE_FIELDS = ("policy", "stop_s")


def config_to_dict(cfg) -> dict:
    """JSON-compatible provenance form of an :class:`ExperimentConfig`.

    A cost model is written as its field table, and only when one is set:
    ``None`` (the default model) leaves the key out.
    """
    out: dict = {}
    for field in dataclasses.fields(cfg):
        value = getattr(cfg, field.name)
        if field.name == "cost":
            if value is not None:
                out["cost"] = dataclasses.asdict(value)
        elif field.name == "chaos":
            out["chaos"] = None if value is None else _chaos_to_dict(value)
        elif field.name == "planner":
            out["planner"] = None if value is None else _planner_to_dict(value)
        elif field.name == "scaling_plan":
            # Canonical text form; ScalingPlan.parse inverts it exactly.
            out["scaling_plan"] = None if value is None else value.spec()
        elif field.name == "autoscale":
            out["autoscale"] = (
                None if value is None else dataclasses.asdict(value)
            )
        else:
            out[field.name] = _jsonable_config_value(field.name, value)
    return out


def _jsonable_config_value(name: str, value):
    if isinstance(value, tuple):
        return list(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise EventLogError(
        f"config field {name!r} holds unserializable {type(value).__name__}"
    )


def _chaos_to_dict(chaos) -> dict:
    data = dataclasses.asdict(chaos.plan)
    out = {"plan": data, "snapshot_at_s": chaos.snapshot_at_s}
    out["retry"] = (
        None if chaos.retry is None else dataclasses.asdict(chaos.retry)
    )
    out["watchdog"] = (
        None if chaos.watchdog is None else dataclasses.asdict(chaos.watchdog)
    )
    return out


def _planner_to_dict(planner) -> dict:
    data = dataclasses.asdict(planner)
    data["objective_options"] = {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in planner.objective_options.items()
    }
    return data


def config_from_dict(data: dict):
    """Rebuild an :class:`ExperimentConfig` from its provenance dict.

    Observer-only fields (recording, export, profiling) are stripped: the
    rebuilt config re-runs the *simulation*, and the replay driver decides
    what to observe about it.  Log headers and matrix specs both come
    through here; data that names an unknown field, holds a malformed
    nested table or breaks a config rule raises :class:`EventLogError`.
    """
    from repro.harness.experiment import ExperimentConfig
    from repro.sim.cost import CostModel

    if not isinstance(data, dict):
        raise EventLogError("config provenance must be an object")
    known = {field.name for field in dataclasses.fields(ExperimentConfig)}
    kwargs: dict = {}
    try:
        for name, value in data.items():
            if name in _RETIRED_FIELDS:
                continue
            if name not in known:
                raise EventLogError(f"unknown ExperimentConfig field {name!r}")
            if name in _OBSERVER_FIELDS:
                continue
            if name == "cost":
                kwargs["cost"] = None if value is None else CostModel(**value)
            elif name == "chaos":
                kwargs["chaos"] = None if value is None else _chaos_from_dict(value)
            elif name == "planner":
                kwargs["planner"] = (
                    None if value is None else _planner_from_dict(value)
                )
            elif name == "autoscale":
                from repro.elastic.autoscaler import AutoscalerConfig

                kwargs["autoscale"] = (
                    None
                    if value is None
                    else AutoscalerConfig(**{
                        key: item
                        for key, item in value.items()
                        if key not in _RETIRED_AUTOSCALE_FIELDS
                    })
                )
            else:
                kwargs[name] = value
        return ExperimentConfig(**kwargs)
    except ConfigError as exc:
        raise EventLogError(f"config breaks a rule: {exc}") from None
    except TypeError as exc:  # a nested table's unknown key, a value's type
        raise EventLogError(f"config is malformed: {exc}") from None


def _chaos_from_dict(data: dict):
    from repro.chaos.plan import (
        ChaosConfig,
        FaultPlan,
        LinkFault,
        ProcessCrash,
        WorkerStall,
    )
    from repro.chaos.watchdog import WatchdogConfig
    from repro.megaphone.controller import RetryPolicy

    plan_data = data.get("plan") or {}
    plan = FaultPlan(
        seed=plan_data.get("seed", 0),
        crashes=tuple(ProcessCrash(**c) for c in plan_data.get("crashes", ())),
        link_faults=tuple(
            LinkFault(**lf) for lf in plan_data.get("link_faults", ())
        ),
        stalls=tuple(WorkerStall(**s) for s in plan_data.get("stalls", ())),
    )
    retry = data.get("retry")
    watchdog = data.get("watchdog")
    return ChaosConfig(
        plan=plan,
        retry=None if retry is None else RetryPolicy(**retry),
        watchdog=None if watchdog is None else WatchdogConfig(**watchdog),
        snapshot_at_s=data.get("snapshot_at_s"),
    )


def _planner_from_dict(data: dict):
    from repro.planner.policy import PlannerConfig
    from repro.planner.telemetry import TelemetryConfig

    kwargs = dict(data)
    telemetry = kwargs.pop("telemetry", None)
    options = kwargs.pop("objective_options", {}) or {}
    return PlannerConfig(
        telemetry=TelemetryConfig(**telemetry)
        if telemetry is not None
        else TelemetryConfig(),
        objective_options={
            key: tuple(value) if isinstance(value, list) else value
            for key, value in options.items()
        },
        **kwargs,
    )


# -- event serialization --------------------------------------------------------


def _jsonable(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


def event_to_dict(event) -> dict:
    """One bus event as a JSON-compatible line payload."""
    out = {"e": type(event).__name__, "topic": event.topic}
    for field in dataclasses.fields(event):
        out[field.name] = _jsonable(getattr(event, field.name))
    return out


# -- the recorder ---------------------------------------------------------------


class EventLogRecorder:
    """Subscribe to the bus and stream every event to a JSON-lines log.

    ``extra`` lands in the header verbatim (the nexmark harness uses it to
    record the query number so replay can dispatch the right runner).
    Call :meth:`finalize` with the finished :class:`ExperimentResult` to
    write the footer; a log without one is treated as truncated.
    """

    def __init__(
        self,
        cfg,
        bus: TraceBus,
        path: str,
        topics: Optional[Iterable[str]] = None,
        extra: Optional[dict] = None,
    ) -> None:
        self.path = path
        self.topics = tuple(topics) if topics is not None else None
        self.events_recorded = 0
        self.events_by_topic: dict[str, int] = {}
        self._stream: Optional[IO] = open(path, "w", encoding="utf-8")
        header = {
            "kind": "event-log",
            "version": EVENT_LOG_VERSION,
            "workload_kind": (extra or {}).get("workload_kind", "count"),
            "topics": list(self.topics) if self.topics is not None else None,
            "config": config_to_dict(cfg),
            "extra": dict(extra or {}),
        }
        self._write(header)
        self._unsubscribe = bus.subscribe(self._record, topics=self.topics)

    def _write(self, payload: dict) -> None:
        json.dump(payload, self._stream, sort_keys=False)
        self._stream.write("\n")

    def _record(self, event) -> None:
        self._write(event_to_dict(event))
        self.events_recorded += 1
        topic = event.topic
        self.events_by_topic[topic] = self.events_by_topic.get(topic, 0) + 1

    def finalize(self, result) -> str:
        """Write the footer (with the run's fingerprint) and close.

        Returns the fingerprint so callers can print it without recomputing.
        """
        from repro.harness.experiment import result_fingerprint

        fingerprint = result_fingerprint(result)
        self._unsubscribe()
        self._write(
            {
                "kind": "footer",
                "result_fingerprint": fingerprint,
                "events_recorded": self.events_recorded,
                "events_by_topic": dict(
                    sorted(self.events_by_topic.items())
                ),
                "records_injected": result.records_injected,
                "sim_events": result.sim_events,
            }
        )
        self._stream.close()
        self._stream = None
        return fingerprint

    def abort(self) -> None:
        """Detach and close without a footer (the run failed)."""
        self._unsubscribe()
        if self._stream is not None:
            self._stream.close()
            self._stream = None


# -- reading --------------------------------------------------------------------


def read_log_meta(path: str) -> tuple[dict, dict]:
    """Return the validated ``(header, footer)`` of a recorded log.

    Raises :class:`EventLogError` for version mismatches, malformed
    lines, and truncated logs — every way a log could fail to support a
    faithful replay gets its own message.
    """
    header: Optional[dict] = None
    last: Optional[dict] = None
    with open(path, encoding="utf-8") as stream:
        for lineno, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise EventLogError(
                    f"{path}:{lineno}: not valid JSON ({exc})"
                ) from None
            if header is None:
                header = payload
            last = payload
    if header is None:
        raise EventLogError(f"{path}: empty file is not an event log")
    if header.get("kind") != "event-log":
        raise EventLogError(
            f"{path}: first line is not an event-log header "
            f"(kind={header.get('kind')!r})"
        )
    version = header.get("version")
    if version not in EVENT_LOG_READ_VERSIONS:
        retired = (
            f" ({EVENT_LOG_RETIRED_REASON})"
            if isinstance(version, int) and version < min(EVENT_LOG_READ_VERSIONS)
            else ""
        )
        raise EventLogError(
            f"{path}: event-log version {version!r} is not replayable by "
            f"this build (reads {EVENT_LOG_READ_VERSIONS}){retired}; "
            "re-record with a matching build"
        )
    topics = header.get("topics")
    if topics is not None:
        unknown = [t for t in topics if t not in TOPICS]
        if unknown:
            raise EventLogError(
                f"{path}: header names unknown topics {unknown}"
            )
    if last is None or last.get("kind") != "footer":
        raise EventLogError(
            f"{path}: no footer — the log is truncated (the recorded run "
            "did not finish); a truncated log has no fingerprint to verify"
        )
    return header, last


def read_events(path: str):
    """Yield the event payload dicts of a log, in recorded order."""
    with open(path, encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            payload = json.loads(line)
            if "e" in payload:
                yield payload
