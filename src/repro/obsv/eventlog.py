"""Versioned event logs: record the full bus stream plus run provenance.

A log is a JSON-lines file with three kinds of lines:

1. **Header** (first line): format version, the complete experiment
   config (including seeds, chaos fault plans, planner tuning and a
   NEXMark run's query and generator table — the provenance replay needs
   to re-execute the run).  Every topic is recorded.
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
from typing import IO, Optional

from repro.errors import ConfigError
from repro.runtime_events.bus import TraceBus
from repro.settings import from_table, to_table
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
OBSERVER_FIELDS = (
    "record_log",
    "export_metrics",
    "collect_topic_counts",
)


def config_to_dict(cfg) -> dict:
    """JSON-compatible provenance form of an :class:`ExperimentConfig`.

    A cost model is written as its field table, and only when one is set:
    ``None`` (the default model) leaves the key out.
    """
    out = to_table(cfg)
    if out["cost"] is None:
        del out["cost"]
    return out


def config_from_dict(data: dict):
    """Rebuild an :class:`ExperimentConfig` from its provenance dict.

    Observer-only fields (recording, export, profiling) are stripped: the
    rebuilt config re-runs the *simulation*, and the replay driver decides
    what to observe about it.  Log headers, matrix specs and ``repro.cli
    run`` settings all come through here, and :mod:`repro.settings` turns
    the table into the config; data that names an unknown field, holds a
    value of the wrong type or breaks a config rule raises
    :class:`EventLogError`.

    Two keys name a fault scenario instead of a field: ``faults`` (one of
    :data:`repro.chaos.experiment.SCENARIOS`, or ``"none"``) and
    ``chaos_seed`` expand into the ``chaos`` table aimed at the rest of the
    config, which is what :func:`config_to_dict` then writes.  A
    ``chaos_seed`` without a scenario would seed nothing, so it is refused.
    """
    from repro.harness.experiment import ExperimentConfig

    if not isinstance(data, dict):
        raise EventLogError("config provenance must be an object")
    data = dict(data)
    faults = data.pop("faults", "none")
    chaos_seed = data.pop("chaos_seed", None)
    if chaos_seed is not None and faults == "none":
        raise EventLogError(
            "chaos_seed seeds a fault scenario, but faults is 'none'"
        )
    for name in OBSERVER_FIELDS:
        data.pop(name, None)
    try:
        cfg = from_table(ExperimentConfig, data)
        if faults != "none":
            from repro.chaos.experiment import scenario_chaos

            cfg = dataclasses.replace(
                cfg, chaos=scenario_chaos(faults, cfg, seed=chaos_seed or 0)
            )
        return cfg
    except ConfigError as exc:
        raise EventLogError(f"config breaks a rule: {exc}") from None


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

    Call :meth:`finalize` with the finished :class:`ExperimentResult` to
    write the footer; a log without one is treated as truncated.
    """

    def __init__(self, cfg, bus: TraceBus, path: str) -> None:
        self.path = path
        self.events_recorded = 0
        self.events_by_topic: dict[str, int] = {}
        self._stream: Optional[IO] = open(path, "w", encoding="utf-8")
        header = {
            "kind": "event-log",
            "version": EVENT_LOG_VERSION,
            "config": config_to_dict(cfg),
        }
        self._write(header)
        self._unsubscribe = bus.subscribe(self._record)

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
