"""The experiment-matrix runner: sweep, aggregate, gate.

A *matrix spec* (TOML or JSON) declares axes — {strategy x backend x
codec x workload x faults} — and a base experiment configuration; the
runner expands the cartesian product into cells, runs each cell's
experiment across parallel worker processes, and aggregates one report
(``BENCH_matrix.json``) with a row per cell: record and event counts,
simulated latency headlines, the chaos verdict (for fault cells), and the
deterministic ``result_fingerprint``.  Nothing in a row is wall-clock —
host speed is measured by ``benchmarks/e2e`` — so two sweeps of one
commit write identical ``cells`` lists.

``check_matrix`` compares a fresh report against a checked-in baseline so
the whole matrix is gated at once: **fingerprint drift** means the
simulation no longer reproduces the committed run.  Simulated results do
not depend on the interpreter or on the batch representation, so drift
fails the check; the one exception is a cell whose codec emits real
pickle bytes, which only gates between interpreters of the same
``major.minor`` (see :func:`fingerprint_gates`).

Worker processes fork once per job, ship results back over a pipe as one
pickled payload, and poll child liveness so a crashed worker surfaces as a
structured per-cell failure instead of a hang.
"""

from __future__ import annotations

import itertools
import json
import os
import pickle
import platform
import struct
from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import ConfigError
from repro.versions import (
    MATRIX_READ_VERSIONS,
    MATRIX_SCHEMA,
    MATRIX_SCHEMA_FAMILY,
    check_schema,
)

# Axis name -> ExperimentConfig field it drives.  "faults" is special: it
# names a chaos scenario ("none" disables injection).
AXES = ("strategy", "backend", "codec", "workload", "faults")
_AXIS_FIELD = {
    "strategy": "strategy",
    "backend": "state_backend",
    "codec": "codec",
    "workload": "workload",
}
NO_FAULTS = "none"


class MatrixSpecError(ValueError):
    """The spec file cannot be parsed into a runnable matrix."""


@dataclass(frozen=True)
class MatrixCell:
    """One point of the sweep."""

    strategy: str
    backend: str
    codec: str
    workload: str
    faults: str

    @property
    def cell_id(self) -> str:
        return "/".join(
            (self.strategy, self.backend, self.codec, self.workload, self.faults)
        )


def load_spec(path: str) -> dict:
    """Parse a TOML or JSON matrix spec; validate axes and base config."""
    if path.endswith(".json"):
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    else:
        import tomllib

        with open(path, "rb") as handle:
            try:
                data = tomllib.load(handle)
            except tomllib.TOMLDecodeError as exc:
                raise MatrixSpecError(f"{path}: invalid TOML ({exc})") from None
    if not isinstance(data, dict) or "matrix" not in data:
        raise MatrixSpecError(f"{path}: spec needs a [matrix] table of axes")
    axes = data["matrix"]
    for axis in AXES:
        values = axes.get(axis)
        if values is None:
            # Missing axes default to a single neutral value.
            axes[axis] = [_default_axis_value(axis)]
        elif (
            not isinstance(values, list)
            or not values
            or not all(isinstance(v, str) for v in values)
        ):
            raise MatrixSpecError(
                f"{path}: [matrix].{axis} must be a non-empty list of strings"
            )
    unknown = set(axes) - set(AXES)
    if unknown:
        raise MatrixSpecError(
            f"{path}: unknown axes {sorted(unknown)}; known: {list(AXES)}"
        )
    _validate_axis_values(path, axes)
    base = data.setdefault("base", {})
    if not isinstance(base, dict):
        raise MatrixSpecError(f"{path}: [base] must be a table")
    stray = set(data) - {"matrix", "base"}
    if stray:
        raise MatrixSpecError(
            f"{path}: unknown top-level tables {sorted(stray)}; a spec has "
            "[matrix] and [base] only — the matrix gates fingerprints, "
            "throughput gating lives in benchmarks/e2e"
        )
    # Every cell shares [base]: a rule it breaks fails the load, not a sweep.
    try:
        cell_config(data, expand_cells(data)[0])
    except ConfigError as exc:
        raise MatrixSpecError(f"{path}: [base] breaks a config rule: {exc}") from None
    return data


def _default_axis_value(axis: str) -> str:
    return {
        "strategy": "batched",
        "backend": "dict",
        "codec": "modeled",
        "workload": "uniform",
        "faults": NO_FAULTS,
    }[axis]


def _validate_axis_values(path: str, axes: dict) -> None:
    from repro.chaos.experiment import SCENARIOS
    from repro.harness.experiment import WORKLOADS
    from repro.megaphone.migration import STRATEGIES
    from repro.state import backend_names, codec_names

    checks = (
        ("strategy", STRATEGIES),
        ("backend", backend_names()),
        ("codec", codec_names()),
        ("workload", WORKLOADS),
        ("faults", (NO_FAULTS,) + tuple(SCENARIOS)),
    )
    for axis, known in checks:
        for value in axes[axis]:
            if value not in known:
                raise MatrixSpecError(
                    f"{path}: [matrix].{axis} value {value!r} is not one of "
                    f"{sorted(known)}"
                )


def expand_cells(spec: dict) -> list[MatrixCell]:
    """The cartesian product of the spec's axes, in spec order."""
    axes = spec["matrix"]
    return [
        MatrixCell(*combo)
        for combo in itertools.product(*(axes[axis] for axis in AXES))
    ]


def cell_config(spec: dict, cell: MatrixCell):
    """Build the :class:`ExperimentConfig` for one cell."""
    from repro.chaos.experiment import scenario_chaos
    from repro.harness.experiment import ExperimentConfig

    base = dict(spec.get("base", {}))
    chaos_seed = base.pop("chaos_seed", 0)
    try:
        cfg = ExperimentConfig(**base)
    except TypeError as exc:
        raise MatrixSpecError(f"[base] does not fit ExperimentConfig: {exc}") from None
    for axis, fld in _AXIS_FIELD.items():
        cfg = replace(cfg, **{fld: getattr(cell, axis)})
    cfg.fingerprint_state = True
    if cell.faults != NO_FAULTS:
        cfg = replace(cfg, chaos=scenario_chaos(cell.faults, cfg, seed=chaos_seed))
    return cfg


# -- running cells --------------------------------------------------------------


def run_cell(spec: dict, cell: MatrixCell) -> dict:
    """Run one cell's experiment; return its aggregated report row."""
    from repro.harness.experiment import run_count_experiment
    from repro.parallel.runner import result_fingerprint

    cfg = cell_config(spec, cell)
    result = run_count_experiment(cfg)
    row = {
        "cell": cell.cell_id,
        "status": "ok",
        "records": result.records_injected,
        "sim_events": result.sim_events,
        "steady_max_latency_s": round(result.steady_max_latency(), 9),
        "migrations": len(result.migrations),
        "result_fingerprint": result_fingerprint(result),
    }
    if result.migrations:
        row["migration_max_latency_s"] = round(
            result.migration_max_latency(0), 9
        )
        row["migration_duration_s"] = round(result.migration_duration(0), 9)
    if cell.faults != NO_FAULTS:
        row["chaos_verdict"] = result.chaos_verdict or "stalled"
        if row["chaos_verdict"] == "stalled":
            row["status"] = "stalled"
    return row


def _run_cells_inline(spec: dict, cells: list[MatrixCell]) -> list[dict]:
    return [run_cell(spec, cell) for cell in cells]


def _child_main(spec: dict, jobs_cells: list, write_fd: int) -> None:
    """Worker body: run assigned cells, pickle one reply, hard-exit."""
    rows = []
    for index, cell in jobs_cells:
        try:
            rows.append((index, run_cell(spec, cell)))
        except BaseException as exc:  # report, keep running remaining cells
            rows.append(
                (
                    index,
                    {
                        "cell": cell.cell_id,
                        "status": "error",
                        "error": f"{type(exc).__name__}: {exc}",
                    },
                )
            )
    payload = pickle.dumps(rows, protocol=pickle.HIGHEST_PROTOCOL)
    with os.fdopen(write_fd, "wb") as pipe:
        pipe.write(struct.pack("<Q", len(payload)))
        pipe.write(payload)


def _run_cells_forked(
    spec: dict, cells: list[MatrixCell], jobs: int
) -> list[dict]:
    """Round-robin the cells over ``jobs`` forked workers.

    Each worker writes one length-prefixed pickle when done; the parent
    reads every pipe to EOF *before* reaping, so a payload larger than the
    pipe buffer cannot deadlock, and a child that died early yields a
    short read that marks its cells failed instead of hanging the sweep.
    """
    jobs = max(1, min(jobs, len(cells)))
    assignments: list[list] = [[] for _ in range(jobs)]
    for index, cell in enumerate(cells):
        assignments[index % jobs].append((index, cell))
    children: list[tuple[int, int, list]] = []  # (pid, read_fd, cells)
    for assigned in assignments:
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child
            os.close(read_fd)
            status = 0
            try:
                _child_main(spec, assigned, write_fd)
            except BaseException:
                status = 1
            finally:
                os._exit(status)
        os.close(write_fd)
        children.append((pid, read_fd, assigned))
    rows: dict[int, dict] = {}
    for pid, read_fd, assigned in children:
        chunks = []
        with os.fdopen(read_fd, "rb") as pipe:
            data = pipe.read()
        os.waitpid(pid, 0)
        chunks.append(data)
        payload = b"".join(chunks)
        try:
            (length,) = struct.unpack("<Q", payload[:8])
            reply = pickle.loads(payload[8 : 8 + length])
            if len(payload) < 8 + length:
                raise EOFError("short read")
        except Exception:
            reply = [
                (
                    index,
                    {
                        "cell": cell.cell_id,
                        "status": "crashed",
                        "error": f"matrix worker (pid {pid}) died mid-sweep",
                    },
                )
                for index, cell in assigned
            ]
        for index, row in reply:
            rows[index] = row
    return [rows[i] for i in sorted(rows)]


def run_matrix(
    spec: dict, jobs: Optional[int] = None, spec_path: str = ""
) -> dict:
    """Run every cell; return the aggregated BENCH_matrix report.

    ``jobs=0`` runs inline (no forking — the deterministic reference
    path); ``None`` picks ``min(cells, cpu_count)``.
    """
    cells = expand_cells(spec)
    if jobs is None:
        jobs = min(len(cells), os.cpu_count() or 1)
    if jobs <= 0 or len(cells) == 1:
        rows = _run_cells_inline(spec, cells)
        mode = "inline"
    else:
        rows = _run_cells_forked(spec, cells, jobs)
        mode = f"forked/{min(jobs, len(cells))}"
    return {
        "schema": MATRIX_SCHEMA,
        "spec_path": spec_path,
        "mode": mode,
        "machine": {"python": platform.python_version()},
        "axes": {axis: list(spec["matrix"][axis]) for axis in AXES},
        "base": {
            k: list(v) if isinstance(v, tuple) else v
            for k, v in spec.get("base", {}).items()
        },
        "cells": rows,
    }


def write_matrix_report(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as out:
        json.dump(report, out, indent=2, sort_keys=False)
        out.write("\n")


# -- the regression gate --------------------------------------------------------


def fingerprint_gates(cell_id: str, current: dict, committed: dict) -> bool:
    """Whether drift in this cell's fingerprint fails the check.

    The codec axis decides.  A ``modeled`` cell is pure simulation —
    independent of the interpreter, of numpy, and of the machine — so its
    drift always fails.  ``pickle`` and ``struct`` (through its fallback)
    put real pickle bytes, whose sizes the interpreter picks, on the
    simulated wire, so those cells gate only between interpreters of the
    same ``major.minor``.
    """
    if MatrixCell(*cell_id.split("/")).codec == "modeled":
        return True
    return _python_minor(current) == _python_minor(committed)


def _python_minor(report: dict) -> list[str]:
    return (report.get("machine") or {}).get("python", "").split(".")[:2]


def check_matrix(report: dict, baseline_path: str) -> tuple[bool, list[dict]]:
    """Compare a fresh matrix report against a committed baseline.

    Returns ``(ok, rows)`` with one row per cell in the fresh report.
    Statuses: ``ok``, ``new`` (not in the baseline), ``fingerprint-drift``
    (simulation changed — fails), ``fingerprint-warn`` (same, on a cell
    :func:`fingerprint_gates` exempts), ``error``/``crashed``/``stalled``
    (the cell itself failed — always fails the check).
    """
    with open(baseline_path, encoding="utf-8") as handle:
        baseline = json.load(handle)
    check_schema(
        baseline.get("schema", ""), MATRIX_SCHEMA_FAMILY, MATRIX_READ_VERSIONS
    )
    base_cells = {row["cell"]: row for row in baseline.get("cells", [])}
    ok = True
    rows: list[dict] = []
    for row in report.get("cells", []):
        cell = row["cell"]
        committed = base_cells.get(cell)
        entry = {
            "cell": cell,
            "fingerprint": row.get("result_fingerprint"),
            "baseline_fingerprint": (committed or {}).get("result_fingerprint"),
            "status": "ok",
        }
        rows.append(entry)
        if row.get("status") != "ok":
            entry["status"] = row.get("status", "error")
            ok = False
        elif committed is None:
            entry["status"] = "new"
        elif entry["fingerprint"] != entry["baseline_fingerprint"]:
            if fingerprint_gates(cell, report, baseline):
                entry["status"] = "fingerprint-drift"
                ok = False
            else:
                entry["status"] = "fingerprint-warn"
    return ok, rows
