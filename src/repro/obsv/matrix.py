"""The experiment-matrix runner: sweep, aggregate, gate, claim.

A *matrix spec* (TOML or JSON) has up to four parts:

* ``[base]`` — one experiment as data, in the form
  :func:`repro.obsv.eventlog.config_from_dict` reads: any
  :class:`ExperimentConfig` field (a cost model is a ``cost`` table of
  :class:`CostModel` fields, a NEXMark run a ``query`` and a ``nexmark``
  table of :class:`NexmarkConfig` fields), plus ``faults`` and
  ``chaos_seed``, which inject a named chaos scenario.
* ``extends = "other.toml"`` — a spec, relative to this one, that this
  one refines table by table and key by key (a list, claims included, is
  replaced whole); the paper specs state the paper's cluster and cost
  model, and each family of figures its shared sweep, once this way.
* ``[matrix]`` — the axes.  An axis named after one of those keys lists
  its values; a *label axis* (any other name) lists tables of overrides,
  each with a ``name``, for points that are not a product (a native
  baseline, zipped bins x domain, a query with its settings).
* ``[[claim]]`` — the figure's shape, checked after the sweep (below).

The runner expands the cartesian product into cells — a cell's id joins
its axis values (a label's name) with ``/`` — runs each cell's experiment
across forked worker processes, and aggregates one report with a row per
cell: record and event counts, simulated latency headlines, the chaos
verdict (for fault cells), and the deterministic ``result_fingerprint``.
Nothing in a row is wall-clock — host speed is measured by
``benchmarks/e2e`` — so two sweeps of one commit write identical
``cells`` lists.

``check_matrix`` compares a fresh report against a checked-in baseline so
the whole matrix is gated at once: **fingerprint drift** means the
simulation no longer reproduces the committed run.  Simulated results do
not depend on the interpreter or on the batch representation, so drift
fails the check; the one exception is a cell whose codec emits real
pickle bytes, which only gates between interpreters of the same
``major.minor`` (see :func:`fingerprint_gates`).

A claim reads ``lhs op factor * rhs + slack`` (``factor`` defaults to 1,
``slack`` to 0) or, when ``rhs`` is a number, ``lhs op rhs``; ``op`` is
one of ``<``, ``<=``, ``>``, ``>=`` and ``==``.  A string metric (a
fingerprint) compares only by ``==`` against another string metric, with
no ``factor`` or ``slack``.  A side is
``{metric = ..., where = {axis = value or [values]}, agg = "max"|"min"}``:
one metric of the cells ``where`` selects, aggregated when it selects
more than one.  ``for_each = "axis"`` checks the claim once per value of
that axis, adding it to both sides' selections.  Every selection must
match a cell when the spec loads.

Besides the latency headlines, a row carries the metrics these claims
read, each defined in :func:`run_cell`:

* ``migration_steps`` — the last migration's step count;
* ``final_imbalance`` — the end-of-run max/mean worker load (planner
  cells only);
* for elastic cells (``active_workers`` set), ``residual_bins``, the bins
  left resident on drained workers across every drain,
  ``final_active_workers``, the workers active when the run ends,
  ``bins_off_active``, the bins whose final owner is not active, and
  ``cluster_fingerprint``, the owner-independent digest of all bin state
  (:func:`repro.chaos.recovery.cluster_fingerprint`) — what a static
  membership twin must reproduce;
* for ``sample_memory`` cells, Figure 20's numbers: ``steady_rss_bytes``,
  a process's RSS at its last sample before the first migration starts or
  before input closes, whichever is larger; ``rss_overshoot_bytes``, its
  peak send-queue backlog (the transient); and ``peak_spilled_bytes``, its
  largest cold tier.  Each is the maximum over processes.

Worker processes fork once per job, ship results back over a pipe as one
pickled payload, and poll child liveness so a crashed worker surfaces as a
structured per-cell failure instead of a hang.
"""

from __future__ import annotations

import itertools
import json
import operator
import os
import pickle
import platform
import struct
from dataclasses import dataclass, replace
from typing import Optional

from repro.megaphone.control import BinnedConfiguration
from repro.obsv.eventlog import config_from_dict
from repro.versions import (
    MATRIX_READ_VERSIONS,
    MATRIX_SCHEMA,
    MATRIX_SCHEMA_FAMILY,
    check_schema,
)

# What a claim can read from a cell's row.
METRICS = (
    "records",
    "sim_events",
    "migrations",
    "steady_max_latency_s",
    "max_latency_s",
    "p99_latency_s",
    "migration_max_latency_s",
    "migration_duration_s",
    "migration_steps",
    "final_imbalance",
    "steady_rss_bytes",
    "rss_overshoot_bytes",
    "peak_spilled_bytes",
    "residual_bins",
    "final_active_workers",
    "bins_off_active",
    "cluster_fingerprint",
)
# Metrics whose values are strings: they compare by ``==`` only.
STRING_METRICS = ("cluster_fingerprint",)
OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
}
_SPEC_KEYS = ("extends", "base", "matrix", "claim")


class MatrixSpecError(ValueError):
    """The spec file cannot be parsed into a runnable matrix."""


@dataclass(frozen=True)
class MatrixCell:
    """One point of the sweep."""

    values: dict  # axis -> its value here (a label axis: the label's name)
    settings: dict  # [base] with every axis's overrides applied

    @property
    def cell_id(self) -> str:
        return "/".join(str(value) for value in self.values.values())


# -- loading --------------------------------------------------------------------


def load_spec(path: str) -> dict:
    """Parse a TOML or JSON matrix spec and validate all of it.

    Every cell's config is built and every claim's selections resolved, so
    a bad value or a selector that matches nothing fails here, before any
    cell runs.
    """
    data = _read(path)
    stray = set(data) - set(_SPEC_KEYS)
    if stray:
        raise MatrixSpecError(
            f"{path}: unknown top-level tables {sorted(stray)}; a spec has "
            f"{list(_SPEC_KEYS)} only — the matrix gates fingerprints and "
            "claims, throughput gating lives in benchmarks/e2e"
        )
    axes = data.get("matrix")
    if not isinstance(axes, dict) or not axes:
        raise MatrixSpecError(f"{path}: spec needs a [matrix] table of axes")
    if not isinstance(data.setdefault("base", {}), dict):
        raise MatrixSpecError(f"{path}: [base] must be a table")
    for axis, values in axes.items():
        _check_axis(path, axis, values)
    for cell in expand_cells(data):
        try:
            config_from_dict(cell.settings)
        except (TypeError, ValueError) as exc:  # ConfigError, EventLogError
            raise MatrixSpecError(
                f"{path}: cell {cell.cell_id} breaks a config rule: {exc}"
            ) from None
    claims = data.setdefault("claim", [])
    if not isinstance(claims, list):
        raise MatrixSpecError(f"{path}: claims are [[claim]] tables")
    for claim in claims:
        _check_claim(path, data, claim)
    if len({claim["id"] for claim in claims}) != len(claims):
        raise MatrixSpecError(f"{path}: claim ids must be unique")
    return data


def _read(path: str) -> dict:
    """One spec file as data, with its ``extends`` chain folded in."""
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
    if not isinstance(data, dict):
        raise MatrixSpecError(f"{path}: a spec is a table")
    parent = data.pop("extends", None)
    if parent is not None:
        data = merge_settings(_read(os.path.join(os.path.dirname(path), parent)), data)
    return data


def merge_settings(under: dict, over: dict) -> dict:
    """``over`` on top of ``under``: tables merge key by key, anything else
    (a list included) replaces."""
    merged = dict(under)
    for key, value in over.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            value = merge_settings(merged[key], value)
        merged[key] = value
    return merged


def _check_axis(path: str, axis: str, values) -> None:
    if not isinstance(values, list) or not values:
        raise MatrixSpecError(f"{path}: [matrix].{axis} must be a non-empty list")
    labels = [isinstance(value, dict) for value in values]
    if all(labels):
        names = [value.get("name") for value in values]
        if not all(isinstance(name, str) for name in names):
            raise MatrixSpecError(
                f"{path}: every [matrix].{axis} table needs a string name"
            )
        if len(set(names)) != len(names):
            raise MatrixSpecError(f"{path}: [matrix].{axis} repeats a name")
    elif any(labels):
        raise MatrixSpecError(
            f"{path}: [matrix].{axis} mixes label tables and plain values"
        )


def expand_cells(spec: dict) -> list[MatrixCell]:
    """The cartesian product of the spec's axes, in spec order."""
    axes = spec["matrix"]
    cells = []
    for combo in itertools.product(*axes.values()):
        values, settings = {}, dict(spec.get("base", {}))
        for axis, value in zip(axes, combo):
            if isinstance(value, dict):
                overrides = dict(value)
                values[axis] = overrides.pop("name")
            else:
                values[axis], overrides = value, {axis: value}
            settings = merge_settings(settings, overrides)
        cells.append(MatrixCell(values, settings))
    return cells


def cell_config(cell: MatrixCell):
    """The :class:`ExperimentConfig` of one cell, which always fingerprints
    its final state."""
    return replace(config_from_dict(cell.settings), fingerprint_state=True)


# -- claims ---------------------------------------------------------------------


def _check_claim(path: str, spec: dict, claim) -> None:
    if not isinstance(claim, dict) or not isinstance(claim.get("id"), str):
        raise MatrixSpecError(f"{path}: every [[claim]] needs a string id")
    prefix = f"{path}: claim {claim['id']}"
    unknown = set(claim) - {"id", "lhs", "op", "factor", "rhs", "slack", "for_each"}
    if unknown:
        raise MatrixSpecError(f"{prefix}: unknown keys {sorted(unknown)}")
    if claim.get("op") not in OPS:
        raise MatrixSpecError(f"{prefix}: op must be one of {list(OPS)}")
    for key in ("factor", "slack"):
        if not isinstance(claim.get(key, 0), (int, float)):
            raise MatrixSpecError(f"{prefix}: {key} must be a number")
    rhs = claim.get("rhs")
    if not isinstance(rhs, (int, float, dict)):
        raise MatrixSpecError(f"{prefix}: rhs must be a side table or a number")
    axis = claim.get("for_each")
    if axis is not None and axis not in spec["matrix"]:
        raise MatrixSpecError(f"{prefix}: for_each names no axis ({axis!r})")
    sides = [claim.get("lhs"), rhs] if isinstance(rhs, dict) else [claim.get("lhs")]
    for side in sides:
        if not isinstance(side, dict) or side.get("metric") not in METRICS:
            raise MatrixSpecError(
                f"{prefix}: a side is {{metric, where, agg}} with a metric "
                f"from {list(METRICS)}"
            )
        if side.get("agg", "max") not in ("max", "min"):
            raise MatrixSpecError(f"{prefix}: agg must be max or min")
        if not isinstance(side.get("where", {}), dict):
            raise MatrixSpecError(f"{prefix}: where must be a table")
        unknown = set(side.get("where", {})) - set(spec["matrix"])
        if unknown:
            raise MatrixSpecError(f"{prefix}: where names no axis {sorted(unknown)}")
        for extra in _each_value(spec, claim):
            cells = _select(spec, side, extra)
            if not cells:
                raise MatrixSpecError(f"{prefix}: {_describe(side, extra)} matches no cell")
            if len(cells) > 1 and "agg" not in side:
                raise MatrixSpecError(
                    f"{prefix}: {_describe(side, extra)} matches {len(cells)} "
                    "cells; say agg = \"max\" or \"min\""
                )
    strings = [side["metric"] in STRING_METRICS for side in sides]
    if any(strings) and not (
        claim["op"] == "=="
        and len(strings) == 2
        and all(strings)
        and "factor" not in claim
        and "slack" not in claim
    ):
        raise MatrixSpecError(
            f"{prefix}: a string metric ({', '.join(STRING_METRICS)}) "
            "compares only by == with another, without factor or slack"
        )


def _each_value(spec: dict, claim: dict) -> list[dict]:
    """The extra selection per evaluation: one per ``for_each`` value."""
    axis = claim.get("for_each")
    if axis is None:
        return [{}]
    return [
        {axis: value.get("name") if isinstance(value, dict) else value}
        for value in spec["matrix"][axis]
    ]


def _select(spec: dict, side: dict, extra: dict) -> list[str]:
    """Ids of the cells a side's ``where`` (plus ``extra``) selects."""
    where = {**side.get("where", {}), **extra}
    return [
        cell.cell_id
        for cell in expand_cells(spec)
        if all(
            cell.values[axis] in (wanted if isinstance(wanted, list) else [wanted])
            for axis, wanted in where.items()
        )
    ]


def _describe(side: dict, extra: dict) -> str:
    where = {**side.get("where", {}), **extra}
    text = side["metric"] + "[" + ", ".join(f"{k}={v}" for k, v in where.items()) + "]"
    return f"{side['agg']}({text})" if "agg" in side else text


def check_claims(spec: dict, report: dict) -> list[dict]:
    """Evaluate every claim of ``spec`` against a sweep's ``report``.

    One result per claim and ``for_each`` value: ``{"claim", "at", "text",
    "ok", "lhs", "rhs", "bound"}`` — ``bound`` is ``factor * rhs + slack``;
    ``lhs``/``rhs`` are ``None`` when a selected cell failed or lacks the
    metric (``text`` says which), which fails the claim.
    """
    rows = {row["cell"]: row for row in report["cells"]}
    results = []
    for claim in spec.get("claim", []):
        for extra in _each_value(spec, claim):
            result = {
                "claim": claim["id"],
                "at": ", ".join(f"{k}={v}" for k, v in extra.items()),
                "text": _claim_text(claim, extra),
                "ok": False,
                "lhs": None,
                "rhs": None,
                "bound": None,
            }
            try:
                lhs = _measure(spec, rows, claim["lhs"], extra)
                rhs = bound = claim["rhs"]
                if isinstance(rhs, dict):
                    rhs = bound = _measure(spec, rows, rhs, extra)
                    if not isinstance(rhs, str):
                        bound = claim.get("factor", 1) * rhs + claim.get("slack", 0)
            except LookupError as exc:
                result["text"] += f": {exc}"
            else:
                ok = OPS[claim["op"]](lhs, bound)
                result.update(ok=ok, lhs=lhs, rhs=rhs, bound=bound)
            results.append(result)
    return results


def _claim_text(claim: dict, extra: dict) -> str:
    text = f"{_describe(claim['lhs'], extra)} {claim['op']} "
    rhs = claim["rhs"]
    if not isinstance(rhs, dict):
        return text + f"{rhs:g}"
    factor, slack = claim.get("factor", 1), claim.get("slack", 0)
    if factor != 1:
        text += f"{factor:g} * "
    return text + _describe(rhs, extra) + (f" + {slack:g}" if slack else "")


def _measure(spec: dict, rows: dict, side: dict, extra: dict) -> float:
    values = []
    for cell in _select(spec, side, extra):
        row = rows.get(cell, {})
        if row.get("status") != "ok" or side["metric"] not in row:
            raise LookupError(f"cell {cell} has no {side['metric']}")
        values.append(row[side["metric"]])
    return {"max": max, "min": min}[side.get("agg", "max")](values)


# -- running cells --------------------------------------------------------------


def run_cell(cell: MatrixCell) -> dict:
    """Run one cell's experiment; return its aggregated report row."""
    from repro.obsv.replay import run_config
    from repro.harness.experiment import result_fingerprint

    result = run_config(cell_config(cell))
    row = {
        "cell": cell.cell_id,
        "status": "ok",
        "records": result.records_injected,
        "sim_events": result.sim_events,
        "steady_max_latency_s": round(result.steady_max_latency(), 9),
        "max_latency_s": round(result.overall_max_latency(), 9),
        "migrations": len(result.migrations),
        "result_fingerprint": result_fingerprint(result),
    }
    p99 = result.timeline.overall.percentile(0.99)
    if p99 is not None:  # None: nothing completed
        row["p99_latency_s"] = round(p99, 9)
    if result.migrations:
        # The last migration: a NEXMark figure's second (rebalance) one.
        last = len(result.migrations) - 1
        row["migration_max_latency_s"] = round(
            result.migration_max_latency(last), 9
        )
        row["migration_duration_s"] = round(result.migration_duration(last), 9)
        row["migration_steps"] = len(result.migrations[last].steps)
    if result.config.planner is not None:
        row["final_imbalance"] = round(result.final_imbalance, 9)
    if result.scaling is not None:
        row["residual_bins"] = result.scaling.residual_bins
        row["final_active_workers"] = _final_active_workers(result)
        row["bins_off_active"] = _bins_off_active(result)
        row["cluster_fingerprint"] = result.cluster_fingerprint
    if result.config.sample_memory:
        row.update(_memory_metrics(result))
    if result.config.chaos is not None:
        row["chaos_verdict"] = result.chaos_verdict or "stalled"
        if row["chaos_verdict"] == "stalled":
            row["status"] = "stalled"
    return row


def _final_states(result) -> dict:
    """The initially active prefix, replayed through every transition."""
    states = {w: "active" for w in range(result.config.initial_active)}
    for _at, worker, _prev, state in result.membership:
        states[worker] = state
    return states


def _final_active_workers(result) -> int:
    return sum(state == "active" for state in _final_states(result).values())


def _bins_off_active(result) -> int:
    """Every step's sent instructions, replayed in issue order from the
    initial round-robin over the active prefix, counted off active workers."""
    cfg = result.config
    owners = list(
        BinnedConfiguration.round_robin(cfg.num_bins, cfg.initial_active).assignment
    )
    steps = [step for migration in result.migrations for step in migration.steps]
    for step in sorted(steps, key=lambda step: step.issued_at):
        for inst in step.insts:
            owners[inst.bin] = inst.worker
    states = _final_states(result)
    return sum(states.get(worker) != "active" for worker in owners)


def _memory_metrics(result) -> dict:
    """Figure 20's three numbers, each the maximum over processes."""
    marks = [result.config.duration_s]  # input closes
    if result.migrations and result.migrations[0].started_at is not None:
        marks.append(result.migrations[0].started_at)
    steady = overshoot = spilled = 0
    for timeline in result.memory:
        before = [[s.rss_bytes for s in timeline.samples if s.time < mark] for mark in marks]
        steady = max(steady, max(rss[-1] if rss else 0 for rss in before))
        overshoot = max(overshoot, timeline.peak_send_queue())
        spilled = max(spilled, timeline.peak_spilled())
    return {
        "steady_rss_bytes": steady,
        "rss_overshoot_bytes": overshoot,
        "peak_spilled_bytes": spilled,
    }


def _child_main(jobs_cells: list, write_fd: int) -> None:
    """Worker body: run assigned cells, pickle one reply, hard-exit."""
    rows = []
    for index, cell in jobs_cells:
        try:
            rows.append((index, run_cell(cell)))
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


def _run_cells_forked(cells: list[MatrixCell], jobs: int) -> list[dict]:
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
                _child_main(assigned, write_fd)
            except BaseException:
                status = 1
            finally:
                os._exit(status)
        os.close(write_fd)
        children.append((pid, read_fd, assigned))
    rows: dict[int, dict] = {}
    for pid, read_fd, assigned in children:
        with os.fdopen(read_fd, "rb") as pipe:
            payload = pipe.read()
        os.waitpid(pid, 0)
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
        rows = [run_cell(cell) for cell in cells]
        mode = "inline"
    else:
        rows = _run_cells_forked(cells, jobs)
        mode = f"forked/{min(jobs, len(cells))}"
    return {
        "schema": MATRIX_SCHEMA,
        "spec_path": spec_path,
        "mode": mode,
        "machine": {"python": platform.python_version()},
        "axes": spec["matrix"],
        "base": spec.get("base", {}),
        "cells": rows,
    }


def write_matrix_report(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as out:
        json.dump(report, out, indent=2, sort_keys=False)
        out.write("\n")


# -- the regression gate --------------------------------------------------------


def fingerprint_gates(cfg, current: dict, committed: dict) -> bool:
    """Whether drift in the fingerprint of a cell run as ``cfg`` fails the check.

    The codec decides.  A ``modeled`` cell is pure simulation —
    independent of the interpreter, of numpy, and of the machine — so its
    drift always fails.  ``pickle`` and ``struct`` (through its fallback)
    put real pickle bytes, whose sizes the interpreter picks, on the
    simulated wire, so those cells gate only between interpreters of the
    same ``major.minor``.
    """
    if cfg.codec == "modeled":
        return True
    return _python_minor(current) == _python_minor(committed)


def _python_minor(report: dict) -> list[str]:
    return (report.get("machine") or {}).get("python", "").split(".")[:2]


def check_matrix(
    report: dict, baseline_path: str, spec: dict
) -> tuple[bool, list[dict]]:
    """Compare a fresh sweep of ``spec`` against a committed baseline.

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
    cells = {cell.cell_id: cell for cell in expand_cells(spec)}
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
            if fingerprint_gates(cell_config(cells[cell]), report, baseline):
                entry["status"] = "fingerprint-drift"
                ok = False
            else:
                entry["status"] = "fingerprint-warn"
    return ok, rows
