"""Bin-granular snapshots: programmable fine-grained checkpoints.

Paper §4.4 (fault tolerance): "Megaphone's migration mechanisms effectively
provide programmable snapshots on finer granularities, which could feed
back into finer-grained fault-tolerance mechanisms."  A migration already
produces a consistent, timestamp-aligned serialization of a bin — a
snapshot is the same extraction without the move, and since the backend
refactor it literally *is* the same code: every captured bin is a
:class:`~repro.state.BinPayload` from ``StateBackend.extract_bin`` +
codec, the one serialization path migration shipping and crash recovery
also use.

:class:`SnapshotCoordinator` waits (via the S output probe) until a chosen
logical time has fully passed, then captures every bin's state and pending
records.  The result can rebuild the operator's state in a fresh dataflow
through :func:`restore_into`.
"""

from __future__ import annotations

import copy
import pickle
from dataclasses import dataclass, field
from typing import Optional

from repro.megaphone.operators import MigrateableOperator
from repro.state.backend import BinPayload
from repro.state.registry import resolve_codec
from repro.timely.dataflow import Runtime
from repro.timely.timestamp import Timestamp


@dataclass
class BinSnapshot:
    """One bin's frozen, codec-serialized state."""

    bin_id: int
    worker: int
    payload: BinPayload
    size_bytes: int = 0

    @property
    def state(self) -> object:
        """The captured state, decoded (a fresh object per call)."""
        codec = resolve_codec(self.payload.codec)
        return codec.copy(codec.decode(self.payload.payload))

    @property
    def pending(self) -> list:
        """The captured pending ``(time, entry)`` records."""
        return list(self.payload.pending)


@dataclass
class OperatorSnapshot:
    """A consistent snapshot of one migrateable operator.

    The cut contains every update at or before ``time``; if the frontier
    jumped past several epochs at once, the cut extends to the frontier
    recorded in ``frontier_at_capture`` (it is always a consistent
    timestamp prefix — exactly the guarantee a migration relies on).
    """

    name: str
    time: Timestamp
    captured_at: float
    frontier_at_capture: tuple = ()
    bins: dict[int, BinSnapshot] = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        return sum(b.size_bytes for b in self.bins.values())

    def assignment(self) -> dict[int, int]:
        """bin id -> worker at capture time."""
        return {b.bin_id: b.worker for b in self.bins.values()}


class SnapshotCoordinator:
    """Captures an operator's bins once a logical time has fully passed.

    The trigger is the same condition F uses to start a migration: when
    ``time`` can no longer appear in the S output frontier, every update
    before it has been applied, so extracting the bins (without removal)
    yields a consistent cut at ``time``.
    """

    def __init__(
        self,
        runtime: Runtime,
        op: MigrateableOperator,
        probe,
        time: Timestamp,
    ) -> None:
        self._runtime = runtime
        self._op = op
        self._probe = probe
        self._time = time
        self.snapshot: Optional[OperatorSnapshot] = None
        # Ahead of the probe's other observers: the cut is taken before any
        # of them (the controller issuing its next step) reacts to the same
        # advance.
        probe.on_advance(self._check, first=True)
        # The time may already have passed.
        self._check(None)

    def _check(self, _frontier) -> None:
        if self.snapshot is not None or not self._probe.passed(self._time):
            return
        snapshot = OperatorSnapshot(
            name=self._op.config.name,
            time=self._time,
            captured_at=self._runtime.sim.now,
            frontier_at_capture=tuple(self._probe.frontier().elements()),
        )
        for worker, store in self._op.stores(self._runtime):
            for bin_id in store.resident_bins():
                payload = store.extract(bin_id, remove=False)
                snapshot.bins[bin_id] = BinSnapshot(
                    bin_id=bin_id,
                    worker=worker,
                    payload=payload,
                    size_bytes=payload.size_bytes,
                )
        self.snapshot = snapshot


def snapshot_to_bytes(snapshot: OperatorSnapshot) -> bytes:
    """Serialize a snapshot to a durable byte string.

    This is the externalized form a real deployment would write to stable
    storage; :func:`snapshot_from_bytes` round-trips it losslessly (the
    property the snapshot test-suite checks, including empty bins).
    """
    payload = {
        "name": snapshot.name,
        "time": snapshot.time,
        "captured_at": snapshot.captured_at,
        "frontier_at_capture": tuple(snapshot.frontier_at_capture),
        "bins": [
            {
                "bin_id": b.bin_id,
                "worker": b.worker,
                "codec": b.payload.codec,
                "payload": b.payload.payload,
                "pending": list(b.payload.pending),
                "state_bytes": b.payload.state_bytes,
                "size_bytes": b.size_bytes,
                "keys": b.payload.keys,
            }
            for _, b in sorted(snapshot.bins.items())
        ],
    }
    return pickle.dumps(payload, protocol=4)


def snapshot_from_bytes(data: bytes) -> OperatorSnapshot:
    """Rebuild an :class:`OperatorSnapshot` from :func:`snapshot_to_bytes`."""
    payload = pickle.loads(data)
    snapshot = OperatorSnapshot(
        name=payload["name"],
        time=payload["time"],
        captured_at=payload["captured_at"],
        frontier_at_capture=tuple(payload["frontier_at_capture"]),
    )
    for raw in payload["bins"]:
        snapshot.bins[raw["bin_id"]] = BinSnapshot(
            bin_id=raw["bin_id"],
            worker=raw["worker"],
            payload=BinPayload(
                bin_id=raw["bin_id"],
                codec=raw["codec"],
                payload=raw["payload"],
                pending=list(raw["pending"]),
                state_bytes=raw["state_bytes"],
                size_bytes=raw["size_bytes"],
                keys=raw["keys"],
            ),
            size_bytes=raw["size_bytes"],
        )
    return snapshot


def restore_into(
    runtime: Runtime, op: MigrateableOperator, snapshot: OperatorSnapshot
) -> None:
    """Install a snapshot into a *fresh* (not yet fed) operator.

    Bins are placed on the workers recorded in the snapshot; the operator's
    initial configuration must match that placement (build it with
    ``BinnedConfiguration`` over ``snapshot.assignment()``), otherwise F's
    routing table and the stores would disagree.
    """
    for bin_snapshot in snapshot.bins.values():
        store = op.config.store_on(
            runtime.workers[bin_snapshot.worker].shared,
            bin_snapshot.worker,
            runtime.cluster.cost,
            op.config.initial,
        )
        if not store.has(bin_snapshot.bin_id):
            raise ValueError(
                f"bin {bin_snapshot.bin_id} is not placed on worker "
                f"{bin_snapshot.worker} in the target configuration"
            )
        bin_ = store.restore_state(bin_snapshot.bin_id, bin_snapshot.payload)
        bin_.pending.extend(copy.deepcopy(bin_snapshot.pending))
        # Re-register notifications for the restored pending work, exactly
        # as S does when a migrated bin arrives.
        s_logic = runtime.logic_of(bin_snapshot.worker, op.s_op)
        ctx = runtime.workers[bin_snapshot.worker].contexts[op.s_op]
        for pending_time in bin_.pending.times():
            s_logic._schedule_bin(ctx, pending_time, bin_snapshot.bin_id)
        runtime.mark_progress()
