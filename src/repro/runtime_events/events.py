"""Structured trace events.

Every event is a frozen, slotted dataclass with an ``at`` field holding the
simulated time at which it was observed, and a ``topic`` class attribute
naming the subscription channel it travels on.  Publishers construct events
only when the bus reports an attached subscriber for the topic, so defining
many event types costs nothing at runtime.

Topics group events by the layer that emits them:

``activation``  worker scheduling quanta (begin/end with charged cost)
``batch``       message/source batches as a worker processes them
``send``        buffered operator sends leaving at an activation's flush
``network``     messages entering and draining cluster send queues
``frontier``    output-frontier movement observed by the progress pump
``capability``  capabilities held and dropped by operator contexts
``migration``   Megaphone's migration lifecycle, bin by bin
``memory``      periodic per-process RSS samples
``faults``      injected faults (crashes, partitions, stalls, drops) and
                accounting-guard warnings
``recovery``    the recovery machinery: step timeouts/retries, worker
                exclusion, state reinstallation, watchdog verdicts
``planner``     the closed-loop migration planner: load samples, skew
                detection, and plan proposal/adoption decisions
``membership``  elastic cluster membership: worker lifecycle transitions,
                epoch-stamped membership views, scale-out/drain progress,
                and autoscaler decisions
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional

TOPIC_ACTIVATION = "activation"
TOPIC_BATCH = "batch"
TOPIC_SEND = "send"
TOPIC_NETWORK = "network"
TOPIC_FRONTIER = "frontier"
TOPIC_CAPABILITY = "capability"
TOPIC_MIGRATION = "migration"
TOPIC_MEMORY = "memory"
TOPIC_FAULTS = "faults"
TOPIC_RECOVERY = "recovery"
TOPIC_PLANNER = "planner"
TOPIC_MEMBERSHIP = "membership"

TOPICS = (
    TOPIC_ACTIVATION,
    TOPIC_BATCH,
    TOPIC_SEND,
    TOPIC_NETWORK,
    TOPIC_FRONTIER,
    TOPIC_CAPABILITY,
    TOPIC_MIGRATION,
    TOPIC_MEMORY,
    TOPIC_FAULTS,
    TOPIC_RECOVERY,
    TOPIC_PLANNER,
    TOPIC_MEMBERSHIP,
)


# -- worker activations ---------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ActivationBegin:
    """A worker's scheduling quantum started."""

    topic: ClassVar[str] = TOPIC_ACTIVATION
    worker: int
    at: float


@dataclass(frozen=True, slots=True)
class ActivationEnd:
    """A worker's scheduling quantum finished deciding its work.

    ``cost`` is the charged CPU seconds; the worker is busy until
    ``busy_until`` and buffered sends leave at that time.
    """

    topic: ClassVar[str] = TOPIC_ACTIVATION
    worker: int
    start: float
    cost: float
    busy_until: float
    batches: int
    at: float


@dataclass(frozen=True, slots=True)
class BatchDelivered:
    """A worker processed one queued batch.

    ``channel`` is ``None`` for source emissions (no channel involved).
    """

    topic: ClassVar[str] = TOPIC_BATCH
    worker: int
    op: int
    channel: Optional[int]
    time: object
    records: int
    size_bytes: float
    at: float


@dataclass(frozen=True, slots=True)
class SendFlushed:
    """A buffered operator send was handed to the network."""

    topic: ClassVar[str] = TOPIC_SEND
    worker: int
    op: int
    port: int
    time: object
    records: int
    at: float


# -- network --------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class MessageEnqueued:
    """A message entered the cluster (and, cross-process, a send queue)."""

    topic: ClassVar[str] = TOPIC_NETWORK
    src_worker: int
    dst_worker: int
    size_bytes: float
    at: float


@dataclass(frozen=True, slots=True)
class MessageTransmitted:
    """A message's last byte left the sender's queue."""

    topic: ClassVar[str] = TOPIC_NETWORK
    src_worker: int
    dst_worker: int
    size_bytes: float
    at: float


# -- progress -------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FrontierAdvanced:
    """An operator's output frontier changed.

    ``frontier`` is the :class:`repro.timely.antichain.Antichain` snapshot
    computed by the progress pump for this change.
    """

    topic: ClassVar[str] = TOPIC_FRONTIER
    op: int
    frontier: object
    at: float


@dataclass(frozen=True, slots=True)
class CapabilityHeld:
    """An operator context acquired a capability at ``time``."""

    topic: ClassVar[str] = TOPIC_CAPABILITY
    worker: int
    op: int
    time: object
    at: float


@dataclass(frozen=True, slots=True)
class CapabilityDropped:
    """An operator context released a capability at ``time``."""

    topic: ClassVar[str] = TOPIC_CAPABILITY
    worker: int
    op: int
    time: object
    at: float


# -- migration lifecycle --------------------------------------------------------


@dataclass(frozen=True, slots=True)
class MigrationStepIssued:
    """A controller injected one reconfiguration step into the control stream."""

    topic: ClassVar[str] = TOPIC_MIGRATION
    time: object
    moves: int
    at: float


@dataclass(frozen=True, slots=True)
class MigrationStepCompleted:
    """The probed output frontier passed a reconfiguration timestamp."""

    topic: ClassVar[str] = TOPIC_MIGRATION
    time: object
    at: float


@dataclass(frozen=True, slots=True)
class MigrationStepOutcome:
    """A step's final accounting, published when it completes or is abandoned.

    ``attempts`` counts issues including retries, so ``attempts > 1`` means
    the step timed out at least once.  Cost models consume these to relate
    step sizes to realized durations.
    """

    topic: ClassVar[str] = TOPIC_MIGRATION
    time: object
    moves: int
    attempts: int
    abandoned: bool
    duration_s: float
    at: float


@dataclass(frozen=True, slots=True)
class BinMigrationPlanned:
    """F finalized a configuration update that moves ``bin`` off this worker."""

    topic: ClassVar[str] = TOPIC_MIGRATION
    name: str
    time: object
    bin: int
    src: int
    dst: int
    at: float


@dataclass(frozen=True, slots=True)
class BinStateExtracted:
    """F took a bin out of the co-located store and queued it for shipping.

    ``serialize_s`` is the CPU charged to serialize ``size_bytes`` of state.
    ``kind`` is the payload's wire form: "full" (whole state), "base"
    (pre-copy snapshot shipped at plan time), or "delta" (dirty keys only).
    """

    topic: ClassVar[str] = TOPIC_MIGRATION
    name: str
    time: object
    bin: int
    src: int
    dst: int
    size_bytes: float
    serialize_s: float
    at: float
    kind: str = "full"


@dataclass(frozen=True, slots=True)
class BinStateInstalled:
    """S received a migrated bin and installed it into its store."""

    topic: ClassVar[str] = TOPIC_MIGRATION
    name: str
    time: object
    bin: int
    worker: int
    size_bytes: float
    deserialize_s: float
    at: float
    kind: str = "full"


# -- memory ---------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class MemorySampled:
    """One periodic sample of a process's modeled RSS.

    ``spilled_bytes`` is cold-tier state reported by spilling backends —
    not part of ``rss_bytes`` (spilled state left RAM), but sampled at the
    same instant so timelines can plot the resident/spilled breakdown.
    ``send_queue_bytes``, part of ``rss_bytes``, is the send-queue backlog.
    """

    topic: ClassVar[str] = TOPIC_MEMORY
    process: int
    rss_bytes: float
    at: float
    spilled_bytes: float = 0
    send_queue_bytes: float = 0


# -- injected faults ------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ProcessCrashed:
    """A simulated process failed; its workers stopped and lost their state."""

    topic: ClassVar[str] = TOPIC_FAULTS
    process: int
    workers: tuple
    at: float


@dataclass(frozen=True, slots=True)
class ProcessRestarted:
    """A crashed process rejoined the cluster with empty workers."""

    topic: ClassVar[str] = TOPIC_FAULTS
    process: int
    workers: tuple
    at: float


@dataclass(frozen=True, slots=True)
class LinkFaultStarted:
    """A link fault window opened (partition, loss, or degradation).

    ``src_process``/``dst_process`` of -1 mean "every process" on that side.
    ``drop_prob`` of 1.0 is a full partition.
    """

    topic: ClassVar[str] = TOPIC_FAULTS
    src_process: int
    dst_process: int
    drop_prob: float
    bandwidth_factor: float
    extra_latency_s: float
    until: float
    at: float


@dataclass(frozen=True, slots=True)
class LinkFaultEnded:
    """A link fault window closed; the link carries traffic normally again."""

    topic: ClassVar[str] = TOPIC_FAULTS
    src_process: int
    dst_process: int
    at: float


@dataclass(frozen=True, slots=True)
class WorkerStallStarted:
    """A worker entered a stall (or slowdown) window."""

    topic: ClassVar[str] = TOPIC_FAULTS
    worker: int
    slowdown: float
    until: float
    at: float


@dataclass(frozen=True, slots=True)
class WorkerStallEnded:
    """A worker's stall window closed; it schedules normally again."""

    topic: ClassVar[str] = TOPIC_FAULTS
    worker: int
    at: float


@dataclass(frozen=True, slots=True)
class MessageDropped:
    """A message was lost (crashed destination, partition, or lossy link).

    The progress accounting for the lost batch is compensated at drop time,
    so the loss degrades the computation's output instead of wedging its
    frontiers.
    """

    topic: ClassVar[str] = TOPIC_FAULTS
    src_worker: int
    dst_worker: int
    size_bytes: float
    reason: str
    at: float


@dataclass(frozen=True, slots=True)
class StorageFaultReport:
    """Durable-log recovery found (and repaired) crash damage on a worker.

    Published by the recovery coordinator when a restarted worker's
    write-ahead log replay detects a torn final frame, checksum-invalid
    frames (bit flips), or a lost unsynced tail.  ``truncated_bytes`` were
    discarded to return the log to its last valid frame; ``frames_replayed``
    and ``bins_recovered`` describe what survived.
    """

    topic: ClassVar[str] = TOPIC_FAULTS
    worker: int
    torn_frame: bool
    corrupt_frame: bool
    lost_tail_bytes: int
    truncated_bytes: int
    frames_replayed: int
    bins_recovered: int
    at: float


@dataclass(frozen=True, slots=True)
class AccountingClamped:
    """A byte pool went negative and was clamped back to zero.

    This is the traced warning of the accounting guards: it indicates a
    fault-path bookkeeping bug (double release, missed charge) that would
    otherwise silently corrupt memory and queue metrics.
    """

    topic: ClassVar[str] = TOPIC_FAULTS
    owner: str
    pool: str
    value: float
    at: float


# -- recovery machinery ---------------------------------------------------------


@dataclass(frozen=True, slots=True)
class MigrationStepTimedOut:
    """An issued reconfiguration step missed its completion deadline."""

    topic: ClassVar[str] = TOPIC_RECOVERY
    time: object
    attempt: int
    timeout_s: float
    at: float


@dataclass(frozen=True, slots=True)
class MigrationStepRetried:
    """A timed-out step was re-issued (possibly retargeted) at a new time."""

    topic: ClassVar[str] = TOPIC_RECOVERY
    time: object
    retry_time: object
    moves: int
    attempt: int
    at: float


@dataclass(frozen=True, slots=True)
class MigrationStepAbandoned:
    """A step exhausted its retry budget and was given up on."""

    topic: ClassVar[str] = TOPIC_RECOVERY
    time: object
    attempts: int
    at: float


@dataclass(frozen=True, slots=True)
class WorkerExcluded:
    """The controller removed a crashed worker from the target configuration."""

    topic: ClassVar[str] = TOPIC_RECOVERY
    worker: int
    orphaned_bins: int
    at: float


@dataclass(frozen=True, slots=True)
class StateReinstalled:
    """Recovery placed bins (snapshot-restored or empty) onto a worker."""

    topic: ClassVar[str] = TOPIC_RECOVERY
    worker: int
    bins: int
    restored_bins: int
    size_bytes: float
    at: float


@dataclass(frozen=True, slots=True)
class BinRecreated:
    """S materialized an empty bin whose state was lost to a fault."""

    topic: ClassVar[str] = TOPIC_RECOVERY
    name: str
    bin: int
    worker: int
    time: object
    at: float


@dataclass(frozen=True, slots=True)
class WatchdogStalled:
    """The liveness watchdog saw no output-frontier movement for too long."""

    topic: ClassVar[str] = TOPIC_RECOVERY
    at: float
    last_advance_at: float
    frontier: tuple


@dataclass(frozen=True, slots=True)
class WatchdogRecovered:
    """The output frontier moved again after a diagnosed stall."""

    topic: ClassVar[str] = TOPIC_RECOVERY
    at: float
    stalled_for_s: float


# -- closed-loop migration planner ----------------------------------------------


@dataclass(frozen=True, slots=True)
class WorkerLoadSampled:
    """One telemetry sample of a worker's windowed load.

    ``load`` is the records applied to the worker's bins inside the
    telemetry window; ``state_bytes`` the modeled bytes it holds (hot and
    cold tiers combined).
    """

    topic: ClassVar[str] = TOPIC_PLANNER
    worker: int
    load: float
    bins: int
    state_bytes: int
    at: float


@dataclass(frozen=True, slots=True)
class SkewDetected:
    """The skew detector armed: load imbalance exceeded its trigger."""

    topic: ClassVar[str] = TOPIC_PLANNER
    ratio: float
    trigger: float
    hot_worker: int
    at: float


@dataclass(frozen=True, slots=True)
class SkewCleared:
    """The skew detector disarmed: imbalance fell below its release level."""

    topic: ClassVar[str] = TOPIC_PLANNER
    ratio: float
    release: float
    at: float


@dataclass(frozen=True, slots=True)
class PlanProposed:
    """The planner searched a plan and priced it."""

    topic: ClassVar[str] = TOPIC_PLANNER
    objective: str
    moves: int
    steps: int
    predicted_cost_s: float
    predicted_gain: float
    at: float


@dataclass(frozen=True, slots=True)
class PlanAdopted:
    """A proposed plan passed the cost/benefit gate and was handed to a
    migration controller (or recorded, in propose-only mode)."""

    topic: ClassVar[str] = TOPIC_PLANNER
    objective: str
    moves: int
    steps: int
    predicted_cost_s: float
    predicted_gain: float
    at: float


@dataclass(frozen=True, slots=True)
class PlanRejected:
    """A proposed plan failed the cost/benefit gate (or hit the cooldown)."""

    topic: ClassVar[str] = TOPIC_PLANNER
    objective: str
    reason: str
    predicted_cost_s: float
    predicted_gain: float
    at: float


# -- elastic cluster membership --------------------------------------------------


@dataclass(frozen=True, slots=True)
class WorkerStateChanged:
    """A worker moved through the membership lifecycle.

    States follow ``standby -> joining -> active -> draining -> retired``;
    ``prev`` names the state the worker left.
    """

    topic: ClassVar[str] = TOPIC_MEMBERSHIP
    worker: int
    prev: str
    state: str
    at: float


@dataclass(frozen=True, slots=True)
class MembershipEpoch:
    """An epoch-stamped view of the active worker set.

    Published by the directory after every lifecycle transition; ``epoch``
    increases monotonically per view so subscribers can order views
    without comparing tuples.
    """

    topic: ClassVar[str] = TOPIC_MEMBERSHIP
    epoch: int
    active: tuple
    joining: tuple
    draining: tuple
    at: float


@dataclass(frozen=True, slots=True)
class ScaleOutStarted:
    """The coordinator began admitting ``workers`` into the cluster."""

    topic: ClassVar[str] = TOPIC_MEMBERSHIP
    workers: tuple
    target_active: int
    moves: int
    at: float


@dataclass(frozen=True, slots=True)
class ScaleOutCompleted:
    """All joining workers own their planned bins and became active."""

    topic: ClassVar[str] = TOPIC_MEMBERSHIP
    workers: tuple
    active: int
    duration_s: float
    at: float


@dataclass(frozen=True, slots=True)
class DrainStarted:
    """The coordinator began evacuating ``workers`` ahead of retirement."""

    topic: ClassVar[str] = TOPIC_MEMBERSHIP
    workers: tuple
    target_active: int
    moves: int
    at: float


@dataclass(frozen=True, slots=True)
class DrainCompleted:
    """Departing workers handed off their bins and retired.

    ``residual_bins`` counts bins still resident on the evacuees when their
    handles closed — it must be zero for a clean drain.
    """

    topic: ClassVar[str] = TOPIC_MEMBERSHIP
    workers: tuple
    active: int
    residual_bins: int
    duration_s: float
    at: float


@dataclass(frozen=True, slots=True)
class AutoscaleDecision:
    """The autoscaler's policy loop produced a verdict.

    ``action`` is ``"scale-out"``, ``"scale-in"``, or ``"hold"`` (holds are
    published only when a trigger was suppressed by cooldown or bounds, with
    the suppressing ``reason``).
    """

    topic: ClassVar[str] = TOPIC_MEMBERSHIP
    action: str
    reason: str
    mean_load: float
    active: int
    target: int
    at: float
