"""Megaphone: latency-conscious state migration for streaming dataflows.

The paper's primary contribution, implemented as a library on the simulated
timely dataflow runtime in ``repro.timely`` — exactly as the original is a
library on unmodified Rust timely dataflow.

Public surface:

* operator constructors ``state_machine`` / ``unary`` / ``binary``
  (paper Listing 1), each returning a :class:`MigrateableOperator`;
* migration planning: one step grouper, ``schedule``, whose settings
  are the strategies (``STRATEGIES``, built by name with ``make_plan``),
  and the targets it plans toward (``imbalanced_target``,
  ``balanced_target``, ``drain_target``);
* the one :class:`MigrationController` per run, which feeds each
  submitted ``MigrationPlan`` into the control stream, one at a time, and
  awaits per-step completion via frontier probes, with timeouts, retries
  and crash retargeting as an optional :class:`FaultHandling` bundle;
* binning and configuration primitives (``BinnedConfiguration``,
  ``ControlInst``, ``bin_of``, ``stable_hash``).
"""

from repro.lazy import exports

__getattr__, __all__ = exports(__name__, {
    "api": ("Notificator", "binary", "state_machine", "unary"),
    "bins": ("Bin", "BinStore"),
    "control": (
        "BinnedConfiguration", "ControlInst", "bin_of", "splitmix64", "stable_hash",
    ),
    "controller": (
        "EpochTicker", "FaultHandling", "MigrationController", "MigrationResult",
        "RetryPolicy", "StepResult",
    ),
    "migration": (
        "STRATEGIES", "MigrationPlan", "MigrationStep", "balanced_target",
        "drain_target", "imbalanced_target", "make_plan", "schedule",
    ),
    "operators": ("ApplicationContext", "MigrateableOperator", "build_migrateable"),
    "plan_io": (
        "dump_configuration", "dump_plan", "load_configuration", "load_plan",
        "plan_from_dict", "plan_to_dict",
    ),
    "routing": ("RoutingTable",),
    "snapshot": ("BinSnapshot", "OperatorSnapshot", "SnapshotCoordinator", "restore_into"),
})
