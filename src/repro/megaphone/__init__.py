"""Megaphone: latency-conscious state migration for streaming dataflows.

The paper's primary contribution, implemented as a library on the simulated
timely dataflow runtime in ``repro.timely`` — exactly as the original is a
library on unmodified Rust timely dataflow.

Public surface:

* operator constructors ``state_machine`` / ``unary`` / ``binary``
  (paper Listing 1), each returning a :class:`MigrateableOperator`;
* migration planning (``plan_all_at_once`` / ``plan_fluid`` /
  ``plan_batched`` / ``plan_optimized`` and ``make_plan``);
* the one :class:`MigrationController` per run, which feeds each
  submitted ``MigrationPlan`` into the control stream, one at a time, and
  awaits per-step completion via frontier probes, with timeouts, retries
  and crash retargeting as an optional :class:`FaultHandling` bundle;
* binning and configuration primitives (``BinnedConfiguration``,
  ``ControlInst``, ``bin_of``, ``stable_hash``).
"""

from repro.megaphone.api import Notificator, binary, state_machine, unary
from repro.megaphone.bins import Bin, BinStore
from repro.megaphone.control import (
    BinnedConfiguration,
    ControlInst,
    bin_of,
    splitmix64,
    stable_hash,
)
from repro.megaphone.controller import (
    EpochTicker,
    FaultHandling,
    MigrationController,
    MigrationResult,
    RetryPolicy,
    StepResult,
)
from repro.megaphone.migration import (
    STRATEGIES,
    MigrationPlan,
    MigrationStep,
    imbalanced_target,
    make_plan,
    plan_all_at_once,
    plan_batched,
    plan_fluid,
    plan_optimized,
    rebalanced_target,
)
from repro.megaphone.operators import (
    ApplicationContext,
    MigrateableOperator,
    build_migrateable,
)
from repro.megaphone.plan_io import (
    dump_configuration,
    dump_plan,
    load_configuration,
    load_plan,
    plan_from_dict,
    plan_to_dict,
)
from repro.megaphone.routing import RoutingTable
from repro.megaphone.snapshot import (
    BinSnapshot,
    OperatorSnapshot,
    SnapshotCoordinator,
    restore_into,
)

__all__ = [
    "ApplicationContext",
    "BinSnapshot",
    "OperatorSnapshot",
    "SnapshotCoordinator",
    "dump_configuration",
    "dump_plan",
    "load_configuration",
    "load_plan",
    "plan_from_dict",
    "plan_to_dict",
    "restore_into",
    "Bin",
    "BinStore",
    "BinnedConfiguration",
    "ControlInst",
    "EpochTicker",
    "FaultHandling",
    "MigrateableOperator",
    "MigrationController",
    "MigrationPlan",
    "MigrationResult",
    "MigrationStep",
    "Notificator",
    "RetryPolicy",
    "RoutingTable",
    "STRATEGIES",
    "StepResult",
    "bin_of",
    "binary",
    "build_migrateable",
    "imbalanced_target",
    "make_plan",
    "plan_all_at_once",
    "plan_batched",
    "plan_fluid",
    "plan_optimized",
    "rebalanced_target",
    "splitmix64",
    "stable_hash",
    "state_machine",
    "unary",
]
