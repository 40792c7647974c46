"""Megaphone's public operator interface (paper Listing 1).

Three constructors mirror the abstract definition in the paper:

* ``state_machine(control, input, exchange, fold)`` — per-record state
  updates, ``fold(key, val, state) -> outputs``;
* ``unary(control, input, exchange, fold)`` — frontier-aware single-input
  operator, ``fold(time, data, state, notificator) -> outputs``;
* ``binary(control, input1, input2, exchange1, exchange2, fold)`` —
  two-input operator, ``fold(time, data1, data2, state, notificator) ->
  outputs``.

``state`` is the per-bin state object (mutable in place); ``notificator``
schedules post-dated records that will be presented to the fold again at a
future time and that migrate together with the bin.  Migration is fully
transparent to the fold.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.megaphone.control import BinnedConfiguration, stable_hash
from repro.megaphone.operators import (
    ApplicationContext,
    MigrateableOperator,
    build_migrateable,
)
from repro.timely.dataflow import Stream
from repro.timely.timestamp import Timestamp


class Notificator:
    """Schedules post-dated records for the current bin (paper §4.3)."""

    def __init__(self, app: ApplicationContext, tag: int = 0) -> None:
        self._app = app
        self._tag = tag

    def notify_at(self, time: Timestamp, record: object) -> None:
        """Present ``record`` to the fold again at ``time``."""
        self._app.schedule(time, record, tag=self._tag)


def state_machine(
    control: Stream,
    input: Stream,
    exchange: Callable[[object], int] = stable_hash,
    fold: Optional[Callable[[object, object, object], Iterable]] = None,
    num_bins: int = 256,
    initial: Optional[BinnedConfiguration] = None,
    name: str = "state_machine",
    state_factory: Callable[[], object] = dict,
    state_size_fn: Optional[Callable[[object], float]] = None,
    state_backend: str = "dict",
    codec: str = "modeled",
    backend_options: Optional[dict] = None,
    columnar_applier: Optional[Callable] = None,
    delta_migration: bool = False,
) -> MigrateableOperator:
    """Migrateable per-record state machine over ``(key, val)`` pairs.

    ``fold(key, val, state)`` returns the outputs caused by applying
    ``val`` to ``key``'s entry in the bin-level ``state``.

    ``columnar_applier``, when given, is a whole-group fold over a
    :class:`repro.runtime_events.columns.ColumnGroup`; S uses it for every
    notification without post-dated work and it must produce exactly the
    outputs and state mutations ``fold`` would.  The group's ``keys`` are
    the routing keys; its ``vals`` are a value column for ``(key, val)``
    column batches and the records themselves for plain record lists.
    """
    if fold is None:
        raise ValueError("a fold function is required")

    def applier(app: ApplicationContext) -> None:
        state = app.state
        extend = app.outputs.extend
        for _tag, record in app.entries:
            key, val = record
            extend(fold(key, val, state))

    return build_migrateable(
        control,
        [input],
        [lambda record: exchange(record[0])],
        applier,
        num_bins=num_bins,
        name=name,
        initial=initial,
        state_factory=state_factory,
        state_size_fn=state_size_fn,
        state_backend=state_backend,
        codec=codec,
        backend_options=backend_options,
        columnar_applier=columnar_applier,
        delta_migration=delta_migration,
    )


def unary(
    control: Stream,
    input: Stream,
    exchange: Callable[[object], int],
    fold: Callable[[Timestamp, list, object, Notificator], Iterable],
    num_bins: int = 256,
    initial: Optional[BinnedConfiguration] = None,
    name: str = "unary",
    state_factory: Callable[[], object] = dict,
    state_size_fn: Optional[Callable[[object], float]] = None,
    state_backend: str = "dict",
    codec: str = "modeled",
    backend_options: Optional[dict] = None,
    delta_migration: bool = False,
) -> MigrateableOperator:
    """Migrateable single-input stateful operator.

    ``fold(time, data, state, notificator)`` receives all records of one
    (time, bin) group in timestamp order and returns output records.
    """

    def applier(app: ApplicationContext) -> None:
        data = [record for _tag, record in app.entries]
        app.emit(fold(app.time, data, app.state, Notificator(app)))

    return build_migrateable(
        control,
        [input],
        [exchange],
        applier,
        num_bins=num_bins,
        name=name,
        initial=initial,
        state_factory=state_factory,
        state_size_fn=state_size_fn,
        state_backend=state_backend,
        codec=codec,
        backend_options=backend_options,
        delta_migration=delta_migration,
    )


def binary(
    control: Stream,
    input1: Stream,
    input2: Stream,
    exchange1: Callable[[object], int],
    exchange2: Callable[[object], int],
    fold: Callable[[Timestamp, list, list, object, Notificator], Iterable],
    num_bins: int = 256,
    initial: Optional[BinnedConfiguration] = None,
    name: str = "binary",
    state_factory: Callable[[], object] = dict,
    state_size_fn: Optional[Callable[[object], float]] = None,
    state_backend: str = "dict",
    codec: str = "modeled",
    backend_options: Optional[dict] = None,
    delta_migration: bool = False,
) -> MigrateableOperator:
    """Migrateable two-input stateful operator.

    Both inputs are routed by their own exchange function but must agree on
    the key space: the migration mechanism acts on both inputs at the same
    time (paper §3.4).  ``fold(time, data1, data2, state, notificator)``.
    """

    def applier(app: ApplicationContext) -> None:
        data1 = [record for tag, record in app.entries if tag == 0]
        data2 = [record for tag, record in app.entries if tag == 1]
        app.emit(fold(app.time, data1, data2, app.state, Notificator(app)))

    return build_migrateable(
        control,
        [input1, input2],
        [exchange1, exchange2],
        applier,
        num_bins=num_bins,
        name=name,
        initial=initial,
        state_factory=state_factory,
        state_size_fn=state_size_fn,
        state_backend=state_backend,
        codec=codec,
        backend_options=backend_options,
        delta_migration=delta_migration,
    )
