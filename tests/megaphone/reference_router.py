"""The per-record reference router: the test oracle for F's data path.

F routes every data batch as columns (``_FLogic._route_batch``).  This is
the straightforward version it must match: each record is hashed on its
own with the scalar splitmix64 (``bin_of``) over its port's exchange
function, and every bin's owner is resolved with the routing table's
binary search (``worker_for``) at the batch's time, memoized per bin —
never the steady-state owners read.  It emits the same columnar
``DestinationBatch`` carriers, so S cannot tell which router ran:

* destinations in first-occurrence order;
* per destination, its records in arrival order with their bin ids;
* a ``ColumnBatch`` input keeps its kind (the destination's rows, taken
  by index); a list input becomes ``ColumnBatch.from_objects``.

Keys come from the exchange function even for a ``ColumnBatch``, so the
oracle also pins the producer's contract that a key column equals the
exchange function, masked to 64 bits.

``install(monkeypatch)`` swaps the oracle into every F for a whole run.
"""

from __future__ import annotations

from array import array

from repro.megaphone.control import bin_of
from repro.megaphone.operators import _FLogic
from repro.runtime_events import columns
from repro.runtime_events.columns import MASK64, ColumnBatch
from repro.runtime_events.items import DestinationBatch


def _bin_column(bin_ids: list, like):
    """``bin_ids`` as a signed column in the representation of ``like``."""
    if columns.is_numpy_column(like):
        np = columns._numpy()
        return np.asarray(bin_ids, dtype=np.int64)
    return array("q", bin_ids)


def reference_route(logic: _FLogic, ctx, time, port_tag: int, records) -> None:
    """Drop-in for ``_FLogic._route_batch``: route ``records`` per record."""
    config = logic._config
    key_fn = config.key_fns[port_tag]
    column_input = type(records) is ColumnBatch
    objs = records.to_records() if column_input else records
    worker_for = logic._table.worker_for
    owners: dict[int, int] = {}
    # dst -> [record positions], [bin ids]; dict order is first occurrence.
    out: dict[int, tuple[list, list]] = {}
    for pos, record in enumerate(objs):
        bin_id = bin_of(key_fn(record), config.num_bins)
        dst = owners.get(bin_id)
        if dst is None:
            dst = owners[bin_id] = worker_for(bin_id, time)
        positions, bins = out.setdefault(dst, ([], []))
        positions.append(pos)
        bins.append(bin_id)
    carriers = []
    for dst, (positions, bins) in out.items():
        if column_input:
            batch = records.take(positions)
        else:
            kept = [objs[i] for i in positions]
            batch = ColumnBatch.from_objects(
                kept, [key_fn(record) & MASK64 for record in kept]
            )
        carriers.append(
            DestinationBatch(
                dst=dst,
                count=len(positions),
                bin_ids=_bin_column(bins, batch.keys),
                columns=batch,
                tag=port_tag,
            )
        )
    if carriers:
        ctx.send(0, time, carriers)


def install(monkeypatch) -> None:
    """Route every F through the oracle for the rest of the test."""
    monkeypatch.setattr(_FLogic, "_route_batch", reference_route)
