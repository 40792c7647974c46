"""``DestinationBatch`` carriers and ``batch_record_count`` accounting."""

from array import array

from repro.runtime_events.columns import ColumnBatch
from repro.runtime_events.items import DestinationBatch, batch_record_count


def _carrier(dst: int, records: list) -> DestinationBatch:
    batch = ColumnBatch.from_objects(records, range(len(records)))
    return DestinationBatch(
        dst=dst, count=len(records), bin_ids=array("q", [0] * len(records)),
        columns=batch,
    )


def test_plain_lists_count_by_len():
    assert batch_record_count([]) == 0
    assert batch_record_count([("k", 1), ("k", 2)]) == 2


def test_grouped_batches_count_underlying_records():
    batches = [_carrier(0, ["a", "b", "c"]), _carrier(2, ["d"])]
    assert batch_record_count(batches) == 4


def test_count_field_is_authoritative_for_costing():
    # The carrier's count — not the number of carriers — is what cost
    # models must see; one carrier can hold arbitrarily many records.
    batch = DestinationBatch(
        dst=1, count=100, bin_ids=array("q"), columns=ColumnBatch.from_objects([], [])
    )
    assert batch_record_count([batch]) == 100
