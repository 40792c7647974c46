"""The timestamped routing table: ``configuration(time, bin) -> worker``.

Each F instance maintains one (paper Figure 4).  Updates are integrated only
once their timestamp is no longer in advance of the control-stream frontier —
before that the configuration at their time is not yet final, so data at
those times must be buffered.
"""

from __future__ import annotations

from repro.megaphone.control import BinnedConfiguration, ControlInst
from repro.timely.timestamp import Timestamp


class RoutingTable:
    """Per-bin history of ``(effective_time, worker)`` entries.

    Lookup returns the entry with the greatest effective time that is not in
    advance of the queried time.  Entries must be integrated in
    non-decreasing time order per bin, which the control-frontier discipline
    guarantees.

    ``current_owners`` holds each bin's latest entry as a flat array.  A bin
    whose history is that single entry keeps no other record; only bins
    with older entries still reachable have a history in ``_deep``, and
    ``history_flat`` reports that there are none — then a lookup at any
    time is the current owner and callers may bypass the binary search
    entirely (the steady-state fast path).  ``compact`` restores flatness
    once old entries become unreachable.
    """

    __slots__ = (
        "num_bins",
        "current_owners",
        "_deep",
        "_owners_cache",
    )

    def __init__(self, initial: BinnedConfiguration) -> None:
        self.num_bins = initial.num_bins
        self._owners_cache = None
        self.current_owners: list[int] = list(initial.assignment)
        # Bin -> parallel lists of effective times and workers, for bins
        # whose history holds more than one entry.  Entry 0 is the base,
        # with time None ("since forever").  Compaction visits only these,
        # so it is O(moved bins) rather than O(all bins).
        self._deep: dict[int, tuple[list, list[int]]] = {}

    @property
    def history_flat(self) -> bool:
        """True when every bin has exactly one (the base) entry."""
        return not self._deep

    def integrate(self, time: Timestamp, insts: list[ControlInst]) -> None:
        """Apply a final reconfiguration step effective at ``time``."""
        owners = self.current_owners
        for inst in insts:
            history = self._deep.get(inst.bin)
            if history is None:
                self._deep[inst.bin] = ([None, time], [owners[inst.bin], inst.worker])
            else:
                times, workers = history
                last = times[-1]
                if not last <= time:
                    raise ValueError(
                        f"control updates for bin {inst.bin} integrated out of "
                        f"order: {last!r} then {time!r}"
                    )
                if last == time:
                    # Same-time update overwrites (last write wins within a step).
                    workers[-1] = inst.worker
                else:
                    times.append(time)
                    workers.append(inst.worker)
            owners[inst.bin] = inst.worker
        self._owners_cache = None

    def worker_for(self, bin_id: int, time: Timestamp) -> int:
        """Owner of ``bin_id`` for records at ``time``."""
        history = self._deep.get(bin_id)
        if history is None:
            return self.current_owners[bin_id]
        times, workers = history
        # Find rightmost entry with effective time <= time; entry 0 (None)
        # is the base and matches everything.
        lo, hi = 1, len(times)
        while lo < hi:
            mid = (lo + hi) // 2
            if times[mid] <= time:
                lo = mid + 1
            else:
                hi = mid
        return workers[lo - 1]

    def current_owner(self, bin_id: int) -> int:
        """Owner per the latest integrated entry."""
        return self.current_owners[bin_id]

    def owners_vector(self):
        """``current_owners`` as an indexable column for vectorized gathers.

        Cached until the next :meth:`integrate`; while the history is flat
        the vectorized F path gathers destination workers from this column
        in one operation instead of one ``worker_for`` call per record.
        Batches in the ``array`` representation index the flat
        ``current_owners`` list directly instead.
        """
        vec = self._owners_cache
        if vec is None:
            from repro.runtime_events import columns

            vec = columns.make_index_vector(self.current_owners)
            self._owners_cache = vec
        return vec

    def compact(self, before: Timestamp) -> None:
        """Drop history that can no longer be queried (data frontier passed).

        Retains the latest entry at or before ``before`` as the new base; a
        bin left with the base alone leaves ``_deep``.
        """
        for b in sorted(self._deep):
            times, workers = self._deep[b]
            keep_from = 0
            for i in range(1, len(times)):
                if times[i] <= before:
                    keep_from = i
                else:
                    break
            if keep_from == len(times) - 1:
                del self._deep[b]
            elif keep_from > 0:
                self._deep[b] = ([None] + times[keep_from + 1:], workers[keep_from:])

    def snapshot(self) -> BinnedConfiguration:
        """The latest integrated configuration."""
        return BinnedConfiguration(tuple(self.current_owners))
