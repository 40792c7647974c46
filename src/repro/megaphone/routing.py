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

    ``current_owners`` mirrors each bin's latest entry as a flat array, and
    ``history_flat`` reports whether every bin's history is a single entry —
    when it is, a lookup at any time is the current owner and callers may
    bypass the binary search entirely (the steady-state fast path).
    ``compact`` restores flatness once old entries become unreachable.
    """

    __slots__ = (
        "num_bins",
        "_times",
        "_workers",
        "current_owners",
        "_deep",
        "_owners_cache",
    )

    def __init__(self, initial: BinnedConfiguration) -> None:
        self.num_bins = initial.num_bins
        self._owners_cache = None
        # Per bin: parallel lists of effective times and workers.
        self._times: list[list[Timestamp]] = [[] for _ in range(self.num_bins)]
        self._workers: list[list[int]] = [list() for _ in range(self.num_bins)]
        for b, w in enumerate(initial.assignment):
            self._times[b].append(None)  # placeholder for "since forever"
            self._workers[b].append(w)
        # None sorts issues: store times as a sentinel -inf via index 0.
        self.current_owners: list[int] = list(initial.assignment)
        # Bins whose history holds more than one entry; compaction visits
        # only these, so it is O(moved bins) rather than O(all bins).
        self._deep: set[int] = set()

    @property
    def history_flat(self) -> bool:
        """True when every bin has exactly one (the base) entry."""
        return not self._deep

    def integrate(self, time: Timestamp, insts: list[ControlInst]) -> None:
        """Apply a final reconfiguration step effective at ``time``."""
        for inst in insts:
            times = self._times[inst.bin]
            last = times[-1]
            if last is not None and not last <= time:
                raise ValueError(
                    f"control updates for bin {inst.bin} integrated out of "
                    f"order: {last!r} then {time!r}"
                )
            if last == time:
                # Same-time update overwrites (last write wins within a step).
                self._workers[inst.bin][-1] = inst.worker
            else:
                times.append(time)
                self._workers[inst.bin].append(inst.worker)
                self._deep.add(inst.bin)
            self.current_owners[inst.bin] = inst.worker
        self._owners_cache = None

    def worker_for(self, bin_id: int, time: Timestamp) -> int:
        """Owner of ``bin_id`` for records at ``time``."""
        times = self._times[bin_id]
        # Find rightmost entry with effective time <= time; entry 0 (None)
        # is the initial assignment and matches everything.
        lo, hi = 1, len(times)
        while lo < hi:
            mid = (lo + hi) // 2
            if times[mid] <= time:
                lo = mid + 1
            else:
                hi = mid
        return self._workers[bin_id][lo - 1]

    def current_owner(self, bin_id: int) -> int:
        """Owner per the latest integrated entry."""
        return self._workers[bin_id][-1]

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

        Retains the latest entry at or before ``before`` as the new base.
        """
        for b in sorted(self._deep):
            times = self._times[b]
            keep_from = 0
            for i in range(1, len(times)):
                if times[i] <= before:
                    keep_from = i
                else:
                    break
            if keep_from > 0:
                self._times[b] = [None] + times[keep_from + 1:]
                self._workers[b] = [self._workers[b][keep_from]] + self._workers[b][
                    keep_from + 1:
                ]
                if len(self._times[b]) == 1:
                    self._deep.discard(b)

    def snapshot(self) -> BinnedConfiguration:
        """The latest integrated configuration."""
        return BinnedConfiguration(
            tuple(self._workers[b][-1] for b in range(self.num_bins))
        )
