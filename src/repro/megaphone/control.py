"""Control commands: timestamped configuration updates.

Paper §3.3: state migration is driven by updates to the configuration
function, supplied as data along a timely dataflow stream.  Every update has
the form ``(time, bin, worker)`` — as of ``time``, the state and values for
``bin`` live at ``worker`` — where ``time`` is the record's logical
timestamp on the control stream.  All commands sharing one timestamp form
one atomic reconfiguration step.
"""

from __future__ import annotations

from dataclasses import dataclass



@dataclass(frozen=True)
class ControlInst:
    """One configuration update: move ``bin`` to ``worker``.

    The effective time is the logical timestamp the instruction carries on
    the control stream, not a field of the instruction itself.
    """

    bin: int
    worker: int


def splitmix64(value: int) -> int:
    """Deterministic 64-bit mixer used to spread keys across bins."""
    value = (value + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 31)


def stable_hash(key: object) -> int:
    """A deterministic 64-bit hash (Python's ``hash`` is salted per run).

    Integers hash through splitmix; strings and bytes through FNV-1a;
    tuples combine their components.
    """
    if isinstance(key, bool):
        return splitmix64(int(key))
    if isinstance(key, int):
        return splitmix64(key & 0xFFFFFFFFFFFFFFFF)
    if isinstance(key, str):
        key = key.encode("utf-8")
    if isinstance(key, bytes):
        h = 0xCBF29CE484222325
        for byte in key:
            h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        return h
    if isinstance(key, tuple):
        h = 0x9E3779B97F4A7C15
        for part in key:
            h = splitmix64(h ^ stable_hash(part))
        return h
    raise TypeError(f"cannot stably hash {type(key).__name__}")


def bin_bits(num_bins: int) -> int:
    """log2 of a bin count; ValueError unless it is a power of two."""
    if num_bins <= 0:
        raise ValueError(f"num_bins must be positive, got {num_bins}")
    if num_bins & (num_bins - 1):
        raise ValueError(f"num_bins must be a power of two, got {num_bins}")
    return num_bins.bit_length() - 1


def bin_of(key_int: int, num_bins: int) -> int:
    """Map an integer key to a bin using the hash's most significant bits.

    Megaphone identifies bins by the top bits of the exchange hash (paper
    §4.2): low bits stay available for worker routing and hash-map
    placement, and similar keys do not collide into one bin.
    """
    bits = bin_bits(num_bins)
    if bits == 0:
        return 0
    return splitmix64(key_int) >> (64 - bits)


@dataclass(frozen=True)
class BinnedConfiguration:
    """A full assignment of bins to workers at one instant."""

    assignment: tuple[int, ...]

    @classmethod
    def round_robin(cls, num_bins: int, num_workers: int) -> "BinnedConfiguration":
        """Bins dealt to workers in turn — the default initial placement."""
        return cls(tuple(b % num_workers for b in range(num_bins)))

    @classmethod
    def contiguous(cls, num_bins: int, num_workers: int) -> "BinnedConfiguration":
        """Bins split into contiguous worker ranges."""
        per = num_bins / num_workers
        return cls(tuple(min(int(b / per), num_workers - 1) for b in range(num_bins)))

    @property
    def num_bins(self) -> int:
        return len(self.assignment)

    def worker_of(self, bin_id: int) -> int:
        """Owner of ``bin_id``."""
        return self.assignment[bin_id]

    def bins_of(self, worker: int) -> list[int]:
        """Bins owned by ``worker``."""
        return [b for b, w in enumerate(self.assignment) if w == worker]

    def moved_bins(self, target: "BinnedConfiguration") -> list[ControlInst]:
        """The instructions needed to turn this configuration into ``target``."""
        if target.num_bins != self.num_bins:
            raise ValueError("configurations must have the same number of bins")
        return [
            ControlInst(bin=b, worker=w)
            for b, w in enumerate(target.assignment)
            if self.assignment[b] != w
        ]

    def apply(self, insts: list[ControlInst]) -> "BinnedConfiguration":
        """The configuration after applying ``insts``."""
        assignment = list(self.assignment)
        for inst in insts:
            assignment[inst.bin] = inst.worker
        return BinnedConfiguration(tuple(assignment))
