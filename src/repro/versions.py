"""One home for every on-disk format version the reproduction writes.

The repo emits several durable artifacts — migration plans (plan_io),
the experiment-matrix report, and the obsv event log.  Each format
carries a version so readers can refuse documents they cannot faithfully
interpret; before this module those constants were scattered across the
writers, which made "can this build replay that log?" unanswerable in
one place.

Two version styles coexist, for compatibility with what is already
checked in:

* integer versions (plan_io documents: ``{"version": 2, ...}``),
* schema tags (report files: ``{"schema": "bench-matrix/2", ...}``),
  parsed by :func:`parse_schema` into a ``(family, version)`` pair.

A reader accepts a document when its version is listed in the matching
``*_READ_VERSIONS`` tuple.  Replay is the strictest consumer: an event
log whose version is not in :data:`EVENT_LOG_READ_VERSIONS` must be
rejected outright, because re-executing it under different semantics
would "verify" a fingerprint the original run never produced.
"""

from __future__ import annotations

# -- migration plans (repro.megaphone.plan_io) ----------------------------------
# Version 2 added the optional ``provenance`` block; provenance-less
# documents are still written as version 1 so older readers accept them.
PLAN_FORMAT_VERSION = 2
PLAN_READ_VERSIONS = (1, 2)

# -- experiment-matrix reports (repro.obsv.matrix) ------------------------------
# bench-matrix/2 dropped every wall-clock field (throughput, tolerances,
# host metadata beyond the interpreter version); the gate reads only what
# both versions carry, so v1 baselines still check.
MATRIX_SCHEMA_FAMILY = "bench-matrix"
MATRIX_SCHEMA_VERSION = 2
MATRIX_SCHEMA = f"{MATRIX_SCHEMA_FAMILY}/{MATRIX_SCHEMA_VERSION}"
MATRIX_READ_VERSIONS = (1, 2)

# -- obsv event logs (repro.obsv.eventlog) --------------------------------------
# v2 added the elastic-membership provenance (active_workers, scaling_plan,
# autoscale config fields) and the ``membership`` trace topic.  v3 is the
# engine change that fires the callbacks due at one simulated instant from
# one heap entry.  v4 lets that entry keep taking the callbacks scheduled at
# its instant while it fires.  Both run the same callbacks in the same
# order, but ``sim_events`` counts heap entries, and the footer's
# fingerprint hashes it, so an older footer can no longer be reproduced and
# is rejected.
EVENT_LOG_VERSION = 4
EVENT_LOG_READ_VERSIONS = (4,)
# Why a log older than the read versions is refused.
EVENT_LOG_RETIRED_REASON = (
    "logs before v4 count more simulator events for the same callbacks: "
    "since v3 the callbacks due at one simulated instant share one heap "
    "event, and since v4 that event also fires the callbacks scheduled at "
    "its instant while it fires, so an older footer's fingerprint cannot "
    "be reproduced"
)


def parse_schema(tag: str) -> tuple[str, int]:
    """Split a ``"family/N"`` schema tag into ``(family, N)``.

    Raises ``ValueError`` for anything that is not exactly one family name,
    one slash, and one integer — a mangled tag must not parse as "version
    0 of something".
    """
    if not isinstance(tag, str):
        raise ValueError(f"schema tag must be a string, got {type(tag).__name__}")
    family, sep, version = tag.rpartition("/")
    if not sep or not family:
        raise ValueError(f"malformed schema tag {tag!r}; expected 'family/N'")
    try:
        number = int(version)
    except ValueError:
        raise ValueError(
            f"malformed schema tag {tag!r}; version {version!r} is not an integer"
        ) from None
    return family, number


def check_schema(tag: str, family: str, read_versions: tuple) -> int:
    """Validate ``tag`` against a family and its readable versions.

    Returns the parsed version on success; raises ``ValueError`` naming
    the family and the versions this build can read otherwise.
    """
    got_family, version = parse_schema(tag)
    if got_family != family:
        raise ValueError(
            f"schema {tag!r} is not a {family!r} document"
        )
    if version not in read_versions:
        raise ValueError(
            f"unsupported {family} version {version} "
            f"(this build reads versions {read_versions})"
        )
    return version
