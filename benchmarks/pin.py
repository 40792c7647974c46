#!/usr/bin/env python3
"""Pin sweep reports: keep each cell's ``result_fingerprint`` and nothing else.

Usage::

    python benchmarks/pin.py benchmarks/results/fig16.json [...]

writes ``benchmarks/pins/<stem>.json`` for each report: the report's
``schema`` and one ``(cell, result_fingerprint)`` row per cell, one row a
line.  ``repro.cli matrix --spec SPEC --check benchmarks/pins/<stem>.json``
then fails on any cell whose fingerprint moved, and on any pinned cell
the spec no longer has.  Re-pin a spec only when a change moves its cells
on purpose, and name the moved cells and the reason in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

PINS = Path(__file__).resolve().parent / "pins"


def pin(report_path: str) -> int:
    """Write the pin of one report; return how many cells it pins."""
    report = json.loads(Path(report_path).read_text(encoding="utf-8"))
    failed = [row["cell"] for row in report["cells"] if row["status"] != "ok"]
    if failed:
        raise SystemExit(f"{report_path}: cells did not complete: {', '.join(failed)}")
    rows = [
        json.dumps({"cell": row["cell"], "result_fingerprint": row["result_fingerprint"]})
        for row in report["cells"]
    ]
    out = PINS / Path(report_path).name
    out.write_text(
        '{\n  "schema": %s,\n  "cells": [\n    %s\n  ]\n}\n'
        % (json.dumps(report["schema"]), ",\n    ".join(rows)),
        encoding="utf-8",
    )
    return len(rows)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        raise SystemExit(__doc__)
    PINS.mkdir(exist_ok=True)
    for path in sys.argv[1:]:
        print(f"pinned {pin(path)} cells: {path}")
