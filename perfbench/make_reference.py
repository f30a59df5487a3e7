#!/usr/bin/env python3
"""Rewrite ``perfbench/reference.json`` from the event-driven engine.

Runs the reference ``run_sisc`` at every lockstep point (about two
minutes and 300 MiB at 10 240 ranks) and records each run's
``run_fingerprint``; the benchmark's lockstep passes must reproduce
them exactly.  Usage, from the repository root::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import (  # noqa: E402
    LOCKSTEP_POINTS,
    REFERENCE_FILE,
    event_driven_fingerprint,
)


def main() -> None:
    fingerprints = {}
    for name, scenario, rounds in LOCKSTEP_POINTS:
        fingerprints[name] = event_driven_fingerprint(scenario, rounds)
        print(f"{name}: {fingerprints[name]}", flush=True)
    REFERENCE_FILE.write_text(
        json.dumps({"lockstep_fingerprints": fingerprints}, indent=2) + "\n"
    )


if __name__ == "__main__":
    main()
