"""What the benchmark measures: workloads, metrics and the layer map.

This module is the single source of ``BENCHMARK.json`` (``run.py
--workload all`` rewrites it from here) and of the layer attribution the
traced run uses.  It imports nothing from ``repro``.
"""

from __future__ import annotations

import re
from pathlib import Path

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: How one run measures: repeat the set-up this many times and report
#: the median, then time whole passes of the workload for ``RUN_SECONDS``.
SETUP_REPEATS = 3
RUN_SECONDS = 30

#: (name, seeded, why).  A seed-free workload ignores ``--seed``.
WORKLOADS: tuple[tuple[str, bool, str], ...] = (
    (
        "figure5_quick",
        False,
        "Figure 5 at p=4,8,16 with and without LB: framework-bound "
        "(des, runtime, grid, core, lb); numerics cost almost nothing",
    ),
    (
        "table1_quick",
        False,
        "Table 1 Brusselator on the 15-host 3-site grid with load traces, "
        "with and without LB: kernel-bound (problems, numerics)",
    ),
    (
        "lockstep_scale",
        False,
        "rank-batched lockstep SISC at 1024x4 Brusselator and 10240x100 "
        "synthetic: numpy path, no DES events, peak memory",
    ),
    (
        "faulted_recovery",
        True,
        "heat on 4 procs under bit flips, loss+crash and perturbation "
        "with guard: faults, integrity, guard, resilient transport",
    ),
)

#: (name, unit, better, bound) — reported with ``--trace 0``.
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("wall_s", "s", "lower", 0.25),
    ("sim_events_per_s", "events/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("virtual_s", "sim_s", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
)

#: Every ``repro`` module belongs to exactly one layer: a module's layer
#: is that of its longest dotted prefix listed here.
LAYER_OF: dict[str, str] = {
    "repro": "exec",
    "repro.__main__": "exec",
    "repro.cli": "exec",
    "repro.analysis": "exec",
    "repro.exec": "exec",
    "repro.experiments": "exec",
    "repro.serve": "exec",
    "repro.workloads": "exec",
    "repro.des": "des",
    "repro.runtime": "runtime",
    "repro.grid": "grid",
    "repro.topology": "grid",
    "repro.core": "core",
    "repro.util": "core",
    "repro.core.lb": "lb",
    "repro.balancing": "lb",
    "repro.problems": "problems",
    "repro.numerics": "numerics",
    "repro.models": "models",
    "repro.faults": "faults",
    "repro.integrity": "integrity",
    "repro.guard": "guard",
    "repro.obs": "obs",
}

#: Layers of code outside ``repro``: numpy/scipy, and everything else
#: (the interpreter's builtins, the standard library, this benchmark).
EXTERNAL_LAYERS = ("numpy", "python")
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(LAYER_OF.values())) + EXTERNAL_LAYERS

_COUNT = "count"
_RATIO = "ratio"

#: (name, unit, better) — reported with ``--trace 1``.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("des.events", _COUNT, "lower"),
    ("des.events_per_batch", _RATIO, "higher"),
    ("des.peak_queue", _COUNT, "lower"),
    ("runtime.msgs", _COUNT, "lower"),
    ("runtime.bytes", "bytes", "lower"),
    ("runtime.msgs.halo", _COUNT, "lower"),
    ("runtime.msgs.lb", _COUNT, "lower"),
    ("runtime.msgs.detect", _COUNT, "lower"),
    ("runtime.retries", _COUNT, "lower"),
    ("runtime.dups_suppressed", _COUNT, "lower"),
    ("runtime.stale_rejected", _COUNT, "lower"),
    ("grid.arrival_calls", _COUNT, "lower"),
    ("grid.duration_calls", _COUNT, "lower"),
    ("core.sweeps", _COUNT, "lower"),
    ("core.virtual_idle_frac", _RATIO, "lower"),
    ("core.stale_halos_dropped", _COUNT, "lower"),
    ("lb.offers", _COUNT, "lower"),
    ("lb.migrations", _COUNT, "lower"),
    ("lb.components_migrated", _COUNT, "lower"),
    ("lb.accept_ratio", _RATIO, "higher"),
    ("lb_speedup", _RATIO, "higher"),
    ("problems.iterate_calls", _COUNT, "lower"),
    ("numerics.newton_calls", _COUNT, "lower"),
    ("numerics.banded_factor_calls", _COUNT, "lower"),
    ("lockstep.rounds", _COUNT, "lower"),
    ("lockstep.fallbacks", _COUNT, "lower"),
    ("faults.injected", _COUNT, "higher"),
    ("integrity.detected", _COUNT, "higher"),
    ("integrity.recall", _RATIO, "higher"),
    ("guard.checks", _COUNT, "lower"),
    ("guard.rollbacks", _COUNT, "lower"),
    ("exec.tasks", _COUNT, "lower"),
    ("exec.cache_hits", _COUNT, "lower"),
    ("max_error", "inf-norm", "lower"),
    ("fail_frac", _RATIO, "lower"),
    ("host.wall_s", "s", "lower"),
    ("host.reference_loop_s", "s", "lower"),
    ("trace.overhead_frac", _RATIO, "lower"),
    ("trace.self_coverage", _RATIO, "higher"),
)

END_TO_END_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


def benchmark_json() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, _, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }


def layer_of(module: str) -> str | None:
    """Layer of a dotted ``repro`` module name; ``None`` if unmapped.

    The bare ``repro`` entry matches only the package itself, so a new
    top-level subpackage stays unmapped until it is listed.
    """
    parts = module.split(".")
    for n in range(len(parts), 1, -1):
        layer = LAYER_OF.get(".".join(parts[:n]))
        if layer is not None:
            return layer
    return LAYER_OF["repro"] if module == "repro" else None


def repro_modules(src: Path) -> list[str]:
    """Dotted names of every module under ``src/repro``."""
    modules = []
    for path in sorted((src / "repro").rglob("*.py")):
        parts = list(path.relative_to(src).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules.append(".".join(parts))
    return modules
