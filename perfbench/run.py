#!/usr/bin/env python3
"""The repo benchmark: one workload per process, metrics on the last line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figure5_quick --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, rewrites BENCHMARK.json

One run imports the program, sets the workload up ``SETUP_REPEATS``
times (``setup_s`` is the import time plus the median set-up), then
times whole passes of the workload until ``--seconds`` are spent and
reports medians.  Every reported time is scaled for host speed by a
reference loop timed around it (``hostspeed.py``).  With ``--trace 1``
it adds one pass under ``cProfile`` and reports the per-layer metrics
instead of the end-to-end ones.  Every pass checks its outputs; any failed check makes
``correct`` false and the exit code 1.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import spec  # noqa: E402  (stdlib only; needs ROOT on sys.path)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [name for name, _, _ in spec.WORKLOADS]
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def run_meta(args: argparse.Namespace, n_passes: int) -> dict:
    """The one meta schema every result records."""
    import numpy

    seeded = {name: s for name, s, _ in spec.WORKLOADS}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seeded": seeded[args.workload],
        "trace": bool(args.trace),
        "seconds": args.seconds,
        "passes": n_passes,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "git_sha": git_sha(),
    }


@dataclass
class PassRecord:
    """What the runner keeps of a pass, so memory does not grow with passes."""

    wall_s: float
    events: int
    virtual_s: float
    expected: int
    failed: int
    signature: list
    errors: list[str] = field(default_factory=list)
    #: ``hostspeed.speed_factor`` of the reference loop times around the pass.
    scale: float = 1.0

    @property
    def scaled_wall_s(self) -> float:
        return self.wall_s * self.scale

    @classmethod
    def of(cls, p) -> "PassRecord":
        return cls(p.wall_s, p.events, p.virtual_s, p.expected, p.failed,
                   p.signature(), p.all_errors())


def run_pass(workload, profile: cProfile.Profile | None = None):
    """One pass; a solve that raises fails the pass instead of the run."""
    from perfbench.workloads import Pass

    workload.profile = profile
    try:
        return workload.run()
    except Exception as exc:  # noqa: BLE001 - reported as a failed check
        traceback.print_exc()
        return Pass(0.0, [], expected=workload.expected, errors=[f"{type(exc).__name__}: {exc}"])
    finally:
        workload.profile = None


def measure(args: argparse.Namespace) -> tuple[dict, list, dict]:
    """Set up, time passes, optionally trace one; return the metrics."""
    t0 = time.perf_counter()
    from perfbench import workloads
    from perfbench.hostspeed import reference_loop_s, speed_factor
    from repro.runtime.memory import peak_rss_bytes

    import_s = time.perf_counter() - t0

    workload = workloads.WORKLOAD_TYPES[args.workload](args.seed)
    setups = []
    for _ in range(spec.SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)

    loops = [reference_loop_s()]
    setup_s = (import_s + statistics.median(setups)) * speed_factor(loops[0])
    passes, durations = [], []

    def timed_pass(profile: cProfile.Profile | None = None):
        p = run_pass(workload, profile)
        record = PassRecord.of(p)
        loops.append(reference_loop_s())
        record.scale = speed_factor(statistics.mean(loops[-2:]))
        passes.append(record)
        return p

    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        timed_pass()
        durations.append(time.perf_counter() - t0)
        spent = time.perf_counter() - start
        if spent + statistics.median(durations) > args.seconds:
            break
    untraced = passes[:]
    if args.trace:
        profile = cProfile.Profile()
        traced = timed_pass(profile)

    for i, p in enumerate(passes[1:], start=1):
        if not p.errors and p.signature != passes[0].signature:
            p.errors.append(f"pass {i} differs from pass 0: the run is not deterministic")
            p.failed = p.expected

    wall = statistics.median(p.scaled_wall_s for p in untraced)
    if not args.trace:
        metrics = {
            "wall_s": wall,
            "sim_events_per_s": statistics.median(
                p.events / p.scaled_wall_s if p.wall_s else 0.0 for p in untraced
            ),
            "peak_rss_mb": peak_rss_bytes() / 2**20,
            "virtual_s": untraced[0].virtual_s,
            "setup_s": setup_s,
        }
        units = spec.END_TO_END_UNITS
    else:
        from perfbench.attribution import ModuleResolver, attribute

        import repro

        layers = attribute(profile, ModuleResolver(Path(repro.__file__).parent))
        if layers.unmapped:
            print(f"note: modules without a layer (counted as python): {sorted(layers.unmapped)}")
        metrics = {f"{layer}.self_s": t for layer, t in layers.self_s.items()}
        metrics.update(layers.calls)
        metrics.update(workloads.aggregate(traced))
        attempted = sum(p.expected for p in passes)
        metrics["fail_frac"] = sum(p.failed for p in passes) / attempted
        metrics["trace.overhead_frac"] = passes[-1].scaled_wall_s / wall - 1.0 if wall else 0.0
        metrics["host.wall_s"] = statistics.median(p.wall_s for p in untraced)
        metrics["host.reference_loop_s"] = statistics.median(loops)
        metrics["trace.self_coverage"] = (
            sum(layers.self_s.values()) / traced.wall_s if traced.wall_s else 0.0
        )
        units = spec.PER_LAYER_UNITS
    result = {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()}
    return result, passes, run_meta(args, len(passes))


def run_one(args: argparse.Namespace) -> int:
    if not (SRC / "repro").is_dir():
        print(f"perfbench: {SRC / 'repro'} not found; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    metrics, passes, meta = measure(args)
    attempted = sum(p.expected for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} pass(es), {attempted} solves, {failed} failed")
    print("  pass walls (s): " + " ".join(f"{p.wall_s:.3f}" for p in passes))
    print("  host-speed factors: " + " ".join(f"{p.scale:.3f}" for p in passes))
    for name, entry in metrics.items():
        print(f"  {name:<30} {entry['value']:>16.6g} {entry['unit']}")
    for p in passes:
        for error in p.errors:
            print(f"  FAILED CHECK: {error}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own process; then rewrite BENCHMARK.json."""
    codes = []
    for name, _, _ in spec.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        codes.append(subprocess.run(cmd, check=False).returncode)
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
    return max(codes)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
