"""The four benchmark workloads: set-up, one timed pass, output checks.

Each workload drives the program only through public entry points
(``run_figure5``/``run_table1`` on a serial, uncached ``SweepEngine``;
``run_sisc_batched``; ``run_balanced_aiac``/``run_aiac`` with an
injector and a guard).  To see the individual solves behind an
experiment entry point, :func:`observe_solves` wraps
``ChainRun.result`` — called once per event-driven solve, after the
simulation has finished — and keeps each run with its result.  The
wrapper adds one Python call per solve and changes nothing the solve
computes.

A pass times only the entry-point calls; counting, fingerprinting and
output checks happen after the clock stops.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from repro.analysis.perf import run_fingerprint
from repro.core.lb import run_balanced_aiac
from repro.core.records import RunResult
from repro.core.solver import ChainRun, run_aiac
from repro.exec import SweepEngine
from repro.experiments.figure5 import run_figure5
from repro.experiments.table1 import run_table1
from repro.faults import FaultInjector
from repro.guard import InvariantMonitor
from repro.models import run_sisc, run_sisc_batched
from repro.obs import MetricsRegistry
from repro.workloads.scenarios import (
    Figure5Scenario,
    IntegrityScenario,
    ResilienceScenario,
    ScaleScenario,
    Table1Scenario,
)

#: Event-driven ``run_sisc`` fingerprints of the lockstep points, written
#: by ``make_reference.py``.
REFERENCE_FILE = Path(__file__).with_name("reference.json")

#: ``Table1Scenario`` defines no error tolerance; use the repo's
#: wrong-answer threshold.  Observed Table 1 errors against the
#: sequential reference are 1e-4 to 5e-4.
TABLE1_ERROR_TOL = IntegrityScenario.error_tol

#: Integrity outcomes a faulted solve may end in (never ``WRONG``).
ACCEPTED_OUTCOMES = ("recovered", "masked", "clean")


@dataclass
class Solve:
    """One solve of a pass, with its telemetry and failed checks.

    ``run`` is the event-driven run behind ``result`` (``None`` for a
    lockstep replay); ``extra`` holds workload-specific counts.
    """

    label: str
    result: RunResult
    run: ChainRun | None = None
    extra: dict[str, float] = field(default_factory=dict)
    max_error: float = 0.0
    errors: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(f"{self.label}: {message}")

    @property
    def events(self) -> int:
        """DES events dispatched; for a lockstep replay, the events the
        reference event-driven run would dispatch."""
        if self.run is not None:
            return self.run.sim.n_dispatched
        return int(self.result.meta.get("events_dispatched", 0))

    def digest(self) -> str:
        """Exact digest of the solve's virtual-time outputs and solution."""
        r = self.result
        summary = (
            r.converged, r.time, r.iterations, r.work, r.final_partition,
            r.residuals_at_stop, r.n_migrations, r.components_migrated,
            r.tracer.n_messages(), self.events,
        )
        h = hashlib.sha256(repr(summary).encode())
        for block in r.solution_blocks:
            h.update(np.ascontiguousarray(block).tobytes())
        return h.hexdigest()

    def counts(self) -> dict[str, float]:
        counts = result_counts(self.result)
        if self.run is not None:
            registry = MetricsRegistry()
            self.run.sim.export_metrics(registry)
            values = {r["name"]: r["value"] for r in registry.snapshot()}
            counts["des.events"] = values["des.events_dispatched"]
            counts["des.batches"] = values["des.batch_dispatch"]
            counts["des.peak_queue"] = values["des.heap_size"]
        counts.update(self.extra)
        return counts


@dataclass
class Pass:
    """One timed pass over a workload's solves."""

    wall_s: float
    solves: list[Solve]
    expected: int
    lb_speedup: float = 0.0
    exec_tasks: int = 0
    exec_hits: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def events(self) -> int:
        return sum(s.events for s in self.solves)

    @property
    def virtual_s(self) -> float:
        return sum(float(s.result.time) for s in self.solves)

    @property
    def failed(self) -> int:
        """Solves that failed a check; a pass-level error fails them all."""
        if self.errors:
            return self.expected
        bad = sum(1 for s in self.solves if s.errors)
        return bad + max(0, self.expected - len(self.solves))

    def all_errors(self) -> list[str]:
        return [*self.errors, *(e for s in self.solves for e in s.errors)]

    def signature(self) -> list[tuple[str, str]]:
        """What must repeat exactly from pass to pass."""
        return [(s.label, s.digest()) for s in self.solves]


@contextmanager
def observe_solves() -> Iterator[list[tuple[ChainRun, RunResult]]]:
    """Collect ``(run, result)`` for every event-driven solve in the block."""
    seen: list[tuple[ChainRun, RunResult]] = []
    original = ChainRun.result

    def result(self: ChainRun) -> RunResult:
        out = original(self)
        seen.append((self, out))
        return out

    ChainRun.result = result  # type: ignore[method-assign]
    try:
        yield seen
    finally:
        ChainRun.result = original  # type: ignore[method-assign]


def _message_group(kind: str) -> str:
    if kind.startswith("halo"):
        return "halo"
    if kind.startswith("lb_"):
        return "lb"
    if kind.startswith("detect"):
        return "detect"
    return "other"


def result_counts(result: RunResult) -> dict[str, float]:
    """Telemetry every solver result carries (event-driven or lockstep)."""
    meta = result.meta
    transport = meta.get("transport_per_rank", ())
    counts: dict[str, float] = {
        "runtime.msgs": meta.get("network_messages", 0),
        "runtime.bytes": meta.get("network_bytes", 0.0),
        "runtime.retries": sum(t["retries"] for t in transport),
        "runtime.dups_suppressed": sum(t["duplicates_suppressed"] for t in transport),
        "runtime.stale_rejected": sum(t["stale_rejected"] for t in transport),
        "core.sweeps": result.total_iterations,
        "core.busy_s": result.total_work,
        "core.rank_s": result.n_ranks * float(result.time),
        "core.stale_halos_dropped": meta.get("stale_halos_dropped", 0),
        "lb.offers": meta.get("offers_sent", 0),
        "lb.migrations": result.n_migrations,
        "lb.components_migrated": result.components_migrated,
        "runtime.msgs.halo": 0,
        "runtime.msgs.lb": 0,
        "runtime.msgs.detect": 0,
    }
    registry = MetricsRegistry()
    result.tracer.export_metrics(registry)
    for record in registry.snapshot():
        if record["name"] == "trace.messages":
            group = _message_group(record["labels"]["kind"])
            if group != "other":
                counts[f"runtime.msgs.{group}"] += record["value"]
    return counts


def _chain_solves(
    seen: list[tuple[ChainRun, RunResult]], labels: list[str]
) -> list[Solve]:
    return [Solve(label, result, run) for label, (run, result) in zip(labels, seen)]


def _max_error(result: RunResult, reference: np.ndarray | None) -> float:
    solution = result.solution()
    if reference is None:  # the synthetic problem's fixed point is 0
        return float(np.max(np.abs(solution)))
    return result.max_error_vs(reference)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """Common shape: ``setup()`` builds inputs, ``run()`` does one pass.

    ``setup()`` also sets ``expected``, the number of solves in a pass.
    """

    name = ""
    expected = 0
    #: Set by the runner for the traced pass.
    profile: cProfile.Profile | None = None

    def __init__(self, seed: int, *, reduced: bool = False) -> None:
        self.seed = seed
        self.reduced = reduced

    @contextmanager
    def timed(self, out: Pass) -> Iterator[None]:
        """Time (and, in the traced pass, profile) entry-point calls."""
        if self.profile is not None:
            self.profile.enable()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            out.wall_s += time.perf_counter() - t0
            if self.profile is not None:
                self.profile.disable()

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> Pass:
        raise NotImplementedError


class Figure5Quick(Workload):
    """``run_figure5(Figure5Scenario.quick())`` on a serial engine."""

    name = "figure5_quick"

    def setup(self) -> None:
        self.scenario = Figure5Scenario.tiny() if self.reduced else Figure5Scenario.quick()
        self.labels = [
            f"p{p}/{version}"
            for p in self.scenario.proc_counts
            for version in ("unbalanced", "balanced")
        ]
        self.expected = len(self.labels)

    def run(self) -> Pass:
        engine = SweepEngine()
        out = Pass(0.0, [], expected=self.expected)
        with observe_solves() as seen, self.timed(out):
            figure = run_figure5(self.scenario, engine=engine)
        out.solves = _chain_solves(seen, self.labels)
        out.lb_speedup = figure.mean_ratio
        out.exec_tasks, out.exec_hits = engine.stats.tasks, engine.stats.hits
        for solve in out.solves:
            solve.max_error = _max_error(solve.result, None)
            solve.check(solve.result.converged, "did not converge")
            solve.check(math.isfinite(solve.max_error), "non-finite solution")
        return out


class Table1Quick(Workload):
    """``run_table1(Table1Scenario.quick())`` on a serial engine."""

    name = "table1_quick"

    def setup(self) -> None:
        scenario = Table1Scenario.quick()
        if self.reduced:
            scenario = replace(scenario, n_points=45, t_end=2.0, n_steps=10)
        self.scenario = scenario
        self.reference = scenario.problem().reference_solution()
        self.expected = 2

    def run(self) -> Pass:
        engine = SweepEngine()
        out = Pass(0.0, [], expected=self.expected)
        with observe_solves() as seen, self.timed(out):
            table = run_table1(self.scenario, engine=engine)
        out.solves = _chain_solves(seen, ["unbalanced", "balanced"])
        out.lb_speedup = table.ratio
        out.exec_tasks, out.exec_hits = engine.stats.tasks, engine.stats.hits
        for solve in out.solves:
            solve.max_error = _max_error(solve.result, self.reference)
            solve.check(solve.result.converged, "did not converge")
            solve.check(
                solve.max_error <= TABLE1_ERROR_TOL,
                f"max error {solve.max_error:.3e} > {TABLE1_ERROR_TOL:g}",
            )
        return out


#: (point name, scenario, round cap).
LOCKSTEP_POINTS = (
    ("brusselator_r1024_c4", ScaleScenario.brusselator_gate(), 30),
    ("synthetic_r10240_c100", ScaleScenario.synthetic_10k(), 50),
)
LOCKSTEP_POINTS_REDUCED = (
    (
        "brusselator_r64_c4",
        ScaleScenario(problem_kind="brusselator", n_ranks=64, components_per_rank=4),
        10,
    ),
    ("synthetic_r256_c20", ScaleScenario(n_ranks=256, components_per_rank=20), 20),
)


def capped_config(scenario: ScaleScenario, rounds: int):
    """The scale scenario's solver config, stopped after ``rounds``."""
    return replace(scenario.solver_config(), max_iterations=rounds)


def event_driven_fingerprint(scenario: ScaleScenario, rounds: int) -> str:
    """Fingerprint of the reference event-driven SISC run of one point."""
    result = run_sisc(scenario.problem(), scenario.platform(), capped_config(scenario, rounds))
    return run_fingerprint(result)


class LockstepScale(Workload):
    """``run_sisc_batched`` at 1024 ranks (Brusselator) and 10 240 ranks."""

    name = "lockstep_scale"

    def setup(self) -> None:
        self.points = LOCKSTEP_POINTS_REDUCED if self.reduced else LOCKSTEP_POINTS
        pinned = json.loads(REFERENCE_FILE.read_text())["lockstep_fingerprints"]
        self.references = {
            name: pinned[name] if name in pinned else event_driven_fingerprint(sc, rounds)
            for name, sc, rounds in self.points
        }
        self.configs = {name: capped_config(sc, rounds) for name, sc, rounds in self.points}
        self.expected = len(self.points)
        self.pins_checked = False

    def run(self) -> Pass:
        registry = MetricsRegistry()
        results = []
        out = Pass(0.0, [], expected=self.expected)
        # Later passes are held to pass 0 by the runner's determinism check.
        check_pins, self.pins_checked = not self.pins_checked, True
        with observe_solves() as fallbacks:
            for name, scenario, _ in self.points:
                with self.timed(out):
                    result = run_sisc_batched(
                        scenario.problem(), scenario.platform(), self.configs[name],
                        metrics=registry,
                    )
                results.append((name, result))
        fallback_count = sum(
            r["value"] for r in registry.snapshot() if r["name"] == "lockstep.fallback_reason"
        )
        for name, result in results:
            solve = Solve(name, result, extra={"lockstep.rounds": max(result.iterations)})
            if check_pins:
                solve.check(
                    run_fingerprint(result) == self.references[name],
                    "fingerprint differs from the event-driven reference",
                )
            solve.check(result.meta.get("engine") == "lockstep", "ran on the fallback engine")
            out.solves.append(solve)
        out.solves[-1].extra["lockstep.fallbacks"] = fallback_count
        if fallback_count or fallbacks:
            out.errors.append(f"{int(fallback_count)} lockstep fallback(s)")
        return out


class FaultedRecovery(Workload):
    """Three guarded, faulted heat solves on 4 processors."""

    name = "faulted_recovery"

    def setup(self) -> None:
        integrity, resilience = IntegrityScenario(), ResilienceScenario()
        if self.reduced:
            small = dict(n_points=32, n_steps=8, tolerance=1e-6)
            integrity, resilience = replace(integrity, **small), replace(resilience, **small)
        self.integrity = replace(integrity, seed=self.seed)
        self.resilience = replace(resilience, seed=self.seed)
        self.error_tol = self.integrity.error_tol
        self.reference = self.integrity.problem().reference_solution()
        if not np.array_equal(self.reference, self.resilience.problem().reference_solution()):
            raise ValueError("integrity and resilience scenarios solve different problems")
        # (label, scenario, balanced?, schedule factory)
        self.cases = (
            ("aiac+lb/flip_hi", self.integrity, True,
             lambda: self.integrity.schedule("flip_hi", detect=True)),
            ("aiac+lb/loss10+crash", self.resilience, True,
             lambda: self.resilience.schedule("loss10+crash")),
            ("aiac/perturb", self.integrity, False,
             lambda: self.integrity.schedule("perturb", detect=True)),
        )
        self.expected = len(self.cases)

    def run(self) -> Pass:
        out = Pass(0.0, [], expected=self.expected)
        for label, scenario, balanced, schedule in self.cases:
            with observe_solves() as seen, self.timed(out):
                injector = FaultInjector(schedule())
                guard = InvariantMonitor(self.integrity.guard_config())
                problem, platform = scenario.problem(), scenario.platform()
                if balanced:
                    result = run_balanced_aiac(
                        problem, platform, scenario.solver_config(), scenario.lb_config(),
                        injector=injector, guard=guard,
                    )
                else:
                    result = run_aiac(
                        problem, platform, scenario.solver_config(),
                        injector=injector, guard=guard,
                    )
            (solve,) = _chain_solves(seen, [label])
            self._account(solve, injector, guard)
            out.solves.append(solve)
        return out

    def _account(self, solve: Solve, injector: FaultInjector, guard: InvariantMonitor) -> None:
        stats, guard_stats = injector.stats, guard.stats()
        injected = stats["corruptions_injected"]
        detected = stats["corruptions_detected"]
        solve.extra.update(
            {
                "faults.injected": sum(
                    stats[k] for k in (
                        "messages_dropped", "acks_dropped", "duplicates_injected",
                        "reorders_injected", "crashes", "corruptions_injected",
                    )
                ),
                "integrity.injected": injected,
                "integrity.detected": detected,
                "guard.checks": guard_stats["checks_run"],
                "guard.rollbacks": guard_stats["divergence_rollbacks"]
                + guard_stats["plausibility_rollbacks"],
            }
        )
        solve.max_error = _max_error(solve.result, self.reference)
        converged = solve.result.converged
        if injected == 0:
            outcome = "clean"
        elif converged and solve.max_error > self.error_tol:
            outcome = "WRONG"
        elif not converged:
            outcome = "stalled"
        else:
            outcome = "recovered" if detected else "masked"
        solve.check(converged, "did not converge")
        solve.check(
            solve.max_error <= self.error_tol,
            f"max error {solve.max_error:.3e} > {self.error_tol:g}",
        )
        solve.check(outcome in ACCEPTED_OUTCOMES, f"outcome {outcome}")
        solve.check(guard_stats["stalls"] == 0, "guard reported a stall")


WORKLOAD_TYPES: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Figure5Quick, Table1Quick, LockstepScale, FaultedRecovery)
}


def aggregate(p: Pass) -> dict[str, Any]:
    """Sum one pass's per-solve telemetry into per-layer counts."""
    total: dict[str, float] = {}
    peak_queue = 0.0
    for solve in p.solves:
        for key, value in solve.counts().items():
            if key == "des.peak_queue":
                peak_queue = max(peak_queue, value)
            else:
                total[key] = total.get(key, 0.0) + value

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    keys = (
        "des.events", "runtime.msgs", "runtime.bytes", "runtime.msgs.halo",
        "runtime.msgs.lb", "runtime.msgs.detect", "runtime.retries",
        "runtime.dups_suppressed", "runtime.stale_rejected", "core.sweeps",
        "core.stale_halos_dropped", "lb.offers", "lb.migrations",
        "lb.components_migrated", "lockstep.rounds", "lockstep.fallbacks",
        "faults.injected", "integrity.detected", "guard.checks", "guard.rollbacks",
    )
    out = {key: total.get(key, 0.0) for key in keys}
    out.update(
        {
            "des.events_per_batch": ratio(total.get("des.events", 0.0), total.get("des.batches", 0.0)),
            "des.peak_queue": peak_queue,
            "core.virtual_idle_frac": ratio(
                total.get("core.rank_s", 0.0) - total.get("core.busy_s", 0.0),
                total.get("core.rank_s", 0.0),
            ),
            "lb.accept_ratio": ratio(total.get("lb.migrations", 0.0), total.get("lb.offers", 0.0)),
            "lb_speedup": p.lb_speedup,
            "integrity.recall": ratio(
                total.get("integrity.detected", 0.0), total.get("integrity.injected", 0.0)
            ),
            "exec.tasks": p.exec_tasks,
            "exec.cache_hits": p.exec_hits,
            "max_error": max((s.max_error for s in p.solves), default=0.0),
        }
    )
    return out
