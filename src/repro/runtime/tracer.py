"""Structured execution tracing.

Every driver (SISC/SIAC/AIAC, balanced or not) reports its activity to a
:class:`Tracer`.  The trace is the raw material for:

* the ASCII Gantt charts reproducing Figures 1–4
  (:mod:`repro.analysis.gantt`),
* idle-fraction / imbalance metrics (:mod:`repro.analysis.metrics`),
* migration accounting in the load-balancing experiments,
* the JSONL / Chrome-trace exporters of :mod:`repro.obs.export`.

Records are plain frozen dataclasses so tests can assert on them
directly.

Disabled-mode contract
----------------------
``Tracer(enabled=False)`` gates **all** record lists uniformly: none of
``iterations`` / ``idles`` / ``residuals`` / ``messages`` /
``migrations`` / ``faults`` accumulate.  Aggregate *accounting*, by
contrast, is always on: cheap per-rank/per-kind totals are maintained
on every recording call, so ``busy_time_of`` / ``idle_time_of`` /
``iteration_count_of`` / ``n_messages`` / ``n_migrations`` /
``components_migrated`` / ``n_faults`` are correct in both modes and
:meth:`export_metrics` builds the same snapshot for a traced and an
untraced run.

The per-message and per-sweep recorders (:meth:`Tracer.message`,
:meth:`Tracer.iteration`, :meth:`Tracer.residual`) take the record's
*fields* and build the frozen record only when ``enabled``: an
untraced run allocates no record objects on its hot path.  The rarer
recorders (:meth:`Tracer.idle`, :meth:`Tracer.migration`,
:meth:`Tracer.fault`) take a ready-made record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry

__all__ = [
    "IterationSpan",
    "IdleSpan",
    "MessageRecord",
    "MigrationRecord",
    "ResidualRecord",
    "FaultRecord",
    "Tracer",
]


@dataclass(slots=True, frozen=True)
class IterationSpan:
    """One computation block: ``rank`` computed iteration ``k`` over [t0,t1]."""

    rank: int
    iteration: int
    t0: float
    t1: float
    work: float


@dataclass(slots=True, frozen=True)
class IdleSpan:
    """``rank`` was blocked waiting (synchronous models only) over [t0,t1]."""

    rank: int
    t0: float
    t1: float
    reason: str


@dataclass(slots=True, frozen=True)
class MessageRecord:
    """A message send/arrival pair."""

    kind: str
    src_rank: int
    dst_rank: int
    size_bytes: float
    send_time: float
    arrival_time: float


@dataclass(slots=True, frozen=True)
class MigrationRecord:
    """A load-balancing migration of ``n_components`` components."""

    src_rank: int
    dst_rank: int
    n_components: int
    time: float
    src_residual: float
    dst_residual: float


@dataclass(slots=True, frozen=True)
class ResidualRecord:
    """Local residual reported by ``rank`` at the end of an iteration."""

    rank: int
    iteration: int
    time: float
    residual: float
    n_local: int


@dataclass(slots=True, frozen=True)
class FaultRecord:
    """One injected fault event (crash, restart, partition window, …).

    ``rank`` is the affected rank, or ``None`` for platform-wide faults
    (e.g. a network partition).  ``t_end`` closes the fault's window;
    instantaneous events use ``t_end == time``.
    """

    kind: str
    time: float
    t_end: float
    rank: int | None = None
    detail: str = ""


class Tracer:
    """Accumulates execution records for one run.

    A ``Tracer`` can be disabled (``enabled=False``) for large sweeps
    where only the final timings matter; the detailed record lists then
    stay empty while the aggregate totals (busy/idle time, message,
    migration and fault counts) keep accumulating — see the module
    docstring for the full disabled-mode contract.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.iterations: list[IterationSpan] = []
        self.idles: list[IdleSpan] = []
        self.messages: list[MessageRecord] = []
        self.migrations: list[MigrationRecord] = []
        self.residuals: list[ResidualRecord] = []
        self.faults: list[FaultRecord] = []
        # Always-on aggregates (plain dict ops: cheap enough for the
        # per-sweep / per-message hot paths even in disabled mode).
        self._busy: dict[int, float] = {}
        self._idle: dict[int, float] = {}
        self._iter_counts: dict[int, int] = {}
        self._msg_counts: dict[str, int] = {}
        self._msg_bytes: dict[str, float] = {}
        self._fault_counts: dict[str, int] = {}
        self._n_migrations = 0
        self._components_migrated = 0

    # Recording -----------------------------------------------------------
    def iteration(
        self, rank: int, iteration: int, t0: float, t1: float, work: float
    ) -> None:
        """Account one computation block; record its span when enabled."""
        self._busy[rank] = self._busy.get(rank, 0.0) + t1 - t0
        self._iter_counts[rank] = self._iter_counts.get(rank, 0) + 1
        if self.enabled:
            self.iterations.append(IterationSpan(rank, iteration, t0, t1, work))

    def idle(self, span: IdleSpan) -> None:
        self._idle[span.rank] = self._idle.get(span.rank, 0.0) + span.t1 - span.t0
        if self.enabled:
            self.idles.append(span)

    def message(
        self,
        kind: str,
        src_rank: int,
        dst_rank: int,
        size_bytes: float,
        send_time: float,
        arrival_time: float,
    ) -> None:
        """Account one message; record it when enabled."""
        self._msg_counts[kind] = self._msg_counts.get(kind, 0) + 1
        self._msg_bytes[kind] = self._msg_bytes.get(kind, 0.0) + size_bytes
        if self.enabled:
            self.messages.append(
                MessageRecord(
                    kind, src_rank, dst_rank, size_bytes, send_time, arrival_time
                )
            )

    def migration(self, record: MigrationRecord) -> None:
        self._n_migrations += 1
        self._components_migrated += record.n_components
        if self.enabled:
            self.migrations.append(record)

    def residual(
        self, rank: int, iteration: int, time: float, residual: float, n_local: int
    ) -> None:
        """Record a rank's end-of-sweep residual when enabled."""
        if self.enabled:
            self.residuals.append(
                ResidualRecord(rank, iteration, time, residual, n_local)
            )

    def fault(self, record: FaultRecord) -> None:
        self._fault_counts[record.kind] = (
            self._fault_counts.get(record.kind, 0) + 1
        )
        if self.enabled:
            self.faults.append(record)

    # Convenience queries ---------------------------------------------------
    def iterations_of(self, rank: int) -> list[IterationSpan]:
        return [s for s in self.iterations if s.rank == rank]

    def idle_time_of(self, rank: int) -> float:
        return self._idle.get(rank, 0.0)

    def busy_time_of(self, rank: int) -> float:
        return self._busy.get(rank, 0.0)

    def iteration_count_of(self, rank: int) -> int:
        return self._iter_counts.get(rank, 0)

    def n_messages(self) -> int:
        return sum(self._msg_counts.values())

    def n_migrations(self) -> int:
        return self._n_migrations

    def components_migrated(self) -> int:
        return self._components_migrated

    def n_faults(self) -> int:
        return sum(self._fault_counts.values())

    # Metrics export --------------------------------------------------------
    def export_metrics(self, registry: "MetricsRegistry", **labels) -> None:
        """Publish the always-on aggregates into a metrics registry.

        Works identically for enabled and disabled tracers — the
        aggregates never depend on the record lists.  Extra ``labels``
        (e.g. ``run="p8/balanced"``) are attached to every metric.
        """
        for rank in sorted(self._busy):
            registry.counter("trace.busy_time", rank=rank, **labels).add(
                self._busy[rank]
            )
        for rank in sorted(self._idle):
            registry.counter("trace.idle_time", rank=rank, **labels).add(
                self._idle[rank]
            )
        for rank in sorted(self._iter_counts):
            registry.counter("trace.iterations", rank=rank, **labels).add(
                self._iter_counts[rank]
            )
        for kind in sorted(self._msg_counts):
            registry.counter("trace.messages", kind=kind, **labels).add(
                self._msg_counts[kind]
            )
            registry.counter("trace.message_bytes", kind=kind, **labels).add(
                self._msg_bytes[kind]
            )
        for kind in sorted(self._fault_counts):
            registry.counter("trace.faults", kind=kind, **labels).add(
                self._fault_counts[kind]
            )
        registry.counter("trace.migrations", **labels).add(self._n_migrations)
        registry.counter("trace.components_migrated", **labels).add(
            self._components_migrated
        )
