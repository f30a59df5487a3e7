"""Tests for the execution tracer."""

from repro.runtime.tracer import (
    FaultRecord,
    IdleSpan,
    MigrationRecord,
    Tracer,
)


def test_busy_and_idle_accounting():
    t = Tracer()
    t.iteration(rank=0, iteration=0, t0=0.0, t1=2.0, work=10)
    t.iteration(rank=0, iteration=1, t0=3.0, t1=5.0, work=10)
    t.iteration(rank=1, iteration=0, t0=0.0, t1=1.0, work=5)
    t.idle(IdleSpan(rank=0, t0=2.0, t1=3.0, reason="barrier"))
    assert t.busy_time_of(0) == 4.0
    assert t.busy_time_of(1) == 1.0
    assert t.idle_time_of(0) == 1.0
    assert t.idle_time_of(1) == 0.0
    assert len(t.iterations_of(0)) == 2
    assert t.iteration_count_of(0) == 2
    assert t.iteration_count_of(1) == 1


def test_disabled_tracer_gates_all_lists_but_keeps_aggregates():
    """The disabled-mode contract: no record list accumulates (including
    migrations and faults, which used to leak), while every aggregate
    query stays correct."""
    t = Tracer(enabled=False)
    t.iteration(0, 0, 0.0, 1.5, 1)
    t.idle(IdleSpan(0, 1.5, 2.0, "barrier"))
    t.residual(0, 0, 1.0, 0.5, 10)
    t.message("halo_from_left", 0, 1, 64.0, 0.0, 0.1)
    t.migration(MigrationRecord(0, 1, 5, 2.0, 0.9, 0.1))
    t.fault(FaultRecord(kind="crash", time=3.0, t_end=4.0, rank=0))
    # All lists empty, uniformly.
    assert t.iterations == []
    assert t.idles == []
    assert t.residuals == []
    assert t.messages == []
    assert t.migrations == []
    assert t.faults == []
    # Aggregates are always on.
    assert t.busy_time_of(0) == 1.5
    assert t.idle_time_of(0) == 0.5
    assert t.iteration_count_of(0) == 1
    assert t.n_messages() == 1
    assert t.n_migrations() == 1
    assert t.components_migrated() == 5
    assert t.n_faults() == 1


def test_enabled_tracer_records_everything():
    t = Tracer()
    t.migration(MigrationRecord(0, 1, 5, 2.0, 0.9, 0.1))
    t.fault(FaultRecord(kind="crash", time=3.0, t_end=4.0, rank=0))
    assert len(t.migrations) == 1
    assert len(t.faults) == 1
    assert t.n_migrations() == 1
    assert t.n_faults() == 1


def test_migration_aggregates():
    t = Tracer()
    t.migration(MigrationRecord(0, 1, 5, 1.0, 0.9, 0.1))
    t.migration(MigrationRecord(2, 1, 3, 2.0, 0.8, 0.2))
    assert t.n_migrations() == 2
    assert t.components_migrated() == 8


def test_export_metrics_identical_for_enabled_and_disabled():
    """export_metrics depends only on the aggregates, so an enabled and
    a disabled tracer fed the same records export the same snapshot."""
    from repro.obs.registry import MetricsRegistry

    def feed(t):
        t.iteration(0, 0, 0.0, 2.0, 10)
        t.iteration(1, 0, 0.0, 1.0, 5)
        t.idle(IdleSpan(1, 1.0, 1.5, "wait"))
        t.message("halo_from_left", 0, 1, 64.0, 0.0, 0.1)
        t.migration(MigrationRecord(0, 1, 4, 2.0, 0.9, 0.1))
        t.fault(FaultRecord(kind="crash", time=3.0, t_end=4.0, rank=0))

    on, off = Tracer(enabled=True), Tracer(enabled=False)
    feed(on)
    feed(off)
    reg_on, reg_off = MetricsRegistry(), MetricsRegistry()
    on.export_metrics(reg_on, run="r")
    off.export_metrics(reg_off, run="r")
    assert reg_on.snapshot() == reg_off.snapshot()
    names = {r["name"] for r in reg_on.snapshot()}
    assert {
        "trace.busy_time",
        "trace.idle_time",
        "trace.iterations",
        "trace.messages",
        "trace.message_bytes",
        "trace.faults",
        "trace.migrations",
        "trace.components_migrated",
    } <= names
