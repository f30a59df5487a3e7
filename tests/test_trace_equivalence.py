"""Traced and untraced runs are the same run.

``Tracer(enabled=False)`` skips building record objects but must keep
every aggregate; nothing about the simulation itself may depend on the
flag.  Each case runs one balanced AIAC solve twice, ``trace=True`` and
``trace=False``, and compares everything an untraced run reports.
"""

import numpy as np
import pytest

from repro.core.lb import run_balanced_aiac
from repro.obs.registry import MetricsRegistry
from repro.workloads.scenarios import Figure5Scenario, Table1Scenario


def _figure5(trace):
    scenario = Figure5Scenario.tiny()
    return run_balanced_aiac(
        scenario.problem(),
        scenario.platform(scenario.proc_counts[0]),
        scenario.solver_config(trace=trace),
        scenario.lb_config(),
    )


def _table1(trace):
    # Table 1's 15-host, 3-site grid with load traces, on a smaller
    # Brusselator so the pair runs in about a second.
    scenario = Table1Scenario(n_points=45, t_end=2.0, n_steps=10, load_dwell=80.0)
    platform = scenario.platform()
    return run_balanced_aiac(
        scenario.problem(),
        platform,
        scenario.solver_config(trace=trace),
        scenario.lb_config(),
        host_order=scenario.host_order(platform),
    )


def _metrics(result):
    registry = MetricsRegistry()
    result.tracer.export_metrics(registry, run="r")
    return registry.snapshot()


def _message_bytes(snapshot):
    return {
        r["labels"]["kind"]: r["value"]
        for r in snapshot
        if r["name"] == "trace.message_bytes"
    }


@pytest.mark.parametrize("solve", [_figure5, _table1], ids=["figure5", "table1"])
def test_traced_and_untraced_runs_agree(solve):
    traced, untraced = solve(True), solve(False)
    assert traced.converged and untraced.converged
    assert traced.n_migrations > 0  # the LB protocol took part
    assert traced.tracer.messages and not untraced.tracer.messages

    assert (
        np.concatenate(traced.solution_blocks).tobytes()
        == np.concatenate(untraced.solution_blocks).tobytes()
    )
    assert traced.time == untraced.time
    assert traced.iterations == untraced.iterations
    n_ranks = len(traced.iterations)
    assert [traced.tracer.busy_time_of(r) for r in range(n_ranks)] == [
        untraced.tracer.busy_time_of(r) for r in range(n_ranks)
    ]
    assert traced.tracer.n_messages() == untraced.tracer.n_messages()
    assert traced.tracer.n_messages() == len(traced.tracer.messages)
    assert traced.tracer.n_messages() == traced.meta["network_messages"]
    on, off = _metrics(traced), _metrics(untraced)
    assert _message_bytes(on) == _message_bytes(off)
    assert set(_message_bytes(on)) >= {"halo_from_left", "halo_from_right"}
    assert on == off
