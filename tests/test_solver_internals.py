"""White-box tests of the chain solver machinery."""

import numpy as np
import pytest

from repro.core import SolverConfig, run_aiac
from repro.core.solver import build_chain
from repro.grid import homogeneous_cluster
from repro.problems import SyntheticProblem
from repro.runtime.message import Message


def make_run(n_ranks=3, n=24):
    problem = SyntheticProblem(np.full(n, 0.8), coupling=0.3)
    platform = homogeneous_cluster(n_ranks, speed=100.0)
    return build_chain(problem, platform, SolverConfig(tolerance=1e-8))


def halo_message(kind, payload):
    return Message(
        kind=kind, payload=payload, size_bytes=8, src_rank=0, dst_rank=1
    )


def test_on_halo_accepts_matching_position():
    run = make_run()
    ctx = run.ranks[1]  # block [8, 16)
    msg = halo_message(
        "halo_from_left",
        {"data": np.array([0.5]), "position": 7, "estimate": 0.9, "iteration": 3},
    )
    run._on_halo(ctx, "left", msg)
    assert ctx.halo_left[0] == 0.5
    assert ctx.halo_iter_left == 3
    assert ctx.neighbor_estimate["left"] == 0.9
    assert ctx.stale_halos_dropped == 0


def test_on_halo_drops_stale_position_but_keeps_estimate():
    run = make_run()
    ctx = run.ranks[1]
    before = np.array(ctx.halo_left, copy=True)
    msg = halo_message(
        "halo_from_left",
        {"data": np.array([9.9]), "position": 5, "estimate": 0.7, "iteration": 4},
    )
    run._on_halo(ctx, "left", msg)
    assert np.array_equal(ctx.halo_left, before)  # data dropped
    assert ctx.halo_iter_left == -1
    assert ctx.neighbor_estimate["left"] == 0.7  # Algorithm 7: residual kept
    assert ctx.stale_halos_dropped == 1


def test_on_halo_right_side_position_check():
    run = make_run()
    ctx = run.ranks[1]  # block [8, 16): expects right halo position 16
    msg = halo_message(
        "halo_from_right",
        {"data": np.array([0.2]), "position": 16, "estimate": 0.1, "iteration": 2},
    )
    run._on_halo(ctx, "right", msg)
    assert ctx.halo_right[0] == 0.2
    assert ctx.halo_iter_right == 2


def test_send_halo_at_chain_edges_is_noop():
    run = make_run()
    assert not run.send_halo(run.ranks[0], "left", estimate=1.0, exclusive=False)
    assert not run.send_halo(run.ranks[2], "right", estimate=1.0, exclusive=False)
    assert run.send_halo(run.ranks[0], "right", estimate=1.0, exclusive=False)


def test_neighbor_resolution():
    run = make_run()
    assert run.neighbor(0, "left") is None
    assert run.neighbor(0, "right") is run.ranks[1]
    assert run.neighbor(2, "right") is None
    assert run.neighbor(2, "left") is run.ranks[1]


def test_abort_sets_reason_once():
    run = make_run()
    run.abort("first")
    run.abort("second")
    assert run.aborted_reason == "first"
    assert all(ctx.node.stop_requested for ctx in run.ranks)


def test_result_before_running_is_not_converged():
    run = make_run()
    result = run.result()
    assert not result.converged
    assert result.time == 0.0
    assert result.iterations == [0, 0, 0]


def test_initial_partition_matches_registry():
    run = make_run(n_ranks=3, n=25)
    assert [ctx.n_local for ctx in run.ranks] == run.partition.sizes()
    assert run.partition.sizes() == [9, 8, 8]


def test_detection_wiring_registers_handler_only_for_token_ring():
    problem = SyntheticProblem(np.full(12, 0.8), coupling=0.3)
    platform = homogeneous_cluster(2, speed=100.0)
    oracle = build_chain(problem, platform, SolverConfig(tolerance=1e-8))
    assert oracle.detector is None
    ring = build_chain(
        problem, platform, SolverConfig(tolerance=1e-8, detection="token_ring")
    )
    assert ring.detector is not None
    assert "detect_token" in ring.ranks[0].node._handlers


def test_token_ring_result_time_not_before_oracle_time():
    problem = SyntheticProblem(np.full(24, 0.85), coupling=0.3)
    platform = homogeneous_cluster(3, speed=100.0)
    r = run_aiac(
        problem, platform, SolverConfig(tolerance=1e-8, detection="token_ring")
    )
    assert r.converged
    assert r.meta["oracle_detection_time"] is not None
    assert r.time >= r.meta["oracle_detection_time"]
    assert r.meta["detection_messages"] > 0


@pytest.mark.parametrize("n_ranks", [1, 2, 5])
def test_neighbor_table_matches_topology(n_ranks):
    run = make_run(n_ranks=n_ranks, n=4 * n_ranks)
    for rank in range(n_ranks):
        for side in ("left", "right"):
            idx = run.topology.path_neighbor(rank, side)
            expected = None if idx is None else run.ranks[idx]
            assert run.neighbor(rank, side) is expected


def test_neighbor_rejects_invalid_side():
    run = make_run()
    with pytest.raises(ValueError, match="side must be 'left' or 'right'"):
        run.neighbor(1, "up")
