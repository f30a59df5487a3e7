"""Tests for the heat-equation waveform relaxation."""

import warnings

import numpy as np
import pytest

from repro.problems.heat import HeatProblem


@pytest.fixture(scope="module")
def problem():
    return HeatProblem(n_points=15, kappa=1.0, t_end=0.05, n_steps=25)


def test_initial_state(problem):
    st = problem.initial_state(0, 15)
    assert st.traj.shape == (15, 26)
    x = problem.x_grid()
    assert np.allclose(st.traj[:, 0], np.sin(np.pi * x))


def test_single_block_converges_to_reference(problem):
    st = problem.initial_state(0, 15)
    hl = problem.initial_halo(-1)
    hr = problem.initial_halo(15)
    for _ in range(300):
        res = problem.iterate(st, hl, hr)
        if res.local_residual < 1e-12:
            break
    ref = problem.reference_solution()
    assert np.max(np.abs(st.traj - ref)) < 1e-9


def test_reference_close_to_analytic():
    # Fine grids: discrete solution approaches the analytic one.
    p = HeatProblem(n_points=60, t_end=0.02, n_steps=400)
    ref = p.reference_solution()
    exact = p.analytic_solution()
    assert np.max(np.abs(ref - exact)) < 5e-3


def test_two_blocks_converge(problem):
    a = problem.initial_state(0, 8)
    b = problem.initial_state(8, 15)
    for _ in range(400):
        res_a = problem.iterate(
            a, problem.initial_halo(-1), problem.halo_out(b, "left")
        )
        res_b = problem.iterate(
            b, problem.halo_out(a, "right"), problem.initial_halo(15)
        )
        if max(res_a.local_residual, res_b.local_residual) < 1e-12:
            break
    ref = problem.reference_solution()
    assembled = np.concatenate([a.traj, b.traj], axis=0)
    assert np.max(np.abs(assembled - ref)) < 1e-9


def test_constant_work(problem):
    st = problem.initial_state(0, 15)
    res = problem.iterate(st, problem.initial_halo(-1), problem.initial_halo(15))
    assert np.all(res.work == problem.n_steps)


def test_split_merge_roundtrip(problem):
    st = problem.initial_state(0, 15)
    original = st.traj.copy()
    payload = problem.split(st, 6, "left")
    problem.merge(st, payload, "left")
    assert np.array_equal(st.traj, original)
    assert st.lo == 0


def test_merge_validates_shape(problem):
    st = problem.initial_state(0, 15)
    with pytest.raises(ValueError):
        problem.merge(st, np.zeros((2, 3)), "left")


def test_overflowing_halo_gives_non_finite_residual_without_warning():
    """A corrupted (1e308) halo overflows the recurrence; the kernel
    reports it as a non-finite residual, which the plausibility guard
    classifies, and raises no RuntimeWarning."""
    p = HeatProblem(n_points=15, t_end=0.5, n_steps=25)  # c*dt > 1
    st = p.initial_state(0, 15)
    bad = np.full((1, p.n_steps + 1), 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = p.iterate(st, bad, p.initial_halo(15))
    assert not np.isfinite(res.local_residual)
