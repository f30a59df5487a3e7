"""1-D heat equation by waveform relaxation (second physical example).

``u_t = κ u_xx`` on ``(0, 1)`` with homogeneous Dirichlet boundaries and
initial profile ``u(x, 0) = sin(π x)``.  Discretised like the
Brusselator (implicit Euler in time, central differences in space) but
*linear*: the per-(component, step) solve is a closed-form division, so
every component costs exactly one work unit per step.  Activity-driven
cost imbalance is absent — the heat problem isolates the timing/
communication machinery and serves as a simple teaching example (the
quickstart uses it).

The analytic solution ``u = exp(-κ π² t) sin(π x)`` gives an external
accuracy oracle beyond the discrete reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.numerics.banded import thomas_solve
from repro.problems.base import IterationResult, Problem
from repro.problems.chain_sweeper import TrajectoryChainSweeper
from repro.util.validation import check_positive

__all__ = ["HeatProblem", "HeatState"]


@dataclass(slots=True)
class HeatState:
    """Local trajectories ``(n_local, n_steps + 1)``."""

    lo: int
    traj: np.ndarray

    @property
    def n(self) -> int:
        return self.traj.shape[0]


class HeatProblem(Problem):
    """Waveform relaxation for the 1-D heat equation."""

    name = "heat"

    def __init__(
        self,
        n_points: int,
        *,
        kappa: float = 1.0,
        t_end: float = 0.1,
        n_steps: int = 50,
    ) -> None:
        check_positive("n_points", n_points)
        check_positive("kappa", kappa)
        check_positive("t_end", t_end)
        check_positive("n_steps", n_steps)
        self.n_components = int(n_points)
        self.kappa = float(kappa)
        self.t_end = float(t_end)
        self.n_steps = int(n_steps)
        self.dt = self.t_end / self.n_steps
        dx = 1.0 / (self.n_components + 1)
        self.c = self.kappa / dx**2

    # ------------------------------------------------------------------
    def x_grid(self) -> np.ndarray:
        return np.arange(1, self.n_components + 1) / (self.n_components + 1)

    def initial_state(self, lo: int, hi: int) -> HeatState:
        if not 0 <= lo < hi <= self.n_components:
            raise ValueError(
                f"invalid block [{lo}, {hi}) for {self.n_components} components"
            )
        x = np.arange(lo + 1, hi + 1) / (self.n_components + 1)
        u0 = np.sin(np.pi * x)
        traj = np.repeat(u0[:, None], self.n_steps + 1, axis=1)
        return HeatState(lo=lo, traj=traj)

    def n_local(self, state: HeatState) -> int:
        return state.n

    def copy_state(self, state: HeatState) -> HeatState:
        return HeatState(lo=state.lo, traj=state.traj.copy())

    def iterate(
        self,
        state: HeatState,
        left_halo: np.ndarray,
        right_halo: np.ndarray,
    ) -> IterationResult:
        old = state.traj  # (n, steps+1)
        n = state.n
        dt, c = self.dt, self.c
        u_left = np.vstack([np.atleast_2d(left_halo), old[:-1]])
        u_right = np.vstack([old[1:], np.atleast_2d(right_halo)])
        new = np.empty_like(old)
        new[:, 0] = old[:, 0]
        denom = 1.0 + 2.0 * c * dt
        # A corrupted halo (integrity fault injection) can overflow the
        # recurrence.  The values are left as IEEE computes them: the
        # non-finite residual is what the plausibility guard and the
        # outcome classifier act on, so no warning is raised here.
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, self.n_steps + 1):
                new[:, k] = (
                    new[:, k - 1] + c * dt * (u_left[:, k] + u_right[:, k])
                ) / denom
            residuals = np.max(np.abs(new - old), axis=1)
        state.traj = new
        # One work unit per (component, step): linear solve, no Newton.
        work = np.full(n, float(self.n_steps))
        return IterationResult(residuals=residuals, work=work)

    # ------------------------------------------------------------------
    def initial_halo(self, global_index: int) -> np.ndarray:
        if global_index < 0 or global_index >= self.n_components:
            return np.zeros((1, self.n_steps + 1))  # Dirichlet boundary
        x = (global_index + 1) / (self.n_components + 1)
        return np.full((1, self.n_steps + 1), np.sin(np.pi * x))

    def halo_out(self, state: HeatState, side: str) -> np.ndarray:
        self.check_side(side)
        idx = 0 if side == "left" else state.n - 1
        return state.traj[idx : idx + 1].copy()

    def halo_nbytes(self) -> float:
        return (self.n_steps + 1) * 8.0

    # ------------------------------------------------------------------
    def split(self, state: HeatState, n: int, side: str) -> np.ndarray:
        self.check_side(side)
        if not 0 < n < state.n:
            raise ValueError(f"cannot split {n} of {state.n} components")
        if side == "left":
            payload = state.traj[:n].copy()
            state.traj = state.traj[n:].copy()
            state.lo += n
        else:
            payload = state.traj[state.n - n :].copy()
            state.traj = state.traj[: state.n - n].copy()
        return payload

    def merge(self, state: HeatState, payload: np.ndarray, side: str) -> None:
        self.check_side(side)
        payload = np.asarray(payload, dtype=float)
        if payload.ndim != 2 or payload.shape[1] != self.n_steps + 1:
            raise ValueError(f"bad migration payload shape {payload.shape}")
        if side == "left":
            state.traj = np.concatenate([payload, state.traj], axis=0)
            state.lo -= payload.shape[0]
        else:
            state.traj = np.concatenate([state.traj, payload], axis=0)

    def component_nbytes(self) -> float:
        return (self.n_steps + 1) * 8.0

    # ------------------------------------------------------------------
    # Rank-batched sweeps (lockstep SISC engine)
    # ------------------------------------------------------------------
    def batched_chain_sweeper(
        self, blocks: list[tuple[int, int]]
    ) -> "_HeatChainSweeper":
        return _HeatChainSweeper(self, blocks)

    # ------------------------------------------------------------------
    def solution(self, state: HeatState) -> np.ndarray:
        return state.traj.copy()

    def reference_solution(self) -> np.ndarray:
        """Fully-coupled implicit Euler solution, shape ``(n, steps+1)``."""
        n = self.n_components
        u = np.sin(np.pi * self.x_grid())
        out = np.empty((n, self.n_steps + 1))
        out[:, 0] = u
        r = self.c * self.dt
        lower = np.full(n, -r)
        upper = np.full(n, -r)
        diag = np.full(n, 1.0 + 2.0 * r)
        lower[0] = 0.0
        upper[-1] = 0.0
        for k in range(1, self.n_steps + 1):
            u = thomas_solve(lower, diag, upper, u)
            out[:, k] = u
        return out

    def analytic_solution(self) -> np.ndarray:
        """``exp(-κ π² t) sin(π x)`` on the discrete grid."""
        t = np.linspace(0.0, self.t_end, self.n_steps + 1)
        x = self.x_grid()
        return np.exp(-self.kappa * np.pi**2 * t)[None, :] * np.sin(np.pi * x)[:, None]


class _HeatChainSweeper(TrajectoryChainSweeper):
    """All ranks' heat sweeps as one vectorised global update.

    The relaxation is linear, Jacobi in space (neighbour rows come from
    the previous sweep) and sequential only in each component's own
    time axis, so one global sweep over the concatenated trajectories
    with the Dirichlet zero edges pinned reproduces every block's
    :meth:`HeatProblem.iterate` bit for bit — the per-step update is
    elementwise per component and written with the exact expression
    order of ``iterate``.
    """

    def __init__(self, problem: HeatProblem, blocks: list[tuple[int, int]]):
        super().__init__(problem, blocks)
        self._edge_left = problem.initial_halo(-1)
        self._edge_right = problem.initial_halo(problem.n_components)

    def _advance(self, old: np.ndarray):
        p = self.problem
        dt, c = p.dt, p.c
        u_left = np.vstack([self._edge_left, old[:-1]])
        u_right = np.vstack([old[1:], self._edge_right])
        new = np.empty_like(old)
        new[:, 0] = old[:, 0]
        denom = 1.0 + 2.0 * c * dt
        for k in range(1, p.n_steps + 1):
            new[:, k] = (new[:, k - 1] + c * dt * (u_left[:, k] + u_right[:, k])) / denom
        residuals = np.max(np.abs(new - old), axis=1)
        work = np.full(old.shape[0], float(p.n_steps))
        return new, residuals, work, None
