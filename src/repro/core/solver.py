"""Chain machinery and the unbalanced AIAC solver (paper Algorithm 1).

One *rank* per host, organised in a logical linear chain (the paper maps
the spatial components over linearly organised processors).  Each rank
runs a simulated process:

1. perform one relaxation sweep on its block (the numerics run for real;
   the counted work is converted to virtual time by the host);
2. part-way through the sweep, asynchronously send the updated *left*
   boundary component to the left neighbour (Algorithm 1 sends it "if
   j = StartC + 2", i.e. as soon as it is updated);
3. at the end of the sweep, send the *right* boundary component;
4. repeat until the convergence monitor raises the stop flag.

Boundary messages carry the component's **global position** and the
sender's residual/estimate (Algorithm 4); receive handlers drop data
whose position no longer matches the expected halo index — exactly the
paper's Algorithm 7 guard against messages crossing a repartition.

With ``config.exclusive_sends`` (default) a boundary send is suppressed
while the previous one on that channel is still in flight — the mutual
exclusion that "generates less communications" (Figure 4 variant).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable, Generator

import numpy as np

from repro.core.config import SolverConfig
from repro.core.convergence import SupervisorMonitor, TokenRingDetector
from repro.core.estimators import LoadEstimator, ResidualEstimator
from repro.core.partition import PartitionRegistry
from repro.core.records import RunResult
from repro.des import Hold, Signal, Simulator, Wait
from repro.grid.platform import Platform
from repro.problems.base import Problem
from repro.integrity import checkpoint_crc, corrupt_array_inplace
from repro.runtime.message import Message
from repro.runtime.node import GridNode
from repro.runtime.tracer import FaultRecord, Tracer
from repro.topology.graphs import Topology

__all__ = ["ChainRun", "RankContext", "run_aiac", "build_chain"]


@dataclass(slots=True)
class RankContext:
    """Everything one rank of the chain knows and mutates.

    Shared (PM2-style) between the rank's main process and its receive
    handlers, which is safe because DES handlers are atomic.
    """

    rank: int
    node: GridNode
    state: Any
    lo: int
    hi: int
    halo_left: Any
    halo_right: Any
    #: Iteration number stamped on the freshest halo from each side
    #: (used by the synchronous models to wait for the right data).
    halo_iter_left: int = -1
    halo_iter_right: int = -1
    #: Fired whenever a halo arrives (synchronous models wait on it).
    halo_signal: Signal = field(default_factory=lambda: Signal("halo"))
    #: Freshest known neighbour load estimates (piggybacked).
    neighbor_estimate: dict[str, float] = field(
        default_factory=lambda: {"left": float("inf"), "right": float("inf")}
    )
    estimator: LoadEstimator = field(default_factory=ResidualEstimator)
    iteration: int = 0
    residual: float = float("inf")
    #: Residual of the previous sweep (piggybacked on mid-sweep sends,
    #: as in Algorithm 4's "residual of previous iteration").
    prev_residual: float = float("inf")
    #: Count of halo payloads dropped by the position guard.
    stale_halos_dropped: int = 0
    #: Last durable snapshot of the rank's block (fault injection only;
    #: None on the lossless fast path).
    checkpoint: Any = None
    #: The snapshot superseded by the latest one.  Kept so that a
    #: checkpoint whose CRC verification fails (poisoned at rest) can
    #: fall back to the last *verified* snapshot instead of
    #: resurrecting bad state.
    checkpoint_prev: Any = None
    #: ``node.crash_count`` value the current in-memory state descends
    #: from; a mismatch means a crash wiped the state and the last
    #: checkpoint must be restored.
    restored_epoch: int = 0

    @property
    def n_local(self) -> int:
        return self.hi - self.lo


class ChainRun:
    """A configured chain of ranks over a platform, ready to run."""

    def __init__(
        self,
        problem: Problem,
        platform: Platform,
        config: SolverConfig,
        *,
        model: str,
        host_order: list[int] | None = None,
        topology: Topology | None = None,
    ) -> None:
        self.problem = problem
        # Each run gets a private copy of the platform: network FIFO
        # state and lazily-generated load traces are mutable, and runs
        # compared against each other must see identical conditions (the
        # copy replays the same seeded traces from t = 0).
        self.platform = copy.deepcopy(platform)
        platform = self.platform
        # The deep copy inherits whatever FIFO clamps / traffic counters
        # the caller's platform accumulated; start this run from a clean
        # network regardless.
        platform.network.reset()
        self.config = config
        self.model = model
        n_ranks = len(platform.hosts)
        if host_order is None:
            host_order = list(range(n_ranks))
        if sorted(host_order) != list(range(n_ranks)):
            raise ValueError(
                f"host_order must be a permutation of 0..{n_ranks - 1}, "
                f"got {host_order!r}"
            )
        self.host_order = host_order
        # The migration neighbourhood.  The solver's contiguous 1-D
        # block decomposition only admits path topologies (enforced by
        # PartitionRegistry); arbitrary graphs are the balancing zoo's
        # domain (repro.balancing.zoo).
        self.topology = topology if topology is not None else Topology.chain(n_ranks)
        self.sim = Simulator()
        self.tracer = Tracer(enabled=config.trace)
        self.partition = PartitionRegistry(
            problem.n_components, n_ranks, topology=self.topology
        )
        #: Overridden by the load-balanced driver: True while ``rank``
        #: has unfinished migration-protocol state (offer out, accepted
        #: incoming, data in flight) — detection must not conclude then.
        self.rank_busy: Callable[[int], bool] = lambda rank: False
        in_flight = lambda: self.partition.n_in_flight > 0  # noqa: E731
        self.detector: TokenRingDetector | None = None
        if config.detection == "token_ring":
            # The oracle keeps *recording* (so the protocol's detection
            # overhead is measurable) but no longer stops the run.
            self.monitor = SupervisorMonitor(
                n_ranks,
                config.tolerance,
                config.persistence,
                lambda: None,
                hold_while=in_flight,
            )
            self.detector = TokenRingDetector(
                n_ranks, config.tolerance, config.persistence
            )
            self.detection_stop_time: float | None = None
        else:
            self.monitor = SupervisorMonitor(
                n_ranks,
                config.tolerance,
                config.persistence,
                self._on_converged,
                hold_while=in_flight,
            )
            self.detection_stop_time = None
        self.ranks: list[RankContext] = []
        self.aborted_reason: str | None = None
        #: Fault injector attached via :meth:`attach_injector`; None on
        #: the lossless fast path.
        self.injector: Any = None
        #: Invariant/watchdog monitor attached via
        #: :meth:`repro.guard.InvariantMonitor.attach`; None on the
        #: unguarded fast path (a single pointer test per sweep).
        self.guard: Any = None
        #: Load-balancing runtime (:class:`repro.core.lb._BalancedRun`)
        #: when this run is balanced; None otherwise.  Introspected by
        #: the guard's stall watchdog to name suspect channels.
        self.lb_runtime: Any = None
        #: Sweeps between periodic checkpoints (0 = checkpointing off).
        self.checkpoint_every = 0
        for rank in range(n_ranks):
            host = platform.hosts[host_order[rank]]
            node = GridNode(self.sim, rank, host, platform.network, self.tracer)
            lo, hi = self.partition.block(rank)
            ctx = RankContext(
                rank=rank,
                node=node,
                state=problem.initial_state(lo, hi),
                lo=lo,
                hi=hi,
                halo_left=problem.initial_halo(lo - 1),
                halo_right=problem.initial_halo(hi),
            )
            self.ranks.append(ctx)
        # Chain neighbours, resolved once: ``neighbor()`` is on the
        # per-message path.
        self._neighbors: dict[str, list[RankContext | None]] = {
            side: [
                None if idx is None else self.ranks[idx]
                for idx in (
                    self.topology.path_neighbor(rank, side)
                    for rank in range(n_ranks)
                )
            ]
            for side in ("left", "right")
        }
        #: Wire size of one halo message (payload plus header).
        self.halo_bytes = problem.halo_nbytes() + config.header_bytes
        for ctx in self.ranks:
            self._register_halo_handlers(ctx)
            if self.detector is not None:
                ctx.node.register_handler(
                    "detect_token",
                    lambda msg, c=ctx: self._on_detect_token(c, msg),
                )

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    @property
    def n_ranks(self) -> int:
        return len(self.ranks)

    def neighbor(self, rank: int, side: str) -> RankContext | None:
        """The chain neighbour of ``rank`` toward ``side`` (None at ends)."""
        try:
            return self._neighbors[side][rank]
        except KeyError:
            raise ValueError(
                f"side must be 'left' or 'right', got {side!r}"
            ) from None

    def _on_converged(self) -> None:
        for ctx in self.ranks:
            ctx.node.stop_requested = True
        self.sim.stop()

    def abort(self, reason: str) -> None:
        """Abort the run (budget exhausted, solver failure)."""
        if self.aborted_reason is None:
            self.aborted_reason = reason
        for ctx in self.ranks:
            ctx.node.stop_requested = True
        self.sim.stop()

    # ------------------------------------------------------------------
    # Fault injection: checkpoints and crash-restart recovery
    # ------------------------------------------------------------------
    def attach_injector(self, injector: Any) -> None:
        """Switch this run onto the resilient transport.

        Called by :meth:`repro.faults.injector.FaultInjector.install`:
        wires the injector into every node and seeds an initial
        checkpoint per rank so a crash at any time has a restore point.
        """
        if self.injector is not None:
            raise RuntimeError("an injector is already attached to this run")
        self.injector = injector
        self.checkpoint_every = injector.resilience.checkpoint_every
        for ctx in self.ranks:
            ctx.node.injector = injector
            self.checkpoint(ctx)

    def checkpoint(self, ctx: RankContext) -> None:
        """Snapshot everything a crashed rank needs to rejoin.

        Taken periodically (every ``checkpoint_every`` sweeps) and at
        *every* migration event, so the snapshot's block bounds always
        equal the live ones — a restore never rolls back the partition
        bookkeeping, only the numerical state.

        When the attached injector's detection layer is armed the
        snapshot is CRC-stamped (:func:`repro.integrity.checkpoint_crc`)
        and the superseded snapshot is retained as the fall-back restore
        point — rollback must land on *verified* state.
        """
        snapshot = {
            "iteration": ctx.iteration,
            "state": self.problem.copy_state(ctx.state),
            "lo": ctx.lo,
            "hi": ctx.hi,
            "halo_left": copy.deepcopy(ctx.halo_left),
            "halo_right": copy.deepcopy(ctx.halo_right),
            "halo_iter_left": ctx.halo_iter_left,
            "halo_iter_right": ctx.halo_iter_right,
            "estimator": copy.deepcopy(ctx.estimator),
        }
        if self.injector is not None and self.injector.detection_active:
            snapshot["crc"] = self._checkpoint_crc(snapshot)
            ctx.checkpoint_prev = ctx.checkpoint
        ctx.checkpoint = snapshot

    def _checkpoint_crc(self, snapshot: dict) -> int:
        """CRC of a snapshot, state values included via the problem view."""
        return checkpoint_crc(
            snapshot, self.problem.state_array(snapshot["state"])
        )

    def _verified_snapshot(self, ctx: RankContext) -> dict:
        """The freshest checkpoint that passes CRC verification.

        Unstamped snapshots (detection off, or taken by the divergence
        guard on an unfaulted run) are trusted as-is.  A stamped
        snapshot that fails its CRC was poisoned at rest: it is
        discarded — counted as a detected corruption — in favour of the
        retained previous verified snapshot.  With no verified snapshot
        left, the block is *re-initialized* from the problem's initial
        data: a fixed-point iteration converges from any start, so a
        cold block restart is sound recovery — corrupted state is never
        silently restored.
        """
        injector = self.injector
        snap = ctx.checkpoint
        if (
            injector is None
            or not injector.detection_active
            or snap is None
            or snap.get("crc") is None
            or self._checkpoint_crc(snap) == snap["crc"]
        ):
            return snap
        injector.stats["corruptions_detected"] += 1
        self.tracer.fault(
            FaultRecord(
                kind="corruption_detected",
                time=self.sim.now,
                t_end=self.sim.now,
                rank=ctx.rank,
                detail="checkpoint CRC mismatch",
            )
        )
        prev = ctx.checkpoint_prev
        if (
            prev is not None
            and (prev["lo"], prev["hi"]) == (snap["lo"], snap["hi"])
            and (
                prev.get("crc") is None
                or self._checkpoint_crc(prev) == prev["crc"]
            )
        ):
            ctx.checkpoint = prev
            ctx.checkpoint_prev = None
            injector.note_corruption_recovered(
                ctx.rank, "fell back to last verified checkpoint"
            )
            return prev
        fresh = dict(snap)
        fresh["iteration"] = 0
        fresh["state"] = self.problem.initial_state(snap["lo"], snap["hi"])
        fresh["halo_left"] = self.problem.initial_halo(snap["lo"] - 1)
        fresh["halo_right"] = self.problem.initial_halo(snap["hi"])
        fresh["halo_iter_left"] = -1
        fresh["halo_iter_right"] = -1
        fresh["crc"] = self._checkpoint_crc(
            {k: v for k, v in fresh.items() if k != "crc"}
        )
        ctx.checkpoint = fresh
        ctx.checkpoint_prev = None
        injector.note_corruption_recovered(
            ctx.rank, "re-initialized block from problem initial data"
        )
        return fresh

    def restore_checkpoint(self, ctx: RankContext) -> None:
        """Rejoin after a crash: reload the last *verified* checkpoint."""
        snap = ctx.checkpoint
        if snap is None:
            raise RuntimeError(
                f"rank {ctx.rank} crashed but has no checkpoint; "
                "was the injector attached via attach_injector()?"
            )
        snap = self._verified_snapshot(ctx)
        if (ctx.lo, ctx.hi) != (snap["lo"], snap["hi"]):
            # Checkpoints are refreshed at every migration, so the live
            # and snapshotted bounds can never diverge; a mismatch means
            # the recovery invariant broke.
            raise RuntimeError(
                f"rank {ctx.rank}: checkpoint block "
                f"[{snap['lo']}, {snap['hi']}) does not match live block "
                f"[{ctx.lo}, {ctx.hi})"
            )
        ctx.restored_epoch = ctx.node.crash_count
        ctx.iteration = snap["iteration"]
        ctx.state = self.problem.copy_state(snap["state"])
        ctx.halo_left = copy.deepcopy(snap["halo_left"])
        ctx.halo_right = copy.deepcopy(snap["halo_right"])
        ctx.halo_iter_left = snap["halo_iter_left"]
        ctx.halo_iter_right = snap["halo_iter_right"]
        ctx.estimator = copy.deepcopy(snap["estimator"])
        ctx.residual = float("inf")
        ctx.prev_residual = float("inf")
        # The rank is about to re-iterate from older state: its previous
        # convergence votes are void.
        self.monitor.reset_rank(ctx.rank)
        if self.detector is not None:
            self.detector.reset_rank(ctx.rank)

    def corrupt_block(self, fault: Any, rng: Any) -> str | None:
        """Apply a :class:`~repro.faults.models.StateCorruption` event.

        Called by the injector's compiled DES event.  ``target="state"``
        poisons the live block values in place (resident-memory upset);
        ``target="checkpoint"`` poisons the saved snapshot *without*
        refreshing its CRC, so a later restore sees the mismatch.
        Returns a damage description, or None when there is nothing to
        poison (dead host; no checkpoint yet; opaque state layout).
        """
        ctx = self.ranks[fault.rank]
        if fault.target == "checkpoint":
            snap = ctx.checkpoint
            if snap is None:
                return None
            target = self.problem.state_array(snap["state"])
        else:
            if not ctx.node.alive:
                return None
            target = self.problem.state_array(ctx.state)
        if target is None or target.size == 0:
            return None
        return corrupt_array_inplace(target, fault.mode, fault.amplitude, rng)

    def _register_halo_handlers(self, ctx: RankContext) -> None:
        # Halo payloads are idempotent state transfer: under the
        # resilient transport a reordered older transmission must lose to
        # a fresher one already delivered (AIAC newest-wins semantics).
        # The flag is inert on the lossless fast path.
        ctx.node.register_handler(
            "halo_from_left",
            lambda msg, c=ctx: self._on_halo(c, "left", msg),
            newest_wins=True,
        )
        ctx.node.register_handler(
            "halo_from_right",
            lambda msg, c=ctx: self._on_halo(c, "right", msg),
            newest_wins=True,
        )

    def _on_halo(self, ctx: RankContext, side: str, msg: Message) -> None:
        """Receive handler (Algorithms 2/3/7): position-checked halo update."""
        payload = msg.payload
        expected = ctx.lo - 1 if side == "left" else ctx.hi
        # The sender's estimate is taken even when the data is stale
        # (Algorithm 7 receives the residual unconditionally).
        ctx.neighbor_estimate[side] = payload["estimate"]
        if payload["position"] != expected:
            ctx.stale_halos_dropped += 1
            return
        if side == "left":
            ctx.halo_left = payload["data"]
            ctx.halo_iter_left = payload["iteration"]
        else:
            ctx.halo_right = payload["data"]
            ctx.halo_iter_right = payload["iteration"]
        ctx.halo_signal.trigger(self.sim)

    # ------------------------------------------------------------------
    # Decentralized detection (token ring; SolverConfig.detection)
    # ------------------------------------------------------------------
    def _send_token(self, ctx: RankContext, token: dict, direction: int) -> None:
        neighbor = self.neighbor(ctx.rank, "right" if direction > 0 else "left")
        assert neighbor is not None, "token routed off the chain"
        ctx.node.send(
            neighbor.node, "detect_token", token, self.config.header_bytes
        )

    def _on_detect_token(self, ctx: RankContext, msg: Message) -> None:
        assert self.detector is not None
        if self.rank_busy(ctx.rank):
            # Unfinished migration protocol: this rank cannot vouch for
            # its residual yet — treat it as unconverged (cancels the
            # round).
            self.detector.reset_rank(ctx.rank)
        forward, direction = self.detector.on_token(ctx.rank, msg.payload)
        if self.detector.converged:
            ctx.node.stop_requested = True
            self.detection_stop_time = self.sim.now
        if forward is not None:
            self._send_token(ctx, forward, direction)

    def _detection_after_sweep(self, ctx: RankContext) -> None:
        assert self.detector is not None
        self.detector.report(ctx.rank, ctx.residual)
        if self.rank_busy(ctx.rank):
            self.detector.reset_rank(ctx.rank)
            return
        if self.detector.converged and self.detector.n_ranks == 1:
            ctx.node.stop_requested = True
            self.detection_stop_time = self.sim.now
            return
        token = self.detector.should_launch(ctx.rank)
        if token is not None:
            self._send_token(ctx, token, +1)
        elif self.detector.converged and ctx.rank == 0:
            ctx.node.stop_requested = True
            self.detection_stop_time = self.sim.now

    # ------------------------------------------------------------------
    # Sending boundaries
    # ------------------------------------------------------------------
    def send_halo(
        self,
        ctx: RankContext,
        side: str,
        *,
        estimate: float,
        exclusive: bool,
        iteration: int | None = None,
    ) -> bool:
        """Send the boundary component on ``side`` to that neighbour.

        ``iteration`` stamps the payload (defaults to the rank's current
        sweep count); mid-sweep sends stamp the sweep in progress so the
        synchronous models can wait for exactly their neighbours'
        previous-iteration data.
        """
        neighbor = self.neighbor(ctx.rank, side)
        if neighbor is None:
            return False
        kind = "halo_from_right" if side == "left" else "halo_from_left"
        position = ctx.lo if side == "left" else ctx.hi - 1
        payload = {
            "data": self.problem.halo_out(ctx.state, side),
            "position": position,
            "estimate": estimate,
            "iteration": ctx.iteration if iteration is None else iteration,
        }
        return ctx.node.send(
            neighbor.node, kind, payload, self.halo_bytes, exclusive=exclusive
        )

    # ------------------------------------------------------------------
    # The common sweep (used by every execution model)
    # ------------------------------------------------------------------
    def sweep(
        self, ctx: RankContext, *, send_left_mid_sweep: bool, exclusive: bool
    ) -> Generator[Any, Any, float]:
        """Compute one sweep, holding virtual time; returns the duration.

        The numerics run eagerly (their results are deterministic), but
        the virtual time they cost is paid by two ``Hold``s so that the
        left boundary send fires *during* the sweep at the configured
        overlap point, as in Algorithm 1.
        """
        pre_estimate = ctx.estimator.value()
        epoch = ctx.node.crash_count
        result = self.problem.iterate(ctx.state, ctx.halo_left, ctx.halo_right)
        t0 = ctx.node.sim.now
        duration = ctx.node.host.duration_for_work(result.total_work, t0)
        # Polling throttle for near-free (fully skipped) sweeps.
        duration = max(duration, self.config.min_sweep_duration)
        first = duration * self.config.overlap_split
        yield Hold(first)
        if send_left_mid_sweep and ctx.node.alive:
            # Mid-sweep left send carries the *previous* sweep's estimate
            # (this sweep's residual is not known yet in the real code)
            # but the data and iteration stamp of the sweep in progress.
            self.send_halo(
                ctx,
                "left",
                estimate=pre_estimate,
                exclusive=exclusive,
                iteration=ctx.iteration + 1,
            )
        yield Hold(duration - first)

        if not ctx.node.alive or ctx.node.crash_count != epoch:
            # A crash hit this rank mid-sweep (possibly crash *and*
            # restart within one Hold): the sweep's results are lost.
            # Discard all accounting; the caller's recovery path restores
            # the last checkpoint before iterating again.
            return duration
        ctx.iteration += 1
        ctx.prev_residual = ctx.residual
        ctx.residual = result.local_residual
        if self.guard is not None and self.guard.after_sweep(self, ctx):
            # The divergence watchdog rolled this rank back to its last
            # checkpoint: the sweep's results are void (mirrors the
            # mid-sweep crash discard above), so none of its accounting
            # — estimator update, trace spans, convergence reports —
            # may leak out.
            return duration
        residual_l2 = float(np.linalg.norm(result.residuals))
        ctx.estimator.update(ctx.residual, residual_l2, duration, ctx.n_local)
        now = ctx.node.sim.now
        self.tracer.iteration(
            ctx.rank, ctx.iteration, t0, now, result.total_work
        )
        self.tracer.residual(
            ctx.rank, ctx.iteration, now, ctx.residual, ctx.n_local
        )
        if self.injector is None or not self._halo_is_stale(ctx):
            self.monitor.report(ctx.rank, ctx.residual, now)
        if self.detector is not None and not ctx.node.stop_requested:
            self._detection_after_sweep(ctx)
        if (
            ctx.checkpoint is not None
            and self.checkpoint_every
            and ctx.iteration % self.checkpoint_every == 0
        ):
            self.checkpoint(ctx)
        if ctx.iteration >= self.config.max_iterations:
            self.abort(
                f"rank {ctx.rank} exceeded max_iterations="
                f"{self.config.max_iterations}"
            )
        return duration

    def _halo_is_stale(self, ctx: RankContext) -> bool:
        """Convergence-detection freshness gate (fault injection only).

        A residual computed against a badly stale halo is meaningless
        for global convergence: a drop-starved rank quiesces against
        its frozen boundary and its local residual collapses even
        though the global solution is wrong.  While either halo input
        lags the owning neighbour's progress by more than the
        configured staleness bound, the sweep is *not reported* to the
        oracle — it carries no evidence either way, so the rank's
        persistence streak pauses rather than resetting (resetting
        would defer detection almost indefinitely under sustained
        loss).  The oracle is omniscient by design, so peeking at the
        neighbour's true iteration count is fair game here.  The
        fault-free fast path never calls this.
        """
        bound = self.injector.resilience.max_halo_staleness
        for side, halo_iter in (
            ("left", ctx.halo_iter_left),
            ("right", ctx.halo_iter_right),
        ):
            neighbor = self.neighbor(ctx.rank, side)
            if neighbor is not None and neighbor.iteration - halo_iter > bound:
                return True
        return False

    # ------------------------------------------------------------------
    # Running / result assembly
    # ------------------------------------------------------------------
    def run(self) -> None:
        self.sim.run(until=self.config.max_time)

    def result(self) -> RunResult:
        blocks = sorted(self.ranks, key=lambda c: c.lo)
        if self.detector is not None:
            converged = self.detector.converged
            time = (
                self.detection_stop_time
                if self.detection_stop_time is not None
                else self.sim.now
            )
        else:
            converged = self.monitor.converged
            time = (
                self.monitor.convergence_time
                if self.monitor.convergence_time is not None
                else self.sim.now
            )
        return RunResult(
            model=self.model,
            converged=converged,
            time=time,
            iterations=[c.iteration for c in self.ranks],
            # busy_time_of reads the tracer's always-on aggregates, so
            # untraced sweep runs now report real per-rank work too.
            work=[self.tracer.busy_time_of(c.rank) for c in self.ranks],
            solution_blocks=[self.problem.solution(c.state) for c in blocks],
            final_partition=[(c.lo, c.hi) for c in self.ranks],
            residuals_at_stop=[c.residual for c in self.ranks],
            tracer=self.tracer,
            n_migrations=self.tracer.n_migrations(),
            components_migrated=self.tracer.components_migrated(),
            meta={
                "aborted_reason": self.aborted_reason,
                "stale_halos_dropped": sum(
                    c.stale_halos_dropped for c in self.ranks
                ),
                # With token-ring detection the oracle keeps recording,
                # so the protocol's overhead is (time - oracle time).
                "oracle_detection_time": self.monitor.convergence_time,
                "detection_messages": (
                    self.detector.messages_used if self.detector else 0
                ),
                # Network totals (this run's private platform copy).
                "network_bytes": self.platform.network.bytes_sent,
                "network_messages": self.platform.network.messages_sent,
                # Per-rank transport counters (all zeros on the lossless
                # fast path; populated under the resilient transport).
                "transport_per_rank": [
                    {
                        "rank": c.rank,
                        "retries": c.node.retries,
                        "sends_failed": c.node.sends_failed,
                        "duplicates_suppressed": c.node.duplicates_suppressed,
                        "stale_rejected": c.node.stale_rejected,
                        "crashes": c.node.crash_count,
                    }
                    for c in self.ranks
                ],
            },
        )

    def export_metrics(self, registry: Any, **labels) -> None:
        """Scrape every instrumented component of this run into ``registry``.

        Pulls the tracer aggregates, per-rank transport counters, the
        network traffic totals and (when attached) the fault injector's
        counters.  Purely a read — calling it never perturbs the run.
        """
        self.tracer.export_metrics(registry, **labels)
        self.sim.export_metrics(registry, **labels)
        for ctx in self.ranks:
            ctx.node.export_metrics(registry, **labels)
        self.platform.network.export_metrics(registry, **labels)
        if self.injector is not None:
            self.injector.export_metrics(registry, **labels)


def build_chain(
    problem: Problem,
    platform: Platform,
    config: SolverConfig | None = None,
    *,
    model: str = "aiac",
    host_order: list[int] | None = None,
) -> ChainRun:
    """Construct a chain run without starting it (for custom drivers)."""
    return ChainRun(
        problem,
        platform,
        config if config is not None else SolverConfig(),
        model=model,
        host_order=host_order,
    )


def _aiac_process(run: ChainRun, ctx: RankContext):
    """The main loop of Algorithm 1 (no load balancing).

    The crash-recovery prologue is a no-op on the lossless fast path
    (``alive`` is always True and ``crash_count == restored_epoch == 0``
    without a fault injector): a crashed rank parks on its restart
    signal, then rejoins from its last checkpoint before iterating.
    """
    exclusive = run.config.exclusive_sends
    node = ctx.node
    while not node.stop_requested:
        if not node.alive:
            yield Wait(node.restart_signal)
            continue  # re-check stop/crash state after waking
        if node.crash_count != ctx.restored_epoch:
            run.restore_checkpoint(ctx)
            continue
        yield from run.sweep(ctx, send_left_mid_sweep=True, exclusive=exclusive)
        if node.stop_requested:
            break
        if not node.alive or node.crash_count != ctx.restored_epoch:
            continue  # the sweep was lost to a crash
        self_estimate = ctx.estimator.value()
        run.send_halo(ctx, "right", estimate=self_estimate, exclusive=exclusive)


def run_aiac(
    problem: Problem,
    platform: Platform,
    config: SolverConfig | None = None,
    *,
    host_order: list[int] | None = None,
    injector: Any = None,
    profiler: Any = None,
    guard: Any = None,
) -> RunResult:
    """Solve ``problem`` with the unbalanced AIAC algorithm (Algorithm 1).

    Every processor iterates on whatever halo data is available —
    no waiting, no synchronisation.  ``injector`` optionally arms a
    :class:`~repro.faults.injector.FaultInjector` (resilient transport +
    fault schedule) against the run; ``profiler`` optionally attaches a
    :class:`~repro.obs.profile.SimProfiler` to the DES kernel (the event
    trace is bit-identical with or without it); ``guard`` optionally
    attaches a :class:`~repro.guard.InvariantMonitor` (runtime safety
    invariants + watchdogs, see ``docs/robustness.md``).  Returns the
    :class:`RunResult`.
    """
    run = build_chain(
        problem, platform, config, model="aiac", host_order=host_order
    )
    if injector is not None:
        injector.install(run)
    if profiler is not None:
        run.sim.attach_observer(profiler)
    if guard is not None:
        guard.attach(run)
    for ctx in run.ranks:
        run.sim.spawn(f"aiac-rank-{ctx.rank}", _aiac_process(run, ctx))
    run.run()
    return run.result()
