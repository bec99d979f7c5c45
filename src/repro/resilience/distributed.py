"""Distributed run supervision: coordinated checkpoints + rank recovery.

Scales the serial rollback-and-replay supervisor
(:mod:`repro.resilience.supervisor`) to the rank-parallel solver, the
way a terascale S3D campaign actually survives node loss:

* **coordinated distributed checkpointing** — every rank writes its
  owned conserved block (plus the Newton temperature cache) as a
  CRC-guarded shard (:func:`repro.io.restart.save_state_shard`), under
  a two-phase commit: phase one writes and *verifies* every shard in a
  ``.tmp`` slot, phase two renames them into place and only then writes
  the manifest — the commit record — so a checkpoint torn by a failure
  mid-write is invisible to recovery and can never be loaded;
* **recovery policies** — ``respawn`` brings dead ranks back on the
  same decomposition and replays from the newest committed checkpoint
  (bitwise on the in-process reference), while ``shrink``
  re-decomposes the domain over the surviving rank count and continues
  on a smaller world, re-seeding the chemistry load balancer's cost
  model; ``off`` disables supervision entirely (plain ``solver.run``,
  bit-identical, no checkpoint traffic).

Liveness detection (heartbeats, :class:`RankUnresponsiveError`) lives
in the transports themselves (:mod:`repro.parallel.shm`); here a hung
rank is just another recoverable rank failure.

Telemetry: ``resilience.parallel_recoveries`` /
``resilience.ranks_respawned`` / ``resilience.replayed_steps``
counters plus a ``PARALLEL_RECOVERY`` span per rollback.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.resilience.errors import (
    FaultInjectedError,
    RankFailedError,
    ResilienceExhaustedError,
    RestartCorruptionError,
    TransientIOError,
)
from repro.resilience.faults import resolve_injector
from repro.resilience.retry import RetryPolicy
from repro.observability.monitor import NULL_HEALTH
from repro.observability.watchdogs import WatchdogTripError
from repro.telemetry import resolve as resolve_telemetry

__all__ = [
    "DistributedCheckpointRing",
    "DistributedRunReport",
    "ENV_VAR",
    "PARALLEL_RECOVERABLE",
    "ParallelRecoveryEvent",
    "RECOVERY_POLICIES",
    "resolve_recovery_policy",
    "run_parallel_resilient",
    "shrink_decomposition",
]

#: recognised parallel-recovery policies, in documentation order
RECOVERY_POLICIES = ("off", "respawn", "shrink")

#: environment override consulted when no policy is given explicitly
ENV_VAR = "REPRO_PARALLEL_RECOVERY"

#: fault classes the parallel supervisor answers with recovery — the
#: serial set plus rank failure (crash or missed heartbeat)
PARALLEL_RECOVERABLE = (FaultInjectedError, TransientIOError,
                        RestartCorruptionError, WatchdogTripError,
                        RankFailedError)


def resolve_recovery_policy(policy=None) -> str:
    """Normalise a recovery-policy choice.

    Explicit argument wins; ``None`` falls back to the
    ``REPRO_PARALLEL_RECOVERY`` environment variable, then ``"off"``.
    """
    if policy is None:
        policy = os.environ.get(ENV_VAR) or "off"
    policy = str(policy).lower()
    if policy not in RECOVERY_POLICIES:
        raise ValueError(
            f"unknown parallel recovery policy {policy!r}; "
            f"choose from {RECOVERY_POLICIES}"
        )
    return policy


def shrink_decomposition(decomp, new_size: int):
    """A decomposition of the same grid over at most ``new_size`` ranks.

    Only 1-D slab decompositions (at most one axis with more than one
    process) can shrink — redistributing a general Cartesian split
    over an arbitrary survivor count has no unique answer. The slab
    axis keeps shrinking until every block is at least ``DEEP_HALO``
    cells deep (:func:`~repro.parallel.solver.thinnest_block`, the
    floor the solver itself enforces), below which the deep halo
    exchange would read unfilled ghosts; a grid too small to split at
    all continues on a single rank.
    """
    from repro.parallel.decomp import CartesianDecomposition
    from repro.parallel.solver import DEEP_HALO, thinnest_block

    new_size = int(new_size)
    if new_size < 1:
        raise ValueError("cannot shrink to an empty world")
    split = [a for a, p in enumerate(decomp.proc_shape) if p > 1]
    if len(split) > 1:
        raise ResilienceExhaustedError(
            f"shrink supports 1-D slab decompositions only; "
            f"{decomp.proc_shape} splits {len(split)} axes"
        )
    axis = split[0] if split else int(np.argmax(decomp.global_shape))
    proc = [1] * decomp.ndim
    while True:
        proc[axis] = new_size
        out = CartesianDecomposition(decomp.global_shape, tuple(proc),
                                     periodic=decomp.periodic)
        if new_size == 1 or thinnest_block(out)[0] >= DEEP_HALO:
            return out
        new_size -= 1


@dataclass
class ParallelRecoveryEvent:
    """One parallel recovery: what died, which policy answered."""

    at_step: int
    error: str
    policy: str
    dead_ranks: tuple
    restored_step: int
    world_size: int


@dataclass
class DistributedRunReport:
    """Outcome of a supervised parallel run."""

    steps_completed: int = 0
    recoveries: int = 0
    replayed_steps: int = 0
    checkpoints_written: int = 0
    ranks_respawned: int = 0
    shrinks: int = 0
    final_world_size: int = 0
    history: list = field(default_factory=list)
    #: the DistributedCheckpointRing the run checkpointed into
    ring: object = None

    @property
    def clean(self) -> bool:
        return self.recoveries == 0


class DistributedCheckpointRing:
    """Ring of the last ``keep`` *committed* distributed checkpoints.

    Each checkpoint is one shard per rank plus a manifest; the manifest
    is written last and is the sole commit record — recovery never
    trusts shards without one, so a save interrupted at any point
    leaves the previous committed checkpoint untouched.
    """

    def __init__(self, fs, prefix: str = "parallel", keep: int = 3,
                 retry: RetryPolicy | None = None, telemetry=None):
        if keep < 1:
            raise ValueError("checkpoint ring must keep at least 1 entry")
        self.fs = fs
        self.prefix = prefix
        self.keep = int(keep)
        self.retry = retry if retry is not None else RetryPolicy()
        self.telemetry = resolve_telemetry(telemetry)
        self._c_written = self.telemetry.counter(
            "resilience.checkpoints_written")
        self._c_fallbacks = self.telemetry.counter(
            "resilience.checkpoint_fallbacks")
        #: (step, manifest_path, n_ranks) of committed checkpoints,
        #: oldest first
        self._entries: list = []

    # -- path helpers ------------------------------------------------------
    def shard_path(self, step: int, rank: int) -> str:
        return f"{self.prefix}.{step:08d}.r{rank:04d}.shard"

    def tmp_path(self, step: int, rank: int) -> str:
        return f"{self.prefix}.{step:08d}.r{rank:04d}.tmp"

    def manifest_path(self, step: int) -> str:
        return f"{self.prefix}.{step:08d}.manifest"

    def entries(self) -> list:
        """Committed ring contents: (step, manifest, n_ranks), oldest
        first."""
        return list(self._entries)

    @property
    def newest_step(self):
        return self._entries[-1][0] if self._entries else None

    # -- save (two-phase commit) ------------------------------------------
    def save(self, solver) -> str:
        """Coordinated checkpoint of every rank; returns the manifest
        path.

        Phase 1 writes each rank's shard to a ``.tmp`` slot and
        verifies it (write + read-back as one retryable unit). Phase 2
        renames every verified shard into place and writes the manifest
        *last*. A failure anywhere before the manifest write leaves no
        commit record, so recovery falls back to the previous
        checkpoint instead of installing a torn one.
        """
        from repro.io.restart import (
            save_state_shard,
            verify_state_shard,
            write_checkpoint_manifest,
        )

        step = solver.step_count
        caches = solver.capture_caches()
        size = solver.decomp.size
        tmp_paths = []
        for rank in range(size):
            tmp = self.tmp_path(step, rank)

            def attempt(rank=rank, tmp=tmp):
                save_state_shard(
                    self.fs, tmp, step, solver.time, solver.locals[rank],
                    cache_block=caches[rank], telemetry=self.telemetry,
                    retry=self.retry,
                )
                with self.telemetry.span("CHECKPOINT_VERIFY"):
                    verify_state_shard(self.fs, tmp)

            from repro.resilience.retry import fs_backoff_sleep

            self.retry.call(attempt, label=f"ckpt.{step}.r{rank}",
                            telemetry=self.telemetry,
                            sleep=fs_backoff_sleep(self.fs))
            tmp_paths.append(tmp)
        # phase 2: every shard verified — rename all, then commit
        for rank, tmp in enumerate(tmp_paths):
            self.fs.rename(tmp, self.shard_path(step, rank))
        manifest = self.manifest_path(step)
        write_checkpoint_manifest(
            self.fs, manifest,
            {
                "step": int(step),
                "time": float(solver.time),
                "n_ranks": int(size),
                "global_shape": list(solver.decomp.global_shape),
                "proc_shape": list(solver.decomp.proc_shape),
                "periodic": [bool(p) for p in solver.decomp.periodic],
                "shards": [self.shard_path(step, r) for r in range(size)],
            },
            telemetry=self.telemetry, retry=self.retry,
        )
        # a replay pass re-saves steps the abandoned timeline already
        # checkpointed: replace, don't duplicate
        for old_step, old_manifest, old_n in [e for e in self._entries
                                              if e[0] >= step]:
            self._unlink_checkpoint(old_step, old_manifest, old_n,
                                    skip_step=step)
        self._entries = [e for e in self._entries if e[0] < step]
        self._entries.append((step, manifest, size))
        while len(self._entries) > self.keep:
            old_step, old_manifest, old_n = self._entries.pop(0)
            self._unlink_checkpoint(old_step, old_manifest, old_n)
        self._c_written.inc()
        return manifest

    def _unlink_checkpoint(self, step, manifest, n_ranks,
                           skip_step=None) -> None:
        if step == skip_step:
            return
        if self.fs.exists(manifest):
            self.fs.unlink(manifest)
        for rank in range(n_ranks):
            shard = self.shard_path(step, rank)
            if self.fs.exists(shard):
                self.fs.unlink(shard)

    # -- restore -----------------------------------------------------------
    def _load_entry(self, step: int, manifest_path: str):
        """Manifest + fully-verified shard arrays for one ring entry.

        Raises on any integrity failure so the caller can fall back."""
        from repro.io.restart import (
            load_state_shard,
            read_checkpoint_manifest,
        )

        meta = read_checkpoint_manifest(self.fs, manifest_path)
        if int(meta["step"]) != step:
            raise RestartCorruptionError(
                f"{manifest_path!r}: manifest step {meta['step']} does not "
                f"match ring entry {step}"
            )
        shards = [load_state_shard(self.fs, p) for p in meta["shards"]]
        for p, s in zip(meta["shards"], shards):
            if s["step"] != step:
                raise RestartCorruptionError(
                    f"{p!r}: shard step {s['step']} does not match "
                    f"manifest step {step}"
                )
        return meta, shards

    def restore(self, solver) -> dict:
        """Install the newest committed checkpoint that fully verifies.

        Requires the solver's decomposition to match the checkpoint's
        (the respawn path). Walks the ring newest to oldest; a torn or
        corrupt entry — any bad shard, any bad manifest — is skipped
        whole. Returns ``{"step", "path", "fallbacks", "skipped"}``.
        """
        skipped: list = []
        for step, manifest_path, n_ranks in reversed(self._entries):
            try:
                meta, shards = self._load_entry(step, manifest_path)
                if tuple(meta["proc_shape"]) != solver.decomp.proc_shape:
                    raise RestartCorruptionError(
                        f"{manifest_path!r}: checkpoint decomposition "
                        f"{tuple(meta['proc_shape'])} does not match the "
                        f"solver's {solver.decomp.proc_shape}"
                    )
            except (RestartCorruptionError, TransientIOError,
                    FileNotFoundError) as err:
                skipped.append((manifest_path,
                                f"{type(err).__name__}: {err}"))
                self._c_fallbacks.inc()
                continue
            solver.install_shards(
                step, meta["time"],
                [s["u"] for s in shards],
                [s["cache"] for s in shards],
            )
            return {"step": step, "path": manifest_path,
                    "fallbacks": len(skipped), "skipped": skipped}
        raise ResilienceExhaustedError(
            f"no committed checkpoint in ring {self.prefix!r}: "
            + (f"all {len(skipped)} candidates failed: {skipped}"
               if skipped else "ring is empty")
        )

    def load_global(self) -> dict:
        """Newest committed checkpoint gathered to a *global* state.

        Rebuilds the checkpoint's own decomposition from its manifest
        and gathers the shards, so the result can be re-scattered under
        any new decomposition (the shrink path). Returns ``{"step",
        "time", "u", "cache", "path", "fallbacks"}`` with ``cache``
        None when any rank checkpointed cold.
        """
        from repro.parallel.decomp import CartesianDecomposition

        fallbacks = 0
        last_err = None
        for step, manifest_path, n_ranks in reversed(self._entries):
            try:
                meta, shards = self._load_entry(step, manifest_path)
            except (RestartCorruptionError, TransientIOError,
                    FileNotFoundError) as err:
                fallbacks += 1
                last_err = err
                self._c_fallbacks.inc()
                continue
            old = CartesianDecomposition(
                tuple(meta["global_shape"]), tuple(meta["proc_shape"]),
                periodic=tuple(meta["periodic"]),
            )
            u = old.gather([s["u"] for s in shards], leading_axes=1)
            caches = [s["cache"] for s in shards]
            cache = (None if any(c is None for c in caches)
                     else old.gather(caches, leading_axes=0))
            return {"step": step, "time": float(meta["time"]), "u": u,
                    "cache": cache, "path": manifest_path,
                    "fallbacks": fallbacks}
        raise ResilienceExhaustedError(
            f"no committed checkpoint in ring {self.prefix!r}"
            + (f"; last failure: {last_err}" if last_err else ": ring is empty")
        )


def _shrink_and_restore(solver, ring, dead) -> dict:
    """Shrink policy: gather the newest checkpoint, re-decompose over
    the survivors, and install it on the smaller world."""
    data = ring.load_global()
    survivors = solver.decomp.size - len(dead)
    new_decomp = shrink_decomposition(solver.decomp, survivors)
    solver.reconfigure(new_decomp)
    solver.world.reset_channels()
    solver.install_checkpoint(data)
    return data


def run_parallel_resilient(solver, fs, n_steps: int, dt: float, *,
                           policy=None, checkpoint_interval: int = 2,
                           ring: DistributedCheckpointRing | None = None,
                           prefix: str = "parallel", keep: int = 3,
                           max_recoveries: int = 20, injector=None,
                           telemetry=None) -> DistributedRunReport:
    """Advance a :class:`~repro.parallel.solver.ParallelPeriodicSolver`
    ``n_steps`` fixed-``dt`` steps, recovering from rank failures.

    ``policy`` selects how a dead or unresponsive rank is answered
    (see :data:`RECOVERY_POLICIES`); ``"off"`` delegates to plain
    ``solver.run`` with zero supervision overhead and no checkpoint
    traffic. Active policies checkpoint into a
    :class:`DistributedCheckpointRing` on ``fs`` every
    ``checkpoint_interval`` steps (plus a baseline before the first
    step, so rollback is always possible) and convert any
    :data:`PARALLEL_RECOVERABLE` fault into rollback-and-replay:

    * ``respawn`` — revive the dead ranks on the same decomposition,
      purge transport channels, reinstall the newest committed
      checkpoint, replay;
    * ``shrink`` — gather the newest committed checkpoint, rebuild the
      solver on a decomposition over the surviving rank count, replay
      there. Falling to one rank is always legal; the run finishes.

    Both policies reach the same final state as a fault-free run of the
    same step count — bitwise on the in-process transport (respawn and
    shrink: 1-D decompositions are bitwise decomposition-independent),
    within round-off on multiprocessing.
    """
    policy = resolve_recovery_policy(policy)
    if policy == "off":
        solver.run(n_steps, dt)
        report = DistributedRunReport(steps_completed=solver.step_count,
                                      final_world_size=solver.decomp.size)
        return report
    if checkpoint_interval < 1:
        raise ValueError("checkpoint_interval must be >= 1")
    tel = resolve_telemetry(telemetry if telemetry is not None
                            else getattr(solver, "telemetry", None))
    inj = resolve_injector(injector if injector is not None
                           else getattr(solver.world, "faults", None))
    ring = ring if ring is not None else DistributedCheckpointRing(
        fs, prefix=prefix, keep=keep, telemetry=tel)
    report = DistributedRunReport(ring=ring)
    c_recoveries = tel.counter("resilience.parallel_recoveries")
    c_respawned = tel.counter("resilience.ranks_respawned")
    c_replayed = tel.counter("resilience.replayed_steps")
    health = getattr(solver, "health", NULL_HEALTH)
    if health.enabled and health.fs is None:
        health.attach_sink(fs)

    target = solver.step_count + int(n_steps)
    # the baseline checkpoint must succeed un-supervised: with nothing
    # committed yet there is nothing to roll back to
    ring.save(solver)
    report.checkpoints_written += 1

    while solver.step_count < target:
        try:
            if inj.enabled:
                spec = inj.decide("solver.step")
                if spec is not None:
                    raise FaultInjectedError(
                        f"injected {spec.mode} fault at step "
                        f"{solver.step_count}"
                    )
            if health.enabled:
                t0 = health.clock()
                solver.step(dt)
                health.on_step(dt, health.clock() - t0)
            else:
                solver.step(dt)
            if (solver.step_count % checkpoint_interval == 0
                    or solver.step_count == target):
                ring.save(solver)
                report.checkpoints_written += 1
        except PARALLEL_RECOVERABLE as err:
            failed_at = solver.step_count
            # the recovery actions themselves run collectives (cache
            # install) and I/O, so a persistent fault can strike again
            # mid-recovery: keep retrying under the same budget until a
            # recovery completes or the budget converts the fault into
            # ResilienceExhaustedError
            while True:
                report.recoveries += 1
                if report.recoveries > max_recoveries:
                    raise ResilienceExhaustedError(
                        f"recovery budget ({max_recoveries}) exhausted at "
                        f"step {solver.step_count}; last fault: {err}"
                    ) from err
                dead = sorted(solver.world.failed_ranks)
                try:
                    with tel.span("PARALLEL_RECOVERY"):
                        if dead and policy == "shrink":
                            data = _shrink_and_restore(solver, ring, dead)
                            restored_step = data["step"]
                            report.shrinks += 1
                        else:
                            if dead:
                                solver.respawn_ranks(dead)
                                report.ranks_respawned += len(dead)
                                c_respawned.inc(len(dead))
                            solver.world.reset_channels()
                            restored = ring.restore(solver)
                            restored_step = restored["step"]
                    break
                except PARALLEL_RECOVERABLE as again:
                    err = again
            replay = failed_at - restored_step
            report.replayed_steps += max(0, replay)
            report.history.append(ParallelRecoveryEvent(
                at_step=failed_at,
                error=f"{type(err).__name__}: {err}",
                policy=policy if dead else "rollback",
                dead_ranks=tuple(dead),
                restored_step=restored_step,
                world_size=solver.decomp.size,
            ))
            c_recoveries.inc()
            c_replayed.inc(max(0, replay))
            health.on_recovery({
                "at_step": failed_at,
                "restored_step": restored_step,
                "policy": policy,
                "dead_ranks": list(dead),
                "error": f"{type(err).__name__}: {err}",
            })

    report.steps_completed = solver.step_count
    report.final_world_size = solver.decomp.size
    if health.enabled and report.recoveries:
        health._dump("run complete after recovery")
    return report
