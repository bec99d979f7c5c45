"""DNS step benchmark: seconds per solver step, and a traced split by layer.

Run from the repository root::

    python3 perfbench/run.py --workload jet_explicit --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload stripe_2rank --seed 1 --seconds 30 --trace 1

A run repeats *episodes* until ``--seconds`` have passed (and, untraced,
until the step percentiles rest on enough samples). An episode builds
the workload's solver, takes one warm-up step (set-up time ends there),
times ``steps`` further steps one by one, and checks its final state:
finite, decoded mass fractions in [0, 1], and a summary equal, within
the golden tolerances, to the one stored in ``references.json`` for that
workload and input. The range of the raw transported mass fractions,
whose undershoot the decode clips away, must equal its stored one too.
A step fails if it raises, loses a worker, or belongs to an episode
whose check fails.

``--trace 0`` reports the end-to-end metrics: ``step_s`` (the median
over the run's episodes of the episode's mean step time), ``step_s`` per
grid point, the median set-up time and the peak resident memory. Both
times are given at the host speed :data:`PROBE_REF_S` names: a fixed
reference kernel (:func:`probe`) runs before every set-up and every timed
step, and each episode's times are scaled by the reference time over the
median of the episode's probe times. The shared host this benchmark was
defined on runs all code up to 1.7x slower in phases lasting seconds to
minutes; the probe slows with it (per episode, log step time against
log probe time: slope 1.15-1.31, correlation 0.86-0.95), so the ratio
holds far steadier than the wall time (10-run spreads of 4-9% against
5-33%). The wall times themselves (median and p90 of single steps,
median set-up) and the probe's median are printed beside the metrics,
with the sample count. ``--trace 1`` alternates untraced and traced
episodes and reports the per-layer metrics: self
seconds per step of every layer in :data:`spans.LAYERS`, each with its
share of the traced step, the work counts (which must equal the stored
ones exactly), the tracing overhead and the trace coverage — the share
of the traced step spent inside named layers rather than in the step's
own code (``parallel.solver.driver_s``). On ``stripe_2rank`` the traced
episodes, and a third, untraced kind, run the ranks in worker processes;
the traced state must match the in-process one within 1e-12.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``fail_frac`` is
``failed / attempted``. A run in which no episode completed a timed
step reports no metrics and exits with code 1. On every way out, the
run stops each process it started (worker ranks and multiprocessing's
resource tracker) and waits for it to end. A full record with
provenance, resolved solver settings and counts is written under
``perfbench/results/``, and a traced run's spans next to it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"

#: untraced step samples a run needs so that ten lie above its p90
MIN_SAMPLES = 110
#: the probe's wall time at the reference host speed [s]: about its
#: median on the 2-vCPU host the benchmark was defined on
PROBE_REF_S = 2.0e-3
#: stop starting episodes after this long, whatever the sample count
HARD_STOP_S = 120.0

#: end-to-end metric -> unit
END_TO_END = {
    "step_s": "s",
    "ns_per_point_step": "ns",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

#: span name -> per-layer metric stem
LAYER_METRICS = {
    "chemistry.thermo.newton": "chemistry.thermo.newton_s",
    "chemistry.thermo.enthalpy": "chemistry.thermo.enthalpy_s",
    "core.state.decode": "core.state.decode_s",
    "chemistry.kinetics.rates": "chemistry.kinetics.rates_s",
    "transport.props": "transport.props_s",
    "core.derivatives.sweep": "core.derivatives.sweep_s",
    "core.nscbc.bc": "core.nscbc.bc_s",
    "core.rhs.flux": "core.rhs.flux_s",
    "core.rhs.stable_dt": "core.rhs.stable_dt_s",
    "core.erk.update": "core.erk.update_s",
    "core.filters.filter": "core.filters.filter_s",
    "chemistry.implicit.advance": "chemistry.implicit.advance_s",
    "parallel.halo.exchange": "parallel.halo.exchange_s",
    "parallel.shm.call_all": "parallel.shm.call_all_s",
    "parallel.chemlb.rates": "parallel.chemlb.rates_s",
    "step": "parallel.solver.driver_s",  # spans.STEP: the step's own code
}

#: per-step work count metric -> episode count key; all repeat exactly
COUNT_METRICS = {
    "core.rhs.evals_per_step": "rhs_evals",
    "core.derivatives.sweeps_per_step": "derivative_sweeps",
    "chemistry.thermo.newton_calls_per_step": "newton_calls",
    "chemistry.implicit.substeps_per_step": "implicit_substeps",
    "chemistry.implicit.rejected_per_step": "implicit_rejected",
    "chemistry.implicit.factorizations_per_step": "implicit_factorizations",
    "chemistry.implicit.jacobian_reuses_per_step": "implicit_jacobian_reuses",
    "parallel.halo.messages_per_step": "halo_messages",
    "parallel.halo.bytes_per_step": "halo_bytes",
    "parallel.shm.payload_bytes_per_step": "shm_payload_bytes",
    "parallel.chemlb.cells_shipped_per_step": "chemlb_cells_shipped",
}


def per_layer_units() -> dict:
    """Every per-layer metric -> unit."""
    units = {}
    for stem in LAYER_METRICS.values():
        units[stem] = "s"
        units[stem + ".share"] = "1"
    for name in COUNT_METRICS:
        units[name] = "B" if "bytes" in name else "count"
    units.update({
        "chemistry.implicit.accept_ratio": "1",
        "chemistry.implicit.jacobian_reuse_ratio": "1",
        "parallel.chemlb.ship_ratio": "1",
        "parallel.chemlb.rank_imbalance": "1",
        "trace.coverage": "1",
        "trace.overhead": "1",
        "parallel.inprocess_step_s": "s",
        "parallel.workers_step_s": "s",
        "parallel.speedup": "1",
    })
    return units


def clear_repro_env() -> list:
    """Drop every REPRO_* switch (workers inherit the cleaned environment)."""
    names = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for name in names:
        del os.environ[name]
    return names


#: the probe's arrays, made once per process
_PROBE_ARRAYS: list = []


def _page_aligned(shape, offset: int):
    """A float64 array starting ``offset`` items past a page boundary, so
    that the probe's memory layout is the same in every process."""
    import numpy as np

    n = int(np.prod(shape))
    raw = np.empty(n + 1024, dtype=np.float64)
    start = (-raw.ctypes.data % 4096) // 8 + offset
    return raw[start:start + n].reshape(shape)


def probe() -> float:
    """Wall seconds of a fixed reference kernel, the same kind of work as
    a solver step (ufuncs, a reduction and a select over a species x grid
    array, and an interpreter loop), about 2 ms. It calls nothing from the
    program, and it allocates nothing, its arrays sitting at fixed offsets
    from page boundaries (with temporaries wherever the allocator put them,
    its time moved by up to 1.7x from process to process), so only the
    host's speed moves it."""
    import numpy as np

    if not _PROBE_ARRAYS:
        rng = np.random.default_rng(12345)
        a, b, c = (_page_aligned((9, 72, 48), 8 * k) for k in range(3))
        a[...] = rng.random(a.shape)
        b[...] = rng.random(b.shape)
        _PROBE_ARRAYS.extend([a, b, c, _page_aligned((72, 48), 24),
                              _page_aligned((72, 48), 32)])
    a, b, c, s, d = _PROBE_ARRAYS
    t = time.perf_counter()
    for _ in range(20):
        np.negative(a, out=c)
        np.exp(c, out=c)
        np.multiply(c, b, out=c)
        np.add(c, a, out=c)
        np.sum(c, axis=0, out=s)
        np.negative(s, out=d)
        np.copyto(d, s, where=s > 4.0)
        x = 0
        for i in range(200):
            x += i * i
    return time.perf_counter() - t


class Episode:
    """One solver built, warmed up, stepped and checked."""

    def __init__(self, kind: str):
        self.kind = kind  # "plain", "traced" or "workers" (untraced)
        self.setup_s = None
        self.step_s: list = []
        self.probe_s: list = []  # before the set-up and before each step
        self.attempted = 0
        self.problems: list = []
        self.log = None
        self.counts: dict = {}
        self.rank_seconds = None
        self.worker_ranks = 0
        self.u = None
        self.summary = None
        self.raw_y = None
        self.settings = None

    @property
    def failed(self) -> int:
        return self.attempted if self.problems else 0


def run_episode(workload, input_seed: int, reference, kind: str) -> Episode:
    """Build, warm up, step and check one solver. ``reference`` holds the
    stored summary and counts (None only when recording them)."""
    from repro.analysis.golden import summarize_solver
    from repro.parallel.chemlb import TAG_SHIP

    from perfbench import checks, spans
    from perfbench.workloads import SUMMARY_SPECIES

    ep = Episode(kind)
    runner = None
    gc.collect()
    try:
        ep.attempted += 1  # the warm-up step, counted before the build
        ep.probe_s.append(probe())
        t0 = time.perf_counter()
        runner = workload.build(input_seed, workers=kind != "plain")
        runner.step()  # warm-up: caches, workspaces, worker imports
        ep.setup_s = time.perf_counter() - t0
        ep.settings = runner.settings()
        world = runner.world
        if world is not None and world.name == "multiprocessing":
            ep.worker_ranks = world.size
        chemlb = getattr(runner.solver, "chemlb", None)
        msgs0 = len(world.log.records) if world else 0
        rs0 = chemlb.rank_seconds.copy() if chemlb is not None else None
        log = spans.SpanLog() if kind == "traced" else None
        with spans.instrument(log, world) if log else nullcontext():
            for _ in range(workload.steps):
                ep.attempted += 1
                ep.probe_s.append(probe())
                t = time.perf_counter()
                if log is None:
                    runner.step()
                else:
                    sid = log.open(spans.STEP)
                    try:
                        runner.step()
                    finally:
                        log.close(sid)
                ep.step_s.append(time.perf_counter() - t)
        state = runner.solver.state
        ep.u = state.u.copy()
        ep.problems += checks.check_state(ep.u, state)
        ep.raw_y = checks.raw_mass_fraction_bounds(ep.u, state)
        ep.summary = summarize_solver(runner.solver, SUMMARY_SPECIES)
        if reference is not None:
            ep.problems += checks.compare_summary(ep.summary,
                                                  reference["summary"])
            ep.problems += checks.compare_summary(
                ep.raw_y, reference["raw_y_bounds"], "raw_y_bounds")
        if rs0 is not None:
            ep.rank_seconds = chemlb.rank_seconds - rs0
        if log is not None:
            ep.log = log
            # chemlb shipments share the message log under tags >= TAG_SHIP
            halo = [r for r in (world.log.records[msgs0:] if world else ())
                    if r.tag < TAG_SHIP]
            c = log.counts
            ep.counts = {
                "rhs_evals": c["core.rhs.flux"],
                "derivative_sweeps": c["core.derivatives.sweep"],
                "newton_calls": c["chemistry.thermo.newton"],
                "implicit_substeps": c["implicit.substeps"],
                "implicit_rejected": c["implicit.rejected"],
                "implicit_factorizations": c["implicit.factorizations"],
                "implicit_jacobian_reuses": c["implicit.jacobian_reuses"],
                "halo_messages": len(halo),
                "halo_bytes": sum(r.nbytes for r in halo),
                "shm_payload_bytes": c["shm.payload_bytes"],
                "chemlb_cells_shipped": c["chemlb.cells_shipped"],
                "chemlb_cells_evaluated": c["chemlb.cells_evaluated"],
            }
            if reference is not None:
                ep.problems += checks.compare_counts(ep.counts,
                                                     reference["counts"])
    except Exception:  # a failed episode is counted, never skipped
        ep.problems.append(traceback.format_exc(limit=4).strip())
    finally:
        if runner is not None:
            runner.close()
    return ep


def schedule(workload, trace: bool) -> list:
    """The cycle of episode kinds a run repeats."""
    if not trace:
        return ["plain"]
    if workload.name == "stripe_2rank":
        return ["plain", "traced", "workers"]
    return ["plain", "traced"]


def measure(workload, input_seed: int, reference: dict, seconds: float,
            trace: bool, min_samples: int = MIN_SAMPLES) -> list:
    from perfbench import checks

    cycle = schedule(workload, trace)
    start = time.perf_counter()
    episodes: list = []
    while True:
        done = {kind: run_episode(workload, input_seed, reference, kind)
                for kind in cycle}
        episodes += done.values()
        # ranks in worker processes must agree with the in-process run
        if "workers" in done and done["plain"].u is not None:
            traced = done["traced"]
            if traced.u is None:
                traced.problems.append("traced worker run produced no state")
            else:
                traced.problems += checks.check_twin(traced.u, done["plain"].u)
        elapsed = time.perf_counter() - start
        samples = sum(len(e.step_s) for e in episodes if e.kind == "plain")
        # with no timed step at all by then, more episodes will not help
        if elapsed >= HARD_STOP_S or (elapsed >= seconds and (
                trace or samples >= min_samples or not samples)):
            return episodes


class NoSamples(RuntimeError):
    """No episode delivered the timed steps a metric needs."""


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def at_reference_speed(seconds: float, episode) -> float:
    """``seconds`` measured in ``episode``, at the probe's reference speed."""
    return seconds * PROBE_REF_S / statistics.median(episode.probe_s)


def step_seconds(episodes) -> float:
    """Seconds per step at the reference host speed: the median over the
    episodes of the episode's mean step time.

    Every episode replays the same steps, whose costs differ from step to
    step (the Strang jet's chemistry stiffens and relaxes), so a median
    over single steps would fall between cost clusters; an episode's mean
    holds every step once.
    """
    means = [at_reference_speed(statistics.fmean(e.step_s), e)
             for e in episodes if e.step_s]
    if not means:
        raise NoSamples("no episode completed a timed step")
    return statistics.median(means)


def peak_rss_mib(ranks: int) -> float:
    """Driver peak RSS plus ``ranks`` x the largest worker peak (workers
    are joined when their solver closes, so RUSAGE_CHILDREN holds them)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + ranks * child) / 1024.0


def end_to_end(workload, episodes) -> dict:
    """The user-facing metrics of the untraced episodes."""
    plain = [e for e in episodes if e.kind == "plain"]
    step_s = step_seconds(plain)
    setups = [at_reference_speed(e.setup_s, e) for e in plain
              if e.setup_s is not None]
    values = {
        "step_s": step_s,
        "ns_per_point_step": step_s / workload.points * 1e9,
        "setup_s": statistics.median(setups),
        "peak_rss_mib": peak_rss_mib(max(e.worker_ranks for e in plain)),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(episodes) -> dict:
    """Self time, shares, counts and ratios of the traced episodes."""
    traced = [e for e in episodes if e.kind == "traced" and e.log is not None]
    plain = [e for e in episodes if e.kind == "plain"]
    workers = [e for e in episodes if e.kind == "workers"]
    nsteps = sum(len(e.step_s) for e in traced)
    if not nsteps:
        raise NoSamples("no traced episode completed a timed step")
    self_s: dict = {}
    for e in traced:
        for name, s in e.log.self_times().items():
            self_s[name] = self_s.get(name, 0.0) + s
    step_total = sum(e.log.total("step") for e in traced) or 1.0
    v = {}
    for name, stem in LAYER_METRICS.items():
        v[stem] = self_s.get(name, 0.0) / nsteps
        v[stem + ".share"] = self_s.get(name, 0.0) / step_total
    counts: dict = {}
    for e in traced:
        for k, n in e.counts.items():
            counts[k] = counts.get(k, 0) + n
    for metric, key in COUNT_METRICS.items():
        v[metric] = counts.get(key, 0) / nsteps

    def ratio(a, b):
        return a / b if b else 0.0

    sub = counts.get("implicit_substeps", 0)
    v["chemistry.implicit.accept_ratio"] = ratio(
        sub, sub + counts.get("implicit_rejected", 0))
    v["chemistry.implicit.jacobian_reuse_ratio"] = ratio(
        counts.get("implicit_jacobian_reuses", 0), sub)
    v["parallel.chemlb.ship_ratio"] = ratio(
        counts.get("chemlb_cells_shipped", 0),
        counts.get("chemlb_cells_evaluated", 0))
    imbalance = [float(e.rank_seconds.max() / e.rank_seconds.mean())
                 for e in traced
                 if e.rank_seconds is not None and e.rank_seconds.mean() > 0]
    v["parallel.chemlb.rank_imbalance"] = _median(imbalance)
    v["trace.coverage"] = 1.0 - self_s.get("step", 0.0) / step_total
    # overhead against untraced episodes of the traced episodes' kind
    v["trace.overhead"] = ratio(step_seconds(traced),
                                step_seconds(workers or plain)) - 1.0
    v["parallel.inprocess_step_s"] = step_seconds(plain) if workers else 0.0
    v["parallel.workers_step_s"] = step_seconds(workers) if workers else 0.0
    v["parallel.speedup"] = ratio(v["parallel.inprocess_step_s"],
                                  v["parallel.workers_step_s"])
    units = per_layer_units()
    return {k: {"value": v[k], "unit": units[k]} for k in units}


def stop_children() -> None:
    """Stop every process the run started and wait for each to end.

    Worker pools still open are closed (as the transport's own exit hook
    would), any other multiprocessing child is terminated and joined, and
    the resource tracker that spawning workers and shared memory start is
    stopped: left alone it outlives the run until it notices the exit.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    shm = sys.modules.get("repro.parallel.shm")
    if shm is not None:
        shm._close_live_transports()
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()  # closes its pipe, waits


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(parser, args)
    finally:
        stop_children()


def run(parser, args) -> int:
    """One benchmark run; the result line is the last line printed."""
    cleared = clear_repro_env()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    import repro  # noqa: F401  (fails here, loudly, without the program)

    from perfbench import checks
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    input_seed = args.seed % workload.variants
    reference = checks.load_references()[workload.name][str(input_seed)]
    run_id = (f"{workload.name}-seed{args.seed}-trace{args.trace}-"
              f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")

    episodes = measure(workload, input_seed, reference, args.seconds,
                       bool(args.trace))
    attempted = sum(e.attempted for e in episodes)
    failed = sum(e.failed for e in episodes)
    problems = [p for e in episodes for p in e.problems]
    try:
        metrics = (per_layer(episodes) if args.trace
                   else end_to_end(workload, episodes))
    except NoSamples as exc:  # nothing to report: never a 0.0 reading
        for p in problems + [str(exc)]:
            print(f"FAILED CHECK: {p}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1
    record = {
        "run_id": run_id,
        "workload": workload.name,
        "why": workload.why,
        "trace": args.trace,
        "provenance": checks.provenance(ROOT, args.seed, input_seed, cleared),
        "settings": next((e.settings for e in episodes if e.settings), None),
        "episodes": [{"kind": e.kind, "setup_s": e.setup_s,
                      "step_s": e.step_s, "probe_s": e.probe_s,
                      "attempted": e.attempted,
                      "failed": e.failed, "counts": e.counts,
                      "raw_y_bounds": e.raw_y}
                     for e in episodes],
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{run_id}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    traced = [e for e in episodes if e.log is not None]
    if traced:
        with open(RESULTS / f"{run_id}.spans.json", "w") as fh:
            json.dump([r for i, e in enumerate(traced)
                       for r in e.log.records(workload.name, f"{run_id}/{i}")],
                      fh)

    for p in problems:
        print(f"FAILED CHECK: {p}", file=sys.stderr)
    print(f"# {workload.name} seed={args.seed} input={input_seed} "
          f"trace={args.trace} episodes={len(episodes)} "
          f"provenance={json.dumps(record['provenance'])}")
    print(f"# settings={json.dumps(record['settings'])}")
    plain = [e for e in episodes if e.kind == "plain"]
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    steps = [t for e in plain for t in e.step_s]
    if not args.trace and len(steps) >= 2:
        wall = {
            "wall step_s median of single steps": statistics.median(steps),
            "wall step_s p90 of single steps":
                statistics.quantiles(steps, n=10)[-1],
            "wall setup_s median": statistics.median(
                e.setup_s for e in plain if e.setup_s is not None),
            "probe_s median": statistics.median(
                p for e in plain for p in e.probe_s),
        }
        for name, value in wall.items():
            print(f"{name:48s} {value:.6g} s")
    print(f"{'samples':48s} {len(plain)} episodes, {len(steps)} steps")
    print(f"{'fail_frac':48s} {failed / max(attempted, 1):.6g} 1")
    print(json.dumps({"correct": not problems and failed == 0,
                      "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
