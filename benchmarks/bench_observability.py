"""Observability overhead benchmark + regression gate.

Measures the per-step cost of the health observatory on a 1-D acoustic
pulse (the cheapest stepping loop in the repo, i.e. the *worst* case
for relative overhead) at each mode:

* ``off``  — ``solver.run()`` with the null monitor (one truthiness
  check of ``health.enabled`` per step),
* ``on``   — NaN/CFL/bounds/wall-time watchdogs every step,
* ``full`` — adds the conservation watchdog, per-stage NaN guard,
  and telemetry-delta recording.

The null path's machinery is additionally measured in *absolute* terms
(stub-step timing loop, see :func:`measure_null_overhead_ns`) because
whole-step wall-clock ratios cannot resolve a tens-of-nanoseconds
branch against millisecond steps on a noisy machine.

The committed gate enforces the design contract of the null path:

* the ``off`` machinery costs < 1 % of a real step, and
* the final state under ``full`` is bitwise identical to ``off`` —
  watchdogs observe, they never perturb.

A second section measures *distributed tracing* on a production-shaped
step — a 2-D reacting H2 lifted-jet stripe on a 32x32 box — where the
contract is:

* tracing off leaves the step on the null-telemetry path (gated by the
  null-path ceiling above, which tracing must not regress), and
* tracing on (every kernel span becoming a timeline TraceEvent) costs
  < 5 % of the reacting step, and leaves the solution bitwise
  identical.

Results land in ``BENCH_observability.json``.

Usage::

    python benchmarks/bench_observability.py                 # measure, write JSON
    python benchmarks/bench_observability.py --quick         # fewer steps/repeats
    python benchmarks/bench_observability.py --check-regression [--baseline PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.chemistry.mechanisms import air  # noqa: E402
from repro.core import Grid, S3DSolver, SolverConfig, ic  # noqa: E402
from repro.core.config import periodic_boundaries  # noqa: E402
from repro.util.constants import P_ATM  # noqa: E402

#: default location of the committed baseline / output
DEFAULT_JSON = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_observability.json"
)

#: acceptance ceiling: the null path may cost at most this much
OVERHEAD_CEILING = 0.01

#: acceptance ceiling: full trace-event recording on the reacting case
TRACING_OVERHEAD_CEILING = 0.05

MODES = ("off", "on", "full")


def build(observability=None):
    mech = air()
    grid = Grid((64,), (1.0,), periodic=(True,))
    y = np.zeros(mech.n_species)
    y[mech.index("O2")] = 0.233
    y[mech.index("N2")] = 0.767
    state = ic.pressure_pulse(mech, grid, p0=P_ATM, T0=300.0, Y=y,
                              amplitude=1e-3, width=0.05)
    cfg = SolverConfig(boundaries=periodic_boundaries(1), dt=5e-8,
                       filter_interval=2, filter_alpha=0.2,
                       observability=observability)
    return S3DSolver(state, cfg, transport=None, reacting=False)


#: steps run on every solver before any timing (first steps pay lazy
#: allocations and Newton warm-start; they are not per-step cost)
WARMUP_STEPS = 20


def measure_null_overhead_ns(iters=200_000, repeats=9):
    """Absolute per-step cost of ``run()``'s null-path machinery, in ns.

    Wall-clock *ratios* of full solver steps cannot resolve the
    quantity under test: the null path's branch costs tens of
    nanoseconds against a millisecond step, while scheduler noise and
    per-object allocation variance move whole-step timings by many
    percent. So the loop machinery is measured directly — the solver's
    ``step`` is replaced with a counter stub and ``run()`` is timed
    against the equivalent bare loop over enough iterations that the
    ~100 ns/iteration signal dominates. The min over repeats discards
    scheduler noise (which only ever adds time).
    """
    s = build(observability="off")

    def stub_step(dt=None):
        s.step_count += 1
        return 5e-8

    s.step = stub_step
    best_bare = best_run = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(iters):
            s.step()
        best_bare = min(best_bare, (time.perf_counter() - t0) / iters)
        t0 = time.perf_counter()
        s.run(iters)
        best_run = min(best_run, (time.perf_counter() - t0) / iters)
    return max(best_run - best_bare, 0.0) * 1e9


#: grid edge of the reacting tracing case
TRACING_N = 32


def build_reacting(tracing=None, n=TRACING_N):
    """2-D reacting H2 case for the tracing measurement: the golden
    lifted-jet stripe (fuel band in hot coflow with an igniting hot
    spot) on an ``n`` x ``n`` periodic box, serial solver."""
    from repro.chemistry import h2_li2004
    from repro.core.state import State
    from repro.scenarios import H2_LEWIS, fuel_and_coflow
    from repro.transport import ConstantLewisTransport

    mech = h2_li2004()
    y_fuel, y_air = fuel_and_coflow(mech)
    grid = Grid((n, n), (2.0e-3, 2.0e-3), periodic=(True, True))
    xx, yy = grid.meshgrid()
    stripe = 0.5 * (np.tanh((yy - 0.6e-3) / 1.5e-4)
                    - np.tanh((yy - 1.4e-3) / 1.5e-4))
    Y = (y_fuel[:, None, None] * stripe[None]
         + y_air[:, None, None] * (1.0 - stripe[None]))
    spot = np.exp(-((xx - 0.5e-3) ** 2 + (yy - 0.6e-3) ** 2)
                  / (2 * (2.0e-4) ** 2))
    T = 400.0 * stripe + 1300.0 * (1.0 - stripe) + 500.0 * spot
    rho = mech.density(P_ATM, T, Y)
    state = State.from_primitive(mech, grid, rho, [0.0, 0.0], T, Y)
    transport = ConstantLewisTransport(mech, lewis=H2_LEWIS, mu_ref=1.8e-5,
                                       t_ref=300.0, exponent=0.7)
    cfg = SolverConfig(boundaries=periodic_boundaries(2), dt=2e-8,
                       tracing=tracing)
    return S3DSolver(state, cfg, transport=transport, reacting=True)


def measure_span_ns(tracing, iters=100_000, repeats=7):
    """Absolute cost of one telemetry span, in ns, with or without
    trace-event recording. Same rationale as
    :func:`measure_null_overhead_ns`: the per-span cost is microseconds
    against a tens-of-milliseconds reacting step, far below what
    whole-step wall-clock ratios can resolve on a shared machine, so
    the span path is timed directly and the min over repeats discards
    scheduler noise."""
    from repro.telemetry import Telemetry

    tel = Telemetry(tracing=tracing)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(iters):
            with tel.span("K"):
                pass
        best = min(best, (time.perf_counter() - t0) / iters)
        if tracing:
            tel.tracelog.reset()
    return best * 1e9


def time_tracing(steps, repeats):
    """The tracing section: per-span trace cost scaled by the reacting
    case's measured span rate, against its tracing-off step time.

    ``overhead_fraction`` — the gated quantity — is
    ``events_per_step * span cost / step seconds``: the precisely
    measured marginal cost of turning every kernel span into a timeline
    TraceEvent, as a fraction of the production-shaped step it rides
    on. Whole-step wall clocks for both flags are reported
    informationally, and the bitwise identity of the two solutions is
    checked on the same runs."""
    solvers = {flag: build_reacting(tracing=flag) for flag in (False, True)}
    for s in solvers.values():
        for _ in range(3):
            s.step()
    best = {flag: float("inf") for flag in solvers}
    for _ in range(repeats):
        for flag, s in solvers.items():
            t0 = time.perf_counter()
            s.run(steps)
            best[flag] = min(best[flag], (time.perf_counter() - t0) / steps)
    on = solvers[True]
    events_per_step = len(on.telemetry.tracelog.events) / float(on.step_count)
    bitwise = bool(np.array_equal(solvers[False].state.u, on.state.u))
    span_on_ns = measure_span_ns(True)
    span_off_ns = measure_span_ns(False)
    return {
        "case": f"2-D reacting H2 lifted-jet stripe, {TRACING_N}x"
                f"{TRACING_N}, serial, {steps}-step blocks x {repeats} "
                f"rounds (min), 3 warmup steps",
        "off_step_seconds": best[False],
        "on_step_seconds": best[True],
        "span_ns_traced": span_on_ns,
        "span_ns_untraced": span_off_ns,
        "events_per_step": events_per_step,
        # the gated quantity: measured trace-recording cost per step
        # against the real tracing-off step time
        "overhead_fraction": events_per_step * span_on_ns * 1e-9
        / best[False],
        "bitwise_identical_off_vs_on": bitwise,
        "overhead_ceiling_on": TRACING_OVERHEAD_CEILING,
    }


def time_modes(steps, repeats):
    """Best (min over rounds) whole-step seconds per mode, round-robin
    on pre-warmed solvers. Informational: the on/full numbers are real
    watchdog work on the cheapest step in the repo (1-D, 64 cells,
    non-reacting); on a production-shaped reacting step the same
    absolute cost is lost in the noise.
    """
    solvers = {m: build(observability=m) for m in MODES}
    for s in solvers.values():
        for _ in range(WARMUP_STEPS):
            s.step()
    best = {m: float("inf") for m in MODES}
    for _ in range(repeats):
        for m, s in solvers.items():
            t0 = time.perf_counter()
            s.run(steps)
            best[m] = min(best[m], (time.perf_counter() - t0) / steps)
    return best


def bitwise_check(steps):
    a = build(observability="off")
    b = build(observability="full")
    a.run(steps)
    b.run(steps)
    return bool(np.array_equal(a.state.u, b.state.u))


def run(steps, repeats, tracing_steps, tracing_repeats):
    null_ns = measure_null_overhead_ns()
    best = time_modes(steps, repeats)
    base = best["off"]
    report = {
        "case": "1-D acoustic pulse, 64 cells, non-reacting air, "
                f"{steps}-step blocks x {repeats} rounds (min), "
                f"{WARMUP_STEPS} warmup steps",
        "steps": steps,
        "repeats": repeats,
        "null_path_overhead_ns_per_step": null_ns,
        "off_step_seconds": base,
        # the gated quantity: precisely-measured loop machinery cost
        # against the real (cheapest-in-repo) step time
        "null_path_overhead_fraction": null_ns * 1e-9 / base,
        "modes": {},
        "bitwise_identical_off_vs_full": bitwise_check(min(steps, 50)),
        "overhead_ceiling_off": OVERHEAD_CEILING,
    }
    for m in MODES:
        report["modes"][m] = {
            "step_seconds": best[m],
            "overhead_vs_off": best[m] / base - 1.0,
        }
    report["tracing"] = time_tracing(tracing_steps, tracing_repeats)
    return report


def check_regression(report, baseline_path):
    failures = []
    off = report["null_path_overhead_fraction"]
    if off >= OVERHEAD_CEILING:
        failures.append(
            f"null-path overhead {off:.3%} over the "
            f"{OVERHEAD_CEILING:.0%} ceiling"
        )
    if not report["bitwise_identical_off_vs_full"]:
        failures.append("full mode perturbed the solution (bitwise check)")
    tr = report["tracing"]
    if tr["overhead_fraction"] >= TRACING_OVERHEAD_CEILING:
        failures.append(
            f"tracing overhead {tr['overhead_fraction']:.3%} over the "
            f"{TRACING_OVERHEAD_CEILING:.0%} ceiling on the reacting case"
        )
    if not tr["bitwise_identical_off_vs_on"]:
        failures.append("tracing perturbed the solution (bitwise check)")
    if tr["events_per_step"] <= 0:
        failures.append("tracing-on recorded no trace events")
    if os.path.exists(baseline_path):
        with open(baseline_path) as fh:
            base = json.load(fh)
        committed = base["null_path_overhead_fraction"]
        if committed >= OVERHEAD_CEILING:
            failures.append(
                f"committed baseline null-path overhead {committed:.3%} "
                f"over the ceiling"
            )
        committed_tr = base.get("tracing")
        if committed_tr is None:
            failures.append("committed baseline has no tracing section")
        elif committed_tr["overhead_fraction"] >= TRACING_OVERHEAD_CEILING:
            failures.append(
                f"committed baseline tracing overhead "
                f"{committed_tr['overhead_fraction']:.3%} over the ceiling"
            )
    else:
        failures.append(f"no committed baseline at {baseline_path}")
    for f in failures:
        print(f"REGRESSION: {f}")
    if not failures:
        print(
            f"observability gate OK: null path costs "
            f"{report['null_path_overhead_ns_per_step']:.0f} ns/step = "
            f"{off:.4%} of a step (ceiling {OVERHEAD_CEILING:.0%}), "
            f"full mode bitwise identical; tracing costs "
            f"{tr['overhead_fraction']:.2%} of a reacting step (ceiling "
            f"{TRACING_OVERHEAD_CEILING:.0%}, "
            f"{tr['events_per_step']:.0f} events/step), bitwise identical"
        )
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true", help="fewer steps/repeats")
    ap.add_argument("--check-regression", action="store_true")
    ap.add_argument("--baseline", default=DEFAULT_JSON)
    ap.add_argument("--output", default=DEFAULT_JSON)
    args = ap.parse_args()
    steps, repeats = (40, 6) if args.quick else (60, 20)
    tracing_steps, tracing_repeats = (8, 3) if args.quick else (15, 6)
    report = run(steps, repeats, tracing_steps, tracing_repeats)
    print(
        f"null-path machinery: "
        f"{report['null_path_overhead_ns_per_step']:.0f} ns/step "
        f"({report['null_path_overhead_fraction']:.4%} of a step)"
    )
    for m in MODES:
        res = report["modes"][m]
        print(
            f"{m:13s} {res['step_seconds'] * 1e3:8.3f} ms/step  "
            f"({res['overhead_vs_off']:+.2%} vs off)"
        )
    print(f"bitwise off==full: {report['bitwise_identical_off_vs_full']}")
    tr = report["tracing"]
    print(
        f"tracing (32x32 reacting): {tr['span_ns_traced']:.0f} ns/span "
        f"traced vs {tr['span_ns_untraced']:.0f} untraced, "
        f"{tr['events_per_step']:.0f} events/step on a "
        f"{tr['off_step_seconds'] * 1e3:.3f} ms step = "
        f"{tr['overhead_fraction']:.4%} of a step; "
        f"bitwise off==on: {tr['bitwise_identical_off_vs_on']}"
    )
    if args.check_regression:
        return check_regression(report, args.baseline)
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
