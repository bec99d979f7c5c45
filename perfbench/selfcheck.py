"""Quick self-check of the benchmark on tiny grids (about a minute).

Run from the repository root::

    python3 perfbench/selfcheck.py

Checks that every metric ``BENCHMARK.json`` names is emitted, with its
unit, by an untraced and a traced run of every workload; that a clean
tiny run passes its output check; that a corrupted final state, a
deeper mass-fraction undershoot, a moved summary, a count drift and a
worker/in-process mismatch each trip the check; that a solver that
fails to build fails its episode and leaves no metric to report; and
that no process the runs started outlives them.
Exits non-zero on the first failed expectation.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys

import numpy as np

from run import (ROOT, NoSamples, clear_repro_env, end_to_end, measure,
                 per_layer, run_episode, stop_children)

#: tiny versions of the workloads: same physics and code paths
TINY = {"jet_explicit": (24, 16), "jet_strang": (24, 16), "stripe_2rank": (24, 24)}


def expect(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"selfcheck FAILED: {what}")
    print(f"ok  {what}")


def check_emitted(metrics: dict, declared: list, what: str) -> None:
    units = {m["name"]: m["unit"] for m in declared}
    expect(set(metrics) == set(units), f"{what}: emits exactly the declared metrics")
    expect(all(metrics[k]["unit"] == u for k, u in units.items()),
           f"{what}: every metric carries its declared unit")
    expect(all(isinstance(m["value"], float) and math.isfinite(m["value"])
               for m in metrics.values()), f"{what}: every value is a finite number")


def main() -> None:
    clear_repro_env()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from make_references import record
    from perfbench import checks
    from perfbench.workloads import WORKLOADS, Workload

    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    expect([w["name"] for w in bench["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json lists the benchmark's workloads")

    for name, shape in TINY.items():
        tiny = dataclasses.replace(WORKLOADS[name], shape=shape, steps=2,
                                   variants=1)
        ref = record([tiny])[name]["0"]
        plain = measure(tiny, 0, ref, seconds=0.0, trace=False, min_samples=1)
        expect(not any(e.problems for e in plain), f"{name}: clean run passes")
        check_emitted(end_to_end(tiny, plain), bench["end_to_end"], f"{name} trace 0")
        traced = measure(tiny, 0, ref, seconds=0.0, trace=True)
        expect(not any(e.problems for e in traced),
               f"{name}: traced run passes (counts, in-process agreement)")
        check_emitted(per_layer(traced), bench["per_layer"], f"{name} trace 1")

        # corrupt the final state of the clean run (``runner`` gives the layout)
        runner = tiny.build(0)
        state = runner.solver.state
        runner.close()
        u = plain[0].u
        expect(not checks.check_state(u, state), f"{name}: final state passes")
        bad = u.copy()
        bad[state.i_energy].flat[7] = np.nan
        expect(bool(checks.check_state(bad, state)), f"{name}: NaN trips the check")
        bad = u.copy()
        bad[state.species_slice.start].flat[7] = 2.0 * u[state.i_rho].flat[7]
        expect(bool(checks.check_state(bad, state)),
               f"{name}: mass fractions summing past 1 trip the check")
        # deepen the leanest transported fraction by 1e-3, moving that mass
        # to the richest species of its cell: the raw sum holds and the
        # decode clips the undershoot away
        bad = u.copy()
        rho_y = bad[state.species_slice]
        y = rho_y / bad[state.i_rho][None]
        lean = np.unravel_index(y.argmin(), y.shape)
        rich = (y[(slice(None),) + lean[1:]].argmax(),) + lean[1:]
        shift = 1e-3 * bad[state.i_rho][lean[1:]]
        rho_y[lean] -= shift
        rho_y[rich] += shift
        expect(not checks.check_state(bad, state) and bool(checks.compare_summary(
                   checks.raw_mass_fraction_bounds(bad, state), ref["raw_y_bounds"])),
               f"{name}: a deeper raw undershoot trips the check the decode passes")

        moved = json.loads(json.dumps(ref))
        moved["summary"]["T"]["mean"] *= 1.0 + 1e-7
        ep = run_episode(tiny, 0, moved, "plain")
        expect(ep.failed == ep.attempted > 0,
               f"{name}: a moved summary fails every step of the episode")
        drift = dict(ref["counts"], rhs_evals=ref["counts"]["rhs_evals"] + 1)
        expect(bool(checks.compare_counts(traced[1].counts, drift)),
               f"{name}: a count drift trips the check")
        expect(bool(checks.check_twin(u * (1.0 + 1e-9), u)),
               f"{name}: a 1e-9 worker/in-process mismatch trips the check")

    class Unbuildable(Workload):
        def build(self, input_seed, workers=False):
            raise RuntimeError("solver failed to build")

    broken = Unbuildable(**vars(WORKLOADS["jet_explicit"]))
    ep = run_episode(broken, 0, None, "plain")
    expect(ep.failed == ep.attempted == 1 and bool(ep.problems),
           "a solver that fails to build fails its episode")
    try:
        end_to_end(broken, [ep])
        refused = False
    except NoSamples:
        refused = True
    expect(refused, "a run without a timed step reports no metric")

    import multiprocessing
    from multiprocessing import resource_tracker
    stop_children()
    expect(not multiprocessing.active_children()
           and resource_tracker._resource_tracker._pid is None,
           "no worker or resource tracker outlives the runs")
    print("selfcheck passed")


if __name__ == "__main__":
    main()
