"""Record ``references.json``: the output summary, raw mass-fraction range
and work counts of one traced episode for every workload and input.

Run from the repository root after an intentional change to the
numerics or to a workload definition, and say why in the commit::

    python3 perfbench/make_references.py

A change that should leave the solution unchanged must not need this.
"""

from __future__ import annotations

import json
import sys

from run import BENCH, ROOT, clear_repro_env, run_episode


def record(workloads) -> dict:
    refs = {}
    for w in workloads:
        refs[w.name] = {}
        for input_seed in range(w.variants):
            ep = run_episode(w, input_seed, None, "traced")
            if ep.problems:
                raise RuntimeError(f"{w.name}/{input_seed}: {ep.problems}")
            refs[w.name][str(input_seed)] = {
                "steps": w.steps, "summary": ep.summary, "counts": ep.counts,
                "raw_y_bounds": ep.raw_y,
            }
            print(f"{w.name} input {input_seed}: {ep.counts}")
    return refs


def main() -> None:
    clear_repro_env()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import WORKLOADS

    refs = record(WORKLOADS.values())
    with open(BENCH / "references.json", "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
