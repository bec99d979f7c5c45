"""Output checks, stored references and run provenance."""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import pathlib
import platform
import subprocess

import numpy as np

#: the golden tolerances (tests/test_golden.py): relative on every
#: scalar statistic, with a vanishing absolute floor for zeros
RTOL = 1e-9
ATOL_FLOOR = 1e-300

#: per-variable relative agreement required between the stripe's ranks
#: run in worker processes and run in-process
TWIN_RTOL = 1e-12

#: decoded mass fractions must sum to 1 within this
Y_SUM_TOL = 1e-9

REFERENCES = pathlib.Path(__file__).with_name("references.json")


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def compare_summary(got, want, path="summary") -> list:
    """Mismatches between two summaries, as messages (empty if equal)."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        return [m for k in sorted(want)
                for m in compare_summary(got[k], want[k], f"{path}/{k}")]
    if isinstance(want, float):
        if not abs(got - want) <= max(RTOL * abs(want), ATOL_FLOOR):
            return [f"{path}: {got!r} != reference {want!r}"]
        return []
    return [] if got == want else [f"{path}: {got!r} != reference {want!r}"]


def check_state(u, state) -> list:
    """Problems with a final conserved array ``u`` laid out like ``state``:
    non-finite values, non-positive density, or mass fractions — as the
    solver decodes them (:meth:`~repro.core.state.State.mass_fractions`)
    — outside [0, 1] or not summing to 1."""
    if not np.isfinite(u).all():
        return ["final state is not finite"]
    if not (u[state.i_rho] > 0).all():
        return ["final density is not positive"]
    Y = state.mass_fractions(u)
    if not ((Y >= 0.0) & (Y <= 1.0)).all():
        return ["mass fractions outside [0, 1]"]
    excess = np.abs(Y.sum(axis=0) - 1.0).max()
    if excess > Y_SUM_TOL:
        return [f"mass fractions sum to 1 only within {excess:.3e}"]
    return []


def raw_mass_fraction_bounds(u, state) -> dict:
    """Least and greatest undecoded mass fraction: the transported rho Y / rho
    and the last species' 1 - sum of them, before the solver's decode clips
    them to [0, 1]. The run's reference pins both."""
    y = u[state.species_slice] / u[state.i_rho][None]
    last = 1.0 - y.sum(axis=0)
    return {"min": float(min(y.min(), last.min())),
            "max": float(max(y.max(), last.max()))}


def check_twin(u, u_twin) -> list:
    """Per conserved variable, max |u - u_twin| <= TWIN_RTOL * max |u_twin|."""
    for k in range(u.shape[0]):
        scale = np.abs(u_twin[k]).max()
        if np.abs(u[k] - u_twin[k]).max() > TWIN_RTOL * scale:
            return [f"variable {k} differs from the in-process run "
                    f"by more than {TWIN_RTOL:g} relative"]
    return []


def compare_counts(got: dict, want: dict) -> list:
    """Work counts must repeat exactly: any drift means the work changed."""
    return [f"count {k}: {got.get(k)} != reference {want[k]}"
            for k in sorted(want) if got.get(k) != want[k]]


# -- provenance -----------------------------------------------------------
def _git(root, *args):
    try:
        out = subprocess.run(["git", "-C", str(root), *args], check=True,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def source_digest(src: pathlib.Path) -> str:
    """sha256 over every file under ``src`` (path and content; bytecode
    caches skipped), so a run in a checkout without git still names the
    code it measured."""
    h = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(root: pathlib.Path, seed: int, input_seed: int,
               cleared_env: list) -> dict:
    import numpy
    import scipy

    sha = _git(root, "rev-parse", "HEAD") if (root / ".git").exists() else None
    dirty = (bool(_git(root, "status", "--porcelain", "--untracked-files=no"))
             if sha else None)
    return {
        "cpu_count": len(os.sched_getaffinity(0)),
        "cpu_count_total": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "git_dirty": dirty,
        "src_sha256": source_digest(root / "src"),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "seed": seed,
        "input_seed": input_seed,
        "cleared_env": cleared_env,
    }
