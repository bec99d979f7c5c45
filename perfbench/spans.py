"""Benchmark-side tracing: one span around each layer's public entry point.

The program under test carries no benchmark code. A traced episode
patches the public entry point of every layer module in :data:`LAYERS`
with a wrapper that records a span (name, start, end, parent) into an
in-memory :class:`SpanLog`, and restores the originals afterwards, so
untraced episodes in the same process run the unmodified program.

Self time follows the paper's §4 exclusive-time profile (TAU): a span's
duration minus the part of it covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

#: the root span: one solver step as the benchmark's driver calls it
STEP = "step"

#: span name -> (module, class or None for a module function, attribute)
LAYERS = {
    "chemistry.thermo.newton": ("repro.backend", "ArrayBackend", "temperature_from_energy"),
    "chemistry.thermo.enthalpy": ("repro.backend", "ArrayBackend", "species_enthalpy_mass"),
    "core.state.decode": ("repro.core.state", "State", "primitives_ws"),
    "chemistry.kinetics.rates": ("repro.backend", "ArrayBackend", "production_rates"),
    "transport.props": ("repro.backend", "ArrayBackend", "transport_evaluate"),
    "core.derivatives.sweep": ("repro.core.derivatives", "DerivativeOperator", "apply_stack"),
    "core.nscbc.bc": ("repro.core.nscbc", None, "apply_boundary_conditions"),
    "core.rhs.flux": ("repro.core.rhs", "CompressibleRHS", "__call__"),
    "core.rhs.stable_dt": ("repro.core.rhs", "CompressibleRHS", "stable_dt"),
    "core.erk.update": ("repro.core.erk", "ERKIntegrator", "step"),
    "core.filters.filter": ("repro.core.filters", "FilterOperator", "apply"),
    "chemistry.implicit.advance": ("repro.chemistry.implicit", "ImplicitChemistry", "advance_energy"),
    "parallel.halo.exchange": ("repro.parallel.halo", "HaloExchanger", "exchange"),
    "parallel.chemlb.rates": ("repro.parallel.chemlb", "ChemistryLoadBalancer", "production_rates"),
}

#: the driver's wait in ``Transport.call_all`` (rank compute plus IPC),
#: wrapped on the world instance because each transport overrides it
CALL_ALL = "parallel.shm.call_all"


def _array_bytes(obj) -> int:
    """Bytes of every ndarray in a (nested) call payload or result."""
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(x) for x in obj)
    return 0


class SpanLog:
    """In-memory span and count recorder for one traced run."""

    def __init__(self):
        #: one [name, start, end, parent index or -1] row per span
        self.spans: list = []
        #: work counts recorded at the same boundaries as the spans
        self.counts: Counter = Counter()
        self._stack: list = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recording a span per call; ``observe(log, args, result)``
        adds counts taken from the call's arguments and result."""
        log = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = log.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                log.close(sid)
            log.counts[name] += 1
            if observe is not None:
                observe(log, args, result)
            return result

        return traced

    def self_times(self) -> dict:
        """Exclusive seconds per span name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - covered[i]
        return dict(out)

    def total(self, name: str) -> float:
        """Inclusive seconds of every span called ``name``."""
        return sum(e - s for n, s, e, _ in self.spans if n == name)

    def records(self, workload: str, run_id: str) -> list:
        return [
            {"id": i, "name": n, "start": s, "end": e, "parent": p,
             "workload": workload, "run_id": run_id}
            for i, (n, s, e, p) in enumerate(self.spans)
        ]


def _observe_implicit(log, args, result):
    stats = result[2]
    log.counts["implicit.substeps"] += stats.total_substeps
    log.counts["implicit.rejected"] += int(stats.rejected)
    log.counts["implicit.factorizations"] += int(stats.factorizations)
    log.counts["implicit.jacobian_reuses"] += int(stats.jacobian_reuses)


def _observe_call_all(log, args, result):
    payloads = args[1] if len(args) > 1 else None
    log.counts["shm.payload_bytes"] += _array_bytes(payloads) + _array_bytes(result)


def _observe_chemlb(log, args, result):
    balancer, prims = args[0], args[1]
    log.counts["chemlb.cells_shipped"] += balancer.last_plan.cells_shipped
    log.counts["chemlb.cells_evaluated"] += sum(int(np.size(T)) for _, T, _ in prims)


_OBSERVERS = {
    "chemistry.implicit.advance": _observe_implicit,
    "parallel.chemlb.rates": _observe_chemlb,
}


@contextmanager
def instrument(log: SpanLog, world=None):
    """Wrap every layer entry point (and ``world.call_all``) for the
    duration of the block; the originals are restored on exit."""
    patched = []
    try:
        for name, (modname, clsname, attr) in LAYERS.items():
            owner = importlib.import_module(modname)
            if clsname is not None:
                owner = getattr(owner, clsname)
            original = owner.__dict__[attr]
            setattr(owner, attr, log.wrap(name, original, _OBSERVERS.get(name)))
            patched.append((owner, attr, original))
        if world is not None:
            world.call_all = log.wrap(CALL_ALL, world.call_all, _observe_call_all)
        yield log
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
        if world is not None and "call_all" in vars(world):
            del world.call_all
