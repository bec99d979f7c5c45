"""Simulation health observatory: watchdogs, flight recorder, fusion.

The run-facing half of the paper's systems story. :mod:`repro.telemetry`
records primitives (spans, counters); this package is the layer that
*watches, correlates, and explains* a run while it happens or after it
dies:

* :mod:`~repro.observability.watchdogs` — pluggable health checks
  (NaN/Inf sentinel, CFL margin, physical bounds, conservation drift,
  wall-time anomaly) with ``ok``/``warn``/``trip`` severities; a trip
  raises a typed :class:`WatchdogTripError` instead of letting a
  diverged run burn its allocation silently.
* :mod:`~repro.observability.recorder` — the :class:`FlightRecorder`
  black box: a ring buffer of structured step records dumped as
  self-describing JSONL on crash, trip, or signal.
* :mod:`~repro.observability.monitor` — the :class:`HealthMonitor`
  orchestrating watchdogs + recorder at a configurable cadence inside
  the solver loops, with a zero-cost :data:`NULL_HEALTH` path matching
  the telemetry ``NullTelemetry`` convention.
* :mod:`~repro.observability.fusion` — cross-rank profile fusion: per
  rank ``Telemetry.snapshot()``s shipped over ``SimMPI`` and merged
  into Fig 2-style per-kernel min/median/max/imbalance tables and a
  Fig 3-style load-imbalance report.
* :mod:`~repro.observability.render` — the §9 in-situ view: ASCII
  dashboard with sparkline histories plus a static self-contained
  ``observatory.html`` report, both replayable offline from a flight
  recorder dump.
* :mod:`~repro.observability.timeline` — stitched distributed-tracing
  timelines: per-rank trace logs merged into one causally-ordered
  stream, exported as Chrome-trace/Perfetto JSON with cross-rank flow
  arrows, with critical-path and wall-time-breakdown analysis on top.
* :mod:`~repro.observability.endpoint` — the live metrics surface: a
  localhost HTTP endpoint serving the metrics registry in Prometheus
  text format plus the full telemetry snapshot, feeding the workflow
  dashboard.

Mode selection mirrors ``REPRO_TELEMETRY``: the environment variable
``REPRO_OBSERVABILITY`` (or ``SolverConfig.observability``) picks
``"off"`` (the null path — bitwise-identical solver results, one
attribute check per step), ``"on"`` (the standard watchdog set at
step cadence), or ``"full"`` (everything armed: conservation tracking
on periodic boxes, the RK stage guard, per-step telemetry deltas).
"""

from __future__ import annotations

import os

from repro.observability.watchdogs import (
    BoundsWatchdog,
    CFLMarginWatchdog,
    ConservationWatchdog,
    NaNSentinel,
    StepContext,
    WallTimeAnomalyWatchdog,
    Watchdog,
    WatchdogEvent,
    WatchdogTripError,
    SEVERITIES,
    worst_severity,
)
from repro.observability.recorder import FlightRecorder, StepRecord, SCHEMA_VERSION
from repro.observability.monitor import HealthMonitor, NullHealthMonitor, NULL_HEALTH
from repro.observability.fusion import (
    FusedKernelRow,
    FusedProfile,
    collect_snapshots,
    fuse_profiles,
    fuse_solver_profiles,
)
from repro.observability.render import (
    RunMonitor,
    html_report,
    replay_report,
    sparkline,
    write_html_report,
)
from repro.observability.timeline import (
    breakdown,
    critical_path,
    critical_path_report,
    export_chrome_trace,
    reconcile_chemistry,
    stitch,
    validate_chrome_trace,
)
from repro.observability.endpoint import (
    MetricsEndpoint,
    parse_prometheus_text,
    prometheus_text,
)

__all__ = [
    "Watchdog",
    "WatchdogEvent",
    "WatchdogTripError",
    "StepContext",
    "NaNSentinel",
    "CFLMarginWatchdog",
    "BoundsWatchdog",
    "ConservationWatchdog",
    "WallTimeAnomalyWatchdog",
    "SEVERITIES",
    "worst_severity",
    "FlightRecorder",
    "StepRecord",
    "SCHEMA_VERSION",
    "HealthMonitor",
    "NullHealthMonitor",
    "NULL_HEALTH",
    "FusedKernelRow",
    "FusedProfile",
    "collect_snapshots",
    "fuse_profiles",
    "fuse_solver_profiles",
    "RunMonitor",
    "sparkline",
    "html_report",
    "write_html_report",
    "replay_report",
    "stitch",
    "export_chrome_trace",
    "validate_chrome_trace",
    "breakdown",
    "critical_path",
    "critical_path_report",
    "reconcile_chemistry",
    "MetricsEndpoint",
    "prometheus_text",
    "parse_prometheus_text",
    "MODES",
    "resolve_mode",
    "standard_watchdogs",
    "for_solver",
]

#: recognized observability modes, least to most armed
MODES = ("off", "on", "full")

_ON = ("1", "on", "true", "yes", "basic")
_FULL = ("full", "all", "paranoid")


def resolve_mode(value=None) -> str:
    """Normalize a config/environment observability selector.

    ``None`` defers to ``REPRO_OBSERVABILITY``; booleans map to
    off/on; strings are matched case-insensitively. Unknown values
    raise so typos fail loudly rather than silently disarming.
    """
    if value is None:
        value = os.environ.get("REPRO_OBSERVABILITY", "")
    if value is True:
        return "on"
    if value is False:
        return "off"
    text = str(value).strip().lower()
    if text in ("", "0", "off", "none", "false", "no"):
        return "off"
    if text in _ON:
        return "on"
    if text in _FULL:
        return "full"
    raise ValueError(
        f"unknown observability mode {value!r}; choose from {MODES}"
    )


def standard_watchdogs(solver, mode: str = "on", clock=None) -> list:
    """The default watchdog set for a solver at the given mode.

    ``"on"`` arms the NaN sentinel, CFL margin, physical bounds, and
    wall-time anomaly detection. The CFL margin needs the RHS's stable
    time step estimate, so a solver driven by an explicit dt whose RHS
    has none (the rank-parallel solver) goes without it. ``"full"``
    additionally arms the conservation-drift tracker — but only on
    all-periodic grids, where the :mod:`tests.test_conservation`
    invariants actually hold (open boundaries flux mass and energy
    through the domain by design).
    """
    dogs = [NaNSentinel()]
    if hasattr(solver.rhs, "stable_dt"):
        dogs.append(CFLMarginWatchdog())
    dogs += [BoundsWatchdog(), WallTimeAnomalyWatchdog()]
    if mode == "full" and all(solver.state.grid.periodic):
        dogs.append(ConservationWatchdog())
    return dogs


def for_solver(solver, mode=None, clock=None):
    """Build the health monitor a solver's config/environment asks for.

    Returns the shared :data:`NULL_HEALTH` when observability is off —
    the solver's hot loop then pays a single ``enabled`` attribute
    check per step and nothing else.
    """
    mode = resolve_mode(mode)
    if mode == "off":
        return NULL_HEALTH
    return HealthMonitor(
        solver,
        watchdogs=standard_watchdogs(solver, mode=mode, clock=clock),
        interval=1,
        recorder=FlightRecorder(capacity=256 if mode == "full" else 64),
        clock=clock,
        record_telemetry_delta=(mode == "full" and solver.telemetry.enabled),
        stage_guard=(mode == "full"),
    )
