"""Unified telemetry: tracing spans + metrics + profiler export.

The measurement substrate the paper's §3-§4 methodology needs: TAU-style
hierarchical spans with exclusive-time accounting, a process-wide
metrics registry (counters/gauges/histograms), and exporters for the
per-kernel profile table, JSON snapshots, and §9 ASCII monitor files.

Two backends share one API:

* :class:`Telemetry` — the recording backend,
* :class:`NullTelemetry` — a no-op backend whose spans and instruments
  do nothing, so instrumented hot paths cost essentially nothing when
  telemetry is off.

Backend selection: an explicit instance passed to a component always
wins; otherwise the process default from :func:`get_telemetry` applies,
which is the null backend unless the environment variable
``REPRO_TELEMETRY`` is on (``1``/``on``/``true``/``yes``; a value
that is neither on nor off raises) or :func:`configure` was called.
"""

from __future__ import annotations

import functools

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    DEFAULT_BUCKETS,
)
from repro.telemetry.spans import SpanStats, Tracer
from repro.telemetry.tracing import (
    TraceContext,
    TraceEvent,
    TraceLog,
    resolve_tracing,
)
from repro.telemetry import export
from repro.util.validation import env_switch
from repro.telemetry.export import (
    MonitorWriter,
    from_json,
    parse_monitor_text,
    parse_profile_report,
    profile_report,
)

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "Tracer",
    "SpanStats",
    "TraceContext",
    "TraceEvent",
    "TraceLog",
    "resolve_tracing",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "MonitorWriter",
    "profile_report",
    "parse_profile_report",
    "parse_monitor_text",
    "from_json",
    "configure",
    "get_telemetry",
    "set_default",
    "resolve",
    "resolve_solver",
]


class Telemetry:
    """Recording telemetry backend: one tracer + one metrics registry.

    Parameters
    ----------
    clock:
        Injectable clock for the tracer (tests pass a fake).
    tracing:
        Distributed-tracing mode. ``True`` attaches a
        :class:`~repro.telemetry.tracing.TraceLog` so spans and
        transport messages record causal trace events; ``None``
        (default) defers to the ``REPRO_TRACING`` environment switch;
        ``False`` forces it off regardless of the environment.
    rank:
        Event lane for this backend's trace log (rank programs pass
        their rank; the default is the driver lane).
    """

    enabled = True

    def __init__(self, clock=None, tracing=None, rank=None):
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(clock=clock, metrics=self.metrics)
        self.tracelog = None
        self._delta_base: dict | None = None
        if resolve_tracing(tracing):
            self.enable_tracing(rank=rank)

    @property
    def tracing(self) -> bool:
        """Whether distributed tracing is attached."""
        return self.tracelog is not None

    def enable_tracing(self, rank=None):
        """Attach a trace log (idempotent); returns it. Spans recorded
        from now on also produce causal trace events, and transports
        holding this backend start piggybacking trace contexts."""
        if self.tracelog is None:
            from repro.telemetry.tracing import DRIVER_RANK, TraceLog

            self.tracelog = TraceLog(
                clock=self.tracer.clock,
                rank=DRIVER_RANK if rank is None else int(rank),
            )
            self.tracer.tracelog = self.tracelog
            self.tracer.trace_rank = self.tracelog.rank
        return self.tracelog

    # -- tracing ---------------------------------------------------------
    def span(self, name: str, **counters):
        """Context manager timing ``name``; kwargs increment counters
        named ``<name>.<key>`` on exit."""
        return self.tracer.span(name, **counters)

    def trace(self, name: str | None = None):
        """Decorator wrapping a callable in a span (default: its name)."""

        def deco(fn):
            span_name = name or fn.__name__

            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                with self.tracer.span(span_name):
                    return fn(*args, **kwargs)

            return wrapped

        return deco

    # -- metrics ---------------------------------------------------------
    def counter(self, name: str) -> Counter:
        return self.metrics.counter(name)

    def gauge(self, name: str) -> Gauge:
        return self.metrics.gauge(name)

    def histogram(self, name: str, buckets=DEFAULT_BUCKETS) -> Histogram:
        return self.metrics.histogram(name, buckets=buckets)

    # -- export ----------------------------------------------------------
    def profile_report(self, title: str = "per-kernel exclusive time") -> str:
        return export.profile_report(self.tracer, title=title)

    def snapshot(self, delta: bool = False) -> dict:
        """Plain-data view of tracer + metrics state.

        With ``delta=True`` the view only contains what changed since
        the previous ``snapshot(delta=True)`` call (the whole state on
        the first call), which is what the flight recorder appends per
        step instead of an ever-growing full dump.
        """
        if not delta:
            return export.snapshot(self)
        base = self._delta_base or {"spans": {}, "paths": {},
                                    "metrics": {"counters": {}, "gauges": {},
                                                "histograms": {}}}
        out = self.tracer.snapshot_delta(base)
        out["metrics"] = self.metrics.snapshot_delta(base["metrics"])
        self._delta_base = export.snapshot(self)
        return out

    def merge(self, other) -> "Telemetry":
        """Fold another backend's aggregates into this one (in place).

        Associative with the fresh/null backend as identity; disabled
        backends contribute nothing. Returns ``self``.
        """
        if getattr(other, "enabled", False):
            self.tracer.merge(other.tracer)
            self.metrics.merge(other.metrics)
        return self

    def to_json(self, indent: int | None = None) -> str:
        return export.to_json(self, indent=indent)

    def reset(self) -> None:
        self.tracer.reset()
        self.metrics.reset()
        if self.tracelog is not None:
            self.tracelog.reset()
        self._delta_base = None


class _NullSpan:
    """Shared no-op context manager (zero allocation per span)."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return None


class _NullInstrument:
    """No-op counter/gauge/histogram."""

    __slots__ = ()
    name = ""
    value = 0.0
    count = 0
    total = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_SPAN = _NullSpan()
_NULL_INSTRUMENT = _NullInstrument()


class _NullMetricsRegistry:
    """Registry facade whose instruments are shared no-ops."""

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, buckets=DEFAULT_BUCKETS) -> _NullInstrument:
        return _NULL_INSTRUMENT

    counters: dict = {}
    gauges: dict = {}
    histograms: dict = {}

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def reset(self) -> None:
        pass


class _NullTracer:
    """Tracer facade that records nothing."""

    stats: dict = {}
    path_stats: dict = {}
    depth = 0
    current_path = ""

    def span(self, name: str, **counters) -> _NullSpan:
        return _NULL_SPAN

    def exclusive_times(self) -> dict:
        return {}

    def inclusive_times(self) -> dict:
        return {}

    def call_counts(self) -> dict:
        return {}

    def snapshot(self) -> dict:
        return {"spans": {}, "paths": {}}

    def reset(self) -> None:
        pass


class NullTelemetry:
    """Disabled backend: every operation is a no-op.

    A single shared instance (:data:`NULL_TELEMETRY`) is enough; the
    class is stateless.
    """

    enabled = False
    tracing = False
    tracelog = None

    def __init__(self):
        self.metrics = _NullMetricsRegistry()
        self.tracer = _NullTracer()

    def span(self, name: str, **counters) -> _NullSpan:
        return _NULL_SPAN

    def trace(self, name: str | None = None):
        def deco(fn):
            return fn

        return deco

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, buckets=DEFAULT_BUCKETS) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def profile_report(self, title: str = "per-kernel exclusive time") -> str:
        return ""

    def snapshot(self, delta: bool = False) -> dict:
        return {"spans": {}, "paths": {}, "metrics": self.metrics.snapshot()}

    def merge(self, other) -> "NullTelemetry":
        return self

    def to_json(self, indent: int | None = None) -> str:
        return export.to_json(self, indent=indent)

    def reset(self) -> None:
        pass


#: the shared disabled backend
NULL_TELEMETRY = NullTelemetry()

_default: object | None = None


def get_telemetry():
    """The process-default telemetry backend.

    Null unless ``REPRO_TELEMETRY`` is on at first use or
    :func:`configure`/:func:`set_default` installed a backend; a value
    that is neither on nor off raises.
    """
    global _default
    if _default is None:
        _default = Telemetry() if env_switch("REPRO_TELEMETRY") else NULL_TELEMETRY
    return _default


def set_default(telemetry) -> None:
    """Install ``telemetry`` as the process default (None = re-read env)."""
    global _default
    _default = telemetry


def configure(enabled: bool = True):
    """Create and install a fresh default backend; returns it."""
    tel = Telemetry() if enabled else NULL_TELEMETRY
    set_default(tel)
    return tel


def resolve(telemetry=None):
    """Resolution used by instrumented components: explicit instance
    wins, otherwise the process default."""
    return telemetry if telemetry is not None else get_telemetry()


def resolve_solver(telemetry=None, tracing=None):
    """A solver's backend, with the solver's tracing mode applied.

    ``telemetry`` is an instance (used as is), ``True`` (a fresh
    recording backend), ``False`` (the null backend) or ``None`` (the
    process default). Tracing is a mode on the backend: when
    ``tracing`` (or, for ``None``, ``REPRO_TRACING``) is on, a recording
    backend is upgraded in place and a null one is replaced by a
    recording one, so the solver's transport and rank programs, which
    share the backend, trace from the start.
    """
    if telemetry is True:
        tel = Telemetry()
    elif telemetry is False:
        tel = NULL_TELEMETRY
    else:
        tel = resolve(telemetry)
    if resolve_tracing(tracing):
        if getattr(tel, "enabled", False):
            tel.enable_tracing()
        else:
            tel = Telemetry(tracing=True)
    return tel
