"""Deterministic, seedable fault injection.

A :class:`FaultInjector` holds a list of :class:`FaultSpec` arming
rules. Instrumented components (``SimMPI``, ``SimFileSystem``,
``Environment``, the resilient run supervisor) call
:meth:`FaultInjector.decide` at named *sites* — e.g. ``"fs.write"``,
``"mpi.send"``, ``"workflow.transfer"``, ``"solver.step"`` — and apply
the site-specific effect when a spec fires (raise, drop, corrupt,
tear, ...). The injector only decides *whether and what*; the component
owns *how*, so each layer's fault semantics stay local to that layer.

Determinism: one ``random.Random(seed)`` drives every probabilistic
decision in call order, and per-site operation counters implement
``after``/``count`` windows, so a given seed and operation sequence
reproduces the exact same fault schedule — the property the CI
fault-injection lane (``REPRO_FAULT_SEED``) relies on.

Mirroring the telemetry layer, injection is off by default and
zero-cost when disabled: components resolve to the shared
:data:`NULL_INJECTOR` whose ``enabled`` flag guards every hook with a
single attribute check.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

from repro.telemetry import resolve as resolve_telemetry

__all__ = [
    "FaultSpec",
    "FaultEvent",
    "FaultInjector",
    "NullFaultInjector",
    "NULL_INJECTOR",
    "resolve_injector",
    "seed_from_env",
]

#: environment variable read by :func:`seed_from_env` (the CI matrix knob)
SEED_ENV_VAR = "REPRO_FAULT_SEED"


def seed_from_env(default: int = 0) -> int:
    """Injector seed from ``REPRO_FAULT_SEED`` (CI matrix), else default.

    A value that is not an integer raises rather than falling back, so a
    misspelled matrix seed cannot quietly rerun the default schedule.
    """
    raw = os.environ.get(SEED_ENV_VAR, "").strip()
    try:
        return int(raw) if raw else int(default)
    except ValueError:
        raise ValueError(
            f"{SEED_ENV_VAR}={raw!r} is not an integer seed"
        ) from None


@dataclass
class FaultSpec:
    """One arming rule: where, what, how often.

    Parameters
    ----------
    site:
        Site name the rule applies to. A trailing ``*`` is a prefix
        wildcard (``"fs.*"`` matches every file-system site).
    mode:
        Effect selector interpreted by the site: ``"error"`` (default),
        ``"torn"``, ``"stale"``, ``"drop"``, ``"corrupt"``, ``"delay"``,
        ``"rank_failure"``, ``"timeout"``.
    probability:
        Chance of firing per eligible operation (1.0 = always).
    count:
        Maximum number of firings (None = unlimited).
    after:
        Number of eligible operations at the site skipped before the
        rule arms (lets a test schedule "the fault at step 8").
    detail:
        Free-form payload for the site (e.g. ``{"rank": 2}``).
    """

    site: str
    mode: str = "error"
    probability: float = 1.0
    count: int | None = 1
    after: int = 0
    detail: dict = field(default_factory=dict)
    fired: int = 0
    skipped: int = 0

    def matches(self, site: str) -> bool:
        if self.site.endswith("*"):
            return site.startswith(self.site[:-1])
        return site == self.site

    @property
    def exhausted(self) -> bool:
        return self.count is not None and self.fired >= self.count


@dataclass
class FaultEvent:
    """Record of one fault that actually fired."""

    site: str
    mode: str
    op_index: int
    detail: dict = field(default_factory=dict)


class FaultInjector:
    """Deterministic fault scheduler shared by every injection site."""

    enabled = True

    def __init__(self, specs=(), seed: int = 0, telemetry=None):
        self.seed = int(seed)
        self.rng = random.Random(self.seed)
        self.specs: list = list(specs)
        self.events: list = []
        self._site_ops: dict = {}
        self.telemetry = resolve_telemetry(telemetry)
        self._c_injected = self.telemetry.counter("resilience.faults_injected")

    # ------------------------------------------------------------------
    def add(self, site: str, mode: str = "error", probability: float = 1.0,
            count: int | None = 1, after: int = 0, **detail) -> FaultSpec:
        """Arm a new rule; returns the spec for later inspection."""
        spec = FaultSpec(site=site, mode=mode, probability=probability,
                         count=count, after=after, detail=dict(detail))
        self.specs.append(spec)
        return spec

    def decide(self, site: str) -> FaultSpec | None:
        """One eligible operation at ``site``; the firing spec or None.

        At most one spec fires per operation (first match in arming
        order), so stacked rules stay deterministic.
        """
        n = self._site_ops.get(site, 0)
        self._site_ops[site] = n + 1
        for spec in self.specs:
            if not spec.matches(site) or spec.exhausted:
                continue
            if spec.skipped < spec.after:
                spec.skipped += 1
                continue
            if spec.probability < 1.0 and self.rng.random() >= spec.probability:
                continue
            spec.fired += 1
            self.events.append(FaultEvent(site, spec.mode, n, spec.detail))
            self._c_injected.inc()
            return spec
        return None

    # ------------------------------------------------------------------
    @property
    def fired(self) -> int:
        """Total faults injected so far."""
        return len(self.events)

    def operations(self, site: str) -> int:
        """Eligible operations seen at ``site``."""
        return self._site_ops.get(site, 0)

    def corrupt_bytes(self, data: bytes, n_flips: int = 8) -> bytes:
        """Deterministically flip ``n_flips`` bytes of ``data``."""
        if not data:
            return data
        buf = bytearray(data)
        for _ in range(max(1, n_flips)):
            i = self.rng.randrange(len(buf))
            buf[i] ^= 0xFF
        return bytes(buf)

    def reset(self) -> None:
        """Re-seed the RNG and clear all firing state (specs survive)."""
        self.rng = random.Random(self.seed)
        self.events.clear()
        self._site_ops.clear()
        for spec in self.specs:
            spec.fired = 0
            spec.skipped = 0


class NullFaultInjector:
    """Disabled injector: never fires, never allocates."""

    enabled = False
    specs: list = []
    events: list = []
    fired = 0

    def add(self, site: str, **kwargs):
        raise RuntimeError(
            "cannot arm faults on the null injector; construct a "
            "FaultInjector and pass it to the component explicitly"
        )

    def decide(self, site: str) -> None:
        return None

    def operations(self, site: str) -> int:
        return 0

    def reset(self) -> None:
        pass


#: the shared disabled injector (mirrors telemetry's NULL_TELEMETRY)
NULL_INJECTOR = NullFaultInjector()


def resolve_injector(injector=None):
    """Explicit instance wins; otherwise the shared null injector."""
    return injector if injector is not None else NULL_INJECTOR
