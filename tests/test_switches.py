"""Every ``REPRO_*`` environment switch fails loudly on a typo."""

import pathlib
import re

import pytest

from repro import telemetry
from repro.backend import resolve_backend
from repro.chemistry.implicit import (
    resolve_chemistry_method,
    resolve_chemistry_mode,
    resolve_fixed_substeps,
)
from repro.observability import resolve_mode
from repro.parallel.chemlb import resolve_policy
from repro.parallel.comm import resolve_transport_name
from repro.parallel.shm import resolve_heartbeat
from repro.resilience.distributed import resolve_recovery_policy
from repro.resilience.faults import seed_from_env
from repro.telemetry.tracing import resolve_tracing
from repro.util.validation import env_switch


def _rhs_engine():
    from repro.chemistry import h2_li2004
    from repro.core import Grid, State
    from repro.core.rhs import CompressibleRHS

    grid = Grid((16,), (0.01,), periodic=(True,))
    return CompressibleRHS(State(h2_li2004(), grid), reacting=False)


def _torch_device():
    from repro.backend.torch_device import HAVE_TORCH, TorchBackend

    if not HAVE_TORCH:
        pytest.skip("REPRO_TORCH_DEVICE is read only by the torch backend, "
                    "and torch is not importable")
    return TorchBackend()


#: switch -> (misspelled value, what resolves it)
SWITCHES = {
    "REPRO_TELEMETRY": ("yse", telemetry.get_telemetry),
    "REPRO_TRACING": ("onn", resolve_tracing),
    "REPRO_OBSERVABILITY": ("ful", resolve_mode),
    "REPRO_CHEMISTRY_MODE": ("strnag", resolve_chemistry_mode),
    "REPRO_CHEMISTRY_METHOD": ("rosw", resolve_chemistry_method),
    "REPRO_CHEM_FIXED_SUBSTEPS": ("4x", resolve_fixed_substeps),
    "REPRO_CHEM_LB": ("gredy", resolve_policy),
    "REPRO_TRANSPORT": ("inproces", resolve_transport_name),
    "REPRO_PARALLEL_RECOVERY": ("respwn", resolve_recovery_policy),
    "REPRO_HEARTBEAT": ("2.5s", resolve_heartbeat),
    "REPRO_FAULT_SEED": ("4two", seed_from_env),
    "REPRO_RHS_ENGINE": ("bached", _rhs_engine),
    "REPRO_RHS_BACKEND": ("nunpy", resolve_backend),
    "REPRO_TORCH_DEVICE": ("cdua", _torch_device),
}


def test_every_switch_in_src_is_covered():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    names = set()
    for path in src.rglob("*.py"):
        names |= set(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
    assert names == set(SWITCHES)


@pytest.mark.parametrize("name", sorted(SWITCHES))
def test_misspelled_switch_raises(name, monkeypatch):
    value, resolve = SWITCHES[name]
    # a cleared process default makes get_telemetry re-read the env
    monkeypatch.setattr(telemetry, "_default", None)
    monkeypatch.setenv(name, value)
    # torch reports a malformed device string as a RuntimeError
    errors = (ValueError, RuntimeError) if name == "REPRO_TORCH_DEVICE" else ValueError
    with pytest.raises(errors):
        resolve()


@pytest.mark.parametrize("name", ["REPRO_TELEMETRY", "REPRO_TRACING",
                                  "REPRO_HEARTBEAT", "REPRO_FAULT_SEED"])
def test_error_names_the_switch(name, monkeypatch):
    value, resolve = SWITCHES[name]
    monkeypatch.setattr(telemetry, "_default", None)
    monkeypatch.setenv(name, value)
    with pytest.raises(ValueError, match=name):
        resolve()


def test_on_off_switch_values(monkeypatch):
    for raw, want in [("1", True), ("On", True), ("yes", True),
                      ("", False), ("0", False), ("OFF", False), ("no", False)]:
        monkeypatch.setenv("REPRO_TRACING", raw)
        assert env_switch("REPRO_TRACING") is want
    monkeypatch.delenv("REPRO_TRACING")
    assert env_switch("REPRO_TRACING") is False
