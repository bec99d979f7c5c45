"""Lightweight argument validation helpers.

These raise :class:`ValueError` with actionable messages; they are used at
public API boundaries only, never in inner loops.
"""

from __future__ import annotations

import os

import numpy as np


def check_positive(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` (scalar or array) is > 0."""
    arr = np.asarray(value)
    if not np.all(arr > 0):
        raise ValueError(f"{name} must be positive, got {value!r}")


def check_in_range(name: str, value, lo: float, hi: float) -> None:
    """Raise ``ValueError`` unless ``lo <= value <= hi`` elementwise."""
    arr = np.asarray(value)
    if not (np.all(arr >= lo) and np.all(arr <= hi)):
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value!r}")


def check_shape(name: str, array, shape: tuple) -> None:
    """Raise ``ValueError`` unless ``array.shape == shape``."""
    arr = np.asarray(array)
    if arr.shape != tuple(shape):
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")


def check_probability_vector(name: str, value, atol: float = 1e-8) -> None:
    """Raise ``ValueError`` unless ``value`` is non-negative and sums to 1."""
    arr = np.asarray(value, dtype=float)
    if np.any(arr < -atol):
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    total = float(arr.sum())
    if abs(total - 1.0) > max(atol, 1e-8 * arr.size):
        raise ValueError(f"{name} must sum to 1, sums to {total}")


#: accepted spellings of an on/off environment switch
SWITCH_ON = ("1", "on", "true", "yes")
SWITCH_OFF = ("", "0", "off", "false", "no")


def env_switch(name: str) -> bool:
    """Read the on/off environment switch ``name`` (unset means off).

    Matching is case-insensitive; anything outside :data:`SWITCH_ON` and
    :data:`SWITCH_OFF` raises, so a misspelled value cannot silently
    turn a feature off.
    """
    raw = os.environ.get(name, "").strip().lower()
    if raw in SWITCH_ON:
        return True
    if raw in SWITCH_OFF:
        return False
    raise ValueError(
        f"{name}={os.environ[name]!r} is not an on/off value; "
        f"use one of {SWITCH_ON} or {SWITCH_OFF[1:]}"
    )
