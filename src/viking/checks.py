"""Input checks shared by the filters, the generators and the harness; each
raises ``ValueError`` naming its argument."""

from __future__ import annotations

import numpy as np


def check_count(name: str, value, low: int) -> None:
    """An integer >= ``low``; a numpy integer passes, a bool does not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"{name} = {value} must be an integer >= {low}")


def check_finite(name: str, value, bound: str = ">= 0", got: bool = False) -> np.ndarray:
    """``value``, a number or an array, as a float array whose every entry is
    finite and ``bound`` (``">= 0"``, ``"> 0"``, or ``""`` for none); with
    ``got`` the message shows the first bad entry instead of ``value``."""
    v = np.asarray(value, dtype=float)
    ok = np.isfinite(v) & (v > 0.0 if bound == "> 0" else v >= 0.0 if bound else True)
    if not ok.all():
        rule = "must be finite" + (f" and {bound}" if bound else "")
        raise ValueError(f"{name} {rule}, got {v[~ok].flat[0]}" if got else f"{name} = {value} {rule}")
    return v


def check_transition(K, d: int) -> np.ndarray:
    """``K`` as a float ``(d, d)`` transition matrix."""
    K = np.asarray(K, dtype=float)
    if K.shape != (d, d):
        raise ValueError(f"transition matrix has shape {K.shape}, expected ({d}, {d}) for the {d}-dimensional state")
    return K
