"""Metric aggregation helpers used when assembling the paper's figures."""

from __future__ import annotations

from typing import Iterable

import numpy as np


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean; the paper reports geo-means for per-model speedups."""
    array = np.asarray(list(values), dtype=np.float64)
    if array.size == 0:
        return 0.0
    if np.any(array <= 0):
        raise ValueError("geometric mean requires strictly positive values")
    return float(np.exp(np.mean(np.log(array))))
