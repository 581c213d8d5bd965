"""Parameter initialisation helpers (Kaiming / Xavier / uniform)."""

from __future__ import annotations

import numpy as np


def kaiming_normal(shape: tuple, fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """He-normal initialisation suited to ReLU networks."""
    std = np.sqrt(2.0 / max(fan_in, 1))
    return rng.normal(0.0, std, size=shape).astype(np.float32)


def zeros(shape: tuple) -> np.ndarray:
    """All-zero initialisation (biases, BN shift)."""
    return np.zeros(shape, dtype=np.float32)


def ones(shape: tuple) -> np.ndarray:
    """All-one initialisation (BN scale)."""
    return np.ones(shape, dtype=np.float32)


def default_rng(seed: int | None = None) -> np.random.Generator:
    """A seeded generator; the zoo uses per-model seeds for reproducibility."""
    return np.random.default_rng(seed)
