"""Weighted-mean probability fusion.

Each scale (or classifier stream) contributes a probability vector and a
positive weight; the fused vector is the weighted mean
p_hat[n] = sum_s w_s * p[s][n] / sum_s w_s.  The classifier fuses its three
streams with :func:`fuse` and the parser fuses its window scales with it.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError

DEFAULT_SCALE_WEIGHTS = (0.25, 0.5, 1.0)


def check_weights(weights, count: int, what: str) -> np.ndarray:
    """``weights`` as a float64 vector, if there are ``count`` of them, each
    finite and positive, with a finite sum; ConfigError otherwise."""
    try:
        w = np.asarray(weights, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"{what} must be numbers, got {weights}") from e
    with np.errstate(over="ignore"):
        total = w.sum()
    if w.shape != (count,) or not (np.all(np.isfinite(w)) and np.all(w > 0) and np.isfinite(total)):
        raise ConfigError(f"need {count} finite positive {what} with a finite sum, got {weights}")
    return w


def fuse(probs: np.ndarray, weights) -> np.ndarray:
    """[..., S, N] probabilities and S weights -> [..., N] weighted mean."""
    w = np.asarray(weights, dtype=np.float64)
    if probs.ndim < 2 or w.shape != probs.shape[-2:-1]:
        raise ShapeError(f"probabilities {probs.shape} vs weights {w.shape}")
    return (w[:, None] * probs).sum(axis=-2) / w.sum()
