"""Minimal dense-tensor substrate used by every other module.

Conventions
-----------
* ``Tensor3`` is a numpy array of shape ``(height, width, channels)`` in
  C (row-major) order, float64 by default (float32 supported for
  cost/bench parity).
* ``Matrix`` is a 2-D numpy array; flattened image-plane views have one
  row per pixel.
* ``LabelMap`` is a 2-D int32 array of per-pixel indices; negative values
  are sentinels (``IGNORE`` for loss targets, ``VOID`` for panoptic maps).

All functions are pure and never mutate their inputs; repeated calls with
identical inputs are bit-reproducible on the same build.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

DEFAULT_DTYPE = np.float64

# Sentinel for pixels excluded from the training loss.
IGNORE = -1
# Sentinel for pixels left unassigned in a panoptic output.
VOID = -1


def require_tensor3(t: np.ndarray, name: str = "tensor") -> np.ndarray:
    """Validate a (height, width, channels) array and return it as ndarray."""
    t = np.asarray(t)
    if t.ndim != 3:
        raise DimensionError(f"{name} must have shape (h, w, c), got {t.shape}")
    if min(t.shape) < 1:
        raise DimensionError(f"{name} dimensions must all be >= 1, got {t.shape}")
    return t


def softmax_channels(t: np.ndarray) -> np.ndarray:
    """Per-pixel softmax along the channel axis, with max subtraction."""
    t = require_tensor3(t)
    shifted = t - t.max(axis=2, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=2, keepdims=True)


def log_softmax_channels(t: np.ndarray) -> np.ndarray:
    """Numerically stable per-pixel log-softmax along the channel axis."""
    t = require_tensor3(t)
    shifted = t - t.max(axis=2, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=2, keepdims=True))


def argmax_channels(t: np.ndarray) -> np.ndarray:
    """Per-pixel index of the maximal channel; ties go to the lowest index."""
    t = require_tensor3(t)
    return t.argmax(axis=2).astype(np.int32)
