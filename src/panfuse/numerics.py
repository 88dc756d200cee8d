"""Minimal dense-tensor substrate used by every other module.

Conventions
-----------
* ``Tensor3`` is a numpy array of shape ``(height, width, channels)`` in
  C (row-major) order, float64 by default (float32 supported for
  cost/bench parity).
* ``Matrix`` is a 2-D numpy array; flattened image-plane views have one
  row per pixel.
* ``LabelMap`` is a 2-D int32 array of per-pixel indices; -1 is the
  sentinel (``IGNORE`` for loss targets, ``VOID`` for panoptic maps).
  A relabel indexes a lookup table of n + 1 slots with the map directly,
  so -1 reads the last slot, which holds the sentinel's image.

All functions are pure and never mutate their inputs; repeated calls with
identical inputs are bit-reproducible on the same build.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DimensionError

DEFAULT_DTYPE = np.float64
# The dtypes a cue or parameter tensor read from disk may have.
FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

# Sentinel for pixels excluded from the training loss.
IGNORE = -1
# Sentinel for pixels left unassigned in a panoptic output.
VOID = -1
# Either sentinel as stored in a u32 grid on disk: the bits of int32 -1.
SENTINEL_U32 = 0xFFFFFFFF


@dataclass(frozen=True)
class Bound:
    """The finite values above ``low`` (strictly when ``low_open``) and at most
    ``high`` (strictly below it when ``high_open``); no ``high``, no top."""

    low: float
    high: float | None = None
    low_open: bool = False
    high_open: bool = False

    def __str__(self) -> str:
        if self.high is None:
            return f"> {self.low:g}" if self.low_open else f">= {self.low:g}"
        return (f"in {'(' if self.low_open else '['}{self.low:g}, "
                f"{self.high:g}{')' if self.high_open else ']'}")

    def __contains__(self, value) -> bool:
        # Written so that NaN fails every check. The last one compares exactly,
        # so it also fails an int too large for a float instead of raising.
        above = value > self.low if self.low_open else value >= self.low
        below = self.high is None or (value < self.high if self.high_open else value <= self.high)
        return above and below and abs(value) <= sys.float_info.max


def bounded(default, low: float, high: float | None = None, *, low_open: bool = False,
            high_open: bool = False):
    """A dataclass field whose range ``check_bounds`` and the CLI both read."""
    return field(default=default, metadata={"bound": Bound(low, high, low_open, high_open)})


def check_bounds(config, error: type[Exception]) -> None:
    """Raise ``error`` naming the first field of ``config`` outside its ``Bound``."""
    for f in fields(config):
        value = getattr(config, f.name)
        if "bound" in f.metadata and value not in f.metadata["bound"]:
            raise error(f"{f.name} must be {f.metadata['bound']}, got {value}")


def require_tensor3(t: np.ndarray, name: str = "tensor") -> np.ndarray:
    """Validate a (height, width, channels) array and return it as ndarray."""
    t = np.asarray(t)
    if t.ndim != 3:
        raise DimensionError(f"{name} must have shape (h, w, c), got {t.shape}")
    if min(t.shape) < 1:
        raise DimensionError(f"{name} dimensions must all be >= 1, got {t.shape}")
    return t


def argmax_channels(t: np.ndarray) -> np.ndarray:
    """Per-pixel index of the maximal channel; ties go to the lowest index."""
    t = require_tensor3(t)
    return t.argmax(axis=2).astype(np.int32)
