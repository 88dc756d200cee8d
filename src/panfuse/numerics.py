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

    def refusal(self, value, text: str | None = None) -> str:
        """Why ``value``, shown as ``text`` (its ``str`` by default), is refused.

        An int beyond every float is sized and shown without ``str``, which
        refuses more than 4300 digits.
        """
        if type(value) is int and abs(value) > sys.float_info.max:
            digits = _decimal_digits(abs(value))
            if text is None:  # the first 17 characters of str(value)
                sign = "-" if value < 0 else ""
                text = sign + str(abs(value) // 10 ** (digits - 17 + len(sign)))
            return self.refusal_of_digits(text, digits)
        return f"must be {self}, got {value if text is None else text}"

    def refusal_of_digits(self, text: str, digits: int) -> str:
        """Why an integer of ``digits`` digits, shown as ``text``, is refused:
        it is beyond every float."""
        return (f"must be {self}, got {text[:17]}... ({digits} digits), "
                f"which exceeds the float range ({sys.float_info.max:.3e})")


def _decimal_digits(n: int) -> int:
    """Decimal digits of the positive int ``n``, read from its bit length."""
    digits = int((n.bit_length() - 1) * 0.30102999566398120) + 1  # log10(2)
    return digits + (n >= 10 ** digits)


def bounded(default, low: float, high: float | None = None, *, low_open: bool = False,
            high_open: bool = False):
    """A dataclass field whose range ``check_bounds`` and the CLI both read."""
    return field(default=default, metadata={"bound": Bound(low, high, low_open, high_open)})


def check_bounds(config, error: type[Exception]) -> None:
    """Raise ``error`` naming the first field of ``config`` outside its ``Bound``."""
    for f in fields(config):
        value = getattr(config, f.name)
        if "bound" in f.metadata and value not in f.metadata["bound"]:
            raise error(f"{f.name} {f.metadata['bound'].refusal(value)}")


def require_tensor3(t: np.ndarray, name: str = "tensor") -> np.ndarray:
    """Validate a (height, width, channels) array and return it as ndarray."""
    t = np.asarray(t)
    if t.ndim != 3:
        raise DimensionError(f"{name} must have shape (h, w, c), got {t.shape}")
    if min(t.shape) < 1:
        raise DimensionError(f"{name} dimensions must all be >= 1, got {t.shape}")
    return t


def channel_max(x: np.ndarray) -> np.ndarray:
    """Row maxima of an (n, k) matrix, one column at a time.

    Equal to ``x.max(axis=1)`` (a max is exact in any order), but k
    whole-column calls cost less than numpy's per-row loop of k.
    """
    m = x[:, 0].copy()
    for j in range(1, x.shape[1]):
        np.maximum(m, x[:, j], out=m)
    return m


def channel_sum(x: np.ndarray) -> np.ndarray:
    """Row sums of an (n, k) matrix, bit for bit ``x.sum(axis=1)``.

    numpy adds fewer than 8 terms of a row in a left-to-right chain, so
    below 8 columns a chain of k whole-column adds gives its bits without
    its per-row loop calls. From 8 columns numpy's pairwise order takes
    over, and the training workloads (at most 6 channels) never reach it,
    so that case is numpy's own ``sum``. ``tests/test_numerics.py`` pins
    both branches against numpy.
    """
    k = x.shape[1]
    if k >= 8:
        return x.sum(axis=1)
    s = x[:, 0].copy()
    for j in range(1, k):
        s += x[:, j]
    return s


def pixel_sum(x: np.ndarray) -> np.ndarray:
    """Column sums of an (n, k) matrix, bit for bit ``x.sum(axis=0)``.

    Both add the n rows one after another. ``einsum`` runs that loop in
    one call, where ``sum`` calls its inner loop of k once per row.
    """
    return np.einsum("ij->j", x)
