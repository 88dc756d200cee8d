"""Reference paths that the tests compare the library against.

``apply_affinity_naive`` is the quadratic product that
``affinity.apply_affinity_factored`` exists to avoid: acceptance criterion
01 and ``test_affinity`` check the factored path against it.
"""

import numpy as np

# Above this many pixels the n x n affinity matrix outgrows a test's memory
# (4096 pixels: 128 MiB in float64).
NAIVE_PIXEL_CAP = 4096


def apply_affinity_naive(psi, q0, q1):
    """``psi + A @ psi`` with the full pixel-pair affinity matrix
    ``A = Q0 Q1^T`` materialized; refuses more than ``NAIVE_PIXEL_CAP`` pixels."""
    h, w, k = psi.shape
    n = h * w
    if n > NAIVE_PIXEL_CAP:
        raise ValueError(f"naive path materializes a {n}x{n} affinity matrix; "
                         f"cap is {NAIVE_PIXEL_CAP} pixels")
    psi_m = psi.reshape(n, k)
    a = q0.reshape(n, -1) @ q1.reshape(n, -1).T  # (n, n)
    return (psi_m + a @ psi_m).reshape(h, w, k)
