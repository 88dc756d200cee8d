"""Reference paths that the tests compare the library against.

``apply_affinity_naive`` is the quadratic product that
``affinity.apply_affinity_factored`` exists to avoid: acceptance criterion
01 and ``test_affinity`` check the factored path against it.
``interpolated_ap`` is the numpy form of ``metrics._interpolated_ap``,
which integrates in plain floats.
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


def interpolated_ap(tp_flags, n_gt):
    """``metrics._interpolated_ap`` in numpy: the same operations in the same
    order, so both give the same bits."""
    tp = np.cumsum(tp_flags)
    fp = np.cumsum(1.0 - np.asarray(tp_flags))
    recall = tp / n_gt
    precision = tp / np.maximum(tp + fp, 1e-12)
    # All-point interpolation: running max of precision from the right.
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    prev_r = 0.0
    ap = 0.0
    for r, p in zip(recall, envelope):
        ap += (r - prev_r) * p
        prev_r = r
    return ap
