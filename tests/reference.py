"""Reference paths that the tests compare the library against.

``apply_affinity_naive`` is the quadratic product that
``affinity.apply_affinity_factored`` exists to avoid: acceptance criterion
01 and ``test_affinity`` check the factored path against it.
``interpolated_ap`` is the numpy form of ``metrics._interpolated_ap``,
which integrates in plain floats. ``dense_logits`` and ``argmax_channels``
are the inference forward over the whole grid, which
``affinity.logit_blocks`` and ``affinity.fused_winners`` compute in row
blocks over box windows.
"""

import numpy as np

from panfuse.affinity import apply_affinity_factored, project_features

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


def argmax_channels(t):
    """Per-pixel index of the maximal channel; ties go to the lowest index."""
    return t.argmax(axis=2).astype(np.int32)


def dense_logits(potential, features, params):
    """The dense forward: ``psi``, then ``project_features`` and
    ``apply_affinity_factored`` over the whole grid; ``psi`` alone without
    ``params``."""
    psi = potential.psi
    if params is None:
        return psi
    with np.errstate(over="ignore", invalid="ignore"):
        q0, q1 = project_features(features, params)
        return apply_affinity_factored(psi, q0, q1)


def clear_winners(logits, relative=1e-9):
    """Pixels whose top two logits differ by more than ``relative`` of the top."""
    if logits.shape[2] == 1:
        return np.ones(logits.shape[:2], dtype=bool)
    top = np.sort(logits, axis=2)
    return top[:, :, -1] - top[:, :, -2] > relative * np.abs(top[:, :, -1])
