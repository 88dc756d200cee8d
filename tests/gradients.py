"""Central finite differences: the numeric oracle for the hand-derived gradients.

``finite_diff`` is the only finite-difference loop in the tests; the affinity,
loss and whole-scene gradient checks all compare against it with ``rel_err``.
"""

from dataclasses import replace

import numpy as np

from panfuse.affinity import apply_affinity_factored, backward_affinity, project_features
from panfuse.matching import panoptic_matching_loss
from panfuse.potential import Variant
from panfuse.train import prepare_training_scene


def finite_diff(f, x, eps=1e-5):
    """Central differences of the scalar function ``f`` at every element of ``x``."""
    out = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        plus = x.copy()
        plus[idx] += eps
        minus = x.copy()
        minus[idx] -= eps
        out[idx] = (f(plus) - f(minus)) / (2 * eps)
    return out


def rel_err(analytic, numeric):
    """Max-norm relative error of ``analytic`` against ``numeric``."""
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-12)
    return float(np.abs(analytic - numeric).max() / scale)


def affinity_errors(scalar, grads, psi, features, params, eps=1e-5):
    """``rel_err`` of each of the six ``AffinityGrads`` tensors against
    ``finite_diff`` of ``scalar(psi, features, params)``."""
    errors = {
        "psi": rel_err(grads.d_psi,
                       finite_diff(lambda t: scalar(t, features, params), psi, eps)),
        "features": rel_err(grads.d_features,
                            finite_diff(lambda t: scalar(psi, t, params), features, eps)),
    }
    for name in ("w0", "b0", "w1", "b1"):
        def with_param(t, _name=name):
            return scalar(psi, features, replace(params, **{_name: t}))
        errors[name] = rel_err(getattr(grads, f"d_{name}"),
                               finite_diff(with_param, getattr(params, name), eps))
    return errors


def scene_gradient_errors(scene, gt, params, eps=1e-5):
    """Check the gradients of one scene's training loss, variant B at match
    threshold 0.5: the per-tensor errors of ``affinity_errors`` and the smallest
    |pre-activation| of either rectifier (finite differences are unreliable
    when a pre-activation sits within ``eps`` of the kink)."""
    bundle = prepare_training_scene(scene, gt, Variant.B, "predicted", 0.5)
    psi, features = bundle.potential.psi, bundle.scene.features

    def loss(psi_t, features_t, prm):
        q0, q1 = project_features(features_t, prm)
        return panoptic_matching_loss(apply_affinity_factored(psi_t, q0, q1),
                                      bundle.target)[0]

    q0, q1 = project_features(features, params)
    _, grad_p = panoptic_matching_loss(apply_affinity_factored(psi, q0, q1), bundle.target)
    grads = backward_affinity(psi, features, params, grad_p)
    flat = features.reshape(-1, features.shape[2])
    min_pre = float(min(np.abs(flat @ params.w0 + params.b0).min(),
                        np.abs(flat @ params.w1 + params.b1).min()))
    return affinity_errors(loss, grads, psi, features, params, eps), min_pre
