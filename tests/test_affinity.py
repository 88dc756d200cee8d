import json

import numpy as np
import pytest

from panfuse.affinity import (
    AffinityParams,
    affinity_map_for_pixel,
    apply_affinity_factored,
    backward_affinity,
    estimate_costs,
    project_features,
)
from panfuse.container import write_tensor
from panfuse.errors import DimensionError, FormatError

from gradients import affinity_errors
from reference import apply_affinity_naive


def random_params(c, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return AffinityParams(
        w0=scale * rng.normal(size=(c, c)),
        b0=scale * rng.normal(size=c),
        w1=scale * rng.normal(size=(c, c)),
        b1=scale * rng.normal(size=c),
    )


# ---------------------------------------------------------------------------
# Projections
# ---------------------------------------------------------------------------

def test_project_zero_params_zero_output():
    q = np.random.default_rng(0).normal(size=(3, 4, 5))
    params = AffinityParams(np.zeros((5, 5)), np.zeros(5), np.zeros((5, 5)), np.zeros(5))
    q0, q1 = project_features(q, params)
    assert not q0.any() and not q1.any()


def test_project_identity_on_nonnegative():
    q = np.abs(np.random.default_rng(1).normal(size=(2, 2, 3)))
    params = AffinityParams(np.eye(3), np.zeros(3), np.eye(3), np.zeros(3))
    q0, _ = project_features(q, params)
    assert np.array_equal(q0, q)


def test_project_hand_case():
    q = np.array([[[1.0, -2.0]]])
    params = AffinityParams(np.eye(2), np.array([0.5, 0.5]), np.eye(2), np.zeros(2))
    q0, _ = project_features(q, params)
    assert np.allclose(q0[0, 0], [1.5, 0.0])


def test_project_width_mismatch():
    # The backward pass recomputes the projections and names both widths too.
    q = np.zeros((2, 2, 3))
    params = random_params(4, 0)
    message = "features have width 3, params expect 4"
    with pytest.raises(DimensionError, match=message):
        project_features(q, params)
    with pytest.raises(DimensionError, match=message):
        backward_affinity(np.zeros((2, 2, 2)), q, params, np.zeros((2, 2, 2)))


# ---------------------------------------------------------------------------
# Factored vs naive applier
# ---------------------------------------------------------------------------

def test_residual_identity_when_projection_zero():
    rng = np.random.default_rng(2)
    psi = rng.normal(size=(4, 4, 3))
    q1 = rng.normal(size=(4, 4, 2))
    zero = np.zeros((4, 4, 2))
    assert np.array_equal(apply_affinity_factored(psi, zero, q1), psi)
    assert np.array_equal(apply_affinity_naive(psi, zero, q1), psi)


def test_scalar_hand_case():
    # 1x1 image, C=1: psi=2, q0=3, q1=4 -> 2 + 3 * (4 * 2) = 26.
    psi = np.full((1, 1, 1), 2.0)
    q0 = np.full((1, 1, 1), 3.0)
    q1 = np.full((1, 1, 1), 4.0)
    assert apply_affinity_factored(psi, q0, q1)[0, 0, 0] == 26.0
    assert apply_affinity_naive(psi, q0, q1)[0, 0, 0] == 26.0


def test_orthogonal_features_leave_potential():
    # q1 orthogonal to every potential column: inner product vanishes.
    psi = np.zeros((2, 2, 2))
    psi[:, :, 0] = 1.0
    q0 = np.ones((2, 2, 1))
    q1 = np.zeros((2, 2, 1))
    out = apply_affinity_naive(psi, q0, q1)
    assert np.array_equal(out, psi)


def test_oracle_equivalence_200_instances():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        h = int(rng.integers(1, 33))
        w = int(rng.integers(1, 33))
        c = int(rng.integers(1, 17))
        k = int(rng.integers(1, 13))
        psi = rng.normal(size=(h, w, k))
        q0 = rng.normal(size=(h, w, c))
        q1 = rng.normal(size=(h, w, c))
        diff = np.abs(apply_affinity_factored(psi, q0, q1)
                      - apply_affinity_naive(psi, q0, q1)).max()
        worst = max(worst, diff)
    assert worst <= 1e-10


def test_naive_guard():
    psi = np.zeros((65, 65, 1))
    q = np.zeros((65, 65, 1))
    with pytest.raises(ValueError, match="cap is 4096 pixels"):
        apply_affinity_naive(psi, q, q)


def test_channel_count_agnostic():
    rng = np.random.default_rng(9)
    q0 = rng.normal(size=(6, 6, 4))
    q1 = rng.normal(size=(6, 6, 4))
    for k in (1, 2, 7, 23):
        psi = rng.normal(size=(6, 6, k))
        assert apply_affinity_factored(psi, q0, q1).shape == (6, 6, k)


# ---------------------------------------------------------------------------
# Per-pixel affinity maps
# ---------------------------------------------------------------------------

def test_affinity_map_constant_for_identical_features():
    q = np.ones((3, 4, 2))
    amap = affinity_map_for_pixel(q, q, (1, 2))
    assert np.allclose(amap, 2.0)


def test_affinity_map_zero_query():
    q0 = np.zeros((2, 2, 3))
    q1 = np.ones((2, 2, 3))
    assert not affinity_map_for_pixel(q0, q1, (0, 0)).any()


def test_affinity_map_hand_case():
    q0 = np.zeros((1, 2, 2))
    q0[0, 0] = [1.0, 0.0]
    q1 = np.zeros((1, 2, 2))
    q1[0, 0] = [2.0, 5.0]
    q1[0, 1] = [3.0, 7.0]
    amap = affinity_map_for_pixel(q0, q1, (0, 0))
    assert np.allclose(amap, [[2.0, 3.0]])


def test_affinity_map_bounds():
    q = np.zeros((2, 2, 1))
    with pytest.raises(IndexError):
        affinity_map_for_pixel(q, q, (2, 0))


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------

def test_backward_zero_gradient():
    rng = np.random.default_rng(10)
    psi = rng.normal(size=(3, 3, 2))
    q = rng.normal(size=(3, 3, 4))
    grads = backward_affinity(psi, q, random_params(4, 1), np.zeros_like(psi))
    for arr in (grads.d_psi, grads.d_features, grads.d_w0, grads.d_b0,
                grads.d_w1, grads.d_b1):
        assert not arr.any()


def test_backward_residual_only_with_zero_projections():
    rng = np.random.default_rng(11)
    psi = rng.normal(size=(3, 3, 2))
    q = rng.normal(size=(3, 3, 4))
    g = rng.normal(size=(3, 3, 2))
    params = AffinityParams(np.zeros((4, 4)), np.zeros(4), np.zeros((4, 4)), np.zeros(4))
    grads = backward_affinity(psi, q, params, g)
    assert np.array_equal(grads.d_psi, g)


def test_backward_matches_finite_differences():
    # Scalarize the applier output with a fixed weighting and compare every
    # gradient against central differences.
    rng = np.random.default_rng(12)
    for seed in range(20):
        h, w, c, k = 8, 8, 4, 6
        psi = rng.normal(size=(h, w, k))
        q = rng.normal(size=(h, w, c))
        params = random_params(c, 100 + seed, scale=0.5)
        weight = rng.normal(size=(h, w, k))

        def scalar(psi_t, q_t, prm):
            q0, q1 = project_features(q_t, prm)
            return float((apply_affinity_factored(psi_t, q0, q1) * weight).sum())

        grads = backward_affinity(psi, q, params, weight)
        errors = affinity_errors(scalar, grads, psi, q, params)
        assert max(errors.values()) <= 1e-6, errors


# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------

def test_costs_hand_case():
    # (h,w,d,c,k) = (4,4,1,2,3): factored 384, naive 2560, 2048 bytes at f64.
    report = estimate_costs(4, 4, 1, 2, 2, 1, 8)
    assert report.factored_flops == 384
    assert report.naive_flops == 2560
    assert report.affinity_matrix_bytes == 2048


@pytest.mark.parametrize("h, w", [(10, 10), (40, 19), (19, 40)])
def test_costs_refuse_a_stride_that_leaves_no_pixel(h, w):
    with pytest.raises(DimensionError, match=f"got d=20 on a {h}x{w} grid"):
        estimate_costs(h, w, 20, 1, 1, 1, 4)


def test_costs_full_scale_memory():
    report = estimate_costs(800, 1300, 4, 128, 100, 53, 4)
    assert report.affinity_matrix_bytes == 65000**2 * 4
    # 16.9e9 bytes is about 15.74 GiB.
    assert abs(report.affinity_matrix_bytes / 2**30 - 15.74) < 0.01
    assert abs(report.factored_flops - 4 * 128 * 65000 * 153) == 0
    assert abs(report.factored_flops - 5.1e9) / 5.1e9 < 0.05
    # Counting both quadratic products, the saving lands at ~99.79%.
    assert abs(report.reduction_percent - 99.7855) < 0.001


def test_costs_invariants_and_monotone_reduction():
    prev = None
    for n_side in (8, 16, 32, 64, 128):
        r = estimate_costs(n_side, n_side, 1, 8, 10, 5, 4)
        assert r.factored_flops <= r.naive_flops
        assert np.isclose(r.reduction_percent,
                          100.0 * (1 - r.factored_flops / r.naive_flops))
        if prev is not None:
            assert r.reduction_percent > prev
        prev = r.reduction_percent


def test_params_roundtrip(tmp_path):
    params = random_params(6, 3)
    params.save(tmp_path / "ckpt")
    back = AffinityParams.load(tmp_path / "ckpt")
    for name in ("w0", "b0", "w1", "b1"):
        assert np.array_equal(getattr(params, name), getattr(back, name))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_factored_applier_and_projection_equal_plain_expressions(dtype):
    rng = np.random.default_rng(11)
    params = random_params(6, seed=2)
    q = rng.normal(size=(9, 7, 6)).astype(dtype)
    psi = rng.random((9, 7, 5)).astype(dtype)
    q0, q1 = project_features(q, params)
    flat = q.reshape(-1, 6)
    assert np.array_equal(q0.reshape(-1, 6), np.maximum(flat @ params.w0 + params.b0, 0.0))
    assert np.array_equal(q1.reshape(-1, 6), np.maximum(flat @ params.w1 + params.b1, 0.0))
    out = apply_affinity_factored(psi, q0, q1)
    psi_m = psi.reshape(-1, 5)
    expected = psi_m + q0.reshape(-1, 6) @ (q1.reshape(-1, 6).T @ psi_m)
    assert out.dtype == expected.dtype
    assert out.reshape(-1, 5).tobytes() == expected.tobytes()


def _checkpoint(tmp_path):
    root = tmp_path / "ckpt"
    random_params(4, seed=1).save(root)
    return root, root / "params.json"


@pytest.mark.parametrize("manifest, message", [
    ("[]", "{mpath}: expected a JSON object, got a list"),
    ('{"format": "panfuse-affinity-params"', "unparseable manifest in {root}"),
    ('{"format": "panfuse-scene"}', "{mpath} is not an affinity-params manifest"),
    ('{"format": "panfuse-affinity-params"}', "{mpath}: missing key tensors"),
    ('{"format": "panfuse-affinity-params", "tensors": ["w0.panc"]}',
     "{mpath}: key tensors must be an object, got a list"),
    ('{"format": "panfuse-affinity-params", "tensors": {"w0": "w0.panc"}}',
     "{mpath}: missing key tensors.b0"),
    ('{"format": "panfuse-affinity-params", "tensors": {"w0": 1}}',
     "{mpath}: key tensors.w0 must be a string, got an integer"),
    ('{"format": "panfuse-affinity-params", "version": "1"}',
     '{mpath}: key version must be 1, got "1"'),
    ('{"format": "panfuse-affinity-params", "tensors": {"w0": "w\\u00000.panc"}}',
     "cannot read tensor file '{root}/w\\x000.panc': embedded null byte"),
])
def test_params_load_schema_errors(tmp_path, manifest, message):
    root, mpath = _checkpoint(tmp_path)
    mpath.write_text(manifest)
    with pytest.raises(FormatError) as exc:
        AffinityParams.load(root)
    assert message.format(mpath=mpath, root=root) in str(exc.value)


@pytest.mark.parametrize("key, value, message", [
    ("feature_dim", 8, "key feature_dim must be 4, the width of w0, got 8"),
    ("feature_dim", "4", "key feature_dim must be an integer, got a string"),
    ("activation", "sigmoid", 'key activation must be "rectifier", got "sigmoid"'),
], ids=["wrong-width", "wrong-type", "wrong-activation"])
def test_params_load_rejects_manifest_disagreeing_with_head(tmp_path, key, value, message):
    root, mpath = _checkpoint(tmp_path)
    manifest = json.loads(mpath.read_text())
    manifest[key] = value
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(FormatError) as exc:
        AffinityParams.load(root)
    assert str(exc.value) == f"{mpath}: {message}"


def test_params_load_rejects_wrong_rank_and_missing_file(tmp_path):
    root, _ = _checkpoint(tmp_path)
    write_tensor(root / "b1.panc", np.zeros((4, 1)))
    with pytest.raises(FormatError, match=r"b1.panc: b1 has shape \(4, 1\), expected rank 1"):
        AffinityParams.load(root)
    (root / "w0.panc").unlink()
    with pytest.raises(FormatError, match="w0.panc"):
        AffinityParams.load(root)
