import dataclasses
import gc
import json
import re
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from panfuse.affinity import (
    AffinityParams,
    apply_affinity_factored,
    backward_affinity,
    project_features,
)
from panfuse.errors import DimensionError, GenerationError, NumericError
from panfuse.matching import TargetMap, match_segments, panoptic_matching_loss
from panfuse.numerics import IGNORE
from panfuse.potential import Variant, append_stuff_boxes, build_potential
from panfuse.scene import SynthConfig, synth_scene
from panfuse.train import (
    DETECTIONS_SOURCES,
    TrainConfig,
    ablate,
    ground_truth_detections,
    render_ablation_table,
    loss_and_grads,
    make_eval_pool,
    make_pool,
    prepare_training_scene,
    preset_configs,
    train_toy,
)

from gradients import scene_gradient_errors
from symmetry import flip_ground_truth, flip_scene

SMALL_SCENE = SynthConfig(height=8, width=8, n_stuff=2, n_thing=2, n_instances=1,
                          instance_min=3, instance_max=5, feature_dim=4,
                          stuff_segments=2)


def small_cfg(**kw):
    base = dict(steps=10, learning_rate=0.01, seed=1, scenes=2, eval_scenes=1,
                scene=SMALL_SCENE)
    base.update(kw)
    return TrainConfig(**base)


def test_grad_check_small_scenes():
    scene, gt = synth_scene(SMALL_SCENE, seed=2)
    params = AffinityParams.init(4, seed=3, scale=0.5)
    errors, _ = scene_gradient_errors(scene, gt, params)
    assert set(errors) == {"psi", "features", "w0", "b0", "w1", "b1"}
    assert max(errors.values()) <= 1e-6


def test_grad_check_zero_projections_residual():
    scene, gt = synth_scene(SMALL_SCENE, seed=4)
    params = AffinityParams(np.zeros((4, 4)), np.zeros(4), np.zeros((4, 4)), np.zeros(4))
    errors, _ = scene_gradient_errors(scene, gt, params)
    assert errors["psi"] <= 1e-6


def test_all_ignore_targets_zero_gradients():
    scene, gt = synth_scene(SMALL_SCENE, seed=5)
    bundle = prepare_training_scene(scene, gt, Variant.B, "predicted", 0.5)
    all_ignore = bundle.target
    all_ignore.label_map[:] = IGNORE
    loss, grad = panoptic_matching_loss(bundle.potential.psi, all_ignore)
    assert loss == 0.0 and not grad.any()


def test_train_deterministic():
    cfg = small_cfg(steps=20)
    r1 = train_toy(cfg)
    r2 = train_toy(cfg)
    assert r1.loss_curve == r2.loss_curve
    assert np.array_equal(r1.params.w0, r2.params.w0)
    assert r1.final_pq.to_json_dict() == r2.final_pq.to_json_dict()


def test_affinity_off_constant_loss():
    cfg = small_cfg(steps=12, use_affinity=False, scenes=1)
    report = train_toy(cfg)
    assert len(set(report.loss_curve)) == 1


def test_loss_curve_length_matches_steps():
    report = train_toy(small_cfg(steps=7))
    assert len(report.loss_curve) == 7


def test_single_scene_loss_non_increasing_early():
    cfg = small_cfg(steps=50, scenes=1, learning_rate=0.005, seed=0)
    report = train_toy(cfg)
    diffs = np.diff(report.loss_curve)
    assert (diffs <= 1e-9).all()


def test_ground_truth_detections_shape():
    scene, gt = synth_scene(SMALL_SCENE, seed=6)
    dets = ground_truth_detections(scene, gt)
    things = [s for s in gt.segments if scene.catalog.is_thing(s.class_id)]
    assert len(dets) == len(things)
    for det, seg in zip(dets, things):
        assert det.box == seg.box and det.score == 1.0


def test_ground_truth_detections_masks():
    # Masks only where the scene's detections carry them, in the cue dtype.
    scene, gt = synth_scene(replace(SMALL_SCENE, with_masks=True, n_instances=2), seed=6)
    scene = replace(scene, semantic_probs=scene.semantic_probs.astype(np.float32))
    things = [s for s in gt.segments if scene.catalog.is_thing(s.class_id)]
    dets = ground_truth_detections(scene, gt)
    assert things and len(dets) == len(things)
    for det, seg in zip(dets, things):
        assert det.mask.dtype == np.float32
        assert np.array_equal(det.mask, gt.label_map == seg.index)
    bare, gt = synth_scene(replace(SMALL_SCENE, n_instances=2), seed=6)
    dets = ground_truth_detections(bare, gt)
    assert dets and all(d.mask is None for d in dets)


@pytest.mark.parametrize("name, value", [
    ("learning_rate", np.nan), ("learning_rate", np.inf), ("learning_rate", 0.0),
    ("match_threshold", 0.0), ("match_threshold", 1.5), ("match_threshold", np.nan),
    ("seed", -1),
    ("steps", 0), ("steps", -3), pytest.param("steps", 10**400, id="steps-1e400"),
    ("scenes", 0), ("scenes", -3),
    ("eval_scenes", 0), ("eval_scenes", -3),
])
def test_config_rejects_out_of_range_field(name, value):
    shown = str(value) if value != 10**400 else \
        "1" + "0" * 16 + "... (401 digits), which exceeds the float range (1.798e+308)"
    with pytest.raises(NumericError, match=f"^{name} must be .*, got {re.escape(shown)}$"):
        small_cfg(**{name: value}).validate()


def test_config_rejects_unknown_detections_source():
    with pytest.raises(NumericError, match="^detections_source must be one of"):
        small_cfg(detections_source="oracle").validate()


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_divergence_guard():
    # An init scale past the float64 range makes the very first forward
    # pass overflow, which must abort with the step index.
    cfg = small_cfg(steps=4, param_scale=1e200)
    with pytest.raises(NumericError, match="step"):
        train_toy(cfg)


def test_ablate_rows_shape(monkeypatch):
    from panfuse import train

    built = []
    monkeypatch.setattr(train, "make_eval_pool",
                        lambda cfg: built.append(cfg) or make_eval_pool(cfg))
    masked = replace(SMALL_SCENE, with_masks=True)
    cfgs = [small_cfg(), small_cfg(use_affinity=False),
            small_cfg(detections_source="ground_truth"), small_cfg(scene=masked)]
    rows = ablate(cfgs, ["on", "off", "gt", "masks"])
    assert [r.label for r in rows] == ["on", "off", "gt", "masks"]
    assert rows[0].use_affinity and not rows[1].use_affinity
    assert rows[2].detections_source == "ground_truth"
    for r in rows:
        assert len(r.pq_argmax) == 3
    assert [r.pq_heuristic is not None for r in rows] == [False, False, False, True]
    # One held-out pool per config for its argmax PQ, and a second one only
    # where the heuristic merger scores it.
    assert built == cfgs + [cfgs[3]]

    # A header and one line per row; "-" where no heuristic PQ was scored.
    table = render_ablation_table(rows).splitlines()
    assert table[0].split() == ["label", "msk", "aff", "dets", "var", "PQ", "PQ-th",
                                "PQ-st", "PQ-heu", "loss"]
    assert len(table) == 1 + len(rows)
    for r, line in zip(rows, table[1:]):
        assert line.split() == [
            r.label, "y" if r.masks else "n", "y" if r.use_affinity else "n",
            r.detections_source, r.variant,
            *(f"{r.pq_argmax[g]:.4f}" for g in ("all", "things", "stuff")),
            "-" if r.pq_heuristic is None else f"{r.pq_heuristic['all']:.4f}",
            f"{r.final_loss:.4f}"]
    dicts = [r.to_json_dict() for r in rows]
    assert ["pq_heuristic" in d for d in dicts] == [False, False, False, True]
    assert dicts[3]["pq_heuristic"] == rows[3].pq_heuristic
    assert json.loads(json.dumps(dicts)) == dicts


# ---------------------------------------------------------------------------
# The fused training step against the reference path
# ---------------------------------------------------------------------------

# The scenes of the affinity preset: truncated boxes, confused semantics, masks.
POOL_SCENE = preset_configs("affinity", 1, 0)[0][0].scene
WIDE_SCENE = SynthConfig(height=64, width=64, n_instances=9, box_jitter=1.5,
                         box_truncation=0.15)


def reference_step(bundle, params):
    """Loss and parameter gradients through the public reference functions."""
    psi, features = bundle.potential.psi, bundle.scene.features
    q0, q1 = project_features(features, params)
    loss, grad_p = panoptic_matching_loss(apply_affinity_factored(psi, q0, q1),
                                          bundle.target)
    grads = backward_affinity(psi, features, params, grad_p)
    return loss, grads.d_w0, grads.d_b0, grads.d_w1, grads.d_b1


def gated_params(feature_dim, seed):
    """Near-identity weights with random biases, so some rectifiers are dead."""
    rng = np.random.default_rng(seed)
    base = AffinityParams.init(feature_dim, seed=seed, scale=0.5)
    return replace(base, b0=rng.normal(scale=0.3, size=feature_dim),
                   b1=rng.normal(scale=0.3, size=feature_dim))


def assert_same_step(bundle, params):
    fused = loss_and_grads(bundle, params)
    reference = reference_step(bundle, params)
    assert fused[0] == reference[0]
    for got, want in zip(fused[1:], reference[1:]):
        assert got.shape == want.shape and (got == want).all()


@pytest.mark.parametrize("scene_cfg, seed, min_channels", [
    (POOL_SCENE, 0, 1),
    (WIDE_SCENE, 1, 8),
])
def test_loss_and_grads_equals_reference_path(scene_cfg, seed, min_channels):
    scene, gt = synth_scene(scene_cfg, seed=seed)
    bundle = prepare_training_scene(scene, gt, Variant.B, "predicted", 0.4)
    assert bundle.potential.n_channels >= min_channels
    params = gated_params(scene_cfg.feature_dim, seed)
    assert_same_step(bundle, params)
    # IGNORE pixels get no gradient.
    label = bundle.target.label_map.copy()
    label[::3, ::2] = IGNORE
    assert_same_step(replace(bundle, target=TargetMap(label)), params)


def test_loss_and_grads_all_ignore_is_zero():
    scene, gt = synth_scene(POOL_SCENE, seed=2)
    bundle = prepare_training_scene(scene, gt, Variant.B, "predicted", 0.4)
    label = np.full_like(bundle.target.label_map, IGNORE)
    params = gated_params(POOL_SCENE.feature_dim, 2)
    loss, *grads = loss_and_grads(replace(bundle, target=TargetMap(label)), params)
    assert loss == 0.0
    for grad, name in zip(grads, ("w0", "b0", "w1", "b1")):
        assert grad.shape == getattr(params, name).shape
        assert not grad.any()


def test_out_of_range_target_channel_raises_like_the_loss():
    scene, gt = synth_scene(POOL_SCENE, seed=3)
    bundle = prepare_training_scene(scene, gt, Variant.B, "predicted", 0.4)
    label = bundle.target.label_map.copy()
    label[5, 5] = bundle.potential.n_channels
    with pytest.raises(DimensionError) as from_loss:
        panoptic_matching_loss(bundle.potential.psi, TargetMap(label))
    with pytest.raises(DimensionError) as from_bundle:
        replace(bundle, target=TargetMap(label))
    assert str(from_bundle.value) == str(from_loss.value)


def with_duplicates(scene):
    """The scene with a weaker copy after each thing detection: its box
    1 px narrower, its score x0.9 and its mask x0.5."""
    copies = [replace(d, box=replace(d.box, x1=d.box.x1 - 1), score=0.9 * d.score,
                      mask=None if d.mask is None else 0.5 * d.mask)
              for d in scene.detections if d.box.width > 1]
    return replace(scene, detections=scene.detections + copies)


def test_prepare_training_scene_drops_duplicates_before_the_potential():
    removed = 0
    for seed in range(4):
        scene, gt = synth_scene(POOL_SCENE, seed=seed)
        scene = with_duplicates(scene)
        bundle = prepare_training_scene(scene, gt, Variant.B, "predicted", 0.4)
        dets = append_stuff_boxes(scene.detections, scene.catalog, scene.height, scene.width)
        match = match_segments(gt, dets, 0.4, scene.catalog)
        kept = [i for i in range(len(dets)) if i not in match.removed_duplicates]
        removed += len(match.removed_duplicates)
        # A removed duplicate has no channel; every kept detection has its own.
        full = build_potential(scene.semantic_probs, dets, Variant.B, scene.catalog)
        assert bundle.potential.psi.tobytes() == full.psi[:, :, kept].tobytes()
        assert bundle.potential.n_channels == len(kept)
        # The target points at the kept positions of the matched detections.
        expected = np.full_like(gt.label_map, IGNORE)
        for pair in match.pairs:
            expected[gt.label_map == pair.gt_index] = kept.index(pair.detection_index)
        assert np.array_equal(bundle.target.label_map, expected)
    assert removed > 0


def owned_arrays(obj):
    """The arrays that own their data among those reachable from ``obj``
    through dataclass fields, lists, tuples and the bases of views."""
    seen, owners, todo = set(), [], [obj]
    while todo:
        x = todo.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, np.ndarray):
            if x.base is None:
                owners.append(x)
            else:
                todo.append(x.base)
        elif dataclasses.is_dataclass(x):
            todo.extend(getattr(x, f.name) for f in dataclasses.fields(x))
        elif isinstance(x, (list, tuple)):
            todo.extend(x)
    return owners


def test_pool_bundle_holds_only_what_a_step_reads():
    cfg = TrainConfig(scenes=3, seed=5, scene=POOL_SCENE, match_threshold=0.4)
    assert cfg.scene.with_masks
    for i, bundle in enumerate(make_pool(cfg)):
        owners = owned_arrays(bundle)
        read = [bundle.potential.psi, bundle.scene.features, bundle.target.label_map,
                bundle.valid_pixels, bundle.ignored_pixels, bundle.target_flat]
        assert sum(a.nbytes for a in owners) == sum(a.nbytes for a in read)
        scene, _ = synth_scene(cfg.scene, seed=cfg.seed + i)
        cues = [scene.semantic_probs] + [d.mask for d in scene.detections]
        assert len(cues) > 1
        held = {a.tobytes() for a in owners}
        assert not any(c.tobytes() in held for c in cues)
        assert bundle.scene.features.tobytes() == scene.features.tobytes()


def test_make_pool_builds_one_scene_at_a_time(monkeypatch):
    from panfuse import train

    probs, alive = [], []

    def synth(cfg, seed):
        scene, gt = synth_scene(cfg, seed=seed)
        probs.append(weakref.ref(scene.semantic_probs))
        gc.collect()
        alive.append(sum(ref() is not None for ref in probs))
        return scene, gt

    monkeypatch.setattr(train, "synth_scene", synth)
    cfg = TrainConfig(scenes=5, seed=2, scene=POOL_SCENE, match_threshold=0.4)
    pool = make_pool(cfg)
    gc.collect()
    assert len(pool) == 5 and alive == [1] * 5
    assert all(ref() is None for ref in probs)


def test_pool_generation_error_names_the_pool_scene_and_seed():
    crowded = small_cfg(scene=replace(SMALL_SCENE, n_instances=40), seed=7)
    with pytest.raises(GenerationError, match=r"^training scene 0 \(seed 7\): could not place "):
        make_pool(crowded)
    with pytest.raises(GenerationError, match=r"^held-out scene 0 \(seed 10014\): could not place "):
        make_eval_pool(crowded)


def test_train_toy_matches_reference_loop():
    assert_train_toy_matches_reference_loop(POOL_SCENE, steps=200, scenes=8,
                                            min_channels=1)


def test_train_toy_matches_reference_loop_wide():
    # At least 8 channels per scene: numpy's pairwise channel sum.
    assert_train_toy_matches_reference_loop(WIDE_SCENE, steps=60, scenes=4,
                                            min_channels=8)


def assert_train_toy_matches_reference_loop(scene_cfg, steps, scenes, min_channels):
    cfg = TrainConfig(steps=steps, seed=4, scenes=scenes, eval_scenes=1,
                      scene=scene_cfg, match_threshold=0.4)
    report = train_toy(cfg)

    pool = make_pool(cfg)
    assert min(b.potential.n_channels for b in pool) >= min_channels
    params = AffinityParams.init(cfg.scene.feature_dim, seed=cfg.seed,
                                 scale=cfg.param_scale)
    losses = []
    for step in range(cfg.steps):
        loss, d_w0, d_b0, d_w1, d_b1 = reference_step(pool[step % len(pool)], params)
        losses.append(loss)
        lr = cfg.learning_rate
        params = AffinityParams(w0=params.w0 - lr * d_w0, b0=params.b0 - lr * d_b0,
                                w1=params.w1 - lr * d_w1, b1=params.b1 - lr * d_b1)
    assert report.loss_curve == losses
    for name in ("w0", "b0", "w1", "b1"):
        assert (getattr(report.params, name) == getattr(params, name)).all()


def test_train_toy_without_affinity_matches_training_loss_loop():
    cfg = TrainConfig(steps=37, seed=2, scenes=8, eval_scenes=1, scene=POOL_SCENE,
                      match_threshold=0.4, use_affinity=False)
    report = train_toy(cfg)
    pool = make_pool(cfg)
    visits = [pool[step % len(pool)] for step in range(cfg.steps)]
    losses = [panoptic_matching_loss(b.potential.psi, b.target)[0] for b in visits]
    assert report.loss_curve == losses
    assert len(set(losses)) > 1
    short = train_toy(replace(cfg, steps=3))  # fewer steps than pool scenes
    assert short.loss_curve == losses[:3]


@pytest.mark.parametrize("how", ["horizontal", "vertical", "transpose"])
@given(shape=st.sampled_from([(12, 30), (33, 21)]), n_instances=st.integers(0, 5),
       seed=st.integers(0, 10_000), variant=st.sampled_from(list(Variant)),
       source=st.sampled_from(DETECTIONS_SOURCES), scale=st.sampled_from([0.15, 1.0]))
def test_flipping_a_training_scene_keeps_its_loss_and_gradients(how, shape, n_instances, seed,
                                                                variant, source, scale):
    """The loss and the gradients sum over pixels in another order, so they
    agree to 1e-10 relative (about 1e-13 is seen). A pixel whose projection
    is within 1e-9 of a rectifier's kink may switch sides: such cases are
    skipped."""
    cfg = SynthConfig(height=shape[0], width=shape[1], n_instances=n_instances,
                      instance_min=3, instance_max=7, box_truncation=0.3, box_jitter=1.0)
    scene, gt = synth_scene(cfg, seed)
    params = AffinityParams.init(16, seed, scale=scale)
    flat = scene.features.reshape(-1, 16)
    for weight, bias in ((params.w0, params.b0), (params.w1, params.b1)):
        pre = np.abs(flat @ weight + bias)
        assume((pre > 1e-9 * pre.max()).all())
    want = loss_and_grads(prepare_training_scene(scene, gt, variant, source, 0.5), params)
    got = loss_and_grads(prepare_training_scene(flip_scene(scene, how), flip_ground_truth(gt, how),
                                                variant, source, 0.5), params)
    assert got[0] == pytest.approx(want[0], rel=1e-10, abs=0)
    for g, w in zip(got[1:], want[1:]):
        assert np.abs(g - w).max() <= 1e-10 * np.abs(w).max()
