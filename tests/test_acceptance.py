"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line when its assertions hold (pytest -s
or -v shows them). The training-backed criteria 06-09 train the ablation
presets of ``train.preset_configs`` at 40,000 steps and seed 0, as
``panfuse ablate`` does by default; a module-scoped fixture trains each
preset exactly once.
"""

import time

import numpy as np
import pytest

from panfuse.affinity import AffinityParams, apply_affinity_factored, estimate_costs
from panfuse.inference import (
    MergerParams,
    heuristic_merge,
    infer_panoptic,
    panoptic_from_ground_truth,
    panoptic_winners,
    trim_small_stuff,
)
from panfuse.matching import box_iou, match_segments
from panfuse.metrics import PQStats
from panfuse.numerics import VOID
from panfuse.potential import Variant, append_stuff_boxes, build_potential
from panfuse.scene import (
    Box,
    ClassCatalog,
    Detection,
    GroundTruthPanoptic,
    GtSegment,
    SynthConfig,
    load_scene,
    save_scene,
    synth_scene,
)
from panfuse.train import (
    TrainConfig,
    make_eval_pool,
    preset_configs,
    train_toy,
)

from gradients import scene_gradient_errors
from reference import apply_affinity_naive, argmax_channels
from test_matching import brute_force_total_iou


def report(number, detail):
    print(f"ACCEPTANCE {number:02d} PASS - {detail}")


# ---------------------------------------------------------------------------
# Shared training fixture
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def preset_runs():
    """Train a preset's configs on first use: ``runs(preset)`` gives its
    training reports and configs by row label, and the seconds it took."""
    trained = {}

    def runs(preset):
        if preset not in trained:
            t0 = time.time()
            configs, labels = preset_configs(preset, 40_000, 0)
            reports = {label: train_toy(cfg) for cfg, label in zip(configs, labels)}
            trained[preset] = (reports, dict(zip(labels, configs)), time.time() - t0)
        return trained[preset]
    return runs


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def test_criterion_01_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(101)
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
    elapsed = time.time() - t0
    assert worst <= 1e-10
    assert elapsed < 10
    report(1, f"factored vs naive max |diff| {worst:.2e} over 200 instances "
              f"({elapsed:.1f}s)")


def test_criterion_02_gradient_correctness():
    t0 = time.time()
    scene_cfg = SynthConfig(height=8, width=8, n_stuff=2, n_thing=2,
                            n_instances=1, instance_min=3, instance_max=5,
                            feature_dim=4, stuff_segments=2)
    checked = 0
    worst = 0.0
    seed = 0
    while checked < 20:
        scene, gt = synth_scene(scene_cfg, seed=seed)
        params = AffinityParams.init(4, seed=1000 + seed, scale=0.5, jitter=0.3)
        errors, min_preactivation = scene_gradient_errors(scene, gt, params, eps=1e-5)
        seed += 1
        if min_preactivation < 1e-3:
            continue  # finite differences are unreliable at a rectifier kink
        worst = max(worst, max(errors.values()))
        checked += 1
    elapsed = time.time() - t0
    assert worst <= 1e-6
    assert elapsed < 30
    report(2, f"max relative gradient error {worst:.2e} over 20 scenes "
              f"({elapsed:.1f}s)")


def test_criterion_03_cost_model():
    t0 = time.time()
    rep = estimate_costs(800, 1300, 4, 128, 100, 53, 4)
    gib = rep.affinity_matrix_bytes / 2**30
    assert rep.affinity_matrix_bytes == 65000**2 * 4
    assert abs(gib - 15.74) / 15.74 < 0.01
    assert abs(rep.factored_flops - 5.1e9) / 5.1e9 < 0.05
    elapsed = time.time() - t0
    assert elapsed < 1
    report(3, f"affinity matrix {gib:.2f} GiB, factored {rep.factored_flops:.3e} "
              f"madd-flops ({elapsed:.2f}s)")


def test_criterion_04_matching_optimality():
    t0 = time.time()
    rng = np.random.default_rng(104)
    catalog = ClassCatalog(n_stuff=1, n_thing=3)
    for _ in range(200):
        n_gt = int(rng.integers(1, 8))
        n_det = int(rng.integers(1, 8))
        segments = []
        for i in range(n_gt):
            x0, y0 = rng.integers(0, 10, 2)
            bw, bh = rng.integers(2, 7, 2)
            segments.append(GtSegment(i, 1 + int(rng.integers(0, 3)),
                                      Box(x0, y0, x0 + bw, y0 + bh), int(bw * bh)))
        dets = []
        for _ in range(n_det):
            x0, y0 = rng.integers(0, 10, 2)
            bw, bh = rng.integers(2, 7, 2)
            dets.append(Detection(Box(x0, y0, x0 + bw, y0 + bh),
                                  float(rng.random()), 1 + int(rng.integers(0, 3))))
        gt = GroundTruthPanoptic(label_map=np.zeros((16, 16), dtype=np.int32),
                                 segments=segments)
        match = match_segments(gt, dets, 0.5, catalog)
        total = sum(p.iou for p in match.pairs
                    if catalog.is_thing(segments[p.gt_index].class_id))
        assert np.isclose(total, brute_force_total_iou(segments, dets, 0.5, catalog),
                          atol=1e-12)
    elapsed = time.time() - t0
    assert elapsed < 10
    report(4, f"assignment total equals brute force on 200 instances ({elapsed:.1f}s)")


def test_criterion_05_pq_correctness():
    t0 = time.time()
    # Perfect prediction.
    scene, gt = synth_scene(SynthConfig(), seed=5)
    gt_map = panoptic_from_ground_truth(gt, scene.catalog)
    perfect = PQStats().accumulate(gt_map, gt_map).report(scene.catalog)
    for r in perfect.per_class.values():
        assert r.pq == 1.0 and r.sq == 1.0 and r.rq == 1.0
    # Hand case: one match at IoU 0.6 plus one miss of the same class.
    from test_metrics import pmap_from_grid

    catalog = ClassCatalog(n_stuff=1, n_thing=1)
    gt_grid = np.zeros((10, 10), dtype=np.int32)
    gt_grid[0:5, :] = 1
    gt_grid[6:9, 0:5] = 2
    gmap = pmap_from_grid(gt_grid, [0, 1, 1], ["stuff", "thing", "thing"])
    pred_grid = np.zeros((10, 10), dtype=np.int32)
    pred_grid[0:3, :] = 1
    pmap = pmap_from_grid(pred_grid, [0, 1], ["stuff", "thing"])
    rep = PQStats().accumulate(pmap, gmap).report(catalog)
    thing = rep.per_class[1]
    assert abs(thing.pq - 0.4) < 1e-12
    assert abs(thing.sq - 0.6) < 1e-12
    assert abs(thing.rq - 2 / 3) < 1e-12
    # pq == sq * rq always (exact, as computed).
    rng = np.random.default_rng(105)
    for seed in range(5):
        scene, gt = synth_scene(SynthConfig(confusion_rate=0.3), seed=seed)
        gmap = panoptic_from_ground_truth(gt, scene.catalog)
        noisy = gmap.label_map.copy()
        flip = rng.random(noisy.shape) < 0.3
        noisy[flip] = rng.integers(0, len(gmap.segments), size=int(flip.sum()))
        from panfuse.inference import PanopticMap

        noisy_map = PanopticMap(noisy, gmap.segments)
        rep = PQStats().accumulate(noisy_map, gmap).report(scene.catalog)
        for r in rep.per_class.values():
            assert r.pq == r.sq * r.rq
    elapsed = time.time() - t0
    assert elapsed < 5
    report(5, f"perfect 1.0, hand case 0.4/0.6/0.667 at 1e-12, pq == sq*rq "
              f"({elapsed:.1f}s)")


@pytest.mark.slow
def test_criterion_06_affinity_ablation(preset_runs):
    reports, _, elapsed = preset_runs("affinity")
    on, off = reports["affinity_on"], reports["affinity_off"]
    assert on.final_pq.pq("all") > off.final_pq.pq("all")
    assert on.loss_curve[-1] <= 0.5 * on.loss_curve[0]
    assert elapsed < 300
    report(6, f"trained affinity PQ {on.final_pq.pq('all'):.4f} > baseline "
              f"{off.final_pq.pq('all'):.4f}; loss {on.loss_curve[0]:.3f} -> "
              f"{on.loss_curve[-1]:.4f} ({elapsed:.0f}s shared with 7)")


def object_recovery(scene, gt, params, variant):
    """Fraction of each ground-truth thing segment recovered by inference.

    A pixel counts as recovered when the argmax of the inference forward
    assigns it to the channel of the detection matched to that segment;
    channel k is detection k.
    """
    winners, dets = panoptic_winners(scene, params, variant)
    match = match_segments(gt, dets, 0.1, scene.catalog)
    det_for_gt = {pair.gt_index: pair.detection_index for pair in match.pairs}
    fractions = []
    for seg in gt.segments:
        if not scene.catalog.is_thing(seg.class_id):
            continue
        det_index = det_for_gt.get(seg.index)
        if det_index is None:
            fractions.append(0.0)
            continue
        pixels = gt.label_map == seg.index
        fractions.append(float((winners[pixels] == det_index).mean()))
    return fractions


@pytest.mark.slow
def test_criterion_07_truncation_recovery(preset_runs):
    reports, configs, _ = preset_runs("affinity")
    cfg, params = configs["affinity_on"], reports["affinity_on"].params
    rec_on, rec_off, inbox = [], [], []
    for scene, gt in make_eval_pool(cfg):
        rec_on.extend(object_recovery(scene, gt, params, cfg.variant))
        rec_off.extend(object_recovery(scene, gt, None, cfg.variant))
        for seg, det in zip(
                (s for s in gt.segments if scene.catalog.is_thing(s.class_id)),
                scene.detections):
            overlap = (min(seg.box.x1, det.box.x1) - max(seg.box.x0, det.box.x0)) * \
                      (min(seg.box.y1, det.box.y1) - max(seg.box.y0, det.box.y0))
            inbox.append(max(overlap, 0) / seg.area)
    assert min(rec_on) >= 0.90
    for off, frac in zip(rec_off, inbox):
        assert off <= frac + 0.05
    report(7, f"trained recovery min {min(rec_on):.3f} >= 0.90; baseline "
              f"recovery bounded by the in-box fraction (+5 points)")


@pytest.mark.slow
def test_criterion_08_predicted_vs_ground_truth_training(preset_runs):
    reports, _, elapsed = preset_runs("detections")
    pred, gtd = reports["predicted_dets"], reports["ground_truth_dets"]
    assert pred.final_pq.pq("all") >= gtd.final_pq.pq("all")
    assert elapsed < 300
    report(8, f"predicted-detection training PQ {pred.final_pq.pq('all'):.4f} >= "
              f"ground-truth-detection PQ {gtd.final_pq.pq('all'):.4f} ({elapsed:.0f}s)")


@pytest.mark.slow
def test_criterion_09_variant_mechanism(preset_runs):
    reports, _, elapsed = preset_runs("variants")
    # Injected thing->stuff confusion: additive composition must win on things.
    thing_b = reports["confused_B"].final_pq.pq("things")
    thing_c = reports["confused_C"].final_pq.pq("things")
    assert thing_c > thing_b
    # Clean semantics with noisy masks: multiplicative composition holds up.
    all_b = reports["clean_B"].final_pq.pq("all")
    all_c = reports["clean_C"].final_pq.pq("all")
    assert all_b >= all_c
    assert elapsed < 600
    report(9, f"confused pool: thing-PQ C {thing_c:.4f} > B {thing_b:.4f}; "
              f"clean pool: PQ-all B {all_b:.4f} >= C {all_c:.4f} ({elapsed:.0f}s)")


def test_criterion_10_void_dichotomy():
    t0 = time.time()
    # Conflicting cues: two overlapping same-class instances; the merger
    # drops one, its leftovers fall to a stuff class whose region is below
    # the area threshold and becomes VOID.
    catalog = ClassCatalog(n_stuff=2, n_thing=1)
    h = w = 16
    v = np.zeros((h, w, 3))
    v[:, :14, 0] = 1.0
    v[:, 14:, 1] = 1.0  # narrow stuff strip: 32 px, below the area threshold
    m1 = np.zeros((h, w)); m1[2:10, 2:10] = 1.0
    m2 = np.zeros((h, w)); m2[2:10, 6:14] = 1.0  # 50% overlap with m1
    dets = [Detection(Box(2, 2, 10, 10), 0.9, 2, mask=m1),
            Detection(Box(6, 2, 14, 10), 0.8, 2, mask=m2)]
    merged = heuristic_merge(v, dets, MergerParams(overlap_threshold=0.4,
                                                   stuff_area_threshold=40),
                             catalog)
    void_pixels = int((merged.label_map == VOID).sum())
    assert void_pixels > 0

    full = append_stuff_boxes(dets, catalog, h, w)
    pot = build_potential(v, full, Variant.B, catalog)
    amax = infer_panoptic(argmax_channels(pot.psi), [d.class_id for d in full], catalog)
    assert int((amax.label_map == VOID).sum()) == 0
    elapsed = time.time() - t0
    assert elapsed < 1
    report(10, f"heuristic merger emits {void_pixels} VOID pixels, argmax emits 0 "
               f"({elapsed:.2f}s)")


def test_criterion_11_trim_small_stuff_properties():
    t0 = time.time()
    scene, gt = synth_scene(SynthConfig(n_stuff=3, stuff_segments=3), seed=11)
    gt_map = panoptic_from_ground_truth(gt, scene.catalog)
    stuff_areas = sorted(s.area for s in gt_map.segments if s.kind == "stuff")
    threshold = stuff_areas[0] + 1  # at least one stuff segment is sub-threshold
    trimmed = trim_small_stuff(gt_map, threshold)
    twice = trim_small_stuff(trimmed, threshold)
    assert np.array_equal(trimmed.label_map, twice.label_map)
    assert trimmed.segments == twice.segments

    before = PQStats().accumulate(gt_map, gt_map).report(scene.catalog)
    after = PQStats().accumulate(trimmed, gt_map).report(scene.catalog)
    for cid in before.per_class:
        if scene.catalog.is_thing(cid):
            b, a = before.per_class[cid], after.per_class[cid]
            assert (b.tp, b.fp, b.fn) == (a.tp, a.fp, a.fn)
            assert b.iou_sum == a.iou_sum  # bit-identical
    changed = any(
        (before.per_class[c].tp, before.per_class[c].fn, before.per_class[c].fp)
        != (after.per_class[c].tp, after.per_class[c].fn, after.per_class[c].fp)
        for c in before.per_class if scene.catalog.is_stuff(c)
    )
    assert changed
    elapsed = time.time() - t0
    assert elapsed < 1
    report(11, f"trim idempotent; thing stats bit-identical; stuff counts moved "
               f"({elapsed:.2f}s)")


def test_criterion_12_determinism_and_io(tmp_path):
    t0 = time.time()
    cfg = SynthConfig(with_masks=True, box_truncation=0.2, confusion_rate=0.2)
    s1, g1 = synth_scene(cfg, seed=12)
    s2, g2 = synth_scene(cfg, seed=12)
    assert np.array_equal(s1.semantic_probs, s2.semantic_probs)
    assert np.array_equal(s1.features, s2.features)
    assert np.array_equal(g1.label_map, g2.label_map)
    assert all(a.box == b.box and a.score == b.score for a, b in
               zip(s1.detections, s2.detections))

    save_scene(s1, tmp_path / "a", gt=g1, synth=cfg)
    save_scene(s1, tmp_path / "b", gt=g1, synth=cfg)
    for name in ("manifest.json", "semantic_probs.panc", "features.panc",
                 "gt_labels.panc"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    loaded, loaded_gt = load_scene(tmp_path / "a")
    assert np.array_equal(loaded.semantic_probs, s1.semantic_probs)
    assert np.array_equal(loaded_gt.label_map, g1.label_map)

    small = TrainConfig(steps=20, scenes=2, eval_scenes=1, seed=3,
                        scene=SynthConfig(height=16, width=16, n_instances=1,
                                          instance_min=4, instance_max=6))
    r1, r2 = train_toy(small), train_toy(small)
    assert r1.loss_curve == r2.loss_curve
    assert np.array_equal(r1.params.w0, r2.params.w0)

    from panfuse.inference import predict_panoptic

    p1 = predict_panoptic(s1, r1.params)
    p2 = predict_panoptic(s1, r2.params)
    assert np.array_equal(p1.label_map, p2.label_map)
    assert p1.segments == p2.segments
    elapsed = time.time() - t0
    assert elapsed < 10
    report(12, f"synth/run/train bit-reproducible; containers round-trip ({elapsed:.1f}s)")
