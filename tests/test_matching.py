import itertools

import numpy as np
import pytest

from panfuse.matching import (
    TargetMap,
    box_iou,
    build_target_map,
    match_segments,
    panoptic_matching_loss,
)
from panfuse.numerics import IGNORE
from panfuse.potential import append_stuff_boxes
from panfuse.scene import (
    Box,
    ClassCatalog,
    Detection,
    GroundTruthPanoptic,
    GtSegment,
    SynthConfig,
    synth_scene,
)

from gradients import finite_diff, rel_err


def brute_force_total_iou(gt_segments, dets, t, catalog):
    """Enumerate all feasible partial assignments and return the best total."""
    things = [s for s in gt_segments if catalog.is_thing(s.class_id)]
    det_things = [(i, d) for i, d in enumerate(dets) if catalog.is_thing(d.class_id)]
    iou = {}
    for g in things:
        for i, d in det_things:
            v = box_iou(g.box, d.box, g.class_id, d.class_id)
            if v >= t:
                iou[(g.index, i)] = v

    best = 0.0
    det_indices = [i for i, _ in det_things]

    def recurse(gi, used, total):
        nonlocal best
        if gi == len(things):
            best = max(best, total)
            return
        g = things[gi]
        recurse(gi + 1, used, total)  # leave g unmatched
        for i in det_indices:
            if i in used or (g.index, i) not in iou:
                continue
            recurse(gi + 1, used | {i}, total + iou[(g.index, i)])

    recurse(0, frozenset(), 0.0)
    return best


def make_gt(segment_specs, h=16, w=16):
    """Build ground truth from (class_id, Box) specs; boxes must be disjoint."""
    label = np.full((h, w), -1, dtype=np.int32)
    segments = []
    for idx, (class_id, box) in enumerate(segment_specs):
        label[box.y0:box.y1, box.x0:box.x1] = idx
        segments.append(GtSegment(idx, class_id, box, box.area))
    label[label < 0] = 0  # backfill into segment 0 to keep pixels labeled
    return GroundTruthPanoptic(label_map=label, segments=segments)


# ---------------------------------------------------------------------------
# Box geometry
# ---------------------------------------------------------------------------

def test_single_pixel_box():
    from panfuse.scene import tight_box

    mask = np.zeros((8, 8), dtype=bool)
    mask[3, 5] = True
    assert tight_box(mask) == Box(5, 3, 6, 4)


def test_l_shaped_bounding():
    from panfuse.scene import tight_box

    mask = np.zeros((4, 4), dtype=bool)
    mask[0, 0] = True
    mask[2, 2] = True
    assert tight_box(mask) == Box(0, 0, 3, 3)


def test_box_iou_cases():
    a = Box(0, 0, 2, 2)
    assert box_iou(a, a, 1, 1) == 1.0
    assert np.isclose(box_iou(Box(0, 0, 2, 2), Box(1, 1, 3, 3), 1, 1), 1 / 7)
    assert box_iou(a, a, 1, 2) == 0.0
    assert box_iou(Box(0, 0, 2, 2), Box(5, 5, 7, 7), 1, 1) == 0.0


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------

def test_perfect_detections_identity_match():
    scene, gt = synth_scene(SynthConfig(n_stuff=2, n_thing=2), seed=6)
    dets = append_stuff_boxes(scene.detections, scene.catalog,
                              scene.height, scene.width)
    match = match_segments(gt, dets, 0.5, scene.catalog)
    thing_pairs = [p for p in match.pairs
                   if scene.catalog.is_thing(gt.segments[p.gt_index].class_id)]
    assert len(thing_pairs) == len(scene.detections)
    assert all(p.iou == 1.0 for p in thing_pairs)
    assert match.unmatched_gt == []
    assert match.removed_duplicates == []


def test_infeasible_all_unmatched():
    catalog = ClassCatalog(n_stuff=1, n_thing=1)
    gt = make_gt([(1, Box(0, 0, 4, 4))])
    dets = append_stuff_boxes(
        [Detection(Box(10, 10, 14, 14), 0.9, 1)], catalog, 16, 16)
    match = match_segments(gt, dets, 0.5, catalog)
    assert all(catalog.is_stuff(gt.segments[p.gt_index].class_id) is False
               for p in match.pairs) or match.pairs == []
    assert 0 in match.unmatched_gt
    assert match.removed_duplicates == []


def test_duplicate_removal_hand_case():
    # 2 gt, 3 same-class dets with IoU matrix ~[[0.89,0,0],[0,0.71,0.57]]:
    # optimum pairs (g0,d0), (g1,d1); d2 is feasible for g1 only and loses
    # to the top match, so it is removed as a duplicate.
    catalog = ClassCatalog(n_stuff=1, n_thing=1)
    g0, g1 = Box(0, 0, 9, 10), Box(20, 0, 27, 10)

    def box_with_iou(gt_box, target):
        # Shrink the gt box from the right until IoU hits the target.
        for x1 in range(gt_box.x1, gt_box.x0, -1):
            cand = Box(gt_box.x0, gt_box.y0, x1, gt_box.y1)
            if abs(box_iou(cand, gt_box) - target) < 0.08:
                return cand
        raise AssertionError("no box found")

    d0 = box_with_iou(g0, 0.9)
    d1 = box_with_iou(g1, 0.7)
    d2 = box_with_iou(g1, 0.55)
    gt = GroundTruthPanoptic(
        label_map=np.zeros((10, 32), dtype=np.int32),
        segments=[GtSegment(0, 1, g0, g0.area), GtSegment(1, 1, g1, g1.area)],
    )
    dets = [Detection(d0, 0.9, 1), Detection(d1, 0.8, 1), Detection(d2, 0.7, 1)]
    iou01 = box_iou(d0, g0)
    iou11 = box_iou(d1, g1)
    iou21 = box_iou(d2, g1)
    assert iou01 >= 0.5 and iou11 >= 0.5 and iou21 >= 0.5
    match = match_segments(gt, dets, 0.5, catalog)
    pairs = {(p.gt_index, p.detection_index) for p in match.pairs}
    assert pairs == {(0, 0), (1, 1)}
    assert match.removed_duplicates == [2]
    total = sum(p.iou for p in match.pairs)
    assert np.isclose(total, brute_force_total_iou(gt.segments, dets, 0.5, catalog))


def test_matching_optimal_vs_brute_force_200():
    rng = np.random.default_rng(13)
    catalog = ClassCatalog(n_stuff=1, n_thing=3)
    for _ in range(200):
        n_gt = int(rng.integers(1, 8))
        n_det = int(rng.integers(1, 8))
        segments = []
        for i in range(n_gt):
            x0, y0 = rng.integers(0, 10, 2)
            bw, bh = rng.integers(2, 7, 2)
            cls = 1 + int(rng.integers(0, 3))
            segments.append(GtSegment(i, cls, Box(x0, y0, x0 + bw, y0 + bh),
                                      int(bw * bh)))
        dets = []
        for _ in range(n_det):
            x0, y0 = rng.integers(0, 10, 2)
            bw, bh = rng.integers(2, 7, 2)
            cls = 1 + int(rng.integers(0, 3))
            dets.append(Detection(Box(x0, y0, x0 + bw, y0 + bh),
                                  float(rng.random()), cls))
        gt = GroundTruthPanoptic(label_map=np.zeros((16, 16), dtype=np.int32),
                                 segments=segments)
        match = match_segments(gt, dets, 0.5, catalog)
        total = sum(p.iou for p in match.pairs
                    if catalog.is_thing(segments[p.gt_index].class_id))
        assert np.isclose(total,
                          brute_force_total_iou(segments, dets, 0.5, catalog),
                          atol=1e-12)


def test_matching_order_invariant_when_unique():
    catalog = ClassCatalog(n_stuff=1, n_thing=1)
    gt = make_gt([(1, Box(0, 0, 8, 8)), (1, Box(8, 8, 16, 16))])
    dets = [Detection(Box(0, 0, 8, 7), 0.9, 1), Detection(Box(8, 8, 16, 15), 0.8, 1)]
    base = match_segments(gt, dets, 0.5, catalog)
    base_pairs = {(p.gt_index, dets[p.detection_index].box) for p in base.pairs}
    for perm in itertools.permutations(range(2)):
        shuffled = [dets[i] for i in perm]
        m = match_segments(gt, shuffled, 0.5, catalog)
        pairs = {(p.gt_index, shuffled[p.detection_index].box) for p in m.pairs}
        assert pairs == base_pairs


def test_stuff_matches_by_class_identity():
    catalog = ClassCatalog(n_stuff=2, n_thing=1)
    # Stuff segment with a tight box much smaller than the full image:
    # identity matching must still pair it with its pseudo-detection.
    gt = make_gt([(1, Box(0, 0, 4, 4)), (0, Box(4, 4, 16, 16))])
    dets = append_stuff_boxes([], catalog, 16, 16)
    match = match_segments(gt, dets, 0.5, catalog)
    by_gt = {p.gt_index: p.detection_index for p in match.pairs}
    assert dets[by_gt[0]].class_id == 1
    assert dets[by_gt[1]].class_id == 0
    assert match.unmatched_gt == []


# ---------------------------------------------------------------------------
# Target maps
# ---------------------------------------------------------------------------

def match_and_keep(scene, gt, t=0.5):
    """The match of a scene's detections and the positions that keep a
    channel, as in training."""
    dets = append_stuff_boxes(scene.detections, scene.catalog,
                              scene.height, scene.width)
    match = match_segments(gt, dets, t, scene.catalog)
    return match, [i for i in range(len(dets)) if i not in match.removed_duplicates]


def test_target_map_perfect_detections():
    scene, gt = synth_scene(SynthConfig(), seed=14)
    target = build_target_map(gt, *match_and_keep(scene, gt))
    assert (target.label_map == IGNORE).sum() == 0
    # Every stuff pixel maps to its class channel: stuff comes first.
    for seg in gt.segments:
        if scene.catalog.is_stuff(seg.class_id):
            assert (target.label_map[gt.label_map == seg.index] == seg.class_id).all()


def test_target_map_unmatched_becomes_ignore():
    catalog = ClassCatalog(n_stuff=1, n_thing=1)
    gt = make_gt([(0, Box(0, 0, 16, 16)), (1, Box(2, 2, 9, 9))], h=16, w=16)
    # Fix the label map: thing pixels overwrite stuff.
    assert gt.segments[1].area == 49
    dets = append_stuff_boxes([], catalog, 16, 16)  # no thing detections
    match = match_segments(gt, dets, 0.5, catalog)
    target = build_target_map(gt, match, list(range(len(dets))))
    assert (target.label_map == IGNORE).sum() == 49


def test_target_map_stuff_only_scene():
    scene, gt = synth_scene(SynthConfig(n_instances=0), seed=3)
    target = build_target_map(gt, *match_and_keep(scene, gt))
    for seg in gt.segments:
        assert (target.label_map[gt.label_map == seg.index] == seg.class_id).all()


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

def test_loss_uniform_logits():
    for k in (2, 5, 9):
        p = np.zeros((4, 4, k))
        target = TargetMap(np.zeros((4, 4), dtype=np.int32))
        loss, grad = panoptic_matching_loss(p, target)
        assert np.isclose(loss, np.log(k), atol=1e-15)
        assert grad.shape == p.shape


def test_loss_saturated_margin():
    p = np.zeros((3, 3, 4))
    p[:, :, 2] = 50.0
    target = TargetMap(np.full((3, 3), 2, dtype=np.int32))
    loss, _ = panoptic_matching_loss(p, target)
    assert loss <= 1e-20


def test_loss_all_ignore():
    p = np.random.default_rng(0).normal(size=(3, 3, 4))
    target = TargetMap(np.full((3, 3), IGNORE, dtype=np.int32))
    loss, grad = panoptic_matching_loss(p, target)
    assert loss == 0.0
    assert not grad.any()


def test_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(15)
    p = rng.normal(size=(8, 8, 6))
    labels = rng.integers(0, 6, size=(8, 8)).astype(np.int32)
    labels[0, :4] = IGNORE
    target = TargetMap(labels)
    _, grad = panoptic_matching_loss(p, target)
    numeric = finite_diff(lambda t: panoptic_matching_loss(t, target)[0], p, eps=1e-6)
    assert rel_err(grad, numeric) <= 1e-6


def test_float32_mode_preserved():
    # 32-bit logits keep a 32-bit gradient through the loss (bench parity mode).
    rng = np.random.default_rng(4)
    p = rng.normal(size=(3, 3, 4)).astype(np.float32)
    labels = rng.integers(0, 4, size=(3, 3)).astype(np.int32)
    _, grad = panoptic_matching_loss(p, TargetMap(labels))
    assert grad.dtype == np.float32


def test_loss_permutation_equivariant():
    rng = np.random.default_rng(16)
    p = rng.normal(size=(6, 6, 5))
    labels = rng.integers(0, 5, size=(6, 6)).astype(np.int32)
    loss, _ = panoptic_matching_loss(p, TargetMap(labels))
    perm = rng.permutation(5)
    inv = np.argsort(perm)
    loss_p, _ = panoptic_matching_loss(p[:, :, perm], TargetMap(inv[labels].astype(np.int32)))
    assert loss == loss_p
