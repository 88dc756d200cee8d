import numpy as np
import pytest

from panfuse.inference import PanopticMap, Segment, panoptic_from_ground_truth, trim_small_stuff
from panfuse.metrics import (
    AP_IOU_THRESHOLDS,
    PQStats,
    box_average_precision,
    mean_iou,
    panoptic_quality,
    thing_stuff_confusion,
)
from panfuse.numerics import VOID
from panfuse.scene import Box, ClassCatalog, Detection, SynthConfig, synth_scene


def pmap_from_grid(grid, classes, kinds):
    grid = np.asarray(grid, dtype=np.int32)
    segments = []
    thing_counter = 1
    for idx, (cid, kind) in enumerate(zip(classes, kinds)):
        area = int((grid == idx).sum())
        iid = 0
        if kind == "thing":
            iid = thing_counter
            thing_counter += 1
        segments.append(Segment(idx, cid, kind, area, iid))
    return PanopticMap(label_map=grid, segments=segments)


def test_pq_perfect_prediction():
    catalog = ClassCatalog(n_stuff=2, n_thing=1)
    scene, gt = synth_scene(SynthConfig(n_stuff=2, n_thing=1), seed=3)
    gt_map = panoptic_from_ground_truth(gt, scene.catalog)
    report = panoptic_quality(gt_map, gt_map, scene.catalog)
    for r in report.per_class.values():
        assert r.pq == 1.0 and r.sq == 1.0 and r.rq == 1.0
    assert report.aggregates["all"] == (1.0, 1.0, 1.0)
    del catalog


def test_pq_hand_case():
    # One gt segment matched at IoU 0.6, one missed, same class:
    # sq = 0.6, rq = 2/3, pq = 0.4.
    catalog = ClassCatalog(n_stuff=1, n_thing=1)
    gt_grid = np.zeros((10, 10), dtype=np.int32)
    gt_grid[0:5, :] = 1   # segment 1: 50 px, thing
    gt_grid[6:9, 0:5] = 2  # segment 2: 15 px, thing (missed)
    gt_map = pmap_from_grid(gt_grid, [0, 1, 1], ["stuff", "thing", "thing"])

    pred_grid = np.zeros((10, 10), dtype=np.int32)
    pred_grid[0:3, :] = 1  # 30 px subset of gt segment 1: IoU 30/50 = 0.6
    pred_map = pmap_from_grid(pred_grid, [0, 1], ["stuff", "thing"])

    report = panoptic_quality(pred_map, gt_map, catalog)
    thing = report.per_class[1]
    assert abs(thing.sq - 0.6) < 1e-12
    assert abs(thing.rq - 2 / 3) < 1e-12
    assert abs(thing.pq - 0.4) < 1e-12
    assert thing.pq == thing.sq * thing.rq


def test_pq_void_exemptions():
    catalog = ClassCatalog(n_stuff=1, n_thing=1)
    gt_grid = np.full((8, 8), VOID, dtype=np.int32)
    gt_grid[:4, :] = 0
    gt_map = PanopticMap(gt_grid, [Segment(0, 0, "stuff", 32, 0)])
    # Prediction: one segment matching gt stuff, one entirely on gt VOID.
    pred_grid = np.full((8, 8), -1, dtype=np.int32)
    pred_grid[:4, :] = 0
    pred_grid[5:8, :] = 1
    pred_map = pmap_from_grid(pred_grid, [0, 1], ["stuff", "thing"])
    report = panoptic_quality(pred_map, gt_map, catalog)
    assert report.per_class[0].tp == 1
    assert 1 not in report.per_class or report.per_class[1].fp == 0


def test_pq_product_invariant():
    rng = np.random.default_rng(4)
    catalog = ClassCatalog(n_stuff=2, n_thing=2)
    stats = PQStats()
    for seed in range(5):
        scene, gt = synth_scene(
            SynthConfig(n_stuff=2, n_thing=2, box_truncation=0.2,
                        confusion_rate=0.3), seed=seed)
        gt_map = panoptic_from_ground_truth(gt, scene.catalog)
        # Perturb prediction: relabel some pixels randomly.
        noisy = gt_map.label_map.copy()
        flip = rng.random(noisy.shape) < 0.2
        noisy[flip] = rng.integers(0, len(gt_map.segments), size=int(flip.sum()))
        pred = PanopticMap(noisy, gt_map.segments)
        stats.accumulate(pred, gt_map)
    report = stats.report(catalog)
    for r in report.per_class.values():
        assert r.pq == r.sq * r.rq  # exact, by construction


def test_pq_instance_relabeling_invariant():
    catalog = ClassCatalog(n_stuff=1, n_thing=1)
    grid = np.zeros((8, 8), dtype=np.int32)
    grid[:4, :4] = 1
    grid[4:, 4:] = 2
    gt_map = pmap_from_grid(grid, [0, 1, 1], ["stuff", "thing", "thing"])
    relabeled_grid = np.zeros((8, 8), dtype=np.int32)
    relabeled_grid[:4, :4] = 2
    relabeled_grid[4:, 4:] = 1
    pred = pmap_from_grid(relabeled_grid, [0, 1, 1], ["stuff", "thing", "thing"])
    report = panoptic_quality(pred, gt_map, catalog)
    assert report.aggregates["all"] == (1.0, 1.0, 1.0)


def test_pq_accumulation_associative():
    catalog = ClassCatalog(n_stuff=3, n_thing=3)
    scenes = [synth_scene(SynthConfig(confusion_rate=0.2), seed=s) for s in range(4)]
    preds = []
    for scene, gt in scenes:
        gm = panoptic_from_ground_truth(gt, scene.catalog)
        preds.append((trim_small_stuff(gm, 60), gm))
    seq = PQStats()
    for p, g in preds:
        seq.accumulate(p, g)
    left = PQStats()
    right = PQStats()
    for p, g in preds[:2]:
        left.accumulate(p, g)
    for p, g in preds[2:]:
        right.accumulate(p, g)
    merged = left.merge(right)
    for cid, s in seq.per_class.items():
        m = merged.per_class[cid]
        assert (s.tp, s.fp, s.fn) == (m.tp, m.fp, m.fn)
        assert s.iou_sum == m.iou_sum


def test_trim_changes_only_stuff_counts():
    catalog = ClassCatalog(n_stuff=2, n_thing=2)
    scene, gt = synth_scene(SynthConfig(n_stuff=2, n_thing=2, stuff_segments=2),
                            seed=8)
    gt_map = panoptic_from_ground_truth(gt, scene.catalog)
    stuff_areas = [s.area for s in gt_map.segments if s.kind == "stuff"]
    threshold = sorted(stuff_areas)[0] + 1  # voids at least one stuff segment
    trimmed = trim_small_stuff(gt_map, threshold)
    before = panoptic_quality(gt_map, gt_map, scene.catalog)
    after = panoptic_quality(trimmed, gt_map, scene.catalog)
    for cid in before.per_class:
        b, a = before.per_class[cid], after.per_class[cid]
        if scene.catalog.is_thing(cid):
            assert (b.tp, b.fp, b.fn, b.iou_sum) == (a.tp, a.fp, a.fn, a.iou_sum)
    changed = any(
        (before.per_class[c].tp, before.per_class[c].fn)
        != (after.per_class[c].tp, after.per_class[c].fn)
        for c in before.per_class if scene.catalog.is_stuff(c)
    )
    assert changed


def test_mean_iou_identical_maps():
    catalog = ClassCatalog(n_stuff=2, n_thing=1)
    m = np.array([[0, 1], [2, 0]], dtype=np.int32)
    per_class, mean = mean_iou(m, m, catalog)
    assert all(v == 1.0 for v in per_class.values())
    assert mean == 1.0


def test_mean_iou_half_overlap():
    catalog = ClassCatalog(n_stuff=2, n_thing=0)
    h = w = 8
    pred = np.ones((h, w), dtype=np.int32)
    pred[:, : w // 2] = 0  # left half class 0
    gt = np.ones((h, w), dtype=np.int32)
    gt[: h // 2, :] = 0    # top half class 0
    per_class, _ = mean_iou(pred, gt, catalog)
    assert np.isclose(per_class[0], 1 / 3)
    assert np.isclose(per_class[1], 1 / 3)


def test_mean_iou_absent_class_excluded():
    catalog = ClassCatalog(n_stuff=3, n_thing=0)
    m = np.zeros((4, 4), dtype=np.int32)
    per_class, mean = mean_iou(m, m, catalog)
    assert set(per_class) == {0}
    assert mean == 1.0


def test_confusion_perfect():
    catalog = ClassCatalog(n_stuff=1, n_thing=1)
    m = np.array([[0, 1], [1, 0]], dtype=np.int32)
    conf = thing_stuff_confusion(m, m, catalog)
    assert np.allclose(conf.percentages(), [[100.0, 0.0], [0.0, 100.0]])


def test_confusion_all_things_predicted_stuff():
    catalog = ClassCatalog(n_stuff=1, n_thing=1)
    gt = np.full((4, 4), 1, dtype=np.int32)
    pred = np.zeros((4, 4), dtype=np.int32)
    conf = thing_stuff_confusion(pred, gt, catalog)
    assert np.allclose(conf.percentages()[0], [0.0, 100.0])
    assert conf.counts[1].sum() == 0


def test_confusion_tracks_injected_rate():
    # Monte-Carlo agreement with the generator: a thing pixel flips with
    # probability r to a uniform donor class, so the expected measured
    # thing->stuff rate is r * n_stuff / n_classes.
    r = 0.4
    cfg = SynthConfig(height=128, width=128, n_instances=8, instance_min=20,
                      instance_max=30, confusion_rate=r)
    scene, gt = synth_scene(cfg, seed=10)
    classes = {s.index: s.class_id for s in gt.segments}
    gt_classes = np.vectorize(classes.get)(gt.label_map).astype(np.int32)
    pred_classes = scene.semantic_probs.argmax(axis=2).astype(np.int32)
    conf = thing_stuff_confusion(pred_classes, gt_classes, scene.catalog)
    measured = conf.percentages()[0, 1] / 100.0
    expected = r * cfg.n_stuff / (cfg.n_stuff + cfg.n_thing)
    assert abs(measured - expected) < 0.02


def test_ap_perfect_detections():
    gt_boxes = [(1, Box(0, 0, 4, 4)), (1, Box(8, 8, 12, 12)), (2, Box(4, 0, 6, 2))]
    dets = [Detection(b, 0.5 + 0.1 * i, c) for i, (c, b) in enumerate(gt_boxes)]
    assert box_average_precision(dets, gt_boxes) == 1.0


def test_ap_no_detections():
    assert box_average_precision([], [(1, Box(0, 0, 2, 2))]) == 0.0


def test_ap_ranked_fp_after_tp():
    gt_boxes = [(1, Box(0, 0, 4, 4))]
    dets = [Detection(Box(0, 0, 4, 4), 0.9, 1),
            Detection(Box(10, 10, 14, 14), 0.8, 1)]
    assert box_average_precision(dets, gt_boxes) == 1.0


def test_ap_missed_gt_halves_recall():
    gt_boxes = [(1, Box(0, 0, 4, 4)), (1, Box(8, 8, 12, 12))]
    dets = [Detection(Box(0, 0, 4, 4), 0.9, 1)]
    # One of two gt boxes found at IoU 1: AP = 0.5 at every threshold.
    assert np.isclose(box_average_precision(dets, gt_boxes), 0.5)


def per_threshold_ap(dets, gt_boxes):
    """Box AP recomputing every IoU at every threshold."""
    from panfuse.matching import box_iou

    classes = sorted({cid for cid, _ in gt_boxes})
    if not classes:
        return 0.0
    values = []
    for cid in classes:
        gts = [b for c, b in gt_boxes if c == cid]
        ranked = sorted([(d.score, i, d.box) for i, d in enumerate(dets) if d.class_id == cid],
                        key=lambda item: (-item[0], item[1]))
        for threshold in AP_IOU_THRESHOLDS:
            if not ranked:
                values.append(0.0)
                continue
            taken = [False] * len(gts)
            flags = []
            for _, _, box in ranked:
                best_iou, best_j = 0.0, -1
                for j, gtb in enumerate(gts):
                    if not taken[j] and box_iou(box, gtb) > best_iou:
                        best_iou, best_j = box_iou(box, gtb), j
                hit = best_j >= 0 and best_iou >= threshold
                if hit:
                    taken[best_j] = True
                flags.append(1.0 if hit else 0.0)
            tp = np.cumsum(flags)
            fp = np.cumsum(1.0 - np.asarray(flags))
            recall = tp / len(gts)
            envelope = np.maximum.accumulate((tp / np.maximum(tp + fp, 1e-12))[::-1])[::-1]
            ap, prev_r = 0.0, 0.0
            for r, p in zip(recall, envelope):
                ap += (r - prev_r) * p
                prev_r = r
            values.append(ap)
    return float(np.mean(values))


def random_box(rng, size=40):
    x0, y0 = (int(t) for t in rng.integers(0, size - 2, size=2))
    return Box(x0, y0, x0 + int(rng.integers(1, 16)), y0 + int(rng.integers(1, 16)))


@pytest.mark.parametrize("seed", range(20))
def test_ap_equals_per_threshold_reference(seed):
    rng = np.random.default_rng(seed)
    gt_boxes = [(int(rng.integers(3, 6)), random_box(rng)) for _ in range(rng.integers(0, 12))]
    dets = []
    for c, b in gt_boxes:  # near-duplicates of the ground truth, at varied overlap
        for _ in range(rng.integers(0, 3)):
            dx0, dy0, dx1, dy1 = (int(t) for t in rng.integers(-1, 2, size=4))
            x0, y0 = max(0, b.x0 + dx0), max(0, b.y0 + dy0)
            box = Box(x0, y0, max(x0 + 1, b.x1 + dx1), max(y0 + 1, b.y1 + dy1))
            dets.append(Detection(box, float(rng.random()), c))
    dets += [Detection(random_box(rng), float(rng.choice([0.5, rng.random()])),
                       int(rng.integers(3, 7))) for _ in range(rng.integers(0, 8))]
    assert box_average_precision(dets, gt_boxes) == per_threshold_ap(dets, gt_boxes)
