import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from panfuse.errors import DimensionError
from panfuse.inference import (
    PanopticMap,
    Segment,
    infer_panoptic,
    panoptic_from_ground_truth,
    trim_small_stuff,
)
from panfuse.metrics import (
    AP_IOU_THRESHOLDS,
    ConfusionTS,
    PQStats,
    box_average_precision,
    class_pixel_counts,
    mean_iou,
    thing_stuff_confusion,
    _interpolated_ap,
)
from panfuse.numerics import VOID
from panfuse.potential import ChannelInfo
from panfuse.scene import Box, ClassCatalog, Detection, SynthConfig, synth_scene
from reference import argmax_channels, interpolated_ap


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
    report = PQStats().accumulate(gt_map, gt_map).report(scene.catalog)
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

    report = PQStats().accumulate(pred_map, gt_map).report(catalog)
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
    report = PQStats().accumulate(pred_map, gt_map).report(catalog)
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
    report = PQStats().accumulate(pred, gt_map).report(catalog)
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


def test_report_keeps_its_counts_after_a_later_merge():
    catalog = ClassCatalog(n_stuff=3, n_thing=3)
    scene, gt = synth_scene(SynthConfig(confusion_rate=0.2), seed=2)
    gm = panoptic_from_ground_truth(gt, catalog)
    stats = PQStats().accumulate(trim_small_stuff(gm, 60), gm)
    report = stats.report(catalog)
    before = report.to_json_dict()
    stats.accumulate(gm, gm)
    assert report.to_json_dict() == before
    assert stats.report(catalog).to_json_dict() != before
    for cid, r in report.per_class.items():
        assert r is not stats.per_class[cid]
        denom = r.tp + 0.5 * r.fp + 0.5 * r.fn
        assert (r.sq, r.rq) == (r.iou_sum / r.tp if r.tp else 0.0, r.tp / denom)


def test_trim_changes_only_stuff_counts():
    catalog = ClassCatalog(n_stuff=2, n_thing=2)
    scene, gt = synth_scene(SynthConfig(n_stuff=2, n_thing=2, stuff_segments=2),
                            seed=8)
    gt_map = panoptic_from_ground_truth(gt, scene.catalog)
    stuff_areas = [s.area for s in gt_map.segments if s.kind == "stuff"]
    threshold = sorted(stuff_areas)[0] + 1  # voids at least one stuff segment
    trimmed = trim_small_stuff(gt_map, threshold)
    before = PQStats().accumulate(gt_map, gt_map).report(scene.catalog)
    after = PQStats().accumulate(trimmed, gt_map).report(scene.catalog)
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
    per_class, mean = mean_iou(class_pixel_counts(m, m, catalog), catalog)
    assert all(v == 1.0 for v in per_class.values())
    assert mean == 1.0


def test_mean_iou_half_overlap():
    catalog = ClassCatalog(n_stuff=2, n_thing=0)
    h = w = 8
    pred = np.ones((h, w), dtype=np.int32)
    pred[:, : w // 2] = 0  # left half class 0
    gt = np.ones((h, w), dtype=np.int32)
    gt[: h // 2, :] = 0    # top half class 0
    per_class, _ = mean_iou(class_pixel_counts(pred, gt, catalog), catalog)
    assert np.isclose(per_class[0], 1 / 3)
    assert np.isclose(per_class[1], 1 / 3)


def test_mean_iou_absent_class_excluded():
    catalog = ClassCatalog(n_stuff=3, n_thing=0)
    m = np.zeros((4, 4), dtype=np.int32)
    per_class, mean = mean_iou(class_pixel_counts(m, m, catalog), catalog)
    assert set(per_class) == {0}
    assert mean == 1.0


def test_confusion_perfect():
    catalog = ClassCatalog(n_stuff=1, n_thing=1)
    m = np.array([[0, 1], [1, 0]], dtype=np.int32)
    conf = thing_stuff_confusion(class_pixel_counts(m, m, catalog), catalog)
    assert np.allclose(conf.percentages(), [[100.0, 0.0], [0.0, 100.0]])


def test_confusion_all_things_predicted_stuff():
    catalog = ClassCatalog(n_stuff=1, n_thing=1)
    gt = np.full((4, 4), 1, dtype=np.int32)
    pred = np.zeros((4, 4), dtype=np.int32)
    conf = thing_stuff_confusion(class_pixel_counts(pred, gt, catalog), catalog)
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
    conf = thing_stuff_confusion(class_pixel_counts(pred_classes, gt_classes, scene.catalog),
                                 scene.catalog)
    measured = conf.percentages()[0, 1] / 100.0
    expected = r * cfg.n_stuff / (cfg.n_stuff + cfg.n_thing)
    assert abs(measured - expected) < 0.02


def test_ap_perfect_detections():
    gt_boxes = [(1, Box(0, 0, 4, 4)), (1, Box(8, 8, 12, 12)), (2, Box(4, 0, 6, 2))]
    dets = [Detection(b, 0.5 + 0.1 * i, c) for i, (c, b) in enumerate(gt_boxes)]
    assert box_average_precision(dets, gt_boxes) == 1.0


def test_ap_no_detections():
    assert box_average_precision([], [(1, Box(0, 0, 2, 2))]) == 0.0


def test_ap_without_ground_truth_things_is_zero():
    assert box_average_precision([Detection(Box(0, 0, 2, 2), 0.9, 1)], []) == 0.0


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


@given(flags=st.lists(st.sampled_from([0.0, 1.0]), min_size=1, max_size=60),
       extra_gt=st.integers(0, 30))
def test_interpolated_ap_has_the_bits_of_the_numpy_version(flags, extra_gt):
    n_gt = max(1, int(sum(flags))) + extra_gt
    assert _interpolated_ap(flags, n_gt).hex() == float(interpolated_ap(flags, n_gt)).hex()


# ---------------------------------------------------------------------------
# Count tables against the per-channel, per-code and per-class scans they
# replaced. The references below are those scans, kept verbatim.
# ---------------------------------------------------------------------------

def reference_accumulate(stats: PQStats, pred: PanopticMap, gt: PanopticMap) -> PQStats:
    gt_label = gt.label_map
    pred_label = pred.label_map
    n_gt = len(gt.segments)
    n_pred = len(pred.segments)
    gt_class = {s.index: s.class_id for s in gt.segments}
    pred_class = {s.index: s.class_id for s in pred.segments}
    code = (gt_label.astype(np.int64) + 1) * (n_pred + 1) + (pred_label + 1)
    codes, counts = np.unique(code, return_counts=True)
    inter = {}
    gt_area = np.zeros(n_gt, dtype=np.int64)
    pred_area = np.zeros(n_pred, dtype=np.int64)
    pred_void_overlap = np.zeros(n_pred, dtype=np.int64)
    for c, n in zip(codes, counts):
        g = int(c // (n_pred + 1)) - 1
        p = int(c % (n_pred + 1)) - 1
        inter[(g, p)] = int(n)
        if g >= 0:
            gt_area[g] += n
        if p >= 0:
            pred_area[p] += n
            if g < 0:
                pred_void_overlap[p] += n
    matched_gt, matched_pred = set(), set()
    for (g, p), n in inter.items():
        if g < 0 or p < 0 or gt_class[g] != pred_class[p]:
            continue
        union = gt_area[g] + pred_area[p] - n - pred_void_overlap[p]
        iou = n / union
        if iou > 0.5:
            s = stats._stats(gt_class[g])
            s.tp += 1
            s.iou_sum += iou
            matched_gt.add(g)
            matched_pred.add(p)
    for s in gt.segments:
        if s.index not in matched_gt:
            stats._stats(s.class_id).fn += 1
    for s in pred.segments:
        if s.index in matched_pred:
            continue
        if pred_area[s.index] > 0 and pred_void_overlap[s.index] / pred_area[s.index] > 0.5:
            continue
        stats._stats(s.class_id).fp += 1
    return stats


def reference_infer_panoptic(p, channel_meta):
    winners = argmax_channels(p)
    label = np.full(p.shape[:2], VOID, dtype=np.int32)
    segments = []
    next_instance = 1
    for k, info in enumerate(channel_meta):
        pixels = winners == k
        area = int(pixels.sum())
        if area == 0:
            continue
        if info.kind == "thing":
            instance_id = next_instance
            next_instance += 1
        else:
            instance_id = 0
        index = len(segments)
        label[pixels] = index
        segments.append(Segment(index=index, class_id=info.class_id,
                                kind=info.kind, area=area, instance_id=instance_id))
    return PanopticMap(label_map=label, segments=segments)


def reference_mean_iou(pred_classes, gt_classes, catalog):
    valid = gt_classes >= 0
    per_class = {}
    for cid in range(catalog.n_classes):
        p = (pred_classes == cid) & valid
        g = gt_classes == cid
        union = int((p | g).sum())
        if union == 0:
            continue
        per_class[cid] = int((p & g).sum()) / union
    mean = float(np.mean(list(per_class.values()))) if per_class else 0.0
    return per_class, mean


def reference_thing_stuff_confusion(pred_classes, gt_classes, catalog):
    valid = (gt_classes >= 0) & (pred_classes >= 0)
    gt_stuff = gt_classes < catalog.n_stuff
    pred_stuff = pred_classes < catalog.n_stuff
    conf = ConfusionTS()
    for gi, g_sel in enumerate((~gt_stuff, gt_stuff)):
        for pi, p_sel in enumerate((~pred_stuff, pred_stuff)):
            conf.counts[gi, pi] = int((valid & g_sel & p_sel).sum())
    return conf


catalogs = st.builds(ClassCatalog, st.integers(1, 3), st.integers(0, 3))
grid_shapes = st.tuples(st.integers(1, 7), st.integers(1, 7))


@st.composite
def panoptic_maps(draw, catalog, shape, like=None):
    """A map of up to 5 segments (possibly none) with VOID pixels.

    With ``like``, the grid is often ``like``'s grid relabeled segment by
    segment, so that IoU > 0.5 matches are common.
    """
    classes = draw(st.lists(st.integers(0, catalog.n_classes - 1), max_size=5))
    n = len(classes)
    if like is not None and draw(st.booleans()):
        relabel = np.array(draw(st.lists(st.integers(-1, n - 1), min_size=len(like.segments) + 1,
                                         max_size=len(like.segments) + 1)), dtype=np.int32)
        flip = draw(hnp.arrays(bool, shape, elements=st.sampled_from([False] * 3 + [True])))
        noise = draw(hnp.arrays(np.int32, shape, elements=st.integers(-1, n - 1)))
        grid = np.where(flip, noise, relabel[like.label_map])  # like's VOID takes relabel[-1]
    else:
        grid = draw(hnp.arrays(np.int32, shape, elements=st.integers(-1, n - 1)))
    segments, next_instance = [], 1
    for i, cid in enumerate(classes):
        thing = catalog.is_thing(cid)
        segments.append(Segment(i, cid, "thing" if thing else "stuff", int((grid == i).sum()),
                                next_instance if thing else 0))
        next_instance += thing
    return PanopticMap(label_map=grid, segments=segments)


@st.composite
def scored_scenes(draw, max_scenes=1):
    """A catalog and 1..``max_scenes`` (prediction, ground truth) pairs."""
    catalog = draw(catalogs)
    scenes = []
    for _ in range(draw(st.integers(1, max_scenes))):
        shape = draw(grid_shapes)
        gt = draw(panoptic_maps(catalog, shape))
        scenes.append((draw(panoptic_maps(catalog, shape, like=gt)), gt))
    return catalog, scenes


def items(stats: PQStats) -> list:
    return list(stats.per_class.items())  # insertion order feeds the aggregates


@given(scored_scenes())
def test_accumulate_equals_per_code_scan(case):
    _, [(pred, gt)] = case
    assert items(PQStats().accumulate(pred, gt)) == items(
        reference_accumulate(PQStats(), pred, gt))


@given(scored_scenes(max_scenes=4))
def test_scene_by_scene_totals_equal_references(case):
    catalog, scenes = case
    stats, reference, classes = PQStats(), PQStats(), 0
    for pred, gt in scenes:
        stats.merge(PQStats().accumulate(pred, gt))
        reference.merge(reference_accumulate(PQStats(), pred, gt))
        classes = classes + class_pixel_counts(pred.class_map(), gt.class_map(), catalog)
    assert items(stats) == items(reference)
    assert stats.report(catalog) == reference.report(catalog)
    pred_classes = np.concatenate([p.class_map().ravel() for p, _ in scenes])
    gt_classes = np.concatenate([g.class_map().ravel() for _, g in scenes])
    per_class, mean = mean_iou(classes, catalog)
    expected = reference_mean_iou(pred_classes, gt_classes, catalog)
    assert list(per_class.items()) == list(expected[0].items()) and mean == expected[1]
    confusion = thing_stuff_confusion(classes, catalog).counts
    expected = reference_thing_stuff_confusion(pred_classes, gt_classes, catalog).counts
    assert confusion.dtype == expected.dtype and np.array_equal(confusion, expected)


@st.composite
def class_maps(draw):
    catalog = draw(catalogs)
    shape = draw(grid_shapes)
    ids = st.integers(-1, catalog.n_classes - 1)
    return (catalog, draw(hnp.arrays(np.int32, shape, elements=ids)),
            draw(hnp.arrays(np.int32, shape, elements=ids)))


@given(class_maps())
def test_class_table_scores_equal_per_class_scans(case):
    catalog, pred, gt = case
    classes = class_pixel_counts(pred, gt, catalog)
    per_class, mean = mean_iou(classes, catalog)
    expected = reference_mean_iou(pred, gt, catalog)
    assert list(per_class.items()) == list(expected[0].items()) and mean == expected[1]
    assert np.array_equal(thing_stuff_confusion(classes, catalog).counts,
                          reference_thing_stuff_confusion(pred, gt, catalog).counts)


@st.composite
def logits_and_channels(draw):
    shape = draw(grid_shapes)
    kinds = draw(st.lists(st.sampled_from(["stuff", "thing"]), min_size=1, max_size=8))
    meta = [ChannelInfo(kind, draw(st.integers(0, 5))) for kind in kinds]
    # Few distinct values, so ties and channels that win nowhere are common.
    p = draw(hnp.arrays(np.float64, shape + (len(meta),),
                        elements=st.sampled_from([0.0, 0.5, 1.0, 2.0])))
    return p, meta


@given(logits_and_channels())
def test_infer_panoptic_equals_per_channel_scan(case):
    p, meta = case
    got, expected = infer_panoptic(argmax_channels(p), meta), reference_infer_panoptic(p, meta)
    assert got.label_map.dtype == expected.label_map.dtype
    assert np.array_equal(got.label_map, expected.label_map)
    assert got.segments == expected.segments


def test_iou_sum_adds_matches_in_ground_truth_order():
    # Three matches of one class whose float sum depends on the order of addition.
    gt = pmap_from_grid([[0] * 2 + [1] * 3 + [2] * 9], [1, 1, 1], ["thing"] * 3)
    pred = pmap_from_grid([[2, 2, 1, 1, VOID] + [0] * 7 + [VOID] * 2], [1, 1, 1], ["thing"] * 3)
    stats = PQStats().accumulate(pred, gt).per_class[1]
    assert stats.tp == 3 and stats.iou_sum == 0.0 + 1.0 + 2 / 3 + 7 / 9
    assert stats.iou_sum != 0.0 + 7 / 9 + 2 / 3 + 1.0  # the order of the predictions


def test_accumulate_rejects_labels_outside_the_segment_list():
    gt = pmap_from_grid([[0, 0], [0, 0]], [0], ["stuff"])
    pred = pmap_from_grid([[0, 1], [0, 0]], [0], ["stuff"])  # label 1, one segment
    with pytest.raises(DimensionError, match=r"predicted segment map holds values outside \[-1, 1\)"):
        PQStats().accumulate(pred, gt)
    with pytest.raises(DimensionError, match="ground-truth segment map"):
        PQStats().accumulate(gt, PanopticMap(np.full((2, 2), -2, np.int32), []))


@pytest.mark.parametrize("bad", [3, -2])
def test_class_pixel_counts_rejects_ids_outside_the_catalog(bad):
    catalog = ClassCatalog(n_stuff=2, n_thing=1)
    ok = np.zeros((2, 2), dtype=np.int32)
    odd = ok.copy()
    odd[1, 0] = bad
    with pytest.raises(DimensionError, match="predicted class map"):
        class_pixel_counts(odd, ok, catalog)
    with pytest.raises(DimensionError, match="ground-truth class map"):
        class_pixel_counts(ok, odd, catalog)
