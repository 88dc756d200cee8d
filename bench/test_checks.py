"""Tests of the benchmark's own checks.

    python3 -m pytest -q bench/test_checks.py

The independent PQ counter and argmax recomputation are held to
hand-built cases, and corrupted outputs of real runs must come out as
failed operations.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import workloads  # noqa: E402
from run import timed_phase  # noqa: E402


# ---------------------------------------------------------------------------
# Hand-built cases
# ---------------------------------------------------------------------------

def test_pq_counts_hand_case():
    # 4x4 grid. Ground truth: stuff class 0 on the left half (segment 0),
    # thing class 2 in the top-right 2x2 (segment 1), thing class 2 in the
    # bottom-right 2x2 (segment 2).
    gt = np.array([[0, 0, 1, 1],
                   [0, 0, 1, 1],
                   [0, 0, 2, 2],
                   [0, 0, 2, 2]])
    gt_classes = {0: 0, 1: 2, 2: 2}
    # Prediction: stuff takes the left half plus one pixel of segment 1
    # (IoU 8/9); one thing of 7 pixels covers the rest of the right half:
    # IoU 3/8 with segment 1 (no match, one FN) and 4/7 with segment 2 (TP).
    pred = np.array([[0, 0, 0, 2001],
                     [0, 0, 2001, 2001],
                     [0, 0, 2001, 2001],
                     [0, 0, 2001, 2001]], dtype=np.uint32)
    counts = checks.pq_counts(gt, gt_classes, pred, {0: 0, 2001: 2})
    assert counts[0][:3] == [1, 0, 0] and counts[0][3] == pytest.approx(8 / 9)
    assert counts[2][:3] == [1, 0, 1] and counts[2][3] == pytest.approx(4 / 7)
    assert checks.pq_from_counts(*counts[0]) == pytest.approx((8 / 9, 8 / 9, 1.0))
    # Class 2: SQ 4/7, RQ 1 / (1 + 0.5) = 2/3.
    assert checks.pq_from_counts(*counts[2]) == pytest.approx((8 / 21, 4 / 7, 2 / 3))


def test_pq_counts_void_semantics():
    # Ground-truth VOID (-1) leaves the union; a prediction lying mostly on
    # VOID is no false positive.
    gt = np.array([[0, 0, -1, -1],
                   [0, 0, -1, -1]])
    pred = np.array([[0, 0, 0, 1001],
                     [0, 0, 0, 1001]], dtype=np.uint32)
    counts = checks.pq_counts(gt, {0: 0}, pred, {0: 0, 1001: 1})
    # Stuff: intersection 4, union 6 + 0 - 4 - 2 (on VOID) = 4 -> IoU 1.
    assert counts == {0: [1, 0, 0, 1.0]}


def test_pq_counts_perfect_and_agrees_with_program():
    from panfuse.inference import panoptic_from_ground_truth
    from panfuse.metrics import PQStats
    from panfuse.scene import SynthConfig, synth_scene

    scene, gt = synth_scene(SynthConfig(with_masks=True), seed=3)
    gt_classes = {s.index: s.class_id for s in gt.segments}
    gt_map = panoptic_from_ground_truth(gt, scene.catalog)
    code = {s.index: s.encoded_id for s in gt_map.segments}
    grid = np.vectorize(code.get)(gt.label_map).astype(np.uint32)
    counts = checks.pq_counts(gt.label_map, gt_classes, grid,
                              {s.encoded_id: s.class_id for s in gt_map.segments})
    assert all(c[1] == 0 and c[2] == 0 and c[3] == c[0] for c in counts.values())

    # Shift the prediction by one column: some segments still match.
    shifted = gt_map.label_map.copy()
    shifted[:, 1:] = gt_map.label_map[:, :-1]
    ref = checks.pq_counts(gt.label_map, gt_classes,
                           np.vectorize(code.get)(shifted).astype(np.uint32),
                           {s.encoded_id: s.class_id for s in gt_map.segments})
    pred_map = type(gt_map)(label_map=shifted, segments=gt_map.segments)
    stats = PQStats().accumulate(pred_map, gt_map)
    assert {c: [s.tp, s.fp, s.fn] for c, s in stats.per_class.items()} == \
        {c: v[:3] for c, v in ref.items()}
    for c, s in stats.per_class.items():
        assert s.iou_sum == pytest.approx(ref[c][3], rel=1e-12)


def _scene(probs, dets, n_stuff, features=None):
    h, w, _ = probs.shape
    return {"n_stuff": n_stuff, "n_thing": probs.shape[2] - n_stuff, "probs": probs,
            "features": features if features is not None else np.zeros((h, w, 1)),
            "detections": dets, "gt_label": None, "gt_classes": None}


def test_fused_logits_hand_case_without_affinity():
    # 1x3 grid, classes: 0 stuff, 1 thing. One detection over columns 1..2.
    probs = np.array([[[1.0, 0.0], [0.2, 0.8], [0.6, 0.4]]])
    det = {"box": (1, 0, 3, 1), "score": 0.9, "class_id": 1,
           "mask": np.array([[0.0, 1.0, 1.0]])}
    low = {"box": (0, 0, 1, 1), "score": 0.4, "class_id": 1, "mask": np.ones((1, 3))}
    p, classes = checks.fused_logits(_scene(probs, [det, low], 1), None)
    assert classes == [0, 1]  # the detection under the threshold has no channel
    np.testing.assert_allclose(p[0], [[1.0, 0.0], [0.2, 0.72], [0.6, 0.36]])
    assert p.argmax(axis=2).tolist() == [[0, 1, 0]]


def test_fused_logits_hand_case_with_affinity():
    # Features 1-D; both projections are relu(f): q0 = q1 = f.
    # out = psi + f (f^T psi): pixels with f > 0 pool their potential.
    probs = np.array([[[1.0, 0.0], [0.0, 1.0], [0.3, 0.7]]])
    det = {"box": (1, 0, 3, 1), "score": 1.0, "class_id": 1, "mask": None}
    features = np.array([[[1.0], [0.0], [2.0]]])
    one = {"w0": np.eye(1), "b0": np.zeros(1), "w1": np.eye(1), "b1": np.zeros(1)}
    p, _ = checks.fused_logits(_scene(probs, [det], 1, features), one)
    # psi: stuff [1, 0, 0.3], thing [0, 1, 0.7]; f^T psi = [1.6, 1.4].
    np.testing.assert_allclose(p[0], [[2.6, 1.4], [0.0, 1.0], [3.5, 3.5]])
    assert p[0, :2].argmax(axis=1).tolist() == [0, 1]


# ---------------------------------------------------------------------------
# Corrupted outputs of real runs
# ---------------------------------------------------------------------------

@pytest.fixture
def infer_small(tmp_path):
    w = workloads.Infer(tmp_path, 7, workloads.POOL_FLAGS, ops=2, batches=1, warmup=0)
    assert w.setup() == []
    rounds = timed_phase(w, 0.0, first=0)
    return w, rounds


def _flip_one_label(pred_dir: Path) -> None:
    grid, segments = checks.read_prediction(pred_dir)
    grid = grid.copy()
    codes = [s["encoded_id"] for s in segments]
    grid[0, 0] = next(c for c in codes if c != grid[0, 0])
    checks.write_panc(pred_dir / "panoptic.panc", grid)


def test_clean_run_passes(infer_small):
    w, rounds = infer_small
    problems, failed = w.verify(rounds)
    assert problems == [] and failed == 0
    scene = checks.read_scene(w.scenes[0][0])
    grid, segments = checks.read_prediction(w.preds[0][0])
    assert checks.check_prediction(scene, grid, segments,
                                   checks.read_params(w.ckpt)) == []


def test_flipped_pixel_is_a_failed_operation(infer_small):
    w, rounds = infer_small
    _flip_one_label(w.preds[0][1])
    problems, failed = w.verify(rounds)
    assert problems and failed >= 1
    scene = checks.read_scene(w.scenes[0][1])
    grid, segments = checks.read_prediction(w.preds[0][1])
    found = checks.check_prediction(scene, grid, segments, checks.read_params(w.ckpt))
    assert any("area" in p for p in found)
    assert any("channel" in p for p in found)


def test_changed_sidecar_area_is_a_failed_operation(infer_small):
    w, rounds = infer_small
    path = w.preds[0][0] / "segments.json"
    sidecar = json.loads(path.read_text())
    sidecar["segments"][0]["area"] += 1
    path.write_text(json.dumps(sidecar))
    problems, failed = w.verify(rounds)
    assert any("sidecar area" in p for p in problems) and failed >= 1


def test_changed_eval_count_is_a_failed_operation(infer_small):
    w, rounds = infer_small
    payload = json.loads(w.evals[0].read_text())
    cls = next(iter(payload["pq"]["per_class"]))
    payload["pq"]["per_class"][cls]["fp"] += 1
    w.evals[0].write_text(json.dumps(payload))
    problems, failed = w.verify(rounds)
    assert any("tp/fp/fn" in p for p in problems) and failed == w.ops


@pytest.fixture
def train_run(tmp_path, monkeypatch):
    from panfuse import train

    monkeypatch.setattr(train, "make_pool", train.make_pool)
    monkeypatch.setattr(train, "make_eval_pool", train.make_eval_pool)
    w = workloads.Train(tmp_path, 5)
    assert w.setup() == []
    rounds = timed_phase(w, 0.0, first=1)
    return w, rounds


def test_train_clean_and_perturbed_loss(train_run):
    w, rounds = train_run
    problems, failed = w.verify(rounds)
    assert problems == [] and failed == 0
    assert w.quality["held_out_pq"]["trained"] > w.quality["held_out_pq"]["no_affinity"]

    path = w.out / "report.json"
    report = json.loads(path.read_text())
    report["loss_curve"][17] *= 1.0 + 1e-9
    path.write_text(json.dumps(report))
    problems, failed = w.verify(rounds)
    assert any("loss curve differs" in p for p in problems)
    assert failed == w.ops * len(rounds)


def test_loss_curve_checks():
    rising = [1.0] * 10 + [2.0] * 10
    assert checks.check_loss_curve([2.0] * 10 + [1.0] * 10, 20) == []
    assert checks.check_loss_curve(rising, 20)
    assert checks.check_loss_curve([1.0, float("nan")] + [0.5] * 18, 20)
