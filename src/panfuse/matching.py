"""Segment-to-detection matching and the panoptic matching loss.

Ground-truth segments are matched to predicted detections by maximizing
total class-constrained box IoU (optimal linear assignment; pairs below
the threshold are infeasible). Stuff pseudo-detections match their
ground-truth stuff segment by class identity. Unmatched ground truth
becomes IGNORE; surplus detections that lost a ground-truth segment to a
better match are recorded for duplicate removal during training.

The loss is per-pixel softmax cross-entropy over the (post-removal)
potential channels, mean-reduced over non-IGNORE pixels, with its exact
gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, PanfuseError
from .numerics import IGNORE, log_softmax_channels, require_tensor3, softmax_channels
from .potential import ChannelInfo
from .scene import Box, ClassCatalog, Detection, GroundTruthPanoptic


@dataclass(frozen=True)
class MatchPair:
    gt_index: int
    detection_index: int
    iou: float


@dataclass
class MatchResult:
    pairs: list[MatchPair]
    unmatched_gt: list[int]
    removed_duplicates: list[int]

    def detection_for_gt(self) -> dict[int, int]:
        return {p.gt_index: p.detection_index for p in self.pairs}

    def to_json_dict(self) -> dict:
        return {
            "pairs": [
                {"gt_index": p.gt_index, "detection_index": p.detection_index,
                 "iou": p.iou}
                for p in self.pairs
            ],
            "unmatched_gt": list(self.unmatched_gt),
            "removed_duplicates": list(self.removed_duplicates),
        }


@dataclass
class TargetMap:
    """Per-pixel training target over potential channel indices."""

    label_map: np.ndarray  # (h, w) int32, IGNORE where no gradient applies


def boxes_from_segments(gt: GroundTruthPanoptic) -> list[tuple[int, Box]]:
    """(class_id, tight box) per ground-truth segment, in segment order."""
    return [(s.class_id, s.box) for s in gt.segments]


def box_iou(a: Box, b: Box, class_a: int | None = None,
            class_b: int | None = None) -> float:
    """Half-open box IoU; zero across different semantic classes."""
    if class_a is not None and class_a != class_b:
        return 0.0
    iw = min(a.x1, b.x1) - max(a.x0, b.x0)
    ih = min(a.y1, b.y1) - max(a.y0, b.y0)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (a.area + b.area - inter)


def match_segments(gt: GroundTruthPanoptic, dets: list[Detection], t: float,
                   catalog: ClassCatalog) -> MatchResult:
    """Optimal class-constrained matching at minimum IoU ``t``.

    Thing pairs come from a maximum-total-IoU assignment with sub-``t``
    entries infeasible. Stuff pseudo-detections pair with the (unique)
    ground-truth stuff segment of their class regardless of IoU.
    """
    # Imported here: scipy takes most of the import time of the CLI, and
    # `run` and `eval` without --dump-match never match.
    from scipy.optimize import linear_sum_assignment

    if not (0.0 < t <= 1.0):
        raise PanfuseError(f"match threshold must be in (0, 1], got {t}")
    gt_things = [s for s in gt.segments if catalog.is_thing(s.class_id)]
    det_things = [(i, d) for i, d in enumerate(dets) if catalog.is_thing(d.class_id)]

    pairs: list[MatchPair] = []
    matched_gt: set[int] = set()
    matched_det: set[int] = set()

    if gt_things and det_things:
        iou = np.zeros((len(gt_things), len(det_things)))
        for gi, seg in enumerate(gt_things):
            for dj, (_, det) in enumerate(det_things):
                iou[gi, dj] = box_iou(seg.box, det.box, seg.class_id, det.class_id)
        feasible = iou >= t
        # Infeasible entries are clipped to 0: a zero-weight pairing never
        # changes the optimal total, and any chosen sub-threshold pair is
        # discarded below.
        rows, cols = linear_sum_assignment(np.where(feasible, iou, 0.0), maximize=True)
        for gi, dj in zip(rows, cols):
            if feasible[gi, dj]:
                det_index = det_things[dj][0]
                pairs.append(MatchPair(gt_things[gi].index, det_index, float(iou[gi, dj])))
                matched_gt.add(gt_things[gi].index)
                matched_det.add(det_index)

        best = iou.max(axis=0, initial=0.0)
        removed = [det_things[dj][0] for dj in range(len(det_things))
                   if det_things[dj][0] not in matched_det and best[dj] >= t]
    else:
        removed = []

    # Stuff matches by class identity (at most one stuff segment per class).
    stuff_det_by_class = {d.class_id: i for i, d in enumerate(dets)
                          if catalog.is_stuff(d.class_id)}
    for seg in gt.segments:
        if not catalog.is_stuff(seg.class_id):
            continue
        det_index = stuff_det_by_class.get(seg.class_id)
        if det_index is None:
            continue
        pairs.append(MatchPair(seg.index, det_index,
                               box_iou(seg.box, dets[det_index].box,
                                       seg.class_id, dets[det_index].class_id)))
        matched_gt.add(seg.index)

    unmatched = [s.index for s in gt.segments if s.index not in matched_gt]
    return MatchResult(pairs=pairs, unmatched_gt=unmatched, removed_duplicates=removed)


def build_target_map(gt: GroundTruthPanoptic, match: MatchResult,
                     channel_meta: list[ChannelInfo]) -> TargetMap:
    """Relabel ground truth into (post-duplicate-removal) channel space.

    Matched segments map to their detection's channel; stuff segments to
    their class channel; unmatched segments and ground-truth IGNORE pixels
    stay IGNORE and contribute no gradient downstream.
    """
    channel_by_det = {info.detection_index: k for k, info in enumerate(channel_meta)}
    det_for_gt = match.detection_for_gt()

    seg_channel = {}
    for seg_index, det_index in det_for_gt.items():
        if det_index not in channel_by_det:
            raise PanfuseError(
                f"match pairs ground-truth segment {seg_index} with detection "
                f"{det_index}, which has no channel (removed?)"
            )
        seg_channel[seg_index] = channel_by_det[det_index]

    n_segments = max((s.index for s in gt.segments), default=-1) + 1
    lut = np.full(n_segments + 1, IGNORE, dtype=np.int32)  # last slot = IGNORE
    for seg_index, channel in seg_channel.items():
        lut[seg_index] = channel
    label = gt.label_map
    target = lut[np.where(label == IGNORE, n_segments, label)]
    return TargetMap(label_map=target)


def panoptic_matching_loss(p: np.ndarray, target: TargetMap) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy over non-IGNORE pixels, with gradient.

    Returns (loss, d_loss/d_p); the gradient is (softmax - onehot) divided
    by the non-IGNORE pixel count, zero at IGNORE pixels. All-IGNORE
    targets yield (0, zeros).
    """
    p = require_tensor3(p, "panoptic logits")
    label = target.label_map
    if label.shape != p.shape[:2]:
        raise DimensionError(
            f"target grid {label.shape} does not match logits {p.shape[:2]}"
        )
    valid = label != IGNORE
    n_valid = int(valid.sum())
    if n_valid == 0:
        return 0.0, np.zeros_like(p)
    if label[valid].max() >= p.shape[2] or label[valid].min() < 0:
        raise DimensionError(
            f"target references channel {label[valid].max()} "
            f"but logits have {p.shape[2]} channels"
        )
    log_probs = log_softmax_channels(p)
    idx = np.where(valid, label, 0)[..., None].astype(np.int64)
    picked = np.take_along_axis(log_probs, idx, axis=2)[..., 0]
    loss = float(-(picked[valid].sum()) / n_valid)

    grad = softmax_channels(p)
    onehot = np.zeros_like(grad)
    np.put_along_axis(onehot, idx, 1.0, axis=2)
    grad = (grad - onehot) * valid[..., None] / n_valid
    return loss, grad
