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

from dataclasses import asdict, dataclass

import numpy as np

from .errors import DimensionError, PanfuseError
from .numerics import IGNORE, require_tensor3
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

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass
class TargetMap:
    """Per-pixel training target over potential channel indices."""

    label_map: np.ndarray  # (h, w) int32, IGNORE where no gradient applies


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
                     kept: list[int]) -> TargetMap:
    """Relabel ground truth into channel space, where channel k is the
    detection at position ``kept[k]`` of the matched list.

    Matched segments map to their detection's channel; stuff segments to
    their class channel; unmatched segments and ground-truth IGNORE pixels
    stay IGNORE and contribute no gradient downstream.
    """
    channel_by_det = {det_index: k for k, det_index in enumerate(kept)}
    n_segments = max((s.index for s in gt.segments), default=-1) + 1
    lut = np.full(n_segments + 1, IGNORE, dtype=np.int32)
    for pair in match.pairs:
        if pair.detection_index not in channel_by_det:
            raise PanfuseError(
                f"match pairs ground-truth segment {pair.gt_index} with detection "
                f"{pair.detection_index}, which has no channel (removed?)"
            )
        lut[pair.gt_index] = channel_by_det[pair.detection_index]
    return TargetMap(label_map=lut[gt.label_map])


def target_channels(label: np.ndarray,
                    shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The target rule: which pixels of ``label`` carry a channel of logits
    of ``shape`` (h, w, k), and which channel.

    Returns (valid, channels): the (h, w) mask of non-IGNORE pixels and
    their channels in row-major order. Raises if the grids differ or a
    channel lies outside [0, k).
    """
    if label.shape != shape[:2]:
        raise DimensionError(
            f"target grid {label.shape} does not match logits {shape[:2]}"
        )
    valid = label != IGNORE
    channels = label[valid]
    if channels.size and (channels.max() >= shape[2] or channels.min() < 0):
        raise DimensionError(
            f"target references channel {channels.max()} "
            f"but logits have {shape[2]} channels"
        )
    return valid, channels


def panoptic_matching_loss(p: np.ndarray, target: TargetMap) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy over non-IGNORE pixels, with gradient.

    Returns (loss, d_loss/d_p); the gradient is (softmax - onehot) divided
    by the non-IGNORE pixel count, zero at IGNORE pixels. All-IGNORE
    targets yield (0, zeros).
    """
    p = require_tensor3(p, "panoptic logits")
    valid, channels = target_channels(target.label_map, p.shape)
    n_valid = channels.size
    if n_valid == 0:
        return 0.0, np.zeros_like(p)
    # One max-shifted exp serves both the log-softmax and the softmax.
    shifted = p - p.max(axis=2, keepdims=True)
    e = np.exp(shifted)
    sums = e.sum(axis=2, keepdims=True)
    log_probs = shifted - np.log(sums)
    idx = np.where(valid, target.label_map, 0)[..., None].astype(np.int64)
    picked = np.take_along_axis(log_probs, idx, axis=2)[..., 0]
    loss = float(-(picked[valid].sum()) / n_valid)

    grad = e / sums
    onehot = np.zeros_like(grad)
    np.put_along_axis(onehot, idx, 1.0, axis=2)
    grad = (grad - onehot) * valid[..., None] / n_valid
    return loss, grad
