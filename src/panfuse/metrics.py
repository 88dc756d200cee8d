"""Evaluation metrics: panoptic quality, mean IoU, thing/stuff confusion,
and box average precision.

Panoptic quality matches predicted to ground-truth segments of the same
class at strict mask IoU > 0.5 (which makes matches unique), excludes
ground-truth VOID pixels from the IoU union, and exempts predictions
lying mostly on ground-truth VOID from the false-positive count. Counters
and pixel-count tables add across scenes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError
from .inference import PanopticMap
from .matching import box_iou
from .scene import Box, ClassCatalog, Detection

AP_IOU_THRESHOLDS = [0.5 + 0.05 * i for i in range(10)]


@dataclass
class ClassStats:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    iou_sum: float = 0.0

    def merge(self, other: "ClassStats") -> None:
        self.tp += other.tp
        self.fp += other.fp
        self.fn += other.fn
        self.iou_sum += other.iou_sum

    @property
    def n_gt(self) -> int:
        return self.tp + self.fn


@dataclass(frozen=True)
class ClassReport:
    pq: float
    sq: float
    rq: float
    tp: int
    fp: int
    fn: int
    iou_sum: float


@dataclass
class PQReport:
    per_class: dict[int, ClassReport]
    aggregates: dict[str, tuple[float, float, float]]  # group -> (pq, sq, rq)

    def pq(self, group: str = "all") -> float:
        return self.aggregates[group][0]

    def to_json_dict(self) -> dict:
        return {
            "per_class": {
                str(cid): {"pq": r.pq, "sq": r.sq, "rq": r.rq, "tp": r.tp,
                           "fp": r.fp, "fn": r.fn, "iou_sum": r.iou_sum}
                for cid, r in sorted(self.per_class.items())
            },
            "aggregates": {
                g: {"pq": v[0], "sq": v[1], "rq": v[2]}
                for g, v in self.aggregates.items()
            },
        }

    def render_table(self, catalog: ClassCatalog) -> str:
        lines = [f"{'class':>8} {'pq':>8} {'sq':>8} {'rq':>8} {'tp':>5} {'fp':>5} {'fn':>5}"]
        for cid, r in sorted(self.per_class.items()):
            name = (catalog.names[cid] if catalog.names else str(cid))
            lines.append(
                f"{name:>8} {r.pq:8.4f} {r.sq:8.4f} {r.rq:8.4f} "
                f"{r.tp:5d} {r.fp:5d} {r.fn:5d}"
            )
        for group in ("all", "things", "stuff"):
            pq, sq, rq = self.aggregates[group]
            lines.append(f"{group:>8} {pq:8.4f} {sq:8.4f} {rq:8.4f}")
        return "\n".join(lines)


class PQStats:
    """Mergeable per-class PQ counters."""

    def __init__(self):
        self.per_class: dict[int, ClassStats] = {}

    def _stats(self, class_id: int) -> ClassStats:
        return self.per_class.setdefault(class_id, ClassStats())

    def merge(self, other: "PQStats") -> "PQStats":
        for cid, stats in other.per_class.items():
            self._stats(cid).merge(stats)
        return self

    def accumulate(self, pred: PanopticMap, gt: PanopticMap) -> "PQStats":
        """Add one scene's matches to the counters; segment ``i`` has index ``i``.

        The scene is counted on its own and then merged, so the float
        ``iou_sum`` gets the same bits however the scenes are grouped.
        """
        scene = PQStats()
        # Pixel count of every (gt segment, pred segment) pair; row and column 0 are VOID.
        table = _pair_counts(gt.label_map, pred.label_map, len(gt.segments),
                             len(pred.segments), "segment")
        gt_area = table[1:].sum(axis=1)
        pred_area = table[:, 1:].sum(axis=0)
        pred_void_overlap = table[0, 1:]
        gt_class = np.array([s.class_id for s in gt.segments], dtype=np.int64)
        pred_class = np.array([s.class_id for s in pred.segments], dtype=np.int64)

        # Same-class pairs in ascending (gt, pred) order: iou_sum adds them in that order.
        g, p = np.nonzero(table[1:, 1:])
        same = gt_class[g] == pred_class[p]
        g, p = g[same], p[same]
        inter = table[g + 1, p + 1]
        iou = inter / (gt_area[g] + pred_area[p] - inter - pred_void_overlap[p])
        hit = iou > 0.5
        for gi, value in zip(g[hit].tolist(), iou[hit]):
            stats = scene._stats(int(gt_class[gi]))
            stats.tp += 1
            stats.iou_sum += value
        matched_gt = set(g[hit].tolist())
        mostly_void = np.flatnonzero(2 * pred_void_overlap > pred_area)
        no_fp = set(p[hit].tolist()) | set(mostly_void.tolist())  # VOID-heavy: exempt
        for s in gt.segments:
            if s.index not in matched_gt:
                scene._stats(s.class_id).fn += 1
        for s in pred.segments:
            if s.index not in no_fp:
                scene._stats(s.class_id).fp += 1
        return self.merge(scene)

    def report(self, catalog: ClassCatalog) -> PQReport:
        per_class: dict[int, ClassReport] = {}
        for cid, s in self.per_class.items():
            sq = s.iou_sum / s.tp if s.tp > 0 else 0.0
            denom = s.tp + 0.5 * s.fp + 0.5 * s.fn
            rq = s.tp / denom if denom > 0 else 0.0
            per_class[cid] = ClassReport(pq=sq * rq, sq=sq, rq=rq, tp=s.tp,
                                         fp=s.fp, fn=s.fn, iou_sum=s.iou_sum)
        # Aggregates: unweighted means over classes present in ground truth.
        groups = {
            "all": [cid for cid, s in self.per_class.items() if s.n_gt > 0],
            "things": [cid for cid, s in self.per_class.items()
                       if s.n_gt > 0 and catalog.is_thing(cid)],
            "stuff": [cid for cid, s in self.per_class.items()
                      if s.n_gt > 0 and catalog.is_stuff(cid)],
        }
        aggregates = {}
        for name, cids in groups.items():
            if cids:
                aggregates[name] = (
                    float(np.mean([per_class[c].pq for c in cids])),
                    float(np.mean([per_class[c].sq for c in cids])),
                    float(np.mean([per_class[c].rq for c in cids])),
                )
            else:
                aggregates[name] = (0.0, 0.0, 0.0)
        return PQReport(per_class=per_class, aggregates=aggregates)


def _pair_counts(gt: np.ndarray, pred: np.ndarray, n_gt: int, n_pred: int,
                 what: str) -> np.ndarray:
    """(n_gt + 1) x (n_pred + 1) pixel counts of (gt, pred) label pairs, labels
    -1 (VOID/IGNORE, row or column 0) to n - 1; other labels are rejected."""
    if pred.shape != gt.shape:
        raise DimensionError(f"prediction {what} map {pred.shape} != ground truth {gt.shape}")
    for side, labels, n in (("ground-truth", gt, n_gt), ("predicted", pred, n_pred)):
        if labels.size and (labels.min() < -1 or labels.max() >= n):
            raise DimensionError(f"{side} {what} map holds values outside [-1, {n})")
    code = (gt.astype(np.int64) + 1) * (n_pred + 1) + (pred + 1)
    counts = np.bincount(code.ravel(), minlength=(n_gt + 1) * (n_pred + 1))
    return counts.reshape(n_gt + 1, n_pred + 1)


def class_pixel_counts(pred_classes: np.ndarray, gt_classes: np.ndarray,
                       catalog: ClassCatalog) -> np.ndarray:
    """(gt class + 1) x (pred class + 1) pixel counts of two class maps; row and
    column 0 count IGNORE/VOID, and the tables of several scenes add up."""
    return _pair_counts(gt_classes, pred_classes, catalog.n_classes, catalog.n_classes,
                        "class")


def mean_iou(classes: np.ndarray, catalog: ClassCatalog) -> tuple[dict[int, float], float]:
    """Per-class and mean IoU from a ``class_pixel_counts`` table.

    Ground-truth IGNORE/VOID pixels are excluded; classes absent from both
    maps are excluded from the mean.
    """
    inter = np.diagonal(classes)[1:]
    # Predictions count only where the ground truth is valid (rows 1:).
    union = classes[1:].sum(axis=1) + classes[1:, 1:].sum(axis=0) - inter
    per_class = {cid: int(inter[cid]) / int(union[cid])
                 for cid in range(catalog.n_classes) if union[cid] > 0}
    mean = float(np.mean(list(per_class.values()))) if per_class else 0.0
    return per_class, mean


@dataclass
class ConfusionTS:
    """2x2 thing/stuff pixel confusion (rows: ground truth)."""

    counts: np.ndarray = field(default_factory=lambda: np.zeros((2, 2), dtype=np.int64))

    def percentages(self) -> np.ndarray:
        """Row-normalized percentages; zero rows stay zero."""
        totals = self.counts.sum(axis=1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            pct = np.where(totals > 0, 100.0 * self.counts / totals, 0.0)
        return pct

    def to_json_dict(self) -> dict:
        pct = self.percentages()
        return {
            "counts": self.counts.tolist(),
            "percent": pct.tolist(),
            "rows": ["gt_thing", "gt_stuff"],
            "cols": ["pred_thing", "pred_stuff"],
        }


def thing_stuff_confusion(classes: np.ndarray, catalog: ClassCatalog) -> ConfusionTS:
    """Bucket a ``class_pixel_counts`` table by (ground-truth kind, predicted kind)."""
    things, stuff = slice(1 + catalog.n_stuff, None), slice(1, 1 + catalog.n_stuff)
    conf = ConfusionTS()
    for gi, g_sel in enumerate((things, stuff)):
        for pi, p_sel in enumerate((things, stuff)):
            conf.counts[gi, pi] = int(classes[g_sel, p_sel].sum())
    return conf


def box_average_precision(dets: list[Detection],
                          gt_boxes: list[tuple[int, Box]]) -> float:
    """Box AP averaged over IoU thresholds 0.50:0.05:0.95 and classes.

    Per threshold and class: detections are matched greedily in descending
    score order to the best remaining ground-truth box; the precision-
    recall curve is integrated with all-point interpolation. Classes
    without ground truth are excluded.
    """
    classes = sorted({cid for cid, _ in gt_boxes})
    if not classes:
        return 0.0
    ap_values = []
    for cid in classes:
        gts = [b for c, b in gt_boxes if c == cid]
        cls_dets = sorted(
            [(d.score, i, d.box) for i, d in enumerate(dets) if d.class_id == cid],
            key=lambda item: (-item[0], item[1]),
        )
        # Each (detection, ground truth) IoU is computed once for all thresholds.
        ious = [[box_iou(box, gtb) for gtb in gts] for _, _, box in cls_dets]
        ap_of_flags: dict[tuple[float, ...], float] = {}
        for threshold in AP_IOU_THRESHOLDS:
            if not cls_dets:
                ap_values.append(0.0)
                continue
            taken = [False] * len(gts)
            tp_flags = []
            for row in ious:
                best_iou, best_j = 0.0, -1
                for j, iou in enumerate(row):
                    if not taken[j] and iou > best_iou:
                        best_iou, best_j = iou, j
                if best_j >= 0 and best_iou >= threshold:
                    taken[best_j] = True
                    tp_flags.append(1.0)
                else:
                    tp_flags.append(0.0)
            key = tuple(tp_flags)
            if key not in ap_of_flags:  # thresholds often match the same way
                ap_of_flags[key] = _interpolated_ap(tp_flags, len(gts))
            ap_values.append(ap_of_flags[key])
    return float(np.mean(ap_values))


def _interpolated_ap(tp_flags: list[float], n_gt: int) -> float:
    """Area under the all-point interpolated precision-recall curve."""
    tp = np.cumsum(tp_flags)
    fp = np.cumsum(1.0 - np.asarray(tp_flags))
    recall = tp / n_gt
    precision = tp / np.maximum(tp + fp, 1e-12)
    # All-point interpolation: running max of precision from the right.
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    prev_r = 0.0
    ap = 0.0
    for r, p in zip(recall, envelope):
        ap += (r - prev_r) * p
        prev_r = r
    return ap
