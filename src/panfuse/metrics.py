"""Evaluation metrics: panoptic quality, mean IoU, thing/stuff confusion,
and box average precision.

Panoptic quality matches predicted to ground-truth segments of the same
class at strict mask IoU > 0.5 (which makes matches unique), excludes
ground-truth VOID pixels from the IoU union, and exempts predictions
lying mostly on ground-truth VOID from the false-positive count. Scene
statistics are plain per-class counters, so accumulation over scenes is
associative and can be reduced in any grouping order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError
from .inference import PanopticMap
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
        """Add one scene's matches to the counters."""
        if pred.shape != gt.shape:
            raise DimensionError(f"prediction grid {pred.shape} != ground truth {gt.shape}")
        gt_label = gt.label_map
        pred_label = pred.label_map
        n_gt = len(gt.segments)
        n_pred = len(pred.segments)
        gt_class = {s.index: s.class_id for s in gt.segments}
        pred_class = {s.index: s.class_id for s in pred.segments}

        # Pixel-count every (gt segment, pred segment) pair, VOID included.
        code = (gt_label.astype(np.int64) + 1) * (n_pred + 1) + (pred_label + 1)
        codes, counts = np.unique(code, return_counts=True)
        inter: dict[tuple[int, int], int] = {}
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

        matched_gt: set[int] = set()
        matched_pred: set[int] = set()
        for (g, p), n in inter.items():
            if g < 0 or p < 0 or gt_class[g] != pred_class[p]:
                continue
            union = gt_area[g] + pred_area[p] - n - pred_void_overlap[p]
            iou = n / union
            if iou > 0.5:
                stats = self._stats(gt_class[g])
                stats.tp += 1
                stats.iou_sum += iou
                matched_gt.add(g)
                matched_pred.add(p)

        for s in gt.segments:
            if s.index not in matched_gt:
                self._stats(s.class_id).fn += 1
        for s in pred.segments:
            if s.index in matched_pred:
                continue
            if pred_area[s.index] > 0 and pred_void_overlap[s.index] / pred_area[s.index] > 0.5:
                continue  # mostly on ground-truth VOID: exempt from FP
            self._stats(s.class_id).fp += 1
        return self

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


def panoptic_quality(pred: PanopticMap, gt: PanopticMap,
                     catalog: ClassCatalog) -> PQReport:
    """Single-scene PQ/SQ/RQ report."""
    return PQStats().accumulate(pred, gt).report(catalog)


def mean_iou(pred_classes: np.ndarray, gt_classes: np.ndarray,
             catalog: ClassCatalog) -> tuple[dict[int, float], float]:
    """Per-class and mean IoU of semantic class maps (instances collapsed).

    Ground-truth IGNORE/VOID pixels are excluded; classes absent from both
    maps are excluded from the mean.
    """
    if pred_classes.shape != gt_classes.shape:
        raise DimensionError(
            f"class map shapes differ: {pred_classes.shape} vs {gt_classes.shape}"
        )
    valid = gt_classes >= 0
    per_class: dict[int, float] = {}
    for cid in range(catalog.n_classes):
        p = (pred_classes == cid) & valid
        g = gt_classes == cid
        union = int((p | g).sum())
        if union == 0:
            continue
        per_class[cid] = int((p & g).sum()) / union
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


def thing_stuff_confusion(pred_classes: np.ndarray, gt_classes: np.ndarray,
                          catalog: ClassCatalog) -> ConfusionTS:
    """Bucket pixels by (ground-truth kind, predicted kind)."""
    if pred_classes.shape != gt_classes.shape:
        raise DimensionError(
            f"class map shapes differ: {pred_classes.shape} vs {gt_classes.shape}"
        )
    valid = (gt_classes >= 0) & (pred_classes >= 0)
    gt_stuff = gt_classes < catalog.n_stuff
    pred_stuff = pred_classes < catalog.n_stuff
    conf = ConfusionTS()
    for gi, g_sel in enumerate((~gt_stuff, gt_stuff)):
        for pi, p_sel in enumerate((~pred_stuff, pred_stuff)):
            conf.counts[gi, pi] = int((valid & g_sel & p_sel).sum())
    return conf


def box_average_precision(dets: list[Detection],
                          gt_boxes: list[tuple[int, Box]]) -> float:
    """Box AP averaged over IoU thresholds 0.50:0.05:0.95 and classes.

    Per threshold and class: detections are matched greedily in descending
    score order to the best remaining ground-truth box; the precision-
    recall curve is integrated with all-point interpolation. Classes
    without ground truth are excluded.
    """
    from .matching import box_iou  # local import to avoid a cycle

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
