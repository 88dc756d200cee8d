"""Panoptic inference: unified argmax path and the heuristic-merger baseline.

The argmax path labels every pixel with its strongest potential channel
and never emits VOID; channel k is detection k, so a winning channel
becomes a segment of its detection's class. The heuristic merger pastes
score-sorted instance masks with overlap resolution, fills leftovers with
the stuff argmax, and voids small stuff regions - it exists as the
baseline the argmax path is compared against, so all of its knobs are
exposed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import count
from pathlib import Path

import numpy as np

from . import container
from .affinity import AffinityParams, fused_winners
from .errors import CueError, DimensionError, FormatError
from .numerics import SENTINEL_U32, VOID, bounded, check_bounds, require_tensor3
from .potential import Variant, append_stuff_boxes, build_potential, filter_by_score
from .scene import ClassCatalog, Detection, GroundTruthPanoptic, SceneCues

EVAL_SCORE_THRESHOLD = 0.5
_INSTANCE_ENCODING_BASE = 1000


@dataclass(frozen=True)
class Segment:
    index: int
    class_id: int
    kind: str  # "thing" | "stuff"
    area: int
    instance_id: int  # 0 for stuff; 1.. for things

    @property
    def encoded_id(self) -> int:
        return self.class_id * _INSTANCE_ENCODING_BASE + self.instance_id


@dataclass
class PanopticMap:
    """Final per-pixel labeling; VOID marks unassigned pixels."""

    label_map: np.ndarray  # (h, w) int32 segment indices, VOID allowed
    segments: list[Segment]

    @property
    def shape(self) -> tuple[int, int]:
        return self.label_map.shape

    def class_map(self) -> np.ndarray:
        """Per-pixel semantic class; VOID pixels stay VOID."""
        lut = np.full(len(self.segments) + 1, VOID, dtype=np.int32)
        for s in self.segments:
            lut[s.index] = s.class_id
        return lut[self.label_map]


@dataclass(frozen=True)
class MergerParams:
    instance_score_threshold: float = bounded(0.5, 0, 1)
    overlap_threshold: float = bounded(0.5, 0, 1)
    stuff_area_threshold: int = bounded(64, 0)

    def validate(self) -> None:
        check_bounds(self, CueError)


def _numbered(parts: list[tuple[int, int]], catalog: ClassCatalog) -> list[Segment]:
    """Segments from (class_id, area) in segment order, each of its class's
    kind; things get instance ids 1, 2, ... in that order and stuff gets 0."""
    thing_ids = count(1)
    things = [catalog.is_thing(class_id) for class_id, _ in parts]
    return [Segment(index=i, class_id=class_id, kind="thing" if thing else "stuff", area=area,
                    instance_id=next(thing_ids) if thing else 0)
            for i, ((class_id, area), thing) in enumerate(zip(parts, things))]


def infer_panoptic(winners: np.ndarray, class_ids: list[int],
                   catalog: ClassCatalog) -> PanopticMap:
    """Per-pixel winning channels collapsed to (class, instance) segments.

    ``winners`` is an (h, w) grid of channel indices; channel k is of class
    ``class_ids[k]``. Channels that win nowhere produce no segment and use
    no instance id; every pixel is assigned (the output contains zero VOID
    pixels).
    """
    winners = np.asarray(winners)
    if winners.ndim != 2 or min(winners.shape) < 1 or winners.dtype.kind not in "iu":
        raise DimensionError(f"winning channels must be an (h, w) grid of integers, "
                             f"got {winners.dtype} of shape {winners.shape}")
    n = len(class_ids)
    if winners.min() < 0 or winners.max() >= n:
        raise DimensionError(f"winning channels must lie in [0, {n}), "
                             f"the channels whose classes are given")
    # numpy 1.x refuses to count a uint64 array, which the range check passes.
    areas = np.bincount(winners.ravel().astype(np.intp, copy=False), minlength=n)
    won = np.flatnonzero(areas)  # segments and instance ids follow channel order
    segment_of = np.full(n, VOID, dtype=np.int32)
    segment_of[won] = np.arange(len(won))
    segments = _numbered([(class_ids[k], int(areas[k])) for k in won.tolist()], catalog)
    return PanopticMap(label_map=segment_of[winners], segments=segments)


def panoptic_winners(scene: SceneCues, params: AffinityParams | None,
                     variant: Variant = Variant.B,
                     score_threshold: float = EVAL_SCORE_THRESHOLD,
                     ) -> tuple[np.ndarray, list[Detection]]:
    """The inference forward: filter, stuff boxes, potential, optional affinity,
    argmax (``affinity.fused_winners``).

    Returns each pixel's winning channel and the detections the channels
    index (stuff pseudo-detections first). Without ``params`` the logits
    are the potential itself. Finite but huge features can overflow the
    affinity forward; that raises ``NumericError``.
    """
    dets = filter_by_score(scene.detections, score_threshold)
    dets = append_stuff_boxes(dets, scene.catalog, scene.height, scene.width)
    potential = build_potential(scene.semantic_probs, dets, variant, scene.catalog)
    return fused_winners(potential, scene.features, params), dets


def predict_panoptic(scene: SceneCues, params: AffinityParams | None,
                     variant: Variant = Variant.B,
                     score_threshold: float = EVAL_SCORE_THRESHOLD,
                     ) -> PanopticMap:
    """Inference pipeline: the forward of ``panoptic_winners``, then segments."""
    winners, dets = panoptic_winners(scene, params, variant, score_threshold)
    return infer_panoptic(winners, [d.class_id for d in dets], scene.catalog)


def heuristic_merge(v: np.ndarray, dets: list[Detection], params: MergerParams,
                    catalog: ClassCatalog) -> PanopticMap:
    """Rule-based fusion of instance masks and the stuff argmax.

    Score-sorted instances claim their unclaimed mask pixels unless too
    much of the mask is already taken; leftover pixels fall to the stuff
    argmax of the semantic probabilities; stuff regions smaller than the
    area threshold become VOID.
    """
    v = require_tensor3(v, "semantic probabilities")
    params.validate()
    h, w, c = v.shape
    if c != catalog.n_classes:
        raise DimensionError(
            f"semantic probabilities have {c} channels, catalog expects {catalog.n_classes}"
        )
    things = [(i, d) for i, d in enumerate(dets) if catalog.is_thing(d.class_id)]
    for i, det in things:
        if det.mask is None:
            raise CueError(
                f"heuristic merge requires masks; detection {i} has none"
            )

    order = sorted(things, key=lambda item: (-item[1].score, item[0]))
    claimed = np.zeros((h, w), dtype=bool)
    label = np.full((h, w), VOID, dtype=np.int32)
    parts: list[tuple[int, int]] = []
    for _, det in order:
        if det.score < params.instance_score_threshold:
            continue
        mask = det.mask >= 0.5
        original = int(mask.sum())
        if original == 0:
            continue
        remaining = mask & ~claimed
        area = int(remaining.sum())
        # At overlap_threshold 1 the ratio test keeps a fully covered mask.
        if area == 0 or area / original < 1.0 - params.overlap_threshold:
            continue
        label[remaining] = len(parts)
        claimed |= remaining
        parts.append((det.class_id, area))

    stuff_fill = v[:, :, :catalog.n_stuff].argmax(axis=2)
    areas = np.bincount(stuff_fill[~claimed], minlength=catalog.n_stuff)
    stuff_segment = np.full(catalog.n_stuff, VOID, dtype=np.int32)  # sub-threshold stays VOID
    for class_id in np.flatnonzero(areas >= max(params.stuff_area_threshold, 1)).tolist():
        stuff_segment[class_id] = len(parts)
        parts.append((class_id, int(areas[class_id])))
    return PanopticMap(label_map=np.where(claimed, label, stuff_segment[stuff_fill]),
                       segments=_numbered(parts, catalog))


def trim_small_stuff(pmap: PanopticMap, area_threshold: int) -> PanopticMap:
    """Relabel stuff segments below the area threshold to VOID.

    Thing segments are untouched; the kept segments get compact indices
    and keep their instance ids. Idempotent: a second application changes
    nothing.
    """
    keep = [s for s in pmap.segments
            if s.kind == "thing" or s.area >= area_threshold]
    lut = np.full(len(pmap.segments) + 1, VOID, dtype=np.int32)
    for index, s in enumerate(keep):
        lut[s.index] = index
    return PanopticMap(label_map=lut[pmap.label_map],
                       segments=[replace(s, index=i) for i, s in enumerate(keep)])


def panoptic_from_ground_truth(gt: GroundTruthPanoptic,
                               catalog: ClassCatalog) -> PanopticMap:
    """View ground truth as a PanopticMap for the metric suite; segment ``i``
    has index ``i``, as both loaders require."""
    return PanopticMap(label_map=gt.label_map.copy(),
                       segments=_numbered([(s.class_id, s.area) for s in gt.segments], catalog))


# ---------------------------------------------------------------------------
# Container IO: u32 grid of class_id * 1000 + instance_id, plus a sidecar.
# ---------------------------------------------------------------------------

def panoptic_files(pmap: PanopticMap, path: str | Path) -> dict:
    """The grid and its sidecar, to be written to the directory ``path``
    with ``container.write_files``. A map with more than 999 thing segments
    is refused here, before anything is written."""
    encode = np.full(len(pmap.segments) + 1, SENTINEL_U32, dtype=np.uint32)
    for s in pmap.segments:
        if s.instance_id >= _INSTANCE_ENCODING_BASE:
            raise FormatError(
                f"{Path(path) / 'panoptic.panc'}: instance id {s.instance_id} exceeds the "
                f"u32 encoding base; a map holds at most "
                f"{_INSTANCE_ENCODING_BASE - 1} thing segments"
            )
        encode[s.index] = s.encoded_id
    sidecar = {
        "format": "panfuse-panoptic",
        "version": 1,
        "segments": [
            {"index": s.index, "class_id": s.class_id, "kind": s.kind,
             "area": s.area, "instance_id": s.instance_id,
             "encoded_id": s.encoded_id}
            for s in pmap.segments
        ],
    }
    return {"panoptic.panc": encode[pmap.label_map], "segments.json": sidecar}


def load_panoptic(path: str | Path) -> PanopticMap:
    root = Path(path)
    spath = root / "segments.json"
    sidecar = container.read_manifest(spath, "panfuse-panoptic", "a panoptic")
    value = container.manifest_value
    records = container.manifest_records(sidecar, "segments", spath)
    segments = []
    for i, (s, at) in enumerate(records):
        index = value(s, "index", int, spath, at)
        if index != i:  # label maps index the segment list directly
            raise FormatError(f"{spath}: key {at}.index must be {i}, got {index}")
        kind = value(s, "kind", str, spath, at)
        if kind not in ("thing", "stuff"):
            raise FormatError(f'{spath}: key {at}.kind must be "thing" or "stuff", got {kind!r}')
        class_id = value(s, "class_id", int, spath, at)
        area = value(s, "area", int, spath, at)
        if area < 1:  # no writer emits a segment without pixels
            raise FormatError(f"{spath}: key {at}.area must be >= 1, got {area}")
        segment = Segment(index=index, class_id=class_id, kind=kind, area=area,
                          instance_id=value(s, "instance_id", int, spath, at))
        encoded_id = value(s, "encoded_id", int, spath, at, optional=True)
        if encoded_id not in (None, segment.encoded_id):
            raise FormatError(f"{spath}: key {at}.encoded_id must be {segment.encoded_id}, "
                              f"class_id * 1000 + instance_id, got {encoded_id}")
        segments.append(segment)
    gpath = root / "panoptic.panc"
    grid = container.read_tensor(gpath)
    if grid.dtype != np.uint32 or grid.ndim != 2:
        raise FormatError(f"{gpath}: panoptic grid has dtype {grid.dtype} and shape "
                          f"{grid.shape}, expected a uint32 grid of rank 2")
    # ``return_inverse`` would argsort the grid; a search of the sorted
    # unique ids gives the same inverse at a fifth of the cost.
    encoded, counts = np.unique(grid, return_counts=True)
    decode = {SENTINEL_U32: VOID}
    decode.update((s.encoded_id, s.index) for s in segments)
    try:
        lut = np.array([decode[e] for e in encoded.tolist()], dtype=np.int32)
    except KeyError as e:
        raise FormatError(f"{gpath}: encoded id {e.args[0]} is missing from {spath}") from None
    pixels = dict(zip(lut.tolist(), counts.tolist()))
    for s, (_, at) in zip(segments, records):
        if s.area != pixels.get(s.index, 0):
            raise FormatError(f"{spath}: key {at}.area is {s.area}, but segment {s.index} "
                              f"has {pixels.get(s.index, 0)} pixels in the grid")
    label = lut[np.searchsorted(encoded, grid)]
    return PanopticMap(label_map=label, segments=segments)
