"""Panoptic inference: unified argmax path and the heuristic-merger baseline.

The argmax path labels every pixel with its strongest potential channel
and never emits VOID. The heuristic merger pastes score-sorted instance
masks with overlap resolution, fills leftovers with the stuff argmax,
and voids small stuff regions - it exists as the baseline the argmax
path is compared against, so all of its knobs are exposed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import container
from .errors import CueError, DimensionError, FormatError
from .numerics import VOID, argmax_channels, require_tensor3
from .potential import ChannelInfo
from .scene import ClassCatalog, Detection, GroundTruthPanoptic

_VOID_U32 = 0xFFFFFFFF
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
        return lut[np.where(self.label_map == VOID, len(self.segments), self.label_map)]


@dataclass(frozen=True)
class MergerParams:
    instance_score_threshold: float = 0.5
    overlap_threshold: float = 0.5
    stuff_area_threshold: int = 64

    def validate(self) -> None:
        if not (0.0 <= self.instance_score_threshold <= 1.0):
            raise CueError("instance_score_threshold must be in [0, 1]")
        if not (0.0 <= self.overlap_threshold <= 1.0):
            raise CueError("overlap_threshold must be in [0, 1]")
        if self.stuff_area_threshold < 0:
            raise CueError("stuff_area_threshold must be >= 0")


def infer_panoptic(p: np.ndarray, channel_meta: list[ChannelInfo]) -> PanopticMap:
    """Per-pixel channel argmax collapsed to (class, instance) segments.

    Channels that win nowhere produce no segment and use no instance id;
    every pixel is assigned (the output contains zero VOID pixels).
    """
    p = require_tensor3(p, "panoptic logits")
    if p.shape[2] != len(channel_meta):
        raise DimensionError(
            f"logits have {p.shape[2]} channels, metadata describes {len(channel_meta)}"
        )
    winners = argmax_channels(p)
    label = np.full(p.shape[:2], VOID, dtype=np.int32)
    segments: list[Segment] = []
    next_instance = 1
    for k, info in enumerate(channel_meta):
        pixels = winners == k
        area = int(pixels.sum())
        if area == 0:
            continue
        if info.kind == "thing":
            instance_id = next_instance  # ids follow the order of winning channels
            next_instance += 1
        else:
            instance_id = 0
        index = len(segments)
        label[pixels] = index
        segments.append(Segment(index=index, class_id=info.class_id,
                                kind=info.kind, area=area, instance_id=instance_id))
    return PanopticMap(label_map=label, segments=segments)


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
    segments: list[Segment] = []
    next_instance = 1
    for _, det in order:
        if det.score < params.instance_score_threshold:
            continue
        mask = det.mask >= 0.5
        original = int(mask.sum())
        if original == 0:
            continue
        remaining = mask & ~claimed
        if remaining.sum() / original < 1.0 - params.overlap_threshold:
            continue
        index = len(segments)
        label[remaining] = index
        claimed |= remaining
        segments.append(Segment(index=index, class_id=det.class_id, kind="thing",
                                area=int(remaining.sum()), instance_id=next_instance))
        next_instance += 1

    stuff_fill = v[:, :, :catalog.n_stuff].argmax(axis=2)
    for class_id in range(catalog.n_stuff):
        pixels = ~claimed & (stuff_fill == class_id)
        area = int(pixels.sum())
        if area == 0 or area < params.stuff_area_threshold:
            continue  # sub-threshold stuff stays VOID
        index = len(segments)
        label[pixels] = index
        segments.append(Segment(index=index, class_id=class_id, kind="stuff",
                                area=area, instance_id=0))
    return PanopticMap(label_map=label, segments=segments)


def trim_small_stuff(pmap: PanopticMap, area_threshold: int) -> PanopticMap:
    """Relabel stuff segments below the area threshold to VOID.

    Thing segments are untouched; the segment list is rebuilt with compact
    indices. Idempotent: a second application changes nothing.
    """
    keep = [s for s in pmap.segments
            if s.kind == "thing" or s.area >= area_threshold]
    lut = np.full(len(pmap.segments) + 1, VOID, dtype=np.int32)
    segments: list[Segment] = []
    for s in keep:
        lut[s.index] = len(segments)
        segments.append(Segment(index=len(segments), class_id=s.class_id,
                                kind=s.kind, area=s.area, instance_id=s.instance_id))
    label = lut[np.where(pmap.label_map == VOID, len(pmap.segments), pmap.label_map)]
    return PanopticMap(label_map=label, segments=segments)


def panoptic_from_ground_truth(gt: GroundTruthPanoptic,
                               catalog: ClassCatalog) -> PanopticMap:
    """View ground truth as a PanopticMap for the metric suite."""
    segments = []
    next_instance = 1
    for s in gt.segments:
        if catalog.is_thing(s.class_id):
            kind, instance_id = "thing", next_instance
            next_instance += 1
        else:
            kind, instance_id = "stuff", 0
        segments.append(Segment(index=s.index, class_id=s.class_id, kind=kind,
                                area=s.area, instance_id=instance_id))
    return PanopticMap(label_map=gt.label_map.copy(), segments=segments)


# ---------------------------------------------------------------------------
# Container IO: u32 grid of class_id * 1000 + instance_id, plus a sidecar.
# ---------------------------------------------------------------------------

def save_panoptic(pmap: PanopticMap, path: str | Path) -> None:
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    encode = np.full(len(pmap.segments) + 1, _VOID_U32, dtype=np.uint32)
    for s in pmap.segments:
        if s.instance_id >= _INSTANCE_ENCODING_BASE:
            raise FormatError(
                f"instance id {s.instance_id} exceeds the u32 encoding base"
            )
        encode[s.index] = s.encoded_id
    grid = encode[np.where(pmap.label_map == VOID, len(pmap.segments), pmap.label_map)]
    container.write_tensor(root / "panoptic.panc", grid)
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
    (root / "segments.json").write_text(json.dumps(sidecar, indent=2, sort_keys=True))


def load_panoptic(path: str | Path) -> PanopticMap:
    root = Path(path)
    spath = root / "segments.json"
    sidecar = container.read_manifest(spath, "panfuse-panoptic", "a panoptic")
    value = container.manifest_value
    segments = []
    for i, (s, at) in enumerate(container.manifest_records(sidecar, "segments", spath)):
        index = value(s, "index", int, spath, at)
        if index != i:  # label maps index the segment list directly
            raise FormatError(f"{spath}: key {at}.index must be {i}, got {index}")
        segments.append(Segment(index=index,
                                class_id=value(s, "class_id", int, spath, at),
                                kind=value(s, "kind", str, spath, at),
                                area=value(s, "area", int, spath, at),
                                instance_id=value(s, "instance_id", int, spath, at)))
    grid = container.read_tensor(root / "panoptic.panc")
    decode = {s.encoded_id: s.index for s in segments}
    label = np.full(grid.shape, VOID, dtype=np.int32)
    for encoded, index in decode.items():
        label[grid == encoded] = index
    unknown = (label == VOID) & (grid != _VOID_U32)
    if unknown.any():
        raise FormatError(
            f"panoptic grid in {root} references encoded ids missing from the sidecar"
        )
    return PanopticMap(label_map=label, segments=segments)
