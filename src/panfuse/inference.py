"""Panoptic inference: unified argmax path and the heuristic-merger baseline.

The argmax path labels every pixel with its strongest potential channel
and never emits VOID. The heuristic merger pastes score-sorted instance
masks with overlap resolution, fills leftovers with the stuff argmax,
and voids small stuff regions - it exists as the baseline the argmax
path is compared against, so all of its knobs are exposed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from itertools import count
from pathlib import Path

import numpy as np

from . import container
from .errors import CueError, DimensionError, FormatError
from .numerics import SENTINEL_U32, VOID, argmax_channels, require_tensor3
from .potential import ChannelInfo
from .scene import ClassCatalog, Detection, GroundTruthPanoptic

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


def _numbered(parts: list[tuple[int, str, int]]) -> list[Segment]:
    """Segments from (class_id, kind, area) in segment order; things get
    instance ids 1, 2, ... in that order and stuff gets 0."""
    thing_ids = count(1)
    return [Segment(index=i, class_id=class_id, kind=kind, area=area,
                    instance_id=next(thing_ids) if kind == "thing" else 0)
            for i, (class_id, kind, area) in enumerate(parts)]


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
    areas = np.bincount(winners.ravel(), minlength=len(channel_meta))
    won = np.flatnonzero(areas)  # segments and instance ids follow channel order
    segment_of = np.full(len(channel_meta), VOID, dtype=np.int32)
    segment_of[won] = np.arange(len(won))
    segments = _numbered([(channel_meta[k].class_id, channel_meta[k].kind, int(areas[k]))
                          for k in won.tolist()])
    return PanopticMap(label_map=segment_of[winners], segments=segments)


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
    parts: list[tuple[int, str, int]] = []
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
        label[remaining] = len(parts)
        claimed |= remaining
        parts.append((det.class_id, "thing", int(remaining.sum())))

    stuff_fill = v[:, :, :catalog.n_stuff].argmax(axis=2)
    areas = np.bincount(stuff_fill[~claimed], minlength=catalog.n_stuff)
    stuff_segment = np.full(catalog.n_stuff, VOID, dtype=np.int32)  # sub-threshold stays VOID
    for class_id in np.flatnonzero(areas >= max(params.stuff_area_threshold, 1)).tolist():
        stuff_segment[class_id] = len(parts)
        parts.append((class_id, "stuff", int(areas[class_id])))
    return PanopticMap(label_map=np.where(claimed, label, stuff_segment[stuff_fill]),
                       segments=_numbered(parts))


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
    parts = [(s.class_id, "thing" if catalog.is_thing(s.class_id) else "stuff", s.area)
             for s in gt.segments]
    return PanopticMap(label_map=gt.label_map.copy(), segments=_numbered(parts))


# ---------------------------------------------------------------------------
# Container IO: u32 grid of class_id * 1000 + instance_id, plus a sidecar.
# ---------------------------------------------------------------------------

def save_panoptic(pmap: PanopticMap, path: str | Path) -> None:
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    encode = np.full(len(pmap.segments) + 1, SENTINEL_U32, dtype=np.uint32)
    for s in pmap.segments:
        if s.instance_id >= _INSTANCE_ENCODING_BASE:
            raise FormatError(
                f"instance id {s.instance_id} exceeds the u32 encoding base"
            )
        encode[s.index] = s.encoded_id
    container.write_tensor(root / "panoptic.panc", encode[pmap.label_map])
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
    records = container.manifest_records(sidecar, "segments", spath)
    segments = []
    for i, (s, at) in enumerate(records):
        index = value(s, "index", int, spath, at)
        if index != i:  # label maps index the segment list directly
            raise FormatError(f"{spath}: key {at}.index must be {i}, got {index}")
        kind = value(s, "kind", str, spath, at)
        if kind not in ("thing", "stuff"):
            raise FormatError(f'{spath}: key {at}.kind must be "thing" or "stuff", got {kind!r}')
        segments.append(Segment(index=index,
                                class_id=value(s, "class_id", int, spath, at),
                                kind=kind,
                                area=value(s, "area", int, spath, at),
                                instance_id=value(s, "instance_id", int, spath, at)))
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
