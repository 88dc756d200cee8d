"""Dynamic potential assembly: one channel per candidate panoptic segment.

Each detection (including one full-image pseudo-detection per stuff class)
contributes a channel populated from the semantic probabilities, the box
confidence score, and - depending on the composition variant - the mask:

* no masks anywhere: ``score * prob`` inside the box, 0 outside;
* variant B: ``score * prob * mask``;
* variant C: ``score * (prob + mask)``;
* variant A: variant B with every score forced to 1.

Stuff channels never carry masks; an absent mask is the multiplicative
identity (1) under B and the additive identity (0) under C, which makes
B and C coincide with the mask-free form when no masks are supplied.

Channel k belongs to detection k. The part of a box beyond the grid adds
nothing (a box wholly outside leaves an all-zero channel); the scene
loaders reject such boxes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import CueError, DimensionError
from .numerics import require_tensor3
from .scene import ClassCatalog, Detection, full_image_box


class Variant(enum.Enum):
    A = "A"
    B = "B"
    C = "C"


@dataclass(frozen=True)
class ChannelInfo:
    """Provenance of one potential channel."""

    kind: str  # "stuff" | "thing"
    class_id: int


@dataclass
class DynamicPotential:
    psi: np.ndarray  # (h, w, n_channels)
    channels: list[ChannelInfo]

    @property
    def n_channels(self) -> int:
        return self.psi.shape[2]


def append_stuff_boxes(dets: list[Detection], catalog: ClassCatalog,
                       height: int, width: int) -> list[Detection]:
    """Prefix thing detections with one full-image pseudo-detection per
    stuff class (score 1.0, no mask), fixing the stuff-first channel order.
    """
    for i, det in enumerate(dets):
        if not catalog.is_thing(det.class_id):
            raise CueError(
                f"detection {i} has stuff class {det.class_id}; "
                "pseudo-detections are added here, not by the caller"
            )
    pseudo = [
        Detection(box=full_image_box(width, height), score=1.0, class_id=l, mask=None)
        for l in range(catalog.n_stuff)
    ]
    return pseudo + list(dets)


def filter_by_score(dets: list[Detection], threshold: float) -> list[Detection]:
    """Drop detections scoring below the threshold (keep on >=).

    Stuff pseudo-detections carry score 1.0 and are always retained.
    """
    if not (0.0 <= threshold <= 1.0):
        raise CueError(f"score threshold must be in [0, 1], got {threshold}")
    return [d for d in dets if d.score >= threshold]


def build_potential(v: np.ndarray, dets: list[Detection], variant: Variant,
                    catalog: ClassCatalog) -> DynamicPotential:
    """Rasterize detections into the per-candidate potential tensor.

    ``dets`` must already include the stuff pseudo-detections; channel k
    is detection k, sliced out of the grid.
    """
    v = require_tensor3(v, "semantic probabilities")
    h, w, c = v.shape
    if c != catalog.n_classes:
        raise DimensionError(
            f"semantic probabilities have {c} channels, catalog expects {catalog.n_classes}"
        )

    thing_masks = [d.mask for d in dets if catalog.is_thing(d.class_id)]
    masks_enabled = any(m is not None for m in thing_masks)
    if masks_enabled and any(m is None for m in thing_masks):
        raise CueError(
            "masks are enabled for this scene but some thing detection lacks one"
        )

    # Each region is written into its channel of one zeroed tensor.
    psi = np.zeros((h, w, len(dets)), dtype=v.dtype)
    channels: list[ChannelInfo] = []
    for k, det in enumerate(dets):
        is_thing = catalog.is_thing(det.class_id)
        score = 1.0 if variant is Variant.A else det.score
        sl = (slice(det.box.y0, det.box.y1), slice(det.box.x0, det.box.x1))
        prob = v[sl[0], sl[1], det.class_id]
        m = det.mask[sl] if is_thing and masks_enabled else None
        if variant is Variant.C:
            region = score * (prob + (m if m is not None else 0.0))
        else:  # A and B are multiplicative; absent mask is the identity
            region = score * (prob * m if m is not None else prob)
        psi[sl[0], sl[1], k] = region
        channels.append(ChannelInfo(kind="thing" if is_thing else "stuff",
                                    class_id=det.class_id))
    return DynamicPotential(psi=psi, channels=channels)
