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

A channel is zero outside its box, so the potential is held box-sparse:
the leading channels whose clipped box is the whole grid (the stuff
pseudo-detections) as the rows of one dense slab, every other channel as
its clipped box window. The inference forward
(``affinity.fused_winners``) works on these; training keeps only the
dense tensor scattered from them (``DensePotential``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

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


class Window(NamedTuple):
    """The nonzero part of one channel: rows ``y0:y1`` and columns ``x0:x1``."""

    channel: int
    y0: int
    y1: int
    x0: int
    x1: int
    region: np.ndarray  # (y1 - y0, x1 - x0), in the dtype of psi


@dataclass
class DynamicPotential:
    """The (h, w, n_channels) potential, held as what can be nonzero in it.

    Channel j < len(slab) is row j of ``slab``; every later channel is zero
    outside its window, or everywhere if it has none (a box wholly outside
    the grid).
    """

    shape: tuple[int, int]  # (h, w)
    channels: list[ChannelInfo]
    slab: np.ndarray  # (leading full-grid channels, h * w), the dtype of psi
    windows: list[Window]

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    @property
    def psi(self) -> np.ndarray:
        """The dense (h, w, n_channels) tensor, zero outside the windows;
        scattered anew on each access."""
        h, w = self.shape
        psi = np.zeros((h * w, self.n_channels), dtype=self.slab.dtype)
        psi[:, :len(self.slab)] = self.slab.T
        psi = psi.reshape(h, w, -1)
        for k, y0, y1, x0, x1, region in self.windows:
            psi[y0:y1, x0:x1, k] = region
        return psi


@dataclass
class DensePotential:
    """A potential held as its dense tensor alone, as training reads it."""

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
    """Rasterize detections into the slab of leading full-grid channels and the
    box windows of the rest.

    ``dets`` must already include the stuff pseudo-detections; channel k
    is detection k, its box clipped to the grid.
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

    # Each region is cast to the dtype of psi, as a write into a dense
    # tensor of that dtype would cast it.
    slab_regions, windows = [], []
    channels: list[ChannelInfo] = []
    for k, det in enumerate(dets):
        is_thing = catalog.is_thing(det.class_id)
        channels.append(ChannelInfo(kind="thing" if is_thing else "stuff",
                                    class_id=det.class_id))
        y0, x0 = det.box.y0, det.box.x0
        y1, x1 = min(det.box.y1, h), min(det.box.x1, w)
        if y0 >= y1 or x0 >= x1:  # wholly beyond the grid: an all-zero channel
            continue
        score = 1.0 if variant is Variant.A else det.score
        prob = v[y0:y1, x0:x1, det.class_id]
        m = det.mask[y0:y1, x0:x1] if is_thing and masks_enabled else None
        if variant is Variant.C:
            region = score * (prob + (m if m is not None else 0.0))
        else:  # A and B are multiplicative; absent mask is the identity
            region = score * (prob * m if m is not None else prob)
        region = region.astype(v.dtype, copy=False)
        if (y0, x0, y1, x1) == (0, 0, h, w) and len(slab_regions) == k:
            slab_regions.append(region.reshape(-1))
        else:
            windows.append(Window(k, y0, y1, x0, x1, region))
    slab = np.array(slab_regions, dtype=v.dtype).reshape(len(slab_regions), h * w)
    return DynamicPotential(shape=(h, w), channels=channels, slab=slab, windows=windows)
