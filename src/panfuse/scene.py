"""Scene data model, synthetic scene generation, and container IO.

A scene bundles the cues consumed by the fusion pipeline: per-pixel
semantic class probabilities, object detections (boxes, scores, classes,
optional masks), and per-pixel features feeding the affinity head.
Ground truth is a per-pixel segment labeling plus segment metadata.

On disk a scene is a directory holding ``manifest.json`` plus one PANC
tensor file per array (see :mod:`panfuse.container`).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import container
from .errors import DimensionError, FormatError, GenerationError
from .numerics import DEFAULT_DTYPE, FLOAT_DTYPES, IGNORE, bounded, check_bounds


@dataclass(frozen=True)
class ClassCatalog:
    """Fixed class ordering: ids 0..n_stuff-1 are stuff, the rest things."""

    n_stuff: int
    n_thing: int
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.n_stuff < 1 or self.n_thing < 0:
            raise DimensionError(
                f"catalog needs n_stuff >= 1 and n_thing >= 0, "
                f"got ({self.n_stuff}, {self.n_thing})"
            )
        if self.names is not None and len(self.names) != self.n_classes:
            raise DimensionError(
                f"catalog names has {len(self.names)} entries, "
                f"expected {self.n_classes}"
            )

    @property
    def n_classes(self) -> int:
        return self.n_stuff + self.n_thing

    def is_stuff(self, class_id: int) -> bool:
        return 0 <= class_id < self.n_stuff

    def is_thing(self, class_id: int) -> bool:
        return self.n_stuff <= class_id < self.n_classes


@dataclass(frozen=True)
class Box:
    """Axis-aligned pixel box, half-open on the right and bottom."""

    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self):
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise DimensionError(f"box must have positive area, got {self.as_tuple()}")
        if self.x0 < 0 or self.y0 < 0:
            raise DimensionError(f"box must have non-negative origin, got {self.as_tuple()}")

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.x0, self.y0, self.x1, self.y1)

    @property
    def width(self) -> int:
        return self.x1 - self.x0

    @property
    def height(self) -> int:
        return self.y1 - self.y0

    @property
    def area(self) -> int:
        return self.width * self.height

    def inside(self, width: int, height: int) -> bool:
        return self.x1 <= width and self.y1 <= height


def full_image_box(width: int, height: int) -> Box:
    return Box(0, 0, width, height)


@dataclass
class Detection:
    """One localisation cue: a scored, classed box with an optional mask.

    Masks live on the full downsampled grid (one plane per detection),
    values in [0, 1], nonzero only inside the box.
    """

    box: Box
    score: float
    class_id: int
    mask: np.ndarray | None = None


@dataclass
class SceneCues:
    """All per-scene inputs to the fusion pipeline."""

    catalog: ClassCatalog
    semantic_probs: np.ndarray  # (h, w, n_classes), rows sum to 1
    detections: list[Detection]
    features: np.ndarray  # (h, w, feature_dim)

    @property
    def height(self) -> int:
        return self.semantic_probs.shape[0]

    @property
    def width(self) -> int:
        return self.semantic_probs.shape[1]


@dataclass(frozen=True)
class GtSegment:
    index: int
    class_id: int
    box: Box
    area: int


@dataclass
class GroundTruthPanoptic:
    """Per-pixel segment indices plus segment metadata; IGNORE allowed."""

    label_map: np.ndarray  # (h, w) int32
    segments: list[GtSegment]


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic scene generator.

    ``box_truncation`` shrinks each detection box side by that fraction
    (centered); ``box_jitter`` is the std-dev of integer corner noise;
    ``confusion_rate`` is the per-pixel probability that a thing pixel's
    semantic mass is handed to a uniformly random donor class;
    ``mask_noise`` is the rate of false-positive mask pixels inside the
    detection box.
    """

    height: int = bounded(32, 1, 128)
    width: int = bounded(32, 1, 128)
    n_stuff: int = bounded(3, 1)
    n_thing: int = bounded(3, 1)
    n_instances: int = bounded(3, 0)
    stuff_segments: int = bounded(3, 1)
    instance_min: int = bounded(8, 1)
    instance_max: int = 13
    box_truncation: float = bounded(0.0, 0, 1, high_open=True)
    box_jitter: float = bounded(0.0, 0)
    confusion_rate: float = bounded(0.0, 0, 1, high_open=True)
    feature_noise: float = bounded(0.1, 0)
    feature_dim: int = bounded(16, 1)
    with_masks: bool = False
    mask_noise: float = bounded(0.0, 0, 1)

    def validate(self) -> None:
        check_bounds(self, GenerationError)
        if self.instance_min > self.instance_max:
            raise GenerationError(f"instance_min must be <= instance_max ({self.instance_max}), "
                                  f"got {self.instance_min}")

    def to_dict(self) -> dict:
        return asdict(self)


def _truncate_box(box: Box, fraction: float) -> Box:
    """Shrink each side by ``fraction``, keeping the center fixed."""
    if fraction <= 0.0:
        return box
    new_w = max(1, int(round(box.width * (1.0 - fraction))))
    new_h = max(1, int(round(box.height * (1.0 - fraction))))
    x0 = box.x0 + (box.width - new_w) // 2
    y0 = box.y0 + (box.height - new_h) // 2
    return Box(x0, y0, x0 + new_w, y0 + new_h)


def _jitter_box(box: Box, sigma: float, width: int, height: int,
                rng: np.random.Generator) -> Box:
    """Perturb each corner by rounded Gaussian noise, kept valid in-grid.

    An offset beyond the grid size moves a corner as far as the grid allows,
    so offsets are clipped to that size before the cast to int.
    """
    reach = max(width, height)
    d = np.clip(np.round(rng.normal(0.0, sigma, size=4)), -reach, reach).astype(int)
    x0 = int(np.clip(box.x0 + d[0], 0, width - 1))
    y0 = int(np.clip(box.y0 + d[1], 0, height - 1))
    x1 = int(np.clip(box.x1 + d[2], x0 + 1, width))
    y1 = int(np.clip(box.y1 + d[3], y0 + 1, height))
    return Box(x0, y0, x1, y1)


def tight_box(mask: np.ndarray) -> Box:
    """Minimal half-open box containing the True pixels of a 2-D mask."""
    ys, xs = np.nonzero(mask)
    if ys.size == 0:
        raise DimensionError("cannot bound an empty pixel set")
    return Box(int(xs.min()), int(ys.min()), int(xs.max()) + 1, int(ys.max()) + 1)


def synth_scene(cfg: SynthConfig, seed: int) -> tuple[SceneCues, GroundTruthPanoptic]:
    """Generate one synthetic scene; bit-deterministic for fixed (cfg, seed).

    The background is a nearest-seed partition over a subset of stuff
    classes; thing instances are non-overlapping axis-aligned rectangles
    drawn on top. Detections are the ground-truth tight boxes after
    truncation and jitter, with scores in [0.6, 1.0].
    """
    cfg.validate()
    if seed < 0:
        raise GenerationError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    h, w = cfg.height, cfg.width
    catalog = ClassCatalog(cfg.n_stuff, cfg.n_thing)

    # Stuff background: one nearest-seed cell per participating class.
    n_cells = min(cfg.stuff_segments, cfg.n_stuff)
    cell_classes = np.sort(rng.choice(cfg.n_stuff, size=n_cells, replace=False))
    seeds_y = rng.integers(0, h, size=n_cells)
    seeds_x = rng.integers(0, w, size=n_cells)
    yy, xx = np.mgrid[0:h, 0:w]
    dist = (yy[..., None] - seeds_y) ** 2 + (xx[..., None] - seeds_x) ** 2
    label = dist.argmin(axis=2).astype(np.int32)  # ties -> lowest cell index

    # Thing instances: rejection-sampled non-overlapping rectangles.
    rects: list[Box] = []
    thing_classes: list[int] = []
    for i in range(cfg.n_instances):
        placed = False
        for _ in range(200):
            bw = int(rng.integers(cfg.instance_min, cfg.instance_max + 1))
            bh = int(rng.integers(cfg.instance_min, cfg.instance_max + 1))
            if bw > w or bh > h:
                continue
            x0 = int(rng.integers(0, w - bw + 1))
            y0 = int(rng.integers(0, h - bh + 1))
            cand = Box(x0, y0, x0 + bw, y0 + bh)
            if all(_disjoint(cand, r) for r in rects):
                rects.append(cand)
                thing_classes.append(cfg.n_stuff + int(rng.integers(0, cfg.n_thing)))
                placed = True
                break
        if not placed:
            raise GenerationError(
                f"could not place instance {i + 1}/{cfg.n_instances} "
                f"on a {h}x{w} grid after 200 attempts"
            )

    for i, box in enumerate(rects):
        label[box.y0:box.y1, box.x0:box.x1] = n_cells + i

    # Compact away stuff cells fully covered by instances.
    segments: list[GtSegment] = []
    remap = np.full(n_cells + len(rects), -1, dtype=np.int32)
    next_index = 0
    for cell in range(n_cells):
        pixels = label == cell
        if not pixels.any():
            continue
        remap[cell] = next_index
        segments.append(GtSegment(next_index, int(cell_classes[cell]),
                                  tight_box(pixels), int(pixels.sum())))
        next_index += 1
    for i, box in enumerate(rects):
        remap[n_cells + i] = next_index
        segments.append(GtSegment(next_index, thing_classes[i], box, box.area))
        next_index += 1
    label = remap[label]

    seg_class = np.array([s.class_id for s in segments], dtype=np.int32)
    pixel_class = seg_class[label]

    # Semantic probabilities: one-hot ground truth; thing pixels flip their
    # mass to a uniformly random donor class with probability confusion_rate.
    k = catalog.n_classes
    flip = rng.random((h, w)) < cfg.confusion_rate
    donor = rng.integers(0, k, size=(h, w))
    observed = pixel_class.copy()
    thing_flip = flip & (pixel_class >= cfg.n_stuff)
    observed[thing_flip] = donor[thing_flip]
    v = np.zeros((h, w, k), dtype=DEFAULT_DTYPE)
    np.put_along_axis(v, observed[..., None].astype(np.int64), 1.0, axis=2)
    v /= v.sum(axis=2, keepdims=True)

    # Features: per-segment embedding plus Gaussian noise. Embeddings are
    # randomly assigned one-hot "slot" vectors in a fixed basis (distinct
    # per scene while slots last), so that a single scene-independent
    # projection can in principle separate any pair of segments.
    n_seg = len(segments)
    if n_seg <= cfg.feature_dim:
        slots = rng.permutation(cfg.feature_dim)[:n_seg]
    else:
        slots = rng.integers(0, cfg.feature_dim, size=n_seg)
    emb = np.zeros((n_seg, cfg.feature_dim))
    emb[np.arange(n_seg), slots] = 1.0
    features = emb[label].astype(DEFAULT_DTYPE)
    with np.errstate(over="ignore"):  # a huge noise overflows; refused just below
        features += cfg.feature_noise * rng.normal(size=features.shape)
    pixel = _first_non_finite(features)
    if pixel is not None:
        raise GenerationError(f"feature_noise {cfg.feature_noise} makes the features "
                              f"non-finite at pixel {pixel}")

    # Detections from the thing instances.
    detections: list[Detection] = []
    for i, rect in enumerate(rects):
        box = _truncate_box(rect, cfg.box_truncation)
        if cfg.box_jitter > 0:
            box = _jitter_box(box, cfg.box_jitter, w, h, rng)
        score = float(0.6 + 0.4 * rng.random())
        mask = None
        if cfg.with_masks:
            mask = np.zeros((h, w), dtype=DEFAULT_DTYPE)
            mask_region = np.zeros((h, w), dtype=bool)
            mask_region[box.y0:box.y1, box.x0:box.x1] = True
            inside_instance = np.zeros((h, w), dtype=bool)
            inside_instance[rect.y0:rect.y1, rect.x0:rect.x1] = True
            mask[mask_region & inside_instance] = 1.0
            if cfg.mask_noise > 0:
                fp = mask_region & ~inside_instance & (rng.random((h, w)) < cfg.mask_noise)
                mask[fp] = 1.0
        detections.append(Detection(box=box, score=score,
                                    class_id=thing_classes[i], mask=mask))

    scene = SceneCues(catalog=catalog, semantic_probs=v,
                      detections=detections, features=features)
    gt = GroundTruthPanoptic(label_map=label, segments=segments)
    return scene, gt


def _disjoint(a: Box, b: Box) -> bool:
    return a.x1 <= b.x0 or b.x1 <= a.x0 or a.y1 <= b.y0 or b.y1 <= a.y0


def _first_non_finite(t: np.ndarray) -> tuple[int, int] | None:
    """The first pixel of ``t`` (h, w, c) with a NaN or inf, or None."""
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(t.sum()):  # any NaN or inf makes the sum non-finite
            return None
    bad = ~np.isfinite(t).all(axis=2)
    return tuple(np.argwhere(bad)[0].tolist()) if bad.any() else None


def _check_finite(name: Path, t: np.ndarray) -> None:
    """Raise at the first pixel of ``t`` (h, w, c) with a NaN or inf."""
    pixel = _first_non_finite(t)
    if pixel is not None:
        raise FormatError(f"{name}: non-finite value at pixel {pixel}")


def _check_probabilities(name: Path, v: np.ndarray) -> None:
    """Raise at the first pixel of ``v`` with a NaN or inf, else at the first
    pixel whose probabilities do not sum to 1."""
    sums = np.einsum("ijk->ij", v)  # 3-5x faster than v.sum(axis=2) over few channels
    # A NaN or inf makes its pixel's sum non-finite, and so not near 1: a
    # scene whose sums are all near 1 needs no pass for finiteness.
    near = np.abs(sums - 1.0) <= 1e-6
    if near.all():
        return
    _check_finite(name, v)
    y, x = np.argwhere(~near)[0]
    raise FormatError(f"{name}: normalization violated at pixel ({y}, {x}), "
                      f"sum {sums[y, x]:.6g}")


def _check_mask(name: Path, mask: np.ndarray, b: Box) -> None:
    """Raise if a detection mask is non-finite, has values outside [0, 1] or
    is nonzero outside its box ``b``, in that order."""
    inside = mask[b.y0:b.y1, b.x0:b.x1]
    outside = np.count_nonzero(mask) != np.count_nonzero(inside)  # a NaN counts as nonzero
    values = mask if outside else inside  # zeros outside the box are within [0, 1]
    # A NaN or inf, counted in ``values``, fails this test too; only then is
    # the mask searched for one, so a valid mask takes no pass for finiteness.
    if not (0.0 <= values.min() and values.max() <= 1.0):
        _check_finite(name, mask[..., None])
        raise FormatError(f"{name}: values outside [0, 1]")
    if outside:
        raise FormatError(f"{name}: nonzero outside its box")


# ---------------------------------------------------------------------------
# Container IO
# ---------------------------------------------------------------------------

_MANIFEST = "manifest.json"


def save_scene(scene: SceneCues, path: str | Path,
               gt: GroundTruthPanoptic | None = None,
               synth: SynthConfig | None = None) -> None:
    """Write a scene directory (manifest.json plus PANC tensors)."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    container.write_tensor(root / "semantic_probs.panc", scene.semantic_probs)
    container.write_tensor(root / "features.panc", scene.features)
    det_records = []
    for i, det in enumerate(scene.detections):
        rec = {
            "box": list(det.box.as_tuple()),
            "score": det.score,
            "class_id": det.class_id,
            "mask": None,
        }
        if det.mask is not None:
            name = f"mask_{i:03d}.panc"
            container.write_tensor(root / name, det.mask)
            rec["mask"] = name
        det_records.append(rec)
    manifest = {
        "format": "panfuse-scene",
        "version": 1,
        "catalog": {
            "n_stuff": scene.catalog.n_stuff,
            "n_thing": scene.catalog.n_thing,
            "names": list(scene.catalog.names) if scene.catalog.names else None,
        },
        "shape": {"height": scene.height, "width": scene.width},
        "tensors": {"semantic_probs": "semantic_probs.panc", "features": "features.panc"},
        "detections": det_records,
        "ground_truth": None,
        "synth": synth.to_dict() if synth is not None else None,
    }
    if gt is not None:
        # IGNORE (-1) is stored as SENTINEL_U32; the loader views it back.
        container.write_tensor(root / "gt_labels.panc",
                               gt.label_map.astype(np.int32, copy=False).view(np.uint32))
        manifest["ground_truth"] = {
            "label_map": "gt_labels.panc",
            "segments": [
                {"index": s.index, "class_id": s.class_id,
                 "box": list(s.box.as_tuple()), "area": s.area}
                for s in gt.segments
            ],
        }
    container.write_file(root / _MANIFEST, json.dumps(manifest, indent=2, sort_keys=True))


@dataclass
class _SceneManifest:
    """A checked scene manifest: everything but the tensor payloads."""

    path: Path  # of manifest.json
    catalog: ClassCatalog
    shape: tuple[int, int]
    cue_files: list[Path | None]  # semantic_probs, features, then each detection's mask
    detections: list[Detection]  # masks not read
    gt_labels: Path | None
    gt_segments: list[GtSegment]


def _box(node: dict, source: Path, at: str) -> Box:
    coords = container.manifest_value(node, "box", list, source, at)
    if len(coords) != 4 or set(map(type, coords)) != {int}:
        raise FormatError(f"{source}: key {at}.box must be a list of 4 integers")
    try:
        return Box(*coords)
    except DimensionError as e:
        raise FormatError(f"{source}: key {at}.box: {e}") from None


def _check_box(box: Box, shape: tuple[int, int], source: Path, at: str) -> None:
    """Raise unless ``box`` lies on the grid of ``shape`` (height, width)."""
    if not box.inside(shape[1], shape[0]):
        raise FormatError(f"{source}: key {at}.box: {box.as_tuple()} exceeds "
                          f"{shape[1]}x{shape[0]} grid")


def _check_class(class_id: int, catalog: ClassCatalog, source: Path, at: str) -> None:
    """Raise unless ``class_id`` is in ``catalog``."""
    if not (0 <= class_id < catalog.n_classes):
        raise FormatError(f"{source}: key {at}.class_id: {class_id} out of range")


def _read_manifest(path: str | Path) -> _SceneManifest:
    """Parse and check ``manifest.json``; shared by both scene loaders."""
    root = Path(path)
    mpath = root / _MANIFEST
    value, records = container.manifest_value, container.manifest_records
    manifest = container.read_manifest(mpath, "panfuse-scene", "a scene")

    cat = value(manifest, "catalog", dict, mpath)
    names = value(cat, "names", list, mpath, "catalog", optional=True)
    if names and any(type(n) is not str for n in names):
        raise FormatError(f"{mpath}: key catalog.names must be a list of strings")
    try:
        catalog = ClassCatalog(value(cat, "n_stuff", int, mpath, "catalog"),
                               value(cat, "n_thing", int, mpath, "catalog"),
                               tuple(names) if names else None)
    except DimensionError as e:
        raise FormatError(f"{mpath}: key catalog: {e}") from None
    grid = value(manifest, "shape", dict, mpath)
    shape = (value(grid, "height", int, mpath, "shape"),
             value(grid, "width", int, mpath, "shape"))
    for key, side in zip(("height", "width"), shape):
        if side < 1:
            raise FormatError(f"{mpath}: key shape.{key} must be >= 1, got {side}")
    tensors = value(manifest, "tensors", dict, mpath)
    cue_files = [root / value(tensors, key, str, mpath, "tensors")
                 for key in ("semantic_probs", "features")]

    detections = []
    for rec, at in records(manifest, "detections", mpath):
        mask = value(rec, "mask", str, mpath, at, optional=True)
        cue_files.append(root / mask if mask else None)
        det = Detection(box=_box(rec, mpath, at),
                        score=value(rec, "score", float, mpath, at),
                        class_id=value(rec, "class_id", int, mpath, at))
        _check_box(det.box, shape, mpath, at)
        if not (0.0 <= det.score <= 1.0):
            raise FormatError(f"{mpath}: key {at}.score: {det.score} outside [0, 1]")
        _check_class(det.class_id, catalog, mpath, at)
        if not catalog.is_thing(det.class_id):  # the pipeline adds the stuff pseudo-detections
            raise FormatError(f"{mpath}: key {at}.class_id: {det.class_id} is not a thing class")
        detections.append(det)
    if any(cue_files[2:]) and None in cue_files[2:]:  # build_potential needs all or none
        raise FormatError(f"{mpath}: key detections[{cue_files.index(None) - 2}].mask is "
                          f"absent, but other detections have masks")

    gt_labels, gt_segments = None, []
    g = value(manifest, "ground_truth", dict, mpath, optional=True)
    if g:
        gt_labels = root / value(g, "label_map", str, mpath, "ground_truth")
        for i, (s, at) in enumerate(records(g, "segments", mpath, "ground_truth")):
            index = value(s, "index", int, mpath, at)
            if index != i:  # the label grid indexes the segment list directly
                raise FormatError(f"{mpath}: key {at}.index must be {i}, got {index}")
            class_id = value(s, "class_id", int, mpath, at)
            _check_class(class_id, catalog, mpath, at)
            box = _box(s, mpath, at)
            _check_box(box, shape, mpath, at)
            gt_segments.append(GtSegment(index, class_id, box, value(s, "area", int, mpath, at)))
    return _SceneManifest(path=mpath, catalog=catalog, shape=shape, cue_files=cue_files,
                          detections=detections, gt_labels=gt_labels, gt_segments=gt_segments)


def _read_cues(m: _SceneManifest, read) -> tuple:
    """Semantic probabilities, features and masks, with the shapes the manifest
    gives them and dtype float32 or float64; a None mask is absent.

    ``read`` is ``container.read_tensor``, or ``container.read_header`` to
    make the same checks without reading any payload: only ``.shape`` and
    ``.dtype`` are checked here.
    """
    v, features, *masks = cues = [read(f) if f else None for f in m.cue_files]
    c = features.shape[2] if len(features.shape) == 3 else "c"  # features take any width
    expected = [m.shape + (m.catalog.n_classes,), m.shape + (c,)] + [m.shape] * len(masks)
    for t, shape, name in zip(cues, expected, m.cue_files):
        if t is None:
            continue
        if t.shape != shape:
            raise FormatError(f"{name}: shape {t.shape}, expected ({', '.join(map(str, shape))})")
        if t.dtype not in FLOAT_DTYPES:
            raise FormatError(f"{name}: dtype {t.dtype}, expected float32 or float64")
    return v, features, masks


def _read_ground_truth(m: _SceneManifest) -> GroundTruthPanoptic | None:
    """The ground-truth grid, checked against the segment records of the manifest."""
    if m.gt_labels is None:
        return None
    u32 = container.read_tensor(m.gt_labels)
    if u32.shape != m.shape:
        raise FormatError(f"{m.gt_labels}: ground-truth grid {u32.shape} does not match "
                          f"manifest {m.shape}")
    if u32.dtype != np.uint32:
        raise FormatError(f"{m.gt_labels}: ground-truth grid has dtype {u32.dtype}, "
                          f"expected uint32")
    mpath, n = m.path, len(m.gt_segments)
    label = u32.view(np.int32)  # the u32 sentinel reads as IGNORE (-1)
    if label.min() < IGNORE or label.max() >= n:
        y, x = np.argwhere((label < IGNORE) | (label >= n))[0]
        raise FormatError(f"{mpath}: key ground_truth.label_map: {m.gt_labels} holds "
                          f"{u32[y, x]} at pixel ({y}, {x}), which is neither the "
                          f"IGNORE sentinel nor one of the {n} segments")
    areas = np.bincount(label.ravel() + 1, minlength=n + 1)[1:].tolist()
    for s, area in zip(m.gt_segments, areas):
        if s.area != area:
            raise FormatError(f"{mpath}: key ground_truth.segments[{s.index}].area is "
                              f"{s.area}, but segment {s.index} has {area} pixels in "
                              f"{m.gt_labels}")
    # Boxes need not be tight, but each must hold its segment's pixels: with
    # the areas checked, it does when its window counts all of them.
    outside = None
    for s in m.gt_segments:
        b = s.box
        if np.count_nonzero(label[b.y0:b.y1, b.x0:b.x1] == s.index) != s.area:
            own = label == s.index
            own[b.y0:b.y1, b.x0:b.x1] = False
            outside = own if outside is None else outside | own
    if outside is not None:  # report the first such pixel in row-major order
        y, x = np.argwhere(outside)[0]
        s = m.gt_segments[label[y, x]]
        raise FormatError(f"{mpath}: key ground_truth.segments[{s.index}].box: "
                          f"{s.box.as_tuple()} does not hold pixel ({y}, {x}) of segment "
                          f"{s.index}")
    return GroundTruthPanoptic(label_map=label, segments=m.gt_segments)


def load_scene(path: str | Path) -> tuple[SceneCues, GroundTruthPanoptic | None]:
    """Read a scene directory; save -> load round-trips bit-exactly.

    Bad cues are refused at the first fault, naming the tensor file: wrong
    shapes or dtypes, non-finite values (at the first bad pixel), semantic
    probabilities that do not sum to 1, and masks with values outside [0, 1]
    or outside their box.
    """
    m = _read_manifest(path)
    v, features, masks = _read_cues(m, container.read_tensor)
    _check_probabilities(m.cue_files[0], v)
    _check_finite(m.cue_files[1], features)
    for det, mask, name in zip(m.detections, masks, m.cue_files[2:]):
        if mask is not None:
            _check_mask(name, mask, det.box)
        det.mask = mask
    scene = SceneCues(catalog=m.catalog, semantic_probs=v,
                      detections=m.detections, features=features)
    return scene, _read_ground_truth(m)


def load_scene_records(path: str | Path
                       ) -> tuple[ClassCatalog, list[Detection], GroundTruthPanoptic | None]:
    """What scoring a scene needs: its catalog, detections and ground truth.

    The cue tensors get the header, size, shape and dtype checks of ``load_scene``
    but their payloads are not read, so the detections carry no masks.
    """
    m = _read_manifest(path)
    _read_cues(m, container.read_header)
    return m.catalog, m.detections, _read_ground_truth(m)

