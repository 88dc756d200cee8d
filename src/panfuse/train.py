"""Desk-scale end-to-end training on synthetic scenes.

Only the affinity projection weights are trainable; semantic
probabilities, detections, and features are inputs. Optimization is
plain gradient descent, which keeps runs deterministic: identical
configs produce bit-identical reports.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .affinity import AffinityParams, project_head
from .errors import CueError, GenerationError, NumericError
from .inference import MergerParams, PanopticMap, heuristic_merge, panoptic_from_ground_truth, predict_panoptic
from .matching import TargetMap, build_target_map, match_segments, panoptic_matching_loss, target_channels
from .metrics import PQReport, PQStats
from .numerics import bounded, channel_max, channel_sum, check_bounds, pixel_sum
from .potential import DensePotential, Variant, append_stuff_boxes, build_potential
from .scene import Detection, GroundTruthPanoptic, SceneCues, SynthConfig, synth_scene

EVAL_SEED_OFFSET = 10_007
# Where training scenes take their thing detections from.
DETECTIONS_SOURCES = ("predicted", "ground_truth")
# The ablations of `preset_configs`, one per directional claim of the paper.
PRESETS = ("affinity", "detections", "variants")


@dataclass(frozen=True)
class TrainConfig:
    steps: int = bounded(40_000, 1)
    learning_rate: float = bounded(0.01, 0, low_open=True)
    seed: int = bounded(0, 0)
    use_affinity: bool = True
    detections_source: str = "predicted"  # one of DETECTIONS_SOURCES
    variant: Variant = Variant.B
    match_threshold: float = bounded(0.5, 0, 1, low_open=True)
    scenes: int = bounded(64, 1)
    scene: SynthConfig = field(default_factory=SynthConfig)
    eval_scenes: int = bounded(6, 1)
    param_scale: float = 0.15

    def validate(self) -> None:
        check_bounds(self, NumericError)
        if self.detections_source not in DETECTIONS_SOURCES:
            raise NumericError(f"detections_source must be one of {DETECTIONS_SOURCES}, "
                               f"got {self.detections_source!r}")
        self.scene.validate()

    def to_dict(self) -> dict:
        d = asdict(self)
        d["variant"] = self.variant.value
        return d


@dataclass
class TrainingReport:
    loss_curve: list[float]
    final_pq: PQReport
    config: TrainConfig
    params: AffinityParams  # trained weights; not part of the JSON form

    def to_json_dict(self) -> dict:
        return {
            "loss_curve": self.loss_curve,
            "final_pq": self.final_pq.to_json_dict(),
            "config": self.config.to_dict(),
        }


@dataclass(frozen=True)
class SceneFeatures:
    """The one cue of a scene that a training step reads."""

    features: np.ndarray  # (h, w, feature_dim)


@dataclass
class SceneBundle:
    """Per-scene quantities that stay fixed while parameters change: all
    that ``loss_and_grads`` reads, and no more. ``scene`` holds the
    features alone; the class probabilities and detections, masks included,
    only build the potential and are not kept.

    Construction also derives what ``loss_and_grads`` needs from the
    potential, features and target, and checks the target against the
    potential by the loss's rule, ``matching.target_channels``; the arrays
    must not change afterwards.
    """

    scene: SceneFeatures
    potential: DensePotential
    target: TargetMap
    psi_flat: np.ndarray = field(init=False, repr=False)  # (pixels, k) view of psi
    features_flat: np.ndarray = field(init=False, repr=False)  # (pixels, c)
    valid_pixels: np.ndarray = field(init=False, repr=False)  # flat indices, not IGNORE
    ignored_pixels: np.ndarray = field(init=False, repr=False)  # flat indices, IGNORE
    target_flat: np.ndarray = field(init=False, repr=False)  # pixel * k + target channel
    n_valid: int = field(init=False)

    def __post_init__(self) -> None:
        psi = self.potential.psi
        k = psi.shape[2]
        valid, channels = target_channels(self.target.label_map, psi.shape)
        features = self.scene.features
        self.psi_flat = psi.reshape(-1, k)
        self.features_flat = features.reshape(-1, features.shape[2])
        self.valid_pixels = np.flatnonzero(valid)
        self.ignored_pixels = np.flatnonzero(~valid)
        self.target_flat = self.valid_pixels * k + channels
        self.n_valid = int(channels.size)


def ground_truth_detections(scene: SceneCues, gt: GroundTruthPanoptic) -> list[Detection]:
    """Tight ground-truth thing boxes with a uniform score of 1.0."""
    dets = []
    for seg in gt.segments:
        if not scene.catalog.is_thing(seg.class_id):
            continue
        mask = None
        if any(d.mask is not None for d in scene.detections):
            mask = (gt.label_map == seg.index).astype(scene.semantic_probs.dtype)
        dets.append(Detection(box=seg.box, score=1.0, class_id=seg.class_id, mask=mask))
    return dets


def prepare_training_scene(scene: SceneCues, gt: GroundTruthPanoptic,
                           variant: Variant, detections_source: str,
                           match_threshold: float) -> SceneBundle:
    """Assemble the fixed potential and target for one training scene.

    Detections are matched against ground truth; duplicate detections are
    dropped before the potential is built, so channel k is the k-th kept
    detection, and unmatched ground-truth segments become IGNORE in the
    target. The bundle keeps none of the scene's cues but its features.
    """
    if detections_source == "ground_truth":
        things = ground_truth_detections(scene, gt)
    else:
        things = scene.detections
    dets = append_stuff_boxes(things, scene.catalog, scene.height, scene.width)
    match = match_segments(gt, dets, match_threshold, scene.catalog)
    kept = [i for i in range(len(dets)) if i not in match.removed_duplicates]
    potential = build_potential(scene.semantic_probs, [dets[i] for i in kept],
                                variant, scene.catalog)
    target = build_target_map(gt, match, kept)
    return SceneBundle(scene=SceneFeatures(scene.features), target=target,
                       potential=DensePotential(potential.psi))


def loss_and_grads(bundle: SceneBundle, params: AffinityParams,
                   ) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One training step's loss and its (d_w0, d_b0, d_w1, d_b1).

    Bit for bit what ``project_features``, ``apply_affinity_factored``,
    ``panoptic_matching_loss`` and ``backward_affinity`` give, in one pass:
    the projections and ``exp`` are computed once, and the input gradients
    (``d_psi``, ``d_features``) are not computed at all. The row max and,
    below 8 channels, the softmax denominator are reduced over the k
    channels one column at a time (``numerics.channel_max``,
    ``channel_sum``), in the order numpy adds them, and the bias gradients
    over the pixels in one call (``numerics.pixel_sum``); each gives the
    bits of the reference's numpy reduction without its per-pixel or
    per-row loop calls. From 8 channels the denominator is numpy's own
    pairwise ``sum``: no training workload has that many, and there the
    column order saves nothing.
    """
    psi, features = bundle.psi_flat, bundle.features_flat
    if bundle.n_valid == 0:
        return (0.0, np.zeros_like(params.w0), np.zeros_like(params.b0),
                np.zeros_like(params.w1), np.zeros_like(params.b1))

    # Forward: rectified projections, logits, shifted logits.
    q0 = project_head(features, params.w0, params.b0)
    q1 = project_head(features, params.w1, params.b1)
    inner = q1.T @ psi
    g = q0 @ inner
    g += psi
    g -= channel_max(g)[:, None]

    # Loss: log-softmax at the target channels of the valid pixels.
    picked = g.take(bundle.target_flat)
    np.exp(g, out=g)
    sums = channel_sum(g)
    log_probs = picked - np.log(sums[bundle.valid_pixels])
    loss = float(-(log_probs.sum()) / bundle.n_valid)

    # d_loss/d_p = (softmax - onehot) / n_valid, zero at IGNORE pixels.
    g /= sums[:, None]
    g.reshape(-1)[bundle.target_flat] -= 1.0
    g[bundle.ignored_pixels] = 0.0
    g /= bundle.n_valid

    # Backward through the factored product and both rectifiers.
    d_inner = q0.T @ g
    d = g @ inner.T
    d *= q0 > 0.0
    d_w0, d_b0 = features.T @ d, pixel_sum(d)
    d = psi @ d_inner.T
    d *= q1 > 0.0
    return loss, d_w0, d_b0, features.T @ d, pixel_sum(d)


def _pool_scene(cfg: TrainConfig, pool: str, i: int,
                seed: int) -> tuple[SceneCues, GroundTruthPanoptic]:
    """Scene ``i`` of a pool; a scene that cannot be generated is named by
    its pool, index and seed."""
    try:
        return synth_scene(cfg.scene, seed=seed)
    except GenerationError as e:
        raise GenerationError(f"{pool} scene {i} (seed {seed}): {e}") from e


def make_pool(cfg: TrainConfig) -> list[SceneBundle]:
    """The training pool, one scene at a time: a scene's cues are gone once
    its bundle is built, before the next scene is generated."""
    return [prepare_training_scene(*_pool_scene(cfg, "training", i, cfg.seed + i),
                                   cfg.variant, cfg.detections_source, cfg.match_threshold)
            for i in range(cfg.scenes)]


def make_eval_pool(cfg: TrainConfig) -> list[tuple[SceneCues, GroundTruthPanoptic]]:
    return [_pool_scene(cfg, "held-out", i, cfg.seed + EVAL_SEED_OFFSET + i)
            for i in range(cfg.eval_scenes)]


def evaluate_pq(pool: list[tuple[SceneCues, GroundTruthPanoptic]],
                predict: Callable[[SceneCues], PanopticMap]) -> PQReport:
    """Held-out PQ of the panoptic maps ``predict`` makes of the pool's scenes."""
    stats = PQStats()
    catalog = pool[0][0].catalog
    for scene, gt in pool:
        stats.accumulate(predict(scene), panoptic_from_ground_truth(gt, catalog))
    return stats.report(catalog)


def train_toy(cfg: TrainConfig) -> TrainingReport:
    """Plain gradient descent over the affinity projections.

    Scenes are visited round-robin; the loss curve records the pre-update
    loss of each step's scene. Raises ``NumericError`` with the step index
    if the loss goes non-finite; finite but huge features get there through
    overflow, which the steps make silently. The held-out pool is generated
    first, so a scene that cannot be generated fails before any step.
    """
    cfg.validate()
    eval_pool = make_eval_pool(cfg)
    pool = make_pool(cfg)
    params = AffinityParams.init(cfg.scene.feature_dim, seed=cfg.seed,
                                 scale=cfg.param_scale)
    losses: list[float] = []
    # Without the affinity head no parameter enters the loss, so each pool
    # scene's loss is computed once and repeated at every visit.
    fixed_losses = None if cfg.use_affinity else [
        panoptic_matching_loss(b.potential.psi, b.target)[0] for b in pool[:cfg.steps]]
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(cfg.steps):
            if fixed_losses is not None:
                loss = fixed_losses[step % len(pool)]
            else:
                loss, *grads = loss_and_grads(pool[step % len(pool)], params)
            if not np.isfinite(loss):
                raise NumericError(f"loss diverged at step {step}")
            losses.append(loss)
            if fixed_losses is not None:
                continue
            # In place, with the arithmetic of ``w - lr * d``: ``init`` made these
            # arrays for this run alone.
            for w, d in zip((params.w0, params.b0, params.w1, params.b1), grads):
                w -= cfg.learning_rate * d
    trained = params if cfg.use_affinity else None
    final_pq = evaluate_pq(eval_pool, lambda scene: predict_panoptic(scene, trained, cfg.variant))
    return TrainingReport(loss_curve=losses, final_pq=final_pq,
                          config=cfg, params=params)


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------

@dataclass
class AblationRow:
    label: str
    masks: bool
    use_affinity: bool
    detections_source: str
    variant: str
    pq_argmax: dict[str, float]  # PQ over "all", "things" and "stuff"
    pq_heuristic: dict[str, float] | None
    initial_loss: float
    final_loss: float

    def to_json_dict(self) -> dict:
        d = asdict(self)
        if self.pq_heuristic is None:
            del d["pq_heuristic"]
        return d


def preset_configs(preset: str, steps: int, seed: int) -> tuple[list[TrainConfig], list[str]]:
    """The configs and row labels of one of ``PRESETS``.

    ``panfuse ablate`` trains them; acceptance criteria 06-09 train them at
    40,000 steps and seed 0 and assert the comparison each preset makes.
    """
    if preset == "affinity":
        scene = SynthConfig(box_truncation=0.3, confusion_rate=0.1, with_masks=True)
        base = TrainConfig(steps=steps, seed=seed, scene=scene, match_threshold=0.4)
        return ([base, replace(base, use_affinity=False)],
                ["affinity_on", "affinity_off"])
    if preset == "detections":
        scene = SynthConfig(box_jitter=1.5, box_truncation=0.15)
        base = TrainConfig(steps=steps, seed=seed, scene=scene, match_threshold=0.4)
        return ([base, replace(base, detections_source="ground_truth")],
                ["predicted_dets", "ground_truth_dets"])
    if preset == "variants":
        # The confused pool trains shorter so neither composition saturates.
        confused = SynthConfig(confusion_rate=0.4, with_masks=True)
        clean = SynthConfig(confusion_rate=0.0, with_masks=True, mask_noise=0.1)
        rows, labels = [], []
        for scene, tag, n in [(confused, "confused", min(steps, 12_000)),
                              (clean, "clean", steps)]:
            for variant in (Variant.B, Variant.C):
                rows.append(TrainConfig(steps=n, seed=seed, scene=scene,
                                        variant=variant, eval_scenes=8))
                labels.append(f"{tag}_{variant.value}")
        return rows, labels
    raise CueError(f"unknown preset {preset!r}")


def ablate(configs: list[TrainConfig], labels: list[str]) -> list[AblationRow]:
    """Train each config and evaluate on its held-out pool.

    Heuristic-merger PQ is reported alongside the argmax PQ whenever the
    scene pool carries masks.
    """
    rows = []
    for label, cfg in zip(labels, configs, strict=True):
        report = train_toy(cfg)
        pq_heu = None
        if cfg.scene.with_masks:
            heu = evaluate_pq(make_eval_pool(cfg), lambda scene: heuristic_merge(
                scene.semantic_probs, scene.detections, MergerParams(), scene.catalog))
            pq_heu = {group: pq for group, (pq, _, _) in heu.aggregates.items()}
        rows.append(AblationRow(
            label=label,
            masks=cfg.scene.with_masks,
            use_affinity=cfg.use_affinity,
            detections_source=cfg.detections_source,
            variant=cfg.variant.value,
            pq_argmax={group: pq for group, (pq, _, _) in report.final_pq.aggregates.items()},
            pq_heuristic=pq_heu,
            initial_loss=report.loss_curve[0],
            final_loss=report.loss_curve[-1],
        ))
    return rows


def render_ablation_table(rows: list[AblationRow]) -> str:
    header = (f"{'label':>18} {'msk':>4} {'aff':>4} {'dets':>12} {'var':>4} "
              f"{'PQ':>7} {'PQ-th':>7} {'PQ-st':>7} {'PQ-heu':>7} {'loss':>8}")
    lines = [header]
    for r in rows:
        heu = f"{r.pq_heuristic['all']:7.4f}" if r.pq_heuristic else "      -"
        pq = r.pq_argmax
        lines.append(
            f"{r.label:>18} {'y' if r.masks else 'n':>4} "
            f"{'y' if r.use_affinity else 'n':>4} {r.detections_source:>12} "
            f"{r.variant:>4} {pq['all']:7.4f} {pq['things']:7.4f} "
            f"{pq['stuff']:7.4f} {heu} {r.final_loss:8.4f}"
        )
    return "\n".join(lines)
