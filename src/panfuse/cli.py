"""Command-line interface.

Subcommands: synth, run, train, eval, costs, ablate. All numeric output
is JSON-first; the human-readable tables are rendered from the same
dictionaries. Exit codes: 0 success, 2 usage, 3 data/cue error,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import container
from .affinity import AffinityParams, affinity_map_for_pixel, estimate_costs, project_features
from .errors import CapacityError, CueError, DimensionError, FormatError, GenerationError, NumericError, PanfuseError
from .inference import MergerParams, heuristic_merge, load_panoptic, panoptic_from_ground_truth, save_panoptic, trim_small_stuff
from .matching import boxes_from_segments, match_segments
from .metrics import ConfusionTS, PQStats, box_average_precision, mean_iou, thing_stuff_confusion
from .potential import Variant, append_stuff_boxes
from .scene import SynthConfig, load_scene, load_scene_records, save_scene, synth_scene, validate_scene
from .train import TrainConfig, ablate, predict_panoptic, render_ablation_table, train_toy

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _worker_count() -> int:
    raw = os.environ.get("PANOPTIC_THREADS", "")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    return max(1, n) if n else min(4, os.cpu_count() or 1)


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _pixel(text: str) -> tuple[int, int]:
    """argparse type: a ROW,COL pixel."""
    try:
        row, col = (int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected ROW,COL, got {text!r}") from None
    return row, col


def _add_synth_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--height", type=int, default=32)
    p.add_argument("--width", type=int, default=32)
    p.add_argument("--n-stuff", type=int, default=3)
    p.add_argument("--n-thing", type=int, default=3)
    p.add_argument("--instances", type=int, default=3)
    p.add_argument("--stuff-segments", type=int, default=3)
    p.add_argument("--truncation", type=float, default=0.0)
    p.add_argument("--jitter", type=float, default=0.0)
    p.add_argument("--confusion", type=float, default=0.0)
    p.add_argument("--feature-noise", type=float, default=0.1)
    p.add_argument("--feature-dim", type=int, default=16)
    p.add_argument("--with-masks", action="store_true")
    p.add_argument("--mask-noise", type=float, default=0.0)


def _synth_config(args: argparse.Namespace) -> SynthConfig:
    return SynthConfig(
        height=args.height, width=args.width, n_stuff=args.n_stuff,
        n_thing=args.n_thing, n_instances=args.instances,
        stuff_segments=args.stuff_segments, box_truncation=args.truncation,
        box_jitter=args.jitter, confusion_rate=args.confusion,
        feature_noise=args.feature_noise, feature_dim=args.feature_dim,
        with_masks=args.with_masks, mask_noise=args.mask_noise,
    )


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _synth_config(args)
    scene, gt = synth_scene(cfg, args.seed)
    violations = validate_scene(scene)
    if violations:
        raise GenerationError("generated scene failed validation: " + "; ".join(violations))
    save_scene(scene, args.out, gt=gt, synth=cfg)
    print(json.dumps({"out": str(args.out), "seed": args.seed,
                      "segments": len(gt.segments),
                      "detections": len(scene.detections)}))
    return EXIT_OK


def _run_one(args: argparse.Namespace, scene_path: str, out_path: str,
             params: AffinityParams | None) -> dict:
    scene, gt = load_scene(scene_path)
    # Checked before anything is written, so a failure leaves no output.
    if args.dump_match and gt is None:
        raise CueError("--dump-match needs ground truth in the scene container")
    if args.dump_affinity:
        row, col = args.dump_affinity
        if not (0 <= row < scene.height and 0 <= col < scene.width):
            raise CueError(
                f"--dump-affinity pixel ({row}, {col}) is outside scene {scene_path} "
                f"({scene.height}x{scene.width} grid)"
            )

    if args.mode == "heuristic":
        merger = MergerParams(
            instance_score_threshold=args.merger_score,
            overlap_threshold=args.merger_overlap,
            stuff_area_threshold=args.merger_stuff_area,
        )
        pmap = heuristic_merge(scene.semantic_probs, scene.detections, merger,
                               scene.catalog)
    else:
        pmap, _ = predict_panoptic(scene, params, Variant(args.variant),
                                   args.score_threshold)

    if args.trim > 0:
        pmap = trim_small_stuff(pmap, args.trim)
    save_panoptic(pmap, out_path)

    summary = {
        "scene": str(scene_path),
        "out": str(out_path),
        "mode": args.mode,
        "segments": len(pmap.segments),
        "void_pixels": int((pmap.label_map < 0).sum()),
    }
    if args.dump_match:
        dets = append_stuff_boxes(scene.detections, scene.catalog,
                                  scene.height, scene.width)
        match = match_segments(gt, dets, args.match_threshold, scene.catalog)
        match_path = Path(out_path) / "match.json"
        match_path.write_text(json.dumps(match.to_json_dict(), indent=2, sort_keys=True))
        summary["match"] = str(match_path)
    if args.dump_affinity:
        q0, q1 = project_features(scene.features, params)
        amap = affinity_map_for_pixel(q0, q1, (row, col))
        apath = Path(out_path) / f"affinity_{row}_{col}.panc"
        container.write_tensor(apath, amap)
        summary["affinity_map"] = str(apath)
    return summary


def cmd_run(args: argparse.Namespace) -> int:
    if len(args.scene) != len(args.out):
        raise CueError(f"got {len(args.scene)} scenes but {len(args.out)} outputs")
    if args.dump_affinity and not args.checkpoint:
        raise CueError("--dump-affinity needs --checkpoint")
    params = AffinityParams.load(args.checkpoint) if args.checkpoint else None
    pairs = list(zip(args.scene, args.out))
    if len(pairs) == 1:
        summaries = [_run_one(args, *pairs[0], params)]
    else:
        with ThreadPoolExecutor(max_workers=_worker_count()) as pool:
            summaries = list(pool.map(lambda sp: _run_one(args, *sp, params), pairs))
    for summary in summaries:
        print(json.dumps(summary))
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    cfg = TrainConfig(
        steps=args.steps, learning_rate=args.learning_rate, seed=args.seed,
        use_affinity=not args.no_affinity,
        detections_source=args.detections_source,
        variant=Variant(args.variant), match_threshold=args.match_threshold,
        scenes=args.scenes, scene=_synth_config(args),
        eval_scenes=args.eval_scenes,
    )
    report = train_toy(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(
        json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
    report.params.save(out / "checkpoint")
    print(json.dumps({
        "out": str(out),
        "initial_loss": report.loss_curve[0],
        "final_loss": report.loss_curve[-1],
        "pq_all": report.final_pq.pq("all"),
    }))
    return EXIT_OK


def _eval_one(scene_path: str, pred_path: str):
    # Scoring needs no cue payloads: only the ground truth and the detection records.
    catalog, detections, gt = load_scene_records(scene_path)
    if gt is None:
        raise CueError(f"scene {scene_path} has no ground truth to evaluate against")
    pred = load_panoptic(pred_path)
    gt_map = panoptic_from_ground_truth(gt, catalog)
    stats = PQStats().accumulate(pred, gt_map)
    pred_classes = pred.class_map().ravel()
    gt_classes = gt_map.class_map().ravel()
    confusion = thing_stuff_confusion(pred_classes, gt_classes, catalog)
    gt_thing_boxes = [(c, b) for c, b in boxes_from_segments(gt) if catalog.is_thing(c)]
    ap = box_average_precision(detections, gt_thing_boxes)
    return catalog, stats, pred_classes, gt_classes, confusion, ap


def cmd_eval(args: argparse.Namespace) -> int:
    if len(args.scene) != len(args.pred):
        raise CueError(
            f"got {len(args.scene)} scenes but {len(args.pred)} predictions"
        )
    pairs = list(zip(args.scene, args.pred))
    with ThreadPoolExecutor(max_workers=_worker_count()) as pool:
        results = list(pool.map(lambda sp: _eval_one(*sp), pairs))

    catalog = results[0][0]
    stats = PQStats()
    aps = []
    pred_classes, gt_classes = [], []
    merged_confusion = ConfusionTS()
    for _, s, pc, gc, confusion, ap in results:
        stats.merge(s)
        pred_classes.append(pc)
        gt_classes.append(gc)
        aps.append(ap)
        merged_confusion.counts += confusion.counts
    report = stats.report(catalog)
    # Mean IoU accumulates intersection/union counts over the whole set.
    iou_per_class, miou = mean_iou(np.concatenate(pred_classes),
                                   np.concatenate(gt_classes), catalog)
    payload = {
        "pq": report.to_json_dict(),
        "mean_iou": miou,
        "iou_per_class": {str(c): v for c, v in sorted(iou_per_class.items())},
        "confusion": merged_confusion.to_json_dict(),
        "box_ap": float(np.mean(aps)),
        "scenes": len(pairs),
    }
    if args.json:
        Path(args.json).write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(json.dumps(payload) if args.porcelain else report.render_table(catalog))
    print(f"mean IoU: {payload['mean_iou']:.4f}   box AP: {payload['box_ap']:.4f}")
    return EXIT_OK


def cmd_costs(args: argparse.Namespace) -> int:
    report = estimate_costs(args.h, args.w, args.d, args.c, args.ndet,
                            args.nstuff, args.bytes)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    gib = report.affinity_matrix_bytes / 2**30
    print(f"affinity matrix: {gib:.2f} GiB; "
          f"factored/naive flops: {report.factored_flops:.3e} / {report.naive_flops:.3e} "
          f"({report.reduction_percent:.4f}% reduction)")
    return EXIT_OK


def _preset_configs(preset: str, steps: int, seed: int) -> tuple[list[TrainConfig], list[str]]:
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


def cmd_ablate(args: argparse.Namespace) -> int:
    configs, labels = _preset_configs(args.preset, args.steps, args.seed)
    rows = ablate(configs, labels)
    payload = [r.to_json_dict() for r in rows]
    if args.json:
        Path(args.json).write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(render_ablation_table(rows))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="panfuse",
        description="Panoptic segment fusion pipeline at desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene container")
    p.add_argument("--out", required=True)
    _add_synth_flags(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("run", help="run the fusion pipeline on scenes")
    p.add_argument("--scene", action="append", required=True)
    p.add_argument("--out", action="append", required=True)
    p.add_argument("--mode", choices=["argmax", "heuristic"], default="argmax")
    p.add_argument("--variant", choices=["A", "B", "C"], default="B")
    p.add_argument("--score-threshold", type=float, default=0.5)
    p.add_argument("--match-threshold", type=float, default=0.5)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--trim", type=int, default=0)
    p.add_argument("--merger-score", type=float, default=0.5)
    p.add_argument("--merger-overlap", type=float, default=0.5)
    p.add_argument("--merger-stuff-area", type=int, default=64)
    p.add_argument("--dump-match", action="store_true")
    p.add_argument("--dump-affinity", type=_pixel, default=None, metavar="ROW,COL")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("train", help="train the affinity head on synthetic scenes")
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=_positive_int, default=40000)
    p.add_argument("--learning-rate", type=float, default=0.01)
    p.add_argument("--no-affinity", action="store_true")
    p.add_argument("--detections-source", choices=["predicted", "ground_truth"],
                   default="predicted")
    p.add_argument("--variant", choices=["A", "B", "C"], default="B")
    p.add_argument("--match-threshold", type=float, default=0.5)
    p.add_argument("--scenes", type=_positive_int, default=64)
    p.add_argument("--eval-scenes", type=_positive_int, default=6)
    _add_synth_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score stored predictions against ground truth")
    p.add_argument("--scene", action="append", required=True)
    p.add_argument("--pred", action="append", required=True)
    p.add_argument("--json", default=None)
    p.add_argument("--porcelain", action="store_true",
                   help="print the JSON payload instead of tables")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("costs", help="estimate applier FLOPs and memory")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--ndet", type=int, required=True)
    p.add_argument("--nstuff", type=int, required=True)
    p.add_argument("--bytes", type=int, default=4)
    p.set_defaults(func=cmd_costs)

    p = sub.add_parser("ablate", help="train and compare preset configurations")
    p.add_argument("--preset", choices=["affinity", "detections", "variants"],
                   required=True)
    p.add_argument("--steps", type=_positive_int, default=40000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (FormatError, CueError, GenerationError, DimensionError, CapacityError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError, PanfuseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
