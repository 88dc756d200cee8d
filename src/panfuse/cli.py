"""Command-line interface.

Subcommands: synth, run, train, eval, costs, ablate. All numeric output
is JSON-first; the human-readable tables are rendered from the same
dictionaries. Exit codes: 0 success, 2 usage, 3 data/cue error,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import errno
import functools
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import container
from .affinity import AffinityParams, affinity_map_for_pixel, estimate_costs, project_features
from .errors import CueError, FormatError, NumericError, PanfuseError, UsageError
from .inference import (EVAL_SCORE_THRESHOLD, MergerParams, heuristic_merge, load_panoptic,
                        panoptic_files, panoptic_from_ground_truth, predict_panoptic, trim_small_stuff)
from .matching import match_segments
from .metrics import PQStats, box_average_precision, class_pixel_counts, mean_iou, thing_stuff_confusion
from .numerics import Bound
from .potential import Variant, append_stuff_boxes
from .scene import SynthConfig, load_scene, load_scene_records, save_scene, synth_scene
from .train import DETECTIONS_SOURCES, PRESETS, TrainConfig, ablate, preset_configs, render_ablation_table, train_toy

EXIT_OK = 0


# Set in the environment, these thread counts are OpenBLAS's own to read.
_BLAS_THREAD_VARIABLES = frozenset({"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"})


def _openblas() -> ctypes.CDLL | None:
    """numpy's bundled OpenBLAS, which ``import numpy`` has loaded, or None."""
    for path in (Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas64_*.so"):
        return ctypes.CDLL(str(path))
    return None


@functools.cache
def _set_up_process() -> None:
    """Keep freed heap and run numpy's OpenBLAS on one thread, once per process.

    glibc keeps up to 64 MB of freed heap instead of returning it to the OS.
    Without it the top of the heap is trimmed after each scene, and the next
    scene faults all its arrays in again: about 4,300 pages per 128x128 scene
    with 24 instances. OpenBLAS's second thread splits the thin gemms of such
    a scene and spins between them: it doubles the CPU time per scene for a
    few percent of wall time. Without glibc or the library, or where a call
    refuses, nothing changes.
    """
    with contextlib.suppress(AttributeError, OSError, ValueError):  # no confstr, libc or mallopt
        if os.confstr("CS_GNU_LIBC_VERSION"):
            mallopt = ctypes.CDLL(None).mallopt
            mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
            mallopt(-2, 64 << 20)  # M_TOP_PAD; a refusal (0) leaves the default
    if _BLAS_THREAD_VARIABLES.isdisjoint(os.environ):
        with contextlib.suppress(AttributeError, OSError):  # no library (None) or no setter
            _openblas().scipy_openblas_set_num_threads64_(1)


def _worker_count() -> int:
    """Scenes that `run` and `eval` process at once; bench/run.py records it."""
    return 1


def _bounded(kind: type, bound: Bound):
    """argparse type: a ``kind`` value inside ``bound``.

    A refused text longer than 17 characters is shown as its first 17
    characters and its length.
    """

    def parse(text: str):
        more = f"... ({len(text)} characters)" if len(text) > 17 else ""
        try:
            value = kind(text)
        except ValueError:
            digits = text.strip().lstrip("+-")
            if kind is int and digits.isdecimal():  # more digits than int() reads
                raise argparse.ArgumentTypeError(
                    bound.refusal_of_digits(text, len(digits))) from None
            noun = "an integer" if kind is int else "a number"
            raise argparse.ArgumentTypeError(f"expected {noun}, got {text[:17]!r}{more}") from None
        if value not in bound:
            raise argparse.ArgumentTypeError(bound.refusal(value, text[:17] + more))
        return value
    return parse


# Flags whose library side is a function argument, not a config field.
_count = _bounded(int, Bound(0))
_positive_int = _bounded(int, Bound(1))

# Flag -> config field. Each flag takes its type from the field default,
# its range from the field's Bound and its default from the field.
_SYNTH_FLAGS = {
    "--height": "height", "--width": "width", "--n-stuff": "n_stuff", "--n-thing": "n_thing",
    "--instances": "n_instances", "--stuff-segments": "stuff_segments",
    "--truncation": "box_truncation", "--jitter": "box_jitter",
    "--confusion": "confusion_rate", "--feature-noise": "feature_noise",
    "--feature-dim": "feature_dim", "--with-masks": "with_masks", "--mask-noise": "mask_noise",
}
_TRAIN_FLAGS = {
    "--steps": "steps", "--learning-rate": "learning_rate", "--no-affinity": "use_affinity",
    "--detections-source": "detections_source", "--variant": "variant",
    "--match-threshold": "match_threshold", "--scenes": "scenes",
    "--eval-scenes": "eval_scenes", "--seed": "seed",
}
_MERGER_FLAGS = {
    "--merger-score": "instance_score_threshold", "--merger-overlap": "overlap_threshold",
    "--merger-stuff-area": "stuff_area_threshold",
}
_CHOICES = {"detections_source": DETECTIONS_SOURCES, "variant": [v.value for v in Variant]}


def _add_field_flags(p: argparse.ArgumentParser, cls: type, flags: dict[str, str]) -> None:
    by_name = {f.name: f for f in fields(cls)}
    for flag, name in flags.items():
        default = by_name[name].default
        if isinstance(default, bool):  # the flag turns the default over
            p.add_argument(flag, dest=name, action="store_false" if default else "store_true")
        elif name in _CHOICES:
            p.add_argument(flag, dest=name, choices=_CHOICES[name],
                           default=getattr(default, "value", default))
        else:
            p.add_argument(flag, dest=name, default=default,
                           type=_bounded(type(default), by_name[name].metadata["bound"]),
                           metavar=flag[2:].replace("-", "_").upper())


def _config(cls: type, args: argparse.Namespace, flags: dict[str, str], **extra):
    """``cls`` from the values of ``flags``; the type of each field's default
    converts its value, so the --variant string becomes a ``Variant``."""
    return cls(**{f.name: type(f.default)(getattr(args, f.name))
                  for f in fields(cls) if f.name in flags.values()}, **extra)


def _pixel(text: str) -> tuple[int, int]:
    """argparse type: a ROW,COL pixel."""
    try:
        row, col = (int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected ROW,COL, got {text!r}") from None
    return row, col


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _config(SynthConfig, args, _SYNTH_FLAGS)
    scene, gt = synth_scene(cfg, args.seed)
    save_scene(scene, args.out, gt=gt, synth=cfg)
    print(json.dumps({"out": str(args.out), "seed": args.seed,
                      "segments": len(gt.segments),
                      "detections": len(scene.detections)}))
    return EXIT_OK


def _run_one(args: argparse.Namespace, scene_path: str, out_path: str,
             params: AffinityParams | None) -> tuple[dict, dict]:
    """One scene's output files, encoded but not written, and its summary: its
    map, and its match and affinity map when asked for. The scene's cues are
    not kept."""
    scene, gt = load_scene(scene_path)
    if args.dump_match and gt is None:
        raise CueError("--dump-match needs ground truth in the scene container")
    if params is not None and scene.features.shape[2] != params.feature_dim:
        raise CueError(f"scene {scene_path} has {scene.features.shape[2]}-channel features, "
                       f"but checkpoint {args.checkpoint} expects {params.feature_dim}")
    if args.dump_affinity:
        row, col = args.dump_affinity
        if not (0 <= row < scene.height and 0 <= col < scene.width):
            raise CueError(
                f"--dump-affinity pixel ({row}, {col}) is outside scene {scene_path} "
                f"({scene.height}x{scene.width} grid)"
            )

    if args.mode == "heuristic":
        pmap = heuristic_merge(scene.semantic_probs, scene.detections,
                               _config(MergerParams, args, _MERGER_FLAGS), scene.catalog)
    else:
        try:
            pmap = predict_panoptic(scene, params, Variant(args.variant),
                                    args.score_threshold)
        except NumericError as e:
            raise NumericError(f"scene {scene_path}: {e}") from None
    if args.trim > 0:
        pmap = trim_small_stuff(pmap, args.trim)

    files = panoptic_files(pmap, out_path)
    summary = {"scene": str(scene_path), "out": str(out_path), "mode": args.mode,
               "segments": len(pmap.segments), "void_pixels": int((pmap.label_map < 0).sum())}
    if args.dump_match:
        dets = append_stuff_boxes(scene.detections, scene.catalog,
                                  scene.height, scene.width)
        match = match_segments(gt, dets, args.match_threshold, scene.catalog)
        files["match.json"] = match.to_json_dict()
        summary["match"] = str(Path(out_path) / "match.json")
    if args.dump_affinity:
        q0, q1 = project_features(scene.features, params)
        name = f"affinity_{row}_{col}.panc"
        files[name] = affinity_map_for_pixel(q0, q1, (row, col))
        summary["affinity_map"] = str(Path(out_path) / name)
    return files, summary


def cmd_run(args: argparse.Namespace) -> int:
    if len(args.scene) != len(args.out):
        raise UsageError(f"got {len(args.scene)} --scene but {len(args.out)} --out")
    seen = {}  # by string alone: no file-system call per scene
    for out in args.out:
        key = os.path.normpath(os.path.abspath(out))
        if key in seen:
            raise UsageError(f"--out {seen[key]} and --out {out} name the same directory, "
                             f"so one scene's output would replace the other's")
        seen[key] = out
    if args.dump_affinity and not args.checkpoint:
        raise UsageError("--dump-affinity needs --checkpoint")
    params = AffinityParams.load(args.checkpoint) if args.checkpoint else None
    # Every scene is computed and encoded and every --out checked first, so
    # only an I/O fault can stop the writes.
    outputs = [_run_one(args, scene, out, params) for scene, out in zip(args.scene, args.out)]
    for out in args.out:
        _check_output(out, directory=True)
    for out, (files, _) in zip(args.out, outputs):
        container.write_files(out, files)
    for _, summary in outputs:
        print(json.dumps(summary))
    return EXIT_OK


def _check_output(path: str, directory: bool) -> None:
    """Raise, before any training or any write, the OSError that writing the
    output ``path`` would raise; create nothing. A ``directory`` is made with
    its missing parents; a file needs its parent directory."""
    p = Path(path)
    if directory:
        ancestor = next(a for a in (p, *p.parents) if a.exists())
        ok, code = ancestor.is_dir(), errno.EEXIST if ancestor == p else errno.ENOTDIR
    elif p.is_dir():
        ok, code = False, errno.EISDIR
    else:
        ok, code = p.parent.is_dir(), errno.ENOTDIR if p.parent.exists() else errno.ENOENT
    if not ok:
        raise OSError(code, os.strerror(code), str(p))


def cmd_train(args: argparse.Namespace) -> int:
    _check_output(args.out, directory=True)
    scene = _config(SynthConfig, args, _SYNTH_FLAGS)
    report = train_toy(_config(TrainConfig, args, _TRAIN_FLAGS, scene=scene))
    out = Path(args.out)
    container.write_files(out, {"report.json": report.to_json_dict()})
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
    if pred.shape != gt.label_map.shape:
        raise FormatError(f"{Path(pred_path) / 'panoptic.panc'}: grid {pred.shape} does not "
                          f"match the ground truth {gt.label_map.shape} of scene {scene_path}")
    spath = Path(pred_path) / "segments.json"
    for s in pred.segments:
        if not (catalog.is_thing(s.class_id) or catalog.is_stuff(s.class_id)):
            raise FormatError(f"{spath}: key segments[{s.index}].class_id: "
                              f"{s.class_id} is outside the catalog of {scene_path}")
        if (s.kind == "thing") != catalog.is_thing(s.class_id):
            raise FormatError(f"{spath}: key segments[{s.index}].kind is {s.kind!r}, "
                              f"but class {s.class_id} is not a {s.kind} class in {scene_path}")
    gt_map = panoptic_from_ground_truth(gt, catalog)
    stats = PQStats().accumulate(pred, gt_map)
    classes = class_pixel_counts(pred.class_map(), gt_map.class_map(), catalog)
    gt_thing_boxes = [(s.class_id, s.box) for s in gt.segments if catalog.is_thing(s.class_id)]
    ap = box_average_precision(detections, gt_thing_boxes)
    return catalog, stats, classes, ap


def cmd_eval(args: argparse.Namespace) -> int:
    if len(args.scene) != len(args.pred):
        raise UsageError(f"got {len(args.scene)} --scene but {len(args.pred)} --pred")
    # Running totals: PQ counters merge scene by scene, class tables add up.
    stats, classes, aps = PQStats(), 0, []
    for scene, pred in zip(args.scene, args.pred):
        scene_catalog, scene_stats, scene_classes, ap = _eval_one(scene, pred)
        if not aps:
            catalog = scene_catalog
        elif scene_catalog != catalog:
            raise CueError(f"scene {scene} has catalog {scene_catalog}, but scene "
                           f"{args.scene[0]} has {catalog}; eval scores all scenes "
                           f"against one catalog")
        stats.merge(scene_stats)
        classes = classes + scene_classes
        aps.append(ap)
    report = stats.report(catalog)
    iou_per_class, miou = mean_iou(classes, catalog)
    payload = {
        "pq": report.to_json_dict(),
        "mean_iou": miou,
        "iou_per_class": {str(c): v for c, v in sorted(iou_per_class.items())},
        "confusion": thing_stuff_confusion(classes, catalog).to_json_dict(),
        "box_ap": float(np.mean(aps)),
        "scenes": len(aps),
    }
    if args.json:
        container.write_json(args.json, payload)
    print(json.dumps(payload) if args.porcelain else report.render_table(catalog))
    print(f"mean IoU: {payload['mean_iou']:.4f}   box AP: {payload['box_ap']:.4f}")
    return EXIT_OK


def cmd_costs(args: argparse.Namespace) -> int:
    if args.d > min(args.h, args.w):
        raise UsageError(f"--d {args.d} exceeds --h {args.h} or --w {args.w}, "
                         f"so the downsampled grid has no pixel")
    report = estimate_costs(args.h, args.w, args.d, args.c, args.ndet,
                            args.nstuff, args.bytes)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    gib = report.affinity_matrix_bytes / 2**30
    print(f"affinity matrix: {gib:.2f} GiB; "
          f"factored/naive flops: {report.factored_flops:.3e} / {report.naive_flops:.3e} "
          f"({report.reduction_percent:.4f}% reduction)")
    return EXIT_OK


def cmd_ablate(args: argparse.Namespace) -> int:
    configs, labels = preset_configs(args.preset, args.steps, args.seed)
    if args.json:
        _check_output(args.json, directory=False)
    rows = ablate(configs, labels)
    payload = [r.to_json_dict() for r in rows]
    if args.json:
        container.write_json(args.json, payload)
    print(render_ablation_table(rows))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it costs 2-3 ms, and each
    parse fills a new namespace, so no call sees another's values."""
    parser = argparse.ArgumentParser(
        prog="panfuse",
        description="Panoptic segment fusion pipeline at desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene container")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_count, default=0)
    _add_field_flags(p, SynthConfig, _SYNTH_FLAGS)

    p = sub.add_parser("run", help="run the fusion pipeline on scenes")
    p.add_argument("--scene", action="append", required=True)
    p.add_argument("--out", action="append", required=True)
    p.add_argument("--mode", choices=["argmax", "heuristic"], default="argmax")
    _add_field_flags(p, TrainConfig, {"--variant": "variant"})
    p.add_argument("--score-threshold", type=_bounded(float, Bound(0, 1)),
                   default=EVAL_SCORE_THRESHOLD)
    _add_field_flags(p, TrainConfig, {"--match-threshold": "match_threshold"})
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--trim", type=_count, default=0)
    _add_field_flags(p, MergerParams, _MERGER_FLAGS)
    p.add_argument("--dump-match", action="store_true")
    p.add_argument("--dump-affinity", type=_pixel, default=None, metavar="ROW,COL")

    p = sub.add_parser("train", help="train the affinity head on synthetic scenes")
    p.add_argument("--out", required=True)
    _add_field_flags(p, TrainConfig, _TRAIN_FLAGS)
    _add_field_flags(p, SynthConfig, _SYNTH_FLAGS)

    p = sub.add_parser("eval", help="score stored predictions against ground truth")
    p.add_argument("--scene", action="append", required=True)
    p.add_argument("--pred", action="append", required=True)
    p.add_argument("--json", default=None)
    p.add_argument("--porcelain", action="store_true",
                   help="print the JSON payload instead of tables")

    p = sub.add_parser("costs", help="estimate applier FLOPs and memory")
    p.add_argument("--h", type=_positive_int, required=True)
    p.add_argument("--w", type=_positive_int, required=True)
    p.add_argument("--d", type=_positive_int, default=1)
    p.add_argument("--c", type=_positive_int, required=True)
    p.add_argument("--ndet", type=_positive_int, required=True)
    p.add_argument("--nstuff", type=_positive_int, required=True)
    p.add_argument("--bytes", type=_positive_int, default=4)

    p = sub.add_parser("ablate", help="train and compare preset configurations")
    p.add_argument("--preset", choices=PRESETS, required=True)
    _add_field_flags(p, TrainConfig, {"--steps": "steps", "--seed": "seed"})
    p.add_argument("--json", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    _set_up_process()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        # Looked up at each call, not bound in the cached parser, so a command
        # replaced on this module runs.
        command = {"synth": cmd_synth, "run": cmd_run, "train": cmd_train, "eval": cmd_eval,
                   "costs": cmd_costs, "ablate": cmd_ablate}[args.command]
        return command(args)
    except PanfuseError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:  # a path that cannot be written, such as an existing file for --out
        where = f"{e.filename}: {e.strerror}" if e.filename is not None else e
        print(f"error: {where}", file=sys.stderr)
        return CueError.exit_code  # 3, as for any other data error


if __name__ == "__main__":
    sys.exit(main())
