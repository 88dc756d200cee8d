import contextlib
import ctypes
import errno
import functools
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import panfuse
from panfuse import cli, container, errors
from panfuse.affinity import AffinityParams
from panfuse.cli import main
from panfuse.inference import load_panoptic, panoptic_from_ground_truth, save_panoptic
from panfuse.metrics import class_pixel_counts, mean_iou
from panfuse.numerics import VOID
from panfuse.potential import Variant
from panfuse.scene import (Box, ClassCatalog, Detection, GroundTruthPanoptic, GtSegment, SceneCues,
                           SynthConfig, load_scene, save_scene)
from panfuse.train import PRESETS, TrainConfig, make_eval_pool, predict_panoptic, preset_configs


def run_cli(*args):
    return main(list(args))


# An integer too large for a float.
HUGE = "1" + "0" * 400
# One with more digits than int() reads (Python's integer-string limit, 4300).
HUGER = "1" + "0" * 5000


def synth_args(out, seed=3, extra=()):
    return ["synth", "--out", str(out), "--seed", str(seed), *extra]


def test_synth_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(*synth_args(a)) == 0
    assert run_cli(*synth_args(b)) == 0
    ma = (a / "manifest.json").read_bytes()
    mb = (b / "manifest.json").read_bytes()
    assert ma == mb
    for name in ("semantic_probs.panc", "features.panc", "gt_labels.panc"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_synth_missing_out_usage_error(capsys):
    assert run_cli("synth") == 2


def test_synth_echoes_config(tmp_path):
    out = tmp_path / "s"
    assert run_cli(*synth_args(out, extra=["--truncation", "0.4"])) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["synth"]["box_truncation"] == 0.4


def test_run_argmax_no_void(tmp_path, capsys):
    scene_dir = tmp_path / "scene"
    assert run_cli(*synth_args(scene_dir)) == 0
    out = tmp_path / "pred"
    assert run_cli("run", "--scene", str(scene_dir), "--out", str(out)) == 0
    pmap = load_panoptic(out)
    assert int((pmap.label_map == VOID).sum()) == 0


def test_run_heuristic_mask_free_scene_exits_3(tmp_path, capsys):
    scene_dir = tmp_path / "scene"
    assert run_cli(*synth_args(scene_dir)) == 0  # no --with-masks
    code = run_cli("run", "--scene", str(scene_dir), "--out", str(tmp_path / "p"),
                   "--mode", "heuristic")
    assert code == 3


def test_run_heuristic_with_masks(tmp_path):
    scene_dir = tmp_path / "scene"
    assert run_cli(*synth_args(scene_dir, extra=["--with-masks"])) == 0
    out = tmp_path / "pred"
    assert run_cli("run", "--scene", str(scene_dir), "--out", str(out),
                   "--mode", "heuristic", "--merger-stuff-area", "4") == 0
    assert load_panoptic(out).segments


def test_run_dump_match_and_affinity(tmp_path):
    scene_dir = tmp_path / "scene"
    assert run_cli(*synth_args(scene_dir)) == 0
    train_out = tmp_path / "train"
    assert run_cli("train", "--out", str(train_out), "--steps", "5",
                   "--scenes", "2", "--eval-scenes", "1") == 0
    out = tmp_path / "pred"
    assert run_cli("run", "--scene", str(scene_dir), "--out", str(out),
                   "--checkpoint", str(train_out / "checkpoint"),
                   "--dump-match", "--dump-affinity", "4,7") == 0
    match = json.loads((out / "match.json").read_text())
    assert "pairs" in match and "removed_duplicates" in match
    amap = container.read_tensor(out / "affinity_4_7.panc")

    scene, _ = load_scene(scene_dir)
    from panfuse.affinity import AffinityParams, affinity_map_for_pixel, project_features

    params = AffinityParams.load(train_out / "checkpoint")
    q0, q1 = project_features(scene.features, params)
    assert np.array_equal(amap, affinity_map_for_pixel(q0, q1, (4, 7)))


@pytest.mark.parametrize("steps", ["0", "-3", "x", pytest.param(HUGE, id="1e400"),
                                   pytest.param("x" * 5000, id="5000x")])
def test_train_and_ablate_steps_usage_error(tmp_path, capsys, steps):
    for flag in ("--steps", "--scenes", "--eval-scenes", "--match-threshold", "--learning-rate",
                 "--feature-dim"):
        assert run_cli("train", "--out", str(tmp_path / "t"), flag, steps) == 2
        err = capsys.readouterr().err
        assert flag in err and len(err) < 1000
        assert not (tmp_path / "t").exists()
    assert run_cli("ablate", "--preset", "affinity", "--steps", steps) == 2
    assert "--steps" in capsys.readouterr().err
    assert run_cli("ablate", "--preset", "affinity", "--seed", "-1") == 2
    assert "argument --seed: must be >= 0" in capsys.readouterr().err


def test_ablate_trains_the_library_presets(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "ablate", lambda configs, labels: calls.append((configs, labels)) or [])
    for preset in PRESETS:
        assert run_cli("ablate", "--preset", preset, "--steps", "7", "--seed", "3") == 0
        assert calls.pop() == preset_configs(preset, 7, 3)
    with pytest.raises(errors.CueError, match="^unknown preset 'nope'$"):
        preset_configs("nope", 7, 3)


@pytest.mark.parametrize("flag, value", [
    ("--seed", "-1"), pytest.param("--seed", HUGE, id="--seed-1e400"),
    ("--feature-dim", "0"), ("--feature-dim", "-1"),
    ("--jitter", "nan"), ("--jitter", "inf"), ("--jitter", "-1"),
    ("--feature-noise", "nan"), ("--feature-noise", "-0.5"),
    ("--mask-noise", "nan"), ("--mask-noise", "5"), ("--mask-noise", "-0.1"),
    ("--height", "0"), ("--height", "129"), ("--width", "0"),
    ("--n-stuff", "0"), ("--n-thing", "0"), ("--instances", "-1"),
    ("--stuff-segments", "0"), ("--stuff-segments", "-4"),
    ("--truncation", "1"), ("--truncation", "nan"), ("--truncation", "-0.1"),
    ("--confusion", "1"), ("--confusion", "nan"), ("--confusion", "-0.1"),
])
def test_synth_and_train_flag_ranges_usage_error(tmp_path, capsys, flag, value):
    for command in ("synth", "train"):
        out = tmp_path / command
        assert run_cli(command, "--out", str(out), "--with-masks", flag, value) == 2
        assert f"argument {flag}: must be " in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("flag", ["--h", "--w", "--d", "--c", "--ndet", "--nstuff", "--bytes"])
@pytest.mark.parametrize("value", ["0", "-5", pytest.param(HUGE, id="1e400"),
                                   pytest.param(HUGER, id="1e5000")])
def test_costs_flag_ranges_usage_error(capsys, flag, value):
    args = {"--h": "32", "--w": "32", "--c": "16", "--ndet": "4", "--nstuff": "3", flag: value}
    assert run_cli("costs", *(x for item in args.items() for x in item)) == 2
    captured = capsys.readouterr()
    shown = f"{value[:17]}... ({len(value)} digits), which exceeds the float range (1.798e+308)" \
        if len(value) > 17 else value
    assert f"argument {flag}: must be >= 1, got {shown}\n" in captured.err
    assert len(captured.err) < 1000
    assert captured.out == ""


def test_costs_beyond_float_range_numeric_error(capsys):
    # A valid --h whose squared pixel count no float can hold.
    assert run_cli("costs", "--h", "1" + "0" * 300, "--w", "32", "--c", "16",
                   "--ndet", "4", "--nstuff", "3") == 4
    captured = capsys.readouterr()
    assert captured.err == "error: naive_flops exceeds the float range (1.798e+308)\n"
    assert captured.out == ""


@pytest.mark.parametrize("error, code", [
    (errors.UsageError, 2), (errors.DimensionError, 3), (errors.FormatError, 3),
    (errors.CueError, 3), (errors.GenerationError, 3),
    (errors.NumericError, 4), (errors.PanfuseError, 4),
])
def test_each_error_class_exits_with_its_code(monkeypatch, capsys, error, code):
    def fail(args):
        raise error("the command failed")

    monkeypatch.setattr(cli, "cmd_costs", fail)
    args = ["--h", "8", "--w", "8", "--c", "4", "--ndet", "1", "--nstuff", "1"]
    assert run_cli("costs", *args) == error.exit_code == code
    assert capsys.readouterr().err == "error: the command failed\n"


@pytest.fixture
def scene_and_checkpoint(tmp_path):
    scene_dir = tmp_path / "scene"
    assert run_cli(*synth_args(scene_dir)) == 0
    train_out = tmp_path / "train"
    assert run_cli("train", "--out", str(train_out), "--steps", "2",
                   "--scenes", "1", "--eval-scenes", "1") == 0
    return scene_dir, train_out / "checkpoint"


@pytest.mark.parametrize("pixel", ["4", "4,7,1", "a,b", "4;7"])
def test_run_malformed_dump_affinity_usage_error(tmp_path, capsys, scene_and_checkpoint,
                                                 pixel):
    scene_dir, ckpt = scene_and_checkpoint
    out = tmp_path / "pred"
    assert run_cli("run", "--scene", str(scene_dir), "--out", str(out),
                   "--checkpoint", str(ckpt), "--dump-affinity", pixel) == 2
    assert "ROW,COL" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("pixel", ["40,1", "1,32", "-1,3"])
def test_run_dump_affinity_outside_grid_exits_3(tmp_path, capsys, scene_and_checkpoint,
                                                pixel):
    scene_dir, ckpt = scene_and_checkpoint
    out = tmp_path / "pred"
    code = run_cli("run", "--scene", str(scene_dir), "--out", str(out),
                   "--checkpoint", str(ckpt), f"--dump-affinity={pixel}")
    assert code == 3
    err = capsys.readouterr().err
    row, col = pixel.split(",")
    assert str(scene_dir) in err and f"({row}, {col})" in err
    assert not (out / "panoptic.panc").exists()


def test_train_deterministic(tmp_path):
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    args = ["--steps", "8", "--scenes", "2", "--eval-scenes", "1", "--seed", "5"]
    assert run_cli("train", "--out", str(out1), *args) == 0
    assert run_cli("train", "--out", str(out2), *args) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    for name in ("w0", "b0", "w1", "b1"):
        assert ((out1 / "checkpoint" / f"{name}.panc").read_bytes()
                == (out2 / "checkpoint" / f"{name}.panc").read_bytes())


@pytest.mark.parametrize("flags, config", [
    (["--no-affinity"], {"use_affinity": False, "detections_source": "predicted"}),
    (["--detections-source", "ground_truth"],
     {"use_affinity": True, "detections_source": "ground_truth"}),
])
def test_train_affinity_and_detections_flags_reach_the_config(tmp_path, capsys, flags, config):
    out = tmp_path / "t"
    assert run_cli("train", "--out", str(out), "--steps", "3", "--scenes", "1",
                   "--eval-scenes", "1", *flags) == 0
    report = json.loads((out / "report.json").read_text())
    assert {k: report["config"][k] for k in config} == config
    if not config["use_affinity"]:  # no parameter enters the loss
        assert len(set(report["loss_curve"])) == 1


def test_eval_perfect_prediction(tmp_path, capsys):
    scene_dir = tmp_path / "scene"
    assert run_cli(*synth_args(scene_dir)) == 0
    # Build the prediction directly from ground truth.
    from panfuse.inference import panoptic_from_ground_truth, save_panoptic

    scene, gt = load_scene(scene_dir)
    save_panoptic(panoptic_from_ground_truth(gt, scene.catalog), tmp_path / "pred")
    json_out = tmp_path / "eval.json"
    assert run_cli("eval", "--scene", str(scene_dir), "--pred", str(tmp_path / "pred"),
                   "--json", str(json_out)) == 0
    payload = json.loads(json_out.read_text())
    assert payload["pq"]["aggregates"]["all"]["pq"] == 1.0
    assert payload["mean_iou"] == 1.0


def test_costs_full_scale_configuration(capsys):
    assert run_cli("costs", "--h", "800", "--w", "1300", "--d", "4", "--c", "128",
                   "--ndet", "100", "--nstuff", "53", "--bytes", "4") == 0
    out = capsys.readouterr().out
    payload = json.loads(out[:out.index("\n}") + 2])
    assert payload["affinity_matrix_bytes"] == 65000**2 * 4
    assert abs(payload["factored_flops"] - 5.1e9) / 5.1e9 < 0.05


def test_unknown_command_usage():
    assert run_cli("frobnicate") == 2


@pytest.fixture
def masked_scene_and_pred(tmp_path):
    scene_dir = tmp_path / "scene"
    assert run_cli(*synth_args(scene_dir, extra=["--with-masks", "--instances", "4"])) == 0
    pred = tmp_path / "pred"
    assert run_cli("run", "--scene", str(scene_dir), "--out", str(pred)) == 0
    return scene_dir, pred


def test_missing_tensor_file_exits_3_naming_it(tmp_path, capsys, masked_scene_and_pred):
    scene_dir, pred = masked_scene_and_pred
    (scene_dir / "mask_001.panc").unlink()
    capsys.readouterr()
    out = tmp_path / "again"
    assert run_cli("run", "--scene", str(scene_dir), "--out", str(out)) == 3
    assert str(scene_dir / "mask_001.panc") in capsys.readouterr().err
    assert not out.exists()
    assert run_cli("eval", "--scene", str(scene_dir), "--pred", str(pred)) == 3
    assert str(scene_dir / "mask_001.panc") in capsys.readouterr().err


@pytest.mark.parametrize("name", ["semantic_probs.panc", "features.panc", "mask_000.panc"])
def test_eval_rejects_damaged_cue_file_like_run(tmp_path, capsys, masked_scene_and_pred, name):
    scene_dir, pred = masked_scene_and_pred
    path = scene_dir / name
    path.write_bytes(path.read_bytes() + b"\x00")
    capsys.readouterr()
    assert run_cli("run", "--scene", str(scene_dir), "--out", str(tmp_path / "again")) == 3
    run_err = capsys.readouterr().err
    assert run_cli("eval", "--scene", str(scene_dir), "--pred", str(pred)) == 3
    assert capsys.readouterr().err == run_err
    assert "payload size mismatch" in run_err and str(path) in run_err


@pytest.mark.filterwarnings("error")  # the overflow in synth must not warn
def test_run_on_non_finite_scene_exits_3_without_output(tmp_path, capsys):
    # synth refuses a scene whose noise overflows, with the error line alone.
    huge = tmp_path / "huge"
    assert run_cli(*synth_args(huge, extra=["--feature-noise", "1e308"])) == 3
    assert capsys.readouterr().err.startswith(
        "error: feature_noise 1e+308 makes the features non-finite at pixel (")
    assert not huge.exists()
    scene_dir = tmp_path / "scene"
    assert run_cli(*synth_args(scene_dir, seed=1)) == 0
    path = scene_dir / "semantic_probs.panc"
    v = container.read_tensor(path)
    v[0, 0, 0] = np.nan
    container.write_tensor(path, v)
    out = tmp_path / "pred"
    assert run_cli("run", "--scene", str(scene_dir), "--out", str(out)) == 3
    assert f"{path}: non-finite value at pixel (0, 0)" in capsys.readouterr().err
    assert not out.exists()


def _duplicate_masks_scene(root):
    """A 4x4 scene whose two detections share one 2x2 mask, with its ground truth."""
    v = np.zeros((4, 4, 2))
    v[..., 0] = 1.0
    mask = np.zeros((4, 4))
    mask[:2, :2] = 1.0
    dets = [Detection(Box(0, 0, 2, 2), score, 1, mask=mask) for score in (0.9, 0.8)]
    label = np.zeros((4, 4), dtype=np.int32)
    label[:2, :2] = 1
    gt = GroundTruthPanoptic(label, [GtSegment(0, 0, Box(0, 0, 4, 4), 12),
                                     GtSegment(1, 1, Box(0, 0, 2, 2), 4)])
    save_scene(SceneCues(ClassCatalog(1, 1), v, dets, np.zeros((4, 4, 1))), root, gt=gt)


def _with_empty_segment(pred):
    """Append to ``pred``'s sidecar a thing segment of area 0, as a merger that
    kept the fully covered second instance would write it."""
    spath = pred / "segments.json"
    sidecar = json.loads(spath.read_text())
    sidecar["segments"].append({"index": 2, "class_id": 1, "kind": "thing", "area": 0,
                                "instance_id": 2, "encoded_id": 1002})
    spath.write_text(json.dumps(sidecar))


_TRAIN_SMALL = ["--steps", "2", "--scenes", "2", "--eval-scenes", "1"]
_MERGE_ALL = ["--mode", "heuristic", "--merger-overlap", "1", "--merger-stuff-area", "0"]
_NON_FINITE_FEATURES = "feature_noise 1e+308 makes the features non-finite at pixel ("


# Extreme or damaged inputs: the command, its exit code and what its one
# error line says (None for success, which prints nothing on stderr).
@pytest.mark.parametrize("argv, code, message", [
    (["synth", "--out", "{out}", "--feature-noise", "1e308"], 3, _NON_FINITE_FEATURES),
    (["train", "--out", "{out}", "--feature-noise", "1e308", *_TRAIN_SMALL], 3,
     _NON_FINITE_FEATURES),
    (["train", "--out", "{out}", "--feature-noise", "1e308", "--no-affinity", *_TRAIN_SMALL], 3,
     _NON_FINITE_FEATURES),
    (["synth", "--out", "{out}", "--jitter", "1e300", "--with-masks"], 0, None),
    (["train", "--out", "{out}", "--jitter", "1e300", *_TRAIN_SMALL], 0, None),
    # Finite features whose affinity forward overflows: no numpy warning.
    (["train", "--out", "{out}", "--feature-noise", "1e150", *_TRAIN_SMALL], 4,
     "loss diverged at step 1"),
    (["train", "--out", "{out}", "--feature-noise", "1e200", *_TRAIN_SMALL], 4,
     "loss diverged at step 0"),
    (["costs", "--h", "10", "--w", "10", "--d", "20", "--c", "1", "--ndet", "1",
      "--nstuff", "1"], 2, "--d 20 exceeds --h 10 or --w 10, so the downsampled grid has no pixel"),
    (["run", "--scene", "{scene}", "--out", "{out}", *_MERGE_ALL], 0, None),
    (["eval", "--scene", "{scene}", "--pred", "{pred}", "--json", "{out}"], 3,
     "{pred}/segments.json: key segments[2].area must be >= 1, got 0"),
], ids=["synth-feature-noise", "train-feature-noise", "train-no-affinity-feature-noise",
        "synth-jitter", "train-jitter", "train-overflow-1e150", "train-overflow-1e200",
        "costs-stride", "run-merger-overlap-1", "eval-area-0"])
@pytest.mark.filterwarnings("error")
def test_bad_inputs_exit_with_their_code_and_one_error_line(tmp_path, capsys, argv, code,
                                                            message):
    paths = {"scene": tmp_path / "scene", "pred": tmp_path / "pred", "out": tmp_path / "out"}
    _duplicate_masks_scene(paths["scene"])
    assert run_cli("run", "--scene", str(paths["scene"]), "--out", str(paths["pred"]),
                   *_MERGE_ALL) == 0
    _with_empty_segment(paths["pred"])
    capsys.readouterr()
    assert run_cli(*(a.format(**paths) for a in argv)) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if message is None:
        assert err == ""
        assert "{out}" not in argv or paths["out"].exists()
    else:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert message.format(**paths) in lines[0]
        assert not paths["out"].exists()


def test_merger_at_overlap_1_writes_no_empty_segment(tmp_path, capsys):
    _duplicate_masks_scene(tmp_path / "scene")
    assert run_cli("run", "--scene", str(tmp_path / "scene"), "--out", str(tmp_path / "pred"),
                   *_MERGE_ALL) == 0
    assert [(s.kind, s.area, s.instance_id) for s in load_panoptic(tmp_path / "pred").segments] \
        == [("thing", 4, 1), ("stuff", 12, 0)]
    capsys.readouterr()
    assert run_cli("eval", "--scene", str(tmp_path / "scene"), "--pred", str(tmp_path / "pred"),
                   "--porcelain") == 0
    pq = json.loads(capsys.readouterr().out.splitlines()[0])["pq"]
    assert pq["per_class"]["1"]["fp"] == 0 and pq["aggregates"]["all"]["pq"] == 1.0


@pytest.mark.parametrize("name, damage, message", [
    ("semantic_probs.panc", lambda t: 2 * t, "normalization violated at pixel (0, 0), sum 2"),
    ("mask_000.panc", lambda t: 5 * t, "values outside [0, 1]"),
    ("mask_000.panc", np.ones_like, "nonzero outside its box"),
], ids=["doubled-probs", "mask-5", "mask-outside-box"])
def test_run_rejects_cues_that_synth_would_not_write(tmp_path, capsys, masked_scene_and_pred,
                                                     name, damage, message):
    scene_dir, _ = masked_scene_and_pred
    path = scene_dir / name
    container.write_tensor(path, damage(container.read_tensor(path)))
    capsys.readouterr()
    for mode in ("argmax", "heuristic"):
        out = tmp_path / "again"
        assert run_cli("run", "--scene", str(scene_dir), "--out", str(out), "--mode", mode) == 3
        assert f"{path}: {message}" in capsys.readouterr().err
        assert not out.exists()


def test_dump_match_and_eval_refuse_a_scene_without_ground_truth(tmp_path, capsys,
                                                                 masked_scene_and_pred):
    scene_dir, pred = masked_scene_and_pred
    mpath = scene_dir / "manifest.json"
    mpath.write_text(json.dumps({**json.loads(mpath.read_text()), "ground_truth": None}))
    capsys.readouterr()
    out, report = tmp_path / "again", tmp_path / "eval.json"
    assert run_cli("run", "--scene", str(scene_dir), "--out", str(out), "--dump-match") == 3
    assert capsys.readouterr().err == \
        "error: --dump-match needs ground truth in the scene container\n"
    assert not out.exists()
    assert run_cli("eval", "--scene", str(scene_dir), "--pred", str(pred),
                   "--json", str(report)) == 3
    assert capsys.readouterr().err == \
        f"error: scene {scene_dir} has no ground truth to evaluate against\n"
    assert not report.exists()
    assert run_cli("run", "--scene", str(scene_dir), "--out", str(out)) == 0


@pytest.mark.parametrize("command, target", [
    ("synth", "file"), ("run", "file"), ("train", "file"), ("train", "below-file"),
    ("eval", "missing"), ("eval", "directory"), ("ablate", "missing"),
    ("ablate", "directory"), ("ablate", "below-file"),
])
def test_unwritable_output_path_exits_3_naming_it(tmp_path, capsys, monkeypatch,
                                                   masked_scene_and_pred, command, target):
    scene_dir, pred = masked_scene_and_pred
    taken = tmp_path / "taken"
    taken.write_text("")
    path = {"file": taken, "below-file": taken / "x", "directory": tmp_path,
            "missing": tmp_path / "missing" / "x.json"}[target]

    def no_training(*args):
        raise AssertionError("the output path is checked before training")
    monkeypatch.setattr(cli, "train_toy", no_training)
    monkeypatch.setattr(cli, "ablate", no_training)
    args = {
        "synth": ["synth", "--out", path],
        "run": ["run", "--scene", scene_dir, "--out", path],
        "train": ["train", "--out", path, "--steps", "2", "--scenes", "1",
                  "--eval-scenes", "1"],
        "eval": ["eval", "--scene", scene_dir, "--pred", pred, "--json", path],
        "ablate": ["ablate", "--preset", "affinity", "--json", path],
    }[command]
    capsys.readouterr()
    assert run_cli(*map(str, args)) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == sorted([taken, scene_dir, pred])


@pytest.mark.parametrize("command, name", [
    ("run", "manifest.json"), ("eval", "manifest.json"), ("eval", "segments.json"),
])
def test_container_without_its_manifest_exits_3_naming_the_directory(
        tmp_path, capsys, masked_scene_and_pred, command, name):
    scene_dir, pred = masked_scene_and_pred
    root = pred if name == "segments.json" else scene_dir
    (root / name).unlink()
    out = tmp_path / "again"
    args = {"run": ["run", "--scene", scene_dir, "--out", out],
            "eval": ["eval", "--scene", scene_dir, "--pred", pred, "--json", out]}[command]
    capsys.readouterr()
    assert run_cli(*map(str, args)) == 3
    assert capsys.readouterr().err == f"error: no {name} in {root}\n"
    assert not out.exists()


def _set(*path_and_value):
    """A manifest edit that sets the key at ``path`` to ``value``."""
    *path, key, value = path_and_value

    def edit(manifest, *_):
        node = manifest
        for step in path:
            node = node[step]
        node[key] = value
        return json.dumps(manifest)
    return edit


def test_run_and_eval_reject_malformed_manifest(tmp_path, capsys, masked_scene_and_pred):
    scene_dir, pred = masked_scene_and_pred
    mpath = scene_dir / "manifest.json"
    original = mpath.read_text()
    labels = scene_dir / "gt_labels.panc"
    original_labels = labels.read_bytes()
    segment = ("ground_truth", "segments", 0)

    def stuff_pseudo_detection(manifest):
        manifest["detections"][0].update(class_id=0, box=[0, 0, 32, 32], score=1.0)
        return json.dumps(manifest)

    def grid_value(value):
        def edit(manifest):
            grid = container.read_tensor(labels)
            grid[0, 0] = value
            container.write_tensor(labels, grid)
            return json.dumps(manifest)
        return edit

    cases = [
        (lambda m: json.dumps({k: v for k, v in m.items() if k != "catalog"}),
         "missing key catalog"),
        (lambda m: "[1, 2]", "expected a JSON object"),
        (_set("shape", "height", -5), "key shape.height must be >= 1, got -5"),
        (_set("shape", "width", 0), "key shape.width must be >= 1, got 0"),
        (_set("detections", 0, "score", 1.5), "key detections[0].score: 1.5 outside [0, 1]"),
        (_set("detections", 1, "box", [20, 20, 40, 40]),
         "key detections[1].box: (20, 20, 40, 40) exceeds 32x32 grid"),
        (_set("detections", 0, "box", [5, 5, 5, 9]),
         "key detections[0].box: box must have positive area"),
        (_set("detections", 2, "class_id", 99), "key detections[2].class_id: 99 out of range"),
        (_set("detections", 0, "class_id", 0), "key detections[0].class_id: 0 is not a thing class"),
        (stuff_pseudo_detection, "key detections[0].class_id: 0 is not a thing class"),
        (_set(*segment, "class_id", 99), "key ground_truth.segments[0].class_id: 99 out of range"),
        (_set(*segment, "index", 7), "key ground_truth.segments[0].index must be 0, got 7"),
        (_set(*segment, "area", 5), "key ground_truth.segments[0].area is 5, but segment 0 has"),
        (grid_value(99), f"key ground_truth.label_map: {labels} holds 99 at pixel (0, 0)"),
        (grid_value(2**31), f"key ground_truth.label_map: {labels} holds 2147483648 at pixel"),
    ]
    nul_file = str(scene_dir / "feat\x00ures.panc")
    cases = [(edit, f"{mpath}: {message}") for edit, message in cases] + [
        (_set("tensors", "features", "feat\x00ures.panc"),
         f"cannot read tensor file {nul_file!r}: embedded null byte"),
    ]
    for edit, message in cases:
        labels.write_bytes(original_labels)
        mpath.write_text(edit(json.loads(original)))
        capsys.readouterr()
        for mode in ("argmax", "heuristic"):
            out = tmp_path / "again"
            assert run_cli("run", "--scene", str(scene_dir), "--out", str(out),
                           "--mode", mode) == 3, message
            assert message in capsys.readouterr().err
            assert not out.exists()
        assert run_cli("eval", "--scene", str(scene_dir), "--pred", str(pred)) == 3, message
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("extra", [[], ["--with-masks", "--jitter", "1.5"]])
def test_eval_one_with_scene_records_equals_full_load(tmp_path, monkeypatch, extra):
    scene_dir = tmp_path / "scene"
    assert run_cli(*synth_args(scene_dir, seed=8,
                               extra=["--instances", "5", "--truncation", "0.3", *extra])) == 0
    pred = tmp_path / "pred"
    assert run_cli("run", "--scene", str(scene_dir), "--out", str(pred)) == 0
    light = cli._eval_one(str(scene_dir), str(pred))

    def full_records(path):
        scene, gt = load_scene(path)
        return scene.catalog, scene.detections, gt

    monkeypatch.setattr(cli, "load_scene_records", full_records)
    full = cli._eval_one(str(scene_dir), str(pred))
    catalog, stats, classes, ap = light
    assert catalog == full[0]
    assert stats.per_class == full[1].per_class
    assert np.array_equal(classes, full[2])
    assert ap == full[3]


_SEGMENT = '"index": 0, "class_id": 0, "area": 4, "instance_id": 0'


def _first_thing_as_stuff(sidecar, _):
    seg = next(s for s in sidecar["segments"] if s["kind"] == "thing")
    seg["kind"] = "stuff"
    return json.dumps(sidecar)


def _stuff_as_class_99(sidecar, pred):
    """Relabels segment 0 (stuff) as class 99 in the grid and the sidecar alike."""
    seg = sidecar["segments"][0]
    grid = container.read_tensor(pred / "panoptic.panc")
    grid[grid == seg["encoded_id"]] = seg["encoded_id"] = 99_000
    seg["class_id"] = 99
    container.write_tensor(pred / "panoptic.panc", grid)
    return json.dumps(sidecar)


@pytest.mark.parametrize("edit, message", [
    (lambda *_: "[1, 2]", "{spath}: expected a JSON object, got a list"),
    (lambda *_: '{"format": "panfuse-panoptic"', "unparseable manifest in {pred}"),
    (lambda *_: '{"format": "panfuse-panoptic"}', "{spath}: missing key segments"),
    (lambda *_: '{"format": "panfuse-panoptic", "segments": [{%s}]}' % _SEGMENT,
     "{spath}: missing key segments[0].kind"),
    (lambda *_: '{"format": "panfuse-panoptic", "segments": [{%s, "kind": "stuff"}, 7]}'
     % _SEGMENT, "{spath}: key segments[1] must be an object"),
    (lambda *_: '{"format": "panfuse-panoptic", "segments": [{%s, "kind": 1}]}' % _SEGMENT,
     "{spath}: key segments[0].kind must be a string, got an integer"),
    (lambda *_: '{"format": "panfuse-panoptic", "segments": [{%s, "kind": "stuff"}]}'
     % _SEGMENT.replace('"index": 0', '"index": 50'),
     "{spath}: key segments[0].index must be 0, got 50"),
    (_set("segments", 0, "kind", "banana"),
     """{spath}: key segments[0].kind must be "thing" or "stuff", got 'banana'"""),
    (_set("segments", 1, "area", 5), "{spath}: key segments[1].area is 5, but segment 1 has"),
    (_first_thing_as_stuff, "].kind is 'stuff', but class "),
    (_stuff_as_class_99, "{spath}: key segments[0].class_id: 99 is outside the catalog"),
    (lambda *_: '{"format": "panfuse-panoptic", "version": 2, "segments": []}',
     "{spath}: key version must be 1, got 2"),
    (_set("segments", 0, "instance_id", 7), "{pred}/panoptic.panc: encoded id "),
], ids=["list", "bad-json", "no-segments", "no-kind", "not-an-object", "kind-integer",
        "index-out-of-place", "kind-banana", "area-off", "thing-as-stuff", "class-99",
        "version-2", "instance-id-off"])
def test_eval_rejects_damaged_sidecar(capsys, masked_scene_and_pred, edit, message):
    scene_dir, pred = masked_scene_and_pred
    spath = pred / "segments.json"
    spath.write_text(edit(json.loads(spath.read_text()), pred))
    capsys.readouterr()
    assert run_cli("eval", "--scene", str(scene_dir), "--pred", str(pred)) == 3
    assert message.format(spath=spath, pred=pred) in capsys.readouterr().err


def test_load_panoptic_decodes_like_a_per_segment_scan(masked_scene_and_pred):
    _, pred = masked_scene_and_pred
    grid = container.read_tensor(pred / "panoptic.panc")
    pmap = load_panoptic(pred)
    expected = np.full(grid.shape, VOID, dtype=np.int32)
    for s in pmap.segments:
        expected[grid == s.encoded_id] = s.index
    assert pmap.label_map.dtype == expected.dtype
    assert np.array_equal(pmap.label_map, expected)


@pytest.fixture(scope="module")
def scene_and_params(tmp_path_factory):
    root = tmp_path_factory.mktemp("forward")
    scene_dir = root / "scene"
    assert run_cli(*synth_args(scene_dir, seed=11, extra=[
        "--with-masks", "--instances", "5", "--jitter", "1.5", "--truncation", "0.3",
        "--confusion", "0.3", "--mask-noise", "0.3"])) == 0
    AffinityParams.init(16, seed=4, scale=0.5).save(root / "checkpoint")
    return scene_dir, root / "checkpoint"


@pytest.mark.parametrize("variant, checkpoint, threshold",
                         [(v, c, "0.5") for v in "ABC" for c in (False, True)]
                         + [("B", False, "0.8"), ("B", True, "0.8")])
def test_run_writes_the_library_forward(tmp_path, scene_and_params, variant, checkpoint,
                                        threshold):
    scene_dir, ckpt = scene_and_params
    args = ["run", "--scene", str(scene_dir), "--out", str(tmp_path / "cli"),
            "--variant", variant, "--score-threshold", threshold]
    if checkpoint:
        args += ["--checkpoint", str(ckpt)]
    assert run_cli(*args) == 0
    scene, _ = load_scene(scene_dir)
    params = AffinityParams.load(ckpt) if checkpoint else None
    pmap = predict_panoptic(scene, params, Variant(variant), float(threshold))
    save_panoptic(pmap, tmp_path / "lib")
    for name in ("panoptic.panc", "segments.json"):
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()


@pytest.mark.filterwarnings("error")  # the overflow must not warn
def test_run_on_features_that_overflow_the_affinity_exits_4_without_output(
        tmp_path, capsys, scene_and_params):
    scene_dir, ckpt = scene_and_params
    copy = tmp_path / "scene"
    shutil.copytree(scene_dir, copy)
    path = copy / "features.panc"
    features = container.read_tensor(path)
    features[0, 0:2, :] = 1e308  # finite, but their sum is not
    container.write_tensor(path, features)
    load_scene(copy)  # the scene itself is valid
    out = tmp_path / "pred"
    capsys.readouterr()
    assert run_cli("run", "--scene", str(copy), "--out", str(out),
                   "--checkpoint", str(ckpt)) == 4
    assert capsys.readouterr().err == \
        f"error: scene {copy}: the affinity forward gave non-finite logits\n"
    assert not out.exists()
    assert run_cli("run", "--scene", str(copy), "--out", str(out)) == 0


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    """No scipy module is loaded by `import panfuse.cli`, nor by the commands
    that match segments (`train`, `run --dump-match`); `import panfuse`
    loads no submodule."""
    src = Path(panfuse.__file__).resolve().parents[1]
    scene, pred = tmp_path / "scene", tmp_path / "pred"
    commands = [["train", "--out", str(tmp_path / "train"), *_TRAIN_SMALL],
                synth_args(scene),
                ["run", "--scene", str(scene), "--out", str(pred), "--dump-match"]]
    run_commands = "".join(f"assert main({argv!r}) == 0; " for argv in commands)
    for code, prefix in [("import panfuse.cli; ", "scipy"),
                         (f"from panfuse.cli import main; {run_commands}", "scipy"),
                         ("import panfuse; ", "panfuse.")]:
        code = (f"import sys; {code}"
                f"print(sorted(m for m in sys.modules if m.startswith({prefix!r})))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, check=True)
        assert proc.stdout.splitlines()[-1] == "[]", code
    assert (pred / "match.json").is_file()


def test_run_and_eval_usage_errors_exit_2_before_writing(tmp_path, capsys,
                                                         masked_scene_and_pred):
    scene_dir, pred = masked_scene_and_pred
    out_a, out_b, report = tmp_path / "a", tmp_path / "b", tmp_path / "eval.json"
    scene = ["--scene", str(scene_dir)]
    assert run_cli("run", *scene, *scene, "--out", str(out_a)) == 2
    assert "got 2 --scene but 1 --out" in capsys.readouterr().err
    assert run_cli("run", *scene, "--out", str(out_a), "--out", str(out_b)) == 2
    assert run_cli("run", *scene, "--out", str(out_a), "--dump-affinity", "1,1") == 2
    assert "--dump-affinity needs --checkpoint" in capsys.readouterr().err
    for args in (["--dump-match", "--match-threshold", "1.5"],
                 ["--match-threshold", "0"],
                 ["--score-threshold", "1.5"],
                 ["--score-threshold", "nan"],
                 ["--mode", "heuristic", "--merger-score", "1.5"],
                 ["--mode", "heuristic", "--merger-overlap", "-0.1"],
                 ["--mode", "heuristic", "--merger-stuff-area", "-1"],
                 ["--trim", "-5"]):
        assert run_cli("run", *scene, "--out", str(out_a), *args) == 2, args
        assert f"argument {args[-2]}: must be " in capsys.readouterr().err
    assert not out_a.exists() and not out_b.exists()
    assert run_cli("eval", *scene, *scene, "--pred", str(pred), "--json", str(report)) == 2
    assert "got 2 --scene but 1 --pred" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("same", [str, lambda d: f"{d}/../{d.name}/", os.path.relpath],
                         ids=["verbatim", "dot-dot", "relative"])
def test_run_with_one_out_for_two_scenes_exits_2_writing_nothing(tmp_path, capsys,
                                                                 masked_scene_and_pred, same):
    """Two --out values naming one directory would let the second scene's
    output replace the first's; the command refuses them before any output."""
    scene_dir, _ = masked_scene_and_pred
    d = tmp_path / "out"
    other = same(d)
    capsys.readouterr()
    assert run_cli("run", "--scene", str(scene_dir), "--out", str(d),
                   "--scene", str(scene_dir), "--out", other) == 2
    assert capsys.readouterr().err == (
        f"error: --out {d} and --out {other} name the same directory, "
        f"so one scene's output would replace the other's\n")
    assert not d.exists()


def test_a_failed_write_keeps_the_old_output_and_leaves_no_sibling(tmp_path, capsys,
                                                                  monkeypatch,
                                                                  masked_scene_and_pred):
    scene_dir, pred = masked_scene_and_pred
    report = tmp_path / "reports" / "eval.json"
    report.parent.mkdir()
    report.write_bytes(b"old report")
    capsys.readouterr()

    def full_disk(fd, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    monkeypatch.setattr(os, "write", full_disk)
    code = run_cli("eval", "--scene", str(scene_dir), "--pred", str(pred), "--json", str(report))
    monkeypatch.undo()
    assert code == 3
    assert capsys.readouterr().err == f"error: {report}: No space left on device\n"
    assert report.read_bytes() == b"old report"
    assert sorted(report.parent.iterdir()) == [report]


def test_main_parses_each_call_afresh(tmp_path, monkeypatch, masked_scene_and_pred):
    """The parser is built once per process, but one call's lists and values
    never reach the next call."""
    assert cli.build_parser() is cli.build_parser()
    scene_dir, pred = masked_scene_and_pred
    seen = []

    def spy(command):
        def record(args):
            seen.append(vars(args).copy())
            return command(args)
        return record
    monkeypatch.setattr(cli, "cmd_run", spy(cli.cmd_run))
    monkeypatch.setattr(cli, "cmd_eval", spy(cli.cmd_eval))
    outs = [tmp_path / "a", tmp_path / "b"]
    assert run_cli("run", "--scene", str(scene_dir), "--out", str(outs[0]),
                   "--scene", str(scene_dir), "--out", str(outs[1]),
                   "--mode", "heuristic", "--trim", "3") == 0
    assert run_cli("eval", "--scene", str(scene_dir), "--pred", str(outs[1])) == 0
    assert run_cli("run", "--scene", str(scene_dir), "--out", str(outs[0])) == 0
    assert [args["scene"] for args in seen] == [[str(scene_dir)] * 2, [str(scene_dir)],
                                                [str(scene_dir)]]
    assert seen[0]["out"] == list(map(str, outs)) and seen[2]["out"] == [str(outs[0])]
    assert seen[1]["pred"] == [str(outs[1])] and "out" not in seen[1]
    assert (seen[0]["mode"], seen[0]["trim"]) == ("heuristic", 3)
    assert (seen[2]["mode"], seen[2]["trim"]) == ("argmax", 0)


@pytest.fixture
def three_scenes(tmp_path):
    scenes = [tmp_path / f"scene{i}" for i in range(3)]
    for seed, scene_dir in zip((3, 4, 5), scenes):
        assert run_cli(*synth_args(scene_dir, seed=seed,
                                   extra=["--with-masks", "--instances", "4",
                                          "--truncation", "0.3"])) == 0
    return scenes


def test_run_and_eval_over_several_scenes_equal_single_scene_runs(tmp_path, capsys,
                                                                  three_scenes):
    together = [tmp_path / f"together{i}" for i in range(3)]
    alone = [tmp_path / f"alone{i}" for i in range(3)]
    argv = ["run", "--variant", "C", "--trim", "20"]
    for scene_dir, out in zip(three_scenes, together):
        argv += ["--scene", str(scene_dir), "--out", str(out)]
    capsys.readouterr()
    assert run_cli(*argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [json.loads(line)["out"] for line in lines] == [str(p) for p in together]
    for scene_dir, out in zip(three_scenes, alone):
        assert run_cli("run", "--variant", "C", "--trim", "20",
                       "--scene", str(scene_dir), "--out", str(out)) == 0
    for a, b in zip(together, alone):
        for name in ("panoptic.panc", "segments.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    singles = []
    for i, (scene_dir, out) in enumerate(zip(three_scenes, together)):
        path = tmp_path / f"eval{i}.json"
        assert run_cli("eval", "--scene", str(scene_dir), "--pred", str(out),
                       "--json", str(path)) == 0
        singles.append(json.loads(path.read_text()))
    argv = ["eval", "--json", str(tmp_path / "eval.json")]
    for scene_dir, out in zip(three_scenes, together):
        argv += ["--scene", str(scene_dir), "--pred", str(out)]
    assert run_cli(*argv) == 0
    merged = json.loads((tmp_path / "eval.json").read_text())
    assert merged["scenes"] == 3
    assert merged["box_ap"] == pytest.approx(np.mean([p["box_ap"] for p in singles]))
    assert merged["confusion"]["counts"] == np.sum(
        [p["confusion"]["counts"] for p in singles], axis=0).tolist()
    per_class = merged["pq"]["per_class"]
    assert set(per_class) == set().union(*(p["pq"]["per_class"] for p in singles))
    for c, counts in per_class.items():
        parts = [p["pq"]["per_class"][c] for p in singles if c in p["pq"]["per_class"]]
        for key in ("tp", "fp", "fn"):
            assert counts[key] == sum(part[key] for part in parts)
        assert counts["iou_sum"] == pytest.approx(sum(part["iou_sum"] for part in parts))
    scene, _ = load_scene(three_scenes[0])
    pred_classes, gt_classes = [], []
    for scene_dir, out in zip(three_scenes, together):
        _, gt = load_scene(scene_dir)
        pred_classes.append(load_panoptic(out).class_map().ravel())
        gt_classes.append(panoptic_from_ground_truth(gt, scene.catalog).class_map().ravel())
    _, miou = mean_iou(class_pixel_counts(np.concatenate(pred_classes),
                                          np.concatenate(gt_classes), scene.catalog),
                       scene.catalog)
    assert merged["mean_iou"] == miou


def test_eval_rejects_scenes_with_different_catalogs(tmp_path, capsys):
    scenes = [tmp_path / "scene_a", tmp_path / "scene_b"]
    assert run_cli(*synth_args(scenes[0])) == 0
    assert run_cli(*synth_args(scenes[1], extra=["--n-stuff", "5", "--n-thing", "2"])) == 0
    argv = ["eval", "--json", str(tmp_path / "eval.json")]
    for i, scene_dir in enumerate(scenes):
        pred = tmp_path / f"pred{i}"
        assert run_cli("run", "--scene", str(scene_dir), "--out", str(pred)) == 0
        argv += ["--scene", str(scene_dir), "--pred", str(pred)]
    capsys.readouterr()
    assert run_cli(*argv) == 3
    err = capsys.readouterr().err
    assert f"scene {scenes[1]} has catalog" in err and f"scene {scenes[0]} has" in err
    assert not (tmp_path / "eval.json").exists()


def test_run_stops_at_a_damaged_scene(tmp_path, capsys, three_scenes):
    (three_scenes[1] / "mask_001.panc").unlink()
    outs = [tmp_path / f"pred{i}" for i in range(3)]
    argv = ["run"]
    for scene_dir, out in zip(three_scenes, outs):
        argv += ["--scene", str(scene_dir), "--out", str(out)]
    capsys.readouterr()
    assert run_cli(*argv) == 3
    captured = capsys.readouterr()
    assert str(three_scenes[1] / "mask_001.panc") in captured.err
    assert captured.out == ""
    assert (outs[0] / "panoptic.panc").exists()
    assert not outs[1].exists() and not outs[2].exists()


def test_train_held_out_pq_equals_eval_of_the_same_predictions(tmp_path):
    # At seed 5, one running iou_sum over all held-out scenes once differed in
    # the last bit from eval's scene-by-scene sum (class 4).
    assert run_cli("train", "--out", str(tmp_path / "train"), "--steps", "200",
                   "--seed", "5", "--scenes", "8", "--match-threshold", "0.4",
                   "--truncation", "0.3", "--confusion", "0.1", "--with-masks") == 0
    cfg = TrainConfig(steps=200, seed=5, scenes=8, match_threshold=0.4,
                      scene=SynthConfig(box_truncation=0.3, confusion_rate=0.1,
                                        with_masks=True))
    run = ["run", "--checkpoint", str(tmp_path / "train" / "checkpoint")]
    evaluate = ["eval", "--json", str(tmp_path / "eval.json")]
    for i, (scene, gt) in enumerate(make_eval_pool(cfg)):
        save_scene(scene, tmp_path / f"scene{i}", gt=gt)
        run += ["--scene", str(tmp_path / f"scene{i}"), "--out", str(tmp_path / f"pred{i}")]
        evaluate += ["--scene", str(tmp_path / f"scene{i}"), "--pred", str(tmp_path / f"pred{i}")]
    assert run_cli(*run) == 0 and run_cli(*evaluate) == 0
    report = json.loads((tmp_path / "train" / "report.json").read_text())
    assert json.loads((tmp_path / "eval.json").read_text())["pq"] == report["final_pq"]


@pytest.mark.parametrize("name, tensor, message", [
    ("features.panc", np.zeros((16, 32, 16)), "shape (16, 32, 16), expected (32, 32, 16)"),
    ("features.panc", np.zeros((32, 32)), "shape (32, 32), expected (32, 32, c)"),
    ("semantic_probs.panc", np.zeros((32, 32, 5)), "shape (32, 32, 5), expected (32, 32, 6)"),
    ("mask_000.panc", np.zeros((16, 16)), "shape (16, 16), expected (32, 32)"),
    ("features.panc", np.zeros((32, 32, 16), dtype=np.uint32),
     "dtype uint32, expected float32 or float64"),
], ids=["features-grid", "features-rank", "probs-channels", "mask-grid", "features-u32"])
def test_cue_shape_faults_name_the_file(tmp_path, capsys, masked_scene_and_pred, name, tensor,
                                        message):
    scene_dir, pred = masked_scene_and_pred
    path = scene_dir / name
    container.write_tensor(path, tensor)
    capsys.readouterr()
    for mode in ("argmax", "heuristic"):
        out = tmp_path / "again"
        assert run_cli("run", "--scene", str(scene_dir), "--out", str(out), "--mode", mode) == 3
        assert f"{path}: {message}" in capsys.readouterr().err
        assert not out.exists()
    report = tmp_path / "eval.json"
    assert run_cli("eval", "--scene", str(scene_dir), "--pred", str(pred),
                   "--json", str(report)) == 3
    assert f"{path}: {message}" in capsys.readouterr().err
    assert not report.exists()


def _nan_w1(ckpt, _):
    w1 = container.read_tensor(ckpt / "w1.panc")
    w1[2, 3] = np.nan
    container.write_tensor(ckpt / "w1.panc", w1)
    return "{ckpt}/w1.panc: non-finite value at index (2, 3)"


def _short_b0(ckpt, _):
    container.write_tensor(ckpt / "b0.panc", np.zeros(8))
    return "{ckpt}/b0.panc: b0 has shape (8,), expected (16,)"


def _u32_w0(ckpt, _):
    w0 = container.read_tensor(ckpt / "w0.panc")
    container.write_tensor(ckpt / "w0.panc", (w0 > 0).astype(np.uint32))
    return "{ckpt}/w0.panc: w0 has dtype uint32, expected float32 or float64"


def _set_manifest_key(ckpt, key, value):
    manifest = json.loads((ckpt / "params.json").read_text())
    manifest[key] = value
    (ckpt / "params.json").write_text(json.dumps(manifest))


def _narrow_feature_dim(ckpt, _):
    _set_manifest_key(ckpt, "feature_dim", 8)
    return "{ckpt}/params.json: key feature_dim must be 16, the width of w0, got 8"


def _float_feature_dim(ckpt, _):
    _set_manifest_key(ckpt, "feature_dim", 16.0)
    return "{ckpt}/params.json: key feature_dim must be an integer, got a number"


def _sigmoid_activation(ckpt, _):
    _set_manifest_key(ckpt, "activation", "sigmoid")
    return '{ckpt}/params.json: key activation must be "rectifier", got "sigmoid"'


def _no_params_json(ckpt, _):
    (ckpt / "params.json").unlink()
    return "error: no params.json in {ckpt}"


def _narrow_scene(_, scene_dir):
    assert run_cli(*synth_args(scene_dir, extra=["--feature-dim", "8"])) == 0
    return "scene {scene} has 8-channel features, but checkpoint {ckpt} expects 16"


@pytest.mark.parametrize("damage", [_nan_w1, _short_b0, _u32_w0, _narrow_scene,
                                    _narrow_feature_dim, _float_feature_dim,
                                    _sigmoid_activation, _no_params_json])
def test_run_rejects_checkpoint_faults_naming_the_files(tmp_path, capsys, scene_and_params,
                                                        damage):
    scene_dir, ckpt = scene_and_params
    scene_copy, ckpt_copy = tmp_path / "scene", tmp_path / "checkpoint"
    shutil.copytree(scene_dir, scene_copy)
    shutil.copytree(ckpt, ckpt_copy)
    message = damage(ckpt_copy, scene_copy).format(ckpt=ckpt_copy, scene=scene_copy)
    capsys.readouterr()
    out = tmp_path / "pred"
    assert run_cli("run", "--scene", str(scene_copy), "--out", str(out),
                   "--checkpoint", str(ckpt_copy)) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("rewrite", [
    lambda g: g.astype(np.float64), lambda g: g.astype(np.float32), lambda g: g[..., None],
], ids=["f64", "f32", "rank-3"])
def test_eval_rejects_a_prediction_grid_that_is_not_a_u32_image(tmp_path, capsys,
                                                                 masked_scene_and_pred, rewrite):
    scene_dir, pred = masked_scene_and_pred
    path = pred / "panoptic.panc"
    grid = rewrite(container.read_tensor(path))
    container.write_tensor(path, grid)
    capsys.readouterr()
    report = tmp_path / "eval.json"
    assert run_cli("eval", "--scene", str(scene_dir), "--pred", str(pred),
                   "--json", str(report)) == 3
    assert (f"{path}: panoptic grid has dtype {grid.dtype} and shape {grid.shape}, "
            f"expected a uint32 grid of rank 2") in capsys.readouterr().err
    assert not report.exists()


def test_eval_rejects_a_prediction_for_another_grid(tmp_path, capsys, masked_scene_and_pred):
    scene_dir, _ = masked_scene_and_pred
    small, pred = tmp_path / "small", tmp_path / "small_pred"
    assert run_cli(*synth_args(small, extra=["--height", "16", "--width", "24",
                                             "--instances", "1"])) == 0
    assert run_cli("run", "--scene", str(small), "--out", str(pred)) == 0
    capsys.readouterr()
    assert run_cli("eval", "--scene", str(scene_dir), "--pred", str(pred)) == 3
    assert (f"{pred / 'panoptic.panc'}: grid (16, 24) does not match the ground truth "
            f"(32, 32) of scene {scene_dir}") in capsys.readouterr().err


@pytest.fixture(scope="module")
def masked_scene_and_pred_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("damage")
    assert run_cli(*synth_args(root / "scene", extra=["--with-masks", "--instances", "4"])) == 0
    assert run_cli("run", "--scene", str(root / "scene"), "--out", str(root / "pred")) == 0
    AffinityParams.init(16, seed=0).save(root / "checkpoint")
    return root


def _run_cli_capturing_stderr(*args):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run_cli(*args)
    return code, err.getvalue()


@given(name=st.sampled_from(["scene/semantic_probs.panc", "scene/features.panc",
                             "scene/mask_000.panc", "scene/mask_003.panc",
                             "pred/panoptic.panc"]),
       dtype=st.sampled_from([np.float32, np.float64, np.uint32]),
       shape=st.none() | st.lists(st.sampled_from([32, 6, 16]) | st.integers(1, 40), max_size=3))
def test_run_and_eval_on_a_rewritten_tensor_exit_0_or_3_naming_it(masked_scene_and_pred_dir,
                                                                  name, dtype, shape):
    """A valid PANC file of any dtype and shape (None: the original shape) in
    place of a cue or the prediction grid either passes or exits 3 naming it
    (or the manifest or sidecar it disagrees with), and then nothing is written."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shutil.copytree(masked_scene_and_pred_dir, root, dirs_exist_ok=True)
        path = root / name
        original = np.abs(container.read_tensor(path))
        values = np.resize(original, original.shape if shape is None else shape)
        container.write_tensor(path, values.astype(dtype))
        named = [str(path), str(root / "scene" / "manifest.json"),
                 str(root / "pred" / "segments.json")]
        scene = ["--scene", str(root / "scene")]
        report = root / "eval.json"
        for out, args in [(root / "argmax", ["run", *scene, "--out", str(root / "argmax")]),
                          (root / "heuristic", ["run", *scene, "--out", str(root / "heuristic"),
                                                "--mode", "heuristic"]),
                          (report, ["eval", *scene, "--pred", str(root / "pred"),
                                    "--json", str(report)])]:
            code, err = _run_cli_capturing_stderr(*args)
            assert code in (0, 3), err
            if dtype is np.uint32 and name.startswith("scene/"):
                assert code == 3, err  # cues are float32 or float64
            if code == 3:
                assert any(n in err for n in named), err
                assert not out.exists()


# Each fuzzed file, with the manifest and the key path that name it; the
# prediction grid has a fixed name.
_NAMED_BY = {
    "scene/semantic_probs.panc": ("scene/manifest.json", ("tensors", "semantic_probs")),
    "scene/features.panc": ("scene/manifest.json", ("tensors", "features")),
    "scene/mask_002.panc": ("scene/manifest.json", ("detections", 2, "mask")),
    "scene/gt_labels.panc": ("scene/manifest.json", ("ground_truth", "label_map")),
    "checkpoint/w1.panc": ("checkpoint/params.json", ("tensors", "w1")),
    "checkpoint/b0.panc": ("checkpoint/params.json", ("tensors", "b0")),
    "pred/panoptic.panc": None,
}
# PANC header fields as (offset, bytes); "dim" is dim 0, moved to a drawn dim.
# Values 0-3 are drawn often: they are the valid dtype codes and the smallest dims.
_HEADER_FIELDS = {"magic": (0, 4), "version": (4, 2), "dtype": (6, 1), "rank": (7, 1),
                  "dim": (8, 4)}


def _rename(root, name, data):
    """Rewrite the manifest string that names ``name``; return the manifest and
    the path it now names, as an error message shows it."""
    manifest_name, keys = _NAMED_BY[name]
    mpath = root / manifest_name
    manifest = json.loads(mpath.read_text())
    node = manifest
    for key in keys[:-1]:
        node = node[key]
    old = node[keys[-1]]
    node[keys[-1]] = new = data.draw(
        st.sampled_from(["missing.panc", "."])
        | st.integers(0, len(old)).map(lambda i: old[:i] + "\x00" + old[i:]))
    mpath.write_text(json.dumps(manifest))
    return [str(mpath), repr(str(mpath.parent / new))[1:-1]]


@given(name=st.sampled_from(sorted(_NAMED_BY)), data=st.data())
def test_run_and_eval_on_damaged_bytes_exit_0_or_3_naming_the_file(masked_scene_and_pred_dir,
                                                                  name, data):
    """One damaged header field, a truncated file or a rewritten file name (NUL
    byte included) makes `run --checkpoint` and `eval` pass or exit 3 naming the
    file or its manifest, and then nothing is written."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        dirs = {d: masked_scene_and_pred_dir / d for d in ("scene", "pred", "checkpoint")}
        damaged = name.split("/")[0]  # only its directory is copied
        dirs[damaged] = shutil.copytree(dirs[damaged], root / damaged)
        path = root / name
        raw = bytearray(path.read_bytes())
        named = [str(path)]
        damage = data.draw(st.sampled_from(
            [*_HEADER_FIELDS, "truncate", *(["rename"] if _NAMED_BY[name] else [])]))
        if damage == "rename":
            named += _rename(root, name, data)
        elif damage == "truncate":
            path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
        else:
            offset, width = _HEADER_FIELDS[damage]
            offset += 4 * data.draw(st.integers(0, raw[7] - 1)) if damage == "dim" else 0
            value = data.draw(st.integers(0, 3) | st.integers(0, 256**width - 1))
            raw[offset:offset + width] = value.to_bytes(width, "little")
            path.write_bytes(raw)
        scene = ["--scene", str(dirs["scene"])]
        report = root / "eval.json"
        for out, args in [(root / "out", ["run", *scene, "--out", str(root / "out"),
                                          "--checkpoint", str(dirs["checkpoint"])]),
                          (report, ["eval", *scene, "--pred", str(dirs["pred"]),
                                    "--json", str(report)])]:
            code, err = _run_cli_capturing_stderr(*args)
            assert code in (0, 3), err
            if code == 3:
                assert any(n in err for n in named), err
                assert not out.exists()


def _key_paths(node, at=()):
    """Every key path inside a JSON value, each parent before its children."""
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, child in items:
        yield at + (key,)
        yield from _key_paths(child, at + (key,))


# What a damaged key is set to: deleted, null, or a value of another JSON type.
_DELETE = "<delete>"
_DAMAGE = [_DELETE, None, True, 7, 0.5, "x", [], {}]


@given(name=st.sampled_from(["scene/manifest.json", "checkpoint/params.json",
                             "pred/segments.json"]),
       where=st.integers(0, 10**4), value=st.sampled_from(_DAMAGE))
# A detection without a mask among detections with masks.
@example(name="scene/manifest.json", where=("detections", 2, "mask"), value=None)
@example(name="scene/manifest.json", where=("detections", 2, "mask"), value=_DELETE)
def test_run_and_eval_on_a_damaged_json_key_exit_0_or_3_naming_the_directory(
        masked_scene_and_pred_dir, name, where, value):
    """One key of a manifest (``where``: a key path, or an index into the list
    of them), deleted, set to null or set to a value of another JSON type, makes
    `run --checkpoint` and `eval` pass or exit 3 naming the damaged directory,
    and then nothing is written."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        dirs = {d: masked_scene_and_pred_dir / d for d in ("scene", "pred", "checkpoint")}
        damaged = name.split("/")[0]  # only its directory is copied
        dirs[damaged] = shutil.copytree(dirs[damaged], root / damaged)
        path = root / name
        document = json.loads(path.read_text())
        paths = list(_key_paths(document))
        *parents, key = where if isinstance(where, tuple) else paths[where % len(paths)]
        node = document
        for step in parents:
            node = node[step]
        assume(value in (_DELETE, None) or type(value) is not type(node[key]))
        if value == _DELETE:
            del node[key]
        else:
            node[key] = value
        path.write_text(json.dumps(document))
        scene = ["--scene", str(dirs["scene"])]
        report = root / "eval.json"
        for out, args in [(root / "out", ["run", *scene, "--out", str(root / "out"),
                                          "--checkpoint", str(dirs["checkpoint"])]),
                          (report, ["eval", *scene, "--pred", str(dirs["pred"]),
                                    "--json", str(report)])]:
            code, err = _run_cli_capturing_stderr(*args)
            assert code in (0, 3), err
            if code == 3:
                assert str(dirs[damaged]) in err, err
                assert not out.exists()


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap is kept on glibc only")
def test_run_and_eval_keep_the_freed_heap_between_scenes(tmp_path):
    """Repeated `run --checkpoint` + `eval` passes reuse the heap the first one
    freed, instead of faulting every array of every scene in again."""
    AffinityParams.init(16, seed=0).save(tmp_path / "checkpoint")
    run = ["run", "--checkpoint", str(tmp_path / "checkpoint")]
    evaluate = ["eval"]
    for i in range(2):
        scene, pred = tmp_path / f"scene{i}", tmp_path / f"pred{i}"
        assert run_cli(*synth_args(scene, seed=i, extra=[
            "--with-masks", "--height", "128", "--width", "128", "--instances", "24"])) == 0
        run += ["--scene", str(scene), "--out", str(pred)]
        evaluate += ["--scene", str(scene), "--pred", str(pred)]
    faults = []
    for _ in range(2):  # the first pass grows the heap to its high-water mark
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert run_cli(*run) == 0 and run_cli(*evaluate) == 0
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert faults[1] / 2 < 300, faults


# Prints numpy's OpenBLAS thread count after `import numpy`, after
# `import panfuse, panfuse.cli` and after one `cli.main` call; 0 0 0 when
# numpy has no bundled OpenBLAS.
_BLAS_THREADS_PROBE = """
import contextlib, ctypes, io, pathlib
import numpy
libs = list((pathlib.Path(numpy.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas64_*.so"))
threads = ctypes.CDLL(str(libs[0])).scipy_openblas_get_num_threads64_ if libs else lambda: 0
counts = [threads()]
import panfuse, panfuse.cli
counts.append(threads())
with contextlib.redirect_stdout(io.StringIO()):
    panfuse.cli.main(["costs", "--h", "4", "--w", "4", "--c", "2", "--ndet", "1", "--nstuff", "1"])
counts.append(threads())
print(*counts)
"""
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _env_without_blas_threads(**extra) -> dict:
    """This environment without the BLAS thread variables, plus ``extra``,
    with the tested package on the path."""
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARIABLES}
    return {**env, "PYTHONPATH": str(Path(panfuse.__file__).resolve().parents[1]), **extra}


@functools.cache
def _blas_threads(**variables) -> list[int]:
    proc = subprocess.run([sys.executable, "-c", _BLAS_THREADS_PROBE], capture_output=True,
                          text=True, env=_env_without_blas_threads(**variables), check=True)
    counts = [int(x) for x in proc.stdout.split()]
    if counts[0] == 0:
        pytest.skip("numpy has no bundled OpenBLAS")
    return counts


def test_main_runs_openblas_on_one_thread():
    assert _blas_threads()[2] == 1


def test_importing_panfuse_leaves_openblas_threads_alone():
    """Only `cli.main` sets the count, so library callers keep their threads."""
    before, after_import, _ = _blas_threads()
    assert after_import == before


@pytest.mark.parametrize("variable", _BLAS_THREAD_VARIABLES)
def test_main_keeps_a_thread_count_set_in_the_environment(variable):
    assert _blas_threads(**{variable: "2"}) == [2, 2, 2]


@pytest.mark.parametrize("library", [None, ctypes.CDLL(None)], ids=["no-library", "no-setter"])
def test_main_without_the_openblas_setter_prints_nothing_extra(monkeypatch, capfd, library):
    argv = ["costs", "--h", "4", "--w", "4", "--c", "2", "--ndet", "1", "--nstuff", "1"]
    assert main(argv) == 0
    expected = capfd.readouterr()
    lookups = []
    monkeypatch.setattr(cli, "_openblas", lambda: lookups.append(library) or library)
    for variable in _BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(variable, raising=False)
    cli._set_up_process.cache_clear()
    assert main(argv) == 0
    assert lookups == [library]
    assert capfd.readouterr() == expected


def test_openblas_thread_count_leaves_run_outputs_unchanged(tmp_path):
    """OpenBLAS splits a gemm over output rows and columns, never over the
    summed dimension, so `run` writes the same bytes on one thread or two."""
    scene = tmp_path / "scene"
    assert run_cli(*synth_args(scene, extra=[
        "--with-masks", "--height", "128", "--width", "128", "--instances", "24"])) == 0
    AffinityParams.init(16, seed=0).save(tmp_path / "checkpoint")
    outputs = []
    for extra in [{}, {"OPENBLAS_NUM_THREADS": "2"}]:
        out = tmp_path / f"pred{len(outputs)}"
        subprocess.run([sys.executable, "-m", "panfuse.cli", "run", "--scene", str(scene),
                        "--out", str(out), "--checkpoint", str(tmp_path / "checkpoint"),
                        "--dump-affinity", "64,64"],
                       env=_env_without_blas_threads(**extra), capture_output=True, check=True)
        outputs.append([(out / name).read_bytes() for name in
                        ("panoptic.panc", "segments.json", "affinity_64_64.panc")])
    assert outputs[0] == outputs[1]
