import json

import numpy as np
import pytest

from panfuse import container
from panfuse.cli import main
from panfuse.inference import load_panoptic
from panfuse.numerics import VOID
from panfuse.scene import load_scene


def run_cli(*args):
    return main(list(args))


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


@pytest.mark.parametrize("steps", ["0", "-3", "x"])
def test_train_and_ablate_steps_usage_error(tmp_path, capsys, steps):
    assert run_cli("train", "--out", str(tmp_path / "t"), "--steps", steps) == 2
    assert "--steps" in capsys.readouterr().err
    assert not (tmp_path / "t").exists()
    assert run_cli("ablate", "--preset", "affinity", "--steps", steps) == 2
    assert "--steps" in capsys.readouterr().err


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


def test_run_on_non_finite_scene_exits_3_without_output(tmp_path, capsys):
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


def test_run_and_eval_reject_malformed_manifest(tmp_path, capsys, masked_scene_and_pred):
    scene_dir, pred = masked_scene_and_pred
    mpath = scene_dir / "manifest.json"
    manifest = json.loads(mpath.read_text())
    del manifest["catalog"]
    mpath.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run_cli("run", "--scene", str(scene_dir), "--out", str(tmp_path / "again")) == 3
    assert f"{mpath}: missing key catalog" in capsys.readouterr().err
    mpath.write_text("[1, 2]")
    assert run_cli("eval", "--scene", str(scene_dir), "--pred", str(pred)) == 3
    assert f"{mpath}: expected a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [[], ["--with-masks", "--jitter", "1.5"]])
def test_eval_one_with_scene_records_equals_full_load(tmp_path, monkeypatch, extra):
    from panfuse import cli

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
    catalog, stats, pred_classes, gt_classes, confusion, ap = light
    assert catalog == full[0]
    assert stats.per_class == full[1].per_class
    assert np.array_equal(pred_classes, full[2]) and np.array_equal(gt_classes, full[3])
    assert np.array_equal(confusion.counts, full[4].counts)
    assert ap == full[5]
