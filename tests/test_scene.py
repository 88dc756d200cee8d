import json
import struct
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, reject
from hypothesis import strategies as st

from panfuse.container import TensorHeader, read_header, read_tensor, write_tensor
from panfuse.errors import FormatError, GenerationError
from panfuse.inference import panoptic_from_ground_truth
from panfuse.matching import build_target_map, match_segments
from panfuse.numerics import IGNORE, SENTINEL_U32
from panfuse.potential import append_stuff_boxes
from panfuse.scene import (
    Box,
    GroundTruthPanoptic,
    SceneCues,
    SynthConfig,
    load_scene,
    load_scene_records,
    save_scene,
    synth_scene,
    tight_box,
)


def scenes_equal(a, b):
    if not np.array_equal(a.semantic_probs, b.semantic_probs):
        return False
    if not np.array_equal(a.features, b.features):
        return False
    if len(a.detections) != len(b.detections):
        return False
    for da, db in zip(a.detections, b.detections):
        if (da.box, da.score, da.class_id) != (db.box, db.score, db.class_id):
            return False
        if (da.mask is None) != (db.mask is None):
            return False
        if da.mask is not None and not np.array_equal(da.mask, db.mask):
            return False
    return True


def test_synth_deterministic():
    cfg = SynthConfig(with_masks=True, box_truncation=0.2, confusion_rate=0.2)
    s1, g1 = synth_scene(cfg, seed=5)
    s2, g2 = synth_scene(cfg, seed=5)
    assert scenes_equal(s1, s2)
    assert np.array_equal(g1.label_map, g2.label_map)
    assert g1.segments == g2.segments


def test_synth_valid_and_fully_labeled():
    for seed in range(5):
        scene, gt = synth_scene(SynthConfig(with_masks=True), seed=seed)
        assert gt.label_map.min() >= 0  # generator never emits IGNORE
        indices = {s.index for s in gt.segments}
        assert set(np.unique(gt.label_map)) == indices


def test_synth_exact_boxes_without_truncation():
    scene, gt = synth_scene(SynthConfig(box_truncation=0.0, box_jitter=0.0), seed=9)
    thing_segments = [s for s in gt.segments if s.class_id >= scene.catalog.n_stuff]
    assert len(thing_segments) == len(scene.detections)
    for seg, det in zip(thing_segments, scene.detections):
        assert det.box == seg.box


def test_truncation_shrink_rule():
    # 20x20 at truncation 0.4 -> each side scaled by 0.6, centered: 12x12.
    from panfuse.scene import _truncate_box

    shrunk = _truncate_box(Box(10, 10, 30, 30), 0.4)
    assert (shrunk.width, shrunk.height) == (12, 12)
    assert shrunk == Box(14, 14, 26, 26)


def test_tight_boxes_recomputable_from_label_map():
    for seed in (0, 3, 8):
        _, gt = synth_scene(SynthConfig(), seed=seed)
        for seg in gt.segments:
            assert tight_box(gt.label_map == seg.index) == seg.box
            assert int((gt.label_map == seg.index).sum()) == seg.area


def test_confusion_mass_expectation():
    # Expected mass on a thing pixel's true class: (1 - r) + r / n_classes.
    r = 0.3
    cfg = SynthConfig(height=128, width=128, n_instances=8, instance_min=20,
                      instance_max=30, confusion_rate=r)
    masses = []
    for seed in range(3):
        scene, gt = synth_scene(cfg, seed=seed)
        classes = {s.index: s.class_id for s in gt.segments}
        class_map = np.vectorize(classes.get)(gt.label_map)
        thing = class_map >= cfg.n_stuff
        v_true = np.take_along_axis(scene.semantic_probs,
                                    class_map[..., None], axis=2)[..., 0]
        masses.append(v_true[thing])
    masses = np.concatenate(masses)
    assert masses.size >= 10_000
    expected = (1 - r) + r / (cfg.n_stuff + cfg.n_thing)
    # Bernoulli flip std over >= 1e4 pixels leaves ~0.5% slack.
    assert abs(masses.mean() - expected) < 0.02


def test_generation_error_when_unplaceable():
    cfg = SynthConfig(height=16, width=16, n_instances=12,
                      instance_min=10, instance_max=12)
    with pytest.raises(GenerationError):
        synth_scene(cfg, seed=0)


@pytest.mark.parametrize("field, value", [
    ("feature_dim", 0), ("feature_dim", -1),
    ("box_jitter", np.nan), ("box_jitter", np.inf), ("box_jitter", -1.0),
    ("feature_noise", np.nan), ("feature_noise", np.inf),
    ("mask_noise", np.nan), ("mask_noise", 5.0), ("mask_noise", -0.1),
    ("stuff_segments", 0), ("stuff_segments", -4),
    ("instance_min", 0), ("instance_min", 14),
    pytest.param("height", 10**400, id="height-1e400"),
    pytest.param("n_stuff", 10**400, id="n_stuff-1e400"),
])
def test_synth_config_rejects_out_of_range_knobs(field, value):
    with pytest.raises(GenerationError, match=field):
        synth_scene(SynthConfig(with_masks=True, **{field: value}), seed=0)


def test_synth_scene_rejects_negative_seed():
    with pytest.raises(GenerationError, match="seed must be >= 0, got -1"):
        synth_scene(SynthConfig(), seed=-1)


def test_masks_confined_to_box_and_instance():
    cfg = SynthConfig(with_masks=True, box_truncation=0.3)
    scene, gt = synth_scene(cfg, seed=4)
    for det in scene.detections:
        assert det.mask is not None
        b = det.box
        outside = det.mask.copy()
        outside[b.y0:b.y1, b.x0:b.x1] = 0.0
        assert not outside.any()


def _load_errors(root, scene: SceneCues, loaders=(load_scene,)) -> str:
    """The one FormatError each loader raises for ``scene`` saved to ``root``;
    the loaders must agree."""
    save_scene(scene, root)
    messages = set()
    for loader in loaders:
        with pytest.raises(FormatError) as exc:
            loader(root)
        messages.add(str(exc.value))
    assert len(messages) == 1
    return messages.pop()


def test_validate_reports_bad_normalization(tmp_path):
    scene, _ = synth_scene(SynthConfig(), seed=0)
    scene.semantic_probs[3, 3] *= 0.8
    assert _load_errors(tmp_path, scene) == \
        f"{tmp_path / 'semantic_probs.panc'}: normalization violated at pixel (3, 3), sum 0.8"


@pytest.mark.parametrize("array", ["semantic_probs", "features", "mask"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_validate_reports_non_finite(tmp_path, array, value):
    scene, _ = synth_scene(SynthConfig(with_masks=array == "mask"), seed=1)
    if array == "mask":  # a value inside the box, where masks may be nonzero
        b = scene.detections[1].box
        scene.detections[1].mask[b.y0 + 1, b.x0] = value
        assert _load_errors(tmp_path, scene) == \
            f"{tmp_path / 'mask_001.panc'}: non-finite value at pixel ({b.y0 + 1}, {b.x0})"
        return
    getattr(scene, array)[2, 5, 1] = value
    getattr(scene, array)[7, 0, 0] = value
    assert _load_errors(tmp_path, scene) == \
        f"{tmp_path / array}.panc: non-finite value at pixel (2, 5)"


@pytest.mark.parametrize("array, shape, message", [
    ("semantic_probs", (32, 32, 5), "semantic_probs.panc: shape (32, 32, 5), expected (32, 32, 6)"),
    ("features", (16, 32, 16), "features.panc: shape (16, 32, 16), expected (32, 32, 16)"),
    ("features", (32, 32), "features.panc: shape (32, 32), expected (32, 32, c)"),
    ("mask", (16, 16), "mask_001.panc: shape (16, 16), expected (32, 32)"),
], ids=["probs-channels", "features-grid", "features-rank", "mask-grid"])
def test_validate_reports_shapes_and_then_skips_values(tmp_path, array, shape, message):
    scene, _ = synth_scene(SynthConfig(with_masks=True), seed=1)
    scene.features[0, 0, 0] = np.nan  # not reported while a shape is wrong
    if array == "mask":
        scene.detections[1].mask = np.zeros(shape)
    else:
        setattr(scene, array, np.zeros(shape))
    assert _load_errors(tmp_path, scene, (load_scene, load_scene_records)) == \
        f"{tmp_path}/{message}"


@pytest.mark.parametrize("shape, message", [
    ((32,), "shape (32,), expected (32, 32, 6)"), ((), "shape (), expected (32, 32, 6)"),
], ids=["rank-1", "rank-0"])
def test_validate_reports_probabilities_without_a_grid_and_skips_the_boxes(saved_scene, shape,
                                                                           message):
    path = saved_scene / "semantic_probs.panc"
    write_tensor(path, np.zeros(shape))
    for loader in (load_scene, load_scene_records):
        with pytest.raises(FormatError) as exc:
            loader(saved_scene)
        assert str(exc.value) == f"{path}: {message}"


@pytest.mark.parametrize("array", ["semantic_probs", "features", "mask"])
def test_validate_reports_cues_that_are_not_float(tmp_path, array):
    scene, _ = synth_scene(SynthConfig(with_masks=True), seed=1)
    if array == "mask":
        scene.detections[1].mask = scene.detections[1].mask.astype(np.uint32)
        name = "mask_001"
    else:
        setattr(scene, array, getattr(scene, array).astype(np.uint32))
        name = array
    assert _load_errors(tmp_path, scene, (load_scene, load_scene_records)) == \
        f"{tmp_path / name}.panc: dtype uint32, expected float32 or float64"


@st.composite
def synth_configs(draw):
    """Generator knobs over sizes, instances, masks and every kind of cue noise."""
    height, width = draw(st.integers(1, 48)), draw(st.integers(1, 48))
    instance_max = draw(st.integers(1, min(height, width, 16)))
    return SynthConfig(
        height=height, width=width,
        n_stuff=draw(st.integers(1, 4)), n_thing=draw(st.integers(1, 4)),
        n_instances=draw(st.integers(0, 5)), stuff_segments=draw(st.integers(1, 5)),
        instance_min=draw(st.integers(1, instance_max)), instance_max=instance_max,
        box_truncation=draw(st.floats(0, 0.95)),
        box_jitter=draw(st.sampled_from([0.0, 1e300]) | st.floats(0, 1e300) | st.floats(0, 8)),
        confusion_rate=draw(st.floats(0, 0.95)),
        feature_noise=draw(st.floats(0, 10)), feature_dim=draw(st.integers(1, 8)),
        with_masks=draw(st.booleans()), mask_noise=draw(st.floats(0, 1)))


@given(cfg=synth_configs(), seed=st.integers(0, 2**32))
def test_every_generated_scene_loads_back_bit_exact(cfg, seed):
    """Whatever the generator writes, the loader accepts unchanged."""
    try:
        scene, gt = synth_scene(cfg, seed)
    except GenerationError:  # the instances do not fit on the grid
        reject()
    with tempfile.TemporaryDirectory() as tmp:
        save_scene(scene, tmp, gt=gt, synth=cfg)
        loaded, loaded_gt = load_scene(tmp)
    assert scenes_equal(scene, loaded)
    assert loaded.catalog == scene.catalog
    assert np.array_equal(gt.label_map, loaded_gt.label_map)
    assert gt.segments == loaded_gt.segments


def test_synth_refuses_features_that_overflow():
    with pytest.raises(GenerationError) as exc:
        synth_scene(SynthConfig(feature_noise=1e308), seed=0)
    assert str(exc.value).startswith(
        "feature_noise 1e+308 makes the features non-finite at pixel (")


@pytest.mark.parametrize("sigma", [3.0, 1e17, 1e300])
def test_jitter_beyond_the_grid_moves_a_corner_to_its_edge(sigma):
    """Clipping the offsets to the grid size gives the box of the unclipped offsets."""
    from panfuse.scene import _jitter_box

    box = Box(3, 4, 9, 12)
    jittered = _jitter_box(box, sigma, 20, 16, np.random.default_rng(7))
    d = np.random.default_rng(7).normal(0.0, sigma, size=4)
    d = np.round(np.clip(d, -2**40, 2**40)).astype(int)  # as wide as any box needs
    x0 = int(np.clip(box.x0 + d[0], 0, 19))
    y0 = int(np.clip(box.y0 + d[1], 0, 15))
    assert jittered == Box(x0, y0, int(np.clip(box.x1 + d[2], x0 + 1, 20)),
                           int(np.clip(box.y1 + d[3], y0 + 1, 16)))


def test_scene_roundtrip_bit_exact(tmp_path):
    cfg = SynthConfig(with_masks=True, box_truncation=0.25, confusion_rate=0.15,
                      box_jitter=1.0)
    scene, gt = synth_scene(cfg, seed=21)
    save_scene(scene, tmp_path / "scene", gt=gt, synth=cfg)
    loaded, loaded_gt = load_scene(tmp_path / "scene")
    assert scenes_equal(scene, loaded)
    assert np.array_equal(gt.label_map, loaded_gt.label_map)
    assert gt.segments == loaded_gt.segments
    manifest = json.loads((tmp_path / "scene" / "manifest.json").read_text())
    assert manifest["synth"]["box_truncation"] == 0.25


def test_tensor_bad_magic(tmp_path):
    path = tmp_path / "bad.panc"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(FormatError) as exc:
        read_tensor(path)
    assert exc.value.offset == 0


def test_tensor_truncated_payload(tmp_path):
    path = tmp_path / "t.panc"
    write_tensor(path, np.zeros((4, 4), dtype=np.float64))
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(FormatError, match="payload size mismatch"):
        read_tensor(path)


def test_tensor_roundtrip_dtypes(tmp_path):
    rng = np.random.default_rng(0)
    for arr in (rng.normal(size=(3, 5, 2)),
                rng.normal(size=(4, 4)).astype(np.float32),
                rng.integers(0, 2**32 - 1, size=(6,), dtype=np.uint32)):
        write_tensor(tmp_path / "x.panc", arr)
        back = read_tensor(tmp_path / "x.panc")
        assert back.dtype == arr.dtype and np.array_equal(back, arr)


def test_manifest_shape_mismatch(tmp_path):
    scene, gt = synth_scene(SynthConfig(), seed=2)
    save_scene(scene, tmp_path / "scene", gt=gt)
    # Rewrite the semantic tensor with an extra channel.
    bigger = np.concatenate([scene.semantic_probs,
                             scene.semantic_probs[:, :, :1]], axis=2)
    write_tensor(tmp_path / "scene" / "semantic_probs.panc", bigger)
    with pytest.raises(FormatError, match="shape"):
        load_scene(tmp_path / "scene")


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.uint32])
@pytest.mark.parametrize("shape", [(), (7,), (3, 5), (4, 3, 2)])
def test_tensor_roundtrip_every_rank(tmp_path, dtype, shape):
    rng = np.random.default_rng(len(shape))
    if dtype is np.uint32:
        arr = rng.integers(0, 2**32, size=shape, dtype=np.uint32)
    else:
        arr = np.asarray(rng.normal(size=shape), dtype=dtype)
    path = tmp_path / "x.panc"
    write_tensor(path, arr)
    back = read_tensor(path)
    assert back.dtype == arr.dtype and back.shape == arr.shape
    assert back.tobytes() == arr.tobytes()
    assert back.flags.writeable and back.flags.c_contiguous
    assert read_header(path) == TensorHeader(dtype=arr.dtype, shape=shape)
    assert path.stat().st_size == 8 + 4 * len(shape) + arr.nbytes


def _panc(dtype_code=1, dims=(2, 3), version=1, payload=None, magic=b"PANC"):
    header = magic + struct.pack("<HBB", version, dtype_code, len(dims))
    header += struct.pack(f"<{len(dims)}I", *dims)
    if payload is None:
        payload = bytes(8 * int(np.prod(dims)))
    return header + payload


@pytest.mark.parametrize("data, message, offset", [
    (b"PAN", "bad magic", 0),
    (b"XXXX" + bytes(16), "bad magic", 0),
    (b"PANC\x01\x00", "truncated header", 6),
    (_panc(version=2), "unsupported version 2", 4),
    (_panc(dtype_code=7), "unknown dtype code 7", 6),
    (_panc()[:10], "truncated dims", 10),
    (_panc(dims=(2, 0), payload=b""), "zero-sized dim (2, 0)", 8),
    (_panc()[:-1], "payload size mismatch in {path}: expected 64 bytes, got 63", 63),
    (_panc() + b"\x00", "payload size mismatch in {path}: expected 64 bytes, got 65", 64),
    pytest.param(_panc(dtype_code=0, dims=(2**16,) * 4, payload=b""),
                 "expected 73786976294838206488 bytes, got 24", 24, id="element-count-beyond-int64"),
])
def test_tensor_damage_reported_by_both_readers(tmp_path, data, message, offset):
    path = tmp_path / "d.panc"
    path.write_bytes(data)
    for reader in (read_tensor, read_header):
        with pytest.raises(FormatError) as exc:
            reader(path)
        assert message.format(path=path) in str(exc.value)
        assert str(path) in str(exc.value)
        assert exc.value.offset == offset


def test_missing_tensor_file_is_a_format_error(tmp_path):
    for reader in (read_tensor, read_header):
        with pytest.raises(FormatError, match="nope.panc"):
            reader(tmp_path / "nope.panc")


@pytest.fixture
def saved_scene(tmp_path):
    cfg = SynthConfig(with_masks=True, box_truncation=0.2)
    scene, gt = synth_scene(cfg, seed=12)
    save_scene(scene, tmp_path / "scene", gt=gt, synth=cfg)
    return tmp_path / "scene"


def _edit_manifest(scene_dir, edit):
    path = scene_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest = edit(manifest)
    path.write_text(json.dumps(manifest))
    return path


def _set(keys, value):
    def edit(manifest):
        node = manifest
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        return manifest
    return edit


def _delete(key):
    def edit(manifest):
        del manifest[key]
        return manifest
    return edit


@pytest.mark.parametrize("edit, message", [
    (lambda m: [1, 2], "expected a JSON object, got a list"),
    (_delete("catalog"), "missing key catalog"),
    (_set(["catalog"], [3, 3]), "key catalog must be an object, got a list"),
    (_set(["catalog", "n_stuff"], "3"), "key catalog.n_stuff must be an integer, got a string"),
    (_set(["catalog", "n_thing"], True), "key catalog.n_thing must be an integer, got a boolean"),
    (_set(["catalog", "names"], [1, 2, 3, 4, 5, 6]), "key catalog.names must be a list of strings"),
    (_set(["catalog", "n_stuff"], 0),
     "key catalog: catalog needs n_stuff >= 1 and n_thing >= 0, got (0, 3)"),
    (_set(["catalog", "names"], ["sky"]), "key catalog: catalog names has 1 entries, expected 6"),
    (_delete("shape"), "missing key shape"),
    (_set(["shape", "width"], 32.0), "key shape.width must be an integer, got a number"),
    (_delete("tensors"), "missing key tensors"),
    (_set(["tensors", "features"], None), "key tensors.features must be a string, got null"),
    (_delete("detections"), "missing key detections"),
    (_set(["detections"], {}), "key detections must be a list, got an object"),
    (_set(["detections", 0], 3), "key detections[0] must be an object"),
    (_set(["detections", 1, "box"], [1, 2, 3]), "key detections[1].box must be a list of 4 integers"),
    (_set(["detections", 2, "score"], "high"), "key detections[2].score must be a number, got a string"),
    (_set(["detections", 0, "mask"], 5), "key detections[0].mask must be a string, got an integer"),
    (_set(["detections", 2, "mask"], None),
     "key detections[2].mask is absent, but other detections have masks"),
    (_set(["detections", 2, "mask"], ""),
     "key detections[2].mask is absent, but other detections have masks"),
    (_set(["ground_truth", "segments", 1, "area"], 2.5),
     "key ground_truth.segments[1].area must be an integer, got a number"),
    (_set(["ground_truth"], "gt_labels.panc"), "key ground_truth must be an object, got a string"),
    (_set(["version"], 2), "key version must be 1, got 2"),
    (_set(["shape", "height"], -5), "key shape.height must be >= 1, got -5"),
    (_set(["shape", "width"], 0), "key shape.width must be >= 1, got 0"),
    (_set(["ground_truth", "segments", 5, "box"], [0, 0, 500, 500]),
     "key ground_truth.segments[5].box: (0, 0, 500, 500) exceeds 32x32 grid"),
    (_set(["ground_truth", "segments", 5, "box"], [0, 0, 1, 1]),
     "key ground_truth.segments[5].box: (0, 0, 1, 1) does not hold pixel (13, 9) of segment 5"),
])
def test_manifest_schema_errors_name_file_and_key(saved_scene, edit, message):
    mpath = _edit_manifest(saved_scene, edit)
    for loader in (load_scene, load_scene_records):
        with pytest.raises(FormatError) as exc:
            loader(saved_scene)
        assert str(exc.value) == f"{mpath}: {message}"


def test_manifest_without_ground_truth_or_mask_keys_loads(saved_scene):
    def edit(manifest):
        del manifest["ground_truth"]
        for rec in manifest["detections"]:
            del rec["mask"]
        return manifest
    _edit_manifest(saved_scene, edit)
    scene, gt = load_scene(saved_scene)
    assert gt is None and all(d.mask is None for d in scene.detections)


@pytest.mark.parametrize("name, pixel", [("semantic_probs", (3, 4)), ("features", (0, 9))])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_load_rejects_non_finite_cues(saved_scene, name, pixel, value):
    path = saved_scene / f"{name}.panc"
    t = read_tensor(path)
    t[pixel + (1,)] = value
    t[20, 0, 0] = value
    write_tensor(path, t)
    with pytest.raises(FormatError) as exc:
        load_scene(saved_scene)
    assert str(exc.value) == f"{path}: non-finite value at pixel {pixel}"


def test_load_rejects_non_finite_mask(saved_scene):
    path = saved_scene / "mask_001.panc"
    mask = read_tensor(path)
    mask[5, 6] = np.nan
    write_tensor(path, mask)
    with pytest.raises(FormatError, match=r"mask_001.panc: non-finite value at pixel \(5, 6\)"):
        load_scene(saved_scene)


def test_load_rejects_ground_truth_grid_that_is_not_u32(saved_scene):
    path = saved_scene / "gt_labels.panc"
    write_tensor(path, read_tensor(path).astype(np.float64))
    for load in (load_scene, load_scene_records):
        with pytest.raises(FormatError, match=f"{path}: ground-truth grid has dtype float64"):
            load(saved_scene)


def test_load_rejects_ground_truth_grid_of_the_wrong_shape(saved_scene):
    path = saved_scene / "gt_labels.panc"
    write_tensor(path, read_tensor(path)[:16])
    for load in (load_scene, load_scene_records):
        with pytest.raises(FormatError) as exc:
            load(saved_scene)
        assert str(exc.value) == (f"{path}: ground-truth grid (16, 32) does not match "
                                  f"manifest (32, 32)")


def test_scene_records_match_full_load(saved_scene):
    scene, gt = load_scene(saved_scene)
    catalog, detections, gt_records = load_scene_records(saved_scene)
    assert catalog == scene.catalog
    assert [(d.box, d.score, d.class_id) for d in detections] == [
        (d.box, d.score, d.class_id) for d in scene.detections]
    assert all(d.mask is None for d in detections)
    assert np.array_equal(gt_records.label_map, gt.label_map)
    assert gt_records.segments == gt.segments


@pytest.mark.parametrize("damage", ["truncate", "missing", "reshape", "u32"])
@pytest.mark.parametrize("name", ["semantic_probs.panc", "features.panc", "mask_002.panc"])
def test_scene_records_check_cue_files_like_full_load(saved_scene, damage, name):
    path = saved_scene / name
    if damage == "truncate":
        path.write_bytes(path.read_bytes()[:-8])
    elif damage == "missing":
        path.unlink()
    elif damage == "u32":
        write_tensor(path, read_tensor(path).astype(np.uint32))
    else:
        write_tensor(path, read_tensor(path)[:-1])
    with pytest.raises(FormatError) as full:
        load_scene(saved_scene)
    with pytest.raises(FormatError) as records:
        load_scene_records(saved_scene)
    assert str(records.value) == str(full.value)


def test_ignore_pixels_are_stored_as_the_u32_sentinel_and_stay_ignore(tmp_path):
    scene, gt = synth_scene(SynthConfig(), seed=2)
    ignore = np.zeros(gt.label_map.shape, dtype=bool)
    ignore[0, :5] = True
    ignore[10:12, 7] = True
    label = np.where(ignore, IGNORE, gt.label_map).astype(np.int32)
    areas = np.bincount(label[~ignore], minlength=len(gt.segments))
    segments = [replace(s, area=int(a)) for s, a in zip(gt.segments, areas)]
    save_scene(scene, tmp_path, gt=GroundTruthPanoptic(label, segments))

    stored = read_tensor(tmp_path / "gt_labels.panc")
    assert np.array_equal(stored == SENTINEL_U32, ignore)
    _, loaded = load_scene(tmp_path)
    assert np.array_equal(loaded.label_map, label)

    classes = panoptic_from_ground_truth(loaded, scene.catalog).class_map()
    assert np.array_equal(classes == IGNORE, ignore)
    dets = append_stuff_boxes(scene.detections, scene.catalog, scene.height, scene.width)
    match = match_segments(loaded, dets, 0.5, scene.catalog)
    target = build_target_map(loaded, match, list(range(len(dets))))
    assert (target.label_map[ignore] == IGNORE).all()
