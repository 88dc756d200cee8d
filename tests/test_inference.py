import re

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from panfuse.container import write_files
from panfuse.errors import CueError, DimensionError, FormatError
from panfuse.inference import (
    MergerParams,
    heuristic_merge,
    infer_panoptic,
    panoptic_from_ground_truth,
    load_panoptic,
    panoptic_files,
    trim_small_stuff,
)
from panfuse.numerics import VOID
from panfuse.potential import Variant, append_stuff_boxes, build_potential
from panfuse.scene import Box, ClassCatalog, Detection, SynthConfig, synth_scene

from reference import argmax_channels
from symmetry import flip_grid, flip_scene


# Classes 0 and 1 are stuff, class 2 is a thing.
CATALOG = ClassCatalog(n_stuff=2, n_thing=1)


def test_infer_stuff_partition():
    p = np.zeros((4, 4, 2))
    p[:, :2, 0] = 1.0
    p[:, 2:, 1] = 1.0
    pmap = infer_panoptic(argmax_channels(p), [0, 1], CATALOG)
    assert len(pmap.segments) == 2
    assert {s.class_id: s.area for s in pmap.segments} == {0: 8, 1: 8}
    assert (pmap.label_map >= 0).all()


def test_infer_two_disjoint_things():
    p = np.zeros((4, 6, 3))
    p[:, :, 0] = 0.1
    p[:2, :3, 1] = 1.0
    p[2:, 3:, 2] = 1.0
    pmap = infer_panoptic(argmax_channels(p), [0, 2, 2], CATALOG)
    things = [s for s in pmap.segments if s.kind == "thing"]
    assert sorted(s.area for s in things) == [6, 6]
    assert sorted(s.instance_id for s in things) == [1, 2]


@pytest.mark.parametrize("winners", [
    np.zeros(4, dtype=np.intp),  # not a grid
    np.zeros((0, 3), dtype=np.intp),  # no pixels
    np.zeros((2, 2)),  # not integers
    np.array([[0, -1]]),
    np.array([[0, 2]]),  # one past the last channel
    np.array([[0, 2**40]], dtype=np.int64),  # too large to count pixels by channel
    np.array([[0, 2**63]], dtype=np.uint64),
], ids=["1d", "empty", "float", "negative", "past-end", "huge", "huge-uint64"])
def test_infer_refuses_what_is_not_a_grid_of_channels(winners):
    with pytest.raises(DimensionError, match="winning channels must"):
        infer_panoptic(winners, [0, 1], CATALOG)


def test_infer_takes_any_integer_dtype():
    grid = np.array([[0, 1], [1, 1]])
    want = infer_panoptic(grid, [0, 1], CATALOG)
    for dtype in (np.uint8, np.int32, np.uint64):
        got = infer_panoptic(grid.astype(dtype), [0, 1], CATALOG)
        assert np.array_equal(got.label_map, want.label_map) and got.segments == want.segments


def test_instance_ids_count_only_winning_thing_channels(tmp_path):
    # 1001 thing channels, of which only the first and the last win pixels.
    p = np.zeros((4, 4, 1002))
    p[:, :, 0] = 0.5
    p[:2, :2, 1] = 1.0
    p[2:, 2:, 1001] = 1.0
    pmap = infer_panoptic(argmax_channels(p), [0] + [2] * 1001, CATALOG)
    things = [s for s in pmap.segments if s.kind == "thing"]
    assert [s.instance_id for s in things] == [1, 2]
    write_files(tmp_path / "pred", panoptic_files(pmap, tmp_path / "pred"))
    loaded = load_panoptic(tmp_path / "pred")
    assert np.array_equal(loaded.label_map, pmap.label_map)


def test_save_refuses_1000_thing_segments_before_creating_anything(tmp_path):
    # 1000 one-pixel things on a 32x32 stuff background.
    p = np.zeros((32, 32, 1001))
    p[:, :, 0] = 0.5
    p.reshape(1024, 1001)[np.arange(1000), np.arange(1, 1001)] = 1.0
    pmap = infer_panoptic(argmax_channels(p), [0] + [2] * 1000, CATALOG)
    assert max(s.instance_id for s in pmap.segments) == 1000
    out = tmp_path / "pred"
    with pytest.raises(FormatError, match=re.escape(
            f"{out / 'panoptic.panc'}: instance id 1000 exceeds the u32 encoding base; "
            "a map holds at most 999 thing segments")):
        panoptic_files(pmap, out)
    assert not out.exists()


def test_infer_never_emits_void():
    scene, _ = synth_scene(SynthConfig(box_truncation=0.2, confusion_rate=0.3),
                           seed=17)
    dets = append_stuff_boxes(scene.detections, scene.catalog,
                              scene.height, scene.width)
    pot = build_potential(scene.semantic_probs, dets, Variant.B, scene.catalog)
    pmap = infer_panoptic(argmax_channels(pot.psi), [d.class_id for d in dets], scene.catalog)
    assert int((pmap.label_map == VOID).sum()) == 0


def merge_fixture():
    """8x8 scene, 2 stuff classes, one 4x4 instance mask."""
    catalog = ClassCatalog(n_stuff=2, n_thing=1)
    v = np.zeros((8, 8, 3))
    v[:, :4, 0] = 1.0
    v[:, 4:, 1] = 1.0
    mask = np.zeros((8, 8))
    mask[2:6, 2:6] = 1.0
    det = Detection(Box(2, 2, 6, 6), 0.9, 2, mask=mask)
    return catalog, v, det


def test_merge_single_instance_no_void():
    catalog, v, det = merge_fixture()
    pmap = heuristic_merge(v, [det], MergerParams(stuff_area_threshold=0),
                           catalog)
    assert int((pmap.label_map == VOID).sum()) == 0
    thing = [s for s in pmap.segments if s.kind == "thing"]
    assert len(thing) == 1 and thing[0].area == 16


def test_merge_overlap_drops_lower_scored():
    catalog = ClassCatalog(n_stuff=1, n_thing=1)
    v = np.ones((8, 8, 2))
    v[:, :, 1] = 0.0
    m1 = np.zeros((8, 8)); m1[0:4, 0:5] = 1.0   # 20 px
    m2 = np.zeros((8, 8)); m2[0:4, 2:7] = 1.0   # 20 px, 12 shared (60%)
    d1 = Detection(Box(0, 0, 5, 4), 0.9, 1, mask=m1)
    d2 = Detection(Box(2, 0, 7, 4), 0.8, 1, mask=m2)
    pmap = heuristic_merge(v, [d1, d2],
                           MergerParams(overlap_threshold=0.5, stuff_area_threshold=0),
                           catalog)
    things = [s for s in pmap.segments if s.kind == "thing"]
    assert len(things) == 1 and things[0].area == 20
    # Dropped instance pixels fall to the stuff fill.
    assert (pmap.label_map[0:4, 5:7] == [s.index for s in pmap.segments
                                         if s.kind == "stuff"][0]).all()


def test_merge_small_stuff_becomes_void():
    catalog, v, det = merge_fixture()
    # Left stuff region outside the mask: 8*4 - 8 = 24 px, right: 24 px.
    pmap = heuristic_merge(v, [det], MergerParams(stuff_area_threshold=25),
                           catalog)
    assert int((pmap.label_map == VOID).sum()) == 48
    assert [s.kind for s in pmap.segments] == ["thing"]


def test_merge_skips_low_scores_and_empty_masks():
    catalog, v, det = merge_fixture()
    params = MergerParams(instance_score_threshold=0.5, stuff_area_threshold=0)
    low = Detection(det.box, 0.4, det.class_id, mask=det.mask)
    empty = Detection(det.box, 0.95, det.class_id, mask=np.zeros_like(det.mask))
    stuff_only = heuristic_merge(v, [], params, catalog)
    kept = heuristic_merge(v, [det], params, catalog)
    for skipped in (low, empty):
        alone = heuristic_merge(v, [skipped], params, catalog)
        assert np.array_equal(alone.label_map, stuff_only.label_map)
        assert alone.segments == stuff_only.segments
        both = heuristic_merge(v, [skipped, det], params, catalog)
        assert np.array_equal(both.label_map, kept.label_map)
        assert both.segments == kept.segments


@pytest.mark.parametrize("overlap", [0.5, 0.99, 1.0])
def test_merge_skips_an_instance_with_no_pixels_left(overlap):
    """A mask the higher-scored instance covers entirely gives no segment, up
    to an overlap threshold of 1, where the ratio test would let it through."""
    catalog, v, det = merge_fixture()
    params = MergerParams(overlap_threshold=overlap, stuff_area_threshold=0)
    covered = Detection(det.box, 0.8, det.class_id, mask=det.mask)
    kept = heuristic_merge(v, [det], params, catalog)
    both = heuristic_merge(v, [det, covered], params, catalog)
    assert np.array_equal(both.label_map, kept.label_map)
    assert both.segments == kept.segments


def test_merge_requires_masks():
    catalog, v, det = merge_fixture()
    bare = Detection(det.box, det.score, det.class_id, mask=None)
    with pytest.raises(CueError):
        heuristic_merge(v, [bare], MergerParams(), catalog)


@pytest.mark.parametrize("name, value", [
    ("instance_score_threshold", 1.5), ("instance_score_threshold", np.nan),
    ("overlap_threshold", -0.1), ("stuff_area_threshold", -1),
])
def test_merger_params_reject_out_of_range_field(name, value):
    catalog, v, det = merge_fixture()
    with pytest.raises(CueError, match=f"^{name} must be .*, got {value}$"):
        heuristic_merge(v, [det], MergerParams(**{name: value}), catalog)


def test_merge_deterministic_score_ties():
    catalog = ClassCatalog(n_stuff=1, n_thing=1)
    v = np.ones((4, 4, 2))
    v[:, :, 1] = 0.0
    m = np.zeros((4, 4)); m[:2, :2] = 1.0
    dets = [Detection(Box(0, 0, 2, 2), 0.8, 1, mask=m),
            Detection(Box(0, 0, 2, 2), 0.8, 1, mask=m.copy())]
    a = heuristic_merge(v, dets, MergerParams(stuff_area_threshold=0), catalog)
    b = heuristic_merge(v, dets, MergerParams(stuff_area_threshold=0), catalog)
    assert np.array_equal(a.label_map, b.label_map)
    # Tie broken by detection index: the first claims, the second is dropped.
    assert len([s for s in a.segments if s.kind == "thing"]) == 1


# The merger has no spatial prior and orders instances by score alone, so
# flipping or transposing cues, boxes and masks flips or transposes its map,
# and reordering detections of distinct scores changes nothing.

@st.composite
def merge_cases(draw):
    h, w = draw(st.sampled_from([(12, 30), (40, 20), (33, 33)]))
    cfg = SynthConfig(height=h, width=w, n_instances=draw(st.integers(0, 5)),
                      instance_min=3, instance_max=7, with_masks=True,
                      box_truncation=draw(st.sampled_from([0.0, 0.3])),
                      box_jitter=draw(st.sampled_from([0.0, 1.0])),
                      mask_noise=draw(st.sampled_from([0.0, 0.2])))
    scene = synth_scene(cfg, draw(st.integers(0, 10_000)))[0]
    params = MergerParams(draw(st.sampled_from([0.0, 0.5, 0.9])),
                          draw(st.sampled_from([0.0, 0.3, 0.5, 1.0])),
                          draw(st.sampled_from([0, 8, 64])))
    return scene, params


def merge(scene, params, dets=None):
    return heuristic_merge(scene.semantic_probs, scene.detections if dets is None else dets,
                           params, scene.catalog)


@pytest.mark.parametrize("how", ["horizontal", "vertical", "transpose"])
@given(case=merge_cases())
def test_flipping_a_scene_flips_its_merged_map(how, case):
    scene, params = case
    pmap, flipped = merge(scene, params), merge(flip_scene(scene, how), params)
    assert np.array_equal(flipped.label_map, flip_grid(pmap.label_map, how))
    assert flipped.segments == pmap.segments


@given(case=merge_cases(), data=st.data())
def test_reordering_detections_of_distinct_scores_changes_no_merged_segment(case, data):
    scene, params = case
    assume(len({d.score for d in scene.detections}) == len(scene.detections))
    order = data.draw(st.permutations(range(len(scene.detections))))
    pmap = merge(scene, params)
    other = merge(scene, params, [scene.detections[i] for i in order])
    assert np.array_equal(other.label_map, pmap.label_map)
    assert other.segments == pmap.segments


def test_trim_identity_at_zero():
    scene, gt = synth_scene(SynthConfig(), seed=19)
    pmap = panoptic_from_ground_truth(gt, scene.catalog)
    out = trim_small_stuff(pmap, 0)
    assert np.array_equal(out.label_map, pmap.label_map)
    assert out.segments == pmap.segments


def test_trim_voids_small_stuff_keeps_things():
    catalog = ClassCatalog(n_stuff=2, n_thing=1)
    label = np.zeros((6, 6), dtype=np.int32)
    label[0, :4] = 1   # small stuff segment, 4 px
    label[3:5, 3:5] = 2  # small thing segment, 4 px
    from panfuse.inference import PanopticMap, Segment

    pmap = PanopticMap(label_map=label, segments=[
        Segment(0, 0, "stuff", 28, 0),
        Segment(1, 1, "stuff", 4, 0),
        Segment(2, 2, "thing", 4, 1),
    ])
    out = trim_small_stuff(pmap, 16)
    kinds = {(s.kind, s.class_id) for s in out.segments}
    assert ("stuff", 1) not in kinds
    assert ("thing", 2) in kinds
    assert int((out.label_map == VOID).sum()) == 4
    # Idempotent.
    again = trim_small_stuff(out, 16)
    assert np.array_equal(again.label_map, out.label_map)
    assert again.segments == out.segments


def test_panoptic_roundtrip(tmp_path):
    scene, gt = synth_scene(SynthConfig(), seed=23)
    pmap = panoptic_from_ground_truth(gt, scene.catalog)
    pmap = trim_small_stuff(pmap, 40)  # introduce some VOID
    write_files(tmp_path / "pred", panoptic_files(pmap, tmp_path / "pred"))
    back = load_panoptic(tmp_path / "pred")
    assert np.array_equal(back.label_map, pmap.label_map)
    assert back.segments == pmap.segments
