import numpy as np
import pytest

from panfuse.errors import CueError
from panfuse.inference import (
    MergerParams,
    heuristic_merge,
    infer_panoptic,
    panoptic_from_ground_truth,
    load_panoptic,
    save_panoptic,
    trim_small_stuff,
)
from panfuse.numerics import VOID
from panfuse.potential import ChannelInfo, Variant, append_stuff_boxes, build_potential
from panfuse.scene import Box, ClassCatalog, Detection, SynthConfig, synth_scene


def stuff_channels(n):
    return [ChannelInfo("stuff", i, i) for i in range(n)]


def test_infer_stuff_partition():
    p = np.zeros((4, 4, 2))
    p[:, :2, 0] = 1.0
    p[:, 2:, 1] = 1.0
    pmap = infer_panoptic(p, stuff_channels(2))
    assert len(pmap.segments) == 2
    assert {s.class_id: s.area for s in pmap.segments} == {0: 8, 1: 8}
    assert (pmap.label_map >= 0).all()


def test_infer_two_disjoint_things():
    p = np.zeros((4, 6, 3))
    p[:, :, 0] = 0.1
    p[:2, :3, 1] = 1.0
    p[2:, 3:, 2] = 1.0
    meta = [ChannelInfo("stuff", 0, 0), ChannelInfo("thing", 1, 1),
            ChannelInfo("thing", 1, 2)]
    pmap = infer_panoptic(p, meta)
    things = [s for s in pmap.segments if s.kind == "thing"]
    assert sorted(s.area for s in things) == [6, 6]
    assert sorted(s.instance_id for s in things) == [1, 2]


def test_instance_ids_count_only_winning_thing_channels(tmp_path):
    # 1001 thing channels, of which only the first and the last win pixels.
    p = np.zeros((4, 4, 1002))
    p[:, :, 0] = 0.5
    p[:2, :2, 1] = 1.0
    p[2:, 2:, 1001] = 1.0
    meta = [ChannelInfo("stuff", 0, 0)] + [ChannelInfo("thing", 1, k)
                                           for k in range(1, 1002)]
    pmap = infer_panoptic(p, meta)
    things = [s for s in pmap.segments if s.kind == "thing"]
    assert [s.instance_id for s in things] == [1, 2]
    save_panoptic(pmap, tmp_path / "pred")
    loaded = load_panoptic(tmp_path / "pred")
    assert np.array_equal(loaded.label_map, pmap.label_map)


def test_infer_never_emits_void():
    scene, _ = synth_scene(SynthConfig(box_truncation=0.2, confusion_rate=0.3),
                           seed=17)
    dets = append_stuff_boxes(scene.detections, scene.catalog,
                              scene.height, scene.width)
    pot = build_potential(scene.semantic_probs, dets, Variant.B, scene.catalog)
    pmap = infer_panoptic(pot.psi, pot.channels)
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


def test_merge_requires_masks():
    catalog, v, det = merge_fixture()
    bare = Detection(det.box, det.score, det.class_id, mask=None)
    with pytest.raises(CueError):
        heuristic_merge(v, [bare], MergerParams(), catalog)


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
    save_panoptic(pmap, tmp_path / "pred")
    back = load_panoptic(tmp_path / "pred")
    assert np.array_equal(back.label_map, pmap.label_map)
    assert back.segments == pmap.segments
