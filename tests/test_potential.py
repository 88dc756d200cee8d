import numpy as np
import pytest

from panfuse.errors import CueError
from panfuse.potential import Variant, append_stuff_boxes, build_potential, filter_by_score
from panfuse.scene import Box, ClassCatalog, Detection, SynthConfig, synth_scene

from reference import argmax_channels


def det(box, score, class_id, mask=None):
    return Detection(box=box, score=score, class_id=class_id, mask=mask)


def test_append_stuff_boxes_counts_and_order():
    catalog = ClassCatalog(n_stuff=3, n_thing=2)
    out = append_stuff_boxes([], catalog, height=10, width=12)
    assert len(out) == 3
    for class_id, d in enumerate(out):
        assert d.class_id == class_id
        assert d.box == Box(0, 0, 12, 10)
        assert d.score == 1.0 and d.mask is None


def test_append_stuff_boxes_total_count():
    catalog = ClassCatalog(n_stuff=11, n_thing=8)
    things = [det(Box(0, 0, 2, 2), 0.9, 11), det(Box(3, 3, 5, 5), 0.8, 12)]
    out = append_stuff_boxes(things, catalog, 8, 8)
    assert len(out) == 13
    # Stuff channels first, things follow in input order.
    assert [d.class_id for d in out[:11]] == list(range(11))
    assert out[11:] == things


def test_append_rejects_stuff_input():
    catalog = ClassCatalog(n_stuff=2, n_thing=1)
    with pytest.raises(CueError):
        append_stuff_boxes([det(Box(0, 0, 4, 4), 1.0, 0)], catalog, 4, 4)


def test_filter_by_score():
    catalog = ClassCatalog(n_stuff=1, n_thing=1)
    dets = [det(Box(0, 0, 2, 2), s, 1) for s in (0.9, 0.4, 0.75)]
    dets = append_stuff_boxes(dets, catalog, 4, 4)
    kept = filter_by_score(dets, 0.5)
    assert [d.score for d in kept] == [1.0, 0.9, 0.75]
    assert filter_by_score(dets, 0.0) == dets
    # Boundary: exact threshold kept (rule: keep on >=).
    assert [d.score for d in filter_by_score(dets, 0.75)] == [1.0, 0.9, 0.75]


def fixture_scene():
    """2x2 grid, 1 stuff + 1 thing class, one detection covering the left column."""
    catalog = ClassCatalog(n_stuff=1, n_thing=1)
    v = np.zeros((2, 2, 2))
    v[:, :, 0] = [[0.1, 0.3], [0.2, 0.4]]
    v[:, :, 1] = 1.0 - v[:, :, 0]
    return catalog, v


def test_build_potential_mask_free_values():
    catalog, v = fixture_scene()
    thing = det(Box(0, 0, 1, 2), 0.8, 1)
    dets = append_stuff_boxes([thing], catalog, 2, 2)
    pot = build_potential(v, dets, Variant.B, catalog)
    assert pot.n_channels == 2
    # Stuff channel: score 1.0, full box, equals the class probabilities.
    assert np.allclose(pot.psi[:, :, 0], v[:, :, 0])
    # Thing channel: s * V inside the box, 0 outside.
    assert np.allclose(pot.psi[:, 0, 1], 0.8 * v[:, 0, 1])
    assert np.all(pot.psi[:, 1, 1] == 0.0)


def test_variant_hand_values():
    # s=0.8, V=0.9, M=0.5 inside the box: B -> 0.36, C -> 1.12.
    catalog = ClassCatalog(n_stuff=1, n_thing=1)
    v = np.zeros((1, 1, 2))
    v[0, 0] = [0.1, 0.9]
    mask = np.array([[0.5]])
    thing = det(Box(0, 0, 1, 1), 0.8, 1, mask=mask)
    dets = append_stuff_boxes([thing], catalog, 1, 1)
    pot_b = build_potential(v, dets, Variant.B, catalog)
    pot_c = build_potential(v, dets, Variant.C, catalog)
    assert np.isclose(pot_b.psi[0, 0, 1], 0.36)
    assert np.isclose(pot_c.psi[0, 0, 1], 1.12)
    # Variant A is B with unit scores.
    pot_a = build_potential(v, dets, Variant.A, catalog)
    assert np.isclose(pot_a.psi[0, 0, 1], 0.45)
    # Stuff channels: multiplicative identity under B, additive under C.
    assert np.isclose(pot_b.psi[0, 0, 0], 0.1)
    assert np.isclose(pot_c.psi[0, 0, 0], 0.1)


def test_variants_equivalent_without_masks():
    scene, _ = synth_scene(SynthConfig(with_masks=False), seed=3)
    dets = append_stuff_boxes(scene.detections, scene.catalog,
                              scene.height, scene.width)
    psi_b = build_potential(scene.semantic_probs, dets, Variant.B, scene.catalog).psi
    psi_c = build_potential(scene.semantic_probs, dets, Variant.C, scene.catalog).psi
    assert np.array_equal(psi_b, psi_c)


def test_value_ranges():
    scene, _ = synth_scene(SynthConfig(with_masks=True), seed=7)
    dets = append_stuff_boxes(scene.detections, scene.catalog,
                              scene.height, scene.width)
    psi_b = build_potential(scene.semantic_probs, dets, Variant.B, scene.catalog).psi
    psi_c = build_potential(scene.semantic_probs, dets, Variant.C, scene.catalog).psi
    assert 0.0 <= psi_b.min() and psi_b.max() <= 1.0
    assert 0.0 <= psi_c.min() and psi_c.max() <= 2.0


def test_score_scaling_preserves_argmax():
    # Mask-free potentials are linear in the scores, so scaling every score
    # by lambda scales the whole tensor and keeps unique argmaxes.
    scene, _ = synth_scene(SynthConfig(), seed=11)
    dets = append_stuff_boxes(scene.detections, scene.catalog,
                              scene.height, scene.width)
    psi = build_potential(scene.semantic_probs, dets, Variant.B, scene.catalog).psi
    lam = 0.5
    by_hand = np.stack(
        [lam * psi[:, :, k] for k in range(psi.shape[2])], axis=2)
    assert np.allclose(by_hand, lam * psi)
    margin = np.sort(psi, axis=2)
    unique = margin[:, :, -1] > margin[:, :, -2] + 1e-12
    assert np.array_equal(argmax_channels(psi)[unique],
                          argmax_channels(lam * psi)[unique])


def test_pixels_outside_box_are_zero():
    scene, _ = synth_scene(SynthConfig(box_truncation=0.4), seed=5)
    dets = append_stuff_boxes(scene.detections, scene.catalog,
                              scene.height, scene.width)
    pot = build_potential(scene.semantic_probs, dets, Variant.B, scene.catalog)
    for k, d in enumerate(dets):
        outside = pot.psi[:, :, k].copy()
        outside[d.box.y0:d.box.y1, d.box.x0:d.box.x1] = 0.0
        assert not outside.any()


def test_missing_mask_raises_when_masks_enabled():
    catalog = ClassCatalog(n_stuff=1, n_thing=1)
    v = np.full((2, 2, 2), 0.5)
    masked = det(Box(0, 0, 1, 1), 0.9, 1, mask=np.zeros((2, 2)))
    bare = det(Box(1, 0, 2, 1), 0.8, 1)
    dets = append_stuff_boxes([masked, bare], catalog, 2, 2)
    with pytest.raises(CueError):
        build_potential(v, dets, Variant.B, catalog)


def test_off_grid_box_keeps_an_all_zero_channel_at_its_index():
    catalog = ClassCatalog(n_stuff=1, n_thing=1)
    v = np.full((2, 2, 2), 0.5)
    things = [det(Box(5, 5, 7, 7), 0.9, 1), det(Box(0, 0, 1, 1), 0.8, 1)]
    dets = append_stuff_boxes(things, catalog, 2, 2)
    pot = build_potential(v, dets, Variant.B, catalog)
    assert pot.n_channels == 3
    assert not pot.psi[:, :, 1].any()
    assert pot.psi[0, 0, 2] == 0.8 * 0.5


def planes_reference(v, dets, variant, catalog):
    """One zeroed (h, w) plane per detection, stacked at the end."""
    h, w, _ = v.shape
    masks_enabled = any(d.mask is not None for d in dets if catalog.is_thing(d.class_id))
    planes = []
    for d in dets:
        score = 1.0 if variant is Variant.A else d.score
        sl = (slice(min(d.box.y0, h), min(d.box.y1, h)),
              slice(min(d.box.x0, w), min(d.box.x1, w)))
        prob = v[sl[0], sl[1], d.class_id]
        m = d.mask[sl] if catalog.is_thing(d.class_id) and masks_enabled else None
        plane = np.zeros((h, w), dtype=v.dtype)
        if variant is Variant.C:
            plane[sl] = score * (prob + (m if m is not None else 0.0))
        else:
            plane[sl] = score * (prob * m if m is not None else prob)
        planes.append(plane)
    return np.stack(planes, axis=2) if planes else np.zeros((h, w, 0), dtype=v.dtype)


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("masks", [False, True])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_build_potential_equals_planes_reference(variant, masks, dtype):
    cfg = SynthConfig(height=24, width=20, n_instances=4, instance_min=4, instance_max=7,
                      with_masks=masks, mask_noise=0.2 if masks else 0.0,
                      box_truncation=0.2, box_jitter=1.0, confusion_rate=0.3)
    scene, _ = synth_scene(cfg, seed=3)
    v = scene.semantic_probs.astype(dtype)
    things = list(scene.detections)
    # A box wholly outside the grid keeps an all-zero channel; one that
    # overhangs the grid fills its part inside the grid.
    outside_mask = np.zeros((24, 20)) if masks else None
    things.insert(1, det(Box(25, 30, 28, 33), 0.9, 4, outside_mask))
    things.append(det(Box(15, 18, 26, 29), 0.7, 5, np.ones((24, 20)) if masks else None))
    dets = append_stuff_boxes(things, scene.catalog, 24, 20)
    got = build_potential(v, dets, variant, scene.catalog)
    psi = planes_reference(v, dets, variant, scene.catalog)
    assert got.psi.dtype == psi.dtype and got.psi.shape == psi.shape
    assert got.psi.tobytes() == psi.tobytes()
    assert got.psi.flags.c_contiguous
    assert got.n_channels == len(dets)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_build_potential_zero_channels(dtype):
    catalog = ClassCatalog(n_stuff=1, n_thing=1)
    v = np.full((4, 5, 2), 0.5, dtype=dtype)
    got = build_potential(v, [], Variant.B, catalog)
    psi = planes_reference(v, [], Variant.B, catalog)
    assert got.psi.shape == psi.shape == (4, 5, 0)
    assert got.psi.dtype == psi.dtype == dtype
    assert got.n_channels == 0
