"""The inference forward over box windows and row blocks.

``affinity.logit_blocks`` and ``affinity.fused_winners`` are checked
against the dense forward of ``tests/reference.py``, and
``inference.predict_panoptic`` against the symmetries of the pipeline: the
affinity has no spatial prior and the argmax is per pixel, so flipping or
transposing a scene flips or transposes its class map, and reordering the
thing detections changes no segment.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from panfuse import affinity, cli
from panfuse.affinity import AffinityParams, fused_winners, logit_blocks
from panfuse.inference import EVAL_SCORE_THRESHOLD, predict_panoptic
from panfuse.potential import Variant, append_stuff_boxes, build_potential, filter_by_score
from panfuse.scene import (Box, ClassCatalog, Detection, SceneCues, SynthConfig, save_scene,
                           synth_scene)

from reference import argmax_channels, clear_winners, dense_logits
from symmetry import flip_grid, flip_scene


def random_params(rng, c, scale):
    return AffinityParams(w0=scale * rng.normal(size=(c, c)), b0=0.1 * rng.normal(size=c),
                          w1=scale * rng.normal(size=(c, c)), b1=0.1 * rng.normal(size=c))


@st.composite
def forward_cases(draw):
    """A grid (1xN and Nx1 included), detections whose boxes may touch or
    cross the grid's edge or lie wholly beyond it, identical duplicates, and
    the dtypes, variants, masks and heads the forward takes."""
    h = draw(st.sampled_from([1, 2, 7, 16, 33]))
    w = draw(st.sampled_from([1, 3, 16, 31, 64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    catalog = ClassCatalog(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    v = rng.random((h, w, catalog.n_classes)) + 0.01
    v = (v / v.sum(axis=2, keepdims=True)).astype(draw(st.sampled_from([np.float64,
                                                                          np.float32])))
    masks = draw(st.booleans())
    things = []
    for _ in range(draw(st.integers(0, 6))):
        x0, y0 = draw(st.integers(0, w + 1)), draw(st.integers(0, h + 1))
        box = Box(x0, y0, x0 + draw(st.integers(1, w + 1)), y0 + draw(st.integers(1, h + 1)))
        mask = rng.random((h, w)) if masks else None  # float64, whatever v's dtype
        det = Detection(box, float(rng.random()), int(rng.integers(catalog.n_stuff,
                                                                   catalog.n_classes)), mask)
        things.append(det)
        if draw(st.integers(0, 3)) == 0:  # an identical duplicate right after it
            things.append(Detection(det.box, det.score, det.class_id, det.mask))
    dets = append_stuff_boxes(things, catalog, h, w)
    c = draw(st.integers(1, 6))
    features = rng.normal(size=(h, w, c))
    params = None if draw(st.booleans()) else random_params(
        rng, c, draw(st.sampled_from([0.1, 1.0, 3.0])))
    return (v, dets, draw(st.sampled_from(list(Variant))), catalog, features, params,
            draw(st.sampled_from([1, 5, 64, affinity.BLOCK_PIXELS])))


@given(forward_cases())
def test_window_forward_equals_the_dense_forward(case):
    v, dets, variant, catalog, features, params, block = case
    potential = build_potential(v, dets, variant, catalog)
    h, w, k = v.shape[0], v.shape[1], len(dets)
    with mock.patch.object(affinity, "BLOCK_PIXELS", block):
        blocks = list(logit_blocks(potential, features, params))
        winners = fused_winners(potential, features, params)
    rows = max(1, block // w)
    assert [start for start, _ in blocks] == list(range(0, h * w, rows * w))
    got = np.concatenate([logits for _, logits in blocks]).reshape(h, w, k)
    expected = dense_logits(potential, features, params)
    assert got.dtype == expected.dtype
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)
    clear = clear_winners(expected)
    assert np.array_equal(winners[clear], argmax_channels(expected)[clear])
    for j in range(1, k):  # an identical duplicate never beats the channel before it
        a, b = dets[j - 1], dets[j]
        if (a.box, a.score, a.class_id) == (b.box, b.score, b.class_id) and a.mask is b.mask:
            assert not (winners == j).any()


def synth_forward_scene(seed, size=(40, 50), instances=9):
    cfg = SynthConfig(height=size[0], width=size[1], n_instances=instances, with_masks=True,
                      box_truncation=0.3, box_jitter=1.0, confusion_rate=0.1)
    return synth_scene(cfg, seed)[0]


@pytest.mark.parametrize("seed", range(4))
def test_winners_do_not_depend_on_the_block_height(seed):
    scene = synth_forward_scene(seed)
    dets = append_stuff_boxes(filter_by_score(scene.detections, EVAL_SCORE_THRESHOLD),
                              scene.catalog, scene.height, scene.width)
    potential = build_potential(scene.semantic_probs, dets, Variant.B, scene.catalog)
    params = AffinityParams.init(16, seed, scale=1.0)
    winners = []
    for block in (1, affinity.BLOCK_PIXELS, scene.height * scene.width):  # 1 row, whole grid
        with mock.patch.object(affinity, "BLOCK_PIXELS", block):
            winners.append(fused_winners(potential, scene.features, params))
    assert np.array_equal(winners[0], winners[1]) and np.array_equal(winners[1], winners[2])


@pytest.mark.filterwarnings("error")  # the overflow must not warn
def test_overflow_in_the_last_block_alone_exits_4_naming_the_scene(tmp_path, capsys):
    scene = synth_forward_scene(3, size=(64, 64))  # two blocks of 32 rows
    features = scene.features.copy()
    features[-1] = 1e308  # finite, but twice it is not
    c = features.shape[2]
    scene = SceneCues(scene.catalog, scene.semantic_probs, scene.detections, features)
    save_scene(scene, tmp_path / "scene")
    # Head 0 overflows on the last row; head 1 stays finite everywhere.
    params = AffinityParams(w0=2.0 * np.eye(c), b0=np.zeros(c),
                            w1=1e-300 * np.eye(c), b1=np.zeros(c))
    params.save(tmp_path / "checkpoint")

    dets = append_stuff_boxes(filter_by_score(scene.detections, EVAL_SCORE_THRESHOLD),
                              scene.catalog, 64, 64)
    expected = dense_logits(build_potential(scene.semantic_probs, dets, Variant.B,
                                            scene.catalog), features, params)
    last = 64 - affinity.BLOCK_PIXELS // 64
    assert np.isfinite(expected[:last]).all() and not np.isfinite(expected[last:]).all()

    out = tmp_path / "pred"
    capsys.readouterr()
    assert cli.main(["run", "--scene", str(tmp_path / "scene"), "--out", str(out),
                     "--checkpoint", str(tmp_path / "checkpoint")]) == 4
    assert capsys.readouterr().err == (f"error: scene {tmp_path / 'scene'}: the affinity "
                                       f"forward gave non-finite logits\n")
    assert not out.exists()


# ---------------------------------------------------------------------------
# Symmetries, through predict_panoptic
# ---------------------------------------------------------------------------

@st.composite
def symmetry_cases(draw):
    h, w = draw(st.sampled_from([(12, 30), (40, 20), (64, 48), (70, 33)]))
    cfg = SynthConfig(height=h, width=w, n_instances=draw(st.integers(0, 5)),
                      instance_min=3, instance_max=7, with_masks=draw(st.booleans()),
                      box_truncation=draw(st.sampled_from([0.0, 0.3])),
                      box_jitter=draw(st.sampled_from([0.0, 1.0])))
    scene = synth_scene(cfg, draw(st.integers(0, 10_000)))[0]
    scale = draw(st.sampled_from([None, 0.15, 1.0]))
    params = None if scale is None else AffinityParams.init(16, draw(st.integers(0, 99)),
                                                            scale=scale)
    return scene, params, draw(st.sampled_from(list(Variant)))


def assume_no_near_tie(scene, params, variant):
    dets = append_stuff_boxes(filter_by_score(scene.detections, EVAL_SCORE_THRESHOLD),
                              scene.catalog, scene.height, scene.width)
    potential = build_potential(scene.semantic_probs, dets, variant, scene.catalog)
    assume(clear_winners(dense_logits(potential, scene.features, params)).all())


def segment_multiset(pmap):
    return sorted((s.class_id, s.area) for s in pmap.segments)


@pytest.mark.parametrize("how", ["horizontal", "vertical", "transpose"])
@given(case=symmetry_cases())
def test_flipping_a_scene_flips_its_class_map(how, case):
    scene, params, variant = case
    assume_no_near_tie(scene, params, variant)
    pmap = predict_panoptic(scene, params, variant)
    flipped = predict_panoptic(flip_scene(scene, how), params, variant)
    assert np.array_equal(flipped.class_map(), flip_grid(pmap.class_map(), how))
    assert segment_multiset(flipped) == segment_multiset(pmap)


@given(case=symmetry_cases(), data=st.data())
def test_reordering_the_detections_changes_no_segment(case, data):
    scene, params, variant = case
    assume_no_near_tie(scene, params, variant)
    order = data.draw(st.permutations(range(len(scene.detections))))
    shuffled = SceneCues(scene.catalog, scene.semantic_probs,
                         [scene.detections[i] for i in order], scene.features)
    pmap, other = predict_panoptic(scene, params, variant), predict_panoptic(shuffled, params,
                                                                            variant)
    assert np.array_equal(other.class_map(), pmap.class_map())
    assert segment_multiset(other) == segment_multiset(pmap)
