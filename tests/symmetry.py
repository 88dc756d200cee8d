"""Changes of a scene or a map that the pipeline must follow or ignore.

Flips and transposes of the grids and boxes of a scene or of its ground
truth: ``how`` is "horizontal" (columns reversed), "vertical" (rows
reversed) or "transpose" (rows and columns swapped). Relabelled segment
ids, and the predicted scenes whose maps the tests relabel.
"""

from dataclasses import replace

import numpy as np
from hypothesis import strategies as st

from panfuse.inference import MergerParams, heuristic_merge, predict_panoptic
from panfuse.numerics import VOID
from panfuse.scene import Box, Detection, GroundTruthPanoptic, SceneCues, SynthConfig, synth_scene


def flip_box(box, h, w, how):
    if how == "horizontal":
        return Box(w - box.x1, box.y0, w - box.x0, box.y1)
    if how == "vertical":
        return Box(box.x0, h - box.y1, box.x1, h - box.y0)
    return Box(box.y0, box.x0, box.y1, box.x1)  # transpose


def flip_grid(a, how):
    if how == "horizontal":
        return a[:, ::-1].copy()
    if how == "vertical":
        return a[::-1].copy()
    axes = (1, 0, 2) if a.ndim == 3 else (1, 0)
    return a.transpose(axes).copy()


def flip_scene(scene, how):
    h, w = scene.height, scene.width
    dets = [Detection(flip_box(d.box, h, w, how), d.score, d.class_id,
                      None if d.mask is None else flip_grid(d.mask, how))
            for d in scene.detections]
    return SceneCues(scene.catalog, flip_grid(scene.semantic_probs, how), dets,
                     flip_grid(scene.features, how))


def flip_ground_truth(gt, how):
    h, w = gt.label_map.shape
    return GroundTruthPanoptic(flip_grid(gt.label_map, how),
                               [replace(s, box=flip_box(s.box, h, w, how)) for s in gt.segments])


def relabelled(labels, segments, order):
    """A label map and its segments with segment ``order[i]`` renumbered ``i``;
    VOID (or IGNORE) stays as it is. Each segment has an ``index`` field."""
    new = np.full(len(order) + 1, VOID, dtype=np.int32)  # new[0] is for VOID
    new[np.asarray(order, dtype=np.intp) + 1] = np.arange(len(order))
    return (new[labels + 1],
            [replace(segments[old], index=index) for index, old in enumerate(order)])


@st.composite
def predicted_scenes(draw):
    """A synthesized scene, its ground truth and a prediction of it, by the
    heuristic merger (with VOID) or the argmax: many segments and matches."""
    cfg = SynthConfig(height=24, width=20, n_instances=draw(st.integers(0, 6)),
                      instance_min=3, instance_max=8, with_masks=True, box_truncation=0.3,
                      confusion_rate=0.2)
    scene, gt = synth_scene(cfg, draw(st.integers(0, 10_000)))
    if draw(st.booleans()):
        pmap = heuristic_merge(scene.semantic_probs, scene.detections,
                               MergerParams(stuff_area_threshold=20), scene.catalog)
    else:
        pmap = predict_panoptic(scene, None)
    return scene, gt, pmap
