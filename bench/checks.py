"""Independent checks of the program's outputs.

Nothing here imports ``panfuse``. Containers are parsed from their
documented layout, and the fused logits, the PQ counters and the
training loss are recomputed in plain numpy, so a check compares the
program against a second implementation or against a property the
method must have, never against a stored copy of earlier output.

Every ``check_*`` function returns a list of problems; an empty list
means the output passed.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

VOID_U32 = 0xFFFFFFFF
ENCODING_BASE = 1000
SCORE_THRESHOLD = 0.5  # the default of `panfuse run --score-threshold`
TIE_RELATIVE = 1e-9
FLOAT_RTOL = 1e-12

_PANC_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8"), 2: np.dtype("<u4")}


# ---------------------------------------------------------------------------
# Readers and writers for the documented file formats
# ---------------------------------------------------------------------------

def read_panc(path: str | Path) -> np.ndarray:
    """Magic b"PANC", u16 version, u8 dtype code, u8 rank, u32 dims, payload."""
    data = Path(path).read_bytes()
    if data[:4] != b"PANC":
        raise ValueError(f"{path}: bad magic")
    _, code, rank = struct.unpack_from("<HBB", data, 4)
    dims = struct.unpack_from(f"<{rank}I", data, 8)
    dtype = _PANC_DTYPES[code]
    count = int(np.prod(dims, dtype=np.int64))
    if len(data) != 8 + 4 * rank + count * dtype.itemsize:
        raise ValueError(f"{path}: payload size does not match dims {dims}")
    return np.frombuffer(data, dtype=dtype, count=count, offset=8 + 4 * rank).reshape(dims)


def write_panc(path: str | Path, arr: np.ndarray) -> None:
    code = {np.dtype("<f4"): 0, np.dtype("<f8"): 1, np.dtype("<u4"): 2}[arr.dtype]
    header = b"PANC" + struct.pack(f"<HBB{arr.ndim}I", 1, code, arr.ndim, *arr.shape)
    Path(path).write_bytes(header + np.ascontiguousarray(arr).tobytes())


def read_scene(path: str | Path) -> dict:
    root = Path(path)
    m = json.loads((root / "manifest.json").read_text())
    dets = []
    for rec in m["detections"]:
        mask = read_panc(root / rec["mask"]) if rec.get("mask") else None
        dets.append({"box": tuple(rec["box"]), "score": float(rec["score"]),
                     "class_id": int(rec["class_id"]), "mask": mask})
    scene = {
        "n_stuff": int(m["catalog"]["n_stuff"]),
        "n_thing": int(m["catalog"]["n_thing"]),
        "probs": read_panc(root / m["tensors"]["semantic_probs"]),
        "features": read_panc(root / m["tensors"]["features"]),
        "detections": dets,
        "gt_label": None,
        "gt_classes": None,
    }
    g = m.get("ground_truth")
    if g:
        raw = read_panc(root / g["label_map"]).astype(np.int64)
        scene["gt_label"] = np.where(raw == VOID_U32, -1, raw)
        scene["gt_classes"] = {int(s["index"]): int(s["class_id"]) for s in g["segments"]}
    return scene


def read_params(path: str | Path) -> dict:
    root = Path(path)
    m = json.loads((root / "params.json").read_text())
    return {name: read_panc(root / m["tensors"][name]) for name in ("w0", "b0", "w1", "b1")}


def read_prediction(path: str | Path) -> tuple[np.ndarray, list[dict]]:
    root = Path(path)
    sidecar = json.loads((root / "segments.json").read_text())
    return read_panc(root / "panoptic.panc"), sidecar["segments"]


def write_gt_prediction(scene: dict, path: str | Path) -> None:
    """Write a scene's ground truth in the panoptic output format."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    encode = {}
    segments = []
    instance = 0
    for index, class_id in sorted(scene["gt_classes"].items()):
        kind = "stuff" if class_id < scene["n_stuff"] else "thing"
        if kind == "thing":
            instance += 1
        inst = instance if kind == "thing" else 0
        encode[index] = class_id * ENCODING_BASE + inst
        segments.append({"index": len(segments), "class_id": class_id, "kind": kind,
                         "instance_id": inst, "encoded_id": encode[index],
                         "area": int((scene["gt_label"] == index).sum())})
    grid = np.full(scene["gt_label"].shape, VOID_U32, dtype="<u4")
    for index, code in encode.items():
        grid[scene["gt_label"] == index] = code
    write_panc(root / "panoptic.panc", grid)
    (root / "segments.json").write_text(json.dumps(
        {"format": "panfuse-panoptic", "version": 1, "segments": segments}))


# ---------------------------------------------------------------------------
# Reference computations
# ---------------------------------------------------------------------------

def _project(features: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.maximum(features.reshape(-1, features.shape[-1]) @ w + b, 0.0)


def fused_logits(scene: dict, params: dict | None,
                 score_threshold: float = SCORE_THRESHOLD) -> tuple[np.ndarray, list[int]]:
    """psi + Q0 (Q1^T psi) with a variant-B potential, and each channel's class.

    Channels: one full-image stuff channel per stuff class, then every thing
    detection scoring at least the threshold, in detection order. A thing
    channel is score * probability (* mask when the scene has masks) inside
    the detection box and 0 outside.
    """
    probs = scene["probs"]
    h, w, _ = probs.shape
    planes = [probs[:, :, c] for c in range(scene["n_stuff"])]
    classes = list(range(scene["n_stuff"]))
    things = [d for d in scene["detections"] if d["score"] >= score_threshold]
    masked = any(d["mask"] is not None for d in things)
    for d in things:
        x0, y0, x1, y1 = d["box"]
        x0, y0, x1, y1 = max(x0, 0), max(y0, 0), min(x1, w), min(y1, h)
        if x0 >= x1 or y0 >= y1:
            continue
        plane = np.zeros((h, w))
        region = d["score"] * probs[y0:y1, x0:x1, d["class_id"]]
        if masked:
            region = region * d["mask"][y0:y1, x0:x1]
        plane[y0:y1, x0:x1] = region
        planes.append(plane)
        classes.append(d["class_id"])
    psi = np.stack(planes, axis=2).reshape(h * w, -1)
    p = psi
    if params is not None:
        q0 = _project(scene["features"], params["w0"], params["b0"])
        q1 = _project(scene["features"], params["w1"], params["b1"])
        p = psi + q0 @ (q1.T @ psi)
    return p.reshape(h, w, -1), classes


def matching_loss(psi: np.ndarray, features: np.ndarray, target: np.ndarray,
                  params: dict) -> float:
    """Mean softmax cross-entropy of the fused logits over targets >= 0."""
    k = psi.shape[-1]
    flat = psi.reshape(-1, k)
    q0 = _project(features, params["w0"], params["b0"])
    q1 = _project(features, params["w1"], params["b1"])
    z = flat + q0 @ (q1.T @ flat)
    t = target.ravel()
    valid = t >= 0
    z, t = z[valid], t[valid]
    top = z.max(axis=1)
    lse = top + np.log(np.exp(z - top[:, None]).sum(axis=1))
    return float(np.mean(lse - z[np.arange(len(t)), t]))


def pq_counts(gt_label: np.ndarray, gt_classes: dict[int, int],
              pred_grid: np.ndarray, pred_classes: dict[int, int]) -> dict[int, list]:
    """Per-class [tp, fp, fn, iou_sum] of one scene.

    Segments of one class match at IoU > 0.5; ground-truth VOID (-1) pixels
    are left out of the union; a predicted segment lying mostly on
    ground-truth VOID is not a false positive. ``pred_classes`` maps each
    encoded id of the sidecar to its class.
    """
    gt_ids = sorted(gt_classes)
    pred_ids = sorted(pred_classes)
    n_g, n_p = len(gt_ids), len(pred_ids)
    g_of = np.full(max(gt_ids, default=0) + 2, n_g, dtype=np.int64)
    g_of[gt_ids] = np.arange(n_g)
    gi = g_of[np.where(gt_label < 0, len(g_of) - 1, gt_label)]
    flat = pred_grid.astype(np.int64).ravel()
    pos = np.searchsorted(pred_ids, flat)
    known = (pos < n_p) & (np.asarray(pred_ids + [-1])[np.minimum(pos, n_p)] == flat)
    pi = np.where(known, pos, n_p).reshape(pred_grid.shape)
    table = np.bincount((gi * (n_p + 1) + pi).ravel(),
                        minlength=(n_g + 1) * (n_p + 1)).reshape(n_g + 1, n_p + 1)
    gt_area = table[:n_g].sum(axis=1)
    pred_area = table[:, :n_p].sum(axis=0)
    on_void = table[n_g, :n_p]

    stats: dict[int, list] = {}
    matched_g, matched_p = set(), set()
    for g in range(n_g):
        for p in range(n_p):
            inter = table[g, p]
            cls = gt_classes[gt_ids[g]]
            if inter == 0 or cls != pred_classes[pred_ids[p]]:
                continue
            iou = inter / (gt_area[g] + pred_area[p] - inter - on_void[p])
            if iou > 0.5:
                s = stats.setdefault(cls, [0, 0, 0, 0.0])
                s[0] += 1
                s[3] += float(iou)
                matched_g.add(g)
                matched_p.add(p)
    for g in range(n_g):
        if g not in matched_g:
            stats.setdefault(gt_classes[gt_ids[g]], [0, 0, 0, 0.0])[2] += 1
    for p in range(n_p):
        if p in matched_p:
            continue
        if pred_area[p] > 0 and on_void[p] / pred_area[p] > 0.5:
            continue
        stats.setdefault(pred_classes[pred_ids[p]], [0, 0, 0, 0.0])[1] += 1
    return stats


def merge_counts(total: dict[int, list], scene: dict[int, list]) -> dict[int, list]:
    for cls, s in scene.items():
        t = total.setdefault(cls, [0, 0, 0, 0.0])
        for i in range(4):
            t[i] += s[i]
    return total


def pq_from_counts(tp: int, fp: int, fn: int, iou_sum: float) -> tuple[float, float, float]:
    sq = iou_sum / tp if tp else 0.0
    denom = tp + 0.5 * fp + 0.5 * fn
    rq = tp / denom if denom else 0.0
    return sq * rq, sq, rq


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=FLOAT_RTOL, abs_tol=FLOAT_RTOL)


def check_prediction(scene: dict, grid: np.ndarray, segments: list[dict],
                     params: dict | None) -> list[str]:
    """Checks of one `panfuse run --mode argmax` output."""
    problems = []
    h, w = scene["probs"].shape[:2]
    if grid.shape != (h, w):
        return [f"grid shape {grid.shape} != scene grid {(h, w)}"]
    n_void = int((grid == VOID_U32).sum())
    if n_void:
        problems.append(f"{n_void} VOID pixels in an argmax output")

    ids, counts = np.unique(grid, return_counts=True)
    pixel_count = dict(zip(ids.tolist(), counts.tolist()))
    side_ids = [int(s["encoded_id"]) for s in segments]
    if len(set(side_ids)) != len(side_ids):
        problems.append("sidecar repeats an encoded id")
    for s in segments:
        code = int(s["encoded_id"])
        if code != s["class_id"] * ENCODING_BASE + s["instance_id"]:
            problems.append(f"segment {s['index']}: encoded id {code} != class/instance")
        if s["area"] != pixel_count.get(code, 0):
            problems.append(f"segment {s['index']}: sidecar area {s['area']} != "
                            f"{pixel_count.get(code, 0)} pixels")
    if sum(s["area"] for s in segments) != h * w:
        problems.append(f"sidecar areas sum to {sum(s['area'] for s in segments)}, not {h * w}")
    stray = set(pixel_count) - set(side_ids) - {VOID_U32}
    if stray:
        problems.append(f"grid holds ids missing from the sidecar: {sorted(stray)[:5]}")

    p, classes = fused_logits(scene, params)
    top2 = np.partition(p, -2, axis=2)[:, :, -2:]
    tie = (top2[:, :, 1] - top2[:, :, 0]) <= TIE_RELATIVE * np.abs(top2).max(axis=2)
    channel = p.argmax(axis=2)
    decided = ~tie
    pairs = np.unique(np.stack([grid[decided].astype(np.int64), channel[decided]]), axis=1)
    code_of, channel_of = {}, {}
    for code, ch in pairs.T.tolist():
        if code_of.setdefault(ch, code) != code or channel_of.setdefault(code, ch) != ch:
            problems.append(f"label {code} and channel {ch} do not correspond one to one")
            continue
        kind_ok = (code % ENCODING_BASE == 0) == (classes[ch] < scene["n_stuff"])
        if code // ENCODING_BASE != classes[ch] or not kind_ok:
            problems.append(f"label {code} at pixels where channel {ch} "
                            f"(class {classes[ch]}) is the argmax")
    return problems[:20]


def eval_reference(scenes: list[dict], preds: list[tuple[np.ndarray, list[dict]]]) -> dict:
    """Per-class counts over a batch, merged in scene order."""
    total: dict[int, list] = {}
    for scene, (grid, segments) in zip(scenes, preds):
        pred_classes = {int(s["encoded_id"]): int(s["class_id"]) for s in segments}
        merge_counts(total, pq_counts(scene["gt_label"], scene["gt_classes"],
                                      grid, pred_classes))
    return total


def check_eval(report: dict, counts: dict[int, list], n_stuff: int) -> list[str]:
    """Checks of the "pq" part of a `panfuse eval --json` payload."""
    problems = []
    per_class = report["per_class"]
    if set(per_class) != {str(c) for c in counts}:
        problems.append(f"classes {sorted(per_class)} != reference "
                        f"{sorted(str(c) for c in counts)}")
    for cls, (tp, fp, fn, iou_sum) in counts.items():
        got = per_class.get(str(cls))
        if got is None:
            continue
        if (got["tp"], got["fp"], got["fn"]) != (tp, fp, fn):
            problems.append(f"class {cls}: tp/fp/fn {got['tp']}/{got['fp']}/{got['fn']} "
                            f"!= reference {tp}/{fp}/{fn}")
        ref = dict(zip(("pq", "sq", "rq"), pq_from_counts(tp, fp, fn, iou_sum)))
        ref["iou_sum"] = iou_sum
        for key, value in ref.items():
            if not close(got[key], value):
                problems.append(f"class {cls}: {key} {got[key]!r} != reference {value!r}")
        if not close(got["pq"], got["sq"] * got["rq"]):
            problems.append(f"class {cls}: pq {got['pq']!r} != sq*rq")
    groups = {
        "all": [c for c, s in counts.items() if s[0] + s[2] > 0],
        "things": [c for c, s in counts.items() if s[0] + s[2] > 0 and c >= n_stuff],
        "stuff": [c for c, s in counts.items() if s[0] + s[2] > 0 and c < n_stuff],
    }
    for group, classes in groups.items():
        ref = (float(np.mean([pq_from_counts(*counts[c])[0] for c in classes]))
               if classes else 0.0)
        if not close(report["aggregates"][group]["pq"], ref):
            problems.append(f"{group} pq {report['aggregates'][group]['pq']!r} "
                            f"!= reference {ref!r}")
    return problems


def check_loss_curve(curve: list[float], steps: int) -> list[str]:
    problems = []
    if len(curve) != steps:
        problems.append(f"loss curve has {len(curve)} entries for {steps} steps")
    if not all(math.isfinite(x) for x in curve):
        problems.append("loss curve holds a non-finite value")
    n = max(1, len(curve) // 10)
    if curve and not (sum(curve[-n:]) / n < sum(curve[:n]) / n):
        problems.append(f"mean loss of the last tenth {sum(curve[-n:]) / n:.6g} is not "
                        f"below the first tenth {sum(curve[:n]) / n:.6g}")
    return problems


def directional_gradient_problem(analytic: float, psi: np.ndarray, features: np.ndarray,
                                 target: np.ndarray, params: dict, direction: dict,
                                 rtol: float = 1e-5) -> list[str]:
    """Central finite difference of the loss along ``direction`` vs ``analytic``.

    The step stays below half the distance of every rectifier input from
    its kink, so both evaluations see the same linear piece.
    """
    flat = features.reshape(-1, features.shape[-1])
    margin = np.inf
    for head in ("0", "1"):
        pre = flat @ params["w" + head] + params["b" + head]
        rate = np.abs(flat @ direction["w" + head] + direction["b" + head]) + 1e-300
        margin = min(margin, float((np.abs(pre) / rate).min()))
    eps = min(1e-6, 0.5 * margin)
    plus = {k: params[k] + eps * direction[k] for k in params}
    minus = {k: params[k] - eps * direction[k] for k in params}
    numeric = (matching_loss(psi, features, target, plus)
               - matching_loss(psi, features, target, minus)) / (2 * eps)
    if abs(numeric - analytic) > rtol * max(abs(numeric), abs(analytic), 1e-12):
        return [f"directional derivative {analytic:.10g} != finite difference "
                f"{numeric:.10g} (step {eps:.3g})"]
    return []
