"""Spans around the program's public functions, recorded from outside it.

A layer is wrapped wherever the program looks it up: every ``panfuse``
module (and any holder object, such as a cache whose ``__wrapped__`` is
the function) that binds the function gets the wrapper in its place, so ``panfuse.train.backward_affinity`` and
``panfuse.cli.project_features`` are both traced. Methods are wrapped on
their class. Each span records its name, start, end, thread and parent
span, plus a few counts taken from the call's arguments or result after
the span has ended. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import statistics
import sys
import threading
import time
from pathlib import Path


def _tensor_bytes(arr) -> int:
    return 8 + 4 * arr.ndim + arr.nbytes  # PANC header plus payload


def _apply_flops(args, kwargs, result) -> dict:
    from panfuse.affinity import estimate_costs

    psi, q0 = args[0], args[1]
    h, w, k = psi.shape
    cost = estimate_costs(h, w, 1, q0.shape[2], max(k - 1, 1), 1, psi.itemsize)
    return {"flops": cost.factored_flops}


# (layer name, module, attribute path, counts taken from the call)
LAYERS = [
    ("train.train_toy", "panfuse.train", "train_toy", lambda a, k, r: {"steps": a[0].steps}),
    ("train.make_pool", "panfuse.train", "make_pool", None),
    ("train.make_eval_pool", "panfuse.train", "make_eval_pool", None),
    ("train.evaluate_pq", "panfuse.train", "evaluate_pq", None),
    ("scene.synth_scene", "panfuse.scene", "synth_scene", None),
    ("scene.load_scene", "panfuse.scene", "load_scene", None),
    ("matching.match_segments", "panfuse.matching", "match_segments", None),
    ("matching.panoptic_matching_loss", "panfuse.matching", "panoptic_matching_loss", None),
    ("affinity.project_features", "panfuse.affinity", "project_features", None),
    ("affinity.apply_affinity_factored", "panfuse.affinity", "apply_affinity_factored",
     _apply_flops),
    ("affinity.backward_affinity", "panfuse.affinity", "backward_affinity", None),
    ("affinity.AffinityParams.load", "panfuse.affinity", "AffinityParams.load", None),
    ("potential.build_potential", "panfuse.potential", "build_potential",
     lambda a, k, r: {"channels": r.n_channels}),
    ("inference.infer_panoptic", "panfuse.inference", "infer_panoptic",
     lambda a, k, r: {"segments": len(r.segments)}),
    ("inference.save_panoptic", "panfuse.inference", "save_panoptic", None),
    ("inference.load_panoptic", "panfuse.inference", "load_panoptic", None),
    ("container.read_tensor", "panfuse.container", "read_tensor",
     lambda a, k, r: {"bytes": _tensor_bytes(r)}),
    ("container.write_tensor", "panfuse.container", "write_tensor",
     lambda a, k, r: {"bytes": _tensor_bytes(a[1])}),
    ("metrics.PQStats.accumulate", "panfuse.metrics", "PQStats.accumulate", None),
    ("metrics.box_average_precision", "panfuse.metrics", "box_average_precision", None),
    ("metrics.thing_stuff_confusion", "panfuse.metrics", "thing_stuff_confusion", None),
    ("metrics.mean_iou", "panfuse.metrics", "mean_iou", None),
    ("cli.cmd_run", "panfuse.cli", "cmd_run", lambda a, k, r: {"scenes": len(a[0].scene)}),
    ("cli.cmd_eval", "panfuse.cli", "cmd_eval", lambda a, k, r: {"scenes": len(a[0].scene)}),
]

# Children of train_toy that are not part of a training step.
_NOT_STEP = {"train.make_pool", "train.make_eval_pool", "train.evaluate_pq"}


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self, holders: tuple = ()):
        self.spans: list[tuple] = []  # (id, parent, name, thread, start_ns, end_ns, phase, counts)
        self.phase = "setup"
        self._holders = holders
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, object]] = []
        self.missing: list[str] = []

    def _wrap(self, name, fn, counts):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            extra = counts(args, kwargs, result) if counts else None
            tracer.spans.append((span_id, parent, name, threading.get_ident(),
                                 start, end, tracer.phase, extra))
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer in LAYERS wherever it is bound.

        A layer the program no longer has is skipped and listed in
        ``self.missing``.
        """
        if not self._patches:
            for name, module, path, counts in LAYERS:
                *outer, attr = path.split(".")
                try:
                    owner = sys.modules[module]
                    for part in outer:
                        owner = getattr(owner, part)
                    raw = owner.__dict__[attr] if outer else getattr(owner, attr)
                except (KeyError, AttributeError):
                    self.missing.append(name)
                    continue
                if outer:  # a method: wrap it on its class
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, raw.__func__, counts))
                    else:
                        new = self._wrap(name, raw, counts)
                    self._patches.append((owner, attr, raw, new))
                    continue
                original = inspect.unwrap(raw)
                wrapped = self._wrap(name, original, counts)
                bound_in = [m for key, m in sys.modules.items()
                            if key.split(".")[0] == "panfuse"] + list(self._holders)
                for holder in bound_in:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._patches.append((holder, key, original, wrapped))
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old, _ in self._patches:
            setattr(owner, attr, old)

    def write(self, path: Path) -> None:
        keys = ("id", "parent", "name", "thread", "start_ns", "end_ns", "phase", "counts")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def layers(self) -> dict[str, dict]:
        """Per-layer medians, self times and counts.

        A layer is summarized from its spans in the traced timed phase when
        it has any there, and otherwise from all its other spans (set-up and
        verification). Self time is a span's duration minus the durations of
        its direct child spans.
        """
        child_ns: dict[int, int] = {}
        not_step_ns: dict[int, int] = {}
        for span_id, parent, name, _, start, end, _, _ in self.spans:
            if parent:
                child_ns[parent] = child_ns.get(parent, 0) + end - start
                if name in _NOT_STEP:
                    not_step_ns[parent] = not_step_ns.get(parent, 0) + end - start
        by_name: dict[str, list[tuple]] = {}
        for span in self.spans:
            by_name.setdefault(span[2], []).append(span)
        out = {}
        for name, spans in by_name.items():
            timed = [s for s in spans if s[6] == "timed"]
            chosen = timed or spans
            ms = [(s[5] - s[4]) / 1e6 for s in chosen]
            entry = {
                "phase": "timed" if timed else "setup+verify",
                "calls": len(chosen),
                "median_ms": statistics.median(ms),
                "self_median_ms": statistics.median(
                    (s[5] - s[4] - child_ns.get(s[0], 0)) / 1e6 for s in chosen),
                "total_ms": sum(ms),
            }
            counts = [s[7] for s in chosen if s[7]]
            for key in counts[0] if counts else ():
                entry[key] = statistics.median(c[key] for c in counts)
            if "flops" in entry:
                entry["gflop_per_s"] = statistics.median(
                    s[7]["flops"] / (s[5] - s[4]) for s in chosen)
            if "scenes" in entry:
                entry["ms_per_scene"] = statistics.median(
                    (s[5] - s[4]) / 1e6 / s[7]["scenes"] for s in chosen)
            if "steps" in entry:
                entry["step_ms"] = statistics.median(
                    (s[5] - s[4] - not_step_ns.get(s[0], 0)) / 1e6 / s[7]["steps"]
                    for s in chosen)
            out[name] = entry
        return out
