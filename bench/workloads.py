"""The benchmark's workloads, driven through ``panfuse.cli.main`` in-process.

Each workload has a set-up (inputs made with the program's own commands,
then warm-up rounds), a round (the timed unit: ``ops`` operations), a
record taken after each round outside the timing, and a verification of
the outputs by the independent checks in ``checks.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

import checks

# The affinity-ablation pool: 32x32 scenes, truncated boxes, confused
# semantics and masks.
POOL_FLAGS = ["--truncation", "0.3", "--confusion", "0.1", "--with-masks"]
TRAIN_FLAGS = POOL_FLAGS + ["--match-threshold", "0.4", "--scenes", "64", "--eval-scenes", "6"]
LARGE_FLAGS = POOL_FLAGS + ["--height", "128", "--width", "128",
                            "--n-thing", "8", "--instances", "24"]
CHECKPOINT_STEPS = 1000


def cli(argv: list[str]) -> int:
    """One `panfuse` command in this process; its standard output is dropped."""
    from panfuse import cli as panfuse_cli

    with contextlib.redirect_stdout(io.StringIO()):
        return panfuse_cli.main([str(a) for a in argv])


def _digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


class Memo:
    """Builds a pool once per training config and hands it out again.

    Installed as ``panfuse.train.make_pool`` and ``make_eval_pool`` so that
    scene synthesis and matching stay in set-up and the timed rounds are
    training steps. The wrapped function is ``self.__wrapped__``.
    """

    def __init__(self, inner):
        self.__wrapped__ = inner
        self.cache: dict = {}

    def __call__(self, cfg):
        if cfg not in self.cache:
            self.cache[cfg] = self.__wrapped__(cfg)
        return self.cache[cfg]


def _verify_run_eval(scene_dirs: list[Path], pred_dirs: list[Path], eval_json: Path,
                     params: dict | None) -> tuple[list[list[str]], list[str], dict]:
    """Check each prediction and the batch's eval payload.

    Returns the problems per scene, the problems of the eval payload, and
    the eval payload's "pq" report.
    """
    scenes = [checks.read_scene(d) for d in scene_dirs]
    preds = [checks.read_prediction(d) for d in pred_dirs]
    per_scene = [checks.check_prediction(s, grid, segs, params)
                 for s, (grid, segs) in zip(scenes, preds)]
    report = json.loads(eval_json.read_text())["pq"]
    counts = checks.eval_reference(scenes, preds)
    return per_scene, checks.check_eval(report, counts, scenes[0]["n_stuff"]), report


class Train:
    """`panfuse train` on the affinity-ablation pool; one operation is one step."""

    ops = 400  # training steps per round

    def __init__(self, work: Path, seed: int):
        from panfuse import train

        self.work, self.seed = work, seed
        self.out = work / "train"
        self.argv = ["train", "--out", self.out, "--steps", self.ops,
                     "--seed", seed, *TRAIN_FLAGS]
        self.pool = Memo(train.make_pool)
        self.eval_pool = Memo(train.make_eval_pool)
        train.make_pool, train.make_eval_pool = self.pool, self.eval_pool
        self.holders = (self.pool, self.eval_pool)
        self.setup_records: list = []

    def setup(self) -> list[str]:
        # The first command builds and caches the pools; it is not timed.
        if not self.run_round(0):
            return ["set-up `panfuse train` failed"]
        self.setup_records.append(self.record(0))
        return []

    def run_round(self, r: int) -> bool:
        return cli(self.argv) == 0

    def record(self, r: int):
        report = json.loads((self.out / "report.json").read_text())
        ckpt = sorted((self.out / "checkpoint").iterdir())
        return tuple(report["loss_curve"]), _digest(ckpt)

    def setup_commands(self) -> list[list[str]]:
        return [["train", "--out", self.work / "setup_train", "--steps", 1,
                 "--seed", self.seed, *TRAIN_FLAGS]]

    def verify(self, rounds: list) -> tuple[list[str], int]:
        """Checks of the last round's outputs; returns problems and failed steps."""
        from panfuse import affinity, matching, train

        reference = self.record(None)
        problems = []
        for i, rec in enumerate(self.setup_records + [r.record for r in rounds]):
            if rec[0] != reference[0]:
                problems.append(f"round {i}: loss curve differs from the last round's")
            elif rec[1] != reference[1]:
                problems.append(f"round {i}: checkpoint differs from the last round's")
        report = json.loads((self.out / "report.json").read_text())
        problems += checks.check_loss_curve(report["loss_curve"], self.ops)

        # Analytic gradient vs central finite differences on pool scene 0.
        params = checks.read_params(self.out / "checkpoint")
        bundle = next(iter(self.pool.cache.values()))[0]
        psi, feats = bundle.potential.psi, bundle.scene.features
        prm = affinity.AffinityParams(**{k: v.copy() for k, v in params.items()})
        q0, q1 = affinity.project_features(feats, prm)
        _, grad_p = matching.panoptic_matching_loss(
            affinity.apply_affinity_factored(psi, q0, q1), bundle.target)
        grads = affinity.backward_affinity(psi, feats, prm, grad_p)
        rng = np.random.default_rng(self.seed)
        direction = {k: rng.normal(size=v.shape) for k, v in params.items()}
        analytic = sum(float(np.vdot(getattr(grads, "d_" + k), u))
                       for k, u in direction.items())
        problems += checks.directional_gradient_problem(
            analytic, psi, feats, bundle.target.label_map, params, direction)

        # Held-out pool through `panfuse run` and `panfuse eval`, with the
        # trained head and without affinity.
        held = [self.work / "held" / f"s{i}" for i in range(6)]
        for i, d in enumerate(held):
            if cli(["synth", "--out", d, "--seed",
                    self.seed + train.EVAL_SEED_OFFSET + i, *POOL_FLAGS]) != 0:
                problems.append("`panfuse synth` of the held-out pool failed")
                return problems, self.ops * len(rounds)
        pq = {}
        for tag, ckpt_args, prm_np in [("trained", ["--checkpoint", self.out / "checkpoint"],
                                        params),
                                       ("no_affinity", [], None)]:
            preds = [self.work / "held" / f"{tag}{i}" for i in range(6)]
            eval_json = self.work / "held" / f"{tag}.json"
            run = ["run", "--mode", "argmax", *ckpt_args]
            evl = ["eval", "--json", eval_json]
            for s, p in zip(held, preds):
                run += ["--scene", s, "--out", p]
                evl += ["--scene", s, "--pred", p]
            if cli(run) != 0 or cli(evl) != 0:
                problems.append(f"held-out `panfuse run`/`eval` ({tag}) failed")
                continue
            per_scene, eval_problems, pq_report = _verify_run_eval(held, preds, eval_json,
                                                                   prm_np)
            problems += [f"held-out {tag} scene {i}: {p}"
                         for i, ps in enumerate(per_scene) for p in ps]
            problems += [f"held-out {tag} eval: {p}" for p in eval_problems]
            pq[tag] = pq_report["aggregates"]["all"]["pq"]
        if len(pq) == 2:
            if not pq["trained"] > pq["no_affinity"]:
                problems.append(f"held-out PQ with the trained head {pq['trained']:.4f} "
                                f"does not exceed {pq['no_affinity']:.4f} without affinity")
            reported = report["final_pq"]["aggregates"]["all"]["pq"]
            if not checks.close(reported, pq["trained"]):
                problems.append(f"train reports held-out PQ {reported!r}, "
                                f"eval scores {pq['trained']!r}")
        self.quality = {"final_loss": report["loss_curve"][-1], "held_out_pq": pq}
        failed = sum(self.ops for r in rounds if problems or not r.ok)
        return problems, failed


class Infer:
    """`panfuse run --mode argmax --checkpoint` then `panfuse eval` over a batch.

    One operation is one scene taken through both commands. Rounds cycle
    over ``batches`` distinct batches of ``ops`` scenes.
    """

    def __init__(self, work: Path, seed: int, flags: list[str], ops: int, batches: int,
                 warmup: int):
        self.work, self.seed = work, seed
        self.flags, self.ops, self.batches, self.warmup = flags, ops, batches, warmup
        self.holders = ()
        self.ckpt = work / "ckpt" / "checkpoint"
        self.scenes = [[work / "scenes" / f"b{j}s{i}" for i in range(ops)]
                       for j in range(batches)]
        self.preds = [[work / "preds" / f"b{j}s{i}" for i in range(ops)]
                      for j in range(batches)]
        self.evals = [work / "preds" / f"b{j}.json" for j in range(batches)]

    def setup(self) -> list[str]:
        if cli(["train", "--out", self.work / "ckpt", "--steps", CHECKPOINT_STEPS,
                "--seed", self.seed, *TRAIN_FLAGS]) != 0:
            return ["checkpoint `panfuse train` failed"]
        for j, batch in enumerate(self.scenes):
            for i, d in enumerate(batch):
                scene_seed = 1000 * self.seed + 500 + j * self.ops + i
                if cli(["synth", "--out", d, "--seed", scene_seed, *self.flags]) != 0:
                    return ["`panfuse synth` failed"]
        for r in range(self.warmup):
            if not self.run_round(r):
                return ["warm-up round failed"]
        return []

    def run_round(self, r: int) -> bool:
        j = r % self.batches
        run = ["run", "--mode", "argmax", "--checkpoint", self.ckpt]
        evl = ["eval", "--porcelain", "--json", self.evals[j]]
        for s, p in zip(self.scenes[j], self.preds[j]):
            run += ["--scene", s, "--out", p]
            evl += ["--scene", s, "--pred", p]
        return cli(run) == 0 and cli(evl) == 0

    def _digest(self, j: int) -> str:
        return _digest([f for p in self.preds[j]
                        for f in (p / "panoptic.panc", p / "segments.json")] + [self.evals[j]])

    def record(self, r: int):
        j = r % self.batches
        return j, self._digest(j)

    def setup_commands(self) -> list[list[str]]:
        scene, pred = self.scenes[0][0], self.work / "setup_pred"
        return [["run", "--mode", "argmax", "--checkpoint", self.ckpt,
                 "--scene", scene, "--out", pred],
                ["eval", "--scene", scene, "--pred", pred]]

    def verify(self, rounds: list) -> tuple[list[str], int]:
        """Checks of every batch's last outputs; returns problems and failed scenes."""
        params = checks.read_params(self.ckpt)
        problems, bad_scenes, final = [], {}, {}
        pq, segments = [], []
        for j in range(self.batches):
            final[j] = self._digest(j)
            per_scene, eval_problems, report = _verify_run_eval(
                self.scenes[j], self.preds[j], self.evals[j], params)
            problems += [f"batch {j} scene {i}: {p}"
                         for i, ps in enumerate(per_scene) for p in ps]
            problems += [f"batch {j} eval: {p}" for p in eval_problems]
            bad_scenes[j] = self.ops if eval_problems else sum(1 for ps in per_scene if ps)
            pq.append(report["aggregates"]["all"]["pq"])
            segments += [len(checks.read_prediction(p)[1]) for p in self.preds[j]]

        # Ground truth scored against itself.
        gt_preds = [self.work / "gt_pred" / f"s{i}" for i in range(self.ops)]
        for s, p in zip(self.scenes[0], gt_preds):
            checks.write_gt_prediction(checks.read_scene(s), p)
        gt_json = self.work / "gt_pred" / "eval.json"
        evl = ["eval", "--json", gt_json]
        for s, p in zip(self.scenes[0], gt_preds):
            evl += ["--scene", s, "--pred", p]
        if cli(evl) != 0:
            problems.append("`panfuse eval` of the ground truth against itself failed")
        else:
            self_pq = json.loads(gt_json.read_text())["pq"]["aggregates"]["all"]["pq"]
            if self_pq != 1.0:
                problems.append(f"ground truth scored against itself gives PQ {self_pq!r}")

        gt_segments = [len(checks.read_scene(s)["gt_classes"]) for s in self.scenes[0]]
        self.quality = {"pq_per_batch": pq,
                        "segments_per_scene": float(np.mean(segments)),
                        "gt_segments_per_scene": float(np.mean(gt_segments))}
        failed = 0
        for r in rounds:
            j, digest = r.record
            failed += self.ops if not r.ok or digest != final[j] else bad_scenes[j]
        return problems, failed


def make(name: str, work: Path, seed: int):
    if name == "train":
        return Train(work, seed)
    if name == "infer-small":
        return Infer(work, seed, POOL_FLAGS, ops=16, batches=4, warmup=10)
    if name == "infer-large":
        return Infer(work, seed, LARGE_FLAGS, ops=8, batches=2, warmup=8)
    raise KeyError(name)
