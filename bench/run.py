"""Benchmark of panfuse training and inference.

    python3 bench/run.py --workload train|infer-small|infer-large \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The program is imported from ``src/``
and driven through ``panfuse.cli.main`` in this process; set-up time is
taken from fresh ``python -m panfuse.cli`` processes. All inputs derive
from ``--seed``. Every output is checked by ``checks.py``.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics. With ``--trace 1`` it holds the per-layer
metrics instead: the timed phase runs twice as long, and its rounds
alternate between untraced and traced, which gives the tracing overhead.
A results file (and, when traced, the spans) is written under
``bench/_results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_LAUNCHES = {"train": 9, "infer-small": 7, "infer-large": 7}
IMPORT_LAUNCHES = 7
LAUNCH_TIMEOUT_S = 60

END_TO_END = {"throughput_per_s": "1/s", "cpu_ms_per_op": "ms", "setup_s": "s",
              "peak_rss_mb": "MB"}

# per-layer metric -> (traced layer, summary key, unit)
PER_LAYER = {
    "train.make_pool.ms": ("train.make_pool", "median_ms", "ms"),
    "scene.synth_scene.ms": ("scene.synth_scene", "median_ms", "ms"),
    "matching.match_segments.ms": ("matching.match_segments", "median_ms", "ms"),
    "affinity.project_features.ms": ("affinity.project_features", "median_ms", "ms"),
    "affinity.apply_affinity_factored.ms": ("affinity.apply_affinity_factored", "median_ms", "ms"),
    "matching.panoptic_matching_loss.ms": ("matching.panoptic_matching_loss", "median_ms", "ms"),
    "affinity.backward_affinity.ms": ("affinity.backward_affinity", "median_ms", "ms"),
    "train.step.ms": ("train.train_toy", "step_ms", "ms"),
    "affinity.apply_affinity_factored.flops": ("affinity.apply_affinity_factored", "flops",
                                               "count"),
    "affinity.apply_affinity_factored.gflop_per_s": ("affinity.apply_affinity_factored",
                                                     "gflop_per_s", "GFLOP/s"),
    "potential.build_potential.ms": ("potential.build_potential", "median_ms", "ms"),
    "potential.channels": ("potential.build_potential", "channels", "count"),
    "inference.infer_panoptic.ms": ("inference.infer_panoptic", "median_ms", "ms"),
    "inference.segments": ("inference.infer_panoptic", "segments", "count"),
    "scene.load_scene.ms": ("scene.load_scene", "median_ms", "ms"),
    "affinity.AffinityParams.load.ms": ("affinity.AffinityParams.load", "median_ms", "ms"),
    "inference.save_panoptic.ms": ("inference.save_panoptic", "median_ms", "ms"),
    "inference.load_panoptic.ms": ("inference.load_panoptic", "median_ms", "ms"),
    "container.read_tensor.ms": ("container.read_tensor", "median_ms", "ms"),
    "container.write_tensor.ms": ("container.write_tensor", "median_ms", "ms"),
    "container.bytes_read": ("container.read_tensor", "bytes", "B"),
    "container.bytes_written": ("container.write_tensor", "bytes", "B"),
    "metrics.PQStats.accumulate.ms": ("metrics.PQStats.accumulate", "median_ms", "ms"),
    "metrics.box_average_precision.ms": ("metrics.box_average_precision", "median_ms", "ms"),
    "metrics.thing_stuff_confusion.ms": ("metrics.thing_stuff_confusion", "median_ms", "ms"),
    "metrics.mean_iou.ms": ("metrics.mean_iou", "median_ms", "ms"),
    "cli.cmd_run.ms_per_scene": ("cli.cmd_run", "ms_per_scene", "ms"),
    "cli.cmd_eval.ms_per_scene": ("cli.cmd_eval", "ms_per_scene", "ms"),
}


@dataclass
class Round:
    index: int
    traced: bool
    ok: bool
    wall_s: float
    cpu_s: float
    record: object


def timed_phase(workload, seconds: float, first: int, tracer=None) -> list[Round]:
    """Whole rounds until ``seconds`` have passed; each round timed alone.

    With a tracer, untraced and traced rounds alternate, so that both see
    the same state of the machine; the wrappers go in and out between
    rounds, outside the timing.
    """
    rounds: list[Round] = []
    start = time.perf_counter()
    least = 2 if tracer else 1
    while len(rounds) < least or time.perf_counter() - start < seconds:
        r = first + len(rounds)
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        t0, c0 = time.perf_counter(), time.process_time()
        ok = workload.run_round(r)
        t1, c1 = time.perf_counter(), time.process_time()
        if traced:
            tracer.uninstall()
        rounds.append(Round(r, traced, ok, t1 - t0, c1 - c0, workload.record(r)))
    return rounds


def seconds_per_op(rounds: list[Round], ops: int) -> float:
    return statistics.median(r.wall_s / ops for r in rounds)


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) clock ticks of all CPUs so far, from /proc/stat.

    Steal is time the host ran something else while this machine's
    CPUs had work; it slows the rounds without showing in their CPU time.
    """
    try:
        fields = [int(x) for x in Path("/proc/stat").read_text().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return fields[7], sum(fields)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def launch_median(argvs: list[list[str]], count: int) -> tuple[float, list[float], list[str]]:
    """Median wall time of ``count`` fresh launches of the argv sequence.

    One launch goes first and is not counted, so that byte-code caches
    exist. Returns the median, all samples and any failures.
    """
    samples, problems = [], []
    for i in range(count + 1):
        t0 = time.perf_counter()
        for argv in argvs:
            proc = subprocess.run([sys.executable, *argv], env=_env(), cwd=ROOT,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  timeout=LAUNCH_TIMEOUT_S)
            if proc.returncode != 0:
                problems.append(f"fresh `{' '.join(argv[:3])}` exited {proc.returncode}: "
                                f"{proc.stderr.decode(errors='replace')[-300:]}")
        if i:
            samples.append(time.perf_counter() - t0)
    return statistics.median(samples), samples, problems


def import_seconds(count: int) -> tuple[float, list[float], list[str]]:
    """Median time of `import panfuse.cli` measured inside fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import panfuse.cli; "
            "print(time.perf_counter() - t)")
    samples, problems = [], []
    for i in range(count + 1):
        proc = subprocess.run([sys.executable, "-c", code], env=_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=LAUNCH_TIMEOUT_S)
        if proc.returncode != 0:
            problems.append(f"fresh `import panfuse.cli` failed: {proc.stderr[-300:]}")
        elif i:
            samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return (statistics.median(samples) if samples else 0.0), samples, problems


def machine_settings() -> dict:
    import numpy

    from panfuse import cli as panfuse_cli

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} "
                f"[{blas.get('openblas configuration', '')}]",
        "thread_env": {k: os.environ.get(k) for k in
                       ("PANOPTIC_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS")},
        "panfuse_pool_workers": panfuse_cli._worker_count(),
        "load_generator": "one thread, closed loop",
    }


def run(args: argparse.Namespace, work: Path, results: Path) -> dict:
    import panfuse.cli  # noqa: F401  (loads every module the tracer wraps)
    import workloads
    from spans import Tracer

    workload = workloads.make(args.workload, work, args.seed)
    tracer = Tracer(workload.holders) if args.trace else None
    if tracer:
        tracer.install()
    t_setup = time.perf_counter()
    problems = workload.setup()
    if problems:
        raise SystemExit("error: set-up failed: " + "; ".join(problems))
    setup_wall = time.perf_counter() - t_setup
    if tracer:
        tracer.uninstall()

    first = getattr(workload, "warmup", 0)  # batches keep cycling after warm-up
    steal0, total0 = cpu_ticks()
    if tracer:
        tracer.phase = "timed"
        rounds = timed_phase(workload, 2 * args.seconds, first, tracer)
        tracer.phase = "verify"
        tracer.install()
    else:
        rounds = timed_phase(workload, args.seconds, first)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    steal1, total1 = cpu_ticks()
    untraced = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    problems, failed = workload.verify(rounds)
    if tracer:
        tracer.uninstall()

    out = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "settings": machine_settings(),
        "ops_per_round": workload.ops, "in_process_setup_s": setup_wall,
        "rounds": len(rounds),
        "steal_share": (steal1 - steal0) / (total1 - total0) if total1 > total0 else None,
        "round_wall_s": [r.wall_s for r in rounds], "round_cpu_s": [r.cpu_s for r in rounds],
        "quality": getattr(workload, "quality", None),
        "attempted": workload.ops * len(rounds), "failed": failed,
    }
    metrics: dict[str, dict] = {}
    if not tracer:
        setup_s, samples, launch_problems = launch_median(
            [["-m", "panfuse.cli", *map(str, a)] for a in workload.setup_commands()],
            SETUP_LAUNCHES[args.workload])
        problems += launch_problems
        out["setup_samples_s"] = samples
        values = {
            "throughput_per_s": statistics.median(workload.ops / r.wall_s for r in untraced),
            "cpu_ms_per_op": statistics.median(1e3 * r.cpu_s / workload.ops for r in untraced),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    else:
        layers = tracer.layers()
        out["layers"] = layers
        out["layers_without_spans"] = sorted(set(tracer.missing)
                                             | {layer for layer, _, _ in PER_LAYER.values()
                                                if layer not in layers})
        for name, (layer, key, unit) in PER_LAYER.items():
            # 0 marks a layer that recorded no span; the results file lists them.
            value = layers.get(layer, {}).get(key, 0.0)
            metrics[name] = {"value": float(value), "unit": unit}
        import_s, samples, launch_problems = import_seconds(IMPORT_LAUNCHES)
        problems += launch_problems
        out["import_samples_s"] = samples
        metrics["cli.import_s"] = {"value": import_s, "unit": "s"}
        overhead = (seconds_per_op(traced, workload.ops)
                    / seconds_per_op(untraced, workload.ops) - 1.0)
        metrics["trace.overhead_pct"] = {"value": 100.0 * overhead, "unit": "%"}
        spans = results / f"{args.workload}-seed{args.seed}.spans.jsonl"
        tracer.write(spans)
        out["spans_file"] = str(spans.relative_to(ROOT))
    out["problems"] = problems
    out["correct"] = not problems
    out["metrics"] = metrics
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["train", "infer-small",
                                                              "infer-large"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "panfuse" / "cli.py").is_file():
        print(f"error: the program's source {SRC / 'panfuse'} is missing; "
              "run from the root of a panfuse checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    results = BENCH / "_results"
    results.mkdir(exist_ok=True)
    work = BENCH / "_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        out = run(args, work, results)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(out, indent=2, sort_keys=True, default=str))
    for problem in out["problems"][:50]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for layer in out.get("layers_without_spans", []):
        print(f"warning: no spans recorded for {layer}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  rounds {out['rounds']}  "
          f"ops/round {out['ops_per_round']}  CPU steal {out['steal_share']}  "
          f"settings {json.dumps(out['settings'])}")
    for key, m in out["metrics"].items():
        print(f"  {key:46s} {m['value']:14.6g} {m['unit']}")
    print(f"  attempted {out['attempted']}  failed {out['failed']}  correct {out['correct']}")
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": out["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
