"""Benchmark of the normalgraph library: training and inference on the deep graph.

Usage, from the repository root:

    python3 bench/run.py --workload deep-n100k --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --seed 2          # every workload, each in its own process

With ``--trace 0`` one closed-loop client (the next call starts when the
previous one has returned and been checked) runs rounds of operations for
``--seconds`` seconds and reports the end-to-end metrics of
``BENCHMARK.json``.  With ``--trace 1`` it runs the set-up and the first
round again and again, alternately plain and with the layer wrappers of
``tracing.py`` installed, and reports the per-layer metrics; the spans of
the last traced pass go to ``bench/out/``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``bench/NOTES.md`` for why the workloads are what they are.
"""

from __future__ import annotations

import os

# Fixed before numpy loads: one BLAS/OpenMP thread, at or below nproc, so
# runs on a shared two-core machine do not fight over cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import itertools
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# A traced pass is repeated at least this often, so that the counts can be
# compared between passes on one seed.
MIN_TRACE_PASSES = 2
# Self times must cover the traced wall time up to this share.
MAX_UNATTRIBUTED_PCT = 5.0


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def provenance(args) -> dict:
    import numpy as np

    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        sha = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "normalgraph").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": sha, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
    }


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, op, result, error: Exception | None) -> None:
        self.attempted += 1
        if error is None:
            try:
                reason = op.check(result)
            except Exception as check_error:  # output the check cannot read
                error = check_error
        if error is not None:
            reason = f"{type(error).__name__}: {error}"
        if reason is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(reason)


def _call(op):
    try:
        return op.call(), None
    except Exception as error:  # a failed operation is counted, not fatal
        return None, error


class ReferenceKernel:
    """Fixed computations, timed between rounds, that the costs are divided by.

    The shared host runs the same code at speeds up to 2x apart, drifting
    over seconds to minutes, and a run's own times follow.  How far a time
    moves depends on the kind of work: file and JSON work moves more than
    array arithmetic.  So each workload names the parts of the kernel that
    do its kind of work (``Workload.reference``):

    - ``arrays``: an interpreted loop and numpy arithmetic on a 20 000 x 6
      array, like the training and inference arithmetic;
    - ``files``: a graph-sized JSON document written to a file and read
      back, like the load and save of every ``normalgraph`` command.

    The kernel is part of the benchmark, not of the program: dividing a
    cost by its median time cancels most of the drift, and a change to the
    program moves the numerator alone.
    """

    # Share of each round's wall time spent timing the kernel after it.
    DUTY = 0.05
    MIN_REPEATS = 3
    # Each part's median time on the reference machine (ms) when the
    # benchmark was written; ``setup_s`` is scaled to this speed.
    NOMINAL_MS = {"arrays": 1.6, "files": 1.5}

    def __init__(self, parts, workdir: Path):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.a, self.c = rng.random((20_000, 6)), rng.random((20_000, 6))
        self.b = rng.random((6, 6))
        self.document = {"blocks": [{"name": f"block{i}", "theta": rng.random((6, 6)).tolist()}
                                    for i in range(6)]}
        self.path = workdir / "reference.json"
        self.parts = [getattr(self, f"_{part}") for part in parts]
        self.nominal_ms = sum(self.NOMINAL_MS[part] for part in parts)
        self.times: list[float] = []

    def _arrays(self) -> float:
        acc = 0
        for i in range(2000):
            acc += i * i % 7
        x = self.a @ self.b
        x *= self.c
        x /= x.sum(axis=1, keepdims=True)
        return float(self.np.log(x).sum()) + acc

    def _files(self) -> float:
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(self.document, fh)
        with open(self.path, encoding="utf-8") as fh:
            return float(len(json.load(fh)["blocks"]))

    def time_after(self, round_s: float) -> None:
        until = time.perf_counter() + self.DUTY * round_s
        for k in itertools.count():
            if k >= self.MIN_REPEATS and time.perf_counter() >= until:
                break
            t0 = time.perf_counter()
            for part in self.parts:
                part()
            self.times.append(time.perf_counter() - t0)


def run_plain(cls, args, workdir: Path, tally: Tally) -> dict:
    """End-to-end metrics, with the program untouched.

    Every round starts with a fresh set-up, so the set-ups spread over the
    whole run like the operations do, and ends with the reference kernel.
    """
    setup_s = []
    repeats = {}  # slot key -> elapsed seconds of each repeat
    work = {}  # slot key -> (rows, units) of one repeat
    reference = ReferenceKernel(cls.reference, workdir)
    started = time.perf_counter()
    round_index = 0
    while True:
        round_started = time.perf_counter()
        workload = cls(args.seed, workdir)
        workload.setup()
        setup_s.append(time.perf_counter() - round_started)
        for op in workload.ops(round_index):
            t0 = time.perf_counter()
            result, error = _call(op)
            elapsed = time.perf_counter() - t0
            tally.record(op, result, error)
            repeats.setdefault(op.key, []).append(elapsed)
            work[op.key] = (op.rows, op.units)
        round_index += 1
        reference.time_after(time.perf_counter() - round_started)
        now = time.perf_counter()
        # Stop before a round that would overrun the measuring time.
        if now - started + (now - round_started) > args.seconds:
            break

    # Medians throughout: of each slot's repeats, of the set-ups and of the
    # reference kernel's repeats.
    slot_s = {key: statistics.median(times) for key, times in repeats.items()}
    costs_ms = {key: elapsed * 1e3 / work[key][1] for key, elapsed in slot_s.items()}
    ref_ms = statistics.median(reference.times) * 1e3
    rows_per_s = sum(work[key][0] for key in slot_s) / sum(slot_s.values())
    op_ms = statistics.median(costs_ms.values())
    for key, cost in costs_ms.items():
        if isinstance(key, str):  # a learning rule's slot: print its ms per epoch
            print(f"epoch_ms.{key:3s} {cost:12.6g} ms")
    print(f"op_ms.p50   {op_ms:12.6g} ms\nrows_per_s  {rows_per_s:12.6g} 1/s\n"
          f"setup_ms    {statistics.median(setup_s) * 1e3:12.6g} ms  (unscaled)\n"
          f"ref_ms      {ref_ms:12.6g} ms  (reference kernel {'+'.join(cls.reference)}, "
          f"{len(reference.times)} repeats)")
    return {
        "setup_s": statistics.median(setup_s) * reference.nominal_ms / ref_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "rows_per_ref": rows_per_s * ref_ms / 1e3,
        "op_cost.p50": op_ms / ref_ms,
    }


def _one_pass(cls, args, workdir: Path, tally: Tally, tracer=None) -> float:
    """Set up and run the first round once; return the wall time in seconds."""
    workload = cls(args.seed, workdir)
    ops = workload.ops(0)
    outcomes = []
    root = tracer.root if tracer is not None else (lambda name, fn: fn())
    if tracer is not None:
        tracer.install()
    try:
        started = time.perf_counter()
        root("bench.setup", workload.setup)
        for op in ops:
            outcomes.append(root("bench.op", lambda: _call(op)))
        wall = time.perf_counter() - started
    finally:
        if tracer is not None:
            tracer.uninstall()
    for op, (result, error) in zip(ops, outcomes):
        tally.record(op, result, error)
    return wall


def layer_metrics(summary: dict) -> dict:
    names = summary["names"]

    def entry(name):
        return names.get(name, {"calls": 0, "total_ns": 0, "self_ns": 0, "counts": {}})

    def total_ms(*spans):
        return sum(entry(s)["total_ns"] for s in spans) / 1e6

    out = {
        "propagation.run_ms": total_ms("propagation.run"),
        "propagation.run_calls": entry("propagation.run")["calls"],
        "propagation.rows": entry("propagation.run")["counts"].get("rows", 0),
        "propagation.msg_bytes": entry("propagation.run")["counts"].get("bytes", 0),
        "propagation.initial_state_ms": total_ms("propagation.initial_state"),
        "propagation.compile_ms": total_ms("propagation.compile"),
        "propagation.loglik_ms": total_ms("propagation.loglik"),
        "learning.em_train_ms": total_ms("learning.em_train"),
        "learning.em_train_self_ms": entry("learning.em_train")["self_ns"] / 1e6,
        "learning.train_block_ms": total_ms("learning.train_block"),
        "learning.train_block_calls": entry("learning.train_block")["calls"],
    }
    for rule in ("ml", "kl", "vit", "var"):
        out[f"learning.update_ms.{rule}"] = total_ms(f"learning.update.{rule}")
        out[f"learning.update_calls.{rule}"] = entry(f"learning.update.{rule}")["calls"]
    out.update({
        "learning.dataset_ms": total_ms("learning.dataset"),
        "learning.dataset_rows": entry("learning.dataset")["counts"].get("rows", 0),
        "messages.normalize_calls": entry("messages.normalize")["calls"],
        "messages.normalize_ms": total_ms("messages.normalize"),
        "messages.posterior_ms": total_ms("messages.posterior"),
        "synthgen.ancestral_sample_ms": total_ms("synthgen.ancestral_sample"),
        "graph.io_ms": total_ms("graph.load_graph", "graph.save_graph", "graph.graph_digest"),
        "graph.with_parameters_ms": total_ms("graph.with_parameters"),
        "experiments.io_ms": total_ms("experiments.load_samples", "experiments.save_samples",
                                      "experiments.write_training_rows"),
        "cli.main_self_ms": entry("cli.main")["self_ns"] / 1e6,
    })
    for layer, self_ns in summary["layer_self_ns"].items():
        if layer != "cli":  # the cli layer is cli.main alone: cli.main_self_ms
            out[f"{layer}.self_ms"] = self_ns / 1e6
    return out


def run_traced(cls, args, workdir: Path, tally: Tally, spec: dict,
               header: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics: medians over pairs of plain and traced passes."""
    from tracing import Tracer

    count_names = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "B")]
    passes, problems = [], []
    started = time.perf_counter()
    while True:
        pair_started = time.perf_counter()
        plain_s = _one_pass(cls, args, workdir, tally)
        tracer = Tracer()
        traced_s = _one_pass(cls, args, workdir, tally, tracer)
        summary = tracer.summary()
        metrics = layer_metrics(summary)
        metrics["trace.wall_ms"] = traced_s * 1e3
        self_ms = sum(summary["layer_self_ns"].values()) / 1e6
        metrics["trace.unattributed_pct"] = 100.0 * (1.0 - self_ms / metrics["trace.wall_ms"])
        metrics["trace.overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0)
        passes.append(metrics)
        now = time.perf_counter()
        if len(passes) >= MIN_TRACE_PASSES and now - started + (now - pair_started) > args.seconds:
            break

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl", header)
    for name in count_names:
        values = {p[name] for p in passes}
        if len(values) > 1:
            problems.append(f"count {name} differs between traced passes: {sorted(values)}")
    result = {}
    for name in passes[0]:
        values = [p[name] for p in passes]
        result[name] = values[0] if name in count_names else statistics.median(values)
    worst = max(p["trace.unattributed_pct"] for p in passes)
    if worst > MAX_UNATTRIBUTED_PCT:
        problems.append(f"self times leave {worst:.2f}% of the traced wall time unattributed")
    return result, problems


def run_all(args, spec: dict) -> int:
    """Every workload, each in its own process; prints each one's result line."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in spec["workloads"]:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload["name"],
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        child = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            print(f"error: workload {workload['name']} exited with {child.returncode}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload['name']}/{name}"] = metric
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    if not (SRC / "normalgraph" / "__init__.py").is_file():
        print(f"error: the normalgraph sources are missing under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                        help="run one workload in this process (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args, spec)

    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    header = provenance(args)
    print("provenance " + json.dumps(header, sort_keys=True), flush=True)
    tally = Tally()
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            values, problems = run_traced(cls, args, workdir, tally, spec, header)
            metrics = spec["per_layer"]
        else:
            values, problems = run_plain(cls, args, workdir, tally), []
            metrics = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for reason in tally.errors + problems:
        print(f"check failed: {reason}", file=sys.stderr)
    report = {}
    for metric in metrics:
        value = values[metric["name"]]
        report[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']:32s} {value:>16.6g} {metric['unit']}")
    print(f"operations attempted {tally.attempted}, failed {tally.failed}")
    print(json.dumps({"correct": tally.failed == 0 and not problems,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
