#!/usr/bin/env python3
"""Compare what two source trees write and print for a fixed set of commands.

    python3 tools/compare_outputs.py PARENT_SRC CHANGE_SRC

Each argument is a directory that holds the ``normalgraph`` package, such as
a checkout's ``src``.  For each side, the latent star graphs and the deep
generative and learner graphs are saved, ``PROPAGATION`` writes what the
library returns for soft, hard and mixed evidence, and
every command of ``COMMANDS`` runs in a fresh interpreter, with that
directory alone on ``PYTHONPATH`` and a hash seed of its own (any
``PYTHONHASHSEED`` is dropped), inside a temporary directory of its own.
Given the same directory twice, it checks that the outputs do not change
from one run to the next.  Then each side runs the graphs and all of
``COMMANDS`` once more in one interpreter, through ``cli.main``, inside a
fresh temporary directory, so that state kept between calls in one process
shows as a difference from that side's fresh-interpreter outputs.
The ``wall_ms`` column of every CSV is dropped, found by its header name.
Then each file and each command's printed output (with its exit status) is
reported as ``identical``, or with the largest absolute and relative
difference over its numbers: first parent against change, then each side
in one interpreter against the same side in fresh ones.  Exits 0 only when
everything is identical.  Nothing is written outside the temporary
directories.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

# Saves the generative and the learner star, the deep generative graph (seed
# 1) and the deep learner graph, and 60 star samples (seed 1) where X1 = 1
# (2 in the file) occurs only after the 45 leading samples; then names the
# package it ran.
GRAPHS = """
import normalgraph
from normalgraph.experiments import (build_deep_graph, build_latent_star,
                                     deep_generative_parameters, save_samples)
from normalgraph.graph import save_graph
from normalgraph.synthgen import ancestral_sample
save_graph(build_latent_star(generative=True), "star_gen.json")
save_graph(build_latent_star(), "star_learner.json")
save_graph(build_deep_graph().with_parameters(deep_generative_parameters(seed=1)), "deep_gen.json")
save_graph(build_deep_graph(), "deep_learner.json")
held_out_only = ancestral_sample(build_latent_star(generative=True), 60, seed=1)
x1 = held_out_only.columns["X1"]
x1[:45][x1[:45] == 1] = 0
save_samples(held_out_only, "star_held_out_symbol.csv")
print(normalgraph.__file__)
"""

# On the deep generative graph (seed 1), for soft, hard and mixed evidence at
# each batch size (on both sides of messages.COLUMN_ROWS), writes the sha256
# of every message and posterior and the log-likelihood of Propagator.run, and
# at n = 1, 7, 256 and 4096 (and with no evidence at n = 3) the sha256 of every
# message of Propagator.initial_state from a generator seeded 5.
# Then trains the deep learner graph with each rule on 600 unmerged soft rows
# (80/20 split), where each unit trains alone, and writes every epoch's scores
# and the learned parameters.
PROPAGATION = """
import hashlib, json, os
import numpy as np
from normalgraph.experiments import build_deep_graph, deep_generative_parameters, split_mask
from normalgraph.learning import TrainConfig, em_train
from normalgraph.propagation import Propagator, aggregated_log_likelihood, posterior
deep = build_deep_graph().with_parameters(deep_generative_parameters(seed=1))
terminals, sizes = ("X1", "X2", "X3"), build_deep_graph().sizes
rng = np.random.default_rng(28)
soft = lambda x, n: rng.uniform(0.05, 1.0, size=(n, sizes[x]))
hard = lambda x, n: rng.integers(sizes[x], size=n)
digest = lambda a: hashlib.sha256(a.tobytes()).hexdigest()
os.makedirs("propagation")

def write_start(name, evidence, n_samples=None):
    state = Propagator(deep).initial_state(evidence, n_samples, rng=np.random.default_rng(5))
    with open(f"propagation/start_{name}.txt", "w") as out:
        for var in deep.sizes:
            out.write(f"{var} forward {digest(state.forward[var])}\\n")
            out.write(f"{var} backward {digest(state.backward[var])}\\n")

write_start("none_3", None, 3)
kinds = {"soft": (soft, soft, soft), "hard": (hard, hard, hard), "mixed": (soft, hard, soft)}
for kind, encoders in kinds.items():
    for n in (1, 7, 8, 255, 256, 4096):
        evidence = {x: enc(x, n) for x, enc in zip(terminals, encoders)}
        state = Propagator(deep).run(evidence)
        with open(f"propagation/{kind}_{n}.txt", "w") as out:
            for var in deep.sizes:
                out.write(f"{var} forward {digest(state.forward[var])}\\n")
                out.write(f"{var} backward {digest(state.backward[var])}\\n")
                out.write(f"{var} posterior {digest(posterior(state, var))}\\n")
            out.write(f"loglik {aggregated_log_likelihood(state, terminals)!r}\\n")
        if n in (1, 7, 256, 4096):
            write_start(f"{kind}_{n}", evidence)
evidence = {x: soft(x, 600) for x in terminals}
for rule in ("ml", "kl", "vit", "var"):
    report = em_train(build_deep_graph(), evidence, TrainConfig(rule, epochs=4, seed=2),
                      split_mask(600, 0.8))
    with open(f"propagation/train_{rule}.json", "w") as out:
        json.dump({"scores": [[r.train_loglik, r.test_loglik] for r in report.records],
                   "parameters": {u.name: (u.prior if hasattr(u, "prior") else u.theta).tolist()
                                  for u in report.graph.trainable_units()}}, out, indent=1)
"""

COMMANDS = (
    ["experiment", "deep", "--epochs", "200", "--out", "deep"],
    ["experiment", "deep", "--epochs", "50", "--split", "0.8", "--n", "300", "--out", "deep_split"],
    # Above messages.COLUMN_ROWS samples, which training merges to their distinct rows.
    ["experiment", "deep", "--epochs", "20", "--split", "0.8", "--n", "2000", "--out",
     "deep_large"],
    ["experiment", "tree", "--epochs", "60", "--dump-coefficients", "--out", "tree"],
    ["experiment", "tree", "--epochs", "30", "--split", "0.7", "--ms-override", "6",
     "--emit-plot", "--out", "tree_split"],
    ["experiment", "nit-sweep", "--epochs", "10", "--n", "100", "--out", "nit_sweep"],
    ["experiment", "single-block", "--out", "single_block"],
    ["generate", "--graph", "star_gen.json", "--n", "300", "--seed", "4", "--out", "star.csv"],
    # Both joins of the deep graph, at more than messages.COLUMN_ROWS samples.
    ["generate", "--graph", "deep_gen.json", "--n", "20000", "--out", "deep.csv"],
    # 16 000 training rows that merge to 18: every unit trains in one stacked
    # call, on messages the kernels floor or not.
    ["train", "--graph", "deep_learner.json", "--data", "deep.csv", "--algo", "all",
     "--epochs", "3", "--split", "0.8", "--out", "deep_results.csv"],
    ["eval", "--graph", "star_gen.json", "--data", "star.csv"],
    ["eval", "--graph", "star_gen.json", "--data", "star.csv", "--split", "0.75",
     "--out", "star_eval.csv"],
    ["train", "--graph", "star_learner.json", "--data", "star.csv", "--algo", "all",
     "--epochs", "40", "--split", "0.75", "--dump-coefficients", "--out", "star_results.csv"],
    # ml meets a symbol that only held-out samples show: exit 1 and one
    # "error: evidence: ..." line that names the samples.
    ["train", "--graph", "star_learner.json", "--data", "star_held_out_symbol.csv", "--algo",
     "ml", "--epochs", "5", "--split", "0.75", "--out", "star_held_out_symbol_results.csv"],
)

# Runs GRAPHS and PROPAGATION, then every command of the argv list given as a JSON argument
# through one cli.main, and prints a JSON list of [exit status, printed text].
IN_ONE_INTERPRETER = """
import contextlib, io, json, sys
exec(compile(sys.argv[2], "<graphs>", "exec"))
from normalgraph import cli
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as stop:
            status = stop.code
    results.append([status, out.getvalue() + err.getvalue()])
print(json.dumps(results))
"""

NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|[-+]?\binf\b|\bnan\b")


def without_wall_ms(text: str) -> str:
    """A CSV's text without its ``wall_ms`` column; ``#`` lines before the
    header stay as they are."""
    lines = text.splitlines()
    header = next((k for k, line in enumerate(lines) if not line.startswith("#")), None)
    if header is None or "wall_ms" not in lines[header].split(","):
        return text
    column = lines[header].split(",").index("wall_ms")
    for k in range(header, len(lines)):
        cells = lines[k].split(",")
        if len(cells) > column:
            del cells[column]
        lines[k] = ",".join(cells)
    return "\n".join(lines) + "\n"


def side_env(src: Path) -> dict[str, str]:
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("PYTHONHASHSEED", None)
    return env


def checked_package(src: Path, done: subprocess.CompletedProcess) -> str:
    """The output of a run whose first printed line names the package it
    imported; exits when that run failed or imported another package."""
    package, _, rest = done.stdout.partition("\n")
    if done.returncode != 0 or not Path(package).is_relative_to(src):
        raise SystemExit(f"cannot run normalgraph from {src}:\n{done.stdout}{done.stderr}")
    return rest


def run_side(src: Path, workdir: Path) -> dict[str, str]:
    """Every output of one side by name, each command in a fresh
    interpreter: what each command printed, then the text of each file the
    commands wrote."""
    env = side_env(src)
    checked_package(src, subprocess.run([sys.executable, "-c", GRAPHS + PROPAGATION],
                                        cwd=workdir, env=env, capture_output=True, text=True))
    outputs = {}
    for argv in COMMANDS:
        done = subprocess.run([sys.executable, "-m", "normalgraph", *argv], cwd=workdir, env=env,
                              capture_output=True, text=True)
        outputs["$ normalgraph " + " ".join(argv)] = (
            f"exit {done.returncode}\n{done.stdout}{done.stderr}")
    return outputs | written(workdir)


def run_side_in_one_interpreter(src: Path, workdir: Path) -> dict[str, str]:
    """``run_side``'s outputs with the graphs, ``PROPAGATION`` and every
    command run in one interpreter, the commands through ``cli.main``."""
    done = subprocess.run([sys.executable, "-c", IN_ONE_INTERPRETER,
                           json.dumps([list(argv) for argv in COMMANDS]),
                           GRAPHS + PROPAGATION],
                          cwd=workdir, env=side_env(src), capture_output=True, text=True)
    results = json.loads(checked_package(src, done))
    outputs = {"$ normalgraph " + " ".join(argv): f"exit {status}\n{printed}"
               for argv, (status, printed) in zip(COMMANDS, results)}
    return outputs | written(workdir)


def written(workdir: Path) -> dict[str, str]:
    """The text of each file under ``workdir`` by relative path, CSVs
    without their ``wall_ms`` column."""
    outputs = {}
    for path in sorted(p for p in workdir.rglob("*") if p.is_file()):
        text = path.read_text()
        outputs[str(path.relative_to(workdir))] = (
            without_wall_ms(text) if path.suffix == ".csv" else text)
    return outputs


def difference(parent: str, change: str) -> str:
    """``identical``, or how two texts differ: by the largest absolute and
    relative gap between their numbers when only numbers differ."""
    if parent == change:
        return "identical"
    a, b = NUMBER.findall(parent), NUMBER.findall(change)
    if NUMBER.sub("#", parent) != NUMBER.sub("#", change) or len(a) != len(b):
        lines = zip(parent.splitlines(), change.splitlines())
        first = next((k for k, (x, y) in enumerate(lines, 1) if x != y), "end")
        return f"differs in more than numbers, from line {first}"
    worst_abs = worst_rel = 0.0
    for x, y in zip(map(float, a), map(float, b)):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        gap, scale = abs(x - y), max(abs(x), abs(y))
        worst_abs = max(worst_abs, gap)
        worst_rel = max(worst_rel, gap / scale if math.isfinite(scale) else math.inf)
    return f"differs: max abs {worst_abs:.3g}, max rel {worst_rel:.3g}"


def report(a: dict[str, str], b: dict[str, str], a_name: str, b_name: str,
           prefix: str = "") -> bool:
    """Print how every output of ``a`` and ``b`` compares; True when all
    are identical."""
    same = True
    for name in [*a, *(k for k in b if k not in a)]:
        if name not in b or name not in a:
            status = "only in " + (a_name if name in a else b_name)
        else:
            status = difference(a[name], b[name])
        same = same and status == "identical"
        print(f"{status}: {prefix}{name}")
    return same


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    sources = {"parent": Path(argv[0]).resolve(), "change": Path(argv[1]).resolve()}
    fresh, once = {}, {}
    for runs, run in ((fresh, run_side), (once, run_side_in_one_interpreter)):
        for side, src in sources.items():
            with tempfile.TemporaryDirectory() as workdir:
                runs[side] = run(src, Path(workdir))
    same = report(fresh["parent"], fresh["change"], "parent", "change")
    for side in sources:
        same = report(fresh[side], once[side], "fresh interpreters", "one interpreter",
                      f"{side} in one interpreter: ") and same
    print("all identical" if same else "DIFFERENT")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
