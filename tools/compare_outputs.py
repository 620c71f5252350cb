#!/usr/bin/env python3
"""Compare what two source trees write and print for a fixed set of commands.

    python3 tools/compare_outputs.py PARENT_SRC CHANGE_SRC

Each argument is a directory that holds the ``normalgraph`` package, such as
a checkout's ``src``.  For each side, the latent star graphs and the deep
generative and learner graphs are saved and
every command of ``COMMANDS`` runs in a fresh interpreter, with that
directory alone on ``PYTHONPATH`` and a hash seed of its own (any
``PYTHONHASHSEED`` is dropped), inside a temporary directory of its own.
Given the same directory twice, it checks that the outputs do not change
from one run to the next.
The ``wall_ms`` column of every CSV is dropped, found by its header name.
Then each file and each command's printed output (with its exit status) is
reported as ``identical``, or with the largest absolute and relative
difference over its numbers.  Exits 0 only when everything is identical.
Nothing is written outside the temporary directories.
"""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

# Saves the generative and the learner star, the deep generative graph (seed
# 1) and the deep learner graph, and names the package it ran.
GRAPHS = """
import normalgraph
from normalgraph.experiments import build_deep_graph, build_latent_star, deep_generative_parameters
from normalgraph.graph import save_graph
save_graph(build_latent_star(generative=True), "star_gen.json")
save_graph(build_latent_star(), "star_learner.json")
save_graph(build_deep_graph().with_parameters(deep_generative_parameters(seed=1)), "deep_gen.json")
save_graph(build_deep_graph(), "deep_learner.json")
print(normalgraph.__file__)
"""

COMMANDS = (
    ["experiment", "deep", "--epochs", "200", "--out", "deep"],
    ["experiment", "deep", "--epochs", "50", "--split", "0.8", "--n", "300", "--out", "deep_split"],
    # Above messages.COLUMN_ROWS samples: the random start sums its rows by column.
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
    # Epoch 1 at 16 000 training rows that merge to 18: each unit trains
    # alone, on gathered evidence ports and messages the kernels floor or not.
    ["train", "--graph", "deep_learner.json", "--data", "deep.csv", "--algo", "all",
     "--epochs", "3", "--split", "0.8", "--out", "deep_results.csv"],
    ["eval", "--graph", "star_gen.json", "--data", "star.csv"],
    ["eval", "--graph", "star_gen.json", "--data", "star.csv", "--split", "0.75",
     "--out", "star_eval.csv"],
    ["train", "--graph", "star_learner.json", "--data", "star.csv", "--algo", "all",
     "--epochs", "40", "--split", "0.75", "--dump-coefficients", "--out", "star_results.csv"],
)

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


def run_side(src: Path, workdir: Path) -> dict[str, str]:
    """Every output of one side by name: what each command printed, then
    the text of each file the commands wrote."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("PYTHONHASHSEED", None)
    setup = subprocess.run([sys.executable, "-c", GRAPHS], cwd=workdir, env=env,
                           capture_output=True, text=True)
    if setup.returncode != 0 or not Path(setup.stdout.strip()).is_relative_to(src):
        raise SystemExit(f"cannot run normalgraph from {src}:\n{setup.stdout}{setup.stderr}")
    outputs = {}
    for argv in COMMANDS:
        done = subprocess.run([sys.executable, "-m", "normalgraph", *argv], cwd=workdir, env=env,
                              capture_output=True, text=True)
        outputs["$ normalgraph " + " ".join(argv)] = (
            f"exit {done.returncode}\n{done.stdout}{done.stderr}")
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


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    parent_src, change_src = (Path(arg).resolve() for arg in argv)
    with tempfile.TemporaryDirectory() as parent_dir, tempfile.TemporaryDirectory() as change_dir:
        parent = run_side(parent_src, Path(parent_dir))
        change = run_side(change_src, Path(change_dir))
    same = True
    for name in [*parent, *(k for k in change if k not in parent)]:
        if name not in change or name not in parent:
            status = "only in " + ("parent" if name in parent else "change")
        else:
            status = difference(parent[name], change[name])
        same = same and status == "identical"
        print(f"{status}: {name}")
    print("all identical" if same else "DIFFERENT")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
