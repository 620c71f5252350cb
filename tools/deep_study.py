#!/usr/bin/env python3
"""What the four rules learn on the deep graph, scored by the exact joint.

    python3 tools/deep_study.py [--sizes 100 10000 100000] [--seeds 1 2 3 4 5 6]
                                [--epochs 200]

For each sample count N and seed it draws N samples of the deep generative
graph (``deep_generative_parameters(seed)``), splits them 80/20, and trains
the deep learner graph with each rule (``TrainConfig(rule, epochs, seed=seed)``,
so nit = 3 and delta = 1e-6).  Every model is scored by the exact joint
log P(X1, X2, X3) per sample, on the training rows and on the held-out rows,
from ``tests/oracles.deep_terminal_joint`` and the counts of the 18 terminal
patterns.  Three references frame the rules:

* independence: the product of the training rows' marginals;
* generative: the parameters that drew the samples;
* saturated: the training rows' pattern frequencies, the largest training
  joint any model can reach.

A held-out pattern that a model gives no mass scores -inf.  The script
prints one markdown table row per (N, seed, rows), then, per N, the mean of
each column over the seeds with a finite value, and the seeds on which the
training joint of ``ml`` and of ``kl`` beats independence by at least half
the generative model's margin over it, among the seeds where that margin is
positive (on few samples independence can fit the training rows better than
the generative model).  It writes nothing.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]

from normalgraph.experiments import (build_deep_graph, deep_generative_parameters,  # noqa: E402
                                     split_mask)
from normalgraph.learning import ALGORITHMS, TrainConfig, em_train  # noqa: E402
from normalgraph.synthgen import ancestral_sample  # noqa: E402
from oracles import deep_terminal_joint  # noqa: E402

TERMINALS = ("X1", "X2", "X3")
MODELS = ("independence", "generative", "saturated", *ALGORITHMS)


def per_sample(joint: np.ndarray, counts: np.ndarray) -> float:
    """Mean log-probability of the samples whose pattern counts are ``counts``."""
    seen = counts > 0
    with np.errstate(divide="ignore"):
        return float(np.sum(counts[seen] * np.log(joint[seen])) / counts.sum())


def study(n: int, seed: int, epochs: int) -> dict[str, tuple[float, float]]:
    """(training, held-out) joint per sample of every model at one (N, seed)."""
    learner = build_deep_graph()
    parameters = deep_generative_parameters(seed)
    evidence = ancestral_sample(learner.with_parameters(parameters), n, seed=seed
                                ).terminal_evidence(TERMINALS)
    mask = split_mask(n, 0.8)
    shape = tuple(learner.sizes[x] for x in TERMINALS)
    patterns = [np.zeros(shape), np.zeros(shape)]
    for rows, keep in zip(patterns, (mask > 0, mask <= 0)):
        np.add.at(rows, tuple(evidence[x][keep] for x in TERMINALS), 1.0)
    train = patterns[0] / patterns[0].sum()
    joints = {
        "independence": np.einsum("i,j,k->ijk", train.sum((1, 2)), train.sum((0, 2)),
                                  train.sum((0, 1))),
        "generative": deep_terminal_joint(parameters),
        "saturated": train,
    }
    for rule in ALGORITHMS:
        report = em_train(learner, evidence, TrainConfig(rule, epochs=epochs, seed=seed), mask)
        joints[rule] = deep_terminal_joint(report.records[-1].parameters)
    return {name: (per_sample(joint, patterns[0]), per_sample(joint, patterns[1]))
            for name, joint in joints.items()}


def row(cells) -> str:
    return "| " + " | ".join(cells) + " |"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[100, 10_000, 100_000])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5, 6])
    parser.add_argument("--epochs", type=int, default=200)
    args = parser.parse_args(argv)
    header = [row(["N", "seed", "rows", *MODELS]), row(["---"] * (3 + len(MODELS)))]
    print("\n".join(header))
    means, checks = [], []
    for n in args.sizes:
        results = {seed: study(n, seed, args.epochs) for seed in args.seeds}
        for seed, scores in results.items():
            for side, rows in enumerate(("train", "held-out")):
                print(row([f"{n:g}", str(seed), rows,
                           *(f"{scores[m][side]:.5f}" for m in MODELS)]))
        for side, rows in enumerate(("train", "held-out")):
            cells = []
            for m in MODELS:
                values = [s[m][side] for s in results.values() if np.isfinite(s[m][side])]
                cells.append(f"{np.mean(values):.5f} ({len(values)})" if values else "-inf")
            means.append(row([f"{n:g}", "mean", rows, *cells]))
        margins = {seed: s["generative"][0] - s["independence"][0] for seed, s in results.items()}
        ahead = [seed for seed, margin in margins.items() if margin > 0]
        for rule in ("ml", "kl"):
            wins = [seed for seed in ahead if results[seed][rule][0]
                    - results[seed]["independence"][0] >= 0.5 * margins[seed]]
            checks.append(f"N={n:g}: {rule} beats independence by half the generative margin "
                          f"or more on seeds {wins} of the seeds {ahead} where the generative "
                          f"model's training joint beats independence")
    print("\nMeans over the seeds with a finite score (their count in parentheses):")
    print("\n".join(header + means))
    print()
    print("\n".join(checks))
    return 0


if __name__ == "__main__":
    sys.exit(main())
