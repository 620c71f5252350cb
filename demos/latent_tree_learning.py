"""Learn the latent star from samples of its own terminals.

Draws 400 joint outcomes of (X1, X2, X3), then fits a fresh star whose
parameters start uniform, once per algorithm.  The hidden variable is
never observed; its conditionals are recovered only up to relabeling, so
the comparison metric is the aggregated log-likelihood of the terminals.
"""

import numpy as np

from normalgraph.experiments import build_latent_star, run_tree_experiment
from normalgraph.learning import TrainConfig


def main():
    train = TrainConfig(epochs=60, nit=3, seed=1)
    reports = run_tree_experiment(train, n_samples=400)

    print("aggregated train log-likelihood by epoch")
    header = "  epoch " + "".join(f"{a:>10}" for a in reports)
    print(header)
    for epoch in (1, 2, 5, 10, 20, 40, 60):
        row = f"  {epoch:5d} "
        for report in reports.values():
            row += f"{report.records[epoch - 1].train_loglik:10.1f}"
        print(row)

    print("\nlearned four-state conditional for X2 (ml), rows sorted for display")
    learned = reports["ml"].graph.block("P_X2").theta
    order = np.argsort(learned[:, 0])
    for row in learned[order]:
        print("   ", " ".join(f"{v:6.3f}" for v in row))
    print("reference rows, same ordering trick")
    reference = build_latent_star(generative=True).block("P_X2").theta
    for row in reference[np.argsort(reference[:, 0])]:
        print("   ", " ".join(f"{v:6.3f}" for v in row))

    print("\nwith a train/test split the same driver scores both halves")
    split_run = run_tree_experiment(train, n_samples=300, split=0.5, algorithms=("ml", "var"))
    for algorithm, report in split_run.items():
        print(
            f"  {algorithm}: train {report.final_train_loglik:8.1f}   "
            f"test {report.final_test_loglik:8.1f}"
        )


if __name__ == "__main__":
    main()
