"""Learn a four-layer graph with two product-space joins from 100 samples.

Ground truth is drawn once from a seeded generator; the learner starts
uniform and sees only the three terminal columns.  The four expander
blocks around the product spaces stay fixed throughout.
"""

import numpy as np

from normalgraph.experiments import (
    build_deep_graph,
    deep_generative_parameters,
    run_deep_experiment,
)
from normalgraph.graph import build_expander
from normalgraph.learning import TrainConfig
from normalgraph.propagation import Propagator, aggregated_log_likelihood
from normalgraph.synthgen import ancestral_sample


def main():
    train, n_samples = TrainConfig(epochs=600, nit=3, seed=1), 100
    reports = run_deep_experiment(train, n_samples=n_samples)

    print("final aggregated train log-likelihood after 600 epochs")
    for algorithm, report in sorted(
        reports.items(), key=lambda kv: -kv[1].final_train_loglik
    ):
        print(f"  {algorithm:>3}: {report.final_train_loglik:10.2f}")

    # Score the same data under the generative parameters for context.
    truth = build_deep_graph().with_parameters(deep_generative_parameters(train.seed))
    data = ancestral_sample(truth, n_samples, seed=train.seed)
    evidence = data.terminal_evidence(("X1", "X2", "X3"))
    state = Propagator(truth).run(evidence, n_samples=n_samples)
    mask = np.ones(n_samples, dtype=bool)
    print(f"  true model: {aggregated_log_likelihood(state, tuple(evidence), mask):10.2f}")

    fixed = reports["ml"].graph.block("join_S1S2_in1").theta
    print("\njoin blocks never move:",
          np.array_equal(fixed, build_expander([4, 2], 1)))


if __name__ == "__main__":
    main()
