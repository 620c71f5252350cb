"""How two variables drive one block: product spaces, projectors, expanders.

A block input can only be a single edge, so a pair (A, B) is encoded as
one variable over the product alphabet.  The fixed projector maps a
product symbol back to a component; its scaled transpose (the expander)
lifts a component into the product space.  An equality node over the two
lifted replicas pins the product variable to the exact pair code.
"""

import numpy as np

from normalgraph.graph import (
    DiverterNode,
    GraphSpec,
    SisoBlock,
    SourceBlock,
    build_expander,
    build_projector,
)
from normalgraph.synthgen import ancestral_sample


def show(name, matrix):
    print(f"{name}:")
    for row in np.atleast_2d(matrix):
        print("   ", " ".join(f"{v:7.4f}" for v in row))


def main():
    sizes = [2, 3]
    for j in (1, 2):
        show(f"projector j={j} for sizes {sizes}", build_projector(sizes, j))
    for j in (1, 2):
        show(f"expander j={j}", build_expander(sizes, j))

    # A joint 6-state variable P0 constrained to encode the pair (A, B).
    graph = GraphSpec(
        variables=(("A", 2), ("B", 3), ("PA", 6), ("PB", 6), ("P0", 6), ("X", 2)),
        sources=(
            SourceBlock("prior_A", "A", np.array([0.7, 0.3])),
            SourceBlock("prior_B", "B", np.array([0.2, 0.5, 0.3])),
        ),
        blocks=(
            SisoBlock("lift_A", "A", "PA", build_expander(sizes, 1), trainable=False),
            SisoBlock("lift_B", "B", "PB", build_expander(sizes, 2), trainable=False),
            SisoBlock("P_X", "P0", "X", np.tile([[0.9, 0.1], [0.1, 0.9]], (3, 1))),
        ),
        diverters=(DiverterNode(inbound=("PA", "PB"), taps=("P0",)),),
    )

    data = ancestral_sample(graph, 10, seed=1, keep_all=True)
    print("\nsampled rows: the joint symbol is always 3*A + B")
    print("  A :", data["A"])
    print("  B :", data["B"])
    print("  P0:", data["P0"])
    assert np.array_equal(data["P0"], data["A"] * 3 + data["B"])

    freq = np.bincount(ancestral_sample(graph, 20000, seed=2, keep_all=True)["P0"],
                       minlength=6) / 20000
    exact = np.outer([0.7, 0.3], [0.2, 0.5, 0.3]).ravel()
    show("\nempirical joint over the 6 pair codes", freq)
    show("product of the two priors", exact)


if __name__ == "__main__":
    main()
