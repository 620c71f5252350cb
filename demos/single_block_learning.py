"""Train one conditional-probability block four ways on random messages.

With smooth messages the iterative likelihood rule wins and the divergence
rule tracks it closely; with near-delta messages all four rules land on
the same counting solution.
"""

from normalgraph.experiments import run_single_block
from normalgraph.learning import TrainConfig


def finals(rows):
    out = {}
    for algorithm, _, loglik in rows:
        out[algorithm] = loglik
    return out


def trajectory(rows, algorithm, every=20):
    picked = [(it, ll) for a, it, ll in rows if a == algorithm]
    return [(it, ll) for it, ll in picked if it == 1 or it % every == 0]


def main():
    print("smooth messages (sharpening exponent 1)")
    rows = run_single_block(TrainConfig(seed=1))
    for algorithm in ("ml", "kl"):
        path = " -> ".join(f"{ll:.1f}" for _, ll in trajectory(rows, algorithm))
        print(f"  {algorithm} trajectory: {path}")
    for algorithm, loglik in sorted(finals(rows).items(), key=lambda kv: -kv[1]):
        print(f"  final {algorithm:>3}: {loglik:10.3f}")

    print("\nnear-delta messages (sharpening exponent 1000)")
    rows = run_single_block(TrainConfig(seed=1), sharp_in=1000.0, sharp_out=1000.0)
    f = finals(rows)
    for algorithm, loglik in sorted(f.items(), key=lambda kv: -kv[1]):
        print(f"  final {algorithm:>3}: {loglik:10.3f}")
    trained = [f[a] for a in ("ml", "kl", "vit", "var")]
    print(f"  spread across the four rules: {max(trained) - min(trained):.2e}")


if __name__ == "__main__":
    main()
