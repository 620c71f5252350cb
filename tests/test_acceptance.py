"""Acceptance battery: twelve end-to-end checks at fixed tolerances.

Each check is one test that prints a single ``CRITERION n (...): PASS`` or
``FAIL`` line with the measured numbers.  Where a quantity is reported
but not asserted (the ``vit``/``var`` relation on the latent star, say),
the detail says so and README, "Acceptance status", says why.
"""

import time

import numpy as np

from oracles import cooccurrence_table, random_bayes_tree, tree_posteriors
from normalgraph.cli import main
from normalgraph.experiments import (
    build_latent_star,
    run_deep_experiment,
    run_single_block,
    run_tree_experiment,
    split_mask,
)
from normalgraph.graph import build_expander, build_projector
from normalgraph.learning import (
    BlockDataset,
    TrainConfig,
    block_log_likelihood,
    kkt_multipliers,
    kl_update,
    generalized_divergence,
    ml_update,
    var_update,
    vit_update,
)
from normalgraph.messages import normalize, one_hot
from normalgraph.propagation import (
    Propagator,
    aggregated_log_likelihood,
    posterior,
)
from normalgraph.synthgen import ancestral_sample


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"CRITERION {number} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {number} ({name}): {detail}"


def random_delta_dataset(rng):
    """Instantiated pairs with every input row hit at least once."""
    m_in, m_out = int(rng.integers(2, 6)), int(rng.integers(2, 6))
    n = int(rng.integers(m_in, 201))
    x = rng.integers(m_in, size=n)
    x[:m_in] = np.arange(m_in)
    y = rng.integers(m_out, size=n)
    data = BlockDataset(forward=one_hot(x, m_in), backward=one_hot(y, m_out))
    return data, x, y, m_in, m_out


def random_smooth_instance(rng):
    m_in, m_out = int(rng.integers(2, 6)), int(rng.integers(2, 6))
    n = int(rng.integers(5, 61))
    data = BlockDataset(
        forward=normalize(rng.uniform(0.01, 1.0, size=(n, m_in))),
        backward=normalize(rng.uniform(0.01, 1.0, size=(n, m_out))),
    )
    return data, m_in, m_out


def test_criterion_01_delta_collapse():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        data, x, y, m_in, m_out = random_delta_dataset(rng)
        table = cooccurrence_table(x, y, m_in, m_out)
        theta_ml = np.full((m_in, m_out), 1.0 / m_out)
        theta_kl = theta_ml.copy()
        for _ in range(5):
            theta_ml = ml_update(theta_ml, data)
            theta_kl = kl_update(theta_kl, data)
        for theta in (theta_ml, theta_kl, vit_update(data, 1e-9), var_update(data, 1e-9)):
            worst = max(worst, float(np.max(np.abs(theta - table))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 5.0
    report(1, "delta collapse equals counting", ok,
           f"max |theta - table| {worst:.2e}, {elapsed:.2f}s over 100 datasets")


def test_criterion_02_ml_ascent():
    rng = np.random.default_rng(2)
    start = time.perf_counter()
    worst_drop = 0.0
    for _ in range(500):
        data, m_in, m_out = random_smooth_instance(rng)
        theta = np.full((m_in, m_out), 1.0 / m_out)
        last = block_log_likelihood(theta, data)
        for _ in range(6):
            theta = ml_update(theta, data)
            now = block_log_likelihood(theta, data)
            worst_drop = max(worst_drop, last - now)
            last = now
    elapsed = time.perf_counter() - start
    ok = worst_drop <= 1e-10 and elapsed < 10.0
    report(2, "ml never descends", ok,
           f"worst drop {worst_drop:.2e}, {elapsed:.2f}s over 500 instances")


def test_criterion_03_kl_descent_and_jensen():
    rng = np.random.default_rng(3)
    worst_rise = 0.0
    for _ in range(500):
        data, m_in, m_out = random_smooth_instance(rng)
        theta = np.full((m_in, m_out), 1.0 / m_out)
        last = generalized_divergence(theta, data)
        for _ in range(6):
            theta = kl_update(theta, data)
            now = generalized_divergence(theta, data)
            worst_rise = max(worst_rise, now - last)
            last = now
    worst_slack = -np.inf
    for _ in range(1000):
        data, m_in, m_out = random_smooth_instance(rng)
        theta = normalize(rng.uniform(0.01, 1.0, size=(m_in, m_out)))
        lhs = block_log_likelihood(theta, data)
        rhs = float(np.sum(data.backward * np.log(data.forward @ theta)))
        worst_slack = max(worst_slack, rhs - lhs)
    ok = worst_rise <= 1e-10 and worst_slack <= 1e-10
    report(3, "kl descends and jensen holds", ok,
           f"worst divergence rise {worst_rise:.2e}, worst bound slack {worst_slack:.2e}")


def test_criterion_04_kkt_stationarity():
    # The multiplier residual scales like N * |delta theta|, so the runs
    # are converged well past the required 1e-10 before checking.
    rng = np.random.default_rng(4)
    converged = 0
    worst_neg, worst_prod = 0.0, 0.0
    for _ in range(50):
        m_in, m_out = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        n = int(rng.integers(20, 120))
        x = rng.integers(m_in, size=n)
        x[:m_in] = np.arange(m_in)
        data = BlockDataset(
            forward=one_hot(x, m_in),
            backward=normalize(rng.uniform(0.01, 1.0, size=(n, m_out))),
        )
        theta = np.full((m_in, m_out), 1.0 / m_out)
        for _ in range(1_000_000):
            new = ml_update(theta, data)
            delta = float(np.max(np.abs(new - theta)))
            theta = new
            if delta < 1e-12:
                converged += 1
                break
        lam = kkt_multipliers(theta, data)
        worst_neg = max(worst_neg, float(-lam.min()))
        worst_prod = max(worst_prod, float(np.max(np.abs(lam * theta))))
    ok = converged == 50 and worst_neg <= 1e-8 and worst_prod <= 1e-6
    report(4, "kkt multipliers at convergence", ok,
           f"{converged}/50 converged, min lambda -{worst_neg:.2e}, "
           f"max |lambda*theta| {worst_prod:.2e}")


def test_criterion_05_product_space_exactness():
    p1 = np.array([[1, 0]] * 6 + [[0, 1]] * 6, dtype=float)
    p2 = np.array(([[1, 0, 0]] * 2 + [[0, 1, 0]] * 2 + [[0, 0, 1]] * 2) * 2, dtype=float)
    p3 = np.array([[1, 0], [0, 1]] * 6, dtype=float)
    sizes = [2, 3, 2]
    printed = {1: p1, 2: p2, 3: p3}
    ok = True
    for j, proj in printed.items():
        ok = ok and np.array_equal(build_projector(sizes, j), proj)
        ok = ok and np.array_equal(build_expander(sizes, j), proj.T * (sizes[j - 1] / 12.0))
    report(5, "printed [2,3,2] matrices bit-exact", ok, "j in {1,2,3}, both directions")


def test_criterion_06_tree_exactness():
    rng = np.random.default_rng(6)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        tree, graph, readout = random_bayes_tree(rng)
        n_nodes = len(tree["sizes"])
        observed = {
            v: int(rng.integers(tree["sizes"][v]))
            for v in range(n_nodes) if rng.random() < 0.4
        }
        expected = tree_posteriors(tree, observed)
        state = Propagator(graph).run(
            {readout[v]: np.array([s]) for v, s in observed.items()}, n_samples=1
        )
        for v in range(n_nodes):
            got = posterior(state, readout[v])[0]
            worst = max(worst, float(np.max(np.abs(got - expected[v]))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 30.0
    report(6, "random-tree posteriors exact", ok,
           f"max |posterior - enumeration| {worst:.2e}, {elapsed:.2f}s over 200 trees")


def test_criterion_07_single_block_ordering():
    start = time.perf_counter()
    ml_wins, beats_ref = 0, 0
    for seed in range(1, 11):
        rows = run_single_block(TrainConfig(seed=seed))
        final = {}
        for algorithm, _, loglik in rows:
            final[algorithm] = loglik
        if final["ml"] >= final["kl"]:
            ml_wins += 1
        if final["ml"] > final["ref"] and final["kl"] > final["ref"]:
            beats_ref += 1
    sharp_ok = 0
    for seed in range(1, 11):
        rows = run_single_block(TrainConfig(seed=seed), sharp_in=1000.0, sharp_out=1000.0)
        final = {a: ll for a, _, ll in rows}
        values = [final[a] for a in ("ml", "kl", "vit", "var")]
        spread = max(values) - min(values)
        if spread <= 1e-3 * abs(final["ml"]):
            sharp_ok += 1
    elapsed = time.perf_counter() - start
    ok = ml_wins >= 8 and beats_ref == 10 and sharp_ok == 10 and elapsed < 60.0
    report(7, "single-block orderings", ok,
           f"smooth: ml>=kl {ml_wins}/10, beat ref {beats_ref}/10; "
           f"sharp: relative spread <= 1e-3 in {sharp_ok}/10; {elapsed:.1f}s")


def distinct_latent_rows(graph, tol: float = 1e-6) -> int:
    """Latent states of a learned star whose leaf rows differ beyond ``tol``.

    Each latent state is the concatenation of its rows in the three leaf
    conditionals; states with equal concatenations are indistinguishable.
    """
    rows = np.hstack([graph.block(f"P_X{i}").theta for i in (1, 2, 3)])
    kept = []
    for row in rows:
        if not any(np.max(np.abs(row - k)) <= tol for k in kept):
            kept.append(row)
    return len(kept)


def test_criterion_08_latent_star_ordering():
    # The exact rules (ml, kl) must beat both approximations.  How vit and
    # var compare is reported, not asserted: var's batch count leaves all
    # latent rows equal, and vit sometimes collapses to the same solution
    # or ends below it, so no rule promises vit > var.
    start = time.perf_counter()
    exact_wins, close = 0, 0
    orderings = []
    for seed in range(1, 6):
        reports = run_tree_experiment(TrainConfig(epochs=60, nit=3, seed=seed), n_samples=400)
        final = {a: r.final_train_loglik for a, r in reports.items()}
        if min(final["ml"], final["kl"]) > max(final["vit"], final["var"]):
            exact_wins += 1
        if abs(final["ml"] - final["kl"]) <= 0.05 * abs(final["ml"]):
            close += 1
        # A collapsed vit matches var to ~6e-10, not bit for bit.
        if abs(final["vit"] - final["var"]) <= 1e-9 * abs(final["var"]):
            vit_vs_var = "~="
        else:
            vit_vs_var = ">" if final["vit"] > final["var"] else "<"
        rows = "/".join(str(distinct_latent_rows(reports[a].graph))
                        for a in ("ml", "kl", "vit", "var"))
        orderings.append(
            f"seed {seed}: ml {final['ml']:.1f} kl {final['kl']:.1f} "
            f"vit {final['vit']:.1f} var {final['var']:.1f}, "
            f"vit {vit_vs_var} var, distinct latent rows ml/kl/vit/var {rows}"
        )
    elapsed = time.perf_counter() - start
    ok = exact_wins == 5 and close == 5 and elapsed < 120.0
    report(8, "latent-star exact rules beat approximations", ok,
           f"min(ml,kl)>max(vit,var) in {exact_wins}/5, |ml-kl|<=5% in {close}/5, "
           f"{elapsed:.1f}s; " + "; ".join(orderings))


def test_criterion_09_latent_size_mismatch():
    wins = 0
    for seed in range(1, 6):
        train = TrainConfig(epochs=60, nit=3, seed=seed)
        small = run_tree_experiment(
            train, n_samples=400, m_latent=2, algorithms=("ml",)
        )["ml"].final_train_loglik
        full = run_tree_experiment(
            train, n_samples=400, m_latent=4, algorithms=("ml",)
        )["ml"].final_train_loglik
        if small < full:
            wins += 1
    ok = wins >= 4
    report(9, "two-state latent underfits", ok, f"strictly below in {wins}/5 seeds")


def test_criterion_10_generalization():
    # The two halves of one small draw can differ by more than 15% in score
    # even under the true parameters, so the learner's held-out score is
    # set against the generative star's score on the same held-out samples.
    terminals = ("X1", "X2", "X3")
    generative = build_latent_star(generative=True)
    counts = {}
    details = []
    n_samples, split = 300, 0.5
    for m_latent in (4, 9):
        good = 0
        for seed in range(1, 6):
            record_list = run_tree_experiment(
                TrainConfig(epochs=60, nit=3, seed=seed), n_samples=n_samples, split=split,
                m_latent=m_latent, algorithms=("ml",),
            )["ml"].records
            tests = [r.test_loglik for r in record_list]
            finite = len(tests) == 60 and all(np.isfinite(tests))
            evidence = ancestral_sample(
                generative, n_samples, seed=seed
            ).terminal_evidence(terminals)
            held_out = split_mask(n_samples, split) <= 0
            state = Propagator(generative).run(evidence, n_samples=n_samples)
            true_test = aggregated_log_likelihood(state, terminals, held_out)
            excess = abs(true_test - tests[-1]) / abs(true_test)
            if finite and excess <= 0.15:
                good += 1
            details.append(f"M={m_latent} seed {seed}: excess {excess:.3f}")
        counts[m_latent] = good
    ok = counts[4] >= 4 and counts[9] >= 4
    report(10, "held-out score within 15% of the generative model's", ok,
           f"M=4: {counts[4]}/5, M=9: {counts[9]}/5; " + "; ".join(details))


def test_criterion_11_deep_graph():
    start = time.perf_counter()
    wins = 0
    fixed_ok = True
    for seed in range(1, 6):
        reports = run_deep_experiment(
            TrainConfig(epochs=600, nit=3, seed=seed), n_samples=100,
            algorithms=("ml", "kl", "vit"),
        )
        final = {a: r.final_train_loglik for a, r in reports.items()}
        if final["ml"] >= final["vit"] and final["kl"] >= final["vit"]:
            wins += 1
        graph = reports["ml"].graph
        fixed_ok = fixed_ok and np.array_equal(
            graph.block("join_S1S2_in1").theta, build_expander([4, 2], 1)
        ) and np.array_equal(
            graph.block("join_S1S2_in2").theta, build_expander([4, 2], 2)
        ) and np.array_equal(
            graph.block("join_Y2S3_in1").theta, build_expander([4, 3], 1)
        ) and np.array_equal(
            graph.block("join_Y2S3_in2").theta, build_expander([4, 3], 2)
        )
    elapsed = time.perf_counter() - start
    ok = elapsed < 600.0 and wins >= 4 and fixed_ok
    report(11, "deep graph ordering and timing", ok,
           f"ml,kl >= vit in {wins}/5 seeds, fixed blocks exact: {fixed_ok}, "
           f"{elapsed:.1f}s for 5 runs of 600 epochs")


def test_criterion_12_reproducibility(tmp_path):
    def body(path, drop_wall):
        lines = []
        for line in path.read_text().splitlines():
            if line.startswith("#"):
                lines.append(line)
            elif drop_wall:
                lines.append(",".join(line.split(",")[:-1]))
            else:
                lines.append(line)
        return lines

    checks = []

    a, b = tmp_path / "sb_a", tmp_path / "sb_b"
    argv = ["experiment", "single-block", "--n", "100", "--iterations", "20"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    checks.append(
        (a / "single_block.csv").read_bytes() == (b / "single_block.csv").read_bytes()
    )

    a, b = tmp_path / "tree_a", tmp_path / "tree_b"
    argv = ["experiment", "tree", "--n", "60", "--epochs", "5", "--algo", "ml",
            "--seed", "7"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    checks.append(
        body(a / "tree.csv", drop_wall=True) == body(b / "tree.csv", drop_wall=True)
    )
    checks.append(
        (a / "tree.ml.learned.json").read_bytes()
        == (b / "tree.ml.learned.json").read_bytes()
    )

    a, b = tmp_path / "sweep_a", tmp_path / "sweep_b"
    argv = ["experiment", "nit-sweep", "--n", "30", "--epochs", "3"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    checks.append(
        (a / "nit_sweep.csv").read_bytes() == (b / "nit_sweep.csv").read_bytes()
    )

    ok = all(checks)
    report(12, "byte-identical reruns", ok,
           f"single-block, tree (sans wall clock), learned graph, sweep: {checks}")
