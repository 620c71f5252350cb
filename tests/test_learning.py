"""Unit tests for the four block-update rules and the EM driver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cooccurrence_table, deep_terminal_joint
from normalgraph.experiments import (
    build_deep_graph,
    build_latent_star,
    deep_generative_parameters,
)
from normalgraph.graph import (
    GraphSpec,
    SisoBlock,
    SourceBlock,
    ensure_valid,
    split_variable,
)
from normalgraph.learning import (
    ALGORITHMS,
    BlockDataset,
    TrainConfig,
    em_train,
    generalized_divergence,
    kkt_multipliers,
    kl_update,
    ml_update,
    train_block,
    var_update,
    vit_update,
)
from normalgraph.messages import normalize, one_hot
from normalgraph.propagation import Propagator, aggregated_log_likelihood, block_log_likelihood
from normalgraph.synthgen import ancestral_sample, random_message_pairs


def smooth_dataset(rng, m_in, m_out, n):
    return BlockDataset(
        forward=normalize(rng.uniform(0.05, 1.0, size=(n, m_in))),
        backward=normalize(rng.uniform(0.05, 1.0, size=(n, m_out))),
    )


def delta_dataset(rng, m_in, m_out, n, all_rows_hit=True):
    x = rng.integers(m_in, size=n)
    if all_rows_hit:
        x[:m_in] = np.arange(m_in)
    y = rng.integers(m_out, size=n)
    data = BlockDataset(forward=one_hot(x, m_in), backward=one_hot(y, m_out))
    return data, x, y


ONE_PAIR = BlockDataset(
    forward=np.array([[0.5, 0.5]]), backward=np.array([[0.8, 0.2]])
)


class TestFrozenUpdates:
    """Hand-computed one- and two-step values on a single message pair."""

    def test_ml_first_step(self):
        theta1 = ml_update(np.full((2, 2), 0.5), ONE_PAIR)
        np.testing.assert_allclose(theta1, [[0.8, 0.2], [0.8, 0.2]], atol=1e-14)

    def test_ml_second_step(self):
        theta1 = np.array([[0.8, 0.2], [0.8, 0.2]])
        theta2 = ml_update(theta1, ONE_PAIR)
        expected = np.array([[16.0, 1.0], [16.0, 1.0]]) / 17.0
        np.testing.assert_allclose(theta2, expected, atol=1e-14)

    def test_kl_first_step_then_fixed(self):
        """KL lands on the backward marginal and stays there."""
        theta1 = kl_update(np.full((2, 2), 0.5), ONE_PAIR)
        np.testing.assert_allclose(theta1, [[0.8, 0.2], [0.8, 0.2]], atol=1e-14)
        theta2 = kl_update(theta1, ONE_PAIR)
        np.testing.assert_allclose(theta2, theta1, atol=1e-14)

    def test_vit_single_pair(self):
        theta = vit_update(ONE_PAIR, delta=0.5)
        np.testing.assert_allclose(theta, [[0.75, 0.25], [0.75, 0.25]], atol=1e-14)

    def test_var_single_pair(self):
        theta = var_update(ONE_PAIR, delta=0.1)
        expected = np.array([[5.0, 2.0], [5.0, 2.0]]) / 7.0
        np.testing.assert_allclose(theta, expected, atol=1e-14)

    def test_var_with_pseudo_counts(self):
        alpha = np.array([[0.1, 0.3], [0.0, 0.0]])
        theta = var_update(ONE_PAIR, delta=0.1, alpha=alpha)
        expected = np.array([[6.0 / 11.0, 5.0 / 11.0], [5.0 / 7.0, 2.0 / 7.0]])
        np.testing.assert_allclose(theta, expected, atol=1e-14)


class TestUpdateProperties:
    def test_outputs_are_row_stochastic(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            m_in, m_out = rng.integers(2, 6, size=2)
            data = smooth_dataset(rng, m_in, m_out, 30)
            theta = normalize(rng.uniform(0.1, 1.0, size=(m_in, m_out)))
            for out in (
                ml_update(theta, data),
                kl_update(theta, data),
                vit_update(data, 1e-6),
                var_update(data, 1e-6),
            ):
                np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
                assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_uniform_data_fixes_uniform_theta(self):
        """Uniform theta with uniform messages is a fixed point of both
        iterative rules."""
        data = BlockDataset(forward=np.full((8, 3), 1 / 3), backward=np.full((8, 4), 0.25))
        theta = np.full((3, 4), 0.25)
        np.testing.assert_allclose(ml_update(theta, data), theta, atol=1e-15)
        np.testing.assert_allclose(kl_update(theta, data), theta, atol=1e-15)

    def test_ml_ascends_likelihood(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            m_in, m_out = rng.integers(2, 6, size=2)
            data = smooth_dataset(rng, m_in, m_out, int(rng.integers(10, 60)))
            theta = np.full((m_in, m_out), 1.0 / m_out)
            last = block_log_likelihood(theta, data)
            for _ in range(6):
                theta = ml_update(theta, data)
                now = block_log_likelihood(theta, data)
                assert now >= last - 1e-10
                last = now

    def test_kl_descends_divergence(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            m_in, m_out = rng.integers(2, 6, size=2)
            data = smooth_dataset(rng, m_in, m_out, int(rng.integers(10, 60)))
            theta = np.full((m_in, m_out), 1.0 / m_out)
            last = generalized_divergence(theta, data)
            for _ in range(6):
                theta = kl_update(theta, data)
                now = generalized_divergence(theta, data)
                assert now <= last + 1e-10
                last = now

    def test_first_ml_step_from_uniform_is_soft_counting(self):
        """From uniform rows the first likelihood step coincides with the
        soft co-occurrence rule at zero floor: the bilinear score is the
        constant 1/M_out, so the weighting cancels."""
        rng = np.random.default_rng(42)
        data = smooth_dataset(rng, 4, 3, 50)
        stepped = ml_update(np.full((4, 3), 1.0 / 3.0), data)
        counted = var_update(data, delta=0.0)
        np.testing.assert_allclose(stepped, counted, atol=1e-12)

    def test_delta_collapse_small_battery(self):
        """On instantiated pairs all four rules reduce to counting."""
        rng = np.random.default_rng(42)
        for _ in range(10):
            m_in, m_out = rng.integers(2, 5, size=2)
            data, x, y = delta_dataset(rng, m_in, m_out, int(rng.integers(30, 80)))
            table = cooccurrence_table(x, y, m_in, m_out)
            theta_ml = np.full((m_in, m_out), 1.0 / m_out)
            theta_kl = theta_ml.copy()
            for _ in range(5):
                theta_ml = ml_update(theta_ml, data)
                theta_kl = kl_update(theta_kl, data)
            np.testing.assert_allclose(theta_ml, table, atol=1e-6)
            np.testing.assert_allclose(theta_kl, table, atol=1e-6)
            np.testing.assert_allclose(vit_update(data, 1e-9), table, atol=1e-6)
            np.testing.assert_allclose(var_update(data, 1e-9), table, atol=1e-6)

    def test_scale_robustness(self):
        """Unnormalized message inputs give identical updates after the
        dataset's internal normalization."""
        rng = np.random.default_rng(42)
        f = rng.uniform(0.05, 1.0, size=(40, 4))
        b = rng.uniform(0.05, 1.0, size=(40, 3))
        scales_f = rng.uniform(0.5, 20.0, size=(40, 1))
        scales_b = rng.uniform(0.5, 20.0, size=(40, 1))
        base = BlockDataset(forward=f, backward=b)
        scaled = BlockDataset(forward=f * scales_f, backward=b * scales_b)
        theta = normalize(rng.uniform(0.1, 1.0, size=(4, 3)))
        np.testing.assert_allclose(
            ml_update(theta, scaled), ml_update(theta, base), atol=1e-12
        )
        np.testing.assert_allclose(
            kl_update(theta, scaled), kl_update(theta, base), atol=1e-12
        )
        np.testing.assert_allclose(
            var_update(scaled, 1e-6), var_update(base, 1e-6), atol=1e-12
        )

    def test_jensen_bound(self):
        """log of the bilinear score dominates the backward-weighted log of
        the forward prediction, summed over samples."""
        rng = np.random.default_rng(42)
        for _ in range(100):
            m_in, m_out = rng.integers(2, 6, size=2)
            data = smooth_dataset(rng, m_in, m_out, int(rng.integers(5, 40)))
            theta = normalize(rng.uniform(0.01, 1.0, size=(m_in, m_out)))
            lhs = block_log_likelihood(theta, data)
            predicted = data.forward @ theta
            rhs = float(np.sum(data.backward * np.log(predicted)))
            assert lhs >= rhs - 1e-10


class TestEmptyRowHandling:
    def test_iterative_rules_keep_previous_row(self):
        data = BlockDataset(
            forward=np.array([[0.5, 0.5]]),
            backward=np.array([[0.8, 0.2]]),
            mask=np.array([0.0]),
        )
        theta = np.array([[0.9, 0.1], [0.3, 0.7]])
        np.testing.assert_allclose(ml_update(theta, data), theta, atol=0)
        np.testing.assert_allclose(kl_update(theta, data), theta, atol=0)

    def test_counting_rules_fall_back_to_uniform(self):
        data = BlockDataset(
            forward=np.array([[0.5, 0.5]]),
            backward=np.array([[0.8, 0.2]]),
            mask=np.array([0.0]),
        )
        np.testing.assert_allclose(vit_update(data, 0.0), 0.5, atol=0)
        np.testing.assert_allclose(var_update(data, 0.0), 0.5, atol=0)


class TestDivergenceAndMultipliers:
    def test_divergence_zero_at_perfect_prediction(self):
        """When the prediction reproduces every backward message the
        divergence reduces to the constant total mass."""
        data = BlockDataset(
            forward=one_hot(np.array([0, 1, 0]), 2),
            backward=np.array([[0.3, 0.7], [0.6, 0.4], [0.3, 0.7]]),
        )
        theta = np.array([[0.3, 0.7], [0.6, 0.4]])
        np.testing.assert_allclose(generalized_divergence(theta, data), 3.0, atol=1e-9)

    def test_divergence_infinite_on_support_gap(self):
        data = BlockDataset(
            forward=np.array([[0.5, 0.5]]), backward=np.array([[0.3, 0.7]])
        )
        theta = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert generalized_divergence(theta, data) == float("inf")

    def test_multipliers_vanish_at_counting_solution(self):
        """With instantiated inputs the converged table has nonnegative
        multipliers that vanish on its support."""
        rng = np.random.default_rng(42)
        for _ in range(5):
            data, x, y = delta_dataset(rng, 3, 3, 60)
            theta = np.full((3, 3), 1.0 / 3.0)
            for _ in range(200):
                new = ml_update(theta, data)
                if np.max(np.abs(new - theta)) < 1e-12:
                    theta = new
                    break
                theta = new
            lam = kkt_multipliers(theta, data)
            assert np.all(lam >= -1e-8)
            assert np.max(np.abs(lam * theta)) <= 1e-6


class TestTrainBlock:
    def test_nit_controls_iterative_rules(self):
        rng = np.random.default_rng(42)
        data = smooth_dataset(rng, 3, 2, 25)
        theta = np.full((3, 2), 0.5)
        cfg = TrainConfig(algorithm="ml", nit=2)
        manual = ml_update(ml_update(theta, data), data)
        np.testing.assert_allclose(train_block(theta, data, cfg), manual, atol=0)

    def test_counting_rules_ignore_start(self):
        rng = np.random.default_rng(42)
        data = smooth_dataset(rng, 3, 2, 25)
        theta = normalize(rng.uniform(size=(3, 2)))
        out = train_block(theta, data, TrainConfig(algorithm="vit", nit=7, delta=1e-6))
        np.testing.assert_allclose(out, vit_update(data, 1e-6), atol=0)

    def test_source_block_one_row_reduction(self):
        rng = np.random.default_rng(42)
        backward = normalize(rng.uniform(size=(30, 4)))
        data = BlockDataset(forward=np.ones((30, 1)), backward=backward)
        prior_row = np.full((1, 4), 0.25)
        out = train_block(prior_row, data, TrainConfig(algorithm="var", delta=1e-6))
        assert out.shape == (1, 4)
        np.testing.assert_allclose(out, var_update(data, 1e-6), atol=0)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            TrainConfig(algorithm="adam")


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("epochs", -1), ("nit", 0), ("delta", -1e-9), ("delta", float("nan")),
    ])
    def test_rejects_bad_settings(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_zero_epochs_and_zero_delta_are_valid(self):
        cfg = TrainConfig(epochs=0, delta=0.0)
        assert (cfg.epochs, cfg.delta) == (0, 0.0)

    def test_var_rejects_negative_delta(self):
        with pytest.raises(ValueError, match="delta"):
            var_update(ONE_PAIR, delta=-2.0)


# Message entries with exact zeros and the smallest subnormal among them.
MESSAGE_ENTRIES = st.sampled_from([0.0, 5e-324, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def rule_inputs(draw):
    """A row-stochastic start matrix and a dataset of nonnegative message
    batches with zeros, one-hots and subnormals, under a 0/1 mask that may
    select nothing."""
    m_in = draw(st.integers(1, 4))
    m_out = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))

    def batch(width):
        rows = []
        for _ in range(n):
            row = draw(st.lists(MESSAGE_ENTRIES, min_size=width, max_size=width))
            if sum(row) == 0.0:
                # A message needs some mass: make this row a one-hot.
                row[draw(st.integers(0, width - 1))] = 1.0
            rows.append(row)
        return np.array(rows)

    data = BlockDataset(
        forward=batch(m_in),
        backward=batch(m_out),
        mask=draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)),
    )
    theta = np.array(draw(st.lists(
        st.lists(MESSAGE_ENTRIES, min_size=m_out, max_size=m_out), min_size=m_in, max_size=m_in
    )))
    theta[theta.sum(axis=1) == 0.0] = 1.0
    delta = draw(st.sampled_from([0.0, 1e-6, 1.0]))
    return normalize(theta), data, delta


class TestRuleOutputsProperty:
    @settings(max_examples=300, deadline=None)
    @given(rule_inputs())
    def test_every_rule_returns_row_stochastic(self, inputs):
        theta, data, delta = inputs
        outputs = {
            "ml": ml_update(theta, data),
            "kl": kl_update(theta, data),
            "vit": vit_update(data, delta),
            "var": var_update(data, delta),
        }
        for name, out in outputs.items():
            assert out.shape == theta.shape, name
            assert np.all(np.isfinite(out)) and np.all(out >= 0.0), name
            np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=0, atol=1e-12, err_msg=name)


def observed_chain():
    """S -> X chain with the source replicated out to a terminal, so both
    ends of the block carry evidence."""
    chain = GraphSpec(
        variables=(("S", 2), ("X", 2)),
        sources=(SourceBlock("prior_S", "S", np.array([0.5, 0.5])),),
        blocks=(SisoBlock("P_X", "S", "X", np.eye(2)),),
    )
    return ensure_valid(split_variable(chain, "S"))


class TestEmTrain:
    def test_fully_observed_counting_recovery(self):
        """With evidence on both ends every algorithm reduces to counting
        and recovers the identity conditional."""
        generative = observed_chain()
        data = ancestral_sample(generative, 50, seed=3, keep_all=True)
        evidence = {"S_tap": data["S_tap"], "X": data["X"]}
        for algorithm in ALGORITHMS:
            cfg = TrainConfig(algorithm=algorithm, epochs=4, nit=3, seed=1)
            report = em_train(observed_chain(), evidence, cfg)
            learned = report.graph.block("P_X").theta
            np.testing.assert_allclose(learned, np.eye(2), atol=0.05)
            prior = report.graph.source("prior_S").prior
            empirical = np.bincount(data["S_tap"], minlength=2) / 50.0
            np.testing.assert_allclose(prior, empirical, atol=0.05)

    def test_zero_epochs_returns_initial_parameters(self):
        graph = observed_chain()
        cfg = TrainConfig(algorithm="ml", epochs=0)
        report = em_train(graph, {"S_tap": np.array([0, 1]), "X": np.array([0, 1])}, cfg)
        assert report.records == []
        np.testing.assert_allclose(report.graph.block("P_X").theta, 0.5, atol=0)
        assert np.isnan(report.final_train_loglik)

    def test_same_seed_reproduces_trajectory(self):
        from normalgraph.experiments import build_latent_star

        star = build_latent_star(generative=True)
        data = ancestral_sample(star, 60, seed=5)
        evidence = data.terminal_evidence(("X1", "X2", "X3"))
        cfg = TrainConfig(algorithm="ml", epochs=5, seed=9)
        a = em_train(build_latent_star(), evidence, cfg)
        b = em_train(build_latent_star(), evidence, cfg)
        assert [r.train_loglik for r in a.records] == [r.train_loglik for r in b.records]
        different = em_train(build_latent_star(), evidence, TrainConfig("ml", epochs=5, seed=10))
        assert [r.train_loglik for r in different.records] != [
            r.train_loglik for r in a.records
        ]

    def test_likelihood_improves_from_first_epoch(self):
        from normalgraph.experiments import build_latent_star

        star = build_latent_star(generative=True)
        data = ancestral_sample(star, 120, seed=1)
        evidence = data.terminal_evidence(("X1", "X2", "X3"))
        cfg = TrainConfig(algorithm="ml", epochs=20, seed=1)
        report = em_train(build_latent_star(), evidence, cfg)
        values = [r.train_loglik for r in report.records]
        assert all(np.isfinite(values))
        assert values[-1] >= values[0]

    def test_tol_stops_early(self):
        graph = observed_chain()
        evidence = {"S_tap": np.array([0, 1, 0, 1]), "X": np.array([0, 1, 0, 1])}
        cfg = TrainConfig(algorithm="ml", epochs=50, tol=1e-12)
        report = em_train(graph, evidence, cfg)
        assert len(report.records) < 50

    def test_mask_separates_train_and_test(self):
        from normalgraph.experiments import build_latent_star

        star = build_latent_star(generative=True)
        data = ancestral_sample(star, 80, seed=2)
        evidence = data.terminal_evidence(("X1", "X2", "X3"))
        mask = np.zeros(80)
        mask[:40] = 1.0
        cfg = TrainConfig(algorithm="ml", epochs=3, seed=1)
        report = em_train(build_latent_star(), evidence, cfg, mask)
        for record in report.records:
            assert np.isfinite(record.test_loglik)
            assert record.test_loglik != record.train_loglik

    def test_snapshots_recorded_when_asked(self):
        graph = observed_chain()
        evidence = {"S_tap": np.array([0, 1, 1]), "X": np.array([0, 1, 1])}
        cfg = TrainConfig(algorithm="var", epochs=3, record_coefficients=True)
        report = em_train(graph, evidence, cfg)
        assert sorted(report.snapshots) == [1, 2, 3]
        names = set(report.snapshots[1])
        assert names == {"prior_S", "P_X"}
        for matrix in report.snapshots[2].values():
            np.testing.assert_allclose(np.atleast_2d(matrix).sum(axis=1), 1.0, atol=1e-12)

    def test_fixed_blocks_stay_fixed(self):
        from normalgraph.experiments import build_deep_graph

        graph = build_deep_graph()
        generative = graph.with_parameters(
            {
                "prior_S1": np.array([0.4, 0.3, 0.2, 0.1]),
                "P_X1": normalize(np.random.default_rng(42).uniform(size=(4, 3))),
            }
        )
        data = ancestral_sample(generative, 30, seed=4)
        evidence = data.terminal_evidence(("X1", "X2", "X3"))
        cfg = TrainConfig(algorithm="vit", epochs=2, seed=1)
        report = em_train(graph, evidence, cfg)
        for name in ("join_S1S2_in1", "join_S1S2_in2", "join_Y2S3_in1", "join_Y2S3_in2"):
            assert np.array_equal(
                report.graph.block(name).theta, graph.block(name).theta
            )

    def test_bad_sample_lengths(self):
        graph = observed_chain()
        with pytest.raises(ValueError):
            em_train(
                graph,
                {"S_tap": np.array([0, 1]), "X": np.array([0])},
                TrainConfig(algorithm="ml", epochs=1),
            )
        with pytest.raises(ValueError):
            em_train(graph, {}, TrainConfig(algorithm="ml", epochs=1))

    def test_mask_length_must_match_samples(self):
        evidence = {"S_tap": np.array([0, 1, 1]), "X": np.array([0, 1, 0])}
        with pytest.raises(ValueError, match="expected 2"):
            em_train(observed_chain(), evidence, TrainConfig(epochs=1), mask=np.ones(2))

    def test_second_epoch_harvests_propagated_messages(self):
        """The first update consumes the random starting messages; from the
        second epoch on, the fully observed chain hands the block exact
        evidence deltas, so the result equals a direct update on them."""
        graph = observed_chain()
        s = np.array([0, 0, 1, 1, 0])
        x = np.array([0, 1, 1, 0, 0])
        report = em_train(
            graph, {"S_tap": s, "X": x}, TrainConfig(algorithm="var", epochs=2, delta=1e-6)
        )
        data = BlockDataset(forward=one_hot(s, 2), backward=one_hot(x, 2))
        np.testing.assert_allclose(
            report.graph.block("P_X").theta, var_update(data, 1e-6), atol=1e-12
        )

    def test_random_pairs_factory_reproducibility(self):
        a = random_message_pairs(4, 3, 10, seed=7)
        b = random_message_pairs(4, 3, 10, seed=7)
        assert np.array_equal(a.forward, b.forward)
        assert np.array_equal(a.backward, b.backward)


# What Propagator.run makes of each evidence form on the latent star: the
# sample count N, or None where the row counts disagree.
EVIDENCE_FORMS = {
    "hard scalars": ({"X1": 1, "X2": 0, "X3": 2}, 1),
    "shared soft beside columns": (
        {"X1": np.array([0.3, 0.7]), "X2": np.array([0, 1, 1, 0]), "X3": np.array([2, 0, 1, 1])},
        4,
    ),
    "shared soft alone": ({"X1": np.array([0.2, 0.8])}, 1),
    "one-row column": ({"X1": np.array([0, 1, 1]), "X2": np.array([1])}, None),
}


@pytest.mark.parametrize("form", list(EVIDENCE_FORMS))
def test_em_train_reads_evidence_like_the_propagator(form):
    """em_train takes N from the Propagator: its final score equals a fresh
    propagation of the same evidence under the learned graph."""
    evidence, n = EVIDENCE_FORMS[form]
    graph = build_latent_star()
    cfg = TrainConfig(algorithm="ml", epochs=2, seed=1)
    if n is None:
        with pytest.raises(ValueError, match="samples, expected"):
            Propagator(graph).run(evidence)
        with pytest.raises(ValueError, match="samples, expected"):
            em_train(graph, evidence, cfg)
        return
    assert Propagator(graph).run(evidence).n_samples == n
    report = em_train(graph, evidence, cfg)
    rescored = Propagator(report.graph).run(evidence)
    assert rescored.n_samples == n
    np.testing.assert_allclose(
        report.final_train_loglik,
        aggregated_log_likelihood(rescored, tuple(evidence)),
        rtol=1e-12,
    )


def star_joint_loglik(params, evidence) -> float:
    """Sum over samples of log sum_s pi(s) prod_i theta_i[s, x_i]."""
    mass = params["prior_S"][None, :]
    for i in (1, 2, 3):
        mass = mass * params[f"P_X{i}"][:, evidence[f"X{i}"]].T
    return float(np.sum(np.log(mass.sum(axis=1))))


def deep_joint_loglik(params, evidence) -> float:
    joint = deep_terminal_joint(params)
    return float(np.sum(np.log(joint[evidence["X1"], evidence["X2"], evidence["X3"]])))


def falls(values) -> list[tuple[int, float]]:
    """(epoch, relative fall) wherever the series drops from one epoch to the next."""
    return [(epoch, (before - after) / abs(before))
            for epoch, (before, after) in enumerate(zip(values, values[1:]), start=2)
            if after < before]


class TestJointAscent:
    """Every ml epoch is an EM step, so the joint log-likelihood of the
    training samples never falls.  The recorded ``train_loglik`` is a sum
    of conditionals, log P(x_i | other terminals), which EM does not
    promise to raise; its falls are printed, not asserted."""

    @pytest.mark.parametrize("graph_name, seed, nit, n, epochs", [
        *(("star", seed, nit, 400, 150) for seed in (1, 2, 3) for nit in (1, 3)),
        ("deep", 1, 1, 100, 100),
        ("deep", 3, 3, 100, 200),  # train_loglik falls here from epoch 67 on
    ])
    def test_ml_never_lowers_the_joint(self, graph_name, seed, nit, n, epochs):
        if graph_name == "star":
            generative, learner = build_latent_star(generative=True), build_latent_star()
            joint_loglik = star_joint_loglik
        else:
            learner = build_deep_graph()
            generative = learner.with_parameters(deep_generative_parameters(seed))
            joint_loglik = deep_joint_loglik
        evidence = ancestral_sample(generative, n, seed=seed).terminal_evidence(("X1", "X2", "X3"))
        cfg = TrainConfig(algorithm="ml", epochs=epochs, nit=nit, seed=seed,
                          record_coefficients=True)
        report = em_train(learner, evidence, cfg)
        joint = [joint_loglik(report.snapshots[e], evidence) for e in sorted(report.snapshots)]
        assert len(joint) == epochs and all(np.isfinite(joint))
        worst = max((fall for _, fall in falls(joint)), default=0.0)
        assert worst <= 1e-11, f"joint log-likelihood fell by {worst:.3g} relative"
        conditional = falls([r.train_loglik for r in report.records])
        print(f"{graph_name} seed {seed} nit {nit}: train_loglik fell at {len(conditional)} "
              f"epochs, first at {conditional[0][0] if conditional else None}, largest "
              f"{max((f for _, f in conditional), default=0.0):.2g} relative")
