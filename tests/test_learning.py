"""Unit tests for the four block-update rules and the EM driver."""

import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (cooccurrence_table, deep_terminal_joint, random_bayes_tree, reference_em,
                     reference_bilinear, reference_kl, reference_ml, reference_normalize,
                     reference_var, reference_vit, tree_leaf_joint)
from normalgraph.experiments import (
    build_deep_graph,
    build_latent_star,
    deep_generative_parameters,
    random_message_pairs,
    split_mask,
)
from normalgraph.graph import (
    GraphSpec,
    SisoBlock,
    SourceBlock,
    graph_digest,
    load_graph,
    save_graph,
    split_variable,
)
from normalgraph import learning, propagation
from normalgraph.learning import (
    ALGORITHMS,
    BlockDataset,
    TrainConfig,
    block_log_likelihood,
    em_train,
    generalized_divergence,
    kkt_multipliers,
    kl_update,
    ml_update,
    train_block,
    var_update,
    vit_update,
)
from normalgraph.messages import _SUM_SLACK, MAX_DELTA, _require_delta, normalize, one_hot
from normalgraph.propagation import (
    ContradictoryEvidence,
    Propagator,
    aggregated_log_likelihood,
)
from normalgraph.synthgen import ancestral_sample


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

    @pytest.mark.parametrize("function, nit", [
        ("ml_update", 1), ("kl_update", 1), ("train_block ml", 1), ("train_block ml", 3),
        ("train_block kl", 1), ("train_block kl", 3)])
    def test_all_zero_row_of_a_given_theta_becomes_uniform(self, function, nit):
        """An all-zero row of the given matrix has no mass to fall back on, so
        it takes the counting rules' fallback and its first step makes it
        uniform, with no 0/0 (RuntimeWarnings are errors here); it made NaN.
        Later steps start from that matrix: ml keeps the row uniform on these
        uniform messages, while kl's second step moves it."""
        theta = np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.0]])
        data = BlockDataset(np.full((3, 2), 0.5), np.full((3, 3), 1 / 3))
        algorithm = function[-2:] if function.startswith("train_block") else function[:2]
        if function.startswith("train_block"):
            out = train_block(theta, data, TrainConfig(algorithm, nit=nit))
        else:
            out = {"ml": ml_update, "kl": kl_update}[algorithm](theta, data)
        first = train_block(theta, data, TrainConfig(algorithm, nit=1))
        assert np.all(np.isfinite(out)) and np.all(out >= 0.0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(first[0], np.full(3, 1 / 3))
        if nit == 1 or algorithm == "ml":
            np.testing.assert_allclose(out[0], 1 / 3, rtol=1e-15, atol=0)
        rest = train_block(first, data, TrainConfig(algorithm, nit=nit - 1)) if nit > 1 else first
        assert out.tobytes() == rest.tobytes()


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

    @pytest.mark.parametrize("arrays, problem", [
        ((np.full(3, 0.5), np.full((3, 2), 0.5)), r"expected \(n_samples, alphabet\)"),
        ((np.full((3, 2), 0.5), np.full((4, 2), 0.5)), "sample counts differ"),
        ((np.full((3, 2), 0.5), np.full((3, 2), 0.5), np.ones(4)), "mask length"),
    ], ids=["1-d", "sample counts", "mask length"])
    def test_dataset_rejects_mismatched_arrays(self, arrays, problem):
        with pytest.raises(ValueError, match=problem):
            BlockDataset(*arrays)

    PUBLIC_RULES = {"ml": lambda d: ml_update(np.full((2, 2), 0.5), d),
                    "kl": lambda d: kl_update(np.full((2, 2), 0.5), d),
                    "vit": vit_update, "var": var_update}

    @pytest.mark.parametrize("rule", PUBLIC_RULES)
    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_dataset_rejects_a_negative_or_non_finite_mask(self, rule, bad):
        """Such a weight made var and vit return negative or NaN entries, and
        inf made every rule return NaN rows: the dataset refuses it."""
        f, b = [[.7, .3], [.2, .8], [.5, .5]], [[.9, .1], [.4, .6], [.3, .7]]
        with pytest.raises(ValueError, match="mask entries must be finite and nonnegative"):
            self.PUBLIC_RULES[rule](BlockDataset(f, b, mask=[bad, 1.0, 1.0]))

    @pytest.mark.parametrize("rule", PUBLIC_RULES)
    def test_nonnegative_real_weights_stay_valid(self, rule):
        f, b = [[.7, .3], [.2, .8], [.5, .5]], [[.9, .1], [.4, .6], [.3, .7]]
        theta = self.PUBLIC_RULES[rule](BlockDataset(f, b, mask=[0.0, 2.5, 1e-3]))
        assert np.all(np.isfinite(theta)) and np.all(theta >= 0.0)
        np.testing.assert_allclose(theta.sum(axis=1), 1.0, rtol=0, atol=1e-12)


class TestThetaBoundary:
    """Every public function that takes a block matrix checks it against its
    dataset (here L = 2, M = 3): anything but an (L, M) matrix of finite,
    nonnegative entries raises one ValueError, and so does None under ml
    and kl.  A NaN matrix made ml_update return NaN rows, and a wrongly
    shaped one let numpy's matmul error escape."""

    DATA = BlockDataset(forward=np.full((3, 2), 0.5), backward=np.full((3, 3), 1 / 3))
    FUNCTIONS = {
        "train_block ml": lambda theta, data: train_block(theta, data, TrainConfig("ml")),
        "train_block kl": lambda theta, data: train_block(theta, data, TrainConfig("kl")),
        "train_block vit": lambda theta, data: train_block(theta, data, TrainConfig("vit")),
        "train_block var": lambda theta, data: train_block(theta, data, TrainConfig("var")),
        "ml_update": ml_update,
        "kl_update": kl_update,
        "block_log_likelihood": block_log_likelihood,
        "kkt_multipliers": kkt_multipliers,
        "generalized_divergence": generalized_divergence,
    }
    SHAPES = {"(3, 3)": np.full((3, 3), 1 / 3), "(3,)": np.full(3, 1 / 3),
              "(3, 2)": np.full((3, 2), 0.5), "(1, 2, 3)": np.full((1, 2, 3), 1 / 3)}
    ENTRIES = {"NaN": np.full((2, 3), np.nan), "inf": [[np.inf, 0, 0], [0.5, 0.5, 0]],
               "-inf": [[-np.inf, 1, 0], [0.5, 0.5, 0]], "negative": [[1.5, -0.5, 0], [1, 0, 0]]}

    @pytest.mark.parametrize("function", FUNCTIONS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_wrong_shape_names_both_shapes(self, function, shape):
        with pytest.raises(ValueError, match=rf"theta must have shape \(2, 3\), got "
                                             rf"{re.escape(shape)}$"):
            self.FUNCTIONS[function](self.SHAPES[shape], self.DATA)

    @pytest.mark.parametrize("function", FUNCTIONS)
    @pytest.mark.parametrize("entries", ENTRIES)
    def test_non_finite_or_negative_entries(self, function, entries):
        with pytest.raises(ValueError, match="theta entries must be finite and nonnegative"):
            self.FUNCTIONS[function](self.ENTRIES[entries], self.DATA)

    @pytest.mark.parametrize("function", [name for name in FUNCTIONS
                                          if name not in ("train_block vit", "train_block var")])
    def test_none_is_refused_where_theta_is_read(self, function):
        with pytest.raises(ValueError, match=r"theta must have shape \(2, 3\), got None$"):
            self.FUNCTIONS[function](None, self.DATA)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_the_epoch_loop_checks_no_theta(self, monkeypatch, algorithm):
        """em_train's epochs call the kernels directly: no theta is checked."""
        checked, calls = learning._checked, []
        monkeypatch.setattr(learning, "_checked", lambda *args: calls.append(1) or checked(*args))
        learner, generative = study_graphs("deep", seed=1)
        evidence = ancestral_sample(generative, 300, seed=1).terminal_evidence(("X1", "X2", "X3"))
        em_train(learner, evidence, TrainConfig(algorithm, epochs=3, seed=1))
        assert calls == []
        train_block(np.full((2, 3), 1 / 3), self.DATA, TrainConfig(algorithm))
        assert calls == [1]  # the counter is live


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("epochs", -1), ("nit", 0), ("delta", -1e-9), ("delta", float("nan")),
        ("delta", float("inf")), ("delta", 1e101),
        ("epochs", 2.5), ("epochs", True), ("nit", 2.5), ("nit", True), ("seed", -3),
        ("seed", 1.0), ("tol", float("nan")), ("tol", -1.0), ("tol", 0.0), ("tol", float("inf")),
    ])
    def test_rejects_bad_settings(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_zero_epochs_and_zero_delta_are_valid(self):
        cfg = TrainConfig(epochs=0, delta=0.0)
        assert (cfg.epochs, cfg.delta) == (0, 0.0)

    def test_numpy_integers_and_a_positive_tol_are_valid(self):
        cfg = TrainConfig(epochs=np.int64(3), nit=np.int32(2), seed=np.uint64(0), tol=1e-9)
        assert (cfg.epochs, cfg.nit, cfg.seed, cfg.tol) == (3, 2, 0, 1e-9)

    def test_var_rejects_negative_delta(self):
        """Both counting rules reject a negative or non-finite delta."""
        for update in (var_update, vit_update):
            for delta in (-2.0, float("nan"), float("inf")):
                with pytest.raises(ValueError, match="delta must be nonnegative and finite"):
                    update(ONE_PAIR, delta=delta)

    def test_delta_ceiling(self):
        """Both counting rules reject a delta above MAX_DELTA, and train to
        finite row-stochastic matrices at it."""
        above = np.nextafter(MAX_DELTA, np.inf)
        for update in (var_update, vit_update):
            with pytest.raises(ValueError, match="delta must be at most 1e\\+100"):
                update(ONE_PAIR, delta=above)
        learner, generative = study_graphs("star", seed=1)
        evidence = ancestral_sample(generative, 100, seed=1).terminal_evidence(("X1", "X2", "X3"))
        for algorithm in ("vit", "var"):
            report = em_train(learner, evidence, TrainConfig(algorithm, epochs=3, delta=MAX_DELTA))
            for record in report.records:
                assert np.isfinite([record.train_loglik, record.test_loglik]).all()
                for matrix in record.parameters.values():
                    matrix = np.atleast_2d(matrix)
                    assert np.isfinite(matrix).all() and (matrix >= 0).all()
                    np.testing.assert_allclose(matrix.sum(axis=1), 1.0, rtol=0, atol=1e-12)


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


@st.composite
def bilinear_inputs(draw):
    """(f, theta, b): 1-200 rows of messages and a row-stochastic theta,
    each 1-12 wide.  Entries are uniform draws, a drawn share of them set
    to 0 or MESSAGE_FLOOR, with every row scaled to unit sum."""
    m_in, m_out, n = draw(st.integers(1, 12)), draw(st.integers(1, 12)), draw(st.integers(1, 200))
    special = draw(st.sampled_from([0.0, 0.3, 0.9, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def rows(shape):
        values = rng.uniform(size=shape)
        planted = rng.uniform(size=shape) < special
        values[planted] = rng.choice([0.0, learning.MESSAGE_FLOOR], size=int(planted.sum()))
        values[values.sum(axis=1) == 0.0, 0] = 1.0
        return values / values.sum(axis=1, keepdims=True)

    return rows((n, m_in)), rows((m_in, m_out)), rows((n, m_out))


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
    return split_variable(chain, "S")


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

    def test_records_hold_each_epochs_parameters(self):
        graph = observed_chain()
        evidence = {"S_tap": np.array([0, 1, 1]), "X": np.array([0, 1, 1])}
        report = em_train(graph, evidence, TrainConfig(algorithm="var", epochs=3))
        assert [record.epoch for record in report.records] == [1, 2, 3]
        assert set(report.records[0].parameters) == {"prior_S", "P_X"}
        for matrix in report.records[1].parameters.values():
            np.testing.assert_allclose(np.atleast_2d(matrix).sum(axis=1), 1.0, atol=1e-12)
        final = report.records[-1].parameters
        np.testing.assert_array_equal(final["prior_S"], report.graph.source("prior_S").prior)
        np.testing.assert_array_equal(final["P_X"], report.graph.block("P_X").theta)

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

    @pytest.mark.parametrize("entry", [-1.0, float("nan"), 0.5])
    def test_mask_entries_must_be_0_or_1(self, entry):
        evidence = {"S_tap": np.array([0, 1, 1]), "X": np.array([0, 1, 0])}
        with pytest.raises(ValueError, match="mask entries must be 0 or 1"):
            em_train(observed_chain(), evidence, TrainConfig(epochs=1),
                     mask=np.array([1.0, entry, 0.0]))

    def test_mask_must_select_a_training_sample(self):
        evidence = {"S_tap": np.array([0, 1, 1]), "X": np.array([0, 1, 0])}
        with pytest.raises(ValueError, match="mask selects no training sample"):
            em_train(observed_chain(), evidence, TrainConfig(epochs=1), mask=np.zeros(3))
        # No samples at all is not an empty selection: the run trains on nothing.
        empty = {"S_tap": np.zeros(0, dtype=int), "X": np.zeros(0, dtype=int)}
        report = em_train(observed_chain(), empty, TrainConfig(epochs=2), mask=np.zeros(0))
        assert [r.train_loglik for r in report.records] == [0.0, 0.0]

    def test_boolean_mask_trains_like_its_0_1_form(self):
        learner, generative = study_graphs("star", seed=1)
        evidence = ancestral_sample(generative, 50, seed=1).terminal_evidence(("X1", "X2", "X3"))
        cfg = TrainConfig(epochs=3)
        a = em_train(learner, evidence, cfg, mask=split_mask(50, 0.8) > 0)
        b = em_train(learner, evidence, cfg, mask=split_mask(50, 0.8))
        assert [(r.train_loglik, r.test_loglik) for r in a.records] == [
            (r.train_loglik, r.test_loglik) for r in b.records]

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


def study_graphs(name: str, seed: int):
    """(learner, generative) for the latent star or the deep graph."""
    if name == "star":
        return build_latent_star(), build_latent_star(generative=True)
    learner = build_deep_graph()
    return learner, learner.with_parameters(deep_generative_parameters(seed))


def assert_same_training(a, b, epochs: int) -> tuple[float, float]:
    """Every epoch's log-likelihoods of two runs agree within 1e-12
    relative and every epoch's parameters within 1e-10 absolute; returns the
    largest relative loglik and absolute parameter differences."""
    assert len(a.records) == len(b.records) == epochs
    worst_ll = worst_param = 0.0
    for x, y in zip(a.records, b.records):
        for u, v in ((x.train_loglik, y.train_loglik), (x.test_loglik, y.test_loglik)):
            np.testing.assert_allclose(u, v, rtol=1e-12, atol=0, err_msg=f"epoch {x.epoch}")
            worst_ll = max(worst_ll, abs(u - v) / abs(v))
        for name, value in x.parameters.items():
            other = y.parameters[name]
            np.testing.assert_allclose(value, other, rtol=0, atol=1e-10,
                                       err_msg=f"{name} epoch {x.epoch}")
            worst_param = max(worst_param, float(np.max(np.abs(value - other))))
    return worst_ll, worst_param


class TestCountedRows:
    """Integer columns train on their distinct rows weighted by count; the
    same evidence as one-hot soft factors cannot be merged and trains per
    sample.  Only the order of the sums over samples differs."""

    @pytest.mark.parametrize("split", [1.0, 0.8])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("graph_name, n", [("star", 400), ("deep", 300)])
    def test_counted_rows_train_like_samples(self, graph_name, n, algorithm, split):
        learner, generative = study_graphs(graph_name, seed=2)
        evidence = ancestral_sample(generative, n, seed=2).terminal_evidence(("X1", "X2", "X3"))
        soft = {v: one_hot(column, learner.sizes[v]) for v, column in evidence.items()}
        propagator = Propagator(learner)
        assert propagator.distinct_rows(evidence, n)[1] < n
        assert propagator.distinct_rows(soft, n)[1] == n
        mask = split_mask(n, split)
        cfg = TrainConfig(algorithm, epochs=200, seed=2)
        assert_same_training(em_train(learner, evidence, cfg, mask),
                             em_train(learner, soft, cfg, mask), epochs=200)

    def test_contradiction_names_samples(self):
        """A merged run that meets contradictory evidence reports the
        sample indices, not the merged row indices, as does an unmerged
        run on the same evidence in one-hot soft form."""
        generative = build_latent_star(generative=True)
        evidence = ancestral_sample(generative, 60, seed=1).terminal_evidence(("X1", "X2", "X3"))
        x1 = evidence["X1"].copy()
        x1[:40][x1[:40] == 1] = 0  # X1 = 1 only among the held-out samples
        evidence["X1"] = x1
        learner = build_latent_star()
        soft = {v: one_hot(column, learner.sizes[v]) for v, column in evidence.items()}
        assert Propagator(learner).distinct_rows(evidence, 60)[1] < 60
        assert Propagator(learner).distinct_rows(soft, 60)[1] == 60
        for form in (evidence, soft):
            with pytest.raises(ContradictoryEvidence) as caught:
                em_train(learner, form, TrainConfig("ml", epochs=3), split_mask(60, 40 / 60))
            assert str(caught.value) == (
                "no consistent backward message at variable 'S1' for sample(s) [40, 46, 47, 50, 54]"
            )

    def test_out_of_range_symbol_is_reported_before_merging(self):
        evidence = {"X1": np.array([0, 1, 1, 2]), "X2": np.array([0, 0, 0, 0])}
        with pytest.raises(ValueError, match="evidence symbol out of range for variable 'X1'"):
            em_train(build_latent_star(), evidence, TrainConfig(epochs=1))


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


def joint_trajectory(graph_name, seed, nit, n, epochs, split=1.0):
    """Train ml and return (report, the exact joint log-likelihood of the
    training samples after every epoch)."""
    learner, generative = study_graphs(graph_name, seed)
    joint_loglik = star_joint_loglik if graph_name == "star" else deep_joint_loglik
    evidence = ancestral_sample(generative, n, seed=seed).terminal_evidence(("X1", "X2", "X3"))
    mask = split_mask(n, split)
    cfg = TrainConfig(algorithm="ml", epochs=epochs, nit=nit, seed=seed)
    report = em_train(learner, evidence, cfg, mask)
    train = {v: column[mask > 0] for v, column in evidence.items()}
    joint = [joint_loglik(record.parameters, train) for record in report.records]
    assert len(joint) == epochs and all(np.isfinite(joint))
    return report, joint


class TestJointAscent:
    """An ml epoch with nit=1 is an EM step: the E-step is the epoch's
    propagation and each block's update maximizes its part of the expected
    complete log-likelihood.  So the joint log-likelihood of the training
    samples never falls.  With nit > 1 each block takes nit steps against
    the same frozen message snapshot, which is coordinate ascent only when
    a single block moves; the joint may then fall, and where it does the
    falls are printed, not asserted.  The recorded ``train_loglik`` is a
    sum of conditionals, log P(x_i | other terminals), which EM does not
    promise to raise either; its falls are printed, not asserted."""

    @pytest.mark.parametrize("graph_name, seed, nit, n, epochs", [
        *(("star", seed, nit, 400, 150) for seed in (1, 2, 3) for nit in (1, 3)),
        ("deep", 1, 1, 100, 100),
        ("deep", 3, 3, 100, 200),  # train_loglik falls here from epoch 67 on
    ])
    def test_ml_never_lowers_the_joint(self, graph_name, seed, nit, n, epochs):
        """nit=1 cases, and nit=3 cases on which the joint is seen to rise."""
        report, joint = joint_trajectory(graph_name, seed, nit, n, epochs)
        worst = max((fall for _, fall in falls(joint)), default=0.0)
        assert worst <= 1e-11, f"joint log-likelihood fell by {worst:.3g} relative"
        conditional = falls([r.train_loglik for r in report.records])
        print(f"{graph_name} seed {seed} nit {nit}: train_loglik fell at {len(conditional)} "
              f"epochs, first at {conditional[0][0] if conditional else None}, largest "
              f"{max((f for _, f in conditional), default=0.0):.2g} relative")

    def test_one_step_never_lowers_the_joint_on_a_split(self):
        """The 80/20 split of the deep graph on which nit=3 lowers the joint."""
        _, joint = joint_trajectory("deep", 5, 1, 300, 600, split=0.8)
        worst = max((fall for _, fall in falls(joint)), default=0.0)
        assert worst <= 1e-11, f"joint log-likelihood fell by {worst:.3g} relative"

    def test_several_steps_can_lower_the_joint(self):
        """The same run with nit=3: its joint falls at 46 epochs from epoch 461 on,
        by up to 5.3 nats."""
        _, joint = joint_trajectory("deep", 5, 3, 300, 600, split=0.8)
        fell = [(epoch, joint[epoch - 2] - joint[epoch - 1]) for epoch, _ in falls(joint)]
        largest = max((nats for _, nats in fell), default=0.0)
        print(f"deep seed 5 nit 3 split 0.8: joint fell at {len(fell)} epochs, first at "
              f"{fell[0][0] if fell else None}, largest {largest:.3g} nats; joint "
              f"{joint[449]:.2f} at epoch 450, {joint[499]:.2f} at 500, {joint[-1]:.2f} at 600")


class TestBilinearKernel:
    """The score f_n' theta b_n of ``ml``'s M-step, ``kkt_multipliers`` and
    ``block_log_likelihood`` is a matrix product followed by a row-wise dot.
    It rounds differently from the three-operand sum it replaced
    (``oracles.reference_bilinear``), so it is held to a rounding bound
    rather than to the bits."""

    @settings(max_examples=200, deadline=None)
    @given(inputs=bilinear_inputs())
    def test_scores_within_the_rounding_bound(self, inputs):
        """All terms are nonnegative and at most 1.  Each library term goes
        through at most L + M roundings and each reference term through at
        most L M + 1, so the scores differ by at most (L M + L + M + 2) u
        relative (u = 2**-53), plus one smallest subnormal per rounding
        where products underflow."""
        f, theta, b = inputs
        k = theta.size + sum(theta.shape) + 2
        scores = learning._bilinear(f, theta, b)
        assert scores.shape == (len(f),) and scores.dtype == np.float64
        np.testing.assert_allclose(scores, reference_bilinear(f, theta, b),
                                   rtol=k * 2.0**-53, atol=2 * k * 2.0**-1074)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("split", [1.0, 0.8])
    @pytest.mark.parametrize("graph_name, n", [("star", 400), ("deep", 300)])
    def test_ml_trains_like_the_reference_formula(self, monkeypatch, graph_name, n, split, seed):
        learner, generative = study_graphs(graph_name, seed)
        evidence = ancestral_sample(generative, n, seed=seed).terminal_evidence(("X1", "X2", "X3"))
        cfg = TrainConfig("ml", epochs=200, seed=seed)
        library = em_train(learner, evidence, cfg, split_mask(n, split))
        monkeypatch.setattr(learning, "_bilinear", lambda f, theta, b: np.array(
            [reference_bilinear(*unit) for unit in zip(f, theta, b)]).reshape(f.shape[:-1]))
        reference = em_train(learner, evidence, cfg, split_mask(n, split))
        worst_ll, worst_param = assert_same_training(library, reference, epochs=200)
        print(f"{graph_name} N={n} split {split} seed {seed}: logliks within "
              f"{worst_ll:.2g} relative, parameters within {worst_param:.2g}")


def recorded_unit_inputs(monkeypatch, units) -> list:
    """Patch the ml kernel so that each unit's (f, b, w) in each call is
    kept, cut from its stack to the unit's own width; also checks that the
    padding around it is 0."""
    seen = []
    kernel = learning._ml

    def recording(theta, f, b, w, nit, live):
        for stacked_f, stacked_b in zip(f, b):
            unit = units[len(seen)]
            width_f = 1 if isinstance(unit, SourceBlock) else unit.theta.shape[0]
            width_b = (unit.prior if isinstance(unit, SourceBlock) else unit.theta).shape[-1]
            assert not stacked_f[:, width_f:].any() and not stacked_b[:, width_b:].any()
            seen.append((stacked_f[:, :width_f], stacked_b[:, :width_b], w))
        return kernel(theta, f, b, w, nit, live)

    monkeypatch.setattr(learning, "_ml", recording)
    return seen


def first_step_mask(kind, n: int) -> np.ndarray | None:
    """A 0/1 training mask over n samples: None, the leading round(0.8 n)
    (at n = 1 that is every sample), a trailing block (from n // 4 on), a
    scattered random mask (at least one sample), a single sample in the middle,
    or all ones."""
    rows = np.arange(n)
    if kind is None:
        return None
    if kind == 0.8:
        chosen = rows < round(0.8 * n)
    elif kind == "trailing":
        chosen = rows >= n // 4
    elif kind == "scattered":
        chosen = np.random.default_rng(n).random(n) < 0.7
        chosen[n // 3] = True
    elif kind == "single":
        chosen = rows == n // 2
    else:
        chosen = np.ones(n, dtype=bool)
    return chosen.astype(float)


class TestRandomStart:
    """em_train draws only the random-start slots its first M-step reads,
    and of those only the training rows (mask > 0), skipping every other
    draw in the generator's stream.  What the first M-step's kernel is given
    must still equal, bit for bit, the training rows of the same slots of
    the full ``initial_state`` (the kernel floors its own copies), weighted
    by ones; this pins the skip arithmetic to numpy's generator."""

    @pytest.mark.parametrize("graph_name, n, split", [
        (graph_name, n, split) for graph_name in ("star", "deep")
        for n in (0, 1, 100, 400, 5000)
        for split in (None, 0.8, "trailing", "scattered", "single", "ones")
        if n > 0 or split in (None, "ones")])
    def test_first_m_step_reads_the_full_random_start(self, monkeypatch, graph_name, n, split):
        learner, generative = study_graphs(graph_name, seed=3)
        evidence = ancestral_sample(generative, n, seed=3).terminal_evidence(("X1", "X2", "X3"))
        mask = first_step_mask(split, n)
        units = learner.trainable_units()
        seen = recorded_unit_inputs(monkeypatch, units)
        try:
            em_train(learner, evidence, TrainConfig("ml", epochs=1, seed=5), mask)
        except ContradictoryEvidence:  # after the M-step: one sample seen, a held-out one not
            assert split == "single"
        full = Propagator(learner).initial_state(evidence, n, rng=np.random.default_rng(5))
        train = np.ones(n, dtype=bool) if mask is None else mask > 0
        assert len(seen) == len(units)
        for unit, (f, b, w) in zip(units, seen):
            if isinstance(unit, SourceBlock):
                assert np.array_equal(f, np.ones((train.sum(), 1)))
                assert np.array_equal(b, full.backward[unit.variable][train])
            else:
                assert np.array_equal(f, full.forward[unit.from_var][train])
                assert np.array_equal(b, full.backward[unit.to_var][train])
            assert np.array_equal(w, np.ones(train.sum()))

    @pytest.mark.parametrize("split", [0.8, "scattered"])
    @pytest.mark.parametrize("n", [300, 5000])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("graph_name", ["star", "deep"])
    def test_first_epoch_trains_like_the_weighted_full_start(self, graph_name, algorithm, n,
                                                            split):
        """Epoch 1 on the training rows alone matches ``train_block`` on all
        rows of the full random start under the 0/1 mask, and the scores of
        those parameters, within 1e-12 relative on log-likelihoods and 1e-10
        absolute on parameters."""
        learner, generative = study_graphs(graph_name, seed=6)
        evidence = ancestral_sample(generative, n, seed=6).terminal_evidence(("X1", "X2", "X3"))
        mask = first_step_mask(split, n)
        cfg = TrainConfig(algorithm, epochs=1, seed=7)
        record = em_train(learner, evidence, cfg, mask).records[0]
        full = Propagator(learner).initial_state(evidence, n, rng=np.random.default_rng(7))
        expected = {}
        for unit in learner.trainable_units():
            if isinstance(unit, SourceBlock):
                m = unit.prior.size
                data = BlockDataset(np.ones((n, 1)), full.backward[unit.variable], mask)
                expected[unit.name] = train_block(np.full((1, m), 1.0 / m), data, cfg)[0]
            else:
                l, m = unit.theta.shape
                data = BlockDataset(full.forward[unit.from_var], full.backward[unit.to_var], mask)
                expected[unit.name] = train_block(np.full((l, m), 1.0 / m), data, cfg)
        assert record.parameters.keys() == expected.keys()
        for name, value in expected.items():
            np.testing.assert_allclose(record.parameters[name], value, rtol=0, atol=1e-10,
                                       err_msg=name)
        state = Propagator(learner.with_parameters(expected)).run(evidence)
        for score, weights in ((record.train_loglik, mask), (record.test_loglik, 1.0 - mask)):
            np.testing.assert_allclose(
                score, aggregated_log_likelihood(state, tuple(evidence), weights), rtol=1e-12)


def open_ends(graph: GraphSpec) -> set[tuple[str, str]]:
    """The message slots that take evidence: ("F", v) where nothing produces
    v and ("B", v) where nothing consumes it, read off the GraphSpec."""
    produced = {s.variable for s in graph.sources} | {b.to_var for b in graph.blocks}
    produced |= {v for d in graph.diverters for v in d.taps}
    consumed = {b.from_var for b in graph.blocks} | {v for d in graph.diverters for v in d.inbound}
    return ({("F", v) for v, _ in graph.variables if v not in produced}
            | {("B", v) for v, _ in graph.variables if v not in consumed})


class TestRandomStartIsNumpys:
    """``initial_state(rng=...)`` is numpy's stream, recomputed here without
    the library: one ``Generator.uniform`` (N, size) draw per slot that
    takes no evidence, in declaration order (("F", v), then ("B", v), for
    each variable in turn), each row scaled to unit sum by the reference
    formula.  Evidence slots draw nothing."""

    @pytest.mark.parametrize("observed", [("X1", "X2", "X3"), ("X2",)])
    @pytest.mark.parametrize("n", [1, 400, 5000])
    @pytest.mark.parametrize("graph_name", ["star", "deep"])
    def test_draws_match_an_independent_recomputation(self, graph_name, n, observed):
        learner, generative = study_graphs(graph_name, seed=4)
        evidence = ancestral_sample(generative, n, seed=4).terminal_evidence(observed)
        state = Propagator(learner).initial_state(evidence, rng=np.random.default_rng(9))
        rng = np.random.default_rng(9)
        evidence_slots = open_ends(learner)
        for var, size in learner.variables:
            for direction, store in (("F", state.forward), ("B", state.backward)):
                if (direction, var) in evidence_slots:
                    continue
                expected = reference_normalize(rng.uniform(size=(n, size)), _SUM_SLACK)
                assert store[var].tobytes() == expected.tobytes(), (direction, var)
        for direction, var in evidence_slots:
            store = state.forward if direction == "F" else state.backward
            expected = one_hot(evidence[var], learner.sizes[var]) if var in evidence else (
                np.full((n, learner.sizes[var]), 1.0 / learner.sizes[var]))
            assert np.array_equal(store[var], expected), (direction, var)

    @pytest.mark.parametrize("observed", [("X1", "X2", "X3"), ("X2",)])
    @pytest.mark.parametrize("n", [0, 1, 400, 5000])
    @pytest.mark.parametrize("graph_name", ["star", "deep"])
    def test_generator_is_left_after_the_last_slot(self, graph_name, n, observed):
        """Whatever order the slots are drawn in, ``rng`` ends where one
        sequential draw of every slot without evidence, in declaration
        order, leaves it."""
        learner, generative = study_graphs(graph_name, seed=4)
        evidence = ancestral_sample(generative, n, seed=4).terminal_evidence(observed)
        rng = np.random.default_rng(11)
        Propagator(learner).initial_state(evidence, n, rng=rng)
        sequential = np.random.default_rng(11)
        evidence_slots = open_ends(learner)
        for var, size in learner.variables:
            for direction in ("F", "B"):
                if (direction, var) not in evidence_slots:
                    sequential.random((n, size))
        assert rng.bit_generator.state == sequential.bit_generator.state


class RecordingGenerator:
    """A PCG64 generator that logs each ``random`` call as ("draw", slot): the
    slot whose stream starts where the call does.  The slots without evidence
    own n * size outputs each, in declaration order."""

    def __init__(self, graph: GraphSpec, n: int, seed: int, log: list):
        self._rng, self._log = np.random.default_rng(seed), log
        self.bit_generator = self._rng.bit_generator
        self._slots, offset, evidence_slots = {}, 0, open_ends(graph)
        for var, size in graph.variables:
            for slot in (("F", var), ("B", var)):
                if slot not in evidence_slots:
                    position = np.random.default_rng(seed).bit_generator
                    position.advance(offset)
                    self._slots[position.state["state"]["state"]] = slot
                    offset += n * size

    def random(self, shape):
        self._log.append(("draw", self._slots[self.bit_generator.state["state"]["state"]]))
        return self._rng.random(shape)


class TestDrawOrder:
    """Epoch 1 draws each port slot of the random start once: unit by unit
    just before that unit's kernel call, or all of them, in slot order,
    before the one stacked call.  Later epochs draw nothing."""

    @staticmethod
    def logged_epochs(monkeypatch, n: int, mask) -> tuple[list, list]:
        """The log of two epochs of var on the deep graph at n samples, and
        the port slots of each trainable unit."""
        learner, generative = study_graphs("deep", seed=2)
        evidence = ancestral_sample(generative, n, seed=2).terminal_evidence(("X1", "X2", "X3"))
        units, log = learner.trainable_units(), []
        kernel = learning._var

        def logging(theta, f, b, w, delta, live):
            log.append(("kernel", len(live)))
            return kernel(theta, f, b, w, delta, live)

        monkeypatch.setattr(learning, "_var", logging)
        rng = RecordingGenerator(learner, n, seed=3, log=log)
        epochs = learning._Epochs(Propagator(learner), evidence, mask, rng, units,
                                  tuple(evidence), TrainConfig("var"))
        for _ in range(2):
            epochs.step()
        ends = open_ends(learner)
        ports = [[slot for slot in ([("B", u.variable)] if isinstance(u, SourceBlock)
                                    else [("F", u.from_var), ("B", u.to_var)])
                  if slot not in ends] for u in units]
        return log, ports

    def test_unit_by_unit_draws_each_port_just_before_its_unit(self, monkeypatch):
        log, ports = self.logged_epochs(monkeypatch, 5000, split_mask(5000, 0.8))
        expected = [entry for slots in ports
                    for entry in [("draw", slot) for slot in slots] + [("kernel", 1)]]
        assert log == expected + [("kernel", len(ports))]

    def test_stacked_call_draws_every_port_first_in_slot_order(self, monkeypatch):
        log, ports = self.logged_epochs(monkeypatch, 100, None)
        learner = build_deep_graph()
        order = [(d, v) for v, _ in learner.variables for d in ("F", "B")]
        drawn = sorted((slot for slots in ports for slot in slots), key=order.index)
        assert log == [("draw", slot) for slot in drawn] + [("kernel", len(ports))] * 2


class TestFirstEpochMemory:
    """numpy reports its buffers to tracemalloc, so a traced peak repeats
    to within a few kB.  With each unit's port slots drawn, and its evidence
    ports gathered from the merged rows, just before it trains, and kernels
    that copy a message only to floor it, one epoch of em_train on the deep
    graph at N = 20 000 (80/20 split) peaks well below the bytes of all ten
    port-slot draws together, 16 000 rows x 46 columns of doubles: at 0.695
    of them under ml, 0.445 under kl, 0.467 under vit and 0.382 under var.
    Each bound is that peak plus 5%.  (Copying every message, and encoding
    all N evidence rows, ml peaked at 0.885, kl at 0.961, vit at 0.592 and
    var at 0.776.)"""

    BOUNDS = {"ml": 0.730, "kl": 0.467, "vit": 0.490, "var": 0.401}

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_peak_stays_below_all_port_draws(self, algorithm):
        learner, generative = study_graphs("deep", seed=1)
        evidence = ancestral_sample(generative, 20000, seed=1).terminal_evidence(
            ("X1", "X2", "X3"))
        mask = split_mask(20000, 0.8)
        cfg = TrainConfig(algorithm, epochs=1, seed=1)
        tracemalloc.start()
        try:
            em_train(learner, evidence, cfg, mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.BOUNDS[algorithm] * 16000 * 46 * 8, peak / (16000 * 46 * 8)


class TestGatheredEvidencePorts:
    """When the hard evidence merges, epoch 1 gathers its evidence ports from
    the merged rows' one-hot factors, so no symbol column is one-hot encoded
    per sample; evidence with a per-sample soft factor does not merge, and
    its symbol columns are still encoded row by row."""

    @staticmethod
    def encoded_rows(monkeypatch, evidence, mask) -> list[int]:
        """The row counts of every ``one_hot`` call in ``propagation`` during
        two epochs of kl on the deep graph."""
        rows, encode = [], propagation.one_hot

        def counting(index, size):
            rows.append(np.shape(index)[0] if np.ndim(index) else 0)
            return encode(index, size)

        monkeypatch.setattr(propagation, "one_hot", counting)
        em_train(build_deep_graph(), evidence, TrainConfig("kl", epochs=2, seed=1), mask)
        return rows

    @pytest.mark.parametrize("split", [None, 0.8])
    def test_merged_hard_evidence_encodes_the_rows_only(self, monkeypatch, split):
        learner, generative = study_graphs("deep", seed=1)
        evidence = ancestral_sample(generative, 5000, seed=1).terminal_evidence(
            ("X1", "X2", "X3"))
        mask = None if split is None else split_mask(5000, split)
        rows = self.encoded_rows(monkeypatch, evidence, mask)
        n_rows = Propagator(learner).distinct_rows(evidence, 5000)[1]
        assert rows == [n_rows] * 3

    def test_soft_evidence_is_encoded_per_sample(self, monkeypatch):
        learner, generative = study_graphs("deep", seed=1)
        evidence = ancestral_sample(generative, 5000, seed=1).terminal_evidence(
            ("X1", "X2", "X3"))
        evidence["X2"] = one_hot(evidence["X2"], learner.sizes["X2"])
        rows = self.encoded_rows(monkeypatch, evidence, split_mask(5000, 0.8))
        assert rows == [5000] * 2


class TestEpochLoopChecksNothing:
    """Hard evidence is checked where it enters, and a rule's delta where
    its TrainConfig is built; the epochs of em_train then build no
    BlockDataset, normalize nothing and check no delta."""

    @staticmethod
    def counters(monkeypatch) -> dict:
        """Count BlockDataset constructions and calls of ``normalize`` and
        ``_require_delta`` through any ``normalgraph`` module's binding."""
        counts = {"datasets": 0, "normalize": 0, "delta checks": 0}
        post_init = BlockDataset.__post_init__

        def counting_post_init(self):
            counts["datasets"] += 1
            post_init(self)

        def counting(key, function):
            def counted(*args):
                counts[key] += 1
                return function(*args)
            return counted

        patched = ((normalize, counting("normalize", normalize)),
                   (_require_delta, counting("delta checks", _require_delta)))
        monkeypatch.setattr(BlockDataset, "__post_init__", counting_post_init)
        for name, module in list(sys.modules.items()):
            if name == "normalgraph" or name.startswith("normalgraph."):
                for key, value in list(vars(module).items()):
                    for original, replacement in patched:
                        if value is original:
                            monkeypatch.setattr(module, key, replacement)
        return counts

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_no_dataset_and_no_normalize(self, monkeypatch, algorithm):
        learner, generative = study_graphs("deep", seed=1)
        evidence = ancestral_sample(generative, 300, seed=1).terminal_evidence(("X1", "X2", "X3"))
        cfg = TrainConfig(algorithm, epochs=5, seed=1)
        counts = self.counters(monkeypatch)
        em_train(learner, evidence, cfg, split_mask(300, 0.8))
        assert counts == {"datasets": 0, "normalize": 0, "delta checks": 0}
        # The counters are live: soft evidence goes through normalize, and a
        # TrainConfig checks its delta.
        soft = {v: one_hot(column, learner.sizes[v]) for v, column in evidence.items()}
        em_train(learner, soft, cfg)
        assert counts["normalize"] > 0
        BlockDataset(forward=[[1.0]], backward=[[1.0]])
        assert counts["datasets"] == 1
        TrainConfig(algorithm)
        assert counts["delta checks"] == 1

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_soft_evidence_is_normalized_once(self, monkeypatch, algorithm):
        """Soft evidence is encoded before the first epoch and never again:
        five epochs call ``normalize`` as often as one."""
        learner, generative = study_graphs("star", seed=1)
        evidence = ancestral_sample(generative, 200, seed=1).terminal_evidence(("X1", "X2", "X3"))
        soft = {v: one_hot(column, learner.sizes[v]) for v, column in evidence.items()}
        counts = self.counters(monkeypatch)
        calls = []
        for epochs in (1, 5):
            counts["normalize"] = 0
            em_train(learner, soft, TrainConfig(algorithm, epochs=epochs, seed=1),
                     split_mask(200, 0.8))
            calls.append(counts["normalize"])
        assert calls[0] == calls[1] > 0, calls


def latent_row_spread(theta: np.ndarray) -> float:
    return float(np.max(theta.max(axis=0) - theta.min(axis=0)))


class TestVarEqualLatentRows:
    """With a uniform prior and equal latent rows, the backward message into
    S0 is uniform, so each leaf's forward message is the prior, and
    sum f b' + delta has rows proportional to prior_l * sum b + delta: one
    var EM step keeps the latent rows equal, exactly."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_one_var_step_keeps_equal_rows(self, seed):
        rng = np.random.default_rng(seed)
        star = build_latent_star()
        rows = {f"P_X{i}": np.tile(normalize(rng.uniform(0.1, 1.0, star.sizes[f"X{i}"])), (4, 1))
                for i in (1, 2, 3)}
        graph = star.with_parameters(rows)
        evidence = ancestral_sample(build_latent_star(generative=True), 400, seed=seed
                                    ).terminal_evidence(("X1", "X2", "X3"))
        state = Propagator(graph).run(evidence)
        cfg = TrainConfig("var")
        for unit in graph.trainable_units():
            if isinstance(unit, SourceBlock):
                data = BlockDataset(forward=np.ones((400, 1)), backward=state.backward["S0"])
                prior = train_block(unit.prior.reshape(1, -1), data, cfg)[0]
                assert np.all(prior == prior[0]), prior
            else:
                data = BlockDataset(forward=state.forward[unit.from_var],
                                    backward=state.backward[unit.to_var])
                theta = train_block(unit.theta, data, cfg)
                assert np.all(theta == theta[0]), theta

    def test_contraction_from_the_random_start_is_printed(self):
        evidence = ancestral_sample(build_latent_star(generative=True), 400, seed=1
                                    ).terminal_evidence(("X1", "X2", "X3"))
        report = em_train(build_latent_star(), evidence,
                          TrainConfig("var", epochs=60, seed=1))
        spreads = {e: latent_row_spread(report.records[e - 1].parameters["P_X1"])
                   for e in (1, 5, 10, 20, 60)}
        assert all(np.isfinite(list(spreads.values())))
        print("var P_X1 latent row spread by epoch:",
              ", ".join(f"{e}: {s:.2g}" for e, s in spreads.items()))


class TestRandomLatentTrees:
    """em_train on random tree-shaped nets observed at their leaves only,
    so every internal node is latent."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_every_rule_learns_a_sound_graph(self, tmp_path_factory, seed):
        tree, graph, readout = random_bayes_tree(np.random.default_rng(seed))
        leaves = [readout[v] for v in range(len(tree["sizes"])) if v not in tree["parent"]]
        evidence = ancestral_sample(graph, 500, seed=seed).terminal_evidence(leaves)
        path = tmp_path_factory.mktemp("tree") / "learned.json"
        for rule in ALGORITHMS:
            report = em_train(graph, evidence, TrainConfig(rule, epochs=10, seed=1))
            assert all(np.isfinite(r.train_loglik) for r in report.records), rule
            for unit in report.graph.trainable_units():
                matrix = np.atleast_2d(unit.prior if isinstance(unit, SourceBlock) else unit.theta)
                assert np.all(np.isfinite(matrix)) and np.all(matrix >= 0.0), (rule, unit.name)
                np.testing.assert_allclose(matrix.sum(axis=1), 1.0, rtol=0, atol=1e-12,
                                           err_msg=f"{rule} {unit.name}")
            save_graph(report.graph, path)
            assert graph_digest(load_graph(path)) == graph_digest(report.graph), rule

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_ml_single_step_never_lowers_the_leaf_joint(self, seed):
        """With nit=1 an ml epoch is an EM step, so the exact joint
        likelihood of the observed leaves, from the oracle, cannot fall."""
        tree, graph, readout = random_bayes_tree(np.random.default_rng(seed))
        leaves = [readout[v] for v in range(len(tree["sizes"])) if v not in tree["parent"]]
        evidence = ancestral_sample(graph, 500, seed=seed).terminal_evidence(leaves)
        report = em_train(graph, evidence, TrainConfig("ml", epochs=20, nit=1, seed=1))
        observed = tuple(evidence[v] for v in leaves)
        logliks = [np.log(tree_leaf_joint(tree["parent"], r.parameters)[observed]).sum()
                   for r in report.records]
        for epoch, (before, after) in enumerate(zip(logliks, logliks[1:]), start=2):
            assert after >= before - 1e-11 * abs(before), (epoch, before, after)


def leaf_evidence(seed: int, n: int):
    """A ``random_bayes_tree`` graph and ``n`` ancestral samples of its leaves."""
    tree, graph, readout = random_bayes_tree(np.random.default_rng(seed))
    leaves = [readout[v] for v in range(len(tree["sizes"])) if v not in tree["parent"]]
    return graph, ancestral_sample(graph, n, seed=seed).terminal_evidence(leaves)


class TestStackedEpochs:
    """em_train trains every unit of an epoch in one stacked kernel call
    (or one unpadded call per unit above ``STACK_ENTRIES``); the plain
    unit-by-unit loop of ``oracles.reference_em`` must train the same way,
    within the rounding bounds of ``assert_same_training``."""

    @pytest.mark.parametrize("split", [1.0, 0.8])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("graph_name, n", [("star", 400), ("deep", 300)])
    def test_study_graphs_train_like_the_reference(self, graph_name, n, algorithm, split):
        learner, generative = study_graphs(graph_name, seed=2)
        evidence = ancestral_sample(generative, n, seed=2).terminal_evidence(("X1", "X2", "X3"))
        cfg = TrainConfig(algorithm, epochs=50, seed=2)
        mask = split_mask(n, split)
        assert_same_training(em_train(learner, evidence, cfg, mask),
                             reference_em(learner, evidence, cfg, mask), epochs=50)

    @pytest.mark.parametrize("split", [1.0, 0.8])
    @pytest.mark.parametrize("seed", range(10))
    def test_random_trees_train_like_the_reference(self, seed, split):
        graph, evidence = leaf_evidence(seed, 500)
        mask = split_mask(500, split)
        for algorithm in ALGORITHMS:
            cfg = TrainConfig(algorithm, epochs=30, seed=seed)
            assert_same_training(em_train(graph, evidence, cfg, mask),
                                 reference_em(graph, evidence, cfg, mask), epochs=30)

    def test_large_starts_train_unit_by_unit(self, monkeypatch):
        """A per-sample start above STACK_ENTRIES trains one unit per
        call; the distinct rows after it fit in one stacked call."""
        learner, generative = study_graphs("deep", seed=1)
        n = learning.STACK_ENTRIES // (8 * 16) + 1
        evidence = ancestral_sample(generative, n, seed=1).terminal_evidence(("X1", "X2", "X3"))
        calls = []
        kernel = learning._var

        def counting(theta, f, b, w, delta, live):
            calls.append(len(theta) if theta is not None else len(live))
            return kernel(theta, f, b, w, delta, live)

        monkeypatch.setattr(learning, "_var", counting)
        em_train(learner, evidence, TrainConfig("var", epochs=3, seed=1))
        assert calls == [1] * 8 + [8, 8]


@st.composite
def unit_stacks(draw):
    """1-8 units, each a random row-stochastic (L, M) matrix (L 1-12, M 1-4;
    about a third of them 1 x M sources with the constant input 1) and its
    n messages (n 0-10).  Entries are uniform draws with a drawn share set
    to 0 or MESSAGE_FLOOR; some input symbols carry no forward mass at all,
    so their parameter rows are empty.  Rows are scaled to unit sum; the
    weights are counts 0-3, a rule setting completes each case."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, special = draw(st.integers(0, 10)), draw(st.sampled_from([0.0, 0.3, 0.8]))

    def rows(shape):
        values = rng.uniform(size=shape)
        planted = rng.uniform(size=shape) < special
        values[planted] = rng.choice([0.0, learning.MESSAGE_FLOOR], size=int(planted.sum()))
        values[values.sum(axis=-1) == 0.0, 0] = 1.0
        return values / values.sum(axis=-1, keepdims=True)

    units = []
    for _ in range(draw(st.integers(1, 8))):
        source = draw(st.booleans()) and draw(st.booleans())
        l, m = 1 if source else draw(st.integers(1, 12)), draw(st.integers(1, 4))
        f = np.ones((n, 1)) if source else rows((n, l))
        if not source and l > 1:  # symbols no sample sends: empty parameter rows
            f[:, rng.uniform(size=l) < 0.3] = 0.0
            f[f.sum(axis=1) == 0.0, 0] = 1.0
            f /= f.sum(axis=1, keepdims=True)
        units.append((rows((l, m)), f, rows((n, m))))
    weights = rng.integers(0, 4, size=n).astype(np.float64)
    return units, weights, draw(st.sampled_from([0.0, 1e-6, 1.0])), draw(st.integers(1, 3))


def stack(units):
    """The units' (theta, f, b, live) stacks, zero-padded to the widest and
    read-only, so a kernel that wrote into its inputs would raise."""
    l_max = max(theta.shape[0] for theta, _, _ in units)
    m_max = max(theta.shape[1] for theta, _, _ in units)
    n = len(units[0][1])
    theta_s, live = np.zeros((len(units), l_max, m_max)), np.zeros((len(units), l_max, m_max))
    f_s, b_s = np.zeros((len(units), n, l_max)), np.zeros((len(units), n, m_max))
    for u, (theta, f, b) in enumerate(units):
        l, m = theta.shape
        theta_s[u, :l, :m], live[u, :l, :m] = theta, 1.0
        f_s[u, :, :l], b_s[u, :, :m] = f, b
    for array in (theta_s, f_s, b_s, live):
        array.setflags(write=False)
    return theta_s, f_s, b_s, live


class TestPaddedStacks:
    """One kernel call on a zero-padded stack of units trains each unit as
    ``train_block`` trains it alone (a stack of one, unpadded): vit's and
    var's delta stays off the padding, vit's argmax never picks a padded
    column, a padded row is never an empty row (0/0 would raise here, as
    RuntimeWarnings are errors), and a real empty row keeps its value under
    ml and kl and becomes uniform under vit and var.  The stacks are not
    floored: ml and kl floor their own messages, in copies (a padded stack
    always has entries below the floor), and train as if given the real
    entries floored, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(unit_stacks())
    def test_one_stacked_call_trains_like_one_call_per_unit(self, case):
        units, weights, delta, nit = case
        for algorithm in ALGORITHMS:
            cfg = TrainConfig(algorithm, nit=nit, delta=delta)
            kernel, setting = learning._rule(cfg)
            theta_s, f_s, b_s, live = stack(units)
            out = kernel(theta_s, f_s, b_s, weights, setting, live)
            assert out.shape == live.shape
            assert np.all(out[live == 0.0] == 0.0), algorithm
            if algorithm in ("ml", "kl"):  # the kernel's floor: as if given floored real entries
                floored = [(theta, np.maximum(f, learning.MESSAGE_FLOOR),
                            np.maximum(b, learning.MESSAGE_FLOOR)) for theta, f, b in units]
                _, f_floored, b_floored, _ = stack(floored)
                again = kernel(theta_s, f_floored, b_floored, weights, setting, live)
                assert again.tobytes() == out.tobytes(), algorithm
            for u, (theta, f, b) in enumerate(units):
                l, m = theta.shape
                alone = train_block(theta, BlockDataset(f, b, weights), cfg)
                np.testing.assert_allclose(out[u, :l, :m], alone, rtol=0, atol=1e-10,
                                           err_msg=f"{algorithm} unit {u}")
                np.testing.assert_allclose(out[u, :l, :m].sum(axis=1), 1.0, rtol=0, atol=1e-12)
                floor = learning.MESSAGE_FLOOR if algorithm in ("ml", "kl") else 0.0
                empty = weights @ np.maximum(f, floor) == 0.0  # floored: ml and kl need w = 0
                if algorithm in ("ml", "kl"):
                    np.testing.assert_allclose(out[u, :l, :m][empty], theta[empty], rtol=0,
                                               atol=1e-12)
                elif delta == 0.0:
                    np.testing.assert_array_equal(out[u, :l, :m][empty], 1.0 / m)


@st.composite
def kernel_cases(draw):
    """One kernel call's units, weights, delta and nit.  1-5 units: one alone
    is a stack of one, unpadded, and several share one (L, M) or are padded
    to the widest (L 1-6, M 1-4; L = 1 is a source, with the constant input
    1).  n is 0-10, 300 or 2 000; row-stochastic uniform draws are the parameters, and the
    messages too, with a drawn share of entries then set to 0,
    MESSAGE_FLOOR / 2, MESSAGE_FLOOR or 2 MESSAGE_FLOOR (one entry per row
    is kept, so no score underflows).  The weights are all 1.0, counts 0-3
    or all 0; delta is 0, 1e-6 or 1 and nit 1-3."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.one_of(st.integers(0, 10), st.sampled_from([300, 2000])))
    special, floor = draw(st.sampled_from([0.0, 0.3, 0.8])), learning.MESSAGE_FLOOR

    def rows(shape, plant=True):
        values = rng.uniform(0.01, 1.0, size=shape)
        values /= values.sum(axis=-1, keepdims=True)
        planted = (rng.uniform(size=shape) < special) & plant
        np.put_along_axis(planted, rng.integers(shape[-1], size=(*shape[:-1], 1)), False, -1)
        values[planted] = rng.choice([0.0, floor / 2, floor, 2 * floor], size=int(planted.sum()))
        return values

    same, shape, units = draw(st.booleans()), None, []
    for _ in range(draw(st.integers(1, 5))):
        if shape is None or not same:
            shape = (draw(st.integers(1, 6)), draw(st.integers(1, 4)))
        f = np.ones((n, 1)) if shape[0] == 1 else rows((n, shape[0]))
        units.append((rows(shape, plant=False), f, rows((n, shape[1]))))
    kind = draw(st.sampled_from(["ones", "counts", "zeros"]))
    weights = {"ones": np.ones(n), "counts": rng.integers(0, 4, size=n).astype(np.float64),
               "zeros": np.zeros(n)}[kind]
    return units, weights, draw(st.sampled_from([0.0, 1e-6, 1.0])), draw(st.integers(1, 3))


class TestCopyFreeKernels:
    """``_ml`` and ``_kl`` floor a copy of a message only when it has an
    entry below MESSAGE_FLOOR, ``_kl`` and ``_var`` read f itself when every
    weight is 1.0, and ``_kl`` reuses one ratio buffer over its steps.  Each
    kernel's output equals, byte for byte, that of the kernel which copies
    and weights on every call (``oracles.reference_ml``, ``reference_kl``,
    ``reference_var``).  The inputs are read-only, so a kernel that wrote
    into its caller's arrays would raise."""

    @settings(max_examples=300, deadline=None)
    @given(kernel_cases())
    def test_kernels_match_the_always_copy_reference(self, case):
        units, weights, delta, nit = case
        theta, f, b, live = stack(units)
        weights.setflags(write=False)
        for kernel, reference, setting in ((learning._ml, reference_ml, nit),
                                           (learning._kl, reference_kl, nit),
                                           (learning._var, reference_var, delta)):
            out = kernel(theta, f, b, weights, setting, live)
            expected = reference(theta, f, b, weights, setting, live)
            assert out.shape == expected.shape, kernel.__name__
            assert out.tobytes() == expected.tobytes(), kernel.__name__


def tied_rows(rng, shape) -> np.ndarray:
    """Uniform rows scaled to unit sum.  Most get a forced tie: an entry set
    to the row's peak, just inside the ``TIE_RTOL`` tie band or just outside
    it, so the lowest-index rule decides the argmax."""
    values = rng.uniform(size=shape)
    for row in values.reshape(-1, shape[-1]):
        if row.size > 1 and rng.uniform() < 0.7:
            row[rng.integers(row.size)] = row.max() * (1.0 - rng.choice([0.0, 0.5e-12, 2e-12]))
    return values / values.sum(axis=-1, keepdims=True)


@st.composite
def vit_stacks(draw):
    """1-8 units, each with its (l, m) shape, n tied message pairs (n 0-12;
    a source has l = 1 and the constant input 1), weights that are counts
    0-3 or reals in [0, 3), and delta in {0, 1e-6, 0.5}."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 12))
    units = []
    for _ in range(draw(st.integers(1, 8))):
        source = draw(st.booleans()) and draw(st.booleans())
        l, m = 1 if source else draw(st.integers(1, 6)), draw(st.integers(1, 6))
        f = np.ones((n, 1)) if source else tied_rows(rng, (n, l))
        units.append((np.full((l, m), 1.0 / m), f, tied_rows(rng, (n, m))))
    weights = rng.integers(0, 4, size=n) if draw(st.booleans()) else rng.uniform(0, 3, size=n)
    return units, weights.astype(np.float64), draw(st.sampled_from([0.0, 1e-6, 0.5]))


class TestVitCountsArgmaxPairs:
    """``_vit`` counts each unit's argmax pairs with one bincount and adds
    delta's terms in closed form, where the rule used to multiply
    delta-padded indicator matrices (``oracles.reference_vit``).  Against
    exact arithmetic the count side rounds at most n + 2 times per entry
    and the product side n + 3 times; the row sums add M - 1 roundings and
    the division one, so the two agree within (4 n + 2 M + 12) u relative,
    u = 2**-53, on a padded stack and on each unit alone."""

    @settings(max_examples=300, deadline=None)
    @given(vit_stacks())
    def test_matches_the_indicator_product(self, case):
        units, weights, delta = case
        _, f, b, live = stack(units)
        n, m_max = f.shape[1], live.shape[2]
        out = learning._vit(None, f, b, weights, delta, live)
        rtol = (4 * n + 2 * m_max + 12) * 2.0**-53
        np.testing.assert_allclose(out, reference_vit(f, b, weights, delta, live), rtol=rtol,
                                   atol=0)
        for u, (theta, f_u, b_u) in enumerate(units):
            alone = learning._vit(None, f_u[None], b_u[None], weights, delta,
                                  np.ones((1, *theta.shape)))
            expected = reference_vit(f_u[None], b_u[None], weights, delta,
                                     np.ones((1, *theta.shape)))
            np.testing.assert_allclose(alone, expected, rtol=rtol, atol=0, err_msg=f"unit {u}")
