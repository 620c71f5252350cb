"""Tests for deterministic ancestral sampling and synthetic factories."""

import numpy as np
import pytest

from normalgraph.graph import (
    GraphError,
    GraphSpec,
    SisoBlock,
    SourceBlock,
    ensure_valid,
)
from normalgraph.experiments import (
    TREE_LEAF_CONDITIONALS,
    TREE_PRIOR,
    build_deep_graph,
    build_latent_star,
    deep_generative_parameters,
)
from normalgraph.synthgen import (
    ancestral_sample,
    random_message_pairs,
    random_row_stochastic,
    substream,
)


def identity_chain(prior=(0.3, 0.7)):
    graph = GraphSpec(
        variables=(("S", 2), ("X", 2)),
        sources=(SourceBlock("prior_S", "S", np.asarray(prior, dtype=float)),),
        blocks=(SisoBlock("P_X", "S", "X", np.eye(2)),),
    )
    return ensure_valid(graph)


class TestSubstream:
    def test_same_labels_same_stream(self):
        a = substream(7, "draw", "X1").uniform(size=5)
        b = substream(7, "draw", "X1").uniform(size=5)
        assert np.array_equal(a, b)

    def test_labels_separate_streams(self):
        a = substream(7, "draw", "X1").uniform(size=5)
        b = substream(7, "draw", "X2").uniform(size=5)
        assert not np.array_equal(a, b)

    def test_label_order_matters(self):
        a = substream(7, "a", "b").uniform(size=5)
        b = substream(7, "b", "a").uniform(size=5)
        assert not np.array_equal(a, b)

    def test_seed_separates_streams(self):
        a = substream(1, "draw", "X1").uniform(size=5)
        b = substream(2, "draw", "X1").uniform(size=5)
        assert not np.array_equal(a, b)


class TestAncestralSampling:
    def test_deterministic_per_seed(self):
        star = build_latent_star(generative=True)
        a = ancestral_sample(star, 100, seed=3)
        b = ancestral_sample(star, 100, seed=3)
        c = ancestral_sample(star, 100, seed=4)
        for v in ("X1", "X2", "X3"):
            assert np.array_equal(a[v], b[v])
        assert any(not np.array_equal(a[v], c[v]) for v in ("X1", "X2", "X3"))

    def test_keeps_terminals_by_default(self):
        star = build_latent_star(generative=True)
        data = ancestral_sample(star, 10, seed=1)
        assert set(data.columns) == {"X1", "X2", "X3"}
        everything = ancestral_sample(star, 10, seed=1, keep_all=True)
        assert set(everything.columns) == {"S0", "S1", "S2", "S3", "X1", "X2", "X3"}

    def test_unrelated_leaf_does_not_perturb_draws(self):
        """Draw sites are keyed by name, so growing the star by one leaf
        leaves the existing columns alone."""
        from normalgraph.graph import DiverterNode

        full = build_latent_star(generative=True)
        two_leaf = ensure_valid(
            GraphSpec(
                variables=tuple(
                    (v, s) for v, s in full.variables if v not in ("S3", "X3")
                ),
                sources=full.sources,
                blocks=tuple(b for b in full.blocks if b.name != "P_X3"),
                diverters=(DiverterNode(inbound=("S0",), taps=("S1", "S2")),),
            )
        )
        a = ancestral_sample(full, 50, seed=6, keep_all=True)
        b = ancestral_sample(two_leaf, 50, seed=6, keep_all=True)
        for v in ("S0", "X1", "X2"):
            assert np.array_equal(a[v], b[v])

    def test_symbols_in_range(self):
        star = build_latent_star(generative=True)
        data = ancestral_sample(star, 200, seed=2, keep_all=True)
        for v, size in star.sizes.items():
            assert data[v].min() >= 0 and data[v].max() < size

    def test_star_columns_recomputed_from_draw_sites(self):
        """Each draw is an inverse-CDF lookup of one uniform from the site's
        own substream: the diverter's site fixes every replica of S, each
        leaf's site its X column given S."""
        star = build_latent_star(generative=True)
        n, seed = 300, 9
        data = ancestral_sample(star, n, seed=seed, keep_all=True)

        def inverse_cdf(rows, uniforms):
            return np.array([min(np.searchsorted(np.cumsum(row), u), len(row) - 1)
                             for row, u in zip(rows, uniforms)])

        latent = inverse_cdf(np.tile(TREE_PRIOR, (n, 1)),
                             substream(seed, "draw", "=S0").uniform(size=n))
        for v in ("S0", "S1", "S2", "S3"):
            assert np.array_equal(data[v], latent)
        for i, theta in enumerate(TREE_LEAF_CONDITIONALS, start=1):
            leaf = inverse_cdf(theta[latent], substream(seed, "draw", f"X{i}").uniform(size=n))
            assert np.array_equal(data[f"X{i}"], leaf)

    def test_replicas_share_one_draw(self):
        star = build_latent_star(generative=True)
        data = ancestral_sample(star, 100, seed=5, keep_all=True)
        for v in ("S1", "S2", "S3"):
            assert np.array_equal(data[v], data["S0"])

    def test_identity_chain_copies_parent(self):
        data = ancestral_sample(identity_chain(), 300, seed=1, keep_all=True)
        assert np.array_equal(data["X"], data["S"])

    def test_marginal_frequency(self):
        """P(X1 = 0) is 0.35 under the reference star; 4000 draws land
        within three sigmas."""
        star = build_latent_star(generative=True)
        data = ancestral_sample(star, 4000, seed=11)
        freq = float(np.mean(data["X1"] == 0))
        assert abs(freq - 0.35) < 3.0 * np.sqrt(0.35 * 0.65 / 4000)

    def test_conditional_frequencies(self):
        star = build_latent_star(generative=True)
        data = ancestral_sample(star, 10_000, seed=13, keep_all=True)
        for k in range(4):
            picked = data["X1"][data["S0"] == k]
            assert picked.size > 1000
            freq = np.bincount(picked, minlength=2) / picked.size
            np.testing.assert_allclose(freq, TREE_LEAF_CONDITIONALS[0][k], atol=0.04)

    def test_product_space_join_is_tuple_code(self):
        """Equality over expander outputs fixes the product symbol to the
        row-major pair code of its factors."""
        graph = build_deep_graph().with_parameters(deep_generative_parameters(seed=1))
        data = ancestral_sample(graph, 500, seed=8, keep_all=True)
        assert np.array_equal(data["PS12_0"], data["S1_0"] * 2 + data["S2"])
        assert np.array_equal(data["PS23_0"], data["Y2"] * 3 + data["S3"])
        assert np.array_equal(data["PS12_1"], data["PS12_0"])
        assert np.array_equal(data["PS23_2"], data["PS23_0"])

    def test_zero_samples(self):
        data = ancestral_sample(identity_chain(), 0, seed=1)
        assert data.n_samples == 0
        assert data["X"].shape == (0,)

    def test_open_input_rejected(self):
        headless = ensure_valid(
            GraphSpec(
                variables=(("S", 2), ("X", 2)),
                sources=(),
                blocks=(SisoBlock("P_X", "S", "X", np.eye(2)),),
            )
        )
        with pytest.raises(GraphError, match="open input"):
            ancestral_sample(headless, 5)

    def test_terminal_evidence_selects_columns(self):
        star = build_latent_star(generative=True)
        data = ancestral_sample(star, 20, seed=1)
        evidence = data.terminal_evidence(("X1", "X3"))
        assert set(evidence) == {"X1", "X3"}
        assert np.array_equal(evidence["X1"], data["X1"])


class TestFactories:
    def test_random_row_stochastic(self):
        mat = random_row_stochastic(5, 3, seed=2)
        assert mat.shape == (5, 3)
        np.testing.assert_allclose(mat.sum(axis=1), 1.0, atol=1e-12)
        assert np.array_equal(mat, random_row_stochastic(5, 3, seed=2))
        assert not np.array_equal(mat, random_row_stochastic(5, 3, seed=3))

    def test_single_column_matrix_is_ones(self):
        np.testing.assert_allclose(random_row_stochastic(4, 1, seed=1), 1.0, atol=0)

    def test_random_message_pairs_shapes(self):
        data = random_message_pairs(4, 3, 25, seed=1)
        assert data.forward.shape == (25, 4)
        assert data.backward.shape == (25, 3)
        np.testing.assert_allclose(data.forward.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(data.backward.sum(axis=1), 1.0, atol=1e-12)

    def test_sharpening_concentrates_pairs(self):
        smooth = random_message_pairs(4, 3, 50, seed=1)
        sharp = random_message_pairs(4, 3, 50, sharp_in=1000.0, sharp_out=1000.0, seed=1)
        assert sharp.forward.max(axis=1).min() > smooth.forward.max(axis=1).min()
        assert sharp.forward.max(axis=1).mean() > 0.99
        assert np.all(np.isfinite(sharp.forward))
        # Sharpening preserves each row's preferred symbol.
        assert np.array_equal(
            sharp.forward.argmax(axis=1), smooth.forward.argmax(axis=1)
        )

    def test_pairs_vary_with_seed(self):
        a = random_message_pairs(3, 3, 10, seed=1)
        b = random_message_pairs(3, 3, 10, seed=2)
        assert not np.array_equal(a.forward, b.forward)
