"""Tests for deterministic ancestral sampling and synthetic factories."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normalgraph.graph import (
    DiverterNode,
    GraphError,
    GraphSpec,
    SisoBlock,
    SourceBlock,
    split_variable,
)
from normalgraph.messages import COLUMN_ROWS, AllZeroVector, normalize
from normalgraph.experiments import (
    TREE_LEAF_CONDITIONALS,
    TREE_PRIOR,
    build_deep_graph,
    build_latent_star,
    deep_generative_parameters,
    random_message_pairs,
)
from normalgraph.synthgen import (
    ancestral_sample,
    random_row_stochastic,
    substream,
)
from oracles import random_bayes_tree, reference_ancestral_sample


def identity_chain(prior=(0.3, 0.7)):
    return GraphSpec(
        variables=(("S", 2), ("X", 2)),
        sources=(SourceBlock("prior_S", "S", np.asarray(prior, dtype=float)),),
        blocks=(SisoBlock("P_X", "S", "X", np.eye(2)),),
    )


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
        two_leaf = GraphSpec(
            variables=tuple(
                (v, s) for v, s in full.variables if v not in ("S3", "X3")
            ),
            sources=full.sources,
            blocks=tuple(b for b in full.blocks if b.name != "P_X3"),
            diverters=(DiverterNode(inbound=("S0",), taps=("S1", "S2")),),
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

    @pytest.mark.parametrize("splits", [("PS12_1",), ("PS12_1", "PS12_2"), ("PS23_2",)])
    def test_split_join_is_one_cluster(self, splits):
        """Splitting an inbound edge of a join chains two diverters; they
        are drawn as one cluster from the same site, so every product symbol
        is still the pair code and the unsplit graph's columns are unchanged."""
        unsplit = build_deep_graph().with_parameters(deep_generative_parameters(seed=1))
        graph = unsplit
        for variable in splits:
            graph = split_variable(graph, variable)
        data = ancestral_sample(graph, 500, seed=8, keep_all=True)
        assert np.array_equal(data["PS12_0"], data["S1_0"] * 2 + data["S2"])
        assert np.array_equal(data["PS23_0"], data["Y2"] * 3 + data["S3"])
        product_edges = [v for v in data.columns if v.startswith("PS")]
        assert len(product_edges) == 6 + 2 * len(splits)
        for variable in product_edges:
            assert np.array_equal(data[variable], data[variable[:4] + "_0"]), variable
        reference = ancestral_sample(unsplit, 500, seed=8, keep_all=True)
        for variable, column in reference.columns.items():
            assert np.array_equal(data[variable], column), variable

    def test_zero_samples(self):
        data = ancestral_sample(identity_chain(), 0, seed=1)
        assert data.n_samples == 0
        assert data["X"].shape == (0,)

    def test_open_input_rejected(self):
        headless = GraphSpec(
            variables=(("S", 2), ("X", 2)),
            sources=(),
            blocks=(SisoBlock("P_X", "S", "X", np.eye(2)),),
        )
        with pytest.raises(GraphError, match="open input"):
            ancestral_sample(headless, 5)

    def test_terminal_evidence_selects_columns(self):
        star = build_latent_star(generative=True)
        data = ancestral_sample(star, 20, seed=1)
        evidence = data.terminal_evidence(("X1", "X3"))
        assert set(evidence) == {"X1", "X3"}
        assert np.array_equal(evidence["X1"], data["X1"])


def join_graph(priors, thetas, out_theta=None):
    """Sources ``S<i>`` feeding, each through ``thetas[i]`` when that is not
    None and directly otherwise, one join of inbound edges ``E<i>``; the
    join's taps are the terminal ``Z`` and, given ``out_theta``, ``W``
    into the block to terminal ``X``."""
    width = len(priors[0]) if thetas[0] is None else len(thetas[0][0])
    variables, sources, blocks, inbound = [], [], [], []
    for i, (prior, theta) in enumerate(zip(priors, thetas)):
        edge = f"E{i}"
        inbound.append(edge)
        if theta is None:
            variables.append((edge, width))
            sources.append(SourceBlock(f"prior_S{i}", edge, prior))
        else:
            variables += [(f"S{i}", len(prior)), (edge, width)]
            sources.append(SourceBlock(f"prior_S{i}", f"S{i}", prior))
            blocks.append(SisoBlock(f"J{i}", f"S{i}", edge, theta))
    taps = ["Z"]
    if out_theta is not None:
        variables += [("W", width), ("X", len(out_theta[0]))]
        taps.append("W")
        blocks.append(SisoBlock("P_X", "W", "X", out_theta))
    variables.append(("Z", width))
    return GraphSpec(tuple(variables), tuple(sources), tuple(blocks),
                     (DiverterNode(tuple(inbound), tuple(taps)),))


def sparse_rows(rng, rows, cols, zeros=0.35):
    """Row-stochastic, with about a share ``zeros`` of the entries zero but
    none of the rows."""
    draws = rng.uniform(0.1, 1.0, size=(rows, cols)) * (rng.uniform(size=(rows, cols)) >= zeros)
    draws[np.arange(rows), rng.integers(0, cols, size=rows)] += 0.5
    return normalize(draws)


def random_join(rng):
    width = int(rng.integers(2, 5))
    priors, thetas = [], []
    for _ in range(int(rng.integers(1, 5))):
        if rng.uniform() < 0.25:
            priors.append(sparse_rows(rng, 1, width)[0])
            thetas.append(None)
        else:
            parent = int(rng.integers(1, 5))
            priors.append(sparse_rows(rng, 1, parent)[0])
            thetas.append(sparse_rows(rng, parent, width))
    return join_graph(priors, thetas, sparse_rows(rng, width, 3))


def assert_same_bits(graph, n, seed):
    """Every column of ``ancestral_sample(..., keep_all=True)`` has the
    reference's dtype and bytes, or both raise ``AllZeroVector``."""
    try:
        expected = reference_ancestral_sample(graph, n, seed=seed)
    except AllZeroVector:
        with pytest.raises(AllZeroVector):
            ancestral_sample(graph, n, seed=seed, keep_all=True)
        return
    data = ancestral_sample(graph, n, seed=seed, keep_all=True)
    assert list(data.columns) == list(expected.columns)
    for variable, column in expected.columns.items():
        assert data[variable].dtype == column.dtype, variable
        assert data[variable].tobytes() == column.tobytes(), variable


class TestTableDraws:
    """``ancestral_sample`` draws from per-state tables the bits that the
    per-sample rows of ``oracles.reference_ancestral_sample`` draw."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(["tree", "deep", "star", "join"]),
           seed=st.integers(0, 2**32 - 1),
           n=st.integers(0, 40) | st.integers(COLUMN_ROWS - 3, COLUMN_ROWS + 3),
           splits=st.integers(0, 2))
    def test_columns_match_reference(self, kind, seed, n, splits):
        rng = np.random.default_rng(seed)
        if kind == "tree":
            graph = random_bayes_tree(rng)[1]
        elif kind == "deep":
            graph = build_deep_graph().with_parameters(deep_generative_parameters(seed % 7 + 1))
        elif kind == "star":
            graph = build_latent_star(generative=True)
        else:
            graph = random_join(rng)
        for _ in range(splits):
            taps = {v for div in graph.diverters for v in div.taps}
            free = [v for v in graph.sizes if v not in taps]
            graph = split_variable(graph, str(rng.choice(free)))
        assert_same_bits(graph, n, seed % 1000)

    def test_three_inbound_join_multiplies_left_to_right(self):
        """The priors put seed 2's first uniform between the normalized
        products taken left to right and right to left, so only the
        reference's left-to-right order draws its bits."""
        x = float.fromhex("0x1.a72c49b1f97f6p-2")
        a, b, c = np.array([x, 1.0 - x]), np.array([0.3, 0.7]), np.array([0.6, 0.4])
        u = substream(2, "draw", "=E0").uniform(size=1)[0]
        left, right = normalize(a * b * c)[0], normalize(a * (b * c))[0]
        assert left < u <= right
        graph = join_graph([a, b, c], [None, None, None])
        assert ancestral_sample(graph, 1, seed=2)["Z"][0] == 1
        assert_same_bits(graph, 200, 2)

    def test_zero_mass_combination_fails_only_when_drawn(self):
        """S0 = 0 forces the join to 0 and S1 = 0 forces it to 1, so the
        product row of (S0, S1) = (0, 0) has no mass."""
        thetas = [np.array([[1.0, 0.0], [0.5, 0.5]]), np.array([[0.0, 1.0], [0.5, 0.5]])]
        never = join_graph([np.array([0.0, 1.0]), np.array([0.5, 0.5])], thetas)
        assert_same_bits(never, 300, 2)
        drawn = join_graph([np.array([0.5, 0.5]), np.array([0.5, 0.5])], thetas)
        with pytest.raises(AllZeroVector):
            ancestral_sample(drawn, 300, seed=2)

    def test_cluster_radix_past_int64(self):
        """Seven inbound edges of 1 024 table rows each: 2**70 combinations,
        and every key still fits in int64."""
        rng = np.random.default_rng(5)
        graph = join_graph([sparse_rows(rng, 1, 1024, zeros=0.0)[0] for _ in range(7)],
                           [sparse_rows(rng, 1024, 3, zeros=0.0) for _ in range(7)])
        assert_same_bits(graph, 500, 3)

    def test_deep_graph_memory_is_linear_in_samples(self):
        """The drawn columns and O(1) transient columns per draw: below 20
        doubles per sample at N = 1e5, where per-sample rows take 46."""
        graph = build_deep_graph().with_parameters(deep_generative_parameters(seed=1))
        n = 100_000
        tracemalloc.start()
        try:
            ancestral_sample(graph, n, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 8 * n


class TestFactories:
    def test_random_row_stochastic(self):
        mat = random_row_stochastic(5, 3, rng=substream(2, "matrix"))
        assert mat.shape == (5, 3)
        np.testing.assert_allclose(mat.sum(axis=1), 1.0, atol=1e-12)
        assert np.array_equal(mat, random_row_stochastic(5, 3, rng=substream(2, "matrix")))
        assert not np.array_equal(mat, random_row_stochastic(5, 3, rng=substream(3, "matrix")))

    def test_single_column_matrix_is_ones(self):
        ones = random_row_stochastic(4, 1, rng=substream(1, "matrix"))
        np.testing.assert_allclose(ones, 1.0, atol=0)

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
