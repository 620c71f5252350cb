"""Unit tests for graph structures, builders, validation, and file I/O."""

import json
from dataclasses import replace

import numpy as np
import pytest

from normalgraph.experiments import build_deep_graph, build_latent_star
from normalgraph.graph import (
    DiverterNode,
    GraphError,
    GraphSpec,
    InvalidIndex,
    SisoBlock,
    SourceBlock,
    UnknownVariable,
    build_expander,
    build_projector,
    ensure_valid,
    graph_digest,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    save_graph,
    split_variable,
    validate,
)

# Hand-written product-space matrices for component sizes [2, 3, 2]: the
# projector rows enumerate tuples (x1, x2, x3) with the last component
# fastest, and the expanders are the transposed projectors scaled by
# size_j / 12.
PROJ_1 = np.array([[1, 0]] * 6 + [[0, 1]] * 6, dtype=np.float64)
PROJ_2 = np.array(
    ([[1, 0, 0]] * 2 + [[0, 1, 0]] * 2 + [[0, 0, 1]] * 2) * 2, dtype=np.float64
)
PROJ_3 = np.array([[1, 0], [0, 1]] * 6, dtype=np.float64)


def chain_graph():
    """S with prior feeding an identity-ish block into X."""
    return ensure_valid(
        GraphSpec(
            variables=(("S", 2), ("X", 2)),
            sources=(SourceBlock("prior_S", "S", np.array([0.3, 0.7])),),
            blocks=(SisoBlock("P_X", "S", "X", np.array([[0.9, 0.1], [0.2, 0.8]])),),
        )
    )


class TestProductSpaceBuilders:
    def test_projectors_match_hand_matrices(self):
        assert np.array_equal(build_projector([2, 3, 2], 1), PROJ_1)
        assert np.array_equal(build_projector([2, 3, 2], 2), PROJ_2)
        assert np.array_equal(build_projector([2, 3, 2], 3), PROJ_3)

    def test_expanders_match_hand_matrices(self):
        assert np.array_equal(build_expander([2, 3, 2], 1), PROJ_1.T / 6.0)
        assert np.array_equal(build_expander([2, 3, 2], 2), PROJ_2.T / 4.0)
        assert np.array_equal(build_expander([2, 3, 2], 3), PROJ_3.T / 6.0)

    def test_projector_has_one_unit_entry_per_row(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            sizes = rng.integers(1, 5, size=rng.integers(1, 5)).tolist()
            j = int(rng.integers(1, len(sizes) + 1))
            proj = build_projector(sizes, j)
            assert proj.shape == (int(np.prod(sizes)), sizes[j - 1])
            assert np.all(np.sum(proj == 1.0, axis=1) == 1)
            assert np.all((proj == 0.0) | (proj == 1.0))

    def test_expander_is_scaled_transpose(self):
        """build_expander equals (M_j / prod) * projector.T entry for entry."""
        rng = np.random.default_rng(42)
        for _ in range(50):
            sizes = rng.integers(1, 5, size=rng.integers(1, 5)).tolist()
            j = int(rng.integers(1, len(sizes) + 1))
            scale = np.float64(sizes[j - 1]) / np.float64(np.prod(sizes))
            expected = build_projector(sizes, j).T * scale
            assert np.array_equal(build_expander(sizes, j), expected)

    def test_expander_rows_are_distributions(self):
        exp = build_expander([4, 3], 2)
        np.testing.assert_allclose(exp.sum(axis=1), 1.0, atol=1e-12)
        # prod / M_j equal nonzero entries per row
        assert np.all(np.sum(exp > 0, axis=1) == 4)

    def test_bad_component_index(self):
        with pytest.raises(InvalidIndex):
            build_projector([2, 3], 0)
        with pytest.raises(InvalidIndex):
            build_projector([2, 3], 3)
        with pytest.raises(InvalidIndex):
            build_expander([], 1)
        with pytest.raises(InvalidIndex):
            build_projector([2, 0], 1)


class TestGraphSpecBasics:
    def test_sizes_and_lookup(self):
        graph = chain_graph()
        assert graph.sizes == {"S": 2, "X": 2}
        assert graph.size_of("X") == 2
        with pytest.raises(UnknownVariable):
            graph.size_of("Q")

    def test_tails_heads_terminals(self):
        graph = build_latent_star()
        tails = graph.tails()
        heads = graph.heads()
        assert tails["S0"].name == "prior_S"
        assert isinstance(tails["S1"], DiverterNode)
        assert heads["S0"].name == "=S0"
        assert graph.terminals() == ("X1", "X2", "X3")

    def test_block_and_source_lookup(self):
        graph = build_latent_star()
        assert graph.block("P_X2").to_var == "X2"
        assert graph.source("prior_S").variable == "S0"
        with pytest.raises(GraphError):
            graph.block("nope")
        with pytest.raises(GraphError):
            graph.source("nope")

    def test_trainable_units_sources_first(self):
        graph = build_deep_graph()
        units = graph.trainable_units()
        names = [u.name for u in units]
        assert names[:3] == ["prior_S1", "prior_S2", "prior_S3"]
        assert "join_S1S2_in1" not in names
        assert "join_Y2S3_in2" not in names
        assert "P_X3" in names

    def test_with_parameters(self):
        graph = chain_graph()
        new_theta = np.array([[0.5, 0.5], [0.5, 0.5]])
        updated = graph.with_parameters({"P_X": new_theta})
        assert np.array_equal(updated.block("P_X").theta, new_theta)
        # original untouched (value semantics)
        assert graph.block("P_X").theta[0, 0] == 0.9
        with pytest.raises(GraphError):
            graph.with_parameters({"missing": new_theta})

    def test_theta_is_frozen(self):
        graph = chain_graph()
        with pytest.raises(ValueError):
            graph.block("P_X").theta[0, 0] = 0.0


class TestValidate:
    def test_accepts_experiment_builders(self):
        assert validate(build_latent_star()) == []
        assert validate(build_latent_star(m_latent=7)) == []
        assert validate(build_latent_star(generative=True)) == []
        assert validate(build_deep_graph()) == []

    def test_rejects_single_corruptions(self):
        """Every one-field corruption of the star graph must be caught."""
        star = build_latent_star()
        broken = []
        # unknown variable in a block
        blocks = list(star.blocks)
        blocks[0] = replace(blocks[0], from_var="NOPE")
        broken.append(replace(star, blocks=tuple(blocks)))
        # duplicate node names
        blocks = list(star.blocks)
        blocks[1] = replace(blocks[1], name=blocks[0].name)
        broken.append(replace(star, blocks=tuple(blocks)))
        # two producers for one variable
        broken.append(
            replace(star, sources=star.sources + (SourceBlock("extra", "X1", np.array([0.5, 0.5])),))
        )
        # non-stochastic matrix
        blocks = list(star.blocks)
        bad = np.array(blocks[0].theta)
        bad[0, 0] += 0.2
        blocks[0] = replace(blocks[0], theta=bad)
        broken.append(replace(star, blocks=tuple(blocks)))
        # entry outside [0, 1]
        blocks = list(star.blocks)
        bad = np.array(blocks[2].theta)
        bad[0] = [1.4, -0.2, -0.2]
        blocks[2] = replace(blocks[2], theta=bad)
        broken.append(replace(star, blocks=tuple(blocks)))
        # prior length mismatch
        sources = (SourceBlock("prior_S", "S0", np.array([0.5, 0.5])),)
        broken.append(replace(star, sources=sources))
        # diverter replica size disagreement
        variables = tuple(
            (n, 3 if n == "S2" else s) for n, s in star.variables
        )
        broken.append(replace(star, variables=variables))
        # dangling variable
        broken.append(replace(star, variables=star.variables + (("LONE", 2),)))
        # diverter tap duplicated
        divs = (DiverterNode(inbound=("S0",), taps=("S1", "S1", "S3")),)
        broken.append(replace(star, diverters=divs))
        for graph in broken:
            assert validate(graph), "corruption slipped through"
            with pytest.raises(GraphError):
                ensure_valid(graph)

    def test_rejects_cycle(self):
        graph = GraphSpec(
            variables=(("A", 2), ("B", 2), ("C", 2)),
            sources=(SourceBlock("prior_A", "A", np.array([0.5, 0.5])),),
            blocks=(
                SisoBlock("ab", "A", "B", np.full((2, 2), 0.5)),
                SisoBlock("bc", "B", "C", np.full((2, 2), 0.5)),
                SisoBlock("ca", "C", "A", np.full((2, 2), 0.5)),
            ),
        )
        problems = validate(graph)
        assert any("cycle" in p or "producers" in p for p in problems)

    def test_rejects_parallel_edges(self):
        graph = GraphSpec(
            variables=(("A", 2), ("B", 2), ("C", 2)),
            sources=(SourceBlock("prior_A", "A", np.array([0.5, 0.5])),),
            blocks=(SisoBlock("ab", "A", "B", np.full((2, 2), 0.5)),),
            diverters=(DiverterNode(inbound=("B",), taps=("C",)),),
        )
        assert validate(graph) == []
        looped = replace(
            graph,
            variables=graph.variables + (("D", 2),),
            blocks=graph.blocks + (SisoBlock("cd", "C", "D", np.full((2, 2), 0.5)),),
            diverters=(DiverterNode(inbound=("B", "D"), taps=("C",)),),
        )
        problems = validate(looped)
        assert problems

    def test_reports_diverter_without_inbound_edge(self):
        chain = chain_graph()
        graph = replace(chain, diverters=(DiverterNode(inbound=(), taps=("X",)),))
        assert any("at least one inbound" in p for p in validate(graph))

    def test_rejects_nonpositive_size(self):
        graph = GraphSpec(
            variables=(("A", 0),),
            sources=(SourceBlock("prior_A", "A", np.array([])),),
        )
        assert any("non-positive" in p for p in validate(graph))


class TestSplitVariable:
    def test_chain_split_structure(self):
        graph = chain_graph()
        split = ensure_valid(split_variable(graph, "S"))
        names = dict(split.variables)
        assert "S_cont" in names and "S_tap" in names
        # the block now consumes the continuation replica
        assert split.block("P_X").from_var == "S_cont"
        assert split.diverters[-1].inbound == ("S",)
        assert set(split.diverters[-1].taps) == {"S_cont", "S_tap"}
        assert "S_tap" in split.terminals()

    def test_split_terminal_variable(self):
        graph = chain_graph()
        split = ensure_valid(split_variable(graph, "X"))
        assert "X_tap" in split.terminals()
        assert "X_cont" in split.terminals()

    def test_split_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            split_variable(chain_graph(), "Q")

    def test_split_existing_tap_rejected(self):
        star = build_latent_star()
        with pytest.raises(GraphError):
            split_variable(star, "S1")

    def test_fresh_names_avoid_collision(self):
        # occupy the default continuation name with an unrelated variable
        graph = chain_graph()
        graph = replace(
            graph,
            variables=graph.variables + (("S_cont", 2),),
            blocks=graph.blocks + (SisoBlock("c1", "X", "S_cont", np.full((2, 2), 0.5)),),
        )
        split = ensure_valid(split_variable(graph, "S"))
        names = [n for n, _ in split.variables]
        assert names.count("S_cont") == 1
        assert "S_cont2" in names


class TestFileFormat:
    def test_round_trip_preserves_everything(self, tmp_path):
        graph = build_latent_star(generative=True)
        path = tmp_path / "star.json"
        save_graph(graph, path)
        loaded = load_graph(path)
        assert loaded.variables == graph.variables
        for orig, back in zip(graph.blocks, loaded.blocks):
            assert back.name == orig.name
            assert back.trainable == orig.trainable
            assert np.array_equal(back.theta, orig.theta)
        for orig, back in zip(graph.sources, loaded.sources):
            assert np.array_equal(back.prior, orig.prior)
        assert loaded.diverters == graph.diverters
        assert graph_digest(loaded) == graph_digest(graph)

    def test_digest_tracks_parameters(self):
        star = build_latent_star()
        trained = star.with_parameters(
            {"P_X1": np.array([[0.2, 0.8]] * 4)}
        )
        assert graph_digest(star) != graph_digest(trained)
        assert graph_digest(star) == graph_digest(build_latent_star())

    def test_uniform_shorthand(self):
        data = {
            "variables": [{"name": "S", "size": 3}, {"name": "X", "size": 2}],
            "sources": [{"name": "prior_S", "variable": "S", "prior": "uniform"}],
            "blocks": [{"name": "P_X", "from": "S", "to": "X", "matrix": "uniform"}],
        }
        graph = ensure_valid(graph_from_dict(data))
        np.testing.assert_allclose(graph.source("prior_S").prior, 1.0 / 3.0)
        np.testing.assert_allclose(graph.block("P_X").theta, 0.5)

    def test_builder_matrix_entries(self):
        data = {
            "variables": [{"name": "S", "size": 4}, {"name": "P", "size": 8}],
            "sources": [{"name": "prior_S", "variable": "S", "prior": "uniform"}],
            "blocks": [
                {
                    "name": "join",
                    "from": "S",
                    "to": "P",
                    "matrix": {"builder": "expander", "sizes": [4, 2], "j": 1},
                }
            ],
        }
        graph = ensure_valid(graph_from_dict(data))
        block = graph.block("join")
        assert np.array_equal(block.theta, build_expander([4, 2], 1))
        assert block.trainable is False

    def test_builder_blocks_cannot_be_trainable(self):
        data = {
            "variables": [{"name": "S", "size": 4}, {"name": "P", "size": 8}],
            "blocks": [
                {
                    "name": "join",
                    "from": "S",
                    "to": "P",
                    "matrix": {"builder": "expander", "sizes": [4, 2], "j": 1},
                    "trainable": True,
                }
            ],
        }
        with pytest.raises(GraphError):
            graph_from_dict(data)

    def test_unknown_builder_rejected(self):
        data = {
            "variables": [{"name": "S", "size": 2}, {"name": "X", "size": 2}],
            "blocks": [
                {"name": "b", "from": "S", "to": "X", "matrix": {"builder": "mystery"}}
            ],
        }
        with pytest.raises(GraphError):
            graph_from_dict(data)

    def test_unknown_variable_in_file(self):
        data = {
            "variables": [{"name": "S", "size": 2}],
            "blocks": [{"name": "b", "from": "S", "to": "X", "matrix": "uniform"}],
        }
        with pytest.raises(UnknownVariable):
            graph_from_dict(data)

    def test_multi_inbound_diverter_round_trip(self, tmp_path):
        graph = build_deep_graph()
        path = tmp_path / "deep.json"
        save_graph(graph, path)
        loaded = load_graph(path)
        assert loaded.diverters == graph.diverters
        raw = json.loads(path.read_text())
        joins = [d for d in raw["diverters"] if isinstance(d["variable"], list)]
        assert len(joins) == 2

    def test_malformed_variables_section(self):
        with pytest.raises(GraphError):
            graph_from_dict({"variables": [{"size": 3}]})
