"""Unit tests for graph structures, builders, validation, and file I/O."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_parameter_problem
from normalgraph.experiments import build_deep_graph, build_latent_star
from normalgraph.graph import (
    DiverterNode,
    GraphError,
    GraphSpec,
    InvalidIndex,
    SisoBlock,
    SourceBlock,
    UnknownVariable,
    _ends,
    _parameter_problem,
    build_expander,
    build_projector,
    graph_digest,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    save_graph,
    split_variable,
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
    return GraphSpec(
        variables=(("S", 2), ("X", 2)),
        sources=(SourceBlock("prior_S", "S", np.array([0.3, 0.7])),),
        blocks=(SisoBlock("P_X", "S", "X", np.array([[0.9, 0.1], [0.2, 0.8]])),),
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
        for sizes, j in [([2.7, 3], 1), ([True, 3], 1), (["2", 3], 1), ([2, 3], 1.0),
                         ([2, 3], True), ([2, np.float64(3)], 2)]:
            with pytest.raises(InvalidIndex):
                build_projector(sizes, j)
            with pytest.raises(InvalidIndex):
                build_expander(sizes, j)

    def test_numpy_integer_sizes_give_the_same_bits(self):
        for build in (build_projector, build_expander):
            for j in (1, 2, 3):
                want = build([2, 3, 2], j).tobytes()
                assert build([np.int64(2), np.uint8(3), 2], np.int64(j)).tobytes() == want
                assert build(np.array([2, 3, 2]), j).tobytes() == want


class TestGraphSpecBasics:
    def test_sizes_and_lookup(self):
        graph = chain_graph()
        assert graph.sizes == {"S": 2, "X": 2}

    def test_graphs_compare_by_identity(self):
        a, b = build_latent_star(), build_latent_star()
        assert a == a and a != b
        assert len({a, b, a.blocks[0], b.blocks[0]}) == 4
        assert graph_digest(a) == graph_digest(b)

    def test_tails_heads_terminals(self):
        graph = build_latent_star()
        tails, heads = _ends(graph)
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
        # original untouched: graphs are immutable
        assert graph.block("P_X").theta[0, 0] == 0.9
        with pytest.raises(GraphError):
            graph.with_parameters({"missing": new_theta})

    def test_theta_is_frozen(self):
        graph = chain_graph()
        with pytest.raises(ValueError):
            graph.block("P_X").theta[0, 0] = 0.0


class TestValidate:
    def test_accepts_experiment_builders(self):
        build_latent_star()
        build_latent_star(m_latent=7)
        build_latent_star(generative=True)
        build_deep_graph()

    def test_rejects_single_corruptions(self):
        """Every one-field corruption of the star graph must be caught
        when the corrupted graph is built."""
        star = build_latent_star()

        def with_block(index, **changes):
            blocks = list(star.blocks)
            blocks[index] = replace(blocks[index], **changes)
            return replace(star, blocks=tuple(blocks))

        non_stochastic = np.array(star.blocks[0].theta)
        non_stochastic[0, 0] += 0.2
        out_of_range = np.array(star.blocks[2].theta)
        out_of_range[0] = [1.4, -0.2, -0.2]
        not_a_number = np.array(star.blocks[1].theta)
        not_a_number[2, 1] = np.nan
        extra_source = SourceBlock("extra", "X1", np.array([0.5, 0.5]))
        corruptions = [
            ("unknown variable 'NOPE'", lambda: with_block(0, from_var="NOPE")),
            ("duplicate node names", lambda: with_block(1, name=star.blocks[0].name)),
            ("multiple producers", lambda: replace(star, sources=star.sources + (extra_source,))),
            ("rows do not sum to 1", lambda: with_block(0, theta=non_stochastic)),
            (r"entries outside \[0, 1\]", lambda: with_block(2, theta=out_of_range)),
            (r"'P_X2' matrix has entries outside \[0, 1\]",
             lambda: with_block(1, theta=not_a_number)),
            ("prior length 2 does not match", lambda: replace(
                star, sources=(SourceBlock("prior_S", "S0", np.array([0.5, 0.5])),))),
            ("replicas disagree on alphabet size", lambda: replace(
                star, variables=tuple((n, 3 if n == "S2" else s) for n, s in star.variables))),
            ("'LONE' dangles", lambda: replace(star, variables=star.variables + (("LONE", 2),))),
            ("attaches the same variable twice", lambda: replace(
                star, diverters=(DiverterNode(inbound=("S0",), taps=("S1", "S1", "S3")),))),
            ("'S1' has multiple consumers", lambda: with_block(1, from_var="S1")),
            ("'LOOP' loops node 'loop' to itself", lambda: replace(
                star, variables=star.variables + (("LOOP", 2),),
                blocks=star.blocks + (SisoBlock("loop", "LOOP", "LOOP", np.eye(2)),))),
        ]
        for problem, build in corruptions:
            with pytest.raises(GraphError, match=problem):
                build()

    def test_rejects_cycle(self):
        with pytest.raises(GraphError, match="cycle|producers"):
            GraphSpec(
                variables=(("A", 2), ("B", 2), ("C", 2)),
                sources=(SourceBlock("prior_A", "A", np.array([0.5, 0.5])),),
                blocks=(
                    SisoBlock("ab", "A", "B", np.full((2, 2), 0.5)),
                    SisoBlock("bc", "B", "C", np.full((2, 2), 0.5)),
                    SisoBlock("ca", "C", "A", np.full((2, 2), 0.5)),
                ),
            )

    def test_rejects_parallel_edges(self):
        graph = GraphSpec(
            variables=(("A", 2), ("B", 2), ("C", 2)),
            sources=(SourceBlock("prior_A", "A", np.array([0.5, 0.5])),),
            blocks=(SisoBlock("ab", "A", "B", np.full((2, 2), 0.5)),),
            diverters=(DiverterNode(inbound=("B",), taps=("C",)),),
        )
        with pytest.raises(GraphError, match="parallel edge"):
            replace(
                graph,
                variables=graph.variables + (("D", 2),),
                blocks=graph.blocks + (SisoBlock("cd", "C", "D", np.full((2, 2), 0.5)),),
                diverters=(DiverterNode(inbound=("B", "D"), taps=("C",)),),
            )

    def test_reports_diverter_without_inbound_edge(self):
        chain = chain_graph()
        with pytest.raises(GraphError, match="at least one inbound"):
            replace(chain, diverters=(DiverterNode(inbound=(), taps=("X",)),))

    def test_rejects_nonpositive_size(self):
        with pytest.raises(GraphError, match="non-positive"):
            GraphSpec(
                variables=(("A", 0),),
                sources=(SourceBlock("prior_A", "A", np.array([])),),
            )

    @pytest.mark.parametrize("size", [2.7, 2.0, "2", True, np.float64(2.0)], ids=repr)
    def test_rejects_non_integer_size(self, size):
        """A size is checked by the rule of counts, not truncated by ``int``."""
        problem = f"variable 'A' size must be an integer, got {re.escape(repr(size))}"
        with pytest.raises(GraphError, match=problem):
            GraphSpec(variables=(("A", size),),
                      sources=(SourceBlock("prior_A", "A", np.array([0.5, 0.5])),))

    @pytest.mark.parametrize("size", [2.7, True], ids=repr)
    def test_unsound_size_is_the_one_problem(self, size):
        """A variable whose size breaks the rule is in no size check, so its
        prior of another length adds no second problem."""
        with pytest.raises(GraphError) as raised:
            GraphSpec(variables=(("X", size),), sources=(SourceBlock("p", "X", [0.5, 0.5]),))
        assert str(raised.value) == f"variable 'X' size must be an integer, got {size!r}"

    @pytest.mark.parametrize("size", [2, np.int64(2), np.uint8(2)], ids=repr)
    def test_integer_size_is_stored_as_int(self, size):
        graph = GraphSpec(variables=(("A", size),),
                          sources=(SourceBlock("prior_A", "A", np.array([0.5, 0.5])),))
        assert graph.variables == (("A", 2),) and type(graph.sizes["A"]) is int

    def test_with_parameters_rejects_non_stochastic_matrix(self):
        star = build_latent_star()
        with pytest.raises(GraphError, match="block 'P_X1' matrix rows do not sum to 1"):
            star.with_parameters({"P_X1": np.full((4, 2), 0.4)})

    @pytest.mark.parametrize("name, value, problem", [
        ("P_X1", [0.5, 0.5], r"block 'P_X1': matrix must be 2-d, got shape \(2,\)"),
        ("P_X1", np.full((1, 4, 2), 0.5),
         r"block 'P_X1': matrix must be 2-d, got shape \(1, 4, 2\)"),
        ("prior_S", [[0.25] * 4], r"source 'prior_S': prior must be 1-d, got shape \(1, 4\)"),
    ])
    def test_misshapen_parameter_names_its_owner(self, name, value, problem):
        with pytest.raises(GraphError, match=problem):
            build_latent_star().with_parameters({name: value})


def built_with(graph: GraphSpec, updates: dict) -> GraphSpec:
    """``graph`` built anew with the priors and matrices of ``updates``."""
    sources = tuple(replace(s, prior=updates[s.name]) if s.name in updates else s
                    for s in graph.sources)
    blocks = tuple(replace(b, theta=updates[b.name]) if b.name in updates else b
                   for b in graph.blocks)
    return GraphSpec(graph.variables, sources, blocks, graph.diverters)


def defective(value: np.ndarray, defect: str, rng: np.random.Generator) -> np.ndarray:
    """A copy of a prior or matrix with one ``defect``; "valid" draws a new
    row-stochastic one of the same shape."""
    out = rng.uniform(0.05, 1.0, size=value.shape)
    out /= out.sum(axis=-1, keepdims=True)
    at = tuple(int(rng.integers(size)) for size in value.shape)
    if defect == "negative entry":
        out[at] = -rng.uniform(1e-9, 0.5)
    elif defect == "entry above 1":
        out[at] = 1.0 + rng.uniform(1e-9, 0.5)
    elif defect == "NaN":
        out[at] = np.nan
    elif defect == "unnormalized rows":
        out[at[:-1]] *= rng.choice([0.5, 0.999, 1.001, 2.0])
    elif defect == "wrong length":
        out = np.concatenate([out, out[:1]])
    elif defect == "wrong shape":
        out = [out.ravel(), out[..., None], out[..., :-1], out.T][int(rng.integers(4))]
    return out


class TestWithParametersChecksWhatConstructionChecks:
    """``with_parameters`` checks only the swapped parameter, and accepts or
    rejects it exactly as building the whole graph with it does."""

    GRAPHS = {"deep": build_deep_graph(), "star": build_latent_star()}
    DEFECTS = ["valid", "wrong shape", "negative entry", "entry above 1", "NaN",
               "unnormalized rows", "wrong length"]

    @given(graph_name=st.sampled_from(sorted(GRAPHS)), unit_index=st.integers(0, 20),
           defect=st.sampled_from(DEFECTS), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_same_verdict_and_message_as_construction(self, graph_name, unit_index, defect,
                                                      seed):
        graph = self.GRAPHS[graph_name]
        units = (*graph.sources, *graph.blocks)
        unit = units[unit_index % len(units)]
        current = unit.prior if isinstance(unit, SourceBlock) else unit.theta
        value = defective(current, defect, np.random.default_rng(seed))
        try:
            expected = built_with(graph, {unit.name: value})
        except GraphError as error:
            with pytest.raises(GraphError) as caught:
                graph.with_parameters({unit.name: value})
            assert str(caught.value) == str(error)
            assert defect != "valid"
        else:
            swapped = graph.with_parameters({unit.name: value})
            assert graph_digest(swapped) == graph_digest(expected)
            assert swapped.variables == graph.variables and swapped.diverters == graph.diverters

    def test_several_problems_are_listed_in_graph_order(self):
        star = build_latent_star()
        updates = {"P_X3": np.full((4, 3), 0.5), "prior_S": [0.5, 0.5]}
        with pytest.raises(GraphError) as scratch:
            built_with(star, updates)
        with pytest.raises(GraphError) as swapped:
            star.with_parameters(updates)
        assert str(swapped.value) == str(scratch.value) == (
            "source 'prior_S' prior length 2 does not match variable size 4; "
            "block 'P_X3' matrix rows do not sum to 1")

    def test_unknown_name_is_rejected(self):
        with pytest.raises(GraphError, match=r"no such blocks: \['P_X9', 'nope'\]"):
            build_latent_star().with_parameters({"nope": [1.0], "P_X9": [[1.0]], "P_X1": [1.0]})


class TestParameterCheckMatchesReference:
    """``_parameter_problem`` reduces each prior and matrix directly; it gives
    the message, or None, of ``oracles.reference_parameter_problem``, the
    check through boolean arrays and ``is_normalized``, on priors and matrices
    that hold 0/1 rows, rows off a unit sum by about 1e-12 either way,
    negative entries, entries above 1, NaN and +-inf, that are empty, or whose
    shape disagrees with the variable sizes or has no sizes to meet."""

    # Entries planted into an otherwise valid prior or matrix.
    PLANTED = [0.0, -0.0, 1.0, -5e-324, -0.5, 1.0 + 2**-52, 1.5, np.nan, np.inf, -np.inf]
    # Added to one entry: a row sum moves by about this, within, on or past 1e-12.
    OFFSETS = [0.5e-12, 1e-12, 1.5e-12, -0.5e-12, -1e-12, -1.5e-12]

    @given(data=st.data())
    @settings(max_examples=600, deadline=None)
    def test_same_message_as_reference(self, data):
        source = data.draw(st.booleans(), label="source")
        shape = tuple(data.draw(st.lists(st.integers(0, 4), min_size=1 if source else 2,
                                         max_size=1 if source else 2), label="shape"))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        if data.draw(st.booleans(), label="0/1 rows") or not shape[-1]:
            value = np.eye(max(shape[-1], 1))[rng.integers(max(shape[-1], 1), size=shape[:-1])]
            value = value[..., :shape[-1]]
        else:
            value = rng.uniform(0.05, 1.0, size=shape)
            value /= value.sum(axis=-1, keepdims=True)
        if value.size:
            flat = value.reshape(-1)
            for _ in range(data.draw(st.integers(0, 2), label="offsets")):
                flat[rng.integers(flat.size)] += data.draw(st.sampled_from(self.OFFSETS))
            for _ in range(data.draw(st.integers(0, 2), label="planted")):
                flat[rng.integers(flat.size)] = data.draw(st.sampled_from(self.PLANTED))
        sizes = dict(zip("ab", (s + data.draw(st.sampled_from([0, 0, 1]), label="misfit")
                                for s in shape)))
        if data.draw(st.booleans(), label="unknown variable"):
            sizes.pop(data.draw(st.sampled_from(sorted(sizes))))
        unit = SourceBlock("u", "a", value) if source else SisoBlock("u", "a", "b", value)
        assert _parameter_problem(unit, sizes) == reference_parameter_problem(unit, sizes)

    @pytest.mark.parametrize("value, message", [
        ([[np.nan, 1.0]], "matrix has entries outside [0, 1]"),
        ([[0.5, np.nan]], "matrix has entries outside [0, 1]"),
        ([[np.inf, 0.0]], "matrix has entries outside [0, 1]"),
        ([[1.0 + 2**-52, 0.0]], "matrix has entries outside [0, 1]"),
        ([[0.5, 0.5 + 2e-12]], "matrix rows do not sum to 1"),
        ([[np.nan]], "prior is not a distribution"),
        ([[0.5, 0.5 + 0.5e-12]], None),
    ], ids=["NaN", "NaN last", "inf", "just above 1", "row off", "NaN prior", "row within"])
    def test_fixed_cases(self, value, message):
        value = np.array(value)
        sizes = {"a": value.shape[0], "b": value.shape[1]}
        unit = (SourceBlock("u", "b", value[0]) if message and "prior" in message
                else SisoBlock("u", "a", "b", value))
        problem = _parameter_problem(unit, sizes)
        assert problem == reference_parameter_problem(unit, sizes)
        assert problem == (message and f"{'source' if 'prior' in message else 'block'} 'u' "
                                       f"{message}")


class TestSplitVariable:
    def test_chain_split_structure(self):
        graph = chain_graph()
        split = split_variable(graph, "S")
        names = dict(split.variables)
        assert "S_cont" in names and "S_tap" in names
        # the block now consumes the continuation replica
        assert split.block("P_X").from_var == "S_cont"
        assert split.diverters[-1].inbound == ("S",)
        assert set(split.diverters[-1].taps) == {"S_cont", "S_tap"}
        assert "S_tap" in split.terminals()

    def test_split_terminal_variable(self):
        graph = chain_graph()
        split = split_variable(graph, "X")
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
        split = split_variable(graph, "S")
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
        graph = graph_from_dict(data)
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
        graph = graph_from_dict(data)
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
            "variables": [{"name": "S", "size": 2}, {"name": "A", "size": 3}],
            "sources": [{"name": "prior_Q", "variable": "Q"}],
            "blocks": [{"name": "b", "from": "S", "to": "X", "matrix": "uniform"}],
            "diverters": [{"variable": "A", "taps": ["T"]}],
        }
        with pytest.raises(GraphError) as info:
            graph_from_dict(data)
        for reference in ("source 'prior_Q' references unknown variable 'Q'",
                          "block 'b' references unknown variable 'X'",
                          "diverter '=A' references unknown variable 'T'"):
            assert reference in str(info.value)

    def test_multi_inbound_diverter_round_trip(self, tmp_path):
        graph = build_deep_graph()
        path = tmp_path / "deep.json"
        save_graph(graph, path)
        loaded = load_graph(path)
        assert loaded.diverters == graph.diverters
        raw = json.loads(path.read_text())
        joins = [d for d in raw["diverters"] if isinstance(d["variable"], list)]
        assert len(joins) == 2

    @pytest.mark.parametrize("section, value, problem", [
        ("blocks", [0.5, 0.5], r"^block 'P_X1': matrix must be 2-d, got shape \(2,\)$"),
        ("sources", [[0.25, 0.25, 0.25, 0.25]],
         r"^source 'prior_S': prior must be 1-d, got shape \(1, 4\)$"),
    ])
    def test_misshapen_parameter_in_file_names_its_owner(self, tmp_path, section, value,
                                                          problem):
        document = graph_to_dict(build_latent_star(generative=True))
        document[section][0]["matrix" if section == "blocks" else "prior"] = value
        path = tmp_path / "misshapen.json"
        path.write_text(json.dumps(document))
        with pytest.raises(GraphError, match=problem):
            load_graph(path)

    def test_malformed_variables_section(self):
        with pytest.raises(GraphError):
            graph_from_dict({"variables": [{"size": 3}]})
