"""Unit tests for exact message passing and likelihood functionals."""

import numpy as np
import pytest

from oracles import class_posteriors, random_bayes_tree, tree_posteriors
from normalgraph.experiments import TREE_LEAF_CONDITIONALS, build_latent_star
from normalgraph.graph import (
    DiverterNode,
    GraphError,
    GraphSpec,
    SisoBlock,
    SourceBlock,
    UnknownVariable,
    build_expander,
    ensure_valid,
    split_variable,
)
from normalgraph.learning import BlockDataset
from normalgraph.messages import one_hot
from normalgraph.propagation import (
    ContradictoryEvidence,
    Propagator,
    aggregated_log_likelihood,
    block_log_likelihood,
    posterior,
    propagate,
)


def identity_chain(prior=(0.3, 0.7)):
    return ensure_valid(
        GraphSpec(
            variables=(("S", 2), ("X", 2)),
            sources=(SourceBlock("prior_S", "S", np.array(prior)),),
            blocks=(SisoBlock("P_X", "S", "X", np.eye(2)),),
        )
    )


def mini_join_graph(seed=42):
    """Two sources combined into a 6-state product space feeding one leaf."""
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.1, 1.0, size=(6, 2))
    theta /= theta.sum(axis=1, keepdims=True)
    prior_a = np.array([0.6, 0.4])
    prior_b = np.array([0.5, 0.2, 0.3])
    return ensure_valid(
        GraphSpec(
            variables=(("A", 2), ("B", 3), ("PA", 6), ("PB", 6), ("P0", 6), ("X", 2)),
            sources=(
                SourceBlock("prior_A", "A", prior_a),
                SourceBlock("prior_B", "B", prior_b),
            ),
            blocks=(
                SisoBlock("joinA", "A", "PA", build_expander([2, 3], 1), trainable=False),
                SisoBlock("joinB", "B", "PB", build_expander([2, 3], 2), trainable=False),
                SisoBlock("P_X", "P0", "X", theta),
            ),
            diverters=(DiverterNode(inbound=("PA", "PB"), taps=("P0",)),),
        )
    )


def one_block(theta):
    """A single block between the open terminals A (input) and B (output)."""
    theta = np.asarray(theta, dtype=float)
    return ensure_valid(
        GraphSpec(
            variables=(("A", theta.shape[0]), ("B", theta.shape[1])),
            blocks=(SisoBlock("P", "A", "B", theta),),
        )
    )


def one_diverter(n_taps, size=2):
    """A single diverter from the open terminal E0 to the open taps E1..En."""
    taps = tuple(f"E{k}" for k in range(1, n_taps + 1))
    return ensure_valid(
        GraphSpec(
            variables=tuple((v, size) for v in ("E0", *taps)),
            diverters=(DiverterNode(inbound=("E0",), taps=taps),),
        )
    )


class TestLocalRules:
    """The block and diverter rules, read off one-node graphs whose open
    ends carry the entering messages as soft evidence."""

    def test_siso_forward_hand_value(self):
        """Uniform four-state input through the first reference conditional
        lands on the marginal [0.35, 0.65]."""
        theta = TREE_LEAF_CONDITIONALS[0]
        out = propagate(one_block(theta), {"A": np.full(4, 0.25)}).forward["B"][0]
        np.testing.assert_allclose(out, [0.35, 0.65], atol=1e-15)

    def test_siso_forward_identity_and_uniform(self):
        f = np.array([0.2, 0.8])
        out = propagate(one_block(np.eye(2)), {"A": f}).forward["B"][0]
        np.testing.assert_allclose(out, f, atol=1e-15)
        rows_equal = np.full((3, 2), 0.5)
        out = propagate(one_block(rows_equal), {"A": np.array([0.1, 0.3, 0.6])}).forward["B"][0]
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-15)

    def test_siso_backward_hand_value(self):
        theta = np.array([[0.1, 0.9], [0.9, 0.1]])
        out = propagate(one_block(theta), {"B": np.array([1.0, 0.0])}).backward["A"][0]
        np.testing.assert_allclose(out, [0.1, 0.9], atol=1e-15)

    def test_siso_backward_uniform_passthrough(self):
        theta = np.array([[0.3, 0.7], [0.6, 0.4], [0.5, 0.5]])
        out = propagate(one_block(theta), {"B": np.array([0.5, 0.5])}).backward["A"][0]
        np.testing.assert_allclose(out, 1.0 / 3.0, atol=1e-15)

    def test_diverter_out_hand_values(self):
        state = propagate(one_diverter(2), {
            "E0": np.array([0.5, 0.5]),
            "E1": np.array([0.9, 0.1]),
            "E2": np.array([0.5, 0.5]),
        })
        np.testing.assert_allclose(state.backward["E0"][0], [0.9, 0.1], atol=1e-15)
        np.testing.assert_allclose(state.forward["E1"][0], [0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(state.forward["E2"][0], [0.9, 0.1], atol=1e-15)

    def test_diverter_single_tap_passthrough(self):
        state = propagate(one_diverter(1), {
            "E0": np.array([0.2, 0.8]),
            "E1": np.array([0.7, 0.3]),
        })
        np.testing.assert_allclose(state.backward["E0"][0], [0.7, 0.3], atol=1e-15)
        np.testing.assert_allclose(state.forward["E1"][0], [0.2, 0.8], atol=1e-15)

    def test_diverter_contradiction(self):
        with pytest.raises(ContradictoryEvidence):
            propagate(one_diverter(2), {
                "E0": np.array([1.0, 0.0]),
                "E1": np.array([0.0, 1.0]),
                "E2": np.array([0.5, 0.5]),
            })


class TestPropagateExactness:
    def test_identity_chain_posterior(self):
        state = propagate(identity_chain())
        np.testing.assert_allclose(posterior(state, "X")[0], [0.3, 0.7], atol=1e-14)

    def test_star_posterior_hand_product(self):
        """All-leaves evidence: the source posterior is the prior times the
        selected conditional columns, here [10, 297, 3600, 60] / 3967."""
        graph = build_latent_star(generative=True)
        state = propagate(graph, {"X1": 0, "X2": 0, "X3": 0})
        expected = np.array([10.0, 297.0, 3600.0, 60.0]) / 3967.0
        for replica in ("S0", "S1", "S2", "S3"):
            np.testing.assert_allclose(posterior(state, replica)[0], expected, atol=1e-14)

    def test_star_matches_class_enumeration(self):
        graph = build_latent_star(generative=True)
        for evidence in ({"X1": 1}, {"X1": 0, "X3": 2}, {}):
            state = propagate(graph, evidence)
            oracle = class_posteriors(graph, evidence)
            for var in ("S0", "X1", "X2", "X3"):
                np.testing.assert_allclose(
                    posterior(state, var)[0], oracle[var], atol=1e-12
                )

    def test_product_space_join_matches_enumeration(self):
        graph = mini_join_graph()
        for evidence in ({"X": 1}, {"X": 0}, {}):
            state = propagate(graph, evidence)
            oracle = class_posteriors(graph, evidence)
            for var in ("A", "B", "P0", "X"):
                np.testing.assert_allclose(
                    posterior(state, var)[0], oracle[var], atol=1e-12
                )

    def test_random_trees_match_joint_conditioning(self):
        """A 30-tree slice of the exactness battery at 1e-10."""
        rng = np.random.default_rng(42)
        for _ in range(30):
            tree, graph, readout = random_bayes_tree(rng)
            n_nodes = len(tree["sizes"])
            observed = {
                v: int(rng.integers(tree["sizes"][v]))
                for v in range(n_nodes)
                if rng.uniform() < 0.4
            }
            state = propagate(graph, {readout[v]: k for v, k in observed.items()})
            expected = tree_posteriors(tree, observed)
            for v in range(n_nodes):
                got = posterior(state, readout[v])[0]
                np.testing.assert_allclose(got, expected[v], atol=1e-10)
                base = posterior(state, f"V{v}")[0]
                np.testing.assert_allclose(base, expected[v], atol=1e-10)

    def test_replica_posteriors_agree(self):
        graph = build_latent_star(generative=True)
        state = propagate(graph, {"X1": 1, "X2": 0})
        reference = posterior(state, "S0")
        for replica in ("S1", "S2", "S3"):
            np.testing.assert_allclose(posterior(state, replica), reference, atol=1e-12)


class TestBatchingAndSchedules:
    def test_batch_equals_per_sample(self):
        graph = build_latent_star(generative=True)
        rng = np.random.default_rng(42)
        evidence = {
            "X1": rng.integers(2, size=20),
            "X2": rng.integers(2, size=20),
            "X3": rng.integers(3, size=20),
        }
        batch = propagate(graph, evidence)
        for n in range(20):
            single = propagate(graph, {k: int(v[n]) for k, v in evidence.items()})
            for var in ("S0", "X1", "X3"):
                np.testing.assert_allclose(
                    posterior(batch, var)[n], posterior(single, var)[0], atol=1e-15
                )

    def test_flooding_settles_to_exact(self):
        """Jacobi flooding reproduces the one-pass sweep after depth rounds,
        from uniform and from random starting messages alike."""
        graph = build_latent_star(generative=True)
        prop = Propagator(graph)
        evidence = {"X1": 1, "X2": 0, "X3": 2}
        exact = prop.run(evidence)
        depth = prop.depth
        flooded = prop.run(evidence, flooding_rounds=depth)
        rng = np.random.default_rng(42)
        random_start = prop.initial_state(evidence, rng=rng)
        flooded_random = prop.run(evidence, flooding_rounds=depth, init=random_start)
        for var in graph.sizes:
            np.testing.assert_allclose(
                flooded.forward[var], exact.forward[var], atol=1e-12
            )
            np.testing.assert_allclose(
                flooded_random.backward[var], exact.backward[var], atol=1e-12
            )

    def test_schedule_is_deterministic(self):
        graph = build_latent_star(generative=True)
        a = Propagator(graph).run({"X1": 1})
        b = Propagator(graph).run({"X1": 1})
        for var in graph.sizes:
            assert np.array_equal(a.forward[var], b.forward[var])
            assert np.array_equal(a.backward[var], b.backward[var])

    def test_parameter_overrides_match_rebuilt_graph(self):
        graph = build_latent_star()
        prop = Propagator(graph)
        new_theta = np.array([[0.2, 0.8], [0.7, 0.3], [0.5, 0.5], [0.9, 0.1]])
        overridden = prop.run({"X1": 1}, parameters={"P_X1": new_theta})
        rebuilt = propagate(graph.with_parameters({"P_X1": new_theta}), {"X1": 1})
        for var in graph.sizes:
            np.testing.assert_allclose(
                overridden.forward[var], rebuilt.forward[var], atol=1e-15
            )

    def test_override_validation(self):
        prop = Propagator(build_latent_star())
        with pytest.raises(GraphError):
            prop.run({}, parameters={"nope": np.eye(2)})
        with pytest.raises(GraphError):
            prop.run({}, parameters={"P_X1": np.eye(3)})

    def test_forward_order_follows_producers(self):
        """Every variable comes after the inputs of its producing node."""
        from normalgraph.experiments import build_deep_graph

        graph = build_deep_graph()
        order = Propagator(graph).forward_order
        assert isinstance(order, tuple) and sorted(order) == sorted(graph.sizes)
        position = {var: k for k, var in enumerate(order)}
        for var, node in graph.tails().items():
            if isinstance(node, DiverterNode):
                inputs = node.inbound
            elif isinstance(node, SisoBlock):
                inputs = (node.from_var,)
            else:
                inputs = ()
            assert all(position[v] < position[var] for v in inputs), var

    def test_state_arrays_are_frozen(self):
        state = propagate(identity_chain())
        with pytest.raises(ValueError):
            state.forward["X"][0, 0] = 9.9


class TestEvidenceHandling:
    def test_hard_evidence_cuts_flow(self):
        """The posterior at an instantiated terminal is the injected delta."""
        graph = build_latent_star(generative=True)
        state = propagate(graph, {"X1": 1, "X3": 0})
        np.testing.assert_allclose(posterior(state, "X1")[0], [0.0, 1.0], atol=0)
        np.testing.assert_allclose(posterior(state, "X3")[0], [1.0, 0.0, 0.0], atol=0)

    def test_soft_evidence_scale_invariance(self):
        graph = build_latent_star(generative=True)
        soft = np.array([0.2, 0.5])
        a = propagate(graph, {"X1": soft})
        b = propagate(graph, {"X1": soft * 37.0})
        for var in graph.sizes:
            np.testing.assert_allclose(
                posterior(a, var), posterior(b, var), atol=1e-12
            )

    def test_scalar_evidence_broadcasts(self):
        graph = build_latent_star(generative=True)
        state = propagate(graph, {"X1": 1}, n_samples=5)
        assert state.n_samples == 5
        assert posterior(state, "S0").shape == (5, 4)

    def test_mixed_batch_sizes_must_agree(self):
        graph = build_latent_star(generative=True)
        with pytest.raises(ValueError):
            propagate(graph, {"X1": np.zeros(4, dtype=int), "X2": np.zeros(6, dtype=int)})

    def test_unknown_and_nonterminal_evidence(self):
        graph = build_latent_star(generative=True)
        with pytest.raises(UnknownVariable):
            propagate(graph, {"Q": 0})
        with pytest.raises(GraphError, match="split"):
            propagate(graph, {"S1": 0})

    def test_out_of_range_symbol(self):
        graph = build_latent_star(generative=True)
        with pytest.raises(ValueError):
            propagate(graph, {"X1": 2})

    def test_all_zero_soft_evidence(self):
        graph = build_latent_star(generative=True)
        with pytest.raises(ContradictoryEvidence):
            propagate(graph, {"X1": np.zeros(2)})

    def test_contradictory_hard_evidence_names_variable(self):
        chain = identity_chain(prior=(1.0, 0.0))
        split = ensure_valid(split_variable(chain, "X"))
        with pytest.raises(ContradictoryEvidence, match="X"):
            propagate(split, {"X_cont": 0, "X_tap": 1})

    def test_split_with_uniform_tap_changes_nothing(self):
        """A fresh tap fed uniform backward flow is invisible elsewhere."""
        graph = build_latent_star(generative=True)
        split = ensure_valid(split_variable(graph, "X2"))
        evidence = {"X1": 1, "X3": 2}
        before = propagate(graph, evidence)
        after = propagate(split, evidence)
        for var in graph.sizes:
            np.testing.assert_allclose(
                posterior(after, var), posterior(before, var), atol=1e-12
            )
        np.testing.assert_allclose(
            posterior(after, "X2_cont"), posterior(before, "X2"), atol=1e-12
        )


class TestLikelihoods:
    def test_aggregated_trivial_values(self):
        graph = identity_chain(prior=(0.25, 0.75))
        state = propagate(graph, {"X": 1})
        # single terminal: the overlap is P(X = 1)
        value = aggregated_log_likelihood(state, ("X",))
        np.testing.assert_allclose(value, np.log(0.75), atol=1e-14)

    def test_aggregated_uniform_times_delta(self):
        graph = identity_chain(prior=(0.5, 0.5))
        state = propagate(graph, {"X": 0})
        value = aggregated_log_likelihood(state, ("X",))
        np.testing.assert_allclose(value, np.log(0.5), atol=1e-14)

    def test_aggregated_empty_mask_is_zero(self):
        graph = identity_chain()
        state = propagate(graph, {"X": np.array([0, 1, 1])})
        assert aggregated_log_likelihood(state, ("X",), np.zeros(3, dtype=bool)) == 0.0

    def test_aggregated_minus_inf_sentinel(self):
        graph = ensure_valid(
            GraphSpec(
                variables=(("S", 2), ("X", 2)),
                sources=(SourceBlock("prior_S", "S", np.array([1.0, 0.0])),),
                blocks=(
                    SisoBlock("P_X", "S", "X", np.array([[1.0, 0.0], [0.5, 0.5]])),
                ),
            )
        )
        state = propagate(graph, {"X": 1})
        assert aggregated_log_likelihood(state, ("X",)) == float("-inf")

    def test_aggregated_unknown_terminal(self):
        state = propagate(identity_chain())
        with pytest.raises(UnknownVariable):
            aggregated_log_likelihood(state, ("Q",))

    def test_block_log_likelihood_values(self):
        theta = np.full((3, 2), 0.5)
        data = BlockDataset(
            forward=np.array([[0.2, 0.3, 0.5]]), backward=np.array([[0.4, 0.6]])
        )
        np.testing.assert_allclose(
            block_log_likelihood(theta, data), np.log(0.5), atol=1e-14
        )
        delta_data = BlockDataset(forward=one_hot(np.array([1]), 3),
                                  backward=one_hot(np.array([0]), 2))
        theta = np.array([[0.5, 0.5], [0.3, 0.7], [0.9, 0.1]])
        np.testing.assert_allclose(
            block_log_likelihood(theta, delta_data), np.log(0.3), atol=1e-14
        )

    def test_block_log_likelihood_mask_and_sentinel(self):
        theta = np.array([[1.0, 0.0], [0.0, 1.0]])
        data = BlockDataset(
            forward=one_hot(np.array([0, 1]), 2),
            backward=one_hot(np.array([1, 1]), 2),
            mask=np.array([1.0, 1.0]),
        )
        assert block_log_likelihood(theta, data) == float("-inf")
        masked = BlockDataset(
            forward=data.forward, backward=data.backward, mask=np.array([0.0, 1.0])
        )
        np.testing.assert_allclose(block_log_likelihood(theta, masked), 0.0, atol=0)
