"""Unit tests for exact message passing and likelihood functionals."""

import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (class_posteriors, flooding, random_bayes_tree, reference_normalize,
                     reference_schedule, reference_sweep, tree_posteriors)
from normalgraph.experiments import (
    TREE_LEAF_CONDITIONALS,
    build_deep_graph,
    build_latent_star,
    deep_generative_parameters,
)
from normalgraph.graph import (
    DiverterNode,
    GraphError,
    GraphSpec,
    SisoBlock,
    SourceBlock,
    UnknownVariable,
    _ends,
    build_expander,
    split_variable,
)
from normalgraph.learning import BlockDataset, TrainConfig, block_log_likelihood, em_train
from normalgraph import learning, propagation
from normalgraph.messages import _SUM_SLACK, COLUMN_ROWS, hadamard_posterior, one_hot
from normalgraph.propagation import (
    ContradictoryEvidence,
    Propagator,
    aggregated_log_likelihood,
    posterior,
)


def identity_chain(prior=(0.3, 0.7)):
    return GraphSpec(
        variables=(("S", 2), ("X", 2)),
        sources=(SourceBlock("prior_S", "S", np.array(prior)),),
        blocks=(SisoBlock("P_X", "S", "X", np.eye(2)),),
    )


def mini_join_graph(seed=42):
    """Two sources combined into a 6-state product space feeding one leaf."""
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.1, 1.0, size=(6, 2))
    theta /= theta.sum(axis=1, keepdims=True)
    prior_a = np.array([0.6, 0.4])
    prior_b = np.array([0.5, 0.2, 0.3])
    return GraphSpec(
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


def one_block(theta):
    """A single block between the open terminals A (input) and B (output)."""
    theta = np.asarray(theta, dtype=float)
    return GraphSpec(
        variables=(("A", theta.shape[0]), ("B", theta.shape[1])),
        blocks=(SisoBlock("P", "A", "B", theta),),
    )


def one_diverter(n_taps, size=2):
    """A single diverter from the open terminal E0 to the open taps E1..En."""
    taps = tuple(f"E{k}" for k in range(1, n_taps + 1))
    return GraphSpec(
        variables=tuple((v, size) for v in ("E0", *taps)),
        diverters=(DiverterNode(inbound=("E0",), taps=taps),),
    )


class TestLocalRules:
    """The block and diverter rules, read off one-node graphs whose open
    ends carry the entering messages as soft evidence."""

    def test_siso_forward_hand_value(self):
        """Uniform four-state input through the first reference conditional
        lands on the marginal [0.35, 0.65]."""
        theta = TREE_LEAF_CONDITIONALS[0]
        out = Propagator(one_block(theta)).run({"A": np.full(4, 0.25)}).forward["B"][0]
        np.testing.assert_allclose(out, [0.35, 0.65], atol=1e-15)

    def test_siso_forward_identity_and_uniform(self):
        f = np.array([0.2, 0.8])
        out = Propagator(one_block(np.eye(2))).run({"A": f}).forward["B"][0]
        np.testing.assert_allclose(out, f, atol=1e-15)
        rows_equal = np.full((3, 2), 0.5)
        state = Propagator(one_block(rows_equal)).run({"A": np.array([0.1, 0.3, 0.6])})
        out = state.forward["B"][0]
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-15)

    def test_siso_backward_hand_value(self):
        theta = np.array([[0.1, 0.9], [0.9, 0.1]])
        out = Propagator(one_block(theta)).run({"B": np.array([1.0, 0.0])}).backward["A"][0]
        np.testing.assert_allclose(out, [0.1, 0.9], atol=1e-15)

    def test_siso_backward_uniform_passthrough(self):
        theta = np.array([[0.3, 0.7], [0.6, 0.4], [0.5, 0.5]])
        out = Propagator(one_block(theta)).run({"B": np.array([0.5, 0.5])}).backward["A"][0]
        np.testing.assert_allclose(out, 1.0 / 3.0, atol=1e-15)

    def test_diverter_out_hand_values(self):
        state = Propagator(one_diverter(2)).run({
            "E0": np.array([0.5, 0.5]),
            "E1": np.array([0.9, 0.1]),
            "E2": np.array([0.5, 0.5]),
        })
        np.testing.assert_allclose(state.backward["E0"][0], [0.9, 0.1], atol=1e-15)
        np.testing.assert_allclose(state.forward["E1"][0], [0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(state.forward["E2"][0], [0.9, 0.1], atol=1e-15)

    def test_diverter_single_tap_passthrough(self):
        state = Propagator(one_diverter(1)).run({
            "E0": np.array([0.2, 0.8]),
            "E1": np.array([0.7, 0.3]),
        })
        np.testing.assert_allclose(state.backward["E0"][0], [0.7, 0.3], atol=1e-15)
        np.testing.assert_allclose(state.forward["E1"][0], [0.2, 0.8], atol=1e-15)

    def test_diverter_contradiction(self):
        with pytest.raises(ContradictoryEvidence):
            Propagator(one_diverter(2)).run({
                "E0": np.array([1.0, 0.0]),
                "E1": np.array([0.0, 1.0]),
                "E2": np.array([0.5, 0.5]),
            })


class TestPropagateExactness:
    def test_identity_chain_posterior(self):
        state = Propagator(identity_chain()).run()
        np.testing.assert_allclose(posterior(state, "X")[0], [0.3, 0.7], atol=1e-14)

    def test_star_posterior_hand_product(self):
        """All-leaves evidence: the source posterior is the prior times the
        selected conditional columns, here [10, 297, 3600, 60] / 3967."""
        graph = build_latent_star(generative=True)
        state = Propagator(graph).run({"X1": 0, "X2": 0, "X3": 0})
        expected = np.array([10.0, 297.0, 3600.0, 60.0]) / 3967.0
        for replica in ("S0", "S1", "S2", "S3"):
            np.testing.assert_allclose(posterior(state, replica)[0], expected, atol=1e-14)

    def test_star_matches_class_enumeration(self):
        graph = build_latent_star(generative=True)
        for evidence in ({"X1": 1}, {"X1": 0, "X3": 2}, {}):
            state = Propagator(graph).run(evidence)
            oracle = class_posteriors(graph, evidence)
            for var in ("S0", "X1", "X2", "X3"):
                np.testing.assert_allclose(
                    posterior(state, var)[0], oracle[var], atol=1e-12
                )

    def test_product_space_join_matches_enumeration(self):
        graph = mini_join_graph()
        for evidence in ({"X": 1}, {"X": 0}, {}):
            state = Propagator(graph).run(evidence)
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
            state = Propagator(graph).run({readout[v]: k for v, k in observed.items()})
            expected = tree_posteriors(tree, observed)
            for v in range(n_nodes):
                got = posterior(state, readout[v])[0]
                np.testing.assert_allclose(got, expected[v], atol=1e-10)
                base = posterior(state, f"V{v}")[0]
                np.testing.assert_allclose(base, expected[v], atol=1e-10)

    def test_replica_posteriors_agree(self):
        graph = build_latent_star(generative=True)
        state = Propagator(graph).run({"X1": 1, "X2": 0})
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
        batch = Propagator(graph).run(evidence)
        for n in range(20):
            single = Propagator(graph).run({k: int(v[n]) for k, v in evidence.items()})
            for var in ("S0", "X1", "X3"):
                np.testing.assert_allclose(
                    posterior(batch, var)[n], posterior(single, var)[0], atol=1e-15
                )

    @pytest.mark.parametrize("n", [1, 8, COLUMN_ROWS - 1, COLUMN_ROWS, 3 * COLUMN_ROWS])
    def test_column_sums_change_no_bit(self, n):
        """``run`` stores every message (size, n) and sums it by column, the
        8- and 12-wide ones in numpy's lanes from ``COLUMN_ROWS`` samples on.
        Every message, posterior and log-likelihood keeps the bits of the
        row-major sweep, whose sums are numpy's reduction of each row."""
        deep = build_deep_graph().with_parameters(deep_generative_parameters(1))
        rng = np.random.default_rng(n)
        evidence = {"X1": rng.dirichlet(np.ones(3), n), "X2": rng.integers(2, size=n),
                    "X3": rng.uniform(size=(n, 3))}
        state, expected = Propagator(deep).run(evidence), reference_sweep(deep, evidence)
        for var in deep.sizes:
            f, b = expected[("F", var)], expected[("B", var)]
            assert state.forward[var].tobytes() == f.tobytes(), var
            assert state.backward[var].tobytes() == b.tobytes(), var
            assert posterior(state, var).tobytes() == \
                reference_normalize(f * b, _SUM_SLACK).tobytes(), var
        terminals = ("X1", "X2", "X3")
        assert aggregated_log_likelihood(state, terminals) == sum(
            float(np.add.reduce(np.log(np.add.reduce(expected[("F", v)] * expected[("B", v)], -1))))
            for v in terminals)

    def test_wide_terminal_log_likelihood_keeps_its_bits(self):
        """On random trees with a terminal 8 to 12 symbols wide, the
        log-likelihood sums each overlap as numpy sums a C-order row.  Each
        sample is also scored alone (a one-hot mask), as a sum over many
        samples can round away a last-bit change of one overlap."""
        rng, checked = np.random.default_rng(11), 0
        while checked < 10:
            _, graph, readout = random_bayes_tree(rng, max_nodes=5, max_size=12)
            terminals = sorted(set(readout.values()))
            if max(graph.sizes[v] for v in terminals) < 8:
                continue
            evidence = {v: rng.uniform(0.05, 1.0, size=(40, graph.sizes[v])) for v in terminals}
            state, expected = Propagator(graph).run(evidence), reference_sweep(graph, evidence)
            logs = {v: np.log(np.add.reduce(expected[("F", v)] * expected[("B", v)], -1))
                    for v in terminals}
            assert aggregated_log_likelihood(state, terminals) == sum(
                float(np.add.reduce(logs[v])) for v in terminals)
            for v in terminals:
                alone = [aggregated_log_likelihood(state, [v], row) for row in np.eye(40)]
                assert alone == logs[v].tolist(), v
            checked += 1

    def test_second_run_leaves_the_first_state(self):
        """Each ``run`` stores fresh arrays: a second call does not write into
        the first state's messages, which are read-only (n, size) views."""
        deep = build_deep_graph().with_parameters(deep_generative_parameters(1))
        prop, rng = Propagator(deep), np.random.default_rng(5)
        first = prop.run({"X1": rng.uniform(size=(300, 3)), "X2": rng.integers(2, size=300)})
        kept = {var: (first.forward[var].copy(), first.backward[var].copy()) for var in deep.sizes}
        prop.run({"X1": rng.uniform(size=(300, 3)), "X3": rng.integers(3, size=300)})
        for var, size in deep.sizes.items():
            for message, before in zip((first.forward[var], first.backward[var]), kept[var]):
                assert message.shape == (300, size) and not message.flags.writeable
                assert message.tobytes() == before.tobytes(), var

    def test_flooding_settles_to_exact(self):
        """Jacobi flooding, written from the GraphSpec alone, settles on the
        one-pass sweep from uniform and from random starting messages
        alike, on the latent star and the deep graph."""
        from normalgraph.experiments import build_deep_graph, deep_generative_parameters

        deep = build_deep_graph().with_parameters(deep_generative_parameters(1))
        for graph in (build_latent_star(generative=True), deep):
            prop = Propagator(graph)
            evidence = {"X1": 1, "X2": 0, "X3": 2}
            exact = prop.run(evidence)
            start = prop.initial_state(evidence, rng=np.random.default_rng(42))
            random = {("F", v): start.forward[v] for v in graph.sizes}
            random.update({("B", v): start.backward[v] for v in graph.sizes})
            uniform = {slot: np.full((1, graph.sizes[slot[1]]), 1.0 / graph.sizes[slot[1]])
                       for slot in random}
            for init in (uniform, random):
                flooded = flooding(graph, evidence, init)
                for var in graph.sizes:
                    np.testing.assert_allclose(flooded[("F", var)], exact.forward[var], atol=1e-12)
                    np.testing.assert_allclose(flooded[("B", var)], exact.backward[var],
                                               atol=1e-12)

    def test_schedule_is_deterministic(self):
        graph = build_latent_star(generative=True)
        a = Propagator(graph).run({"X1": 1})
        b = Propagator(graph).run({"X1": 1})
        for var in graph.sizes:
            assert np.array_equal(a.forward[var], b.forward[var])
            assert np.array_equal(a.backward[var], b.backward[var])

    def test_forward_order_follows_producers(self):
        """Every variable comes after the inputs of its producing node."""
        from normalgraph.experiments import build_deep_graph

        graph = build_deep_graph()
        order = Propagator(graph).forward_order
        assert isinstance(order, tuple) and sorted(order) == sorted(graph.sizes)
        position = {var: k for k, var in enumerate(order)}
        for var, node in _ends(graph)[0].items():
            if isinstance(node, DiverterNode):
                inputs = node.inbound
            elif isinstance(node, SisoBlock):
                inputs = (node.from_var,)
            else:
                inputs = ()
            assert all(position[v] < position[var] for v in inputs), var

    @staticmethod
    def schedule_graphs():
        """The study graphs, each also with its variables declared in reverse
        and with every splittable variable split in turn, and 200 random
        trees of up to 12 nodes."""
        for graph in (build_latent_star(generative=True), build_latent_star(m_latent=7),
                      build_deep_graph(), mini_join_graph()):
            yield graph
            yield replace(graph, variables=graph.variables[::-1])
            taps = {tap for div in graph.diverters for tap in div.taps}
            for var in graph.sizes:
                if var not in taps:
                    yield split_variable(graph, var)
        for seed in range(200):
            yield random_bayes_tree(np.random.default_rng(seed), max_nodes=12)[1]

    def test_compiled_schedule_matches_the_round_by_round_scan(self):
        """Kahn's rounds give the scan's slots, steps and forward order, so
        ``ancestral_sample``, which draws in ``forward_order``, is unchanged."""
        for graph in self.schedule_graphs():
            compiled = Propagator(graph)
            assert (compiled._slots, compiled._steps, compiled.forward_order) == \
                reference_schedule(graph)

    def test_state_arrays_are_frozen(self):
        state = Propagator(identity_chain()).run()
        with pytest.raises(ValueError):
            state.forward["X"][0, 0] = 9.9


class TestEvidenceHandling:
    def test_hard_evidence_cuts_flow(self):
        """The posterior at an instantiated terminal is the injected delta."""
        graph = build_latent_star(generative=True)
        state = Propagator(graph).run({"X1": 1, "X3": 0})
        np.testing.assert_allclose(posterior(state, "X1")[0], [0.0, 1.0], atol=0)
        np.testing.assert_allclose(posterior(state, "X3")[0], [1.0, 0.0, 0.0], atol=0)

    def test_soft_evidence_scale_invariance(self):
        graph = build_latent_star(generative=True)
        soft = np.array([0.2, 0.5])
        a = Propagator(graph).run({"X1": soft})
        b = Propagator(graph).run({"X1": soft * 37.0})
        for var in graph.sizes:
            np.testing.assert_allclose(
                posterior(a, var), posterior(b, var), atol=1e-12
            )

    def test_scalar_evidence_broadcasts(self):
        graph = build_latent_star(generative=True)
        state = Propagator(graph).run({"X1": 1}, n_samples=5)
        assert state.n_samples == 5
        assert posterior(state, "S0").shape == (5, 4)

    def test_mixed_batch_sizes_must_agree(self):
        graph = build_latent_star(generative=True)
        with pytest.raises(ValueError):
            Propagator(graph).run({"X1": np.zeros(4, dtype=int), "X2": np.zeros(6, dtype=int)})

    def test_unknown_and_nonterminal_evidence(self):
        graph = build_latent_star(generative=True)
        with pytest.raises(UnknownVariable):
            Propagator(graph).run({"Q": 0})
        with pytest.raises(GraphError, match="split"):
            Propagator(graph).run({"S1": 0})

    def test_out_of_range_symbol(self):
        graph = build_latent_star(generative=True)
        with pytest.raises(ValueError):
            Propagator(graph).run({"X1": 2})

    @pytest.mark.parametrize("value, problem", [
        (1.7, "is not an integer symbol: 1.7"),
        (True, "is not an integer symbol: True"),
        (np.float64(1.0), "is not an integer symbol"),
        (np.ones((2, 3)), r"has shape \(2, 3\), expected \(N, 2\) or \(2,\)"),
        (np.ones((1, 2, 2)), r"has shape \(1, 2, 2\)"),
        ([[np.nan, 1.0], [0.5, 0.5]], "nonnegative and finite"),
        ([[np.inf, 1.0], [0.5, 0.5]], "nonnegative and finite"),
        ([0.5, -0.1], "nonnegative and finite"),
        (np.array([True, False]), "is boolean"),
        (np.array([True, False, True]), "is boolean"),
        (np.array([[True, False], [False, True]]), "is boolean"),
    ], ids=["float", "bool", "numpy float", "wrong size", "3-d", "nan", "inf", "negative",
            "bool vector", "bool column", "bool rows"])
    def test_malformed_evidence_names_variable(self, value, problem):
        with pytest.raises(ValueError, match=problem) as caught:
            Propagator(build_latent_star(generative=True)).run({"X1": value})
        assert "'X1'" in str(caught.value)

    @pytest.mark.parametrize("entry", ["run", "initial_state", "em_train"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_soft_evidence_raises_before_any_pass(self, monkeypatch, bad, entry):
        evidence = {"X1": np.array([[bad, 1.0], [0.5, 0.5]])}
        calls = {
            "run": lambda: Propagator(build_latent_star(generative=True)).run(evidence),
            "initial_state": lambda: Propagator(build_latent_star()).initial_state(
                evidence, rng=np.random.default_rng(1)),
            "em_train": lambda: em_train(build_latent_star(), evidence, TrainConfig(epochs=3)),
        }

        def no_pass(*args):
            raise AssertionError("a propagation pass ran")

        monkeypatch.setattr(Propagator, "_pass", no_pass)
        with pytest.raises(ValueError, match="soft evidence for 'X1': messages must be "
                                             "nonnegative and finite"):
            calls[entry]()

    def test_overflowing_soft_row_reads_as_uniform(self):
        """[1e308, 1e308] is proportional to uniform although its sum
        overflows: run and em_train read it exactly as [0.5, 0.5]."""
        hard = {"X2": np.array([0, 1, 1, 0]), "X3": np.array([2, 0, 1, 1])}
        huge, plain = ({**hard, "X1": np.array([row, [0.2, 0.8], [1e308, 1e300], [1.0, 0.0]])}
                       for row in ([1e308, 1e308], [0.5, 0.5]))
        graph = build_latent_star(generative=True)
        states = [Propagator(graph).run(evidence) for evidence in (huge, plain)]
        for var in graph.sizes:
            assert posterior(states[0], var).tobytes() == posterior(states[1], var).tobytes()
        cfg = TrainConfig("ml", epochs=4, seed=2)
        reports = [em_train(build_latent_star(), evidence, cfg) for evidence in (huge, plain)]
        for a, b in zip(*(report.records for report in reports)):
            assert (a.train_loglik, a.test_loglik) == (b.train_loglik, b.test_loglik)
            assert all(np.array_equal(a.parameters[k], b.parameters[k]) for k in a.parameters)

    def test_all_zero_soft_evidence(self):
        graph = build_latent_star(generative=True)
        with pytest.raises(ContradictoryEvidence):
            Propagator(graph).run({"X1": np.zeros(2)})

    def test_contradictory_hard_evidence_names_variable(self):
        chain = identity_chain(prior=(1.0, 0.0))
        split = split_variable(chain, "X")
        with pytest.raises(ContradictoryEvidence, match="X"):
            Propagator(split).run({"X_cont": 0, "X_tap": 1})

    # Samples 1, 3, 4, 6, 7, 9 and 10 contradict; the message names the first five.
    CONTRADICTING_TAP = np.array([0, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0])

    def test_forward_contradiction_message(self):
        """The prior puts all mass on 0, so X_tap = 1 leaves the forward
        message into X_cont without support."""
        split = split_variable(identity_chain(prior=(1.0, 0.0)), "X")
        with pytest.raises(ContradictoryEvidence) as caught:
            Propagator(split).run({"X_tap": self.CONTRADICTING_TAP})
        assert str(caught.value) == (
            "no consistent forward message at variable 'X_cont' for sample(s) [1, 3, 4, 6, 7]")

    def test_backward_contradiction_message(self):
        """X_cont = 0 and X_tap = 1 leave the backward message into X without
        support; under a uniform prior every forward message keeps some."""
        split = split_variable(identity_chain(prior=(0.5, 0.5)), "X")
        with pytest.raises(ContradictoryEvidence) as caught:
            Propagator(split).run({"X_cont": np.zeros(12, dtype=int),
                                   "X_tap": self.CONTRADICTING_TAP})
        assert str(caught.value) == (
            "no consistent backward message at variable 'X' for sample(s) [1, 3, 4, 6, 7]")

    def test_first_contradiction_in_schedule_order_is_reported(self):
        """Sample 0 zeroes ("B", X) and ("F", X_cont), sample 1 only the
        latter.  ("B", X) is scheduled first, though declared last, so it
        is the one named; the NaN rows the pass makes on the way raise no
        RuntimeWarning."""
        reordered = GraphSpec(
            variables=(("X_cont", 2), ("X_tap", 2), ("S", 2), ("X", 2)),
            sources=(SourceBlock("prior_S", "S", np.array([1.0, 0.0])),),
            blocks=(SisoBlock("P_X", "S", "X", np.eye(2)),),
            diverters=(DiverterNode(inbound=("X",), taps=("X_cont", "X_tap")),),
        )
        evidence = {"X_cont": np.array([0, 1]), "X_tap": np.array([1, 1])}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContradictoryEvidence) as caught:
                Propagator(reordered).run(evidence)
            with pytest.raises(ContradictoryEvidence) as later:
                Propagator(reordered).run({"X_cont": np.array([1]), "X_tap": np.array([1])})
        assert str(caught.value) == (
            "no consistent backward message at variable 'X' for sample(s) [0]")
        assert str(later.value) == (
            "no consistent forward message at variable 'X_cont' for sample(s) [0]")

    def test_split_with_uniform_tap_changes_nothing(self):
        """A fresh tap fed uniform backward flow is invisible elsewhere."""
        graph = build_latent_star(generative=True)
        split = split_variable(graph, "X2")
        evidence = {"X1": 1, "X3": 2}
        before = Propagator(graph).run(evidence)
        after = Propagator(split).run(evidence)
        for var in graph.sizes:
            np.testing.assert_allclose(
                posterior(after, var), posterior(before, var), atol=1e-12
            )
        np.testing.assert_allclose(
            posterior(after, "X2_cont"), posterior(before, "X2"), atol=1e-12
        )


class TestPosteriorReadsStateAsBuilt:
    """``posterior`` skips ``hadamard_posterior``'s checks of the messages
    but must return the same bits."""

    @pytest.mark.parametrize("rows", [1, 68, 4096])
    def test_deep_graph_soft_evidence(self, rows):
        graph = build_deep_graph().with_parameters(deep_generative_parameters(3))
        rng = np.random.default_rng(rows)
        state = Propagator(graph).run({x: rng.uniform(0.05, 1.0, size=(rows, graph.sizes[x]))
                                       for x in ("X1", "X2", "X3")})
        for var, _ in graph.variables:
            expected = hadamard_posterior(state.forward[var], state.backward[var])
            assert np.array_equal(posterior(state, var), expected), var

    def test_row_within_slack_of_unit_sum_is_kept(self):
        """A one-hot forward message times a near-deterministic backward one
        sums to 1 - 1e-14: normalization leaves such a row as it is."""
        state = Propagator(identity_chain(prior=(1.0, 0.0))).run(
            {"X": np.array([[1.0 - 1e-14, 1e-14]] * 2)})
        expected = hadamard_posterior(state.forward["X"], state.backward["X"])
        assert expected[0, 0] == 1.0 - 1e-14
        assert np.array_equal(posterior(state, "X"), expected)

    def test_random_trees(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            _, graph, readout = random_bayes_tree(rng)
            terminals = sorted(set(readout.values()))
            state = Propagator(graph).run({v: rng.uniform(0.0, 1.0, size=(9, graph.sizes[v]))
                                           for v in terminals[::2]}, n_samples=9)
            for var, _ in graph.variables:
                expected = hadamard_posterior(state.forward[var], state.backward[var])
                assert np.array_equal(posterior(state, var), expected), var


class TestDistinctRows:
    """Which evidence ``Propagator.distinct_rows`` merges, and that the
    merged rows carry every sample's messages."""

    def test_rows_carry_the_samples_messages(self):
        prop = Propagator(build_latent_star(generative=True))
        evidence = {"X1": np.array([1, 0, 1, 1, 0, 1]), "X2": 1,
                    "X3": np.array([2, 0, 2, 2, 0, 1])}
        rows, n_rows, inverse = prop.distinct_rows(evidence, 6)
        assert n_rows == 3 and rows["X2"] == 1
        np.testing.assert_array_equal(rows["X1"][inverse], evidence["X1"])
        np.testing.assert_array_equal(rows["X3"][inverse], evidence["X3"])
        merged, full = prop.run(rows, n_samples=n_rows), prop.run(evidence)
        for var in full.forward:
            np.testing.assert_allclose(merged.forward[var][inverse], full.forward[var], atol=1e-15)
            np.testing.assert_allclose(merged.backward[var][inverse], full.backward[var], atol=1e-15)

    def test_shared_values_alone_make_one_row(self):
        prop = Propagator(build_latent_star())
        rows, n_rows, inverse = prop.distinct_rows({"X1": np.array([0.3, 0.7]), "X2": 0}, 5)
        assert n_rows == 1 and np.array_equal(inverse, np.zeros(5))
        np.testing.assert_array_equal(rows["X1"], [0.3, 0.7])

    @pytest.mark.parametrize("evidence", [
        {"X1": np.array([0, 0, 1]), "X2": one_hot(np.array([0, 0, 1]), 2)},  # soft rows
        {"X1": np.array([0, 1, 1]), "X2": np.array([0, 0, 1])},  # all rows distinct
        {"X1": np.zeros(0, dtype=int)},  # no samples
    ])
    def test_unmergeable_evidence_is_returned_as_is(self, evidence):
        n = len(evidence["X1"])
        rows, n_rows, inverse = Propagator(build_latent_star()).distinct_rows(evidence, n)
        assert rows is evidence and n_rows == n
        np.testing.assert_array_equal(inverse, np.arange(n))

    @pytest.mark.parametrize("n_taps, n_rows", [(61, 1), (62, 2)])
    def test_keys_past_2_pow_62_are_not_merged(self, n_taps, n_rows):
        """62 binary terminals key into 2**62 values and merge; 63 do not."""
        graph = one_diverter(n_taps)
        evidence = {var: np.zeros(2, dtype=int) for var in graph.sizes}
        assert Propagator(graph).distinct_rows(evidence, 2)[1] == n_rows

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(radix=st.integers(1, 64), keys=st.lists(st.integers(0, 63), max_size=100))
    def test_merged_keys_are_numpys_unique(self, radix, keys):
        """Counted (radix at most the key count) or sorted, the distinct keys
        and the inverse are ``np.unique``'s, dtypes included."""
        keys = np.array(keys, dtype=np.int64) % radix
        distinct, inverse = propagation._merge_keys(keys, radix)
        want_distinct, want_inverse = np.unique(keys, return_inverse=True)
        for got, want in ((distinct, want_distinct), (inverse, want_inverse)):
            assert got.dtype == want.dtype and np.array_equal(got, want)


class TestLikelihoods:
    def test_aggregated_trivial_values(self):
        graph = identity_chain(prior=(0.25, 0.75))
        state = Propagator(graph).run({"X": 1})
        # single terminal: the overlap is P(X = 1)
        value = aggregated_log_likelihood(state, ("X",))
        np.testing.assert_allclose(value, np.log(0.75), atol=1e-14)

    def test_aggregated_uniform_times_delta(self):
        graph = identity_chain(prior=(0.5, 0.5))
        state = Propagator(graph).run({"X": 0})
        value = aggregated_log_likelihood(state, ("X",))
        np.testing.assert_allclose(value, np.log(0.5), atol=1e-14)

    def test_aggregated_empty_mask_is_zero(self):
        graph = identity_chain()
        state = Propagator(graph).run({"X": np.array([0, 1, 1])})
        assert aggregated_log_likelihood(state, ("X",), np.zeros(3, dtype=bool)) == 0.0

    def test_aggregated_counts_equal_repeated_rows(self):
        graph = build_latent_star(generative=True)
        rows = {"X1": np.array([0, 1, 1, 0]), "X2": np.array([0, 0, 1, 1]),
                "X3": np.array([2, 0, 1, 2])}
        counts = np.array([3.0, 0.0, 1.0, 5.0])
        counted = aggregated_log_likelihood(Propagator(graph).run(rows), tuple(rows), counts)
        repeat = np.repeat(np.arange(4), counts.astype(int))
        samples = {v: column[repeat] for v, column in rows.items()}
        repeated = aggregated_log_likelihood(Propagator(graph).run(samples), tuple(rows))
        np.testing.assert_allclose(counted, repeated, rtol=1e-14)

    def test_aggregated_boolean_mask_sums_selected_logs(self):
        """A 0/1 mask scores exactly the selected samples' log terms."""
        graph = build_latent_star(generative=True)
        evidence = {"X1": np.array([0, 1, 1, 0, 1]), "X3": np.array([2, 0, 1, 2, 2])}
        state = Propagator(graph).run(evidence)
        mask = np.array([True, False, True, True, False])
        expected = 0.0
        for var in evidence:
            overlap = np.sum(state.forward[var] * state.backward[var], axis=-1)
            expected += float(np.sum(np.log(overlap[mask])))
        assert aggregated_log_likelihood(state, tuple(evidence), mask) == expected
        assert aggregated_log_likelihood(state, tuple(evidence), mask * 1.0) == expected

    def test_aggregated_minus_inf_sentinel(self):
        graph = GraphSpec(
            variables=(("S", 2), ("X", 2)),
            sources=(SourceBlock("prior_S", "S", np.array([1.0, 0.0])),),
            blocks=(
                SisoBlock("P_X", "S", "X", np.array([[1.0, 0.0], [0.5, 0.5]])),
            ),
        )
        state = Propagator(graph).run({"X": 1})
        assert aggregated_log_likelihood(state, ("X",)) == float("-inf")

    def test_aggregated_unknown_terminal(self):
        state = Propagator(identity_chain()).run()
        with pytest.raises(UnknownVariable):
            aggregated_log_likelihood(state, ("Q",))
        with pytest.raises(UnknownVariable):
            posterior(state, "Q")

    @pytest.mark.parametrize("mask", [np.ones(2), np.ones(4, dtype=bool), np.ones((3, 1))],
                             ids=["short", "long", "2-d"])
    def test_aggregated_mask_must_match_samples(self, mask):
        state = Propagator(identity_chain()).run({"X": np.array([0, 1, 1])})
        with pytest.raises(ValueError, match=re.escape(f"mask has shape {mask.shape} for 3 samples")):
            aggregated_log_likelihood(state, ("X",), mask)

    @pytest.mark.parametrize("weight", [np.inf, np.nan, -1.0], ids=["inf", "nan", "negative"])
    def test_aggregated_rejects_weight_outside_finite_nonnegative(self, weight):
        """Such a weight would read as -inf or silently drop its sample."""
        graph = build_latent_star(generative=True)
        evidence = {"X1": np.array([0, 1, 1]), "X2": np.array([1, 0, 1])}
        state = Propagator(graph).run(evidence)
        with pytest.raises(ValueError, match="mask entries must be finite and nonnegative"):
            aggregated_log_likelihood(state, tuple(evidence), np.array([weight, 1.0, 1.0]))

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


# Soft-evidence entries: valid ones (zero, subnormals, huge) weighted above
# the invalid NaN, inf and negative ones.
FUZZ_ENTRIES = (0.0, 5e-324, 1e-310, 0.25, 0.5, 1.0, 1e308) * 2 + (np.nan, np.inf, -1.0)
CONTRACT_ERRORS = (UnknownVariable, GraphError, ValueError, ContradictoryEvidence)


@st.composite
def fuzzed_evidence(draw):
    """A ``random_bayes_tree`` graph, evidence at one to three of its
    variables (mostly terminals, sometimes an inner or unknown one) in every
    form, sometimes with a row count or width off by one, and a 0/1 mask
    over the N samples: None, leading or scattered."""
    _, graph, _ = random_bayes_tree(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                                    max_nodes=5, max_size=3)
    n = draw(st.integers(0, 5), label="N")
    names = list(graph.terminals()) * 4 + [graph.variables[0][0], "nowhere"]
    evidence = {}
    at = st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True)
    for var in draw(at, label="at"):
        size = graph.sizes.get(var, 2)
        rows = n + draw(st.sampled_from([0, 0, 0, 1]), label="extra row")
        width = size + draw(st.sampled_from([0, 0, 0, 1]), label="extra column")
        symbols = st.sampled_from(list(range(size)) * 3 + [-1, size])
        form = draw(st.sampled_from(["symbols", "scalar", "shared", "soft"]), label="form")
        if form == "symbols":
            value = np.array(draw(st.lists(symbols, min_size=rows, max_size=rows)), dtype=np.int64)
        elif form == "scalar":
            value = np.int64(draw(symbols))
        else:
            shape = (width,) if form == "shared" else (rows, width)
            entries = st.lists(st.sampled_from(FUZZ_ENTRIES), min_size=int(np.prod(shape)),
                               max_size=int(np.prod(shape)))
            value = np.array(draw(entries), dtype=np.float64).reshape(shape)
        evidence[var] = value
    kind = draw(st.sampled_from([None, "leading", "scattered"]), label="mask")
    if kind is None:
        mask = None
    elif kind == "leading":
        mask = (np.arange(n) < max(1, round(0.8 * n))).astype(float)
    else:
        mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=float)
    return graph, evidence, mask


def assert_row_stochastic(values: np.ndarray, what: str):
    assert np.all(np.isfinite(values)) and np.all(values >= 0.0), what
    np.testing.assert_allclose(values.sum(axis=-1), 1.0, rtol=0, atol=1e-12, err_msg=what)


class TestLibraryContract:
    """The library's error contract under fuzzed evidence: ``run`` returns
    finite row-stochastic posteriors with a finite or -inf score, and
    ``em_train`` finite row-stochastic parameters, or each raises
    ``UnknownVariable``, ``GraphError``, ``ValueError`` or
    ``ContradictoryEvidence``.  Only ``ContradictoryEvidence`` may come after
    em_train's first epoch has begun: a sample held out of the first M-step
    can contradict the parameters it returns."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(fuzzed_evidence(), st.sampled_from(("ml", "kl", "vit", "var")))
    def test_run_and_em_train_keep_the_contract(self, case, algorithm):
        graph, evidence, mask = case
        n_samples = None if mask is None else len(mask)
        try:
            state = Propagator(graph).run(evidence, n_samples)
        except CONTRACT_ERRORS:
            pass
        else:
            for var in state.forward:
                assert_row_stochastic(posterior(state, var), f"posterior of {var!r}")
            score = aggregated_log_likelihood(state, graph.terminals(), mask)
            assert np.isfinite(score) or score == -np.inf, score

        epochs_begun = []
        step = learning._Epochs.step

        def watched(epochs):
            epochs_begun.append(True)
            return step(epochs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(learning._Epochs, "step", watched)
            try:
                report = em_train(graph, evidence, TrainConfig(algorithm, epochs=2, seed=1), mask)
            except ContradictoryEvidence:
                return
            except (UnknownVariable, GraphError, ValueError):
                assert not epochs_begun
                return
        for unit in report.graph.trainable_units():
            values = unit.prior if isinstance(unit, SourceBlock) else unit.theta
            assert_row_stochastic(values, unit.name)
