"""Tests for experiment builders, runners, and the CSV formats."""

import numpy as np
import pytest

from normalgraph.experiments import (
    TREE_LEAF_CONDITIONALS,
    TREE_PRIOR,
    SingleBlockConfig,
    build_deep_graph,
    build_latent_star,
    deep_generative_parameters,
    format_float,
    load_samples,
    run_deep_experiment,
    run_nit_sweep,
    run_single_block,
    run_tree_experiment,
    save_samples,
    split_mask,
    write_coefficient_rows,
    write_csv,
    write_plot_script,
    write_training_rows,
)
from normalgraph.graph import build_expander, graph_digest
from normalgraph.learning import TrainConfig
from normalgraph.synthgen import SampleSet, ancestral_sample


class TestBuilders:
    def test_star_variants_validate(self):
        build_latent_star()
        build_latent_star(m_latent=7)
        build_latent_star(generative=True)

    def test_generative_star_carries_reference_model(self):
        star = build_latent_star(generative=True)
        assert np.array_equal(star.source("prior_S").prior, TREE_PRIOR)
        for i in (1, 2, 3):
            assert np.array_equal(
                star.block(f"P_X{i}").theta, TREE_LEAF_CONDITIONALS[i - 1]
            )

    def test_generative_star_needs_four_states(self):
        with pytest.raises(ValueError):
            build_latent_star(m_latent=3, generative=True)

    def test_mismatched_star_is_uniform(self):
        star = build_latent_star(m_latent=9)
        assert star.sizes["S0"] == 9
        np.testing.assert_allclose(star.block("P_X3").theta, 1.0 / 3.0, atol=0)

    def test_deep_graph_shape(self):
        graph = build_deep_graph()
        assert graph.sizes["PS12_0"] == 8
        assert graph.sizes["PS23_0"] == 12
        assert len(graph.terminals()) == 3

    def test_deep_join_blocks_are_fixed_expanders(self):
        graph = build_deep_graph()
        assert np.array_equal(graph.block("join_S1S2_in1").theta, build_expander([4, 2], 1))
        assert np.array_equal(graph.block("join_S1S2_in2").theta, build_expander([4, 2], 2))
        assert np.array_equal(graph.block("join_Y2S3_in1").theta, build_expander([4, 3], 1))
        assert np.array_equal(graph.block("join_Y2S3_in2").theta, build_expander([4, 3], 2))
        names = [unit.name for unit in graph.trainable_units()]
        assert not any(name.startswith("join_") for name in names)
        assert len(names) == 8

    def test_deep_generative_parameters(self):
        a = deep_generative_parameters(seed=1)
        b = deep_generative_parameters(seed=1)
        c = deep_generative_parameters(seed=2)
        assert set(a) == {
            "prior_S1", "prior_S2", "prior_S3",
            "P_X1", "P_Y1", "P_X2", "P_Y2", "P_X3",
        }
        for name, matrix in a.items():
            assert np.array_equal(matrix, b[name])
            np.testing.assert_allclose(np.atleast_2d(matrix).sum(axis=1), 1.0, atol=1e-12)
        assert any(not np.array_equal(a[name], c[name]) for name in a)

    def test_parameterized_deep_graph_validates(self):
        build_deep_graph().with_parameters(deep_generative_parameters(seed=3))


class TestSplitMask:
    def test_full_split(self):
        np.testing.assert_allclose(split_mask(7, 1.0), 1.0, atol=0)

    def test_half_split_is_leading_block(self):
        mask = split_mask(10, 0.5)
        assert mask[:5].sum() == 5.0 and mask[5:].sum() == 0.0

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            split_mask(10, 0.0)
        with pytest.raises(ValueError):
            split_mask(10, 1.5)


class TestSingleBlockRunner:
    def test_row_layout(self):
        cfg = SingleBlockConfig(iterations=10, n_samples=50)
        rows = run_single_block(cfg)
        assert len(rows) == 2 * 10 + 3
        assert {r[0] for r in rows} == {"ml", "kl", "vit", "var", "ref"}
        ml_rows = [r for r in rows if r[0] == "ml"]
        assert [r[1] for r in ml_rows] == list(range(1, 11))
        assert all(np.isfinite(r[2]) for r in rows)

    def test_ml_trajectory_is_monotone(self):
        rows = run_single_block(SingleBlockConfig(iterations=30, n_samples=80))
        ml = [r[2] for r in rows if r[0] == "ml"]
        assert all(b >= a - 1e-10 for a, b in zip(ml, ml[1:]))

    def test_deterministic(self):
        cfg = SingleBlockConfig(iterations=5, n_samples=40, seed=9)
        assert run_single_block(cfg) == run_single_block(cfg)

    def test_trained_rules_beat_reference(self):
        rows = run_single_block(SingleBlockConfig(iterations=50, n_samples=100))
        final = {r[0]: r[2] for r in rows}
        for algorithm in ("ml", "kl", "vit", "var"):
            assert final[algorithm] > final["ref"]


class TestSampleCsv:
    def test_round_trip(self, tmp_path):
        star = build_latent_star(generative=True)
        data = ancestral_sample(star, 25, seed=4)
        path = tmp_path / "samples.csv"
        save_samples(data, path, graph=star)
        columns, meta = load_samples(path)
        assert meta["seed"] == "4"
        assert meta["graph"] == graph_digest(star)
        for v in ("X1", "X2", "X3"):
            assert np.array_equal(columns[v], data[v])

    def test_file_is_one_based(self, tmp_path):
        star = build_latent_star(generative=True)
        data = ancestral_sample(star, 30, seed=1)
        path = tmp_path / "samples.csv"
        save_samples(data, path)
        body = [
            line for line in path.read_text().splitlines()
            if not line.startswith("#")
        ]
        cells = [int(c) for line in body[1:] for c in line.split(",")]
        assert min(cells) >= 1

    def test_zero_based_file_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("X1,X2\n0,1\n")
        with pytest.raises(ValueError, match="1-based"):
            load_samples(path)

    def test_ragged_file_rejected(self, tmp_path):
        """Rows of unequal length, and rows all one cell short."""
        path = tmp_path / "ragged.csv"
        for text in ("X1,X2\n1,2\n1\n", "X1,X2\n1\n2\n"):
            path.write_text(text)
            with pytest.raises(ValueError, match=f"{path}: ragged rows"):
                load_samples(path)

    @pytest.mark.parametrize("bad_line", [4, 6, 9])
    def test_error_names_the_file_line_past_comments_and_blank_lines(self, tmp_path, bad_line):
        """Comment and blank lines are read past, not parsed, yet the error
        names the line of the file, CRLF line ends included."""
        lines = ["# seed: 1", "", "X1,X2", "1,2", "# graph: abc", "2,1", "", "", "1,1\r", "2,2"]
        path = tmp_path / "commented.csv"
        path.write_text("\n".join(lines[:bad_line - 1] + ["1,x"] + lines[bad_line:]) + "\n")
        with pytest.raises(ValueError, match=rf"{path}: line {bad_line}: cell not an integer"):
            load_samples(path)
        path.write_text("\n".join(lines) + "\n")
        columns, meta = load_samples(path)
        assert meta == {"seed": "1", "graph": "abc"}
        assert columns["X1"].tolist() == [0, 1, 0, 1] and columns["X2"].tolist() == [1, 0, 0, 1]

    def test_quoted_cell_that_runs_past_its_line_is_rejected(self, tmp_path):
        """One reader reads all lines, so a quoted cell that opens on one line
        would take in the next: ``"1`` and ``2",3`` would read as one row with
        12 in it.  Each row keeps to its line, the header too, and the error
        names the line where the cell closes.  Quoted cells within a line read
        as before."""
        path = tmp_path / "quoted.csv"
        for text, line in (('X1,X2\n1,2\n"1\n2",3\n', 4), ('"X1\nX2"\n1\n', 2)):
            path.write_text(text)
            with pytest.raises(ValueError, match=rf"{path}: line {line}: a quoted cell runs on"):
                load_samples(path)
        path.write_text('"X1",X2\n"1","2"\n')
        columns, _ = load_samples(path)
        assert columns["X1"].tolist() == [0] and columns["X2"].tolist() == [1]

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8, np.float64])
    def test_saved_bytes_do_not_depend_on_the_column_dtype(self, tmp_path, dtype):
        """Each cell is written as its symbol plus one, an integer, whatever
        the column's dtype; a uint8 symbol of 255 does not wrap."""
        symbols = {"X1": np.array([0, 2, 255]), "X2": np.array([1, 0, 0])}
        paths = [tmp_path / "int64.csv", tmp_path / "other.csv"]
        for path, kind in zip(paths, (np.int64, dtype)):
            columns = {v: column.astype(kind) for v, column in symbols.items()}
            save_samples(SampleSet(columns, 3, seed=7), path)
        assert paths[1].read_bytes() == paths[0].read_bytes()
        assert paths[0].read_text() == "# seed: 7\nX1,X2\n1,2\n3,1\n256,1\n"

    def test_headerless_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# seed: 1\n")
        with pytest.raises(ValueError, match="header"):
            load_samples(path)

    def test_empty_dataset_round_trips(self, tmp_path):
        star = build_latent_star(generative=True)
        data = ancestral_sample(star, 0, seed=1)
        path = tmp_path / "empty.csv"
        save_samples(data, path)
        columns, _ = load_samples(path)
        assert columns["X1"].shape == (0,)

    def test_column_selection(self, tmp_path):
        star = build_latent_star(generative=True)
        data = ancestral_sample(star, 5, seed=2)
        path = tmp_path / "subset.csv"
        save_samples(data, path, columns=("X3", "X1"))
        columns, _ = load_samples(path)
        assert list(columns) == ["X3", "X1"]


class TestResultCsv:
    def test_format_float_round_trips(self):
        rng = np.random.default_rng(42)
        values = np.concatenate(
            [rng.uniform(-1e6, 1e6, 400), rng.uniform(-1, 1, 400), [0.1, 1 / 3, -0.0]]
        )
        for v in values:
            assert float(format_float(v)) == float(v)

    def test_block_rows_layout(self, tmp_path):
        path = tmp_path / "block.csv"
        write_csv(path, ["algorithm", "iteration", "loglik"],
                  [("ml", 1, -1.5), ("ref", 1, -2.0)], meta={"seed": 1})
        lines = path.read_text().splitlines()
        assert lines == ["# seed: 1", "algorithm,iteration,loglik", "ml,1,-1.5", "ref,1,-2"]

    def test_only_float_cells_take_the_float_format(self, tmp_path):
        path = tmp_path / "cells.csv"
        third = np.float64(1.0) / 3.0
        write_csv(path, ["a", "b", "c", "d", "e"], [[1.0 / 3.0, third, 7, True, "x"]])
        body = path.read_text().splitlines()[1]
        assert body == ",".join([format_float(1.0 / 3.0)] * 2 + ["7", "True", "x"])
        assert body.startswith("0.33333333333333331,")

    def test_training_rows_wall_clock_is_last(self, tmp_path):
        reports = run_tree_experiment(TrainConfig(epochs=2, seed=1), n_samples=30,
                                      algorithms=("ml",))
        with_test = tmp_path / "with_test.csv"
        write_training_rows(reports, with_test, include_test=True)
        header = with_test.read_text().splitlines()[0].split(",")
        assert header == ["algorithm", "epoch", "train_loglik", "test_loglik", "wall_ms"]
        bare = tmp_path / "bare.csv"
        write_training_rows(reports, bare, include_test=False)
        header = bare.read_text().splitlines()[0].split(",")
        assert header == ["algorithm", "epoch", "train_loglik", "wall_ms"]
        assert len(bare.read_text().splitlines()) == 1 + 2

    def test_coefficient_rows_cover_all_entries(self, tmp_path):
        reports = run_tree_experiment(TrainConfig(epochs=2, seed=1), n_samples=20,
                                      algorithms=("var",))
        path = tmp_path / "coeffs.csv"
        write_coefficient_rows(reports, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "algorithm,epoch,block,row,col,value"
        # prior 1x4 plus three conditionals 4x2, 4x2, 4x3 per epoch
        per_epoch = 4 + 8 + 8 + 12
        assert len(lines) == 1 + 2 * per_epoch

    def test_plot_script_mentions_curves(self, tmp_path):
        path = tmp_path / "plot.gp"
        write_plot_script(path, "results.csv", "epoch", ("train_loglik",), "study")
        text = path.read_text()
        assert "set datafile separator ','" in text
        assert "strcol('algorithm')" in text
        for algorithm in ("ml", "kl", "vit", "var", "ref"):
            assert f"eq '{algorithm}'" in text


class TestGraphRunners:
    def test_tree_experiment_smoke(self):
        reports = run_tree_experiment(TrainConfig(epochs=3, seed=1), n_samples=40, split=0.75,
                                      algorithms=("ml", "vit"))
        assert set(reports) == {"ml", "vit"}
        for report in reports.values():
            assert len(report.records) == 3
            assert np.isfinite(report.final_train_loglik)
            assert np.isfinite(report.final_test_loglik)

    def test_tree_experiment_respects_latent_size(self):
        reports = run_tree_experiment(TrainConfig(epochs=1, seed=1), n_samples=20, m_latent=2,
                                      algorithms=("vit",))
        assert reports["vit"].graph.sizes["S0"] == 2

    def test_deep_experiment_smoke(self):
        reports = run_deep_experiment(TrainConfig(epochs=2, seed=1), n_samples=20,
                                      algorithms=("vit",))
        report = reports["vit"]
        assert len(report.records) == 2
        assert np.isfinite(report.final_train_loglik)
        graph = report.graph
        assert np.array_equal(
            graph.block("join_S1S2_in1").theta, build_expander([4, 2], 1)
        )

    def test_nit_sweep_layout(self):
        train = TrainConfig(epochs=2, seed=1)
        study = {"n_samples": 20, "algorithms": ("ml",), "nits": (1, 2), "repetitions": 2}
        rows = run_nit_sweep(train, **study)
        assert len(rows) == 4
        assert [(r[0], r[1]) for r in rows] == [(1, 1), (1, 2), (2, 1), (2, 2)]
        assert all(r[2] == "ml" for r in rows)
        assert all(np.isfinite(r[3]) for r in rows)
        again = run_nit_sweep(train, **study)
        assert rows == again

    def test_nit_sweep_repetitions_differ(self):
        """Each repetition restarts from different random messages, so the
        final likelihoods are not all identical."""
        rows = run_nit_sweep(TrainConfig(epochs=2, seed=1), n_samples=30, algorithms=("ml",),
                             nits=(3,), repetitions=3)
        finals = [r[3] for r in rows]
        assert len(set(finals)) > 1
