"""End-to-end tests for the command-line front end."""

import contextlib
import importlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import normalgraph
from normalgraph import cli
from normalgraph.cli import build_parser, main
from normalgraph.experiments import build_latent_star, load_samples, save_samples
from normalgraph.graph import graph_to_dict, load_graph, save_graph
from normalgraph.synthgen import ancestral_sample


@pytest.fixture
def star_files(tmp_path):
    """Generative star, uniform learner star, and a 40-sample dataset."""
    gen = tmp_path / "gen.json"
    learner = tmp_path / "learner.json"
    data = tmp_path / "data.csv"
    save_graph(build_latent_star(generative=True), gen)
    save_graph(build_latent_star(), learner)
    rc = main(["generate", "--graph", str(gen), "--n", "40", "--seed", "2",
               "--out", str(data)])
    assert rc == 0
    return gen, learner, data


def drop_wall_column(path):
    """CSV lines with the trailing wall-clock cell removed."""
    lines = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            lines.append(line)
        else:
            lines.append(",".join(line.split(",")[:-1]))
    return lines


class TestGenerate:
    def test_writes_loadable_dataset(self, tmp_path, capsys):
        gen = tmp_path / "gen.json"
        save_graph(build_latent_star(generative=True), gen)
        data = tmp_path / "data.csv"
        rc = main(["generate", "--graph", str(gen), "--n", "40", "--seed", "2",
                   "--out", str(data)])
        assert rc == 0
        assert "wrote 40 samples" in capsys.readouterr().out
        columns, meta = load_samples(data)
        assert meta["seed"] == "2"
        assert set(columns) == {"X1", "X2", "X3"}
        assert columns["X1"].shape == (40,)

    def test_same_seed_same_file(self, star_files, tmp_path):
        gen, _, data = star_files
        again = tmp_path / "again.csv"
        main(["generate", "--graph", str(gen), "--n", "40", "--seed", "2",
              "--out", str(again)])
        assert again.read_text() == data.read_text()


class TestTrain:
    def test_single_algorithm_run(self, star_files, tmp_path, capsys):
        _, learner, data = star_files
        out = tmp_path / "results.csv"
        rc = main(["train", "--graph", str(learner), "--data", str(data),
                   "--algo", "ml", "--epochs", "3", "--out", str(out)])
        assert rc == 0
        assert "ml: final train loglik" in capsys.readouterr().out
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "algorithm,epoch,train_loglik,wall_ms"
        assert len(lines) == 1 + 3
        learned = load_graph(tmp_path / "results.ml.learned.json")
        assert learned.sizes == build_latent_star().sizes

    def test_all_algorithms_with_split(self, star_files, tmp_path):
        _, learner, data = star_files
        out = tmp_path / "results.csv"
        rc = main(["train", "--graph", str(learner), "--data", str(data),
                   "--algo", "all", "--epochs", "2", "--split", "0.75",
                   "--out", str(out)])
        assert rc == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "algorithm,epoch,train_loglik,test_loglik,wall_ms"
        assert len(lines) == 1 + 4 * 2
        for algorithm in ("ml", "kl", "vit", "var"):
            assert (tmp_path / f"results.{algorithm}.learned.json").exists()

    def test_holdout_only_symbol_is_reported(self, star_files, tmp_path, capsys):
        """Seed 2 puts the third X3 symbol only in the held-out half, so
        the multiplicative rule eventually zeroes its column and the next
        propagation flags the held-out samples as impossible."""
        _, learner, data = star_files
        rc = main(["train", "--graph", str(learner), "--data", str(data),
                   "--algo", "ml", "--epochs", "2", "--split", "0.5",
                   "--out", str(tmp_path / "r.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: evidence:")
        assert "training split; use vit or var, or train on the full data)" in err

    @pytest.mark.parametrize("algo", ["vit", "var"])
    def test_holdout_only_symbol_under_zero_delta(self, tmp_path, capsys, algo):
        """With delta 0 the counting rules give a symbol they never counted
        zero probability, so their hint points at delta.  In 60 star samples
        X1 = 1 occurs only after the 45 training ones.  The learner's latent
        variable has one state, the argmax of every row, so no row of the
        counts is empty and none falls back to uniform."""
        learner, data = tmp_path / "learner.json", tmp_path / "data.csv"
        save_graph(build_latent_star(m_latent=1), learner)
        samples = ancestral_sample(build_latent_star(generative=True), 60, seed=1)
        x1 = samples.columns["X1"]
        x1[:45][x1[:45] == 1] = 0
        save_samples(samples, data)
        rc = main(["train", "--graph", str(learner), "--data", str(data),
                   "--algo", algo, "--delta", "0", "--epochs", "2", "--split", "0.75",
                   "--out", str(tmp_path / "r.csv")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: evidence:"), err
        assert err[0].endswith(f"(the {algo} rule can assign zero probability to symbols "
                               "absent from the training split; use a positive --delta)")

    def test_empty_dataset_trains(self, star_files, tmp_path, capsys):
        """A header-only dataset has no samples, so no split can leave its
        training set empty: every rule trains on nothing and exits 0."""
        _, learner, _ = star_files
        empty = tmp_path / "empty.csv"
        empty.write_text("X1,X2,X3\n")
        out = tmp_path / "r.csv"
        rc = main(["train", "--graph", str(learner), "--data", str(empty), "--algo", "all",
                   "--epochs", "2", "--split", "0.5", "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out.count("final train loglik 0.000000") == 4
        # three provenance lines, the header, two epochs of four rules
        assert len(drop_wall_column(out)) == 3 + 1 + 4 * 2

    def test_reruns_match_except_wall_clock(self, star_files, tmp_path):
        _, learner, data = star_files
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["train", "--graph", str(learner), "--data", str(data),
                "--algo", "ml", "--epochs", "3", "--seed", "5"]
        main(argv + ["--out", str(a)])
        main(argv + ["--out", str(b)])
        assert drop_wall_column(a) == drop_wall_column(b)
        assert (tmp_path / "a.ml.learned.json").read_text() == (
            tmp_path / "b.ml.learned.json"
        ).read_text()

    def test_optional_artifacts(self, star_files, tmp_path):
        _, learner, data = star_files
        out = tmp_path / "run.csv"
        rc = main(["train", "--graph", str(learner), "--data", str(data),
                   "--algo", "var", "--epochs", "2", "--out", str(out),
                   "--dump-coefficients", "--emit-plot"])
        assert rc == 0
        coeffs = (tmp_path / "run.coefficients.csv").read_text().splitlines()
        assert any(l.startswith("algorithm,epoch,block") for l in coeffs)
        assert "strcol('algorithm')" in (tmp_path / "run.gp").read_text()


class TestEval:
    def test_scores_dataset(self, star_files, tmp_path, capsys):
        gen, _, data = star_files
        rc = main(["eval", "--graph", str(gen), "--data", str(data),
                   "--out", str(tmp_path / "score.csv")])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("train_loglik=")
        header, values = (tmp_path / "score.csv").read_text().splitlines()
        assert header == "train_loglik"
        assert np.isfinite(float(values))

    def test_split_adds_test_score(self, star_files, capsys):
        gen, _, data = star_files
        rc = main(["eval", "--graph", str(gen), "--data", str(data),
                   "--split", "0.5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "train_loglik=" in out and "test_loglik=" in out

    def test_learned_graph_scores_match_training(self, star_files, tmp_path, capsys):
        """Re-scoring the learned graph reproduces the last trajectory row."""
        _, learner, data = star_files
        out = tmp_path / "results.csv"
        main(["train", "--graph", str(learner), "--data", str(data),
              "--algo", "kl", "--epochs", "4", "--out", str(out)])
        capsys.readouterr()
        rc = main(["eval", "--graph", str(tmp_path / "results.kl.learned.json"),
                   "--data", str(data)])
        assert rc == 0
        scored = float(capsys.readouterr().out.strip().split("=")[1])
        last = out.read_text().splitlines()[-1].split(",")
        assert abs(scored - float(last[2])) <= 1e-9


def _set(path, value):
    """Mutation of a graph document: the entry at ``path`` becomes ``value``."""
    def mutate(document):
        *parents, last = path
        for key in parents:
            document = document[key]
        document[last] = value
    return mutate


def _drop(section, key):
    def mutate(document):
        del document[section][0][key]
    return mutate


# One malformed field per case, applied to the generative star's document.
MALFORMED_GRAPHS = {
    "block without to": _drop("blocks", "to"),
    "top-level list": lambda document: [document],
    "diverter taps not a list": _set(("diverters", 0, "taps"), 5),
    "source without variable": _drop("sources", "variable"),
    "block to not a name": _set(("blocks", 0, "to"), ["X1"]),
    "diverter tap not a name": _set(("diverters", 0, "taps", 0), ["S1"]),
    "variable name a list": _set(("variables", 0, "name"), ["S0"]),
    "source name an object": _set(("sources", 0, "name"), {"name": "prior_S"}),
    "block name a list": _set(("blocks", 0, "name"), ["P_X1"]),
    "object in matrix": _set(("blocks", 0, "matrix", 0, 0), {}),
    "object in prior": _set(("sources", 0, "prior", 0), {}),
    "empty diverter variable": _set(("diverters", 0, "variable"), []),
    "size 1e400": _set(("variables", 0, "size"), float("inf")),
    "non-numeric matrix": _set(("blocks", 0, "matrix"), "abc"),
    "ragged prior": _set(("sources", 0, "prior"), [0.25, [0.25], 0.25, 0.25]),
    "builder sizes not integers": _set(
        ("blocks", 0), {"name": "P_X1", "from": "S1", "to": "X1", "trainable": False,
                        "matrix": {"builder": "projector", "sizes": ["two", 2], "j": 1}}
    ),
    "builder size a float": _set(
        ("blocks", 0), {"name": "P_X1", "from": "S1", "to": "X1", "trainable": False,
                        "matrix": {"builder": "projector", "sizes": [2.0, 2], "j": 1}}
    ),
    "builder j a float": _set(
        ("blocks", 0), {"name": "P_X1", "from": "S1", "to": "X1", "trainable": False,
                        "matrix": {"builder": "expander", "sizes": [2, 2], "j": 1.0}}
    ),
    "size 2.5": _set(("variables", 0, "size"), 2.5),
    "size true": _set(("variables", 0, "size"), True),
    "size a list": _set(("variables", 0, "size"), [4]),
    "block trainable a string": _set(("blocks", 0, "trainable"), "false"),
    "block trainable null": _set(("blocks", 0, "trainable"), None),
    "source trainable null": _set(("sources", 0, "trainable"), None),
    "source trainable a number": _set(("sources", 0, "trainable"), 1),
}

# Graph files that are no JSON document at all, by their bytes.
NOT_JSON_GRAPHS = {"empty file": b"", "not json": b"not json",
                   "not UTF-8": b'{"variables": "\xff\xfe"}'}

# Study settings outside their range; each must leave no --out directory behind.
BAD_STUDY_SETTINGS = [
    ["single-block", "--iterations", "0"],
    ["single-block", "--iterations", "-2"],
    ["single-block", "--n", "-1"],
    ["single-block", "--sharp-in", "nan"],
    ["single-block", "--sharp-out", "inf"],
    ["single-block", "--delta", "inf"],
    ["single-block", "--delta", "1e200"],
    ["tree", "--delta", "1e101", "--epochs", "1", "--n", "20"],
    ["tree", "--n", "1", "--split", "0.4"],
    ["tree", "--n", "10", "--split", "0.96", "--epochs", "1"],
    ["deep", "--n", "10", "--split", "0.04", "--epochs", "1"],
    ["tree", "--ms-override", "0", "--epochs", "1", "--n", "20"],
    ["nit-sweep", "--ms-override", "0", "--epochs", "1", "--n", "20"],
    ["single-block", "--seed", "-3"],
    ["tree", "--seed", "-3", "--epochs", "1", "--n", "20"],
    ["deep", "--seed", "-3", "--epochs", "1", "--n", "20"],
    ["nit-sweep", "--seed", "-3", "--epochs", "1", "--n", "20"],
    ["tree", "--n", "-5", "--epochs", "1"],
    ["deep", "--n", "-5", "--epochs", "1"],
    ["nit-sweep", "--n", "-5", "--epochs", "1"],
    ["nit-sweep", "--nit", "0", "--epochs", "1", "--n", "20"],
]

# The setting a negative sampling flag's error message must name.
SAMPLING_SETTINGS = {"--seed": "seed", "--n": "n_samples"}

# A --split that leaves one side of a 10-sample dataset empty, and the side.
EMPTY_SIDE_SPLITS = {"0.96": "held-out", "0.04": "training"}

BAD_DATASETS = {
    "duplicate column": "X1,X1,X3\n1,2,1\n2,1,3\n",
    "symbol beyond int64": "X1,X2,X3\n1,99999999999999999999999,1\n",
}


class TestErrorReporting:
    def test_missing_file_is_io(self, star_files, tmp_path, capsys):
        _, learner, _ = star_files
        rc = main(["train", "--graph", str(learner),
                   "--data", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "r.csv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: io:")

    def test_bad_dataset_is_data(self, star_files, tmp_path, capsys):
        gen, _, _ = star_files
        bad = tmp_path / "bad.csv"
        bad.write_text("X1,X2,X3\n9,1,1\n")
        rc = main(["eval", "--graph", str(gen), "--data", str(bad)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: data:")
        assert "9" in err

    def test_non_terminal_column_is_data(self, star_files, tmp_path, capsys):
        gen, _, _ = star_files
        bad = tmp_path / "cols.csv"
        bad.write_text("S0,X1\n1,1\n")
        rc = main(["eval", "--graph", str(gen), "--data", str(bad)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: data:")

    def test_broken_graph_is_graph(self, star_files, tmp_path, capsys):
        _, _, data = star_files
        bad = tmp_path / "broken.json"
        bad.write_text('{"variables": [["X", 2]], "sources": [], "blocks": []}')
        rc = main(["eval", "--graph", str(bad), "--data", str(data)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: graph:")

    @pytest.mark.parametrize("case", list(MALFORMED_GRAPHS))
    def test_malformed_graph_json_is_graph(self, star_files, tmp_path, capsys, case):
        _, _, data = star_files
        document = graph_to_dict(build_latent_star(generative=True))
        document = MALFORMED_GRAPHS[case](document) or document
        bad = tmp_path / "malformed.json"
        # json.dumps writes an infinite size as Infinity; keep the file's 1e400.
        bad.write_text(json.dumps(document).replace("Infinity", "1e400"))
        rc = main(["eval", "--graph", str(bad), "--data", str(data)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: graph:"), err

    @pytest.mark.parametrize("case", list(NOT_JSON_GRAPHS))
    def test_graph_file_not_json_is_graph_with_path(self, star_files, tmp_path, capsys, case):
        _, _, data = star_files
        bad = tmp_path / "bad.json"
        bad.write_bytes(NOT_JSON_GRAPHS[case])
        rc = main(["eval", "--graph", str(bad), "--data", str(data)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith(f"error: graph: {bad}: not a JSON document: "), err

    @pytest.mark.parametrize("command", ["eval", "train"])
    @pytest.mark.parametrize("defect", list(BAD_DATASETS))
    def test_bad_dataset_csv_is_data(self, star_files, tmp_path, capsys, command, defect):
        _, learner, _ = star_files
        bad = tmp_path / "bad.csv"
        bad.write_text(BAD_DATASETS[defect])
        out = tmp_path / "r.csv"
        argv = [command, "--graph", str(learner), "--data", str(bad), "--out", str(out)]
        rc = main(argv + (["--epochs", "1"] if command == "train" else []))
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: data:"), err
        assert not out.exists()

    @pytest.mark.parametrize("row, cell", [("1,a,1", "'a'"), ("1,,1", "''")],
                             ids=["letter", "empty cell"])
    def test_cell_not_an_integer_names_path_and_line(self, star_files, tmp_path, capsys, row,
                                                      cell):
        _, learner, _ = star_files
        bad = tmp_path / "cells.csv"
        bad.write_text(f"# seed: 1\nX1,X2,X3\n1,2,1\n{row}\n")
        rc = main(["train", "--graph", str(learner), "--data", str(bad), "--epochs", "1",
                   "--out", str(tmp_path / "r.csv")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: data: {bad}: line 4: "), err
        assert "not an integer" in err[0] and cell in err[0], err

    @pytest.mark.parametrize("command", ["eval", "train"])
    @pytest.mark.parametrize("split", list(EMPTY_SIDE_SPLITS))
    def test_split_that_empties_a_side_is_data(self, star_files, tmp_path, capsys, command,
                                               split):
        gen, learner, _ = star_files
        data, out = tmp_path / "ten.csv", tmp_path / "r.csv"
        assert main(["generate", "--graph", str(gen), "--n", "10", "--out", str(data)]) == 0
        capsys.readouterr()
        argv = [command, "--graph", str(learner), "--data", str(data), "--split", split,
                "--out", str(out)]
        rc = main(argv + (["--epochs", "1"] if command == "train" else []))
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: data: split {split} leaves no {EMPTY_SIDE_SPLITS[split]} "
                       "sample among 10"]
        assert not out.exists()

    @pytest.mark.parametrize("algo, flag, value", [
        ("var", "--delta", "-2"), ("ml", "--epochs", "-3"), ("ml", "--nit", "0"),
        ("vit", "--delta", "inf"), ("var", "--delta", "inf"),
        ("vit", "--delta", "1e300"), ("var", "--delta", "1e308"),
        ("ml", "--tol", "nan"), ("kl", "--tol", "-1"), ("vit", "--tol", "inf"),
        ("var", "--seed", "-3"),
    ])
    def test_bad_training_setting_is_data(self, star_files, tmp_path, capsys, algo, flag, value):
        _, learner, data = star_files
        out = tmp_path / "r.csv"
        rc = main(["train", "--graph", str(learner), "--data", str(data),
                   "--algo", algo, flag, value, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: data:"), err
        assert flag[2:] in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("argv", BAD_STUDY_SETTINGS, ids=" ".join)
    def test_bad_study_setting_is_data(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        rc = main(["experiment", *argv, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: data:"), err
        if argv[1] in SAMPLING_SETTINGS and argv[2].startswith("-"):
            assert f"{SAMPLING_SETTINGS[argv[1]]} must be nonnegative" in err[0], err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--seed", "-3"), ("--n", "-5")])
    def test_negative_sampling_setting_in_generate_is_data(self, star_files, tmp_path, capsys,
                                                           flag, value):
        gen, _, _ = star_files
        out = tmp_path / "samples.csv"
        rc = main(["generate", "--graph", str(gen), flag, value, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: data: {SAMPLING_SETTINGS[flag]} must be nonnegative, got {value}"]
        assert not out.exists()

    @pytest.mark.parametrize("section, key, value, owner", [
        ("blocks", "matrix", [0.5, 0.5], "block 'P_X1': matrix must be 2-d, got shape (2,)"),
        ("sources", "prior", [[0.25] * 4], "source 'prior_S': prior must be 1-d, got shape (1, 4)"),
        ("blocks", "matrix", [[0.5, 0.5]] * 3 + [[0.5, float("nan")]],
         "block 'P_X1' matrix has entries outside [0, 1]"),
    ])
    def test_misshapen_parameter_names_its_owner(self, star_files, tmp_path, capsys, section,
                                                 key, value, owner):
        _, _, data = star_files
        document = graph_to_dict(build_latent_star(generative=True))
        document[section][0][key] = value
        bad = tmp_path / "misshapen.json"
        bad.write_text(json.dumps(document))
        rc = main(["eval", "--graph", str(bad), "--data", str(data)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: graph: {owner}"]

    @pytest.mark.parametrize("document, error", [
        ({"variables": [{"name": "A", "size": 2.5}], "sources": [{"name": "p", "variable": "A"}]},
         "variable 'A' size must be an integer, got 2.5"),
        ({"variables": [{"name": "A", "size": 2}, {"name": "B", "size": 2}],
          "sources": [{"name": "p", "variable": "A"}],
          "blocks": [{"name": "e", "from": "A", "to": "B",
                      "matrix": {"builder": "expander", "sizes": [2, 0], "j": 1}}]},
         "block 'e': sizes must be a nonempty list of positive integers, got [2, 0]"),
    ], ids=["float size", "zero builder size"])
    def test_bad_size_in_graph_file_is_named(self, tmp_path, capsys, document, error):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document))
        rc = main(["generate", "--graph", str(bad), "--n", "1", "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: graph: {error}"]

    def test_memory_error_is_data(self, star_files, tmp_path, capsys, monkeypatch):
        """A request the host cannot fill is one ``data`` line, not a traceback;
        a stand-in raises it, as a real one may succeed on another host."""
        gen, _, _ = star_files

        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 22.4 GiB")

        monkeypatch.setattr(cli, "ancestral_sample", refuse)
        out = tmp_path / "x.csv"
        rc = main(["generate", "--graph", str(gen), "--n", "1", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == ["error: data: Unable to allocate 22.4 GiB"]
        assert not out.exists()

    def test_contradiction_is_evidence(self, star_files, tmp_path, capsys):
        _, _, data = star_files
        dead_column = build_latent_star(generative=True).with_parameters(
            {"P_X1": np.array([[1.0, 0.0]] * 4)}
        )
        graph_path = tmp_path / "dead.json"
        save_graph(dead_column, graph_path)
        rc = main(["eval", "--graph", str(graph_path), "--data", str(data)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: evidence:")


def _key_paths(node, path=()):
    """The key path of every field in a JSON document, containers included."""
    paths = [path] if path else []
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            paths += _key_paths(child, path + (key,))
    return paths


FUZZ_VALUES = (None, True, -1, 0, 2, 2.5, float("inf"), 99999999999999999999999, "", "uniform",
               "X1", "S0", [], ["X1"], [[0.5, 0.5]], {},
               {"builder": "expander", "sizes": [2, 2], "j": 1})
FUZZ_TOKENS = ("", " ", "#", "0", "1", "3", "-1", "1.5", "x", "99999999999999999999999", "X1", "S0")
ERROR_LINE = re.compile(r"error: (evidence|graph|io|data): ")


class TestFuzzedFiles:
    """The error contract under one mutated graph field or dataset token:
    exit 0, or exit 1 with exactly one categorized line, never a traceback."""

    document = graph_to_dict(build_latent_star(generative=True))
    graph_paths = _key_paths(document)

    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_one_mutation_keeps_the_contract(self, data):
        document = json.loads(json.dumps(self.document))
        with tempfile.TemporaryDirectory() as tmp:
            graph, dataset = Path(tmp, "g.json"), Path(tmp, "d.csv")
            save_samples(ancestral_sample(build_latent_star(generative=True), 12, seed=5),
                         dataset)
            if data.draw(st.booleans(), label="mutate graph"):
                path = data.draw(st.sampled_from(self.graph_paths), label="field")
                _set(path, data.draw(st.sampled_from(FUZZ_VALUES), label="value"))(document)
            else:
                lines = dataset.read_text().splitlines()
                cells = [(i, j) for i, line in enumerate(lines) if not line.startswith("#")
                         for j in range(len(line.split(",")))]
                i, j = data.draw(st.sampled_from(cells), label="token")
                row = lines[i].split(",")
                row[j] = data.draw(st.sampled_from(FUZZ_TOKENS), label="replacement")
                lines[i] = ",".join(row)
                dataset.write_text("\n".join(lines) + "\n")
            graph.write_text(json.dumps(document))
            argv = data.draw(st.sampled_from([
                ["eval", "--split", "0.75"],
                ["train", "--algo", "ml", "--epochs", "2", "--out", str(Path(tmp, "r.csv"))],
            ]), label="command")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv + ["--graph", str(graph), "--data", str(dataset)])
        lines = err.getvalue().splitlines()
        if rc == 0:
            assert lines == []
        else:
            assert rc == 1 and len(lines) == 1 and ERROR_LINE.match(lines[0]), lines


class TestExperimentCommand:
    def test_single_block_outputs(self, tmp_path, capsys):
        rc = main(["experiment", "single-block", "--out", str(tmp_path),
                   "--n", "30", "--iterations", "5", "--emit-plot"])
        assert rc == 0
        lines = (tmp_path / "single_block.csv").read_text().splitlines()
        body = [l for l in lines if not l.startswith("#")]
        assert body[0] == "algorithm,iteration,loglik"
        assert len(body) == 1 + 2 * 5 + 3
        assert (tmp_path / "single_block.gp").exists()
        out = capsys.readouterr().out
        for algorithm in ("ml", "kl", "vit", "var", "ref"):
            assert f"{algorithm}: final loglik" in out

    def test_single_block_ignores_the_epoch_settings(self, tmp_path):
        """single-block reads only --delta and --seed of the training flags."""
        rc = main(["experiment", "single-block", "--out", str(tmp_path), "--n", "10",
                   "--iterations", "2", "--epochs", "-1", "--nit", "0", "--tol", "-1"])
        assert rc == 0

    @pytest.mark.parametrize("name, runner", [
        ("single-block", "run_single_block"), ("tree", "run_tree_experiment"),
        ("deep", "run_deep_experiment"), ("nit-sweep", "run_nit_sweep")])
    def test_sample_count_passed_only_when_given(self, monkeypatch, tmp_path, name, runner):
        """Without --n a study runs at its runner's own default sample count."""
        seen = []

        def recorded(train, **study):
            seen.append(study)
            raise ValueError("recorded")

        monkeypatch.setattr(cli.exp, runner, recorded)
        assert main(["experiment", name, "--out", str(tmp_path)]) == 1
        assert main(["experiment", name, "--out", str(tmp_path), "--n", "7"]) == 1
        assert "n_samples" not in seen[0] and seen[1]["n_samples"] == 7

    def test_tree_with_latent_override(self, tmp_path):
        rc = main(["experiment", "tree", "--out", str(tmp_path), "--n", "20",
                   "--epochs", "2", "--algo", "vit", "--ms-override", "2"])
        assert rc == 0
        assert (tmp_path / "tree.csv").exists()
        learned = load_graph(tmp_path / "tree.vit.learned.json")
        assert learned.sizes["S0"] == 2

    def test_deep_smoke(self, tmp_path):
        rc = main(["experiment", "deep", "--out", str(tmp_path), "--n", "10",
                   "--epochs", "1", "--algo", "vit"])
        assert rc == 0
        lines = (tmp_path / "deep.csv").read_text().splitlines()
        assert any(l.startswith("vit,1,") for l in lines)

    def test_nit_sweep_shape(self, tmp_path):
        rc = main(["experiment", "nit-sweep", "--out", str(tmp_path),
                   "--n", "10", "--epochs", "1"])
        assert rc == 0
        lines = (tmp_path / "nit_sweep.csv").read_text().splitlines()
        body = [l for l in lines if not l.startswith("#")]
        assert body[0] == "nit,repetition,algorithm,final_train_loglik"
        assert len(body) == 1 + 5 * 10
        assert all(l.split(",")[2] == "ml" for l in body[1:])

    def test_tree_reruns_match_except_wall_clock(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["experiment", "tree", "--n", "20", "--epochs", "2",
                "--algo", "ml", "--seed", "3"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert drop_wall_column(a / "tree.csv") == drop_wall_column(b / "tree.csv")


def declared(section: str, name: str) -> str:
    """The string value of ``name`` under ``section`` in pyproject.toml.

    Read line by line rather than with ``tomllib``, which Python 3.10 lacks.
    """
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    current = None
    for line in pyproject.read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            current = line
            continue
        match = re.fullmatch(rf'{re.escape(name)}\s*=\s*"([^"]+)"', line)
        if current == section and match:
            return match.group(1)
    raise LookupError(f"no {section} entry named {name!r}")


def declared_script(name: str) -> str:
    """Target of ``name`` under ``[project.scripts]`` in pyproject.toml."""
    return declared("[project.scripts]", name)


def package_env() -> dict[str, str]:
    """The environment with the imported package's parent on PYTHONPATH."""
    package_root = Path(normalgraph.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(package_root), env.get("PYTHONPATH")]))
    return env


class TestPublicNames:
    """Each module's ``__all__`` is the only list of its public names."""

    @pytest.mark.parametrize("module", ["messages", "graph", "propagation", "learning",
                                        "synthgen", "experiments", "cli"])
    def test_every_listed_name_is_defined(self, module):
        namespace = importlib.import_module(f"normalgraph.{module}")
        assert namespace.__all__
        missing = [name for name in namespace.__all__ if not hasattr(namespace, name)]
        assert missing == []

    def test_propagation_holds_no_training_loop(self):
        """The EM epochs and their stacking bound live in ``learning``;
        ``propagation`` is inference only."""
        namespace = importlib.import_module("normalgraph.propagation")
        for name in ("_Epochs", "STACK_ENTRIES"):
            assert not hasattr(namespace, name), name

    def test_synthgen_imports_no_learning_rule(self):
        code = "import sys, normalgraph.synthgen; sys.exit('normalgraph.learning' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=package_env())
        assert proc.returncode == 0, proc.stderr or "normalgraph.learning was imported"

    def test_version_matches_pyproject(self):
        assert normalgraph.__version__ == declared("[project]", "version")


class TestConsoleScript:
    def test_installed_entry_point(self):
        # Checks the entry point pyproject.toml declares, run the way the
        # installed wrapper runs it, so no pip install is needed.
        module, attr = declared_script("normalgraph").split(":")
        assert callable(getattr(importlib.import_module(module), attr))
        wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
        proc = subprocess.run([sys.executable, "-c", wrapper, "--help"],
                              capture_output=True, text=True, env=package_env())
        assert proc.returncode == 0, proc.stderr
        assert "generate" in proc.stdout and "experiment" in proc.stdout

    def test_python_dash_m(self):
        proc = subprocess.run([sys.executable, "-m", "normalgraph", "--help"],
                              capture_output=True, text=True, env=package_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: normalgraph ")
        assert "generate" in proc.stdout and "experiment" in proc.stdout

    @pytest.mark.skipif(shutil.which("normalgraph") is None,
                        reason="normalgraph is not installed on PATH")
    def test_path_executable(self):
        proc = subprocess.run([shutil.which("normalgraph"), "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "generate" in proc.stdout and "experiment" in proc.stdout


class TestInProcessCalls:
    """``main`` keeps one parser for the process: a sequence of calls in one
    interpreter, failing ones included, prints and writes what a fresh
    ``python -m normalgraph`` prints and writes for each call."""

    SEQUENCE = (
        ["generate", "--graph", "gen.json", "--n", "120", "--seed", "3", "--out", "data.csv"],
        ["train", "--graph", "learner.json", "--data", "data.csv", "--algo", "all",
         "--epochs", "4", "--split", "0.75", "--out", "train.csv"],
        ["eval", "--graph", "train.ml.learned.json", "--data", "data.csv", "--split", "0.75",
         "--out", "eval.csv"],
        ["train", "--graph", "learner.json", "--data", "data.csv", "--epochs", "x",
         "--out", "never.csv"],
        ["eval", "--graph", "gen.json", "--data", "bad.csv"],
        ["train", "--graph", "learner.json", "--data", "data.csv", "--algo", "vit",
         "--epochs", "3", "--out", "again.csv"],
    )

    @staticmethod
    def prepare(directory: Path) -> None:
        save_graph(build_latent_star(generative=True), directory / "gen.json")
        save_graph(build_latent_star(), directory / "learner.json")
        (directory / "bad.csv").write_text("X1,X2,X3\n9,1,1\n")

    @staticmethod
    def written(directory: Path) -> dict[str, list[str]]:
        return {path.name: (drop_wall_column(path) if "wall_ms" in path.read_text()
                            else path.read_text().splitlines())
                for path in sorted(directory.iterdir())}

    def test_calls_in_one_interpreter_match_fresh_ones(self, tmp_path, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        here, fresh = tmp_path / "here", tmp_path / "fresh"
        for directory in (here, fresh):
            directory.mkdir()
            self.prepare(directory)
        monkeypatch.chdir(here)
        printed_here = []
        for argv in self.SEQUENCE:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as stop:
                    code = stop.code
            printed_here.append((code, out.getvalue(), err.getvalue()))
        printed_fresh = []
        for argv in self.SEQUENCE:
            proc = subprocess.run([sys.executable, "-m", "normalgraph", *argv], cwd=fresh,
                                  capture_output=True, text=True, env=package_env())
            printed_fresh.append((proc.returncode, proc.stdout, proc.stderr))
        assert [code for code, _, _ in printed_here] == [0, 0, 0, 2, 1, 0]
        assert printed_here == printed_fresh
        assert self.written(here) == self.written(fresh)

    def test_build_parser_returns_a_new_parser_on_each_call(self):
        assert build_parser() is not build_parser()
        assert cli._parser() is cli._parser()
