"""End-to-end tests for the command-line front end."""

import importlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import normalgraph
from normalgraph.cli import main
from normalgraph.experiments import build_latent_star, load_samples
from normalgraph.graph import graph_to_dict, load_graph, save_graph


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
        assert "training split" in err

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

    @pytest.mark.parametrize("case", [
        "block without to", "top-level list", "diverter taps not a list", "source without variable",
        "block to not a name", "diverter tap not a name",
    ])
    def test_malformed_graph_json_is_graph(self, star_files, tmp_path, capsys, case):
        _, _, data = star_files
        document = graph_to_dict(build_latent_star(generative=True))
        if case == "block without to":
            del document["blocks"][0]["to"]
        elif case == "top-level list":
            document = [document]
        elif case == "diverter taps not a list":
            document["diverters"][0]["taps"] = 5
        elif case == "source without variable":
            del document["sources"][0]["variable"]
        elif case == "block to not a name":
            document["blocks"][0]["to"] = ["X1"]
        else:
            document["diverters"][0]["taps"][0] = ["S1"]
        bad = tmp_path / "malformed.json"
        bad.write_text(json.dumps(document))
        rc = main(["eval", "--graph", str(bad), "--data", str(data)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: graph:"), err

    @pytest.mark.parametrize("algo, flag, value", [
        ("var", "--delta", "-2"), ("ml", "--epochs", "-3"), ("ml", "--nit", "0"),
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


def declared_script(name: str) -> str:
    """Target of ``name`` under ``[project.scripts]`` in pyproject.toml.

    Read line by line rather than with ``tomllib``, which Python 3.10 lacks.
    """
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    section = None
    for line in pyproject.read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            section = line
            continue
        match = re.fullmatch(rf'{re.escape(name)}\s*=\s*"([^"]+)"', line)
        if section == "[project.scripts]" and match:
            return match.group(1)
    raise LookupError(f"no [project.scripts] entry named {name!r}")


class TestConsoleScript:
    def test_installed_entry_point(self):
        # Checks the entry point pyproject.toml declares, run the way the
        # installed wrapper runs it, so no pip install is needed.
        module, attr = declared_script("normalgraph").split(":")
        assert callable(getattr(importlib.import_module(module), attr))
        package_root = Path(normalgraph.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(package_root), env.get("PYTHONPATH")])
        )
        wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
        proc = subprocess.run([sys.executable, "-c", wrapper, "--help"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "generate" in proc.stdout and "experiment" in proc.stdout

    @pytest.mark.skipif(shutil.which("normalgraph") is None,
                        reason="normalgraph is not installed on PATH")
    def test_path_executable(self):
        proc = subprocess.run([shutil.which("normalgraph"), "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "generate" in proc.stdout and "experiment" in proc.stdout
