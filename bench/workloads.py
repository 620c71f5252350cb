"""The benchmark's three workloads on the deep study graph.

Each workload has a set-up (timed as ``setup_s``), a stream of rounds of
operations and the parts of the benchmark's reference kernel that do its
kind of work (``reference``, see ``run.ReferenceKernel``).  Every round
holds the same slots (one per learning rule, or one per batch-size
stratum), so a slot's repeats over the rounds do the same work.  An
operation is one call into the program; its check runs afterwards, outside
the timed region, and returns None or the reason the output is wrong.  All
inputs derive from the seed.  The program is reached through module
attributes at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from normalgraph import cli as ng_cli
from normalgraph import experiments as ng_exp
from normalgraph import graph as ng_graph
from normalgraph import learning as ng_learning
from normalgraph import propagation as ng_prop
from normalgraph import synthgen as ng_synth

RULES = ("ml", "kl", "vit", "var")
TERMINALS = ("X1", "X2", "X3")
TERMINAL_SIZES = (3, 2, 3)  # 18 hard-evidence patterns

# The ml rule is an exact EM step per block, so the train log-likelihood
# never falls; measured drops stay at rounding level (<= 1.2e-13 absolute
# at N=100).  A drop larger than this share of |loglik| is a failure.
ML_DROP_RTOL = 1e-11
# Re-scoring a learned graph repeats the final epoch's arithmetic.
RESCORE_RTOL = 1e-9
STOCHASTIC_ATOL = 1e-9
POSTERIOR_ATOL = 1e-9


@dataclass
class Op:
    """One timed call in slot ``key``: ``rows`` evidence rows through ``units`` passes."""

    key: object
    call: Callable[[], object]
    check: Callable[[object], str | None]
    rows: int
    units: int


def _quiet(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ng_cli.main(argv)
    return code, out.getvalue()


def _generative_graph(seed: int):
    structure = ng_exp.build_deep_graph()
    return structure, structure.with_parameters(ng_exp.deep_generative_parameters(seed))


def _stochastic_error(graph) -> str | None:
    for unit in graph.trainable_units():
        matrix = np.atleast_2d(unit.prior if isinstance(unit, ng_graph.SourceBlock) else unit.theta)
        if not np.all(np.isfinite(matrix)) or np.any(matrix < 0):
            return f"{unit.name}: entries not finite and nonnegative"
        if np.max(np.abs(matrix.sum(axis=1) - 1.0)) > STOCHASTIC_ATOL:
            return f"{unit.name}: rows do not sum to 1"
    return None


def _trajectory_error(rule: str, logliks) -> str | None:
    if not all(math.isfinite(x) for x in logliks):
        return "non-finite train log-likelihood"
    if rule == "ml":
        for epoch, (before, after) in enumerate(zip(logliks, logliks[1:]), start=2):
            if after < before - ML_DROP_RTOL * abs(before):
                return f"ml log-likelihood fell by {before - after:.3g} at epoch {epoch}"
    return None


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RESCORE_RTOL * max(1.0, abs(a))


class DeepCli:
    """The paper's deep study at N=100, run through ``normalgraph`` commands."""

    name = "deep-n100-cli"
    n_samples = 100
    # Not the command's default of 60: a 5-epoch call (~20 ms) repeats ~200
    # times per rule in a run, a 60-epoch one ~45 times, and its cost spread
    # by over 20% between runs.
    epochs = 5
    # Each call trains on small arrays and loads and saves JSON and CSV files.
    reference = ("arrays", "files")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir

    def _path(self, name: str) -> str:
        return str(self.dir / name)

    def setup(self) -> None:
        structure, generative = _generative_graph(self.seed)
        ng_graph.save_graph(structure, self._path("learner.json"))
        ng_graph.save_graph(generative, self._path("generative.json"))
        code, _ = _quiet(["generate", "--graph", self._path("generative.json"),
                          "--n", str(self.n_samples), "--seed", str(self.seed),
                          "--out", self._path("data.csv")])
        if code != 0:
            raise RuntimeError(f"generate exited with {code}")

    def ops(self, round_index: int) -> list[Op]:
        return [Op(key=rule, call=self._train(rule), check=self._checker(rule),
                   rows=self.n_samples * self.epochs, units=self.epochs)
                for rule in RULES]

    def _train(self, rule):
        argv = ["train", "--graph", self._path("learner.json"), "--data", self._path("data.csv"),
                "--algo", rule, "--epochs", str(self.epochs), "--nit", "3",
                "--seed", str(self.seed), "--out", self._path(f"train_{rule}.csv")]
        return lambda: _quiet(argv)[0]

    def _checker(self, rule):
        def check(code) -> str | None:
            if code != 0:
                return f"train --algo {rule} exited with {code}"
            with open(self._path(f"train_{rule}.csv"), encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
            logliks = [float(row["train_loglik"]) for row in rows]
            if len(logliks) != self.epochs:
                return f"{rule}: {len(logliks)} epochs written, expected {self.epochs}"
            learned = self._path(f"train_{rule}.{rule}.learned.json")
            error = _stochastic_error(ng_graph.load_graph(learned)) or _trajectory_error(rule, logliks)
            if error:
                return f"{rule}: {error}"
            code, out = _quiet(["eval", "--graph", learned, "--data", self._path("data.csv")])
            rescored = float(out.split("train_loglik=")[1].split()[0]) if code == 0 else math.nan
            if not _close(rescored, logliks[-1]):
                return f"{rule}: eval gives {rescored!r}, training ended at {logliks[-1]!r}"
            return None

        return check


class DeepN100k:
    """The deep graph learned from 100 000 samples with an 80/20 split."""

    name = "deep-n100k"
    n_samples = 100_000
    epochs = 2  # the fewest with an ml step to check; ~5 repeats per rule a run
    split = 0.8
    reference = ("arrays",)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.pattern_counts = None

    def setup(self) -> None:
        self.structure, generative = _generative_graph(self.seed)
        data = ng_synth.ancestral_sample(generative, self.n_samples, seed=self.seed)
        self.evidence = data.terminal_evidence(TERMINALS)
        self.mask = ng_exp.split_mask(self.n_samples, self.split)

    def ops(self, round_index: int) -> list[Op]:
        return [Op(key=rule, call=self._train(rule), check=self._checker(rule),
                   rows=self.n_samples * self.epochs, units=self.epochs)
                for rule in RULES]

    def _train(self, rule):
        cfg = ng_learning.TrainConfig(algorithm=rule, epochs=self.epochs, nit=3, seed=self.seed)
        return lambda: ng_learning.em_train(self.structure, self.evidence, cfg, self.mask)

    def _checker(self, rule):
        def check(report) -> str | None:
            logliks = [r.train_loglik for r in report.records]
            if len(logliks) != self.epochs:
                return f"{rule}: {len(logliks)} epochs run, expected {self.epochs}"
            error = _stochastic_error(report.graph) or _trajectory_error(rule, logliks)
            if error:
                return f"{rule}: {error}"
            if self.pattern_counts is None:
                self.pattern_counts = _pattern_counts(self.evidence, self.mask)
            table = DeepOracle(report.graph).terminal_loglik()
            train, test = (float(np.sum(counts * table)) for counts in self.pattern_counts)
            final = report.records[-1]
            if not (_close(train, final.train_loglik) and _close(test, final.test_loglik)):
                return (f"{rule}: re-score gives train {train!r} test {test!r}, training ended "
                        f"at {final.train_loglik!r} / {final.test_loglik!r}")
            return None

        return check


def _pattern_counts(evidence, mask) -> tuple[np.ndarray, np.ndarray]:
    """Train and test counts of each terminal pattern, as (|X1|, |X2|, |X3|) tables."""
    keys = np.ravel_multi_index(tuple(np.asarray(evidence[x]) for x in TERMINALS), TERMINAL_SIZES)
    return tuple(np.bincount(keys[sel], minlength=18).reshape(TERMINAL_SIZES).astype(float)
                 for sel in (mask > 0, mask <= 0))


class DeepOracle:
    """Posteriors of the deep graph by enumerating its 5 184 joint states.

    Works from the block tables alone: the expander pairs only say which
    product-space symbol a pair of component symbols maps to.
    """

    def __init__(self, graph):
        prior = {s.name: s.prior for s in graph.sources}
        table = {b.name: b.theta for b in graph.blocks}
        self.pair12 = np.einsum("ap,bp->abp", table["join_S1S2_in1"] > 0,
                                table["join_S1S2_in2"] > 0).astype(float)
        self.pair23 = np.einsum("cp,dp->cdp", table["join_Y2S3_in1"] > 0,
                                table["join_Y2S3_in2"] > 0).astype(float)
        y1_given_s1s2 = np.einsum("abp,py->aby", self.pair12, table["P_Y1"])
        x3_given_y2s3 = np.einsum("cdp,pg->cdg", self.pair23, table["P_X3"])
        # Axes: S1 a, S2 b, S3 d, Y1 y, Y2 c, X1 e, X2 f, X3 g.
        self.joint = np.einsum(
            "a,b,d,aby,yc,ae,yf,cdg->abdycefg",
            prior["prior_S1"], prior["prior_S2"], prior["prior_S3"], y1_given_s1s2,
            table["P_Y2"], table["P_X1"], table["P_X2"], x3_given_y2s3,
        )

    def terminal_loglik(self) -> np.ndarray:
        """Per hard-evidence pattern, the sum over terminals of log p(x_k | x_others).

        With hard evidence the forward message at a terminal is its
        prediction from the other terminals, so this is the per-sample term
        of ``aggregated_log_likelihood``.
        """
        terminals = self.joint.sum(axis=(0, 1, 2, 3, 4))
        return sum(np.log(terminals / terminals.sum(axis=k, keepdims=True)) for k in range(3))

    def posteriors(self, e1, e2, e3) -> dict[str, np.ndarray]:
        joint = self.joint * e1[None, None, None, None, None, :, None, None]
        joint = joint * e2[None, None, None, None, None, None, :, None]
        joint = joint * e3
        joint /= joint.sum()

        def marginal(*keep):
            return joint.sum(axis=tuple(i for i in range(8) if i not in keep))

        s1, s2, s3, y1, y2 = (marginal(i) for i in range(5))
        out = {"S2": s2, "S3": s3, "Y2": y2, "X1": marginal(5), "X2": marginal(6),
               "X3": marginal(7)}
        ps12 = np.einsum("ab,abp->p", marginal(0, 1), self.pair12)
        ps23 = np.einsum("cd,cdp->p", marginal(2, 4).T, self.pair23)
        for k in range(3):
            out[f"S1_{k}"], out[f"Y1_{k}"] = s1, y1
            out[f"PS12_{k}"], out[f"PS23_{k}"] = ps12, ps23
        return out


class InferSoft:
    """Inference with soft evidence on fixed generative parameters."""

    name = "infer-soft"
    round_size = 64
    max_rows = 4096
    reference = ("arrays",)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.oracle = None

    def setup(self) -> None:
        _, self.graph = _generative_graph(self.seed)
        self.propagator = ng_prop.Propagator(self.graph)
        self.variables = tuple(name for name, _ in self.graph.variables)

    def batch_sizes(self) -> np.ndarray:
        """Batch size per slot: the midpoints of equal-probability strata of
        the log-uniform law on [1, max_rows], so every round and every seed
        has the same mix of small and large batches."""
        u = (np.arange(self.round_size) + 0.5) / self.round_size
        sizes = np.floor(np.exp(u * math.log(self.max_rows + 1))).astype(int)
        return np.clip(sizes, 1, self.max_rows)

    def ops(self, round_index: int) -> list[Op]:
        # Fresh evidence every round, sent in a fresh order.
        rng = np.random.default_rng([self.seed, round_index])
        sizes = self.batch_sizes()
        ops = []
        for slot in rng.permutation(self.round_size):
            rows = int(sizes[slot])
            evidence = {x: rng.uniform(0.05, 1.0, size=(rows, size))
                        for x, size in zip(TERMINALS, TERMINAL_SIZES)}
            ops.append(Op(key=int(slot), call=self._infer(evidence, rows),
                          check=self._checker(evidence), rows=rows, units=1))
        return ops

    def _infer(self, evidence, rows):
        def call():
            state = self.propagator.run(evidence, n_samples=rows)
            posteriors = {v: ng_prop.posterior(state, v) for v in self.variables}
            loglik = ng_prop.aggregated_log_likelihood(state, TERMINALS)
            return posteriors, loglik

        return call

    def _checker(self, evidence):
        def check(result) -> str | None:
            posteriors, loglik = result
            if not (math.isfinite(loglik) and loglik <= 0.0):
                return f"log-likelihood {loglik!r} is not finite and nonpositive"
            for name, rows in posteriors.items():
                if not np.all(np.isfinite(rows)) or np.max(np.abs(rows.sum(axis=1) - 1.0)) > 1e-12:
                    return f"posterior rows of {name} do not sum to 1"
            if self.oracle is None:
                self.oracle = DeepOracle(self.graph)
            n = len(next(iter(posteriors.values())))
            for row in sorted({0, n - 1}):
                exact = self.oracle.posteriors(*(evidence[x][row] for x in TERMINALS))
                for name, values in exact.items():
                    if np.max(np.abs(posteriors[name][row] - values)) > POSTERIOR_ATOL:
                        return f"posterior of {name} at row {row} differs from enumeration"
            return None

        return check


WORKLOADS = {w.name: w for w in (DeepCli, DeepN100k, InferSoft)}
