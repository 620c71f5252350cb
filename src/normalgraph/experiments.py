"""Reference experiments and their file formats.

Three synthetic studies exercise the learning rules end to end:

* a single SISO block trained on random message pairs, comparing the four
  rules against a random reference matrix;
* a latent-variable star: one hidden source fanned out to three observed
  children, learned from ancestral samples, optionally with a mismatched
  latent alphabet or a train/test split;
* a four-layer graph with two product-space joins built from fixed
  expander blocks, learned from scratch.

Datasets and results travel as small CSV files with deterministic bodies:
the only run-dependent column is the trailing wall-clock one, so two runs
with the same configuration and seed produce byte-identical rows
everywhere else.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .graph import (
    DiverterNode,
    GraphSpec,
    SisoBlock,
    SourceBlock,
    build_expander,
    graph_digest,
)
from .learning import (
    ALGORITHMS,
    BlockDataset,
    TrainConfig,
    TrainReport,
    block_log_likelihood,
    kl_update,
    ml_update,
    em_train,
    var_update,
    vit_update,
)
from .messages import _require_delta, _require_finite_nonnegative, sharpen
from .propagation import ContradictoryEvidence
from .synthgen import SampleSet, ancestral_sample, random_row_stochastic, substream

__all__ = [
    "TREE_PRIOR",
    "TREE_LEAF_CONDITIONALS",
    "build_latent_star",
    "build_deep_graph",
    "deep_generative_parameters",
    "SingleBlockConfig",
    "random_message_pairs",
    "run_single_block",
    "train_rules",
    "run_tree_experiment",
    "run_deep_experiment",
    "run_nit_sweep",
    "split_mask",
    "save_samples",
    "load_samples",
    "write_csv",
    "write_training_rows",
    "write_coefficient_rows",
    "write_plot_script",
    "format_float",
]


# Hand-picked generative model for the latent-star studies: a four-state
# hidden source with two binary children and one ternary child.
TREE_PRIOR = np.array([0.25, 0.25, 0.25, 0.25])
TREE_LEAF_CONDITIONALS = (
    np.array([[0.1, 0.9], [0.1, 0.9], [0.9, 0.1], [0.3, 0.7]]),
    np.array([[0.1, 0.9], [0.99, 0.01], [0.5, 0.5], [0.2, 0.8]]),
    np.array([[0.1, 0.89, 0.01], [0.3, 0.3, 0.4], [0.8, 0.1, 0.1], [0.1, 0.8, 0.1]]),
)


def build_latent_star(m_latent: int = 4, generative: bool = False) -> GraphSpec:
    """Hidden source S fanned out to terminals X1, X2, X3.

    With ``generative`` the blocks carry the reference parameters above
    (m_latent must be 4); otherwise they start uniform and trainable.
    """
    if m_latent < 1:
        raise ValueError(f"m_latent must be at least 1, got {m_latent}")
    leaf_sizes = tuple(m.shape[1] for m in TREE_LEAF_CONDITIONALS)
    if generative:
        if m_latent != TREE_PRIOR.shape[0]:
            raise ValueError("the generative star has a four-state source")
        prior = TREE_PRIOR
        mats = TREE_LEAF_CONDITIONALS
    else:
        prior = np.full(m_latent, 1.0 / m_latent)
        mats = tuple(np.full((m_latent, c), 1.0 / c) for c in leaf_sizes)
    variables = [("S0", m_latent), ("S1", m_latent), ("S2", m_latent), ("S3", m_latent)]
    variables += [(f"X{i}", c) for i, c in enumerate(leaf_sizes, start=1)]
    return GraphSpec(
        variables=tuple(variables),
        sources=(SourceBlock("prior_S", "S0", prior),),
        blocks=tuple(
            SisoBlock(f"P_X{i}", f"S{i}", f"X{i}", mats[i - 1])
            for i in (1, 2, 3)
        ),
        diverters=(DiverterNode(inbound=("S0",), taps=("S1", "S2", "S3")),),
    )


# Four-layer graph: sources S1, S2, S3; the pair (S1, S2) drives Y1 through
# an 8-state product space, Y1 drives Y2, and the pair (Y2, S3) drives X3
# through a 12-state product space.  X1 and X2 hang off S1 and Y1.
_DEEP_SIZES = {"S1": 4, "S2": 2, "S3": 3, "Y1": 3, "Y2": 4, "X1": 3, "X2": 2, "X3": 3}


def build_deep_graph() -> GraphSpec:
    """The deep study's structure with uniform trainable parameters.

    The four join blocks around the product spaces are fixed expanders;
    everything else (three priors, five conditionals) is trainable.
    """
    s1, s2, s3 = _DEEP_SIZES["S1"], _DEEP_SIZES["S2"], _DEEP_SIZES["S3"]
    y1, y2 = _DEEP_SIZES["Y1"], _DEEP_SIZES["Y2"]
    x1, x2, x3 = _DEEP_SIZES["X1"], _DEEP_SIZES["X2"], _DEEP_SIZES["X3"]
    p12, p23 = s1 * s2, y2 * s3

    def unif(r, c):
        return np.full((r, c), 1.0 / c)

    variables = (
        ("S1_0", s1), ("S1_1", s1), ("S1_2", s1), ("S2", s2), ("S3", s3),
        ("PS12_1", p12), ("PS12_2", p12), ("PS12_0", p12),
        ("Y1_0", y1), ("Y1_1", y1), ("Y1_2", y1), ("Y2", y2),
        ("PS23_1", p23), ("PS23_2", p23), ("PS23_0", p23),
        ("X1", x1), ("X2", x2), ("X3", x3),
    )
    sources = (
        SourceBlock("prior_S1", "S1_0", np.full(s1, 1.0 / s1)),
        SourceBlock("prior_S2", "S2", np.full(s2, 1.0 / s2)),
        SourceBlock("prior_S3", "S3", np.full(s3, 1.0 / s3)),
    )
    blocks = (
        SisoBlock("join_S1S2_in1", "S1_2", "PS12_1", build_expander([s1, s2], 1), trainable=False),
        SisoBlock("join_S1S2_in2", "S2", "PS12_2", build_expander([s1, s2], 2), trainable=False),
        SisoBlock("P_X1", "S1_1", "X1", unif(s1, x1)),
        SisoBlock("P_Y1", "PS12_0", "Y1_0", unif(p12, y1)),
        SisoBlock("P_X2", "Y1_1", "X2", unif(y1, x2)),
        SisoBlock("P_Y2", "Y1_2", "Y2", unif(y1, y2)),
        SisoBlock("join_Y2S3_in1", "Y2", "PS23_1", build_expander([y2, s3], 1), trainable=False),
        SisoBlock("join_Y2S3_in2", "S3", "PS23_2", build_expander([y2, s3], 2), trainable=False),
        SisoBlock("P_X3", "PS23_0", "X3", unif(p23, x3)),
    )
    diverters = (
        DiverterNode(inbound=("S1_0",), taps=("S1_1", "S1_2")),
        DiverterNode(inbound=("PS12_1", "PS12_2"), taps=("PS12_0",)),
        DiverterNode(inbound=("Y1_0",), taps=("Y1_1", "Y1_2")),
        DiverterNode(inbound=("PS23_1", "PS23_2"), taps=("PS23_0",)),
    )
    return GraphSpec(variables, sources, blocks, diverters)


def deep_generative_parameters(seed: int = 1) -> dict[str, np.ndarray]:
    """Random but reproducible ground-truth parameters for the deep graph."""
    graph = build_deep_graph()
    params: dict[str, np.ndarray] = {}
    for src in graph.sources:
        rng = substream(seed, "deep-gen", src.name)
        params[src.name] = random_row_stochastic(1, src.prior.shape[0], rng=rng).reshape(-1)
    for blk in graph.blocks:
        if blk.trainable:
            rng = substream(seed, "deep-gen", blk.name)
            params[blk.name] = random_row_stochastic(*blk.theta.shape, rng=rng)
    return params


def split_mask(n_samples: int, split: float) -> np.ndarray:
    """0/1 mask putting the leading ``split`` fraction into the train set."""
    if not 0.0 < split <= 1.0:
        raise ValueError("split must be in (0, 1]")
    n_train = int(round(split * n_samples))
    if n_samples and (n_train == 0 or (n_train == n_samples and split < 1.0)):
        side = "held-out" if n_train else "training"
        raise ValueError(f"split {split} leaves no {side} sample among {n_samples}")
    mask = np.zeros(n_samples, dtype=np.float64)
    mask[:n_train] = 1.0
    return mask


# ---------------------------------------------------------------------------
# Single-block study


_M_IN, _M_OUT = 4, 3  # the single block's input and output alphabet sizes


@dataclass
class SingleBlockConfig:
    """Settings of the single-block study, checked on construction."""

    n_samples: int = 400
    sharp_in: float = 1.0
    sharp_out: float = 1.0
    iterations: int = 100
    delta: float = TrainConfig.delta
    seed: int = TrainConfig.seed

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError(f"iterations must be at least 1, got {self.iterations}")
        if self.n_samples < 0:
            raise ValueError(f"n_samples must be nonnegative, got {self.n_samples}")
        for name in ("sharp_in", "sharp_out"):
            _require_finite_nonnegative(name, getattr(self, name))
        _require_delta(self.delta)


def random_message_pairs(m_in: int, m_out: int, n_samples: int,
                         sharp_in: float = 1.0, sharp_out: float = 1.0,
                         seed: int = 1) -> BlockDataset:
    """Synthetic message pairs for single-block experiments.

    Entries are drawn uniform in [0, 1], normalized, and sharpened by the
    given exponents; exponent 1 leaves them smooth, large exponents push
    every message toward a delta.
    """
    rng = substream(seed, "pairs", m_in, m_out, n_samples)
    forward = sharpen(rng.uniform(size=(n_samples, m_in)), sharp_in)
    backward = sharpen(rng.uniform(size=(n_samples, m_out)), sharp_out)
    return BlockDataset(forward=forward, backward=backward)


def run_single_block(cfg: SingleBlockConfig) -> list[tuple[str, int, float]]:
    """Train one block four ways on shared random message pairs.

    Returns (algorithm, iteration, loglik) rows: full trajectories for the
    iterative rules, a single row for the batch rules, and a random
    reference matrix labelled ``ref``.
    """
    data = random_message_pairs(_M_IN, _M_OUT, cfg.n_samples, cfg.sharp_in, cfg.sharp_out, cfg.seed)
    rows: list[tuple[str, int, float]] = []
    uniform = np.full((_M_IN, _M_OUT), 1.0 / _M_OUT)

    for algorithm, update in (("ml", ml_update), ("kl", kl_update)):
        theta = uniform
        for it in range(1, cfg.iterations + 1):
            theta = update(theta, data)
            rows.append((algorithm, it, block_log_likelihood(theta, data)))
    rows.append(("vit", 1, block_log_likelihood(vit_update(data, cfg.delta), data)))
    rows.append(("var", 1, block_log_likelihood(var_update(data, cfg.delta), data)))
    reference = random_row_stochastic(
        _M_IN, _M_OUT, rng=substream(cfg.seed, "reference", _M_IN, _M_OUT)
    )
    rows.append(("ref", 1, block_log_likelihood(reference, data)))
    return rows


# ---------------------------------------------------------------------------
# Graph studies


def train_rules(graph: GraphSpec, evidence, train: TrainConfig, mask: np.ndarray,
                algorithms: tuple[str, ...] = ALGORITHMS) -> dict[str, TrainReport]:
    """em_train once per rule in ``algorithms``, on ``train`` with the rule
    as its ``algorithm``."""
    reports: dict[str, TrainReport] = {}
    for algorithm in algorithms:
        try:
            reports[algorithm] = em_train(graph, evidence, replace(train, algorithm=algorithm),
                                          mask)
        except ContradictoryEvidence as error:
            remedy = ("use vit or var, or train on the full data" if algorithm in ("ml", "kl")
                      else "use a positive --delta")
            raise ContradictoryEvidence(
                f"{error} (the {algorithm} rule can assign zero probability to "
                f"symbols absent from the training split; {remedy})"
            ) from None
    return reports


def _sample_terminals(generative: GraphSpec, seed: int, n_samples: int, split: float):
    """Terminal evidence of ``n_samples`` ancestral samples of
    ``generative``, and the mask of their training split."""
    data = ancestral_sample(generative, n_samples, seed=seed)
    return data.terminal_evidence(("X1", "X2", "X3")), split_mask(n_samples, split)


def run_tree_experiment(train: TrainConfig, *, n_samples: int = 400, m_latent: int = 4,
                        split: float = 1.0,
                        algorithms: tuple[str, ...] = ALGORITHMS) -> dict[str, TrainReport]:
    """Latent-star study: sample the reference model, learn from scratch.

    ``train.seed`` also draws the samples; ``train_rules`` sets each rule
    as ``train.algorithm``.  ``m_latent`` sets the latent alphabet of the
    learned graph (the generative one always has four states); ``split``
    < 1 holds out the trailing samples as a test set.
    """
    star = build_latent_star(generative=True)
    evidence, mask = _sample_terminals(star, train.seed, n_samples, split)
    return train_rules(build_latent_star(m_latent), evidence, train, mask, algorithms)


def run_deep_experiment(train: TrainConfig, *, n_samples: int = 100, split: float = 1.0,
                        algorithms: tuple[str, ...] = ALGORITHMS) -> dict[str, TrainReport]:
    """Deep-graph study: random ground truth, learned from 100 samples.
    ``train.seed`` also draws the ground truth and the samples;
    ``train_rules`` sets each rule as ``train.algorithm``."""
    structure = build_deep_graph()
    generative = structure.with_parameters(deep_generative_parameters(train.seed))
    evidence, mask = _sample_terminals(generative, train.seed, n_samples, split)
    return train_rules(structure, evidence, train, mask, algorithms)


def run_nit_sweep(train: TrainConfig, *, n_samples: int = 400, m_latent: int = 4,
                  split: float = 1.0, algorithms: tuple[str, ...] = ALGORITHMS,
                  nits=(1, 3, 5, 10, 20),
                  repetitions: int = 10) -> list[tuple[int, int, str, float]]:
    """Final likelihood as a function of the per-epoch update count.

    ``train.seed`` fixes the dataset.  Each repetition reruns training from
    a different random message initialization: ``train`` with the swept
    ``nit`` and ``seed`` = ``train.seed`` * 1000 + repetition.  Returns rows
    of (nit, repetition, algorithm, final_train_loglik).
    """
    star = build_latent_star(generative=True)
    evidence, mask = _sample_terminals(star, train.seed, n_samples, split)
    learner = build_latent_star(m_latent)
    rows: list[tuple[int, int, str, float]] = []
    for nit in nits:
        for rep in range(1, repetitions + 1):
            sweep = replace(train, nit=nit, seed=train.seed * 1000 + rep)
            reports = train_rules(learner, evidence, sweep, mask, algorithms)
            rows += [(nit, rep, a, report.final_train_loglik) for a, report in reports.items()]
    return rows


# ---------------------------------------------------------------------------
# CSV formats


def format_float(value: float) -> str:
    return f"{float(value):.17g}"


def save_samples(samples: SampleSet, path, graph: GraphSpec | None = None,
                 columns: tuple[str, ...] | None = None) -> None:
    """Dataset CSV: comment header with provenance, 1-based symbol rows."""
    names = columns if columns is not None else tuple(samples.columns)
    meta = {"seed": samples.seed}
    if graph is not None:
        meta["graph"] = graph_digest(graph)
    stacked = np.stack([samples.columns[v] for v in names], axis=1)
    write_csv(path, names, (stacked.astype(np.int64, copy=False) + 1).tolist(), meta)


def load_samples(path) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Read a dataset CSV back into 0-based evidence columns plus metadata."""
    meta: dict[str, str] = {}
    at = 0  # the file line last read
    def body(fh):
        nonlocal at
        for at, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if line.startswith("#"):
                if ":" in line:
                    key, _, value = line[1:].partition(":")
                    meta[key.strip()] = value.strip()
            elif line:
                yield line

    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = []
        header: list[str] | None = None
        reader = csv.reader(body(fh))
        for cells in reader:
            if reader.line_num != len(rows) + (header is not None) + 1:  # one line per record
                raise ValueError(f"{path}: line {at}: a quoted cell runs on from an earlier line")
            if header is None:
                header = [c.strip() for c in cells]
                continue
            if len(cells) != len(header):
                raise ValueError(f"{path}: ragged rows")
            try:
                rows.append(list(map(int, cells)))
            except ValueError as exc:
                raise ValueError(f"{path}: line {at}: cell not an integer ({exc})") from None
    if header is None:
        raise ValueError(f"{path}: no header row")
    duplicates = sorted({name for name in header if header.count(name) > 1})
    if duplicates:
        raise ValueError(f"{path}: duplicate columns {duplicates}")
    try:
        data = np.asarray(rows, dtype=np.int64).reshape(len(rows), len(header))
    except OverflowError as exc:
        raise ValueError(f"{path}: symbol index out of range ({exc})") from exc
    if np.any(data < 1):
        raise ValueError(f"{path}: symbol indices are 1-based")
    columns = {name: data[:, i] - 1 for i, name in enumerate(header)}
    return columns, meta


def write_csv(path, header, rows, meta: dict | None = None) -> None:
    """Results CSV: ``# key: value`` provenance lines, the header, the rows;
    float cells, numpy's float64 included, are written by ``format_float``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for key, value in (meta or {}).items():
            fh.write(f"# {key}: {value}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([format_float(c) if isinstance(c, float) else c for c in row]
                         for row in rows)


def write_training_rows(reports: dict[str, TrainReport], path,
                        include_test: bool, meta: dict | None = None) -> None:
    """Training results CSV, one row per (algorithm, epoch).

    The wall-clock column comes last so that everything before it is
    reproducible byte for byte.
    """
    header = ["algorithm", "epoch", "train_loglik"]
    if include_test:
        header.append("test_loglik")
    header.append("wall_ms")
    table = []
    for algorithm, report in reports.items():
        for record in report.records:
            row = [algorithm, record.epoch, record.train_loglik]
            if include_test:
                row.append(record.test_loglik)
            row.append(record.wall_ms)
            table.append(row)
    write_csv(path, header, table, meta)


def write_coefficient_rows(reports: dict[str, TrainReport], path,
                           meta: dict | None = None) -> None:
    """Coefficient dump CSV: (algorithm, epoch, block, row, col, value)."""
    table = []
    for algorithm, report in reports.items():
        for record in report.records:
            for name, matrix in record.parameters.items():
                matrix = np.atleast_2d(matrix)
                for r in range(matrix.shape[0]):
                    for c in range(matrix.shape[1]):
                        table.append([algorithm, record.epoch, name, r, c, matrix[r, c]])
    write_csv(path, ["algorithm", "epoch", "block", "row", "col", "value"], table, meta)


def write_plot_script(path, results_csv: str, x_column: str, y_columns: tuple[str, ...],
                      title: str) -> None:
    """Small gnuplot script over a results CSV, one curve per algorithm."""
    lines = [
        "set datafile separator ','",
        "set key below",
        f"set title '{title}'",
        f"set xlabel '{x_column}'",
        "set ylabel 'log-likelihood'",
    ]
    plot_parts = []
    for y in y_columns:
        for algorithm in (*ALGORITHMS, "ref"):
            plot_parts.append(
                f"'{results_csv}' using '{x_column}':(strcol('algorithm') eq '{algorithm}' "
                f"? column('{y}') : NaN) with linespoints title '{algorithm} {y}'"
            )
    lines.append("plot \\\n  " + ", \\\n  ".join(plot_parts))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
