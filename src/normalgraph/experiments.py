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
    ensure_valid,
    graph_digest,
)
from .learning import (
    ALGORITHMS,
    TrainConfig,
    TrainReport,
    block_log_likelihood,
    kl_update,
    ml_update,
    em_train,
    var_update,
    vit_update,
)
from .propagation import ContradictoryEvidence
from .synthgen import SampleSet, ancestral_sample, random_message_pairs, random_row_stochastic, substream

__all__ = [
    "TREE_PRIOR",
    "TREE_LEAF_CONDITIONALS",
    "build_latent_star",
    "build_deep_graph",
    "deep_generative_parameters",
    "SingleBlockConfig",
    "run_single_block",
    "GraphExperimentConfig",
    "train_rules",
    "run_tree_experiment",
    "run_deep_experiment",
    "run_nit_sweep",
    "split_mask",
    "save_samples",
    "load_samples",
    "write_csv",
    "write_block_rows",
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
    graph = GraphSpec(
        variables=tuple(variables),
        sources=(SourceBlock("prior_S", "S0", prior),),
        blocks=tuple(
            SisoBlock(f"P_X{i}", f"S{i}", f"X{i}", mats[i - 1])
            for i in (1, 2, 3)
        ),
        diverters=(DiverterNode(inbound=("S0",), taps=("S1", "S2", "S3")),),
    )
    return ensure_valid(graph)


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
    return ensure_valid(GraphSpec(variables, sources, blocks, diverters))


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
    mask = np.zeros(n_samples, dtype=np.float64)
    mask[: int(round(split * n_samples))] = 1.0
    return mask


# ---------------------------------------------------------------------------
# Single-block study


@dataclass
class SingleBlockConfig:
    m_in: int = 4
    m_out: int = 3
    n_samples: int = 400
    sharp_in: float = 1.0
    sharp_out: float = 1.0
    iterations: int = 100
    delta: float = 1e-6
    seed: int = 1


def run_single_block(cfg: SingleBlockConfig) -> list[tuple[str, int, float]]:
    """Train one block four ways on shared random message pairs.

    Returns (algorithm, iteration, loglik) rows: full trajectories for the
    iterative rules, a single row for the batch rules, and a random
    reference matrix labelled ``ref``.
    """
    data = random_message_pairs(
        cfg.m_in, cfg.m_out, cfg.n_samples, cfg.sharp_in, cfg.sharp_out, cfg.seed
    )
    rows: list[tuple[str, int, float]] = []
    uniform = np.full((cfg.m_in, cfg.m_out), 1.0 / cfg.m_out)

    for algorithm, update in (("ml", ml_update), ("kl", kl_update)):
        theta = uniform
        for it in range(1, cfg.iterations + 1):
            theta = update(theta, data)
            rows.append((algorithm, it, block_log_likelihood(theta, data)))
    rows.append(("vit", 1, block_log_likelihood(vit_update(data, cfg.delta), data)))
    rows.append(("var", 1, block_log_likelihood(var_update(data, cfg.delta), data)))
    reference = random_row_stochastic(
        cfg.m_in, cfg.m_out, rng=substream(cfg.seed, "reference", cfg.m_in, cfg.m_out)
    )
    rows.append(("ref", 1, block_log_likelihood(reference, data)))
    return rows


# ---------------------------------------------------------------------------
# Graph studies


@dataclass
class GraphExperimentConfig:
    n_samples: int = 400
    m_latent: int = 4
    epochs: int = 60
    nit: int = 3
    delta: float = 1e-6
    split: float = 1.0
    seed: int = 1
    tol: float | None = None
    algorithms: tuple[str, ...] = ALGORITHMS
    record_coefficients: bool = False


def train_rules(graph: GraphSpec, evidence, cfg: GraphExperimentConfig,
                mask: np.ndarray) -> dict[str, TrainReport]:
    """em_train once per rule in ``cfg.algorithms``, with shared settings."""
    reports: dict[str, TrainReport] = {}
    for algorithm in cfg.algorithms:
        train_cfg = TrainConfig(
            algorithm=algorithm,
            epochs=cfg.epochs,
            nit=cfg.nit,
            delta=cfg.delta,
            seed=cfg.seed,
            tol=cfg.tol,
            record_coefficients=cfg.record_coefficients,
        )
        try:
            reports[algorithm] = em_train(graph, evidence, train_cfg, mask)
        except ContradictoryEvidence as error:
            raise ContradictoryEvidence(
                f"{error} (the {algorithm} rule can assign zero probability to "
                f"symbols absent from the training split; use vit or var, or "
                f"train on the full data)"
            ) from None
    return reports


def run_tree_experiment(cfg: GraphExperimentConfig) -> dict[str, TrainReport]:
    """Latent-star study: sample the reference model, learn from scratch.

    ``cfg.m_latent`` sets the latent alphabet of the learned graph (the
    generative one always has four states); ``cfg.split`` < 1 holds out the
    trailing samples as a test set.
    """
    generative = build_latent_star(generative=True)
    data = ancestral_sample(generative, cfg.n_samples, seed=cfg.seed)
    evidence = data.terminal_evidence(("X1", "X2", "X3"))
    mask = split_mask(cfg.n_samples, cfg.split)
    learner = build_latent_star(m_latent=cfg.m_latent)
    return train_rules(learner, evidence, cfg, mask)


def run_deep_experiment(cfg: GraphExperimentConfig) -> dict[str, TrainReport]:
    """Deep-graph study: random ground truth, learned from 100 samples."""
    structure = build_deep_graph()
    generative = structure.with_parameters(deep_generative_parameters(cfg.seed))
    data = ancestral_sample(generative, cfg.n_samples, seed=cfg.seed)
    evidence = data.terminal_evidence(("X1", "X2", "X3"))
    mask = split_mask(cfg.n_samples, cfg.split)
    return train_rules(structure, evidence, cfg, mask)


def run_nit_sweep(cfg: GraphExperimentConfig, nits=(1, 3, 5, 10, 20),
                  repetitions: int = 10) -> list[tuple[int, int, str, float]]:
    """Final likelihood as a function of the per-epoch update count.

    The dataset is fixed by ``cfg.seed``; each repetition reruns training
    from a different random message initialization.  Returns rows of
    (nit, repetition, algorithm, final_train_loglik).
    """
    generative = build_latent_star(generative=True)
    data = ancestral_sample(generative, cfg.n_samples, seed=cfg.seed)
    evidence = data.terminal_evidence(("X1", "X2", "X3"))
    mask = split_mask(cfg.n_samples, cfg.split)
    learner = build_latent_star(m_latent=cfg.m_latent)
    rows: list[tuple[int, int, str, float]] = []
    for nit in nits:
        for rep in range(1, repetitions + 1):
            sweep_cfg = replace(cfg, nit=nit, seed=cfg.seed * 1000 + rep)
            for algorithm, report in train_rules(learner, evidence, sweep_cfg, mask).items():
                rows.append((nit, rep, algorithm, report.final_train_loglik))
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
    table = []
    for row in np.stack([samples.columns[v] for v in names], axis=1):
        table.append([int(x) + 1 for x in row])
    write_csv(path, names, table, meta)


def load_samples(path) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Read a dataset CSV back into 0-based evidence columns plus metadata."""
    meta: dict[str, str] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = []
        header: list[str] | None = None
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                if ":" in line:
                    key, _, value = line[1:].partition(":")
                    meta[key.strip()] = value.strip()
                continue
            cells = next(csv.reader([line]))
            if header is None:
                header = [c.strip() for c in cells]
                continue
            rows.append([int(c) for c in cells])
    if header is None:
        raise ValueError(f"{path}: no header row")
    duplicates = sorted({name for name in header if header.count(name) > 1})
    if duplicates:
        raise ValueError(f"{path}: duplicate columns {duplicates}")
    try:
        data = np.asarray(rows, dtype=np.int64)
    except OverflowError as exc:
        raise ValueError(f"{path}: symbol index out of range ({exc})") from exc
    if not rows:
        data = data.reshape(0, len(header))
    if data.ndim != 2 or data.shape[1] != len(header):
        raise ValueError(f"{path}: ragged rows")
    if np.any(data < 1):
        raise ValueError(f"{path}: symbol indices are 1-based")
    columns = {name: data[:, i] - 1 for i, name in enumerate(header)}
    return columns, meta


def write_csv(path, header, rows, meta: dict | None = None) -> None:
    """Results CSV: ``# key: value`` provenance lines, the header, the rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for key, value in (meta or {}).items():
            fh.write(f"# {key}: {value}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_block_rows(rows, path, meta: dict | None = None) -> None:
    """Single-block results CSV: (algorithm, iteration, loglik)."""
    table = []
    for algorithm, iteration, loglik in rows:
        table.append([algorithm, iteration, format_float(loglik)])
    write_csv(path, ["algorithm", "iteration", "loglik"], table, meta)


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
            row = [algorithm, record.epoch, format_float(record.train_loglik)]
            if include_test:
                row.append(format_float(record.test_loglik))
            row.append(format_float(record.wall_ms))
            table.append(row)
    write_csv(path, header, table, meta)


def write_coefficient_rows(reports: dict[str, TrainReport], path,
                           meta: dict | None = None) -> None:
    """Coefficient dump CSV: (algorithm, epoch, block, row, col, value)."""
    table = []
    for algorithm, report in reports.items():
        if not report.snapshots:
            continue
        for epoch in sorted(report.snapshots):
            for name, matrix in report.snapshots[epoch].items():
                matrix = np.atleast_2d(matrix)
                for r in range(matrix.shape[0]):
                    for c in range(matrix.shape[1]):
                        table.append([algorithm, epoch, name, r, c, format_float(matrix[r, c])])
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
