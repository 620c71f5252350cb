"""Command-line front end.

Four subcommands cover the full loop:

* ``generate`` draws ancestral samples from a graph file into a dataset CSV;
* ``train`` fits a graph's trainable blocks to a dataset and writes the
  likelihood trajectory, learned graphs, and optional extras;
* ``eval`` scores a dataset under a graph without touching its parameters;
* ``experiment`` runs one of the built-in studies end to end.

Every handled error exits nonzero with a single categorized line on stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .graph import GraphError, graph_digest, load_graph, save_graph
from .learning import ALGORITHMS, TrainConfig
from .propagation import ContradictoryEvidence, Propagator, aggregated_log_likelihood
from .synthgen import ancestral_sample
from . import experiments as exp

__all__ = ["main", "build_parser"]


def _algorithms(value: str) -> tuple[str, ...]:
    if value == "all":
        return ALGORITHMS
    if value in ALGORITHMS:
        return (value,)
    raise argparse.ArgumentTypeError(f"unknown algorithm {value!r}")


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--algo", type=_algorithms, default=None, metavar="NAME",
                        help="ml, kl, vit, var, or all")
    parser.add_argument("--epochs", type=int, default=None)
    parser.add_argument("--nit", type=int, default=TrainConfig.nit,
                        help="per-epoch update count for the iterative rules")
    parser.add_argument("--delta", type=float, default=TrainConfig.delta,
                        help="pseudocount floor for the batch rules")
    parser.add_argument("--split", type=float, default=1.0,
                        help="leading fraction of samples used for training")
    parser.add_argument("--tol", type=float, default=None,
                        help="stop early once the train loglik moves less than this")
    parser.add_argument("--seed", type=int, default=TrainConfig.seed)
    parser.add_argument("--dump-coefficients", action="store_true",
                        help="also write every epoch's parameters")
    parser.add_argument("--emit-plot", action="store_true",
                        help="also write a gnuplot script next to the results")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normalgraph",
        description="Belief propagation and local parameter learning on "
                    "discrete normal-form factor graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="sample a dataset from a graph")
    p_gen.add_argument("--graph", required=True)
    p_gen.add_argument("--n", type=int, default=400, help="number of samples")
    p_gen.add_argument("--seed", type=int, default=1)
    p_gen.add_argument("--out", required=True, help="dataset CSV path")
    p_gen.set_defaults(func=cmd_generate)

    p_train = sub.add_parser("train", help="fit a graph's trainable blocks to a dataset")
    p_train.add_argument("--graph", required=True)
    p_train.add_argument("--data", required=True, help="dataset CSV path")
    p_train.add_argument("--out", required=True, help="results CSV path")
    _add_train_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="score a dataset under a graph as-is")
    p_eval.add_argument("--graph", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--split", type=float, default=1.0)
    p_eval.add_argument("--out", default=None, help="optional one-row CSV")
    p_eval.set_defaults(func=cmd_eval)

    p_exp = sub.add_parser("experiment", help="run a built-in study")
    p_exp.add_argument("name", choices=["single-block", "tree", "deep", "nit-sweep"])
    p_exp.add_argument("--out", required=True, help="output directory")
    p_exp.add_argument("--n", type=int, default=None, help="sample count override")
    p_exp.add_argument("--ms-override", type=int, default=None, metavar="M",
                       help="latent alphabet size for the learned star")
    p_exp.add_argument("--iterations", type=int, default=100,
                       help="single-block update count")
    p_exp.add_argument("--sharp-in", type=float, default=1.0,
                       help="single-block input sharpening exponent")
    p_exp.add_argument("--sharp-out", type=float, default=1.0,
                       help="single-block output sharpening exponent")
    _add_train_flags(p_exp)
    p_exp.set_defaults(func=cmd_experiment)

    return parser


def _load_evidence(graph, data_path, split: float):
    """Dataset columns checked against the graph, and the train-split mask."""
    columns, _ = exp.load_samples(data_path)
    terminals = set(graph.terminals())
    unknown = sorted(set(columns) - terminals)
    if unknown:
        raise ValueError(
            f"{data_path}: columns {unknown} are not terminals of the graph "
            f"(terminals: {sorted(terminals)})"
        )
    sizes = graph.sizes
    for name, values in columns.items():
        if values.size and int(values.max()) >= sizes[name]:
            raise ValueError(
                f"{data_path}: column {name} holds symbol {int(values.max()) + 1} "
                f"but the variable has {sizes[name]} states"
            )
    n = len(next(iter(columns.values())))
    return columns, exp.split_mask(n, split)


def cmd_generate(args) -> int:
    graph = load_graph(args.graph)
    samples = ancestral_sample(graph, args.n, seed=args.seed)
    exp.save_samples(samples, args.out, graph=graph)
    print(f"wrote {args.n} samples of {','.join(samples.columns)} to {args.out}")
    return 0


def cmd_train(args) -> int:
    graph = load_graph(args.graph)
    evidence, mask = _load_evidence(graph, args.data, args.split)
    reports = exp.train_rules(graph, evidence, _train_config(args), mask, args.algo or ALGORITHMS)
    meta = {"seed": args.seed, "graph": graph_digest(graph), "split": args.split}
    _write_reports(args, reports, Path(args.out), meta, "training trajectory")
    return 0


def _write_reports(args, reports, results: Path, meta: dict, title: str) -> None:
    """Write the results of ``train`` and ``experiment tree|deep``.

    Next to the results CSV go ``{stem}.{algo}.learned.json`` per rule,
    plus the coefficient dump and the gnuplot script when asked for; each
    rule's final train log-likelihood is then printed.
    """
    stem = results.parent / results.stem
    include_test = args.split < 1.0
    exp.write_training_rows(reports, results, include_test=include_test, meta=meta)
    for algorithm, report in reports.items():
        save_graph(report.graph, f"{stem}.{algorithm}.learned.json")
    if args.dump_coefficients:
        exp.write_coefficient_rows(reports, f"{stem}.coefficients.csv", meta=meta)
    if args.emit_plot:
        y_columns = ("train_loglik", "test_loglik") if include_test else ("train_loglik",)
        exp.write_plot_script(f"{stem}.gp", results.name, "epoch", y_columns, title=title)
    for algorithm, report in reports.items():
        print(f"{algorithm}: final train loglik {report.final_train_loglik:.6f}")


def cmd_eval(args) -> int:
    graph = load_graph(args.graph)
    evidence, mask = _load_evidence(graph, args.data, args.split)
    state = Propagator(graph).run(evidence, n_samples=len(mask))
    terminals = tuple(evidence)
    header = ["train_loglik"]
    values = [exp.format_float(aggregated_log_likelihood(state, terminals, mask > 0))]
    if args.split < 1.0:
        header.append("test_loglik")
        values.append(exp.format_float(aggregated_log_likelihood(state, terminals, mask <= 0)))
    print(" ".join(f"{name}={value}" for name, value in zip(header, values)))
    if args.out:
        exp.write_csv(args.out, header, [values])
    return 0


def _train_config(args, epochs_default: int = TrainConfig.epochs) -> TrainConfig:
    epochs = args.epochs if args.epochs is not None else epochs_default
    return TrainConfig(epochs=epochs, nit=args.nit, delta=args.delta, seed=args.seed, tol=args.tol)


def cmd_experiment(args) -> int:
    out_dir = Path(args.out)
    n_samples = args.n if args.n is not None else (100 if args.name == "deep" else 400)

    if args.name == "single-block":
        cfg = exp.SingleBlockConfig(
            n_samples=n_samples,
            sharp_in=args.sharp_in,
            sharp_out=args.sharp_out,
            iterations=args.iterations,
            delta=args.delta,
            seed=args.seed,
        )
        rows = exp.run_single_block(cfg)
        out_dir.mkdir(parents=True, exist_ok=True)
        results = out_dir / "single_block.csv"
        exp.write_csv(results, ["algorithm", "iteration", "loglik"], rows, meta={"seed": cfg.seed})
        if args.emit_plot:
            exp.write_plot_script(out_dir / "single_block.gp", results.name,
                                  "iteration", ("loglik",), title="single block")
        finals = {a: ll for a, _, ll in rows}
        for algorithm in (*ALGORITHMS, "ref"):
            print(f"{algorithm}: final loglik {finals[algorithm]:.6f}")
        return 0

    train = _train_config(args, 600) if args.name == "deep" else _train_config(args)
    algorithms = args.algo or (("ml",) if args.name == "nit-sweep" else ALGORITHMS)
    study = {"n_samples": n_samples, "split": args.split, "algorithms": algorithms}
    # The deep graph has no latent star: its results record the default size.
    m_latent = 4 if args.ms_override is None or args.name == "deep" else args.ms_override
    if args.name == "nit-sweep":
        rows = exp.run_nit_sweep(train, m_latent=m_latent, **study)
        out_dir.mkdir(parents=True, exist_ok=True)
        results = out_dir / "nit_sweep.csv"
        exp.write_csv(results, ["nit", "repetition", "algorithm", "final_train_loglik"],
                      rows, meta={"seed": train.seed})
        print(f"wrote {len(rows)} sweep rows to {results}")
        return 0

    if args.name == "tree":
        reports = exp.run_tree_experiment(train, m_latent=m_latent, **study)
    else:
        reports = exp.run_deep_experiment(train, **study)
    meta = {"seed": train.seed, "split": args.split, "m_latent": m_latent}
    results = out_dir / f"{args.name}.csv"
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_reports(args, reports, results, meta, f"{args.name} training")
    return 0


# Order matters: the most specific exception types come first.
_ERROR_CATEGORIES = (
    (ContradictoryEvidence, "evidence"),
    (GraphError, "graph"),
    (OSError, "io"),
    (ValueError, "data"),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(t for t, _ in _ERROR_CATEGORIES) as error:
        category = next(c for t, c in _ERROR_CATEGORIES if isinstance(error, t))
        print(f"error: {category}: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
