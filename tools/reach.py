#!/usr/bin/env python3
"""List the library functions that the command line, the demos and the benchmark never enter.

    python3 tools/reach.py

In this one process, inside a temporary directory, it runs:

* every ``normalgraph`` subcommand through ``cli.main`` (``COMMANDS``), at
  small sizes, with each option of ``train`` and ``eval`` that writes or
  stops something;
* each ``demos/*.py`` script, through ``runpy``;
* one round of each ``bench/workloads.py`` workload: its set-up, then
  every operation's call and check.

Meanwhile ``sys.settrace`` notes each function that starts in a file of
the ``normalgraph`` package; nothing else is traced.  It then prints every
function and method the package defines (as ``module.Qualname``) that none
of these runs entered, each with its reason from ``STAYS``.  It exits 0
when the unreached names are exactly those of ``STAYS``, and 1 when an
unreached name has no ``STAYS`` entry or a ``STAYS`` entry was reached or
no longer exists.  A run that fails stops it with exit status 2.  Nothing
is written outside the temporary directory, no bytecode cache included.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import os
import pkgutil
import runpy
import sys
import tempfile
import traceback
import types
from pathlib import Path

sys.dont_write_bytecode = True
REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "bench")]

import normalgraph  # noqa: E402
from normalgraph import cli  # noqa: E402
from normalgraph.experiments import build_latent_star  # noqa: E402
from normalgraph.graph import save_graph  # noqa: E402

PACKAGE = Path(normalgraph.__file__).parent

# The library functions no run reaches, each with the reason it stays.
STAYS = {
    "messages.hadamard_posterior": "public and in the README; bench/tracing.py wraps it, so its "
                                   "tracer does not install without it (ROADMAP item 8)",
    "messages.max_indicator": "public and in the README; bench/tracing.py wraps it, so its "
                              "tracer does not install without it (ROADMAP item 8)",
    "propagation.Propagator.initial_state": "public and in the README: a random message "
                                            "state, from which training no longer starts; "
                                            "bench/tracing.py wraps it (ROADMAP item 8)",
    "learning.generalized_divergence": "the paper's KL objective, which kl_update descends; "
                                       "acceptance criterion 4 and the tests read it",
    "learning.kkt_multipliers": "the KKT multipliers of the block likelihood; acceptance "
                                "criterion 4 and the tests read them",
    "graph.GraphSpec.source": "public lookup paired with GraphSpec.block, which the demos call",
}

# Subcommands, run in order in the temporary directory; the star graphs are
# saved there first.
COMMANDS = (
    ["generate", "--graph", "star_gen.json", "--n", "60", "--seed", "2", "--out", "data.csv"],
    ["train", "--graph", "star_learner.json", "--data", "data.csv", "--epochs", "3",
     "--split", "0.8", "--tol", "1e-9", "--dump-coefficients", "--emit-plot",
     "--out", "train.csv"],
    ["train", "--graph", "star_learner.json", "--data", "data.csv", "--algo", "vit",
     "--epochs", "2", "--out", "train_vit.csv"],
    ["eval", "--graph", "train.ml.learned.json", "--data", "data.csv", "--split", "0.8",
     "--out", "eval.csv"],
    ["experiment", "single-block", "--n", "40", "--iterations", "3", "--emit-plot",
     "--out", "single"],
    ["experiment", "tree", "--n", "40", "--epochs", "2", "--ms-override", "3", "--out", "tree"],
    ["experiment", "deep", "--n", "40", "--epochs", "2", "--split", "0.8", "--out", "deep"],
    ["experiment", "nit-sweep", "--n", "20", "--epochs", "2", "--out", "sweep"],
)


def library_functions() -> dict[types.CodeType, str]:
    """Every function and method defined in a module of the package, by its
    code object: module-level functions, and the functions, static and class
    methods and property accessors of the classes defined there."""
    names = {}
    for info in pkgutil.iter_modules([str(PACKAGE)]):
        module = importlib.import_module(f"normalgraph.{info.name}")
        for value in vars(module).values():
            if inspect.isclass(value) and value.__module__ == module.__name__:
                members = vars(value).values()
            else:
                members = [value]
            for member in members:
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                accessors = ((member.fget, member.fset, member.fdel)
                             if isinstance(member, property) else (member,))
                for fn in accessors:
                    if (isinstance(fn, types.FunctionType)
                            and fn.__code__.co_filename == module.__file__):
                        names[fn.__code__] = f"{info.name}.{fn.__qualname__}"
    return names


def drive_cli(work: Path) -> None:
    save_graph(build_latent_star(generative=True), work / "star_gen.json")
    save_graph(build_latent_star(), work / "star_learner.json")
    for argv in COMMANDS:
        if cli.main(argv) != 0:
            raise RuntimeError(f"normalgraph {' '.join(argv)} exited nonzero")


def drive_demos() -> None:
    for script in sorted((REPO / "demos").glob("*.py")):
        runpy.run_path(str(script), run_name="__main__")


def drive_bench(work: Path, seed: int = 1) -> None:
    import workloads

    for name, cls in workloads.WORKLOADS.items():
        workdir = work / name
        workdir.mkdir()
        workload = cls(seed, workdir)
        workload.setup()
        for op in workload.ops(0):
            problem = op.check(op.call())
            if problem is not None:
                raise RuntimeError(f"{name}: {problem}")


def trace(work: Path) -> set[types.CodeType]:
    """The code objects of the package that started running while the CLI,
    the demos and the benchmark ran in ``work``."""
    entered = set()
    prefix = str(PACKAGE) + os.sep

    def note(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            entered.add(frame.f_code)

    with contextlib.redirect_stdout(io.StringIO()):
        sys.settrace(note)
        try:
            drive_cli(work)
            drive_demos()
            drive_bench(work)
        finally:
            sys.settrace(None)
    return entered


def main() -> int:
    names = library_functions()
    start = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        os.chdir(tmp)
        try:
            entered = trace(Path(tmp))
        except Exception:  # a run that failed entered too little to judge by
            traceback.print_exc()
            return 2
        finally:
            os.chdir(start)
    unreached = sorted(name for code, name in names.items() if code not in entered)
    known = set(names.values())
    problems = [f"{name}: unreached and not in STAYS" for name in unreached if name not in STAYS]
    problems += [f"{name}: in STAYS but {'reached' if name in known else 'no longer defined'}"
                 for name in STAYS if name not in unreached]
    print(f"{len(names)} library functions, {len(unreached)} unreached:")
    for name in unreached:
        print(f"  {name}: {STAYS.get(name, 'NO REASON GIVEN')}")
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
