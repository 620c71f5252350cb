"""Outside-in tracing of the normalgraph layers.

The package modules call each other's public functions by name (for
example ``learning`` calls ``normalize`` and ``Propagator.run``).  The
tracer swaps every such name, in every ``normalgraph`` module that holds
it, for a wrapper that records a span, and swaps the originals back when
it is removed.  Nothing under ``src/`` changes.

A span is ``[name, start_ns, end_ns, parent, op, counts]``: ``parent`` is
the index of the enclosing span (-1 for a root), ``op`` the index of the
root span it belongs to, and ``counts`` the work counted at that boundary
(rows, bytes) or None.  Spans stay in memory until ``write`` is called.
A span's self time is its duration minus the durations of its direct
children; the layer of a span is the part of its name before the first dot.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


def _run_counts(args, out):
    arrays = list(out.forward.values()) + list(out.backward.values())
    return {"rows": out.n_samples, "bytes": sum(a.nbytes for a in arrays)}


def _dataset_counts(args, out):
    return {"rows": args[0].forward.shape[0]}


# (module, attribute or Class.method, span name, counter)
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("experiments", "build_deep_graph", "experiments.build_deep_graph", None),
    ("experiments", "deep_generative_parameters", "experiments.generative_parameters", None),
    ("experiments", "split_mask", "experiments.split_mask", None),
    ("experiments", "load_samples", "experiments.load_samples", None),
    ("experiments", "save_samples", "experiments.save_samples", None),
    ("experiments", "write_training_rows", "experiments.write_training_rows", None),
    ("graph", "load_graph", "graph.load_graph", None),
    ("graph", "save_graph", "graph.save_graph", None),
    ("graph", "graph_digest", "graph.graph_digest", None),
    ("graph", "ensure_valid", "graph.ensure_valid", None),
    ("graph", "GraphSpec.with_parameters", "graph.with_parameters", None),
    ("synthgen", "ancestral_sample", "synthgen.ancestral_sample", None),
    ("propagation", "Propagator.__init__", "propagation.compile", None),
    ("propagation", "Propagator.run", "propagation.run", _run_counts),
    ("propagation", "Propagator.initial_state", "propagation.initial_state", None),
    ("propagation", "aggregated_log_likelihood", "propagation.loglik", None),
    ("propagation", "posterior", "propagation.posterior", None),
    ("learning", "em_train", "learning.em_train", None),
    ("learning", "train_block", "learning.train_block", None),
    ("learning", "ml_update", "learning.update.ml", None),
    ("learning", "kl_update", "learning.update.kl", None),
    ("learning", "vit_update", "learning.update.vit", None),
    ("learning", "var_update", "learning.update.var", None),
    ("learning", "BlockDataset.__post_init__", "learning.dataset", _dataset_counts),
    ("messages", "normalize", "messages.normalize", None),
    ("messages", "hadamard_posterior", "messages.posterior", None),
    ("messages", "one_hot", "messages.one_hot", None),
    ("messages", "max_indicator", "messages.max_indicator", None),
)

LAYERS = ("bench", "cli", "experiments", "graph", "synthgen", "propagation", "learning", "messages")


class Tracer:
    """Installs the wrappers and holds the spans they record."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, counter):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1]
            span = [name, 0, 0, parent, spans[parent][4] if parent >= 0 else index, None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, out)
            return out

        return wrapper

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "normalgraph" or n.startswith("normalgraph."))]
        for module_name, attribute, name, counter in TARGETS:
            owner = importlib.import_module(f"normalgraph.{module_name}")
            if "." in attribute:
                cls_name, method = attribute.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, self._wrap(original, name, counter))
                continue
            original = getattr(owner, attribute)
            wrapper = self._wrap(original, name, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def root(self, name: str, fn):
        """Run ``fn`` inside a root span recorded by the benchmark itself."""
        return self._wrap(fn, name, None)()

    def summary(self) -> dict:
        """Per span name: calls, total and self ns, summed counts; per layer: self ns."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        names: dict[str, dict] = {}
        layers = dict.fromkeys(LAYERS, 0)
        for index, (name, start, end, _, _, counts) in enumerate(self.spans):
            entry = names.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0, "counts": {}})
            self_ns = end - start - child_ns[index]
            entry["calls"] += 1
            entry["total_ns"] += end - start
            entry["self_ns"] += self_ns
            for key, value in (counts or {}).items():
                entry["counts"][key] = entry["counts"].get(key, 0) + value
            layers[name.split(".", 1)[0]] += self_ns
        return {"names": names, "layer_self_ns": layers}

    def write(self, path, header: dict) -> None:
        """Write the header and then one JSON line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for index, (name, start, end, parent, op, counts) in enumerate(self.spans):
                record = {"id": index, "name": name, "start_ns": start, "end_ns": end,
                          "parent": parent, "op": op}
                if counts:
                    record["counts"] = counts
                fh.write(json.dumps(record) + "\n")
