"""Synthetic data generation.

Ancestral sampling walks a generative graph from its sources toward the
terminals, drawing each variable from the row of its producing block.
Replicas joined by equality nodes, directly or through a chain of them,
share one draw from the normalized product of their producing rows,
which for product-space joins built from expander blocks is exactly the
deterministic tuple combination.  Draws read per-state tables (a prior, a
block matrix, the product rows of the input combinations that occur)
through each sample's row index, so memory is O(N) plus those
combinations.

Every draw site gets its own deterministic random substream keyed by the
controlling seed and the site's name, so adding an unrelated block to a
graph does not perturb the draws of existing variables.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .graph import DiverterNode, GraphSpec, GraphError, SourceBlock, _ends
from .messages import _require_count, normalize
from .propagation import Propagator, _merge_keys

__all__ = [
    "SampleSet",
    "ancestral_sample",
    "random_row_stochastic",
    "substream",
]


def substream(seed: int, *labels) -> np.random.Generator:
    """Deterministic generator for (seed, labels), independent across labels."""
    _require_count("seed", seed)
    tag = hashlib.sha256("\x1f".join(str(x) for x in labels).encode("utf-8")).digest()
    entropy = (int(seed),) + tuple(int.from_bytes(tag[i : i + 8], "big") for i in range(0, 32, 8))
    return np.random.default_rng(np.random.SeedSequence(entropy))


@dataclass(frozen=True)
class SampleSet:
    """Drawn symbol indices per variable, plus the seed that produced them."""

    columns: dict[str, np.ndarray]
    n_samples: int
    seed: int

    def __getitem__(self, variable: str) -> np.ndarray:
        return self.columns[variable]

    def terminal_evidence(self, terminals) -> dict[str, np.ndarray]:
        return {v: self.columns[v] for v in terminals}


def _draw(table: np.ndarray, index: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw per sample from its distribution ``table[index[n]]``:
    the count of CDF entries below its uniform, the last entry read as 1."""
    drawn = np.zeros(len(uniforms), dtype=np.int64)
    for column in np.cumsum(table, axis=1).T[:-1]:
        drawn += uniforms > column[index]
    return drawn


def _equality_clusters(graph: GraphSpec) -> dict[str, tuple[DiverterNode, ...]]:
    """For every diverter edge, the diverters chained to it through shared
    edges, in graph order.  All edges of such a cluster carry one symbol."""
    groups: dict[str, set[int]] = {}
    for i, div in enumerate(graph.diverters):
        members = {i}.union(*(groups.get(v, ()) for v in div.edges))
        for j in members:
            for v in graph.diverters[j].edges:
                groups[v] = members
    return {v: tuple(graph.diverters[j] for j in sorted(m)) for v, m in groups.items()}


def ancestral_sample(graph: GraphSpec, n_samples: int, seed: int = 1,
                     keep_all: bool = False) -> SampleSet:
    """Draw ``n_samples`` joint outcomes from a fully driven graph.

    Every variable must be reachable from the sources (no open tails).
    Variables are drawn in ``Propagator.forward_order``.  Diverters chained
    through an edge form one equality cluster, drawn once, when its first
    tap that leaves the cluster comes up, from the product of the rows
    producing the cluster's other inbound edges; every edge of the cluster
    takes that draw.  The draw site is named after the cluster's first
    diverter whose inbound edges all come from blocks or sources, so
    splitting an inbound edge of a join keeps the unsplit graph's draws.
    Returns the terminal columns, or every variable's column with
    ``keep_all`` for diagnostics.  Each draw reads a per-state table
    through the samples' row indexes; a cluster's table holds the product
    rows of the inbound combinations that occur, multiplied in inbound
    order, so memory is O(N) plus those combinations.
    """
    _require_count("n_samples", n_samples)
    order = Propagator(graph).forward_order
    tails, heads = _ends(graph)
    sizes = graph.sizes
    open_tails = [v for v in sizes if v not in tails]
    if open_tails:
        raise GraphError(f"cannot sample: open input variables {open_tails}")
    clusters = _equality_clusters(graph)

    symbols: dict[str, np.ndarray] = {}

    def producing_rows(variable: str) -> tuple[np.ndarray, np.ndarray]:
        """A variable's distribution table, and each sample's row in it
        given its tail's sampled input."""
        node = tails[variable]
        if isinstance(node, SourceBlock):
            return node.prior[None], np.zeros(n_samples, dtype=np.intp)
        return np.asarray(node.theta), symbols[node.from_var]

    for variable in order:
        if variable in symbols or isinstance(heads.get(variable), DiverterNode):
            # A replica entering a diverter is left to its cluster's draw.
            continue
        if isinstance(tails[variable], DiverterNode):
            cluster = clusters[variable]
            inbound = [v for div in cluster for v in div.inbound
                       if not isinstance(tails[v], DiverterNode)]
            root = next(div for div in cluster if set(div.inbound) <= set(inbound))
            joint, rows = producing_rows(inbound[0])
            for v in inbound[1:]:  # merging as it goes keeps every key below N * size
                table, index = producing_rows(v)
                pairs, rows = _merge_keys(rows * len(table) + index, len(joint) * len(table))
                joint = joint[pairs // len(table)] * table[pairs % len(table)]
            u = substream(seed, "draw", root.name).uniform(size=n_samples)
            common = _draw(normalize(joint), rows, u)
            for div in cluster:
                for v in div.edges:
                    symbols[v] = common
        else:
            u = substream(seed, "draw", variable).uniform(size=n_samples)
            symbols[variable] = _draw(*producing_rows(variable), u)

    keep = set(sizes) if keep_all else set(graph.terminals())
    columns = {v: symbols[v] for v in sizes if v in keep}
    return SampleSet(columns=columns, n_samples=n_samples, seed=seed)


def random_row_stochastic(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Random matrix of independent uniform draws from ``rng``, rows normalized."""
    return normalize(rng.uniform(size=(rows, cols)))
