"""Synthetic data generation.

Ancestral sampling walks a generative graph from its sources toward the
terminals, drawing each variable from the row of its producing block.
Replicas joined by an equality node share one draw from the normalized
product of their producing rows, which for product-space joins built from
expander blocks is exactly the deterministic tuple combination.

Every draw site gets its own deterministic random substream keyed by the
controlling seed and the site's name, so adding an unrelated block to a
graph does not perturb the draws of existing variables.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .graph import DiverterNode, GraphSpec, GraphError, SisoBlock, SourceBlock
from .learning import BlockDataset
from .messages import normalize, one_hot, sharpen
from .propagation import Propagator

__all__ = [
    "SampleSet",
    "ancestral_sample",
    "random_row_stochastic",
    "random_message_pairs",
    "substream",
]


def substream(seed: int, *labels) -> np.random.Generator:
    """Deterministic generator for (seed, labels), independent across labels."""
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


def _draw(rows: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw per sample; rows[n] is sample n's distribution."""
    cdf = np.cumsum(rows, axis=1)
    cdf[:, -1] = 1.0
    return np.sum(uniforms[:, None] > cdf, axis=1).astype(np.int64)


def ancestral_sample(graph: GraphSpec, n_samples: int, seed: int = 1,
                     keep_all: bool = False) -> SampleSet:
    """Draw ``n_samples`` joint outcomes from a fully driven graph.

    Every variable must be reachable from the sources (no open tails).
    Variables are drawn in ``Propagator.forward_order``; a diverter is
    drawn when its first tap comes up, and all its replicas take that
    draw.  Returns the terminal columns, or every variable's column with
    ``keep_all`` for diagnostics.
    """
    order = Propagator(graph).forward_order
    tails = graph.tails()
    heads = graph.heads()
    sizes = graph.sizes
    open_tails = [v for v in sizes if v not in tails]
    if open_tails:
        raise GraphError(f"cannot sample: open input variables {open_tails}")

    symbols: dict[str, np.ndarray] = {}

    def producing_rows(variable: str) -> np.ndarray:
        """Distribution rows for a variable, given its tail's sampled input."""
        node = tails[variable]
        if isinstance(node, SourceBlock):
            return np.tile(node.prior, (n_samples, 1))
        if isinstance(node, SisoBlock):
            return np.asarray(node.theta)[symbols[node.from_var]]
        # A tap of an upstream diverter, already fixed by its draw.
        return one_hot(symbols[variable], sizes[variable])

    for variable in order:
        if variable in symbols:
            continue
        node = tails[variable]
        if isinstance(node, DiverterNode):
            rows_list = [producing_rows(v) for v in node.inbound]
            joint = rows_list[0]
            for rows in rows_list[1:]:
                joint = joint * rows
            joint = normalize(joint)
            u = substream(seed, "draw", node.name).uniform(size=n_samples)
            common = _draw(joint, u)
            for v in node.edges:
                symbols[v] = common
        elif not isinstance(heads.get(variable), DiverterNode):
            # A replica entering a diverter is left to the diverter's draw.
            u = substream(seed, "draw", variable).uniform(size=n_samples)
            symbols[variable] = _draw(producing_rows(variable), u)

    keep = set(sizes) if keep_all else set(graph.terminals())
    columns = {v: symbols[v] for v in sizes if v in keep}
    return SampleSet(columns=columns, n_samples=n_samples, seed=seed)


def random_row_stochastic(rows: int, cols: int, seed: int = 1,
                          rng: np.random.Generator | None = None) -> np.ndarray:
    """Random matrix with independent uniform entries, rows normalized."""
    if rng is None:
        rng = substream(seed, "matrix", rows, cols)
    return normalize(rng.uniform(size=(rows, cols)))


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
