"""Independent reference computations for the test suite.

Everything here recomputes quantities by brute force and stays away from
the library's message-passing and learning code paths: posteriors come
from explicit joint-table enumeration, learned tables from direct pair
counting.  Agreement between these oracles and the library is what the
exactness tests assert.
"""

from __future__ import annotations

import itertools

import numpy as np

from normalgraph.graph import DiverterNode, GraphSpec, SisoBlock, SourceBlock


def cooccurrence_table(x, y, m_in: int, m_out: int) -> np.ndarray:
    """Row-normalized count table of observed (x, y) symbol pairs."""
    counts = np.zeros((m_in, m_out))
    for l, m in zip(x, y):
        counts[int(l), int(m)] += 1.0
    sums = counts.sum(axis=1, keepdims=True)
    if np.any(sums == 0.0):
        raise ValueError("empty rows make the count table ambiguous")
    return counts / sums


def random_bayes_tree(rng: np.random.Generator, max_nodes: int = 6, max_size: int = 4):
    """Random tree-shaped Bayes net and its normal-form translation.

    Returns (tree, graph, readout).  ``tree`` keeps the raw tables so the
    brute-force functions below never touch the GraphSpec; ``readout[v]``
    names the terminal edge of the graph that carries node v's posterior
    and accepts its evidence.  Internal nodes get a dedicated observation
    tap off their equality node, leaves are terminals on their own.
    """
    n_nodes = int(rng.integers(2, max_nodes + 1))
    sizes = [int(rng.integers(2, max_size + 1)) for _ in range(n_nodes)]
    parent = [-1] + [int(rng.integers(0, v)) for v in range(1, n_nodes)]

    def stochastic(shape):
        draws = rng.uniform(0.1, 1.0, size=shape)
        return draws / draws.sum(axis=-1, keepdims=True)

    tables = [stochastic(sizes[0])]
    tables += [stochastic((sizes[parent[v]], sizes[v])) for v in range(1, n_nodes)]
    children = {v: [c for c in range(1, n_nodes) if parent[c] == v] for v in range(n_nodes)}

    variables = [(f"V{v}", sizes[v]) for v in range(n_nodes)]
    diverters = []
    feed = {}
    readout = {}
    for v in range(n_nodes):
        if children[v]:
            taps = [f"V{v}to{c}" for c in children[v]] + [f"V{v}obs"]
            variables += [(name, sizes[v]) for name in taps]
            diverters.append(DiverterNode(inbound=(f"V{v}",), taps=tuple(taps)))
            for c in children[v]:
                feed[c] = f"V{v}to{c}"
            readout[v] = f"V{v}obs"
        else:
            readout[v] = f"V{v}"
    sources = (SourceBlock("prior_V0", "V0", tables[0]),)
    blocks = tuple(
        SisoBlock(f"cpt_V{v}", feed[v], f"V{v}", tables[v]) for v in range(1, n_nodes)
    )
    graph = GraphSpec(tuple(variables), sources, blocks, tuple(diverters))
    tree = {"sizes": sizes, "parent": parent, "tables": tables}
    return tree, graph, readout


def tree_posteriors(tree, evidence: dict[int, int]) -> list[np.ndarray]:
    """Conditional marginal of every node by joint-table enumeration."""
    sizes, parent, tables = tree["sizes"], tree["parent"], tree["tables"]
    n_nodes = len(sizes)
    marginals = [np.zeros(s) for s in sizes]
    for config in itertools.product(*(range(s) for s in sizes)):
        if any(config[v] != k for v, k in evidence.items()):
            continue
        weight = tables[0][config[0]]
        for v in range(1, n_nodes):
            weight *= tables[v][config[parent[v]], config[v]]
        for v, symbol in enumerate(config):
            marginals[v][symbol] += weight
    return [m / m.sum() for m in marginals]


def class_posteriors(graph: GraphSpec, evidence: dict[str, int]) -> dict[str, np.ndarray]:
    """Posterior of every variable by equivalence-class enumeration.

    Each diverter forces all its edges to one common value, so the joint
    support factorizes over equivalence classes of variables.  An
    assignment's weight is the product of the source and block entries it
    selects; the result is exact for any cycle-free graph, including the
    product-space joins, whose constant expander scale cancels in the
    normalization.
    """
    parent = {name: name for name, _ in graph.variables}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for div in graph.diverters:
        root = find(div.edges[0])
        for edge in div.edges[1:]:
            parent[find(edge)] = root

    sizes = graph.sizes
    classes = sorted({find(name) for name, _ in graph.variables})
    slot = {c: i for i, c in enumerate(classes)}

    def cls(var: str) -> int:
        return slot[find(var)]

    posteriors = {name: np.zeros(sizes[name]) for name, _ in graph.variables}
    for config in itertools.product(*(range(sizes[c]) for c in classes)):
        if any(config[cls(var)] != symbol for var, symbol in evidence.items()):
            continue
        weight = 1.0
        for src in graph.sources:
            weight *= src.prior[config[cls(src.variable)]]
        for blk in graph.blocks:
            weight *= blk.theta[config[cls(blk.from_var)], config[cls(blk.to_var)]]
        if weight == 0.0:
            continue
        for name, _ in graph.variables:
            posteriors[name][config[cls(name)]] += weight
    return {name: p / p.sum() for name, p in posteriors.items()}


def deep_terminal_joint(params: dict[str, np.ndarray]) -> np.ndarray:
    """P(X1, X2, X3) of the deep study graph by enumerating its 5 184 states.

    ``params`` holds the three priors and five conditionals by block name.
    The sum runs over S1, S2, S3, Y1, Y2 and the three terminals; the
    product-space symbols are the row-major pair codes PS12 = 2 S1 + S2 and
    PS23 = 3 Y2 + S3, so the fixed expander blocks never enter it.
    """
    joint = np.zeros((3, 2, 3))
    for s1, s2, s3, y1, y2 in itertools.product(range(4), range(2), range(3), range(3), range(4)):
        weight = (params["prior_S1"][s1] * params["prior_S2"][s2] * params["prior_S3"][s3]
                  * params["P_Y1"][2 * s1 + s2, y1] * params["P_Y2"][y1, y2])
        x1 = params["P_X1"][s1]
        x2 = params["P_X2"][y1]
        x3 = params["P_X3"][3 * y2 + s3]
        joint += weight * x1[:, None, None] * x2[None, :, None] * x3[None, None, :]
    return joint
