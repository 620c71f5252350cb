"""Independent reference computations for the test suite.

Everything here recomputes quantities by brute force and stays away from
the library's message-passing and learning code paths: posteriors come
from explicit joint-table enumeration, learned tables from direct pair
counting.  Agreement between these oracles and the library is what the
exactness tests assert.  Three exceptions are written on library pieces:
``reference_em``, the EM loop written plainly on the public per-block
pieces, against which ``em_train``'s stacked epochs are checked,
``reference_ancestral_sample``, the sampler that builds every sample's
distribution row, against whose bits ``ancestral_sample`` is checked, and
``reference_ml``, ``reference_kl`` and ``reference_var``, the kernels that
copy and weight their messages on every call, against whose bytes the
learning kernels' copy-free paths are checked.  ``reference_schedule``
orders the message slots by rescanning every remaining slot in each round;
``Propagator``'s compiled schedule is checked against it.
``reference_parameter_problem`` and ``reference_one_hot`` are the graph
parameter check and the delta-row encoder written with numpy's boolean-array
helpers, against which the direct reductions and the identity-row lookup are
checked.
"""

from __future__ import annotations

import itertools

import numpy as np

from normalgraph.graph import (STOCHASTIC_ATOL, DiverterNode, GraphSpec, SisoBlock, SourceBlock,
                               _ends)
from normalgraph.learning import (MESSAGE_FLOOR, BlockDataset, EpochRecord, TrainReport,
                                  _finish_rows, _pair_mass, _rescaled, train_block)
from normalgraph.messages import TIE_RTOL, is_normalized, normalize
from normalgraph.propagation import Propagator, aggregated_log_likelihood
from normalgraph.synthgen import SampleSet, _equality_clusters, substream


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


def tree_leaf_joint(parent: list[int], params: dict[str, np.ndarray]) -> np.ndarray:
    """Joint distribution of the leaves of a ``random_bayes_tree`` shape.

    ``params`` holds ``prior_V0`` and every ``cpt_V{v}`` by block name; one
    einsum multiplies them along the ``parent`` array and sums the internal
    nodes out.  Axis i of the result is the i-th leaf in node order.
    """
    letters = "abcdefghijklmnopqrstuvwxyz"[: len(parent)]
    leaves = "".join(letters[v] for v in range(len(parent)) if v not in parent)
    inputs = [letters[0]] + [letters[parent[v]] + letters[v] for v in range(1, len(parent))]
    tables = [params["prior_V0"]] + [params[f"cpt_V{v}"] for v in range(1, len(parent))]
    return np.einsum(",".join(inputs) + "->" + leaves, *tables)


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


def flooding(graph: GraphSpec, evidence: dict, init: dict) -> dict:
    """Jacobi flooding: sweeps in which every message is recomputed at once
    from the previous sweep's messages, until a sweep changes no bit.

    ``init`` maps ("F"|"B", variable) to a starting (n, size) message.  The
    rules are read off the GraphSpec fields: an open end takes its evidence
    (an integer symbol or a soft vector) or uniform, a source emits its
    prior, a block multiplies by theta or its transpose, and an equality
    node multiplies the messages entering on its other edges.  Every
    message but an open end's is scaled to unit sum.  Returns the settled
    messages by slot; on a cycle-free graph a message settles one sweep
    after its inputs, so more sweeps than slots mean it did not settle.
    """
    sizes = dict(graph.variables)
    n = next(iter(init.values())).shape[0]
    rules = {}
    for src in graph.sources:
        rules[("F", src.variable)] = lambda msgs, p=src.prior: np.tile(p, (n, 1))
    for blk in graph.blocks:
        rules[("F", blk.to_var)] = lambda msgs, b=blk: msgs[("F", b.from_var)] @ b.theta
        rules[("B", blk.from_var)] = lambda msgs, b=blk: msgs[("B", b.to_var)] @ b.theta.T
    for div in graph.diverters:
        entering = [("F", v) for v in div.inbound] + [("B", v) for v in div.taps]
        leaving = [("B", v) for v in div.inbound] + [("F", v) for v in div.taps]
        for out, skip in zip(leaving, entering):
            rules[out] = lambda msgs, others=[s for s in entering if s != skip]: (
                np.prod([msgs[s] for s in others], axis=0))
    open_ends = {}
    for var, size in graph.variables:
        for slot in (("F", var), ("B", var)):
            if slot not in rules:
                value = evidence.get(var)
                if value is None:
                    factor = np.full(size, 1.0 / size)
                elif np.ndim(value) == 0:
                    factor = np.eye(size)[int(value)]
                else:
                    factor = np.asarray(value, dtype=np.float64) / np.sum(value)
                open_ends[slot] = np.tile(factor, (n, 1))
    msgs = dict(init)
    for _ in range(len(rules) + len(open_ends) + 1):
        new = dict(open_ends)
        for slot, rule in rules.items():
            raw = rule(msgs)
            new[slot] = raw / raw.sum(axis=1, keepdims=True)
        if all(np.array_equal(new[s], msgs[s]) for s in new):
            return new
        msgs = new
    raise AssertionError("flooding did not settle")


# The formulas the library's message kernels had before they were rewritten
# for speed; the rewrites must agree with them bit for bit, except the
# bilinear score and vit, which must agree within a stated rounding bound.

def reference_max_indicator(values: np.ndarray, delta: float, tie_rtol: float) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    out = np.full(values.shape, delta, dtype=np.float64)
    peak = np.max(values, axis=-1, keepdims=True)
    best = np.argmax(values >= peak - tie_rtol * np.abs(peak), axis=-1)
    np.put_along_axis(out, np.expand_dims(best, axis=-1), delta + 1.0, axis=-1)
    return out


def reference_vit(f: np.ndarray, b: np.ndarray, w: np.ndarray, delta: float,
                  live: np.ndarray) -> np.ndarray:
    """vit on a zero-padded (U, n, L) / (U, n, M) stack as a matrix product:
    delta-padded argmax indicators, cut to each unit's real entries by
    ``live``, multiplied over the weighted samples; rows are then scaled to
    unit sum, an empty one becoming uniform over its unit's real entries and
    a padded one staying 0.  It rounds differently from the library's pair
    count, so it is held to a rounding bound rather than to the bits."""
    hard_f = reference_max_indicator(f, delta, TIE_RTOL) * np.swapaxes(live[..., :1], -1, -2)
    hard_b = reference_max_indicator(b, delta, TIE_RTOL) * live[..., :1, :]
    raw = np.swapaxes(w[:, None] * hard_f, -1, -2) @ hard_b
    raw = np.where(raw.sum(axis=-1, keepdims=True) > 0.0, raw, live)
    sums = raw.sum(axis=-1, keepdims=True)
    return np.divide(raw, sums, out=np.zeros_like(raw), where=sums > 0.0)


# The ml, kl and var kernels on a (U, L, M) / (U, n, L) / (U, n, M) stack as
# they read before they skipped copies: ml and kl floor copies of both
# messages, kl allocates a ratio array per step, kl and var scale f by the
# weights even when every weight is 1.0.

def reference_ml(theta, f, b, w, nit: int, live) -> np.ndarray:
    f, b = np.maximum(f, MESSAGE_FLOOR), np.maximum(b, MESSAGE_FLOOR)
    row_mass = w @ f
    for _ in range(nit):
        theta = _rescaled(theta, _pair_mass(theta, f, b, w), row_mass, live)
    return theta


def reference_kl(theta, f, b, w, nit: int, live) -> np.ndarray:
    f, b = np.maximum(f, MESSAGE_FLOOR), np.maximum(b, MESSAGE_FLOOR)
    row_mass = w @ f
    weighted = np.swapaxes(w[:, None] * f, -1, -2)
    for _ in range(nit):
        ratio = f @ theta
        np.maximum(ratio, MESSAGE_FLOOR, out=ratio)
        theta = _rescaled(theta, weighted @ np.divide(b, ratio, out=ratio), row_mass, live)
    return theta


def reference_var(theta, f, b, w, delta: float, live) -> np.ndarray:
    raw = np.swapaxes(w[:, None] * f, -1, -2) @ b + delta * live
    return _finish_rows(raw, live, live)


def reference_normalize(values: np.ndarray, sum_slack: float) -> np.ndarray:
    """Rows scaled to unit sum; rows within ``sum_slack`` of it left as they are."""
    values = np.array(values, dtype=np.float64)
    sums = np.sum(values, axis=-1, keepdims=True)
    return np.divide(values, sums, out=values, where=np.abs(sums - 1.0) > sum_slack)


def reference_one_hot(index, size: int) -> np.ndarray:
    """Delta rows at ``index``, written one by one into zeros."""
    index = np.asarray(index)
    if np.any(index < 0) or np.any(index >= size):
        raise IndexError(f"symbol index out of range for alphabet of size {size}")
    out = np.zeros(index.shape + (size,), dtype=np.float64)
    np.put_along_axis(out, np.expand_dims(index, axis=-1), 1.0, axis=-1)
    return out


def reference_parameter_problem(unit, sizes: dict) -> str | None:
    """``graph._parameter_problem`` through the boolean-array tests and
    ``is_normalized``: the first problem of a unit's prior or matrix, or None."""
    if isinstance(unit, SourceBlock):
        size = sizes.get(unit.variable)
        if size is not None and unit.prior.shape != (size,):
            return (f"source {unit.name!r} prior length {unit.prior.shape[0]} "
                    f"does not match variable size {size}")
        if size is not None and not is_normalized(unit.prior, STOCHASTIC_ATOL):
            return f"source {unit.name!r} prior is not a distribution"
        return None
    if unit.from_var in sizes and unit.to_var in sizes:
        want = (sizes[unit.from_var], sizes[unit.to_var])
        if unit.theta.shape != want:
            return (f"block {unit.name!r} matrix shape {unit.theta.shape} "
                    f"does not match variable sizes {want}")
    if np.any(~((unit.theta >= 0.0) & (unit.theta <= 1.0))):
        return f"block {unit.name!r} matrix has entries outside [0, 1]"
    if not is_normalized(unit.theta, STOCHASTIC_ATOL):
        return f"block {unit.name!r} matrix rows do not sum to 1"
    return None


def reference_bilinear(f: np.ndarray, theta: np.ndarray, b: np.ndarray) -> np.ndarray:
    """f_n' theta b_n for every row n as one three-operand sum.  It adds
    the L * M terms one at a time in (l, m) order, so it does not round
    like the library's matrix product followed by a row-wise dot."""
    return np.einsum("nl,lm,nm->n", f, theta, b)


def reference_em(graph: GraphSpec, evidence: dict, cfg, mask: np.ndarray | None = None):
    """``em_train`` written plainly: every epoch trains the units one at a
    time with ``train_block`` on the previous epoch's per-sample messages,
    first those of ``Propagator.initial_state`` with
    ``rng=np.random.default_rng(cfg.seed)``, then those of ``Propagator.run``,
    and scores the terminals with ``aggregated_log_likelihood``.  Returns a
    ``TrainReport`` without wall times."""
    units = graph.trainable_units()
    shapes = {u.name: (u.prior if isinstance(u, SourceBlock) else u.theta).shape for u in units}
    params = {name: np.full(shape, 1.0 / shape[-1]) for name, shape in shapes.items()}
    n = None if mask is None else len(mask)
    state = Propagator(graph).initial_state(evidence, n, rng=np.random.default_rng(cfg.seed))
    weights = np.ones(state.n_samples) if mask is None else np.asarray(mask, dtype=np.float64)
    records = []
    for epoch in range(1, cfg.epochs + 1):
        updates = {}
        for unit in units:
            if isinstance(unit, SourceBlock):
                data = BlockDataset(np.ones((state.n_samples, 1)), state.backward[unit.variable],
                                    weights)
                updates[unit.name] = train_block(params[unit.name][None], data, cfg)[0]
            else:
                data = BlockDataset(state.forward[unit.from_var], state.backward[unit.to_var],
                                    weights)
                updates[unit.name] = train_block(params[unit.name], data, cfg)
        params.update(updates)
        state = Propagator(graph.with_parameters(params)).run(evidence, n)
        train_ll = aggregated_log_likelihood(state, tuple(evidence), weights)
        test_ll = (aggregated_log_likelihood(state, tuple(evidence), 1.0 - weights)
                   if np.any(weights == 0.0) else train_ll)
        records.append(EpochRecord(epoch, train_ll, test_ll, 0.0, updates))
    return TrainReport(records, graph.with_parameters(params))


def reference_ancestral_sample(graph: GraphSpec, n_samples: int, seed: int = 1) -> SampleSet:
    """``ancestral_sample(..., keep_all=True)`` drawn from one (N, size)
    distribution row per sample and variable: a tiled prior, block rows
    indexed by the parent's symbols, and a cluster's per-sample product of
    its inbound rows, left to right, normalized row by row.  A sample draws
    the count of its CDF entries below its uniform, the last read as 1."""
    tails, heads = _ends(graph)
    clusters = _equality_clusters(graph)
    symbols: dict[str, np.ndarray] = {}

    def rows_of(variable):
        node = tails[variable]
        if isinstance(node, SourceBlock):
            return np.tile(node.prior, (n_samples, 1))
        return np.asarray(node.theta)[symbols[node.from_var]]

    def draw(rows, uniforms):
        cdf = np.cumsum(rows, axis=1)
        cdf[:, -1] = 1.0
        return np.sum(uniforms[:, None] > cdf, axis=1).astype(np.int64)

    for variable in Propagator(graph).forward_order:
        if variable in symbols or isinstance(heads.get(variable), DiverterNode):
            continue
        if isinstance(tails[variable], DiverterNode):
            cluster = clusters[variable]
            inbound = [v for div in cluster for v in div.inbound
                       if not isinstance(tails[v], DiverterNode)]
            root = next(div for div in cluster if set(div.inbound) <= set(inbound))
            joint = rows_of(inbound[0])
            for v in inbound[1:]:
                joint = joint * rows_of(v)
            u = substream(seed, "draw", root.name).uniform(size=n_samples)
            common = draw(normalize(joint), u)
            for div in cluster:
                for v in div.edges:
                    symbols[v] = common
        else:
            symbols[variable] = draw(rows_of(variable),
                                     substream(seed, "draw", variable).uniform(size=n_samples))
    return SampleSet({v: symbols[v] for v in graph.sizes}, n_samples, seed)


def reference_schedule(graph: GraphSpec) -> tuple[tuple, tuple, tuple]:
    """``Propagator``'s ``(_slots, _steps, forward_order)`` by the quadratic
    round-by-round scan: each round rescans every remaining message slot and
    takes, sorted, those whose inputs are all scheduled already."""
    tails, heads = _ends(graph)

    def other_entering(div: DiverterNode, edge: str) -> tuple:
        return tuple([("F", v) for v in div.inbound if v != edge]
                     + [("B", v) for v in div.taps if v != edge])

    rules = {}
    for var, _ in graph.variables:
        tail, head = tails.get(var), heads.get(var)
        if tail is None:
            rules[("F", var)] = ("evidence", None, ())
        elif isinstance(tail, SourceBlock):
            rules[("F", var)] = ("prior", tail.name, ())
        elif isinstance(tail, SisoBlock):
            rules[("F", var)] = ("siso_f", tail.name, (("F", tail.from_var),))
        else:
            rules[("F", var)] = ("product", None, other_entering(tail, var))
        if head is None:
            rules[("B", var)] = ("evidence", None, ())
        elif isinstance(head, SisoBlock):
            rules[("B", var)] = ("siso_b", head.name, (("B", head.to_var),))
        else:
            rules[("B", var)] = ("product", None, other_entering(head, var))

    remaining = {slot: rule[2] for slot, rule in rules.items()}
    order = []
    while remaining:
        ready = sorted(s for s, d in remaining.items() if all(x not in remaining for x in d))
        if not ready:
            raise ValueError("message schedule has a dependency cycle")
        for slot in ready:
            order.append(slot)
            del remaining[slot]
    slots = tuple(rules)
    number = {slot: k for k, slot in enumerate(slots)}
    steps = tuple((number[slot], kind, name, tuple(number[d] for d in inputs))
                  for slot in order for kind, name, inputs in [rules[slot]] if kind != "evidence")
    return slots, steps, tuple(var for direction, var in order if direction == "F")
