"""Normal-form factor graph structures.

Variables live on edges and carry a finite alphabet.  Three node kinds
connect them: source blocks emit a prior along one edge, SISO blocks relate
an input edge to an output edge through a row-stochastic matrix, and
diverters impose equality across replicas of the same variable.  Every edge
has at most one producing node (its tail) and one consuming node (its
head); an unoccupied endpoint makes the variable a terminal where evidence
can be injected.

Graphs are plain frozen dataclasses, checked when they are built: every
``GraphSpec`` that exists is sound.  Graphs and blocks compare by identity;
equal content gives equal ``graph_digest``.  A JSON file format (see
``load_graph``/``save_graph``) mirrors the structure one to one; matrices
are row-major with rows indexed by the input symbol.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .messages import uniform

__all__ = [
    "GraphError",
    "UnknownVariable",
    "InvalidIndex",
    "SisoBlock",
    "SourceBlock",
    "DiverterNode",
    "GraphSpec",
    "build_projector",
    "build_expander",
    "ensure_valid",
    "split_variable",
    "graph_to_dict",
    "graph_from_dict",
    "load_graph",
    "save_graph",
    "graph_digest",
]

STOCHASTIC_ATOL = 1e-12


class GraphError(ValueError):
    """Structural problem in a graph definition."""


class UnknownVariable(GraphError):
    """A referenced variable name is not declared."""


class InvalidIndex(GraphError):
    """A component index is outside its valid range."""


def _freeze(unit, field_name: str, ndim: int, owner: str) -> None:
    arr = np.array(getattr(unit, field_name), dtype=np.float64)
    if arr.ndim != ndim:
        raise GraphError(f"{owner} must be {ndim}-d, got shape {arr.shape}")
    arr.setflags(write=False)
    object.__setattr__(unit, field_name, arr)


@dataclass(frozen=True, eq=False)
class SisoBlock:
    """Soft-input soft-output block: a conditional matrix between two edges.

    ``theta[l, m]`` is the probability of output symbol m given input
    symbol l, so every row is a distribution over the output alphabet.
    """

    name: str
    from_var: str
    to_var: str
    theta: np.ndarray
    trainable: bool = True

    def __post_init__(self):
        _freeze(self, "theta", 2, f"block {self.name!r}: matrix")


@dataclass(frozen=True, eq=False)
class SourceBlock:
    """Terminal producer holding a prior distribution for one edge."""

    name: str
    variable: str
    prior: np.ndarray
    trainable: bool = True

    def __post_init__(self):
        _freeze(self, "prior", 1, f"source {self.name!r}: prior")


@dataclass(frozen=True)
class DiverterNode:
    """Equality constraint across replicas of one variable.

    ``inbound`` replicas arrive at the node (it consumes their forward
    flow), ``taps`` leave it.  The common case is one inbound edge fanned
    out to several taps; joins of several produced replicas, as appear
    around product-space variables, use several inbound edges.
    """

    inbound: tuple[str, ...]
    taps: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "inbound", tuple(self.inbound))
        object.__setattr__(self, "taps", tuple(self.taps))

    @property
    def edges(self) -> tuple[str, ...]:
        return self.inbound + self.taps

    @property
    def name(self) -> str:
        return "=" + (self.inbound[0] if self.inbound else "")


@dataclass(frozen=True, eq=False)
class GraphSpec:
    """Immutable normal-form factor graph, checked when built: GraphError lists every
    structural problem.  ``with_parameters`` checks only the parameters it swaps in."""

    variables: tuple[tuple[str, int], ...]
    sources: tuple[SourceBlock, ...] = ()
    blocks: tuple[SisoBlock, ...] = ()
    diverters: tuple[DiverterNode, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple((str(n), int(s)) for n, s in self.variables))
        object.__setattr__(self, "sources", tuple(self.sources))
        object.__setattr__(self, "blocks", tuple(self.blocks))
        object.__setattr__(self, "diverters", tuple(self.diverters))
        ensure_valid(self)

    @property
    def sizes(self) -> dict[str, int]:
        return dict(self.variables)

    def tails(self) -> dict[str, object]:
        """Producing node per variable (absent key: open tail)."""
        return _ends(self)[0]

    def heads(self) -> dict[str, object]:
        """Consuming node per variable (absent key: open head)."""
        return _ends(self)[1]

    def terminals(self) -> tuple[str, ...]:
        """Variables with an unoccupied endpoint, in declaration order."""
        tails, heads = _endpoints(self)
        return tuple(n for n, _ in self.variables if n not in tails or n not in heads)

    def block(self, name: str) -> SisoBlock:
        for blk in self.blocks:
            if blk.name == name:
                return blk
        raise GraphError(f"no block named {name!r}")

    def source(self, name: str) -> SourceBlock:
        for src in self.sources:
            if src.name == name:
                return src
        raise GraphError(f"no source named {name!r}")

    def trainable_units(self) -> tuple[object, ...]:
        """Sources and blocks flagged trainable, sources first."""
        units = [s for s in self.sources if s.trainable]
        units += [b for b in self.blocks if b.trainable]
        return tuple(units)

    def with_parameters(self, updates: Mapping[str, np.ndarray]) -> "GraphSpec":
        """This graph's structure with the named priors / matrices swapped in, checked alone."""
        missing = set(updates) - {unit.name for unit in (*self.sources, *self.blocks)}
        if missing:
            raise GraphError(f"no such blocks: {sorted(missing)}")

        def swap(units, field_name):
            return tuple(replace(u, **{field_name: updates[u.name]}) if u.name in updates else u
                         for u in units)

        graph = object.__new__(type(self))
        graph.__dict__.update(vars(self), sources=swap(self.sources, "prior"),
                              blocks=swap(self.blocks, "theta"))
        problems = [problem for unit in (*graph.sources, *graph.blocks)
                    if unit.name in updates and (problem := _parameter_problem(unit, self.sizes))]
        if problems:
            raise GraphError("; ".join(problems))
        return graph


def build_projector(sizes: Sequence[int], j: int) -> np.ndarray:
    """Marginalization matrix from a product-space alphabet onto component j.

    The product alphabet enumerates tuples (x_1, ..., x_D) in row-major
    order (last component fastest).  Row (x_1, ..., x_D) of the result is
    the one-hot indicator of x_j, so the matrix is the Kronecker product of
    all-ones columns with one identity at position j.  ``j`` is 1-based to
    match the file format.
    """
    sizes = [int(s) for s in sizes]
    if len(sizes) < 1 or any(s < 1 for s in sizes):
        raise InvalidIndex("sizes must be a nonempty list of positive integers")
    if not 1 <= j <= len(sizes):
        raise InvalidIndex(f"component index {j} outside 1..{len(sizes)}")
    out = np.ones((1, 1), dtype=np.float64)
    for pos, size in enumerate(sizes, start=1):
        factor = np.eye(size) if pos == j else np.ones((size, 1))
        out = np.kron(out, factor)
    out.setflags(write=False)
    return out


def build_expander(sizes: Sequence[int], j: int) -> np.ndarray:
    """Uniform embedding of component j into the product-space alphabet.

    Exactly the transposed projector scaled by M_j / prod(sizes), so each
    row spreads its symbol's mass evenly over the compatible tuples.
    """
    projector = build_projector(sizes, j)
    scale = np.float64(sizes[j - 1]) / np.float64(math.prod(sizes))
    out = projector.T * scale
    out.setflags(write=False)
    return out


def _ends(graph: GraphSpec) -> tuple[dict[str, object], dict[str, object]]:
    """``(graph.tails(), graph.heads())`` from one endpoint walk."""
    return tuple({var: nodes[0] for var, nodes in ends.items()} for ends in _endpoints(graph))


def _endpoints(graph: GraphSpec) -> tuple[dict[str, list], dict[str, list]]:
    """(tails, heads): for every variable a node names, its producing and
    its consuming nodes, in graph order (sources, blocks, diverters)."""
    tails: dict[str, list] = {}
    heads: dict[str, list] = {}
    for src in graph.sources:
        tails.setdefault(src.variable, []).append(src)
    for blk in graph.blocks:
        heads.setdefault(blk.from_var, []).append(blk)
        tails.setdefault(blk.to_var, []).append(blk)
    for div in graph.diverters:
        for edge in div.inbound:
            heads.setdefault(edge, []).append(div)
        for tap in div.taps:
            tails.setdefault(tap, []).append(div)
    return tails, heads


def _parameter_problem(unit, sizes: Mapping[str, int]) -> str | None:
    """A source's prior or block's matrix checked as construction checks it: its problem or None.
    A NaN fails every comparison, so it counts as outside [0, 1] and as off a unit sum."""
    if isinstance(unit, SourceBlock):
        size, prior = sizes.get(unit.variable), unit.prior
        if size is not None and prior.shape != (size,):
            return (f"source {unit.name!r} prior length {prior.shape[0]} "
                    f"does not match variable size {size}")
        if size is not None and not (prior.size and np.minimum.reduce(prior) >= 0.0
                                     and abs(np.add.reduce(prior) - 1.0) <= STOCHASTIC_ATOL):
            return f"source {unit.name!r} prior is not a distribution"
        return None
    if unit.from_var in sizes and unit.to_var in sizes:
        want = (sizes[unit.from_var], sizes[unit.to_var])
        if unit.theta.shape != want:
            return (f"block {unit.name!r} matrix shape {unit.theta.shape} "
                    f"does not match variable sizes {want}")
    if not (np.minimum.reduce(unit.theta, None, initial=0.0) >= 0.0
            and np.maximum.reduce(unit.theta, None, initial=1.0) <= 1.0):
        return f"block {unit.name!r} matrix has entries outside [0, 1]"
    if not (unit.theta.size and np.maximum.reduce(np.abs(np.add.reduce(unit.theta, 1) - 1.0))
            <= STOCHASTIC_ATOL):
        return f"block {unit.name!r} matrix rows do not sum to 1"
    return None


def _problems(graph: GraphSpec) -> list[str]:
    """Collect structural violations; an empty list means the graph is sound.

    Checks names, endpoint occupancy, alphabet agreement, numeric
    stochasticity of matrices and priors, and acyclicity of the node
    adjacency induced by fully attached edges.
    """
    problems: list[str] = []
    names = [n for n, _ in graph.variables]
    sizes = dict(graph.variables)
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        problems.append(f"duplicate variable names: {dupes}")
    for name, size in graph.variables:
        if size < 1:
            problems.append(f"variable {name!r} has non-positive size {size}")

    node_names = [s.name for s in graph.sources] + [b.name for b in graph.blocks]
    if len(set(node_names)) != len(node_names):
        dupes = sorted({n for n in node_names if node_names.count(n) > 1})
        problems.append(f"duplicate node names: {dupes}")

    tails, heads = _endpoints(graph)
    kinds = {SourceBlock: "source", SisoBlock: "block", DiverterNode: "diverter"}
    for ends in (tails, heads):
        for var, nodes in ends.items():
            if var not in sizes:
                problems += [f"{kinds[type(node)]} {node.name!r} references unknown variable {var!r}"
                             for node in nodes]

    problems += [problem for unit in (*graph.sources, *graph.blocks)
                 if (problem := _parameter_problem(unit, sizes))]

    for div in graph.diverters:
        label = f"diverter {div.name!r}"
        if len(div.inbound) < 1 or len(div.taps) < 1:
            problems.append(f"{label} needs at least one inbound edge and one tap")
        if len(set(div.edges)) != len(div.edges):
            problems.append(f"{label} attaches the same variable twice")
        if len({sizes[v] for v in div.edges if v in sizes}) > 1:
            problems.append(f"{label} replicas disagree on alphabet size")

    attached: dict[str, tuple[str, str]] = {}
    for var in sizes:
        producers = [node.name for node in tails.get(var, ())]
        consumers = [node.name for node in heads.get(var, ())]
        if len(producers) > 1:
            problems.append(f"variable {var!r} has multiple producers: {producers}")
        if len(consumers) > 1:
            problems.append(f"variable {var!r} has multiple consumers: {consumers}")
        if not producers and not consumers:
            problems.append(f"variable {var!r} dangles (no attachment at all)")
        if len(producers) == 1 and len(consumers) == 1:
            attached[var] = (producers[0], consumers[0])

    # Cycle and parallel-edge detection over fully attached edges, treating
    # each node as a vertex of an undirected multigraph.
    node_ids: dict[str, int] = {}
    for node in [*graph.sources, *graph.blocks, *graph.diverters]:
        node_ids.setdefault(node.name, len(node_ids))
    parent = list(range(len(node_ids)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    seen_pairs: set[tuple[int, int]] = set()
    for var, (tail, head) in attached.items():
        a, b = node_ids[tail], node_ids[head]
        if a == b:
            problems.append(f"variable {var!r} loops node {tail!r} to itself")
            continue
        pair = (min(a, b), max(a, b))
        if pair in seen_pairs:
            problems.append(f"parallel edge between {tail!r} and {head!r}")
        seen_pairs.add(pair)
        ra, rb = find(a), find(b)
        if ra == rb:
            problems.append(f"cycle through variable {var!r}")
        else:
            parent[ra] = rb

    return problems


def ensure_valid(graph: GraphSpec) -> GraphSpec:
    """Raise GraphError listing every violation; ``GraphSpec.__post_init__``
    runs it on each graph being built, so an existing graph always passes."""
    problems = _problems(graph)
    if problems:
        raise GraphError("; ".join(problems))
    return graph


def _fresh_name(base: str, taken: Iterable[str]) -> str:
    taken = set(taken)
    if base not in taken:
        return base
    k = 2
    while f"{base}{k}" in taken:
        k += 1
    return f"{base}{k}"


def split_variable(graph: GraphSpec, variable: str) -> GraphSpec:
    """Insert a degree-3 equality node on ``variable``, exposing a new tap.

    The variable keeps its producer and now feeds a diverter.  One replica
    (``<variable>_cont``) takes over the old consumer, the other
    (``<variable>_tap``) is a fresh terminal for evidence injection or
    posterior readout.  Messages everywhere else are unchanged because the
    new tap contributes only a uniform backward factor.
    """
    if variable not in graph.sizes:
        raise UnknownVariable(f"unknown variable {variable!r}")
    size = graph.sizes[variable]
    for div in graph.diverters:
        if variable in div.taps:
            raise GraphError(f"variable {variable!r} is already a diverter tap")
    names = [n for n, _ in graph.variables]
    cont = _fresh_name(f"{variable}_cont", names)
    tap = _fresh_name(f"{variable}_tap", names + [cont])

    consumer = graph.heads().get(variable)
    variables = list(graph.variables) + [(cont, size), (tap, size)]
    blocks = list(graph.blocks)
    diverters = list(graph.diverters)
    if consumer is not None:
        if isinstance(consumer, SisoBlock):
            idx = blocks.index(consumer)
            blocks[idx] = replace(consumer, from_var=cont)
        else:
            idx = diverters.index(consumer)
            inbound = tuple(cont if v == variable else v for v in consumer.inbound)
            diverters[idx] = replace(consumer, inbound=inbound)
    diverters.append(DiverterNode(inbound=(variable,), taps=(cont, tap)))
    return replace(
        graph,
        variables=tuple(variables),
        blocks=tuple(blocks),
        diverters=tuple(diverters),
    )


def _matrix_from_format(entry, rows: int, cols: int, owner: str) -> tuple[np.ndarray, bool]:
    """Decode a matrix field; returns (matrix, came_from_builder)."""
    if entry == "uniform":
        return np.full((rows, cols), 1.0 / cols), False
    if isinstance(entry, Mapping):
        builder = entry.get("builder")
        if builder not in ("expander", "projector"):
            raise GraphError(f"{owner}: unknown builder {builder!r}")
        sizes = entry.get("sizes")
        j = entry.get("j")
        if (not isinstance(sizes, (list, tuple)) or type(j) is not int
                or not all(type(size) is int for size in sizes)):
            raise GraphError(f"{owner}: builder needs integer list 'sizes' and integer 'j'")
        fn = build_expander if builder == "expander" else build_projector
        return fn(sizes, j), True
    return _numeric(entry, owner), False


def _numeric(entry, owner: str) -> np.ndarray:
    """A matrix or prior given as nested lists of numbers."""
    try:
        return np.array(entry, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise GraphError(f"{owner}: expected nested lists of numbers ({exc})") from exc


def _trainable(entry: Mapping, default: bool, owner: str) -> bool:
    """The optional ``trainable`` flag, which must be a JSON boolean."""
    value = entry.get("trainable", default)
    if not isinstance(value, bool):
        raise GraphError(f"{owner}: 'trainable' must be true or false, got {value!r}")
    return value


def _section(data: Mapping, key: str, names: tuple[str, ...],
             required: tuple[str, ...] = ()) -> list:
    """One top-level section: a list of objects that carry the ``names``
    keys, each holding a string, and the other ``required`` keys."""
    entries = data.get(key, [])
    if not isinstance(entries, list):
        raise GraphError(f"section {key!r} must be a list")
    for index, entry in enumerate(entries):
        if not isinstance(entry, Mapping):
            raise GraphError(f"{key}[{index}] must be an object")
        missing = [k for k in names + required if k not in entry]
        if missing:
            raise GraphError(f"{key}[{index}] lacks {missing}")
        not_names = [k for k in names if not isinstance(entry[k], str)]
        if not_names:
            raise GraphError(f"{key}[{index}]: {not_names} must hold a name")
    return entries


def graph_from_dict(data: Mapping) -> GraphSpec:
    """Build a GraphSpec from the JSON file structure."""
    if not isinstance(data, Mapping):
        raise GraphError("a graph file must hold one JSON object")
    entries = _section(data, "variables", ("name",), ("size",))
    variables = tuple((v["name"], v["size"]) for v in entries)
    not_sizes = [name for name, size in variables if type(size) is not int or size < 1]
    if not_sizes:
        raise GraphError(f"variables {not_sizes} need a positive integer size")
    sizes = dict(variables)

    sources = []
    for entry in _section(data, "sources", ("name", "variable")):
        var = entry["variable"]
        prior = entry.get("prior", "uniform")
        owner = f"source {entry['name']!r}"
        # An unknown variable gets a one-symbol stand-in; GraphSpec reports it.
        prior_arr = uniform(sizes.get(var, 1)) if prior == "uniform" else _numeric(prior, owner)
        sources.append(
            SourceBlock(
                name=entry["name"],
                variable=var,
                prior=prior_arr,
                trainable=_trainable(entry, True, owner),
            )
        )

    blocks = []
    for entry in _section(data, "blocks", ("name", "from", "to")):
        frm, to = entry["from"], entry["to"]
        owner = f"block {entry['name']!r}"
        theta, from_builder = _matrix_from_format(
            entry.get("matrix", "uniform"), sizes.get(frm, 1), sizes.get(to, 1), owner
        )
        # Structure-encoding matrices are constants of the model.
        trainable = _trainable(entry, not from_builder, owner)
        if from_builder and trainable:
            raise GraphError(f"{owner}: builder blocks cannot be trainable")
        blocks.append(
            SisoBlock(
                name=entry["name"],
                from_var=frm,
                to_var=to,
                theta=theta,
                trainable=trainable,
            )
        )

    diverters = []
    for entry in _section(data, "diverters", (), ("variable", "taps")):
        inbound = entry["variable"]
        if isinstance(inbound, str):
            inbound = [inbound]
        for names in (inbound, entry["taps"]):
            if not isinstance(names, list) or not all(isinstance(v, str) for v in names):
                raise GraphError(f"diverter {inbound!r}: 'variable' and 'taps' must name variables")
        diverters.append(DiverterNode(inbound=tuple(inbound), taps=tuple(entry["taps"])))

    return GraphSpec(
        variables=variables,
        sources=tuple(sources),
        blocks=tuple(blocks),
        diverters=tuple(diverters),
    )


def graph_to_dict(graph: GraphSpec) -> dict:
    """JSON-ready structure; matrices are materialized row-major lists."""
    data: dict = {
        "variables": [{"name": n, "size": s} for n, s in graph.variables],
        "sources": [
            {
                "name": s.name,
                "variable": s.variable,
                "prior": s.prior.tolist(),
                "trainable": s.trainable,
            }
            for s in graph.sources
        ],
        "blocks": [
            {
                "name": b.name,
                "from": b.from_var,
                "to": b.to_var,
                "matrix": b.theta.tolist(),
                "trainable": b.trainable,
            }
            for b in graph.blocks
        ],
        "diverters": [
            {
                "variable": d.inbound[0] if len(d.inbound) == 1 else list(d.inbound),
                "taps": list(d.taps),
            }
            for d in graph.diverters
        ],
    }
    return data


def load_graph(path) -> GraphSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError on bytes not UTF-8
            raise GraphError(f"{path}: not a JSON document: {exc}") from None
    return graph_from_dict(data)


def save_graph(graph: GraphSpec, path) -> None:
    text = json.dumps(graph_to_dict(graph), indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def graph_digest(graph: GraphSpec) -> str:
    """Short stable fingerprint of the graph's structure and parameters."""
    canon = json.dumps(graph_to_dict(graph), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]
