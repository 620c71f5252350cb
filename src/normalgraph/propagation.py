"""Belief propagation on cycle-free normal-form graphs.

Every variable (edge) carries two messages: a forward one emitted by its
producing node and a backward one emitted by its consumer.  The update
rules are local:

* a SISO block with matrix theta maps forward input f to ``theta' f`` and
  backward output b to ``theta b``;
* an equality node sends along each edge the elementwise product of the
  messages entering on all other edges;
* open endpoints receive the evidence factor, or uniform when there is
  none.

On a cycle-free graph each message is fully determined, so the engine
compiles a dependency-ordered schedule and computes every message exactly
once.  A flooding mode (Jacobi sweeps from an arbitrary initial state) is
kept as a cross-check of that schedule: after as many rounds as the
longest dependency chain (``Propagator.depth``) it reproduces the exact
result.

Message arrays are (n_samples, alphabet) so a whole dataset propagates in
one vectorized pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .graph import (
    DiverterNode,
    GraphSpec,
    GraphError,
    SisoBlock,
    SourceBlock,
    UnknownVariable,
    ensure_valid,
)
from .messages import AllZeroVector, hadamard_posterior, normalize, one_hot, uniform

__all__ = [
    "ContradictoryEvidence",
    "MessageState",
    "Propagator",
    "propagate",
    "posterior",
    "aggregated_log_likelihood",
    "block_log_likelihood",
]


class ContradictoryEvidence(ValueError):
    """Injected evidence has no support under the current parameters."""


@dataclass(frozen=True)
class MessageState:
    """All messages of one propagation pass, stacked over samples.

    ``forward[v]`` and ``backward[v]`` are (n_samples, size(v)) arrays of
    normalized messages.
    """

    forward: dict[str, np.ndarray]
    backward: dict[str, np.ndarray]
    n_samples: int


def posterior(state: MessageState, variable: str) -> np.ndarray:
    """Normalized elementwise product of the stored message pair."""
    if variable not in state.forward:
        raise UnknownVariable(f"unknown variable {variable!r}")
    return hadamard_posterior(state.forward[variable], state.backward[variable])


class Propagator:
    """Reusable schedule for one graph structure.

    Compiling the schedule validates the graph once; ``run`` may then be
    called many times with different evidence or parameter overrides, which
    is what the training loop does every epoch.  ``forward_order`` lists
    every variable after the inputs of its producer, and ``depth`` is the
    longest chain of message dependencies.
    """

    def __init__(self, graph: GraphSpec):
        ensure_valid(graph)
        self.graph = graph
        self.sizes = graph.sizes
        self._tails = graph.tails()
        self._heads = graph.heads()
        self._compile()

    # Slots are ("F"|"B", variable); rules are small tagged tuples.  A SISO
    # rule holds its parameter name and the slot of its input message.
    def _compile(self) -> None:
        rules: dict[tuple[str, str], tuple] = {}
        deps: dict[tuple[str, str], list] = {}
        for var, _ in self.graph.variables:
            tail = self._tails.get(var)
            slot = ("F", var)
            if tail is None:
                rules[slot], deps[slot] = ("evidence",), []
            elif isinstance(tail, SourceBlock):
                rules[slot], deps[slot] = ("prior", tail.name), []
            elif isinstance(tail, SisoBlock):
                rules[slot] = ("siso_f", tail.name, ("F", tail.from_var))
                deps[slot] = [rules[slot][2]]
            else:
                rules[slot] = ("product", self._other_entering(tail, var))
                deps[slot] = rules[slot][1]

            head = self._heads.get(var)
            slot = ("B", var)
            if head is None:
                rules[slot], deps[slot] = ("evidence",), []
            elif isinstance(head, SisoBlock):
                rules[slot] = ("siso_b", head.name, ("B", head.to_var))
                deps[slot] = [rules[slot][2]]
            else:
                rules[slot] = ("product", self._other_entering(head, var))
                deps[slot] = rules[slot][1]

        # Deterministic topological order over message slots.
        remaining = dict(deps)
        order: list[tuple[str, str]] = []
        depth: dict[tuple[str, str], int] = {}
        while remaining:
            ready = sorted(s for s, d in remaining.items() if all(x not in remaining for x in d))
            if not ready:
                raise GraphError("message schedule has a dependency cycle")
            for slot in ready:
                depth[slot] = 1 + max((depth[d] for d in deps[slot]), default=0)
                order.append(slot)
                del remaining[slot]
        self._rules = rules
        self._order = order
        self.forward_order = tuple(var for direction, var in order if direction == "F")
        self.depth = max(depth.values(), default=0)
        # The one open endpoint of each terminal, where its evidence enters.
        self._evidence_slots = {s[1]: s for s, rule in rules.items() if rule[0] == "evidence"}

    @staticmethod
    def _other_entering(div: DiverterNode, edge: str) -> list[tuple[str, str]]:
        slots = [("F", v) for v in div.inbound if v != edge]
        slots += [("B", v) for v in div.taps if v != edge]
        return slots

    # -- evidence handling --------------------------------------------------

    def _evidence_factors(self, evidence: Mapping | None, n_samples: int | None):
        """The factor of every evidence slot, and the sample count N.

        Every per-sample factor must have N rows: ``n_samples`` when given,
        else the row count of the first per-sample factor, else 1.
        """
        encoded = {var: self._encode(var, value) for var, value in (evidence or {}).items()}
        rows = {var: f.shape[0] for var, f in encoded.items() if f.ndim == 2}
        n = next(iter(rows.values()), 1) if n_samples is None else n_samples
        for var, count in rows.items():
            if count != n:
                raise ValueError(f"evidence for {var!r} has {count} samples, expected {n}")
        factors = {}
        for var, slot in self._evidence_slots.items():
            factor = encoded[var] if var in encoded else uniform(self.sizes[var])
            factors[slot] = np.tile(factor, (n, 1)) if factor.ndim == 1 else factor
        return factors, n

    def _encode(self, var: str, value) -> np.ndarray:
        """One terminal's evidence as a factor.

        An integer vector (one symbol per sample) or a 2-d float array (one
        soft factor per sample) gives an (N, size) factor; an integer
        scalar or a 1-d float vector gives one (size,) factor shared by all
        samples.
        """
        if var not in self.sizes:
            raise UnknownVariable(f"evidence for unknown variable {var!r}")
        if var not in self._evidence_slots:
            raise GraphError(f"evidence at non-terminal variable {var!r}; split it first")
        size = self.sizes[var]
        arr = np.asarray(value)
        if arr.ndim == 0 or (arr.ndim == 1 and np.issubdtype(arr.dtype, np.integer)):
            idx = arr.astype(np.int64)
            if np.any(idx < 0) or np.any(idx >= size):
                raise ValueError(f"evidence symbol out of range for variable {var!r}")
            return one_hot(idx, size)
        if arr.ndim > 2 or arr.shape[-1] != size:
            raise ValueError(f"evidence for {var!r} has shape {arr.shape}, "
                             f"expected (N, {size}) or ({size},)")
        try:
            return normalize(np.asarray(arr, dtype=np.float64))
        except AllZeroVector as exc:
            raise ContradictoryEvidence(f"all-zero soft evidence at {var!r}") from exc

    # -- execution -----------------------------------------------------------

    def _parameters(self, overrides: Mapping[str, np.ndarray] | None) -> dict[str, np.ndarray]:
        params = {s.name: s.prior for s in self.graph.sources}
        params.update({b.name: b.theta for b in self.graph.blocks})
        for name, value in (overrides or {}).items():
            if name not in params:
                raise GraphError(f"parameter override for unknown node {name!r}")
            value = np.asarray(value, dtype=np.float64)
            if value.shape != params[name].shape:
                raise GraphError(f"override for {name!r} has shape {value.shape}")
            params[name] = value
        return params

    def _apply(self, slot, rule, msgs, factors, params, n) -> np.ndarray:
        kind = rule[0]
        if kind == "evidence":
            return factors[slot]
        if kind == "prior":
            return np.tile(params[rule[1]], (n, 1))
        if kind == "siso_f":
            raw = msgs[rule[2]] @ params[rule[1]]
        elif kind == "siso_b":
            raw = msgs[rule[2]] @ params[rule[1]].T
        else:
            raw = None
            for dep in rule[1]:
                raw = msgs[dep].copy() if raw is None else raw * msgs[dep]
        return self._checked(raw, slot)

    @staticmethod
    def _checked(raw: np.ndarray, slot) -> np.ndarray:
        sums = raw.sum(axis=-1, keepdims=True)
        bad = np.where(sums[:, 0] == 0.0)[0]
        if bad.size:
            direction = "forward" if slot[0] == "F" else "backward"
            raise ContradictoryEvidence(
                f"no consistent {direction} message at variable {slot[1]!r} "
                f"for sample(s) {bad[:5].tolist()}"
            )
        return raw / sums

    def run(
        self,
        evidence: Mapping | None = None,
        n_samples: int | None = None,
        parameters: Mapping[str, np.ndarray] | None = None,
        flooding_rounds: int | None = None,
        init: MessageState | None = None,
    ) -> MessageState:
        """Propagate evidence and return the complete message state.

        ``parameters`` overrides block matrices or source priors by node
        name without rebuilding the schedule.  ``flooding_rounds`` switches
        to Jacobi flooding from ``init`` (or ``initial_state``) instead of
        the exact one-pass sweep.
        """
        factors, n = self._evidence_factors(evidence, n_samples)
        params = self._parameters(parameters)
        msgs: dict[tuple[str, str], np.ndarray] = {}
        if flooding_rounds is None:
            for slot in self._order:
                msgs[slot] = self._apply(slot, self._rules[slot], msgs, factors, params, n)
            return self._to_state(msgs, n)

        if init is None:
            init = self.initial_state(evidence, n_samples)
        for slot in self._order:
            store = init.forward if slot[0] == "F" else init.backward
            msgs[slot] = np.array(store[slot[1]], dtype=np.float64)
        for _ in range(flooding_rounds):
            msgs = {
                slot: self._apply(slot, self._rules[slot], msgs, factors, params, n)
                for slot in self._order
            }
        return self._to_state(msgs, n)

    def initial_state(self, evidence: Mapping | None = None, n_samples: int | None = None,
                      rng: np.random.Generator | None = None) -> MessageState:
        """Unpropagated state: evidence factors in place, everything else
        uniform, or independent uniform-random draws when ``rng`` is given."""
        factors, n = self._evidence_factors(evidence, n_samples)
        msgs = {}
        for slot in self._rules:
            if slot in factors:
                msgs[slot] = factors[slot]
            else:
                size = self.sizes[slot[1]]
                if rng is None:
                    msgs[slot] = np.full((n, size), 1.0 / size)
                else:
                    msgs[slot] = normalize(rng.uniform(size=(n, size)))
        return self._to_state(msgs, n)

    @staticmethod
    def _to_state(msgs, n) -> MessageState:
        forward = {}
        backward = {}
        for (direction, var), arr in msgs.items():
            arr = np.asarray(arr)
            arr.setflags(write=False)
            (forward if direction == "F" else backward)[var] = arr
        return MessageState(forward=forward, backward=backward, n_samples=n)


def propagate(graph: GraphSpec, evidence: Mapping | None = None,
              n_samples: int | None = None, **kwargs) -> MessageState:
    """One-shot propagation; see Propagator.run for the knobs."""
    return Propagator(graph).run(evidence, n_samples=n_samples, **kwargs)


def aggregated_log_likelihood(state: MessageState, terminals: Sequence[str],
                              mask: np.ndarray | None = None) -> float:
    """Sum over terminals and samples of log of the message pair overlap.

    Hard evidence makes each term the log-probability the rest of the
    graph assigns to the observed symbol.  Returns -inf when any selected
    sample has an impossible evidence combination.
    """
    total = 0.0
    sel = None if mask is None else np.asarray(mask, dtype=bool)
    for var in terminals:
        if var not in state.forward:
            raise UnknownVariable(f"unknown terminal {var!r}")
        overlap = np.sum(state.forward[var] * state.backward[var], axis=-1)
        if sel is not None:
            overlap = overlap[sel]
        if np.any(overlap <= 0.0):
            return float("-inf")
        total += float(np.sum(np.log(overlap)))
    return total


def block_log_likelihood(theta: np.ndarray, data) -> float:
    """Masked log-likelihood of one block against its incident messages.

    ``data`` is anything with normalized (n, M_in) ``forward``, (n, M_out)
    ``backward`` and 0/1 ``mask`` arrays, such as a BlockDataset.  The per
    sample score is f' theta b; -inf is returned if any selected sample
    scores zero.
    """
    f, b, mask = data.forward, data.backward, data.mask
    theta = np.asarray(theta, dtype=np.float64)
    scores = np.einsum("nl,lm,nm->n", f, theta, b)
    sel = mask > 0
    if np.any(scores[sel] <= 0.0):
        return float("-inf")
    return float(np.sum(np.log(scores[sel])))
