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
compiles a dependency-ordered schedule of integer-indexed steps and
computes every message exactly once, in one pass over evidence factors
encoded beforehand.

Message arrays are (n_samples, alphabet) so a whole dataset propagates in
one vectorized pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Mapping, Sequence

import numpy as np

from .graph import (
    DiverterNode,
    GraphSpec,
    GraphError,
    SisoBlock,
    SourceBlock,
    UnknownVariable,
    _ends,
)
from .messages import (COLUMN_ROWS, AllZeroVector, _normalize_in_place, _row_sums, normalize,
                       one_hot, uniform)

__all__ = [
    "ContradictoryEvidence",
    "MessageState",
    "Propagator",
    "posterior",
    "aggregated_log_likelihood",
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


def _merge_keys(keys: np.ndarray, radix: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys, return_inverse=True)`` for int64 keys in [0, radix),
    taken from a count of every key when the radix is at most the key count."""
    if radix > len(keys):
        return np.unique(keys, return_inverse=True)
    present = np.bincount(keys, minlength=radix) > 0
    return np.flatnonzero(present), (np.cumsum(present) - 1)[keys]


def posterior(state: MessageState, variable: str) -> np.ndarray:
    """Normalized elementwise product of the stored message pair, read as
    built: a state's messages are nonnegative and size-matched."""
    if variable not in state.forward:
        raise UnknownVariable(f"unknown variable {variable!r}")
    return _normalize_in_place(state.forward[variable] * state.backward[variable])


class Propagator:
    """Reusable schedule for one graph structure.

    The schedule is compiled once from a graph that was checked when it
    was built; ``run`` may then be called many times with different evidence.
    Messages ("F"|"B", variable) are numbered in declaration order;
    ``forward_order`` lists every variable after the inputs of its
    producer.

    Training (``learning._Epochs``) calls ``_evidence_factors(merge=True)``,
    ``_start``, ``_pass``, ``_slot``, ``_parameters`` and no other member,
    and this module's ``_log_overlap``.
    """

    def __init__(self, graph: GraphSpec):
        self.graph = graph
        self.sizes = graph.sizes
        self._tails, self._heads = _ends(graph)
        self._compile()

    # A rule is (kind, parameter name, input slots); a step is the same with
    # the output slot in front and slot numbers in place of slots.
    def _compile(self) -> None:
        rules: dict[tuple[str, str], tuple] = {}
        for var, _ in self.graph.variables:
            tail = self._tails.get(var)
            if tail is None:
                rules[("F", var)] = ("evidence", None, ())
            elif isinstance(tail, SourceBlock):
                rules[("F", var)] = ("prior", tail.name, ())
            elif isinstance(tail, SisoBlock):
                rules[("F", var)] = ("siso_f", tail.name, (("F", tail.from_var),))
            else:
                rules[("F", var)] = ("product", None, self._other_entering(tail, var))

            head = self._heads.get(var)
            if head is None:
                rules[("B", var)] = ("evidence", None, ())
            elif isinstance(head, SisoBlock):
                rules[("B", var)] = ("siso_b", head.name, (("B", head.to_var),))
            else:
                rules[("B", var)] = ("product", None, self._other_entering(head, var))

        # Kahn's sort by in-degree, in rounds: the sorted slots whose inputs all came earlier.
        consumers: dict[tuple[str, str], list] = {slot: [] for slot in rules}
        for slot, (_, _, inputs) in rules.items():
            for entering in inputs:
                consumers[entering].append(slot)
        waiting = {slot: len(rule[2]) for slot, rule in rules.items()}
        order, ready = [], [slot for slot, count in waiting.items() if not count]
        while ready:
            order += sorted(ready)
            for slot in ready:
                for after in consumers[slot]:
                    waiting[after] -= 1
            ready = {after for slot in ready for after in consumers[slot] if not waiting[after]}
        if len(order) < len(rules):
            raise GraphError("message schedule has a dependency cycle")
        self._slots = tuple(rules)
        self._slot = {slot: k for k, slot in enumerate(self._slots)}
        self._steps = tuple((self._slot[slot], kind, name, tuple(self._slot[d] for d in inputs))
                            for slot in order for kind, name, inputs in [rules[slot]]
                            if kind != "evidence")
        self.forward_order = tuple(var for direction, var in order if direction == "F")
        # The one open endpoint of each terminal, where its evidence enters.
        self._evidence_slots = {s[1]: self._slot[s] for s, rule in rules.items()
                                if rule[0] == "evidence"}

    @staticmethod
    def _other_entering(div: DiverterNode, edge: str) -> tuple[tuple[str, str], ...]:
        slots = [("F", v) for v in div.inbound if v != edge]
        slots += [("B", v) for v in div.taps if v != edge]
        return tuple(slots)

    # -- evidence handling --------------------------------------------------

    def _evidence_factors(self, evidence: Mapping | None, n_samples: int | None, merge=False):
        """The factor at every evidence slot number (None at the other slots),
        the sample count N, and the rows: without ``merge``, (N, size) factors
        and None; with it, the factors of the ``distinct_rows`` and each
        sample's row, so that merged symbol columns are encoded per row only.

        Every per-sample factor must have N rows: ``n_samples`` when given,
        else the row count of the first per-sample factor, else 1.
        """
        checked = {var: self._encode(var, value) for var, value in (evidence or {}).items()}
        rows = {var: len(f) for var, f in checked.items() if f.ndim == 2 or _is_symbol_column(f)}
        n = next(iter(rows.values()), 1) if n_samples is None else n_samples
        for var, count in rows.items():
            if count != n:
                raise ValueError(f"evidence for {var!r} has {count} samples, expected {n}")
        checked, n_rows, inverse = self.distinct_rows(checked, n) if merge else (checked, n, None)
        factors = [None] * len(self._slots)
        for var, k in self._evidence_slots.items():
            factor = checked[var] if var in checked else uniform(self.sizes[var])
            factor = one_hot(factor, self.sizes[var]) if _is_symbol_column(factor) else factor
            factors[k] = np.repeat(factor[None], n_rows, 0) if factor.ndim == 1 else factor
        return factors, n, inverse

    def _encode(self, var: str, value) -> np.ndarray:
        """One terminal's evidence, checked: an integer vector (one symbol per
        sample) as its int64 column, a 2-d float array (one soft factor per
        sample) as an (N, size) factor, and an integer scalar or a 1-d float
        vector as one (size,) factor shared by all samples.
        """
        if var not in self.sizes:
            raise UnknownVariable(f"evidence for unknown variable {var!r}")
        if var not in self._evidence_slots:
            raise GraphError(f"evidence at non-terminal variable {var!r}; split it first")
        size = self.sizes[var]
        arr = np.asarray(value)
        if arr.ndim == 0 and not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"scalar evidence for {var!r} is not an integer symbol: {value!r}")
        if arr.dtype == bool:
            raise ValueError(f"evidence for {var!r} is boolean, not symbols or soft factors")
        if arr.ndim == 0 or _is_symbol_column(arr):
            idx = arr.astype(np.int64, copy=False)
            if (idx < 0).any() or (idx >= size).any():
                raise ValueError(f"evidence symbol out of range for variable {var!r}")
            return idx if arr.ndim else one_hot(idx, size)
        if arr.ndim > 2 or arr.shape[-1] != size:
            raise ValueError(f"evidence for {var!r} has shape {arr.shape}, "
                             f"expected (N, {size}) or ({size},)")
        try:
            return normalize(np.asarray(arr, dtype=np.float64))
        except AllZeroVector as exc:
            raise ContradictoryEvidence(f"all-zero soft evidence at {var!r}") from exc
        except ValueError as exc:
            raise ValueError(f"soft evidence for {var!r}: {exc}") from None

    def distinct_rows(self, evidence: Mapping, n_samples: int):
        """Merge the samples whose hard evidence is the same.

        Returns ``(rows, n_rows, inverse)``: evidence for the distinct rows,
        their count, and for each sample the index of its row, so that the
        messages of sample n are row ``inverse[n]`` of ``run(rows,
        n_samples=n_rows)``.  Integer columns are keyed in mixed radix and
        shared values stay as they are.  Evidence with a per-sample soft
        factor, keys that would pass 2**62, or no repeated row comes back
        unmerged, one row per sample.  Pass only evidence that ``run`` or
        ``initial_state`` has accepted for ``n_samples`` samples.
        """
        unmerged = evidence, n_samples, np.arange(n_samples)
        columns = {}
        radix = 1
        for var, value in evidence.items():
            arr = np.asarray(value)
            if arr.ndim == 2:
                return unmerged
            if _is_symbol_column(arr):
                columns[var] = arr.astype(np.int64, copy=False)
                radix *= self.sizes[var]
        if radix > 2**62:
            return unmerged
        keys = np.zeros(n_samples, dtype=np.int64)
        for var, column in columns.items():
            keys = keys * self.sizes[var] + column
        keys, inverse = _merge_keys(keys, radix)
        n_rows = len(keys)
        if n_rows == n_samples:
            return unmerged
        rows = dict(evidence)
        for var in reversed(columns):  # each row's symbols, decoded from its key
            keys, rows[var] = np.divmod(keys, self.sizes[var])
        return rows, n_rows, inverse

    # -- execution -----------------------------------------------------------

    def _parameters(self) -> dict[str, np.ndarray]:
        """Every source prior and block matrix, by node name."""
        params = {s.name: s.prior for s in self.graph.sources}
        params.update({b.name: b.theta for b in self.graph.blocks})
        return params

    def _pass(self, factors: list, params: Mapping[str, np.ndarray], n: int) -> list:
        """Every message by slot number, from ``_evidence_factors`` and the
        parameter of every node: the one-pass sweep of ``run``.  Zero row sums
        (NaN rows downstream) are checked once, after the sweep, in schedule order."""
        msgs = list(factors)
        sums = {}  # each step's row sums by output slot, in schedule order
        by_column = n >= COLUMN_ROWS  # below it _row_sums is np.add.reduce: spare its call
        with np.errstate(divide="ignore", invalid="ignore"):
            for out, kind, name, inputs in self._steps:
                if kind == "prior":
                    msgs[out] = np.repeat(params[name][None], n, 0)
                    continue
                if kind == "siso_f":
                    raw = msgs[inputs[0]] @ params[name]
                elif kind == "siso_b":
                    raw = msgs[inputs[0]] @ params[name].T
                elif len(inputs) == 1:  # a copy: the division below is in place
                    raw = msgs[inputs[0]].copy()
                else:
                    raw = msgs[inputs[0]] * msgs[inputs[1]]
                    for k in inputs[2:]:
                        raw *= msgs[k]
                sums[out] = _row_sums(raw) if by_column else np.add.reduce(raw, 1, keepdims=True)
                msgs[out] = np.divide(raw, sums[out], out=raw)
        if sums and not np.concatenate([*sums.values()]).all():
            out, zero = next((o, s[:, 0] == 0.0) for o, s in sums.items() if not s.all())
            direction, var = self._slots[out]
            raise ContradictoryEvidence(
                f"no consistent {'forward' if direction == 'F' else 'backward'} message "
                f"at variable {var!r} for sample(s) {np.flatnonzero(zero)[:5].tolist()}")
        return msgs

    def run(self, evidence: Mapping | None = None, n_samples: int | None = None) -> MessageState:
        """Propagate evidence and return the complete message state."""
        factors, n, _ = self._evidence_factors(evidence, n_samples)
        return self._to_state(self._pass(factors, self._parameters(), n), n)

    def initial_state(self, evidence: Mapping | None = None, n_samples: int | None = None, *,
                      rng: np.random.Generator) -> MessageState:
        """Unpropagated state: evidence factors in place, and one (N, size)
        uniform draw from ``rng`` at every other slot, rows scaled to unit
        sum.  Slots are drawn in declaration order, ("F", v) then ("B", v)
        for each variable v in turn, and ``rng`` is left after the last."""
        factors, n, _ = self._evidence_factors(evidence, n_samples)
        draws = self._start(factors, n, rng, range(len(self._slots)))
        return self._to_state([draw() if callable(draw) else draw for draw in draws], n)

    def _start(self, factors: list, n: int, rng, slots, keep=None, rows=None) -> list:
        """``initial_state`` by slot number, with a draw at each slot in ``slots``
        (None at the other slots): a function that draws the slot when called.  A
        slot owns the n * size outputs of ``rng``'s stream (one per double) after
        the slots before it, and a draw advances the stream to them modulo 2**128,
        so any order of draws gives ``initial_state``'s bits.  With a row mask
        ``keep``, every draw holds only the kept rows: rows scale one by one, so
        each keeps its bits.  With ``rows``, each sample's row of the factors,
        every evidence slot is a function too, that gathers the kept samples'
        rows; a ``keep`` comes with ``rows``."""
        msgs, lo, hi, inside = list(factors), 0, n, None
        if keep is not None:
            lo, hi = (np.flatnonzero(keep)[[0, -1]] + (0, 1)).tolist()
            inside = None if keep[lo:hi].all() else keep[lo:hi]
        if rows is not None:
            rows = rows[lo:hi] if inside is None else rows[lo:hi][inside]
            msgs = [f if f is None else partial(np.take, f, rows, 0) for f in factors]
        stream, offset, position = rng.bit_generator, 0, [0]

        def draw(start: int, size: int) -> np.ndarray:
            stream.advance((start + lo * size - position[0]) % 2**128)
            position[0] = start + hi * size
            rows = rng.random((hi - lo, size))
            return _normalize_in_place(rows if inside is None else rows[inside])

        for k, (_, var) in enumerate(self._slots):
            if factors[k] is None:
                msgs[k] = partial(draw, offset, self.sizes[var]) if k in slots else None
                offset += n * self.sizes[var]
        return msgs

    def _to_state(self, msgs: list, n: int) -> MessageState:
        forward, backward = {}, {}
        for (direction, var), arr in zip(self._slots, msgs):
            arr.setflags(write=False)
            (forward if direction == "F" else backward)[var] = arr
        return MessageState(forward=forward, backward=backward, n_samples=n)


def _is_symbol_column(arr: np.ndarray) -> bool:
    """An integer vector: one hard symbol per sample."""
    return arr.ndim == 1 and np.issubdtype(arr.dtype, np.integer)


def aggregated_log_likelihood(state: MessageState, terminals: Sequence[str],
                              mask: np.ndarray | None = None) -> float:
    """Sum over terminals and samples of log of the message pair overlap.

    Hard evidence makes each term the log-probability the rest of the
    graph assigns to the observed symbol.  ``mask`` holds finite, nonnegative
    per-sample weights (a 0/1 or boolean mask, or counts of merged rows):
    samples with weight > 0 count, each term multiplied by its weight.
    Any other weight raises ValueError.
    Returns -inf when any counted sample has an impossible evidence
    combination.
    """
    for var in terminals:
        if var not in state.forward:
            raise UnknownVariable(f"unknown terminal {var!r}")
    weights = None if mask is None else np.asarray(mask, dtype=np.float64)
    if weights is not None and weights.shape != (state.n_samples,):
        raise ValueError(f"mask has shape {weights.shape} for {state.n_samples} samples")
    if weights is not None and not np.all((weights >= 0.0) & (weights < np.inf)):
        raise ValueError("mask entries must be finite and nonnegative")
    sel = None if weights is None else weights > 0
    return _log_overlap([np.add.reduce(state.forward[v] * state.backward[v], -1)
                         for v in terminals], sel, None if sel is None else weights[sel])


def _log_overlap(overlaps, sel: np.ndarray | None, weights: np.ndarray | None) -> float:
    """``aggregated_log_likelihood`` on each terminal's per-sample message
    overlap, over the rows ``sel`` selects (None: all) with their float
    ``weights`` (None: 1 each)."""
    total = 0.0
    for overlap in overlaps:
        if sel is not None:
            overlap = overlap[sel]
        if (overlap <= 0.0).any():
            return float("-inf")
        logs = np.log(overlap)
        total += float(np.add.reduce(logs if weights is None else logs * weights))
    return total
