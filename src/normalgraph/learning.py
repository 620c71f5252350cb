"""Localized parameter learning for SISO blocks.

Each trainable block sees only the forward messages arriving at its input
edge and the backward messages arriving at its output edge, collected over
the training samples into a BlockDataset.  Four update rules are provided:

* ``ml_update``: multiplicative likelihood ascent; one application is an
  exact EM step for the block-local log-likelihood, so iterating it never
  decreases that likelihood.
* ``kl_update``: multiplicative descent on a generalized divergence
  between the backward messages and the block's forward prediction.
* ``vit_update``: hard decisions in the style of Viterbi training, a
  count of argmax pairs: each message pair is collapsed to its pair of
  argmax symbols (l, m), and the pairs are counted.
* ``var_update``: soft co-occurrence counting (a variational one-shot
  estimate).

Each rule is one kernel on a stack of blocks.  The kernels allocate only
what they read: ml and kl floor a copy of a message only when it has an
entry below MESSAGE_FLOOR, and kl and var skip the multiply by weights that
are all 1.0, as in em_train on rows that do not merge, with none held out.
``em_train`` runs the expectation-maximization loop over a whole graph; each
of its epochs (``_Epochs.step``) updates every block through the rule's
kernel, then propagates all samples and scores them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .graph import GraphSpec, SourceBlock
from .messages import (_column_sums, _first_peak, _normalize_in_place, _require_count,
                       _require_delta, normalize)
from .propagation import Propagator, _log_overlap

__all__ = [
    "BlockDataset",
    "TrainConfig",
    "EpochRecord",
    "TrainReport",
    "ml_update",
    "kl_update",
    "vit_update",
    "var_update",
    "train_block",
    "em_train",
    "generalized_divergence",
    "kkt_multipliers",
    "block_log_likelihood",
    "ALGORITHMS",
]

ALGORITHMS = ("ml", "kl", "vit", "var")

# Message entries are floored here before the multiplicative updates so
# that ratios of vanishing messages stay finite.
MESSAGE_FLOOR = 1e-300


@dataclass
class BlockDataset:
    """Per-sample message pairs incident to one block.

    ``forward[n]`` is the normalized message entering the input edge,
    ``backward[n]`` the one entering from the output side, and ``mask[n]``
    the sample's nonnegative, finite weight: 0 leaves it out of training.
    """

    forward: np.ndarray
    backward: np.ndarray
    mask: np.ndarray = None

    def __post_init__(self):
        self.forward = normalize(np.asarray(self.forward, dtype=np.float64))
        self.backward = normalize(np.asarray(self.backward, dtype=np.float64))
        if self.forward.ndim != 2 or self.backward.ndim != 2:
            raise ValueError("expected (n_samples, alphabet) message arrays")
        if self.forward.shape[0] != self.backward.shape[0]:
            raise ValueError("forward and backward sample counts differ")
        if self.mask is None:
            self.mask = np.ones(self.forward.shape[0], dtype=np.float64)
        else:
            self.mask = np.asarray(self.mask, dtype=np.float64).reshape(-1)
            if self.mask.shape[0] != self.forward.shape[0]:
                raise ValueError("mask length does not match sample count")
            if not np.all(np.isfinite(self.mask) & (self.mask >= 0.0)):
                raise ValueError("mask entries must be finite and nonnegative")


def _finish_rows(raw: np.ndarray, fallback, live: np.ndarray) -> np.ndarray:
    """Row-normalize; a row without mass takes the same row of ``fallback``.

    The iterative rules fall back to the previous matrix, so an empty row
    keeps its old value unless that is empty too; then, as in the batch
    counting rules, it falls back to ``live``, ones on the real entries, and
    becomes uniform.  A padded row (0 in ``live``) is never empty: it stays 0.
    """
    padded = 1.0 - live[..., :1]
    sums = np.add.reduce(raw, -1, keepdims=True) + padded
    empty = sums <= 0.0
    if empty.any():
        fallback = np.where(fallback.sum(axis=-1, keepdims=True) > 0.0, fallback, live)
        raw = np.where(empty, fallback, raw)
        sums = raw.sum(axis=-1, keepdims=True) + padded
    return raw / sums


def _bilinear(f: np.ndarray, theta: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The score f_n' theta b_n of every row n: the matrix product f theta,
    then a row-wise dot product with b."""
    return np.einsum("...nm,...nm->...n", f @ theta, b)


def _checked(theta, data: BlockDataset, rule: str = "ml") -> np.ndarray | None:
    """``theta`` as a float matrix of ``data``'s (L, M) shape with finite, nonnegative
    entries, or None where ``rule`` ignores it (vit, var); anything else: ValueError."""
    if theta is None and rule in ("vit", "var"):
        return None
    arr = np.asarray(theta, dtype=np.float64)
    expected = (data.forward.shape[1], data.backward.shape[1])
    if arr.shape != expected:  # None reads as a 0-d NaN
        got = None if theta is None else arr.shape
        raise ValueError(f"theta must have shape {expected}, got {got}")
    if not np.all((arr >= 0.0) & (arr < np.inf)):
        raise ValueError("theta entries must be finite and nonnegative")
    return arr


def block_log_likelihood(theta: np.ndarray, data: BlockDataset) -> float:
    """Masked log-likelihood of one block against its incident messages:
    the sum of log f' theta b over the samples ``data.mask`` selects, or
    -inf if any of them scores zero."""
    scores = _bilinear(data.forward, _checked(theta, data), data.backward)
    return _log_overlap([scores], data.mask > 0, None)


def _pair_mass(theta: np.ndarray, f: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Sum over weighted samples of f(l) b(m) / (f' theta b), on floored
    messages: the pair mass of the block likelihood."""
    scores = _bilinear(f, theta, b)
    weights = np.divide(w, scores, out=np.zeros(scores.shape), where=w > 0)
    return (f * weights[..., None]).swapaxes(-1, -2) @ b


def _rescaled(theta: np.ndarray, pair_mass: np.ndarray, row_mass: np.ndarray,
              live: np.ndarray) -> np.ndarray:
    """theta scaled by pair_mass / row_mass and renormalized; a row with no
    forward mass keeps its previous value."""
    raw = np.divide(theta * pair_mass, row_mass[..., None],
                    out=np.zeros(theta.shape), where=row_mass[..., None] > 0)
    return _finish_rows(raw, theta, live)


def _floored(x: np.ndarray) -> np.ndarray:
    """``x`` with its entries below MESSAGE_FLOOR raised to it: a copy only
    when there is such an entry, else ``x`` itself."""
    return np.maximum(x, MESSAGE_FLOOR) if x.min(initial=np.inf) < MESSAGE_FLOOR else x


def _weighted(f: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The (U, L, n) transpose of f's rows scaled by w: of f itself when every
    weight is 1.0, as 1.0 x is x."""
    return (f if (w == 1.0).all() else w[:, None] * f).swapaxes(-1, -2)


# One kernel per rule, on a stack of U units: (U, L, M) parameters, (U, n, L)
# forward and (U, n, M) backward messages, n weights, and ``live``, 1.0 on the
# (U, L, M) entries that are not zero padding.  No kernel writes into its
# inputs: ml and kl floor copies of their messages where an entry is below the
# floor, and read them as given otherwise; a floored padded message meets only
# padded, zero, parameters.  Padded entries come out 0.

def _ml(theta, f, b, w, nit: int, live) -> np.ndarray:
    f, b = _floored(f), _floored(b)
    row_mass = w @ f
    for _ in range(nit):
        theta = _rescaled(theta, _pair_mass(theta, f, b, w), row_mass, live)
    return theta


def _kl(theta, f, b, w, nit: int, live) -> np.ndarray:
    f, b = _floored(f), _floored(b)
    row_mass, weighted, ratio = w @ f, _weighted(f, w), np.empty(b.shape)
    for _ in range(nit):
        np.maximum(np.matmul(f, theta, out=ratio), MESSAGE_FLOOR, out=ratio)
        theta = _rescaled(theta, weighted @ np.divide(b, ratio, out=ratio), row_mass, live)
    return theta


def _vit(theta, f, b, w, delta: float, live) -> np.ndarray:
    # C, the weighted count of each unit's argmax pairs (l, m), from one bincount; the
    # delta-padded indicators' products sum to C + delta (r 1' + 1 c') + delta**2 sum(w).
    units, (size_l, size_m) = np.arange(len(live))[:, None], live.shape[1:]
    cells = ((units * size_l + _first_peak(f)) * size_m + _first_peak(b)).ravel()
    count = np.bincount(cells, np.broadcast_to(w, f.shape[:2]).ravel(), live.size)
    count = count.reshape(live.shape)
    raw = count + delta * (count.sum(-1)[..., None] + count.sum(-2)[..., None, :])
    raw += delta * delta * w.sum()
    return _finish_rows(raw * live, live, live)


def _var(theta, f, b, w, delta: float, live) -> np.ndarray:
    raw = _weighted(f, w) @ b + delta * live
    return _finish_rows(raw, live, live)


def _rule(cfg: "TrainConfig"):
    """The kernel of ``cfg``'s rule and the setting it takes (nit or delta)."""
    return {"ml": (_ml, cfg.nit), "kl": (_kl, cfg.nit), "vit": (_vit, cfg.delta),
            "var": (_var, cfg.delta)}[cfg.algorithm]


def _unit(kernel, setting, shape, theta, f, b, w) -> np.ndarray:
    """``kernel`` on one (L, M) unit, unpadded: ``theta`` (or None), and (n, L)
    and (n, M) port messages, given to it in C order (the kernels' sums follow it)."""
    theta = None if theta is None else theta.reshape(1, *shape)
    return kernel(theta, np.ascontiguousarray(f)[None], np.ascontiguousarray(b)[None], w,
                  setting, np.ones((1, *shape)))[0]


def ml_update(theta: np.ndarray, data: BlockDataset) -> np.ndarray:
    """One multiplicative likelihood-ascent step.

    theta[l, m] is scaled by the mask-weighted sum over samples of
    f(l) b(m) / (f' theta b), divided by the row's total forward mass, and
    the rows are then renormalized.  Equivalent to one EM step on the
    block-local likelihood, so repeated application climbs monotonically.
    """
    return train_block(theta, data, TrainConfig("ml", nit=1))


def kl_update(theta: np.ndarray, data: BlockDataset) -> np.ndarray:
    """One multiplicative divergence-descent step.

    Differs from ml_update in the per-sample denominator: each output
    symbol m is weighted by the predicted forward mass sum_i theta[i, m]
    f(i) instead of the full bilinear score.  Monotonically decreases the
    generalized divergence of the backward messages from the prediction.
    """
    return train_block(theta, data, TrainConfig("kl", nit=1))


def vit_update(data: BlockDataset, delta: float = 1e-6) -> np.ndarray:
    """Hard-decision co-occurrence estimate: a count of argmax pairs.

    Each sample's pair of argmax symbols (l, m) (ties to the lowest index)
    is counted with its mask weight.  Indicators padded by ``delta`` add
    delta (r_l + c_m) + delta**2 sum(mask) to count (l, m), for r and c the
    count's row and column sums; the rows are then normalized.
    """
    return train_block(None, data, TrainConfig("vit", delta=delta))


def var_update(data: BlockDataset, delta: float = 1e-6) -> np.ndarray:
    """Soft co-occurrence estimate.

    Accumulates the outer products of the raw message pairs over the masked
    samples, adds ``delta`` everywhere, and row-normalizes.
    """
    return train_block(None, data, TrainConfig("var", delta=delta))


def generalized_divergence(theta: np.ndarray, data: BlockDataset) -> float:
    """Mass-regularized divergence between backward messages and prediction.

    For prediction q = theta' f this is the masked sum over samples of
    sum_m b(m) log(b(m) / q(m)) + sum_m q(m).  It is the objective that
    kl_update descends; on row-stochastic theta the regularizer is constant.
    """
    theta = _checked(theta, data)
    f, b = _floored(data.forward), _floored(data.backward)
    predicted = f @ theta
    if np.any((b > 0) & (predicted == 0.0) & (data.mask[:, None] > 0)):
        return float("inf")
    ratio = np.divide(b, predicted, out=np.ones_like(b), where=(b > 0) & (predicted > 0))
    entropy_terms = np.sum(np.where(b > 0, b * np.log(ratio), 0.0), axis=1)
    return float(data.mask @ (entropy_terms + predicted.sum(axis=1)))


def kkt_multipliers(theta: np.ndarray, data: BlockDataset) -> np.ndarray:
    """Lagrange multipliers of the nonnegativity constraints.

    At a constrained maximum of the block-local likelihood these are
    nonnegative and vanish on the support of theta (complementary
    slackness), which is what the stationarity tests check.
    """
    theta = _checked(theta, data)
    f, b = _floored(data.forward), _floored(data.backward)
    return (data.mask @ f)[:, None] - _pair_mass(theta, f, b, data.mask)


def train_block(theta: np.ndarray, data: BlockDataset, cfg: "TrainConfig") -> np.ndarray:
    """Train one block on its dataset and return the new matrix.

    ``theta`` is the block's current matrix; a source prior enters as a
    1 x M row with constant unit input.  The iterative rules (ml, kl)
    start from it and apply ``cfg.nit`` steps; the counting rules (vit,
    var) ignore it, and it may be None.  The rule's kernel sees the block
    as a stack of one unit without padding.
    """
    shape = (data.forward.shape[1], data.backward.shape[1])
    theta = _checked(theta, data, cfg.algorithm)
    return _unit(*_rule(cfg), shape, theta, data.forward, data.backward, data.mask)


@dataclass
class TrainConfig:
    """Knobs for em_train and train_block, checked on construction."""

    algorithm: str = "ml"
    epochs: int = 60
    nit: int = 3
    delta: float = 1e-6
    seed: int = 1
    tol: float | None = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        _require_count("epochs", self.epochs)
        _require_count("nit", self.nit, 1)
        _require_count("seed", self.seed)
        if self.tol is not None and not 0.0 < self.tol < np.inf:
            raise ValueError(f"tol must be finite and above 0, got {self.tol}")
        _require_delta(self.delta)


@dataclass
class EpochRecord:
    """One epoch of em_train: the scores after its update, and the
    trainable parameters its M-step returned, by unit name."""

    epoch: int
    train_loglik: float
    test_loglik: float
    wall_ms: float
    parameters: dict[str, np.ndarray]


@dataclass
class TrainReport:
    """Outcome of one em_train run."""

    records: list[EpochRecord]
    graph: GraphSpec

    @property
    def final_train_loglik(self) -> float:
        return self.records[-1].train_loglik if self.records else float("nan")

    @property
    def final_test_loglik(self) -> float:
        return self.records[-1].test_loglik if self.records else float("nan")


# Every trainable unit goes into one zero-padded M-step call while the
# stacked messages hold at most this many entries, U n (L_max + M_max);
# above it each unit trains alone, unpadded.  On the deep graph (U = 8,
# L_max + M_max = 16) stacking is faster for every rule up to n = 256 rows,
# ties or loses at 384-512 and is slower from n = 768 on.
STACK_ENTRIES = 32768


class _Epochs:
    """``em_train``'s epochs on a graph's ``units``, with ``cfg``'s rule bound
    once and the evidence encoded on its ``Propagator.distinct_rows``, so that
    each propagation runs once per distinct row and names the samples of a
    contradiction through the row map.  Unit u trains an (L_u, M_u) matrix (a
    source's prior as a 1 x M row with input 1) on its (n, L_u) forward and
    (n, M_u) backward port messages by ``kernel(theta, f, b, weights,
    setting, live)``; all units of an epoch read the same messages.
    The start is random parameters: each unit's rows drawn uniform from
    ``rng``, unit by unit, and scaled to unit sum, then propagated once.  Every
    M-step, the first included, reads the propagation of the last parameters,
    weighting each distinct row by its count of training samples.  At
    ``cfg.nit`` = 1 an ml epoch is an EM step, so the training joint never
    falls; at more, each unit climbs its own likelihood as if no other moved,
    and the joint can fall."""

    def __init__(self, propagator: Propagator, evidence: Mapping, mask: np.ndarray | None, rng,
                 units, terminals, cfg: TrainConfig):
        factors, n, inverse = propagator._evidence_factors(
            evidence, None if mask is None else len(mask), merge=True)
        self._propagator, self._factors, self._inverse = propagator, factors, inverse
        self._rule = _rule(cfg)
        slot = propagator._slot
        self._ports = [(None, slot[("B", u.variable)]) if isinstance(u, SourceBlock)
                       else (slot[("F", u.from_var)], slot[("B", u.to_var)]) for u in units]
        self._scored = [(slot[("F", v)], slot[("B", v)]) for v in terminals]
        shapes = [u.prior.shape if isinstance(u, SourceBlock) else u.theta.shape for u in units]
        self.parameters = {u.name: _normalize_in_place(rng.random(s))
                           for u, s in zip(units, shapes)}
        self._params = {**propagator._params, **self.parameters}
        self._shapes = [(1, *s) if len(s) == 1 else s for s in shapes]
        self._live = np.zeros((len(units), *np.maximum.reduce([(1, 1), *self._shapes])))
        for u, (l, m) in enumerate(self._shapes):  # 1.0 on each unit's real entries
            self._live[u, :l, :m] = 1.0
        mask = np.ones(n) if mask is None else mask
        self._train = np.bincount(inverse, weights=mask > 0)
        test = np.bincount(inverse, weights=mask <= 0)
        splits = (self._train, test) if test.any() else (self._train,)
        self._splits = [(w > 0, w[w > 0]) for w in splits]  # each split's rows, selected once
        self._msgs = dict.fromkeys(sorted({k for u in self._ports for k in u} - {None}))
        self._propagate()  # fills each port's message under the drawn start

    def _propagate(self) -> list:
        """Every message of the distinct rows under the current parameters, by
        slot; each port's (rows, size) view is kept for the next M-step."""
        msgs = self._propagator._pass(self._factors, self._params, len(self._train), self._inverse)
        self._msgs = {k: msgs[k].T for k in self._msgs}
        return msgs

    def step(self) -> tuple[dict, float, float]:
        """One epoch: the M-step on all units in one zero-padded stack within
        ``STACK_ENTRIES``, else one unpadded unit per call, then propagation.
        Returns the new parameters by unit name and the terminals'
        ``aggregated_log_likelihood`` under them on the training rows and on
        the held-out rows (the training score when none is held out)."""
        (kernel, setting), weights = self._rule, self._train
        live, msgs, n = self._live, self._msgs, len(weights)
        units = zip(self._ports, self._shapes, self.parameters.values())
        if len(live) > 1 and len(live) * n * sum(live.shape[1:]) <= STACK_ENTRIES:
            theta = np.zeros(live.shape)
            f, b = np.zeros((len(live), n, live.shape[1])), np.zeros((len(live), n, live.shape[2]))
            for u, ((kf, kb), (l, m), p) in enumerate(units):
                theta[u, :l, :m], b[u, :, :m] = p, msgs[kb]
                f[u, :, :l] = 1.0 if kf is None else msgs[kf]
            trained = kernel(theta, f, b, weights, setting, live)
        else:
            trained = [_unit(kernel, setting, shape, p, np.ones((n, 1)) if kf is None else msgs[kf],
                             msgs[kb], weights) for (kf, kb), shape, p in units]
        updates = {name: theta[:l, :m].reshape(p.shape) for (name, p), theta, (l, m)
                   in zip(self.parameters.items(), trained, self._shapes)}
        self.parameters.update(updates)
        self._params.update(updates)
        msgs = self._propagate()
        overlaps = [_column_sums(msgs[f] * msgs[b]) for f, b in self._scored]
        scores = [_log_overlap(overlaps, *split) for split in self._splits]
        return updates, scores[0], scores[-1]


def em_train(graph: GraphSpec, samples: Mapping[str, np.ndarray],
             cfg: TrainConfig, mask: np.ndarray | None = None) -> TrainReport:
    """Expectation-maximization over all trainable blocks of ``graph``.

    Trainable matrices and priors restart from random rows, each drawn
    uniform from a generator seeded ``cfg.seed`` and scaled to unit sum, so
    their stored values give only shapes; the draw breaks the label symmetry
    of the latent variables, and with ``cfg.epochs`` = 0 it is what the
    report's graph holds.  ``samples`` maps each terminal to any evidence
    ``Propagator.run`` accepts, which fixes the sample count N.  ``mask``,
    an optional 0/1 array of length N, selects the training samples, at
    least one for N > 0; the others still propagate and are scored as the
    test set.  ``_Epochs`` runs the epochs; each record holds the
    log-likelihoods measured after its epoch's update.
    """
    terminals = tuple(samples.keys())
    if not terminals:
        raise ValueError("no terminal samples given")
    if mask is not None:
        mask = np.asarray(mask, dtype=np.float64).reshape(-1)
        if not np.all((mask == 0.0) | (mask == 1.0)):
            raise ValueError("mask entries must be 0 or 1")
        if mask.size and not mask.any():
            raise ValueError("mask selects no training sample")
    epochs = _Epochs(Propagator(graph), samples, mask, np.random.default_rng(cfg.seed),
                     graph.trainable_units(), terminals, cfg)

    records: list[EpochRecord] = []
    previous_ll = None
    for epoch in range(1, cfg.epochs + 1):
        started = time.perf_counter()
        updates, train_ll, test_ll = epochs.step()
        wall_ms = (time.perf_counter() - started) * 1e3
        records.append(EpochRecord(epoch, train_ll, test_ll, wall_ms, updates))
        if cfg.tol is not None and previous_ll is not None:
            if abs(train_ll - previous_ll) < cfg.tol:
                break
        previous_ll = train_ll

    return TrainReport(records, graph.with_parameters(epochs.parameters))
