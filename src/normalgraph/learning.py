"""Localized parameter learning for SISO blocks.

Each trainable block sees only the forward messages arriving at its input
edge and the backward messages arriving at its output edge, collected over
the training samples into a BlockDataset.  Four update rules are provided:

* ``ml_update``: multiplicative likelihood ascent; one application is an
  exact EM step for the block-local log-likelihood, so iterating it never
  decreases that likelihood.
* ``kl_update``: multiplicative descent on a generalized divergence
  between the backward messages and the block's forward prediction.
* ``vit_update``: hard-decision counting in the style of Viterbi training;
  each message pair is collapsed to its argmax before co-occurrence
  counting.
* ``var_update``: soft co-occurrence counting (a variational one-shot
  estimate), optionally with prior pseudo-counts.

``em_train`` wires these into the expectation-maximization loop over a
whole graph: propagate all samples, harvest per-block datasets from the
frozen message state, update every trainable block, repeat.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .graph import GraphSpec, SourceBlock
from .messages import max_indicator, normalize
from .propagation import (
    MessageState,
    Propagator,
    aggregated_log_likelihood,
    block_log_likelihood,
)

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
    a 0/1 weight selecting the training samples.
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

    @property
    def n_samples(self) -> int:
        return self.forward.shape[0]


def _floored(data: BlockDataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    f = np.maximum(data.forward, MESSAGE_FLOOR)
    b = np.maximum(data.backward, MESSAGE_FLOOR)
    return f, b, data.mask


def _finish_rows(raw: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """Row-normalize; a row without mass takes the same row of ``fallback``.

    The iterative rules fall back to the previous matrix, so an empty row
    keeps its old value; the batch counting rules fall back to all ones,
    so an empty row becomes uniform.
    """
    sums = raw.sum(axis=1, keepdims=True)
    empty = sums[:, 0] <= 0.0
    if np.any(empty):
        raw = np.where(empty[:, None], fallback, raw)
        sums = raw.sum(axis=1, keepdims=True)
    return raw / sums


def _likelihood_masses(theta: np.ndarray, data: BlockDataset) -> tuple[np.ndarray, np.ndarray]:
    """Pair mass, sum over masked samples of f(l) b(m) / (f' theta b), and
    row mass, sum over masked samples of f(l), of the block likelihood."""
    f, b, mask = _floored(data)
    scores = np.einsum("nl,lm,nm->n", f, theta, b)
    weights = np.divide(mask, scores, out=np.zeros_like(scores), where=mask > 0)
    pair_mass = (f * weights[:, None]).T @ b
    row_mass = mask @ f
    return pair_mass, row_mass


def _rescaled(theta: np.ndarray, pair_mass: np.ndarray, row_mass: np.ndarray) -> np.ndarray:
    """theta scaled by pair_mass / row_mass and renormalized; a row with no
    forward mass keeps its previous value."""
    raw = np.divide(theta * pair_mass, row_mass[:, None],
                    out=np.zeros_like(theta), where=row_mass[:, None] > 0)
    return _finish_rows(raw, theta)


def ml_update(theta: np.ndarray, data: BlockDataset) -> np.ndarray:
    """One multiplicative likelihood-ascent step.

    theta[l, m] is scaled by the mask-weighted sum over samples of
    f(l) b(m) / (f' theta b), divided by the row's total forward mass, and
    the rows are then renormalized.  Equivalent to one EM step on the
    block-local likelihood, so repeated application climbs monotonically.
    """
    theta = np.asarray(theta, dtype=np.float64)
    pair_mass, row_mass = _likelihood_masses(theta, data)
    return _rescaled(theta, pair_mass, row_mass)


def kl_update(theta: np.ndarray, data: BlockDataset) -> np.ndarray:
    """One multiplicative divergence-descent step.

    Differs from ml_update in the per-sample denominator: each output
    symbol m is weighted by the predicted forward mass sum_i theta[i, m]
    f(i) instead of the full bilinear score.  Monotonically decreases the
    generalized divergence of the backward messages from the prediction.
    """
    theta = np.asarray(theta, dtype=np.float64)
    f, b, mask = _floored(data)
    ratio = b / np.maximum(f @ theta, MESSAGE_FLOOR)
    pair_mass = (mask[:, None] * f).T @ ratio
    row_mass = mask @ f
    return _rescaled(theta, pair_mass, row_mass)


def vit_update(data: BlockDataset, delta: float = 1e-6) -> np.ndarray:
    """Hard-decision co-occurrence estimate.

    Every message pair is collapsed to argmax indicators (ties to the
    lowest index) padded by ``delta``, and the indicator outer products are
    accumulated over the masked samples and row-normalized.
    """
    e_in = max_indicator(data.forward, delta)
    e_out = max_indicator(data.backward, delta)
    raw = (data.mask[:, None] * e_in).T @ e_out
    return _finish_rows(raw, np.ones_like(raw))


def var_update(data: BlockDataset, delta: float = 1e-6,
               alpha: np.ndarray | None = None) -> np.ndarray:
    """Soft co-occurrence estimate.

    Accumulates the outer products of the raw message pairs over the masked
    samples, adds ``delta`` everywhere plus optional pseudo-counts
    ``alpha``, and row-normalizes.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    raw = (data.mask[:, None] * data.forward).T @ data.backward
    raw = raw + delta
    if alpha is not None:
        raw = raw + np.asarray(alpha, dtype=np.float64)
    return _finish_rows(raw, np.ones_like(raw))


def generalized_divergence(theta: np.ndarray, data: BlockDataset) -> float:
    """Mass-regularized divergence between backward messages and prediction.

    For prediction q = theta' f this is the masked sum over samples of
    sum_m b(m) log(b(m) / q(m)) + sum_m q(m).  It is the objective that
    kl_update descends; on row-stochastic theta the regularizer is constant.
    """
    theta = np.asarray(theta, dtype=np.float64)
    f, b, mask = _floored(data)
    predicted = f @ theta
    if np.any((b > 0) & (predicted == 0.0) & (mask[:, None] > 0)):
        return float("inf")
    ratio = np.divide(b, predicted, out=np.ones_like(b), where=(b > 0) & (predicted > 0))
    entropy_terms = np.sum(np.where(b > 0, b * np.log(ratio), 0.0), axis=1)
    return float(mask @ (entropy_terms + predicted.sum(axis=1)))


def kkt_multipliers(theta: np.ndarray, data: BlockDataset) -> np.ndarray:
    """Lagrange multipliers of the nonnegativity constraints.

    At a constrained maximum of the block-local likelihood these are
    nonnegative and vanish on the support of theta (complementary
    slackness), which is what the stationarity tests check.
    """
    theta = np.asarray(theta, dtype=np.float64)
    pair_mass, row_mass = _likelihood_masses(theta, data)
    return row_mass[:, None] - pair_mass


def train_block(theta: np.ndarray, data: BlockDataset, cfg: "TrainConfig") -> np.ndarray:
    """Train one block on its dataset and return the new matrix.

    ``theta`` is the block's current matrix; a source prior enters as a
    1 x M row with constant unit input.  The iterative rules (ml, kl)
    start from it and apply ``cfg.nit`` steps; the counting rules (vit,
    var) ignore it.
    """
    if cfg.algorithm == "ml":
        for _ in range(cfg.nit):
            theta = ml_update(theta, data)
    elif cfg.algorithm == "kl":
        for _ in range(cfg.nit):
            theta = kl_update(theta, data)
    elif cfg.algorithm == "vit":
        theta = vit_update(data, cfg.delta)
    else:
        theta = var_update(data, cfg.delta)
    return theta


@dataclass
class TrainConfig:
    """Knobs for em_train and train_block, checked on construction."""

    algorithm: str = "ml"
    epochs: int = 60
    nit: int = 3
    delta: float = 1e-6
    seed: int = 1
    tol: float | None = None
    record_coefficients: bool = False

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be nonnegative, got {self.epochs}")
        if self.nit < 1:
            raise ValueError(f"nit must be at least 1, got {self.nit}")
        if not self.delta >= 0:
            raise ValueError(f"delta must be nonnegative, got {self.delta}")


@dataclass
class EpochRecord:
    epoch: int
    train_loglik: float
    test_loglik: float
    wall_ms: float


@dataclass
class TrainReport:
    """Outcome of one em_train run."""

    algorithm: str
    records: list[EpochRecord]
    graph: GraphSpec
    seed: int
    snapshots: dict[int, dict[str, np.ndarray]] | None = None

    @property
    def final_train_loglik(self) -> float:
        return self.records[-1].train_loglik if self.records else float("nan")

    @property
    def final_test_loglik(self) -> float:
        return self.records[-1].test_loglik if self.records else float("nan")


def _harvest(state: MessageState, unit, mask: np.ndarray) -> BlockDataset:
    if isinstance(unit, SourceBlock):
        backward = state.backward[unit.variable]
        forward = np.ones((backward.shape[0], 1))
        return BlockDataset(forward=forward, backward=backward, mask=mask)
    return BlockDataset(
        forward=state.forward[unit.from_var],
        backward=state.backward[unit.to_var],
        mask=mask,
    )


def em_train(graph: GraphSpec, samples: Mapping[str, np.ndarray],
             cfg: TrainConfig, mask: np.ndarray | None = None) -> TrainReport:
    """Expectation-maximization over all trainable blocks of a graph.

    Parameters
    ----------
    graph:
        Validated graph; trainable matrices and priors are reinitialized to
        uniform rows before the first epoch, so their stored values only
        provide shapes.
    samples:
        Mapping from terminal variable name to its evidence: any evidence
        ``Propagator.run`` accepts, which fixes the sample count N.
    cfg:
        Algorithm and schedule.  ``cfg.seed`` drives the random initial
        messages that break the label symmetry of the latent variables.
    mask:
        Optional 0/1 array of length N selecting the training samples.
        Unselected samples still propagate and are scored as the test set.

    The first M-step consumes the randomly initialized message state; each
    subsequent epoch consumes the exact propagation of the previous
    epoch's parameters, and the per-epoch log-likelihoods are measured
    after the update.  All blocks within an epoch see the same frozen
    message snapshot.
    """
    terminals = tuple(samples.keys())
    if not terminals:
        raise ValueError("no terminal samples given")

    propagator = Propagator(graph)
    units = graph.trainable_units()
    parameters: dict[str, np.ndarray] = {}
    for unit in units:
        shape = (unit.prior if isinstance(unit, SourceBlock) else unit.theta).shape
        parameters[unit.name] = np.full(shape, 1.0 / shape[-1])

    rng = np.random.default_rng(cfg.seed)
    if mask is None:
        state = propagator.initial_state(samples, rng=rng)
        mask = np.ones(state.n_samples, dtype=np.float64)
    else:
        mask = np.asarray(mask, dtype=np.float64).reshape(-1)
        state = propagator.initial_state(samples, n_samples=len(mask), rng=rng)
    holdout = mask <= 0
    has_split = bool(np.any(holdout))

    records: list[EpochRecord] = []
    snapshots: dict[int, dict[str, np.ndarray]] | None = (
        {} if cfg.record_coefficients else None
    )
    previous_ll = None
    for epoch in range(1, cfg.epochs + 1):
        started = time.perf_counter()
        updates: dict[str, np.ndarray] = {}
        for unit in units:
            data = _harvest(state, unit, mask)
            if isinstance(unit, SourceBlock):
                row = parameters[unit.name].reshape(1, -1)
                updates[unit.name] = train_block(row, data, cfg).reshape(-1)
            else:
                updates[unit.name] = train_block(parameters[unit.name], data, cfg)
        parameters.update(updates)
        state = propagator.run(samples, n_samples=len(mask), parameters=parameters)
        train_ll = aggregated_log_likelihood(state, terminals, mask > 0)
        test_ll = (
            aggregated_log_likelihood(state, terminals, holdout)
            if has_split else train_ll
        )
        wall_ms = (time.perf_counter() - started) * 1e3
        records.append(EpochRecord(epoch, train_ll, test_ll, wall_ms))
        if snapshots is not None:
            snapshots[epoch] = {name: value.copy() for name, value in parameters.items()}
        if cfg.tol is not None and previous_ll is not None:
            if abs(train_ll - previous_ll) < cfg.tol:
                break
        previous_ll = train_ll

    learned = graph.with_parameters(parameters)
    return TrainReport(
        algorithm=cfg.algorithm,
        records=records,
        graph=learned,
        seed=cfg.seed,
        snapshots=snapshots,
    )
