"""Message algebra for discrete belief propagation.

A message is a numpy vector of nonnegative reals over a finite symbol
alphabet.  All functions here operate on the last axis, so a 2-D array is
treated as a batch of messages (one row per sample).  Proportionality is
the only thing that matters to inference, so messages are kept normalized
to unit sum throughout.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "AllZeroVector",
    "normalize",
    "hadamard_posterior",
    "sharpen",
    "max_indicator",
    "uniform",
    "one_hot",
    "is_normalized",
]

# Rows whose sum is already this close to 1 are returned unchanged, which
# makes normalize exactly idempotent while keeping sums within 1e-12.
_SUM_SLACK = 1e-13

# max_indicator treats entries this close to the row maximum as ties.
TIE_RTOL = 1e-12


class AllZeroVector(ValueError):
    """A message with no support cannot be normalized."""


def _require_finite_nonnegative(name: str, value: float) -> None:
    """Reject a rule parameter outside [0, inf), NaN included."""
    if not 0.0 <= value < np.inf:
        raise ValueError(f"{name} must be nonnegative and finite, got {value}")


# The largest pseudocount the counting rules accept.  Up to it a row of a
# count table sums to at most (1 + delta)**2 N M, which stays finite for any
# N < 2**63 and any alphabet size M below 1e89.
MAX_DELTA = 1e100


def _require_delta(delta: float) -> None:
    """The one check of a counting rule's ``delta``: in [0, MAX_DELTA]."""
    _require_finite_nonnegative("delta", delta)
    if delta > MAX_DELTA:
        raise ValueError(f"delta must be at most {MAX_DELTA:g}, got {delta}")


def normalize(values: np.ndarray) -> np.ndarray:
    """Scale each row to unit sum.

    Raises ValueError on a negative or non-finite entry, and
    AllZeroVector if any row sums to zero.  Rows already within
    1e-13 of unit sum are passed through untouched, so the function is
    exactly idempotent.
    """
    values = np.asarray(values, dtype=np.float64)
    if not np.all((values >= 0.0) & (values < np.inf)):
        raise ValueError("messages must be nonnegative and finite")
    return _normalize_in_place(values.copy())


def _normalize_in_place(values: np.ndarray) -> np.ndarray:
    """``normalize`` for a float64 array already known to be nonnegative,
    such as fresh uniform draws: the rows are scaled in ``values`` itself."""
    sums = np.add.reduce(values, -1, keepdims=True)  # np.sum's own reduction
    if not sums.all():
        raise AllZeroVector("cannot normalize a vector with zero total mass")
    off = np.abs(sums - 1.0) > _SUM_SLACK
    if not off.all():
        sums[~off] = 1.0  # x / 1.0 is x, bit for bit
    return np.divide(values, sums, out=values)


def hadamard_posterior(forward: np.ndarray, backward: np.ndarray) -> np.ndarray:
    """Combine opposite-direction messages into a posterior.

    The posterior on an edge is the normalized elementwise product of the
    forward and backward messages meeting there.  Raises AllZeroVector when
    the two have disjoint support.
    """
    forward = np.asarray(forward, dtype=np.float64)
    backward = np.asarray(backward, dtype=np.float64)
    if forward.shape[-1] != backward.shape[-1]:
        raise ValueError(
            f"alphabet mismatch: {forward.shape[-1]} vs {backward.shape[-1]}"
        )
    return normalize(forward * backward)


def sharpen(values: np.ndarray, exponent: float) -> np.ndarray:
    """Raise each entry to ``exponent`` and renormalize.

    Exponent 1 is the identity, large exponents approach the delta on the
    argmax, and 0 flattens to uniform.
    """
    _require_finite_nonnegative("exponent", exponent)
    values = np.asarray(values, dtype=np.float64)
    if exponent == 1.0:
        return normalize(values)
    if np.any(values.sum(axis=-1) <= 0.0) or np.any(values < 0):
        return normalize(values)  # delegate the error reporting
    # Powers are taken relative to each row's peak so that large exponents
    # cannot underflow the whole row to zero.
    with np.errstate(divide="ignore"):
        logs = np.log(values)
    peak = logs.max(axis=-1, keepdims=True)
    return normalize(np.exp(exponent * (logs - peak)))


def max_indicator(values: np.ndarray) -> np.ndarray:
    """0/1 indicator of each row's argmax, as a new float array.

    Entries within ``TIE_RTOL`` (relative) of the row maximum count as
    tied, and ties resolve to the lowest index, so the choice does not
    depend on how the last bits of a message were rounded.
    """
    values = np.asarray(values, dtype=np.float64)
    # The row peak column by column: a reduction over a short last axis costs per row.
    peak = functools.reduce(np.maximum, np.moveaxis(values, -1, 0))[..., None]
    best = np.argmax(values >= peak - TIE_RTOL * np.abs(peak), axis=-1)
    out = np.zeros(values.shape)
    np.put_along_axis(out, best[..., None], 1.0, axis=-1)
    return out


def uniform(size: int) -> np.ndarray:
    """The uniform distribution over ``size`` symbols."""
    if size < 1:
        raise ValueError("alphabet size must be positive")
    return np.full(size, 1.0 / size, dtype=np.float64)


def one_hot(index: int | np.ndarray, size: int) -> np.ndarray:
    """Delta distribution(s) concentrated at ``index``."""
    index = np.asarray(index)
    if np.any(index < 0) or np.any(index >= size):
        raise IndexError(f"symbol index out of range for alphabet of size {size}")
    out = np.zeros(index.shape + (size,), dtype=np.float64)
    np.put_along_axis(out, np.expand_dims(index, axis=-1), 1.0, axis=-1)
    return out


def is_normalized(values: np.ndarray, atol: float = 1e-12) -> bool:
    """True when every row is a distribution: nonnegative, unit sum."""
    values = np.asarray(values)
    if values.size == 0 or np.any(values < 0):
        return False
    return bool(np.all(np.abs(np.sum(values, axis=-1) - 1.0) <= atol))
