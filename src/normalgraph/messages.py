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

# From this many rows on, row sums (of rows narrower than 8) and row maxima are
# taken column by column.  With numpy 2.4 on a 2-core x86_64 host the column
# adds win for widths 2-7 from 256-512 rows on, by 1.4-3x at 1 024 rows, and
# lose below (fixed cost about 5 us); 12 wide, the column maxima win at 512
# rows and lose at 144.
COLUMN_ROWS = 1024


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
    AllZeroVector if any row sums to zero.  A row whose sum overflows is first
    divided by its maximum.  Rows already within 1e-13 of unit sum are passed
    through untouched, so the function is exactly idempotent.
    """
    values = np.array(values, dtype=np.float64)
    if not np.all((values >= 0.0) & (values < np.inf)):
        raise ValueError("messages must be nonnegative and finite")
    try:
        with np.errstate(over="raise"):
            return _normalize_in_place(values)
    except FloatingPointError:  # x / 1.0 is x, so rows with a finite sum keep their bits
        with np.errstate(over="ignore"):
            huge = np.add.reduce(values, -1, keepdims=True) == np.inf
        return _normalize_in_place(values / np.where(huge, values.max(-1, keepdims=True), 1.0))


def _row_sums(values: np.ndarray) -> np.ndarray:
    """``np.add.reduce(values, -1, keepdims=True)``, which adds a row of under 8
    entries left to right: ``COLUMN_ROWS`` or more such rows are added by column."""
    width = values.shape[-1]
    if not 1 < width < 8 or values.size < COLUMN_ROWS * width:
        return np.add.reduce(values, -1, keepdims=True)
    sums = values[..., 0:1] + values[..., 1:2]
    for k in range(2, width):
        sums += values[..., k:k + 1]
    return sums


def _normalize_in_place(values: np.ndarray) -> np.ndarray:
    """``normalize`` for a float64 array already known to be nonnegative,
    such as fresh uniform draws: the rows are scaled in ``values`` itself."""
    sums = _row_sums(values)
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
    return np.eye(np.shape(values)[-1])[_first_peak(np.asarray(values, dtype=np.float64))]


def _first_peak(values: np.ndarray) -> np.ndarray:
    """Each row's first index within ``TIE_RTOL`` of its maximum, which is taken
    by column from ``COLUMN_ROWS`` rows on (a reduction costs per row)."""
    if values.shape[-1] == 1:  # a source's input: nothing to compare
        return np.zeros(values.shape[:-1], dtype=np.intp)
    if values.size >= COLUMN_ROWS * values.shape[-1]:
        peak = functools.reduce(np.maximum, np.moveaxis(values, -1, 0))[..., None]
    else:
        peak = values.max(axis=-1, keepdims=True)
    return np.argmax(values >= peak - TIE_RTOL * np.abs(peak), axis=-1)


def uniform(size: int) -> np.ndarray:
    """The uniform distribution over ``size`` symbols."""
    if size < 1:
        raise ValueError("alphabet size must be positive")
    return np.full(size, 1.0 / size, dtype=np.float64)


def one_hot(index: int | np.ndarray, size: int) -> np.ndarray:
    """Delta distribution(s) concentrated at ``index``."""
    index = np.asarray(index)
    if (index < 0).any() or (index >= size).any():
        raise IndexError(f"symbol index out of range for alphabet of size {size}")
    if index.dtype.kind not in "iu":  # a boolean would select rows, a float cannot index
        raise IndexError(f"symbol indices must be integers, got {index.dtype}")
    return np.eye(size)[index]


def is_normalized(values: np.ndarray, atol: float = 1e-12) -> bool:
    """True when every row is a distribution: nonnegative, unit sum."""
    values = np.asarray(values)
    if values.size == 0 or np.any(values < 0):
        return False
    return bool(np.all(np.abs(np.sum(values, axis=-1) - 1.0) <= atol))
