"""Message algebra for discrete belief propagation.

A message is a numpy vector of nonnegative reals over a finite symbol
alphabet.  All functions here operate on the last axis, so a 2-D array is
treated as a batch of messages (one row per sample).  Proportionality is
the only thing that matters to inference, so messages are kept normalized
to unit sum throughout.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "AllZeroVector",
    "normalize",
    "hadamard_posterior",
    "sharpen",
    "max_indicator",
    "uniform",
    "one_hot",
]

# Rows whose sum is already this close to 1 are returned unchanged, which
# makes normalize exactly idempotent while keeping sums within 1e-12.
_SUM_SLACK = 1e-13

# max_indicator treats entries this close to the row maximum as ties.
TIE_RTOL = 1e-12

# From this many rows on, ``_column_sums`` adds whole rows of a (size, n) block,
# and from 4 times as many ``_first_peak`` takes row maxima column by column.  With
# numpy 2.4 on a 2-core x86_64 host, 8- and 12-wide lane sums beat a C-order copy
# and its row reduction from 256 rows on (by 2.7-3x at 1 024), and lose below;
# 12 wide, the column maxima win at 512 rows and lose at 144.
COLUMN_ROWS = 256


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


def _is_count(value) -> bool:
    """An integer, numpy's included, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _require_count(name: str, value, least: int = 0) -> None:
    """The one check of a count or a seed: ``_is_count``, of at least ``least``."""
    if not _is_count(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        bound = "nonnegative" if least == 0 else f"at least {least}"
        raise ValueError(f"{name} must be {bound}, got {value}")


def normalize(values: np.ndarray) -> np.ndarray:
    """Scale each row to unit sum.

    Raises ValueError on a negative or non-finite entry, and
    AllZeroVector if any row sums to zero.  A row whose sum overflows is first
    divided by its maximum.  Rows already within 1e-13 of unit sum are passed
    through untouched, so the function is exactly idempotent.
    """
    values = np.array(values, dtype=np.float64, order="C")  # its rows sum without a copy
    if not np.all((values >= 0.0) & (values < np.inf)):
        raise ValueError("messages must be nonnegative and finite")
    try:
        with np.errstate(over="raise"):
            return _normalize_in_place(values)
    except FloatingPointError:  # x / 1.0 is x, so rows with a finite sum keep their bits
        with np.errstate(over="ignore"):
            huge = np.add.reduce(values, -1, keepdims=True) == np.inf
        return _normalize_in_place(values / np.where(huge, values.max(-1, keepdims=True), 1.0))


def _column_sums(block: np.ndarray) -> np.ndarray:
    """The sums over axis 0 of a (size, n) ``block``, bit for bit numpy's reduction
    of the C-order rows of ``block.T``: left to right under 8 entries; for 8 to 15,
    ((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7)), then the rest in order.  From ``COLUMN_ROWS``
    columns on (8 or more only in a C-order ``block``) rows of ``block`` are added so."""
    size = len(block)
    if (not 1 < size < 16 or block.size < COLUMN_ROWS * size
            or size >= 8 and not block.flags.c_contiguous):  # then block.T needs no copy
        return (np.add.reduce(block, 0) if size < 8 else
                np.add.reduce(np.ascontiguousarray(block.T), -1))
    sums = block[0] + block[1]
    if size >= 8:
        sums += block[2] + block[3]
        sums += (block[4] + block[5]) + (block[6] + block[7])
    for row in block[8 if size >= 8 else 2:]:
        sums += row
    return sums


def _normalize_in_place(values: np.ndarray) -> np.ndarray:
    """``normalize`` for a float64 array (C-ordered if over 2-d) already known to be
    nonnegative, such as fresh uniform draws: the rows are scaled in ``values`` itself."""
    shape = values.shape
    columns = values.T if len(shape) == 2 else values.reshape(math.prod(shape[:-1]), shape[-1]).T
    sums = _column_sums(columns)
    if not sums.all():
        raise AllZeroVector("cannot normalize a vector with zero total mass")
    off = np.abs(sums - 1.0) > _SUM_SLACK
    if not off.all():
        sums[~off] = 1.0  # x / 1.0 is x, bit for bit
    view, by = (columns, sums) if columns.flags.c_contiguous else (columns.T, sums[:, None])
    np.divide(view, by, out=view)  # in memory order: across it, peak RSS rose at N = 1e5
    return values


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
    argmax, and 0 flattens each row: as at every positive exponent its zeros
    stay 0, and its positive entries share the row equally.
    """
    _require_finite_nonnegative("exponent", exponent)
    values = np.asarray(values, dtype=np.float64)
    normalized = normalize(values)  # raises on a negative, non-finite or all-zero row
    if exponent == 1.0:
        return normalized
    if exponent == 0.0:
        return normalize(values > 0.0)
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
    by column from 4 * ``COLUMN_ROWS`` rows on (a reduction costs per row)."""
    if values.shape[-1] == 1:  # a source's input: nothing to compare
        return np.zeros(values.shape[:-1], dtype=np.intp)
    if values.size >= 4 * COLUMN_ROWS * values.shape[-1]:
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
