"""Restricted Boltzmann machine core: parameters, pattern tables, sampler.

Units are binary with values in {0, 1} and the temperature is fixed at kT = 1,
so the joint law is P(v, h) = exp(-E(v, h)) / Z with

    E(v, h) = -(sum_i c_i v_i + sum_j d_j h_j + sum_ij w_ij v_i h_j).

Every layer reads the machine as the packed matrix RbmModel.theta =
[[W, c], [d, 0]] over the patterns of bit_patterns, numbered with unit 1 as
the most significant bit (lexicographic in (v1, v2, ..., vm)).

The bipartite wiring makes both conditionals factorize,
P(h_j = 1 | v) = sigmoid(d_j + sum_i v_i w_ij) and likewise for v given h.
The sampler works over the 2^m visible patterns rather than unit by unit:
k block-Gibbs sweeps are one draw per chain from its row of T^k, with
T = P(h | v) @ P(v | h).T the one-sweep transition matrix (_pcd_kernel).
advance_chains runs it on rows of visible states, and train runs it on
pattern indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache

import numpy as np

# 2^24 joint states is about 128 MB of float64, a sensible desk-scale ceiling.
MAX_EXACT_UNITS = 24


def _read_only(table: np.ndarray) -> np.ndarray:
    table.setflags(write=False)
    return table


def _equal_fields(self, other) -> bool:
    """Value equality of two dataclasses of one type that hold arrays: every
    field equal, arrays by np.array_equal. Cached views are no fields and
    take no part; a class whose __eq__ this is has no hash."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
    return all(
        np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs
    )


def _as_param_array(name: str, value, ndim: int) -> np.ndarray:
    arr = np.array(value, dtype=np.float64)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite, got {arr!r}")
    return _read_only(arr)


@dataclass(frozen=True, eq=False)
class RbmModel:
    """Parameters of a binary RBM: visible biases, hidden biases, weights.

    Attributes:
        visible_bias: shape (m,), bias c_i of each visible unit.
        hidden_bias: shape (n,), bias d_j of each hidden unit.
        weights: shape (m, n), coupling w_ij between visible i and hidden j.
    """

    visible_bias: np.ndarray
    hidden_bias: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        c = _as_param_array("visible_bias", self.visible_bias, 1)
        d = _as_param_array("hidden_bias", self.hidden_bias, 1)
        w = _as_param_array("weights", self.weights, 2)
        if w.shape != (c.size, d.size):
            raise ValueError(
                f"weights shape {w.shape} does not match "
                f"({c.size} visible, {d.size} hidden)"
            )
        object.__setattr__(self, "visible_bias", c)
        object.__setattr__(self, "hidden_bias", d)
        object.__setattr__(self, "weights", w)

    __eq__ = _equal_fields

    @property
    def n_visible(self) -> int:
        return self.visible_bias.size

    @property
    def n_hidden(self) -> int:
        return self.hidden_bias.size

    @cached_property
    def theta(self) -> np.ndarray:
        """The read-only (m+1, n+1) augmented parameter matrix
        theta = [[W, c], [d, 0]], built on first access."""
        theta = np.empty((self.n_visible + 1, self.n_hidden + 1))
        theta[:-1, :-1], theta[:-1, -1] = self.weights, self.visible_bias
        theta[-1, :-1], theta[-1, -1] = self.hidden_bias, 0.0
        return _read_only(theta)


def _unpack(theta: np.ndarray) -> RbmModel:
    """The model whose W, c and d are the blocks of a packed theta."""
    return RbmModel(
        visible_bias=theta[:-1, -1], hidden_bias=theta[-1, :-1], weights=theta[:-1, :-1]
    )


def bit_patterns(k: int) -> np.ndarray:
    """All 2^k binary vectors of length k as a new (2^k, k) float array.

    Row i is the binary expansion of i with the first column as the most
    significant bit, so rows are in lexicographic order.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    idx = np.arange(2**k)[:, None]
    shifts = np.arange(k - 1, -1, -1)
    return ((idx >> shifts) & 1).astype(np.float64)


# one shape at a time: with many units these tables are large
@lru_cache(maxsize=1)
def _pattern_tables(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Shared read-only v_aug and h_aug.T: bit_patterns(m) and bit_patterns(n)
    with a trailing column of ones, the second transposed. Raises ValueError
    if the 2^(m+n) joint states are too many to tabulate."""
    if m + n > MAX_EXACT_UNITS:
        raise ValueError(
            f"model with {m} + {n} units is too large for exact inference "
            f"(limit {MAX_EXACT_UNITS} total units)"
        )
    v_aug, h_aug = (np.hstack([bit_patterns(k), np.ones((2**k, 1))]) for k in (m, n))
    return _read_only(v_aug), _read_only(h_aug.T)


def _log_joint(theta: np.ndarray) -> np.ndarray:
    """The (2^m, 2^n) table of log P(v, h) + log Z over the packed theta.

    v_aug @ theta holds the hidden pre-activations d + v W followed by v . c,
    and times h_aug.T it gives every negative energy c.v + d.h + v W h.
    """
    v_aug, h_aug_t = _pattern_tables(theta.shape[0] - 1, theta.shape[1] - 1)
    return v_aug.dot(theta).dot(h_aug_t)


def _batch_patterns(model: RbmModel, batch) -> np.ndarray:
    """Pattern indices of the rows of a non-empty (B, m) batch of 0/1 states."""
    arr = np.asarray(batch, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != model.n_visible:
        raise ValueError(
            f"batch must have shape (B, {model.n_visible}), got {arr.shape}"
        )
    if arr.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    # a fractional entry would be truncated to another pattern's index
    if not np.all((arr == 0) | (arr == 1)):
        raise ValueError("batch entries must be 0 or 1")
    return _pattern_index(arr)


def _pattern_index(rows: np.ndarray) -> np.ndarray:
    """Index of each binary row among bit_patterns(m), first column most significant."""
    powers = 2 ** np.arange(rows.shape[1] - 1, -1, -1)
    return rows.dot(powers).astype(np.int64)


# Every log-joint entry v_aug @ theta @ h_aug.T is a sum of a subset of
# theta's entries, and the difference of two entries a signed sum, so both
# are bounded by ||theta||_1 <= sqrt(theta.size) ||theta||_F. When that bound
# is below _MAX_LOG_JOINT, every exponential lies in (e^-600, e^600) and no
# conditional is below e^-600 over its row or column length: normal doubles
# throughout, so both conditionals can be normalized from one unshifted table.
_MAX_LOG_JOINT = 600.0


def _bound_test(theta) -> tuple[float, bool]:
    """B = sqrt(theta.size) ||theta||_F, and whether theta admits the PCD
    kernel's unshifted path: B < _MAX_LOG_JOINT, compared squared, so a
    non-finite theta admits nothing."""
    flat = theta.ravel()
    squared = flat.dot(flat) * flat.size
    return math.sqrt(squared), squared < _MAX_LOG_JOINT**2


def _conditional(log_joint, axis, out=None) -> np.ndarray:
    """P(h | v) (axis=1) or P(v | h) (axis=0) from the log-joint table.

    Each row (or column) is shifted by its own maximum, so the table stays
    finite and normalizable at any spread of the log-joint.
    """
    table = np.exp(log_joint - log_joint.max(axis=axis, keepdims=True), out=out)
    table /= table.sum(axis=axis, keepdims=True)
    return table


def _pcd_kernel(shape, k, n_chains):
    """The PCD kernel for n_chains chains, k sweeps and a packed theta of the
    given shape: advance(theta, chains, u, admitted), and the P(h | v) table
    that every call of advance rewrites.

    advance moves pattern-index chains by k block-Gibbs sweeps, one draw
    per chain. With the visible layer confined to its 2^m patterns, a
    block-Gibbs sweep is a Markov chain over those patterns with transition
    matrix T = P(h | v) @ P(v | h).T; both conditionals come from the one
    (2^m, 2^n) table v_aug @ theta @ h_aug.T of unnormalized
    log-probabilities, with theta the packed parameters (RbmModel.theta). Each
    chain then takes a single categorical draw from its row of T^k, which
    has exactly the law of k sweeps: u holds one uniform per chain, shape
    (n_chains, 1), and the new chains come back as an int64 vector.

    The table is exponentiated unshifted when admitted, the second result
    of _bound_test for theta, is true, and shifted per row and per column
    otherwise; its row and column sums are products with vectors of ones.
    T^k is built by square-and-multiply from T. The draw table is the
    upper-triangular ones with a sentinel column of 2 in place of the last:
    T^k @ it holds the cumulative sums of each row of T^k, except that the
    last, the row sum, is about 2, so that rounding in the row sums can
    never push a draw past the last pattern. h_given_v @ h_aug holds the
    rows [P(h | v), 1] that the moments are formed from. The exponential,
    both conditionals and the comparison are written into buffers allocated
    here, once.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    v_aug, h_aug_t = _pattern_tables(shape[0] - 1, shape[1] - 1)
    n_v, n_h = v_aug.shape[0], h_aug_t.shape[1]
    ones_h, ones_v = np.ones((n_h, 1)), np.ones(n_v)
    cumulative = np.triu(np.ones((n_v, n_v)))
    cumulative[:, -1] = 2.0
    h_given_v, v_given_h = np.empty((n_v, n_h)), np.empty((n_v, n_h))
    v_given_h_t = v_given_h.T
    below = np.empty((n_chains, n_v), dtype=bool)
    # after the leading bit of k, each bit squares the power, and a set bit
    # multiplies it by T once more
    bits = bin(k)[3:]

    def advance(theta, chains, u, admitted):
        log_joint = v_aug.dot(theta).dot(h_aug_t)
        if admitted:
            # the exponential is normalized into P(h | v) in place, after
            # P(v | h) has been taken from it
            both = np.exp(log_joint, h_given_v)
            np.divide(both, ones_v.dot(both), v_given_h)
            np.divide(both, both.dot(ones_h), h_given_v)
        else:
            _conditional(log_joint, 1, h_given_v)
            _conditional(log_joint, 0, v_given_h)
        step = h_given_v.dot(v_given_h_t)
        power = step
        for bit in bits:
            power = power.dot(power)
            if bit == "1":
                power = power.dot(step)
        # Each chain lands on the first entry of its cumulative row that is
        # not below its uniform: the first False, which argmin finds (argmax
        # over >= finds the same index, more slowly). Every row of
        # T^k @ cumulative sums nonnegative terms in one fixed order, so it
        # never decreases, and that first index is the count of entries
        # below u. The sentinel, about 2 and above any u, is the answer only
        # when every real entry is below u, and it then stands for the last
        # pattern, as the count does. A row of NaN, which only a non-finite
        # log-joint gives, draws 0 as the count does, and that update's NaN
        # ends the epoch in TrainingDivergedError.
        np.less(power.dot(cumulative).take(chains, 0), u, below)
        return below.argmin(1)

    return advance, h_given_v


def advance_chains(
    model: RbmModel,
    visible: np.ndarray,
    rng: np.random.Generator,
    n_sweeps: int = 1,
) -> np.ndarray:
    """Run block Gibbs sweeps on a batch of chains, returning the visible states.

    The sweeps are drawn as train draws them: each chain takes one draw from
    its row of T^n_sweeps over the visible patterns (see _pcd_kernel), with
    one uniform from rng.random((n_chains, 1)).

    Args:
        visible: shape (n_chains, m) non-empty batch of {0, 1} visible states.
        n_sweeps: number of full sweeps (hidden then visible), at least 1.

    Returns:
        The (n_chains, m) visible states after the sweeps.
    """
    idx = _batch_patterns(model, visible)
    theta = model.theta
    advance = _pcd_kernel(theta.shape, n_sweeps, idx.size)[0]
    idx = advance(theta, idx, rng.random((idx.size, 1)), _bound_test(theta)[1])
    return _pattern_tables(model.n_visible, model.n_hidden)[0].take(idx, 0)[:, :-1]
