"""Exact inference for small RBMs by full enumeration of all 2^(m+n) states.

This is the oracle everything else is checked against: partition function,
joint and visible marginal distributions, and the two hidden-variable
diagnostics (locality factorization and measurement independence).

Bit order convention: configurations are enumerated with unit 1 as the most
significant bit, so index k of a layer corresponds to the binary expansion of
k read left to right. For the visible layer that makes the enumeration order
lexicographic in (v1, v2, ..., vm).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .rbm import RbmModel

# 2^24 joint states is about 128 MB of float64, a sensible desk-scale ceiling.
MAX_EXACT_UNITS = 24

# Setting pairs (v1, v2) in the order of every per-pair report, correlation
# and label: (a, b), (a, b'), (a', b), (a', b').
SETTING_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _read_only(table: np.ndarray) -> np.ndarray:
    table.setflags(write=False)
    return table


def _bit_table(k: int) -> np.ndarray:
    idx = np.arange(2**k)[:, None]
    shifts = np.arange(k - 1, -1, -1)
    return ((idx >> shifts) & 1).astype(np.float64)


_SHARED_BIT_PATTERNS = tuple(_read_only(_bit_table(k)) for k in range(9))


def bit_patterns(k: int) -> np.ndarray:
    """All 2^k binary vectors of length k as a (2^k, k) float array.

    Row i is the binary expansion of i with the first column as the most
    significant bit, so rows are in lexicographic order. For k <= 8 the
    table is a shared read-only array; larger tables are built per call.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if k < len(_SHARED_BIT_PATTERNS):
        return _SHARED_BIT_PATTERNS[k]
    return _bit_table(k)


def _pack(model: RbmModel) -> np.ndarray:
    """The (m+1, n+1) augmented parameter matrix theta = [[W, c], [d, 0]]."""
    theta = np.empty((model.n_visible + 1, model.n_hidden + 1))
    theta[:-1, :-1], theta[:-1, -1] = model.weights, model.visible_bias
    theta[-1, :-1], theta[-1, -1] = model.hidden_bias, 0.0
    return theta


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


@dataclass(frozen=True)
class ExactDistribution:
    """Exact Boltzmann distribution of a model over all joint configurations.

    Attributes:
        model: the machine the distribution belongs to.
        log_partition: log Z computed by log-sum-exp over all states.
        joint: (2^m, 2^n) table, entry [i, j] = P(v = bits(i), h = bits(j)).
    """

    model: RbmModel
    log_partition: float
    joint: np.ndarray

    def __post_init__(self):
        joint = _read_only(np.asarray(self.joint, dtype=np.float64))
        object.__setattr__(self, "joint", joint)

    @cached_property
    def _epr_view(self) -> np.ndarray:
        """The joint as (setting pair in SETTING_PAIRS order, outcome bits v3v4, λ)."""
        if self.model.n_visible != 4:
            raise ValueError(
                "EPR layout requires exactly 4 visible units "
                f"(settings v1, v2 and outcomes v3, v4), got {self.model.n_visible}"
            )
        return self.joint.reshape(len(SETTING_PAIRS), 4, -1)

    def visible_marginal(self) -> np.ndarray:
        """P(v) over the 2^m visible patterns, lexicographic order."""
        return self.joint.sum(axis=1)


def enumerate_distribution(model: RbmModel) -> ExactDistribution:
    """Compute the exact Boltzmann distribution by enumerating every state.

    The negative energies are the (2^m, 2^n) log-joint table of the packed
    parameters and the partition function is taken with a max-shifted
    log-sum-exp, so models whose energies span hundreds of units stay finite.

    Raises:
        ValueError: if m + n exceeds MAX_EXACT_UNITS, too large for exact
            inference.
    """
    neg_energy = _log_joint(_pack(model))
    shift = neg_energy.max()
    log_partition = float(shift + np.log(np.exp(neg_energy - shift).sum()))
    joint = np.exp(neg_energy - log_partition)
    return ExactDistribution(model=model, log_partition=log_partition, joint=joint)


def locality_check(dist: ExactDistribution) -> float:
    """Maximum factorization residual of the joint outcome law over λ.

    For every hidden state λ, setting pair (v1, v2), and outcome pair
    (v3, v4), computes

        |P(v3, v4 | v1, v2, λ) − P(v3 | v1, λ) · P(v4 | v2, λ)|

    and returns the maximum. The bipartite topology makes the two outcome
    units conditionally independent given λ, so the residual is zero up to
    floating-point error for any parameter values.
    """
    # the joint with axes (v1, v2, v3, v4, lambda)
    j = dist._epr_view.reshape(2, 2, 2, 2, -1)
    # P(v3, v4 | v1, v2, lambda)
    cond_joint = j / j.sum(axis=(2, 3), keepdims=True)
    # P(v3 | v1, lambda): marginalize the remote setting v2 and outcome v4,
    # then normalize over v3. Likewise P(v4 | v2, lambda). Using only the
    # local setting makes this the full factorizability condition, remote
    # setting independence included.
    num3 = j.sum(axis=(1, 3))  # axes (v1, v3, lambda)
    p3 = num3 / num3.sum(axis=1, keepdims=True)
    num4 = j.sum(axis=(0, 2))  # axes (v2, v4, lambda)
    p4 = num4 / num4.sum(axis=1, keepdims=True)
    product = p3[:, None, :, None, :] * p4[None, :, None, :, :]
    return float(np.abs(cond_joint - product).max())


@dataclass(frozen=True)
class MeasurementIndependenceReport:
    """Hidden-state distributions conditioned on each setting pair.

    Attributes:
        setting_pairs: the four (v1, v2) pairs, in SETTING_PAIRS order.
        conditional: (4, 2^n) array, row p = P(λ | settings pair p).
        pooled: (2^n,) array, the uniform average of the four rows. The
            settings are uniform in the data-generating process, so this is
            the natural unconditioned P(λ).
        tv_distances: (4,) total-variation distances TV(row, pooled).
        max_tv: maximum of tv_distances; 0 means measurement independence
            holds exactly, large values mean λ carries setting information.
    """

    setting_pairs: tuple[tuple[int, int], ...]
    conditional: np.ndarray
    pooled: np.ndarray
    tv_distances: np.ndarray
    max_tv: float


def measurement_independence_check(
    dist: ExactDistribution,
) -> MeasurementIndependenceReport:
    """Compare P(λ | α, β) across setting pairs against the pooled P(λ).

    Measurement independence asks that the hidden variable not depend on the
    detector settings: P(λ | α, β) = P(λ). This computes the four conditional
    distributions exactly and their total-variation distances to the pooled
    average.
    """
    mass = dist._epr_view.sum(axis=1)  # P(v1, v2, lambda) by setting pair
    conditional = mass / mass.sum(axis=1, keepdims=True)
    pooled = conditional.sum(axis=0) / len(SETTING_PAIRS)
    tv = 0.5 * np.abs(conditional - pooled).sum(axis=1)
    return MeasurementIndependenceReport(
        setting_pairs=SETTING_PAIRS,
        conditional=conditional,
        pooled=pooled,
        tv_distances=tv,
        max_tv=float(tv.max()),
    )
