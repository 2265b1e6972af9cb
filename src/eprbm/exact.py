"""Exact inference for small RBMs by full enumeration of all 2^(m+n) states.

This is the oracle everything else is checked against: partition function,
joint and visible marginal distributions, and the two hidden-variable
diagnostics (locality factorization and measurement independence). Tables
are indexed by the pattern order of rbm.bit_patterns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .rbm import RbmModel, _log_joint, _read_only

# Setting pairs (v1, v2) in the order of every per-pair report, correlation
# and label: (a, b), (a, b'), (a', b), (a', b').
SETTING_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


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
        ValueError: if m + n exceeds rbm.MAX_EXACT_UNITS, too large for exact
            inference.
    """
    neg_energy = _log_joint(model.theta)
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
