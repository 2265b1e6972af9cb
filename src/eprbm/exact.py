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

# The joint rows, by pattern index 8 v1 + 4 v2 + 2 v3 + v4, that each row of
# ExactDistribution._margins adds: one column per margin row, one row per
# term. Columns 0-3 sum over v3 v4 at each (v1, v2), columns 4-7 over v2 v4
# at each (v1, v3) and columns 8-11 over v1 v3 at each (v2, v4), each in
# pattern order, the order in which numpy's sums over those axes add them.
_MARGIN_TERMS = _read_only(
    np.hstack(
        [
            np.arange(16).reshape(2, 2, 2, 2).transpose(axes).reshape(4, 4).T
            for axes in ((0, 1, 2, 3), (0, 2, 1, 3), (1, 3, 0, 2))
        ]
    )
)


@dataclass(frozen=True, eq=False)
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

    @cached_property
    def _margins(self) -> np.ndarray:
        """The read-only (12, 2^n) sums of the joint that the diagnostics read.

        Rows 0-3 are P(v1, v2, λ) in SETTING_PAIRS order, rows 4-7 P(v1, v3, λ)
        and rows 8-11 P(v2, v4, λ), each in the order (0, 0), (0, 1), (1, 0),
        (1, 1). Each row adds its four joint rows (_MARGIN_TERMS) left to
        right, so it holds the same bits as numpy's sum over the other axes.
        Read through _epr_view, so it refuses the same layouts.
        """
        terms = self._epr_view.reshape(16, -1).take(_MARGIN_TERMS, 0)
        margins = terms[0] + terms[1]
        margins += terms[2]
        margins += terms[3]
        return _read_only(margins)

    def __eq__(self, other) -> bool:
        """Same model, same log Z and the same joint; cached views take no part."""
        if not isinstance(other, ExactDistribution):
            return NotImplemented
        return (
            self.model == other.model
            and self.log_partition == other.log_partition
            and np.array_equal(self.joint, other.joint)
        )

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
    margins = dist._margins
    # the joint with axes (v1, v2, v3, v4, lambda)
    j = dist._epr_view.reshape(2, 2, 2, 2, -1)
    # P(v3, v4 | v1, v2, lambda)
    cond_joint = j / margins[:4].reshape(2, 2, 1, 1, -1)
    # P(v3 | v1, lambda): the margin over the remote setting v2 and outcome
    # v4, normalized over v3. Likewise P(v4 | v2, lambda). Using only the
    # local setting makes this the full factorizability condition, remote
    # setting independence included. Only this check forms them: at a λ of
    # zero mass they are 0/0.
    local = margins[4:].reshape(2, 2, 2, -1)  # (station, setting, outcome, lambda)
    p3, p4 = local / local.sum(axis=2, keepdims=True)
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
    mass = dist._margins[:4]  # P(v1, v2, lambda) by setting pair
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
