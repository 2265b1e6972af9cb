"""Exact inference on the EPR layout by full enumeration of all 2^(4+n) states.

This is the oracle everything else is checked against: the joint and visible
marginal distributions, and the two hidden-variable diagnostics (locality
factorization and measurement independence), which read the joint law alone.
Tables are indexed by the pattern order of rbm.bit_patterns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rbm import RbmModel, _equal_fields, _log_joint, _read_only, _reduce_fields

# The one visible layout, settings v1, v2 and outcomes v3, v4 (epr.encode_dataset).
N_VISIBLE = 4
N_PATTERNS = 2**N_VISIBLE
_LAYOUT_ERROR = (
    "EPR layout requires exactly 4 visible units "
    "(settings v1, v2 and outcomes v3, v4), got {}"
)

# Setting pairs (v1, v2) in the order of every per-pair report, correlation
# and label, and their names: (a, b), (a, b'), (a', b), (a', b').
SETTING_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))
SETTING_PAIR_LABELS = {
    (a, b): "(a" + "'" * a + ", b" + "'" * b + ")" for a, b in SETTING_PAIRS
}

# The joint rows, by pattern index 8 v1 + 4 v2 + 2 v3 + v4, that each row of
# ExactDistribution._margins adds: one column per margin row, one row per
# term. Columns 0-3 sum over v3 v4 at each (v1, v2), columns 4-7 over v2 v4
# at each (v1, v3) and columns 8-11 over v1 v3 at each (v2, v4), each in
# pattern order, the order in which numpy's sums over those axes add them.
_MARGIN_TERMS = _read_only(
    np.hstack(
        [
            np.arange(N_PATTERNS).reshape(2, 2, 2, 2).transpose(axes).reshape(4, 4).T
            for axes in ((0, 1, 2, 3), (0, 2, 1, 3), (1, 3, 0, 2))
        ]
    )
)

# The rows of locality_check's (8, 2^n) local responses that each joint row
# multiplies, in pattern order: P(v3 | v1, λ) is row 2 v1 + v3 and
# P(v4 | v2, λ) row 4 + 2 v2 + v4.
_FACTOR_ROWS = _read_only(
    np.array([[2 * v1 + v3 for v1, _, v3, _ in np.ndindex(2, 2, 2, 2)],
              [4 + 2 * v2 + v4 for _, v2, _, v4 in np.ndindex(2, 2, 2, 2)]])
)


@dataclass(frozen=True, eq=False)
class ExactDistribution:
    """An exact joint law P(v, λ) over all visible and hidden configurations.

    Attributes:
        joint: read-only (16, 2^n) table, entry [i, j] = P(v = bits(i), h = bits(j)),
            a copy of the one passed in; any other shape raises _LAYOUT_ERROR.

    It also holds, from construction, the read-only tables the diagnostics
    read: _epr_view, the joint as (setting pair in SETTING_PAIRS order,
    outcome bits v3v4, λ), and _margins, the (12, 2^n) sums P(v1, v2, λ),
    P(v1, v3, λ) and P(v2, v4, λ), each in the order (0, 0) ... (1, 1), that
    _MARGIN_TERMS lists.
    """

    joint: np.ndarray
    __eq__ = _equal_fields
    __reduce__ = _reduce_fields

    def __post_init__(self):
        joint = _read_only(np.array(self.joint, dtype=np.float64))
        if joint.ndim != 2 or joint.shape[0] != N_PATTERNS:
            raise ValueError(_LAYOUT_ERROR.format(f"a joint of shape {joint.shape}"))
        object.__setattr__(self, "joint", joint)
        object.__setattr__(self, "_epr_view", joint.reshape(len(SETTING_PAIRS), 4, -1))
        margins = joint.take(_MARGIN_TERMS, 0).sum(axis=0)
        object.__setattr__(self, "_margins", _read_only(margins))

    def visible_marginal(self) -> np.ndarray:
        """P(v) over the N_PATTERNS visible patterns, lexicographic order."""
        return self.joint.sum(axis=1)


def enumerate_distribution(model: RbmModel) -> ExactDistribution:
    """Compute the exact Boltzmann distribution by enumerating every state.

    The negative energies are the (N_PATTERNS, 2^n) log-joint table of the
    packed parameters and log Z is taken with a max-shifted log-sum-exp, so
    models whose energies span hundreds of units stay finite.

    Raises:
        ValueError: _LAYOUT_ERROR, before any table is built, if the model is
            not 4-visible; if 4 + n exceeds rbm.MAX_EXACT_UNITS, too large for
            exact inference.
    """
    if model.n_visible != N_VISIBLE:
        raise ValueError(_LAYOUT_ERROR.format(model.n_visible))
    neg_energy = _log_joint(model.theta)
    shift = neg_energy.max()
    weights = neg_energy - shift
    log_partition = float(shift + np.log(np.exp(weights, out=weights).sum()))
    neg_energy -= log_partition
    return ExactDistribution(np.exp(neg_energy, out=neg_energy))


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
    # P(v3, v4 | v1, v2, λ), one row per joint row
    cond_joint = (dist._epr_view / margins[:4, None]).reshape(N_PATTERNS, -1)
    # P(v3 | v1, λ): the margin over the remote setting v2 and outcome v4,
    # normalized over v3. Likewise P(v4 | v2, λ). Using only the local
    # setting makes this the full factorizability condition, remote setting
    # independence included. Only this check forms them: at a λ of zero mass
    # they are 0/0.
    local = margins[4:].reshape(4, 2, -1)  # (station and setting, outcome, λ)
    responses = (local / (local[:, :1] + local[:, 1:])).reshape(8, -1)
    factors = responses.take(_FACTOR_ROWS, 0)  # (P(v3 | v1, λ), P(v4 | v2, λ)) per row
    cond_joint -= factors[0] * factors[1]
    return float(np.abs(cond_joint, out=cond_joint).max())


@dataclass(frozen=True, eq=False)
class MeasurementIndependenceReport:
    """Hidden-state distributions conditioned on each setting pair.

    Attributes:
        conditional: (4, 2^n) array, row p = P(λ | setting pair p), in
            SETTING_PAIRS order.
        pooled: (2^n,) array, the uniform average of the four rows. The
            settings are uniform in the data-generating process, so this is
            the natural unconditioned P(λ).
        tv_distances: (4,) total-variation distances TV(row, pooled).
        max_tv: maximum of tv_distances; 0 means measurement independence
            holds exactly, large values mean λ carries setting information.
    """

    conditional: np.ndarray
    pooled: np.ndarray
    tv_distances: np.ndarray
    max_tv: float
    __eq__ = _equal_fields


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
        conditional=conditional,
        pooled=pooled,
        tv_distances=tv,
        max_tv=float(tv.max()),
    )
