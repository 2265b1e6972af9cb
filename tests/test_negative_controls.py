"""Negative controls: joints that the exact diagnostics must flag.

Every RBM passes the locality check, so RBMs alone cannot show that the
check can fail. These joints are built in the test, state by state, and
wrapped in an ExactDistribution directly:

- the reference model's log-joint plus one lateral coupling J * v_i * v_j,
  which is no longer an RBM; a coupling from a setting to the remote
  outcome, or between the two outcomes, breaks factorization given λ;
- a law over the 16 local deterministic strategies λ = (A(a), A(a'), B(b),
  B(b')), with P(λ | settings) chosen per setting pair, so that measurement
  independence holds or fails by a known amount; the least dependent such
  law that reproduces the singlet (a linear program) needs less than any
  RBM can have.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from eprbm.bell import correlations_from_distribution, theory_correlations
from eprbm.epr import DetectorAngles
from eprbm.exact import (
    SETTING_PAIRS,
    ExactDistribution,
    locality_check,
    measurement_independence_check,
)
from eprbm.trainer import load_reference_model

from helpers import energy, least_dependent_local_law

LOCALITY_BOUND = 1e-10
BITS4 = list(itertools.product((0, 1), repeat=4))


def coupled_distribution(i: int, j: int, coupling: float) -> ExactDistribution:
    """The reference model's joint with coupling * v_i * v_j (units 1..4)
    added to every negative energy, normalized state by state."""
    model = load_reference_model()
    log_joint = np.array(
        [
            [-energy(model, v, h) + coupling * v[i - 1] * v[j - 1] for h in BITS4]
            for v in BITS4
        ]
    )
    weights = np.exp(log_joint - log_joint.max())
    return ExactDistribution(weights / weights.sum())


# (i, j) couplings that let a setting reach the remote outcome (v2-v3, v1-v4)
# or tie the two outcomes together directly (v3-v4)
NON_LOCAL = [(2, 3), (1, 4), (3, 4)]
# couplings between the settings, or from a setting to its own station's
# outcome: not an RBM either, but the outcomes still factorize given λ
LOCAL = [(1, 2), (1, 3), (2, 4)]


class TestLocalityControls:
    @pytest.mark.parametrize("i, j", NON_LOCAL)
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_non_local_coupling_fails_and_grows_with_strength(self, i, j, sign):
        residuals = [
            locality_check(coupled_distribution(i, j, sign * strength))
            for strength in (0.01, 0.1, 1.0)
        ]
        assert residuals[0] > LOCALITY_BOUND
        assert residuals[0] < residuals[1] < residuals[2]

    @pytest.mark.parametrize(
        "i, j, coupling, expected",
        [(2, 3, 1.0, 0.1265), (1, 4, 1.0, 0.1263), (3, 4, 1.0, 0.0566),
         (2, 3, 0.01, 1.368e-3)],
    )
    def test_residual_values(self, i, j, coupling, expected):
        residual = locality_check(coupled_distribution(i, j, coupling))
        # measured values, to the 4 digits shown
        assert residual == pytest.approx(expected, rel=1e-3)

    @pytest.mark.parametrize("i, j", LOCAL)
    def test_local_coupling_passes(self, i, j):
        assert locality_check(coupled_distribution(i, j, 1.0)) <= LOCALITY_BOUND


def strategy_distribution(p_lambda: list[list[float]]) -> ExactDistribution:
    """Uniform settings, λ drawn from p_lambda[p] at setting pair p (in
    SETTING_PAIRS order), and outcomes x_alpha = A(alpha), x_beta = B(beta)
    read off λ = (A(a), A(a'), B(b), B(b')) as bits."""
    joint = np.zeros((16, 16))
    for p, (alpha, beta) in enumerate(SETTING_PAIRS):
        for lam, (a0, a1, b0, b1) in enumerate(BITS4):
            x_alpha, x_beta = (a0, a1)[alpha], (b0, b1)[beta]
            v = 8 * alpha + 4 * beta + 2 * x_alpha + x_beta
            joint[v, lam] = p_lambda[p][lam] / 4
    return ExactDistribution(joint)


def fraction_tvs(p_lambda: list[list[Fraction]]) -> list[Fraction]:
    """TV of each row of P(λ | settings) from their plain average, exactly."""
    pooled = [sum(col) / len(p_lambda) for col in zip(*p_lambda)]
    return [sum(abs(x - y) for x, y in zip(row, pooled)) / 2 for row in p_lambda]


def random_law(seed: int) -> list[Fraction]:
    rng = np.random.default_rng(seed)
    weights = [int(w) for w in rng.integers(1, 100, size=16)]
    return [Fraction(w, sum(weights)) for w in weights]


class TestMeasurementIndependenceControls:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_settings_independent_strategies_pass(self, seed):
        law = [float(x) for x in random_law(seed)]
        dist = strategy_distribution([law] * 4)
        report = measurement_independence_check(dist)
        assert report.max_tv <= 1e-15
        assert locality_check(dist) <= 1e-15
        # Bell's theorem: a local, measurement-independent model has S <= 2
        assert correlations_from_distribution(dist).s <= 2 + 1e-12

    def test_best_deterministic_strategy_reaches_two(self):
        # x_alpha = +1 and x_beta = -1 at every setting: every C is -1, and
        # S = |-1 - 1 - 1 + 1| = 2
        best = BITS4.index((1, 1, 0, 0))
        law = [1.0 if lam == best else 0.0 for lam in range(16)]
        dist = strategy_distribution([law] * 4)
        assert correlations_from_distribution(dist).s == 2.0
        assert measurement_independence_check(dist).max_tv == 0.0

    @pytest.mark.parametrize("mix", [(0, 0, 0, 1), (1, 2, 3, 4), (5, 5, 5, 5)])
    def test_setting_dependent_mixture_gives_known_tv(self, mix):
        # at setting pair p, λ follows (1 - w_p) * base + w_p * (a point mass
        # on its own strategy), with w_p = mix[p] / 10
        base = random_law(3)
        rows = []
        for p, tenths in enumerate(mix):
            w = Fraction(tenths, 10)
            point = [Fraction(int(lam == 5 * p)) for lam in range(16)]
            rows.append([(1 - w) * b + w * q for b, q in zip(base, point)])
        report = measurement_independence_check(
            strategy_distribution([[float(x) for x in row] for row in rows])
        )
        expected = [float(tv) for tv in fraction_tvs(rows)]
        np.testing.assert_allclose(report.tv_distances, expected, rtol=0, atol=1e-12)
        assert report.max_tv == pytest.approx(max(expected), abs=1e-12)
        # every mixture puts weight on a strategy of its own
        assert report.max_tv > 1e-3

    def test_least_dependent_singlet_law_breaks_the_rbm_floor(self):
        # Hall's floor for a local model whose responses read the local
        # setting is max TV = (S - 2) / 8, and the linear program attains
        # it. An RBM's responses read λ alone, which forces TV_p >=
        # |C_p - C̄| / 2 (test_tv_bounds_the_spread_of_correlations in
        # test_exact.py), 0.530 at (a', b'): this law stays far below that
        singlet = theory_correlations(DetectorAngles()).correlations()
        rows, t = least_dependent_local_law(np.array(singlet))
        assert t == pytest.approx((2 * math.sqrt(2) - 2) / 8, abs=1e-9)
        # the optimal vertex leaves most (p, λ) cells empty, where
        # locality_check divides 0/0; a trace of the uniform law fills them
        dist = strategy_distribution((1 - 1e-6) * rows + 1e-6 / 16)
        report = correlations_from_distribution(dist)
        tv = measurement_independence_check(dist).tv_distances
        assert report.s == pytest.approx(2 * math.sqrt(2), abs=1e-5)
        assert abs(tv.max() - (report.s - 2) / 8) <= 1e-6
        assert locality_check(dist) <= LOCALITY_BOUND
        c = np.array(report.correlations())
        rbm_floor = np.abs(c - c.mean()) / 2
        assert rbm_floor[3] == pytest.approx(0.5303, abs=1e-4)
        assert tv[3] < rbm_floor[3]
