"""What a 4-visible RBM can fit: exact KL fits to the singlet law.

Each fit minimizes KL(singlet law || P) over every parameter from 8 seeded
starts (helpers.exact_kl_fit), with no sampling, so it separates what the
model class can reach from what PCD training reaches. The claims are about
these seeded fits, not theorems about the optimum.
"""

from __future__ import annotations

import numpy as np
import pytest

from eprbm.bell import correlations_from_distribution, theory_correlations
from eprbm.cli import LOCALITY_RESIDUAL_BOUND, MI_TV_BOUND
from eprbm.epr import DetectorAngles
from eprbm.exact import (
    enumerate_distribution,
    locality_check,
    measurement_independence_check,
)

from helpers import exact_kl_fit, singlet_law

# the standard angles (S = 2 sqrt 2), one more set above the local bound
# (S = 2.338) and one below it (S = 1.404)
ANGLE_SETS = [
    DetectorAngles(),
    DetectorAngles(0.0, 1.0, 0.3, -0.2),
    DetectorAngles(0.0, 0.6, 0.2, 1.3),
]


def test_singlet_law_gives_the_theory_correlations():
    # the target is built from the state vector; its correlations must be
    # the closed form -cos(theta_a - theta_b)
    for angles in ANGLE_SETS:
        law = singlet_law(angles)
        assert law.sum() == pytest.approx(1.0, abs=1e-15)
        signs = np.array([1.0, -1.0, -1.0, 1.0])  # x_alpha x_beta for v3v4
        c = (law.reshape(4, 4) * signs).sum(axis=1) * 4
        expected = theory_correlations(angles).correlations()
        np.testing.assert_allclose(c, expected, rtol=0, atol=1e-15)


def _assert_fits_and_diagnoses(angles, n_hidden):
    model, kl = exact_kl_fit(singlet_law(angles), n_hidden=n_hidden)
    assert kl < 1e-10
    dist = enumerate_distribution(model)
    s = correlations_from_distribution(dist).s
    assert s == pytest.approx(theory_correlations(angles).s, abs=1e-5)
    # the verdicts diagnose prints: local, and measurement-dependent even
    # where S < 2 and a measurement-independent local model would do
    assert locality_check(dist) <= LOCALITY_RESIDUAL_BOUND
    assert measurement_independence_check(dist).max_tv > MI_TV_BOUND


@pytest.mark.parametrize("angles", ANGLE_SETS, ids=["standard", "S2.34", "S1.40"])
def test_four_hidden_units_fit_the_singlet_law(angles):
    _assert_fits_and_diagnoses(angles, n_hidden=4)


def test_eight_hidden_units_fit_the_singlet_law():
    # twice the width of train's machine fits the standard angles as well,
    # with the same verdicts
    _assert_fits_and_diagnoses(DetectorAngles(), n_hidden=8)


def test_three_hidden_units_exceed_the_local_bound_without_fitting():
    # at the standard angles this fit reaches KL 0.0192 and S = 2.685:
    # past S = 2, short of 2 sqrt 2, and far from the law
    model, kl = exact_kl_fit(singlet_law(DetectorAngles()), n_hidden=3)
    assert kl > 1e-3
    assert correlations_from_distribution(enumerate_distribution(model)).s > 2.0


@pytest.mark.parametrize("n_hidden", [1, 2])
def test_one_or_two_hidden_units_stay_below_the_local_bound(n_hidden):
    # at the standard angles only: two hidden units reach S = 2.14 at
    # (0, 1.0, 0.3, -0.2)
    model, kl = exact_kl_fit(singlet_law(DetectorAngles()), n_hidden=n_hidden)
    assert kl > 0.1
    assert correlations_from_distribution(enumerate_distribution(model)).s < 2.0
