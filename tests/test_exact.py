import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprbm import trainer
from eprbm.bell import correlations_from_distribution
from eprbm.exact import (
    SETTING_PAIRS,
    ExactDistribution,
    enumerate_distribution,
    locality_check,
    measurement_independence_check,
)
from eprbm.rbm import MAX_EXACT_UNITS, RbmModel, _pattern_tables, _unpack, bit_patterns
from eprbm.trainer import load_reference_model

from helpers import (
    brute_force_joint,
    energy,
    four_matmul_distribution,
    random_model,
    reference_conditional_outcomes,
    reference_correlations,
    reference_locality_check,
    reference_measurement_independence,
)

# Frozen pre-build oracle value: max TV distance between the reference
# model's P(lambda | settings) and the pooled P(lambda), computed by exact
# enumeration. Regression-pinned to 9 decimals.
REFERENCE_MAX_TV = 0.620024075451


def zero_model(m=4, n=4):
    return RbmModel(
        visible_bias=np.zeros(m), hidden_bias=np.zeros(n), weights=np.zeros((m, n))
    )


class TestBitPatterns:
    def test_small_cases(self):
        assert bit_patterns(0).shape == (1, 0)
        np.testing.assert_array_equal(
            bit_patterns(2), [[0, 0], [0, 1], [1, 0], [1, 1]]
        )

    def test_lexicographic_order(self):
        pats = bit_patterns(4).astype(int)
        as_tuples = [tuple(row) for row in pats]
        assert as_tuples == sorted(as_tuples)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            bit_patterns(-1)

    def test_large_tables_built_per_call(self):
        # every table, small or large, is a new writable array
        for k in (0, 1, 4, 8, 9):
            first, second = bit_patterns(k), bit_patterns(k)
            assert first is not second
            assert first.flags.writeable
            assert first.shape == (2**k, k)
            np.testing.assert_array_equal(first, second)
            if k:
                half = 2 ** (k - 1)
                np.testing.assert_array_equal(first[:half, 1:], bit_patterns(k - 1))


class TestEnumerate:
    def test_zero_model_uniform(self):
        dist = enumerate_distribution(zero_model())
        assert dist.joint.shape == (16, 16)
        np.testing.assert_allclose(dist.joint, 1.0 / 256.0, atol=1e-15)
        assert dist.log_partition == pytest.approx(math.log(256.0), abs=1e-12)

    def test_one_by_one_hand_enumeration(self):
        # states (v,h): weights e^0, e^0, e^0, e^{log 3} so Z = 6
        model = RbmModel(
            visible_bias=[0.0], hidden_bias=[0.0], weights=[[math.log(3.0)]]
        )
        dist = enumerate_distribution(model)
        np.testing.assert_allclose(
            dist.joint, [[1 / 6, 1 / 6], [1 / 6, 3 / 6]], atol=1e-12
        )

    def test_equal_by_value_and_unhashable(self):
        # views cached on one side only take no part
        dist = enumerate_distribution(load_reference_model())
        other = enumerate_distribution(load_reference_model())
        locality_check(dist)
        assert dist == other and not dist != other
        assert dist != enumerate_distribution(zero_model())
        shifted = ExactDistribution(dist.model, dist.log_partition + 1.0, dist.joint)
        assert dist != shifted
        assert dist != "distribution"
        with pytest.raises(TypeError, match="unhashable"):
            hash(other)

    def test_reference_normalization_and_positivity(self, reference_dist):
        assert reference_dist.joint.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(reference_dist.joint > 0)

    def test_joint_consistent_with_energy(self, reference_model, reference_dist):
        pats = bit_patterns(4).astype(int)
        for vi in range(16):
            for hi in range(16):
                e = energy(reference_model, pats[vi], pats[hi])
                expected = math.exp(-e - reference_dist.log_partition)
                assert reference_dist.joint[vi, hi] == pytest.approx(
                    expected, abs=1e-12
                )

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(21)
        model = random_model(rng, m=3, n=2)
        dist = enumerate_distribution(model)
        joint, log_z = brute_force_joint(model)
        np.testing.assert_allclose(dist.joint, joint, atol=1e-12)
        assert dist.log_partition == pytest.approx(log_z, abs=1e-10)

    def test_extreme_energies_stay_finite(self):
        model = RbmModel(
            visible_bias=np.full(4, 200.0),
            hidden_bias=np.full(4, 200.0),
            weights=np.full((4, 4), 50.0),
        )
        dist = enumerate_distribution(model)
        assert np.isfinite(dist.log_partition)
        assert dist.joint.sum() == pytest.approx(1.0, abs=1e-12)

    def test_size_guard(self):
        big = zero_model(m=13, n=12)
        assert big.n_visible + big.n_hidden > MAX_EXACT_UNITS
        with pytest.raises(ValueError, match="too large for exact inference"):
            enumerate_distribution(big)

    def test_visible_relabeling_permutes_joint(self):
        rng = np.random.default_rng(22)
        model = random_model(rng, m=4, n=3)
        perm = rng.permutation(4)
        permuted = RbmModel(
            visible_bias=model.visible_bias[perm],
            hidden_bias=model.hidden_bias,
            weights=model.weights[perm, :],
        )
        dist = enumerate_distribution(model)
        dist_p = enumerate_distribution(permuted)
        pats = bit_patterns(4).astype(int)
        powers = 2 ** np.arange(3, -1, -1)
        for idx in range(16):
            # new unit k carries old unit perm[k]'s parameters, so pattern p
            # under the original has the probability of p[perm] under the
            # permuted model
            new_idx = int(pats[idx][perm] @ powers)
            np.testing.assert_allclose(
                dist_p.joint[new_idx], dist.joint[idx], atol=1e-14
            )

    def test_hidden_relabeling_permutes_joint(self):
        rng = np.random.default_rng(23)
        model = random_model(rng, m=3, n=4)
        perm = rng.permutation(4)
        permuted = RbmModel(
            visible_bias=model.visible_bias,
            hidden_bias=model.hidden_bias[perm],
            weights=model.weights[:, perm],
        )
        dist = enumerate_distribution(model)
        dist_p = enumerate_distribution(permuted)
        pats = bit_patterns(4).astype(int)
        powers = 2 ** np.arange(3, -1, -1)
        for idx in range(16):
            new_idx = int(pats[idx][perm] @ powers)
            np.testing.assert_allclose(
                dist_p.joint[:, new_idx], dist.joint[:, idx], atol=1e-14
            )

    def test_marginals_sum_to_one(self, reference_dist):
        assert reference_dist.visible_marginal().sum() == pytest.approx(1.0, abs=1e-12)
        assert reference_dist.joint.sum(axis=0).sum() == pytest.approx(1.0, abs=1e-12)


class TestLogJointBuilder:
    @pytest.mark.parametrize("m, n", [(4, 4), (4, 1), (3, 5), (0, 2)])
    def test_pattern_tables_shared_read_only(self, m, n):
        v_aug, h_aug_t = _pattern_tables(m, n)
        assert _pattern_tables(m, n)[0] is v_aug
        assert not v_aug.flags.writeable and not h_aug_t.flags.writeable
        np.testing.assert_array_equal(v_aug[:, :-1], bit_patterns(m))
        np.testing.assert_array_equal(h_aug_t.T[:, :-1], bit_patterns(n))
        assert np.all(v_aug[:, -1] == 1.0) and np.all(h_aug_t[-1] == 1.0)

    def test_pattern_tables_size_guard(self):
        with pytest.raises(ValueError, match="too large for exact inference"):
            _pattern_tables(13, 12)

    @pytest.mark.parametrize("n", [1, 2, 4, 5])
    def test_pack_layout(self, n):
        # the packed form is built once per model and shared, so no caller
        # may write into it; _unpack reads the blocks back
        model = random_model(np.random.default_rng(n), n=n)
        theta = model.theta
        want = np.block(
            [
                [model.weights, model.visible_bias[:, None]],
                [model.hidden_bias[None, :], np.zeros((1, 1))],
            ]
        )
        assert not theta.flags.writeable and model.theta is theta
        np.testing.assert_array_equal(theta, want)
        back = _unpack(theta)
        for field in ("visible_bias", "hidden_bias", "weights"):
            np.testing.assert_array_equal(getattr(back, field), getattr(model, field))

    @given(
        n=st.integers(1, 5),
        scale=st.floats(0.01, 30.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_four_matmul_oracle(self, n, scale, seed):
        # the packed builder rounds differently from four separate products,
        # so log Z and every entry not lost to underflow agree to 1e-12
        model = random_model(np.random.default_rng(seed), n=n, scale=scale)
        dist = enumerate_distribution(model)
        want = four_matmul_distribution(model)
        assert math.isclose(dist.log_partition, want.log_partition, rel_tol=1e-12)
        kept = want.joint > 1e-300
        np.testing.assert_allclose(dist.joint[kept], want.joint[kept], rtol=1e-12, atol=0)
        # the trainer's exact moments weight the patterns by this P(v), bit for bit
        got = trainer.model_expectation_exact(model)
        want = trainer._moments(model.theta, dist.visible_marginal())
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


class TestConditionalOutcomes:
    """P(v3, v4 | v1, v2), the per-pair oracle behind reference_correlations."""

    def test_reference_same_outcome_probability(self, reference_dist):
        # P(v3 = v4 | settings (0,0)) is the trace of the outcome table, and
        # the shipped correlation gives it as (1 + C(a,b)) / 2
        table = reference_conditional_outcomes(reference_dist, (0, 0))
        assert float(np.trace(table)) == pytest.approx(0.145, abs=0.01)
        c_ab = correlations_from_distribution(reference_dist).c_ab
        assert (1 + c_ab) / 2 == pytest.approx(float(np.trace(table)), abs=1e-12)

    def test_zero_model_uniform_cells(self):
        dist = enumerate_distribution(zero_model())
        for pair in SETTING_PAIRS:
            np.testing.assert_allclose(
                reference_conditional_outcomes(dist, pair), 0.25, atol=1e-12
            )

    def test_cells_sum_to_one(self):
        rng = np.random.default_rng(24)
        for _ in range(5):
            dist = enumerate_distribution(random_model(rng))
            for pair in SETTING_PAIRS:
                table = reference_conditional_outcomes(dist, pair)
                assert table.sum() == pytest.approx(1.0, abs=1e-12)

    def test_layout_guard(self):
        dist = enumerate_distribution(zero_model(m=3, n=4))
        with pytest.raises(ValueError, match="4 visible units"):
            reference_conditional_outcomes(dist, (0, 0))
        with pytest.raises(ValueError, match="4 visible units"):
            correlations_from_distribution(dist)

    def test_invalid_settings(self, reference_dist):
        with pytest.raises(ValueError, match="binary"):
            reference_conditional_outcomes(reference_dist, (0, 2))


class TestLocalityCheck:
    def test_reference_model(self, reference_dist):
        assert locality_check(reference_dist) <= 1e-10

    def test_zero_model(self):
        dist = enumerate_distribution(zero_model())
        assert locality_check(dist) <= 1e-15

    def test_random_models(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            dist = enumerate_distribution(random_model(rng))
            assert locality_check(dist) <= 1e-10

    def test_layout_guard(self):
        dist = enumerate_distribution(zero_model(m=2, n=2))
        with pytest.raises(ValueError, match="4 visible units"):
            locality_check(dist)


class TestMeasurementIndependence:
    def test_zero_weight_model_independent(self):
        rng = np.random.default_rng(26)
        model = RbmModel(
            visible_bias=rng.normal(0, 2, 4),
            hidden_bias=rng.normal(0, 2, 4),
            weights=np.zeros((4, 4)),
        )
        report = measurement_independence_check(enumerate_distribution(model))
        assert report.max_tv < 1e-12

    def test_reference_violation_frozen_value(self, reference_dist):
        report = measurement_independence_check(reference_dist)
        assert report.max_tv == pytest.approx(REFERENCE_MAX_TV, abs=1e-9)
        assert report.max_tv > 0.05

    def test_rows_normalized_and_pooled_average(self, reference_dist):
        report = measurement_independence_check(reference_dist)
        np.testing.assert_allclose(report.conditional.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(
            report.pooled, report.conditional.mean(axis=0), atol=1e-15
        )
        assert report.setting_pairs == SETTING_PAIRS
        assert report.max_tv == pytest.approx(report.tv_distances.max(), abs=0)

    def test_zero_mass_hidden_states_raise_no_warning(self):
        # no setting pair puts mass on λ = 0 or 1, where P(v3 | v1, λ) would
        # be 0/0; measurement independence reads only P(v1, v2, λ)
        joint = np.zeros((16, 16))
        joint[:, 2:] = 1.0 / (16 * 14)
        dist = ExactDistribution(zero_model(), log_partition=0.0, joint=joint)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = measurement_independence_check(dist)
        np.testing.assert_array_equal(report.conditional[:, :2], 0.0)
        assert report.max_tv <= 1e-15

    def test_tv_definition(self, reference_dist):
        report = measurement_independence_check(reference_dist)
        for row, tv in zip(report.conditional, report.tv_distances):
            assert tv == pytest.approx(
                0.5 * np.abs(row - report.pooled).sum(), abs=1e-15
            )


class TestMarginTable:
    def test_built_once_read_only_same_bits(self):
        dist = enumerate_distribution(load_reference_model())
        residual = locality_check(dist)
        report = measurement_independence_check(dist)
        margins = dist._margins
        assert dist._margins is margins
        with pytest.raises(ValueError, match="read-only"):
            margins[0, 0] = 1.0
        assert repr(locality_check(dist)) == repr(residual)
        _assert_bit_identical(measurement_independence_check(dist), report)
        # the rows are numpy's sums over the other axes, bit for bit
        j = dist.joint.reshape(2, 2, 2, 2, -1)
        for start, axes in ((0, (2, 3)), (4, (1, 3)), (8, (0, 2))):
            want = j.sum(axis=axes).reshape(4, -1)
            assert np.array_equal(margins[start : start + 4], want)


class TestHiddenState:
    def test_round_trip_all_indices(self):
        # `eprbm diagnose` labels hidden state i as format(i, "0nb"), which
        # must spell row i of bit_patterns(n), the λ order of every table
        for n in (1, 3, 4):
            for i, bits in enumerate(bit_patterns(n).astype(int)):
                assert format(i, f"0{n}b") == "".join(map(str, bits))


def _oracle_population(kind: str) -> list[RbmModel]:
    """Seeded models of one kind for the bit-for-bit oracle comparison."""
    rng = np.random.default_rng(505)
    if kind == "zero_weight":
        return [
            RbmModel(
                visible_bias=rng.normal(0, 2, 4),
                hidden_bias=rng.normal(0, 2, 4),
                weights=np.zeros((4, 4)),
            )
            for _ in range(10)
        ]
    if kind == "reference_hidden_bias_-800":
        model = load_reference_model()
        hidden_bias = model.hidden_bias.copy()
        hidden_bias[0] = -800.0
        return [RbmModel(model.visible_bias, hidden_bias, model.weights)]
    scale = float(kind.removeprefix("scale="))
    hidden_sizes = (4,) * 8 + (3, 1)
    return [random_model(rng, n=n, scale=scale) for n in hidden_sizes for _ in range(3)]


def _outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as err:  # noqa: BLE001 - compared with the oracle's
        return (type(err), str(err))


def _assert_bit_identical(got, want):
    """Floats equal by repr and arrays by np.array_equal, NaN equal to NaN."""
    if isinstance(want, tuple):  # an exception's (type, message), or setting pairs
        assert got == want
    elif isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
    elif isinstance(want, float):
        assert repr(got) == repr(want)
    else:
        fields = (
            ("setting_pairs", "conditional", "pooled", "tv_distances", "max_tv")
            if hasattr(want, "tv_distances")
            else ("c_ab", "c_ab_prime", "c_a_prime_b", "c_a_prime_b_prime", "s")
        )
        assert type(got) is type(want)
        for name in fields:
            _assert_bit_identical(getattr(got, name), getattr(want, name))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "kind",
    [
        "scale=0.01",
        "scale=1",
        "scale=10",
        "scale=100",
        "zero_weight",
        "reference_hidden_bias_-800",
    ],
)
def test_diagnostics_bit_identical_to_per_pair_oracles(kind):
    for model in _oracle_population(kind):
        dist = enumerate_distribution(model)
        _assert_bit_identical(
            _outcome(correlations_from_distribution, dist),
            _outcome(reference_correlations, dist),
        )
        _assert_bit_identical(
            _outcome(locality_check, dist), _outcome(reference_locality_check, dist)
        )
        _assert_bit_identical(
            _outcome(measurement_independence_check, dist),
            _outcome(reference_measurement_independence, dist),
        )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(
    n=st.integers(1, 8),
    log_scale=st.floats(-2.0, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_diagnostics_bit_identical_over_widths_and_scales(n, log_scale, seed):
    # scales log-uniform from 0.01 to 100; at the top some models give NaN
    # or raise, and the oracles must do the same
    model = random_model(np.random.default_rng(seed), n=n, scale=10.0**log_scale)
    dist = enumerate_distribution(model)
    for check, oracle in (
        (correlations_from_distribution, reference_correlations),
        (locality_check, reference_locality_check),
        (measurement_independence_check, reference_measurement_independence),
    ):
        _assert_bit_identical(_outcome(check, dist), _outcome(oracle, dist))
