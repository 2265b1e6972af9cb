import math

import numpy as np
import pytest

from eprbm.bell import correlations_from_distribution
from eprbm.exact import (
    HiddenState,
    MAX_EXACT_UNITS,
    SETTING_PAIRS,
    bit_patterns,
    conditional_outcomes,
    dump_joint_csv,
    enumerate_distribution,
    locality_check,
    measurement_independence_check,
)
from eprbm.rbm import Configuration, RbmModel, energy
from eprbm.trainer import load_reference_model

from helpers import (
    brute_force_joint,
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

    @pytest.mark.parametrize("k", [0, 4, 8])
    def test_small_tables_shared_read_only(self, k):
        table = bit_patterns(k)
        assert bit_patterns(k) is table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1.0

    def test_large_tables_built_per_call(self):
        first, second = bit_patterns(9), bit_patterns(9)
        assert first is not second
        assert first.flags.writeable
        assert first.shape == (512, 9)
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(first[:256, 1:], bit_patterns(8))


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

    def test_reference_normalization_and_positivity(self, reference_dist):
        assert reference_dist.joint.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(reference_dist.joint > 0)

    def test_joint_consistent_with_energy(self, reference_model, reference_dist):
        pats = bit_patterns(4).astype(int)
        for vi in range(16):
            for hi in range(16):
                e = energy(
                    reference_model, Configuration(pats[vi], pats[hi])
                )
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
        assert reference_dist.hidden_marginal().sum() == pytest.approx(1.0, abs=1e-12)


class TestConditionalOutcomes:
    def test_reference_same_outcome_probability(self, reference_dist):
        # P(v3 = v4 | settings (0,0)) is the trace of the outcome table
        table = conditional_outcomes(reference_dist, (0, 0))
        assert float(np.trace(table)) == pytest.approx(0.145, abs=0.01)

    def test_zero_model_uniform_cells(self):
        dist = enumerate_distribution(zero_model())
        for pair in SETTING_PAIRS:
            np.testing.assert_allclose(
                conditional_outcomes(dist, pair), 0.25, atol=1e-12
            )

    def test_cells_sum_to_one(self):
        rng = np.random.default_rng(24)
        for _ in range(5):
            dist = enumerate_distribution(random_model(rng))
            for pair in SETTING_PAIRS:
                table = conditional_outcomes(dist, pair)
                assert table.sum() == pytest.approx(1.0, abs=1e-12)

    def test_layout_guard(self):
        dist = enumerate_distribution(zero_model(m=3, n=4))
        with pytest.raises(ValueError, match="4 visible units"):
            conditional_outcomes(dist, (0, 0))

    def test_invalid_settings(self, reference_dist):
        with pytest.raises(ValueError, match="binary"):
            conditional_outcomes(reference_dist, (0, 2))


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

    def test_tv_definition(self, reference_dist):
        report = measurement_independence_check(reference_dist)
        for row, tv in zip(report.conditional, report.tv_distances):
            assert tv == pytest.approx(
                0.5 * np.abs(row - report.pooled).sum(), abs=1e-15
            )


class TestHiddenState:
    def test_round_trip_all_indices(self):
        for i in range(16):
            state = HiddenState.from_index(i, 4)
            assert state.index == i
            assert len(state.bits) == 4
            assert state.label() == format(i, "04b")

    def test_validation(self):
        with pytest.raises(ValueError):
            HiddenState((0, 2, 1))
        with pytest.raises(ValueError):
            HiddenState.from_index(16, 4)


class TestDumpJointCsv:
    def test_round_trip(self, tmp_path, reference_dist):
        path = tmp_path / "joint.csv"
        dump_joint_csv(reference_dist, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "v1,v2,v3,v4,h1,h2,h3,h4,probability"
        assert len(lines) == 1 + 256
        # first row is the all-zero configuration, order is lexicographic
        first = lines[1].split(",")
        assert first[:8] == ["0"] * 8
        assert float(first[8]) == reference_dist.joint[0, 0]
        last = lines[-1].split(",")
        assert last[:8] == ["1"] * 8
        assert float(last[8]) == reference_dist.joint[15, 15]

    def test_probabilities_sum_to_one(self, tmp_path):
        rng = np.random.default_rng(27)
        dist = enumerate_distribution(random_model(rng, m=2, n=3))
        path = tmp_path / "joint.csv"
        dump_joint_csv(dist, path)
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert rows.shape == (32, 6)
        assert rows[:, -1].sum() == pytest.approx(1.0, abs=1e-12)


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
        for pair in SETTING_PAIRS + ((0, 2),):
            _assert_bit_identical(
                _outcome(conditional_outcomes, dist, pair),
                _outcome(reference_conditional_outcomes, dist, pair),
            )
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
