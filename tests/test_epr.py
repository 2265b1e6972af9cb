import hashlib
import itertools
import json
import math
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprbm import atomic
from eprbm.epr import (
    DetectorAngles,
    EprDataset,
    InsufficientDataError,
    empirical_correlations,
    encode_dataset,
    generate_dataset,
    load_dataset,
    save_dataset,
    sidecar_path,
)
from eprbm.exact import bit_patterns

from helpers import (
    csv_text,
    four_column_trials,
    masked_mean_correlations,
    singlet_prob_oracle,
)

angles_st = st.floats(min_value=-10.0, max_value=10.0)
outcome_st = st.sampled_from([-1, 1])


def one_trial(alpha, beta, x_alpha, x_beta) -> EprDataset:
    return EprDataset(
        alpha=[alpha],
        beta=[beta],
        x_alpha=[x_alpha],
        x_beta=[x_beta],
        seed=None,
        angles=DetectorAngles(),
    )


class TestDetectorAngles:
    def test_defaults(self):
        angles = DetectorAngles()
        assert angles.a == 0.0
        assert angles.a_prime == pytest.approx(math.pi / 2)
        assert angles.b == pytest.approx(math.pi / 4)
        assert angles.b_prime == pytest.approx(-math.pi / 4)

    def test_station_lookup(self):
        angles = DetectorAngles(a=0.1, a_prime=0.2, b=0.3, b_prime=0.4)
        assert angles.station_a(0) == 0.1
        assert angles.station_a(1) == 0.2
        assert angles.station_b(0) == 0.3
        assert angles.station_b(1) == 0.4
        with pytest.raises(ValueError):
            angles.station_a(2)

    def test_dict_round_trip(self):
        angles = DetectorAngles(a=1.0, a_prime=-2.0, b=0.25, b_prime=3.5)
        assert DetectorAngles.from_dict(angles.to_dict()) == angles

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["a", "a_prime", "b", "b_prime"])
    def test_rejects_non_finite(self, field, value):
        # a NaN angle made every trial anticorrelated (S = 2.000) and put a
        # non-standard NaN token in the sidecar
        with pytest.raises(ValueError, match="finite"):
            DetectorAngles(**{field: value})


class TestEprTrial:
    """Each trial: settings 0 or 1, outcomes +1 or -1."""

    def test_valid(self):
        trial = one_trial(alpha=1, beta=0, x_alpha=-1, x_beta=1)
        assert trial.alpha.tolist() == [1]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha=2, beta=0, x_alpha=1, x_beta=1),
            dict(alpha=0, beta=-1, x_alpha=1, x_beta=1),
            dict(alpha=0, beta=0, x_alpha=0, x_beta=1),
            dict(alpha=0, beta=0, x_alpha=1, x_beta=2),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            one_trial(**kwargs)


class TestSingletJointProbability:
    """The singlet law P(x_a, x_b) = (1 - x_a x_b cos(theta_a - theta_b)) / 4,
    as the density-matrix oracle the generated trials are checked against
    gives it."""

    def test_known_value(self):
        # (1 - cos(pi/4)) / 4
        p = singlet_prob_oracle(0.0, math.pi / 4, 1, 1)
        assert p == pytest.approx(0.0732233, abs=1e-6)

    def test_equal_angles_anticorrelated(self):
        assert singlet_prob_oracle(0.7, 0.7, 1, 1) == pytest.approx(0.0, abs=1e-15)
        assert singlet_prob_oracle(0.7, 0.7, 1, -1) == pytest.approx(0.5)

    @given(angles_st, angles_st)
    def test_normalization(self, ta, tb):
        total = sum(
            singlet_prob_oracle(ta, tb, xa, xb)
            for xa in (-1, 1)
            for xb in (-1, 1)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    @given(angles_st, angles_st, outcome_st, outcome_st)
    @settings(max_examples=50)
    def test_matches_density_matrix_oracle(self, ta, tb, xa, xb):
        closed_form = (1.0 - xa * xb * math.cos(ta - tb)) / 4.0
        oracle = singlet_prob_oracle(ta, tb, xa, xb)
        assert closed_form == pytest.approx(oracle, abs=1e-10)

    @given(angles_st, angles_st)
    def test_implies_cosine_correlation(self, ta, tb):
        corr = sum(
            xa * xb * singlet_prob_oracle(ta, tb, xa, xb)
            for xa in (-1, 1)
            for xb in (-1, 1)
        )
        assert corr == pytest.approx(-math.cos(ta - tb), abs=1e-12)


class TestGenerateDataset:
    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="n_trials"):
            generate_dataset(DetectorAngles(), 0, seed=1)

    def test_outcomes_follow_per_trial_agreement_law(self):
        # per trial: x_beta equals x_alpha when the fourth block's uniform
        # falls below the singlet's P(same outcome) at that trial's angles
        angles = DetectorAngles(0.3, 1.1, -0.4, 2.0)
        n = 3000
        dataset = generate_dataset(angles, n, seed=31)
        rng = np.random.default_rng(31)
        for _ in range(3):
            rng.integers(0, 2, size=n)
        agree_u = rng.random(n)
        p_same = np.zeros((2, 2))
        for alpha, beta, x in itertools.product((0, 1), (0, 1), (-1, 1)):
            p_same[alpha, beta] += singlet_prob_oracle(
                angles.station_a(alpha), angles.station_b(beta), x, x
            )
        same = agree_u < p_same[dataset.alpha, dataset.beta]
        np.testing.assert_array_equal(
            dataset.x_beta, np.where(same, dataset.x_alpha, -dataset.x_alpha)
        )

    def test_deterministic(self):
        a = generate_dataset(DetectorAngles(), 1000, seed=42)
        b = generate_dataset(DetectorAngles(), 1000, seed=42)
        for name in ("alpha", "beta", "x_alpha", "x_beta"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        assert a.seed == 42

    def test_empirical_correlations_near_theory(self):
        dataset = generate_dataset(DetectorAngles(), 100_000, seed=7)
        report = empirical_correlations(dataset)
        expected = (-0.707, -0.707, -0.707, 0.707)
        for c, e in zip(report.correlations(), expected):
            assert c == pytest.approx(e, abs=0.01)

    def test_setting_pair_counts(self):
        dataset = generate_dataset(DetectorAngles(), 100_000, seed=8)
        for a, b in itertools.product((0, 1), repeat=2):
            count = int(((dataset.alpha == a) & (dataset.beta == b)).sum())
            assert abs(count - 25_000) <= 500

    def test_outcome_marginals_unbiased(self):
        # no signaling in the data: mean outcome is 0 for every setting
        dataset = generate_dataset(DetectorAngles(), 100_000, seed=9)
        bound = 3.0 / math.sqrt(20_000)
        for setting in (0, 1):
            assert abs(dataset.x_alpha[dataset.alpha == setting].mean()) < bound
            assert abs(dataset.x_beta[dataset.beta == setting].mean()) < bound

    def test_large_sample_convergence(self):
        dataset = generate_dataset(DetectorAngles(), 1_000_000, seed=10)
        report = empirical_correlations(dataset)
        for c, e in zip(report.correlations(), (-0.7071, -0.7071, -0.7071, 0.7071)):
            assert c == pytest.approx(e, abs=0.004)

    def test_custom_angles(self):
        # equal angles everywhere: perfect anticorrelation in every pair
        angles = DetectorAngles(a=0.3, a_prime=0.3, b=0.3, b_prime=0.3)
        dataset = generate_dataset(angles, 2000, seed=11)
        assert np.all(dataset.x_alpha == -dataset.x_beta)


class TestEmpiricalCorrelations:
    def test_two_trial_example(self):
        dataset = EprDataset(
            alpha=[0, 0],
            beta=[0, 0],
            x_alpha=[1, -1],
            x_beta=[1, -1],
            seed=None,
            angles=DetectorAngles(),
        )
        with pytest.raises(InsufficientDataError) as excinfo:
            empirical_correlations(dataset)
        message = str(excinfo.value)
        for label in ("(a, b')", "(a', b)", "(a', b')"):
            assert label in message
        assert excinfo.value.missing_pairs == [(0, 1), (1, 0), (1, 1)]

    def test_perfect_correlation_value(self):
        dataset = EprDataset(
            alpha=[0, 0, 0, 1, 1],
            beta=[0, 1, 0, 0, 1],
            x_alpha=[1, 1, -1, 1, -1],
            x_beta=[1, -1, -1, 1, -1],
            seed=None,
            angles=DetectorAngles(),
        )
        report = empirical_correlations(dataset)
        assert report.c_ab == 1.0
        assert report.c_ab_prime == -1.0
        assert report.source == "empirical"

    def test_fair_coin_outcomes_uncorrelated(self):
        rng = np.random.default_rng(12)
        n = 50_000
        dataset = EprDataset(
            alpha=rng.integers(0, 2, n),
            beta=rng.integers(0, 2, n),
            x_alpha=2 * rng.integers(0, 2, n) - 1,
            x_beta=2 * rng.integers(0, 2, n) - 1,
            seed=None,
            angles=DetectorAngles(),
        )
        report = empirical_correlations(dataset)
        for c in report.correlations():
            assert abs(c) <= 0.02


def decode(encoded: np.ndarray) -> dict:
    """Trial columns back from encoded visible rows."""
    v = encoded.astype(np.int64)
    return {
        "alpha": v[:, 0],
        "beta": v[:, 1],
        "x_alpha": 2 * v[:, 2] - 1,
        "x_beta": 2 * v[:, 3] - 1,
    }


class TestEncoding:
    def test_setting_encoding_example(self):
        encoded = encode_dataset(one_trial(alpha=0, beta=0, x_alpha=1, x_beta=1))
        assert encoded.tolist() == [[0, 0, 1, 1]]

    def test_negative_outcome_example(self):
        encoded = encode_dataset(one_trial(alpha=1, beta=0, x_alpha=-1, x_beta=-1))
        assert encoded.tolist() == [[1, 0, 0, 0]]

    def test_round_trip_all_sixteen(self):
        every = list(itertools.product((0, 1), (0, 1), (-1, 1), (-1, 1)))
        dataset = EprDataset(*zip(*every), seed=None, angles=DetectorAngles())
        encoded = encode_dataset(dataset)
        assert sorted(dataset.pattern.tolist()) == list(range(16))
        for name, column in decode(encoded).items():
            np.testing.assert_array_equal(column, getattr(dataset, name))

    def test_encode_dataset_matches_rows(self):
        dataset = generate_dataset(DetectorAngles(), 200, seed=13)
        encoded = encode_dataset(dataset)
        assert encoded.shape == (200, 4)
        assert encoded.dtype == np.float64
        for i in (0, 57, 199):
            expected = [
                dataset.alpha[i],
                dataset.beta[i],
                (dataset.x_alpha[i] + 1) // 2,
                (dataset.x_beta[i] + 1) // 2,
            ]
            np.testing.assert_array_equal(encoded[i], expected)

    def test_pattern_index_is_row_of_bit_patterns(self):
        dataset = generate_dataset(DetectorAngles(), 2000, seed=13)
        index = dataset.pattern
        assert index.dtype == np.int64
        np.testing.assert_array_equal(
            bit_patterns(4)[index], encode_dataset(dataset)
        )

    def test_round_trip_preserves_correlations(self):
        dataset = generate_dataset(DetectorAngles(), 5000, seed=14)
        rebuilt = EprDataset(
            **decode(encode_dataset(dataset)), seed=dataset.seed, angles=dataset.angles
        )
        original = empirical_correlations(dataset)
        recovered = empirical_correlations(rebuilt)
        assert original.correlations() == recovered.correlations()


COLUMNS = ("alpha", "beta", "x_alpha", "x_beta")
# the default angles and three seeded non-default sets
ORACLE_ANGLES = [DetectorAngles()] + [
    DetectorAngles(*np.random.default_rng(seed).uniform(-math.pi, math.pi, 4).tolist())
    for seed in (1, 2, 3)
]


class TestPatternForm:
    """Each trial is one visible-pattern index; the four columns, the CSV and
    the correlations must be those of the four-column formulation."""

    @pytest.mark.parametrize("n_trials", [1, 7, 100_000])
    @pytest.mark.parametrize("angles", ORACLE_ANGLES)
    def test_matches_four_column_oracle(self, tmp_path, angles, n_trials):
        path = tmp_path / "trials.csv"
        for seed in range(6):
            columns = four_column_trials(angles, n_trials, seed)
            dataset = generate_dataset(angles, n_trials, seed)
            for name, column in zip(COLUMNS, columns):
                got = getattr(dataset, name)
                assert got.dtype == np.int64
                np.testing.assert_array_equal(got, column, err_msg=name)
            save_dataset(dataset, path)
            assert path.read_bytes() == csv_text(*columns).encode()
            try:
                want = masked_mean_correlations(*columns)
            except InsufficientDataError as err:
                with pytest.raises(InsufficientDataError) as got_err:
                    empirical_correlations(dataset)
                assert got_err.value.missing_pairs == err.missing_pairs
            else:
                got = empirical_correlations(dataset)
                assert got.correlations() == want.correlations()
                assert got.s == want.s

    @given(
        st.lists(
            st.tuples(st.sampled_from([0, 1]), st.sampled_from([0, 1]), outcome_st, outcome_st),
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, rows):
        columns = [np.array([row[i] for row in rows], dtype=np.int64) for i in range(4)]
        dataset = EprDataset(*columns, seed=5, angles=DetectorAngles())
        for name, column in zip(COLUMNS, columns):
            np.testing.assert_array_equal(getattr(dataset, name), column)
        alpha, beta, x_alpha, x_beta = columns
        want = 8 * alpha + 4 * beta + 2 * (x_alpha == 1) + (x_beta == 1)
        np.testing.assert_array_equal(dataset.pattern, want)
        assert dataset.pattern.dtype == np.int64
        encoded = encode_dataset(dataset)
        np.testing.assert_array_equal(
            encoded,
            np.column_stack([alpha, beta, (x_alpha + 1) // 2, (x_beta + 1) // 2]),
        )
        again = EprDataset.from_patterns(dataset.pattern, seed=5, angles=DetectorAngles())
        for name, column in zip(COLUMNS, columns):
            np.testing.assert_array_equal(getattr(again, name), column)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trials.csv"
            save_dataset(dataset, path)
            assert path.read_bytes() == csv_text(*columns).encode()
            loaded = load_dataset(path)
        np.testing.assert_array_equal(loaded.pattern, dataset.pattern)
        assert loaded.seed == 5 and loaded.angles == dataset.angles

    def test_from_patterns_checks_indices(self):
        angles = DetectorAngles()
        dataset = EprDataset.from_patterns([0, 15, 6.0], seed=None, angles=angles)
        assert dataset.pattern.tolist() == [0, 15, 6]
        assert dataset.x_beta.tolist() == [-1, 1, -1]
        with pytest.raises(ValueError, match="1-d"):
            EprDataset.from_patterns([[0, 1]], seed=None, angles=angles)
        with pytest.raises(ValueError, match="integers"):
            EprDataset.from_patterns([0, 1.5], seed=None, angles=angles)
        for bad in ([16], [-1], [3, 99]):
            with pytest.raises(ValueError, match="0..15"):
                EprDataset.from_patterns(bad, seed=None, angles=angles)

    def test_equality(self):
        angles = DetectorAngles()
        dataset = generate_dataset(angles, 5, 1)
        assert dataset == generate_dataset(angles, 5, 1)
        flipped = dataset.pattern.copy()
        flipped[2] ^= 1
        others = [
            EprDataset.from_patterns(flipped, seed=1, angles=angles),
            EprDataset.from_patterns(dataset.pattern[:4], seed=1, angles=angles),
            EprDataset.from_patterns(dataset.pattern, seed=2, angles=angles),
            EprDataset.from_patterns(dataset.pattern, seed=None, angles=angles),
            EprDataset.from_patterns(dataset.pattern, seed=1, angles=DetectorAngles(a=0.1)),
        ]
        for other in others:
            assert dataset != other and not dataset == other
        assert dataset != dataset.pattern.tolist()

    def test_from_patterns_copies(self):
        # the dataset's column is read-only; the caller's array is not touched
        pattern = np.arange(16)
        dataset = EprDataset.from_patterns(pattern, seed=None, angles=DetectorAngles())
        pattern[0] = 9
        assert dataset.pattern[0] == 0 and pattern.flags.writeable
        with pytest.raises(ValueError):
            dataset.pattern[0] = 1


class TestDatasetValidation:
    def test_rejects_bad_settings(self):
        with pytest.raises(ValueError):
            EprDataset(
                alpha=[0, 2],
                beta=[0, 0],
                x_alpha=[1, 1],
                x_beta=[1, 1],
                seed=None,
                angles=DetectorAngles(),
            )

    def test_rejects_bad_outcomes(self):
        with pytest.raises(ValueError):
            EprDataset(
                alpha=[0, 1],
                beta=[0, 0],
                x_alpha=[1, 0],
                x_beta=[1, 1],
                seed=None,
                angles=DetectorAngles(),
            )

    def test_rejects_fractional_entries(self):
        with pytest.raises(ValueError, match="integers"):
            EprDataset(
                alpha=[0.0, 0.5],
                beta=[0, 0],
                x_alpha=[1, 1],
                x_beta=[1, 1],
                seed=None,
                angles=DetectorAngles(),
            )
        whole = EprDataset(
            alpha=[0.0, 1.0],
            beta=[True, False],
            x_alpha=[1.0, -1.0],
            x_beta=[1, -1],
            seed=None,
            angles=DetectorAngles(),
        )
        assert whole.alpha.tolist() == [0, 1] and whole.beta.tolist() == [1, 0]

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="same length"):
            EprDataset(
                alpha=[0, 1],
                beta=[0],
                x_alpha=[1, 1],
                x_beta=[1, 1],
                seed=None,
                angles=DetectorAngles(),
            )

    def test_indexing(self):
        # trials are indexed through the columns: read-only int64 arrays
        dataset = generate_dataset(DetectorAngles(), 10, seed=15)
        assert len(dataset) == 10
        for name in ("alpha", "beta", "x_alpha", "x_beta"):
            column = getattr(dataset, name)
            assert column.dtype == np.int64 and column.shape == (10,)
            with pytest.raises(ValueError):
                column[3] = 0


class TestDatasetIO:
    def test_save_load_round_trip(self, tmp_path):
        dataset = generate_dataset(DetectorAngles(), 500, seed=16)
        path = tmp_path / "trials.csv"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        for name in ("alpha", "beta", "x_alpha", "x_beta"):
            np.testing.assert_array_equal(
                getattr(loaded, name), getattr(dataset, name)
            )
        assert loaded.seed == 16
        assert loaded.angles == dataset.angles

    def test_csv_format(self, tmp_path):
        dataset = EprDataset(
            alpha=[0, 1],
            beta=[1, 0],
            x_alpha=[1, -1],
            x_beta=[-1, -1],
            seed=3,
            angles=DetectorAngles(),
        )
        path = tmp_path / "trials.csv"
        save_dataset(dataset, path)
        lines = path.read_text().splitlines()
        assert lines == ["alpha,beta,x_alpha,x_beta", "0,1,1,-1", "1,0,-1,-1"]

    def test_bytes_match_line_by_line_rendering(self, tmp_path):
        dataset = generate_dataset(DetectorAngles(0.3, 1.1, -0.4, 2.0), 5000, seed=23)
        path = tmp_path / "trials.csv"
        save_dataset(dataset, path)
        expected = "alpha,beta,x_alpha,x_beta\n" + "".join(
            f"{int(a)},{int(b)},{int(xa)},{int(xb)}\n"
            for a, b, xa, xb in zip(
                dataset.alpha, dataset.beta, dataset.x_alpha, dataset.x_beta
            )
        )
        assert path.read_bytes() == expected.encode()

    def test_zero_trials_load_silently(self, tmp_path):
        dataset = EprDataset.from_patterns([], seed=4, angles=DetectorAngles())
        path = tmp_path / "trials.csv"
        save_dataset(dataset, path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = load_dataset(path)
        assert loaded == dataset and loaded.x_beta.shape == (0,)

    def test_truncated_csv_raises(self, tmp_path):
        dataset = generate_dataset(DetectorAngles(), 500, seed=16)
        path = tmp_path / "trials.csv"
        save_dataset(dataset, path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-120]))
        with pytest.raises(ValueError, match="n_trials"):
            load_dataset(path)

    def test_sidecar_contents(self, tmp_path):
        dataset = generate_dataset(DetectorAngles(), 50, seed=17)
        path = tmp_path / "trials.csv"
        save_dataset(dataset, path)
        meta = json.loads((tmp_path / "trials.csv.meta.json").read_text())
        assert meta["seed"] == 17
        assert meta["n_trials"] == 50
        assert meta["angles"]["a_prime"] == pytest.approx(math.pi / 2)
        assert meta["csv_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
        assert sidecar_path(path) == str(path) + ".meta.json"

    def test_torn_pair_raises(self, tmp_path, monkeypatch):
        # a second save that dies between its two renames leaves its rows
        # under the first save's sidecar, with the same trial count
        path = tmp_path / "trials.csv"
        save_dataset(generate_dataset(DetectorAngles(), 100, seed=1), path)
        real_replace = os.replace

        def replace(src, dst):
            if os.fspath(dst) == sidecar_path(path):
                raise OSError("killed")
            real_replace(src, dst)

        monkeypatch.setattr(atomic.os, "replace", replace)
        with pytest.raises(OSError, match="killed"):
            save_dataset(generate_dataset(DetectorAngles(), 100, seed=2), path)
        monkeypatch.undo()
        with pytest.raises(ValueError, match="re-run `eprbm simulate`"):
            load_dataset(path)

    def test_sidecar_without_hash_raises(self, tmp_path):
        path = tmp_path / "trials.csv"
        save_dataset(generate_dataset(DetectorAngles(), 50, seed=3), path)
        sidecar = Path(sidecar_path(path))
        meta = json.loads(sidecar.read_text())
        del meta["csv_sha256"]
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="re-run `eprbm simulate`"):
            load_dataset(path)

    def test_sidecar_with_non_finite_angle_raises(self, tmp_path):
        path = tmp_path / "trials.csv"
        save_dataset(generate_dataset(DetectorAngles(), 50, seed=3), path)
        sidecar = Path(sidecar_path(path))
        meta = json.loads(sidecar.read_text())
        meta["angles"]["b"] = math.nan
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="finite"):
            load_dataset(path)

    def test_missing_sidecar_raises(self, tmp_path):
        path = tmp_path / "trials.csv"
        path.write_text("alpha,beta,x_alpha,x_beta\n0,0,1,1\n")
        with pytest.raises(FileNotFoundError):
            load_dataset(path)

    def test_malformed_rows_raise(self, tmp_path):
        path = tmp_path / "trials.csv"
        path.write_text("alpha,beta,x_alpha,x_beta\n0,0,1\n")
        (tmp_path / "trials.csv.meta.json").write_text(
            json.dumps(
                {
                    "seed": None,
                    "n_trials": 1,
                    "angles": DetectorAngles().to_dict(),
                    "csv_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
                }
            )
        )
        with pytest.raises(ValueError):
            load_dataset(path)
