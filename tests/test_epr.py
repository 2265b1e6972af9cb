import hashlib
import itertools
import json
import math
import os
import tempfile
import tracemalloc
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
from eprbm.rbm import bit_patterns

from helpers import (
    COPIES,
    csv_text,
    four_column_dataset,
    four_column_trials,
    masked_mean_correlations,
    singlet_prob_oracle,
    trial_columns,
)

angles_st = st.floats(min_value=-10.0, max_value=10.0)
outcome_st = st.sampled_from([-1, 1])


def one_trial(alpha, beta, x_alpha, x_beta) -> EprDataset:
    return four_column_dataset([alpha], [beta], [x_alpha], [x_beta])


def write_csv(tmp_path, text: str) -> Path:
    """A dataset CSV holding exactly text, under a sidecar that records its
    line count after the header and its SHA-256, so only the CSV's own lines
    can be at fault."""
    path = tmp_path / "trials.csv"
    path.write_bytes(text.encode())
    meta = {
        "seed": None,
        "n_trials": len(text.splitlines()) - 1,
        "angles": DetectorAngles().to_dict(),
        "csv_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
    }
    Path(sidecar_path(path)).write_text(json.dumps(meta))
    return path


class TestDetectorAngles:
    def test_defaults(self):
        angles = DetectorAngles()
        assert angles.a == 0.0
        assert angles.a_prime == pytest.approx(math.pi / 2)
        assert angles.b == pytest.approx(math.pi / 4)
        assert angles.b_prime == pytest.approx(-math.pi / 4)

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
        assert trial_columns(trial)[0].tolist() == [1]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha=2, beta=0, x_alpha=1, x_beta=1),
            dict(alpha=0, beta=-1, x_alpha=1, x_beta=1),
            dict(alpha=0, beta=0, x_alpha=0, x_beta=1),
            dict(alpha=0, beta=0, x_alpha=1, x_beta=2),
        ],
    )
    def test_invalid(self, tmp_path, kwargs):
        # trials enter from outside only as CSV rows
        row = "{alpha},{beta},{x_alpha},{x_beta}\n".format(**kwargs)
        path = write_csv(tmp_path, "alpha,beta,x_alpha,x_beta\n" + row)
        with pytest.raises(ValueError, match="line 2"):
            load_dataset(path)


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

    @pytest.mark.parametrize("n_trials", [True, 10.0, "10"])
    def test_refuses_all_but_int_trial_counts(self, n_trials):
        # the seed's rule: numpy raised its own TypeError ("expected a
        # sequence of integers", or str < int) that named no argument
        with pytest.raises(ValueError, match=r"n_trials must be an int >= 1, got "):
            generate_dataset(DetectorAngles(), n_trials, seed=1)

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
        theta_a, theta_b = (angles.a, angles.a_prime), (angles.b, angles.b_prime)
        for alpha, beta, x in itertools.product((0, 1), (0, 1), (-1, 1)):
            p_same[alpha, beta] += singlet_prob_oracle(
                theta_a[alpha], theta_b[beta], x, x
            )
        alpha, beta, x_alpha, x_beta = trial_columns(dataset)
        same = agree_u < p_same[alpha, beta]
        np.testing.assert_array_equal(x_beta, np.where(same, x_alpha, -x_alpha))

    def test_deterministic(self):
        a = generate_dataset(DetectorAngles(), 1000, seed=42)
        b = generate_dataset(DetectorAngles(), 1000, seed=42)
        for column_a, column_b in zip(trial_columns(a), trial_columns(b)):
            np.testing.assert_array_equal(column_a, column_b)
        assert a.seed == 42

    def test_empirical_correlations_near_theory(self):
        dataset = generate_dataset(DetectorAngles(), 100_000, seed=7)
        report = empirical_correlations(dataset)
        expected = (-0.707, -0.707, -0.707, 0.707)
        for c, e in zip(report.correlations(), expected):
            assert c == pytest.approx(e, abs=0.01)

    def test_setting_pair_counts(self):
        alpha, beta, _, _ = trial_columns(
            generate_dataset(DetectorAngles(), 100_000, seed=8)
        )
        for a, b in itertools.product((0, 1), repeat=2):
            count = int(((alpha == a) & (beta == b)).sum())
            assert abs(count - 25_000) <= 500

    def test_outcome_marginals_unbiased(self):
        # no signaling in the data: mean outcome is 0 for every setting
        alpha, beta, x_alpha, x_beta = trial_columns(
            generate_dataset(DetectorAngles(), 100_000, seed=9)
        )
        bound = 3.0 / math.sqrt(20_000)
        for setting in (0, 1):
            assert abs(x_alpha[alpha == setting].mean()) < bound
            assert abs(x_beta[beta == setting].mean()) < bound

    def test_large_sample_convergence(self):
        dataset = generate_dataset(DetectorAngles(), 1_000_000, seed=10)
        report = empirical_correlations(dataset)
        for c, e in zip(report.correlations(), (-0.7071, -0.7071, -0.7071, 0.7071)):
            assert c == pytest.approx(e, abs=0.004)

    def test_peak_memory_per_trial(self):
        # the three fair-bit blocks come from one raw block of 12 bytes a
        # trial and the pattern is built in uint8, so the only int64 column
        # is the dataset's own; three int64 blocks took 33 bytes a trial
        n = 1_000_000
        tracemalloc.start()
        try:
            generate_dataset(DetectorAngles(), n, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 30 * n

    def test_custom_angles(self):
        # equal angles everywhere: perfect anticorrelation in every pair
        angles = DetectorAngles(a=0.3, a_prime=0.3, b=0.3, b_prime=0.3)
        _, _, x_alpha, x_beta = trial_columns(generate_dataset(angles, 2000, seed=11))
        assert np.all(x_alpha == -x_beta)


class TestEmpiricalCorrelations:
    def test_two_trial_example(self):
        dataset = four_column_dataset(
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
        dataset = four_column_dataset(
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
        dataset = four_column_dataset(
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
        dataset = four_column_dataset(*zip(*every), seed=None, angles=DetectorAngles())
        encoded = encode_dataset(dataset)
        assert sorted(dataset.pattern.tolist()) == list(range(16))
        for column, want in zip(decode(encoded).values(), trial_columns(dataset)):
            np.testing.assert_array_equal(column, want)

    def test_encode_dataset_matches_rows(self):
        dataset = generate_dataset(DetectorAngles(), 200, seed=13)
        encoded = encode_dataset(dataset)
        assert encoded.shape == (200, 4)
        assert encoded.dtype == np.float64
        alpha, beta, x_alpha, x_beta = trial_columns(dataset)
        for i in (0, 57, 199):
            expected = [alpha[i], beta[i], (x_alpha[i] + 1) // 2, (x_beta[i] + 1) // 2]
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
        rebuilt = four_column_dataset(
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

    # 3n fair bits fill 1.5n raw words: both parities of 3n, so the last
    # word's high half is used or left over
    @pytest.mark.parametrize("n_trials", [1, 2, 3, 7, 100_000, 100_001])
    @pytest.mark.parametrize("angles", ORACLE_ANGLES)
    def test_matches_four_column_oracle(self, tmp_path, angles, n_trials):
        path = tmp_path / "trials.csv"
        for seed in range(6):
            columns = four_column_trials(angles, n_trials, seed)
            dataset = generate_dataset(angles, n_trials, seed)
            for name, got, column in zip(COLUMNS, trial_columns(dataset), columns):
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
        st.integers(min_value=0, max_value=2**64),
        st.integers(min_value=1, max_value=3000),
        st.sampled_from(ORACLE_ANGLES),
    )
    @settings(max_examples=100, deadline=None)
    def test_patterns_match_four_column_oracle(self, seed, n_trials, angles):
        # the oracle draws its fair bits by three integers(0, 2) calls, so a
        # numpy that drew them another way would fail here
        alpha, beta, x_alpha, x_beta = four_column_trials(angles, n_trials, seed)
        want = 8 * alpha + 4 * beta + 2 * (x_alpha == 1) + (x_beta == 1)
        got = generate_dataset(angles, n_trials, seed).pattern
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)

    @given(
        st.lists(
            st.tuples(st.sampled_from([0, 1]), st.sampled_from([0, 1]), outcome_st, outcome_st),
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, rows):
        columns = [np.array([row[i] for row in rows], dtype=np.int64) for i in range(4)]
        dataset = four_column_dataset(*columns, seed=5, angles=DetectorAngles())
        for got, column in zip(trial_columns(dataset), columns):
            np.testing.assert_array_equal(got, column)
        alpha, beta, x_alpha, x_beta = columns
        want = 8 * alpha + 4 * beta + 2 * (x_alpha == 1) + (x_beta == 1)
        np.testing.assert_array_equal(dataset.pattern, want)
        assert dataset.pattern.dtype == np.int64
        encoded = encode_dataset(dataset)
        np.testing.assert_array_equal(
            encoded,
            np.column_stack([alpha, beta, (x_alpha + 1) // 2, (x_beta + 1) // 2]),
        )
        again = EprDataset(dataset.pattern, seed=5, angles=DetectorAngles())
        for got, column in zip(trial_columns(again), columns):
            np.testing.assert_array_equal(got, column)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trials.csv"
            save_dataset(dataset, path)
            assert path.read_bytes() == csv_text(*columns).encode()
            loaded = load_dataset(path)
        np.testing.assert_array_equal(loaded.pattern, dataset.pattern)
        assert loaded.seed == 5 and loaded.angles == dataset.angles

    def test_constructor_checks_indices(self):
        angles = DetectorAngles()
        dataset = EprDataset([0, 15, 6.0], seed=None, angles=angles)
        assert dataset.pattern.tolist() == [0, 15, 6]
        assert trial_columns(dataset)[3].tolist() == [-1, 1, -1]
        with pytest.raises(ValueError, match="1-d"):
            EprDataset([[0, 1]], seed=None, angles=angles)
        with pytest.raises(ValueError, match="integers"):
            EprDataset([0, 1.5], seed=None, angles=angles)
        for bad in ([16], [-1], [3, 99]):
            with pytest.raises(ValueError, match="0..15"):
                EprDataset(bad, seed=None, angles=angles)

    @pytest.mark.parametrize(
        "entries, message",
        [
            (["1"], "must be integers"),
            ([None], "must be integers"),
            ([1 + 0j], "must be integers"),
            ([1.5], "must be integers"),
            ([math.nan], "must be integers"),
            ([2**70], r"must lie in 0\.\.15"),
        ],
    )
    def test_constructor_refuses_entries_that_are_no_index(self, entries, message):
        # a string, None or a complex number gave numpy's TypeError from
        # np.floor, which named neither the column nor its rule
        with pytest.raises(ValueError, match=f"^pattern entries {message}$"):
            EprDataset(entries, seed=None, angles=DetectorAngles())

    def test_equality(self):
        angles = DetectorAngles()
        dataset = generate_dataset(angles, 5, 1)
        assert dataset == generate_dataset(angles, 5, 1)
        flipped = dataset.pattern.copy()
        flipped[2] ^= 1
        others = [
            EprDataset(flipped, seed=1, angles=angles),
            EprDataset(dataset.pattern[:4], seed=1, angles=angles),
            EprDataset(dataset.pattern, seed=2, angles=angles),
            EprDataset(dataset.pattern, seed=None, angles=angles),
            EprDataset(dataset.pattern, seed=1, angles=DetectorAngles(a=0.1)),
        ]
        for other in others:
            assert dataset != other and not dataset == other
        assert dataset != dataset.pattern.tolist()

    def test_constructor_copies(self):
        # the dataset's column is read-only; the caller's array is not touched
        pattern = np.arange(16)
        dataset = EprDataset(pattern, seed=None, angles=DetectorAngles())
        pattern[0] = 9
        assert dataset.pattern[0] == 0 and pattern.flags.writeable
        with pytest.raises(ValueError):
            dataset.pattern[0] = 1


class TestSeedRule:
    # a dataset records the seed generate_dataset drew it with, or None,
    # and takes no seed that load_dataset would refuse to read back
    @pytest.mark.parametrize("seed", [-5, 1.5, True, [1]])
    def test_dataset_refuses_what_load_refuses(self, seed):
        with pytest.raises(ValueError, match="seed must be None or an int >= 0"):
            EprDataset([0, 5], seed=seed, angles=DetectorAngles())

    @pytest.mark.parametrize("seed", [None, -5, 1.5, True])
    def test_generate_refuses_all_but_int_seeds(self, seed):
        # None would draw from OS entropy and record no seed to redraw with
        with pytest.raises(ValueError, match="seed must be an int >= 0"):
            generate_dataset(DetectorAngles(), 10, seed)

    @pytest.mark.parametrize("seed", [None, 0, 2**70])
    def test_every_accepted_seed_round_trips(self, tmp_path, seed):
        dataset = EprDataset([0, 5, 15], seed=seed, angles=DetectorAngles())
        save_dataset(dataset, tmp_path / "d.csv")
        assert load_dataset(tmp_path / "d.csv") == dataset

    def test_load_names_the_sidecar(self, tmp_path):
        path = tmp_path / "d.csv"
        save_dataset(generate_dataset(DetectorAngles(), 10, 3), path)
        meta = json.loads(Path(sidecar_path(path)).read_text())
        Path(sidecar_path(path)).write_text(json.dumps({**meta, "seed": 1.5}))
        with pytest.raises(ValueError) as err:
            load_dataset(path)
        assert str(err.value) == (
            f"{sidecar_path(path)}: seed must be None or an int >= 0, got 1.5"
        )


class TestDatasetValidation:
    # trials enter from outside only as CSV rows, each one of the 16 lines
    def test_rejects_bad_settings(self, tmp_path):
        path = write_csv(tmp_path, "alpha,beta,x_alpha,x_beta\n0,0,1,1\n2,0,1,1\n")
        with pytest.raises(ValueError, match="line 3"):
            load_dataset(path)

    def test_rejects_bad_outcomes(self, tmp_path):
        path = write_csv(tmp_path, "alpha,beta,x_alpha,x_beta\n0,0,1,1\n1,0,0,1\n")
        with pytest.raises(ValueError, match="line 3"):
            load_dataset(path)

    def test_rejects_fractional_entries(self, tmp_path):
        # a whole number written as a float is not a line save_dataset writes
        for row in ("0.5,0,1,1\n", "0.0,1,1,-1\n"):
            path = write_csv(tmp_path, "alpha,beta,x_alpha,x_beta\n" + row)
            with pytest.raises(ValueError, match="line 2"):
                load_dataset(path)

    def test_indexing(self):
        dataset = generate_dataset(DetectorAngles(), 10, seed=15)
        assert len(dataset) == 10

    @pytest.mark.parametrize("duplicate", COPIES)
    def test_copies_keep_the_pattern_read_only(self, duplicate):
        dataset = generate_dataset(DetectorAngles(), 10, seed=15)
        twin = duplicate(dataset)
        assert twin == dataset and twin.seed == 15
        assert twin.pattern.dtype == np.int64 and not twin.pattern.flags.writeable


class TestDatasetIO:
    def test_save_load_round_trip(self, tmp_path):
        dataset = generate_dataset(DetectorAngles(), 500, seed=16)
        path = tmp_path / "trials.csv"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        for got, want in zip(trial_columns(loaded), trial_columns(dataset)):
            np.testing.assert_array_equal(got, want)
        assert loaded.seed == 16
        assert loaded.angles == dataset.angles

    def test_load_peak_memory_per_trial(self, tmp_path):
        # the file's bytes, about 9 a trial, and one int8 pattern column
        # before the dataset's int64 copy; an int64 column there took 25
        # bytes a trial
        n = 1_000_000
        dataset = generate_dataset(DetectorAngles(), n, 0)
        path = tmp_path / "trials.csv"
        save_dataset(dataset, path)
        tracemalloc.start()
        try:
            loaded = load_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded == dataset
        assert peak <= 20 * n

    def test_csv_format(self, tmp_path):
        dataset = four_column_dataset(
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
            for a, b, xa, xb in zip(*trial_columns(dataset))
        )
        assert path.read_bytes() == expected.encode()

    def test_zero_trials_load_silently(self, tmp_path):
        dataset = EprDataset([], seed=4, angles=DetectorAngles())
        path = tmp_path / "trials.csv"
        save_dataset(dataset, path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = load_dataset(path)
        assert loaded == dataset and loaded.pattern.shape == (0,)

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
        path = write_csv(tmp_path, "alpha,beta,x_alpha,x_beta\n0,0,1\n")
        with pytest.raises(ValueError):
            load_dataset(path)

    @pytest.mark.parametrize(
        "line",
        ["0,0,+1,1\n", "0,2,1,1\n", "0,0,1.0,1\n", "0,0,1\n", "0,0,1,1,1\n",
         "0, 0,1,1\n", "0,0,1,1 \n", "0,0,1,1\r\n", "\n", "0,0,1,1"],
        ids=["plus-sign", "two", "float", "short", "long", "space", "trailing-space",
             "crlf", "blank", "no-final-newline"],
    )
    def test_line_not_written_by_save_raises_naming_it(self, tmp_path, line):
        # the bad line is the third, behind a good one; the sidecar matches
        # the file, so only the line itself is at fault
        path = write_csv(tmp_path, "alpha,beta,x_alpha,x_beta\n1,0,-1,1\n" + line)
        with pytest.raises(ValueError, match=r"trials\.csv: line 3 "):
            load_dataset(path)

    @pytest.mark.parametrize(
        "header",
        ["alpha,beta,x_a,x_b\n", "alpha,beta,x_alpha,x_beta\r\n",
         "alpha, beta, x_alpha, x_beta\n", "0,0,1,1\n", ""],
        ids=["names", "crlf", "spaces", "missing", "empty-file"],
    )
    def test_wrong_header_raises(self, tmp_path, header):
        path = write_csv(tmp_path, header + "0,0,1,1\n" if header else "")
        with pytest.raises(ValueError, match="line 1 must be the header"):
            load_dataset(path)

    def test_all_sixteen_lines_round_trip(self, tmp_path):
        lines = [f"{a},{b},{xa},{xb}\n" for a, b, xa, xb in
                 itertools.product((0, 1), (0, 1), (-1, 1), (-1, 1))]
        text = "alpha,beta,x_alpha,x_beta\n" + "".join(lines + lines[::-1])
        loaded = load_dataset(write_csv(tmp_path, text))
        want = list(range(16)) + list(range(15, -1, -1))
        assert loaded.pattern.tolist() == want
        path = tmp_path / "again.csv"
        save_dataset(loaded, path)
        assert path.read_bytes() == text.encode()
