import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eprbm import bell
from eprbm.bell import (
    CorrelationReport,
    chsh,
    comparison_table,
    model_correlations_exact,
    theory_correlations,
)
from eprbm.epr import DetectorAngles
from eprbm.exact import SETTING_PAIR_LABELS, SETTING_PAIRS
from eprbm.rbm import advance_chains

from helpers import flip_outcome_bits, parse_comparison_csv, random_model, zero_model

corr_st = st.floats(min_value=-1.0, max_value=1.0)

# Correlations the bundled reference model reproduces, the empirical values
# of the run it was fitted to, and the singlet predictions, at 3 decimals.
REFERENCE_MODEL_COLUMN = (-0.711, -0.699, -0.713, 0.704)
REFERENCE_DATA_COLUMN = (-0.713, -0.701, -0.714, 0.709)
SINGLET_THEORY_COLUMN = (-0.707, -0.707, -0.707, 0.707)


def test_labels_derived_from_setting_pairs():
    # the printed labels, the pair names and the CSV keys are built, not
    # written out; each must spell its pairs in SETTING_PAIRS order
    assert bell.QUANTITY_LABELS == ("C(a,b)", "C(a,b')", "C(a',b)", "C(a',b')")
    assert tuple(SETTING_PAIR_LABELS) == SETTING_PAIRS
    assert tuple(SETTING_PAIR_LABELS.values()) == (
        "(a, b)", "(a, b')", "(a', b)", "(a', b')",
    )
    assert bell._CSV_KEYS == (
        "c_ab", "c_ab_prime", "c_a_prime_b", "c_a_prime_b_prime", "s",
    )


def sampled_correlations(model, n_samples, rng, burn_in):
    """The four correlations among n_samples chains after burn_in sweeps.

    Each chain starts from uniform random visible bits, and its final visible
    state counts as one trial.
    """
    start = (rng.random((n_samples, 4)) < 0.5).astype(np.float64)
    visible = advance_chains(model, start, rng, n_sweeps=burn_in)
    products = (2 * visible[:, 2] - 1) * (2 * visible[:, 3] - 1)
    return tuple(
        float(products[(visible[:, 0] == s1) & (visible[:, 1] == s2)].mean())
        for s1, s2 in SETTING_PAIRS
    )


class TestChsh:
    def test_quantum_optimum(self):
        assert chsh(-0.707, -0.707, -0.707, 0.707) == pytest.approx(2.828)

    def test_zeros(self):
        assert chsh(0.0, 0.0, 0.0, 0.0) == 0.0

    def test_algebraic_maximum(self):
        assert chsh(1.0, 1.0, 1.0, -1.0) == 4.0

    @pytest.mark.parametrize("bad", [1.2, -1.5, math.nan, math.inf])
    def test_out_of_range(self, bad):
        with pytest.raises(ValueError):
            chsh(bad, 0.0, 0.0, 0.0)

    @given(corr_st, corr_st, corr_st, corr_st)
    def test_bounds(self, a, b, c, d):
        s = chsh(a, b, c, d)
        assert 0.0 <= s <= 4.0


class TestCorrelationReport:
    def test_constructor_derives_s(self):
        report = CorrelationReport(-0.5, -0.5, -0.5, 0.5, source="theory")
        assert report.s == 2.0

    def test_s_is_not_an_argument(self):
        with pytest.raises(TypeError, match="unexpected keyword argument 's'"):
            CorrelationReport(-0.5, -0.5, -0.5, 0.5, s=2.0, source="theory")

    def test_bad_source_rejected(self):
        with pytest.raises(ValueError, match="source"):
            CorrelationReport(0, 0, 0, 0, source="guess")

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            CorrelationReport(-1.2, 0, 0, 0, source="theory")

    @given(corr_st, corr_st, corr_st, corr_st)
    def test_any_valid_input_accepted(self, a, b, c, d):
        report = CorrelationReport(a, b, c, d, source="empirical")
        assert 0.0 <= report.s <= 4.0


class TestTheoryCorrelations:
    def test_default_angles(self):
        report = theory_correlations(DetectorAngles())
        for c, expected in zip(report.correlations(), SINGLET_THEORY_COLUMN):
            assert c == pytest.approx(expected, abs=1e-3)
        assert report.s == pytest.approx(2.828, abs=1e-3)
        assert report.s == pytest.approx(2 * math.sqrt(2), abs=1e-12)
        assert report.s > 2.8
        assert report.source == "theory"

    def test_equal_angles_saturate_inequality(self):
        angles = DetectorAngles(a=0.4, a_prime=0.4, b=0.4, b_prime=0.4)
        report = theory_correlations(angles)
        assert report.correlations() == (-1.0, -1.0, -1.0, -1.0)
        assert report.s == pytest.approx(2.0)

    def test_matched_orthogonal_angles(self):
        # a = b, a' = b', a perpendicular to a': the parallel pairs are
        # perfectly anticorrelated and the cross pairs vanish, so the CHSH
        # combination cancels: |(-1) + 0 + 0 - (-1)| = 0
        angles = DetectorAngles(a=0.0, a_prime=math.pi / 2, b=0.0, b_prime=math.pi / 2)
        report = theory_correlations(angles)
        assert report.c_ab == pytest.approx(-1.0)
        assert report.c_a_prime_b_prime == pytest.approx(-1.0)
        assert report.c_ab_prime == pytest.approx(0.0, abs=1e-12)
        assert report.c_a_prime_b == pytest.approx(0.0, abs=1e-12)
        assert report.s == pytest.approx(0.0, abs=1e-12)

    def test_each_correlation_reads_its_own_pair(self):
        # four distinct angles give four distinct values, so a swapped pair
        # or a swapped angle would show; each value is exactly the singlet
        # formula at the angles its name reads
        angles = DetectorAngles(a=0.3, a_prime=-1.2, b=2.5, b_prime=0.7)
        report = theory_correlations(angles)
        assert report.c_ab == -math.cos(0.3 - 2.5)
        assert report.c_ab_prime == -math.cos(0.3 - 0.7)
        assert report.c_a_prime_b == -math.cos(-1.2 - 2.5)
        assert report.c_a_prime_b_prime == -math.cos(-1.2 - 0.7)
        assert report.correlations() == (
            0.5885011172553458, -0.9210609940028851,
            0.848100031710408, 0.32328956686350335,
        )


class TestModelCorrelationsExact:
    def test_reference_matches_published_values(self, reference_model):
        report = model_correlations_exact(reference_model)
        for c, expected in zip(report.correlations(), REFERENCE_MODEL_COLUMN):
            assert c == pytest.approx(expected, abs=0.02)
        assert report.s == pytest.approx(2.827, abs=0.04)
        assert report.source == "model-exact"

    def test_zero_model(self):
        report = model_correlations_exact(zero_model())
        assert report.correlations() == (0.0, 0.0, 0.0, 0.0)
        assert report.s == 0.0

    def test_outcome_bit_flip_invariance(self, reference_model):
        # complementing both outcome bits relabels v3/v4; correlations
        # depend only on bit equality so nothing changes
        flipped = flip_outcome_bits(reference_model)
        a = model_correlations_exact(reference_model)
        b = model_correlations_exact(flipped)
        np.testing.assert_allclose(a.correlations(), b.correlations(), atol=1e-9)

    def test_chsh_bounds_for_random_models(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            report = model_correlations_exact(random_model(rng))
            assert 0.0 <= report.s <= 4.0

    def test_other_width_refused_before_enumeration(self):
        # a 16-visible model's 2^20 joint states took 32.5 MiB of tables
        # before the layout error; the width alone now refuses it
        model = zero_model(m=16, n=4)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="EPR layout requires exactly 4 visible"):
                model_correlations_exact(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestModelCorrelationsSampled:
    def test_agrees_with_exact_at_scale(
        self, reference_model, reference_gibbs_sample
    ):
        # 10^6-sample cross-check of the sampler against enumeration
        visible, _ = reference_gibbs_sample
        exact_report = model_correlations_exact(reference_model)
        products = (2 * visible[:, 2] - 1) * (2 * visible[:, 3] - 1)
        for (s1, s2), expected in zip(SETTING_PAIRS, exact_report.correlations()):
            mask = (visible[:, 0] == s1) & (visible[:, 1] == s2)
            assert products[mask].mean() == pytest.approx(expected, abs=0.01)

    def test_sampled_report_smoke(self, reference_model):
        rng = np.random.default_rng(32)
        sampled = sampled_correlations(reference_model, 200_000, rng, burn_in=20)
        exact_report = model_correlations_exact(reference_model)
        for c, e in zip(sampled, exact_report.correlations()):
            assert c == pytest.approx(e, abs=0.02)

    def test_deterministic(self, reference_model):
        a = sampled_correlations(
            reference_model, 5000, np.random.default_rng(33), burn_in=5
        )
        b = sampled_correlations(
            reference_model, 5000, np.random.default_rng(33), burn_in=5
        )
        assert a == b


def _reference_reports():
    theory = CorrelationReport(*SINGLET_THEORY_COLUMN, source="theory")
    data = CorrelationReport(*REFERENCE_DATA_COLUMN, source="empirical")
    model = CorrelationReport(*REFERENCE_MODEL_COLUMN, source="model-exact")
    return theory, data, model


class TestComparisonTable:
    def test_reproduces_published_comparison(self):
        theory, data, model = _reference_reports()
        text = comparison_table(theory, data, model)
        lines = text.splitlines()
        assert lines[0].split() == ["quantity", "theory", "data", "model"]
        assert lines[1].split() == ["C(a,b)", "-0.707", "-0.713", "-0.711"]
        assert lines[2].split() == ["C(a,b')", "-0.707", "-0.701", "-0.699"]
        assert lines[3].split() == ["C(a',b)", "-0.707", "-0.714", "-0.713"]
        assert lines[4].split() == ["C(a',b')", "0.707", "0.709", "0.704"]
        assert lines[5].split() == ["S", "2.828", "2.837", "2.827"]

    def test_missing_data_column_rendered_as_dash(self):
        theory, _, model = _reference_reports()
        text = comparison_table(theory, None, model)
        for line in text.splitlines()[1:]:
            assert "—" in line

    def test_identical_values_give_zero_differences(self):
        values = (-0.6, -0.6, -0.6, 0.6)
        reports = [
            CorrelationReport(*values, source=src)
            for src in ("theory", "empirical", "model-exact")
        ]
        parsed = parse_comparison_csv(comparison_table(*reports, csv=True))
        for row in parsed.values():
            assert row["theory"] == row["data"] == row["model"]

    def test_duplicate_sources_rejected(self):
        theory, data, model = _reference_reports()
        with pytest.raises(ValueError, match="distinct"):
            comparison_table(theory, data, data)
        with pytest.raises(ValueError, match="distinct"):
            comparison_table(model, None, model, csv=True)


class TestComparisonCsv:
    def test_round_trip_at_three_decimals(self):
        rng = np.random.default_rng(34)
        values = np.round(rng.uniform(-1, 1, 4), 3)
        theory = theory_correlations(DetectorAngles())
        model = CorrelationReport(*values, source="model-exact")
        text = comparison_table(theory, None, model, csv=True)
        parsed = parse_comparison_csv(text)
        assert parsed["c_ab"]["model"] == pytest.approx(values[0], abs=5e-4)
        assert parsed["s"]["model"] == pytest.approx(model.s, abs=5e-4)
        assert parsed["c_ab"]["data"] is None
        # a second render of the parsed values is identical
        model2 = CorrelationReport(
            parsed["c_ab"]["model"],
            parsed["c_ab_prime"]["model"],
            parsed["c_a_prime_b"]["model"],
            parsed["c_a_prime_b_prime"]["model"],
            source="model-exact",
        )
        assert comparison_table(theory, None, model2, csv=True) == text

    def test_header_and_quantities(self):
        theory, data, model = _reference_reports()
        lines = comparison_table(theory, data, model, csv=True).splitlines()
        assert lines[0] == "quantity,theory,data,model"
        assert [line.split(",")[0] for line in lines[1:]] == [
            "c_ab",
            "c_ab_prime",
            "c_a_prime_b",
            "c_a_prime_b_prime",
            "s",
        ]

    def test_parse_rejects_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_comparison_csv("a,b,c\n1,2,3\n")
