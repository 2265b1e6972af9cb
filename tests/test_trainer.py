"""Trainer tests: moment estimators, gradients, the training loop itself,
divergence handling, and model-file round trips.

Stochastic assertions use fixed seeds and thresholds with several-sigma
margin; the gradient checks compare against finite differences and against
slow brute-force summation.
"""

from __future__ import annotations

import json
import tracemalloc
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from eprbm import bell, trainer
from eprbm.epr import DetectorAngles, EprDataset, encode_dataset, generate_dataset
from eprbm.exact import enumerate_distribution
from eprbm.rbm import RbmModel, _log_joint, _pattern_tables, advance_chains, bit_patterns
from eprbm.trainer import (
    ENCODING_DOC,
    EpochRecord,
    TrainerConfig,
    TrainingDivergedError,
    TrainingTrace,
    average_log_likelihood,
    data_expectation,
    exact_gradient,
    init_chains,
    load_model,
    load_reference_model,
    model_expectation_exact,
    model_expectation_pcd,
    save_model,
    train,
)

from helpers import (
    _reference_pcd_advance,
    brute_force_moments,
    gibbs_sweeps,
    random_model,
    reference_train,
    tv_distance,
    zero_model,
)


def unit_marginals(model: RbmModel) -> np.ndarray:
    """P(v_i = 1) for each visible unit, from the exact distribution."""
    dist = enumerate_distribution(model)
    return bit_patterns(model.n_visible).T @ dist.visible_marginal()


class TestTrainerConfig:
    def test_defaults(self):
        cfg = TrainerConfig(seed=0)
        assert cfg.learning_rate == 0.05
        assert cfg.learning_rate_decay == 0.995
        assert cfg.batch_size == 100
        assert cfg.n_persistent_chains == 100
        assert cfg.gibbs_steps_per_update == 5
        assert cfg.n_epochs == 200
        assert cfg.weight_init_scale == 0.01

    def test_seed_is_mandatory(self):
        with pytest.raises(TypeError):
            TrainerConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": -1},
            {"seed": 1.5},
            {"seed": 0, "learning_rate": -0.1},
            {"seed": 0, "learning_rate": float("inf")},
            {"seed": 0, "learning_rate_decay": 0.0},
            {"seed": 0, "learning_rate_decay": 1.2},
            {"seed": 0, "batch_size": 0},
            {"seed": 0, "n_persistent_chains": 0},
            {"seed": 0, "gibbs_steps_per_update": 0},
            {"seed": 0, "n_epochs": -1},
            {"seed": 0, "weight_init_scale": -0.5},
            {"seed": 0, "weight_init_scale": float("nan")},
            # bool is a subclass of int, but no integer field takes one
            {"seed": True},
            {"seed": 0, "batch_size": True},
            {"seed": 0, "n_persistent_chains": True},
            {"seed": 0, "gibbs_steps_per_update": True},
            {"seed": 0, "n_epochs": False},
            # nor does a float field, and a string is no number
            {"seed": 0, "learning_rate": True},
            {"seed": 0, "learning_rate_decay": True},
            {"seed": 0, "weight_init_scale": False},
            {"seed": 0, "learning_rate": "0.1"},
            {"seed": 0, "learning_rate_decay": "0.9"},
            {"seed": 0, "weight_init_scale": None},
            # an integer too large for a float is no finite rate or scale
            {"seed": 0, "learning_rate": 10**400},
            {"seed": 0, "learning_rate_decay": 10**400},
            {"seed": 0, "weight_init_scale": 10**400},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainerConfig(**kwargs)

    @pytest.mark.parametrize("field", ["seed", "n_epochs"])
    @pytest.mark.parametrize("value", [-1, 1.5, True])
    def test_integer_fields_name_the_rule(self, field, value):
        kwargs = {"seed": 0, field: value}
        with pytest.raises(ValueError) as err:
            TrainerConfig(**kwargs)
        assert str(err.value) == f"{field} must be a non-negative integer, got {value!r}"

    def test_boundary_values_allowed(self):
        TrainerConfig(seed=0, learning_rate=0.0)
        TrainerConfig(seed=0, learning_rate_decay=1.0)
        TrainerConfig(seed=0, n_epochs=0)
        TrainerConfig(seed=0, weight_init_scale=0.0)

    def test_dict_round_trip(self):
        cfg = TrainerConfig(seed=9, learning_rate=0.02, n_epochs=3)
        again = TrainerConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown trainer config keys"):
            TrainerConfig.from_dict({"seed": 0, "momentum": 0.9})

    def test_frozen(self):
        cfg = TrainerConfig(seed=0)
        with pytest.raises(AttributeError):
            cfg.learning_rate = 0.1


class TestDataExpectation:
    def test_zero_model_all_ones_batch(self):
        # every v_i is 1 and every hidden probability is 1/2
        vh, v_mean, h_mean = data_expectation(zero_model(), np.ones((3, 4)))
        np.testing.assert_allclose(vh, 0.5)
        np.testing.assert_allclose(v_mean, 1.0)
        np.testing.assert_allclose(h_mean, 0.5)

    def test_single_indicator_row(self, reference_model):
        # with v = (1,0,0,0) the only nonzero vh row is row 0, and it equals
        # the hidden activation profile sigma(d_j + w_0j)
        vh, v_mean, h_mean = data_expectation(reference_model, [[1, 0, 0, 0]])
        assert vh[0, 0] == pytest.approx(0.33894481880658417, abs=1e-12)
        np.testing.assert_array_equal(vh[1:], 0.0)
        np.testing.assert_array_equal(v_mean, [1.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(vh[0], h_mean, rtol=0, atol=1e-15)

    def test_matches_explicit_loop(self):
        rng = np.random.default_rng(12)
        model = random_model(rng, m=3, n=2, scale=1.5)
        batch = (rng.random((20, 3)) < 0.5).astype(float)
        vh, v_mean, h_mean = data_expectation(model, batch)

        acc_vh = np.zeros((3, 2))
        acc_v = np.zeros(3)
        acc_h = np.zeros(2)
        for row in batch:
            ph = 1.0 / (1.0 + np.exp(-(model.hidden_bias + row @ model.weights)))
            acc_vh += np.outer(row, ph)
            acc_v += row
            acc_h += ph
        np.testing.assert_allclose(vh, acc_vh / 20, atol=1e-12)
        np.testing.assert_allclose(v_mean, acc_v / 20, atol=1e-12)
        np.testing.assert_allclose(h_mean, acc_h / 20, atol=1e-12)

    def test_rejects_empty_batch(self, reference_model):
        with pytest.raises(ValueError, match="non-empty"):
            data_expectation(reference_model, np.empty((0, 4)))

    def test_rejects_wrong_width(self, reference_model):
        with pytest.raises(ValueError, match="shape"):
            data_expectation(reference_model, np.ones((2, 3)))


class TestModelExpectationExact:
    def test_zero_model_uniform_moments(self):
        vh, v_mean, h_mean = model_expectation_exact(zero_model())
        np.testing.assert_allclose(vh, 0.25, atol=1e-12)
        np.testing.assert_allclose(v_mean, 0.5, atol=1e-12)
        np.testing.assert_allclose(h_mean, 0.5, atol=1e-12)

    def test_strong_coupling_saturates_pair(self):
        w = np.zeros((4, 4))
        w[0, 0] = 50.0
        model = RbmModel(visible_bias=np.zeros(4), hidden_bias=np.zeros(4), weights=w)
        vh, v_mean, h_mean = model_expectation_exact(model)
        assert vh[0, 0] > 0.999
        assert v_mean[0] > 0.999
        assert h_mean[0] > 0.999
        # uncoupled units stay at their fair-coin moments
        np.testing.assert_allclose(v_mean[1:], 0.5, atol=1e-12)

    def test_matches_brute_force(self):
        model = random_model(np.random.default_rng(5), m=3, n=2)
        vh, v_mean, h_mean = model_expectation_exact(model)
        bf_vh, bf_v, bf_h = brute_force_moments(model)
        np.testing.assert_allclose(vh, bf_vh, atol=1e-10)
        np.testing.assert_allclose(v_mean, bf_v, atol=1e-10)
        np.testing.assert_allclose(h_mean, bf_h, atol=1e-10)

    def test_pair_moment_bounded_by_marginals(self):
        vh, v_mean, h_mean = model_expectation_exact(
            random_model(np.random.default_rng(6))
        )
        bound = np.minimum.outer(v_mean, h_mean)
        assert np.all(vh <= bound + 1e-12)


class TestModelExpectationPcd:
    def test_zero_model_estimates(self):
        rng = np.random.default_rng(3)
        chains = init_chains(5000, 4, rng)
        vh, v_mean, h_mean, _ = model_expectation_pcd(zero_model(), chains, 2, rng)
        assert np.abs(vh - 0.25).max() <= 0.02
        assert np.abs(v_mean - 0.5).max() <= 0.03
        # hidden probabilities are exactly 1/2 under a zero model, and the
        # estimator averages probabilities rather than samples
        assert np.all(h_mean == 0.5)

    def test_deterministic_given_rng_state(self, reference_model):
        out = []
        for _ in range(2):
            rng = np.random.default_rng(21)
            chains = init_chains(200, 4, rng)
            vh, v_mean, h_mean, new = model_expectation_pcd(
                reference_model, chains, 3, rng
            )
            out.append((vh, v_mean, h_mean, new))
        for a, b in zip(out[0], out[1]):
            np.testing.assert_array_equal(a, b)

    def test_chains_advance_and_stay_binary(self, reference_model):
        rng = np.random.default_rng(8)
        chains = init_chains(500, 4, rng)
        _, _, _, new = model_expectation_pcd(reference_model, chains, 1, rng)
        assert new.shape == chains.shape
        assert set(np.unique(new)) <= {0.0, 1.0}
        assert not np.array_equal(new, chains)

    def test_long_run_average_matches_exact(self, reference_model):
        exact_vh, exact_v, exact_h = model_expectation_exact(reference_model)
        rng = np.random.default_rng(77)
        chains = advance_chains(reference_model, init_chains(1000, 4, rng), rng, 20)
        acc_vh = np.zeros((4, 4))
        acc_v = np.zeros(4)
        acc_h = np.zeros(4)
        for _ in range(100):
            vh, v_mean, h_mean, chains = model_expectation_pcd(
                reference_model, chains, 5, rng
            )
            acc_vh += vh
            acc_v += v_mean
            acc_h += h_mean
        assert np.abs(acc_vh / 100 - exact_vh).max() <= 0.01
        assert np.abs(acc_v / 100 - exact_v).max() <= 0.01
        assert np.abs(acc_h / 100 - exact_h).max() <= 0.01

    def test_chains_are_advance_chains_draws(self, reference_model):
        # the chains come from advance_chains, from the same generator state
        start = init_chains(100, 4, np.random.default_rng(4))
        got = model_expectation_pcd(reference_model, start, 5, np.random.default_rng(4))
        want = advance_chains(reference_model, start, np.random.default_rng(4), 5)
        assert got[3].dtype == want.dtype and np.array_equal(got[3], want)

    def test_k_step_draw_matches_block_gibbs(self, reference_model):
        # the one-draw k-step advance against k sweeps of the per-unit
        # block-Gibbs oracle, both from the same uniform starts: the joint
        # law of (start, end) visible patterns must agree over 256 cells
        rng = np.random.default_rng(515)
        powers = np.array([8, 4, 2, 1])
        counts = np.zeros((2, 256))
        for _ in range(10):
            start = init_chains(100_000, 4, rng)
            ends = (
                model_expectation_pcd(reference_model, start, 5, rng)[3],
                gibbs_sweeps(reference_model, start, rng, n_sweeps=5),
            )
            for row, end in zip(counts, ends):
                cell = (start @ powers) * 16 + end @ powers
                row += np.bincount(cell.astype(np.int64), minlength=256)
        assert tv_distance(counts[0] / 1e6, counts[1] / 1e6) <= 0.01

    def test_rejects_bad_inputs(self, reference_model):
        rng = np.random.default_rng(0)
        chains = init_chains(10, 4, rng)
        with pytest.raises(ValueError, match="k must be"):
            model_expectation_pcd(reference_model, chains, 0, rng)
        with pytest.raises(ValueError, match="shape"):
            model_expectation_pcd(reference_model, np.ones((10, 3)), 1, rng)
        with pytest.raises(ValueError, match="0 or 1"):
            model_expectation_pcd(reference_model, np.full((10, 4), 0.5), 1, rng)
        huge = zero_model(m=4, n=21)
        with pytest.raises(ValueError, match="too large for exact inference"):
            model_expectation_pcd(huge, chains, 1, rng)
        with pytest.raises(ValueError, match="n_chains"):
            init_chains(0, 4, rng)


def pcd_draw(theta, chains, k, seed):
    """One call of a fresh PCD kernel, on the path bound_admits picks, with
    one uniform per chain from default_rng(seed): the new chains and the
    P(h | v) table it wrote over NaNs."""
    advance, h_given_v = trainer._pcd_kernel(theta.shape, k, chains.size)
    h_given_v[:] = np.nan
    u = np.random.default_rng(seed).random((chains.size, 1))
    return advance(theta, chains, u, bound_admits(theta)), h_given_v


def bound_admits(theta: np.ndarray) -> bool:
    """Whether the PCD kernel takes its unshifted path for theta."""
    flat = theta.ravel()
    return flat.dot(flat) * flat.size < trainer._MAX_LOG_JOINT**2


def scale_sweep_models(reference_model: RbmModel) -> list[RbmModel]:
    """Random models at scales 0.01 to 100 with 2 to 6 hidden units, the
    reference model, and the reference model with -800 on one hidden bias:
    between them they take the kernel's unshifted path and its fallback."""
    blocked_bias = reference_model.hidden_bias.copy()
    blocked_bias[0] = -800.0
    models = [
        random_model(np.random.default_rng(seed), n=n, scale=scale)
        for seed, (n, scale) in enumerate(
            [(4, s) for s in (0.01, 0.1, 1.0, 3.0, 10.0, 30.0, 100.0)]
            + [(2, 1.0), (6, 3.0), (6, 100.0)]
        )
    ]
    return models + [
        reference_model,
        RbmModel(
            visible_bias=reference_model.visible_bias,
            hidden_bias=blocked_bias,
            weights=reference_model.weights,
        ),
    ]


class TestPcdAdvance:
    def test_draws_match_reference_draw_for_draw(self, reference_model):
        # the kernel and the plain cumulative-sum draw compare the same
        # uniforms with the same rows of T^k up to rounding, so every chain
        # must land on the same pattern. The parameter norms span both the
        # unshifted path and the per-row/per-column fallback, which -800 on
        # one hidden bias forces on the reference model
        blocked_bias = reference_model.hidden_bias.copy()
        blocked_bias[0] = -800.0
        models = [
            random_model(np.random.default_rng(seed), scale=scale)
            for seed, scale in enumerate((0.01, 0.1, 1.0, 3.0, 10.0, 30.0, 100.0))
        ]
        models += [
            reference_model,
            RbmModel(
                visible_bias=reference_model.visible_bias,
                hidden_bias=blocked_bias,
                weights=reference_model.weights,
            ),
        ]
        patterns = bit_patterns(4)
        admitted = []
        for model in models:
            theta = model.theta
            admitted.append(bound_admits(theta))
            act = patterns @ model.weights + model.hidden_bias
            for k in (1, 2, 3, 4, 5, 8):
                chains = np.random.default_rng(k).integers(0, 16, 32_000)
                got = pcd_draw(theta, chains, k, 100 + k)[0]
                want = _reference_pcd_advance(
                    model.visible_bias, act, patterns, patterns, chains, k,
                    np.random.default_rng(100 + k),
                )
                np.testing.assert_array_equal(
                    got, want, err_msg=f"unshifted path {admitted[-1]}, k={k}"
                )
        assert any(admitted) and not all(admitted)

    @pytest.mark.parametrize(
        "n_chains, start, k",
        [(1, None, 5), (4_000, 9, 5), (4_000, None, 1)],
        ids=["one_chain", "one_pattern", "no_squaring"],
    )
    def test_edge_cases_match_reference(self, reference_model, n_chains, start, k):
        # a single chain, every chain on one pattern, and k = 1 where T^k is
        # T itself: still the reference's draws, returned as int64 indices,
        # on the unshifted path and on the fallback
        patterns = bit_patterns(4)
        admitted = []
        for model in scale_sweep_models(reference_model):
            theta = model.theta
            admitted.append(bound_admits(theta))
            act = patterns @ model.weights + model.hidden_bias
            h_pat = bit_patterns(model.n_hidden)
            for seed in range(20):
                rng = np.random.default_rng(seed)
                if start is None:
                    chains = rng.integers(0, 16, n_chains)
                else:
                    chains = np.full(n_chains, start)
                got = pcd_draw(theta, chains, k, 100 + seed)[0]
                want = _reference_pcd_advance(
                    model.visible_bias, act, patterns, h_pat, chains, k,
                    np.random.default_rng(100 + seed),
                )
                assert got.dtype == np.int64 and got.shape == (n_chains,)
                np.testing.assert_array_equal(
                    got, want, err_msg=f"unshifted path {admitted[-1]}, seed {seed}"
                )
        assert any(admitted) and not all(admitted)

    def test_rejects_zero_sweeps(self):
        # square-and-multiply starts from T, so k = 0 would draw from T, not
        # from the identity
        with pytest.raises(ValueError, match="k must be at least 1, got 0"):
            trainer._pcd_kernel((5, 5), 0, 3)

    def test_draw_at_extreme_uniforms(self, reference_model):
        # u = 0 lands every chain on pattern 0, and the largest u below 1 on
        # some pattern of the table: the sentinel column stands for the last
        # pattern, never for an index past it. A draw is the inverse of the
        # chain's cumulative row, so it never falls as u rises past 0.5. On
        # both paths, for k = 1 where T^k is T itself and for k = 5
        chains = np.random.default_rng(0).integers(0, 16, 4_000)
        admitted = []
        for model in scale_sweep_models(reference_model):
            theta = model.theta
            admitted.append(bound_admits(theta))
            for k in (1, 5):
                advance = trainer._pcd_kernel(theta.shape, k, chains.size)[0]
                previous = np.zeros_like(chains)
                for u in (0.0, 0.5, np.nextafter(1.0, 0.0)):
                    u_col = np.full((chains.size, 1), u)
                    got = advance(theta, chains, u_col, admitted[-1])
                    msg = f"unshifted path {admitted[-1]}, k={k}, u={u!r}"
                    assert got.dtype == np.int64 and got.shape == chains.shape, msg
                    assert 0 <= got.min() and got.max() <= 15, msg
                    assert np.all(got >= previous), msg
                    if u == 0.0:
                        assert not got.any(), msg
                    previous = got
        assert any(admitted) and not all(admitted)

    def test_moment_table_matches_expit(self, reference_model):
        # train forms its moments from the P(h | v) table the kernel writes:
        # times the augmented hidden patterns it must give [P(h_j = 1 | v), 1]
        # on the unshifted path and on the per-row/per-column fallback alike,
        # also where the two layers differ in size
        patterns = bit_patterns(4)
        admitted = []
        for model in scale_sweep_models(reference_model):
            theta = model.theta
            admitted.append(bound_admits(theta))
            h_pat = bit_patterns(model.n_hidden)
            h_aug = np.hstack([h_pat, np.ones((h_pat.shape[0], 1))])
            want = np.hstack(
                [expit(patterns @ model.weights + model.hidden_bias), np.ones((16, 1))]
            )
            chains = np.random.default_rng(0).integers(0, 16, 100)
            h_given_v = pcd_draw(theta, chains, 5, 1)[1]
            np.testing.assert_allclose(
                h_given_v @ h_aug, want, rtol=0, atol=1e-14,
                err_msg=f"unshifted path {admitted[-1]}",
            )
        assert any(admitted) and not all(admitted)

    @given(
        n=st.integers(1, 6),
        scale=st.floats(0.01, 100.0),
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 8),
    )
    @settings(max_examples=200, deadline=None)
    def test_unshifted_path_matches_oracles(self, n, scale, seed, k):
        # wherever the parameter bound lets the kernel skip the shift, the
        # log-joint must stay inside (-600, 600), and the unshifted table must
        # give the P(h | v) of expit and the draws of the shifted oracle
        model = random_model(np.random.default_rng(seed), n=n, scale=scale)
        theta = model.theta
        assume(bound_admits(theta))
        log_joint = _log_joint(theta)
        assert np.abs(log_joint).max() < trainer._MAX_LOG_JOINT
        patterns = bit_patterns(4)
        h_pat = bit_patterns(n)
        h_aug = np.hstack([h_pat, np.ones((h_pat.shape[0], 1))])
        chains = np.random.default_rng(seed).integers(0, 16, 2_000)
        got, h_given_v = pcd_draw(theta, chains, k, k)
        act = patterns @ model.weights + model.hidden_bias
        want_ph = np.hstack([expit(act), np.ones((16, 1))])
        np.testing.assert_allclose(h_given_v @ h_aug, want_ph, rtol=0, atol=1e-14)
        want = _reference_pcd_advance(
            model.visible_bias, act, patterns, h_pat, chains, k, np.random.default_rng(k),
        )
        np.testing.assert_array_equal(got, want)


class TestAverageLogLikelihood:
    def test_uniform_model_gives_log_sixteenth(self):
        ll = average_log_likelihood(zero_model(), [[0, 1, 0, 1], [1, 1, 1, 1]])
        assert ll == pytest.approx(-np.log(16.0), abs=1e-12)

    def test_matches_direct_marginal(self, reference_model, reference_dist):
        rows = [[0, 0, 1, 1], [1, 1, 0, 0]]
        marg = reference_dist.visible_marginal()
        expected = (np.log(marg[0b0011]) + np.log(marg[0b1100])) / 2.0
        ll = average_log_likelihood(reference_model, rows)
        assert ll == pytest.approx(expected, abs=1e-12)

    def test_batch_average_decomposes(self, reference_model):
        rows = [[0, 0, 0, 0], [1, 0, 1, 0], [1, 1, 1, 1]]
        singles = [average_log_likelihood(reference_model, [r]) for r in rows]
        combined = average_log_likelihood(reference_model, rows)
        assert combined == pytest.approx(np.mean(singles), abs=1e-12)

    def test_refuses_a_large_model_before_counting(self):
        # 25 visible units would take 2^25 pattern counts, 256 MiB, before
        # the enumeration refused the model
        model = zero_model(m=25, n=1)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="too large for exact inference"):
                average_log_likelihood(model, np.zeros((1, 25)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestExactGradient:
    def test_zero_at_exact_fit(self):
        # a zero model is uniform, and data containing every visible pattern
        # exactly once is uniform too, so the gradient vanishes
        data = bit_patterns(4)
        grad_w, grad_c, grad_d = exact_gradient(zero_model(), data)
        assert np.abs(grad_w).max() < 1e-12
        assert np.abs(grad_c).max() < 1e-12
        assert np.abs(grad_d).max() < 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        model = random_model(rng, m=3, n=2, scale=0.8)
        data = (rng.random((40, 3)) < 0.5).astype(float)
        grad_w, grad_c, grad_d = exact_gradient(model, data)
        h = 1e-5

        def ll(w, c, d):
            return average_log_likelihood(
                RbmModel(visible_bias=c, hidden_bias=d, weights=w), data
            )

        w0, c0, d0 = model.weights, model.visible_bias, model.hidden_bias
        for i in range(3):
            for j in range(2):
                wp, wm = w0.copy(), w0.copy()
                wp[i, j] += h
                wm[i, j] -= h
                fd = (ll(wp, c0, d0) - ll(wm, c0, d0)) / (2 * h)
                assert abs(fd - grad_w[i, j]) <= 1e-5 * abs(grad_w[i, j]) + 1e-8
        for i in range(3):
            cp, cm = c0.copy(), c0.copy()
            cp[i] += h
            cm[i] -= h
            fd = (ll(w0, cp, d0) - ll(w0, cm, d0)) / (2 * h)
            assert abs(fd - grad_c[i]) <= 1e-5 * abs(grad_c[i]) + 1e-8
        for j in range(2):
            dp, dm = d0.copy(), d0.copy()
            dp[j] += h
            dm[j] -= h
            fd = (ll(w0, c0, dp) - ll(w0, c0, dm)) / (2 * h)
            assert abs(fd - grad_d[j]) <= 1e-5 * abs(grad_d[j]) + 1e-8

    def test_shapes(self, reference_model):
        grad_w, grad_c, grad_d = exact_gradient(reference_model, [[1, 0, 1, 0]])
        assert grad_w.shape == (4, 4)
        assert grad_c.shape == (4,)
        assert grad_d.shape == (4,)

    def test_full_batch_ascent_is_monotone(self, small_dataset):
        # from train's initial draw for seed 3, eight full-batch steps of
        # 0.05 along the exact gradient each raise the likelihood
        model, _ = train(small_dataset, TrainerConfig(seed=3, n_epochs=0))
        data = encode_dataset(small_dataset)
        lls = [average_log_likelihood(model, data)]
        for _ in range(8):
            grad_w, grad_c, grad_d = exact_gradient(model, data)
            model = RbmModel(
                visible_bias=model.visible_bias + 0.05 * grad_c,
                hidden_bias=model.hidden_bias + 0.05 * grad_d,
                weights=model.weights + 0.05 * grad_w,
            )
            lls.append(average_log_likelihood(model, data))
        assert all(b > a for a, b in zip(lls, lls[1:]))

    def test_hidden_relabeling_equivariance(self, small_dataset):
        # relabeling the hidden units permutes the gradient the same way
        perm = [2, 0, 3, 1]
        rng = np.random.default_rng(9)
        w0 = rng.standard_normal((4, 4)) * 0.1
        d0 = rng.standard_normal(4) * 0.1
        model_a = RbmModel(visible_bias=np.zeros(4), hidden_bias=d0, weights=w0)
        model_b = RbmModel(
            visible_bias=np.zeros(4), hidden_bias=d0[perm], weights=w0[:, perm]
        )
        data = encode_dataset(small_dataset)
        grad_w_a, grad_c_a, grad_d_a = exact_gradient(model_a, data)
        grad_w_b, grad_c_b, grad_d_b = exact_gradient(model_b, data)
        assert np.abs(grad_w_a[:, perm] - grad_w_b).max() <= 1e-12
        assert np.abs(grad_d_a[perm] - grad_d_b).max() <= 1e-12
        assert np.abs(grad_c_a - grad_c_b).max() <= 1e-12

    def test_rows_match_pcd_kernel(self, reference_model):
        # exact_gradient forms its [P(h | v), 1] rows in _moments, as
        # data_expectation does, and train takes them from the kernel's
        # P(h | v) table: the same normalization wherever the kernel shifts,
        # within rounding where it skips the shift, and an exact 1 in the
        # last column either way. A one-row batch of pattern v reads row v
        # off data_expectation: <h> is P(h | v) and <v> is v times the 1.
        admitted = []
        patterns = bit_patterns(4)
        for model in scale_sweep_models(reference_model):
            theta = model.theta
            admitted.append(bound_admits(theta))
            h_pat = bit_patterns(model.n_hidden)
            h_aug = np.hstack([h_pat, np.ones((h_pat.shape[0], 1))])
            chains = np.random.default_rng(0).integers(0, 16, 100)
            h_given_v = pcd_draw(theta, chains, 5, 1)[1]
            want = h_given_v @ h_aug
            moments = [data_expectation(model, [v]) for v in patterns]
            rows = np.hstack([[h for _, _, h in moments], np.ones((16, 1))])
            message = f"unshifted path {admitted[-1]}"
            assert np.array_equal([v for _, v, _ in moments], patterns), message
            assert np.abs(rows - want).max() <= 1e-15, message
            if not admitted[-1]:
                np.testing.assert_array_equal(rows[:, :-1], want[:, :-1], message)
        assert any(admitted) and not all(admitted)


def assert_matches_reference_train(dataset, cfg):
    model, trace = train(dataset, cfg)
    ref_model, ref_trace = reference_train(dataset, cfg)
    for name in ("weights", "visible_bias", "hidden_bias"):
        np.testing.assert_allclose(
            getattr(model, name), getattr(ref_model, name), rtol=0, atol=1e-10
        )
    assert len(trace) == len(ref_trace) == cfg.n_epochs
    for rec, ref in zip(trace.records, ref_trace.records):
        assert rec.epoch == ref.epoch
        assert abs(rec.avg_log_likelihood - ref.avg_log_likelihood) <= 1e-10
        assert abs(rec.s - ref.s) <= 1e-10


@pytest.fixture(scope="module")
def small_dataset():
    return generate_dataset(DetectorAngles(), 1000, seed=42)


class TestTrain:
    def test_zero_learning_rate_is_identity(self, small_dataset):
        # the same seed draws the same initial model, which no epoch moves
        init, _ = train(
            small_dataset, TrainerConfig(seed=8, n_epochs=0, weight_init_scale=0.3)
        )
        model, trace = train(
            small_dataset,
            TrainerConfig(
                seed=8, n_epochs=2, learning_rate=0.0, weight_init_scale=0.3
            ),
        )
        assert np.abs(init.weights).max() > 0.1
        np.testing.assert_array_equal(model.weights, init.weights)
        np.testing.assert_array_equal(model.visible_bias, init.visible_bias)
        np.testing.assert_array_equal(model.hidden_bias, init.hidden_bias)
        assert len(trace) == 2

    def test_zero_epochs_returns_initial_draw(self, small_dataset):
        model_a, trace = train(small_dataset, TrainerConfig(seed=8, n_epochs=0))
        model_b, _ = train(
            small_dataset, TrainerConfig(seed=8, n_epochs=0, learning_rate=0.0)
        )
        assert len(trace) == 0
        np.testing.assert_array_equal(model_a.weights, model_b.weights)
        np.testing.assert_array_equal(model_a.visible_bias, np.zeros(4))
        np.testing.assert_array_equal(model_a.hidden_bias, np.zeros(4))
        assert model_a.weights.shape == (4, 4)

    def test_batch_larger_than_data_is_one_batch(self, small_dataset):
        # a batch size no int64 holds trains as one batch of the whole data
        results = [
            train(small_dataset, TrainerConfig(seed=3, n_epochs=2, batch_size=size))
            for size in (10**20, len(small_dataset))
        ]
        (huge, huge_trace), (whole, whole_trace) = results
        for name in ("visible_bias", "hidden_bias", "weights"):
            np.testing.assert_array_equal(getattr(huge, name), getattr(whole, name))
        assert huge_trace == whole_trace

    def test_deterministic_for_fixed_seed(self):
        ds = generate_dataset(DetectorAngles(), 2000, seed=13)
        cfg = TrainerConfig(seed=5, n_epochs=20)
        model_a, trace_a = train(ds, cfg)
        model_b, trace_b = train(ds, cfg)
        np.testing.assert_array_equal(model_a.weights, model_b.weights)
        np.testing.assert_array_equal(model_a.visible_bias, model_b.visible_bias)
        np.testing.assert_array_equal(model_a.hidden_bias, model_b.hidden_bias)
        assert trace_a.records == trace_b.records

    def test_learns_toward_singlet_statistics(self):
        ds = generate_dataset(DetectorAngles(), 20000, seed=100)
        model, trace = train(ds, TrainerConfig(seed=5, n_epochs=60))

        assert [r.epoch for r in trace.records] == list(range(1, 61))
        lls = [r.avg_log_likelihood for r in trace.records]
        assert lls[-1] > lls[0]
        # PCD ascends the likelihood only up to its sampling noise. Five-epoch
        # window medians smooth the wiggle, but on the opening plateau near
        # log(1/16) their steps are ~1e-4 and can dip: over training seeds
        # 5-22 on this dataset the worst dip was 3.2e-4, while the later
        # steps were 7.9e-4 to a few 1e-2 and the net climb at least 0.087.
        medians = [np.median(lls[i : i + 5]) for i in range(0, 60, 5)]
        assert all(b >= a - 1e-3 for a, b in zip(medians, medians[1:]))
        assert medians[-1] - medians[0] >= 0.05

        report = bell.model_correlations_exact(model)
        assert report.s > 0.5
        # the likelihood gradient matches the model's unit marginals to the
        # data's; over the same seeds the setting marginals sat within 0.020
        # of the data's (spread 0.005-0.008 per unit)
        data_marginals = encode_dataset(ds).mean(axis=0)
        marginals = unit_marginals(model)
        assert np.abs(marginals[:2] - data_marginals[:2]).max() <= 0.03

    def test_uncorrelated_source_learns_no_violation(self):
        # orthogonal settings at every pair make the two outcomes independent
        # fair coins, so a faithful fit shows S near zero
        flat = DetectorAngles(a=0.0, a_prime=0.0, b=np.pi / 2, b_prime=np.pi / 2)
        ds = generate_dataset(flat, 20000, seed=100)
        model, _ = train(ds, TrainerConfig(seed=5, n_epochs=60))
        report = bell.model_correlations_exact(model)
        assert report.s < 0.1
        assert max(abs(c) for c in report.correlations()) < 0.05

    def test_divergence_raises_typed_error(self, small_dataset):
        with pytest.raises(TrainingDivergedError, match="diverged") as info:
            train(small_dataset, TrainerConfig(seed=1, n_epochs=2, learning_rate=1e308))
        assert info.value.epoch == 1
        assert isinstance(info.value.trace, TrainingTrace)
        assert len(info.value.trace) == 0

    def test_finite_draw_without_exact_record_diverges(self, small_dataset):
        # a finite initial draw with no finite exact record: a typed error at
        # epoch 0, before any update, whatever the number of epochs. The
        # scale-300 draw has a finite S but gives a data pattern zero
        # probability, so its log-likelihood is -inf
        for scale, n_epochs in ((1000.0, 0), (1000.0, 2), (300.0, 0)):
            config = TrainerConfig(seed=1, n_epochs=n_epochs, weight_init_scale=scale)
            with pytest.raises(TrainingDivergedError, match="diverged") as info:
                train(small_dataset, config)
            assert info.value.epoch == 0
            assert len(info.value.trace) == 0

    def test_matches_reference_loop(self, small_dataset):
        # the same draws give the same model up to reassociated sums, which
        # stay below 1e-15 here; one flipped chain draw moves the parameters
        # by about 1e-3
        assert_matches_reference_train(small_dataset, TrainerConfig(seed=3, n_epochs=3))

    def test_short_last_batch_matches_reference_loop(self, small_dataset):
        # batches of 300 leave the last of the 1000 rows' minibatches short
        cfg = TrainerConfig(seed=3, n_epochs=3, batch_size=300)
        assert_matches_reference_train(small_dataset, cfg)

    def test_runs_leave_no_state_behind(self, small_dataset, reference_model):
        # the kernel writes into buffers that are reused update after update:
        # a run of another seed and a model_expectation_pcd on another model
        # between two runs of one seed must leave the second run
        # byte-identical to the first
        def run(seed):
            model, trace = train(small_dataset, TrainerConfig(seed=seed, n_epochs=3))
            return [
                np.asarray(x).tobytes()
                for x in (*astuple(model), [astuple(r) for r in trace.records])
            ]

        first = run(0)
        rng = np.random.default_rng(4)
        model_expectation_pcd(reference_model, init_chains(100, 4, rng), 5, rng)
        other = run(1)
        assert run(0) == first != other

    def test_rejects_bad_arguments(self):
        empty = EprDataset(np.array([], dtype=np.int64), seed=None, angles=DetectorAngles())
        with pytest.raises(ValueError, match="non-empty"):
            train(empty, TrainerConfig(seed=0, n_epochs=1))


class TestEpochDiagnostics:
    # the reference model with one visible bias at 1000: finite parameters
    # whose exact law puts no mass on half the visible patterns
    @staticmethod
    def pinned_bias_model(unit):
        reference = load_reference_model()
        visible_bias = reference.visible_bias.copy()
        visible_bias[unit] = 1000.0
        return RbmModel(visible_bias, reference.hidden_bias, reference.weights)

    @pytest.fixture
    def counts(self, small_dataset):
        return np.bincount(small_dataset.pattern, minlength=16)

    @staticmethod
    def assert_diverges_at_epoch_1(theta, counts):
        """_epoch_diagnostics raises the divergence itself, with the records
        it was given (none) as the trace, and warns of nothing on the way."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDivergedError) as info:
                trainer._epoch_diagnostics(theta, counts, 1, [])
        assert info.value.epoch == 1 and len(info.value.trace) == 0

    def test_data_of_zero_probability_diverges(self, counts):
        # v3 = 1 always: S stays finite, but the data's v3 = 0 trials have
        # log-likelihood -inf
        model = self.pinned_bias_model(2)
        with np.errstate(all="ignore"):
            dist = enumerate_distribution(model)
            assert trainer._mean_log_likelihood(dist, counts) == -np.inf
        assert np.isfinite(bell.correlations_from_distribution(dist).s)
        self.assert_diverges_at_epoch_1(model.theta, counts)

    def test_settings_of_zero_probability_diverges(self, counts):
        # v1 = 1 always: the settings (0, 0) have no mass, so no S exists
        model = self.pinned_bias_model(0)
        with np.errstate(all="ignore"):
            dist = enumerate_distribution(model)
        zero_mass = r"settings \(0, 0\) have zero probability"
        with pytest.raises(ValueError, match=zero_mass):
            bell.correlations_from_distribution(dist)
        self.assert_diverges_at_epoch_1(model.theta, counts)

    def test_non_finite_theta_diverges(self, counts):
        # RbmModel refuses the unpacked parameters, and that refusal is the
        # divergence
        theta = load_reference_model().theta.copy()
        theta[1, 2] = np.inf
        with pytest.raises(ValueError, match="weights must be finite"):
            trainer._unpack(theta)
        self.assert_diverges_at_epoch_1(theta, counts)


class TestBoundCertification:
    # train carries an upper bound on the parameter norm and tests it exactly
    # only while that bound is not below _MAX_LOG_JOINT - 1; every update
    # must still take the path that testing before it would pick
    @pytest.fixture
    def checked(self, monkeypatch):
        """The path of every kernel call, each checked against bound_admits,
        and the number of exact bound tests made."""
        calls = {"admitted": [], "tests": 0}
        make_kernel, bound_test = trainer._pcd_kernel, trainer._bound_test

        def kernel(*args):
            advance, h_given_v = make_kernel(*args)

            def checked_advance(theta, chains, u, admitted):
                assert admitted == bound_admits(theta)
                calls["admitted"].append(admitted)
                return advance(theta, chains, u, admitted)

            return checked_advance, h_given_v

        def counted_test(*args):
            calls["tests"] += 1
            return bound_test(*args)

        monkeypatch.setattr(trainer, "_pcd_kernel", kernel)
        monkeypatch.setattr(trainer, "_bound_test", counted_test)
        return calls

    def test_default_epoch(self, checked):
        ds = generate_dataset(DetectorAngles(), 100_000, seed=7)
        train(ds, TrainerConfig(seed=1, n_epochs=1))
        assert len(checked["admitted"]) == 1000 and all(checked["admitted"])
        # testing before each update would make 1,000 tests
        assert checked["tests"] <= 10

    def test_bound_carried_across_epochs(self, checked):
        # the learning rate decays from epoch to epoch under the one bound
        ds = generate_dataset(DetectorAngles(), 100_000, seed=7)
        train(ds, TrainerConfig(seed=1, n_epochs=3))
        assert len(checked["admitted"]) == 3000 and all(checked["admitted"])
        assert checked["tests"] <= 30

    def test_zero_learning_rate_tests_once(self, checked, small_dataset):
        # no update moves theta, so the first test's bound holds for good
        train(small_dataset, TrainerConfig(seed=1, n_epochs=3, learning_rate=0.0))
        assert len(checked["admitted"]) == 30 and all(checked["admitted"])
        assert checked["tests"] == 1

    def test_run_crossing_the_bound(self, checked):
        # parameters that start just outside the bound and come inside it
        # after 26 updates, where a step of lr 0.5 may raise the bound by 25:
        # each update is tested, and the one crossing is taken
        ds = generate_dataset(DetectorAngles(), 2000, seed=1)
        cfg = TrainerConfig(
            seed=1, weight_init_scale=29.5, learning_rate=0.5, n_epochs=3
        )
        train(ds, cfg)
        admitted = checked["admitted"]
        assert len(admitted) == 60 and sum(admitted) == 34
        assert admitted == sorted(admitted)

    def test_run_climbing_through_the_bound(self, checked, small_dataset):
        # one-row minibatches at lr 44 take theta from B = 46 through 600 to
        # B = 790 in one update, a step of 0.34 times the carried growth
        # 2 lr theta.size. No step exceeds half of that growth, as an update
        # moves each entry of theta by at most lr, but this one exceeds a
        # quarter: a bound grown by a quarter would skip the test before the
        # second update and take the unshifted path outside the bound
        cfg = TrainerConfig(
            seed=14, learning_rate=44.0, weight_init_scale=2.0, batch_size=1, n_epochs=1
        )
        train(small_dataset, cfg)
        admitted = checked["admitted"]
        assert len(admitted) == 1000 and admitted[0] and not any(admitted[1:])
        assert checked["tests"] == 1000

    def test_diverging_run(self, checked, small_dataset):
        with pytest.raises(TrainingDivergedError):
            train(small_dataset, TrainerConfig(seed=1, n_epochs=2, learning_rate=1e308))
        assert checked["admitted"][0] and not all(checked["admitted"])
        # past the bound, every update is tested
        assert checked["tests"] == len(checked["admitted"])

    @given(
        n=st.integers(1, 6),
        fraction=st.floats(0.0, 1.0),
        lr=st.floats(0.01, 100.0),
        seed=st.integers(0, 2**32 - 1),
        worst=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_carried_bound_stays_above_the_norm(self, n, fraction, lr, seed, worst):
        # theta at a fraction of the bound, stepped as train steps it: weight
        # rows with sum |w| <= 2 lr over [P(h | v), 1] tables in [0, 1]. In
        # the worst case every step adds 2 lr to every entry of a theta whose
        # entries are all positive, and the bound grows by exactly 2 lr size
        rng = np.random.default_rng(seed)
        theta = rng.standard_normal((5, n + 1))
        if worst:
            theta = np.abs(theta)
        theta *= fraction * trainer._MAX_LOG_JOINT / np.sqrt(
            theta.size * np.sum(theta**2)
        )
        bound, admitted = trainer._bound_test(theta)
        assert admitted == bound_admits(theta)
        growth = 2 * lr * theta.size * (1 + 1e-9)
        v_aug = _pattern_tables(4, n)[0]
        # train skips the test before an update while its bound is below 599
        while bound + growth < trainer._MAX_LOG_JOINT - 1:
            if worst:
                weights = np.zeros(16)
                weights[-1] = 2 * lr
                rows = np.ones((16, n + 1))
            else:
                weights = rng.standard_normal(16)
                weights *= 2 * lr * rng.random() / np.abs(weights).sum()
                rows = rng.random((16, n + 1))
                rows[:, -1] = 1.0
            theta += (v_aug.T * weights).dot(rows)
            bound += growth
            assert np.sqrt(theta.size * np.sum(theta**2)) <= bound
            assert bound_admits(theta)


class TestModelIO:
    def test_round_trip(self, tmp_path, reference_model):
        path = tmp_path / "model.json"
        cfg = TrainerConfig(seed=11, n_epochs=3)
        save_model(path, reference_model, trainer_config=cfg, dataset_seed=42)
        loaded, payload = load_model(path)
        np.testing.assert_array_equal(loaded.weights, reference_model.weights)
        np.testing.assert_array_equal(loaded.visible_bias, reference_model.visible_bias)
        np.testing.assert_array_equal(loaded.hidden_bias, reference_model.hidden_bias)
        assert payload["m"] == 4 and payload["n"] == 4
        assert payload["encoding"] == ENCODING_DOC
        assert payload["trainer"] == cfg.to_dict()
        assert payload["dataset_seed"] == 42

    def test_save_without_provenance(self, tmp_path, reference_model):
        path = tmp_path / "model.json"
        save_model(path, reference_model)
        _, payload = load_model(path)
        assert payload["trainer"] is None
        assert payload["dataset_seed"] is None

    def test_load_rejects_shape_mismatch(self, tmp_path):
        path = tmp_path / "bad.json"
        model = zero_model()
        payload = {
            "m": 3,
            "n": 4,
            "visible_bias": model.visible_bias.tolist(),
            "hidden_bias": model.hidden_bias.tolist(),
            "weights": model.weights.tolist(),
            "encoding": ENCODING_DOC,
            "trainer": None,
            "dataset_seed": None,
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="shape fields"):
            load_model(path)

    def test_reference_model_parameters(self):
        model = load_reference_model()
        assert model.n_visible == 4 and model.n_hidden == 4
        np.testing.assert_array_equal(
            model.visible_bias, [-5.026, -4.872, -3.467, -3.464]
        )
        np.testing.assert_array_equal(
            model.hidden_bias, [-3.320, -1.015, -0.933, -3.753]
        )
        np.testing.assert_array_equal(
            model.weights[0], [2.652, 3.527, 3.546, -2.456]
        )
        assert model.weights[2, 1] == -5.587


class TestTrainingTrace:
    def test_epoch_numbering_enforced(self):
        good = (
            EpochRecord(epoch=1, avg_log_likelihood=-2.5, s=0.125),
            EpochRecord(epoch=2, avg_log_likelihood=-2.25, s=1.0),
        )
        assert len(TrainingTrace(good)) == 2
        with pytest.raises(ValueError, match="epoch numbers"):
            TrainingTrace((EpochRecord(epoch=2, avg_log_likelihood=-2.5, s=0.1),))

    def test_non_finite_entry_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            TrainingTrace(
                (EpochRecord(epoch=1, avg_log_likelihood=float("nan"), s=0.1),)
            )

    def test_to_csv_format(self, tmp_path):
        trace = TrainingTrace(
            (
                EpochRecord(epoch=1, avg_log_likelihood=-2.5, s=0.125),
                EpochRecord(epoch=2, avg_log_likelihood=-2.25, s=1.0),
            )
        )
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        assert path.read_text() == (
            "epoch,avg_log_likelihood,s\n1,-2.5,0.125\n2,-2.25,1.0\n"
        )
