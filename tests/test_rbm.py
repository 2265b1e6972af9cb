import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import expit

from eprbm.exact import enumerate_distribution
from eprbm.rbm import RbmModel, advance_chains, bit_patterns
from eprbm.trainer import (
    average_log_likelihood,
    data_expectation,
    exact_gradient,
    load_reference_model,
    model_expectation_pcd,
)

from helpers import chisquare_bucketed, energy, gibbs_sweeps, random_model, tv_distance


def zero_model(m=4, n=4):
    return RbmModel(
        visible_bias=np.zeros(m), hidden_bias=np.zeros(n), weights=np.zeros((m, n))
    )


def p_hidden(model: RbmModel, visible) -> np.ndarray:
    """P(h_j = 1 | v) for every hidden unit, as the trainer computes it.

    The data-side moments of a one-row batch are exactly these
    probabilities: <h_j> = P(h_j = 1 | v).
    """
    return data_expectation(model, [visible])[2]


def hidden_bias_model(d: float) -> RbmModel:
    """One visible and one hidden unit, uncoupled, with hidden bias d."""
    return RbmModel(visible_bias=[0.0], hidden_bias=[d], weights=[[0.0]])


class TestRbmModel:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="weights shape"):
            RbmModel(
                visible_bias=np.zeros(4),
                hidden_bias=np.zeros(4),
                weights=np.zeros((3, 4)),
            )
        with pytest.raises(ValueError, match="1-dimensional"):
            RbmModel(
                visible_bias=np.zeros((4, 1)),
                hidden_bias=np.zeros(4),
                weights=np.zeros((4, 4)),
            )

    def test_finite_validation(self):
        weights = np.zeros((2, 2))
        weights[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            RbmModel(visible_bias=np.zeros(2), hidden_bias=np.zeros(2), weights=weights)

    def test_arrays_read_only(self):
        model = zero_model()
        with pytest.raises(ValueError):
            model.weights[0, 0] = 1.0

    def test_sizes(self, reference_model):
        assert reference_model.n_visible == 4
        assert reference_model.n_hidden == 4

    def test_equal_by_value_and_unhashable(self):
        # two loads are distinct equal models; theta cached on one side only
        # takes no part
        model, other = load_reference_model(), load_reference_model()
        assert model.theta is model.theta
        assert model == other and not model != other
        shifted = RbmModel(model.visible_bias, model.hidden_bias + 1.0, model.weights)
        assert model != shifted
        assert zero_model(n=3) != zero_model(n=4)
        assert model != "model"
        with pytest.raises(TypeError, match="unhashable"):
            hash(other)


class TestConfiguration:
    """Visible configurations enter every trainer function that takes rows as 0/1."""

    def test_accepts_binary(self, reference_model):
        _, v_mean, _ = data_expectation(reference_model, [[0, 1, 1, 0]])
        assert v_mean.tolist() == [0.0, 1.0, 1.0, 0.0]

    @pytest.mark.parametrize(
        "bad", [[0, 2, 0, 0], [0.5, 0, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0.5]]
    )
    def test_rejects_non_binary(self, reference_model, bad):
        # rows used to be read as the integer part of their pattern index:
        # [0, 0, 0, 0.5] scored as pattern 0000 and [0.5, 0, 0, 0] as 0100,
        # while the moments used the 0.5 itself
        rng = np.random.default_rng(0)
        calls = (
            lambda: average_log_likelihood(reference_model, [bad]),
            lambda: data_expectation(reference_model, [bad]),
            lambda: exact_gradient(reference_model, [bad]),
            lambda: model_expectation_pcd(reference_model, [bad], 1, rng),
        )
        for call in calls:
            with pytest.raises(ValueError, match="0 or 1"):
                call()


class TestEnergy:
    """The energy oracle behind brute_force_joint."""

    def test_all_zero_configuration(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            model = random_model(rng)
            assert energy(model, np.zeros(4), np.zeros(4)) == 0.0

    def test_reference_all_ones(self, reference_model):
        # -(sum c + sum d + sum w) for the reference parameter set
        assert energy(reference_model, np.ones(4), np.ones(4)) == pytest.approx(
            -2.469, abs=1e-9
        )

    def test_single_weight(self):
        model = RbmModel(
            visible_bias=np.zeros(2),
            hidden_bias=np.zeros(2),
            weights=np.array([[2.0, 0.0], [0.0, 0.0]]),
        )
        assert energy(model, [1, 0], [1, 0]) == -2.0

    def test_dimension_mismatch(self, reference_model):
        with pytest.raises(ValueError, match="does not match model"):
            energy(reference_model, [0, 1], [0, 1])

    def test_linear_in_each_parameter(self):
        rng = np.random.default_rng(1)
        model = random_model(rng)
        v, h = rng.integers(0, 2, 4), rng.integers(0, 2, 4)
        base = energy(model, v, h)
        delta = 0.731
        for i in range(4):
            for j in range(4):
                w = model.weights.copy()
                w[i, j] += delta
                bumped = RbmModel(
                    visible_bias=model.visible_bias,
                    hidden_bias=model.hidden_bias,
                    weights=w,
                )
                expected = base - delta * v[i] * h[j]
                assert energy(bumped, v, h) == pytest.approx(expected, abs=1e-12)


class TestSigmoid:
    """The logistic law of the hidden conditional, P(h = 1 | v) = sigmoid(bias)."""

    def test_symmetry_point(self):
        assert p_hidden(hidden_bias_model(0.0), [0])[0] == 0.5

    def test_reference_hidden_bias_value(self, reference_model):
        assert p_hidden(reference_model, np.zeros(4))[0] == pytest.approx(
            0.0349, abs=1e-4
        )

    @given(st.floats(min_value=-700, max_value=700))
    def test_complement_identity(self, x):
        up = p_hidden(hidden_bias_model(x), [0])[0]
        down = p_hidden(hidden_bias_model(-x), [0])[0]
        assert up + down == pytest.approx(1.0, abs=1e-15)

    def test_stable_at_extremes(self):
        with np.errstate(over="raise", invalid="raise"):
            low = p_hidden(hidden_bias_model(-700.0), [0])[0]
            high = p_hidden(hidden_bias_model(700.0), [0])[0]
        assert 0.0 < low < 1e-300
        assert high == 1.0

    def test_monotone(self):
        ys = np.array(
            [p_hidden(hidden_bias_model(x), [0])[0] for x in np.linspace(-40, 40, 2001)]
        )
        assert np.all(np.diff(ys) >= 0)
        assert np.all((ys >= 0) & (ys <= 1))
        # the open interval holds wherever float64 can represent it
        inner = np.array(
            [p_hidden(hidden_bias_model(x), [0])[0] for x in np.linspace(-30, 30, 601)]
        )
        assert np.all((inner > 0) & (inner < 1))


class TestActivationProbs:
    def test_reference_hidden_at_zero_visible(self, reference_model):
        probs = p_hidden(reference_model, np.zeros(4))
        assert probs[0] == pytest.approx(expit(-3.320), abs=1e-12)
        assert probs.shape == (4,)

    def test_reference_visible_at_zero_hidden(self, reference_dist):
        # P(v1 = 1 | h = 0000) from the exact joint's first column
        column = reference_dist.joint[:, 0] / reference_dist.joint[:, 0].sum()
        assert bit_patterns(4)[:, 0] @ column == pytest.approx(0.00652, abs=1e-4)

    def test_zero_model_gives_half(self):
        model = zero_model()
        assert np.all(p_hidden(model, np.ones(4)) == 0.5)
        joint = enumerate_distribution(model).joint
        column = joint[:, -1] / joint[:, -1].sum()
        np.testing.assert_allclose(bit_patterns(4).T @ column, 0.5, atol=1e-15)

    def test_saturated_bias(self):
        model = RbmModel(
            visible_bias=np.zeros(4),
            hidden_bias=np.array([50.0, 0.0, 0.0, 0.0]),
            weights=np.zeros((4, 4)),
        )
        assert p_hidden(model, np.ones(4))[0] == pytest.approx(1.0, abs=1e-15)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(2)
        model = random_model(rng)
        batch = (rng.random((10, 4)) < 0.5).astype(float)
        singles = [p_hidden(model, v) for v in batch]
        np.testing.assert_allclose(
            data_expectation(model, batch)[2], np.mean(singles, axis=0), atol=1e-15
        )

    def test_dimension_mismatch(self, reference_model):
        with pytest.raises(ValueError, match="shape"):
            p_hidden(reference_model, np.zeros(3))
        with pytest.raises(ValueError, match="shape"):
            advance_chains(reference_model, np.zeros((1, 5)), np.random.default_rng(0))

    def test_matches_exact_conditional(self):
        # P(h | v) from the enumerated joint must factor into the per-unit
        # sigmoids: the bipartite wiring promises conditional independence.
        rng = np.random.default_rng(3)
        model = random_model(rng, m=3, n=3)
        dist = enumerate_distribution(model)
        h_pat = bit_patterns(3)
        for vi, v in enumerate(bit_patterns(3)):
            cond = dist.joint[vi] / dist.joint[vi].sum()
            p = p_hidden(model, v)
            product = np.prod(
                np.where(h_pat == 1.0, p[None, :], 1.0 - p[None, :]), axis=1
            )
            np.testing.assert_allclose(cond, product, atol=1e-12)


class GibbsSweepLaw:
    """The law of block Gibbs sweeps, checked on the sampler of the subclass."""

    sampler = None

    def test_saturated_hidden(self):
        # h = (1, 0, 0, 0) whatever v, and v1 copies h1 while v2..v4 stay off
        weights = np.zeros((4, 4))
        weights[0, 0] = 50.0
        model = RbmModel(
            visible_bias=np.full(4, -25.0),
            hidden_bias=np.array([50.0, -50.0, -50.0, -50.0]),
            weights=weights,
        )
        rng = np.random.default_rng(4)
        out = self.sampler(model, [[0, 1, 0, 1], [1, 1, 1, 1]], rng, n_sweeps=3)
        assert out.tolist() == [[1, 0, 0, 0], [1, 0, 0, 0]]

    def test_zero_model_uniform_frequencies(self):
        # the zero model mixes in one sweep: outputs are iid fair bits
        model = zero_model()
        rng = np.random.default_rng(5)
        start = (rng.random((1_000_000, 4)) < 0.5).astype(float)
        out = self.sampler(model, start, rng, n_sweeps=1)
        freqs = out.mean(axis=0)
        np.testing.assert_allclose(freqs, 0.5, atol=0.002)

    def test_deterministic_given_seed(self, reference_model):
        start = np.array([[1, 0, 1, 1], [0, 1, 0, 0]])
        a = self.sampler(reference_model, start, np.random.default_rng(7), 3)
        b = self.sampler(reference_model, start, np.random.default_rng(7), 3)
        assert a.tolist() == b.tolist()

    def test_reference_marginal_within_tv_bound(
        self, reference_model, reference_dist, reference_gibbs_sample
    ):
        # 10^6 chains after 30 sweeps from random starts vs the exact visible
        # marginal. The shared reference_gibbs_sample is advance_chains';
        # the oracle's is drawn here by the same recipe
        if self.sampler is advance_chains:
            visible, _ = reference_gibbs_sample
        else:
            rng = np.random.default_rng(20260819)
            start = (rng.random((1_000_000, 4)) < 0.5).astype(np.float64)
            visible = self.sampler(reference_model, start, rng, n_sweeps=30)
        idx = (visible @ [8, 4, 2, 1]).astype(int)
        freqs = np.bincount(idx, minlength=16) / idx.size
        assert tv_distance(freqs, reference_dist.visible_marginal()) <= 0.01

    def test_preserves_boltzmann_distribution(self, reference_model, reference_dist):
        # start from the exact P(v), apply one sweep, chi-square the result
        rng = np.random.default_rng(8)
        n = 1_000_000
        p_v = reference_dist.visible_marginal()
        start = bit_patterns(4)[rng.choice(16, size=n, p=p_v)]
        out = self.sampler(reference_model, start, rng, n_sweeps=1)
        counts = np.bincount((out @ [8, 4, 2, 1]).astype(int), minlength=16)
        assert chisquare_bucketed(counts, p_v) > 0.001


class TestGibbsSweep(GibbsSweepLaw):
    """The shipped sampler, rbm.advance_chains, and the per-unit draws of
    the oracle it is compared with."""

    sampler = staticmethod(advance_chains)

    def test_matches_batched_path_bitwise(self, reference_model):
        # one sweep of one chain of gibbs_sweeps is a hidden draw from
        # P(h | v), then a visible draw from P(v | h), each comparing fresh
        # uniforms
        v = np.array([1.0, 0.0, 1.0, 1.0])
        out = gibbs_sweeps(reference_model, v, np.random.default_rng(6))
        rng = np.random.default_rng(6)
        w, c, d = (
            reference_model.weights,
            reference_model.visible_bias,
            reference_model.hidden_bias,
        )
        h = (rng.random(4) < expit(v @ w + d)).astype(float)
        expected = (rng.random(4) < expit(w @ h + c)).astype(float)
        assert out.tolist() == expected.tolist()


class TestGibbsSweepOracle(GibbsSweepLaw):
    """The per-unit oracle, helpers.gibbs_sweeps."""

    sampler = staticmethod(gibbs_sweeps)


class TestAdvanceChains:
    def test_shape_and_binary(self, reference_model):
        rng = np.random.default_rng(13)
        start = (rng.random((50, 4)) < 0.5).astype(float)
        out = advance_chains(reference_model, start, rng, n_sweeps=3)
        assert out.shape == (50, 4)
        assert np.all((out == 0) | (out == 1))

    def test_single_state_is_refused(self, reference_model):
        # chains come as (B, m) batches only; one state is a batch of one
        rng = np.random.default_rng(14)
        with pytest.raises(ValueError, match=r"batch must have shape \(B, 4\), got \(4,\)"):
            advance_chains(reference_model, np.ones(4), rng, n_sweeps=2)
        assert advance_chains(reference_model, np.ones((1, 4)), rng, 2).shape == (1, 4)

    def test_refuses_what_the_kernel_cannot_draw(self, reference_model):
        rng = np.random.default_rng(15)
        with pytest.raises(ValueError, match="k must be at least 1, got 0"):
            advance_chains(reference_model, np.ones((3, 4)), rng, n_sweeps=0)
        with pytest.raises(ValueError, match="0 or 1"):
            advance_chains(reference_model, np.full((1, 4), 0.5), rng)
        with pytest.raises(ValueError, match="non-empty"):
            advance_chains(reference_model, np.empty((0, 4)), rng)
        with pytest.raises(ValueError, match="too large for exact inference"):
            advance_chains(zero_model(m=4, n=21), np.ones((1, 4)), rng)
