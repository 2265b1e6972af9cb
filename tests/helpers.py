"""Independent oracles and small utilities shared by the test modules.

Everything here is deliberately written the slow, obvious way (nested loops,
explicit density matrices) so it cannot share bugs with the vectorized
implementations under test.
"""

from __future__ import annotations

import copy
import itertools
import math
import pickle

import numpy as np
from scipy import optimize, stats
from scipy.special import expit

from eprbm import trainer
from eprbm.bell import CorrelationReport
from eprbm.epr import DetectorAngles, EprDataset, InsufficientDataError, encode_dataset
from eprbm.exact import (
    N_VISIBLE,
    SETTING_PAIRS,
    ExactDistribution,
    MeasurementIndependenceReport,
)
from eprbm.rbm import RbmModel, _log_joint, _unpack, bit_patterns


def energy(model: RbmModel, visible, hidden) -> float:
    """E(v, h) = -(c.v + d.h + v.W.h) for a single joint configuration."""
    v = np.asarray(visible, dtype=np.float64)
    h = np.asarray(hidden, dtype=np.float64)
    if v.shape != (model.n_visible,) or h.shape != (model.n_hidden,):
        raise ValueError(
            f"configuration size ({v.size}, {h.size}) does not match model "
            f"({model.n_visible}, {model.n_hidden})"
        )
    return float(-(model.visible_bias @ v + model.hidden_bias @ h + v @ model.weights @ h))


def brute_force_joint(model: RbmModel) -> tuple[np.ndarray, float]:
    """Joint table and log Z by looping over every configuration."""
    m, n = model.n_visible, model.n_hidden
    weights = np.empty((2**m, 2**n))
    for vi, v in enumerate(itertools.product((0, 1), repeat=m)):
        for hi, h in enumerate(itertools.product((0, 1), repeat=n)):
            weights[vi, hi] = math.exp(-energy(model, v, h))
    z = weights.sum()
    return weights / z, math.log(z)


def four_matmul_distribution(model: RbmModel) -> ExactDistribution:
    """exact.enumerate_distribution with the negative energies assembled
    from the separate parameters: c.v and d.h as two broadcast vectors plus
    the table v W h, four matrix products in all, with no packed theta."""
    v_pat = bit_patterns(model.n_visible)
    h_pat = bit_patterns(model.n_hidden)
    neg_energy = (
        (v_pat @ model.visible_bias)[:, None]
        + (h_pat @ model.hidden_bias)[None, :]
        + v_pat @ model.weights @ h_pat.T
    )
    shift = neg_energy.max()
    log_partition = float(shift + np.log(np.exp(neg_energy - shift).sum()))
    return ExactDistribution(np.exp(neg_energy - log_partition))


def brute_force_moments(
    model: RbmModel,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """<v_i h_j>, <v_i>, <h_j> by direct summation over the joint."""
    m, n = model.n_visible, model.n_hidden
    joint, _ = brute_force_joint(model)
    vh = np.zeros((m, n))
    v_mean = np.zeros(m)
    h_mean = np.zeros(n)
    for vi, v in enumerate(itertools.product((0, 1), repeat=m)):
        for hi, h in enumerate(itertools.product((0, 1), repeat=n)):
            p = joint[vi, hi]
            for i in range(m):
                v_mean[i] += p * v[i]
                for j in range(n):
                    vh[i, j] += p * v[i] * h[j]
            for j in range(n):
                h_mean[j] += p * h[j]
    return vh, v_mean, h_mean


_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
# (|+-> - |-+>) / sqrt(2) in the basis |++>, |+->, |-+>, |-->
_SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)


def singlet_prob_oracle(
    theta_a: float, theta_b: float, x_a: int, x_b: int
) -> float:
    """Joint outcome probability from the singlet state vector itself.

    Measures spin along angle theta in the x-z plane at each station:
    sigma(theta) = cos(theta) sigma_z + sin(theta) sigma_x, with projector
    (I + x * sigma(theta)) / 2 for outcome x.
    """

    def projector(theta: float, x: int) -> np.ndarray:
        sigma = math.cos(theta) * _SIGMA_Z + math.sin(theta) * _SIGMA_X
        return (np.eye(2) + x * sigma) / 2.0

    op = np.kron(projector(theta_a, x_a), projector(theta_b, x_b))
    return float(_SINGLET @ op @ _SINGLET)


def four_column_trials(
    angles, n_trials: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The trials epr.generate_dataset draws, as four int64 columns.

    alpha, beta, x_alpha and x_beta are drawn and combined column by column,
    from the same four blocks of the seeded stream in the same order, with
    no visible-pattern index anywhere: the oracle for the pattern form.
    """
    rng = np.random.default_rng(seed)
    alpha = rng.integers(0, 2, size=n_trials)
    beta = rng.integers(0, 2, size=n_trials)
    x_alpha = 2 * rng.integers(0, 2, size=n_trials) - 1
    agree_u = rng.random(n_trials)
    theta_a = np.array([[angles.a], [angles.a_prime]])
    theta_b = np.array([angles.b, angles.b_prime])
    p_same = (1.0 - np.cos(theta_a - theta_b)) / 2.0
    same = agree_u < p_same[alpha, beta]
    x_beta = np.where(same, x_alpha, -x_alpha)
    return alpha, beta, x_alpha, x_beta


# The four values of each trial, alpha, beta, x_alpha and x_beta, listed in
# the order of the 16 visible patterns: settings first, outcome -1 before +1.
TRIAL_ROWS = tuple(itertools.product((0, 1), (0, 1), (-1, 1), (-1, 1)))


def four_column_dataset(
    alpha, beta, x_alpha, x_beta, seed=None, angles=DetectorAngles()
) -> EprDataset:
    """An EprDataset from four aligned columns, settings 0 or 1 and outcomes
    +1 or -1: each trial's pattern is the position of its row in TRIAL_ROWS.

    Raises:
        ValueError: on a row that is not one of the 16, or columns of
            different lengths.
    """
    index = {row: i for i, row in enumerate(TRIAL_ROWS)}
    columns = [np.asarray(column).tolist() for column in (alpha, beta, x_alpha, x_beta)]
    pattern = []
    for row in zip(*columns, strict=True):
        if row not in index:
            raise ValueError(f"{row} is not a trial: settings 0 or 1, outcomes +1 or -1")
        pattern.append(index[row])
    return EprDataset(np.array(pattern, dtype=np.int64), seed, angles)


def trial_columns(dataset: EprDataset) -> tuple[np.ndarray, ...]:
    """alpha, beta, x_alpha and x_beta of every trial, as four int64 columns
    read from TRIAL_ROWS at each trial's pattern."""
    return tuple(np.array(TRIAL_ROWS, dtype=np.int64)[dataset.pattern].T)


def masked_mean_correlations(alpha, beta, x_alpha, x_beta) -> CorrelationReport:
    """epr.empirical_correlations from four columns: per setting pair, the
    mean of x_alpha * x_beta over the trials a boolean mask selects.

    Raises:
        InsufficientDataError: naming the setting pairs without trials.
    """
    products = x_alpha * x_beta
    masks = [(alpha == a) & (beta == b) for a, b in SETTING_PAIRS]
    missing = [pair for pair, mask in zip(SETTING_PAIRS, masks) if not mask.any()]
    if missing:
        raise InsufficientDataError(missing)
    values = [float(products[mask].mean()) for mask in masks]
    return CorrelationReport(*values, source="empirical")


def csv_text(alpha, beta, x_alpha, x_beta) -> str:
    """The dataset CSV save_dataset writes, rendered line by line."""
    return "alpha,beta,x_alpha,x_beta\n" + "".join(
        f"{int(a)},{int(b)},{int(xa)},{int(xb)}\n"
        for a, b, xa, xb in zip(alpha, beta, x_alpha, x_beta)
    )


def parse_comparison_csv(text: str) -> dict:
    """Parse `eval --out` CSV back into {quantity: {column: float | None}}."""
    lines = [line for line in text.strip().splitlines() if line]
    header = lines[0].split(",")
    if header != ["quantity", "theory", "data", "model"]:
        raise ValueError(f"unexpected comparison CSV header: {lines[0]!r}")
    out = {}
    for line in lines[1:]:
        quantity, *cells = line.split(",")
        out[quantity] = {
            column: (float(cell) if cell else None)
            for column, cell in zip(("theory", "data", "model"), cells)
        }
    return out


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def chisquare_bucketed(
    counts: np.ndarray, probs: np.ndarray, min_expected: float = 5.0
) -> float:
    """Chi-square goodness-of-fit p-value, merging low-expectation states.

    States whose expected count falls below min_expected are pooled into a
    single bucket so the chi-square approximation stays valid.
    """
    counts = np.asarray(counts, dtype=np.float64)
    expected = np.asarray(probs, dtype=np.float64) * counts.sum()
    keep = expected >= min_expected
    obs = list(counts[keep])
    exp = list(expected[keep])
    if not np.all(keep):
        obs.append(counts[~keep].sum())
        exp.append(expected[~keep].sum())
    obs = np.asarray(obs)
    exp = np.asarray(exp)
    # chisquare requires matching totals; renormalize away rounding drift
    exp *= obs.sum() / exp.sum()
    return float(stats.chisquare(obs, exp).pvalue)


def pickle_round_trip(obj):
    """obj written with pickle and read back."""
    return pickle.loads(pickle.dumps(obj))


# The three ways to duplicate an object, for tests of what a copy keeps.
COPIES = (copy.copy, copy.deepcopy, pickle_round_trip)


def zero_model(m: int = 4, n: int = 4) -> RbmModel:
    """The m x n machine with every parameter zero: the uniform law."""
    return RbmModel(
        visible_bias=np.zeros(m), hidden_bias=np.zeros(n), weights=np.zeros((m, n))
    )


def random_model(
    rng: np.random.Generator, m: int = 4, n: int = 4, scale: float = 2.0
) -> RbmModel:
    return RbmModel(
        visible_bias=rng.normal(0.0, scale, m),
        hidden_bias=rng.normal(0.0, scale, n),
        weights=rng.normal(0.0, scale, (m, n)),
    )


def flip_outcome_bits(model: RbmModel) -> RbmModel:
    """Reparameterize so that visible units 3 and 4 have flipped meaning.

    Substituting v_i -> 1 - v_i for i in {3, 4} in the energy yields a model
    whose distribution equals the original with those bits complemented:
    the unit's bias and weight row change sign, and each hidden bias absorbs
    the old weight row.
    """
    c = model.visible_bias.copy()
    w = model.weights.copy()
    d = model.hidden_bias.copy()
    for i in (2, 3):
        d += w[i]
        c[i] = -c[i]
        w[i] = -w[i]
    return RbmModel(visible_bias=c, hidden_bias=d, weights=w)


def gibbs_sweeps(
    model: RbmModel, visible, rng: np.random.Generator, n_sweeps: int = 1
) -> np.ndarray:
    """Block Gibbs sweeps unit by unit, the oracle for rbm.advance_chains.

    Each sweep draws every hidden unit from P(h_j = 1 | v), then every
    visible unit from P(v_i = 1 | h), comparing fresh uniforms with expit of
    the activations. visible is a (n_chains, m) batch or a single (m,)
    state, and the result has its shape.
    """
    v = np.asarray(visible, dtype=np.float64)
    batched = v.ndim == 2
    if not batched:
        v = v[None, :]
    w, c, d = model.weights, model.visible_bias, model.hidden_bias
    for _ in range(n_sweeps):
        ph = expit(v @ w + d)
        h = (rng.random(ph.shape) < ph).astype(np.float64)
        pv = expit(h @ w.T + c)
        v = (rng.random(pv.shape) < pv).astype(np.float64)
    return v if batched else v[0]


def _reference_pcd_advance(c, act, v_pat, h_pat, chains, k, rng) -> np.ndarray:
    """k block-Gibbs sweeps of pattern-index chains as one categorical draw.

    Builds T = P(h | v) @ P(v | h) from separate c and hidden pre-activations
    act, raises it to the k-th power and draws each chain's next pattern by
    comparing one uniform with the cumulative sum of its row.
    """
    log_joint = (v_pat @ c)[:, None] + act @ h_pat.T
    h_given_v = np.exp(log_joint - log_joint.max(axis=1, keepdims=True))
    h_given_v /= h_given_v.sum(axis=1, keepdims=True)
    v_given_h = np.exp(log_joint - log_joint.max(axis=0))
    v_given_h /= v_given_h.sum(axis=0)
    step = np.linalg.matrix_power(h_given_v @ v_given_h.T, k)
    cum = step.cumsum(axis=1)[:, :-1]
    return (cum[chains] < rng.random(chains.size)[:, None]).sum(axis=1)


def _reference_table_moments(v_pat, ph, weights):
    """<v_i h_j>, <v_i>, <h_j> of visible patterns weighted by weights."""
    return v_pat.T @ (weights[:, None] * ph), weights @ v_pat, weights @ ph


def reference_train(
    dataset: EprDataset, config: trainer.TrainerConfig
) -> tuple[RbmModel, trainer.TrainingTrace]:
    """Plain formulation of trainer.train, the oracle for its packed update.

    W, c and d are kept apart and stepped one by one, each update takes its
    uniforms in its own rng.random(n_chains) call, and the chain draw goes
    through an explicit cumulative sum. The seeded streams are consumed in
    the same order as in train, so the two agree up to floating-point
    reassociation. Fresh weights only, and no divergence handling.
    """
    encoded = encode_dataset(dataset)
    n_rows, m = encoded.shape
    n_hidden = 4  # train fits 4x4 machines only
    data_idx = trainer._pattern_index(encoded)
    init_ss, shuffle_ss, chain_ss = np.random.SeedSequence(config.seed).spawn(3)
    init_rng = np.random.default_rng(init_ss)
    shuffle_rng = np.random.default_rng(shuffle_ss)
    chain_rng = np.random.default_rng(chain_ss)

    w = init_rng.standard_normal((m, n_hidden)) * config.weight_init_scale
    c = np.zeros(m)
    d = np.zeros(n_hidden)
    v_pat = bit_patterns(m)
    h_pat = bit_patterns(n_hidden)
    n_patterns = v_pat.shape[0]
    n_chains = config.n_persistent_chains
    chains = trainer._pattern_index(trainer.init_chains(n_chains, m, chain_rng))
    data_counts = np.bincount(data_idx, minlength=n_patterns)
    n_batches = -(-n_rows // config.batch_size)
    batch_offsets = np.arange(n_rows) // config.batch_size * n_patterns

    records = []
    for epoch in range(1, config.n_epochs + 1):
        lr = config.learning_rate * config.learning_rate_decay ** (epoch - 1)
        cells = data_idx[shuffle_rng.permutation(n_rows)] + batch_offsets
        batch_counts = np.bincount(
            cells, minlength=n_batches * n_patterns
        ).reshape(n_batches, n_patterns)
        batch_weights = batch_counts / batch_counts.sum(axis=1, keepdims=True)
        for weights in batch_weights:
            act = v_pat @ w + d
            ph = expit(act)
            chains = _reference_pcd_advance(
                c, act, v_pat, h_pat, chains, config.gibbs_steps_per_update, chain_rng
            )
            model_weights = np.bincount(chains, minlength=n_patterns) / n_chains
            g_w, g_c, g_d = _reference_table_moments(v_pat, ph, weights - model_weights)
            w = w + lr * g_w
            c = c + lr * g_c
            d = d + lr * g_d
        theta = RbmModel(visible_bias=c, hidden_bias=d, weights=w).theta
        records.append(trainer._epoch_diagnostics(theta, data_counts, epoch, records))
    final = RbmModel(visible_bias=c, hidden_bias=d, weights=w)
    return final, trainer.TrainingTrace(tuple(records))


# Per-pair formulations of the exact diagnostics. exact reads its sums from
# one margin table per distribution, built by gathering joint rows and adding
# them in pattern order, and bell from the joint's setting-pair view; these
# rebuild every table from the public joint and P(v), pair by pair or by
# numpy's axis reductions, with the same sums in the same order, so the two
# must agree bit for bit.


def reference_conditional_outcomes(
    dist: ExactDistribution, settings: tuple[int, int]
) -> np.ndarray:
    """P(v3, v4 | v1, v2) filled cell by cell from P(v)."""
    s1, s2 = settings
    if s1 not in (0, 1) or s2 not in (0, 1):
        raise ValueError(f"settings must be binary, got {settings!r}")
    pv = dist.visible_marginal()
    table = np.empty((2, 2))
    for x3 in (0, 1):
        for x4 in (0, 1):
            table[x3, x4] = pv[(s1 << 3) | (s2 << 2) | (x3 << 1) | x4]
    total = table.sum()
    if total <= 0:
        raise ValueError(f"settings {settings} have zero probability")
    return table / total


def reference_correlations(dist: ExactDistribution) -> CorrelationReport:
    """The four correlations, one conditional outcome table at a time."""
    signs = np.array([[1.0, -1.0], [-1.0, 1.0]])  # (2*v3-1)*(2*v4-1)
    values = []
    for pair in SETTING_PAIRS:
        table = reference_conditional_outcomes(dist, pair)
        values.append(float((signs * table).sum()))
    return CorrelationReport(*values, source="model-exact")


def reference_locality_check(dist: ExactDistribution) -> float:
    """Factorization residual from the joint reshaped to (v1, v2, v3, v4, λ).

    This is the earlier formulation of exact.locality_check: every margin is
    a numpy sum over axes of the reshaped joint, with no margin table, so it
    shares none of the code it checks.
    """
    j = dist.joint.reshape(2, 2, 2, 2, dist.joint.shape[1])
    cond_joint = j / j.sum(axis=(2, 3), keepdims=True)
    num3 = j.sum(axis=(1, 3))
    p3 = num3 / num3.sum(axis=1, keepdims=True)
    num4 = j.sum(axis=(0, 2))
    p4 = num4 / num4.sum(axis=1, keepdims=True)
    product = p3[:, None, :, None, :] * p4[None, :, None, :, :]
    return float(np.abs(cond_joint - product).max())


def reference_measurement_independence(
    dist: ExactDistribution,
) -> MeasurementIndependenceReport:
    """P(λ | settings) normalized block by block, one setting pair at a time."""
    n_h = dist.joint.shape[1]
    j = dist.joint.reshape(2, 2, 2, 2, n_h)
    conditional = np.empty((4, n_h))
    for p, (s1, s2) in enumerate(SETTING_PAIRS):
        block = j[s1, s2].sum(axis=(0, 1))
        conditional[p] = block / block.sum()
    pooled = conditional.mean(axis=0)
    tv = 0.5 * np.abs(conditional - pooled).sum(axis=1)
    return MeasurementIndependenceReport(
        conditional=conditional,
        pooled=pooled,
        tv_distances=tv,
        max_tv=float(tv.max()),
    )


# What a model class can reach, by optimizing over exact laws. scipy's
# optimizers do the search, so these stay in the tests.


def least_dependent_local_law(correlations) -> tuple[np.ndarray, float]:
    """The local model with the least measurement dependence that gives the
    four correlations (in SETTING_PAIRS order), by a linear program (HiGHS).

    λ runs over the 16 deterministic strategies (A(a), A(a'), B(b), B(b'))
    in bit_patterns(4) order, bit 1 for outcome +1, so each response reads
    its own station's setting. The program chooses P(λ | p) (64 cells,
    each row summing to 1 and giving C_p) to minimize t subject to
    TV_p <= t, with TV_p from the pooled law, the plain mean of the rows.
    Returns the (4, 16) rows and t; Hall (PRL 105, 250404 (2010)) gives
    t = (S - 2) / 8 when S > 2.
    """
    strategies = 2 * bit_patterns(4) - 1
    # the outcome product x_alpha * x_beta of every strategy at each pair
    products = np.array(
        [strategies[:, x] * strategies[:, 2 + y] for x, y in SETTING_PAIRS]
    )
    n = products.size
    # variables: the cells q (row-major), u >= |q - pooled| per cell, then t
    spread = np.eye(n) - np.tile(np.eye(16), (4, 4)) / 4  # q - pooled
    per_pair = np.kron(np.eye(4), np.ones(16))  # sums each row's 16 cells
    no_u_or_t = np.zeros((4, n + 1))
    no_t = np.zeros((n, 1))
    a_ub = np.block([
        [spread, -np.eye(n), no_t],
        [-spread, -np.eye(n), no_t],
        [np.zeros((4, n)), per_pair / 2, -np.ones((4, 1))],
    ])
    a_eq = np.block([[per_pair, no_u_or_t], [per_pair * products.ravel(), no_u_or_t]])
    b_eq = np.concatenate([np.ones(4), correlations])
    cost = np.zeros(2 * n + 1)
    cost[-1] = 1.0
    result = optimize.linprog(
        cost, A_ub=a_ub, b_ub=np.zeros(2 * n + 4), A_eq=a_eq, b_eq=b_eq,
        bounds=(0, None), method="highs",
    )
    if result.status != 0:
        raise ValueError(f"linear program failed: {result.message}")
    return result.x[:n].reshape(4, 16), float(result.fun)


def singlet_law(angles) -> np.ndarray:
    """The singlet's P(v) over the 16 visible patterns (v1, v2, v3, v4) =
    (alpha, beta, x_alpha, x_beta), settings uniform and bit 1 for outcome
    +1, from the state vector."""
    thetas_a, thetas_b = (angles.a, angles.a_prime), (angles.b, angles.b_prime)
    return np.array([
        singlet_prob_oracle(thetas_a[alpha], thetas_b[beta], 2 * x3 - 1, 2 * x4 - 1) / 4
        for alpha, beta, x3, x4 in itertools.product((0, 1), repeat=4)
    ])


def _log_sum_exp(x: np.ndarray, axis: int) -> np.ndarray:
    top = x.max(axis, keepdims=True)
    return (top + np.log(np.exp(x - top).sum(axis, keepdims=True))).squeeze(axis)


def exact_kl_fit(
    target: np.ndarray, n_hidden: int, seed: int = 0, n_starts: int = 8
) -> tuple[RbmModel, float]:
    """The 4 x n_hidden RBM closest to the law target over the 16 visible
    patterns, and its KL(target || P): the best of n_starts L-BFGS-B runs,
    each from a draw of every parameter from N(0, 1) by
    default_rng(seed). target must be positive everywhere.

    The objective is exact: log P(v) by log-sum-exp over the log-joint. Its
    gradient is trainer._moments weighted by target - P(v), the exact
    ascent direction of train's step, with the sign turned.
    """
    shape = (N_VISIBLE + 1, n_hidden + 1)
    entropy = target @ np.log(target)

    def kl_and_gradient(x):
        theta = np.append(x, 0.0).reshape(shape)  # the corner of theta is 0
        log_pv = _log_sum_exp(_log_joint(theta), 1)
        log_pv -= _log_sum_exp(log_pv, 0)
        w, c, d = trainer._moments(theta, target - np.exp(log_pv))
        ascent = np.vstack([np.column_stack([w, c]), np.append(d, 0.0)])
        return entropy - target @ log_pv, -ascent.ravel()[:-1]

    rng = np.random.default_rng(seed)
    best = None
    for _ in range(n_starts):
        result = optimize.minimize(
            kl_and_gradient, rng.standard_normal(shape[0] * shape[1] - 1),
            jac=True, method="L-BFGS-B", options={"ftol": 0.0, "gtol": 1e-9},
        )
        if best is None or result.fun < best.fun:
            best = result
    return _unpack(np.append(best.x, 0.0).reshape(shape)), float(best.fun)
