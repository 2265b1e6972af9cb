"""Maximum-likelihood training of the RBM on encoded EPR trials.

The log-likelihood gradient for a weight is

    d log p(v) / d w_ij = <v_i h_j>_data - <v_i h_j>_model

and analogously for the biases with <v_i> and <h_j>. Both expectations are
taken over the 2^m visible patterns, each weighted by how often it occurs:
in the data, or among the persistent contrastive divergence chains that
train takes its model term from. exact_gradient and model_expectation_exact
weight the patterns by the exact P(v) instead, with P(h | v) normalized as
the chains' kernel normalizes it; they are the oracle for the stochastic
estimate.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, fields
from importlib import resources

import numpy as np

from . import bell
from .atomic import atomic_write
from .epr import N_VISIBLE, EprDataset, _read_json_object
from .epr import _is_finite, _is_int, _is_number
from .exact import (
    ExactDistribution,
    _pack,
    _pattern_tables,
    _read_only,
    enumerate_distribution,
)
from .rbm import RbmModel

ENCODING_DOC = {
    "v1": "alpha",
    "v2": "beta",
    "v3": "x_alpha(+1↔1)",
    "v4": "x_beta(+1↔1)",
}


@dataclass(frozen=True)
class TrainerConfig:
    """Hyperparameters of the training run.

    seed is mandatory and is split into three child streams (weight
    initialization, epoch shuffling, chain sampling), so a run is pinned
    bit for bit by the one number.

    The defaults were tuned so that training on a default 100,000-trial
    dataset reproduces that dataset's correlations within a few percent for
    nearly every seed; see the README for the measured pass rates.
    """

    seed: int
    learning_rate: float = 0.05
    learning_rate_decay: float = 0.995
    batch_size: int = 100
    n_persistent_chains: int = 100
    gibbs_steps_per_update: int = 5
    n_epochs: int = 200
    weight_init_scale: float = 0.01

    def __post_init__(self):
        if not _is_int(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        for name in ("learning_rate", "learning_rate_decay", "weight_init_scale"):
            value = getattr(self, name)
            if not _is_number(value):
                raise ValueError(f"{name} must be a number, got {value!r}")
        for name in ("learning_rate", "weight_init_scale"):
            value = getattr(self, name)
            if not _is_finite(value) or value < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if not 0 < self.learning_rate_decay <= 1:
            raise ValueError(
                f"learning_rate_decay must be in (0, 1], got {self.learning_rate_decay}"
            )
        for name in ("batch_size", "n_persistent_chains", "gibbs_steps_per_update"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if not _is_int(self.n_epochs) or self.n_epochs < 0:
            raise ValueError(f"n_epochs must be >= 0, got {self.n_epochs!r}")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "TrainerConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown trainer config keys: {sorted(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class EpochRecord:
    """Diagnostics after one epoch: exact data log-likelihood and CHSH S."""

    epoch: int
    avg_log_likelihood: float
    s: float


@dataclass(frozen=True)
class TrainingTrace:
    """Per-epoch diagnostic records, epoch numbers strictly increasing from 1."""

    records: tuple[EpochRecord, ...]

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        for pos, rec in enumerate(self.records):
            if rec.epoch != pos + 1:
                raise ValueError(
                    f"epoch numbers must run 1..n, got {rec.epoch} at position {pos}"
                )
            if not (np.isfinite(rec.avg_log_likelihood) and np.isfinite(rec.s)):
                raise ValueError(f"non-finite trace entry at epoch {rec.epoch}")

    def __len__(self) -> int:
        return len(self.records)

    def to_csv(self, path) -> None:
        with atomic_write(path, newline="") as fh:
            fh.write("epoch,avg_log_likelihood,s\n")
            for rec in self.records:
                fh.write(f"{rec.epoch},{rec.avg_log_likelihood!r},{rec.s!r}\n")


class TrainingDivergedError(RuntimeError):
    """Raised when parameters or diagnostics go non-finite during training.

    Carries the epoch at which divergence was detected and the trace of the
    epochs that completed cleanly.
    """

    def __init__(self, epoch: int, trace: TrainingTrace):
        self.epoch = epoch
        self.trace = trace
        super().__init__(f"training diverged at epoch {epoch}")


def _check_batch(model: RbmModel, batch) -> np.ndarray:
    """The rows as a non-empty (B, m) float array of 0/1 visible states."""
    arr = np.asarray(batch, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != model.n_visible:
        raise ValueError(
            f"batch must have shape (B, {model.n_visible}), got {arr.shape}"
        )
    if arr.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    # a fractional entry would be truncated to another pattern's index
    if not np.all((arr == 0) | (arr == 1)):
        raise ValueError("batch entries must be 0 or 1")
    return arr


def init_chains(
    n_chains: int, n_visible: int, rng: np.random.Generator
) -> np.ndarray:
    """Fresh persistent-chain visible states: independent fair bits."""
    if n_chains < 1:
        raise ValueError(f"n_chains must be at least 1, got {n_chains}")
    return (rng.random((n_chains, n_visible)) < 0.5).astype(np.float64)


def _pattern_index(rows: np.ndarray) -> np.ndarray:
    """Index of each binary row among bit_patterns(m), first column most significant."""
    powers = 2 ** np.arange(rows.shape[1] - 1, -1, -1)
    return (rows @ powers).astype(np.int64)


def _unpack(theta: np.ndarray) -> RbmModel:
    return RbmModel(
        visible_bias=theta[:-1, -1], hidden_bias=theta[-1, :-1], weights=theta[:-1, :-1]
    )


def _cumulative_rows(n_patterns: int) -> np.ndarray:
    """Lower-triangular ones without the last row: column j of it @ T.T
    holds the cumulative sums of row j of T, without the last one.

    The last row is left out so that rounding in the row sums can never
    push a draw past the last pattern.
    """
    return np.tril(np.ones((n_patterns, n_patterns)))[:-1]


# one shape at a time: with many hidden units these tables are large
@functools.lru_cache(maxsize=1)
def _kernel_tables(shape: tuple[int, int]) -> tuple[np.ndarray, ...]:
    """Shared read-only tables for a packed theta of the given shape.

    v_aug and h_aug.T turn theta into the log-joint table, two vectors of
    ones take its row and column sums by BLAS, and _cumulative_rows(2^m)
    turns a transition table into the rows each chain draws from.
    """
    v_aug, h_aug_t = _pattern_tables(shape[0] - 1, shape[1] - 1)
    ones_h, ones_v = np.ones(h_aug_t.shape[1]), np.ones(v_aug.shape[0])
    tables = (ones_h, ones_v, _cumulative_rows(v_aug.shape[0]))
    return (v_aug, h_aug_t, *map(_read_only, tables))


# Every log-joint entry v_aug @ theta @ h_aug.T is a sum of a subset of
# theta's entries, and the difference of two entries a signed sum, so both
# are bounded by ||theta||_1 <= sqrt(theta.size) ||theta||_F. When that bound
# is below _MAX_LOG_JOINT, every exponential lies in (e^-600, e^600) and no
# conditional is below e^-600 over its row or column length: normal doubles
# throughout, so both conditionals can be normalized from one unshifted table.
_MAX_LOG_JOINT = 600.0


def _conditional(log_joint, axis, out=None) -> np.ndarray:
    """P(h | v) (axis=1) or P(v | h) (axis=0) from the log-joint table.

    Each row (or column) is shifted by its own maximum, so the table stays
    finite and normalizable at any spread of the log-joint.
    """
    table = np.exp(log_joint - log_joint.max(axis=axis, keepdims=True), out=out)
    table /= table.sum(axis=axis, keepdims=True)
    return table


def _pcd_advance(theta, chains, k, u, h_given_v=None) -> np.ndarray:
    """Advance pattern-index chains by k block-Gibbs sweeps, one draw per chain.

    With the visible layer confined to its 2^m patterns, a block-Gibbs sweep
    is a Markov chain over those patterns with transition matrix
    T = P(h | v) @ P(v | h); both conditionals come from the one
    (2^m, 2^n) table v_aug @ theta @ h_aug.T of unnormalized
    log-probabilities, with theta the packed parameters (see _pack). Each
    chain then takes a single categorical draw from its row of T^k, which
    has exactly the law of k sweeps: u holds one uniform per chain, shape
    (n_chains,).

    The table is exponentiated unshifted when the bound _MAX_LOG_JOINT
    holds for theta, and shifted per row and per column otherwise. The
    cumulative table is kept transposed, cumulative @ (T.T)^k with (T.T)^k
    built by repeated squaring, so that each chain's column is compared with
    its uniform. The normalized P(h | v) table is written to h_given_v when
    one is given: h_given_v @ h_aug holds the rows [P(h | v), 1] that the
    moments are formed from.
    """
    v_aug, h_aug_t, ones_h, ones_v, cumulative = _kernel_tables(theta.shape)
    log_joint = v_aug.dot(theta).dot(h_aug_t)
    flat = theta.ravel()
    if flat.dot(flat) * flat.size < _MAX_LOG_JOINT**2:
        both = np.exp(log_joint)
        h_given_v = np.divide(both, both.dot(ones_h)[:, None], out=h_given_v)
        v_given_h = both / ones_v.dot(both)
    else:
        h_given_v = _conditional(log_joint, 1, h_given_v)
        v_given_h = _conditional(log_joint, 0)
    step = v_given_h.dot(h_given_v.T)
    table = cumulative
    while True:
        if k & 1:
            table = table.dot(step)
        k >>= 1
        if not k:
            break
        step = step.dot(step)
    return (table.take(chains, axis=1) < u).sum(axis=0)


def _model_tables(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Augmented visible patterns, log-joint table and [P(h | v), 1] rows.

    Weighting the rows of the last table by pattern frequencies w and
    forming v_aug.T @ (w[:, None] * rows) gives <v h>, <v> and <h> in one
    augmented matrix laid out like theta, the packed model (see _pack).
    P(h | v) is the log-joint table normalized per row as the PCD kernel
    normalizes it; the last column is set to exactly 1, the sum its rows
    reach only up to rounding.
    """
    v_aug, h_aug_t = _pattern_tables(theta.shape[0] - 1, theta.shape[1] - 1)
    log_joint = v_aug.dot(theta).dot(h_aug_t)
    ph = _conditional(log_joint, 1).dot(h_aug_t.T)
    ph[:, -1] = 1.0
    return v_aug, log_joint, ph


def _moments(v_aug, ph, weights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """<v h>, <v> and <h> over the visible patterns weighted by weights.

    This is the product train steps theta with, split into its W, c and d
    blocks; train forms the rows ph as P(h | v) @ h_aug from the P(h | v)
    table of each update.
    """
    moments = v_aug.T @ (weights[:, None] * ph)
    return moments[:-1, :-1], moments[:-1, -1], moments[-1, :-1]


def _frequencies(rows: np.ndarray, n_patterns: int) -> np.ndarray:
    """How often each visible pattern occurs among the 0/1 rows, as fractions."""
    return np.bincount(_pattern_index(rows), minlength=n_patterns) / rows.shape[0]


def _exact_visible(log_joint: np.ndarray) -> np.ndarray:
    """The model's exact P(v) from its log-joint table."""
    p_v = np.exp(log_joint - log_joint.max()).sum(axis=1)
    return p_v / p_v.sum()


def data_expectation(
    model: RbmModel, batch
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Data-side moments of a batch of visible vectors.

    Each vector fixes the visible units, and the hidden units are summed out
    analytically: the (i, j) entry is the batch mean of v_i * P(h_j = 1 | v).
    The batch enters as its visible-pattern frequencies.

    Returns:
        (vh, v_mean, h_mean): (m, n) matrix <v_i h_j>, (m,) vector <v_i>,
        (n,) vector <h_j>, all averaged over the batch.
    """
    arr = _check_batch(model, batch)
    v_aug, _, ph = _model_tables(_pack(model))
    return _moments(v_aug, ph, _frequencies(arr, v_aug.shape[0]))


def model_expectation_exact(
    model: RbmModel,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Model-side moments <v_i h_j>, <v_i>, <h_j> under the exact distribution.

    The visible patterns are weighted by the exact P(v) and the hidden units
    summed out analytically, which equals summing over the joint table.
    """
    v_aug, log_joint, ph = _model_tables(_pack(model))
    return _moments(v_aug, ph, _exact_visible(log_joint))


def model_expectation_pcd(
    model: RbmModel,
    chains: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stochastic model moments from persistent chains.

    Advances every chain by k block-Gibbs sweeps, drawn in one step from the
    k-step transition law over visible patterns, then forms the same
    analytically-averaged moments as data_expectation at the final visible
    states. The advanced chains are returned and must be fed back in on the
    next call; they are never reset between parameter updates.

    Returns:
        (vh, v_mean, h_mean, chains) with the updated chain states.
    """
    arr = _check_batch(model, chains)
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    theta = _pack(model)
    v_aug, h_aug_t = _kernel_tables(theta.shape)[:2]
    n_chains, n_patterns = arr.shape[0], v_aug.shape[0]
    h_given_v = np.empty((n_patterns, h_aug_t.shape[1]))
    idx = _pcd_advance(theta, _pattern_index(arr), k, rng.random(n_chains), h_given_v)
    occupancy = np.bincount(idx, minlength=n_patterns) / n_chains
    return (*_moments(v_aug, h_given_v.dot(h_aug_t.T), occupancy), v_aug[idx, :-1])


def _mean_log_likelihood(dist: ExactDistribution, counts: np.ndarray) -> float:
    """Mean of log P(v) under dist over data given as visible-pattern counts."""
    return float(counts @ np.log(dist.visible_marginal()) / counts.sum())


def average_log_likelihood(model: RbmModel, data) -> float:
    """Mean over data rows of log P(v) under the exact distribution."""
    arr = _check_batch(model, data)
    counts = np.bincount(_pattern_index(arr), minlength=2**model.n_visible)
    return _mean_log_likelihood(enumerate_distribution(model), counts)


def exact_gradient(
    model: RbmModel, data
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact ascent direction of the average log-likelihood.

    This is train's step on a minibatch, before the learning rate, with the
    chains' occupancy replaced by the exact P(v): one product over the
    visible patterns weighted by data frequency minus exact model
    probability, with P(h | v) normalized as the PCD kernel normalizes it.

    Returns:
        (grad_w, grad_c, grad_d): data moments minus exact model moments for
        the weights, visible biases, and hidden biases.
    """
    arr = _check_batch(model, data)
    v_aug, log_joint, ph = _model_tables(_pack(model))
    weights = _frequencies(arr, v_aug.shape[0]) - _exact_visible(log_joint)
    return _moments(v_aug, ph, weights)


def _epoch_diagnostics(
    model: RbmModel, counts: np.ndarray, epoch: int
) -> EpochRecord | None:
    """Exact trace entry for one epoch, or None if the model has blown up.

    counts holds how often each visible pattern occurs in the data. Parameters
    can stay finite while being large enough that the 2^(m+n) enumeration
    overflows, so the overflow and log-of-zero warnings are silenced here and
    any non-finite or degenerate result is reported as None for the caller to
    turn into a divergence error.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        dist = enumerate_distribution(model)
        avg_ll = _mean_log_likelihood(dist, counts)
        try:
            s = bell.correlations_from_distribution(dist).s
        except ValueError:
            return None
    if not (np.isfinite(avg_ll) and np.isfinite(s)):
        return None
    return EpochRecord(epoch=epoch, avg_log_likelihood=avg_ll, s=s)


def train(
    dataset: EprDataset,
    config: TrainerConfig,
    *,
    n_hidden: int = 4,
    initial_model: RbmModel | None = None,
) -> tuple[RbmModel, TrainingTrace]:
    """Fit an RBM to the encoded trials by stochastic gradient ascent.

    Weights start from a zero-mean normal draw scaled by weight_init_scale
    and biases start at zero (or from initial_model if given). Each epoch
    shuffles the encoded data and applies one update per minibatch:

        W  += eps * (<v h>_data - <v h>_model)
        c  += eps * (<v>_data   - <v>_model)
        d  += eps * (<h>_data   - <h>_model)

    with eps decayed per epoch. The model term comes from persistent
    contrastive divergence (Tieleman, ICML 2008); exact_gradient gives the
    same step with the exact model term. After every epoch the exact average
    log-likelihood and CHSH S are recorded.

    Data, chains and moments are all kept over the 2^m visible patterns:
    each minibatch is a vector of pattern counts, and the persistent chains
    are pattern indices advanced as in model_expectation_pcd. W, c and d
    live in one augmented matrix theta = [[W, c], [d, 0]], so both moment
    sets of an update, and the step itself, are one product over the
    patterns weighted by data frequency minus the chains' occupancy.

    Raises:
        TrainingDivergedError: if any parameter goes non-finite, or the
            parameters grow so large that the exact diagnostics degenerate;
            the exception carries the trace of the completed epochs.
    """
    if len(dataset) == 0:
        raise ValueError("dataset must be non-empty")
    data_idx = dataset.pattern
    n_rows, m = data_idx.size, N_VISIBLE

    init_ss, shuffle_ss, chain_ss = np.random.SeedSequence(config.seed).spawn(3)
    init_rng = np.random.default_rng(init_ss)
    shuffle_rng = np.random.default_rng(shuffle_ss)
    chain_rng = np.random.default_rng(chain_ss)

    if initial_model is not None:
        if initial_model.n_visible != m:
            raise ValueError(
                f"initial_model has {initial_model.n_visible} visible units, "
                f"data has {m}"
            )
        n_hidden = initial_model.n_hidden
        theta = _pack(initial_model)
    else:
        if n_hidden < 1:
            raise ValueError(f"n_hidden must be at least 1, got {n_hidden}")
        theta = np.zeros((m + 1, n_hidden + 1))
        theta[:-1, :-1] = init_rng.standard_normal((m, n_hidden))
        theta *= config.weight_init_scale

    # raises if the kernel's 2^(m+n) joint states are too many to tabulate
    v_aug, h_aug_t = _kernel_tables(theta.shape)[:2]
    v_aug_t, h_aug = v_aug.T, h_aug_t.T
    n_patterns = v_aug.shape[0]
    h_given_v = np.empty((n_patterns, h_aug.shape[0]))
    chains = _pattern_index(init_chains(config.n_persistent_chains, m, chain_rng))
    n_chains = config.n_persistent_chains
    k = config.gibbs_steps_per_update
    data_counts = np.bincount(data_idx, minlength=n_patterns)
    # a batch larger than the data is the whole data, and fits an int64
    batch_size = min(config.batch_size, n_rows)
    n_batches = -(-n_rows // batch_size)
    # row r of a shuffled epoch lands in minibatch r // batch_size
    batch_of_row = np.arange(n_rows) // batch_size
    batch_offsets = batch_of_row * n_patterns
    batch_sizes = np.bincount(batch_of_row)[:, None]

    records = []
    for epoch in range(1, config.n_epochs + 1):
        lr = config.learning_rate * config.learning_rate_decay ** (epoch - 1)
        cells = shuffle_rng.permutation(data_idx)
        cells += batch_offsets
        # each row is lr times its minibatch's pattern frequencies, so that
        # one update is theta += v_aug.T @ diag(row - lr * model weights)
        # @ P(h | v) @ h_aug
        batch_weights = np.bincount(
            cells, minlength=n_batches * n_patterns
        ).reshape(n_batches, n_patterns) * (lr / batch_sizes)
        uniforms = chain_rng.random((n_batches, n_chains))
        # each chain's pattern counts lr / n_chains against the data
        chain_weights = np.full(n_chains, lr / n_chains)
        # overflow en route to divergence is caught by the guards below, so
        # the transient warnings carry no extra information
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for weights, u in zip(batch_weights, uniforms):
                chains = _pcd_advance(theta, chains, k, u, h_given_v)
                weights = weights - np.bincount(chains, chain_weights, n_patterns)
                # the corner of theta collects the rounding of sum(weights),
                # a constant offset of the log-joint that cancels everywhere
                theta += (v_aug_t * weights).dot(h_given_v).dot(h_aug)
        if not np.all(np.isfinite(theta)):
            raise TrainingDivergedError(epoch, TrainingTrace(tuple(records)))
        record = _epoch_diagnostics(_unpack(theta), data_counts, epoch)
        if record is None:
            # parameters are finite but so extreme that the enumeration
            # overflows; that is divergence in all but name
            raise TrainingDivergedError(epoch, TrainingTrace(tuple(records)))
        records.append(record)

    return _unpack(theta), TrainingTrace(tuple(records))


def save_model(
    path,
    model: RbmModel,
    *,
    trainer_config: TrainerConfig | None = None,
    dataset_seed: int | None = None,
) -> None:
    """Write a model file: JSON with shapes, parameters, and provenance.

    weights are stored row-major with one row per visible unit. trainer and
    dataset_seed are null for models that were not produced by train (for
    example hand-entered parameter sets).
    """
    payload = {
        "m": model.n_visible,
        "n": model.n_hidden,
        "visible_bias": model.visible_bias.tolist(),
        "hidden_bias": model.hidden_bias.tolist(),
        "weights": model.weights.tolist(),
        "encoding": ENCODING_DOC,
        "trainer": trainer_config.to_dict() if trainer_config else None,
        "dataset_seed": dataset_seed,
    }
    with atomic_write(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_model(path) -> tuple[RbmModel, dict]:
    """Read a model file; returns the model and the full metadata dict.

    Raises ValueError naming the file and the field if m or n is not an int,
    or if visible_bias and hidden_bias (lists) or weights (a list of rows)
    hold anything but finite JSON numbers: no bool, string or object.
    """
    payload = _read_json_object(path)
    for name in ("m", "n"):
        if not _is_int(payload[name]):
            raise ValueError(f"{path}: {name} must be an int, got {payload[name]!r}")
    for name, ndim in (("visible_bias", 1), ("hidden_bias", 1), ("weights", 2)):
        # an object array keeps bools, strings and objects apart from numbers
        values = np.array(payload[name], dtype=object)
        numbers = all(_is_number(x) and _is_finite(x) for x in values.flat)
        if values.ndim != ndim or not numbers:
            raise ValueError(f"{path}: {name} must be {ndim}-d lists of finite numbers")
    model = RbmModel(
        visible_bias=payload["visible_bias"],
        hidden_bias=payload["hidden_bias"],
        weights=payload["weights"],
    )
    if model.n_visible != payload["m"] or model.n_hidden != payload["n"]:
        raise ValueError(
            f"model file shape fields (m={payload['m']}, n={payload['n']}) do not "
            f"match arrays ({model.n_visible}, {model.n_hidden})"
        )
    return model, payload


def load_reference_model() -> RbmModel:
    """The bundled pre-trained 4x4 machine that reproduces the singlet
    correlations; used by regression tests and as a demo model."""
    ref = resources.files("eprbm").joinpath("fixtures/reference_model.json")
    with resources.as_file(ref) as path:
        model, _ = load_model(path)
    return model
