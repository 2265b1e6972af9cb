"""Maximum-likelihood training of the RBM on encoded EPR trials.

The log-likelihood gradient for a weight is

    d log p(v) / d w_ij = <v_i h_j>_data - <v_i h_j>_model

and analogously for the biases with <v_i> and <h_j>. Both expectations are
taken over the 2^m visible patterns, each weighted by how often it occurs:
in the data, or among the persistent contrastive divergence chains that
train takes its model term from. The chains are advanced by rbm._pcd_kernel,
the one sampler, which rbm.advance_chains and model_expectation_pcd also
run. exact_gradient and model_expectation_exact weight the patterns by the
exact P(v) of enumerate_distribution instead, with P(h | v) normalized per
row as the chains' kernel normalizes it on its shifted path (on its
unshifted path the two agree within 1e-15); they are the oracle for the
stochastic estimate.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields
from importlib import resources

import numpy as np

from . import bell
from .atomic import atomic_write, write_json
from .epr import EprDataset, _read_json_object
from .epr import _fields, _is_finite, _is_int, _is_number
from .exact import N_PATTERNS, N_VISIBLE, ExactDistribution, enumerate_distribution
from .rbm import (
    _MAX_LOG_JOINT,
    RbmModel,
    _batch_patterns,
    _bound_test,
    _conditional,
    _log_joint,
    _pattern_index,
    _pattern_tables,
    _pcd_kernel,
    _unpack,
    advance_chains,
)

# the number of hidden units of every machine train fits
N_HIDDEN = 4

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
        for name in ("seed", "n_epochs"):
            value = getattr(self, name)
            if not _is_int(value) or value < 0:
                raise ValueError(
                    f"{name} must be a non-negative integer, got {value!r}"
                )
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
            if not np.isfinite(astuple(rec)).all():
                raise ValueError(f"non-finite trace entry at epoch {rec.epoch}")

    def __len__(self) -> int:
        return len(self.records)

    def to_csv(self, path) -> None:
        with atomic_write(path) as fh:
            fh.write(",".join(f.name for f in fields(EpochRecord)) + "\n")
            for rec in self.records:
                fh.write(",".join(map(repr, astuple(rec))) + "\n")


class TrainingDivergedError(RuntimeError):
    """Raised when parameters or diagnostics go non-finite during training.

    Carries the epoch at which divergence was detected and the trace of the
    epochs that completed cleanly.
    """

    def __init__(self, epoch: int, trace: TrainingTrace):
        self.epoch = epoch
        self.trace = trace
        super().__init__(f"training diverged at epoch {epoch}")


def _pattern_counts(model: RbmModel, batch) -> np.ndarray:
    """How often each visible pattern occurs among the batch's rows. A model
    too large for exact inference raises before the 2^m counts are made."""
    idx = _batch_patterns(model, batch)
    n_patterns = _pattern_tables(model.n_visible, model.n_hidden)[0].shape[0]
    return np.bincount(idx, minlength=n_patterns)


def init_chains(
    n_chains: int, n_visible: int, rng: np.random.Generator
) -> np.ndarray:
    """Fresh persistent-chain visible states: independent fair bits."""
    if n_chains < 1:
        raise ValueError(f"n_chains must be at least 1, got {n_chains}")
    return (rng.random((n_chains, n_visible)) < 0.5).astype(np.float64)


def _moments(theta, weights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """<v h>, <v> and <h> over the visible patterns weighted by weights: the
    W, c and d blocks of v_aug.T @ (weights[:, None] * [P(h | v), 1]), the
    product train steps theta (see RbmModel.theta) with. P(h | v) is
    theta's log-joint normalized per row as the PCD kernel's shifted path
    normalizes it; the last column is exactly 1, which the rows of P(h | v)
    sum to only up to rounding."""
    v_aug, h_aug_t = _pattern_tables(theta.shape[0] - 1, theta.shape[1] - 1)
    rows = _conditional(_log_joint(theta), 1).dot(h_aug_t.T)
    rows[:, -1] = 1.0
    moments = v_aug.T @ (weights[:, None] * rows)
    return moments[:-1, :-1], moments[:-1, -1], moments[-1, :-1]


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
    counts = _pattern_counts(model, batch)
    return _moments(model.theta, counts / counts.sum())


def model_expectation_exact(
    model: RbmModel,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Model-side moments <v_i h_j>, <v_i>, <h_j> under the exact distribution.

    The visible patterns are weighted by the exact P(v) and the hidden units
    summed out analytically, which equals summing over the joint table.
    Raises the layout ValueError if the model is not 4-visible.
    """
    return _moments(model.theta, enumerate_distribution(model).visible_marginal())


def model_expectation_pcd(
    model: RbmModel,
    chains: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stochastic model moments from persistent chains.

    Advances every chain by k block-Gibbs sweeps with advance_chains, then
    forms the same analytically-averaged moments as data_expectation at the
    final visible states. The advanced chains are returned and must be fed
    back in on the next call; they are never reset between parameter updates.

    Returns:
        (vh, v_mean, h_mean, chains) with the updated chain states.
    """
    chains = advance_chains(model, chains, rng, k)
    return (*data_expectation(model, chains), chains)


def _mean_log_likelihood(dist: ExactDistribution, counts: np.ndarray) -> float:
    """Mean of log P(v) under dist over data given as visible-pattern counts."""
    return float(counts @ np.log(dist.visible_marginal()) / counts.sum())


def average_log_likelihood(model: RbmModel, data) -> float:
    """Mean over data rows of log P(v) under the exact distribution; raises
    the layout ValueError if the model is not 4-visible."""
    counts = _pattern_counts(model, data)
    return _mean_log_likelihood(enumerate_distribution(model), counts)


def exact_gradient(
    model: RbmModel, data
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact ascent direction of the average log-likelihood.

    This is train's step on a minibatch, before the learning rate, with the
    chains' occupancy replaced by the exact P(v): one product over the
    visible patterns weighted by data frequency minus exact model
    probability, with P(h | v) normalized as the PCD kernel's shifted path
    normalizes it (its unshifted path agrees within 1e-15).

    Returns:
        (grad_w, grad_c, grad_d): data moments minus exact model moments for
        the weights, visible biases, and hidden biases.

    Raises:
        ValueError: the layout error, if the model is not 4-visible.
    """
    counts = _pattern_counts(model, data)
    weights = counts / counts.sum() - enumerate_distribution(model).visible_marginal()
    return _moments(model.theta, weights)


def _epoch_diagnostics(
    theta: np.ndarray, counts: np.ndarray, epoch: int, records: list[EpochRecord]
) -> EpochRecord:
    """Exact trace entry for one epoch; train's one divergence exit.

    theta holds the packed parameters (see RbmModel.theta), counts how often
    each visible pattern occurs in the data, and records the earlier entries.
    Parameters can stay finite while being large enough that the 2^(m+n)
    enumeration overflows, so its warnings are silenced here. A non-finite
    theta (RbmModel refuses it), or a non-finite or degenerate result, raises
    TrainingDivergedError with records as the trace.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        try:
            dist = enumerate_distribution(_unpack(theta))
            avg_ll = _mean_log_likelihood(dist, counts)
            s = bell.correlations_from_distribution(dist).s
            if np.isfinite(avg_ll):  # chsh has refused a non-finite S
                return EpochRecord(epoch=epoch, avg_log_likelihood=avg_ll, s=s)
        except ValueError:
            pass
    raise TrainingDivergedError(epoch, TrainingTrace(tuple(records)))


def train(dataset: EprDataset, config: TrainerConfig) -> tuple[RbmModel, TrainingTrace]:
    """Fit a 4x4 RBM to the encoded trials by stochastic gradient ascent.

    Weights start from a zero-mean normal draw scaled by weight_init_scale
    and biases start at zero. Each epoch shuffles the encoded data and
    applies one update per minibatch:

        W  += eps * (<v h>_data - <v h>_model)
        c  += eps * (<v>_data   - <v>_model)
        d  += eps * (<h>_data   - <h>_model)

    with eps decayed per epoch. The model term comes from persistent
    contrastive divergence (Tieleman, ICML 2008); exact_gradient gives the
    same step with the exact model term. After every epoch the exact average
    log-likelihood and CHSH S are recorded.

    Data, chains and moments are all kept over the 2^m visible patterns:
    each minibatch is a vector of pattern counts, and the persistent chains
    are pattern indices advanced by rbm._pcd_kernel, built once per call.
    W, c and d
    live in one augmented matrix theta = [[W, c], [d, 0]], so both moment
    sets of an update, and the step itself, are one product over the
    patterns weighted by data frequency minus the chains' occupancy.

    Raises:
        TrainingDivergedError: if any parameter goes non-finite, or the
            parameters, the initial draw included (epoch 0), are so large
            that the exact diagnostics degenerate; the exception carries the
            trace of the completed epochs.
    """
    if len(dataset) == 0:
        raise ValueError("dataset must be non-empty")
    data_idx = dataset.pattern
    n_rows, m = data_idx.size, N_VISIBLE

    init_ss, shuffle_ss, chain_ss = np.random.SeedSequence(config.seed).spawn(3)
    init_rng = np.random.default_rng(init_ss)
    shuffle_rng = np.random.default_rng(shuffle_ss)
    chain_rng = np.random.default_rng(chain_ss)

    theta = np.zeros((m + 1, N_HIDDEN + 1))
    theta[:-1, :-1] = init_rng.standard_normal((m, N_HIDDEN))
    theta *= config.weight_init_scale

    n_chains, k = config.n_persistent_chains, config.gibbs_steps_per_update
    v_aug, h_aug_t = _pattern_tables(m, N_HIDDEN)
    v_aug_t, h_aug = v_aug.T, h_aug_t.T
    try:
        advance, h_given_v = _pcd_kernel(theta.shape, k, n_chains)
    except ValueError as err:
        # numpy refuses a chain buffer past its largest dimension with a
        # ValueError rather than a MemoryError
        raise MemoryError(str(err)) from None
    chains = _pattern_index(init_chains(n_chains, m, chain_rng))
    data_counts = np.bincount(data_idx, minlength=N_PATTERNS)
    # a finite draw can already be past exact diagnosis: epoch 0 diverges
    _epoch_diagnostics(theta, data_counts, 0, [])
    # a batch larger than the data is the whole data, and fits an int64
    batch_size = min(config.batch_size, n_rows)
    n_batches = -(-n_rows // batch_size)
    # row r of a shuffled epoch lands in minibatch r // batch_size; the
    # last minibatch takes what is left
    batch_starts = np.arange(0, n_batches * N_PATTERNS, N_PATTERNS)
    batch_offsets = np.repeat(batch_starts, batch_size)[:n_rows]
    batch_sizes = np.full((n_batches, 1), batch_size)
    batch_sizes[-1] = n_rows - (n_batches - 1) * batch_size

    # bound is an upper bound on B = sqrt(theta.size) ||theta||_F, and while
    # it is below _MAX_LOG_JOINT - 1 the update takes the unshifted path
    # without an exact test. An update adds to every entry of theta a sum
    # over the patterns of a weight times entries of v_aug and of
    # [P(h | v), 1], all in [0, 1], and the weights' magnitudes sum to at
    # most 2 lr: lr for the data row and lr for the chains. So B grows by at
    # most 2 lr theta.size an update; 1 + 1e-9 on that covers the rounding
    # of the weights, and the unit below _MAX_LOG_JOINT the rounding of the
    # tests, the steps and the sums over far more updates than any run
    # makes. A smaller lr only shortens the steps, so the bound carries
    # across epochs; a NaN or infinite bound tests before every update.
    bound = math.inf
    records = []
    for epoch in range(1, config.n_epochs + 1):
        lr = config.learning_rate * config.learning_rate_decay ** (epoch - 1)
        growth = 2 * lr * theta.size * (1 + 1e-9)
        cells = shuffle_rng.permutation(data_idx)
        cells += batch_offsets
        # each row is lr times its minibatch's pattern frequencies, so that
        # one update is theta += v_aug.T @ diag(row - lr * model weights)
        # @ P(h | v) @ h_aug
        batch_weights = np.bincount(
            cells, minlength=n_batches * N_PATTERNS
        ).reshape(n_batches, N_PATTERNS) * (lr / batch_sizes)
        uniforms = chain_rng.random((n_batches, n_chains, 1))
        # each chain's pattern counts lr / n_chains against the data
        chain_weights = np.full(n_chains, lr / n_chains)
        # overflow en route to divergence is caught by the diagnostics below,
        # so the transient warnings carry no extra information
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for weights, u in zip(batch_weights, uniforms):
                if not bound < _MAX_LOG_JOINT - 1:
                    bound, admitted = _bound_test(theta)
                chains = advance(theta, chains, u, admitted)
                # the row is this epoch's own, so it is overwritten in place
                weights -= np.bincount(chains, chain_weights, N_PATTERNS)
                # the corner of theta collects the rounding of sum(weights),
                # a constant offset of the log-joint that cancels everywhere
                theta += (v_aug_t * weights).dot(h_given_v).dot(h_aug)
                bound += growth
        records.append(_epoch_diagnostics(theta, data_counts, epoch, records))

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
    write_json(path, payload)


def load_model(path) -> tuple[RbmModel, dict]:
    """Read a model file; returns the model and the full metadata dict.

    Raises ValueError naming the file and the field if a field is missing,
    if m or n is not an int, or if visible_bias and hidden_bias (lists) or
    weights (a list of rows) hold anything but finite JSON numbers: no bool,
    string or object.
    """
    payload = _read_json_object(path)
    names = ("m", "n", "visible_bias", "hidden_bias", "weights")
    m, n, *arrays = _fields(payload, names, f"{path}: field")
    for name, value in (("m", m), ("n", n)):
        if not _is_int(value):
            raise ValueError(f"{path}: {name} must be an int, got {value!r}")
    for name, ndim, value in zip(names[2:], (1, 1, 2), arrays):
        # an object array keeps bools, strings and objects apart from numbers
        values = np.array(value, dtype=object)
        numbers = all(_is_number(x) and _is_finite(x) for x in values.flat)
        if values.ndim != ndim or not numbers:
            raise ValueError(f"{path}: {name} must be {ndim}-d lists of finite numbers")
    model = RbmModel(*arrays)
    if model.n_visible != m or model.n_hidden != n:
        raise ValueError(
            f"model file shape fields (m={m}, n={n}) do not "
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
