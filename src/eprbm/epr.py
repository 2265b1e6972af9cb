"""Simulated EPR experiment: singlet-state trial generation, I/O, encoding.

Each trial measures an entangled pair at two stations. Station A uses one of
two analyzer angles (a or a'), station B one of (b or b'); the outcomes are
+1 or -1. The joint outcome law is the standard singlet prediction

    P(x_a, x_b | theta_a, theta_b) = (1 - x_a * x_b * cos(theta_a - theta_b)) / 4

which gives correlation E[x_a * x_b] = -cos(theta_a - theta_b) and uniform
marginals at both stations.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_write
from .bell import OUTCOME_SIGNS, CorrelationReport
from .exact import SETTING_PAIRS, bit_patterns

# Visible units per encoded trial: alpha, beta, x_alpha, x_beta (encode_dataset).
N_VISIBLE = 4
N_PATTERNS = 2**N_VISIBLE

# Human-readable names of the four setting pairs, by (alpha, beta) bits:
# "(a, b)", "(a, b')", "(a', b)", "(a', b')".
SETTING_PAIR_LABELS = {
    (alpha, beta): "(a" + "'" * alpha + ", b" + "'" * beta + ")"
    for alpha, beta in SETTING_PAIRS
}


@dataclass(frozen=True)
class DetectorAngles:
    """Analyzer angles in radians for the two settings of each station.

    The defaults are the standard CHSH-optimal choice: a = 0, a' = pi/2,
    b = pi/4, b' = -pi/4, for which the quantum prediction reaches
    S = 2 * sqrt(2).
    """

    a: float = 0.0
    a_prime: float = math.pi / 2
    b: float = math.pi / 4
    b_prime: float = -math.pi / 4

    def __post_init__(self):
        # cos of a NaN or infinite angle is NaN, and every trial would then
        # come out anticorrelated
        for name, value in self.to_dict().items():
            if not math.isfinite(value):
                raise ValueError(f"angle {name} must be finite, got {value}")

    def station_a(self, setting: int) -> float:
        """Angle used by station A for setting bit 0 (a) or 1 (a')."""
        if setting not in (0, 1):
            raise ValueError(f"setting must be 0 or 1, got {setting}")
        return self.a_prime if setting else self.a

    def station_b(self, setting: int) -> float:
        """Angle used by station B for setting bit 0 (b) or 1 (b')."""
        if setting not in (0, 1):
            raise ValueError(f"setting must be 0 or 1, got {setting}")
        return self.b_prime if setting else self.b

    def to_dict(self) -> dict:
        return {
            "a": self.a,
            "a_prime": self.a_prime,
            "b": self.b,
            "b_prime": self.b_prime,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DetectorAngles":
        return cls(
            a=float(data["a"]),
            a_prime=float(data["a_prime"]),
            b=float(data["b"]),
            b_prime=float(data["b_prime"]),
        )


def _decoded(shift: int, outcome: bool, doc: str) -> property:
    """A read-only column decoded from bit `shift` of each trial's pattern:
    the bit itself for a setting, 2 * bit - 1 for an outcome."""

    def column(self) -> np.ndarray:
        bits = (self.pattern >> shift) & 1
        values = 2 * bits - 1 if outcome else bits
        values.setflags(write=False)
        return values

    return property(column, doc=doc)


@dataclass(frozen=True, init=False, eq=False)
class EprDataset:
    """A sequence of trials plus the seed and angles that produced them.

    Each trial is stored as one read-only int64 index among the 16 visible
    patterns, 8 bytes per trial:

        pattern = 8 * alpha + 4 * beta + 2 * [x_alpha = +1] + [x_beta = +1]

    which is the row of exact.bit_patterns(4) that encode_dataset gives the
    trial. alpha, beta, x_alpha and x_beta are decoded from it on access as
    read-only int64 columns. seed is None for datasets not produced by
    generate_dataset (for example hand-written files).
    """

    pattern: np.ndarray
    seed: int | None
    angles: DetectorAngles

    def __init__(self, alpha, beta, x_alpha, x_beta, seed, angles):
        """Trials from four aligned columns: settings 0 or 1, outcomes +1 or -1."""
        cols = {}
        for name, values in zip(
            ("alpha", "beta", "x_alpha", "x_beta"), (alpha, beta, x_alpha, x_beta)
        ):
            raw = np.asarray(values)
            if raw.ndim != 1:
                raise ValueError(f"{name} must be a 1-d column, got {raw.shape}")
            # check integrality before the cast truncates fractions away;
            # integer and bool columns hold no fractions
            if raw.dtype.kind not in "biu" and not np.all(raw == np.floor(raw)):
                raise ValueError(f"{name} entries must be integers")
            cols[name] = raw.astype(np.int64)
        n = cols["alpha"].size
        if any(c.size != n for c in cols.values()):
            raise ValueError("trial columns must all have the same length")
        for name in ("alpha", "beta"):
            if not np.all((cols[name] == 0) | (cols[name] == 1)):
                raise ValueError(f"{name} entries must be 0 or 1")
        for name in ("x_alpha", "x_beta"):
            if not np.all((cols[name] == 1) | (cols[name] == -1)):
                raise ValueError(f"{name} entries must be +1 or -1")
        pattern = (
            8 * cols["alpha"]
            + 4 * cols["beta"]
            + 2 * (cols["x_alpha"] > 0)
            + (cols["x_beta"] > 0)
        )
        self._store(pattern, seed, angles)

    @classmethod
    def from_patterns(cls, pattern, seed, angles) -> "EprDataset":
        """Trials given directly as visible-pattern indices, integers in 0..15."""
        raw = np.asarray(pattern)
        if raw.ndim != 1:
            raise ValueError(f"pattern must be a 1-d column, got {raw.shape}")
        if raw.dtype.kind not in "biu" and not np.all(raw == np.floor(raw)):
            raise ValueError("pattern entries must be integers")
        if raw.size and not (raw.min() >= 0 and raw.max() < N_PATTERNS):
            raise ValueError(f"pattern entries must lie in 0..{N_PATTERNS - 1}")
        dataset = object.__new__(cls)
        # astype copies, so the caller's array stays writable and unshared
        dataset._store(raw.astype(np.int64), seed, angles)
        return dataset

    def _store(self, pattern: np.ndarray, seed, angles) -> None:
        pattern.setflags(write=False)
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "angles", angles)

    alpha = _decoded(3, False, "Station A's setting per trial, 0 (a) or 1 (a').")
    beta = _decoded(2, False, "Station B's setting per trial, 0 (b) or 1 (b').")
    x_alpha = _decoded(1, True, "Station A's outcome per trial, +1 or -1.")
    x_beta = _decoded(0, True, "Station B's outcome per trial, +1 or -1.")

    def __eq__(self, other) -> bool:
        """Same trials in the same order, same seed and same angles."""
        if not isinstance(other, EprDataset):
            return NotImplemented
        return (
            self.seed == other.seed
            and self.angles == other.angles
            and np.array_equal(self.pattern, other.pattern)
        )

    @property
    def n_trials(self) -> int:
        return self.pattern.size

    def __len__(self) -> int:
        return self.n_trials


class InsufficientDataError(ValueError):
    """Raised when a dataset lacks trials for one or more setting pairs."""

    def __init__(self, missing_pairs: list[tuple[int, int]]):
        self.missing_pairs = list(missing_pairs)
        labels = ", ".join(SETTING_PAIR_LABELS[p] for p in self.missing_pairs)
        super().__init__(f"no trials for setting pair(s) {labels}")


def generate_dataset(
    angles: DetectorAngles, n_trials: int, seed: int
) -> EprDataset:
    """Simulate n_trials runs with uniformly random settings.

    Per trial: alpha and beta are independent fair bits; the outcome at
    station A is a fair coin; the outcome at station B equals it with
    probability (1 - cos(theta_a - theta_b)) / 2, which reproduces the
    singlet joint law exactly. Draw order is fixed (alpha block, beta block,
    x_alpha block, agreement block), so a seed pins the dataset bit for bit.

    Args:
        angles: analyzer angles for the four settings.
        n_trials: number of runs, at least 1.
        seed: generator seed, recorded in the dataset.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be at least 1, got {n_trials}")
    rng = np.random.default_rng(seed)
    # the setting pair alpha, beta as 2 * alpha + beta, in SETTING_PAIRS order
    pattern = 2 * rng.integers(0, 2, size=n_trials)
    pattern += rng.integers(0, 2, size=n_trials)
    x_alpha_up = rng.integers(0, 2, size=n_trials)
    agree_u = rng.random(n_trials)

    # P(x_beta == x_alpha) = (1 + E[x_a x_b]) / 2 with E = -cos(delta), per
    # setting pair
    theta_a = np.array([[angles.station_a(0)], [angles.station_a(1)]])
    theta_b = np.array([angles.station_b(0), angles.station_b(1)])
    p_same = ((1.0 - np.cos(theta_a - theta_b)) / 2.0).ravel()
    same = agree_u < p_same.take(pattern)
    pattern <<= 2
    pattern += 2 * x_alpha_up
    # x_beta is +1 when it agrees with an x_alpha of +1 or differs from a -1
    pattern += same == x_alpha_up
    return EprDataset.from_patterns(pattern, seed=seed, angles=angles)


def empirical_correlations(dataset: EprDataset) -> CorrelationReport:
    """Correlation C = mean(x_alpha * x_beta) per setting pair, plus S.

    Raises:
        InsufficientDataError: if any of the four setting pairs has no
            trials; the error names the missing pairs.
    """
    # rows are the setting pairs, columns the outcome pairs v3v4 = 00..11
    counts = np.bincount(dataset.pattern, minlength=N_PATTERNS).reshape(4, 4)
    totals = counts.sum(axis=1)
    missing = [pair for pair, total in zip(SETTING_PAIRS, totals) if not total]
    if missing:
        raise InsufficientDataError(missing)
    values = counts.dot(OUTCOME_SIGNS) / totals
    return CorrelationReport.from_correlations(*values.tolist(), source="empirical")


def encode_dataset(dataset: EprDataset) -> np.ndarray:
    """All trials encoded as an (n_trials, 4) float matrix of visible vectors.

    v1 and v2 are the setting bits alpha and beta; v3 and v4 are the outcomes
    x_alpha and x_beta with +1 mapped to 1 and -1 mapped to 0.
    """
    return bit_patterns(N_VISIBLE).take(dataset.pattern, axis=0)


# The CSV line of each visible pattern, in the row order of bit_patterns(4).
_CSV_LINES = np.array(
    [
        f"{alpha},{beta},{2 * up_a - 1},{2 * up_b - 1}\n"
        for alpha, beta, up_a, up_b in itertools.product((0, 1), repeat=N_VISIBLE)
    ],
    dtype=object,
)


def sidecar_path(csv_path) -> str:
    """Path of the JSON metadata file that travels with a dataset CSV."""
    return f"{csv_path}.meta.json"


def save_dataset(dataset: EprDataset, path) -> None:
    """Write the trials as CSV plus a JSON sidecar with seed/size/angles/hash.

    CSV columns: alpha,beta,x_alpha,x_beta with values 0/1 and 1/-1, one row
    per trial. The sidecar records everything needed to regenerate or audit
    the file, and the CSV's SHA-256, which ties the pair together: the two
    files are replaced one after the other, so a run killed in between would
    otherwise leave new rows under an old sidecar.
    """
    text = "alpha,beta,x_alpha,x_beta\n" + "".join(_CSV_LINES.take(dataset.pattern))
    with atomic_write(path, newline="") as fh:
        fh.write(text)
    meta = {
        "seed": dataset.seed,
        "n_trials": dataset.n_trials,
        "angles": dataset.angles.to_dict(),
        "csv_sha256": hashlib.sha256(text.encode("ascii")).hexdigest(),
    }
    with atomic_write(sidecar_path(path)) as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def load_dataset(path) -> EprDataset:
    """Read a dataset CSV and its JSON sidecar back into an EprDataset.

    Raises:
        FileNotFoundError: if the CSV or its sidecar is missing.
        ValueError: on malformed rows or values, a non-finite angle in the
            sidecar, a row count that differs from the sidecar's n_trials,
            or a CSV whose SHA-256 is not the one the sidecar records (or a
            sidecar that records none).
    """
    with open(sidecar_path(path)) as fh:
        meta = json.load(fh)
    with open(path, "rb") as fh:
        data = fh.read()
    angles = DetectorAngles.from_dict(meta["angles"])
    seed = meta["seed"]
    if seed is not None:
        seed = int(seed)
    # loadtxt warns on a file with no rows, so a header-only file skips it
    if data.partition(b"\n")[2].strip(b"\r\n"):
        rows = np.loadtxt(
            io.BytesIO(data), dtype=np.int64, delimiter=",", skiprows=1, ndmin=2
        )
    else:
        rows = np.empty((0, 4), dtype=np.int64)
    if rows.size == 0:
        rows = rows.reshape(0, 4)
    if rows.shape[1] != 4:
        raise ValueError(
            f"dataset rows must have 4 columns alpha,beta,x_alpha,x_beta, "
            f"got {rows.shape[1]}"
        )
    if rows.shape[0] != meta["n_trials"]:
        raise ValueError(
            f"dataset has {rows.shape[0]} rows but its sidecar records "
            f"n_trials = {meta['n_trials']}; the file may be truncated"
        )
    if meta.get("csv_sha256") != hashlib.sha256(data).hexdigest():
        raise ValueError(
            f"dataset {path} does not match the SHA-256 recorded in its sidecar "
            f"{sidecar_path(path)} (or the sidecar records none); re-run "
            "`eprbm simulate` to write the pair again"
        )
    # the rows come from outside, so they take the column constructor's checks
    return EprDataset(*rows.T, seed=seed, angles=angles)
