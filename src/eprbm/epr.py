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
from dataclasses import dataclass, fields

import numpy as np

from .atomic import atomic_write, write_json
from .bell import OUTCOME_SIGNS, CorrelationReport, theory_correlations
from .exact import SETTING_PAIR_LABELS, SETTING_PAIRS
from .rbm import _equal_fields, _read_only, bit_patterns

# Visible units per encoded trial: alpha, beta, x_alpha, x_beta (encode_dataset).
N_VISIBLE = 4
N_PATTERNS = 2**N_VISIBLE


def _fields(payload: dict, names: tuple[str, ...], what: str) -> list:
    """payload[name] for each of names; ValueError naming `what` and the
    first name that payload lacks."""
    for name in names:
        if name not in payload:
            raise ValueError(f"{what} {name} is missing")
    return [payload[name] for name in names]


def _is_int(value) -> bool:
    """True for Python integers other than bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """True for Python integers and floats other than bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """True for a number whose float is finite; an int too large for a float is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class DetectorAngles:
    """Analyzer angles in radians for the two settings of each station.

    Setting bit 0 selects a at station A and b at station B, bit 1 selects
    a' and b'. The defaults are the standard CHSH-optimal choice: a = 0,
    a' = pi/2, b = pi/4, b' = -pi/4, for which the quantum prediction
    reaches S = 2 * sqrt(2).
    """

    a: float = 0.0
    a_prime: float = math.pi / 2
    b: float = math.pi / 4
    b_prime: float = -math.pi / 4

    def __post_init__(self):
        # cos of a NaN or infinite angle is NaN, and every trial would then
        # come out anticorrelated; a bool or a string is no angle at all
        for name, value in self.to_dict().items():
            if not (_is_number(value) and _is_finite(value)):
                raise ValueError(f"angle {name} must be a finite number, got {value!r}")
            object.__setattr__(self, name, float(value))

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "DetectorAngles":
        """The angles to_dict gives, read back from a dict such as a JSON
        object; ValueError if one is missing, and the constructor rejects a
        value that is not a finite number."""
        return cls(*_fields(data, tuple(f.name for f in fields(cls)), "angle"))


@dataclass(frozen=True, eq=False)
class EprDataset:
    """A sequence of trials plus the seed and angles that produced them.

    Each trial is stored as one read-only int64 index among the 16 visible
    patterns, 8 bytes per trial:

        pattern = 8 * alpha + 4 * beta + 2 * [x_alpha = +1] + [x_beta = +1]

    which is the row of rbm.bit_patterns(4) that encode_dataset gives the
    trial. The constructor stores a read-only int64 copy of any 1-d sequence
    of integers in 0..15. seed is the int >= 0 that generate_dataset drew the
    trials with, or None for trials it did not draw.
    """

    pattern: np.ndarray
    seed: int | None
    angles: DetectorAngles
    __eq__ = _equal_fields

    def __post_init__(self):
        if self.seed is not None and not (_is_int(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be None or an int >= 0, got {self.seed!r}")
        raw = np.asarray(self.pattern)
        if raw.ndim != 1:
            raise ValueError(f"pattern must be a 1-d column, got {raw.shape}")
        # check integrality before the cast truncates fractions away;
        # integer and bool columns hold no fractions
        if raw.dtype.kind not in "biu" and not np.all(raw == np.floor(raw)):
            raise ValueError("pattern entries must be integers")
        if raw.size and not (raw.min() >= 0 and raw.max() < N_PATTERNS):
            raise ValueError(f"pattern entries must lie in 0..{N_PATTERNS - 1}")
        # astype copies, so the caller's array stays writable and unshared
        object.__setattr__(self, "pattern", _read_only(raw.astype(np.int64)))

    def __len__(self) -> int:
        return self.pattern.size


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
    probability (1 + C) / 2, C being bell.theory_correlations for the pair,
    which reproduces the singlet joint law exactly. Draw order is fixed
    (alpha block, beta block, x_alpha block, agreement block), so a seed
    pins the dataset bit for bit.

    Args:
        angles: analyzer angles for the four settings.
        n_trials: number of runs, at least 1.
        seed: generator seed, an int >= 0, recorded in the dataset.
    """
    if not (_is_int(seed) and seed >= 0):
        raise ValueError(f"seed must be an int >= 0, got {seed!r}")
    if n_trials < 1:
        raise ValueError(f"n_trials must be at least 1, got {n_trials}")
    rng = np.random.default_rng(seed)
    # the setting pair alpha, beta as 2 * alpha + beta, in SETTING_PAIRS order
    pattern = 2 * rng.integers(0, 2, size=n_trials)
    pattern += rng.integers(0, 2, size=n_trials)
    x_alpha_up = rng.integers(0, 2, size=n_trials)
    agree_u = rng.random(n_trials)

    # P(x_beta == x_alpha) = (1 + C) / 2 per setting pair
    p_same = (1.0 + np.array(theory_correlations(angles).correlations())) / 2.0
    same = agree_u < p_same.take(pattern)
    pattern <<= 2
    pattern += 2 * x_alpha_up
    # x_beta is +1 when it agrees with an x_alpha of +1 or differs from a -1
    pattern += same == x_alpha_up
    return EprDataset(pattern, seed, angles)


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
    return CorrelationReport(*values.tolist(), source="empirical")


def encode_dataset(dataset: EprDataset) -> np.ndarray:
    """All trials encoded as an (n_trials, 4) float matrix of visible vectors.

    v1 and v2 are the setting bits alpha and beta; v3 and v4 are the outcomes
    x_alpha and x_beta with +1 mapped to 1 and -1 mapped to 0.
    """
    return bit_patterns(N_VISIBLE).take(dataset.pattern, axis=0)


# The CSV line of each visible pattern, in the row order of bit_patterns(4).
_CSV_LINES = _read_only(
    np.array(
        [
            f"{alpha},{beta},{2 * up_a - 1},{2 * up_b - 1}\n"
            for alpha, beta, up_a, up_b in itertools.product((0, 1), repeat=N_VISIBLE)
        ],
        dtype=object,
    )
)
_CSV_HEADER = "alpha,beta,x_alpha,x_beta\n"
# The pattern index of each CSV line, keyed by the line's bytes as read back.
_PATTERN_OF_LINE = {line.encode("ascii"): i for i, line in enumerate(_CSV_LINES)}


def sidecar_path(csv_path) -> str:
    """Path of the JSON metadata file that travels with a dataset CSV."""
    return f"{csv_path}.meta.json"


def _read_json_object(path) -> dict:
    """The JSON object a file holds; ValueError naming the file if it holds
    something else."""
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"{path} must hold a JSON object")
    return payload


def save_dataset(dataset: EprDataset, path) -> None:
    """Write the trials as CSV plus a JSON sidecar with seed/size/angles/hash.

    CSV columns: alpha,beta,x_alpha,x_beta with values 0/1 and 1/-1, one row
    per trial. The sidecar records everything needed to regenerate or audit
    the file, and the CSV's SHA-256, which ties the pair together: the two
    files are replaced one after the other, so a run killed in between would
    otherwise leave new rows under an old sidecar.
    """
    text = _CSV_HEADER + "".join(_CSV_LINES.take(dataset.pattern))
    with atomic_write(path) as fh:
        fh.write(text)
    meta = {
        "seed": dataset.seed,
        "n_trials": len(dataset),
        "angles": dataset.angles.to_dict(),
        "csv_sha256": hashlib.sha256(text.encode("ascii")).hexdigest(),
    }
    write_json(sidecar_path(path), meta)


def load_dataset(path) -> EprDataset:
    """Read a dataset CSV and its JSON sidecar back into an EprDataset.

    The CSV must hold exactly the bytes save_dataset writes: the header,
    then per trial one of the 16 lines of _CSV_LINES, "\\n" included.

    Raises:
        FileNotFoundError: if the CSV or its sidecar is missing.
        ValueError: naming the file, on a sidecar or angles that are not a
            JSON object, a missing field or angle, a seed that is not null
            or an int >= 0, an n_trials that is not an int, or an angle that
            is not a finite number; on a wrong header or a line that is not
            a trial line (naming its 1-based number); on a row count other
            than n_trials; or on a CSV whose SHA-256 is not the one the
            sidecar records (or none).
    """
    meta_path = sidecar_path(path)
    meta = _read_json_object(meta_path)
    with open(path, "rb") as fh:
        data = fh.read()
    names = ("seed", "n_trials", "angles")
    seed, n_trials, angles = _fields(meta, names, f"{meta_path}: field")
    if not isinstance(angles, dict):
        raise ValueError(f"the angles in {meta_path} must be a JSON object")
    if not _is_int(n_trials):
        raise ValueError(f"{meta_path}: n_trials must be an int, got {n_trials!r}")
    lines = io.BytesIO(data)
    if lines.readline() != _CSV_HEADER.encode("ascii"):
        raise ValueError(f"{path}: line 1 must be the header {_CSV_HEADER!r}")
    # -1 marks a line that is not one of the 16
    pattern = np.fromiter(
        map(_PATTERN_OF_LINE.get, lines, itertools.repeat(-1)), dtype=np.int64
    )
    bad = np.flatnonzero(pattern < 0)
    if bad.size:
        raise ValueError(f"{path}: line {bad[0] + 2} is not a row like '0,1,-1,1\\n'")
    if pattern.size != n_trials:
        raise ValueError(
            f"dataset {path} has {pattern.size} rows but its sidecar records "
            f"n_trials = {n_trials}; the file may be truncated"
        )
    if meta.get("csv_sha256") != hashlib.sha256(data).hexdigest():
        raise ValueError(
            f"dataset {path} does not match the SHA-256 recorded in its sidecar "
            f"{meta_path} (or the sidecar records none); re-run "
            "`eprbm simulate` to write the pair again"
        )
    try:
        return EprDataset(pattern, seed, DetectorAngles.from_dict(angles))
    except ValueError as err:
        raise ValueError(f"{meta_path}: {err}") from None
