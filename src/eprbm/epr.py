"""Simulated EPR experiment: singlet-state trial generation, I/O, encoding.

Each trial measures an entangled pair at two stations. Station A uses one of
two analyzer angles (a or a'), station B one of (b or b'); the outcomes are
+1 or -1. The joint outcome law is the standard singlet prediction

    P(x_a, x_b | theta_a, theta_b) = (1 - x_a * x_b * cos(theta_a - theta_b)) / 4

which gives correlation E[x_a * x_b] = -cos(theta_a - theta_b) and uniform
marginals at both stations.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_write
from .bell import CorrelationReport

# Visible units per encoded trial: alpha, beta, x_alpha, x_beta (encode_trial).
N_VISIBLE = 4

# Human-readable names of the four setting pairs, by (alpha, beta) bits.
SETTING_PAIR_LABELS = {
    (0, 0): "(a, b)",
    (0, 1): "(a, b')",
    (1, 0): "(a', b)",
    (1, 1): "(a', b')",
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


@dataclass(frozen=True)
class EprTrial:
    """One run: setting indices (0 or 1) and outcomes (+1 or -1)."""

    alpha: int
    beta: int
    x_alpha: int
    x_beta: int

    def __post_init__(self):
        if self.alpha not in (0, 1) or self.beta not in (0, 1):
            raise ValueError(
                f"settings must be 0 or 1, got ({self.alpha}, {self.beta})"
            )
        if self.x_alpha not in (-1, 1) or self.x_beta not in (-1, 1):
            raise ValueError(
                f"outcomes must be +1 or -1, got ({self.x_alpha}, {self.x_beta})"
            )


@dataclass(frozen=True)
class EprDataset:
    """A sequence of trials plus the seed and angles that produced them.

    Trials are stored as four aligned integer columns; indexing recovers
    individual EprTrial values. seed is None for datasets not produced by
    generate_dataset (for example hand-written files).
    """

    alpha: np.ndarray
    beta: np.ndarray
    x_alpha: np.ndarray
    x_beta: np.ndarray
    seed: int | None
    angles: DetectorAngles

    def __post_init__(self):
        cols = {}
        for name in ("alpha", "beta", "x_alpha", "x_beta"):
            raw = np.asarray(getattr(self, name))
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
        for name, arr in cols.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_trials(self) -> int:
        return self.alpha.size

    def __len__(self) -> int:
        return self.n_trials

    def __getitem__(self, i: int) -> EprTrial:
        return EprTrial(
            alpha=int(self.alpha[i]),
            beta=int(self.beta[i]),
            x_alpha=int(self.x_alpha[i]),
            x_beta=int(self.x_beta[i]),
        )


class InsufficientDataError(ValueError):
    """Raised when a dataset lacks trials for one or more setting pairs."""

    def __init__(self, missing_pairs: list[tuple[int, int]]):
        self.missing_pairs = list(missing_pairs)
        labels = ", ".join(SETTING_PAIR_LABELS[p] for p in self.missing_pairs)
        super().__init__(f"no trials for setting pair(s) {labels}")


def singlet_joint_probability(
    theta_alpha: float, theta_beta: float, x_alpha: int, x_beta: int
) -> float:
    """Joint outcome probability of the singlet state at the given angles."""
    if x_alpha not in (-1, 1) or x_beta not in (-1, 1):
        raise ValueError(
            f"outcomes must be +1 or -1, got ({x_alpha}, {x_beta})"
        )
    return (1.0 - x_alpha * x_beta * math.cos(theta_alpha - theta_beta)) / 4.0


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
    alpha = rng.integers(0, 2, size=n_trials)
    beta = rng.integers(0, 2, size=n_trials)
    x_alpha = 2 * rng.integers(0, 2, size=n_trials) - 1
    agree_u = rng.random(n_trials)

    # P(x_beta == x_alpha) = (1 + E[x_a x_b]) / 2 with E = -cos(delta), as a
    # 2x2 table over the setting pair (alpha, beta)
    theta_a = np.array([[angles.station_a(0)], [angles.station_a(1)]])
    theta_b = np.array([angles.station_b(0), angles.station_b(1)])
    p_same = (1.0 - np.cos(theta_a - theta_b)) / 2.0
    same = agree_u < p_same[alpha, beta]
    x_beta = np.where(same, x_alpha, -x_alpha)
    return EprDataset(
        alpha=alpha,
        beta=beta,
        x_alpha=x_alpha,
        x_beta=x_beta,
        seed=seed,
        angles=angles,
    )


def empirical_correlations(dataset: EprDataset) -> CorrelationReport:
    """Correlation C = mean(x_alpha * x_beta) per setting pair, plus S.

    Raises:
        InsufficientDataError: if any of the four setting pairs has no
            trials; the error names the missing pairs.
    """
    products = dataset.x_alpha * dataset.x_beta
    values = {}
    missing = []
    for pair in ((0, 0), (0, 1), (1, 0), (1, 1)):
        mask = (dataset.alpha == pair[0]) & (dataset.beta == pair[1])
        if not mask.any():
            missing.append(pair)
        else:
            values[pair] = float(products[mask].mean())
    if missing:
        raise InsufficientDataError(missing)
    return CorrelationReport.from_correlations(
        c_ab=values[(0, 0)],
        c_ab_prime=values[(0, 1)],
        c_a_prime_b=values[(1, 0)],
        c_a_prime_b_prime=values[(1, 1)],
        source="empirical",
    )


def encode_trial(trial: EprTrial) -> np.ndarray:
    """Map a trial to the 4-unit visible vector.

    v1 = alpha setting bit, v2 = beta setting bit, v3 and v4 are the
    outcomes with +1 mapped to 1 and -1 mapped to 0.
    """
    return np.array(
        [trial.alpha, trial.beta, (trial.x_alpha + 1) // 2, (trial.x_beta + 1) // 2],
        dtype=np.int64,
    )


def decode_visible(visible) -> EprTrial:
    """Exact inverse of encode_trial."""
    v = np.asarray(visible)
    if v.shape != (4,):
        raise ValueError(f"visible vector must have shape (4,), got {v.shape}")
    bits = [int(b) for b in v]
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"visible entries must be 0 or 1, got {bits}")
    return EprTrial(
        alpha=bits[0],
        beta=bits[1],
        x_alpha=2 * bits[2] - 1,
        x_beta=2 * bits[3] - 1,
    )


def _visible_columns(dataset: EprDataset) -> list[np.ndarray]:
    """v1..v4 of every trial as integer columns, encoded as in encode_trial."""
    return [
        dataset.alpha,
        dataset.beta,
        (dataset.x_alpha + 1) // 2,
        (dataset.x_beta + 1) // 2,
    ]


def encode_dataset(dataset: EprDataset) -> np.ndarray:
    """All trials encoded as an (n_trials, 4) float matrix of visible vectors."""
    return np.column_stack(_visible_columns(dataset)).astype(np.float64)


def pattern_index(dataset: EprDataset) -> np.ndarray:
    """Index of each trial's visible vector among the 16 possible patterns.

    v1 is the most significant bit, the order of exact.bit_patterns(4), so
    entry i is the row of bit_patterns(4) equal to encode_dataset(dataset)[i].
    """
    index = np.zeros(dataset.n_trials, dtype=np.int64)
    for column in _visible_columns(dataset):
        index = 2 * index + column
    return index


def sidecar_path(csv_path) -> str:
    """Path of the JSON metadata file that travels with a dataset CSV."""
    return f"{csv_path}.meta.json"


def save_dataset(dataset: EprDataset, path) -> None:
    """Write the trials as CSV plus a JSON sidecar with seed/size/angles.

    CSV columns: alpha,beta,x_alpha,x_beta with values 0/1 and 1/-1, one row
    per trial. The sidecar records everything needed to regenerate or audit
    the file.
    """
    # a row is one of 16 lines, looked up by the trial's visible pattern
    every = list(itertools.product((0, 1), (0, 1), (-1, 1), (-1, 1)))
    lines = np.empty(len(every), dtype=object)
    table = EprDataset(*zip(*every), seed=None, angles=dataset.angles)
    lines[pattern_index(table)] = [
        f"{alpha},{beta},{x_alpha},{x_beta}\n" for alpha, beta, x_alpha, x_beta in every
    ]
    with atomic_write(path, newline="") as fh:
        fh.write("alpha,beta,x_alpha,x_beta\n")
        fh.write("".join(lines[pattern_index(dataset)]))
    meta = {
        "seed": dataset.seed,
        "n_trials": dataset.n_trials,
        "angles": dataset.angles.to_dict(),
    }
    with atomic_write(sidecar_path(path)) as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def load_dataset(path) -> EprDataset:
    """Read a dataset CSV and its JSON sidecar back into an EprDataset.

    Raises:
        FileNotFoundError: if the CSV or its sidecar is missing.
        ValueError: on malformed rows or values, or a row count that differs
            from the sidecar's n_trials.
    """
    with open(sidecar_path(path)) as fh:
        meta = json.load(fh)
    angles = DetectorAngles.from_dict(meta["angles"])
    seed = meta["seed"]
    if seed is not None:
        seed = int(seed)
    rows = np.loadtxt(path, dtype=np.int64, delimiter=",", skiprows=1, ndmin=2)
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
    return EprDataset(
        alpha=rows[:, 0],
        beta=rows[:, 1],
        x_alpha=rows[:, 2],
        x_beta=rows[:, 3],
        seed=seed,
        angles=angles,
    )
