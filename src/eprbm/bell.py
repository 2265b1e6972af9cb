"""CHSH-Bell analysis: correlation coefficients from theory, data, or models.

A correlation coefficient C(theta_a, theta_b) = E[x_a * x_b] is computed for
each of the four detector setting pairs, and the CHSH statistic

    S = |C(a,b) + C(a,b') + C(a',b) - C(a',b')|

summarizes them. Local, measurement-independent hidden-variable models obey
S <= 2; the singlet state reaches 2 * sqrt(2) at the standard angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exact import ExactDistribution, SETTING_PAIRS, enumerate_distribution
from .rbm import RbmModel, advance_chains

VALID_SOURCES = ("theory", "empirical", "model-exact", "model-sampled")

# Tolerance for "in [-1, 1]" checks on floating-point correlation estimates.
_RANGE_EPS = 1e-9

QUANTITY_LABELS = ("C(a,b)", "C(a,b')", "C(a',b)", "C(a',b')")
_OUTCOME_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])  # (2*v3-1)*(2*v4-1), v3v4 = 00..11
_CSV_KEYS = ("c_ab", "c_ab_prime", "c_a_prime_b", "c_a_prime_b_prime", "s")


def chsh(
    c_ab: float, c_ab_prime: float, c_a_prime_b: float, c_a_prime_b_prime: float
) -> float:
    """CHSH statistic |C(a,b) + C(a,b') + C(a',b) - C(a',b')|."""
    values = (c_ab, c_ab_prime, c_a_prime_b, c_a_prime_b_prime)
    for label, value in zip(QUANTITY_LABELS, values):
        if not math.isfinite(value) or abs(value) > 1.0 + _RANGE_EPS:
            raise ValueError(f"{label} must lie in [-1, 1], got {value}")
    return abs(c_ab + c_ab_prime + c_a_prime_b - c_a_prime_b_prime)


@dataclass(frozen=True)
class CorrelationReport:
    """The four setting-pair correlations, their CHSH statistic, and origin.

    source identifies how the numbers were obtained: "theory" (singlet
    prediction), "empirical" (dataset average), "model-exact" (enumeration),
    or "model-sampled" (Gibbs sampling).
    """

    c_ab: float
    c_ab_prime: float
    c_a_prime_b: float
    c_a_prime_b_prime: float
    s: float
    source: str

    def __post_init__(self):
        expected_s = chsh(
            self.c_ab, self.c_ab_prime, self.c_a_prime_b, self.c_a_prime_b_prime
        )
        if not math.isclose(self.s, expected_s, rel_tol=0, abs_tol=1e-9):
            raise ValueError(
                f"s = {self.s} is inconsistent with the correlations "
                f"(expected {expected_s})"
            )
        if not 0.0 <= self.s <= 4.0:
            raise ValueError(f"s must lie in [0, 4], got {self.s}")
        if self.source not in VALID_SOURCES:
            raise ValueError(
                f"source must be one of {VALID_SOURCES}, got {self.source!r}"
            )

    @classmethod
    def from_correlations(
        cls,
        c_ab: float,
        c_ab_prime: float,
        c_a_prime_b: float,
        c_a_prime_b_prime: float,
        source: str,
    ) -> "CorrelationReport":
        """Build a report, deriving s from the four correlations."""
        # chsh's formula alone: __post_init__ runs chsh, range checks included
        s = abs(c_ab + c_ab_prime + c_a_prime_b - c_a_prime_b_prime)
        return cls(c_ab, c_ab_prime, c_a_prime_b, c_a_prime_b_prime, s, source)

    def correlations(self) -> tuple[float, float, float, float]:
        return (self.c_ab, self.c_ab_prime, self.c_a_prime_b, self.c_a_prime_b_prime)


def theory_correlations(angles) -> CorrelationReport:
    """Singlet-state predictions C(theta_a, theta_b) = -cos(theta_a - theta_b).

    angles is any object with attributes a, a_prime, b, b_prime in radians
    (DetectorAngles fits).
    """

    def c(theta_a: float, theta_b: float) -> float:
        return -math.cos(theta_a - theta_b)

    return CorrelationReport.from_correlations(
        c_ab=c(angles.a, angles.b),
        c_ab_prime=c(angles.a, angles.b_prime),
        c_a_prime_b=c(angles.a_prime, angles.b),
        c_a_prime_b_prime=c(angles.a_prime, angles.b_prime),
        source="theory",
    )


def correlations_from_distribution(
    dist: ExactDistribution, source: str = "model-exact"
) -> CorrelationReport:
    """Setting-pair correlations from an exact distribution's outcome tables.

    For each setting pair, C = sum over outcome bits of
    (2*v3 - 1) * (2*v4 - 1) * P(v3, v4 | v1, v2).
    """
    mass = dist._outcome_mass
    totals = mass.sum(axis=1)
    for pair, total in zip(SETTING_PAIRS, totals):
        if total <= 0:
            raise ValueError(f"settings {pair} have zero probability")
    values = (mass / totals[:, None] * _OUTCOME_SIGNS).sum(axis=1)
    return CorrelationReport.from_correlations(*values.tolist(), source=source)


def model_correlations_exact(model: RbmModel) -> CorrelationReport:
    """Exact conditional correlations of a model with the EPR visible layout."""
    return correlations_from_distribution(enumerate_distribution(model))


def model_correlations_sampled(
    model: RbmModel,
    n_samples: int,
    rng: np.random.Generator,
    burn_in: int = 30,
) -> CorrelationReport:
    """Correlations estimated from block-Gibbs samples of the model.

    Runs n_samples independent chains from uniform random visible states for
    burn_in sweeps and treats each final visible state as one trial. Slower
    and noisier than the exact route; used to cross-check the sampler.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    m = model.n_visible
    if m != 4:
        raise ValueError(f"EPR layout requires 4 visible units, got {m}")
    start = (rng.random((n_samples, m)) < 0.5).astype(np.float64)
    visible = advance_chains(model, start, rng, n_sweeps=burn_in)
    products = (2 * visible[:, 2] - 1) * (2 * visible[:, 3] - 1)
    values = []
    for s1, s2 in SETTING_PAIRS:
        mask = (visible[:, 0] == s1) & (visible[:, 1] == s2)
        if not mask.any():
            raise ValueError(f"no samples landed on setting pair ({s1}, {s2})")
        values.append(float(products[mask].mean()))
    return CorrelationReport.from_correlations(*values, source="model-sampled")


def _check_sources_distinct(reports) -> None:
    sources = [r.source for r in reports if r is not None]
    if len(set(sources)) != len(sources):
        raise ValueError(f"report sources must be distinct, got {sources}")


def comparison_table(
    theory: CorrelationReport,
    data: CorrelationReport | None,
    model: CorrelationReport,
) -> str:
    """Aligned text table with Theory/Data/Model columns and an S row.

    data may be None; its column then renders as an em dash. Values are
    shown at 3 decimals.
    """
    _check_sources_distinct((theory, data, model))

    def fmt(report, attr) -> str:
        if report is None:
            return "—"
        return f"{getattr(report, attr):.3f}"

    rows = [("quantity", "theory", "data", "model")]
    for label, key in zip(QUANTITY_LABELS + ("S",), _CSV_KEYS):
        rows.append((label, fmt(theory, key), fmt(data, key), fmt(model, key)))
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    lines = []
    for row in rows:
        cells = [row[0].ljust(widths[0])]
        cells += [row[i].rjust(widths[i]) for i in range(1, 4)]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) + "\n"


def comparison_csv(
    theory: CorrelationReport,
    data: CorrelationReport | None,
    model: CorrelationReport,
) -> str:
    """CSV twin of comparison_table: quantity,theory,data,model rows.

    Missing data cells are empty. Values are written at 3 decimals, so a
    parse-render cycle is stable at that precision.
    """
    _check_sources_distinct((theory, data, model))

    def fmt(report, attr) -> str:
        if report is None:
            return ""
        return f"{getattr(report, attr):.3f}"

    lines = ["quantity,theory,data,model"]
    for key in _CSV_KEYS:
        lines.append(f"{key},{fmt(theory, key)},{fmt(data, key)},{fmt(model, key)}")
    return "\n".join(lines) + "\n"


def parse_comparison_csv(text: str) -> dict:
    """Parse comparison_csv output back into {quantity: {column: float|None}}."""
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
