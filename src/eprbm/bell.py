"""CHSH-Bell analysis: correlation coefficients from theory, data, or models.

A correlation coefficient C(theta_a, theta_b) = E[x_a * x_b] is computed for
each of the four detector setting pairs, and the CHSH statistic

    S = |C(a,b) + C(a,b') + C(a',b) - C(a',b')|

summarizes them. Local, measurement-independent hidden-variable models obey
S <= 2; the singlet state reaches 2 * sqrt(2) at the standard angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .exact import SETTING_PAIR_LABELS, SETTING_PAIRS, ExactDistribution
from .exact import enumerate_distribution
from .rbm import RbmModel, _read_only

VALID_SOURCES = ("theory", "empirical", "model-exact")

# Tolerance for "in [-1, 1]" checks on floating-point correlation estimates.
_RANGE_EPS = 1e-9

# The printed label of each setting pair's correlation, in SETTING_PAIRS
# order: "C(a,b)" ... "C(a',b')".
QUANTITY_LABELS = tuple(
    "C" + name.replace(" ", "") for name in SETTING_PAIR_LABELS.values()
)
# (2*v3-1)*(2*v4-1), the outcome product x_alpha * x_beta, for v3v4 = 00..11
OUTCOME_SIGNS = _read_only(np.array([1.0, -1.0, -1.0, 1.0]))


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

    s is derived from the four correlations by chsh, which also checks that
    each lies in [-1, 1]. source identifies how the numbers were obtained:
    "theory" (singlet prediction), "empirical" (dataset average) or
    "model-exact" (enumeration).
    """

    c_ab: float
    c_ab_prime: float
    c_a_prime_b: float
    c_a_prime_b_prime: float
    s: float = field(init=False)
    source: str

    def __post_init__(self):
        object.__setattr__(self, "s", chsh(*self.correlations()))
        if self.source not in VALID_SOURCES:
            raise ValueError(
                f"source must be one of {VALID_SOURCES}, got {self.source!r}"
            )

    def correlations(self) -> tuple[float, float, float, float]:
        return (self.c_ab, self.c_ab_prime, self.c_a_prime_b, self.c_a_prime_b_prime)


# The CSV keys c_ab ... c_a_prime_b_prime and s: the CorrelationReport fields.
_CSV_KEYS = tuple(f.name for f in fields(CorrelationReport) if f.name != "source")


def theory_correlations(angles) -> CorrelationReport:
    """Singlet-state predictions C(theta_a, theta_b) = -cos(theta_a - theta_b).

    angles is any object with attributes a, a_prime, b, b_prime in radians
    (DetectorAngles fits). Setting bit 0 selects a (or b), bit 1 selects a'
    (or b'), and the pairs come in SETTING_PAIRS order.
    """
    theta_a, theta_b = (angles.a, angles.a_prime), (angles.b, angles.b_prime)
    values = (-math.cos(theta_a[x] - theta_b[y]) for x, y in SETTING_PAIRS)
    return CorrelationReport(*values, source="theory")


def correlations_from_distribution(dist: ExactDistribution) -> CorrelationReport:
    """Setting-pair correlations from an exact distribution's outcome tables.

    For each setting pair, C = sum over outcome bits of
    (2*v3 - 1) * (2*v4 - 1) * P(v3, v4 | v1, v2).
    """
    mass = dist._epr_view.sum(axis=2)  # P(v) as (setting pair, v3v4)
    totals = mass.sum(axis=1)
    for pair, total in zip(SETTING_PAIRS, totals):
        if total <= 0:
            raise ValueError(f"settings {pair} have zero probability")
    values = (mass / totals[:, None] * OUTCOME_SIGNS).sum(axis=1)
    return CorrelationReport(*values.tolist(), source="model-exact")


def model_correlations_exact(model: RbmModel) -> CorrelationReport:
    """Exact conditional correlations of a model with the EPR visible layout,
    warning-free: chsh refuses a non-finite one, so numpy's warnings add nothing."""
    with np.errstate(all="ignore"):
        return correlations_from_distribution(enumerate_distribution(model))


def comparison_table(
    theory: CorrelationReport,
    data: CorrelationReport | None,
    model: CorrelationReport,
    *,
    csv: bool = False,
) -> str:
    """Theory/data/model columns for each correlation and S, at 3 decimals.

    As text, the columns are aligned, the rows are labelled C(a,b) ... S and
    a missing data column (data None) renders as an em dash. With csv=True
    the rows are quantity,theory,data,model with quantities c_ab ... s and
    missing data cells are empty.
    """
    reports = (theory, data, model)
    sources = [r.source for r in reports if r is not None]
    if len(set(sources)) != len(sources):
        raise ValueError(f"report sources must be distinct, got {sources}")
    labels = _CSV_KEYS if csv else QUANTITY_LABELS + ("S",)
    missing = "" if csv else "—"
    rows = [("quantity", "theory", "data", "model")]
    for label, key in zip(labels, _CSV_KEYS):
        cells = [missing if r is None else f"{getattr(r, key):.3f}" for r in reports]
        rows.append((label, *cells))
    if csv:
        return "".join(",".join(row) + "\n" for row in rows)
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    lines = []
    for row in rows:
        cells = [row[0].ljust(widths[0])]
        cells += [row[i].rjust(widths[i]) for i in range(1, 4)]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) + "\n"
