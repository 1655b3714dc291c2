"""Meixner-class detection.

A recurrence table belongs to the Meixner class when its diagonal
coefficients grow affinely, ``a[n] = lam * (n + 1)``, and its
off-diagonal coefficients quadratically, ``b[n] = kappa * n * (n + 1)``.
The scale-invariant ratio ``lam**2 / (4 * kappa)`` separates the three
members: one for the gamma family, above one for Pascal, below one for
Meixner (with unit kappa this reduces to comparing ``|lam|`` with two).

For tables in the class, the neutral and annihilation parts of the field
operator preserve plainly symmetric tensors and admit closed forms; the
test suite keeps those forms as an independent oracle that the general
block assembler must agree with.
"""
from __future__ import annotations

from dataclasses import dataclass

from .orthopoly import RecurrenceTable

__all__ = [
    "MeixnerParameters",
    "GAMMA_TYPE",
    "PASCAL_TYPE",
    "MEIXNER_TYPE",
    "detect",
]

GAMMA_TYPE = "gamma-type"
PASCAL_TYPE = "pascal-type"
MEIXNER_TYPE = "meixner-type"


@dataclass(frozen=True)
class MeixnerParameters:
    """Fitted Meixner-class parameters and the pattern-fit residuals."""

    lam: float
    kappa: float
    classification: str
    residual_a: float
    residual_b: float

    @property
    def ratio(self) -> float:
        return self.lam**2 / (4.0 * self.kappa)


def detect(table: RecurrenceTable, tol: float = 1e-8) -> MeixnerParameters | None:
    """Fit the Meixner-class coefficient patterns to a recurrence table.

    ``lam`` is read off the first diagonal coefficient and ``kappa`` off
    half the first off-diagonal one; the remaining rows must then match
    ``lam * (n + 1)`` and ``kappa * n * (n + 1)`` within ``tol`` relative
    to the largest coefficient magnitude.  Returns None when either
    pattern fails.  At least three rows are required -- fewer could not
    distinguish the pattern from an arbitrary table.
    """
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    if table.depth < 3:
        raise ValueError("insufficient depth to detect pattern (need at least 3)")
    lam = table.a[0]
    kappa = table.b[1] / 2.0
    scale = max(
        1.0,
        max(abs(v) for v in table.a),
        max(table.b[1:]),
    )
    residual_a = max(
        abs(table.a[n] - lam * (n + 1)) for n in range(table.depth)
    )
    residual_b = max(
        abs(table.b[n] - kappa * n * (n + 1)) for n in range(1, table.depth)
    )
    if residual_a > tol * scale or residual_b > tol * scale:
        return None
    ratio = lam**2 / (4.0 * kappa)
    if abs(ratio - 1.0) <= tol:
        classification = GAMMA_TYPE
    elif ratio > 1.0:
        classification = PASCAL_TYPE
    else:
        classification = MEIXNER_TYPE
    return MeixnerParameters(lam, kappa, classification, residual_a, residual_b)

