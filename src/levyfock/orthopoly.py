"""Monic orthogonal polynomials of a finite atomic measure.

Recurrence coefficients are computed with the discretized Stieltjes
procedure: iterate the three-term recurrence on the atoms themselves and
read each coefficient off quadrature inner products.  Moment-determinant
formulas are deliberately avoided; they are catastrophically
ill-conditioned past degree eight or so in double precision.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import JumpMeasure

__all__ = ["RecurrenceTable", "stieltjes"]

# Ratio of consecutive squared norms at or below this (relative to the
# squared atom range) means the measure has effectively run out of support.
_DEGENERACY_RTOL = 1e-13


@dataclass(frozen=True)
class RecurrenceTable:
    """Three-term recurrence data of a family of monic orthogonal polynomials.

    ``p[n + 1](s) = (s - a[n]) p[n](s) - b[n] p[n - 1](s)`` with
    ``p[0] = 1`` and ``p[-1] = 0``.  Entry ``b[0]`` is a placeholder (zero);
    ``b[n]`` for ``n >= 1`` equals ``norm_sq[n] / norm_sq[n - 1]``, which
    chains to ``norm_sq[n] = norm_sq[0] * b[1] * ... * b[n]``.

    Attributes
    ----------
    a : tuple of float
        Diagonal coefficients, indices ``0 .. depth - 1``.
    b : tuple of float
        Off-diagonal coefficients, ``b[0] == 0`` unused, ``b[k] > 0`` for
        ``1 <= k <= depth - 1``.
    norm_sq : tuple of float
        Squared norms of the monic polynomials, indices ``0 .. depth - 1``.
    """

    a: tuple[float, ...]
    b: tuple[float, ...]
    norm_sq: tuple[float, ...]

    def __post_init__(self):
        a = tuple(float(v) for v in self.a)
        b = tuple(float(v) for v in self.b)
        ns = tuple(float(v) for v in self.norm_sq)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "norm_sq", ns)
        if not a:
            raise ValueError("recurrence table must have depth at least 1")
        if len(b) != len(a) or len(ns) != len(a):
            raise ValueError("a, b, norm_sq must share one length")
        if not all(math.isfinite(v) for v in a + b + ns):
            raise ValueError("recurrence coefficients must be finite")
        if b[0] != 0.0:
            raise ValueError("b[0] is a placeholder and must be zero")
        if any(v <= 0.0 for v in b[1:]):
            raise ValueError("off-diagonal coefficients must be positive")
        if any(v <= 0.0 for v in ns):
            raise ValueError("squared norms must be positive")

    @property
    def depth(self) -> int:
        return len(self.a)

    def with_scaled_b(self, k: int, factor: float) -> RecurrenceTable:
        """Copy with ``b[k]`` multiplied by ``factor`` and the norm chain rebuilt.

        Fault injection for negative controls: the result is internally
        consistent but belongs to no measure, so anything checked against
        independent moments must come out wrong.
        """
        if not 1 <= k < self.depth:
            raise ValueError(f"b index {k} out of range 1..{self.depth - 1}")
        if factor <= 0.0:
            raise ValueError("scale factor must be positive")
        b = list(self.b)
        b[k] *= factor
        norm_sq = [self.norm_sq[0]]
        for j in range(1, self.depth):
            norm_sq.append(norm_sq[-1] * b[j])
        return RecurrenceTable(self.a, tuple(b), tuple(norm_sq))


def stieltjes(measure: JumpMeasure, depth: int) -> RecurrenceTable:
    """Recurrence coefficients of the measure's monic orthogonal polynomials.

    A measure with ``m`` atoms carries exactly ``m`` orthogonal
    polynomials, so ``depth`` may not exceed the atom count.  A collapse of
    a squared-norm ratio to the round-off floor is reported as degeneracy
    rather than silently returned, and a polynomial whose values or squared
    norm overflow the doubles is refused by its degree, with no warning.

    Parameters
    ----------
    measure : JumpMeasure
        Orthogonality measure.
    depth : int
        Number of coefficient rows to produce (``a[0..depth-1]``,
        ``b[1..depth-1]``, ``norm_sq[0..depth-1]``).
    """
    if depth < 1:
        raise ValueError("table depth must be at least 1")
    if depth > measure.atom_count:
        raise ValueError(
            f"insufficient support: depth {depth} exceeds atom count {measure.atom_count}"
        )
    s = np.asarray(measure.locations, dtype=float)
    w = np.asarray(measure.weights, dtype=float)
    a: list[float] = []
    b: list[float] = [0.0]
    norm_sq: list[float] = []
    # an overflow past the doubles is refused below, naming its degree
    with np.errstate(over="ignore", invalid="ignore"):
        floor = _DEGENERACY_RTOL * float(np.max(s * s))
        p_prev = np.zeros_like(s)
        p_cur = np.ones_like(s)
        for n in range(depth):
            ns = float(np.dot(w, p_cur * p_cur))
            first = float(np.dot(w, s * p_cur * p_cur))
            if not (math.isfinite(ns) and math.isfinite(first)):
                raise ValueError(
                    f"values or squared norm of the degree-{n} orthogonal polynomial "
                    f"overflow the doubles; lower the depth to at most {n}"
                )
            if n > 0:
                ratio = ns / norm_sq[-1]
                if ratio <= floor:
                    raise ValueError(f"measure degenerate at depth {n}")
                b.append(ratio)
            norm_sq.append(ns)
            a.append(first / ns)
            p_prev, p_cur = p_cur, (s - a[n]) * p_cur - (b[n] if n > 0 else 0.0) * p_prev
    return RecurrenceTable(tuple(a), tuple(b), tuple(norm_sq))
