"""Independent ground truth: cumulants, moments, and the chaos oracle.

The discretized noise has one independent coordinate per grid point, whose
cumulants of order two and above are the grid weight times the jump-size
moment (the noise is centered).  Everything here derives from those
cumulants alone, with no block structure and no recurrence coefficients,
so the module can serve as an oracle for the rest of the system.

The chaos part of a monomial ``x^e`` is the product of each coordinate's
monic orthogonal polynomial of degree ``e_i``, and these products are
orthogonal (Nualart and Schoutens 2000), so the chaos oracle is diagonal
on monomials.  A coordinate's squared polynomial norms are the pivots of
its Hankel moment matrix (Gautschi 2004, section 2.1), taken exactly in
integer arithmetic (Bareiss 1968): no level loses digits to a Gram solve.
"""
from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .measures import GridSpace, JumpMeasure, TestFunction

if TYPE_CHECKING:
    from .fock import SymmetricTensor

__all__ = ["moments_from_cumulants", "CumulantModel", "chaos_inner_product"]

# Refuse a level whose monomials of degree up to the level exceed this
# count: the weight table and its exact arithmetic grow with it.
_ORACLE_BASIS_LIMIT = 10_000
# Refuse a level above this whatever the grid: one grid point's exact
# weights take 0.11 s at level 20 and 1.5 s at level 30 (five atoms, one
# core), and a check pays for every level up to its top one.
_ORACLE_LEVEL_LIMIT = 20


def moments_from_cumulants(cumulants: Sequence[float]) -> list[float]:
    """Raw moments of the distribution with the given cumulants.

    Input and output are both indexed from order one.  Uses the standard
    recursion ``m[p] = sum_j C(p - 1, j - 1) kappa[j] m[p - j]``.
    """
    if not cumulants:
        raise ValueError("need at least one cumulant")
    kappa = [0.0] + [float(c) for c in cumulants]
    moments = [1.0]
    for p in range(1, len(kappa)):
        moments.append(
            math.fsum(
                math.comb(p - 1, j - 1) * kappa[j] * moments[p - j]
                for j in range(1, p + 1)
            )
        )
    return moments[1:]


def _orthogonal_norms(sigma: float, levy: Sequence[float], degree: int) -> list:
    """Squared norms ``h(0) .. h(degree)`` of the monic orthogonal polynomials
    of a noise coordinate, as exact integer pairs ``(num, den)``.

    The cumulants ``sigma * levy[p - 2]`` are dyadic, so times ``2**(s * p)``
    (least such ``s``) they and the moments are integers.  Bareiss
    elimination of the Hankel matrix divides exactly and leaves its leading
    minors ``D(k)``: ``h(k) = D(k + 1) / (D(k) * 4**(s * k))``.
    """
    a, b = sigma.as_integer_ratio()
    dyadic = [(a * n, (b * d).bit_length() - 1) for n, d in map(float.as_integer_ratio, levy)]
    s = max([-(-t // p) for p, (_, t) in enumerate(dyadic, 2)], default=0)
    kappa = [0, 0] + [n << s * p - t for p, (n, t) in enumerate(dyadic, 2)]
    m = [1]
    for p in range(1, 2 * degree + 1):
        m.append(sum(math.comb(p - 1, j - 1) * kappa[j] * m[p - j] for j in range(2, p + 1)))
    rows = [m[i : i + degree + 1] for i in range(degree + 1)]
    norms, prev = [], 1
    for k, row in enumerate(rows):  # symmetric: update j >= i only
        norms.append((row[k], prev << 2 * s * k))
        for i in range(k + 1, degree + 1):
            rows[i][i:] = [(row[k] * x - row[i] * y) // prev for x, y in zip(rows[i][i:], row[i:])]
        prev = row[k]
    return norms


class CumulantModel:
    """Cumulant description of the discretized noise field.

    Grid coordinates are independent; coordinate ``i`` has cumulants
    ``kappa[p] = sigma_i * levy_moment(p)`` for ``p >= 2`` and zero mean.
    The chaos oracle's weights are memoized per level on the model
    instance; the memo is only ever grown, one atomic assignment per level.
    """

    def __init__(self, measure: JumpMeasure, grid: GridSpace):
        self.measure = measure
        self.grid = grid
        self._weights: dict[int, np.ndarray] = {}

    def cumulant(self, phi: TestFunction, p: int) -> float:
        """Cumulant of order ``p`` of the pairing of the noise with ``phi``."""
        if phi.grid != self.grid:
            raise ValueError("test function lives on a different grid")
        if p < 1:
            raise ValueError("cumulant order must be positive")
        if p == 1:
            return 0.0
        return self.measure.levy_moment(p) * math.fsum(
            w * v**p for w, v in zip(self.grid.weights, phi.values)
        )

    def check_level(self, level: int) -> None:
        """Refuse a level the chaos oracle cannot finish: one above
        ``_ORACLE_LEVEL_LIMIT``, or one whose monomials of degree up to it
        exceed ``_ORACLE_BASIS_LIMIT`` on this grid.  Both grow with the
        level, so checking the top level of a run covers every level."""
        if level > _ORACLE_LEVEL_LIMIT:
            raise ValueError(
                f"oracle level {level} exceeds the limit of {_ORACLE_LEVEL_LIMIT} "
                "for the exact orthogonal-polynomial norms"
            )
        if math.comb(self.grid.size + level, level) > _ORACLE_BASIS_LIMIT:
            raise ValueError("oracle scale exceeded: monomial basis too large")

    def _chaos_weights(self, level: int) -> np.ndarray:
        """Weight ``n! / prod(e_i!)**2 * prod h_i(e_i)`` of every sorted
        ``level``-tuple ``e`` (as exponents; ``h_i`` the norms of point
        ``i``): one integer division each, which must be a normal double."""
        if level not in self._weights:
            levy = [self.measure.levy_moment(p) for p in range(2, 2 * level + 1)]
            scaled = []  # h_i(k) / k!**2 as (num, den), a list per point i
            for sigma in self.grid.weights:
                norms = _orthogonal_norms(sigma, levy, level)
                scaled.append([(h, d * math.factorial(k) ** 2) for k, (h, d) in enumerate(norms)])
            top = math.factorial(level)
            weights = []
            for exps in _exponents(self.grid.size, level):
                num, den = map(math.prod, zip(*(scaled[i][e] for i, e in enumerate(exps))))
                try:
                    w = top * num / den
                except OverflowError:
                    w = math.inf
                if num and not 2.0**-1022 <= abs(w) < math.inf:
                    raise ValueError(f"oracle level {level}: a weight rounds to {w}, out of range")
                weights.append(w)
            self._weights[level] = np.array(weights)
        return self._weights[level]


def _exponents(size: int, degree: int) -> Iterator[tuple[int, ...]]:
    """Exponent vectors of the sorted ``degree``-tuples of grid points, in
    lexicographic tuple order."""
    for combo in itertools.combinations_with_replacement(range(size), degree):
        exps = [0] * size
        for i in combo:
            exps[i] += 1
        yield tuple(exps)


def chaos_inner_product(
    f: SymmetricTensor, g: SymmetricTensor, model: CumulantModel, level: int
) -> float:
    """Brute-force level-``level`` chaos inner product of two symmetric tensors.

    The pairing of the noise with ``f`` has one monomial ``x^e`` per sorted
    tuple (the order of ``f.values``), times ``n! / prod(e_i!)``.  Its chaos
    part replaces each monomial by the product of the points' monic
    orthogonal polynomials of degrees ``e_i``; these are orthogonal, so the
    two chaos parts pair, over ``n!``, to ``sum_e w_n(e) f_e g_e``
    (:meth:`CumulantModel._chaos_weights`).  No block formula is used.
    """
    if f.level != level or g.level != level:
        raise ValueError("tensors must both live at the requested level")
    if f.grid != model.grid or g.grid != model.grid:
        raise ValueError("grid mismatch")
    model.check_level(level)
    return math.fsum(model._chaos_weights(level) * f.values * g.values)
