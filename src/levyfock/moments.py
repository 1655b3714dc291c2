"""Independent ground truth: cumulants, moments, and the chaos oracle.

The discretized noise has one independent coordinate per grid point whose
cumulants of order two and above are the grid weight times the matching
jump-size moment (order one vanishes: the noise is centered).  Everything
here is derived from those cumulants alone -- no block structure, no
recurrence coefficients -- which is what makes the module usable as an
oracle for the rest of the system.

Because the coordinates are independent, the chaos part of a monomial
``x^e`` of degree n is the product of each coordinate's monic orthogonal
polynomial of degree ``e_i``, and these products are mutually orthogonal
(Nualart and Schoutens 2000).  The chaos oracle is therefore diagonal on
monomials; the squared polynomial norms of a coordinate are the pivots of
the LDL^T factorization of its Hankel moment matrix (Gautschi 2004,
section 2.1), taken in exact rational arithmetic, so no level loses digits
to a Gram solve.
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
# Refuse a level above this whatever the grid: the exact Hankel pivots of
# one grid point take 0.05 s at level 12, 0.8 s at level 20 and 1.4 s at
# level 22 (five atoms, one core), growing faster than n**5, and a check
# pays for every level up to its top one.
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
    of a noise coordinate, as exact fractions.

    The coordinate has cumulants ``sigma * levy[p - 2]`` for orders
    ``p = 2 .. 2 * degree``, taken exactly.  Its moments follow from the
    recursion of :func:`moments_from_cumulants`; the norms are the pivots of
    the LDL^T factorization of the Hankel matrix ``[m(i + j)]``, by plain
    Gaussian elimination.
    """
    from fractions import Fraction  # exact arithmetic, paid for by the oracle only

    kappa = [Fraction(0)] * 2 + [Fraction(sigma) * Fraction(c) for c in levy]
    moments = [Fraction(1)]
    for p in range(1, 2 * degree + 1):
        moments.append(
            sum(math.comb(p - 1, j - 1) * kappa[j] * moments[p - j] for j in range(1, p + 1))
        )
    hankel = [moments[i : i + degree + 1] for i in range(degree + 1)]
    for k, row in enumerate(hankel):
        for lower in hankel[k + 1 :]:
            factor = lower[k] / row[k]
            for j in range(k + 1, degree + 1):
                lower[j] -= factor * row[j]
    return [row[k] for k, row in enumerate(hankel)]


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
        ``level``-tuple, with ``e`` its exponent vector and ``h_i`` the
        squared orthogonal-polynomial norms of coordinate ``i``; each weight
        is formed exactly and rounded once."""
        if level not in self._weights:
            levy = [self.measure.levy_moment(p) for p in range(2, 2 * level + 1)]
            scaled = []  # h_i(k) / k!**2, one list per coordinate i
            for sigma in self.grid.weights:
                norms = _orthogonal_norms(sigma, levy, level)
                scaled.append([h / math.factorial(k) ** 2 for k, h in enumerate(norms)])
            top = math.factorial(level)
            self._weights[level] = np.array(
                [
                    float(top * math.prod(scaled[i][e] for i, e in enumerate(exps)))
                    for exps in _exponents(self.grid.size, level)
                ]
            )
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

    The pairing of the noise with ``f`` is a polynomial with one monomial
    ``x^e`` per sorted tuple (the order of ``f.values``), times the
    arrangement count ``n! / prod(e_i!)``.  Its chaos part replaces each
    monomial by the product of the coordinates' monic orthogonal
    polynomials of degrees ``e_i``; these products are orthogonal, so the
    expectation of the product of the two chaos parts, divided by the
    factorial of the level, is ``sum_e w_n(e) f_e g_e`` with
    ``w_n(e) = n! / prod(e_i!)**2 * prod h_i(e_i)``.  Nothing here touches
    the block-structured formulas, so the result is an independent check
    of them.
    """
    if f.level != level or g.level != level:
        raise ValueError("tensors must both live at the requested level")
    if f.grid != model.grid or g.grid != model.grid:
        raise ValueError("grid mismatch")
    model.check_level(level)
    return math.fsum(model._chaos_weights(level) * f.values * g.values)
