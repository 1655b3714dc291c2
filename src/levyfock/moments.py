"""Independent ground truth: cumulants, moments, and the chaos oracle.

The discretized noise has one independent coordinate per grid point whose
cumulants of order two and above are the grid weight times the matching
jump-size moment (order one vanishes: the noise is centered).  Everything
here is derived from those cumulants alone -- no block structure, no
recurrence coefficients -- which is what makes the module usable as an
oracle for the rest of the system.
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

# Monomial bases beyond this size make the oracle's Gram solves pointless.
_ORACLE_BASIS_LIMIT = 10_000
_ORACLE_COND_LIMIT = 1e12


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


class CumulantModel:
    """Cumulant description of the discretized noise field.

    Grid coordinates are independent; coordinate ``i`` has cumulants
    ``kappa[p] = sigma_i * levy_moment(p)`` for ``p >= 2`` and zero mean.
    Joint moments, the oracle's per-level Gram matrices and the moments of
    (lower monomial, pairing monomial) pairs that its Gram right-hand sides
    read are memoized per model instance (the oracle re-queries heavily
    overlapping exponent vectors); each cache is only ever grown, one
    atomic assignment per entry.
    """

    def __init__(self, measure: JumpMeasure, grid: GridSpace):
        self.measure = measure
        self.grid = grid
        self._point_moments: dict[tuple[int, int], list[float]] = {}
        self._joint: dict[tuple[int, ...], float] = {}
        self._pair: dict[tuple[tuple[int, ...], tuple[int, ...]], float] = {}
        self._lower: dict[int, tuple[list[tuple[int, ...]], np.ndarray, float]] = {}

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

    def point_moments(self, i: int, order: int) -> list[float]:
        """Raw moments ``1 .. order`` of the noise coordinate at point ``i``."""
        key = (i, order)
        if key not in self._point_moments:
            sigma = self.grid.weights[i]
            kappa = [0.0] + [
                sigma * self.measure.levy_moment(p) for p in range(2, order + 1)
            ]
            self._point_moments[key] = moments_from_cumulants(kappa) if order else []
        return self._point_moments[key]

    def joint_moment(self, exponents: Sequence[int]) -> float:
        """Expectation of the product of coordinate powers.

        Coordinates are independent, so this is the product of the
        per-point raw moments.
        """
        exps = tuple(int(e) for e in exponents)
        if len(exps) != self.grid.size:
            raise ValueError("need one exponent per grid point")
        if any(e < 0 for e in exps):
            raise ValueError("exponents must be nonnegative")
        if exps not in self._joint:
            value = 1.0
            for i, e in enumerate(exps):
                if e:
                    value *= self.point_moments(i, e)[e - 1]
            self._joint[exps] = value
        return self._joint[exps]

    def _pair_moment(self, ea: tuple[int, ...], eb: tuple[int, ...]) -> float:
        """Expectation of the product of the monomials with exponents ``ea`` and ``eb``."""
        key = (ea, eb)
        value = self._pair.get(key)
        if value is None:
            value = self.joint_moment(tuple(x + y for x, y in zip(ea, eb)))
            self._pair[key] = value
        return value

    def _lower_gram(self, level: int) -> tuple[list[tuple[int, ...]], np.ndarray, float]:
        """Monomials of degree below ``level``, their Gram matrix and its condition number.

        Built once per level; the Gram entries are read straight from
        :meth:`joint_moment`, since no other query reuses those pairs.
        """
        if level not in self._lower:
            lower = _monomials_up_to(self.grid.size, level - 1)
            gram = np.array(
                [
                    [self.joint_moment(tuple(x + y for x, y in zip(ea, eb))) for eb in lower]
                    for ea in lower
                ]
            )
            self._lower[level] = (lower, gram, float(np.linalg.cond(gram)))
        return self._lower[level]


def _exponents(size: int, degree: int) -> Iterator[tuple[int, ...]]:
    """Exponent vectors of the sorted ``degree``-tuples of grid points, in
    lexicographic tuple order."""
    for combo in itertools.combinations_with_replacement(range(size), degree):
        exps = [0] * size
        for i in combo:
            exps[i] += 1
        yield tuple(exps)


def _monomials_up_to(size: int, degree: int) -> list[tuple[int, ...]]:
    return [exps for d in range(degree + 1) for exps in _exponents(size, d)]


def _pairing_coefficients(f: SymmetricTensor) -> dict[tuple[int, ...], float]:
    """Monomial coefficients of the degree-n pairing of the noise with ``f``.

    Summing the tensor over all coordinate tuples groups into one monomial
    per sorted tuple (the order of ``f.values``), with the arrangement
    count ``n! / prod(e!)`` over its exponents as combinatorial factor.
    Monomials whose coefficient is zero are left out.
    """
    n = f.level
    return {
        exps: math.factorial(n) // math.prod(map(math.factorial, exps)) * value
        for exps, value in zip(_exponents(f.grid.size, n), f.values.tolist())
        if value != 0.0
    }


def chaos_inner_product(
    f: SymmetricTensor, g: SymmetricTensor, model: CumulantModel, level: int
) -> float:
    """Brute-force level-``level`` chaos inner product of two symmetric tensors.

    Expands each pairing as a polynomial in the noise coordinates,
    projects onto the orthogonal complement of all polynomials of lower
    degree via explicit Gram solves against joint moments, takes the
    expectation of the product, and divides by the factorial of the
    level.  Nothing here touches the block-structured formulas, so the
    result is an independent check of them.
    """
    if f.level != level or g.level != level:
        raise ValueError("tensors must both live at the requested level")
    if f.grid != model.grid or g.grid != model.grid:
        raise ValueError("grid mismatch")
    size = model.grid.size
    if math.comb(size + level, level) > _ORACLE_BASIS_LIMIT:
        raise ValueError("oracle scale exceeded: monomial basis too large")

    coeff_f = _pairing_coefficients(f)
    coeff_g = _pairing_coefficients(g)
    expectation = math.fsum(
        va * vb * model.joint_moment(tuple(x + y for x, y in zip(ea, eb)))
        for ea, va in coeff_f.items()
        for eb, vb in coeff_g.items()
    )
    if level > 0:
        lower, gram, cond = model._lower_gram(level)
        if not np.isfinite(cond) or cond > _ORACLE_COND_LIMIT:
            raise ValueError(
                f"chaos oracle gram matrix ill-conditioned (cond ~ {cond:.3e}); "
                "refusing to project"
            )

        def lower_moments(coeffs: dict) -> np.ndarray:
            return np.array(
                [
                    math.fsum(v * model._pair_moment(ea, e) for e, v in coeffs.items())
                    for ea in lower
                ]
            )

        projection = np.linalg.solve(gram, lower_moments(coeff_f))
        expectation -= float(np.dot(projection, lower_moments(coeff_g)))
    return expectation / math.factorial(level)
