"""Jump measures, spatial grids, and test functions.

The jump-size structure of the noise enters through a finite positive
atomic measure on the punctured real line (already reweighted by the
square of the jump size); space enters through a finite quadrature
grid.  Everything downstream consumes these two objects only through
the moment functionals defined here.  For a finite atom set every
moment -- in fact every exponential moment -- is automatically finite,
so no integrability condition is checked at runtime.

All types here are immutable after construction and all operations are
pure, so unrestricted concurrent use is safe.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["JumpMeasure", "GridSpace", "TestFunction", "gauss_laguerre_gamma"]


@dataclass(frozen=True)
class JumpMeasure:
    """Finite atomic measure on the punctured real line.

    Atoms live at nonzero, pairwise distinct locations and carry strictly
    positive weights.  The measure is the orthogonality measure of the
    recurrence module; the moments of the underlying jump-size measure
    (the same measure divided by the square of the location) are exposed
    through :meth:`levy_moment`.

    Parameters
    ----------
    locations : tuple of float
        Atom positions, nonzero and pairwise distinct.
    weights : tuple of float
        Atom masses, strictly positive, one per location.
    """

    locations: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        locs = tuple(float(s) for s in self.locations)
        wts = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "locations", locs)
        object.__setattr__(self, "weights", wts)
        if not locs:
            raise ValueError("jump measure needs at least one atom")
        if not all(math.isfinite(v) for v in locs + wts):
            raise ValueError("atom locations and weights must be finite")
        if len(locs) != len(wts):
            raise ValueError("locations and weights differ in length")
        if any(s == 0.0 for s in locs):
            raise ValueError("atom locations must be nonzero")
        if len(set(locs)) != len(locs):
            raise ValueError("atom locations must be pairwise distinct")
        if any(w <= 0.0 for w in wts):
            raise ValueError("atom weights must be strictly positive")

    @property
    def atom_count(self) -> int:
        return len(self.locations)

    def moment(self, k: int) -> float:
        """Raw moment of order ``k``; order zero is the total mass."""
        if k < 0:
            raise ValueError("moment order must be nonnegative")
        return math.fsum(w * s**k for s, w in zip(self.locations, self.weights))

    def total_mass(self) -> float:
        return self.moment(0)

    def levy_moment(self, p: int) -> float:
        """Moment of order ``p`` of the underlying jump-size measure.

        Only orders two and above are defined: dividing out the squared
        jump size may make lower moments diverge, and nothing downstream
        needs them.
        """
        if p < 2:
            raise ValueError("jump-size moments are defined for order >= 2 only")
        return self.moment(p - 2)


@dataclass(frozen=True)
class GridSpace:
    """Finite quadrature grid standing in for the spatial base measure.

    Parameters
    ----------
    weights : tuple of float
        Strictly positive quadrature weight per point.
    """

    weights: tuple[float, ...]

    def __post_init__(self):
        wts = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "weights", wts)
        if not wts:
            raise ValueError("grid needs at least one point")
        if not all(math.isfinite(w) for w in wts):
            raise ValueError("grid weights must be finite")
        if any(w <= 0.0 for w in wts):
            raise ValueError("grid weights must be strictly positive")

    @property
    def size(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class TestFunction:
    """Real-valued function on a grid, one value per point."""

    __test__ = False  # distribution-theory naming; not a pytest class

    grid: GridSpace
    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) != self.grid.size:
            raise ValueError("test function length must equal grid size")
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("test function values must be finite")


def gauss_laguerre_gamma(order: int) -> JumpMeasure:
    """Gauss rule for the weight ``s * exp(-s)`` on the positive axis.

    Packaged as a :class:`JumpMeasure` with ``order`` atoms, the rule
    integrates polynomials up to degree ``2 * order - 1`` exactly; its raw
    moments are ``(k + 1)!`` and its total mass is one.  Nodes and weights
    come from the eigendecomposition of the symmetric tridiagonal matrix
    of the generalized-Laguerre recurrence with shape parameter one
    (diagonal ``2(k + 1)``, off-diagonal ``sqrt(k(k + 1))``): the nodes are
    the eigenvalues, the weights the squared first eigenvector components
    scaled by the total mass.
    """
    if order < 1:
        raise ValueError("quadrature order must be at least 1")
    diag = 2.0 * (np.arange(order) + 1.0)
    k = np.arange(1, order, dtype=float)
    off = np.sqrt(k * (k + 1.0))
    jacobi = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    nodes, vectors = np.linalg.eigh(jacobi)
    weights = vectors[0, :] ** 2
    zeros = int(np.count_nonzero(weights == 0.0))
    if zeros:
        raise ValueError(f"gamma rule of order {order}: {zeros} of its weights underflow to 0")
    return JumpMeasure(tuple(float(s) for s in nodes), tuple(float(w) for w in weights))
