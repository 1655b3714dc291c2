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


# First zeros of the Bessel function J_1 and of the Airy function Ai, signs
# dropped; the starting values of the gamma rule use their asymptotic series
# past these.
_BESSEL_J1_ZEROS = (
    3.8317059702075125, 7.015586669815619, 10.173468135062722,
    13.323691936314223, 16.470630050877634, 19.615858510468243,
)
_AIRY_AI_ZEROS = (
    2.338107410459767, 4.08794944413097, 5.520559828095551,
    6.786708090071759, 7.944133587120853, 9.02265085334098,
)
# Newton's method on a gamma-rule node stops once its step falls below this
# share of the node, or after this many passes (a cap the starting values'
# own Newton solve shares).  The rounding noise of the
# recurrence at the node nearest 0 grows with the order: 2e-13 of the node
# at order 187, the last that builds, and 8e-13 at order 300.  After a step
# of that size the first-order weight correction is accurate to rounding.
_NEWTON_RTOL = 2.0**-38
_NEWTON_PASSES = 8


def _gamma_start(order: int, k: int) -> float:
    """Starting value for the ``k``-th smallest node (``k >= 1``) of the
    gamma rule of ``order`` nodes, within about 1e-8 relative from order 40 on.

    With ``L`` the Laguerre polynomial of shape one and degree ``order``,
    ``u = x exp(-x / 2) L(x)`` solves ``u'' + (nu / (4x) - 1/4) u = 0`` with
    ``nu = 4 order + 4``.  Put ``x = nu sin(phi)^2``.  The Liouville--Green
    phase of that equation, to first order in ``1 / nu`` and matched to
    Bessel functions at 0, equals the ``k``-th zero of ``J_1`` at the ``k``-th
    node; matched to Airy functions at the turning point ``x = nu``, it equals
    ``(order + 1) pi`` less the Airy phase ``2/3 |a_j|^(3/2)`` of the ``j``-th
    zero of ``Ai`` at the ``j``-th node from the top.  The lower two thirds
    of the nodes use the first form, the rest the second; Newton's method on
    ``phi`` solves either.
    """
    nu = 4.0 * order + 4.0
    lower = 3 * k <= 2 * order
    if lower:
        if k <= len(_BESSEL_J1_ZEROS):
            phase = _BESSEL_J1_ZEROS[k - 1]
        else:  # McMahon's expansion for order 1 (mu = 4)
            beta = (k + 0.25) * math.pi
            e = 1.0 / (8.0 * beta)
            phase = beta - 3.0 * e + 12.0 * e**3 - 7545.6 * e**5
        phi = phase / nu
    else:
        j = order + 1 - k
        if j <= len(_AIRY_AI_ZEROS):
            a = _AIRY_AI_ZEROS[j - 1]
        else:
            t = 3.0 * math.pi * (4 * j - 1) / 8.0
            z = t**-2
            a = t ** (2.0 / 3.0) * (1.0 + z * (5.0 / 48.0 - z * (5.0 / 36.0 - z * 77125.0 / 82944.0)))
        phase = (order + 1) * math.pi - 2.0 / 3.0 * a**1.5
        phi = math.pi / 2 - (1.5 * (math.pi / 2 - 2.0 * phase / nu)) ** (1.0 / 3.0)
    for _ in range(_NEWTON_PASSES):
        sin, cos = math.sin(phi), math.cos(phi)
        tan = sin / cos
        leading = phi + sin * cos  # twice the phase per unit nu
        if lower:
            correction = (2.0 * tan + 5.0 / 3.0 * tan**3 - 3.0 * sin / (1.0 + cos)) / 8.0
            correction += 3.0 / 8.0 * (1.0 / sin - 2.0 / leading)
        else:
            correction = (2.0 * tan + 5.0 / 3.0 * tan**3 + 3.0 / tan) / 8.0
            correction -= 5.0 / (36.0 * (math.pi / 2 - leading))
        step = (nu * leading / 2.0 + correction / nu - phase) / (nu * cos * cos)
        phi -= step
        if abs(step) <= 1e-11 * phi:
            break
    return nu * math.sin(phi) ** 2


def gauss_laguerre_gamma(order: int) -> JumpMeasure:
    """Gauss rule for the weight ``s * exp(-s)`` on the positive axis.

    Packaged as a :class:`JumpMeasure` with ``order`` atoms, the rule
    integrates polynomials up to degree ``2 * order - 1`` exactly; its raw
    moments are ``(k + 1)!`` and its total mass is one.  Nodes and weights
    come from the recurrence the rule reproduces, the monic
    generalized-Laguerre recurrence with shape parameter one
    (``a_n = 2(n + 1)``, ``b_n = n(n + 1)``), run in orthonormal form
    ``q_k``.  Each node is a zero of ``q_order``, found by Newton's method
    from an asymptotic starting value; its weight is the Christoffel number
    ``1 / (q_0^2 + ... + q_(order-1)^2)`` at the node, which keeps full
    relative accuracy down to the smallest weight.  Every moment below
    degree ``2 * order`` then matches ``(k + 1)!`` to within 2e-14 relative.
    Orders up to 187 build; above that the smallest weights fall below the
    double range, and the rule is refused.
    """
    if order < 1:
        raise ValueError("quadrature order must be at least 1")
    # sqrt(b_(k+1)) q_(k+1) = (s - a_k) q_k - sqrt(b_k) q_(k-1), as
    # (a_k, sqrt(b_k), 1 / sqrt(b_(k+1)))
    steps = [
        (2.0 * (k + 1), math.sqrt(k * (k + 1.0)), 1.0 / math.sqrt((k + 1.0) * (k + 2.0)))
        for k in range(order)
    ]
    nodes, weights = [], []
    for k in range(1, order + 1):
        node = _gamma_start(order, k)
        for _ in range(_NEWTON_PASSES):
            q_prev = dq_prev = dq = total = slope = 0.0
            q = 1.0
            for a, c, r in steps:
                total += q * q  # the Christoffel sum
                slope += q * dq  # half its derivative
                t = node - a
                q_prev, q, dq_prev, dq = q, (t * q - c * q_prev) * r, dq, (t * dq + q - c * dq_prev) * r
            delta = q / dq
            node -= delta
            if abs(delta) <= _NEWTON_RTOL * node:
                break
        nodes.append(node)
        # the sum belongs to the node before its last step: move it along
        weights.append(1.0 / (total - 2.0 * delta * slope) if total < math.inf else 0.0)
    zeros = weights.count(0.0)
    if zeros:
        raise ValueError(f"gamma rule of order {order}: {zeros} of its weights underflow to 0")
    return JumpMeasure(tuple(nodes), tuple(weights))
