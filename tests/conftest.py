"""Shared fixtures and independent oracle helpers for the test suite.

The oracles enumerate tuples with ``itertools`` and import only public
``levyfock`` names: no library basis, rank or private helper.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from levyfock import (
    CumulantModel,
    ExtendedFockVector,
    FieldOperator,
    FockSpace,
    GridSpace,
    JumpMeasure,
    MultiIndex,
    SymmetricTensor,
    TestFunction,
    annihilation,
    gauss_laguerre_gamma,
    moments_from_cumulants,
    neutral,
    stieltjes,
)


@pytest.fixture(scope="session")
def nu2() -> JumpMeasure:
    """Two symmetric unit atoms with half weights; total mass one."""
    return JumpMeasure((-1.0, 1.0), (0.5, 0.5))


@pytest.fixture(scope="session")
def nup() -> JumpMeasure:
    """A single unit atom; the Poisson-type jump structure."""
    return JumpMeasure((1.0,), (1.0,))


@pytest.fixture(scope="session")
def g1() -> GridSpace:
    """One grid point of weight two."""
    return GridSpace((2.0,))


@pytest.fixture(scope="session")
def gamma40() -> JumpMeasure:
    return gauss_laguerre_gamma(40)


@pytest.fixture(scope="session")
def gamma_table(gamma40):
    return stieltjes(gamma40, 9)


def random_measure(rng: np.random.Generator, atoms: int) -> JumpMeasure:
    """Well-separated random atoms; avoids accidental degeneracy."""
    locations = np.linspace(-2.5, 2.5, atoms) + rng.uniform(-0.2, 0.2, atoms)
    locations[np.abs(locations) < 1e-2] += 0.51
    weights = rng.uniform(0.4, 1.6, atoms)
    return JumpMeasure(tuple(locations), tuple(weights))


def constant(grid: GridSpace, value: float = 1.0) -> TestFunction:
    """Test function with the same value at every grid point."""
    return TestFunction(grid, (float(value),) * grid.size)


def alpha_id(alpha: MultiIndex) -> str:
    """Test id of a block index: its multiplicities, ``-`` for the empty one."""
    return ",".join(map(str, alpha.multiplicities)) or "-"


def sorted_tuples(size: int, m: int) -> list[tuple[int, ...]]:
    """Sorted m-tuples of grid points ``0 .. size - 1``, lexicographically."""
    return list(itertools.combinations_with_replacement(range(size), m))


def symmetric_dim(level: int, grid: GridSpace) -> int:
    """Length of a level-n symmetric tensor's value array: its sorted tuples."""
    return len(sorted_tuples(grid.size, level))


def arrangements(segment) -> int:
    """Distinct rearrangements of a tuple."""
    count = math.factorial(len(segment))
    for c in Counter(segment).values():
        count //= math.factorial(c)
    return count


def segment_bounds(alpha: MultiIndex) -> list[tuple[int, int]]:
    """(start, stop) of each part size's coordinates in a block tuple."""
    stops = list(itertools.accumulate(alpha.multiplicities))
    return list(zip([0] + stops, stops))


def block_reps(alpha: MultiIndex, grid: GridSpace) -> list[tuple[int, ...]]:
    """A block's representatives in layout order: the ``itertools.product``
    of each part size's sorted tuples."""
    segments = [sorted_tuples(grid.size, m) for m in alpha.multiplicities]
    return [tuple(itertools.chain.from_iterable(c)) for c in itertools.product(*segments)]


@functools.cache
def _rep_index(alpha: MultiIndex, grid: GridSpace) -> dict[tuple[int, ...], int]:
    return {rep: i for i, rep in enumerate(block_reps(alpha, grid))}


def at(values, alpha: MultiIndex, grid: GridSpace, tpl) -> float:
    """Value of a block's representative array at an arbitrary tuple, each
    segment sorted first; ``KeyError`` for a foreign tuple."""
    if len(tpl) != alpha.size:
        raise KeyError(tpl)
    rep = tuple(itertools.chain.from_iterable(sorted(tpl[s:e]) for s, e in segment_bounds(alpha)))
    return float(values[_rep_index(alpha, grid)[rep]])


def sym_at(f: SymmetricTensor, tpl) -> float:
    """Value of a symmetric tensor at an arbitrary tuple."""
    return at(f.values, MultiIndex((f.level,)), f.grid, tpl)


def restriction(f: SymmetricTensor, alpha: MultiIndex) -> np.ndarray:
    """Block ``alpha`` of ``f`` embedded in a space just deep enough for it:
    unit atoms at ``1 .. max(level, 1)``, a table as deep as the level."""
    depth = max(f.level, 1)
    measure = JumpMeasure(tuple(float(s) for s in range(1, depth + 1)), (1.0,) * depth)
    space = FockSpace(f.grid, measure, stieltjes(measure, depth), f.level)
    return space.embed_symmetric(f)[f.level, alpha]


def symmetric_from(grid: GridSpace, level: int, fn) -> SymmetricTensor:
    """Symmetric tensor with value ``fn(rep)`` on every sorted tuple."""
    values = [float(fn(rep)) for rep in sorted_tuples(grid.size, level)]
    return SymmetricTensor(grid, level, np.array(values))


def sym_tensor_product(phi: TestFunction, f: SymmetricTensor) -> SymmetricTensor:
    """Symmetrized tensor product of a test function with a symmetric tensor,
    straight from the definition: the oracle for the creation part."""
    n = f.level
    values = [
        math.fsum(phi.values[rep[j]] * sym_at(f, rep[:j] + rep[j + 1 :]) for j in range(n + 1))
        / (n + 1)
        for rep in sorted_tuples(f.grid.size, n + 1)
    ]
    return SymmetricTensor(f.grid, n + 1, np.array(values))


def block_symmetrize(fn, alpha: MultiIndex, grid: GridSpace) -> np.ndarray:
    """Projection of a raw function of ``size(alpha)`` grid variables onto the
    block-symmetric functions: at every representative, the mean of ``fn``
    over all products of within-segment coordinate permutations."""
    bounds = segment_bounds(alpha)
    values = []
    for rep in block_reps(alpha, grid):
        segments = (itertools.permutations(rep[s:e]) for s, e in bounds)
        terms = [fn(tuple(itertools.chain.from_iterable(p))) for p in itertools.product(*segments)]
        values.append(sum(terms) / len(terms))
    return np.array(values)


def meixner_neutral(phi: TestFunction, f: SymmetricTensor, lam: float) -> SymmetricTensor:
    """Closed-form neutral part of a Meixner-class table on a symmetric
    tensor: ``lam`` times the sum of phi over the coordinates."""
    values = [
        lam * math.fsum(phi.values[p] for p in rep) * sym_at(f, rep)
        for rep in sorted_tuples(f.grid.size, f.level)
    ]
    return SymmetricTensor(f.grid, f.level, np.array(values))


def meixner_annihilation(
    phi: TestFunction, f: SymmetricTensor, kappa: float, mass: float
) -> SymmetricTensor:
    """Closed-form annihilation part of a Meixner-class table on a symmetric
    tensor: ``n * mass * sum_p w_p phi_p f(p, rest)`` plus the symmetrized
    diagonal term, ``kappa * n * sum_{x in rest} phi(x) f(x, rest)``."""
    n, grid = f.level, f.grid
    if n < 1:
        raise ValueError("annihilation needs level at least 1")
    values = []
    for rep in sorted_tuples(grid.size, n - 1):
        contraction = n * mass * math.fsum(
            grid.weights[p] * phi.values[p] * sym_at(f, (p,) + rep) for p in range(grid.size)
        )
        diagonal = kappa * n * math.fsum(phi.values[x] * sym_at(f, (x,) + rep) for x in rep)
        values.append(contraction + diagonal)
    return SymmetricTensor(grid, n - 1, np.array(values))


def _exponents(size: int, rep) -> tuple[int, ...]:
    counts = Counter(rep)
    return tuple(counts[i] for i in range(size))


def pairing_coefficients(f: SymmetricTensor) -> dict[tuple[int, ...], float]:
    """Monomial coefficients of the pairing of the noise with ``f``: one
    monomial per sorted tuple, times its arrangement count; zeros left out."""
    size = f.grid.size
    return {
        _exponents(size, rep): arrangements(rep) * float(value)
        for rep, value in zip(sorted_tuples(size, f.level), f.values)
        if value != 0.0
    }


@functools.cache
def _point_moments(measure: JumpMeasure, sigma: float, order: int) -> list[float]:
    """Raw moments ``1 .. order`` of a noise coordinate of grid weight ``sigma``."""
    kappa = [0.0] + [sigma * measure.levy_moment(p) for p in range(2, order + 1)]
    return moments_from_cumulants(kappa)


def joint_moment(model: CumulantModel, exponents) -> float:
    """Expectation of the product of coordinate powers: the coordinates are
    independent, so the product of the per-point raw moments."""
    value = 1.0
    for sigma, e in zip(model.grid.weights, exponents):
        if e:
            value *= _point_moments(model.measure, sigma, e)[e - 1]
    return value


def wick_coefficients(f: SymmetricTensor, model: CumulantModel) -> dict:
    """Monomial coefficients of the Wick projection of the level-n pairing.

    Projects the raw pairing polynomial onto the complement of all lower
    degrees by an explicit Gram solve against joint moments.
    """
    coeffs = pairing_coefficients(f)
    size = model.grid.size
    lower = [_exponents(size, rep) for d in range(f.level) for rep in sorted_tuples(size, d)]
    if not lower:
        return dict(coeffs)
    gram = np.array(
        [
            [joint_moment(model, tuple(x + y for x, y in zip(a, b))) for b in lower]
            for a in lower
        ]
    )
    rhs = np.array(
        [
            math.fsum(
                v * joint_moment(model, tuple(x + y for x, y in zip(a, e)))
                for e, v in coeffs.items()
            )
            for a in lower
        ]
    )
    solution = np.linalg.solve(gram, rhs)
    out = dict(coeffs)
    for a, c in zip(lower, solution):
        out[a] = out.get(a, 0.0) - c
    return out


def poly_product(ca: dict, cb: dict) -> dict:
    out: dict = {}
    for ea, va in ca.items():
        for eb, vb in cb.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0.0) + va * vb
    return out


def poly_expectation(c: dict, model: CumulantModel) -> float:
    return math.fsum(v * joint_moment(model, e) for e, v in c.items())


def hankel_pivots(sigma: float, levy, degree: int) -> list[Fraction]:
    """Squared norms ``h(0) .. h(degree)`` of the monic orthogonal polynomials
    of a coordinate with cumulants ``sigma * levy[p - 2]`` (``p >= 2``), in
    plain fractions: moments by the cumulant recursion, then Gaussian
    elimination of the Hankel matrix ``[m(i + j)]``, pivots read off its
    diagonal."""
    kappa = [Fraction(0)] * 2 + [Fraction(sigma) * Fraction(c) for c in levy]
    m = [Fraction(1)]
    for p in range(1, 2 * degree + 1):
        m.append(sum(math.comb(p - 1, j - 1) * kappa[j] * m[p - j] for j in range(1, p + 1)))
    a = [[m[i + j] for j in range(degree + 1)] for i in range(degree + 1)]
    for k in range(degree + 1):
        for i in range(k + 1, degree + 1):
            factor = a[i][k] / a[k][k]
            for j in range(k, degree + 1):
                a[i][j] -= factor * a[k][j]
    return [a[k][k] for k in range(degree + 1)]


def chaos_weights_exact(sigmas, levy, level: int) -> list[Fraction]:
    """Exact chaos weight ``n! / prod(e_i!)**2 * prod h_i(e_i)`` of each sorted
    ``level``-tuple of the points with grid weights ``sigmas``, from
    :func:`hankel_pivots`."""
    norms = [hankel_pivots(sigma, levy, level) for sigma in sigmas]
    weights = []
    for rep in sorted_tuples(len(sigmas), level):
        weight = Fraction(math.factorial(level))
        for h, e in zip(norms, _exponents(len(sigmas), rep)):
            weight *= h[e] / math.factorial(e) ** 2
        weights.append(weight)
    return weights


def _adjoint(space: FockSpace, d: np.ndarray, s: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Creation values of the annihilation entries ``m`` from ``s`` to ``d``,
    by the documented adjoint formula: ``(c * (m * w_d)) / w_s``, with ``c``
    the level-weight ratio and ``w`` the representative weights."""
    level, rep = space.flat_weights
    c = level[d] / level[s]
    return (c * (m * rep[d])) / rep[s]


def creation_part(phi: TestFunction, space: FockSpace):
    """``(rows, cols, vals)`` of the creation part: the annihilation
    builder's triplets transposed, valued by :func:`_adjoint`."""
    d, s, m = annihilation(phi, space)
    return s, d, _adjoint(space, d, s, m)


def neutral_part(phi: TestFunction, space: FockSpace):
    """``(rows, cols, vals)`` of the neutral part: the neutral builder's
    diagonal at flat positions ``1 .. dim - 1``."""
    positions = np.arange(1, space.dim)
    return positions, positions, neutral(phi, space)


def entries_apply(space: FockSpace, entries, v: ExtendedFockVector) -> ExtendedFockVector:
    """Image of ``v`` under the entries ``(rows, cols, vals)``: one
    ``np.bincount``, with no library operator."""
    rows, cols, vals = entries
    return ExtendedFockVector(space, np.bincount(rows, vals * v.values[cols], minlength=space.dim))


def operator_entries(op: FieldOperator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, cols, vals)`` of every entry of the full operator ``op``:
    creation, neutral, annihilation, in that order, exact zeros dropped;
    the creation entries by :func:`_adjoint`."""
    d, s, m = op.rows, op.cols, op.vals
    positions = np.arange(1, op.space.dim)
    parts = [(s, d, _adjoint(op.space, d, s, m)), (positions, positions, op.diag), (d, s, m)]
    rows, cols, vals = (np.concatenate(arrays) for arrays in zip(*parts))
    keep = vals != 0.0
    return rows[keep], cols[keep], vals[keep]


def operator_apply(op: FieldOperator, x: np.ndarray) -> np.ndarray:
    """The full operator ``op`` applied to ``x``: :func:`entries_apply` over
    the entries of all three parts, which sums each image entry in entry order."""
    return entries_apply(op.space, operator_entries(op), ExtendedFockVector(op.space, x)).values


def operator_export_entries(op: FieldOperator) -> list[str]:
    """Entry lines of the full operator's export: one global ``np.lexsort``
    by (source block, target block, source, target) over all entries."""
    space = op.space
    keys = space.block_keys()
    starts = np.array([space.block_slice(*key).start for key in keys])
    block = np.searchsorted(starts, np.arange(space.dim), side="right") - 1
    labels = [f"{n} {j}" for n in range(space.depth + 1) for j in range(len(space.blocks(n)))]
    rows, cols, vals = operator_entries(op)
    order = np.lexsort((rows, cols, block[rows], block[cols]))
    return [
        f"{labels[block[c]]} {c - starts[block[c]]} {labels[block[r]]} {r - starts[block[r]]} "
        f"{v:.17g}"
        for r, c, v in zip(rows[order].tolist(), cols[order].tolist(), vals[order].tolist())
    ]
