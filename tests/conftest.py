"""Shared fixtures and independent oracle helpers for the test suite."""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from levyfock import (
    CumulantModel,
    GridSpace,
    JumpMeasure,
    SymmetricTensor,
    TestFunction,
    gauss_laguerre_gamma,
    stieltjes,
)
from levyfock.moments import _monomials_up_to, _pairing_coefficients


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


def sym_tensor_product(phi: TestFunction, f: SymmetricTensor) -> SymmetricTensor:
    """Symmetrized tensor product of a test function with a symmetric tensor.

    Direct implementation of the definition, used as the oracle for the
    creation part on embedded symmetric tensors.  Sorted tuples are
    enumerated with ``itertools`` in the tensor's lexicographic value order,
    so no library basis is involved.
    """
    n = f.level
    points = range(f.grid.size)
    source = dict(zip(itertools.combinations_with_replacement(points, n), f.values))
    values = [
        math.fsum(
            phi[rep[j]] * float(source[rep[:j] + rep[j + 1 :]]) for j in range(n + 1)
        )
        / (n + 1)
        for rep in itertools.combinations_with_replacement(points, n + 1)
    ]
    return SymmetricTensor(f.grid, n + 1, np.array(values))


def wick_coefficients(f: SymmetricTensor, model: CumulantModel) -> dict:
    """Monomial coefficients of the Wick projection of the level-n pairing.

    Projects the raw pairing polynomial onto the complement of all lower
    degrees by an explicit Gram solve against joint moments.
    """
    coeffs = _pairing_coefficients(f)
    lower = _monomials_up_to(model.grid.size, f.level - 1) if f.level > 0 else []
    if not lower:
        return dict(coeffs)
    gram = np.array(
        [
            [model.joint_moment(tuple(x + y for x, y in zip(a, b))) for b in lower]
            for a in lower
        ]
    )
    rhs = np.array(
        [
            math.fsum(
                v * model.joint_moment(tuple(x + y for x, y in zip(a, e)))
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
    return math.fsum(v * model.joint_moment(e) for e, v in c.items())
