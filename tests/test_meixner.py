from __future__ import annotations

import math

import numpy as np
import pytest

from levyfock import (
    FockSpace,
    GridSpace,
    JumpMeasure,
    RecurrenceTable,
    SymmetricTensor,
    TestFunction,
    annihilation,
    detect,
    stieltjes,
)
from levyfock.meixner import GAMMA_TYPE, MEIXNER_TYPE, PASCAL_TYPE

from conftest import (
    constant,
    entries_apply,
    meixner_annihilation,
    meixner_neutral,
    neutral_part,
    sym_at,
    symmetric_dim,
    symmetric_from,
)


def synthetic_table(a_of_n, b_of_n, depth):
    a = tuple(float(a_of_n(n)) for n in range(depth))
    b = (0.0,) + tuple(float(b_of_n(n)) for n in range(1, depth))
    norm_sq = [1.0]
    for n in range(1, depth):
        norm_sq.append(norm_sq[-1] * b[n])
    return RecurrenceTable(a, b, tuple(norm_sq))


def shifted_poisson_measure(count=8):
    """Truncated Poisson law moved off the origin by one.

    Produces the shifted Charlier recurrence (off-diagonal coefficients
    growing linearly, not quadratically), the canonical not-in-class
    example.  The shift is needed because atoms cannot sit at zero; it
    moves the diagonal coefficients only, which detection does not rely
    on once the off-diagonal pattern fails.
    """
    locations = tuple(float(j) for j in range(1, count + 1))
    weights = tuple(math.exp(-1.0) / math.factorial(j - 1) for j in range(1, count + 1))
    return JumpMeasure(locations, weights)


class TestDetect:
    def test_gamma_measure(self, gamma_table):
        params = detect(gamma_table, 1e-8)
        assert params is not None
        assert params.lam == pytest.approx(2.0, abs=1e-8)
        assert params.kappa == pytest.approx(1.0, abs=1e-8)
        assert params.classification == GAMMA_TYPE

    def test_meixner_pattern(self):
        table = synthetic_table(lambda n: n + 1, lambda n: n * (n + 1), 5)
        params = detect(table, 1e-10)
        assert params is not None
        assert (params.lam, params.kappa) == (1.0, 1.0)
        assert params.classification == MEIXNER_TYPE
        assert params.ratio < 1.0

    def test_pascal_pattern(self):
        table = synthetic_table(lambda n: 3 * (n + 1), lambda n: n * (n + 1), 5)
        params = detect(table, 1e-10)
        assert params is not None
        assert params.classification == PASCAL_TYPE
        assert params.ratio > 1.0

    def test_charlier_pattern_rejected(self):
        table = synthetic_table(lambda n: n + 1, lambda n: n, 5)
        assert detect(table, 1e-8) is None

    def test_charlier_from_quadrature_rejected(self):
        # the off-diagonal coefficients of the shifted Poisson law grow
        # like n, which cannot fit kappa * n * (n + 1)
        table = stieltjes(shifted_poisson_measure(), 4)
        assert table.b[1] == pytest.approx(1.0, abs=1e-2)
        assert table.b[2] == pytest.approx(2.0, abs=5e-2)
        assert detect(table, 1e-6) is None

    def test_depth_guard(self, nu2):
        with pytest.raises(ValueError, match="insufficient depth"):
            detect(stieltjes(nu2, 2), 1e-8)

    @pytest.mark.parametrize("scale", [0.5, 2.0])
    def test_scale_covariance(self, gamma40, scale):
        scaled = JumpMeasure(
            tuple(scale * s for s in gamma40.locations), gamma40.weights
        )
        params = detect(stieltjes(scaled, 9), 1e-6)
        assert params is not None
        assert params.lam == pytest.approx(scale * 2.0, rel=1e-8)
        assert params.kappa == pytest.approx(scale**2, rel=1e-8)
        assert params.ratio == pytest.approx(1.0, rel=1e-8)
        assert params.classification == GAMMA_TYPE


class TestClosedForms:
    """The closed-form oracles of ``conftest`` on hand-computed values."""

    def test_neutral_level_zero(self, g1):
        phi = constant(g1)
        f = symmetric_from(g1, 0, lambda r: 1.0)
        out = meixner_neutral(phi, f, 2.0)
        assert out.values == pytest.approx([0.0])

    def test_neutral_level_one(self):
        grid = GridSpace((0.8, 1.4))
        phi = TestFunction(grid, (0.9, -0.4))
        f = SymmetricTensor(grid, 1, np.array([2.0, -1.0]))
        out = meixner_neutral(phi, f, 1.5)
        for x in range(2):
            assert sym_at(out, (x,)) == pytest.approx(1.5 * phi.values[x] * sym_at(f, (x,)))

    def test_neutral_level_two_single_point(self, g1):
        phi = constant(g1)
        f = symmetric_from(g1, 2, lambda r: 3.0)
        out = meixner_neutral(phi, f, 2.0)
        assert sym_at(out, (0, 0)) == pytest.approx(2.0 * 2.0 * 3.0)

    def test_annihilation_level_one(self):
        grid = GridSpace((0.8, 1.4))
        phi = TestFunction(grid, (0.9, -0.4))
        f = SymmetricTensor(grid, 1, np.array([2.0, -1.0]))
        out = meixner_annihilation(phi, f, 1.0, mass=0.7)
        expected = 0.7 * math.fsum(
            grid.weights[i] * phi.values[i] * sym_at(f, (i,)) for i in range(2)
        )
        assert out.values == pytest.approx([expected])

    def test_annihilation_level_two_single_point(self, g1):
        phi = constant(g1)
        f = symmetric_from(g1, 2, lambda r: 3.0)
        out = meixner_annihilation(phi, f, 1.0, mass=1.0)
        sigma = g1.weights[0]
        expected = 2.0 * 1.0 * sigma * 1.0 * 3.0 + 2.0 * 1.0 * 1.0 * 3.0
        assert sym_at(out, (0,)) == pytest.approx(expected)

    def test_annihilation_linear_in_phi(self, g1):
        zero_phi = constant(g1, 0.0)
        f = symmetric_from(g1, 3, lambda r: 2.0)
        out = meixner_annihilation(zero_phi, f, 1.0, mass=1.0)
        assert np.all(out.values == 0.0)

    def test_annihilation_needs_positive_level(self, g1):
        f = symmetric_from(g1, 0, lambda r: 1.0)
        with pytest.raises(ValueError):
            meixner_annihilation(constant(g1), f, 1.0, mass=1.0)


@pytest.mark.parametrize("grid_weights", [(2.0,), (0.7, 1.3), (0.6, 1.1, 1.7)])
def test_closed_forms_match_general_assembler(gamma40, grid_weights):
    """The general block assembler restricted to the gamma table must
    reproduce the closed forms blockwise on embedded symmetric tensors."""
    grid = GridSpace(grid_weights)
    table = stieltjes(gamma40, 9)
    space = FockSpace(grid, gamma40, table, 5)
    phi = TestFunction(grid, tuple(0.8 - 0.5 * i for i in range(grid.size)))
    lam, kappa, mass = 2.0, 1.0, gamma40.total_mass()
    diagonal = neutral_part(phi, space)
    minus = annihilation(phi, space)
    rng = np.random.default_rng(17)
    for n in range(0, 5):
        f = SymmetricTensor(grid, n, rng.normal(0, 1, symmetric_dim(n, grid)))
        embedded = space.embed_symmetric(f)

        got = entries_apply(space, diagonal, embedded)
        want = space.embed_symmetric(meixner_neutral(phi, f, lam))
        scale = max(1.0, np.abs(want.values).max())
        for alpha in space.blocks(n):
            deviation = np.abs(got[n, alpha] - want[n, alpha]).max()
            assert deviation <= 1e-8 * scale

        if n >= 1:
            got = entries_apply(space, minus, embedded)
            want = space.embed_symmetric(meixner_annihilation(phi, f, kappa, mass))
            scale = max(1.0, np.abs(want.values).max())
            for alpha in space.blocks(n - 1):
                deviation = np.abs(got[n - 1, alpha] - want[n - 1, alpha]).max()
                assert deviation <= 1e-8 * scale
