from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyfock import (
    CumulantModel,
    FockSpace,
    GridSpace,
    JumpMeasure,
    SymmetricTensor,
    TestFunction,
    chaos_inner_product,
    level_inner_product,
    moments_from_cumulants,
    stieltjes,
)
from levyfock import moments
from levyfock.moments import _orthogonal_norms

from conftest import (
    chaos_weights_exact,
    constant,
    hankel_pivots,
    joint_moment,
    pairing_coefficients,
    poly_expectation,
    poly_product,
    random_measure,
    symmetric_dim,
    symmetric_from,
    wick_coefficients,
)


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def moment_by_set_partitions(kappa, order):
    """Independent moment formula: sum over set partitions of products of
    block-size cumulants."""
    return math.fsum(
        math.prod(kappa[len(block) - 1] for block in part)
        for part in set_partitions(list(range(order)))
    )


class TestMomentsFromCumulants:
    def test_worked_example(self):
        assert moments_from_cumulants([0.0, 2.0, 0.0, 2.0]) == pytest.approx(
            [0.0, 2.0, 0.0, 14.0]
        )

    def test_gaussian_moments(self):
        moments = moments_from_cumulants([0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        expected = [0.0, 1.0, 0.0, 3.0, 0.0, 15.0]
        assert moments == pytest.approx(expected)

    def test_single_entry(self):
        assert moments_from_cumulants([0.0]) == [0.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            moments_from_cumulants([])

    @pytest.mark.parametrize(
        "kappa, order",
        [
            ([0.0, 1e200], 4),  # one term 3e400: inf
            ([0.0, 5e153, 0.0, 1.5e308], 4),  # finite terms whose sum overflows
            ([0.0, 1.0, math.inf], 3),
        ],
    )
    def test_moment_past_the_doubles_refused(self, kappa, order):
        kappa = kappa + [0.0] * (order - len(kappa))
        with pytest.raises(ValueError, match=f"moment of order {order} leaves the doubles"):
            moments_from_cumulants(kappa)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-3.0, max_value=3.0),
            min_size=1,
            max_size=6,
        )
    )
    def test_against_set_partition_formula(self, kappa):
        moments = moments_from_cumulants(kappa)
        for p in range(1, len(kappa) + 1):
            expected = moment_by_set_partitions(kappa, p)
            assert moments[p - 1] == pytest.approx(expected, rel=1e-12, abs=1e-9)


class TestCumulantModel:
    def test_poisson_type_cumulants_constant(self, nup, g1):
        model = CumulantModel(nup, g1)
        phi = constant(g1)
        for p in range(2, 7):
            assert model.cumulant(phi, p) == pytest.approx(2.0)

    def test_first_cumulant_vanishes(self, nu2, g1):
        model = CumulantModel(nu2, g1)
        phi = constant(g1)
        assert model.cumulant(phi, 1) == 0.0

    def test_symmetric_measure_cumulants(self, nu2, g1):
        model = CumulantModel(nu2, g1)
        phi = constant(g1)
        assert model.cumulant(phi, 2) == pytest.approx(2.0)
        assert model.cumulant(phi, 3) == 0.0
        assert model.cumulant(phi, 4) == pytest.approx(2.0)

    @pytest.mark.parametrize("value", [1e40, -3e38])
    def test_cumulant_past_the_doubles_refused(self, value):
        # 1e40**8 overflows the power; (-3e38)**8 times the levy moment 32.5 the product
        grid = GridSpace((1.0,))
        model = CumulantModel(JumpMeasure((-1.0, 0.5, 2.0), (0.5, 1.0, 0.5)), grid)
        phi = TestFunction(grid, (value,))
        assert math.isfinite(model.cumulant(phi, 7))
        with pytest.raises(ValueError, match="cumulant of order 8 leaves the doubles"):
            model.cumulant(phi, 8)

    def test_second_cumulant_nonnegative(self, g1):
        rng = np.random.default_rng(3)
        for _ in range(10):
            measure = random_measure(rng, 4)
            model = CumulantModel(measure, g1)
            phi = TestFunction(g1, tuple(rng.normal(0, 2, 1)))
            assert model.cumulant(phi, 2) >= 0.0

    def test_joint_moment_examples(self, nu2, g1):
        model = CumulantModel(nu2, g1)
        assert joint_moment(model, (0,)) == 1.0
        assert joint_moment(model, (2,)) == pytest.approx(2.0)
        assert joint_moment(model, (4,)) == pytest.approx(14.0)

    def test_joint_moment_factorizes(self, nu2):
        grid = GridSpace((2.0, 0.5))
        model = CumulantModel(nu2, grid)
        single_a = CumulantModel(nu2, GridSpace((2.0,)))
        single_b = CumulantModel(nu2, GridSpace((0.5,)))
        assert joint_moment(model, (2, 4)) == pytest.approx(
            joint_moment(single_a, (2,)) * joint_moment(single_b, (4,))
        )


class TestChaosOracle:
    def test_vacuum_level(self, nu2, g1):
        model = CumulantModel(nu2, g1)
        one = symmetric_from(g1, 0, lambda r: 1.0)
        assert chaos_inner_product(one, one, model, 0) == pytest.approx(1.0)

    def test_level_one(self, nu2, g1):
        model = CumulantModel(nu2, g1)
        f = symmetric_from(g1, 1, lambda r: 1.0)
        assert chaos_inner_product(f, f, model, 1) == pytest.approx(2.0)

    def test_level_two_wick_square(self, nu2, g1):
        # by hand: the Wick square is the square minus its mean, with
        # fourth moment fourteen the projected second moment is ten,
        # divided by two factorial
        model = CumulantModel(nu2, g1)
        f = symmetric_from(g1, 2, lambda r: 1.0)
        assert chaos_inner_product(f, f, model, 2) == pytest.approx(5.0)

    @pytest.mark.parametrize("measure_name", ["nu2", "nup"])
    def test_matches_block_formula(self, measure_name, request):
        # the reason this module exists: the brute-force projection must
        # reproduce the block-structured inner product
        measure = request.getfixturevalue(measure_name)
        grid = GridSpace((0.7, 1.3))
        table = stieltjes(measure, min(3, measure.atom_count))
        space = FockSpace(grid, measure, table, 3)
        model = CumulantModel(measure, grid)
        for n in range(4):
            dim = symmetric_dim(n, grid)
            embedded = [
                space.embed_symmetric(SymmetricTensor.basis_element(grid, n, i))
                for i in range(dim)
            ]
            for i in range(dim):
                for j in range(dim):
                    fi = SymmetricTensor.basis_element(grid, n, i)
                    fj = SymmetricTensor.basis_element(grid, n, j)
                    oracle = chaos_inner_product(fi, fj, model, n)
                    block = level_inner_product(embedded[i], embedded[j], n)
                    assert block == pytest.approx(oracle, rel=1e-8, abs=1e-10)

    def test_block_formula_agreement_has_a_sharp_boundary(self):
        """Characterizes where the continuum identity survives discretization.

        On an atomic grid the block formula equals the chaos oracle
        exactly through level two for any measure and through level three
        for symmetric measures; from the first level where a collision
        pattern interacts with the grid weights (three for asymmetric
        measures, four for symmetric ones) the two genuinely differ --
        confirmed by exact rational arithmetic, not a conditioning
        artifact.  Pinned here so an accidental change of either side
        surfaces.
        """
        grid = GridSpace((2.0,))
        asym = JumpMeasure((-2.0, 1.0, 3.0, -0.5), (0.5, 1.0 / 3.0, 0.2, 2.0 / 7.0))
        sym = JumpMeasure((-2.0, -1.0, 1.0, 2.0), (0.3, 0.7, 0.7, 0.3))

        def deviation(measure, n):
            table = stieltjes(measure, min(n, measure.atom_count))
            space = FockSpace(grid, measure, table, n)
            model = CumulantModel(measure, grid)
            f = SymmetricTensor.basis_element(grid, n, 0)
            block = level_inner_product(
                space.embed_symmetric(f), space.embed_symmetric(f), n
            )
            oracle = chaos_inner_product(f, f, model, n)
            return abs(block - oracle) / max(1.0, abs(oracle))

        assert deviation(asym, 2) <= 1e-12
        assert deviation(asym, 3) > 1e-3
        assert deviation(sym, 3) <= 1e-12
        assert deviation(sym, 4) > 1e-3

    def test_wick_monomials_orthogonal_to_lower_degrees(self, nu2):
        grid = GridSpace((0.7, 1.3))
        model = CumulantModel(nu2, grid)
        rng = np.random.default_rng(8)
        for n in (1, 2, 3):
            f = SymmetricTensor(grid, n, rng.normal(0, 1, symmetric_dim(n, grid)))
            wick = wick_coefficients(f, model)
            norm = poly_expectation(poly_product(wick, wick), model)
            for m in range(n):
                g = SymmetricTensor(
                    grid, m, rng.normal(0, 1, symmetric_dim(m, grid))
                )
                raw = pairing_coefficients(g)
                cross = poly_expectation(poly_product(wick, raw), model)
                lower_norm = poly_expectation(poly_product(raw, raw), model)
                assert abs(cross) <= 1e-9 * max(1.0, math.sqrt(norm * lower_norm))

    def test_scale_guard(self, nu2):
        grid = GridSpace(tuple([1.0] * 60))
        model = CumulantModel(nu2, grid)
        f = symmetric_from(grid, 3, lambda r: 0.0)
        with pytest.raises(ValueError, match="oracle scale exceeded"):
            chaos_inner_product(f, f, model, 3)

    def test_level_guard(self, nu2, g1):
        model = CumulantModel(nu2, g1)
        model.check_level(20)
        f = symmetric_from(g1, 21, lambda r: 1.0)
        with pytest.raises(ValueError, match="oracle level 21 exceeds the limit of 20"):
            chaos_inner_product(f, f, model, 21)

    def test_ill_conditioned_gram_aborts(self, nu2):
        # a nearly silent noise coordinate makes a monomial Gram matrix
        # numerically singular; the diagonal oracle has no Gram matrix and
        # answers exactly: the Wick square of x has squared norm
        # m4 - m2**2 - m3**2 / m2 = sigma + 2 sigma**2, over two factorial
        sigma = 1e-30
        model = CumulantModel(nu2, GridSpace((sigma,)))
        f = symmetric_from(model.grid, 2, lambda r: 1.0)
        for _ in range(2):  # the second call reads the level's memoized weights
            assert chaos_inner_product(f, f, model, 2) == pytest.approx(
                (sigma + 2 * sigma**2) / 2, rel=1e-15, abs=0
            )

    def test_charlier_norms_exact_at_every_level(self, nup):
        # one unit atom: the coordinate is a centered Poisson variable of mean
        # sigma, whose monic (Charlier) polynomials have squared norms
        # k! sigma**k, so the basis element's chaos norm is sigma**level
        sigma = 0.7
        model = CumulantModel(nup, GridSpace((sigma,)))
        for level in range(17):
            e = SymmetricTensor.basis_element(model.grid, level, 0)
            got = chaos_inner_product(e, e, model, level)
            assert got == pytest.approx(sigma**level, rel=2.2e-16, abs=0), level

    @pytest.mark.parametrize("degree", range(11))
    def test_norms_equal_plain_fraction_elimination(self, degree):
        # the integer pivots against Gaussian elimination in fractions, as
        # rationals: a nearly silent point, an ordinary one and one far from
        # unit scale, with a measure's cumulants and with random signed ones
        rng = np.random.default_rng(500 + degree)

        def dyadic(low, high, shift):
            return math.ldexp(rng.uniform(low, high), int(rng.integers(-shift, shift)))

        measure = random_measure(rng, 5)
        for levy in (
            [measure.levy_moment(p) for p in range(2, 2 * degree + 1)],
            [dyadic(-1.0, 1.0, 40) for _ in range(2 * degree - 1)],
        ):
            for sigma in (1e-30, dyadic(0.1, 3.0, 1), dyadic(0.5, 1.0, 80)):
                got = [Fraction(num, den) for num, den in _orthogonal_norms(sigma, levy, degree)]
                assert got == hankel_pivots(sigma, levy, degree), sigma

    def test_weights_are_the_exact_weights_rounded_once(self):
        # every weight up to level 6 on three points is float() of the exact
        # rational weight, bit for bit
        rng = np.random.default_rng(31)
        measure = random_measure(rng, 5)
        grid = GridSpace((1e-30, rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)))
        model = CumulantModel(measure, grid)
        for level in range(7):
            levy = [measure.levy_moment(p) for p in range(2, 2 * level + 1)]
            want = [float(w) for w in chaos_weights_exact(grid.weights, levy, level)]
            assert model._chaos_weights(level).tolist() == want, level

    def test_norms_eliminated_once_to_the_checked_level(self, monkeypatch):
        # after check_level(6) each point's Hankel elimination runs once, to
        # degree 6, and every lower level's weights keep the bits of the
        # exact weights rounded once
        rng = np.random.default_rng(37)
        measure = random_measure(rng, 5)
        grid = GridSpace((1e-30, rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)))
        degrees = []
        norms = moments._orthogonal_norms

        def recorded(sigma, levy, degree):
            degrees.append(degree)
            return norms(sigma, levy, degree)

        monkeypatch.setattr(moments, "_orthogonal_norms", recorded)
        model = CumulantModel(measure, grid)
        model.check_level(6)
        for level in range(7):
            levy = [measure.levy_moment(p) for p in range(2, 2 * level + 1)]
            want = [float(w).hex() for w in chaos_weights_exact(grid.weights, levy, level)]
            assert [w.hex() for w in model._chaos_weights(level).tolist()] == want, level
        assert degrees == [6, 6, 6]

    def test_models_on_one_grid_keep_their_own_moments(self, nu2, nup):
        # two measures on the same grid, queried alternately: each model must
        # return what a fresh model of its own measure returns, bit for bit,
        # and what the independent Wick projection gives (a cache shared
        # between models would corrupt the fresh model's answer as well)
        grid = GridSpace((0.7, 1.1, 1.3))
        models = [CumulantModel(nu2, grid), CumulantModel(nup, grid)]
        for n in range(3):
            dim = symmetric_dim(n, grid)
            tensors = [SymmetricTensor.basis_element(grid, n, i) for i in range(dim)]
            for i in range(dim):
                for j in range(i, dim):
                    for model in models:
                        fresh = CumulantModel(model.measure, grid)
                        got = chaos_inner_product(tensors[i], tensors[j], model, n)
                        assert got == chaos_inner_product(tensors[i], tensors[j], fresh, n)
                        wick = poly_product(
                            wick_coefficients(tensors[i], fresh),
                            wick_coefficients(tensors[j], fresh),
                        )
                        want = poly_expectation(wick, fresh) / math.factorial(n)
                        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)
