from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from levyfock import FockSpace, GridSpace, JumpMeasure, TestFunction, gauss_laguerre_gamma
from levyfock.jacobi import export_lines, full
from levyfock.orthopoly import stieltjes

from conftest import constant


class TestJumpMeasure:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            JumpMeasure((), ())

    def test_rejects_zero_location(self):
        with pytest.raises(ValueError, match="nonzero"):
            JumpMeasure((0.0, 1.0), (1.0, 1.0))

    def test_rejects_duplicate_locations(self):
        with pytest.raises(ValueError, match="distinct"):
            JumpMeasure((1.0, 1.0), (0.5, 0.5))

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="positive"):
            JumpMeasure((1.0, 2.0), (1.0, 0.0))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            JumpMeasure((1.0, 2.0), (1.0,))

    def test_moment_examples(self, nu2, nup):
        assert nu2.moment(2) == pytest.approx(1.0)
        assert nu2.moment(3) == 0.0
        assert nup.moment(0) == pytest.approx(1.0)

    def test_levy_moment_examples(self, nu2, nup):
        assert nup.levy_moment(5) == pytest.approx(1.0)
        assert nu2.levy_moment(3) == 0.0
        assert nu2.levy_moment(4) == pytest.approx(1.0)

    def test_levy_moment_rejects_low_order(self, nu2):
        with pytest.raises(ValueError):
            nu2.levy_moment(1)

    def test_second_levy_moment_is_total_mass(self, nu2, nup):
        assert nu2.levy_moment(2) == nu2.moment(0)
        assert nup.levy_moment(2) == nup.moment(0)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=-20, max_value=20).filter(lambda k: k != 0),
                st.floats(min_value=0.05, max_value=10.0),
            ),
            min_size=1,
            max_size=8,
            unique_by=lambda t: t[0],
        )
    )
    def test_total_mass_positive(self, atoms):
        measure = JumpMeasure(
            tuple(float(k) / 4.0 for k, _ in atoms), tuple(w for _, w in atoms)
        )
        assert measure.moment(0) > 0.0


class TestGammaQuadrature:
    def test_single_point_rule(self):
        rule = gauss_laguerre_gamma(1)
        assert rule.locations == pytest.approx((2.0,))
        assert rule.weights == pytest.approx((1.0,))

    def test_total_mass(self):
        rule = gauss_laguerre_gamma(40)
        assert rule.moment(0) == pytest.approx(1.0, abs=1e-12)

    def test_moments_are_factorials(self):
        # exact integrals of s^k against s * exp(-s) are (k + 1)!
        rule = gauss_laguerre_gamma(40)
        for k in range(11):
            expected = float(math.factorial(k + 1))
            assert rule.moment(k) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("order", [2, 5, 9, 40, 73, 150])
    def test_exactness_degree(self, order):
        rule = gauss_laguerre_gamma(order)
        assert all(s < t for s, t in zip(rule.locations, rule.locations[1:]))
        assert rule.moment(0) == pytest.approx(1.0, abs=1e-13)
        # s**k and (k + 1)! leave the double range below degree 2 * order
        # from order 73 on, so the nodes are divided by c = 2**shift,
        # which changes no term's relative rounding: moment k of the scaled
        # rule is (k + 1)! / c**k
        shift = math.floor(math.log2(rule.locations[-1]))
        scaled = JumpMeasure(tuple(math.ldexp(s, -shift) for s in rule.locations), rule.weights)
        for k in range(2 * order):
            expected = math.factorial(k + 1) / 2 ** (shift * k)
            assert abs(scaled.moment(k) / expected - 1.0) <= 1e-13, k

    @pytest.mark.parametrize("order", [72, 73, 74, 75, 100, 180])
    def test_high_orders_build(self, order):
        assert gauss_laguerre_gamma(order).atom_count == order

    def test_underflowing_order_named(self):
        for order in (200, 300):
            with pytest.raises(ValueError, match=rf"order {order}: \d+ of its weights underflow to 0"):
                gauss_laguerre_gamma(order)

    def test_rejects_zero_order(self):
        with pytest.raises(ValueError):
            gauss_laguerre_gamma(0)


class TestGridAndTestFunction:
    def test_grid_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            GridSpace((1.0, 0.0))

    def test_grid_rejects_empty(self):
        with pytest.raises(ValueError):
            GridSpace(())

    def test_default_point_labels(self, nu2):
        # points are labelled by index, in the export header only
        grid = GridSpace((1.0, 2.0))
        op = full(constant(grid), FockSpace(grid, nu2, stieltjes(nu2, 2), 1))
        assert "# grid-points x0 x1" in export_lines(op).header
        assert grid.size == 2

    def test_function_length_must_match(self, g1):
        with pytest.raises(ValueError):
            TestFunction(g1, (1.0, 2.0))

    def test_constant(self, g1):
        phi = constant(g1, 3.0)
        assert phi.values[0] == 3.0


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "locations,weights",
        [((-1.0, math.inf), (0.5, 0.5)), ((-1.0, 1.0), (0.5, math.nan))],
    )
    def test_measure_rejects_non_finite(self, locations, weights):
        with pytest.raises(ValueError, match="finite"):
            JumpMeasure(locations, weights)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_grid_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="finite"):
            GridSpace((1.0, value))

    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_function_rejects_non_finite(self, g1, value):
        with pytest.raises(ValueError, match="finite"):
            TestFunction(g1, (value,))
