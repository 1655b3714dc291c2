from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from levyfock import JumpMeasure, RecurrenceTable, gauss_laguerre_gamma, stieltjes

from conftest import random_measure


def exact_recurrence_from_moments(moments, depth):
    """Recurrence coefficients by exact-rational orthogonalization.

    Represents each monic polynomial by its coefficient vector and reads
    the recurrence off moment inner products.  Exact arithmetic makes the
    notorious ill-conditioning of the moment route irrelevant, so this is
    an independent oracle for the Stieltjes procedure.
    """
    moments = [Fraction(m) for m in moments]

    def inner(p, q):
        return sum(
            ci * cj * moments[i + j] for i, ci in enumerate(p) for j, cj in enumerate(q)
        )

    def shift(p):
        return [Fraction(0)] + list(p)

    a, b, norm_sq = [], [Fraction(0)], []
    p_prev, p_cur = [Fraction(0)], [Fraction(1)]
    for n in range(depth):
        ns = inner(p_cur, p_cur)
        if n > 0:
            b.append(ns / norm_sq[-1])
        norm_sq.append(ns)
        a.append(inner(shift(p_cur), p_cur) / ns)
        nxt = [0] * (n + 2)
        for i, c in enumerate(shift(p_cur)):
            nxt[i] += c
        for i, c in enumerate(p_cur):
            nxt[i] -= a[n] * c
        for i, c in enumerate(p_prev):
            nxt[i] -= b[n] * c if n > 0 else 0
        p_prev, p_cur = p_cur, nxt
    return a, b, norm_sq


def test_nu2_table(nu2):
    table = stieltjes(nu2, 2)
    assert table.a == pytest.approx((0.0, 0.0))
    assert table.b[1] == pytest.approx(1.0)
    assert table.norm_sq == pytest.approx((1.0, 1.0))


def test_nup_table(nup):
    table = stieltjes(nup, 1)
    assert table.a[0] == pytest.approx(1.0)
    assert table.norm_sq[0] == pytest.approx(1.0)


def test_gamma_table_against_exact_orthogonalization(gamma40):
    # The weight s * exp(-s) has moments (k + 1)!; the exact-rational
    # route must give a_n = 2(n + 1), b_n = n(n + 1) exactly, and the
    # quadrature-based Stieltjes run must match to tight tolerance.
    depth = 9
    moments = [Fraction(1)]
    for k in range(1, 2 * depth):
        moments.append(moments[-1] * (k + 1))
    a_exact, b_exact, _ = exact_recurrence_from_moments(moments, depth)
    for n in range(depth):
        assert a_exact[n] == Fraction(2 * (n + 1))
        if n > 0:
            assert b_exact[n] == Fraction(n * (n + 1))

    table = stieltjes(gamma40, depth)
    for n in range(depth):
        assert abs(table.a[n] - 2 * (n + 1)) <= 1e-8
        if n > 0:
            assert abs(table.b[n] - n * (n + 1)) <= 1e-8


def test_insufficient_support(nu2):
    with pytest.raises(ValueError, match="insufficient support"):
        stieltjes(nu2, 5)


def test_degenerate_measure_detected():
    nearly_equal = JumpMeasure((1.0, 1.0 + 1e-15), (0.5, 0.5))
    with pytest.raises(ValueError, match="degenerate at depth 1"):
        stieltjes(nearly_equal, 2)


def test_polynomial_overflow_refused_by_degree():
    # order 180 reaches degree 55: the degree-55 polynomial's first moment
    # leaves the doubles; refused by degree with one error, no RuntimeWarning
    measure = gauss_laguerre_gamma(180)
    with pytest.raises(ValueError) as info:
        stieltjes(measure, 60)
    assert str(info.value) == (
        "values or squared norm of the degree-55 orthogonal polynomial overflow the "
        "doubles; lower the depth to at most 55"
    )
    assert stieltjes(measure, 55).depth == 55


def test_far_atoms_overflow_not_reported_as_degeneracy():
    far = JumpMeasure((-1e200, 1e200, 3e200), (1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="^values or squared norm of the degree-1 "):
        stieltjes(far, 3)


def eval_monic(table: RecurrenceTable, n: int, s: float) -> float:
    """Value of the degree-``n`` monic polynomial via the forward recurrence;
    degrees up to the table depth are reachable."""
    if not 0 <= n <= table.depth:
        raise ValueError(f"degree {n} outside 0..{table.depth}")
    prev, cur = 0.0, 1.0
    for j in range(n):
        prev, cur = cur, (s - table.a[j]) * cur - table.b[j] * prev
    return cur


def test_eval_monic_constant(nu2):
    table = stieltjes(nu2, 2)
    assert eval_monic(table, 0, 17.3) == 1.0


def test_eval_monic_linear(nu2):
    table = stieltjes(nu2, 2)
    assert eval_monic(table, 1, 0.5) == pytest.approx(0.5)


def test_eval_monic_vanishes_on_support(nu2):
    # degree two reaches one past the stored rows and must vanish on the
    # two-atom support
    table = stieltjes(nu2, 2)
    assert eval_monic(table, 2, 1.0) == pytest.approx(0.0, abs=1e-14)
    assert eval_monic(table, 2, -1.0) == pytest.approx(0.0, abs=1e-14)


def test_eval_monic_rejects_beyond_depth(nu2):
    table = stieltjes(nu2, 2)
    with pytest.raises(ValueError):
        eval_monic(table, 3, 0.0)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_orthogonality_and_norms_random_measures(seed):
    rng = np.random.default_rng(seed)
    measure = random_measure(rng, 7)
    depth = 6
    table = stieltjes(measure, depth)
    s = np.asarray(measure.locations)
    w = np.asarray(measure.weights)
    values = np.array(
        [[eval_monic(table, n, x) for x in s] for n in range(depth)]
    )
    gram = values @ np.diag(w) @ values.T
    for i in range(depth):
        for j in range(depth):
            if i == j:
                # quadrature consistency
                assert gram[i, i] == pytest.approx(table.norm_sq[i], rel=1e-10)
            else:
                limit = 1e-10 * max(table.norm_sq[i], table.norm_sq[j])
                assert abs(gram[i, j]) <= limit
    for n in range(1, depth):
        assert table.norm_sq[n] / table.norm_sq[n - 1] == pytest.approx(
            table.b[n], rel=1e-12
        )


def test_norm_chain(gamma_table):
    chain = gamma_table.norm_sq[0]
    for n in range(1, gamma_table.depth):
        chain *= gamma_table.b[n]
        assert gamma_table.norm_sq[n] == pytest.approx(chain, rel=1e-12)


def test_fault_injection_rebuilds_chain(gamma_table):
    faulted = gamma_table.with_scaled_b(1, 1.1)
    assert faulted.b[1] == pytest.approx(1.1 * gamma_table.b[1])
    chain = faulted.norm_sq[0]
    for n in range(1, faulted.depth):
        chain *= faulted.b[n]
        assert faulted.norm_sq[n] == pytest.approx(chain, rel=1e-12)
    with pytest.raises(ValueError):
        gamma_table.with_scaled_b(0, 1.1)


@pytest.mark.parametrize("field", ["a", "b", "norm_sq"])
def test_table_rejects_non_finite(field):
    rows = {"a": [0.0, 1.0], "b": [0.0, 1.0], "norm_sq": [1.0, 1.0]}
    rows[field][1] = math.nan
    with pytest.raises(ValueError, match="finite"):
        RecurrenceTable(rows["a"], rows["b"], rows["norm_sq"])
