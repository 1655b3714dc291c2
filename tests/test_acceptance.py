"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single ``ACCEPTANCE <n> ... PASS`` line on success
(visible with ``pytest -s`` or in verbose failure reports); the test
names carry the criterion numbers so a plain ``pytest -v`` run shows one
pass/fail line per criterion as well.
"""
from __future__ import annotations

import time

import numpy as np
import pytest

from levyfock import (
    CumulantModel,
    FockSpace,
    GridSpace,
    JumpMeasure,
    MultiIndex,
    SymmetricTensor,
    TestFunction,
    adjoint_defect,
    annihilation,
    block_weight,
    creation,
    gauss_laguerre_gamma,
    level_inner_product,
    moments_from_cumulants,
    neutral,
    partitions,
    stieltjes,
    symmetry_defect,
    vacuum_moments,
)
from levyfock.moments import chaos_inner_product

from conftest import (
    constant,
    entries_apply,
    meixner_annihilation,
    meixner_neutral,
    neutral_part,
    random_measure,
    symmetric_dim,
)

NU2 = JumpMeasure((-1.0, 1.0), (0.5, 0.5))
NUP = JumpMeasure((1.0,), (1.0,))


def _moment_comparison(measure, grid, phi, depth, k_max):
    table = stieltjes(measure, min(depth, measure.atom_count))
    space = FockSpace(grid, measure, table, depth)
    operator_side = vacuum_moments(phi, space, k_max)
    model = CumulantModel(measure, grid)
    oracle_side = [1.0] + moments_from_cumulants(
        [model.cumulant(phi, p) for p in range(1, k_max + 1)]
    )
    errors = [
        abs(a - b) / max(1.0, abs(b)) for a, b in zip(operator_side, oracle_side)
    ]
    return operator_side, oracle_side, errors


def test_criterion_1_moment_identity():
    """Vacuum moments of the assembled field equal cumulant-oracle moments."""
    start = time.perf_counter()
    g1 = GridSpace((2.0,))
    phi = constant(g1)
    operator_side, oracle_side, errors = _moment_comparison(NU2, g1, phi, 6, 6)
    assert operator_side[2] == pytest.approx(2.0, rel=1e-8)
    assert operator_side[4] == pytest.approx(14.0, rel=1e-8)
    assert oracle_side[2] == pytest.approx(2.0, rel=1e-12)
    assert oracle_side[4] == pytest.approx(14.0, rel=1e-12)
    assert max(errors) <= 1e-8
    single_point_elapsed = time.perf_counter() - start
    assert single_point_elapsed < 1.0

    start = time.perf_counter()
    for seed in range(5):
        rng = np.random.default_rng(seed)
        grid = GridSpace(tuple(rng.uniform(0.3, 2.5, 3)))
        phi = TestFunction(grid, tuple(rng.normal(0.0, 1.0, 3)))
        _, _, errors = _moment_comparison(NU2, grid, phi, 6, 6)
        assert max(errors) <= 1e-8
    multi_point_elapsed = time.perf_counter() - start
    assert multi_point_elapsed < 30.0
    print(
        f"\nACCEPTANCE 1 moment identity: PASS "
        f"(single-point {single_point_elapsed:.2f}s, five seeds {multi_point_elapsed:.2f}s)"
    )


def test_criterion_2_gamma_recurrence():
    """The gamma quadrature reproduces the generalized-Laguerre recurrence."""
    start = time.perf_counter()
    table = stieltjes(gauss_laguerre_gamma(40), 9)
    for n in range(9):
        assert abs(table.a[n] - 2.0 * (n + 1)) <= 1e-8
        if n > 0:
            assert abs(table.b[n] - n * (n + 1)) <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1
    print(f"\nACCEPTANCE 2 gamma recurrence: PASS ({elapsed:.3f}s)")


def test_criterion_3_chaos_oracle_equivalence():
    """Block-formula inner products equal the brute-force chaos oracle."""
    start = time.perf_counter()
    grid = GridSpace((0.7, 1.3))
    checked = 0
    for measure in (NU2, NUP):
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
                    assert abs(block - oracle) <= 1e-8 * max(1.0, abs(oracle))
                    if i != j:  # distinct basis tensors: exact zeros on both sides
                        assert block == 0.0 and oracle == 0.0
                    checked += 1
    # off the diagonal the zeros hold at every level, also at level 4, the
    # first where two representatives of one block embed onto one tensor
    grid = GridSpace((0.7, 1.1, 1.3))
    for measure in (NU2, NUP):
        space = FockSpace(grid, measure, stieltjes(measure, measure.atom_count), 4)
        model = CumulantModel(measure, grid)
        for n in range(5):
            tensors = [
                SymmetricTensor.basis_element(grid, n, i) for i in range(symmetric_dim(n, grid))
            ]
            embedded = [space.embed_symmetric(f) for f in tensors]
            for i, fi in enumerate(tensors):
                for j, fj in enumerate(tensors):
                    if i != j:
                        assert chaos_inner_product(fi, fj, model, n) == 0.0
                        assert level_inner_product(embedded[i], embedded[j], n) == 0.0
                        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 3 chaos-oracle equivalence: PASS ({checked} pairs, {elapsed:.2f}s)"
    )


def test_criterion_4_adjointness_and_symmetry():
    """Creation/annihilation pair as adjoints; the neutral part is symmetric."""
    rng = np.random.default_rng(2024)
    measure = random_measure(rng, 5)
    grid = GridSpace(tuple(rng.uniform(0.4, 2.0, 3)))
    phi = TestFunction(grid, tuple(rng.normal(0.0, 1.0, 3)))
    space = FockSpace(grid, measure, stieltjes(measure, 5), 4)
    minus = annihilation(phi, space)
    pair_defect = adjoint_defect(space, minus, creation(space, *minus))
    neutral_defect = symmetry_defect(space, neutral(phi, space))
    assert pair_defect <= 1e-10
    assert neutral_defect <= 1e-10
    print(
        f"\nACCEPTANCE 4 adjointness and symmetry: PASS "
        f"(adjoint defect {pair_defect:.2e}, neutral defect {neutral_defect:.2e})"
    )


def test_criterion_5_meixner_closed_forms():
    """Closed forms of the gamma field match the general assembler."""
    gamma = gauss_laguerre_gamma(40)
    table = stieltjes(gamma, 9)
    lam, kappa, mass = 2.0, 1.0, gamma.total_mass()
    rng = np.random.default_rng(5)
    for grid_size in (1, 2, 3):
        grid = GridSpace(tuple(rng.uniform(0.4, 2.0, grid_size)))
        phi = TestFunction(grid, tuple(rng.normal(0.0, 1.0, grid_size)))
        space = FockSpace(grid, gamma, table, 5)
        diagonal = neutral_part(phi, space)
        minus = annihilation(phi, space)
        for n in range(5):
            for idx in range(symmetric_dim(n, grid)):
                f = SymmetricTensor.basis_element(grid, n, idx)
                embedded = space.embed_symmetric(f)

                got = entries_apply(space, diagonal, embedded)
                want = space.embed_symmetric(meixner_neutral(phi, f, lam))
                scale = max(1.0, np.abs(want.values).max())
                for alpha in space.blocks(n):
                    assert np.abs(got[n, alpha] - want[n, alpha]).max() <= 1e-8 * scale

                if n >= 1:
                    got = entries_apply(space, minus, embedded)
                    want = space.embed_symmetric(meixner_annihilation(phi, f, kappa, mass))
                    scale = max(1.0, np.abs(want.values).max())
                    for alpha in space.blocks(n - 1):
                        assert (
                            np.abs(got[n - 1, alpha] - want[n - 1, alpha]).max()
                            <= 1e-8 * scale
                        )
    print("\nACCEPTANCE 5 meixner closed forms: PASS")


def test_criterion_6_combinatorics():
    """Partition counts and the worked block-weight values, exactly."""
    assert [len(partitions(n)) for n in range(7)] == [1, 1, 2, 3, 5, 7, 11]
    table = stieltjes(NU2, 2)
    assert block_weight(MultiIndex((1,)), table) == 1.0
    assert block_weight(MultiIndex((0, 1)), table) == 0.5
    assert block_weight(MultiIndex((1, 1)), table) == 1.5
    print("\nACCEPTANCE 6 combinatorics: PASS")


def test_criterion_7_negative_control():
    """A ten-percent fault on the first off-diagonal coefficient must be caught."""
    g1 = GridSpace((2.0,))
    phi = constant(g1)
    table = stieltjes(NU2, 2).with_scaled_b(1, 1.1)
    space = FockSpace(g1, NU2, table, 6)
    operator_side = vacuum_moments(phi, space, 6)
    model = CumulantModel(NU2, g1)
    oracle_side = [1.0] + moments_from_cumulants(
        [model.cumulant(phi, p) for p in range(1, 7)]
    )
    errors = [
        abs(a - b) / max(1.0, abs(b)) for a, b in zip(operator_side, oracle_side)
    ]
    first_failure = next(k for k, err in enumerate(errors) if err > 1e-8)
    assert first_failure == 4
    assert errors[4] > 1e-3
    assert max(errors[:4]) <= 1e-8
    print(
        f"\nACCEPTANCE 7 negative control: PASS "
        f"(fault detected at order {first_failure}, error {errors[4]:.2e})"
    )
