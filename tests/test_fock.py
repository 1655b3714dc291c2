from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyfock import (
    FockSpace,
    GridSpace,
    JumpMeasure,
    MultiIndex,
    SymmetricTensor,
    block_symmetrize,
    block_weight,
    diagonal_restriction,
    inner_product,
    level_inner_product,
    partitions,
    stieltjes,
)
from levyfock.fock import ExtendedFockVector, block_basis, symmetric_basis


def brute_force_partition_count(n: int, max_part: int) -> int:
    if n == 0:
        return 1
    if max_part < 1:
        return 0
    return sum(
        brute_force_partition_count(n - k, k) for k in range(1, min(n, max_part) + 1)
    )


class TestMultiIndex:
    def test_trims_trailing_zeros(self):
        assert MultiIndex((1, 0, 0)).multiplicities == (1,)
        assert MultiIndex((0, 0)).multiplicities == ()

    def test_degree_and_size(self):
        alpha = MultiIndex((2, 0, 1))
        assert alpha.degree == 2 + 3
        assert alpha.size == 3
        assert alpha.max_part == 3

    def test_raised_and_lowered(self):
        alpha = MultiIndex((1,))
        assert alpha.raised(2) == MultiIndex((1, 1))
        assert alpha.lowered(1) == MultiIndex(())
        assert alpha.lowered(2) is None

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MultiIndex((-1,))


class TestPartitions:
    def test_counts_match_partition_function(self):
        assert [len(partitions(n)) for n in range(7)] == [1, 1, 2, 3, 5, 7, 11]

    def test_degree_three_contents_and_order(self):
        assert partitions(3) == (
            MultiIndex((3,)),
            MultiIndex((1, 1)),
            MultiIndex((0, 0, 1)),
        )

    def test_degree_zero(self):
        assert partitions(0) == (MultiIndex(()),)

    @given(
        st.integers(min_value=0, max_value=9),
        st.one_of(st.none(), st.integers(min_value=1, max_value=9)),
    )
    def test_against_brute_force_count(self, n, max_part):
        found = partitions(n, max_part=max_part)
        assert len(set(found)) == len(found)
        assert all(a.degree == n for a in found)
        cap = n if max_part is None else max_part
        assert all(a.max_part <= cap or n == 0 for a in found)
        assert len(found) == brute_force_partition_count(n, cap)


class TestBlockWeight:
    def test_worked_examples(self, nu2):
        # frozen by hand from the multinomial and squared-norm factors
        table = stieltjes(nu2, 2)
        assert block_weight(MultiIndex((1,)), table) == 1.0
        assert block_weight(MultiIndex((0, 1)), table) == 0.5
        assert block_weight(MultiIndex((1, 1)), table) == 1.5

    def test_pure_singleton_blocks_give_mass_powers(self, gamma_table):
        mass = gamma_table.norm_sq[0]
        for n in range(5):
            assert block_weight(MultiIndex((n,)), gamma_table) == pytest.approx(
                mass**n
            )

    def test_positive(self, gamma_table):
        for n in range(6):
            for alpha in partitions(n):
                assert block_weight(alpha, gamma_table) > 0.0

    def test_requires_deep_enough_table(self, nu2):
        table = stieltjes(nu2, 2)
        with pytest.raises(ValueError, match="too shallow"):
            block_weight(MultiIndex((0, 0, 1)), table)


class TestDiagonalRestriction:
    def test_full_diagonal(self):
        grid = GridSpace((1.0, 2.0))
        f = SymmetricTensor.from_function(grid, 2, lambda rep: float(sum(rep)) + 1.0)
        block = diagonal_restriction(f, MultiIndex((0, 1)))
        for i in range(grid.size):
            assert block.value((i,)) == f.value((i, i))

    def test_no_duplication_is_identity(self):
        grid = GridSpace((1.0, 0.5, 2.0))
        f = SymmetricTensor.from_function(grid, 3, lambda rep: float(sum(rep)))
        block = diagonal_restriction(f, MultiIndex((3,)))
        basis = symmetric_basis(3, grid)
        for rep in basis.reps:
            assert block.value(rep) == f.value(rep)

    def test_mixed_layout_singleton_first(self):
        grid = GridSpace((1.0, 2.0))
        f = SymmetricTensor.from_function(
            grid, 3, lambda rep: float(rep[0] + 10 * rep[1] + 100 * rep[2])
        )
        block = diagonal_restriction(f, MultiIndex((1, 1)))
        # first coordinate enters once, second twice
        assert block.value((0, 1)) == f.value((0, 1, 1))
        assert block.value((1, 0)) == f.value((1, 0, 0))

    def test_degree_mismatch(self):
        grid = GridSpace((1.0,))
        f = SymmetricTensor.from_function(grid, 2, lambda rep: 1.0)
        with pytest.raises(ValueError, match="degree mismatch"):
            diagonal_restriction(f, MultiIndex((1,)))

    def test_agrees_with_explicit_average_of_elementary_products(self):
        # symmetrize an elementary product by hand, evaluate on duplicated
        # tuples, and compare with the production path, exhaustively
        grid = GridSpace((0.7, 1.1, 1.6))
        rng = np.random.default_rng(0)
        for n in (2, 3):
            factors = rng.normal(0, 1, (n, grid.size))

            def elementary_symmetrized(tpl):
                return math.fsum(
                    math.prod(factors[i][p] for i, p in enumerate(perm))
                    for perm in itertools.permutations(tpl)
                ) / math.factorial(len(tpl))

            f = SymmetricTensor.from_function(grid, n, elementary_symmetrized)
            for alpha in partitions(n):
                block = diagonal_restriction(f, alpha)
                basis = block_basis(alpha, grid)
                for rep in map(tuple, basis.reps.tolist()):
                    expanded = []
                    for k, (s, e) in enumerate(basis.offsets, start=1):
                        for p in rep[s:e]:
                            expanded.extend([p] * k)
                    assert block.value(rep) == pytest.approx(
                        elementary_symmetrized(tuple(expanded)), rel=1e-12, abs=1e-12
                    )


class TestBlockSymmetrize:
    def test_fixes_already_symmetric(self):
        grid = GridSpace((1.0, 2.0))
        alpha = MultiIndex((0, 1, 1))
        basis = block_basis(alpha, grid)
        rng = np.random.default_rng(1)
        values = rng.normal(0, 1, basis.dim)
        source = {rep: values[i] for i, rep in enumerate(map(tuple, basis.reps.tolist()))}

        def fn(tpl):
            rep = tuple(
                itertools.chain.from_iterable(sorted(tpl[s:e]) for s, e in basis.offsets)
            )
            return source[rep]

        out = block_symmetrize(fn, alpha, grid)
        assert out.values == pytest.approx(values)

    def test_two_point_symmetrization(self):
        grid = GridSpace((1.0, 3.0))
        phi = (0.3, -1.2)
        psi = (2.0, 0.7)

        def fn(tpl):
            return phi[tpl[0]] * psi[tpl[1]]

        out = block_symmetrize(fn, MultiIndex((2,)), grid)
        for x, y in [(0, 1), (0, 0), (1, 1)]:
            expected = 0.5 * (phi[x] * psi[y] + phi[y] * psi[x])
            assert out.value((x, y)) == pytest.approx(expected)

    def test_singleton_blocks_leave_function_alone(self):
        grid = GridSpace((1.0, 2.0))

        def fn(tpl):
            return float(tpl[0] + 10 * tpl[1])

        out = block_symmetrize(fn, MultiIndex((1, 1)), grid)
        for rep in map(tuple, block_basis(MultiIndex((1, 1)), grid).reps.tolist()):
            assert out.value(rep) == fn(rep)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=3))
    def test_idempotent(self, seed, grid_size):
        rng = np.random.default_rng(seed)
        grid = GridSpace(tuple(rng.uniform(0.5, 2.0, grid_size)))
        alpha = MultiIndex((1, 2)) if seed % 2 else MultiIndex((0, 1, 1))
        raw = {}

        def fn(tpl):
            if tpl not in raw:
                raw[tpl] = rng.normal()
            return raw[tpl]

        once = block_symmetrize(fn, alpha, grid)
        twice = block_symmetrize(once.value, alpha, grid)
        assert twice.values == pytest.approx(once.values, rel=1e-12, abs=1e-12)

    def test_self_adjoint_under_weighted_tuple_inner_product(self):
        grid = GridSpace((0.5, 1.5))
        alpha = MultiIndex((1, 1))
        size = alpha.size
        rng = np.random.default_rng(4)
        tuples = list(itertools.product(range(grid.size), repeat=size))
        weights = {t: math.prod(grid.weights[p] for p in t) for t in tuples}
        g_vals = {t: rng.normal() for t in tuples}
        h_vals = {t: rng.normal() for t in tuples}
        sg = block_symmetrize(g_vals.get, alpha, grid)
        sh = block_symmetrize(h_vals.get, alpha, grid)
        lhs = math.fsum(weights[t] * sg.value(t) * h_vals[t] for t in tuples)
        rhs = math.fsum(weights[t] * g_vals[t] * sh.value(t) for t in tuples)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestInnerProduct:
    def test_vacuum_norm(self, nu2, g1):
        space = FockSpace(g1, nu2, stieltjes(nu2, 2), 3)
        assert inner_product(space.vacuum(), space.vacuum()) == 1.0

    def test_level_one_constant(self, nu2, g1):
        space = FockSpace(g1, nu2, stieltjes(nu2, 2), 3)
        v = space.embed_symmetric(SymmetricTensor.from_function(g1, 1, lambda r: 1.0))
        assert inner_product(v, v) == pytest.approx(2.0)

    def test_level_two_constant(self, nu2, g1):
        # hand evaluation: the two degree-two blocks weigh 4 and 1, level
        # weight two
        space = FockSpace(g1, nu2, stieltjes(nu2, 2), 3)
        v = space.embed_symmetric(SymmetricTensor.from_function(g1, 2, lambda r: 1.0))
        assert inner_product(v, v) == pytest.approx(10.0)
        assert level_inner_product(v, v, 2) == pytest.approx(5.0)

    def test_canonical_basis_is_orthogonal_with_positive_norms(self, nu2):
        grid = GridSpace((0.8, 1.4))
        space = FockSpace(grid, nu2, stieltjes(nu2, 2), 3)
        vectors = [ExtendedFockVector(space, row) for row in np.eye(space.dim)]
        gram = np.array(
            [[inner_product(u, v) for v in vectors] for u in vectors]
        )
        assert np.all(np.linalg.eigvalsh(gram) > 0.0)
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() == 0.0

    def test_symmetric(self, nu2, g1):
        space = FockSpace(g1, nu2, stieltjes(nu2, 2), 2)
        rng = np.random.default_rng(9)
        u = ExtendedFockVector(space, rng.normal(0, 1, space.dim))
        v = ExtendedFockVector(space, rng.normal(0, 1, space.dim))
        assert inner_product(u, v) == pytest.approx(inner_product(v, u), rel=1e-12)

    def test_level_pairing_reads_the_weight_table_once(self, nu2, monkeypatch):
        grid = GridSpace((0.7, 1.1, 1.3))
        space = FockSpace(grid, nu2, stieltjes(nu2, 2), 4)
        v = space.embed_symmetric(SymmetricTensor.from_function(grid, 3, lambda r: sum(r) + 1.0))
        calls = []
        basis = FockSpace.basis

        def counted(self, alpha):
            calls.append(alpha)
            return basis(self, alpha)

        monkeypatch.setattr(FockSpace, "basis", counted)
        first = level_inner_product(v, v, 3)
        built = len(calls)
        for _ in range(3):
            assert level_inner_product(v, v, 3) == first
        assert len(calls) == built
        assert space.flat_weights is space.flat_weights

    def test_spaces_of_different_depth_pair_over_common_levels(self):
        grid = GridSpace((0.7, 1.1, 1.3))
        measure = JumpMeasure((-1.3, -0.4, 0.6, 1.1, 2.2), (0.7, 1.2, 0.5, 0.9, 1.1))
        table = stieltjes(measure, 4)
        shallow, deep = FockSpace(grid, measure, table, 2), FockSpace(grid, measure, table, 4)
        rng = np.random.default_rng(17)
        u = ExtendedFockVector(shallow, rng.normal(0, 1, shallow.dim))
        v = ExtendedFockVector(deep, rng.normal(0, 1, deep.dim))
        cut = ExtendedFockVector(shallow, v.values[: shallow.dim])
        assert inner_product(u, v) == inner_product(u, cut)
        assert inner_product(v, u) == inner_product(cut, u)
        w = ExtendedFockVector(deep, rng.normal(0, 1, deep.dim))
        by_level = sum(
            math.factorial(n) * level_inner_product(v, w, n) for n in range(deep.depth + 1)
        )
        assert by_level == pytest.approx(inner_product(v, w), rel=1e-13)

    def test_grid_mismatch_rejected(self, nu2, g1):
        table = stieltjes(nu2, 2)
        space_a = FockSpace(g1, nu2, table, 2)
        space_b = FockSpace(GridSpace((1.0, 1.0)), nu2, table, 2)
        with pytest.raises(ValueError, match="grid mismatch"):
            inner_product(space_a.vacuum(), space_b.vacuum())


class TestFockSpace:
    def test_requires_table_to_cover_truncation_or_exhaust_measure(self, gamma40):
        table = stieltjes(gamma40, 3)
        with pytest.raises(ValueError, match="too shallow"):
            FockSpace(GridSpace((1.0,)), gamma40, table, 5)

    def test_exhausted_measure_caps_parts(self, nu2, g1):
        space = FockSpace(g1, nu2, stieltjes(nu2, 2), 6)
        for n in range(7):
            assert all(alpha.max_part <= 2 for alpha in space.blocks(n))
        # level six still exists, spread over parts of size at most two
        assert len(space.blocks(6)) == 4

    def test_level_outside_truncation_named(self, nu2, g1):
        table = stieltjes(nu2, 2)
        shallow = FockSpace(g1, nu2, table, 2).vacuum()
        deep = FockSpace(g1, nu2, table, 3).vacuum()
        for f, g, n in [(shallow, shallow, 3), (shallow, shallow, -1), (deep, shallow, 3)]:
            with pytest.raises(ValueError, match=f"level {n} outside the truncation of depth 2"):
                level_inner_product(f, g, n)
        with pytest.raises(ValueError, match="level -1 outside the truncation of depth 2"):
            shallow.space.level_start(-1)
        assert shallow.space.level_start(3) == shallow.space.dim
        assert level_inner_product(deep, shallow, 0) == 1.0

    @pytest.mark.parametrize("grid_size,depth", [(1, 8), (2, 5), (4, 4)])
    def test_closed_form_layout_matches_enumeration(self, gamma40, grid_size, depth):
        grid = GridSpace((1.0,) * grid_size)
        space = FockSpace(grid, gamma40, stieltjes(gamma40, depth), depth)
        stop = 0
        for n, alpha in space.block_keys():
            span = space.block_slice(n, alpha)
            assert (span.start, span.stop) == (stop, stop + block_basis(alpha, grid).dim)
            stop = span.stop
        assert space.dim == stop
