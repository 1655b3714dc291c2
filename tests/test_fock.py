from __future__ import annotations

import gc
import itertools
import math
import tracemalloc
import weakref

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
    TestFunction,
    block_weight,
    full,
    inner_product,
    level_inner_product,
    partitions,
    stieltjes,
)
from levyfock import fock
from levyfock.fock import ExtendedFockVector, block_basis

from conftest import (
    at,
    block_reps,
    block_symmetrize,
    partition_multiplicities,
    random_measure,
    restriction,
    segment_bounds,
    sym_at,
    symmetric_dim,
    symmetric_from,
)


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

    def test_keeps_no_instance_dict(self):
        assert not hasattr(MultiIndex((1, 2)), "__dict__")

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
        with pytest.raises(ValueError):
            MultiIndex((1, -1))

    @pytest.mark.parametrize("cap", [None, 3])
    def test_raised_and_lowered_equal_validated_indices(self, cap):
        # partitions, raised and lowered skip the validation pass; their
        # results must still be the trimmed index the constructor builds,
        # hashing alike
        for n in range(13):
            for alpha in partitions(n, max_part=cap):
                validated = MultiIndex(alpha.multiplicities)
                assert alpha == validated and hash(alpha) == hash(validated)
                assert all(type(m) is int for m in alpha.multiplicities)
                assert alpha.multiplicities[-1:] != (0,)
                for k in range(1, alpha.max_part + 3):
                    mults = list(alpha.multiplicities) + [0] * (k + 1)
                    mults[k - 1] += 1
                    up = MultiIndex(tuple(mults))
                    assert alpha.raised(k) == up
                    assert hash(alpha.raised(k)) == hash(up)
                    assert alpha.raised(k).multiplicities == up.multiplicities
                    down = alpha.lowered(k)
                    if alpha.count(k) == 0:
                        assert down is None
                        continue
                    mults = list(alpha.multiplicities)
                    mults[k - 1] -= 1
                    expected = MultiIndex(tuple(mults))
                    assert down == expected and hash(down) == hash(expected)
                    assert down.multiplicities == expected.multiplicities


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


    @pytest.mark.parametrize("n", range(13))
    def test_generated_in_layout_order(self, n):
        for cap in [None, *range(n + 2)]:
            expected = [MultiIndex(m) for m in partition_multiplicities(n, cap)]
            assert list(partitions(n, max_part=cap)) == expected


class _Listed(Exception):
    """Raised where a space would start listing its blocks."""


class TestClosedFormSize:
    @pytest.mark.parametrize("size", [1, 2, 3, 5])
    @pytest.mark.parametrize("atoms", [1, 3, 6])
    @pytest.mark.parametrize("depth", range(9))
    def test_matches_sum_over_listed_blocks(self, size, atoms, depth):
        rng = np.random.default_rng(10 * size + atoms)
        measure = random_measure(rng, atoms)
        grid = GridSpace(tuple(rng.uniform(0.5, 1.5, size)))
        table = stieltjes(measure, max(1, min(depth, atoms)))
        space = FockSpace(grid, measure, table, depth)
        listed = {
            n: [
                (math.prod(symmetric_dim(m, grid) for m in mults), sum(mults))
                for mults in partition_multiplicities(n, table.depth)
            ]
            for n in range(depth + 1)
        }
        dim = sum(d for n in listed for d, _ in listed[n])
        rows = sum(d * (size + parts) for n in range(depth) for d, parts in listed[n])
        assert space.dim == dim
        assert space.entry_bound() == dim + 2 * rows
        assert len(space.block_keys()) == sum(map(len, listed.values()))

    @pytest.mark.parametrize("depth", [60, 400])
    def test_oversize_refused_before_listing_blocks(self, monkeypatch, depth):
        # G = 2, six atoms: the refusal comes from counting alone
        def listed(*args):
            raise _Listed(args)

        monkeypatch.setattr(fock, "partitions", listed)
        monkeypatch.setattr(fock, "block_weight", listed)
        measure = JumpMeasure((-1.3, -0.4, 0.6, 1.1, 2.2, 3.1), (0.7, 1.2, 0.5, 0.9, 1.1, 0.8))
        with pytest.raises(ValueError, match="operator too large: up to "):
            FockSpace(GridSpace((0.8, 1.4)), measure, stieltjes(measure, 6), depth)


    def test_bound_beyond_the_doubles_refused(self):
        # 1,000 grid points at depth 400: a bound of about 10^400 entries is
        # still refused with its exact count, its size beyond the doubles
        measure = JumpMeasure((-1.0, 2.0), (0.5, 0.5))
        grid = GridSpace((1.0,) * 1000)
        message = r"operator entries in 40,401 blocks \(about inf GB\) exceed"
        with pytest.raises(ValueError, match=message):
            FockSpace(grid, measure, stieltjes(measure, 2), 400)


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
        f = symmetric_from(grid, 2, lambda rep: float(sum(rep)) + 1.0)
        block = restriction(f, MultiIndex((0, 1)))
        for i in range(grid.size):
            assert block[i] == sym_at(f, (i, i))

    def test_no_duplication_is_identity(self):
        grid = GridSpace((1.0, 0.5, 2.0))
        f = symmetric_from(grid, 3, lambda rep: float(sum(rep)))
        block = restriction(f, MultiIndex((3,)))
        assert block.tobytes() == f.values.tobytes()

    def test_mixed_layout_singleton_first(self):
        grid = GridSpace((1.0, 2.0))
        f = symmetric_from(grid, 3, lambda rep: float(rep[0] + 10 * rep[1] + 100 * rep[2]))
        alpha = MultiIndex((1, 1))
        block = restriction(f, alpha)
        # first coordinate enters once, second twice
        assert at(block, alpha, grid, (0, 1)) == sym_at(f, (0, 1, 1))
        assert at(block, alpha, grid, (1, 0)) == sym_at(f, (1, 0, 0))

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

            f = symmetric_from(grid, n, elementary_symmetrized)
            for alpha in partitions(n):
                block = restriction(f, alpha)
                for i, rep in enumerate(block_reps(alpha, grid)):
                    expanded = []
                    for k, (s, e) in enumerate(segment_bounds(alpha), start=1):
                        for p in rep[s:e]:
                            expanded.extend([p] * k)
                    assert block[i] == pytest.approx(
                        elementary_symmetrized(tuple(expanded)), rel=1e-12, abs=1e-12
                    )


class TestBlockSymmetrize:
    def test_fixes_already_symmetric(self):
        grid = GridSpace((1.0, 2.0))
        alpha = MultiIndex((0, 1, 1))
        rng = np.random.default_rng(1)
        values = rng.normal(0, 1, len(block_reps(alpha, grid)))
        out = block_symmetrize(lambda tpl: at(values, alpha, grid, tpl), alpha, grid)
        assert out == pytest.approx(values)

    def test_two_point_symmetrization(self):
        grid = GridSpace((1.0, 3.0))
        phi = (0.3, -1.2)
        psi = (2.0, 0.7)

        def fn(tpl):
            return phi[tpl[0]] * psi[tpl[1]]

        alpha = MultiIndex((2,))
        out = block_symmetrize(fn, alpha, grid)
        for x, y in [(0, 1), (0, 0), (1, 1)]:
            expected = 0.5 * (phi[x] * psi[y] + phi[y] * psi[x])
            assert at(out, alpha, grid, (x, y)) == pytest.approx(expected)

    def test_singleton_blocks_leave_function_alone(self):
        grid = GridSpace((1.0, 2.0))

        def fn(tpl):
            return float(tpl[0] + 10 * tpl[1])

        alpha = MultiIndex((1, 1))
        out = block_symmetrize(fn, alpha, grid)
        for i, rep in enumerate(block_reps(alpha, grid)):
            assert out[i] == fn(rep)

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
        twice = block_symmetrize(lambda tpl: at(once, alpha, grid, tpl), alpha, grid)
        assert twice == pytest.approx(once, rel=1e-12, abs=1e-12)

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
        lhs = math.fsum(weights[t] * at(sg, alpha, grid, t) * h_vals[t] for t in tuples)
        rhs = math.fsum(weights[t] * g_vals[t] * at(sh, alpha, grid, t) for t in tuples)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestInnerProduct:
    def test_vacuum_norm(self, nu2, g1):
        space = FockSpace(g1, nu2, stieltjes(nu2, 2), 3)
        assert inner_product(space.vacuum(), space.vacuum()) == 1.0

    def test_level_one_constant(self, nu2, g1):
        space = FockSpace(g1, nu2, stieltjes(nu2, 2), 3)
        v = space.embed_symmetric(symmetric_from(g1, 1, lambda r: 1.0))
        assert inner_product(v, v) == pytest.approx(2.0)

    def test_level_two_constant(self, nu2, g1):
        # hand evaluation: the two degree-two blocks weigh 4 and 1, level
        # weight two
        space = FockSpace(g1, nu2, stieltjes(nu2, 2), 3)
        v = space.embed_symmetric(symmetric_from(g1, 2, lambda r: 1.0))
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
        v = space.embed_symmetric(symmetric_from(grid, 3, lambda r: sum(r) + 1.0))
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

    def test_spaces_of_different_depth_refuse_to_pair(self):
        grid = GridSpace((0.7, 1.1, 1.3))
        measure = JumpMeasure((-1.3, -0.4, 0.6, 1.1, 2.2), (0.7, 1.2, 0.5, 0.9, 1.1))
        table = stieltjes(measure, 4)
        shallow, deep = FockSpace(grid, measure, table, 2), FockSpace(grid, measure, table, 4)
        rng = np.random.default_rng(17)
        u = ExtendedFockVector(shallow, rng.normal(0, 1, shallow.dim))
        v = ExtendedFockVector(deep, rng.normal(0, 1, deep.dim))
        for f, g in [(u, v), (v, u)]:
            with pytest.raises(ValueError, match="vectors of different spaces do not pair"):
                inner_product(f, g)
            with pytest.raises(ValueError, match="vectors of different spaces do not pair"):
                level_inner_product(f, g, 0)
        w = ExtendedFockVector(deep, rng.normal(0, 1, deep.dim))
        by_level = sum(
            math.factorial(n) * level_inner_product(v, w, n) for n in range(deep.depth + 1)
        )
        assert by_level == pytest.approx(inner_product(v, w), rel=1e-13)

    def test_grid_mismatch_rejected(self, nu2, g1):
        table = stieltjes(nu2, 2)
        space_a = FockSpace(g1, nu2, table, 2)
        space_b = FockSpace(GridSpace((1.0, 1.0)), nu2, table, 2)
        with pytest.raises(ValueError, match="vectors of different spaces do not pair"):
            inner_product(space_a.vacuum(), space_b.vacuum())

    def test_equal_spaces_built_apart_refuse_to_pair(self, nu2, g1):
        # one grid, measure, table and depth: still two spaces
        table = stieltjes(nu2, 2)
        first, second = FockSpace(g1, nu2, table, 2), FockSpace(g1, nu2, table, 2)
        assert first.dim == second.dim
        for pairing in (inner_product, lambda f, g: level_inner_product(f, g, 1)):
            with pytest.raises(ValueError, match="vectors of different spaces do not pair"):
                pairing(first.vacuum(), second.vacuum())
        assert inner_product(first.vacuum(), first.vacuum()) == 1.0


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
        for n in (3, -1):
            with pytest.raises(ValueError, match=f"level {n} outside the truncation of depth 2"):
                level_inner_product(shallow, shallow, n)
        for f, g in [(deep, shallow), (shallow, deep)]:
            with pytest.raises(ValueError, match="vectors of different spaces do not pair"):
                level_inner_product(f, g, 0)
        with pytest.raises(ValueError, match="level -1 outside the truncation of depth 2"):
            shallow.space.level_start(-1)
        assert shallow.space.level_start(3) == shallow.space.dim
        assert level_inner_product(deep, deep, 3) == 0.0
        assert level_inner_product(shallow, shallow, 0) == 1.0

    def test_tables_are_read_only(self, nu2):
        space = FockSpace(GridSpace((0.7, 1.1, 1.3)), nu2, stieltjes(nu2, 2), 3)
        table = space.tuples(2)
        assert table.tolist() == [[0, 0], [0, 1], [0, 2], [1, 1], [1, 2], [2, 2]]
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1
        # a block of a single part size hands out its table itself
        assert space.representatives(MultiIndex((2,))) is table

    def test_space_builds_one_table_per_part_count(self, nu2, monkeypatch):
        # repeated assemblies and embeddings read every part count's table
        # many times; each read hands out the one table built on first use
        handed = []  # (part count, table) at every read, the tables kept alive
        tuples = FockSpace.tuples

        def recorded(space, m):
            handed.append((m, tuples(space, m)))
            return handed[-1][1]

        monkeypatch.setattr(FockSpace, "tuples", recorded)
        grid = GridSpace((0.7, 1.1, 1.3))
        space = FockSpace(grid, nu2, stieltjes(nu2, 2), 4)
        phi = TestFunction(grid, (0.9, -0.4, 1.2))
        for _ in range(2):
            full(phi, space)
            space.embed_symmetric(SymmetricTensor(grid, 3, np.ones(symmetric_dim(3, grid))))
        tables: dict[int, set[int]] = {}
        for m, table in handed:
            tables.setdefault(m, set()).add(id(table))
        assert {1, 2, 3, 4} <= set(tables) and len(handed) > 2 * len(tables)
        assert all(len(ids) == 1 for ids in tables.values())

    def test_tables_die_with_their_space(self, nu2):
        grid = GridSpace((0.7, 1.1, 1.3))
        space = FockSpace(grid, nu2, stieltjes(nu2, 2), 3)
        full(TestFunction(grid, (0.9, -0.4, 1.2)), space)
        table = weakref.ref(space.tuples(2))
        del space
        gc.collect()
        assert table() is None

    def test_space_keeps_little_per_block(self, gamma40):
        # one grid point, depth 20: after full, the space keeps its pairing
        # weights (16 bytes a block) and one small table per part count, where
        # a kept basis per block held about 790 bytes a block
        grid = GridSpace((1.3,))
        space = FockSpace(grid, gamma40, stieltjes(gamma40, 20), 20)
        phi = TestFunction(grid, (0.9,))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            full(phi, space)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < 100 * len(space.block_keys())

    def test_space_keeps_one_slice_per_block(self, gamma40):
        # one grid point, depth 24: 7,338 blocks, each kept as its multi-index
        # and its slice in one per-level mapping; a per-block weight store and
        # (n, alpha) keys made it 449 bytes a block
        grid, table = GridSpace((1.3,)), stieltjes(gamma40, 24)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            space = FockSpace(grid, gamma40, table, 24)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(space.block_keys()) == 7_338
        assert kept <= 320 * 7_338

    def test_blocks_die_with_their_space(self, gamma40):
        # one grid point, depth 20: 2,714 blocks; no process-wide cache keeps
        # them once the space is gone (a cache of partitions held about 500 kB,
        # under a part cap of 23 that no other test lists blocks with)
        grid, table = GridSpace((1.3,)), stieltjes(gamma40, 23)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            space = FockSpace(grid, gamma40, table, 20)
            assert len(space.block_keys()) == 2_714
            del space
            gc.collect()
            left = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert left <= 20_000

    def test_overflowing_weight_refused_where_formed(self):
        # atom weights 1e160: block (2,) weighs 2!/2! * (2e160)**2, past the
        # largest double; the space builds, and its weights refuse it
        measure = JumpMeasure((-1.0, 1.0), (1e160, 1e160))
        table = stieltjes(measure, 2)
        space = FockSpace(GridSpace((1.0,)), measure, table, 2)
        message = r"weight of block \(2,\) overflows the doubles"
        with pytest.raises(ValueError, match=message):
            space.flat_weights
        with pytest.raises(ValueError, match=message):
            space.weight(2, MultiIndex((2,)))
        assert space.weight(2, MultiIndex((0, 1))) == block_weight(MultiIndex((0, 1)), table)

    def test_block_lookups_refuse_blocks_outside_the_space(self, nu2, g1):
        space = FockSpace(g1, nu2, stieltjes(nu2, 2), 3)
        top = space.blocks(3)[0]
        foreign = [(2, top), (3, MultiIndex((2,))), (4, MultiIndex((4,))), (-1, top)]
        for n, alpha in foreign + [(-1, MultiIndex(()))]:
            with pytest.raises(KeyError):
                space.block_slice(n, alpha)
            with pytest.raises(KeyError):
                space.weight(n, alpha)

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
