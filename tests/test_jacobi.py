from __future__ import annotations

import dataclasses
import math
import tracemalloc
from pathlib import Path

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
    creation,
    export_lines,
    full,
    inner_product,
    moments_from_cumulants,
    neutral,
    stieltjes,
    symmetry_defect,
    vacuum_moments,
)
from levyfock import jacobi
from levyfock.fock import ExtendedFockVector
from levyfock.jacobi import FieldOperator, measure_hash

from conftest import (
    at,
    block_reps,
    block_symmetrize,
    constant,
    creation_part,
    entries_apply,
    neutral_part,
    operator_apply,
    operator_entries,
    operator_export_entries,
    poly_expectation,
    poly_product,
    random_measure,
    rep_weights,
    segment_bounds,
    sym_at,
    sym_tensor_product,
    symmetric_dim,
    wick_coefficients,
)

VACUUM = (0, MultiIndex(()))


@pytest.fixture()
def nu2_space(nu2, g1):
    return FockSpace(g1, nu2, stieltjes(nu2, 2), 6)


@pytest.fixture()
def random_setup():
    rng = np.random.default_rng(7)
    measure = random_measure(rng, 5)
    grid = GridSpace(tuple(rng.uniform(0.5, 2.0, 3)))
    space = FockSpace(grid, measure, stieltjes(measure, 5), 4)
    phi = TestFunction(grid, tuple(rng.normal(0, 1, 3)))
    return measure, grid, space, phi


class TestCreation:
    def test_vacuum_maps_to_test_function(self, random_setup):
        _, grid, space, phi = random_setup
        image = entries_apply(space, creation_part(phi, space), space.vacuum())
        assert image[1, MultiIndex((1,))] == pytest.approx(phi.values)

    def test_level_one_worked_example(self, nu2, g1):
        grid = GridSpace((0.8, 1.4))
        space = FockSpace(grid, nu2, stieltjes(nu2, 2), 3)
        phi = TestFunction(grid, (0.9, -0.4))
        psi = SymmetricTensor(grid, 1, np.array([2.0, 0.5]))
        image = entries_apply(space, creation_part(phi, space), space.embed_symmetric(psi))
        pair, diagonal = MultiIndex((2,)), MultiIndex((0, 1))
        for x in range(2):
            for y in range(2):
                expected = 0.5 * (
                    phi.values[x] * sym_at(psi, (y,)) + phi.values[y] * sym_at(psi, (x,))
                )
                assert at(image[2, pair], pair, grid, (x, y)) == pytest.approx(expected)
        for x in range(2):
            got = at(image[2, diagonal], diagonal, grid, (x,))
            assert got == pytest.approx(phi.values[x] * sym_at(psi, (x,)))

    def test_vacuum_image_norm(self, nu2, g1):
        space = FockSpace(g1, nu2, stieltjes(nu2, 2), 2)
        phi = constant(g1)
        image = entries_apply(space, creation_part(phi, space), space.vacuum())
        assert inner_product(image, image) == pytest.approx(2.0)

    def test_creation_norm_identity(self, random_setup):
        measure, grid, space, phi = random_setup
        image = entries_apply(space, creation_part(phi, space), space.vacuum())
        expected = measure.total_mass() * math.fsum(
            w * v * v for w, v in zip(grid.weights, phi.values)
        )
        assert inner_product(image, image) == pytest.approx(expected, rel=1e-12)

    def test_matches_tensor_product_on_embedded_tensors(self, random_setup):
        # the adjoint-assembled creation coincides with the symmetrized
        # tensor product wherever the latter determines it (images up to
        # level three)
        _, grid, space, phi = random_setup
        rng = np.random.default_rng(0)
        plus = creation_part(phi, space)
        for n in range(3):
            f = SymmetricTensor(grid, n, rng.normal(0, 1, symmetric_dim(n, grid)))
            image = entries_apply(space, plus, space.embed_symmetric(f))
            expected = space.embed_symmetric(sym_tensor_product(phi, f))
            for alpha in space.blocks(n + 1):
                assert image[n + 1, alpha] == pytest.approx(
                    expected[n + 1, alpha], rel=1e-12, abs=1e-12
                )

    def test_top_level_images_are_dropped(self, random_setup):
        # no creation entry starts at the top level, so there the field is
        # its neutral and annihilation parts alone
        _, _, space, phi = random_setup
        top = space.level_start(space.depth)
        rows, _, _ = minus = annihilation(phi, space)
        assert np.all(rows < top)  # the creation sources
        v = space.zero()
        v.values[top:] = np.random.default_rng(6).normal(0, 1, space.dim - top)
        kept = entries_apply(space, neutral_part(phi, space), v).values
        kept = kept + entries_apply(space, minus, v).values
        assert np.array_equal(full(phi, space).apply(v).values, kept)

    def test_values_are_the_documented_adjoint(self, random_setup):
        # bit for bit, and elementwise: a slice of the entries gives the
        # bits of the whole
        _, _, space, phi = random_setup
        minus = annihilation(phi, space)
        rows, cols, vals = creation_part(phi, space)
        assert np.array_equal(rows, minus[1]) and np.array_equal(cols, minus[0])
        assert creation(space, *minus).tobytes() == vals.tobytes()
        odd = [a[1::2] for a in minus]
        assert creation(space, *odd).tobytes() == vals[1::2].tobytes()


class TestNeutral:
    def test_kills_vacuum(self, random_setup):
        _, _, space, phi = random_setup
        image = entries_apply(space, neutral_part(phi, space), space.vacuum())
        assert np.all(image.values == 0.0)

    def test_stores_the_diagonal_at_every_position(self, random_setup):
        # one entry per flat position; the vacuum's is exactly +0.0
        _, _, space, phi = random_setup
        diag = neutral(phi, space)
        assert diag.shape == (space.dim,)
        assert diag[0].tobytes() == np.float64(0.0).tobytes()

    def test_level_one_action(self, random_setup):
        _, grid, space, phi = random_setup
        table = space.table
        f = SymmetricTensor(grid, 1, np.array([1.0, -2.0, 0.5]))
        image = entries_apply(space, neutral_part(phi, space), space.embed_symmetric(f))
        block = image[1, MultiIndex((1,))]
        expected = [table.a[0] * phi.values[i] * sym_at(f, (i,)) for i in range(grid.size)]
        assert block == pytest.approx(expected)

    def test_level_two_diagonal_block(self, gamma40, gamma_table):
        # needs a measure whose second diagonal coefficient is nonzero
        grid = GridSpace((0.8, 1.4))
        space = FockSpace(grid, gamma40, gamma_table, 3)
        phi = TestFunction(grid, (0.9, -0.4))
        f = SymmetricTensor(grid, 2, np.array([1.0, 2.0, -1.0]))
        image = entries_apply(space, neutral_part(phi, space), space.embed_symmetric(f))
        alpha = MultiIndex((0, 1))
        for x in range(2):
            expected = gamma_table.a[1] * phi.values[x] * sym_at(f, (x, x))
            assert at(image[2, alpha], alpha, grid, (x,)) == pytest.approx(expected)


def enumerated_slots(space):
    """Annihilation slots block pair by block pair: each target
    representative times G grid points for the contraction, plus its
    size-(k-1) coordinates for every promotion k the table reaches."""
    total = 0
    for n, beta in space.block_keys():
        if n < space.depth:
            top = min(beta.max_part + 1, space.max_part)
            width = space.grid.size + sum(beta.count(k - 1) for k in range(2, top + 1))
            total += len(block_reps(beta, space.grid)) * width
    return total


class TestAnnihilation:
    def test_kills_vacuum(self, random_setup):
        _, _, space, phi = random_setup
        image = entries_apply(space, annihilation(phi, space), space.vacuum())
        assert np.all(image.values == 0.0)

    def test_level_one_contraction(self, random_setup):
        measure, grid, space, phi = random_setup
        f = SymmetricTensor(grid, 1, np.array([1.0, -2.0, 0.5]))
        image = entries_apply(space, annihilation(phi, space), space.embed_symmetric(f))
        expected = measure.total_mass() * math.fsum(
            w * p * sym_at(f, (i,))
            for i, (w, p) in enumerate(zip(grid.weights, phi.values))
        )
        assert image[VACUUM][0] == pytest.approx(expected, rel=1e-12)

    def test_level_two_worked_example(self, nu2):
        # two terms: the grid contraction against the block with an extra
        # singleton, and one promotion weighted by the off-diagonal
        # coefficient at the promoted coordinate
        grid = GridSpace((0.8, 1.4))
        table = stieltjes(nu2, 2)
        space = FockSpace(grid, nu2, table, 3)
        phi = TestFunction(grid, (0.9, -0.4))
        rng = np.random.default_rng(5)
        f = SymmetricTensor(grid, 2, rng.normal(0, 1, 3))
        image = entries_apply(space, annihilation(phi, space), space.embed_symmetric(f))
        alpha = MultiIndex((1,))
        for x in range(2):
            contraction = 2.0 * nu2.total_mass() * math.fsum(
                grid.weights[i] * phi.values[i] * sym_at(f, (i, x)) for i in range(2)
            )
            promotion = table.b[1] * phi.values[x] * sym_at(f, (x, x))
            got = at(image[1, alpha], alpha, grid, (x,))
            assert got == pytest.approx(contraction + promotion, rel=1e-12)

    def test_triplets_own_their_data_and_hold_no_zero(self, random_setup):
        # the slots are allocated once, as many as the space's closed-form
        # count, and shrunk in place: a φ of 0.0 empties a contraction
        # column, equal coordinates leave promotion slots that are not run
        # starts, and an exhausted table skips its top promotions
        _, grid, space, phi = random_setup
        zero = TestFunction(grid, (phi.values[0], 0.0, phi.values[2]))
        weights, values, (locations, masses), depth = REFERENCE_CASES["table-exhausted"]
        measure, exhausted_grid = JumpMeasure(locations, masses), GridSpace(weights)
        exhausted = FockSpace(exhausted_grid, measure, stieltjes(measure, len(locations)), depth)
        inputs = [(space, phi), (space, zero), (exhausted, TestFunction(exhausted_grid, values))]
        for on, f in inputs:
            rows, cols, vals = annihilation(f, on)
            assert rows.base is None and cols.base is None and vals.base is None
            assert len(rows) == len(cols) == len(vals) > 0
            assert np.count_nonzero(vals) == len(vals)
            counted = (on.entry_bound() - on.dim) // 2
            if on is space:
                assert counted == enumerated_slots(on)
            else:
                assert (counted, enumerated_slots(on)) == (156, 150)
        assert len(annihilation(zero, space)[2]) < len(annihilation(phi, space)[2])

    def test_assembly_peak_near_its_result(self):
        # G = 32, D = 4, six atoms: 264,320 triplets, 6.3 MB.  Assembling
        # whole blocks into per-pair lists peaked at 3.0 times that; one
        # preallocation filled in pieces peaks at 1.07 times
        rng = np.random.default_rng(11)
        measure = random_measure(rng, 6)
        grid = GridSpace(tuple(0.5 + i / 32 for i in range(32)))
        phi = TestFunction(grid, tuple((-1) ** i * (0.6 + i / 32) for i in range(32)))
        space = FockSpace(grid, measure, stieltjes(measure, 6), 4)
        annihilation(phi, space)  # builds the bases and the pairing weights, once
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            triplets = annihilation(phi, space)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        stored = sum(array.nbytes for array in triplets)
        assert len(triplets[2]) == 264_320
        assert peak <= 1.6 * stored


def literal_annihilation_block(space, phi, source, src_alpha, dst_alpha, promote_first):
    """Transliteration of the annihilation formula with explicit projection.

    Evaluates the raw coordinate expression at a chosen representative --
    promoting either the last or the first coordinate of each size-(k-1)
    segment, with the test function riding on the promoted coordinate --
    and then applies the within-block symmetrization.  Any representative
    choice must give the same block after symmetrization.
    """
    n = src_alpha.degree
    grid = space.grid
    parts_total = np.zeros(len(block_reps(dst_alpha, grid)))
    if dst_alpha.raised(1) == src_alpha:

        def raw_contraction(tpl):
            return math.fsum(
                grid.weights[i] * phi.values[i] * at(source, src_alpha, grid, (i,) + tpl)
                for i in range(grid.size)
            )

        bt = block_symmetrize(raw_contraction, dst_alpha, grid)
        parts_total = parts_total + n * space.mass * bt
    offsets = {}
    start = 0
    for k in range(1, dst_alpha.max_part + 1):
        offsets[k] = (start, start + dst_alpha.count(k))
        start += dst_alpha.count(k)
    for k in range(2, dst_alpha.max_part + 2):
        count = dst_alpha.count(k - 1)
        if count == 0:
            continue
        beta = dst_alpha.lowered(k - 1).raised(k)
        if beta != src_alpha:
            continue
        qstart, qstop = offsets[k - 1]
        qpos = qstart if promote_first else qstop - 1

        def raw_promotion(tpl, qpos=qpos, k=k):
            moved = tpl[qpos]
            rest = tpl[:qpos] + tpl[qpos + 1 :]
            # rebuild in the source layout: segment k-1 loses the moved
            # coordinate, segment k gains it
            segs = []
            cursor = 0
            for kk in range(1, max(dst_alpha.max_part, k) + 1):
                width = dst_alpha.count(kk) - (1 if kk == k - 1 else 0)
                segs.append(list(rest[cursor : cursor + width]))
                cursor += width
            segs[k - 1].append(moved)
            flat = tuple(x for seg in segs for x in seg)
            return phi.values[moved] * at(source, src_alpha, grid, flat)

        bt = block_symmetrize(raw_promotion, dst_alpha, grid)
        parts_total = parts_total + (n / k) * count * space.table.b[k - 1] * bt
    return parts_total


def supported_on(space, level, alpha, values):
    """Vector equal to ``values`` on one block and zero elsewhere."""
    v = space.zero()
    v[level, alpha][:] = values
    return v


class TestLiteralFormulaEquivalence:
    """The assembled operators against a direct transliteration of the
    blockwise formulas, including the claim that the choice of
    representative coordinate is immaterial once symmetrized.  Each
    (source, target) block pair is compared through the image, on the
    target block, of a vector supported on the source block."""

    @pytest.mark.parametrize("promote_first", [False, True])
    def test_annihilation_blocks(self, random_setup, promote_first):
        _, grid, space, phi = random_setup
        minus = annihilation(phi, space)
        rng = np.random.default_rng(2)
        for src_level in range(1, space.depth + 1):
            for src_alpha in space.blocks(src_level):
                source = rng.normal(0, 1, space.basis(src_alpha).dim)
                image = entries_apply(
                    space, minus, supported_on(space, src_level, src_alpha, source)
                )
                for dst_alpha in space.blocks(src_level - 1):
                    expected = literal_annihilation_block(
                        space, phi, source, src_alpha, dst_alpha, promote_first
                    )
                    assert image[src_level - 1, dst_alpha] == pytest.approx(
                        expected, rel=1e-12, abs=1e-12
                    )

    def test_neutral_blocks(self, random_setup):
        _, grid, space, phi = random_setup
        diagonal = neutral_part(phi, space)
        rng = np.random.default_rng(3)
        for level, alpha in space.block_keys():
            source = rng.normal(0, 1, space.basis(alpha).dim)
            image = entries_apply(space, diagonal, supported_on(space, level, alpha, source))
            block = image[level, alpha].copy()
            image[level, alpha][:] = 0.0
            assert np.all(image.values == 0.0)  # block-diagonal
            offsets = segment_bounds(alpha)
            expected = np.zeros_like(source)
            for k, _m in alpha.parts():
                stop = offsets[k - 1][1]

                def raw(tpl, stop=stop):
                    # terminal coordinate of the size-k segment carries phi
                    return phi.values[tpl[stop - 1]] * at(source, alpha, grid, tpl)

                bt = block_symmetrize(raw, alpha, grid)
                expected = expected + alpha.count(k) * space.table.a[k - 1] * bt
            assert block == pytest.approx(expected, rel=1e-12, abs=1e-12)


def _multiplication_pairing_deviation(measure, table_depth, space_depth, levels):
    """Worst deviation of operator pairings from Wick-product expectations.

    Pairs the image of every embedded canonical tensor against every
    embedded canonical tensor one level away or at the same level, and
    compares with the expectation of the noise pairing times the two Wick
    monomials, computed purely from joint moments.
    """
    grid = GridSpace((0.6, 1.1))
    space = FockSpace(grid, measure, stieltjes(measure, table_depth), space_depth)
    phi = TestFunction(grid, (0.8, -0.5))
    model = CumulantModel(measure, grid)
    op = full(phi, space)
    pairing_poly = {
        tuple(1 if j == i else 0 for j in range(grid.size)): phi.values[i]
        for i in range(grid.size)
    }
    worst = 0.0
    for n in levels:
        for fi in range(symmetric_dim(n, grid)):
            f = SymmetricTensor.basis_element(grid, n, fi)
            wick_f = wick_coefficients(f, model)
            image = op.apply(space.embed_symmetric(f))
            for m in (n - 1, n, n + 1):
                if m < 0 or m not in levels or m > space.depth:
                    continue
                for gi in range(symmetric_dim(m, grid)):
                    g = SymmetricTensor.basis_element(grid, m, gi)
                    wick_g = wick_coefficients(g, model)
                    truth = poly_expectation(
                        poly_product(poly_product(pairing_poly, wick_f), wick_g),
                        model,
                    )
                    got = inner_product(image, space.embed_symmetric(g))
                    worst = max(worst, abs(got - truth) / max(1.0, abs(truth)))
    return worst


class TestMultiplicationOperatorIdentity:
    """Pairings of the operator against embedded symmetric tensors equal
    Wick-product expectations of the multiplication operator.

    For a measure in the Meixner class the identity holds at every level
    (preserving embedded symmetric vectors is what characterizes that
    class), which makes the gamma run the sharpest arbiter available for
    the coordinate bookkeeping of the assembly: it catches promotion-term
    errors that no vacuum moment below order seven can see.  For a
    general measure the embedded identity is a continuum statement that
    survives discretization only through level two; the all-orders
    discrete arbiter is the vacuum-moment identity, tested elsewhere.
    """

    def test_gamma_measure_all_levels(self, gamma40):
        deviation = _multiplication_pairing_deviation(
            gamma40, table_depth=9, space_depth=4, levels=range(5)
        )
        assert deviation <= 1e-9

    def test_general_measure_low_levels(self):
        measure = random_measure(np.random.default_rng(13), 6)
        deviation = _multiplication_pairing_deviation(
            measure, table_depth=6, space_depth=4, levels=range(3)
        )
        assert deviation <= 1e-9


class TestFullOperator:
    def test_decomposition(self, random_setup):
        _, _, space, phi = random_setup
        whole = full(phi, space)
        parts = [creation_part(phi, space), neutral_part(phi, space), annihilation(phi, space)]
        rng = np.random.default_rng(4)
        v = ExtendedFockVector(space, rng.normal(0, 1, space.dim))
        combined = sum(entries_apply(space, part, v).values for part in parts)
        direct = whole.apply(v)
        for key in space.block_keys():
            assert direct[key] == pytest.approx(combined[space.block_slice(*key)], rel=1e-12)

    def test_triplets_are_the_parts_in_order(self, random_setup):
        # each image entry sums its creation, neutral and annihilation terms
        # in that order, each part in triplet order, bit for bit
        _, _, space, phi = random_setup
        op = full(phi, space)
        rng = np.random.default_rng(4)
        for x in (space.vacuum().values, rng.normal(0, 1, space.dim)):
            image = op.apply(ExtendedFockVector(space, x)).values
            assert image.tobytes() == operator_apply(op, x).tobytes()

    def test_holds_the_annihilation_part_and_the_diagonal(self, random_setup, monkeypatch):
        # the annihilation arrays are kept without a copy, and nothing else
        # is stored but the neutral diagonal: no creation or neutral triplets,
        # and no part kind
        _, _, space, phi = random_setup
        built = []
        build = jacobi.annihilation

        def recording(*args):
            built.append(build(*args))
            return built[-1]

        monkeypatch.setattr(jacobi, "annihilation", recording)
        op = full(phi, space)
        ((rows, cols, vals),) = built
        assert op.rows is rows and op.cols is cols and op.vals is vals
        assert np.array_equal(op.diag, neutral(phi, space))
        fields = [field.name for field in dataclasses.fields(op)]
        assert fields == ["space", "phi", "rows", "cols", "vals", "diag"]

    def test_diagonal_of_another_length_refused(self, random_setup):
        # a diagonal one short, without the vacuum's entry, would shift
        # every exported neutral entry by one position
        _, _, space, phi = random_setup
        op = full(phi, space)
        for diag in (op.diag[1:], np.append(op.diag, 0.0)):
            with pytest.raises(ValueError, match="diagonal does not match"):
                FieldOperator(space, phi, op.rows, op.cols, op.vals, diag)

    def test_triplets_of_unequal_lengths_refused(self):
        # two points, three atoms, depth 3 (24 entries): with one column
        # short, apply failed inside numpy on operands of shapes (24,) and (23,)
        measure = JumpMeasure((-1.0, 0.5, 2.0), (0.5, 1.0, 0.7))
        grid = GridSpace((0.7, 1.1))
        phi = TestFunction(grid, (0.9, -0.4))
        space = FockSpace(grid, measure, stieltjes(measure, 3), 3)
        op = full(phi, space)
        assert len(op.vals) == 24
        rows, cols, vals = op.rows, op.cols, op.vals
        for triplets in ((rows, cols[:-1], vals), (rows[1:], cols, vals), (rows, cols, vals[:-1])):
            with pytest.raises(ValueError, match="annihilation triplets differ in length"):
                FieldOperator(space, phi, *triplets, op.diag)

    def test_build_and_export_peak_near_what_it_stores(self):
        # G = 6, D = 4, 2,534 exported entries.  The operator stores 24 bytes
        # per annihilation entry, which also serves its creation entry, and 8
        # per diagonal entry: 12 or fewer per exported entry, where stored
        # creation triplets would make it 24.  Building and exporting peaked
        # at 168,623 bytes, 5.9 times the 28,632 stored: annihilation's
        # assembly temporaries and one chunk of formatted lines
        rng = np.random.default_rng(5)
        measure = random_measure(rng, 6)
        grid = GridSpace(tuple(rng.uniform(0.5, 1.5, 6)))
        phi = TestFunction(grid, tuple(rng.uniform(0.5, 1.5, 6)))
        space = FockSpace(grid, measure, stieltjes(measure, 6), 4)
        full(phi, space)  # builds the bases and the pairing weights, once
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            op = full(phi, space)
            entries = sum(chunk.count("\n") for chunk in export_lines(op).chunks())
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        entries -= len(export_lines(op).header)
        stored = op.rows.nbytes + op.cols.nbytes + op.vals.nbytes + op.diag.nbytes
        assert entries == 2534
        assert stored <= 12 * entries
        assert peak <= 7.0 * stored

    def test_zero_maps_to_zero(self, random_setup):
        _, _, space, phi = random_setup
        image = full(phi, space).apply(space.zero())
        assert np.all(image.values == 0.0)

    def test_space_mismatch_rejected(self, nu2, g1, random_setup):
        _, _, space, phi = random_setup
        other = FockSpace(g1, nu2, stieltjes(nu2, 2), 2)
        with pytest.raises(ValueError, match="mismatch"):
            full(phi, space).apply(other.vacuum())

    def test_first_moment_vanishes(self, nu2_space, g1):
        phi = constant(g1)
        op = full(phi, nu2_space)
        image = op.apply(nu2_space.vacuum())
        assert inner_product(nu2_space.vacuum(), image) == pytest.approx(0.0, abs=1e-14)


class TestVacuumMoments:
    def test_zeroth(self, nu2_space, g1):
        assert vacuum_moments(constant(g1), nu2_space, 0)[0] == 1.0

    def test_worked_values(self, nu2_space, g1):
        phi = constant(g1)
        moments = vacuum_moments(phi, nu2_space, 6)
        assert moments[2] == pytest.approx(2.0)
        assert moments[4] == pytest.approx(14.0)
        assert moments[6] == pytest.approx(182.0)

    def test_truncation_guard(self, nu2_space, g1):
        phi = constant(g1)
        with pytest.raises(ValueError, match="truncation too shallow"):
            vacuum_moments(phi, nu2_space, 14)
        assert len(vacuum_moments(phi, nu2_space, 13)) == 14

    @pytest.mark.parametrize("fault", [1.0, 1.5])
    def test_half_depth_matches_direct_powers(self, fault):
        # moments read from a depth k // 2 truncation must equal the vacuum
        # entry of the k-th power applied on a depth-k truncation, also for a
        # table that belongs to no measure (the identity only needs the
        # operator to be symmetric for the pairing weights)
        rng = np.random.default_rng(21)
        measure = random_measure(rng, 4)
        grid = GridSpace(tuple(rng.uniform(0.5, 2.0, 3)))
        phi = TestFunction(grid, tuple(rng.normal(0, 1, 3)))
        table = stieltjes(measure, 4)
        if fault != 1.0:
            table = table.with_scaled_b(1, fault)
        for k in range(11):
            deep = FockSpace(grid, measure, table, k)
            op = full(phi, deep)
            v = deep.vacuum()
            for _ in range(k):
                v = op.apply(v)
            shallow = FockSpace(grid, measure, table, k // 2)
            got = vacuum_moments(phi, shallow, k)[k]
            assert got == pytest.approx(float(v.values[0]), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_moment_identity_random(self, seed):
        rng = np.random.default_rng(seed)
        measure = random_measure(rng, 6)
        grid = GridSpace(tuple(rng.uniform(0.5, 2.0, 2)))
        space = FockSpace(grid, measure, stieltjes(measure, 6), 6)
        phi = TestFunction(grid, tuple(rng.normal(0, 1, 2)))
        model = CumulantModel(measure, grid)
        expected = [1.0] + moments_from_cumulants(
            [model.cumulant(phi, p) for p in range(1, 7)]
        )
        got = vacuum_moments(phi, space, 6)
        for k in range(7):
            assert got[k] == pytest.approx(expected[k], rel=1e-8, abs=1e-8)

    def test_moment_identity_high_order(self):
        # beyond the documented range: the identity stays exact through
        # order ten for a generic asymmetric measure
        rng = np.random.default_rng(13)
        measure = random_measure(rng, 12)
        grid = GridSpace((2.0,))
        space = FockSpace(grid, measure, stieltjes(measure, 10), 10)
        phi = constant(grid)
        model = CumulantModel(measure, grid)
        expected = [1.0] + moments_from_cumulants(
            [model.cumulant(phi, p) for p in range(1, 11)]
        )
        got = vacuum_moments(phi, space, 10)
        for k in range(11):
            assert got[k] == pytest.approx(expected[k], rel=1e-10)

    def test_hankel_positivity(self, random_setup):
        # the vacuum iterates generate a moment matrix of a probability
        # law; it must be positive semidefinite
        _, _, space, phi = random_setup
        op = full(phi, space)
        iterates = [space.vacuum()]
        for _ in range(space.depth // 2):
            iterates.append(op.apply(iterates[-1]))
        gram = np.array(
            [[inner_product(u, v) for v in iterates] for u in iterates]
        )
        eigenvalues = np.linalg.eigvalsh(gram)
        scale = max(1.0, float(np.max(np.abs(gram))))
        assert eigenvalues.min() >= -1e-10 * scale


def dense_pairing(space, apply):
    """Pairing matrix from one-hot images under ``apply``: entry [a, b] pairs
    the image of basis vector a with basis vector b."""
    weights = np.concatenate(
        [
            math.factorial(n) * space.weight(n, alpha) * rep_weights(alpha, space.grid)
            for n, alpha in space.block_keys()
        ]
    )
    images = np.array([apply(ExtendedFockVector(space, e)).values for e in np.eye(space.dim)])
    return images * weights


def part_pairing(space, entries):
    """:func:`dense_pairing` of one part, given by its entries."""
    return dense_pairing(space, lambda v: entries_apply(space, entries, v))


class TestSymmetryAndAdjointness:
    def test_defects_equal_dense_one_hot_reference(self, random_setup):
        # bit for bit: the entry-by-entry gaps are the dense matrix's, whose
        # one-hot images hold each entry alone
        _, _, space, phi = random_setup
        low = space.level_start(space.depth)
        pairing = part_pairing(space, neutral_part(phi, space))[:low, :low]
        scale = max(np.max(np.abs(pairing)), 1e-300)
        expected = np.max(np.abs(pairing - pairing.T)) / scale
        assert symmetry_defect(space, neutral(phi, space)) == expected

        minus = annihilation(phi, space)
        raised = part_pairing(space, creation_part(phi, space))[:low]
        lowered = part_pairing(space, minus).T[:low]
        scale = max(np.max(np.abs(raised)), np.max(np.abs(lowered)), 1e-300)
        expected = np.max(np.abs(raised - lowered)) / scale
        assert adjoint_defect(space, minus, creation(space, *minus)) == expected

    def test_neutral_is_symmetric(self, random_setup):
        # a diagonal pairing meets only itself: exactly zero
        _, _, space, phi = random_setup
        assert symmetry_defect(space, neutral(phi, space)) == 0.0

    def test_full_is_symmetric(self, random_setup):
        _, _, space, phi = random_setup
        low = space.level_start(space.depth)
        pairing = dense_pairing(space, full(phi, space).apply)[:low, :low]
        assert np.max(np.abs(pairing - pairing.T)) / np.max(np.abs(pairing)) <= 1e-10

    def test_creation_annihilation_adjoint_pair(self, random_setup):
        _, _, space, phi = random_setup
        minus = annihilation(phi, space)
        defect = adjoint_defect(space, minus, creation(space, *minus))
        assert defect <= 1e-10

    def test_adjoint_defect_needs_one_creation_value_per_entry(self, random_setup):
        # each creation value is compared with the annihilation entry it
        # transposes, so plus and vals must be as long
        _, _, space, phi = random_setup
        minus = annihilation(phi, space)
        plus = creation(space, *minus)
        for wrong in (plus[1:], np.append(plus, 1.0)):
            with pytest.raises(ValueError, match="annihilation entries"):
                adjoint_defect(space, minus, wrong)

    def test_symmetry_defect_refuses_a_diagonal_of_another_length(self, random_setup):
        # a diagonal in the old dim - 1 layout, without the vacuum's entry,
        # and one 5 entries too long both read 0.0
        _, _, space, phi = random_setup
        diag = neutral(phi, space)
        for wrong in (diag[1:], np.append(diag, np.ones(5))):
            with pytest.raises(ValueError, match="diagonal does not match the space's flat layout"):
                symmetry_defect(space, wrong)

    @pytest.mark.parametrize("where", ["vals", "diag"])
    def test_infinite_entry_gives_a_non_finite_defect(self, random_setup, where):
        _, _, space, phi = random_setup
        if where == "vals":
            minus = annihilation(phi, space)
            minus[2][0] = np.inf  # first entry: level 0 to 1
            defect = adjoint_defect(space, minus, creation(space, *minus))
        else:
            diag = neutral(phi, space)
            diag[1] = np.inf  # flat position 1
            defect = symmetry_defect(space, diag)
        assert not math.isfinite(defect)


SIX_ATOMS = ((-1.3, -0.4, 0.6, 1.1, 2.2, 3.1), (0.7, 1.2, 0.5, 0.9, 1.1, 0.8))
# (grid weights, phi, (atom locations, atom weights), depth)
REFERENCE_CASES = {
    "one-point": ((1.3,), (0.8,), SIX_ATOMS, 5),
    "two-point": ((0.7, 1.1), (0.9, -0.4), SIX_ATOMS, 4),
    "three-point": ((0.7, 1.1, 1.3), (0.9, -0.4, 1.2), SIX_ATOMS, 4),
    "table-exhausted": ((0.7, 1.1), (0.9, -0.4), ((-1.0, 0.5, 2.0), (0.5, 1.0, 0.7)), 5),
    # the two-singleton representative (0, 1) has a zero phi sum
    "zero-segment-sum": ((0.7, 1.1), (1.0, -1.0), SIX_ATOMS, 4),
    # some creation values underflow to exactly zero
    "subnormal-phi": ((0.7, 1.1), (5e-324, -0.4), SIX_ATOMS, 3),
    "export-wide-11": None,
}


def reference_operator(name: str, monkeypatch) -> FieldOperator:
    """The full operator of one reference case, on a space whose table
    stops at the atom count."""
    case = REFERENCE_CASES[name]
    if case is None:  # the benchmark's export workload at seed 11
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        import workloads

        inputs = workloads.WORKLOADS["export-wide"].generate(11)
        case = (inputs.grid_weights, inputs.phi, inputs.measure[1:], inputs.depth)
    weights, values, (locations, masses), depth = case
    measure, grid = JumpMeasure(locations, masses), GridSpace(weights)
    space = FockSpace(grid, measure, stieltjes(measure, min(depth, len(locations))), depth)
    return full(TestFunction(grid, values), space)


@pytest.mark.parametrize("name", REFERENCE_CASES)
class TestAgainstReference:
    """The stored annihilation part and diagonal, with the creation part
    derived where it is used, against a reference that forms all three
    parts' entries, exact zeros dropped, applies them by one bincount and
    exports them by one global sort."""

    def test_export_lines(self, name, monkeypatch):
        op = reference_operator(name, monkeypatch)
        export = export_lines(op)
        assert list(export)[len(export.header) :] == operator_export_entries(op)

    def test_apply_bit_for_bit(self, name, monkeypatch):
        op = reference_operator(name, monkeypatch)
        space = op.space
        v = space.vacuum()
        for _ in range(space.depth + 1):  # the vacuum iterates of the moments
            image = op.apply(v).values
            assert image.tobytes() == operator_apply(op, v.values).tobytes()
            v = ExtendedFockVector(space, image)
        rng = np.random.default_rng(8)
        for _ in range(3):
            x = rng.normal(0, 1, space.dim)
            image = op.apply(ExtendedFockVector(space, x)).values
            assert image.tobytes() == operator_apply(op, x).tobytes()


def test_zero_diagonal_entries_are_absent(monkeypatch):
    op = reference_operator("zero-segment-sum", monkeypatch)
    zeros = np.flatnonzero(op.diag[1:] == 0.0) + 1
    assert len(zeros) > 0
    export = list(export_lines(op))
    assert not any(line.endswith(" 0") for line in export)
    x = np.random.default_rng(9).normal(0, 1, op.space.dim)
    x[zeros] = math.inf  # a present entry would give 0 * inf = nan there
    with np.errstate(invalid="ignore"):
        image = op.apply(ExtendedFockVector(op.space, x)).values
        expected = operator_apply(op, x)
    assert np.array_equal(image, expected, equal_nan=True)
    assert not np.any(np.isnan(image[zeros]))


def test_underflowing_creation_values_are_not_exported(monkeypatch):
    op = reference_operator("subnormal-phi", monkeypatch)
    entries = sum(not line.startswith("#") for line in export_lines(op))
    assert entries == len(operator_entries(op)[2])
    assert entries < 2 * len(op.vals) + np.count_nonzero(op.diag)


class TestExport:
    def test_header_and_determinism(self, random_setup):
        measure, grid, space, phi = random_setup
        op = full(phi, space)
        lines = list(export_lines(op))
        assert lines[0].startswith("#")
        header = "\n".join(line for line in lines if line.startswith("#"))
        assert f"measure-hash {measure_hash(measure)}" in header
        assert f"depth {space.depth}" in header
        assert list(export_lines(full(phi, space))) == lines

    def test_export_iterates_twice(self, random_setup):
        # a consumer may read the export before it is written out
        _, _, space, phi = random_setup
        export = export_lines(full(phi, space))
        lines = list(export)
        assert len(lines) > len(export.header)
        assert list(export) == lines
        assert "".join(export.chunks()) == "".join(line + "\n" for line in lines)

    @pytest.mark.parametrize("chunk", [1, 3, 7, 4096])
    def test_value_text_matches_per_entry_format(self, random_setup, monkeypatch, chunk):
        # neighbouring doubles, signs, extremes and values repeated in
        # several chunks, with chunk boundaries anywhere in the pattern
        monkeypatch.setattr(jacobi, "_EXPORT_CHUNK", chunk)
        _, _, space, phi = random_setup
        op = full(phi, space)
        third = 1.0 / 3.0
        pattern = [
            third,
            np.nextafter(third, 1.0),
            np.nextafter(third, 0.0),
            -third,
            1e-300,
            -1e-300,
            1e300,
            -1e300,
            5e-324,
            math.inf,
            -math.inf,
            math.nan,
            third,
            1e-300,
        ]
        vals = np.resize(np.array(pattern), len(op.vals))
        diag = np.resize(np.array(pattern[::-1]), len(op.diag))
        odd = FieldOperator(space, phi, op.rows, op.cols, vals, diag)
        export = export_lines(odd)
        with np.errstate(over="ignore"):  # a creation value of 1e300 may overflow to inf
            assert list(export)[len(export.header) :] == operator_export_entries(odd)

    def test_entries_reconstruct_application(self, nu2, g1):
        space = FockSpace(g1, nu2, stieltjes(nu2, 2), 3)
        phi = constant(g1)
        op = full(phi, space)
        entries = [line.split() for line in export_lines(op) if not line.startswith("#")]
        keys = space.block_keys()
        alpha_at = {}
        for level in range(space.depth + 1):
            for j, alpha in enumerate(space.blocks(level)):
                alpha_at[(level, j)] = alpha
        image = space.zero()
        v = op.apply(space.vacuum())  # reference
        for src_l, src_a, src_t, dst_l, dst_a, dst_t, value in entries:
            src_key = (int(src_l), alpha_at[(int(src_l), int(src_a))])
            if src_key == VACUUM and int(src_t) == 0:
                dst_key = (int(dst_l), alpha_at[(int(dst_l), int(dst_a))])
                image[dst_key][int(dst_t)] += float(value)
        for key in keys:
            assert image[key] == pytest.approx(v[key])


class _Assembled(Exception):
    """Raised where assembly would start enumerating blocks."""


class TestSizePreflight:
    def test_bound_closed_form(self, nu2, g1):
        # one grid point, depth 2: rows 1 + 1 at levels 0 and 1 (blocks
        # (), (1)), each with one contraction; the (1) row adds one promotion
        space = FockSpace(g1, nu2, stieltjes(nu2, 2), 2)
        assert space.dim == 4
        assert space.entry_bound() == 4 + 2 * (1 * 1 + 1 * 2)

    def test_oversize_refused_before_assembly(self, monkeypatch):
        # G = 64 at depth 6: up to 2,194,689,425 entries; the space itself
        # refuses, so no basis is requested and no operator can be built
        def assembled(self, alpha):
            raise _Assembled(alpha)

        monkeypatch.setattr(FockSpace, "basis", assembled)
        rng = np.random.default_rng(3)
        measure = random_measure(rng, 6)
        grid = GridSpace(tuple(rng.uniform(0.5, 1.5, 64)))
        with pytest.raises(ValueError, match="up to 2,194,689,425 operator entries"):
            FockSpace(grid, measure, stieltjes(measure, 6), 6)
