"""The block bases and representatives against a tuple-by-tuple reference.

The reference takes its representatives from the ``itertools``
enumeration of ``conftest.block_reps`` and counts rearrangements with
``Counter``, one tuple at a time, as a direct reading of the definitions;
the library gathers the same representatives from the space's tables of
sorted tuples by segment rank, and counts with run lengths and binomial
ranks.
"""
from __future__ import annotations

import functools
import itertools
import math

import numpy as np
import pytest

from levyfock import FockSpace, GridSpace, JumpMeasure, MultiIndex, SymmetricTensor, stieltjes
from levyfock.fock import _multiplicity, block_basis, partitions, segment_rank

from conftest import (
    alpha_id,
    at,
    block_reps,
    rep_weights,
    restriction,
    segment_bounds,
    sorted_tuples,
    sym_at,
    symmetric_dim,
    symmetric_from,
)

GRIDS = [
    GridSpace((2.0,)),
    GridSpace((0.8, 1.4)),
    GridSpace((0.7, 1.1, 1.3)),
    GridSpace((0.55, 1.3, 0.9, 1.7, 1.05)),
]
BLOCKS = [alpha for n in range(7) for alpha in partitions(n)]


@functools.cache
def space_on(grid: GridSpace) -> FockSpace:
    """A depth-6 space over ``grid`` that holds every block of ``BLOCKS``."""
    measure = JumpMeasure((-1.3, -0.4, 0.6, 1.1, 2.2, 3.1), (0.7, 1.2, 0.5, 0.9, 1.1, 0.8))
    return FockSpace(grid, measure, stieltjes(measure, 6), 6)


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"G{g.size}")
@pytest.mark.parametrize("alpha", BLOCKS, ids=alpha_id)
def test_matches_reference(alpha, grid):
    space = space_on(grid)
    basis = space.basis(alpha)
    reps = block_reps(alpha, grid)
    got = space.representatives(alpha)
    assert list(map(tuple, got.tolist())) == reps
    assert got.shape == (len(reps), alpha.size)
    rep = space.flat_weights[1][space.block_slice(alpha.degree, alpha)]
    assert rep.tobytes() == rep_weights(alpha, grid).tobytes()
    assert basis.dim == len(reps)
    ranks = [segment_rank(got[:, s:e], grid.size) for s, e in segment_bounds(alpha)]
    assert np.array_equal(basis.compose(ranks, basis.dim), np.arange(basis.dim))
    composed = basis.compose(basis.segment_ranks(), basis.dim)
    assert np.array_equal(composed, np.arange(basis.dim))
    # each segment is gathered from the table of its part count at its rank
    segments = zip(segment_bounds(alpha), alpha.multiplicities, basis.segment_ranks())
    for (s, e), m, rank in segments:
        assert np.array_equal(space.tuples(m)[rank], got[:, s:e])


@pytest.mark.parametrize("alpha", [MultiIndex((2, 0, 1)), MultiIndex((1, 2)), MultiIndex((3,))])
def test_value_reads_unsorted_tuples(alpha):
    grid = GRIDS[2]
    reps = space_on(grid).representatives(alpha)
    values = np.random.default_rng(4).normal(0, 1, len(reps))
    shuffle = np.random.default_rng(5)
    for i, rep in enumerate(reps.tolist()):
        segments = [list(rep[s:e]) for s, e in segment_bounds(alpha)]
        for segment in segments:
            shuffle.shuffle(segment)
        assert at(values, alpha, grid, tuple(itertools.chain.from_iterable(segments))) == values[i]


def test_value_rejects_foreign_tuples():
    grid = GRIDS[1]
    alpha = MultiIndex((1, 1))
    zeros = np.zeros(block_basis(alpha, grid).dim)
    tensor = symmetric_from(grid, 2, lambda rep: 0.0)
    for bad in [(0,), (0, 1, 1), (0, 2), (-1, 0)]:
        with pytest.raises(KeyError):
            at(zeros, alpha, grid, bad)
        with pytest.raises(KeyError):
            sym_at(tensor, bad)


def reference_restriction(f: SymmetricTensor, alpha: MultiIndex) -> np.ndarray:
    """Diagonal restriction one representative at a time: expand each part-k
    coordinate k times and read the tensor at the expanded tuple."""
    values = []
    for rep in block_reps(alpha, f.grid):
        expanded: list[int] = []
        for k, (s, e) in enumerate(segment_bounds(alpha), start=1):
            for p in rep[s:e]:
                expanded.extend([p] * k)
        values.append(sym_at(f, expanded))
    return np.array(values)


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"G{g.size}")
@pytest.mark.parametrize("alpha", BLOCKS, ids=alpha_id)
def test_diagonal_restriction_matches_reference(alpha, grid):
    rng = np.random.default_rng(7)
    n = alpha.degree
    f = SymmetricTensor(grid, n, rng.normal(0, 1, symmetric_dim(n, grid)))
    got = restriction(f, alpha)
    assert got.tobytes() == reference_restriction(f, alpha).tobytes()


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"G{g.size}")
def test_symmetric_basis_is_the_all_singletons_block(grid):
    # a level-n tensor is stored in the layout of block (n,): same tuples,
    # and embedding it leaves its values unchanged in that block
    rng = np.random.default_rng(9)
    for n in range(5):
        singletons = MultiIndex((n,))
        reps = space_on(grid).representatives(singletons)
        assert list(map(tuple, reps.tolist())) == sorted_tuples(grid.size, n)
        f = SymmetricTensor(grid, n, rng.normal(0, 1, symmetric_dim(n, grid)))
        assert restriction(f, singletons).tobytes() == f.values.tobytes()
    with pytest.raises(ValueError, match="level must be nonnegative"):
        SymmetricTensor(grid, -1, np.zeros(1))


def test_symmetric_tensor_rejects_negative_level():
    grid = GRIDS[1]
    with pytest.raises(ValueError, match="level must be nonnegative"):
        SymmetricTensor(grid, -1, np.zeros(1))
    with pytest.raises(ValueError, match="level must be nonnegative"):
        SymmetricTensor.basis_element(grid, -1, 0)


def test_multiplicity_past_int64_factorials():
    # 21 distinct coordinates: 21! exceeds int64, the count must stay exact
    assert _multiplicity(np.arange(21)[None, :], (21,), 21).tolist() == [
        float(math.factorial(21))
    ]
