"""Combinatorial backbone of the truncated extended Fock space.

A level-n slot of the space splits into blocks indexed by the integer
partitions of n in multiplicity form: a block whose index has
``alpha[k]`` parts of size ``k + 1`` stores a function of ``size(alpha)``
grid variables, symmetric within each group of equal part size.  Values
are kept only on representative tuples (coordinates sorted inside each
group, groups laid out in increasing part size); inner products restore
the full tuple sums through permutation counts.

A vector of the space is one flat array: blocks follow each other in
level order, each level's blocks in reverse-lexicographic multiplicity
order, and each block holds its representatives in lexicographic tuple
order.  The space owns that layout, one slice per block, and sizes the
slices from the closed-form block dimensions, so building it enumerates
no representative.  It also owns the pairing: one weight per flat
position, built on first use and read by every inner product, defect
and the creation transpose; spaces on one grid and table share the
layout of their common levels.  A block basis holds its representatives
as one integer array, one row each, built from one array of sorted
tuples per part size.  A representative's position needs no lookup
table: it is the mixed-radix number, in part-size order, of each
segment's lexicographic rank, and that rank is a sum of binomial
coefficients.  A plain symmetric level-n tensor is the all-singletons
block of level n, so it uses that block's basis; its diagonal
restriction to any other block of level n is one gather.  Summations
run in enumeration order, so vectors, operators and reports are
bit-stable across runs.  All inputs are immutable, so concurrent use is
safe; results are identical to sequential execution.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Iterator

import numpy as np

from .measures import GridSpace, JumpMeasure
from .orthopoly import RecurrenceTable

__all__ = [
    "MultiIndex",
    "partitions",
    "block_weight",
    "BlockBasis",
    "block_basis",
    "segment_rank",
    "symmetric_basis",
    "SymmetricTensor",
    "BlockTensor",
    "diagonal_restriction",
    "block_symmetrize",
    "FockSpace",
    "ExtendedFockVector",
    "inner_product",
    "level_inner_product",
]


@dataclass(frozen=True)
class MultiIndex:
    """Multiplicity encoding of an integer partition.

    ``multiplicities[k - 1]`` counts the parts of size ``k``; trailing
    zeros are trimmed so equal partitions compare equal.
    """

    multiplicities: tuple[int, ...] = ()

    def __post_init__(self):
        mults = tuple(int(m) for m in self.multiplicities)
        if any(m < 0 for m in mults):
            raise ValueError("multiplicities must be nonnegative")
        while mults and mults[-1] == 0:
            mults = mults[:-1]
        object.__setattr__(self, "multiplicities", mults)

    @property
    def degree(self) -> int:
        """Total degree: sum of part size times multiplicity."""
        return sum((k + 1) * m for k, m in enumerate(self.multiplicities))

    @property
    def size(self) -> int:
        """Number of parts, i.e. number of block coordinates."""
        return sum(self.multiplicities)

    @property
    def max_part(self) -> int:
        return len(self.multiplicities)

    def count(self, k: int) -> int:
        """Multiplicity of part size ``k`` (1-based)."""
        if k < 1:
            raise ValueError("part sizes are 1-based")
        return self.multiplicities[k - 1] if k <= self.max_part else 0

    def parts(self) -> Iterator[tuple[int, int]]:
        """Yield ``(part size, multiplicity)`` for every nonzero entry."""
        for k, m in enumerate(self.multiplicities, start=1):
            if m:
                yield k, m

    def raised(self, k: int) -> MultiIndex:
        """Index with one more part of size ``k``."""
        if k < 1:
            raise ValueError("part sizes are 1-based")
        mults = list(self.multiplicities) + [0] * max(0, k - self.max_part)
        mults[k - 1] += 1
        return MultiIndex(tuple(mults))

    def lowered(self, k: int) -> MultiIndex | None:
        """Index with one fewer part of size ``k``, or None if there is none."""
        if self.count(k) < 1:
            return None
        mults = list(self.multiplicities)
        mults[k - 1] -= 1
        return MultiIndex(tuple(mults))

    def __str__(self) -> str:
        if not self.multiplicities:
            return "-"
        return ",".join(str(m) for m in self.multiplicities)


def _partition_parts(n: int, largest: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partition_parts(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def partitions(n: int, max_part: int | None = None) -> tuple[MultiIndex, ...]:
    """All multi-indices of degree ``n``, largest part capped if requested.

    Ordered reverse-lexicographically on the multiplicity vectors, so the
    all-singletons index comes first and the single-large-part index last.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    cap = n if max_part is None else min(max_part, n)
    if n == 0:
        return (MultiIndex(()),)
    if cap < 1:
        return ()
    found = []
    for parts in _partition_parts(n, cap):
        counts = Counter(parts)
        mults = tuple(counts.get(k, 0) for k in range(1, max(parts) + 1))
        found.append(MultiIndex(mults))
    found.sort(key=lambda a: a.multiplicities + (0,) * (n - a.max_part), reverse=True)
    return tuple(found)


def block_weight(alpha: MultiIndex, table: RecurrenceTable) -> float:
    """Inner-product weight of one block.

    The multinomial count of the parts times, for every part of size k,
    the squared norm of the degree-(k-1) monic polynomial divided by the
    squared factorial of k.
    """
    if alpha.max_part > table.depth:
        raise ValueError(
            f"recurrence table of depth {table.depth} too shallow for parts of size "
            f"{alpha.max_part}"
        )
    weight = float(math.factorial(alpha.degree))
    for k, m in alpha.parts():
        weight /= math.factorial(m)
        weight *= (table.norm_sq[k - 1] / math.factorial(k) ** 2) ** m
    return weight


def _combinations(size: int, m: int) -> np.ndarray:
    """Sorted m-tuples of grid points ``0 .. size - 1``, one per row, in
    lexicographic order."""
    count = math.comb(size + m - 1, m)
    flat = itertools.chain.from_iterable(
        itertools.combinations_with_replacement(range(size), m)
    )
    return np.fromiter(flat, dtype=np.intp, count=count * m).reshape(count, m)


def _digits(radix: tuple[int, ...]) -> list:
    """Mixed-radix digits of ``0 .. prod(radix) - 1``, most significant first;
    a digit of base 1 is the scalar 0."""
    count = math.prod(radix)
    digits = []
    period = count
    for base in radix:
        inner = period // base
        if base == 1:
            digits.append(0)
        else:
            digits.append(np.repeat(np.arange(base), inner)[np.arange(count) % period])
        period = inner
    return digits


@lru_cache(maxsize=None)
def _rank_terms(size: int, m: int) -> np.ndarray:
    """Table T with ``segment_rank = sum_j T[x_j + j, j]``: the negated
    binomial terms, with the constant folded into column 0."""
    top = size + m - 1
    table = np.array(
        [[-math.comb(top - 1 - a, m - j) for j in range(m)] for a in range(top)],
        dtype=np.int64,
    ).reshape(top, m)
    if m:
        table[:, 0] += math.comb(top, m) - 1
    return table


def segment_rank(tuples: np.ndarray, size: int) -> np.ndarray:
    """Lexicographic position of sorted m-tuples among all sorted m-tuples of
    ``size`` grid points; the tuples run along the last axis.

    Shifting coordinate j by j maps sorted tuples one to one onto strictly
    increasing m-subsets of ``0 .. N - 1`` with ``N = size + m - 1``, whose
    rank is ``C(N, m) - 1 - sum_j C(N - 1 - (x_j + j), m - j)``.
    """
    j = np.arange(tuples.shape[-1])
    return _rank_terms(size, len(j))[tuples + j, j].sum(axis=-1)


def _multiplicity(reps: np.ndarray, offsets, size: int) -> np.ndarray:
    """Distinct within-segment rearrangements of each row of sorted segments
    over ``size`` grid points.

    Per segment this is ``m! / prod(run length!)``, built one column at a
    time as a running integer ratio: after each column it is the count for
    the prefix, so every step divides exactly.
    """
    if size == 1:  # one grid point: every tuple is its only arrangement
        return np.ones(len(reps))
    exact = reps.shape[1] <= 18  # running counts stay below 18! < 2**53, exact as floats
    equal = np.eye(size, dtype=float if exact else object)  # 1 where two points coincide
    mult = np.ones(len(reps), dtype=equal.dtype)
    for start, stop in offsets:
        run = np.ones(len(reps), dtype=equal.dtype)
        for j in range(start + 1, stop):
            run = equal[reps[:, j], reps[:, j - 1]] * run + 1
            mult = mult * (j - start + 1)
            mult = mult / run if exact else mult // run
    return mult.astype(float)


def _weight_product(reps: np.ndarray, weights: tuple[float, ...]) -> np.ndarray:
    """Product of the grid weights along each row, left to right."""
    w = np.array(weights)
    sigma = np.ones(len(reps))
    for j in range(reps.shape[1]):
        sigma = sigma * w[reps[:, j]]
    return sigma


@dataclass
class BlockBasis:
    """Representative-tuple enumeration of one block over one grid.

    ``reps`` holds one representative per row (grid point indices), sorted
    within each same-part-size segment; ``mult`` counts the distinct
    within-segment rearrangements of each representative and ``sigma`` is
    its product of grid weights, so ``weight = mult * sigma`` turns sums
    over representatives into sums over all tuples.  A representative's
    position is the mixed-radix number of its segments' lexicographic
    ranks, most significant first, with digit bases ``radix``.
    """

    alpha: MultiIndex
    grid: GridSpace
    reps: np.ndarray
    mult: np.ndarray
    sigma: np.ndarray
    weight: np.ndarray
    offsets: tuple[tuple[int, int], ...]  # (start, stop) per part size, 1-based list
    radix: tuple[int, ...]  # number of sorted tuples per part size

    @property
    def dim(self) -> int:
        return len(self.reps)

    def segment_ranks(self) -> list:
        """Per part size, the segment's lexicographic rank for every
        representative; the scalar 0 where the part size has a single sorted
        tuple."""
        return _digits(self.radix)

    def compose(self, ranks, shape, start: int = 0) -> np.ndarray:
        """Positions, as an array of ``shape`` counted from ``start``, of the
        representatives with the given per-segment ranks (each broadcasting
        to ``shape``)."""
        index = np.full(shape, start, dtype=np.intp)
        stride = self.dim
        for rank, base in zip(ranks, self.radix):
            stride //= base
            if base > 1:  # a part size with a single sorted tuple adds no digit
                index += rank * stride
        return index

    def rank(self, tuples: np.ndarray) -> np.ndarray:
        """Positions of tuples given one per row, sorted within each segment."""
        size = self.grid.size
        ranks = [segment_rank(tuples[:, start:stop], size) for start, stop in self.offsets]
        return self.compose(ranks, len(tuples))

    def position(self, tpl: tuple[int, ...]) -> int:
        """Position of an arbitrary tuple in this block's layout, each
        segment sorted first; ``KeyError`` for a tuple outside the block."""
        if len(tpl) != self.alpha.size or not all(0 <= p < self.grid.size for p in tpl):
            raise KeyError(tpl)
        rep = itertools.chain.from_iterable(sorted(tpl[s:e]) for s, e in self.offsets)
        row = np.fromiter(rep, dtype=np.intp, count=len(tpl)).reshape(1, len(tpl))
        return int(self.rank(row)[0])


@lru_cache(maxsize=None)
def block_basis(alpha: MultiIndex, grid: GridSpace) -> BlockBasis:
    offsets = []
    start = 0
    for m in alpha.multiplicities:
        offsets.append((start, start + m))
        start += m
    segments = [_combinations(grid.size, m) for m in alpha.multiplicities]
    radix = tuple(len(segment) for segment in segments)
    dim = math.prod(radix)
    reps = np.empty((dim, alpha.size), dtype=np.intp)
    for (start, stop), segment, rank in zip(offsets, segments, _digits(radix)):
        reps[:, start:stop] = segment[rank]
    mult = _multiplicity(reps, offsets, grid.size)
    sigma = _weight_product(reps, grid.weights)
    return BlockBasis(
        alpha=alpha,
        grid=grid,
        reps=reps,
        mult=mult,
        sigma=sigma,
        weight=mult * sigma,
        offsets=tuple(offsets),
        radix=radix,
    )


def symmetric_basis(level: int, grid: GridSpace) -> BlockBasis:
    """Sorted-tuple enumeration of fully symmetric level-n functions: the
    block basis of the all-singletons index."""
    if level < 0:
        raise ValueError("level must be nonnegative")
    return block_basis(MultiIndex((level,)), grid)


@dataclass
class SymmetricTensor:
    """Fully symmetric function of ``level`` grid variables.

    Values are stored on sorted tuples in lexicographic order, the
    all-singletons block basis; arbitrary tuples are looked up after
    sorting.
    """

    grid: GridSpace
    level: int
    values: np.ndarray
    basis: BlockBasis = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.basis = symmetric_basis(self.level, self.grid)
        if self.values.shape != (self.basis.dim,):
            raise ValueError("value array does not match the sorted-tuple basis")

    def value(self, tpl: tuple[int, ...]) -> float:
        return float(self.values[self.basis.position(tpl)])

    @classmethod
    def zeros(cls, grid: GridSpace, level: int) -> SymmetricTensor:
        return cls(grid, level, np.zeros(symmetric_basis(level, grid).dim))

    @classmethod
    def from_function(
        cls, grid: GridSpace, level: int, fn: Callable[[tuple[int, ...]], float]
    ) -> SymmetricTensor:
        reps = symmetric_basis(level, grid).reps.tolist()
        return cls(grid, level, np.array([float(fn(tuple(rep))) for rep in reps]))

    @classmethod
    def basis_element(cls, grid: GridSpace, level: int, idx: int) -> SymmetricTensor:
        values = np.zeros(symmetric_basis(level, grid).dim)
        values[idx] = 1.0
        return cls(grid, level, values)


@dataclass
class BlockTensor:
    """Block-symmetric function stored on the representatives of one block."""

    grid: GridSpace
    alpha: MultiIndex
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (block_basis(self.alpha, self.grid).dim,):
            raise ValueError("value array does not match the block basis")

    @property
    def basis(self) -> BlockBasis:
        return block_basis(self.alpha, self.grid)

    def value(self, tpl: tuple[int, ...]) -> float:
        """Value at an arbitrary tuple in this block's layout."""
        return float(self.values[self.basis.position(tpl)])


def _sort_rows(rows: np.ndarray) -> None:
    """Sort every row in place by odd-even transposition: one pass per
    column, each a pairwise minimum and maximum of neighbouring columns."""
    width = rows.shape[1]
    for step in range(width):
        lo, hi = rows[:, step % 2 : width - 1 : 2], rows[:, step % 2 + 1 : width : 2]
        lo[:], hi[:] = np.minimum(lo, hi), np.maximum(lo, hi)


def diagonal_restriction(f: SymmetricTensor, alpha: MultiIndex) -> BlockTensor:
    """Block coordinate of a symmetric tensor: each part-k coordinate repeated k times.

    The layout follows the block convention: singleton coordinates first,
    then the coordinates repeated twice, and so on.  Each block
    representative expands to a level-``f.level`` tuple, sorted and ranked
    in the symmetric basis.
    """
    if alpha.degree != f.level:
        raise ValueError(
            f"degree mismatch: block index has degree {alpha.degree}, tensor level {f.level}"
        )
    basis = block_basis(alpha, f.grid)
    repeats = [k for k, (s, e) in enumerate(basis.offsets, start=1) for _ in range(s, e)]
    expanded = np.repeat(basis.reps, repeats, axis=1)
    _sort_rows(expanded)
    return BlockTensor(f.grid, alpha, f.values[f.basis.rank(expanded)])


def block_symmetrize(
    fn: Callable[[tuple[int, ...]], float], alpha: MultiIndex, grid: GridSpace
) -> BlockTensor:
    """Average a raw function of ``size(alpha)`` grid variables within blocks.

    Orthogonal projection onto the block-symmetric subspace: for every
    representative, the mean of ``fn`` over all products of within-segment
    coordinate permutations.  Idempotent by construction.
    """
    basis = block_basis(alpha, grid)
    values = np.empty(basis.dim)
    for i, rep in enumerate(basis.reps.tolist()):
        segs = [rep[s:e] for s, e in basis.offsets]
        total = 0.0
        count = 0
        for perm in itertools.product(*(itertools.permutations(seg) for seg in segs)):
            total += fn(tuple(itertools.chain.from_iterable(perm)))
            count += 1
        values[i] = total / count
    return BlockTensor(grid, alpha, values)


class FockSpace:
    """Truncated extended Fock space over a grid, a measure, and its table.

    Levels run ``0 .. depth``.  Blocks are representable only while the
    recurrence table covers their largest part, so the table must either
    reach the truncation depth or exhaust the measure (depth equal to the
    atom count).  In the exhausted case the omitted blocks carry exactly
    zero inner-product weight -- the squared polynomial norms vanish on a
    finite support -- so dropping them changes nothing.

    The flat layout gives every block a slice of length
    ``prod_k C(G + m_k - 1, m_k)`` over its multiplicities ``m_k`` (G grid
    points): one sorted tuple of grid points per part size.
    """

    def __init__(
        self,
        grid: GridSpace,
        measure: JumpMeasure,
        table: RecurrenceTable,
        depth: int,
    ):
        if depth < 0:
            raise ValueError("truncation depth must be nonnegative")
        if table.depth < depth and table.depth < measure.atom_count:
            raise ValueError(
                f"recurrence table of depth {table.depth} too shallow for truncation "
                f"depth {depth} (the measure supports depth {measure.atom_count})"
            )
        self.grid = grid
        self.measure = measure
        self.table = table
        self.depth = depth
        self.max_part = table.depth
        self.mass = table.norm_sq[0]
        self._blocks = {
            n: partitions(n, max_part=self.max_part) for n in range(depth + 1)
        }
        self._weights = {
            (n, alpha): block_weight(alpha, table)
            for n, alphas in self._blocks.items()
            for alpha in alphas
        }
        self._slices: dict[tuple[int, MultiIndex], slice] = {}
        stop = 0
        for key in self._weights:
            start = stop
            stop += math.prod(math.comb(grid.size + m - 1, m) for m in key[1].multiplicities)
            self._slices[key] = slice(start, stop)
        self.dim = stop

    def blocks(self, n: int) -> tuple[MultiIndex, ...]:
        if not 0 <= n <= self.depth:
            raise ValueError(f"level {n} outside the truncation of depth {self.depth}")
        return self._blocks[n]

    def block_keys(self) -> list[tuple[int, MultiIndex]]:
        return [(n, alpha) for n in range(self.depth + 1) for alpha in self._blocks[n]]

    def block_slice(self, n: int, alpha: MultiIndex) -> slice:
        """Positions of the block's representatives in the flat layout."""
        return self._slices[(n, alpha)]

    def weight(self, n: int, alpha: MultiIndex) -> float:
        return self._weights[(n, alpha)]

    def basis(self, alpha: MultiIndex) -> BlockBasis:
        return block_basis(alpha, self.grid)

    @cached_property
    def flat_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Level weight ``n! * weight(n, alpha)`` and representative weight
        ``mult * sigma`` at every flat position; their product is the
        squared norm of that position's basis vector; built on first use."""
        level = np.empty(self.dim)
        rep = np.empty(self.dim)
        for (n, alpha), span in self._slices.items():
            level[span] = math.factorial(n) * self._weights[(n, alpha)]
            rep[span] = self.basis(alpha).weight
        return level, rep

    def level_start(self, n: int) -> int:
        """Number of flat positions below level ``n``."""
        return self.dim if n > self.depth else self.block_slice(n, self.blocks(n)[0]).start

    def entry_bound(self) -> int:
        """Upper bound on the stored entries of the full field operator.

        Closed form, with no enumeration: an annihilation row in block
        beta below the top level holds at most G grid contractions plus
        ``size(beta)`` promotions, creation stores as many entries as
        annihilation, and the neutral part is the diagonal.
        """
        rows = sum(
            (span.stop - span.start) * (self.grid.size + alpha.size)
            for (n, alpha), span in self._slices.items()
            if n < self.depth
        )
        return self.dim + 2 * rows

    def compatible(self, other: FockSpace) -> bool:
        return (
            self.grid == other.grid
            and self.table == other.table
            and self.depth == other.depth
        )

    def zero(self) -> ExtendedFockVector:
        return ExtendedFockVector(self, np.zeros(self.dim))

    def vacuum(self) -> ExtendedFockVector:
        v = self.zero()
        v.values[0] = 1.0  # level zero holds one block of one representative
        return v

    def embed_symmetric(self, f: SymmetricTensor) -> ExtendedFockVector:
        """Level-``f.level`` vector whose blocks are the diagonal restrictions of ``f``."""
        if f.level > self.depth:
            raise ValueError("tensor level exceeds the truncation depth")
        if f.grid != self.grid:
            raise ValueError("grid mismatch")
        v = self.zero()
        for alpha in self.blocks(f.level):
            v[f.level, alpha][:] = diagonal_restriction(f, alpha).values
        return v


@dataclass
class ExtendedFockVector:
    """Element of a truncated extended Fock space: one array in the space's
    flat layout.  ``v[n, alpha]`` is a view of block ``(n, alpha)``."""

    space: FockSpace
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.space.dim,):
            raise ValueError("value array does not match the space's flat layout")

    def __getitem__(self, key: tuple[int, MultiIndex]) -> np.ndarray:
        return self.values[self.space.block_slice(*key)]

    def __add__(self, other: ExtendedFockVector) -> ExtendedFockVector:
        if other.space is not self.space and not self.space.compatible(other.space):
            raise ValueError("vectors live in different spaces")
        return ExtendedFockVector(self.space, self.values + other.values)


def _check_pairing(f: ExtendedFockVector, g: ExtendedFockVector) -> None:
    if f.space.grid != g.space.grid:
        raise ValueError("grid mismatch")
    if f.space.table != g.space.table:
        raise ValueError("recurrence table mismatch")


def level_inner_product(f: ExtendedFockVector, g: ExtendedFockVector, n: int) -> float:
    """Single-level inner product: block weights, no factorial level weight.
    Summed block by block (level-3 oracle reports are pinned to that order)."""
    _check_pairing(f, g)
    g.space.blocks(n)  # the level must lie in both truncations
    rep = f.space.flat_weights[1]
    total = 0.0
    for alpha in f.space.blocks(n):
        total += f.space.weight(n, alpha) * float(
            np.dot(rep[f.space.block_slice(n, alpha)] * f[n, alpha], g[n, alpha])
        )
    return total


def inner_product(f: ExtendedFockVector, g: ExtendedFockVector) -> float:
    """Full-space inner product over the common levels: one ``math.fsum``."""
    _check_pairing(f, g)
    level, rep = min(f.space, g.space, key=lambda s: s.dim).flat_weights
    return math.fsum(level * rep * f.values[: len(level)] * g.values[: len(level)])
