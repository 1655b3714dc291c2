"""Combinatorial backbone of the truncated extended Fock space.

A level-n slot of the space splits into blocks indexed by the integer
partitions of n in multiplicity form: a block whose index has
``alpha[k]`` parts of size ``k + 1`` stores a function of ``size(alpha)``
grid variables, symmetric within each group of equal part size.  Values
are kept only on representative tuples (coordinates sorted inside each
group, groups laid out in increasing part size); inner products restore
the full tuple sums through permutation counts.

A vector of the space is one flat array: blocks follow each other in level
order, each level's blocks in reverse-lexicographic multiplicity order,
and each block holds its representatives in lexicographic tuple order.  The
space owns that layout and keeps one slice per block, nothing else; its
blocks die with it.  It counts the blocks, their closed-form dimensions and
the operator's entry bound before listing any block, so an oversize space
costs no enumeration to refuse.  It also owns the pairing: one weight per
flat position, built on first use from block weights formed there, and
read by every inner product, defect and the creation transpose; spaces on
one grid and table share the layout of their common levels.  A block basis
holds no array: a representative's position is the mixed-radix number, in
part-size order, of each segment's lexicographic rank, and that rank is a
sum of binomial coefficients, so whole arrays of tuples are ranked at
once.  Block values are plain arrays in that order (a vector's
``v[n, alpha]`` view).  The representatives themselves are gathered by
segment rank from one read-only table of sorted m-tuples per part count m,
which the space builds on first use and frees with itself; none is kept
per block.  A plain symmetric level-n tensor is stored in the layout of the
all-singletons block of level n; the space embeds it in every block of
level n by one gather.  Summations run in enumeration order, so vectors,
operators and reports are bit-stable across runs.  All inputs are
immutable, so concurrent use is safe; results are identical to sequential
execution.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator

import numpy as np

from .measures import GridSpace, JumpMeasure
from .orthopoly import RecurrenceTable

__all__ = [
    "MultiIndex",
    "partitions",
    "block_weight",
    "BlockBasis",
    "block_basis",
    "sorted_tuple_count",
    "segment_rank",
    "SymmetricTensor",
    "FockSpace",
    "ExtendedFockVector",
    "inner_product",
    "level_inner_product",
]


@dataclass(frozen=True, slots=True)
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

    @classmethod
    def _trimmed(cls, mults: list[int]) -> MultiIndex:
        """Index of nonnegative ints ``mults``, trimmed here and not validated
        again: the block pairs of an assembly derive thousands of them."""
        while mults and mults[-1] == 0:
            mults.pop()
        index = object.__new__(cls)
        object.__setattr__(index, "multiplicities", tuple(mults))
        return index

    def raised(self, k: int) -> MultiIndex:
        """Index with one more part of size ``k``."""
        if k < 1:
            raise ValueError("part sizes are 1-based")
        mults = list(self.multiplicities) + [0] * max(0, k - self.max_part)
        mults[k - 1] += 1
        return MultiIndex._trimmed(mults)

    def lowered(self, k: int) -> MultiIndex | None:
        """Index with one fewer part of size ``k``, or None if there is none."""
        if self.count(k) < 1:
            return None
        mults = list(self.multiplicities)
        mults[k - 1] -= 1
        return MultiIndex._trimmed(mults)


def _multiplicities(n: int, k: int, cap: int) -> Iterator[tuple[int, ...]]:
    """Multiplicities ``(m_k, m_k+1, ...)``, trailing zeros trimmed, of the
    partitions of ``n`` into parts ``k .. cap``, descending lexicographically."""
    if n == 0:
        yield ()
        return
    if k > min(n, cap):
        return
    for m in range(n // k, -1, -1):
        for rest in _multiplicities(n - m * k, k + 1, cap):
            yield (m,) + rest


def partitions(n: int, max_part: int | None = None) -> tuple[MultiIndex, ...]:
    """All multi-indices of degree ``n``, largest part capped if requested.

    Generated in descending lexicographic order of the multiplicity
    vectors, the layout order: the all-singletons index comes first and the
    single-large-part index last.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    cap = n if max_part is None else max_part
    # the generator's vectors are nonnegative Python ints, already trimmed
    return tuple(MultiIndex._trimmed(list(mults)) for mults in _multiplicities(n, 1, cap))


def block_weight(alpha: MultiIndex, table: RecurrenceTable) -> float:
    """Inner-product weight of one block.

    The multinomial count of the parts times, for every part of size k,
    the squared norm of the degree-(k-1) monic polynomial divided by the
    squared factorial of k.  A weight beyond the largest double is
    refused; one that underflows to 0.0 is kept.
    """
    if alpha.max_part > table.depth:
        raise ValueError(
            f"recurrence table of depth {table.depth} too shallow for parts of size "
            f"{alpha.max_part}"
        )
    try:
        weight = float(math.factorial(alpha.degree))
        for k, m in alpha.parts():
            weight /= math.factorial(m)
            weight *= (table.norm_sq[k - 1] / math.factorial(k) ** 2) ** m
    except OverflowError:  # a float power or int-to-float conversion
        weight = math.inf
    if not math.isfinite(weight):
        raise ValueError(
            f"weight of block {alpha.multiplicities} overflows the doubles; "
            "rescale the measure or lower the depth"
        )
    return weight


@lru_cache(maxsize=None)
def sorted_tuple_count(size: int, m: int) -> int:
    """Number of sorted m-tuples of ``size`` grid points, ``C(size + m - 1, m)``:
    the digit base of m parts, and the dimension of a level-m symmetric tensor."""
    if m < 0:
        raise ValueError("level must be nonnegative")
    return math.comb(size + m - 1, m)


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
        table[:, 0] += sorted_tuple_count(size, m) - 1
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


def _multiplicity(reps: np.ndarray, counts: tuple[int, ...], size: int) -> np.ndarray:
    """Distinct within-segment rearrangements of each row of sorted segments
    over ``size`` grid points; segment k holds the next ``counts[k]`` columns.

    Per segment this is ``m! / prod(run length!)``, built one column at a
    time as a running integer ratio: after each column it is the count for
    the prefix, so every step divides exactly.
    """
    if size == 1:  # one grid point: every tuple is its only arrangement
        return np.ones(len(reps))
    exact = reps.shape[1] <= 18  # running counts stay below 18! < 2**53, exact as floats
    equal = np.eye(size, dtype=float if exact else object)  # 1 where two points coincide
    mult = np.ones(len(reps), dtype=equal.dtype)
    start = 0
    for m in counts:
        run = np.ones(len(reps), dtype=equal.dtype)
        for j in range(start + 1, start + m):
            run = equal[reps[:, j], reps[:, j - 1]] * run + 1
            mult = mult * (j - start + 1)
            mult = mult / run if exact else mult // run
        start += m
    return mult.astype(float)


def _weight_product(reps: np.ndarray, weights: tuple[float, ...]) -> np.ndarray:
    """Product of the grid weights along each row, left to right."""
    w = np.array(weights)
    sigma = np.ones(len(reps))
    # an overflow to inf is refused where the weights are used: by
    # jacobi.check_weights and by the chaos oracle's range check
    with np.errstate(over="ignore"):
        for j in range(reps.shape[1]):
            sigma = sigma * w[reps[:, j]]
    return sigma


@dataclass(frozen=True)
class BlockBasis:
    """Representative-tuple arithmetic of one block over one grid.

    A representative holds one sorted tuple of grid points per part size,
    the segments laid out in increasing part size.  Its position is the
    mixed-radix number of its segments' lexicographic ranks, most
    significant first, with digit bases ``radix``: the number of sorted
    tuples of each part count.  The basis holds no representative: the space
    gathers them by rank from its tables of sorted tuples
    (:meth:`FockSpace.tuples`), and keeps their weights in its pairing.
    """

    alpha: MultiIndex
    radix: tuple[int, ...]  # number of sorted tuples per part size

    @property
    def dim(self) -> int:
        return math.prod(self.radix)

    def segment_ranks(self) -> list:
        """Per part size, the segment's lexicographic rank for every
        representative: the mixed-radix digits of ``0 .. dim - 1``, most
        significant first (``np.unravel_index``).  A block of one
        representative, as every block on one grid point is, shares one zero
        among its segments and skips the unravelling."""
        if self.dim == 1:
            return [np.zeros(1, dtype=np.intp)] * len(self.radix)
        return list(np.unravel_index(np.arange(self.dim), self.radix))

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


def block_basis(alpha: MultiIndex, grid: GridSpace) -> BlockBasis:
    size = grid.size
    radix = tuple([sorted_tuple_count(size, m) for m in alpha.multiplicities])
    return BlockBasis(alpha, radix)


@dataclass
class SymmetricTensor:
    """Fully symmetric function of ``level`` grid variables, stored on sorted
    tuples in lexicographic order: the all-singletons block layout."""

    grid: GridSpace
    level: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (sorted_tuple_count(self.grid.size, self.level),):
            raise ValueError("value array does not match the sorted-tuple basis")

    @classmethod
    def basis_element(cls, grid: GridSpace, level: int, idx: int) -> SymmetricTensor:
        values = np.zeros(sorted_tuple_count(grid.size, level))
        values[idx] = 1.0
        return cls(grid, level, values)


def _sort_rows(rows: np.ndarray) -> None:
    """Sort every row in place by odd-even transposition: one pass per
    column, each a pairwise minimum and maximum of neighbouring columns."""
    width = rows.shape[1]
    for step in range(width):
        lo, hi = rows[:, step % 2 : width - 1 : 2], rows[:, step % 2 + 1 : width : 2]
        lo[:], hi[:] = np.minimum(lo, hi), np.maximum(lo, hi)


# The size cap.  An export adds 33 to 34 bytes of peak RSS per exported entry
# at G = 24 and 32, depth 4, and verify-moments with check_symmetry 38 to 40.
# A block adds 746, 786, 831 and 871 bytes on one grid point at depths 24, 30,
# 36 and 44.  Entries and blocks together are held to the entry limit's 0.9 GB.
_ENTRY_LIMIT = 20_000_000
_BYTES_PER_ENTRY = 48
_BYTES_PER_BLOCK = 900


def _count(size: int, depth: int, max_part: int) -> tuple[int, int, int]:
    """Block count, dimension and entry bound of a space, listing no block:
    part size k at multiplicity m multiplies a block's dimension by
    ``C(G + m - 1, m)`` and adds m to its size, so the per-level sums grow
    one part size at a time, levels downwards to read those without it."""
    blocks, dims, sizes = [1] + [0] * depth, [1] + [0] * depth, [0] * (depth + 1)
    for k in range(1, min(max_part, depth) + 1):
        choose = [sorted_tuple_count(size, m) for m in range(depth // k + 1)]
        for n in range(depth, k - 1, -1):
            for m in range(1, n // k + 1):
                below, c = n - k * m, choose[m]
                blocks[n] += blocks[below]
                dims[n] += c * dims[below]
                sizes[n] += c * (sizes[below] + m * dims[below])
    dim = sum(dims)
    return sum(blocks), dim, dim + 2 * sum(size * dims[n] + sizes[n] for n in range(depth))


def _check_size(bound: int, blocks: int) -> None:
    cap = _ENTRY_LIMIT * _BYTES_PER_ENTRY
    held = bound * _BYTES_PER_ENTRY + blocks * _BYTES_PER_BLOCK
    if held <= cap:  # integers: exact
        return
    try:
        gb = held / 2**30
    except OverflowError:  # a bound beyond the doubles: exact count, no estimate
        gb = math.inf
    raise ValueError(
        f"operator too large: up to {bound:,} operator entries in {blocks:,} blocks "
        f"(about {gb:.1f} GB) exceed the limit of {cap / 2**30:.1f} GB; "
        "lower the depth or the grid size"
    )


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
    points): one sorted tuple of grid points per part size.  Their sums and
    the block count are counted before any block is listed, and a space
    whose operator would exceed the size cap raises ``ValueError`` there.

    Per block only its slice is kept, in one mapping per level from
    multi-index to slice.  Weights are formed on each read, so
    :attr:`flat_weights` and :meth:`weight` refuse one past the doubles.
    Bases are built on each call, and representatives gathered from one
    read-only table of sorted m-tuples per part count m (:meth:`tuples`).
    All of it lives and dies with the space.
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
        blocks, self.dim, self._entry_bound = _count(grid.size, depth, self.max_part)
        _check_size(self._entry_bound, blocks)
        choose = [sorted_tuple_count(grid.size, m) for m in range(depth + 1)]
        self._slices: dict[int, dict[MultiIndex, slice]] = {}
        stop = 0
        for n in range(depth + 1):
            level = self._slices[n] = {}
            for alpha in partitions(n, max_part=self.max_part):
                start = stop
                stop += math.prod(choose[m] for m in alpha.multiplicities)
                level[alpha] = slice(start, stop)
        self._tuples: dict[int, np.ndarray] = {}

    def blocks(self, n: int) -> tuple[MultiIndex, ...]:
        if not 0 <= n <= self.depth:
            raise ValueError(f"level {n} outside the truncation of depth {self.depth}")
        return tuple(self._slices[n])

    def block_keys(self) -> list[tuple[int, MultiIndex]]:
        return [(n, alpha) for n, level in self._slices.items() for alpha in level]

    def block_slice(self, n: int, alpha: MultiIndex) -> slice:
        """Positions of the block's representatives in the flat layout."""
        return self._slices[n][alpha]

    def weight(self, n: int, alpha: MultiIndex) -> float:
        """The block's :func:`block_weight`, formed on each call."""
        self.block_slice(n, alpha)  # the block must lie in the space
        return block_weight(alpha, self.table)

    def basis(self, alpha: MultiIndex) -> BlockBasis:
        """Basis of block ``alpha``, built on each call and not kept."""
        return block_basis(alpha, self.grid)

    def tuples(self, m: int) -> np.ndarray:
        """The sorted m-tuples of grid points, one per row in lexicographic
        order, that every segment of m parts gathers from: read-only, built
        on first use and kept with the space."""
        table = self._tuples.get(m)
        if table is None:
            count = sorted_tuple_count(self.grid.size, m)
            tuples = itertools.combinations_with_replacement(range(self.grid.size), m)
            flat = np.fromiter(itertools.chain.from_iterable(tuples), np.intp, count * m)
            table = self._tuples[m] = flat.reshape(count, m)
            table.flags.writeable = False
        return table

    def representatives(self, alpha: MultiIndex) -> np.ndarray:
        """Block ``alpha``'s representatives, one per row in layout order,
        gathered on each call; a block of a single part size reads its table."""
        if self.grid.size == 1 or not alpha.size:  # every coordinate is point 0, or none
            return np.zeros((1, alpha.size), dtype=np.intp)
        counts = [m for m in alpha.multiplicities if m]
        if len(counts) == 1:  # its one segment's ranks run over the whole table
            return self.tuples(counts[0])
        ranks = zip(alpha.multiplicities, self.basis(alpha).segment_ranks())
        return np.hstack([self.tuples(m)[rank] for m, rank in ranks])

    @cached_property
    def flat_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Level weight ``n! * weight(n, alpha)`` and representative weight at
        every flat position; their product is the squared norm of that
        position's basis vector; built on first use.

        A representative's weight is the number of distinct within-segment
        rearrangements of its tuple times its product of grid weights, which
        turns sums over representatives into sums over all tuples.
        """
        level = np.empty(self.dim)
        rep = np.empty(self.dim)
        for n, alpha in self.block_keys():
            span, reps = self.block_slice(n, alpha), self.representatives(alpha)
            level[span] = math.factorial(n) * self.weight(n, alpha)
            mult = _multiplicity(reps, alpha.multiplicities, self.grid.size)
            rep[span] = mult * _weight_product(reps, self.grid.weights)
        return level, rep

    def level_start(self, n: int) -> int:
        """Number of flat positions below level ``n``."""
        return self.dim if n > self.depth else self.block_slice(n, self.blocks(n)[0]).start

    def entry_bound(self) -> int:
        """Upper bound on the entries of the full field operator, as exported.

        ``dim + 2 * sum dim(beta) * (G + size(beta))``: an annihilation row
        in block beta below the top level holds at most G grid contractions
        plus ``size(beta)`` promotions, creation as many, and the neutral
        part is the diagonal.  At most ``(bound + dim) / 2`` are stored:
        the diagonal and the ``(bound - dim) / 2`` annihilation slots that
        assembly allocates.
        """
        return self._entry_bound

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
        """Level-``f.level`` vector whose blocks are the diagonal restrictions of
        ``f``: each representative, its part-k coordinates repeated k times, is
        sorted and ranked in the all-singletons basis, whose single segment
        makes the position the tuple's segment rank."""
        if f.level > self.depth:
            raise ValueError("tensor level exceeds the truncation depth")
        if f.grid != self.grid:
            raise ValueError("grid mismatch")
        v = self.zero()
        for alpha in self.blocks(f.level):
            if alpha.max_part <= 1:  # the all-singletons block: f's own layout
                v[f.level, alpha][:] = f.values
                continue
            repeats = [k for k, m in alpha.parts() for _ in range(m)]
            expanded = np.repeat(self.representatives(alpha), repeats, axis=1)
            _sort_rows(expanded)
            v[f.level, alpha][:] = f.values[segment_rank(expanded, self.grid.size)]
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
