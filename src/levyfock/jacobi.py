"""The field operator: the sum of its creation, neutral and annihilation parts.

The field operator represents multiplication by the pairing with a test
function, carried over to the truncated extended Fock space.
:class:`FieldOperator` holds it as the annihilation part's coalesced
``(row, column, value)`` triplets over the space's flat layout, exact
zeros dropped, and the neutral part's diagonal.  The parts are array
builders: :func:`annihilation` returns the triplets, :func:`neutral` the
diagonal, and :func:`creation` the values of the triplets' transposes,
the pairing adjoint, derived wherever they are used and never stored.
For every target block the contributing source blocks follow from
single-part shifts:

* creation reads, for each part size k of the target, the source block
  with that part demoted by one (dropped entirely for singletons), and
  weighs the test function at each coordinate of the part;
* the neutral part is diagonal: each representative is scaled by the
  sum over part sizes of the matching recurrence coefficient times the
  test-function values on that segment;
* annihilation combines a grid contraction against the source block with
  one extra singleton, and diagonal promotions that move one coordinate
  from a part of size k-1 into the part of size k, weighted by the
  off-diagonal recurrence coefficient.

Within-block symmetrization is carried out analytically as an average
over the positions a formula coordinate can occupy, so the triplets act
directly on representative values.  Promotions whose source part size
exceeds the recurrence table are skipped: they only arise when the table
exhausts the measure, and then their weight is exactly zero.

Assembly runs block pair by block pair on whole arrays, with no Python
loop over representatives: a source position is the mixed-radix number
of its segments' binomial ranks (:meth:`BlockBasis.compose`), so a
contraction or promotion only recomputes the rank of the one or two
segments it changes.  The triplets come out in the order of the
per-representative formulas: level, target block, the contraction and
then the promotions by ascending part size, representative, then grid
point or promoted position.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .fock import BlockBasis, ExtendedFockVector, FockSpace, inner_product, segment_rank
from .measures import JumpMeasure, TestFunction

# The builtin SHA-256 module, as the standard library's ``random`` takes its
# sha512: ``hashlib`` would load OpenSSL into every process for one digest.
try:
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256

__all__ = [
    "FieldOperator",
    "creation",
    "neutral",
    "annihilation",
    "full",
    "vacuum_moments",
    "symmetry_defect",
    "adjoint_defect",
    "OperatorExport",
    "export_lines",
    "measure_hash",
]


@dataclass
class FieldOperator:
    """The field operator of one test function on a truncated extended Fock space.

    ``rows``, ``cols`` and ``vals`` hold the annihilation part: entry
    ``vals[i]`` maps flat position ``cols[i]`` (level n) to flat position
    ``rows[i]`` (level n - 1); no (row, column) pair repeats and no value
    is zero.  ``diag`` holds the neutral part at flat positions
    ``1 .. dim - 1`` (the vacuum's entry is exactly zero), exact zeros
    included.  The creation part is never stored: it maps ``rows[i]`` to
    ``cols[i]`` with the value :func:`creation` derives from ``vals[i]``
    where it is used.
    """

    space: FockSpace
    phi: TestFunction
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    diag: np.ndarray

    def apply(self, v: ExtendedFockVector) -> ExtendedFockVector:
        """Matrix-vector product.

        Each image entry sums, from 0.0 and one term at a time, its
        creation terms in triplet order, then its neutral term (none for an
        exact-zero diagonal entry), then its annihilation terms in triplet
        order.  Creation images out of the top level are dropped: no
        creation entry starts there, as no annihilation entry ends there.
        """
        if v.space is not self.space and not self.space.compatible(v.space):
            raise ValueError("dimension mismatch: vector space differs from operator space")
        x, rows, cols = v.values, self.rows, self.cols
        out = np.zeros(self.space.dim)
        np.add.at(out, cols, creation(self.space, rows, cols, self.vals) * x[rows])
        tail = out[1:]
        np.add(tail, self.diag * x[1:], out=tail, where=self.diag != 0.0)
        np.add.at(out, rows, self.vals * x[cols])
        return ExtendedFockVector(self.space, out)


def _check_phi(phi: TestFunction, space: FockSpace) -> None:
    if phi.grid != space.grid:
        raise ValueError("test function lives on a different grid")


_ABOVE = np.iinfo(np.intp).max  # above every grid point

# Refuse an operator whose entry bound exceeds this many entries.  The
# bound counts the full operator's entries, as exported; about half of them
# are stored (see FieldOperator).  Assembling and exporting one adds 43 bytes
# of peak RSS per exported entry at G = 24 and at G = 32, depth 4, over the
# RSS of the imported program, most of it annihilation's assembly
# temporaries, so the cap holds a run near 0.9 GB; G = 64 at depth 4 (bound
# 7,930,129) stays inside it.
_ENTRY_LIMIT = 20_000_000
_BYTES_PER_ENTRY = 48


def _check_size(space: FockSpace) -> None:
    bound = space.entry_bound()
    if bound > _ENTRY_LIMIT:
        raise ValueError(
            f"operator too large: up to {bound:,} operator entries (about "
            f"{bound * _BYTES_PER_ENTRY / 2**30:.1f} GB) exceed the limit of "
            f"{_ENTRY_LIMIT:,}; lower the depth or the grid size"
        )


def _check_weights(space: FockSpace) -> None:
    """Refuse representative or pairing weights outside the normal doubles,
    as the chaos oracle refuses its own: :func:`creation` divides by them."""
    level, rep = space.flat_weights
    with np.errstate(over="ignore"):  # an overflow is refused below
        weights = (rep, level * rep)
    # min and max, not a boolean .all(): no 128 KB reduction buffer
    low, high = min(map(np.min, weights)), max(map(np.max, weights))
    if not (2.0**-1022 <= low and high < math.inf):
        raise ValueError(
            f"pairing weights from {low} to {high} leave the normal doubles; "
            "rescale the grid weights or lower the depth"
        )


def _part(basis: BlockBasis, k: int) -> np.ndarray:
    """The size-k segment of every representative, one sorted tuple per row."""
    start, stop = basis.offsets[k - 1] if k <= basis.alpha.max_part else (0, 0)
    return basis.reps[:, start:stop]


def _inserted(segment: np.ndarray, value: np.ndarray) -> np.ndarray:
    """The sorted tuples ``segment`` (one per row) with one more coordinate,
    for every ``value`` along a new middle axis (``value`` broadcasts against
    the rows).

    Coordinate j of the result is ``min(max(x[j-1], v), x[j])`` with
    ``x[-1] = -inf`` and ``x[m] = +inf``: the tuple ``insort`` would give.
    """
    padded = np.empty((len(segment), segment.shape[1] + 2), dtype=np.intp)
    padded[:, 0] = -1
    padded[:, 1:-1] = segment
    padded[:, -1] = _ABOVE
    return np.minimum(np.maximum(padded[:, None, :-1], value[..., None]), padded[:, None, 1:])


def _removed(segment: np.ndarray) -> np.ndarray:
    """The sorted tuples ``segment`` (one per row) without coordinate q, for
    every q along a new middle axis."""
    count, m = segment.shape
    out = np.empty((count, m, m - 1), dtype=segment.dtype)
    for q in range(m):
        out[:, q, :q] = segment[:, :q]
        out[:, q, q:] = segment[:, q + 1 :]
    return out


def creation(space: FockSpace, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Creation part: the values of the transposes of annihilation entries.

    On plainly symmetric inputs creation is the symmetrized tensor product
    with the test function.  That does not determine the action on the
    diagonal blocks of the extended space, so creation is the
    inner-product adjoint of annihilation -- the unique extension for which
    the two parts pair exactly, at every level of the truncation.
    (Wherever no diagonal promotion into an already occupied part can
    occur, which covers all images up to level three, the two coincide on
    embedded symmetric tensors.)

    Annihilation entry ``m = vals[i]`` from s = ``cols[i]`` to d = ``rows[i]``
    has the transpose ``(c * (m * w_d)) / w_s``, with ``c = (d! W_d) / (s! W_s)``
    the level-times-block weight ratio and ``w`` the representative
    weights; elementwise, so a slice of the entries gives the bits of the whole.
    """
    level, rep = space.flat_weights
    return level[rows] / level[cols] * (vals * rep[rows]) / rep[cols]


def neutral(phi: TestFunction, space: FockSpace) -> np.ndarray:
    """Neutral part: diagonal multiplication, returned as its diagonal.

    Each representative is scaled by the sum, over part sizes present in
    its block, of the diagonal recurrence coefficient of that size times
    the test-function values on the segment.  Each segment sum is one
    ``math.fsum``, taken once per sorted tuple of grid points and gathered
    by segment rank.  The vacuum has no parts, so its entry is exactly zero
    and is left out: the diagonal starts at flat position 1.  An exact zero
    in it (a segment whose test-function values cancel) stays, and acts as
    no entry.
    """
    _check_phi(phi, space)
    a = space.table.a
    sums: dict[int, np.ndarray] = {}  # part count -> phi summed over each sorted tuple
    diag = np.empty(space.dim - 1)
    for level, alpha in space.block_keys()[1:]:
        basis = space.basis(alpha)
        ranks = basis.segment_ranks()
        total = np.zeros(basis.dim)
        for k, m in alpha.parts():
            if m not in sums:
                tuples = itertools.combinations_with_replacement(phi.values, m)
                sums[m] = np.array([math.fsum(t) for t in tuples])
            total = total + a[k - 1] * sums[m][ranks[k - 1]]
        where = space.block_slice(level, alpha)
        diag[where.start - 1 : where.stop - 1] = total
    return diag


def annihilation(phi: TestFunction, space: FockSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Annihilation part: grid contraction plus diagonal promotions, returned
    as the triplets ``(rows, cols, vals)`` of :class:`FieldOperator`.

    For a level-(n-1) target block: the contraction term reads the
    source block with one extra singleton, integrating the test function
    against the new coordinate with weight n times the total measure
    mass; for every part size k >= 2 whose size-(k-1) count is positive,
    a promotion term reads the source block with one size-(k-1) part
    promoted to size k, with weight n/k times the off-diagonal
    recurrence coefficient and the test function evaluated at the
    promoted coordinate.  Tying the test function to the promoted
    coordinate (rather than to one already resident in the size-k
    segment) matters from level four on and is pinned down by two
    independent checks: agreement with the Meixner-class closed forms,
    and Wick-product expectations of the multiplication operator on
    embedded pairs (exact at every level for a Meixner-class table);
    the resident reading breaks both while leaving low-order vacuum
    moments intact.  The within-block symmetrization reduces to a plain
    sum over the positions the promoted coordinate can come from, so one
    entry may collect several contributions: promotions of equal
    coordinates of one sorted part.  They are adjacent, and each run is
    summed in position order starting from 0.0; entries that sum to an
    exact zero are dropped.
    """
    _check_phi(phi, space)
    _check_size(space)
    _check_weights(space)
    b = space.table.b
    size = space.grid.size
    values = np.array(phi.values)
    rows, cols, vals = [np.empty(0, np.intp)], [np.empty(0, np.intp)], [np.empty(0)]
    for n in range(1, space.depth + 1):
        contraction = n * space.mass * np.array(space.grid.weights) * values
        for dst_alpha in space.blocks(n - 1):
            dst = space.basis(dst_alpha)
            dst_start = space.block_slice(n - 1, dst_alpha).start
            dst_rows = np.arange(dst_start, dst_start + dst.dim)
            ranks = [
                r if base == 1 else r[:, None] for r, base in zip(dst.segment_ranks(), dst.radix)
            ]
            # contraction: grid point i joins the singletons; rows (y, i)
            src_alpha = dst_alpha.raised(1)
            src = space.basis(src_alpha)
            src_ranks = ranks + [0] * (src_alpha.max_part - len(ranks))
            if src.radix[0] > 1:  # a single sorted tuple has rank 0
                singles = _inserted(_part(dst, 1), np.arange(size))
                src_ranks[0] = segment_rank(singles, size)
            src_start = space.block_slice(n, src_alpha).start
            rows.append(np.repeat(dst_rows, size))
            cols.append(src.compose(src_ranks, (dst.dim, size), src_start).ravel())
            vals.append(np.repeat(contraction[None, :], dst.dim, axis=0).ravel())

            for k in range(2, dst_alpha.max_part + 2):
                if dst_alpha.count(k - 1) == 0:
                    continue
                src_alpha = dst_alpha.lowered(k - 1).raised(k)
                if src_alpha.max_part > space.max_part:
                    continue  # beyond an exhausted table: exactly zero weight
                # promotion: coordinate q of the size-(k-1) part moves into
                # the size-k part; rows (y, q)
                lower = _part(dst, k - 1)
                src = space.basis(src_alpha)
                src_ranks = ranks + [0] * (src_alpha.max_part - len(ranks))
                if src.radix[k - 2] > 1:
                    src_ranks[k - 2] = segment_rank(_removed(lower), size)
                if src.radix[k - 1] > 1:
                    src_ranks[k - 1] = segment_rank(_inserted(_part(dst, k), lower), size)
                src_start = space.block_slice(n, src_alpha).start
                # Equal coordinates of a sorted part promote to one entry.
                # Each run sums at its first position, in q order from 0.0
                # as repeated += would; its other positions keep 0.0 and are
                # dropped with the other exact zeros.
                count, m = lower.shape
                slots = np.repeat(np.arange(0, count * m, m), m)  # one run per row
                if m > 1 and size > 1:  # on one grid point a part is one run
                    starts = np.zeros((count, m), dtype=np.intp)  # q where a run starts, else 0
                    starts[:, 1:] = np.minimum(lower[:, 1:] - lower[:, :-1], 1) * np.arange(1, m)
                    slots += np.maximum.accumulate(starts, axis=1).ravel()  # start of q's run
                terms = (n / k) * b[k - 1] * values[lower].ravel()
                rows.append(np.repeat(dst_rows, m))
                cols.append(src.compose(src_ranks, lower.shape, src_start).ravel())
                vals.append(np.bincount(slots, terms, minlength=count * m))
    rows, cols, vals = np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    # Copy only to drop an exact zero.  Counting allocates nothing; a
    # boolean .all() sets up a 128 KB reduction buffer on first use.
    if np.count_nonzero(vals) < len(vals):
        keep = vals != 0.0
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    return rows, cols, vals


def full(phi: TestFunction, space: FockSpace) -> FieldOperator:
    """Sum of the creation, neutral, and annihilation parts.

    Holds the annihilation triplets, without a copy, and the neutral
    diagonal: the creation part is their pairing adjoint, derived where it
    is used (see :class:`FieldOperator`).
    """
    return FieldOperator(space, phi, *annihilation(phi, space), neutral(phi, space))


def vacuum_moments(phi: TestFunction, space: FockSpace, k_max: int) -> list[float]:
    """Vacuum expectations of the operator powers, orders ``0 .. k_max``.

    The operator J is symmetric for the pairing weights (creation is the
    weighted transpose of annihilation, the neutral part is diagonal), so
    with ``v_j = J^j Omega`` the moment of order ``2j`` is ``<v_j, v_j>``
    and that of order ``2j + 1`` is ``<v_j, J v_j>``.  ``v_j`` lives on
    levels up to ``j``, and the level-``(j + 1)`` part of ``J v_j`` that a
    depth-``j`` truncation drops pairs with zeros of ``v_j``; a depth of
    ``k_max // 2`` therefore gives every order exactly.  Each pairing is one
    :func:`inner_product`.
    """
    if k_max < 0:
        raise ValueError("moment order must be nonnegative")
    if k_max // 2 > space.depth:
        raise ValueError(
            f"truncation too shallow for exact moment: order {k_max} needs depth >= "
            f"{k_max // 2}, have {space.depth}"
        )
    op = full(phi, space)
    v = space.vacuum()
    out = []
    for k in range(k_max + 1):
        image = op.apply(v) if k % 2 else v
        out.append(inner_product(v, image))
        v = image
    return out


def _scaled_gap(gap: np.ndarray, *pairings: np.ndarray) -> float:
    """Largest ``|gap|`` over the largest ``|pairing|`` (floor 1e-300); np.max keeps a NaN."""
    scale = np.max([np.max(np.abs(p), initial=0.0) for p in pairings])
    return float(np.max(np.abs(gap), initial=0.0)) / max(float(scale), 1e-300)


def symmetry_defect(space: FockSpace, diag: np.ndarray) -> float:
    """Largest scaled asymmetry of the neutral part's pairing matrix.

    The pairing of the image of basis vector c with basis vector r is the
    entry (r, c) times the pairing weight of r.  The neutral part ``diag``
    (a :func:`neutral` diagonal) is diagonal, so each pairing p below the
    truncation level meets only itself, with gap ``p - p``: this reads an
    exact zero by construction (NaN for an infinite entry).  A commutator
    check is the planned replacement.
    """
    low = space.level_start(space.depth)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN are results here
        pairing = np.multiply(*space.flat_weights)[1:low] * diag[: low - 1]
        return _scaled_gap(pairing - pairing, pairing)


def adjoint_defect(
    space: FockSpace, minus: tuple[np.ndarray, np.ndarray, np.ndarray], plus: np.ndarray
) -> float:
    """Largest scaled deviation of the annihilation part from the creation adjoint.

    ``minus`` holds the annihilation triplets ``(rows, cols, vals)`` and
    ``plus`` the creation values of the same entries (:func:`creation`).
    Creation entry i transposes annihilation entry i, so the pairings
    ``w[c] * plus[i]`` and ``w[r] * vals[i]`` meet at one (row, column)
    pair and at no other entry's: creation raises a level, annihilation
    lowers one.  Every creation source ``r`` is below the truncation
    level.  As ``plus`` is derived from ``vals``, this reads round-off by
    construction; a commutator check is the planned replacement.
    """
    rows, cols, vals = minus
    if len(plus) != len(vals):
        raise ValueError(f"plus holds {len(plus)} values for {len(vals)} annihilation entries")
    weights = np.multiply(*space.flat_weights)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN are results here
        up, down = weights[cols] * plus, weights[rows] * vals
        return _scaled_gap(up - down, up, down)


def measure_hash(measure: JumpMeasure) -> str:
    """Stable short hash of the atom data, for export headers."""
    text = "|".join(
        f"{s:.17g}:{w:.17g}" for s, w in zip(measure.locations, measure.weights)
    )
    return sha256(text.encode("ascii")).hexdigest()[:16]


# Entry lines formatted at a time.  On a 12-point, depth-4 export (20,917
# entries), 512 lowers the peak RSS of 2048 by 0.25 to 0.5 MB; 1024 by at
# most 0.25 MB; 256 by 0 to 0.1 MB more than 512, which is host noise.
_EXPORT_CHUNK = 512


def _pieces(start: int, stop: int) -> Iterator[tuple[int, int]]:
    """Consecutive ranges of at most ``_EXPORT_CHUNK`` from ``start`` to ``stop``."""
    for lo in range(start, stop, _EXPORT_CHUNK):
        yield lo, min(lo + _EXPORT_CHUNK, stop)


class OperatorExport:
    """Sparse text export of an operator, one line per nonzero entry.

    Block indices and representative tuples are written as their
    positions in the canonical enumerations; the header records every
    ingredient needed to rebuild the space.  Entries are ordered by
    source block, target block, source position, target position.

    A source block at level n sends annihilation entries to level n - 1,
    its diagonal to itself and creation entries to level n + 1, so each
    source block emits those three runs in that order.  The annihilation
    and the creation entries are each sorted once, up front, by one
    ``lexsort`` over the annihilation triplets (the second with rows and
    columns swapped); the lines are formatted ``_EXPORT_CHUNK`` entries at
    a time on every pass, and the creation values with them, so neither
    the lines, the text of the whole export nor the creation values are
    ever held at once.  Iterating yields the lines, :meth:`chunks` the
    text; both can be repeated.
    """

    def __init__(self, op: FieldOperator):
        space = op.space
        self.op = op
        self.header = [
            "# levyfock operator export",
            "# kind full",
            f"# depth {space.depth}",
            f"# table-depth {space.table.depth}",
            f"# grid-points {' '.join(f'x{i}' for i in range(space.grid.size))}",
            f"# grid-weights {' '.join(f'{w:.17g}' for w in space.grid.weights)}",
            f"# measure-hash {measure_hash(space.measure)}",
            f"# phi {' '.join(f'{v:.17g}' for v in op.phi.values)}",
            "# columns: src_level src_alpha src_tuple dst_level dst_alpha dst_tuple value",
        ]
        keys = space.block_keys()
        self._labels = [
            f"{n} {j}" for n in range(space.depth + 1) for j in range(len(space.blocks(n)))
        ]
        self._starts = np.array([space.block_slice(*key).start for key in keys] + [space.dim])
        self._block = np.repeat(np.arange(len(keys), dtype=np.int32), np.diff(self._starts))
        self._down = self._by_source(op.cols, op.rows)
        self._up = self._by_source(op.rows, op.cols)

    def _by_source(self, src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """Order of the entries from ``src`` to ``dst`` by source block,
        target block, source, target, and where each source block's run
        starts in it (one more for the end)."""
        src_block = self._block[src]
        order = np.lexsort((dst, src, self._block[dst], src_block))
        counts = np.bincount(src_block, minlength=len(self._labels))
        return order, [0] + np.cumsum(counts).tolist()

    def _lines(self, b: int, src: np.ndarray, dst: np.ndarray, vals: np.ndarray) -> list[str]:
        """Lines of entries ``vals`` from positions ``src`` of block ``b`` to ``dst``."""
        block, starts, labels = self._block, self._starts, self._labels
        head = labels[b]
        dst_block = block[dst]
        return [
            f"{head} {si} {labels[d]} {di} {v:.17g}"
            for si, d, di, v in zip(
                (src - starts[b]).tolist(),
                dst_block.tolist(),
                (dst - starts[dst_block]).tolist(),
                vals.tolist(),
            )
        ]

    def _entry_chunks(self) -> Iterator[list[str]]:
        op, starts = self.op, self._starts
        (down, down_at), (up, up_at) = self._down, self._up
        for b in range(len(self._labels)):
            for lo, hi in _pieces(down_at[b], down_at[b + 1]):
                take = down[lo:hi]
                yield self._lines(b, op.cols[take], op.rows[take], op.vals[take])
            for lo, hi in _pieces(max(starts[b], 1), starts[b + 1]):
                nonzero = np.flatnonzero(op.diag[lo - 1 : hi - 1]) + lo
                yield self._lines(b, nonzero, nonzero, op.diag[nonzero - 1])
            for lo, hi in _pieces(up_at[b], up_at[b + 1]):
                take = up[lo:hi]
                rows, cols = op.rows[take], op.cols[take]
                vals = creation(op.space, rows, cols, op.vals[take])
                nonzero = np.flatnonzero(vals)  # an underflow to exactly zero is no entry
                yield self._lines(b, rows[nonzero], cols[nonzero], vals[nonzero])

    def __iter__(self) -> Iterator[str]:
        yield from self.header
        for lines in self._entry_chunks():
            yield from lines

    def chunks(self) -> Iterator[str]:
        """The export's text in pieces, each ending with a newline."""
        yield "\n".join(self.header) + "\n"
        for lines in self._entry_chunks():
            if lines:
                yield "\n".join(lines) + "\n"


def export_lines(op: FieldOperator) -> OperatorExport:
    """Sparse text export of ``op``: see :class:`OperatorExport`."""
    return OperatorExport(op)
