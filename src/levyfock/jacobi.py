"""Creation, neutral, and annihilation parts of the field operator.

The field operator represents multiplication by the pairing with a test
function, carried over to the truncated extended Fock space.  Each part
is stored as coalesced ``(row, column, value)`` triplets over the
space's flat layout, with exact zeros dropped.  For every target block
the contributing source blocks follow from single-part shifts:

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
    """Sparse operator on a truncated extended Fock space.

    Entry ``vals[i]`` maps flat position ``cols[i]`` of the source to flat
    position ``rows[i]`` of the image; no (row, column) pair repeats and
    no value is zero.  Creation entries connect level n to n + 1 only,
    neutral n to n, annihilation n to n - 1.
    """

    kind: str
    space: FockSpace
    phi: TestFunction
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __post_init__(self):
        keep = self.vals != 0.0
        self.rows, self.cols, self.vals = self.rows[keep], self.cols[keep], self.vals[keep]

    def apply(self, v: ExtendedFockVector) -> ExtendedFockVector:
        """Matrix-vector product; each image entry sums in triplet order.

        Creation images out of the top level are dropped: the truncation
        has no room for them.
        """
        if v.space is not self.space and not self.space.compatible(v.space):
            raise ValueError("dimension mismatch: vector space differs from operator space")
        terms = self.vals * v.values[self.cols]
        return ExtendedFockVector(
            self.space, np.bincount(self.rows, terms, minlength=self.space.dim)
        )


def _check_phi(phi: TestFunction, space: FockSpace) -> None:
    if phi.grid != space.grid:
        raise ValueError("test function lives on a different grid")


_ABOVE = np.iinfo(np.intp).max  # above every grid point

# Refuse an operator whose entry bound exceeds this many stored entries.
# Assembling and exporting one adds 93 (G = 32) to 100 (G = 24) bytes of
# peak RSS per entry at depth 4, so the cap holds a run near 2 GB; G = 64 at
# depth 4 (bound 7,930,129) stays inside it.
_ENTRY_LIMIT = 20_000_000
_BYTES_PER_ENTRY = 100


def _check_size(space: FockSpace) -> None:
    bound = space.entry_bound()
    if bound > _ENTRY_LIMIT:
        raise ValueError(
            f"operator too large: up to {bound:,} stored entries (about "
            f"{bound * _BYTES_PER_ENTRY / 2**30:.1f} GB) exceed the limit of "
            f"{_ENTRY_LIMIT:,}; lower the depth or the grid size"
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


def creation(minus: FieldOperator) -> FieldOperator:
    """Creation part: extension of a level by the test function.

    On plainly symmetric inputs this is the symmetrized tensor product
    with the test function.  That characterization does not determine the
    action on the diagonal blocks of the extended space, so the entries
    are assembled as the inner-product adjoint of the annihilation part
    -- the unique extension for which the two parts pair against each
    other exactly, at every level of the truncation.  (Wherever no
    diagonal promotion into an already occupied part can occur, which
    covers all images up to level three, the adjoint coincides with the
    symmetrized tensor product on embedded symmetric tensors.)

    An annihilation entry ``m`` from source s to target d becomes
    ``(c * (m * w_d)) / w_s`` from d to s, with ``c = (d! W_d) / (s! W_s)``
    the level-times-block weight ratio and ``w`` the representative
    weights.  The test function and the space are those of ``minus``, the
    annihilation part this transposes.
    """
    if minus.kind != "annihilation":
        raise ValueError(f"minus must be an annihilation part, not a {minus.kind} part")
    space = minus.space
    level, rep = space.flat_weights
    dst, src = minus.rows, minus.cols
    vals = level[dst] / level[src] * (minus.vals * rep[dst]) / rep[src]
    return FieldOperator("creation", space, minus.phi, src, dst, vals)


def neutral(phi: TestFunction, space: FockSpace) -> FieldOperator:
    """Neutral part: diagonal multiplication.

    Each representative is scaled by the sum, over part sizes present in
    its block, of the diagonal recurrence coefficient of that size times
    the test-function values on the segment.  Each segment sum is one
    ``math.fsum``, taken once per sorted tuple of grid points and gathered
    by segment rank.
    """
    _check_phi(phi, space)
    a = space.table.a
    sums: dict[int, np.ndarray] = {}  # part count -> phi summed over each sorted tuple
    diag = np.empty(space.dim)
    for level, alpha in space.block_keys():
        basis = space.basis(alpha)
        ranks = basis.segment_ranks()
        total = np.zeros(basis.dim)
        for k, m in alpha.parts():
            if m not in sums:
                tuples = itertools.combinations_with_replacement(phi.values, m)
                sums[m] = np.array([math.fsum(t) for t in tuples])
            total = total + a[k - 1] * sums[m][ranks[k - 1]]
        diag[space.block_slice(level, alpha)] = total
    positions = np.arange(space.dim)
    return FieldOperator("neutral", space, phi, positions, positions, diag)


def annihilation(phi: TestFunction, space: FockSpace) -> FieldOperator:
    """Annihilation part: grid contraction plus diagonal promotions.

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
    summed in position order starting from 0.0.
    """
    _check_phi(phi, space)
    _check_size(space)
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
    return FieldOperator(
        "annihilation",
        space,
        phi,
        np.concatenate(rows),
        np.concatenate(cols),
        np.concatenate(vals),
    )


def full(phi: TestFunction, space: FockSpace) -> FieldOperator:
    """Sum of the creation, neutral, and annihilation parts.

    The parts map level n to n + 1, n and n - 1, so they share no
    (row, column) pair and their triplets simply concatenate.
    """
    minus = annihilation(phi, space)
    parts = (creation(minus), neutral(phi, space), minus)
    return FieldOperator(
        "full",
        space,
        phi,
        np.concatenate([part.rows for part in parts]),
        np.concatenate([part.cols for part in parts]),
        np.concatenate([part.vals for part in parts]),
    )


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


def _scaled_gap(keys_a, vals_a, keys_b, vals_b) -> float:
    """Largest entry of |A - B| over the largest entry of |A| or |B|.

    A and B are sparse, given as distinct keys and their values.
    """
    keys, slot = np.unique(np.concatenate([keys_a, keys_b]), return_inverse=True)
    gap = np.bincount(slot, np.concatenate([vals_a, -vals_b]), minlength=len(keys))
    scale = max(
        float(np.max(np.abs(vals_a), initial=0.0)),
        float(np.max(np.abs(vals_b), initial=0.0)),
        1e-300,
    )
    return float(np.max(np.abs(gap), initial=0.0)) / scale


def symmetry_defect(op: FieldOperator) -> float:
    """Largest scaled asymmetry of the operator's pairing matrix.

    The pairing of the image of basis vector c with basis vector r is the
    entry (r, c) times the pairing weight of r.  Pairings are taken over
    all basis vectors strictly below the truncation level, where no
    creation image is dropped, so a symmetric operator must give a
    symmetric matrix up to round-off.
    """
    low = op.space.level_start(op.space.depth)
    inside = (op.rows < low) & (op.cols < low)
    rows, cols = op.rows[inside], op.cols[inside]
    pairing = np.multiply(*op.space.flat_weights)[rows] * op.vals[inside]
    return _scaled_gap(cols * low + rows, pairing, rows * low + cols, pairing)


def adjoint_defect(plus: FieldOperator, minus: FieldOperator) -> float:
    """Largest scaled deviation of the annihilation part from the creation adjoint.

    Compares the pairing of a raised basis vector against every other
    basis vector with the pairing against the lowered one, for all source
    vectors strictly below the truncation level.
    """
    space = plus.space
    if minus.space is not space and not space.compatible(minus.space):
        raise ValueError("operators live in different spaces")
    low, dim = space.level_start(space.depth), space.dim
    weights = np.multiply(*space.flat_weights)
    up = plus.cols < low
    down = minus.rows < low
    return _scaled_gap(
        plus.cols[up] * dim + plus.rows[up],
        weights[plus.rows[up]] * plus.vals[up],
        minus.rows[down] * dim + minus.cols[down],
        weights[minus.rows[down]] * minus.vals[down],
    )


def measure_hash(measure: JumpMeasure) -> str:
    """Stable short hash of the atom data, for export headers."""
    text = "|".join(
        f"{s:.17g}:{w:.17g}" for s, w in zip(measure.locations, measure.weights)
    )
    return sha256(text.encode("ascii")).hexdigest()[:16]


_EXPORT_CHUNK = 2048  # entry lines formatted at a time


class OperatorExport:
    """Sparse text export of an operator, one line per nonzero entry.

    Block indices and representative tuples are written as their
    positions in the canonical enumerations; the header records every
    ingredient needed to rebuild the space.  Entries are ordered by
    source block, target block, source position, target position.

    The entry order is sorted once, up front; the lines are formatted
    ``_EXPORT_CHUNK`` entries at a time on every pass, so neither the
    lines nor the text of the whole export are ever held at once.
    Iterating yields the lines, :meth:`chunks` the text; both can be
    repeated.
    """

    def __init__(self, op: FieldOperator):
        space = op.space
        self.op = op
        self.header = [
            "# levyfock operator export",
            f"# kind {op.kind}",
            f"# depth {space.depth}",
            f"# table-depth {space.table.depth}",
            f"# grid-points {' '.join(space.grid.points)}",
            f"# grid-weights {' '.join(f'{w:.17g}' for w in space.grid.weights)}",
            f"# measure-hash {measure_hash(space.measure)}",
            f"# phi {' '.join(f'{v:.17g}' for v in op.phi.values)}",
            "# columns: src_level src_alpha src_tuple dst_level dst_alpha dst_tuple value",
        ]
        keys = space.block_keys()
        self._labels = [
            f"{n} {j}" for n in range(space.depth + 1) for j in range(len(space.blocks(n)))
        ]
        self._starts = np.array([space.block_slice(*key).start for key in keys])
        self._block = np.repeat(np.arange(len(keys)), np.diff(self._starts, append=space.dim))
        self._order = np.lexsort(
            (op.rows, op.cols, self._block[op.rows], self._block[op.cols])
        )

    def _entry_chunks(self) -> Iterator[list[str]]:
        op, block, starts, labels = self.op, self._block, self._starts, self._labels
        for lo in range(0, len(self._order), _EXPORT_CHUNK):
            take = self._order[lo : lo + _EXPORT_CHUNK]
            cols, rows = op.cols[take], op.rows[take]
            src, dst = block[cols], block[rows]
            yield [
                f"{labels[s]} {si} {labels[d]} {di} {v:.17g}"
                for s, si, d, di, v in zip(
                    src.tolist(),
                    (cols - starts[src]).tolist(),
                    dst.tolist(),
                    (rows - starts[dst]).tolist(),
                    op.vals[take].tolist(),
                )
            ]

    def __iter__(self) -> Iterator[str]:
        yield from self.header
        for lines in self._entry_chunks():
            yield from lines

    def chunks(self) -> Iterator[str]:
        """The export's text in pieces, each ending with a newline."""
        yield "\n".join(self.header) + "\n"
        for lines in self._entry_chunks():
            yield "\n".join(lines) + "\n"


def export_lines(op: FieldOperator) -> OperatorExport:
    """Sparse text export of ``op``: see :class:`OperatorExport`."""
    return OperatorExport(op)
