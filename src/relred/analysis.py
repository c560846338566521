"""Exhaustive desk-scale deciders and censuses.

Everything here is exact: degeneracy and join reducibility are decided by
the cardinality/projection tests that characterize them, and censuses by
testing at most ``max_search_nodes`` relations, every one or a sample.

The census tests relations by cylinder equality on packed fields: each
relation is a bitmask over the d^n cells of D^n, a batch packs many masks
side by side in one int, one guarded field each, and a projection or
cylinder is a few whole-int shifts per coordinate (``_axes``) that serve
every field at once.  R is join reducible iff the AND of the cylinders of its
(n-1)-projections is R, and degenerate iff R = cyl(pi_A) & cyl(pi_B) for
some bipartition (A, B); one addition tests every field of a difference for
zero (see ``_count``).  Both censuses refuse, before any mask is built, a
row that ``str`` could not print: one whose total 2^(d^n) or counting bound
has more than 4,300 digits.  So each of their batches holds at least four
relations.

The dense deciders run on the same kernel, one relation at a time: up to
``_BATCH_BITS`` cells, ``_mask`` encodes the relation's rows as one mask on
D^n.  Degeneracy and the finest factorization share one product test
(``_product_test``): a block L + R splits iff cyl(pi_L) & cyl(pi_R) =
cyl(pi_(L+R)), on the census's saturation memo (``_sat``).  The join decider
refuses a "no" when the AND of the n saturations is not R, with no join
built, and proves a "yes" by its certificate over the (n-1)-projections,
which verifies on construction; the box decider reads the mask's slices.
Above ``_BATCH_BITS`` cells, and for the product test once its memo of up to
2^n - 2 saturations could pass 2^24 bits, the product test reads
``core.projection_sizes`` (|pi_L| * |pi_R| = |pi_(L+R)|), and the join
decider's certificate is its test: building it joins the projections once,
and a "no" fails its verification.  The universality hypotheses read
``core.projection_sizes`` at every size: pi_X is universal iff it has d^|X|
rows.

The Boolean-rank decider (two-factor relative products) and the one-parameter
box decider (ternary projoins) share one mask builder, one concept closure and
one bitmask cover search, ``_cover``: is the relation a union of at most d
maximal all-ones rectangles, or boxes?  The matrix of a bipartition (L, R) is
the relation's mask with L's coordinates first, values in the domain's display
order, cut into d^|L| rows of d^|R| bits, and it is refused past
``_BATCH_BITS`` cells; the box decider reads the mask with values in sorted
order.  A piece is maximal iff it is closed, so ``_concepts``, the AND-closure
of a list of row masks (the formal concepts), lists the matrix's rectangles at
once and the boxes one second side at a time (``_maximal_boxes``, the triadic
concepts).  A cover found becomes a one-parameter certificate through the
labeled-union builder of ``reducers``, each rectangle or box with its own
parameter value and its sides decoded by ``_tuples``.  One budget,
``max_search_nodes``, bounds the time of both deciders: it caps the closure's
AND steps and the cover nodes, and refuses a box search whose (2^d - 1)^3
boxes exceed it.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import random
import sys
from dataclasses import asdict, dataclass
from typing import Iterable, Optional, Sequence

from . import core
from .caps import current
from .core import Relation
from .errors import (
    AttributeSchemeError,
    CapExceededError,
    PreconditionError,
    ReductionRefused,
    VerificationError,
)
from .formula import ReductionCertificate
from .reducers import _labeled_union, _projection_join


# ---------------------------------------------------------------------------
# Degeneracy
# ---------------------------------------------------------------------------


def _bipartitions(attrs: Sequence[str]):
    """Nontrivial bipartitions of the scheme, one representative per
    complementary pair, smaller-then-colex-earlier block first."""
    n = len(attrs)
    for size in range(1, n // 2 + 1):
        for combo in itertools.combinations(range(n), size):
            if size == n - size and 0 not in combo:
                continue  # the complement was already yielded
            yield (tuple(attrs[i] for i in combo),
                   tuple(a for i, a in enumerate(attrs) if i not in combo))


def _split(splits, attrs: tuple[str, ...]) -> Optional[tuple[tuple[str, ...], ...]]:
    """The first bipartition of ``attrs``, in ``_bipartitions`` order, that
    ``splits`` (a ``_product_test``), or None."""
    for left, right in _bipartitions(attrs):
        if splits(left, right):
            return left, right
    return None


def _product_test(rel: Relation):
    """``splits(left, right)``: is the projection of ``rel`` on two disjoint
    attribute tuples together the product of its projections on each?

    Up to ``_BATCH_BITS`` cells the test is cyl(pi_L) & cyl(pi_R) ==
    cyl(pi_(L+R)) on the relation's mask, where cyl(pi_X) is saturated once
    (``_sat``).  That memo holds up to 2^n - 2 cylinders of d^n bits, one per
    subset of the scheme, so the mask is taken only while d^n * 2^n is at
    most 2^24 bits (2 MB): d = 4, n = 8 is, d = 2, n = 16 is not.  Above
    either limit the test is |pi_L| * |pi_R| = |pi_(L+R)| on the projection
    sizes."""
    d, n = rel.domain.size, rel.arity
    if d ** n > _BATCH_BITS or d ** n << n > 1 << 24:
        size = core.projection_sizes(rel)
        return lambda left, right: (
            size(left) * size(right) == size(core.canonical_attrs(left + right)))
    bit = {a: 1 << i for i, a in enumerate(rel.attrs)}
    axes, sats = _axes(d, n), {(1 << n) - 1: _mask(rel, rel.domain.elements)}

    def splits(left: tuple[str, ...], right: tuple[str, ...]) -> bool:
        kept_l, kept_r = sum(map(bit.__getitem__, left)), sum(map(bit.__getitem__, right))
        return (_sat(sats, kept_l, axes) & _sat(sats, kept_r, axes)
                == _sat(sats, kept_l | kept_r, axes))

    return splits


def is_degenerate(rel: Relation) -> Optional[tuple[tuple[str, ...], tuple[str, ...]]]:
    """A witnessing nontrivial bipartition over which the relation is a
    Cartesian product, or None.  Bipartitions suffice: any finer
    factorization refines some bipartition."""
    return _split(_product_test(rel), rel.attrs)


def finest_factorization(rel: Relation) -> tuple[tuple[str, ...], ...]:
    """The finest Cartesian factorization, as a tuple of scheme blocks
    (a single block when the relation is non-degenerate).  Each block is
    split on the same product test: its projections are the relation's."""
    splits = _product_test(rel)

    def finest(attrs: tuple[str, ...]) -> tuple[tuple[str, ...], ...]:
        split = _split(splits, attrs)
        return (attrs,) if split is None else finest(split[0]) + finest(split[1])

    return finest(rel.attrs)


def _nonuniversal(rel: Relation) -> Optional[tuple[str, ...]]:
    """The first proper nonempty attribute set, smaller sets first, whose
    projection is not all of D^|X|, or None."""
    size = core.projection_sizes(rel)
    for k in range(1, rel.arity):
        for attrs in itertools.combinations(rel.attrs, k):
            if size(attrs) != rel.domain.size ** k:
                return attrs
    return None


# ---------------------------------------------------------------------------
# Join reducibility
# ---------------------------------------------------------------------------


def is_join_reducible(rel: Relation) -> Optional[ReductionCertificate]:
    """Exact decision via the canonical test: R is join reducible iff it
    equals the join of all its (n-1)-ary projections.  (Any join
    decomposition can be coarsened to that cover by enlarging factors,
    and factors may be replaced by projections.)  Up to ``_BATCH_BITS``
    cells a "no" is refused on the relation's mask, where that join is the
    AND of n saturations, with no join built.  A "yes" is the certificate
    over those projections, which joins them once as it verifies; above the
    mask limit that certificate is the test, failing to verify exactly when
    R is not join reducible (the join always contains R, so a "no" is
    refused on its row count)."""
    if rel.arity < 2:
        raise PreconditionError("join reducibility needs arity >= 2")
    d, n = rel.domain.size, rel.arity
    if d ** n <= _BATCH_BITS:
        mask = _mask(rel, rel.domain.elements)
        if _joined(mask, _axes(d, n)) != mask:
            return None
    try:
        return _projection_join(rel, [rel.scheme - {a} for a in rel.attrs])
    except VerificationError:
        return None


@dataclass(frozen=True)
class IrreducibilityReport:
    """Sufficient-condition checks for join irreducibility.

    condition_i: R is not universal but all proper projections are.
    condition_ii: the complement is nonempty with no universal unary
    projection.  Either one implies join irreducibility.
    """

    condition_i: bool
    condition_ii: bool

    @property
    def implies_irreducible(self) -> bool:
        return self.condition_i or self.condition_ii

    def to_json(self) -> str:
        return json.dumps(dict(asdict(self), implies_irreducible=self.implies_irreducible))


def irreducibility_tests(rel: Relation) -> IrreducibilityReport:
    d = rel.domain
    cond_i = (rel.arity >= 2 and len(rel) != d.size ** rel.arity
              and _nonuniversal(rel) is None)
    neg = core.complement(rel)
    size = core.projection_sizes(neg)
    cond_ii = len(neg) > 0 and all(size((i,)) < d.size for i in rel.attrs)
    return IrreducibilityReport(cond_i, cond_ii)


# ---------------------------------------------------------------------------
# Boolean rank
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BooleanMatrix:
    """0-1 matrix with rows stored as column bitmasks."""

    row_masks: tuple[int, ...]
    ncols: int

    @property
    def nrows(self) -> int:
        return len(self.row_masks)


def _blocks(rel: Relation, left: Iterable[str]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The two blocks of the bipartition of the scheme with left block ``left``."""
    left_c = core.canonical_attrs(left)
    if not set(left_c) < rel.scheme or not left_c:
        raise AttributeSchemeError("left block must be a nonempty proper subset")
    return left_c, tuple(a for a in rel.attrs if a not in set(left_c))


def bipartition_matrix(rel: Relation, left: Iterable[str]) -> BooleanMatrix:
    """The relation as a 0-1 matrix over a bipartition of its scheme: its
    mask with the left block's coordinates first, values in the domain's
    display order, cut into d^|L| rows of d^|R| bits, so row i and column j
    are the i-th and j-th value tuples of ``itertools.product`` over each
    block.  A matrix over ``_BATCH_BITS`` cells is refused before its mask
    is built."""
    left_c, right_c = _blocks(rel, left)
    cells, ncols = rel.domain.size ** rel.arity, rel.domain.size ** len(right_c)
    _check_cells(cells)
    # cut as a string of bits, cell 0 last: one shift per row would copy
    # the whole mask each time
    bits = format(_mask(rel, rel.domain.elements, left_c + right_c), f"0{cells}b")
    return BooleanMatrix(
        tuple(int(bits[j:j + ncols], 2) for j in range(cells - ncols, -1, -ncols)), ncols)


def _check_cells(cells: int) -> None:
    """Refuse a Boolean matrix of more cells than a mask may hold."""
    if cells > _BATCH_BITS:
        raise CapExceededError(f"matrix has {cells} cells > cap {_BATCH_BITS}")


def _concepts(rows: Sequence[int]) -> list[tuple[int, int]]:
    """The formal concepts of ``rows``, a list of column bitmasks: for each
    nonzero AND c of some of the rows, (the bitmask of the rows that contain
    c, c).  Each such c is closed (the AND of the rows that contain it), so
    each pair is a maximal all-ones rectangle.  A closure taking more than
    ``max_search_nodes`` AND steps, one per set and row, is refused."""
    cap, steps = current().max_search_nodes, 0
    closure: set[int] = set()
    frontier = distinct = set(rows) - {0}
    while frontier:
        steps += len(frontier) * len(rows)
        if steps > cap:
            raise CapExceededError(f"rectangle closure exceeds {cap} steps")
        closure |= frontier
        frontier = {a & b for a in frontier for b in distinct if a & b and a & b not in closure}
    return [(sum([1 << i for i, row in enumerate(rows) if row & c == c]), c) for c in closure]


def _tuples(elems: Sequence[str], k: int, subset: int) -> list[tuple[str, ...]]:
    """The members of ``subset``, a bitmask over ``itertools.product(elems,
    repeat=k)``, as value tuples in that order."""
    return [t for i, t in enumerate(itertools.product(elems, repeat=k)) if subset >> i & 1]


def _cover(cells: int, pieces: Sequence[int], budget: int) -> Optional[list[int]]:
    """Indices of at most ``budget`` of ``pieces`` (bitmasks inside
    ``cells``) whose union is ``cells``, or None.  Branches on the lowest
    uncovered bit and tries the pieces covering it in the order given, so
    that order fixes the cover found (Knuth's Algorithm X on bitmasks).
    A node with more cells left than ``budget`` of the widest piece hold
    has no cover below it, so cutting it keeps the first cover found.  A
    search visiting more than ``max_search_nodes`` nodes is refused."""
    cap = current().max_search_nodes
    widest = max((piece.bit_count() for piece in pieces), default=0)
    nodes = 0

    def search(cells: int, budget: int) -> Optional[list[int]]:
        nonlocal nodes
        nodes += 1
        if nodes > cap:
            raise CapExceededError(f"cover search exceeds {cap} nodes")
        if not cells:
            return []
        if cells.bit_count() > budget * widest:
            return None
        low = cells & -cells
        for i, piece in enumerate(pieces):
            if piece & low:
                rest = search(cells & ~piece, budget - 1)
                if rest is not None:
                    return [i] + rest
        return None

    return search(cells, budget)


def boolean_rank_at_most(m: BooleanMatrix, k: int) -> Optional[list[tuple[int, int]]]:
    """Exact test: is the matrix an OR of at most k all-ones rectangles?
    Returns a witnessing cover (row_mask, col_mask list) when it is.
    Restricting the search to maximal rectangles loses no covers, and
    every rectangle lies inside the support, so covers are exact.
    Cell (i, j) is bit i*ncols + j."""
    if k < 0:
        raise PreconditionError("rank bound must be >= 0")
    _check_cells(m.nrows * m.ncols)
    rects = sorted(_concepts(m.row_masks))
    # a piece is its columns times its rows spread one bit per row; each
    # one-cell lies in the concept of its own row, so the pieces' OR is the
    # matrix
    spread = _spread(m.ncols)
    pieces = [cols * int(format(rows, "b").translate(spread), 2) for rows, cols in rects]
    chosen = _cover(functools.reduce(operator.or_, pieces, 0), pieces, k)
    return None if chosen is None else [rects[i] for i in chosen]


@functools.cache
def _spread(ncols: int) -> dict[int, str]:
    """The ``str.translate`` table that widens each digit of a binary
    numeral to ``ncols`` digits, so that bit i moves to bit i * ncols."""
    return str.maketrans({"0": "0" * ncols, "1": "1".rjust(ncols, "0")})


def rel_prod_reducible2(
    rel: Relation, left: Iterable[str]
) -> Optional[ReductionCertificate]:
    """Is R a relative product of two lower-arity relations over the given
    bipartition, i.e. R(x) = exists t [A(x_left, t) & B(t, x_right)]?

    Decided exactly by Boolean rank <= d of the bipartition matrix: the
    parameter t sorts the tuples into at most d all-ones rectangles."""
    cover = boolean_rank_at_most(bipartition_matrix(rel, left), rel.domain.size)
    if cover is None:
        return None
    blocks, elems = _blocks(rel, left), rel.domain.elements
    rectangles = ([_tuples(elems, len(block), side) for block, side in zip(blocks, rect)]
                  for rect in cover)
    return _labeled_union(rel, 1, blocks, rectangles)


# ---------------------------------------------------------------------------
# One-parameter ternary projoins
# ---------------------------------------------------------------------------


def one_param_ternary_projoin(rel: Relation) -> Optional[ReductionCertificate]:
    """Exact one-parameter projoin decision for ternaries whose proper
    projections are all universal.

    Under that hypothesis any one-parameter reduction condenses to
    R(x1,x2,x3) = exists t [F1(t,x1) & F2(t,x2) & F3(t,x3)], i.e. R must
    be a union of at most d unary-product boxes.  Without the hypothesis
    a negative answer would not be conclusive, so we refuse.

    A cover needs only the maximal boxes (``_maximal_boxes``), searched as
    masks on D^3 (``_mask``) in the order of their sides' values.
    The search is refused where all (2^d-1)^3 boxes would exceed
    ``max_search_nodes``.
    """
    if rel.arity != 3:
        raise PreconditionError("one-parameter box decision is for ternaries")
    d = rel.domain
    combo = _nonuniversal(rel)
    if combo is not None:
        raise ReductionRefused(
            "hypothesis",
            f"projection onto {list(combo)} is not universal; "
            "the condensed one-parameter form need not capture all reductions",
            projection=list(combo),
        )
    candidates, cap = (2 ** d.size - 1) ** 3, current().max_search_nodes
    if candidates > cap:
        raise CapExceededError(f"box enumeration of {candidates} boxes exceeds cap {cap}")
    elems = sorted(d.elements)
    target = _mask(rel, elems)
    boxes = _maximal_boxes(target, d.size)
    chosen = _cover(target, [mask for mask, _ in boxes], d.size)
    if chosen is None:
        return None
    cover = ([_tuples(elems, 1, side) for side in boxes[i][1]] for i in chosen)
    return _labeled_union(rel, 1, [(a,) for a in rel.attrs], cover)


def _values(subset: int) -> list[int]:
    """The members of a subset of range(d) given as a bitmask, ascending."""
    return [v for v in range(subset.bit_length()) if subset >> v & 1]


@functools.cache
def _subsets(d: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], tuple[int, ...]]:
    """Per subset of range(d), as a bitmask: its members ascending, and the
    factors that copy a box's side C to each y in B (``spread_y[B]``) and
    that slice to each x in A (``spread_x[A]``) on D^3."""
    members = tuple(tuple(_values(subset)) for subset in range(1 << d))
    spread_y, spread_x = [0], [0]
    for subset in range(1, 1 << d):
        low = members[subset][0]
        spread_y.append(spread_y[subset & (subset - 1)] | 1 << low * d)
        spread_x.append(spread_x[subset & (subset - 1)] | 1 << low * d * d)
    return members, tuple(spread_y), tuple(spread_x)


def _maximal_boxes(target: int, d: int) -> list[tuple[int, tuple[int, int, int]]]:
    """The maximal boxes A x B x C inside the ternary ``target``, a mask on
    D^3 (``_mask``: cell (x, y, z) is bit (x*d + y)*d + z), each as
    (mask, (A, B, C)) with its sides as bitmasks of values, sorted by the
    sides' ascending value lists.

    A box is maximal iff it is closed: C = {z : A x B x {z} inside R}, and
    likewise for A and B (a triadic concept, Lehmann & Wille 1995).  For
    each x and nonempty B, T_x[B] is the set of z with {x} x B x {z}
    inside R, one AND per B from a per-value table.  For a given B, the C
    closed for some (A, B) are the formal concepts of the d rows T_x[B]
    (``_concepts``), each with its A = {x : C inside T_x[B]}; a closure of
    at most 2^d - 1 sets takes at most d(2^d - 1) steps, within the
    (2^d - 1)^3 boxes the caller admits.  Each such (A, B, C) lies in the
    maximal box (A, B', C) with B' the union of the B found with that A and
    C (B' is found too, being closed), so no box is tested for
    containment."""
    members, spread_y, spread_x = _subsets(d)
    values = (1 << d) - 1
    # per x and y: the z of the cells (x, y, z) inside R
    table = [[target >> (x * d + y) * d & values for y in range(d)] for x in range(d)]
    # per B: T_x[B] for each x, from B without its lowest value
    t = [[values] * d]
    for b in range(1, 1 << d):
        low = members[b][0]
        t.append([tx & row[low] for tx, row in zip(t[b & (b - 1)], table)])
    found: dict[tuple[int, int], int] = {}
    for b in range(1, 1 << d):
        for a, c in _concepts(t[b]):
            found[a, c] = found.get((a, c), 0) | b
    boxes = sorted(((members[a], members[b], members[c]), a, b, c)
                   for (a, c), b in found.items())
    return [(c * spread_y[b] * spread_x[a], (a, b, c)) for _, a, b, c in boxes]


# ---------------------------------------------------------------------------
# Census
# ---------------------------------------------------------------------------

CENSUS_CSV_HEADER = "d,n,total,degenerate,join_reducible,bound_ndeg,bound_njred,mode,samples"


@dataclass(frozen=True)
class CensusRow:
    d: int
    n: int
    total: int
    degenerate: int
    join_reducible: int
    bound_ndeg: int
    bound_njred: int
    mode: str = "exact"
    samples: Optional[int] = None

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    def to_csv_row(self) -> str:
        return ",".join("" if value is None else str(value) for value in asdict(self).values())


# ``str`` prints ints of at most this many decimal digits by default.
_MAX_DIGITS = 4300


def _census_numbers(d: int, n: int) -> tuple[int, int, int]:
    """A census row's total 2^(d^n) and its crude counting bounds on the
    degenerate and the join-reducible relations.  The row is refused when
    one of the three has more than ``_MAX_DIGITS`` decimal digits, or more
    than the interpreter's own limit on ``str(int)`` when that is lower: so
    ``str`` prints every admitted row, and every admitted relation, a mask
    of d^n < 14,285 bits, fits in one field of a ``_count`` batch."""
    limit = min(_MAX_DIGITS, sys.get_int_max_str_digits() or _MAX_DIGITS)
    ceiling = 10 ** limit
    bits = ceiling.bit_length()  # 2^e >= ceiling for every e >= bits
    # the total is 2^(d^n) and bound_njred is at least 2^n, so a huge n or
    # d^n is refused before any power of two is built
    if n < bits and d ** n < bits:
        numbers = (2 ** d ** n, 2 ** (d + d ** (n - 1) - 1) * (2 ** n - 2),
                   2 ** (n * d ** (n - 1)))
        if max(numbers) < ceiling:
            return numbers
    raise CapExceededError(
        f"census over d={d}, n={n} would print a number of more than {limit} digits")


def _repeat(block: int, width: int, count: int) -> int:
    """``count`` copies of ``block``, one every ``width`` bits, built by
    doubling shifts (O(log count) big-int operations)."""
    out = shift = 0
    while count:
        if count & 1:
            out |= block << shift
            shift += width
        block |= block << width
        width *= 2
        count >>= 1
    return out


# A census batch packs its masks into one int of at most this many bits, and
# the dense deciders take the mask of a relation of at most this many cells.
_BATCH_BITS = 1 << 16


def _saturate(x: int, shifts: Sequence[int], zero: int) -> int:
    """Project ``x`` along one coordinate and take the cylinder back: OR
    its slices into slice 0 (``x >> v*s``, masked to ``zero``), then copy
    slice 0 to every slice (``<< v*s``)."""
    slice0 = x
    for shift in shifts:
        slice0 |= x >> shift
    slice0 &= zero
    cylinder = slice0
    for shift in shifts:
        cylinder |= slice0 << shift
    return cylinder


@functools.cache
def _axes(d: int, n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Per coordinate j of one mask on D^n: the shifts v*s_j for 0 < v < d,
    and ``zero_j``, the cells whose j-th value is 0.

    Bit i of a mask is the i-th cell of ``itertools.product(range(d),
    repeat=n)``, so coordinate j has stride s_j = d^(n-1-j).  Saturating X
    along j (projecting it along j and taking the cylinder back) ORs its d
    slices along j into slice 0 (``X >> v*s_j`` for v < d, masked to
    ``zero_j``) and copies slice 0 back to every slice (``<< v*s_j``): about
    2d shifts and ORs on the whole mask."""
    return tuple(
        (tuple(v * s for v in range(1, d)), _repeat((1 << s) - 1, d * s, d ** j))
        for j, s in enumerate(d ** (n - 1 - j) for j in range(n))
    )


def _sat(sats: dict[int, int], kept: int, axes) -> int:
    """cyl(pi_kept) on ``axes``, those of one mask or of a batch, with n =
    ``len(axes)``, memoized in ``sats``, which starts as {all n coordinates:
    the masks}: the saturation of the next larger kept set along the lowest
    dropped coordinate."""
    if kept not in sats:
        dropped = ((1 << len(axes)) - 1) ^ kept
        j = (dropped & -dropped).bit_length() - 1
        shifts, zero = axes[j]
        sats[kept] = _saturate(_sat(sats, kept | 1 << j, axes), shifts, zero)
    return sats[kept]


def _count(d: int, n: int, masks: Iterable[int]) -> tuple[int, int]:
    """How many of ``masks``, n-ary relations on a d-element domain each
    below 2^(d^n), are degenerate, and how many join reducible.

    The masks are tested many per big-int operation (broadword computing,
    Knuth, TAOCP 4A, 7.1.3), in batches in their order.  A batch packs its
    masks side by side in one int, one field of ``width`` bits per mask:
    mask i is bits i*width to (i+1)*width - 1.
    - A field holds the d^n cells, then zero bits up to a whole byte (so
      that masks pack as bytes); there is at least one, and the field's top
      bit is its guard, which every operation leaves 0.
    - No shift crosses a field.  A right shift by v*s_j < d*s_j lands a bit
      of the next field only on a cell whose j-th value is not 0, which
      ``zero_j`` clears; a left shift starts from slice 0, whose cells stay
      inside the field when their j-th value grows to v < d.
    - A field holding x is zero iff x + 2^(width-1) - 1 leaves its guard
      bit clear: the sum stays below 2^width, so no carry leaves the field,
      and ``(X + low) & guard`` marks every nonzero field of X at once.
    - A batch holds as many masks as fit in ``_BATCH_BITS`` bits, and a
      mask wider than that is refused before anything is built.  The
      censuses admit only masks of fewer than 14,285 bits, so each batch
      holds at least four, each operation is on at most 8 kilobytes, and the
      degeneracy test memoizes at most 2^n - 2 saturations of its batch:
      about 2 MB at n = 8.

    R is join reducible iff it equals the join of its (n-1)-projections,
    i.e. the AND of their n cylinders.  R is degenerate iff some
    bipartition (A, B) of the coordinates has R = cyl(pi_A) & cyl(pi_B):
    R lies inside pi_A x pi_B, so this is |pi_A| * |pi_B| = |R|.  A
    Cartesian product is a join reduction, so degeneracy is tested only in
    a batch with a join-reducible field, in ``_bipartitions`` order, and
    only until every such field is found degenerate or every bipartition is
    tried."""
    width = (d ** n // 8 + 1) * 8
    fields = _BATCH_BITS // width
    if not fields:
        raise PreconditionError(
            f"a mask of {d ** n} cells does not fit a census batch of {_BATCH_BITS} bits")
    deg = jred = 0
    if n < 2:
        return deg, jred
    axes = [(shifts, _repeat(zero, width, fields)) for shifts, zero in _axes(d, n)]
    bipartitions = [(sum(1 << i for i in left), sum(1 << i for i in right))
                    for left, right in _bipartitions(range(n))]
    full_ones = _repeat(1, width, fields)  # the lowest bit of every field
    nbytes = width // 8
    masks = iter(masks)
    while batch := list(itertools.islice(masks, fields)):
        packed = int.from_bytes(
            b"".join([mask.to_bytes(nbytes, "little") for mask in batch]), "little")
        joined = _joined(packed, axes)
        ones = full_ones >> (fields - len(batch)) * width
        guard = ones << width - 1
        low = guard - ones
        # the guard bits of the join-reducible fields, then of those not
        # yet found degenerate
        pending = guard ^ (((joined ^ packed) + low) & guard)
        batch_jred = pending.bit_count()
        if pending:
            sats = {(1 << n) - 1: packed}
            for a, b in bipartitions:
                pending &= ((_sat(sats, a, axes) & _sat(sats, b, axes)) ^ packed) + low
                if not pending:
                    break
        jred += batch_jred
        deg += batch_jred - pending.bit_count()
    return deg, jred


def _joined(x: int, axes) -> int:
    """The join of the (n-1)-projections of ``x`` on ``axes``: the AND of
    its saturations along each coordinate."""
    joined = -1
    for shifts, zero in axes:
        joined &= _saturate(x, shifts, zero)
    return joined


def _mask(rel: Relation, elems: Sequence[str], order: Optional[Sequence[str]] = None) -> int:
    """The rows of ``rel`` as one mask on D^n, in the cell order of
    ``_axes``: a row whose values, on the attributes of ``order`` (all of
    ``rel.attrs``, by default in that order), have the indices i_1, ...,
    i_n in ``elems`` is the cell sum_j i_j * d^(n-j).  Built a column at a
    time."""
    if not rel.rows:
        return 0
    columns = dict(zip(rel.attrs, zip(*rel.rows)))
    cells: Iterable[int] = [0] * len(rel.rows)
    stride = 1
    for attr in reversed(order or rel.attrs):
        weight = {e: i * stride for i, e in enumerate(elems)}
        cells = map(operator.add, cells, map(weight.__getitem__, columns[attr]))
        stride *= len(elems)
    return sum(map((1).__lshift__, cells))


def _check_census(d: int, n: int) -> None:
    """Both censuses' one check before D^n is built: range, then caps."""
    if d < 1 or n < 1:
        raise PreconditionError(f"census needs d >= 1 and n >= 1, got d={d}, n={n}")
    caps = current()
    if d > caps.max_domain or n > caps.max_arity:
        raise CapExceededError(
            f"census over d={d}, n={n} exceeds caps "
            f"max_domain={caps.max_domain}, max_arity={caps.max_arity}"
        )


def census(d: int, n: int) -> CensusRow:
    """Exact census of all 2^(d^n) n-ary relations on a d-element domain:
    how many are degenerate, how many join reducible, against the crude
    counting bounds.  The 2^(d^n) masks count against ``max_search_nodes``."""
    _check_census(d, n)
    cap = current().max_search_nodes
    bits = max(cap, 0).bit_length()  # 2^(d^n) <= cap iff d^n < bits
    if d ** min(n, bits) >= bits:  # the exponent is capped: n may be huge
        raise CapExceededError(
            f"census of 2^({d}^{n}) relations exceeds cap {cap}; "
            "sample instead (relred census --sample)"
        )
    total, bound_ndeg, bound_njred = _census_numbers(d, n)
    deg, jred = _count(d, n, range(total))
    assert deg <= bound_ndeg, "degenerate count exceeds its counting bound"
    assert jred <= bound_njred, "join-reducible count exceeds its counting bound"
    assert deg <= jred, "every Cartesian factorization is a join reduction"
    return CensusRow(d, n, total, deg, jred, bound_ndeg, bound_njred)


def census_sampled(d: int, n: int, samples: int, seed: int = 0) -> CensusRow:
    """Sampled census: counts over `samples` uniformly drawn relation
    bitmasks.  Counts are per-sample, not extrapolated.  The draws count
    against ``max_search_nodes``, as the exact census's masks do."""
    if samples < 0:
        raise PreconditionError(f"sampled census needs samples >= 0, got {samples}")
    _check_census(d, n)
    cap = current().max_search_nodes
    if samples > cap:
        raise CapExceededError(f"sampled census of {samples} relations exceeds cap {cap}")
    total, bound_ndeg, bound_njred = _census_numbers(d, n)
    rng = random.Random(seed)
    deg, jred = _count(d, n, (rng.getrandbits(d ** n) for _ in range(samples)))
    return CensusRow(d, n, total, deg, jred, bound_ndeg, bound_njred,
                     mode="sampled", samples=samples)


# ---------------------------------------------------------------------------
# Ternary oracle suite
# ---------------------------------------------------------------------------


def ternary_oracle_suite(rel: Relation) -> list[dict]:
    """Evidence bundle for a ternary: degeneracy, identity comparison, and
    the one-parameter box oracle with its ternarity consequences."""
    if rel.arity != 3:
        raise PreconditionError("oracle suite is for ternaries")
    evidence: list[dict] = []
    witness = is_degenerate(rel)
    evidence.append(
        {
            "test": "degeneracy",
            "verdict": witness is not None,
            "witness": [list(b) for b in witness] if witness else None,
        }
    )
    if witness is not None:
        evidence.append({"test": "ternarity", "conclusion": "ter = 0", "value": 0})
        return evidence
    identity = core.standard("identity", rel.attrs, rel.domain)
    if core.equal_relations(rel, identity):
        evidence.append(
            {"test": "identity", "verdict": True,
             "conclusion": "ter = ter_I3 = 1", "value": 1}
        )
        return evidence
    evidence.append({"test": "identity", "verdict": False})
    if len(rel) == rel.domain.size ** 3:
        evidence.append({"test": "universal", "verdict": True,
                         "note": "reducible but of no reductive interest"})
    try:
        cert = one_param_ternary_projoin(rel)
    except ReductionRefused as e:
        evidence.append(
            {"test": "oneParamTernaryProjoin", "verdict": "inapplicable",
             "reason": e.reason}
        )
        return evidence
    if cert is not None:
        evidence.append(
            {"test": "oneParamTernaryProjoin", "verdict": True,
             "conclusion": "ter_I3 <= 1 via single-teridentity bond"}
        )
    else:
        # a single-teridentity subternaric bond would condense to exactly
        # this one-parameter binary projoin; with parity, ter_I3 >= 3
        evidence.append(
            {"test": "oneParamTernaryProjoin", "verdict": False,
             "conclusion": "ter_I3 >= 3", "ter_i3_lower": 3}
        )
    return evidence
