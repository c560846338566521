"""Exhaustive desk-scale deciders and censuses.

Everything here is exact: degeneracy and join reducibility are decided by
the cardinality/projection tests that characterize them, and censuses by
enumerating at most ``max_search_nodes`` relations (or by sampling them).

Degeneracy, the finest factorization and the universality hypotheses read
one ``core.projection_sizes`` table: R is a product over a bipartition (A, B)
iff |pi_A| * |pi_B| = |R|, and pi_X is universal iff it has d^|X| rows.

The census tests each relation as one bitmask over the d^n cells of D^n:
projections and cylinders are a few whole-mask shifts per coordinate, R is
join reducible iff the AND of the cylinders of its (n-1)-projections is R,
and degenerate iff the popcounts of two complementary projections multiply
to |R| (see ``_CensusSpace``).

The Boolean-rank decider (two-factor relative products) and the one-parameter
box decider (ternary projoins) share one bitmask cover search, ``_cover``:
is the relation a union of at most d maximal all-ones rectangles, or boxes?
A cover found becomes a one-parameter certificate through the labeled-union
builder of ``reducers``: each rectangle or box gets its own parameter value.
The box decider reads the census's cylinder kernel: its cells are the bits
of ``_CensusSpace(d, 3)``, and each cylinder is a shift of an axis mask.
One budget, ``max_search_nodes``, bounds the time of both deciders: it caps
the candidate boxes, the rectangle closure's AND steps and the cover nodes.

The join decider's certificate is its test: building the certificate over
the (n-1)-projections joins them once, and a "no" fails its verification.
"""

from __future__ import annotations

import decimal
import itertools
import json
import math
import random
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
from .reducers import _certificate, _labeled_union


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
            left = tuple(attrs[i] for i in combo)
            right = tuple(a for a in attrs if a not in set(left))
            yield left, right


def _split(size, attrs: tuple[str, ...]) -> Optional[tuple[tuple[str, ...], ...]]:
    """The first bipartition of ``attrs``, in ``_bipartitions`` order, whose
    two sides' sizes multiply to the size of ``attrs``, or None."""
    for left, right in _bipartitions(attrs):
        if size(left) * size(right) == size(attrs):
            return left, right
    return None


def is_degenerate(rel: Relation) -> Optional[tuple[tuple[str, ...], tuple[str, ...]]]:
    """A witnessing nontrivial bipartition over which the relation is a
    Cartesian product, or None.  Bipartitions suffice: any finer
    factorization refines some bipartition."""
    return _split(core.projection_sizes(rel), rel.attrs)


def finest_factorization(rel: Relation) -> tuple[tuple[str, ...], ...]:
    """The finest Cartesian factorization, as a tuple of scheme blocks
    (a single block when the relation is non-degenerate).  Each block is
    split on the same size table: its projections are the relation's."""
    size = core.projection_sizes(rel)

    def finest(attrs: tuple[str, ...]) -> tuple[tuple[str, ...], ...]:
        split = _split(size, attrs)
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
    and factors may be replaced by projections.)  The certificate over
    those projections is the test: building it joins them once, and it
    fails to verify exactly when R is not join reducible.  The join
    always contains R, so a "no" is refused on its row count."""
    if rel.arity < 2:
        raise PreconditionError("join reducibility needs arity >= 2")
    factors = [core.project(rel, rel.scheme - {i}) for i in rel.attrs]
    env = {f"F{j}": factor for j, factor in enumerate(factors, start=1)}
    try:
        return _certificate(rel, env, {})
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
        return json.dumps(
            {
                "condition_i": self.condition_i,
                "condition_ii": self.condition_ii,
                "implies_irreducible": self.implies_irreducible,
            }
        )


def irreducibility_tests(rel: Relation) -> IrreducibilityReport:
    d = rel.domain
    cond_i = (rel.arity >= 2 and len(rel) != d.size ** rel.arity
              and _nonuniversal(rel) is None)
    neg = core.complement(rel)
    cond_ii = len(neg) > 0 and all(
        len(core.project(neg, (i,))) < d.size for i in rel.attrs
    )
    return IrreducibilityReport(cond_i, cond_ii)


# ---------------------------------------------------------------------------
# Boolean rank
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BooleanMatrix:
    """0-1 matrix with rows stored as column bitmasks, remembering which
    attribute-block value tuples index the rows and columns."""

    row_masks: tuple[int, ...]
    ncols: int
    row_tuples: tuple[tuple[str, ...], ...] = ()
    col_tuples: tuple[tuple[str, ...], ...] = ()

    @property
    def nrows(self) -> int:
        return len(self.row_masks)


def bipartition_matrix(rel: Relation, left: Iterable[str]) -> BooleanMatrix:
    """The relation as a 0-1 matrix indexed by value tuples of the two
    blocks of a bipartition of its scheme.  A matrix over ``rank_max_cells``
    is refused before its rows and columns are listed."""
    left_c = core.canonical_attrs(left)
    if not set(left_c) < rel.scheme or not left_c:
        raise AttributeSchemeError("left block must be a nonempty proper subset")
    right_c = tuple(a for a in rel.attrs if a not in set(left_c))
    d = rel.domain.size
    _check_cells(d ** len(left_c) * d ** len(right_c))
    rows = list(itertools.product(rel.domain.elements, repeat=len(left_c)))
    cols = list(itertools.product(rel.domain.elements, repeat=len(right_c)))
    col_index = {t: i for i, t in enumerate(cols)}
    pick_row = core._picker([rel.attrs.index(a) for a in left_c])
    pick_col = core._picker([rel.attrs.index(a) for a in right_c])
    masks = {t: 0 for t in rows}
    for row in rel.rows:
        masks[pick_row(row)] |= 1 << col_index[pick_col(row)]
    return BooleanMatrix(
        tuple(masks[t] for t in rows), len(cols), tuple(rows), tuple(cols)
    )


def _check_cells(cells: int) -> None:
    """Refuse a Boolean matrix of more than ``rank_max_cells`` cells."""
    max_cells = current().rank_max_cells
    if cells > max_cells:
        raise CapExceededError(f"matrix has {cells} cells > cap {max_cells}")


def _maximal_rectangles(m: BooleanMatrix) -> list[tuple[int, int]]:
    """All maximal all-ones rectangles as (row_mask, col_mask) pairs.
    Column sets of maximal rectangles are exactly the nonzero AND-closure
    of the row masks; each such set is closed (the AND of the rows that
    contain it), so with those rows it is already maximal.  A closure taking
    more than ``max_search_nodes`` AND steps is refused."""
    cap, steps = current().max_search_nodes, 0
    closure: set[int] = set()
    frontier = {mask for mask in m.row_masks if mask}
    while frontier:
        steps += len(frontier) * m.nrows
        if steps > cap:
            raise CapExceededError(f"rectangle closure exceeds {cap} steps")
        closure |= frontier
        frontier = {
            a & b for a in frontier for b in m.row_masks if a & b and a & b not in closure
        }
    return sorted(
        (sum(1 << i for i, mask in enumerate(m.row_masks) if mask & cols == cols), cols)
        for cols in closure
    )


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
    rects = _maximal_rectangles(m)
    pieces = [
        sum(cols << i * m.ncols for i in range(m.nrows) if rows >> i & 1)
        for rows, cols in rects
    ]
    cells = sum(mask << i * m.ncols for i, mask in enumerate(m.row_masks))
    chosen = _cover(cells, pieces, k)
    return None if chosen is None else [rects[i] for i in chosen]


def rel_prod_reducible2(
    rel: Relation, left: Iterable[str]
) -> Optional[ReductionCertificate]:
    """Is R a relative product of two lower-arity relations over the given
    bipartition, i.e. R(x) = exists t [A(x_left, t) & B(t, x_right)]?

    Decided exactly by Boolean rank <= d of the bipartition matrix: the
    parameter t sorts the tuples into at most d all-ones rectangles."""
    m = bipartition_matrix(rel, left)
    cover = boolean_rank_at_most(m, rel.domain.size)
    if cover is None:
        return None
    left_c = core.canonical_attrs(left)
    right_c = tuple(a for a in rel.attrs if a not in set(left_c))
    rectangles = (
        [
            [t for i, t in enumerate(m.row_tuples) if rmask >> i & 1],
            [t for j, t in enumerate(m.col_tuples) if cmask >> j & 1],
        ]
        for rmask, cmask in cover
    )
    return _labeled_union(rel, 1, [left_c, right_c], rectangles)


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

    Cell i of D^3 in sorted order is bit i, as in ``_CensusSpace(d, 3)``,
    whose axes give the cylinder of value v on coordinate k (cells whose
    k-th value is v) as ``zero << v*s_k``; the cylinder of a subset is the
    OR of its values', one OR from the subset without its lowest element,
    and a box A x B x C is the AND of three cylinders.  Every maximal box
    has C = C_max(A, B) = {v : A x B x {v} inside R}, so only the boxes
    (A, B, C_max) are candidates, found with d tests per pair (A, B):
    (2^d-1)^2 * d tests where all boxes would take (2^d-1)^3.
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
    index = {e: i for i, e in enumerate(elems)}
    # subset cylinders indexed by the subset's bitmask; 0 is the empty set
    subsets = [tuple(e for i, e in enumerate(elems) if chosen >> i & 1)
               for chosen in range(2 ** d.size)]
    single = [[zero] + [zero << shift for shift in shifts]
              for shifts, zero in _CensusSpace(d.size, 3).axes]
    cyl = []
    for values in single:
        row = [0]
        for chosen in range(1, 2 ** d.size):
            low = (chosen & -chosen).bit_length() - 1
            row.append(row[chosen & (chosen - 1)] | values[low])
        cyl.append(row)
    target = sum(1 << (index[x] * d.size + index[y]) * d.size + index[z]
                 for x, y, z in rel.rows)
    outside = ~target
    boxes = []
    for a in range(1, 2 ** d.size):
        for b in range(1, 2 ** d.size):
            ab = cyl[0][a] & cyl[1][b]
            c = sum(1 << v for v, cyl_v in enumerate(single[2]) if not ab & cyl_v & outside)
            if c:
                boxes.append((ab & cyl[2][c], (subsets[a], subsets[b], subsets[c])))
    # largest first: a box inside another lies inside a maximal one, kept earlier
    boxes.sort(key=lambda box: -box[0].bit_count())
    maximal: list[tuple[int, tuple]] = []
    for mask, sets in boxes:
        if all(mask | other != other for other, _ in maximal):
            maximal.append((mask, sets))
    maximal.sort(key=lambda box: box[1])
    chosen = _cover(target, [mask for mask, _ in maximal], d.size)
    if chosen is None:
        return None
    cover = ([[(v,) for v in side] for side in maximal[i][1]] for i in chosen)
    return _labeled_union(rel, 1, [(a,) for a in rel.attrs], cover)


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
        return "{%s}" % ", ".join(
            f"{json.dumps(name)}: "
            + (_digits(value) if isinstance(value, int) else json.dumps(value))
            for name, value in asdict(self).items()
        )

    def to_csv_row(self) -> str:
        return ",".join(
            _digits(value) if isinstance(value, int) else value or ""
            for value in asdict(self).values()
        )


def _digits(x: int) -> str:
    """Decimal digits of x.  ``str`` refuses ints past the interpreter's
    digit limit (4300 digits by default) and is quadratic in the length,
    while a sampled census over d^n cells prints 2^(d^n): so x is split at
    half its bit length and the halves are recombined in the ``decimal``
    module, whose multiplication is subquadratic (as Python 3.12's
    ``str`` does for large ints)."""
    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)
    powers: dict[int, decimal.Decimal] = {}

    def convert(x: int, width: int) -> decimal.Decimal:
        if width <= 4096:
            return decimal.Decimal(x)
        half = width // 2
        if half not in powers:
            powers[half] = ctx.power(decimal.Decimal(2), half)
        high = x >> half
        low = convert(x - (high << half), half)
        return ctx.add(ctx.multiply(convert(high, width - half), powers[half]), low)

    return str(convert(x, x.bit_length()))


def _census_bounds(d: int, n: int) -> tuple[int, int]:
    ndeg = 2 ** (d + d ** (n - 1) - 1) * sum(math.comb(n, k) for k in range(1, n))
    njred = 2 ** (n * d ** (n - 1))
    return ndeg, njred


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


class _CensusSpace:
    """Bit-parallel tests of n-ary relations on a d-element domain, each
    relation a mask of d^n bits.

    Bit i is the i-th cell of ``itertools.product(range(d), repeat=n)``,
    so coordinate j has stride s_j = d^(n-1-j).  Projecting X along j ORs
    its d slices along j into slice 0 (``X >> v*s_j`` for v < d, masked
    to the cells whose j-th value is 0); the cylinder copies slice 0 back
    to every slice (``<< v*s_j``).  Each is about d shifts and ORs on the
    whole mask, and a projection along several coordinates keeps |pi| set
    bits.

    R is join reducible iff it equals the join of its (n-1)-projections,
    i.e. the AND of their n cylinders.  R is degenerate iff some
    bipartition (A, B) of the coordinates has |pi_A| * |pi_B| = |R|.
    Degeneracy is tested only when the join test passes, since a Cartesian
    product is a join reduction."""

    def __init__(self, d: int, n: int):
        self.n = n
        self.ncells = d ** n
        # per coordinate j: the shifts v*s_j for 0 < v < d, and the cells
        # whose j-th value is 0
        self.axes = [
            ([v * s for v in range(1, d)], _repeat((1 << s) - 1, d * s, d ** j))
            for j, s in enumerate(d ** (n - 1 - j) for j in range(n))
        ]
        # Every set of 2..n-1 dropped coordinates, depth first, as (parent
        # slot, slot, coordinate dropped, kept coordinates as a bitmask).
        # Slot j holds the projection dropping j; slot n + k - 2 the
        # current set of k dropped coordinates, so at most 2n - 2
        # projections are alive.
        self.walk: list[tuple[int, int, int, int]] = []
        for j in range(n):
            self._plan(1 << j, j, j)

    def _plan(self, dropped: int, last: int, parent: int) -> None:
        full = (1 << self.n) - 1
        slot = self.n + dropped.bit_count() - 1
        for j in range(last + 1, self.n):
            child = dropped | 1 << j
            if child != full:
                self.walk.append((parent, slot, j, full ^ child))
                self._plan(child, j, slot)

    def classify(self, mask: int) -> tuple[bool, bool]:
        """(degenerate, join_reducible) for the relation ``mask``."""
        if self.n < 2:
            return False, False
        joined = -1
        projections = []
        for shifts, zero in self.axes:
            slice0 = mask
            for shift in shifts:
                slice0 |= mask >> shift
            slice0 &= zero
            projections.append(slice0)
            cylinder = slice0
            for shift in shifts:
                cylinder |= slice0 << shift
            joined &= cylinder
        if joined != mask:
            return False, False
        return self._is_degenerate(mask.bit_count(), projections), True

    def _is_degenerate(self, size: int, projections: list[int]) -> bool:
        """Record |pi_kept| for every proper nonempty kept set and stop at
        the first bipartition whose two projection sizes multiply to |R|.
        The (n-1)-projections are recorded first, so that a factor on one
        coordinate is found after its first descent."""
        full = (1 << self.n) - 1
        # a side not yet recorded reads 0, which matches only |R| = 0, and
        # the empty relation is degenerate
        card = {full ^ 1 << j: u.bit_count() for j, u in enumerate(projections)}
        for kept, count in card.items():
            if card.get(full ^ kept, 0) * count == size:
                return True
        level = projections + [0] * (self.n - 2)
        for parent, slot, j, kept in self.walk:
            # projected inline, as in classify: a call per projection costs
            # about 40% at desk sizes
            shifts, zero = self.axes[j]
            x = slice0 = level[parent]
            for shift in shifts:
                slice0 |= x >> shift
            level[slot] = slice0 = slice0 & zero
            count = card[kept] = slice0.bit_count()
            if card.get(full ^ kept, 0) * count == size:
                return True
        return False


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


def _classify_all(space: _CensusSpace, masks: Iterable[int]) -> tuple[int, int]:
    """How many of ``masks`` are degenerate, and how many join reducible."""
    deg = jred = 0
    for mask in masks:
        is_deg, is_jred = space.classify(mask)
        deg += is_deg
        jred += is_jred
    return deg, jred


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
            "use census_sampled instead"
        )
    space = _CensusSpace(d, n)
    deg, jred = _classify_all(space, range(2 ** space.ncells))
    bound_ndeg, bound_njred = _census_bounds(d, n)
    assert deg <= bound_ndeg, "degenerate count exceeds its counting bound"
    assert jred <= bound_njred, "join-reducible count exceeds its counting bound"
    assert deg <= jred, "every Cartesian factorization is a join reduction"
    return CensusRow(d, n, 2 ** space.ncells, deg, jred, bound_ndeg, bound_njred)


def census_sampled(d: int, n: int, samples: int, seed: int = 0) -> CensusRow:
    """Sampled census: counts over `samples` uniformly drawn relation
    bitmasks.  Counts are per-sample, not extrapolated."""
    if samples < 0:
        raise PreconditionError(f"sampled census needs samples >= 0, got {samples}")
    _check_census(d, n)
    space = _CensusSpace(d, n)
    rng = random.Random(seed)
    deg, jred = _classify_all(space, (rng.getrandbits(space.ncells) for _ in range(samples)))
    return CensusRow(d, n, 2 ** space.ncells, deg, jred, *_census_bounds(d, n),
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
