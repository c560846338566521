"""The bit-parallel census tests against the per-cell reference.

``_count`` decides degeneracy and join reducibility for a batch of masks
packed into one int, one field per mask, with whole-int shifts (``classify``
below is ``_count`` of one mask); ``oracles.PerCellCensus`` decides
them cell by cell.  They are compared on every mask of the small spaces and
on random masks, thinned by ANDing further draws or built as Cartesian
products so that both properties occur, of the larger ones: one mask at a
time, many masks in one batch (where a field's test must not read its
neighbours, such as an empty field between two full ones), and one mask
more than a batch holds.  A mask wider than a batch is refused before
anything is built.
"""

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from relred import analysis
from relred.analysis import _BATCH_BITS, _axes, _count, census, census_sampled
from relred.errors import PreconditionError

from oracles import PerCellCensus

PROPS = settings(
    derandomize=True,
    max_examples=60,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def classify(d, n, mask):
    """(degenerate, join_reducible) for the one relation ``mask``."""
    deg, jred = _count(d, n, [mask])
    return deg == 1, jred == 1


def reference(d, n, mask):
    oracle = PerCellCensus(d, n)
    return oracle.is_degenerate(mask), oracle.is_join_reducible(mask)


@pytest.mark.parametrize("d,n", [(1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (3, 2)])
def test_every_mask_matches_per_cell_reference(d, n):
    oracle = PerCellCensus(d, n)
    for mask in range(2 ** (d ** n)):
        expected = oracle.is_degenerate(mask), oracle.is_join_reducible(mask)
        assert classify(d, n, mask) == expected, mask


LARGER = [(3, 3), (2, 5), (3, 4), (4, 3), (2, 6), (5, 2)]


@st.composite
def thinned_mask(draw, d, n):
    """A uniform mask ANDed with up to three further uniform masks."""
    rng = draw(st.randoms(use_true_random=False))
    mask = rng.getrandbits(d ** n)
    for _ in range(draw(st.integers(0, 3))):
        mask &= rng.getrandbits(d ** n)
    return mask


@st.composite
def thinned_masks(draw):
    d, n = draw(st.sampled_from(LARGER))
    return d, n, draw(thinned_mask(d, n))


@st.composite
def product_mask(draw, d, n):
    """The Cartesian product of random relations on a random bipartition,
    possibly with one cell toggled: degenerate cases and near misses."""
    left = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    right = [j for j in range(n) if j not in left]
    left = sorted(left)
    sides = [
        draw(st.sets(st.tuples(*[st.integers(0, d - 1)] * len(block)),
                     min_size=1, max_size=20))
        for block in (left, right)
    ]
    mask = 0
    for i, cell in enumerate(itertools.product(range(d), repeat=n)):
        if (tuple(cell[j] for j in left) in sides[0]
                and tuple(cell[j] for j in right) in sides[1]):
            mask |= 1 << i
    if draw(st.booleans()):
        mask ^= 1 << draw(st.integers(0, d ** n - 1))
    return mask


@st.composite
def product_masks(draw):
    d, n = draw(st.sampled_from(LARGER))
    return d, n, draw(product_mask(d, n))


@st.composite
def mask_batches(draw):
    """Masks of one space for one count call: thinned, product and toggled
    product masks, with the all-ones mask on both sides of an empty one."""
    d, n = draw(st.sampled_from(LARGER))
    masks = draw(st.lists(st.one_of(thinned_mask(d, n), product_mask(d, n)), max_size=40))
    at = draw(st.integers(0, len(masks)))
    full = (1 << d ** n) - 1
    masks[at:at] = [full, 0, full]
    return d, n, masks


@PROPS
@given(thinned_masks())
def test_thinned_masks_match_per_cell_reference(case):
    d, n, mask = case
    assert classify(d, n, mask) == reference(d, n, mask)


@PROPS
@given(product_masks())
def test_product_masks_match_per_cell_reference(case):
    d, n, mask = case
    assert classify(d, n, mask) == reference(d, n, mask)


def expected_counts(d, n, masks):
    oracle = PerCellCensus(d, n)
    return (sum(map(oracle.is_degenerate, masks)), sum(map(oracle.is_join_reducible, masks)))


@PROPS
@given(mask_batches())
def test_batched_count_matches_per_cell_reference(case):
    # the masks share one batch, one field each
    d, n, masks = case
    assert _count(d, n, masks) == expected_counts(d, n, masks)


def test_count_past_one_batch():
    # one mask more than a batch holds: the last is alone in a second batch
    d, n = 10, 3
    fields = _BATCH_BITS // ((d ** n // 8 + 1) * 8)  # a field is d^n bits and a guard, in bytes
    assert fields > 4
    full = (1 << d ** n) - 1
    # the product {0,1,2}^3; without a cell or with one more it is a near miss
    cube = sum(1 << (x * d + y) * d + z
               for x, y, z in itertools.product(range(3), repeat=3))
    rng = random.Random(5)
    masks = [full, 0, cube, cube ^ 1] + [rng.getrandbits(d ** n) & rng.getrandbits(d ** n)
                                         for _ in range(fields - 4)]
    for last in [full, cube, 0, cube ^ 1 << 14]:
        batch = masks + [last]
        assert len(batch) == fields + 1
        assert _count(d, n, batch) == expected_counts(d, n, batch)


@pytest.mark.parametrize("d,n,expected", [
    (2, 2, (16, 10, 10)),
    (2, 3, (256, 82, 166)),
    (3, 2, (512, 50, 50)),
    (2, 4, (65536, 2602, 43146)),
    (4, 2, (65536, 226, 226)),
])
def test_exact_census_counts(d, n, expected):
    row = census(d, n)
    assert (row.total, row.degenerate, row.join_reducible) == expected


def test_count_refuses_a_mask_wider_than_a_batch(monkeypatch):
    # 8^8 cells: no census admits the mask, and nothing is built for it
    def unbuilt(d, n):
        raise AssertionError(f"axes built for d={d}, n={n}")

    def unread():
        raise AssertionError("masks read")
        yield

    monkeypatch.setattr(analysis, "_axes", unbuilt)
    with pytest.raises(PreconditionError, match="does not fit a census batch"):
        _count(8, 8, unread())


@pytest.mark.parametrize("d,n", [(4, 8), (2, 16), (6, 5)])
def test_axes_hold_no_per_cell_list(d, n):
    # the deciders' largest masks, (4, 8) and (2, 16), and the censuses', (6, 5)
    axes = _axes(d, n)
    assert len(axes) == n
    for shifts, zero in axes:
        assert len(shifts) == d - 1 and isinstance(zero, int)


def test_sampled_census_negative_samples_refused(no_census_space):
    with pytest.raises(PreconditionError, match="samples >= 0"):
        census_sampled(2, 2, -3)


def test_sampled_census_zero_samples():
    row = census_sampled(2, 2, 0)
    assert (row.samples, row.degenerate, row.join_reducible) == (0, 0, 0)
