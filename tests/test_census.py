"""The bit-parallel census tests against the per-cell reference.

``_CensusSpace.classify`` decides degeneracy and join reducibility with
whole-mask shifts; ``oracles.PerCellCensus`` decides them cell by cell.
They are compared on every mask of the small spaces and on random masks,
thinned by ANDing further draws or built as Cartesian products so that
both properties occur, of the larger ones.
"""

import decimal
import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from relred.analysis import _CensusSpace, _digits, census, census_sampled
from relred.errors import PreconditionError

from oracles import PerCellCensus

PROPS = settings(
    derandomize=True,
    max_examples=60,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def reference(d, n, mask):
    oracle = PerCellCensus(d, n)
    return oracle.is_degenerate(mask), oracle.is_join_reducible(mask)


@pytest.mark.parametrize("d,n", [(1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (3, 2)])
def test_every_mask_matches_per_cell_reference(d, n):
    space, oracle = _CensusSpace(d, n), PerCellCensus(d, n)
    for mask in range(2 ** (d ** n)):
        expected = oracle.is_degenerate(mask), oracle.is_join_reducible(mask)
        assert space.classify(mask) == expected, mask


LARGER = [(3, 3), (2, 5), (3, 4), (4, 3), (2, 6), (5, 2)]


@st.composite
def thinned_masks(draw):
    """A uniform mask ANDed with up to three further uniform masks."""
    d, n = draw(st.sampled_from(LARGER))
    rng = draw(st.randoms(use_true_random=False))
    mask = rng.getrandbits(d ** n)
    for _ in range(draw(st.integers(0, 3))):
        mask &= rng.getrandbits(d ** n)
    return d, n, mask


@st.composite
def product_masks(draw):
    """The Cartesian product of random relations on a random bipartition,
    possibly with one cell toggled: degenerate cases and near misses."""
    d, n = draw(st.sampled_from(LARGER))
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
    return d, n, mask


@PROPS
@given(thinned_masks())
def test_thinned_masks_match_per_cell_reference(case):
    d, n, mask = case
    assert _CensusSpace(d, n).classify(mask) == reference(d, n, mask)


@PROPS
@given(product_masks())
def test_product_masks_match_per_cell_reference(case):
    d, n, mask = case
    assert _CensusSpace(d, n).classify(mask) == reference(d, n, mask)


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


def test_space_at_the_caps_keeps_no_per_cell_list():
    space = _CensusSpace(8, 8)
    for value in vars(space).values():
        if isinstance(value, (list, tuple, dict, set)):
            assert len(value) < 8 ** 4
    universal = (1 << 8 ** 8) - 1
    assert space.classify(universal) == (True, True)


def test_sampled_census_negative_samples_refused(no_census_space):
    with pytest.raises(PreconditionError, match="samples >= 0"):
        census_sampled(2, 2, -3)


def test_sampled_census_zero_samples():
    row = census_sampled(2, 2, 0)
    assert (row.samples, row.degenerate, row.join_reducible) == (0, 0, 0)


@pytest.mark.parametrize("x", [0, 1, 9, 10, 2 ** 64, 3 ** 2000, 2 ** 4097 - 1, 7 ** 5000])
def test_digits_matches_str(x):
    assert _digits(x) == str(x)


def test_digits_past_the_str_limit():
    # 2^16384 has 4933 digits, past the interpreter's default str limit
    text = _digits(2 ** 16384)
    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)
    assert decimal.Decimal(text) == ctx.power(decimal.Decimal(2), 16384)
    assert text.isdigit() and len(text) == 4933
