"""The dense deciders on the census kernel against plain-set references.

Up to ``analysis._BATCH_BITS`` cells, ``is_degenerate``,
``finest_factorization`` and ``is_join_reducible`` decide on the relation's
mask, and above it on projection sizes and the join certificate.  Each
property runs once with the real limit and once with the limit at 0, so
that the same relations take both routes; the answers must match
``oracles.degeneracy_witness``, ``oracles.finest_blocks`` and
``oracles.join_cover_reducible``.  ``_maximal_boxes`` must list exactly
``oracles.maximal_boxes``, in the order of their sides' values.  Inputs
include the empty relation, n = 0 and 1, and d = 1.  Two relations of
2^17 cells, above the real limit, are checked directly, and degeneracy
and the finest factorization on both sides of the 2^24-bit ceiling on
their saturation memo.
"""

import itertools
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from relred import analysis
from relred.analysis import (
    _BATCH_BITS,
    _mask,
    _maximal_boxes,
    finest_factorization,
    is_degenerate,
    is_join_reducible,
    one_param_ternary_projoin,
)
from relred.core import Domain, Relation
from relred.errors import PreconditionError, ReductionRefused
from relred.formula import check_certificate

PROPS = settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# the real limit, and 0: every relation above it
LIMITS = pytest.mark.parametrize("limit", [_BATCH_BITS, 0], ids=["mask", "sizes"])


@st.composite
def relations(draw, arities):
    d = draw(st.integers(1, 3))
    n = draw(arities)
    elems = "abc"[:d]
    cells = list(itertools.product(elems, repeat=n))
    rows = draw(st.sets(st.sampled_from(cells))) if cells else set()
    return Domain("D", tuple(elems)), n, rows


def _names(positions):
    return tuple(str(i + 1) for i in positions)


@LIMITS
@PROPS
@given(relations(st.integers(0, 5)))
def test_degenerate_matches_witness_oracle(limit, case):
    domain, n, rows = case
    rel = Relation.make(domain, _names(range(n)), rows)
    witness = oracles.degeneracy_witness(rows, n)
    with mock.patch.object(analysis, "_BATCH_BITS", limit):
        got = is_degenerate(rel)
    assert got == (None if witness is None else tuple(map(_names, witness)))


@LIMITS
@PROPS
@given(relations(st.integers(0, 5)))
def test_finest_factorization_matches_blocks_oracle(limit, case):
    domain, n, rows = case
    rel = Relation.make(domain, _names(range(n)), rows)
    with mock.patch.object(analysis, "_BATCH_BITS", limit):
        got = finest_factorization(rel)
    assert got == tuple(map(_names, oracles.finest_blocks(rows, range(n))))


@LIMITS
@PROPS
@given(relations(st.integers(1, 4)))
def test_join_reducible_matches_cover_oracle(limit, case):
    domain, n, rows = case
    rel = Relation.make(domain, _names(range(n)), rows)
    with mock.patch.object(analysis, "_BATCH_BITS", limit):
        if n == 1:
            with pytest.raises(PreconditionError):
                is_join_reducible(rel)
            return
        cert = is_join_reducible(rel)
    assert (cert is not None) == oracles.join_cover_reducible(rows, domain.elements, n)
    if cert is not None:
        assert check_certificate(cert).valid


def test_empty_and_universal_relations_on_both_routes():
    # both are products over the first bipartition, so join reducible too
    for d, n in ((1, 2), (1, 4), (2, 3), (3, 2)):
        domain = Domain("D", tuple("abc"[:d]))
        for rows in (set(), set(itertools.product(domain.elements, repeat=n))):
            rel = Relation.make(domain, _names(range(n)), rows)
            for limit in (_BATCH_BITS, 0):
                with mock.patch.object(analysis, "_BATCH_BITS", limit):
                    assert is_degenerate(rel) == (("1",), _names(range(1, n)))
                    assert is_join_reducible(rel) is not None


def test_degenerate_memo_ceiling_reads_projection_sizes(monkeypatch):
    # d = 2, n = 16 has 2^16 cells, within the mask limit, but a memo of up
    # to 2^16 - 2 saturations of 2^16 bits each: no mask is built
    def refuse(*args):
        raise AssertionError("mask built")

    monkeypatch.setattr(analysis, "_mask", refuse)
    n = 16
    rows = {(v,) + ("a",) * (n - 1) for v in "ab"}
    rel = Relation.make(Domain("D", ("a", "b")), _names(range(n)), rows)
    assert 2 ** n <= _BATCH_BITS
    assert is_degenerate(rel) == (("1",), _names(range(1, n)))
    assert finest_factorization(rel) == tuple((name,) for name in _names(range(n)))


def test_degenerate_at_the_memo_ceiling_takes_the_mask(monkeypatch):
    # d = 4, n = 8: 2^16 cells and 2^8 saturations, exactly 2^24 bits
    def refuse(rel):
        raise AssertionError("projection sizes read")

    monkeypatch.setattr(analysis.core, "projection_sizes", refuse)
    n = 8
    rows = {(v,) + ("a",) * (n - 1) for v in "ab"}
    rel = Relation.make(Domain("D4", tuple("abcd")), _names(range(n)), rows)
    assert is_degenerate(rel) == (("1",), _names(range(1, n)))
    assert finest_factorization(rel) == tuple((name,) for name in _names(range(n)))


def _sides(box):
    """A box's sides as sorted value-index lists, the decider's order."""
    return [sorted(side) for side in box]


@PROPS
@given(relations(st.just(3)))
def test_maximal_boxes_match_oracle(case):
    domain, _, rows = case
    elems = domain.elements
    index = {e: i for i, e in enumerate(elems)}
    want = sorted(_sides([{index[v] for v in side} for side in box])
                  for box in oracles.maximal_boxes(rows, elems))
    rel = Relation.make(domain, _names(range(3)), rows)
    got = _maximal_boxes(_mask(rel, sorted(elems)), domain.size)
    assert [[analysis._values(side) for side in sides] for _, sides in got] == want
    for mask, sides in got:
        cells = {(elems[x], elems[y], elems[z]) for x, y, z in
                 itertools.product(*map(analysis._values, sides))}
        assert mask == _mask(Relation.make(domain, _names(range(3)), cells), sorted(elems))
    if oracles.first_nonuniversal(rows, 3, domain.size) is not None:
        with pytest.raises(ReductionRefused):
            one_param_ternary_projoin(rel)
        return
    boxes = [oracles.cells_of(box) for box in oracles.maximal_boxes(rows, elems)]
    cert = one_param_ternary_projoin(rel)
    assert (cert is not None) == oracles.union_of_at_most(rows, boxes, domain.size)


# 2^17 cells, above the real limit: the projection-size and certificate routes
BIG = Domain("D2", ("a", "b"))
BIG_N = 17


def test_one_hot_above_the_limit_is_not_join_reducible():
    # each row has one b; the all-a cell lies in every 16-ary projection's
    # cylinder, so the join of the projections has one row more than R
    rows = [tuple("b" if j == i else "a" for j in range(BIG_N)) for i in range(BIG_N)]
    rel = Relation.make(BIG, _names(range(BIG_N)), rows)
    assert BIG.size ** BIG_N > _BATCH_BITS
    assert is_join_reducible(rel) is None


def test_product_above_the_limit_is_degenerate():
    rows = {(v,) + ("a",) * (BIG_N - 1) for v in "ab"}
    rel = Relation.make(BIG, _names(range(BIG_N)), rows)
    witness = oracles.degeneracy_witness(rows, BIG_N)
    assert is_degenerate(rel) == tuple(map(_names, witness)) == (("1",), _names(range(1, BIG_N)))
    cert = is_join_reducible(rel)
    assert cert is not None and check_certificate(cert).valid
