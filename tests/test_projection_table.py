"""The product, key and universality tests against plain-set references.

``is_degenerate``, ``finest_factorization``, ``find_keys``,
``is_cartesian_over``, condition (i) of ``irreducibility_tests`` and the
hypothesis check of ``one_param_ternary_projoin`` all read one table of
projection sizes.  Each is compared here with a reference in
``oracles.py`` that works on row sets: a product is checked by building
it, a key by comparing row pairs.  Inputs are random relations and
products of random blocks, d = 2..4 and n = 0..5; examples are
derandomized so that the suite stays deterministic.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from relred.analysis import (
    finest_factorization,
    irreducibility_tests,
    is_degenerate,
    one_param_ternary_projoin,
)
from relred.core import Domain, Relation
from relred.dependencies import find_keys, is_cartesian_over
from relred.errors import ReductionRefused

PROPS = settings(
    derandomize=True,
    max_examples=200,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def partitions(draw, n):
    """A partition of positions 0..n-1 into nonempty blocks."""
    label = [draw(st.integers(0, i)) for i in range(n)]
    blocks = {}
    for i, b in enumerate(label):
        blocks.setdefault(b, []).append(i)
    return [tuple(b) for b in blocks.values()]


@st.composite
def cases(draw):
    """(domain, n, rows, blocks): random rows or a product over ``blocks``."""
    d = draw(st.integers(2, 4))
    n = draw(st.integers(0, 5))
    elems = "abcd"[:d]
    blocks = draw(partitions(n))
    if draw(st.booleans()):
        cells = list(itertools.product(elems, repeat=n))
        mask = draw(st.integers(0, 2 ** len(cells) - 1))
        rows = {c for i, c in enumerate(cells) if mask >> i & 1}
    else:
        pieces = []
        for b in blocks:
            cells = list(itertools.product(elems, repeat=len(b)))
            pieces.append(draw(st.sets(st.sampled_from(cells), min_size=1)))
        rows = set()
        for parts in itertools.product(*pieces):
            row = [None] * n
            for b, values in zip(blocks, parts):
                for i, v in zip(b, values):
                    row[i] = v
            rows.add(tuple(row))
    return Domain("D", tuple(elems)), n, rows, blocks


def _names(positions):
    return tuple(str(i + 1) for i in positions)


@PROPS
@given(cases())
def test_projection_size_tests_match_row_set_references(case):
    domain, n, rows, blocks = case
    rel = Relation.make(domain, _names(range(n)), rows)
    witness = oracles.degeneracy_witness(rows, n)
    assert is_degenerate(rel) == (None if witness is None else tuple(map(_names, witness)))
    assert finest_factorization(rel) == tuple(
        _names(b) for b in oracles.finest_blocks(rows, list(range(n)))
    )
    for k in range(n + 1):
        assert find_keys(rel, k) == [_names(c) for c in oracles.keys(rows, n, k)]
    assert is_cartesian_over(rel, [_names(b) for b in blocks]) == (
        oracles.product_of_projections(rows, blocks, n) == rows
    )
    universal = len(rows) == domain.size ** n
    missing = oracles.first_nonuniversal(rows, n, domain.size)
    assert irreducibility_tests(rel).condition_i == (
        n >= 2 and not universal and missing is None
    )
    if n == 3:
        if missing is None:
            one_param_ternary_projoin(rel)
        else:
            with pytest.raises(ReductionRefused) as refused:
                one_param_ternary_projoin(rel)
            assert refused.value.reason == "hypothesis"
            assert refused.value.details == {"projection": list(_names(missing))}
