"""Property tests for the labeled-union certificate builders.

Every certificate that ``hypostatic_abstraction`` and ``union_to_projoin``
return for a random small input must survive a bundle round trip: written
with ``save_certificate`` and read back with ``load_certificate``, it still
verifies, and writing it again gives byte-identical files.  Examples are
derandomized so that the suite stays deterministic.
"""

import itertools
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from relred.core import Domain, Relation
from relred.formula import check_certificate, load_certificate, save_certificate
from relred.reducers import hypostatic_abstraction, union_to_projoin

PROPS = settings(
    derandomize=True,
    max_examples=25,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# "t1" collides with the first label attribute, "10" sorts after "2"
ATTRS = ("1", "2", "10", "t1", "x")


@st.composite
def domains(draw):
    # display orders that are not sorted as well as ones that are
    elements = draw(st.permutations(("a", "b", "c")))
    return Domain("D", tuple(elements[: draw(st.integers(1, 3))]))


def cells(domain, attrs):
    return list(itertools.product(domain.elements, repeat=len(attrs)))


@st.composite
def hypostatic_inputs(draw):
    domain = draw(domains())
    k = draw(st.integers(1, 2))
    attrs = tuple(draw(st.sets(st.sampled_from(ATTRS), min_size=1, max_size=3)))
    rows = draw(st.sets(st.sampled_from(cells(domain, attrs)),
                        max_size=domain.size ** k))
    return Relation.make(domain, attrs, rows), k


@st.composite
def union_inputs(draw):
    domain = draw(domains())
    k = draw(st.integers(1, 2))
    attrs = list(draw(st.permutations(ATTRS))[: draw(st.integers(1, 4))])
    cuts = draw(st.sets(st.integers(1, len(attrs) - 1))) if len(attrs) > 1 else set()
    bounds = [0, *sorted(cuts), len(attrs)]
    blocks = [tuple(attrs[i:j]) for i, j in zip(bounds, bounds[1:])]
    count = draw(st.integers(1, domain.size ** k))
    products = [
        [
            Relation.make(domain, block, draw(st.sets(st.sampled_from(cells(domain, block)))))
            for block in blocks
        ]
        for _ in range(count)
    ]
    return products, k


def assert_round_trip(cert):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "first"), os.path.join(tmp, "second")
        loaded = load_certificate(save_certificate(cert, first))
        assert check_certificate(loaded).valid
        save_certificate(loaded, second)
        names = sorted(os.listdir(first))
        assert names == sorted(os.listdir(second))
        for name in names:
            with open(os.path.join(first, name), "rb") as a, \
                    open(os.path.join(second, name), "rb") as b:
                assert a.read() == b.read(), name


@PROPS
@given(hypostatic_inputs())
def test_hypostatic_bundle_round_trip(case):
    rel, k = case
    assert_round_trip(hypostatic_abstraction(rel, k))


@PROPS
@given(union_inputs())
def test_union_bundle_round_trip(case):
    products, k = case
    assert_round_trip(union_to_projoin(products, k))
