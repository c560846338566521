import itertools
import random

import pytest

from relred.core import Relation, join, project, select, standard
from relred.dependencies import (
    admits_key,
    find_keys,
    functional_dep,
    is_cartesian_over,
    is_key,
    mvd_holds,
)
from relred.errors import AttributeSchemeError, PreconditionError

from conftest import make_rel
from oracles import fagin_join_equals


def test_functional_dep_holds(d2):
    r = make_rel(d2, 3, [("a", "a", "b"), ("b", "a", "a"), ("a", "a", "b")])
    rep = functional_dep(r, ("1",), ("3",))
    assert rep.holds and rep.witness is None


def test_functional_dep_witness(d2):
    r = make_rel(d2, 2, [("a", "a"), ("a", "b")])
    rep = functional_dep(r, ("1",), ("2",))
    assert not rep.holds
    t, u = rep.witness
    assert t[0] == u[0] and t[1] != u[1]


def test_is_key_reports_kind(d2):
    r = make_rel(d2, 3, [("a", "b", "a"), ("b", "a", "a")])
    rep = is_key(r, ("1",))
    assert rep.kind == "key" and rep.holds


def test_find_keys_colex_order(d3, rel_h):
    keys = find_keys(rel_h, 2)
    # colex over the canonical column order
    assert keys == [("1", "2"), ("1", "3"), ("2", "3"),
                    ("1", "4"), ("2", "4"), ("3", "4")]


def test_admits_key_cardinality(d2):
    assert admits_key(make_rel(d2, 3, [("a", "a", "a")]), 0)
    r = standard("universal", 3, d2)
    assert not admits_key(r, 2)
    assert admits_key(r, 3)


def test_is_cartesian_over(d2):
    a = [("a",), ("b",)]
    prod = make_rel(d2, 2, [(x, y) for (x,) in a for y in ("a",)])
    assert is_cartesian_over(prod, [("1",), ("2",)])
    i2 = standard("identity", 2, d2)
    assert not is_cartesian_over(i2, [("1",), ("2",)])


def test_is_cartesian_rejects_bad_partition(d2):
    r = standard("universal", 2, d2)
    with pytest.raises(PreconditionError):
        is_cartesian_over(r, [("1",), ("1", "2")])


def test_mvd_multikey_kind(d2):
    r = standard("universal", 3, d2)
    rep = mvd_holds(r, ("1",), [("2",), ("3",)])
    assert rep.holds and rep.kind == "multikey"


def test_mvd_witness_recombination(d2):
    r = make_rel(d2, 3, [("a", "a", "a"), ("a", "b", "b")])
    rep = mvd_holds(r, ("1",), [("2",), ("3",)])
    assert not rep.holds
    # the witness is a pair of rows whose block recombination is missing
    t, u = rep.witness
    assert t[0] == u[0] == "a"


def test_mvd_iff_join_decomposition(d3):
    # cross-checked against an independent set-based join test
    rng = random.Random(7)
    cells = list(itertools.product(d3.elements, repeat=4))
    for _ in range(60):
        rows = rng.sample(cells, rng.randrange(1, 12))
        r = make_rel(d3, 4, rows)
        m = ("1",)
        blocks = [("2",), ("3", "4")]
        rep = mvd_holds(r, m, blocks)
        want = fagin_join_equals(rows, d3.elements, 4, (0,), [(1,), (2, 3)])
        assert rep.holds == want


def test_mvd_matches_manual_join(d2):
    r = make_rel(d2, 3, [("a", "a", "a"), ("a", "a", "b"),
                         ("a", "b", "a"), ("a", "b", "b"), ("b", "a", "b")])
    rep = mvd_holds(r, ("1",), [("2",), ("3",)])
    assert rep.holds
    j = join([project(r, ("1", "2")), project(r, ("1", "3"))])
    assert j.rows == r.rows


ATTR_LIST_CALLS = {
    "project": lambda rel, attrs: project(rel, attrs),
    "select": lambda rel, attrs: select(rel, attrs, ["a"] * len(attrs)),
    "functional_dep": lambda rel, attrs: functional_dep(rel, attrs, ["3"]),
    "is_key": lambda rel, attrs: is_key(rel, attrs),
    "mvd_holds": lambda rel, attrs: mvd_holds(rel, attrs, [["3"]]),
}


@pytest.mark.parametrize("call", ATTR_LIST_CALLS.values(), ids=ATTR_LIST_CALLS)
@pytest.mark.parametrize("attrs,message", [
    # the smallest duplicate by attribute order, not the first given
    (["10", "2", "10", "2"], "duplicate attribute '2'"),
    (["1", "11", "9"], "attributes ['11', '9'] not in scheme"),
], ids=["duplicate", "missing"])
def test_attribute_lists_are_refused_with_one_message(d2, call, attrs, message):
    rel = Relation.make(d2, ("1", "2", "3", "10"), [("a", "a", "a", "a")])
    with pytest.raises(AttributeSchemeError) as refused:
        call(rel, attrs)
    assert str(refused.value) == message
