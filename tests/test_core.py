import itertools

import pytest

from relred.core import (
    Domain,
    Relation,
    bond_eval,
    cartesian,
    complement,
    dump_relation,
    equal_relations,
    join,
    load_relation,
    project,
    projoin,
    relative_product,
    rename,
    select,
    standard,
)
from relred.errors import (
    AttributeSchemeError,
    BondabilityError,
    ParseError,
    PreconditionError,
    SchemeCollisionError,
)


def test_domain_rejects_duplicates():
    with pytest.raises(PreconditionError):
        Domain("D", ("a", "a"))


def test_attrs_are_canonicalized(d2):
    r = Relation.make(d2, ("2", "10", "1"), [("x2", "x10", "x1")
                                             for _ in range(0)])
    assert r.attrs == ("1", "2", "10")


def test_make_row_order_follows_given_attrs(d2):
    # rows come in the order the attrs were given, not canonical order
    r = Relation.make(d2, ("2", "1"), [("a", "b")])
    assert r.rows == frozenset({("b", "a")})  # stored as (1, 2)


def test_make_accepts_mappings(d2):
    r = Relation.make(d2, ("1", "2"), [{"2": "a", "1": "b"}])
    assert ("b", "a") in r.rows


def test_standard_identity(d3):
    i3 = standard("identity", 3, d3)
    assert i3.rows == frozenset({("a",) * 3, ("b",) * 3, ("c",) * 3})


def test_standard_diversity_small_domain(d2):
    assert len(standard("diversity", 3, d2).rows) == 0


def test_project(d2):
    r = Relation.make(d2, ("1", "2", "3"), [("a", "b", "a"), ("a", "a", "b")])
    p = project(r, ("1", "3"))
    assert p.attrs == ("1", "3")
    assert p.rows == frozenset({("a", "a"), ("a", "b")})


def test_select_drops_columns(d2):
    r = Relation.make(d2, ("1", "2", "3"), [("a", "b", "a"), ("b", "b", "a")])
    s = select(r, ("1",), ("a",))
    assert s.attrs == ("2", "3")
    assert s.rows == frozenset({("b", "a")})


def test_complement_involution(d2):
    r = Relation.make(d2, ("1", "2"), [("a", "a"), ("b", "a")])
    assert equal_relations(complement(complement(r)), r)


def test_rename_requires_bijection(d2):
    r = Relation.make(d2, ("1", "2"), [("a", "b")])
    with pytest.raises(AttributeSchemeError):
        rename(r, {"1": "x", "2": "x"})
    out = rename(r, {"1": "y", "2": "x"})
    assert out.attrs == ("x", "y")
    assert out.rows == frozenset({("b", "a")})


def test_cartesian_disjoint_schemes_only(d2):
    a = Relation.make(d2, ("1",), [("a",)])
    b = Relation.make(d2, ("1", "2"), [("a", "b")])
    with pytest.raises(SchemeCollisionError):
        cartesian([a, b])
    c = Relation.make(d2, ("3",), [("b",)])
    prod = cartesian([b, c])
    assert prod.rows == frozenset({("a", "b", "b")})


def test_join_matches_bruteforce(d2):
    # join == tuples of the universal relation passing both projections
    a = Relation.make(d2, ("1", "2"), [("a", "a"), ("a", "b"), ("b", "a")])
    b = Relation.make(d2, ("2", "3"), [("a", "b"), ("b", "b")])
    j = join([a, b])
    want = set()
    for t in itertools.product("ab", repeat=3):
        if (t[0], t[1]) in a.rows and (t[1], t[2]) in b.rows:
            want.add(t)
    assert j.attrs == ("1", "2", "3")
    assert j.rows == frozenset(want)


def test_join_on_disjoint_schemes_is_cartesian(d2):
    a = Relation.make(d2, ("1",), [("a",), ("b",)])
    b = Relation.make(d2, ("2",), [("a",)])
    assert equal_relations(join([a, b]), cartesian([a, b]))


def test_projoin(d2):
    a = Relation.make(d2, ("1", "2"), [("a", "b"), ("b", "a")])
    b = Relation.make(d2, ("2", "3"), [("b", "b")])
    out = projoin([a, b], ("1", "3"))
    assert out.attrs == ("1", "3")
    assert out.rows == frozenset({("a", "b")})


def test_relative_product_composes_binaries(d2):
    a = Relation.make(d2, ("1", "2"), [("a", "b")])
    b = Relation.make(d2, ("2", "3"), [("b", "a")])
    out = relative_product(a, b)
    assert out.attrs == ("1", "3")
    assert out.rows == frozenset({("a", "a")})


def test_bond_eval_rejects_triple_shared(d2):
    rels = [Relation.make(d2, ("1", "2"), [("a", "a")]) for _ in range(3)]
    with pytest.raises(BondabilityError):
        bond_eval(rels)


def test_bond_eval_keeps_unshared(d2):
    a = Relation.make(d2, ("1", "2"), [("a", "b"), ("b", "b")])
    b = Relation.make(d2, ("2", "3"), [("b", "a")])
    out = bond_eval([a, b])
    assert out.attrs == ("1", "3")
    assert out.rows == frozenset({("a", "a"), ("b", "a")})


def test_dump_load_roundtrip(d3):
    r = Relation.make(d3, ("1", "2"), [("a", "c"), ("c", "b")])
    name, back = load_relation(dump_relation(r, "T"))
    assert name == "T"
    assert equal_relations(back, r)


def test_load_rejects_bad_header():
    with pytest.raises(ParseError):
        load_relation("not a relation file")


@pytest.mark.parametrize("text,line", [
    ("@relation R over D(a,b)\n1 2\na\n", 3),
    ("# comment\n@relation R over D(a,b)\n\n1 2  # scheme\na b\n.\n", 6),
    ("@relation R over D(a,b)\n.\na\n", 3),
], ids=["short", "comments_and_blanks_counted", "nullary"])
def test_load_row_length_names_the_line(text, line):
    with pytest.raises(ParseError, match=f"^line {line}: row length"):
        load_relation(text)


def test_load_nullary():
    # "." in the rows section is the empty tuple, so this is the true relation
    name, r = load_relation("@relation T over D(a)\n.\n.\n")
    assert r.attrs == () and len(r) == 1
    _, f = load_relation("@relation F over D(a)\n.\n")
    assert len(f) == 0
