import itertools
import random

import pytest

from relred.core import Domain, Relation, complement, dump_relation, standard
from relred.errors import DomainMismatchError, ReductionRefused
from relred.formula import check_certificate, classify, render
from relred.reducers import (
    fagin_decompose,
    hypostatic_abstraction,
    identity_chain,
    key_reduction,
    neg_join_projoin,
    union_to_projoin,
)

from conftest import make_rel


def test_key_reduction_shape(d2):
    i4 = standard("identity", 4, d2)
    cert = key_reduction(i4, ("1",))
    assert render(cert.formula) == "F1(x1,x2) & F2(x1,x3) & F3(x1,x4)"
    assert check_certificate(cert).is_reduction


def test_key_reduction_requires_key(d2):
    r = standard("universal", 3, d2)
    with pytest.raises(ReductionRefused) as exc:
        key_reduction(r, ("1",))
    assert exc.value.reason == "not_a_key"


def test_key_reduction_refuses_trivial(d2):
    r = standard("identity", 3, d2)
    with pytest.raises(ReductionRefused) as exc:
        key_reduction(r, ("1", "2", "3"))
    assert exc.value.reason == "trivial"


def test_fagin_join_table(d2):
    rows = [("a", "a", "a"), ("a", "a", "b"), ("a", "b", "a"),
            ("a", "b", "b"), ("b", "a", "b")]
    r = make_rel(d2, 3, rows)
    cert = fagin_decompose(r, ("1",), [("2",), ("3",)])
    assert render(cert.formula) == "F1(x1,x2) & F2(x1,x3)"
    assert check_certificate(cert).valid


def test_fagin_refuses_with_witness(d2):
    not_i3 = complement(standard("identity", 3, d2))
    with pytest.raises(ReductionRefused) as exc:
        fagin_decompose(not_i3, ("1",), [("2",), ("3",)])
    assert exc.value.reason == "mvd_fails"


def test_hypostatic_binary_factors(d3):
    r = make_rel(d3, 4, [("a", "b", "c", "a"), ("b", "b", "a", "c")])
    cert = hypostatic_abstraction(r, 1)
    cls = classify(cert.formula)
    assert cls.factor_arities == (2, 2, 2, 2)
    assert cls.parameters == 1


def test_hypostatic_cardinality_refusal(d2):
    r = standard("universal", 3, d2)
    with pytest.raises(ReductionRefused) as exc:
        hypostatic_abstraction(r, 1)
    assert exc.value.reason == "cardinality"
    cert = hypostatic_abstraction(r, 3)
    assert check_certificate(cert).valid


def test_hypostatic_labels_deterministic(d2):
    r = make_rel(d2, 3, [("a", "a", "b"), ("b", "a", "a")])
    a = hypostatic_abstraction(r, 1)
    b = hypostatic_abstraction(r, 1)
    assert render(a.formula) == render(b.formula)
    assert a.env == b.env


def test_neg_join_ternary_factors(d3):
    i4 = standard("identity", 4, d3)
    join_cert = key_reduction(i4, ("1",))
    cert = neg_join_projoin(join_cert, 1)
    cls = classify(cert.formula)
    assert cert.target.rows == complement(i4).rows
    assert all(a == 3 for a in cls.factor_arities)


def test_neg_join_inequality_refusal(d2):
    i3 = standard("identity", 3, d2)
    join_cert = key_reduction(i3, ("1",))
    with pytest.raises(ReductionRefused) as exc:
        neg_join_projoin(join_cert, 1)
    assert exc.value.reason == "inequality"


def test_neg_join_needs_quantifier_free(d2):
    chain = identity_chain(4, d2)
    with pytest.raises(ReductionRefused) as exc:
        neg_join_projoin(chain, 1)
    assert exc.value.reason == "not_join_cert"


def test_union_to_projoin(d2):
    # two cartesian products over the same partition of a 3-scheme
    p1 = [u + v for u in [("a",)] for v in [("a", "a"), ("b", "b")]]
    p2 = [u + v for u in [("b",)] for v in [("a", "b")]]
    products = [
        [make_rel(d2, 1, [("a",)]),
         Relation.make(d2, ("2", "3"), [("a", "a"), ("b", "b")])],
        [make_rel(d2, 1, [("b",)]),
         Relation.make(d2, ("2", "3"), [("a", "b")])],
    ]
    cert = union_to_projoin(products, 1)
    assert cert.target.rows == frozenset(p1) | frozenset(p2)
    assert check_certificate(cert).valid


def test_union_too_many_terms(d2):
    products = [
        [make_rel(d2, 1, [("a",)]), Relation.make(d2, ("2",), [("a",)])]
        for _ in range(3)
    ]
    with pytest.raises(ReductionRefused) as exc:
        union_to_projoin(products, 1)
    assert exc.value.reason == "too_many_terms"


def test_union_refuses_mixed_domains(d2):
    # same element names, different domain: the domains still differ
    other = Domain("A", d2.elements)
    products = [
        [make_rel(d2, 1, [("a",)]), Relation.make(d2, ("2",), [("a",)])],
        [make_rel(other, 1, [("b",)]), Relation.make(other, ("2",), [("b",)])],
    ]
    with pytest.raises(DomainMismatchError):
        union_to_projoin(products, 1)
    # different element names, mixed inside one product
    zy = Domain("Z", ("z", "y"))
    products = [[make_rel(d2, 1, [("a",)]), Relation.make(zy, ("2",), [("z",)])]]
    with pytest.raises(DomainMismatchError):
        union_to_projoin(products, 1)


def test_identity_chain_is_bond(d2):
    cert = identity_chain(5, d2)
    cls = classify(cert.formula)
    assert cls.kind == "bond" and cls.is_bond
    assert cert.target.rows == standard("identity", 5, d2).rows


def test_identity_chain_text(d2):
    assert render(identity_chain(5, d2).formula) == (
        "exists t1 t2 . I3(x1,x2,t1) & I3(t1,x3,t2) & I3(t2,x4,x5)"
    )


def test_identity_chain_arity_refusal(d2):
    with pytest.raises(ReductionRefused) as exc:
        identity_chain(2, d2)
    assert exc.value.reason == "arity"


def test_random_key_reductions_verify(d3):
    rng = random.Random(11)
    cells = list(itertools.product(d3.elements, repeat=3))
    done = 0
    while done < 20:
        # force column 1 to be a key by picking distinct first coordinates
        firsts = rng.sample(d3.elements, rng.randrange(1, 4))
        rows = []
        for e in firsts:
            rest = rng.choice(cells)
            rows.append((e,) + rest[:2])
        r = make_rel(d3, 3, rows)
        cert = key_reduction(r, ("1",))
        assert check_certificate(cert).valid
        done += 1


# ---------------------------------------------------------------------------
# Pinned certificates: the formula text and every factor, byte for byte
# ---------------------------------------------------------------------------


def _cert_text(cert):
    return render(cert.formula) + "\n" + "".join(
        dump_relation(cert.env[k], k) for k in sorted(cert.env)
    )


def test_pinned_hypostatic_k1_unsorted_domain():
    # rows are labeled in sorted order with D = (c, a, b) in display order
    dom = Domain("D", ("c", "a", "b"))
    rows = [("c", "a", "b"), ("a", "a", "c"), ("b", "c", "a")]
    cert = hypostatic_abstraction(Relation.make(dom, ("1", "2", "3"), rows), 1)
    assert _cert_text(cert) == (
        "exists t1 . F1(x1,t1) & F2(x2,t1) & F3(x3,t1)\n"
        "@relation F1 over D(c,a,b)\n1 t1\na c\nb a\nc b\n"
        "@relation F2 over D(c,a,b)\n2 t1\na b\na c\nc a\n"
        "@relation F3 over D(c,a,b)\n3 t1\na a\nb b\nc c\n"
    )


def test_pinned_hypostatic_k2_fresh_names(d2):
    # the target owns "t1", so the label attributes are t1_ and t2
    rows = [("a", "b", "a"), ("b", "b", "b"), ("a", "a", "b")]
    cert = hypostatic_abstraction(Relation.make(d2, ("1", "2", "t1"), rows), 2)
    assert _cert_text(cert) == (
        "exists t1 t2 . F1(x1,t1,t2) & F2(x2,t1,t2) & F3(x3,t1,t2)\n"
        "@relation F1 over D2(a,b)\n1 t1_ t2\na a a\na b a\nb a b\n"
        "@relation F2 over D2(a,b)\n2 t1_ t2\na a a\nb a b\nb b a\n"
        "@relation F3 over D2(a,b)\nt1 t1_ t2\na b a\nb a a\nb a b\n"
    )


def test_pinned_neg_join_unsorted_domain():
    dom = Domain("D", ("b", "a"))
    rows = [("a", x, "b", z) for x in "ab" for z in "ab"]
    prod = Relation.make(dom, ("1", "2", "3", "4"), rows)
    join_cert = fagin_decompose(prod, (), [("3", "4"), ("1", "2")])
    cert = neg_join_projoin(join_cert, 1)
    assert _cert_text(cert) == (
        "exists t1 . F1(x3,x4,t1) & F2(x1,x2,t1)\n"
        "@relation F1 over D(b,a)\n3 4 t1\n"
        "a a a\na a b\na b a\na b b\nb a a\nb b a\n"
        "@relation F2 over D(b,a)\n1 2 t1\n"
        "a a b\na b b\nb a a\nb a b\nb b a\nb b b\n"
    )


def test_pinned_union_three_blocks_out_of_order(d2):
    def product(c10, c2, c1x):
        return [Relation.make(d2, ("10",), c10), Relation.make(d2, ("2",), c2),
                Relation.make(d2, ("1", "x"), c1x)]

    products = [
        product([("a",)], [("a",), ("b",)], [("a", "b")]),
        product([("b",)], [("b",)], [("b", "a"), ("a", "a")]),
        product([("a",), ("b",)], [("a",)], [("b", "b")]),
    ]
    cert = union_to_projoin(products, 2)
    assert _cert_text(cert) == (
        "exists t1 t2 . F1(x3,t1,t2) & F2(x2,t1,t2) & F3(x1,t1,t2,x4)\n"
        "@relation F1 over D2(a,b)\n10 t1 t2\na a a\na a b\nb a b\nb b a\n"
        "@relation F2 over D2(a,b)\n2 t1 t2\na a a\na a b\nb a a\nb b a\n"
        "@relation F3 over D2(a,b)\n1 t1 t2 x\na a a b\na b a a\nb a b b\nb b a a\n"
    )


def test_pinned_key_reduction_unsorted_domain():
    dom = Domain("D", ("c", "a", "b"))
    rows = [("c", "a", "a"), ("a", "b", "a"), ("b", "b", "c")]
    cert = key_reduction(Relation.make(dom, ("1", "2", "3"), rows), ("1",))
    assert _cert_text(cert) == (
        "F1(x1,x2) & F2(x1,x3)\n"
        "@relation F1 over D(c,a,b)\n1 2\na b\nb b\nc a\n"
        "@relation F2 over D(c,a,b)\n1 3\na a\nb c\nc a\n"
    )


def test_pinned_fagin_blocks_in_given_order(d2):
    rows = [("a", "a", "a"), ("a", "a", "b"), ("a", "b", "a"),
            ("a", "b", "b"), ("b", "a", "b")]
    cert = fagin_decompose(make_rel(d2, 3, rows), ("1",), [("3",), ("2",)])
    assert _cert_text(cert) == (
        "F1(x1,x3) & F2(x1,x2)\n"
        "@relation F1 over D2(a,b)\n1 3\na a\na b\nb b\n"
        "@relation F2 over D2(a,b)\n1 2\na a\na b\nb a\n"
    )
