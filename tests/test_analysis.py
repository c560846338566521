import itertools
import random

import pytest

from relred.analysis import (
    bipartition_matrix,
    boolean_rank_at_most,
    census,
    census_sampled,
    finest_factorization,
    irreducibility_tests,
    is_degenerate,
    is_join_reducible,
    one_param_ternary_projoin,
    rel_prod_reducible2,
    ternary_oracle_suite,
)
from relred.caps import Caps, using
from relred.core import Relation, cartesian, complement, join, project, standard
from relred.errors import CapExceededError
from relred.formula import check_certificate, classify

from conftest import make_rel
from oracles import join_cover_reducible


def test_identity_non_degenerate(d2):
    assert is_degenerate(standard("identity", 3, d2)) is None


def test_universal_degenerate(d2):
    u2 = standard("universal", 2, d2)
    assert is_degenerate(u2) == (("1",), ("2",))


def test_degenerate_product_witness(d2):
    a = Relation.make(d2, ("1",), [("a",)])
    b = Relation.make(d2, ("2", "3"), [("a", "b"), ("b", "a")])
    prod = cartesian([a, b])
    assert is_degenerate(prod) == (("1",), ("2", "3"))


def test_finest_factorization_blocks(d2):
    u3 = standard("universal", 3, d2)
    assert finest_factorization(u3) == (("1",), ("2",), ("3",))
    i3 = standard("identity", 3, d2)
    assert finest_factorization(i3) == (("1", "2", "3"),)


def test_degeneracy_agrees_with_cardinality_oracle(d2):
    # exhaust all ternary relations on two elements
    cells = list(itertools.product(d2.elements, repeat=3))
    for mask in range(2 ** 8):
        rows = [cells[i] for i in range(8) if mask >> i & 1]
        r = make_rel(d2, 3, rows)
        got = is_degenerate(r) is not None
        want = False
        for li in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]:
            ri = tuple(i for i in range(3) if i not in li)
            pl = {tuple(t[i] for i in li) for t in rows}
            pr = {tuple(t[i] for i in ri) for t in rows}
            rebuilt = set()
            for x in pl:
                for y in pr:
                    t = [None] * 3
                    for i, v in zip(li, x):
                        t[i] = v
                    for i, v in zip(ri, y):
                        t[i] = v
                    rebuilt.add(tuple(t))
            if rebuilt == set(rows):
                want = True
                break
        assert got == want


def test_join_reducible_certificate(d3):
    d3_rel = standard("diversity", 3, d3)
    cert = is_join_reducible(d3_rel)
    assert cert is not None
    verdict = check_certificate(cert)
    assert verdict.valid and verdict.is_reduction


def test_not_i3_join_irreducible(d2, d3):
    for dom in (d2, d3):
        not_i3 = complement(standard("identity", 3, dom))
        assert is_join_reducible(not_i3) is None
        rep = irreducibility_tests(not_i3)
        assert rep.condition_i and rep.implies_irreducible


def test_bipartition_matrix_shape(d2):
    i3 = standard("identity", 3, d2)
    m = bipartition_matrix(i3, ("1",))
    assert m.nrows == 2 and m.ncols == 4
    assert m.row_masks == (0b0001, 0b1000)


def test_boolean_rank_identity(d2):
    i2 = standard("identity", 2, d2)
    m = bipartition_matrix(i2, ("1",))
    assert boolean_rank_at_most(m, 1) is None
    cover = boolean_rank_at_most(m, 2)
    assert cover is not None and len(cover) == 2


def test_relprod2_on_identity4(d3):
    i4 = standard("identity", 4, d3)
    cert = rel_prod_reducible2(i4, ("1", "2"))
    assert cert is not None
    cls = classify(cert.formula)
    assert cls.kind == "bond" and cls.factor_arities == (3, 3)


def test_relprod2_no_for_pairwise_key(rel_h):
    for left in [("1", "2"), ("1", "3"), ("1", "4")]:
        assert rel_prod_reducible2(rel_h, left) is None


def test_one_param_universal_yes(d2):
    u3 = standard("universal", 3, d2)
    cert = one_param_ternary_projoin(u3)
    assert cert is not None and check_certificate(cert).valid


def test_one_param_not_i3_no(d2, d3):
    for dom in (d2, d3):
        not_i3 = complement(standard("identity", 3, dom))
        assert one_param_ternary_projoin(not_i3) is None


def test_census_small_exact():
    row = census(2, 2)
    assert (row.total, row.degenerate, row.join_reducible) == (16, 10, 10)


def test_census_cap():
    with pytest.raises(CapExceededError):
        census(3, 3)


def test_census_sampled_deterministic():
    a = census_sampled(3, 3, 200, seed=5)
    b = census_sampled(3, 3, 200, seed=5)
    assert a == b
    assert a.mode == "sampled" and a.samples == 200
    assert a.degenerate <= a.join_reducible <= a.samples


@pytest.mark.parametrize("run", [census, lambda d, n: census_sampled(d, n, 1)],
                         ids=["exact", "sampled"])
@pytest.mark.parametrize("d,n,caps", [
    (40, 40, Caps()), (9, 2, Caps()), (2, 9, Caps()),
    (3, 2, Caps(max_domain=2)), (2, 3, Caps(max_arity=2)), (9, 1, Caps()), (1, 9, Caps()),
])
def test_census_caps_before_allocating(no_census_space, d, n, caps, run):
    # both censuses pass the same check before D^n is built
    with using(caps), pytest.raises(CapExceededError, match="max_domain"):
        run(d, n)


def test_census_search_budget_boundary():
    # the exact census of D^3 on two elements tests 2^(2^3) = 256 masks
    with using(Caps(max_search_nodes=255)), pytest.raises(
            CapExceededError,
            match=r"^census of 2\^\(2\^3\) relations exceeds cap 255; "
                  r"sample instead \(relred census --sample\)$"):
        census(2, 3)
    with using(Caps(max_search_nodes=256)):
        row = census(2, 3)
    assert (row.total, row.degenerate, row.join_reducible) == (256, 82, 166)


def test_census_budget_refusal_names_d_and_n(no_census_space):
    # not the 4,772 digits of 3^10000, past the interpreter's str limit
    with using(Caps(max_arity=10000)), pytest.raises(CapExceededError, match=r"2\^\(3\^10000\)"):
        census(3, 10000)


def test_sampled_census_search_budget(no_census_space):
    # the draws count against the budget, before D^n is built
    with using(Caps(max_search_nodes=999)), pytest.raises(
            CapExceededError, match=r"^sampled census of 1000 relations exceeds cap 999$"):
        census_sampled(2, 2, 1000)


@pytest.mark.parametrize("run,d,n,caps", [
    (lambda d, n: census_sampled(d, n, 1), 4, 7, Caps()),
    (lambda d, n: census_sampled(d, n, 0), 8, 8, Caps()),
    # within the exact census's budget and arity caps: refused on the digits
    (census, 3, 8, Caps(max_search_nodes=2 ** 7000)),
    (census, 1, 10 ** 9, Caps(max_arity=10 ** 9)),
], ids=["sampled-4-7", "sampled-8-8", "exact-3-8", "exact-1-huge"])
def test_census_digit_limit_before_allocating(no_census_space, run, d, n, caps):
    with using(caps), pytest.raises(
            CapExceededError,
            match=rf"^census over d={d}, n={n} would print a number of more than 4300 digits$"):
        run(d, n)


def test_census_sampled_at_the_caps_builds_the_space(no_census_space):
    with using(Caps(max_domain=2, max_arity=3)):
        with pytest.raises(AssertionError, match="census counted"):
            census_sampled(2, 3, 1)


def test_join_reducibility_matches_cover_search_sample(d2, d3):
    rng = random.Random(3)
    cells = list(itertools.product(d2.elements, repeat=3))
    for _ in range(40):
        rows = rng.sample(cells, rng.randrange(0, 9))
        r = make_rel(d2, 3, rows)
        got = is_join_reducible(r) is not None
        assert got == join_cover_reducible(rows, d2.elements, 3)
    cells = list(itertools.product(d3.elements, repeat=4))
    verdicts = []
    for _ in range(20):
        rows = rng.sample(cells, rng.randrange(0, 40))
        cert = is_join_reducible(make_rel(d3, 4, rows))
        assert (cert is not None) == join_cover_reducible(rows, d3.elements, 4)
        assert cert is None or check_certificate(cert).valid
        verdicts.append(cert is not None)
    assert verdicts.count(True) and verdicts.count(False)


def test_join_irreducible_when_the_join_is_larger(d2):
    # even parity: every 2-projection is all of D^2, so the join of the
    # projections is D^3, twice the relation; the answer is None, not an error
    even = make_rel(d2, 3, [r for r in itertools.product(d2.elements, repeat=3)
                            if r.count("b") % 2 == 0])
    factors = [project(even, even.scheme - {a}) for a in even.attrs]
    assert len(join(factors)) == 2 * len(even)
    assert is_join_reducible(even) is None


def test_oracle_suite_identity(d2):
    ev = ternary_oracle_suite(standard("identity", 3, d2))
    assert any(e.get("value") == 1 and e.get("test") == "identity" for e in ev)


def test_oracle_suite_not_i3(d2):
    ev = ternary_oracle_suite(complement(standard("identity", 3, d2)))
    assert any(e.get("conclusion") == "ter_I3 >= 3" for e in ev)
