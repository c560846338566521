"""The shared bitmask cover search behind the Boolean-rank and
one-parameter box deciders, against brute-force references."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relred.analysis import (
    BooleanMatrix,
    _concepts,
    bipartition_matrix,
    boolean_rank_at_most,
    is_join_reducible,
    one_param_ternary_projoin,
    rel_prod_reducible2,
)
from relred.core import Domain, Relation, dump_relation, standard
from relred.diagrams import ternarity_bounds
from relred.errors import ReductionRefused
from relred.formula import check_certificate, render

from oracles import cells_of, maximal_boxes, maximal_rectangles, proj, union_of_at_most


def _bits(mask):
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def _random_matrix(rng):
    nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
    density = rng.random()
    row_sets = [
        frozenset(j for j in range(ncols) if rng.random() < density)
        for _ in range(nrows)
    ]
    masks = tuple(sum(1 << j for j in cols) for cols in row_sets)
    return row_sets, BooleanMatrix(masks, ncols)


def test_maximal_rectangles_match_brute_force():
    rng = random.Random(1)
    for _ in range(150):
        row_sets, m = _random_matrix(rng)
        got = sorted(_concepts(m.row_masks))
        assert got == sorted(set(got))
        assert {(_bits(r), _bits(c)) for r, c in got} == maximal_rectangles(
            row_sets, m.ncols
        )


def test_boolean_rank_matches_brute_force_cover():
    rng = random.Random(2)
    for _ in range(100):
        row_sets, m = _random_matrix(rng)
        ones = {(i, j) for i, cols in enumerate(row_sets) for j in cols}
        rects = [cells_of(r) for r in maximal_rectangles(row_sets, m.ncols)]
        for k in range(4):
            cover = boolean_rank_at_most(m, k)
            assert (cover is not None) == union_of_at_most(ones, rects, k)
            if cover is None:
                continue
            assert len(cover) <= k
            pieces = [cells_of((_bits(r), _bits(c))) for r, c in cover]
            assert all(p <= ones for p in pieces)
            assert set().union(*pieces) == ones


def test_boolean_rank_of_tall_matrices_matches_brute_force_cover():
    # up to 2^8 rows of 1-4 columns, the shape of a bipartition with one or
    # two right-hand attributes; the reference lists the rectangles of the
    # transpose, whose rows are the few columns
    rng = random.Random(3)
    for _ in range(60):
        nrows = rng.choice([rng.randint(5, 256), 2 ** rng.randint(3, 8)])
        ncols, density = rng.randint(1, 4), rng.random()
        row_sets = [frozenset(j for j in range(ncols) if rng.random() < density)
                    for _ in range(nrows)]
        m = BooleanMatrix(tuple(sum(1 << j for j in cols) for cols in row_sets), ncols)
        col_sets = [frozenset(i for i, cols in enumerate(row_sets) if j in cols)
                    for j in range(ncols)]
        rects = {(r, c) for c, r in maximal_rectangles(col_sets, nrows)}
        assert {(_bits(r), _bits(c)) for r, c in _concepts(m.row_masks)} == rects
        ones = {(i, j) for i, cols in enumerate(row_sets) for j in cols}
        pieces = [cells_of(r) for r in rects]
        for k in range(4):
            cover = boolean_rank_at_most(m, k)
            assert (cover is not None) == union_of_at_most(ones, pieces, k)
            if cover is not None:
                assert len(cover) <= k
                assert set().union(*(cells_of((_bits(r), _bits(c))) for r, c in cover)) == ones


def _universal_projections(rows, elems):
    return all(
        len(proj(rows, idxs)) == len(elems) ** len(idxs)
        for size in (1, 2)
        for idxs in itertools.combinations(range(3), size)
    )


def _cover_boxes(cert, rel):
    """The boxes of a one-parameter certificate, one per used label."""
    sides = []
    for symbol in ("F1", "F2", "F3"):
        factor = cert.env[symbol]
        t_pos = factor.attrs.index(next(a for a in factor.attrs if a not in rel.scheme))
        sides.append({
            label: {r[1 - t_pos] for r in factor.rows if r[t_pos] == label}
            for label in rel.domain.elements
        })
    return [
        tuple(side[label] for side in sides)
        for label in rel.domain.elements
        if all(side[label] for side in sides)
    ]


def _check_one_param(rel):
    rows = set(rel.rows)
    elems = sorted(rel.domain.elements)
    if not _universal_projections(rows, elems):
        with pytest.raises(ReductionRefused):
            one_param_ternary_projoin(rel)
        return None
    cert = one_param_ternary_projoin(rel)
    boxes = [cells_of(b) for b in maximal_boxes(rows, elems)]
    assert (cert is not None) == union_of_at_most(rows, boxes, len(elems))
    if cert is not None:
        assert check_certificate(cert).valid
        pieces = [cells_of(b) for b in _cover_boxes(cert, rel)]
        assert len(pieces) <= len(elems)
        assert all(p <= rows for p in pieces)
        assert set().union(*pieces) == rows
    return cert is not None


def test_one_param_matches_brute_force_cover_d2(d2):
    cells = list(itertools.product(d2.elements, repeat=3))
    verdicts = []
    for mask in range(2 ** len(cells)):
        rows = [c for i, c in enumerate(cells) if mask >> i & 1]
        verdicts.append(_check_one_param(Relation.make(d2, ("1", "2", "3"), rows)))
    assert verdicts.count(True) and verdicts.count(False)


def _seeded_ternaries(rng, dom, count):
    """``count`` ternaries with universal projections: unions of up to
    d + 1 random boxes, some with the cyclic Latin square added."""
    elems = dom.elements
    while count:
        rows = set()
        for _ in range(rng.randint(1, len(elems) + 1)):
            rows |= set(itertools.product(
                *([e for e in elems if rng.random() < 0.6] or [rng.choice(elems)]
                  for _ in range(3))
            ))
        if rng.random() < 0.3:
            rows |= {(x, y, elems[(i + j) % len(elems)])
                     for i, x in enumerate(elems) for j, y in enumerate(elems)}
        if _universal_projections(rows, elems):
            count -= 1
            yield Relation.make(dom, ("1", "2", "3"), rows)


def test_one_param_matches_brute_force_cover_d3():
    dom = Domain("D", ("c", "a", "b"))
    verdicts = [_check_one_param(r) for r in _seeded_ternaries(random.Random(4), dom, 25)]
    assert verdicts.count(True) and verdicts.count(False)


def test_one_param_matches_brute_force_cover_d1_d4_d5():
    # both relations over one element, then seeded d=4 and d=5 ternaries
    one = Domain("D", ("a",))
    verdicts = [_check_one_param(Relation.make(one, ("1", "2", "3"), rows))
                for rows in ([], [("a", "a", "a")])]
    assert verdicts == [None, True]
    for elems, count in ((("c", "a", "d", "b"), 12), (("c", "a", "e", "d", "b"), 3)):
        verdicts = [_check_one_param(r)
                    for r in _seeded_ternaries(random.Random(1), Domain("D", elems), count)]
        assert verdicts.count(True) and verdicts.count(False)


def _cert_text(cert):
    return render(cert.formula) + "\n" + "".join(
        dump_relation(cert.env[k], k) for k in sorted(cert.env)
    )


def test_pinned_relprod2_identity(d2):
    cert = rel_prod_reducible2(standard("identity", 3, d2), ("1",))
    assert _cert_text(cert) == (
        "exists t1 . F1(x1,t1) & F2(x2,x3,t1)\n"
        "@relation F1 over D2(a,b)\n1 t1\na a\nb b\n"
        "@relation F2 over D2(a,b)\n2 3 t1\na a a\nb b b\n"
    )


def test_pinned_relprod2_unsorted_domain():
    dom = Domain("D", ("b", "a"))
    rows = [("a", "a", "b"), ("a", "b", "b"), ("b", "a", "a"),
            ("b", "b", "a"), ("b", "b", "b")]
    cert = rel_prod_reducible2(Relation.make(dom, ("1", "2", "3"), rows), ("1",))
    assert _cert_text(cert) == (
        "exists t1 . F1(x1,t1) & F2(x2,x3,t1)\n"
        "@relation F1 over D(b,a)\n1 t1\na a\nb b\n"
        "@relation F2 over D(b,a)\n2 3 t1\na a b\na b a\nb a b\nb b a\nb b b\n"
    )


def test_pinned_one_param_unsorted_domain():
    # {a} x D x D  u  D x {b} x D  u  D x D x {b}, with D displayed c, a, b
    dom = Domain("D", ("c", "a", "b"))
    D = dom.elements
    rows = (set(itertools.product("a", D, D)) | set(itertools.product(D, "b", D))
            | set(itertools.product(D, D, "b")))
    cert = one_param_ternary_projoin(Relation.make(dom, ("1", "2", "3"), rows))
    assert _cert_text(cert) == (
        "exists t1 . F1(x1,t1) & F2(x2,t1) & F3(x3,t1)\n"
        "@relation F1 over D(c,a,b)\n1 t1\na a\na b\na c\nb a\nb b\nc a\nc b\n"
        "@relation F2 over D(c,a,b)\n2 t1\na a\na c\nb a\nb b\nb c\nc a\nc c\n"
        "@relation F3 over D(c,a,b)\n3 t1\na b\na c\nb a\nb b\nb c\nc b\nc c\n"
    )


def test_pinned_join_reducible_diversity(d3):
    cert = is_join_reducible(standard("diversity", 3, d3))
    pairs = "a b\na c\nb a\nb c\nc a\nc b\n"
    assert _cert_text(cert) == (
        "F1(x2,x3) & F2(x1,x3) & F3(x1,x2)\n"
        f"@relation F1 over D3(a,b,c)\n2 3\n{pairs}"
        f"@relation F2 over D3(a,b,c)\n1 3\n{pairs}"
        f"@relation F3 over D3(a,b,c)\n1 2\n{pairs}"
    )


def test_pinned_one_param_overlapping_boxes():
    # D^3 minus {b} x {a,c} x {b,c}: several maximal boxes cover the least
    # cell, so the certificate depends on the candidate order
    dom = Domain("D", ("c", "a", "b"))
    D = dom.elements
    rows = set(itertools.product(D, D, D)) - set(itertools.product("b", "ac", "bc"))
    cert = one_param_ternary_projoin(Relation.make(dom, ("1", "2", "3"), rows))
    assert _cert_text(cert) == (
        "exists t1 . F1(x1,t1) & F2(x2,t1) & F3(x3,t1)\n"
        "@relation F1 over D(c,a,b)\n1 t1\na a\na b\na c\nb b\nb c\nc a\nc b\nc c\n"
        "@relation F2 over D(c,a,b)\n2 t1\na a\na c\nb a\nb b\nb c\nc a\nc c\n"
        "@relation F3 over D(c,a,b)\n3 t1\na a\na b\na c\nb a\nb b\nc a\nc b\n"
    )


def test_pinned_one_param_d4():
    # four overlapping boxes over D displayed c, a, d, b: 11 maximal boxes,
    # and the cover takes four of them
    dom = Domain("D", ("c", "a", "d", "b"))
    D = dom.elements
    P = itertools.product
    rows = (set(P("ab", "abc", D)) | set(P(D, "bd", "acd")) | set(P("cd", D, "ab"))
            | set(P("bc", "ac", "bc")))
    cert = one_param_ternary_projoin(Relation.make(dom, ("1", "2", "3"), rows))
    assert _cert_text(cert) == (
        "exists t1 . F1(x1,t1) & F2(x2,t1) & F3(x3,t1)\n"
        "@relation F1 over D(c,a,d,b)\n1 t1\n"
        "a a\na c\na d\nb a\nb c\nb d\nc a\nc b\nc d\nd b\nd d\n"
        "@relation F2 over D(c,a,d,b)\n2 t1\n"
        "a a\na b\na c\nb a\nb b\nb c\nb d\nc a\nc b\nc c\nd a\nd b\nd d\n"
        "@relation F3 over D(c,a,d,b)\n3 t1\n"
        "a a\na b\na c\na d\nb b\nb c\nc a\nc c\nc d\nd c\nd d\n"
    )


def _matrix_row_sets(rows, left, right, elems):
    """The bipartition matrix of a relation on positions, one column set per
    row, rows and columns indexed by value tuples in product order."""
    row_index, col_index = (
        {t: i for i, t in enumerate(itertools.product(elems, repeat=len(block)))}
        for block in (left, right)
    )
    row_sets = [set() for _ in row_index]
    for r in rows:
        row_sets[row_index[tuple(r[p] for p in left)]].add(
            col_index[tuple(r[p] for p in right)])
    return [frozenset(s) for s in row_sets], len(col_index)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(st.data())
def test_bipartition_matrix_matches_product_order(data):
    # the matrix is the mask with the left block first, values in display
    # order: over domains listed in sorted and unsorted order, for every
    # left block, it must be the plain-set matrix in product order
    d, n = data.draw(st.integers(1, 3)), data.draw(st.integers(2, 4))
    elems = tuple(data.draw(st.permutations("abc"[:d])))
    rows = data.draw(st.sets(st.sampled_from(list(itertools.product(elems, repeat=n)))))
    rel = Relation.make(Domain("D", elems), [str(p + 1) for p in range(n)], rows)
    for size in range(1, n):
        for left in itertools.combinations(range(n), size):
            right = tuple(p for p in range(n) if p not in left)
            m = bipartition_matrix(rel, [str(p + 1) for p in left])
            row_sets, ncols = _matrix_row_sets(rows, left, right, elems)
            assert m.ncols == ncols
            assert [_bits(mask) for mask in m.row_masks] == row_sets


def _planted_union(rng, elems):
    """A quaternary of more than 24 rows whose matrix over a random
    bipartition is a union of at most three rectangles."""
    pairs = list(itertools.product(elems, repeat=2))
    left = (0, rng.randint(1, 3))
    order = left + tuple(p for p in range(4) if p not in left)
    rows = set()
    while len(rows) <= 24:
        rows = set()
        for _ in range(rng.randint(1, 3)):
            a, b = (rng.sample(pairs, rng.randint(2, 6)) for _ in "ab")
            rows |= {tuple(v for _, v in sorted(zip(order, x + y)))
                     for x, y in itertools.product(a, b)}
    return rows


def test_relprod2_and_ternarity_above_24_ones(d3):
    # dense d=3 quaternaries, and planted unions of at most d rectangles:
    # the Boolean-rank search decides them all against brute force, so the
    # two-ternary oracle of ternarity_bounds never reports "skipped"
    rng = random.Random(12)
    elems = d3.elements
    cells = list(itertools.product(elems, repeat=4))
    inputs = [set(rng.sample(cells, rng.randint(25, 60))) for _ in range(12)]
    inputs += [_planted_union(rng, elems) for _ in range(8)]
    answers = []
    for rows in inputs:
        rel = Relation.make(d3, ("1", "2", "3", "4"), rows)
        verdicts = []
        for other in (1, 2, 3):
            left = (0, other)
            right = tuple(p for p in range(4) if p not in left)
            row_sets, ncols = _matrix_row_sets(rows, left, right, elems)
            ones = {(i, j) for i, cols in enumerate(row_sets) for j in cols}
            rects = [cells_of(r) for r in maximal_rectangles(row_sets, ncols)]
            cert = rel_prod_reducible2(rel, (str(left[0] + 1), str(other + 1)))
            assert (cert is not None) == union_of_at_most(ones, rects, 3)
            assert cert is None or check_certificate(cert).valid
            verdicts.append(cert is not None)
        evidence = ternarity_bounds(rel).evidence
        assert all(e.get("verdict") != "skipped" for e in evidence)
        oracle = [e["verdict"] for e in evidence if e["test"] == "two-ternary-oracle"]
        assert oracle in ([], [any(verdicts)])
        answers.append((any(verdicts), bool(oracle)))
    assert {yes for yes, _ in answers} == {True, False}
    assert sum(ran for _, ran in answers) >= 12
