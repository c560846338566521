"""Acceptance gate.

Each test covers one numbered criterion and prints a single PASS/FAIL
line.  Golden census counts were frozen from an independent set-based
enumerator before this package's census was written.
"""

import itertools
import random
import time

from relred.analysis import (
    census,
    is_degenerate,
    is_join_reducible,
    one_param_ternary_projoin,
    rel_prod_reducible2,
    ternary_oracle_suite,
)
from relred.core import Domain, Relation, complement, join, project, standard
from relred.diagrams import (
    bond_graph_stats,
    ternarity_bounds,
    build_projoin_graph,
    de_explicate,
    explicate,
    to_bonding_diagram,
)
from relred.dependencies import find_keys, mvd_holds
from relred.errors import ReductionRefused
from relred.formula import (
    Atom,
    Conj,
    Exists,
    classify,
    evaluate,
    flatten,
    free_vars,
    normalize,
)
from relred.reducers import hypostatic_abstraction, identity_chain, key_reduction

from oracles import expected_ternary_count, fagin_join_equals, join_cover_reducible

# frozen goldens from the independent enumerator (computed pre-build)
CENSUS_GOLDEN = {
    (2, 2): (16, 10, 10),
    (2, 3): (256, 82, 166),
}


def _report(num, name, ok):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def _domain(d):
    return Domain(f"D{d}", tuple("abcdefgh"[:d]))


def _attrs(n):
    return tuple(str(i + 1) for i in range(n))


# ---------------------------------------------------------------------------
# random formula/environment generation shared by criteria 7 and 11
# ---------------------------------------------------------------------------


def _random_projoin(rng):
    """A normalized projoin with <= 5 atoms and <= 8 variables, arranged
    so that explication's closed-component refusal cannot fire."""
    while True:
        natoms = rng.randrange(1, 6)
        pool = [f"v{i}" for i in range(1, rng.randrange(2, 9))]
        atoms = []
        for i in range(natoms):
            arity = rng.randrange(1, 4)
            args = tuple(rng.choice(pool) for _ in range(arity))
            atoms.append(Atom(f"P{i + 1}", args))
        used = {v for a in atoms for v in a.args}
        bound = {v for v in used if rng.random() < 0.4}
        if bound == used:
            bound.discard(rng.choice(sorted(used)))
        # an atom all of whose variables are confined bound variables
        # would explicate to a closed component; skip such draws
        atoms_of = {}
        for i, a in enumerate(atoms):
            for v in a.args:
                atoms_of.setdefault(v, set()).add(i)
        closed = False
        for i, a in enumerate(atoms):
            if all(v in bound and atoms_of[v] == {i} for v in a.args):
                closed = True
                break
        if closed:
            continue
        body = atoms[0] if len(atoms) == 1 else Conj(tuple(atoms))
        f = Exists(frozenset(bound), body) if bound else body
        return normalize(f), atoms


def _random_env(rng, atoms, domain):
    env = {}
    for a in atoms:
        cells = list(itertools.product(domain.elements, repeat=len(a.args)))
        rows = [c for c in cells if rng.random() < 0.5]
        env[a.symbol] = Relation.make(domain, _attrs(len(a.args)), rows)
    return env


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_identity_chain():
    start = time.time()
    ok = True
    for d in (2, 3, 4):
        dom = _domain(d)
        for n in range(3, 7):
            cert = identity_chain(n, dom)
            want = standard("identity", n, dom)
            ok = ok and cert.target.rows == want.rows
            cert.verify()  # the formula evaluates to the target
            ternaries = sum(
                1 for a in flatten(cert.formula)[1] if len(a.args) == 3
            )
            ok = ok and ternaries == n - 2
    ok = ok and time.time() - start < 1.0
    _report(1, "identity chain", ok)


def test_criterion_02_printed_join_table():
    dom = _domain(2)  # a for alpha, b for beta
    r = Relation.make(dom, _attrs(3), [
        ("a", "a", "a"), ("a", "a", "b"), ("a", "b", "a"),
        ("a", "b", "b"), ("b", "a", "b"),
    ])
    r12 = Relation.make(dom, ("1", "2"), [("a", "a"), ("a", "b"), ("b", "a")])
    r13 = Relation.make(dom, ("1", "3"), [("a", "a"), ("a", "b"), ("b", "b")])
    joined = join([r12, r13])
    _report(2, "printed join table", joined.attrs == r.attrs
            and joined.rows == r.rows)


def test_criterion_03_pairwise_key_quaternary(rel_h):
    start = time.time()
    h = rel_h
    ok = is_degenerate(h) is None
    ok = ok and find_keys(h, 2) == [
        ("1", "2"), ("1", "3"), ("2", "3"), ("1", "4"), ("2", "4"), ("3", "4")
    ]
    j = join([project(h, ("1", "2", "3")), project(h, ("1", "2", "4"))])
    ok = ok and j.rows == h.rows
    for left in (("1", "2"), ("1", "3"), ("1", "4")):
        ok = ok and rel_prod_reducible2(h, left) is None
    rep = ternarity_bounds(h, [])
    ok = ok and rep.lower == rep.upper == 4
    ok = ok and time.time() - start < 10.0
    _report(3, "pairwise-key quaternary suite", ok)


def test_criterion_04_not_i3_irreducible():
    start = time.time()
    ok = True
    for d in (2, 3):
        not_i3 = complement(standard("identity", 3, _domain(d)))
        ok = ok and is_join_reducible(not_i3) is None
        ok = ok and one_param_ternary_projoin(not_i3) is None
        evidence = ternary_oracle_suite(not_i3)
        ok = ok and any(e.get("conclusion") == "ter_I3 >= 3" for e in evidence)
    ok = ok and time.time() - start < 5.0
    _report(4, "negated teridentity irreducibility", ok)


def test_criterion_05_negated_join_projoin():
    from relred.reducers import neg_join_projoin

    i4 = standard("identity", 4, _domain(3))
    cert = neg_join_projoin(key_reduction(i4, ("1",)), 1)
    cls = classify(cert.formula)
    ok = cert.target.rows == complement(i4).rows
    ok = ok and all(a == 3 for a in cls.factor_arities)

    i3 = standard("identity", 3, _domain(2))
    refused = False
    try:
        neg_join_projoin(key_reduction(i3, ("1",)), 1)
    except ReductionRefused as e:
        refused = e.reason == "inequality" and ">" in str(e)
    _report(5, "negated-join projoin", ok and refused)


def test_criterion_06_hypostatic_abstraction():
    start = time.time()
    rng = random.Random(2024)
    ok = True
    for _ in range(200):
        d = rng.randrange(2, 5)
        n = rng.randrange(3, 6)
        dom = _domain(d)
        cells = list(itertools.product(dom.elements, repeat=n))
        rows = rng.sample(cells, rng.randrange(1, d + 1))
        r = Relation.make(dom, _attrs(n), rows)
        cert = hypostatic_abstraction(r, 1)  # verifies on construction
        cls = classify(cert.formula)
        ok = ok and cls.factor_arities == (2,) * n
        if is_degenerate(r) is None:
            rep = ternarity_bounds(r, [cert])
            ok = ok and rep.lower == rep.upper == n - 2
        if not ok:
            break
    ok = ok and time.time() - start < 30.0
    _report(6, "hypostatic abstraction", ok)


def test_criterion_07_graph_laws():
    rng = random.Random(777)
    dom = _domain(2)
    ok = True
    for _ in range(1000):
        f, atoms = _random_projoin(rng)
        params, norm_atoms = flatten(f)
        env = _random_env(rng, atoms, dom)
        g, env2 = explicate(f, env)
        stats = bond_graph_stats(to_bonding_diagram(build_projoin_graph(g)))
        ok = ok and stats.V - stats.E + stats.C - stats.K == 0
        ok = ok and stats.III - stats.I == 2 * (stats.C - stats.K)
        want_iii = expected_ternary_count(
            params, [(a.symbol, a.args) for a in norm_atoms]
        )
        ok = ok and stats.III == want_iii
        order = sorted(free_vars(f))
        got = evaluate(g, env2, free_order=order) if order else evaluate(g, env2)
        ref = evaluate(f, env, free_order=order) if order else evaluate(f, env)
        ok = ok and got.attrs == ref.attrs and got.rows == ref.rows
        if not ok:
            break
    _report(7, "explication graph laws", ok)


def test_criterion_08_join_reducibility_oracle():
    start = time.time()
    dom = _domain(2)
    cells = list(itertools.product(dom.elements, repeat=3))
    ok = True
    for mask in range(2 ** 8):
        rows = [cells[i] for i in range(8) if mask >> i & 1]
        r = Relation.make(dom, _attrs(3), rows)
        got = is_join_reducible(r) is not None
        want = join_cover_reducible(rows, dom.elements, 3)
        if got != want:
            ok = False
            break
    ok = ok and time.time() - start < 60.0
    _report(8, "join-reducibility oracle equivalence", ok)


def test_criterion_09_census_goldens():
    start = time.time()
    ok = True
    for (d, n), golden in CENSUS_GOLDEN.items():
        row = census(d, n)
        ok = ok and (row.total, row.degenerate, row.join_reducible) == golden
        ok = ok and row.degenerate <= row.join_reducible <= row.total
        ok = ok and row.degenerate <= row.bound_ndeg
        ok = ok and row.join_reducible <= row.bound_njred
    ok = ok and time.time() - start < 120.0
    _report(9, "census goldens and bounds", ok)


def test_criterion_10_fagin_biconditional():
    ok = True
    dom2 = _domain(2)
    cells3 = list(itertools.product(dom2.elements, repeat=3))
    cases3 = []
    attrs3 = _attrs(3)
    for m_size in range(0, 2):
        for m in itertools.combinations(range(3), m_size):
            rest = [i for i in range(3) if i not in m]
            if len(rest) < 2:
                continue
            if len(rest) == 2:
                parts = [[(rest[0],), (rest[1],)]]
            else:
                parts = [
                    [(rest[0],), (rest[1], rest[2])],
                    [(rest[1],), (rest[0], rest[2])],
                    [(rest[2],), (rest[0], rest[1])],
                    [(rest[0],), (rest[1],), (rest[2],)],
                ]
            cases3.extend((m, blocks) for blocks in parts)
    for mask in range(2 ** 8):
        rows = [cells3[i] for i in range(8) if mask >> i & 1]
        r = Relation.make(dom2, attrs3, rows)
        for m, blocks in cases3:
            rep = mvd_holds(
                r,
                tuple(attrs3[i] for i in m),
                [tuple(attrs3[i] for i in b) for b in blocks],
            )
            want = fagin_join_equals(rows, dom2.elements, 3, m, blocks)
            if rep.holds != want:
                ok = False
                break
        if not ok:
            break

    rng = random.Random(42)
    dom3 = _domain(3)
    cells4 = list(itertools.product(dom3.elements, repeat=4))
    attrs4 = _attrs(4)
    for _ in range(500):
        if not ok:
            break
        rows = rng.sample(cells4, rng.randrange(0, 15))
        r = Relation.make(dom3, attrs4, rows)
        m = (rng.randrange(4),)
        rest = [i for i in range(4) if i not in m]
        rng.shuffle(rest)
        if rng.random() < 0.5:
            blocks = [(rest[0],), tuple(sorted(rest[1:]))]
        else:
            blocks = [(rest[0],), (rest[1],), (rest[2],)]
        rep = mvd_holds(
            r,
            tuple(attrs4[i] for i in m),
            [tuple(sorted(attrs4[i] for i in b)) for b in blocks],
        )
        want = fagin_join_equals(rows, dom3.elements, 4, m, blocks)
        ok = ok and rep.holds == want
    _report(10, "multivalued-dependency biconditional", ok)


def test_criterion_11_explication_roundtrip():
    rng = random.Random(90125)
    dom = _domain(2)
    ok = True
    for _ in range(500):
        f, atoms = _random_projoin(rng)
        env = _random_env(rng, atoms, dom)
        g, env2 = explicate(f, env)
        h, env3 = de_explicate(g, env2)
        order = sorted(free_vars(f))
        if order:
            got = evaluate(h, env3, free_order=order)
            ref = evaluate(f, env, free_order=order)
        else:
            got = evaluate(h, env3)
            ref = evaluate(f, env)
        ok = ok and got.attrs == ref.attrs and got.rows == ref.rows
        if not ok:
            break
    _report(11, "explication round trip", ok)
