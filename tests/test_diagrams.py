import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from relred import core, diagrams
from relred.core import Domain, Relation, standard
from relred.diagrams import (
    bond_graph_stats,
    build_projoin_graph,
    de_explicate,
    emit_dot,
    explicate,
    explicate_certificate,
    merge_complete,
    ternarity_bounds,
    to_bonding_diagram,
)
from relred.errors import PreconditionError, ReductionRefused
from relred.formula import (
    SYMBOL_RE,
    VAR_RE,
    Atom,
    Conj,
    ReductionCertificate,
    classify,
    evaluate,
    flatten,
    free_vars,
    parse,
    prenex,
    render,
)
from relred.reducers import hypostatic_abstraction, identity_chain, key_reduction

from conftest import make_rel


def _graph(text):
    return build_projoin_graph(parse(text))


def test_projoin_graph_slots():
    g = _graph("exists t . P(x,t) & Q(t,t,y)")
    (t,) = g.bound  # flatten freshens bound names
    assert g.degree(t) == 3
    assert g.valency("x") == 2  # one slot plus the stem


def test_bonding_diagram_bound_pair_becomes_edge():
    g = _graph("exists t . P(x,t) & Q(t,y)")
    (t,) = g.bound
    dg = to_bonding_diagram(g)
    assert dg.is_bond_diagram
    assert (("P", 0), ("P", 1), t) in dg.edges


def test_bonding_diagram_self_loop():
    g = _graph("exists t . P(t,t,x)")
    (t,) = g.bound
    dg = to_bonding_diagram(g)
    assert (("P", 0), ("P", 0), t) in dg.edges


def test_bonding_diagram_dead_end():
    g = _graph("exists t . P(t,x)")
    dg = to_bonding_diagram(g)
    assert dg.dead_ends == g.bound


def test_branch_point_blocks_bond():
    g = _graph("exists t . P(x,t) & Q(t,y) & S(t,z)")
    dg = to_bonding_diagram(g)
    assert not dg.is_bond_diagram and dg.branch_points == g.bound


def test_stats_identity_chain(d2):
    cert = identity_chain(4, d2)
    st = bond_graph_stats(to_bonding_diagram(build_projoin_graph(cert.formula)))
    assert (st.V, st.E, st.C, st.K) == (6, 5, 0, 1)
    assert (st.I, st.III) == (4, 2)
    assert st.III - st.I == 2 * (st.C - st.K)


def test_explicate_shared_bound_var(d2):
    # t sits in three atoms; explication relays it through a teridentity
    f = parse("exists t . P(x,t) & Q(t,y) & S(t,z)")
    env = {
        "P": make_rel(d2, 2, [("a", "a"), ("b", "a")]),
        "Q": make_rel(d2, 2, [("a", "b")]),
        "S": make_rel(d2, 2, [("a", "a"), ("a", "b")]),
    }
    g, env2 = explicate(f, env)
    assert "I3" in env2
    cls = classify(g)
    assert cls.is_bond
    assert evaluate(g, env2).rows == evaluate(f, env).rows


def test_explicate_chain_text(d2):
    # t fills five slots: a caterpillar of three teridentities with two
    # internal relays
    f = parse("exists t . P(x,t) & Q(t,y) & S(t,z) & P(y,t) & Q(t,x)")
    env = {
        "P": make_rel(d2, 2, [("a", "a"), ("b", "a")]),
        "Q": make_rel(d2, 2, [("a", "b")]),
        "S": make_rel(d2, 2, [("a", "a"), ("a", "b")]),
    }
    g, env2 = explicate(f, env)
    assert render(g) == (
        "exists t_1_1 t_1_2 t_1_3 t_1_4 t_1_5 t_1_6 t_1_7 x_1 x_2 y_1 y_2 . "
        "P(x_1,t_1_1) & Q(t_1_2,y_1) & S(t_1_3,z) & P(y_2,t_1_4) & Q(t_1_5,x_2) & "
        "I3(t_1_1,t_1_2,t_1_6) & I3(t_1_6,t_1_3,t_1_7) & I3(t_1_7,t_1_4,t_1_5) & "
        "I3(x,x_1,x_2) & I3(y,y_1,y_2)"
    )
    assert evaluate(g, env2).rows == evaluate(f, env).rows


def test_explicate_free_var_sharing(d2):
    f = parse("P(x,y) & Q(x,z)")
    env = {
        "P": make_rel(d2, 2, [("a", "b")]),
        "Q": make_rel(d2, 2, [("a", "a"), ("b", "b")]),
    }
    g, env2 = explicate(f, env)
    assert classify(g).is_bond
    out = evaluate(g, env2, free_order=("x", "y", "z"))
    assert out.rows == evaluate(f, env, free_order=("x", "y", "z")).rows


def test_explicate_absorbs_confined_var(d2):
    f = parse("exists t . P(x,t,t)")
    env = {"P": make_rel(d2, 3, [("a", "a", "a"), ("b", "a", "b")])}
    g, env2 = explicate(f, env)
    # the tilde-narrowed copy of P replaces it
    assert any(s.endswith("_tilde") for s in env2)
    assert evaluate(g, env2).rows == evaluate(f, env).rows


def test_explicate_rejects_closed_component(d2):
    f = parse("exists t . P(t) & Q(x)")
    env = {
        "P": make_rel(d2, 1, [("a",)]),
        "Q": make_rel(d2, 1, [("b",)]),
    }
    with pytest.raises(PreconditionError):
        explicate(f, env)


def test_explicated_certificate_verifies(d3):
    r = make_rel(d3, 3, [("a", "b", "c"), ("b", "b", "a")])
    cert = hypostatic_abstraction(r, 1)
    out = explicate_certificate(cert)
    assert classify(out.formula).is_bond
    assert out.target.rows == r.rows


def test_de_explicate_identity_chain(d2):
    cert = identity_chain(4, d2)
    g, env2 = de_explicate(cert.formula, cert.env)
    assert "exists" not in render(g)
    got = evaluate(g, env2, free_order=("x1", "x2", "x3", "x4"))
    want = evaluate(cert.formula, cert.env, free_order=("x1", "x2", "x3", "x4"))
    assert got.rows == want.rows


def test_identity_symbol_builds_an_identity_only_when_it_binds_one(d2, monkeypatch):
    built = []
    standard_ = core.standard
    monkeypatch.setattr(core, "standard", lambda *a: built.append(a) or standard_(*a))
    env = {"I3": standard_("identity", 3, d2)}
    assert diagrams._identity_symbol(3, env, d2) == "I3" and built == []
    env["I3"] = standard_("universal", 3, d2)
    assert diagrams._identity_symbol(3, env, d2) == "I3_2"
    assert built == [("identity", 3, d2)] and env["I3_2"] == standard_("identity", 3, d2)


def test_de_explicate_requires_bond(d2):
    f = parse("exists t . P(x,t) & Q(t,y) & S(t,z)")
    env = {s: make_rel(d2, 2, [("a", "a")]) for s in ("P", "Q", "S")}
    with pytest.raises(PreconditionError):
        de_explicate(f, env)


def test_merge_complete_multiedge(d2):
    # two binaries on the same bound pair collapse to one binary
    cert = explicate_certificate(identity_chain(3, d2))
    merged = merge_complete(cert)
    assert merged.target.rows == cert.target.rows
    cls = classify(merged.formula)
    assert max(cls.factor_arities) <= 3


def test_ternarity_identity_chain(d2):
    i5 = standard("identity", 5, d2)
    cert = identity_chain(5, d2)
    rep = ternarity_bounds(i5, [cert])
    assert rep.lower == rep.upper == 3
    assert rep.exact


def test_ternarity_binary_is_zero(d2):
    rep = ternarity_bounds(standard("identity", 2, d2), [])
    assert (rep.lower, rep.upper) == (0, 0)


def test_ternarity_pairwise_key(rel_h):
    rep = ternarity_bounds(rel_h, [])
    assert rep.lower == rep.upper == 4


def test_ternarity_reads_the_explicated_bond(d2):
    # s and t are dead ends of the one ternary: explication projects T to
    # its first column, so the bond has no ternary
    t = make_rel(d2, 3, [("a", "a", "b"), ("b", "b", "a")])
    b = make_rel(d2, 2, [("a", "b"), ("b", "a")])
    target = make_rel(d2, 3, [(x,) + r for x in "ab" for r in b.rows])
    f = parse("exists s t . T(x1,t,s) & B(x2,x3)")
    cert = ReductionCertificate(target, f, {"T": t, "B": b},
                                {"x1": "1", "x2": "2", "x3": "3"})
    rep = ternarity_bounds(target, [cert])
    assert (rep.lower, rep.upper) == (0, 0)
    assert rep.evidence[-1] == {"test": "bond-certificate", "ternaries": 0}


def test_ternarity_skips_a_closed_component(d2):
    # P(t) is a component with no free variable: explication refuses it
    i3 = standard("identity", 3, d2)
    f = parse("exists t . P(t) & T(x1,x2,x3)")
    env = {"P": make_rel(d2, 1, [("a",)]), "T": i3}
    cert = ReductionCertificate(i3, f, env, {"x1": "1", "x2": "2", "x3": "3"})
    rep = ternarity_bounds(i3, [cert])
    assert rep.evidence[-1] == {"test": "bond-certificate", "verdict": "skipped"}
    assert rep.evidence[:-1] == ternarity_bounds(i3, []).evidence
    assert (rep.lower, rep.upper) == (1, 1)


PROPS = settings(
    derandomize=True,
    max_examples=200,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def projoin_certificates(draw):
    """A certificate for the value of a random projoin formula: d = 2..3,
    three or four free variables, up to three bound ones, and atoms of
    arity 1..4 whose slots may repeat a variable or give a bound variable
    one slot (a dead end)."""
    d = draw(st.integers(2, 3))
    dom = Domain(f"D{d}", tuple("abc"[:d]))
    free = [f"x{i}" for i in range(1, draw(st.integers(3, 4)) + 1)]
    names = free + [f"t{i}" for i in range(1, draw(st.integers(0, 3)) + 1)]
    extra = draw(st.lists(st.sampled_from(names), max_size=8))
    slots = draw(st.permutations(free + extra))
    atoms, env = [], {}
    while slots:
        k = draw(st.integers(1, min(4, len(slots))))
        args, slots = tuple(slots[:k]), slots[k:]
        cells = list(itertools.product(dom.elements, repeat=k))
        mask = draw(st.integers(0, 2 ** len(cells) - 1))
        if draw(st.booleans()):
            mask |= draw(st.integers(0, 2 ** len(cells) - 1))
        symbol = f"F{len(atoms)}"
        env[symbol] = Relation.make(
            dom, tuple(str(i + 1) for i in range(k)),
            [c for i, c in enumerate(cells) if mask >> i & 1])
        atoms.append(Atom(symbol, args))
    used = {v for a in atoms for v in a.args}
    f = prenex([v for v in names if v not in free and v in used], atoms)
    return ReductionCertificate(evaluate(f, env), f, env, {v: v for v in free_vars(f)})


@PROPS
@given(projoin_certificates())
def test_certificate_bound_is_the_merged_bond(cert):
    rep = ternarity_bounds(cert.target, [cert])
    entries = [e for e in rep.evidence if e["test"] == "bond-certificate"]
    assert len(entries) <= 1
    try:
        bond = explicate_certificate(cert)
        wide = classify(bond.formula).max_factor_arity > 3
        count = None if wide else classify(merge_complete(bond).formula).factor_arities.count(3)
    except PreconditionError:
        assert entries == [{"test": "bond-certificate", "verdict": "skipped"}]
        return
    if wide:
        assert entries == []
    else:
        assert entries == [{"test": "bond-certificate", "ternaries": count}]
        assert rep.lower <= rep.upper <= count


def _atoms(f):
    if isinstance(f, Atom):
        yield f
    else:
        for part in f.parts if isinstance(f, Conj) else (f.body,):
            yield from _atoms(part)


@settings(PROPS, max_examples=60)
@given(projoin_certificates(), st.integers(1, 2))
def test_generated_atoms_have_valid_names(cert, k):
    """Atoms that relred builds itself skip the name checks of ``Atom``:
    those of the parser, ``flatten``, explication, merging and the
    reducers all carry a valid symbol and valid variables."""
    certs = [cert, identity_chain(cert.target.arity, cert.target.domain)]
    for reduce in (lambda r: hypostatic_abstraction(r, k),
                   lambda r: key_reduction(r, r.attrs[:1])):
        try:
            certs.append(reduce(cert.target))
        except ReductionRefused:
            pass
    formulas = []
    for c in certs:
        formulas += [c.formula, parse(render(c.formula))]
        try:
            bond = explicate_certificate(c)
            formulas.append(bond.formula)
            if classify(bond.formula).max_factor_arity <= 3:
                formulas.append(merge_complete(bond).formula)
        except PreconditionError:
            pass
    for f in formulas:
        for atom in [*_atoms(f), *flatten(f)[1]]:
            assert SYMBOL_RE.fullmatch(atom.symbol), atom
            assert all(VAR_RE.fullmatch(v) for v in atom.args), atom
        assert all(VAR_RE.fullmatch(v) for v in flatten(f)[0])


def test_dot_output_is_stable():
    dg = to_bonding_diagram(_graph("exists t . P(x,t) & Q(t,y)"))
    a, b = emit_dot(dg), emit_dot(dg)
    assert a == b
    assert a.startswith("graph bonding {")
    assert a.endswith("}\n")


def test_dot_projoin_graph():
    g = _graph("P(x,y)")
    text = emit_dot(g)
    assert text.startswith("graph projoin {")
    assert '"P"' in text or "P" in text
