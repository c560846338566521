"""Property tests for the relation kernel.

Operators build their results without re-validating them, so these tests
check them against plain-set references (in the style of ``oracles.py``),
check that every result would pass the public constructor's validation,
and check that the public constructors still reject malformed input.
Examples are derandomized so that the suite stays deterministic.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from relred import core, formula
from relred.core import Domain, Relation
from relred.errors import AttributeSchemeError, BondabilityError, PreconditionError

PROPS = settings(
    derandomize=True,
    max_examples=25,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ELEMENTS = ("a", "b", "c")
# numeric names sort numerically ("10" after "2"), the rest lexically
ATTRS = ("1", "2", "10", "x", "y")


@st.composite
def domains(draw):
    return Domain("D", ELEMENTS[: draw(st.integers(1, 3))])


@st.composite
def relations(draw, domain, scheme=None, min_arity=0, min_rows=0):
    if scheme is None:
        scheme = draw(st.sets(st.sampled_from(ATTRS), min_size=min_arity, max_size=4))
    attrs = core.canonical_attrs(scheme)
    cells = list(itertools.product(domain.elements, repeat=len(attrs)))
    rows = draw(st.sets(st.sampled_from(cells), min_size=min_rows, max_size=12))
    return Relation(domain, attrs, frozenset(rows))


@st.composite
def relation_lists(draw, count):
    domain = draw(domains())
    return [draw(relations(domain)) for _ in range(count)]


def bindings(rel):
    return [dict(zip(rel.attrs, row)) for row in rel.rows]


def as_set(rel):
    """The relation as a set of attribute-value pairs per row."""
    return {frozenset(b.items()) for b in bindings(rel)}


def revalidated(rel):
    """The public constructor, run on an operator's output, accepts it."""
    again = Relation(rel.domain, rel.attrs, rel.rows)
    assert again == rel
    return rel


def ref_join(rels):
    acc = [{}]
    for rel in rels:
        acc = [
            {**a, **b}
            for a in acc
            for b in bindings(rel)
            if all(a[k] == v for k, v in b.items() if k in a)
        ]
    return {frozenset(b.items()) for b in acc}


def ref_project(rows, keep):
    return {frozenset((k, v) for k, v in row if k in keep) for row in rows}


@PROPS
@given(relation_lists(2))
def test_join_matches_reference(rels):
    a, b = rels
    got = revalidated(core.join([a, b]))
    assert got.scheme == a.scheme | b.scheme
    assert as_set(got) == ref_join([a, b])


@PROPS
@given(st.data())
def test_project_matches_reference(data):
    rel = data.draw(domains().flatmap(relations))
    keep = data.draw(st.sets(st.sampled_from(rel.attrs))) if rel.attrs else set()
    got = revalidated(core.project(rel, keep))
    assert got.scheme == frozenset(keep)
    assert as_set(got) == ref_project(as_set(rel), keep)


@PROPS
@given(st.data())
def test_select_matches_reference(data):
    rel = data.draw(domains().flatmap(relations))
    on = data.draw(st.sets(st.sampled_from(rel.attrs))) if rel.attrs else set()
    want = {a: data.draw(st.sampled_from(rel.domain.elements)) for a in sorted(on)}
    got = revalidated(core.select(rel, on, want))
    assert got.scheme == rel.scheme - on
    expect = {
        frozenset((k, v) for k, v in b.items() if k not in on)
        for b in bindings(rel)
        if all(b[a] == v for a, v in want.items())
    }
    assert as_set(got) == expect


@PROPS
@given(st.data())
def test_rename_matches_reference(data):
    rel = data.draw(domains().flatmap(relations))
    targets = data.draw(st.permutations(("1", "2", "3", "10", "z")))[: rel.arity]
    mapping = dict(zip(rel.attrs, targets))
    got = revalidated(core.rename(rel, mapping))
    expect = {frozenset((mapping[k], v) for k, v in b.items()) for b in bindings(rel)}
    assert as_set(got) == expect


@PROPS
@given(domains().flatmap(relations))
def test_complement_matches_reference(rel):
    got = revalidated(core.complement(rel))
    cells = set(itertools.product(rel.domain.elements, repeat=rel.arity))
    assert got.attrs == rel.attrs
    assert got.rows == cells - rel.rows


@PROPS
@given(relation_lists(3))
def test_bond_eval_matches_reference(rels):
    counts = {}
    for r in rels:
        for a in r.attrs:
            counts[a] = counts.get(a, 0) + 1
    if any(c > 2 for c in counts.values()):
        with pytest.raises(BondabilityError):
            core.bond_eval(rels)
        return
    keep = {a for a, c in counts.items() if c == 1}
    got = revalidated(core.bond_eval(rels))
    assert got.scheme == keep
    assert as_set(got) == ref_project(ref_join(rels), keep)


VARS = ("u", "v", "w")


@st.composite
def conjunctions(draw):
    domain = draw(domains())
    env = {
        sym: draw(relations(domain, scheme=[str(i + 1) for i in range(arity)]))
        for sym, arity in (("P", draw(st.integers(1, 3))), ("Q", draw(st.integers(1, 2))))
    }
    atoms = [
        formula.Atom(sym, tuple(draw(st.lists(st.sampled_from(VARS),
                                              min_size=env[sym].arity,
                                              max_size=env[sym].arity))))
        for sym in draw(st.lists(st.sampled_from(("P", "Q")), min_size=1, max_size=3))
    ]
    f = atoms[0] if len(atoms) == 1 else formula.Conj(tuple(atoms))
    used = sorted(formula.free_vars(f))
    bound = draw(st.sets(st.sampled_from(used), max_size=len(used) - 1))
    if bound:
        f = formula.Exists(frozenset(bound), f)
    return f, env


def ref_evaluate(f, env):
    """Satisfying assignments by brute force over all variable values."""
    params, atoms = formula.flatten(f)
    variables = sorted({v for a in atoms for v in a.args})
    domain = formula.env_domain(env)
    out = set()
    for values in itertools.product(domain.elements, repeat=len(variables)):
        val = dict(zip(variables, values))
        if all(tuple(val[v] for v in a.args) in env[a.symbol].rows for a in atoms):
            out.add(frozenset((v, val[v]) for v in variables if v not in params))
    return out


@PROPS
@given(conjunctions())
def test_evaluate_matches_reference(case):
    f, env = case
    got = revalidated(formula.evaluate(f, env))
    assert got.scheme == formula.free_vars(f)
    assert as_set(got) == ref_evaluate(f, env)


# ---------------------------------------------------------------------------
# The validation boundary: the public constructors reject malformed input
# ---------------------------------------------------------------------------


def nonempty_relations(min_arity=1):
    return domains().flatmap(lambda d: relations(d, min_arity=min_arity, min_rows=1))


@PROPS
@given(nonempty_relations(), st.data())
def test_constructors_reject_out_of_domain_values(rel, data):
    row = list(data.draw(st.sampled_from(sorted(rel.rows))))
    row[data.draw(st.integers(0, rel.arity - 1))] = "zz"
    bad = tuple(row)
    with pytest.raises(PreconditionError, match="not in domain"):
        Relation(rel.domain, rel.attrs, rel.rows | {bad})
    with pytest.raises(PreconditionError, match="not in domain"):
        Relation.make(rel.domain, rel.attrs, sorted(rel.rows) + [bad])
    text = core.dump_relation(rel).rstrip("\n") + "\n" + " ".join(bad) + "\n"
    with pytest.raises(PreconditionError, match="not in domain"):
        core.load_relation(text)


@PROPS
@given(nonempty_relations(), st.booleans())
def test_constructors_reject_wrong_row_lengths(rel, longer):
    row = sorted(rel.rows)[0]
    bad = row + row[:1] if longer else row[:-1]
    with pytest.raises(AttributeSchemeError, match="row length"):
        Relation(rel.domain, rel.attrs, rel.rows | {bad})
    with pytest.raises(AttributeSchemeError, match="row length"):
        Relation.make(rel.domain, rel.attrs, sorted(rel.rows) + [bad])
    text = core.dump_relation(rel).rstrip("\n") + "\n" + (" ".join(bad) or ".") + "\n"
    with pytest.raises(AttributeSchemeError, match="row length"):
        core.load_relation(text)


@PROPS
@given(nonempty_relations(min_arity=2), st.data())
def test_constructors_reject_bad_schemes(rel, data):
    order = data.draw(st.permutations(rel.attrs).filter(lambda p: tuple(p) != rel.attrs))
    with pytest.raises(AttributeSchemeError, match="canonical order"):
        Relation(rel.domain, tuple(order), rel.rows)
    doubled = rel.attrs[:-1] + rel.attrs[:1]
    with pytest.raises(AttributeSchemeError, match="duplicate attribute"):
        Relation(rel.domain, doubled, frozenset())
    with pytest.raises(AttributeSchemeError, match="duplicate attribute"):
        Relation.make(rel.domain, doubled, sorted(rel.rows))
    text = core.dump_relation(rel).replace(" ".join(rel.attrs), " ".join(doubled), 1)
    with pytest.raises(AttributeSchemeError, match="duplicate attribute"):
        core.load_relation(text)
