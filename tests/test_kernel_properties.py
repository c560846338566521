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
from relred.errors import (
    AttributeSchemeError,
    BondabilityError,
    ParseError,
    PreconditionError,
)

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


@PROPS
@given(relation_lists(3), st.data())
def test_projoin_matches_reference(rels, data):
    union = sorted({a for r in rels for a in r.attrs})
    keep = data.draw(st.sets(st.sampled_from(union))) if union else set()
    got = revalidated(core.projoin(rels, keep))
    assert got.scheme == frozenset(keep)
    assert as_set(got) == ref_project(ref_join(rels), keep)
    with pytest.raises(AttributeSchemeError, match="not in scheme"):
        core.projoin(rels, keep | {"q"})


def _every_other_row(rows, attrs, domain):
    """A relation over ``attrs`` holding every other of ``rows`` (sets of
    attribute-value pairs), in sorted order."""
    kept = sorted(tuple(dict(row)[a] for a in attrs) for row in rows)[::2]
    return Relation(domain, attrs, frozenset(kept))


def _bound_across(rels):
    """A part whose columns are those of the first two parts, so that it is
    all bound once they are joined, holding half the rows of their join."""
    attrs = core.canonical_attrs(set(rels[0].attrs) | set(rels[1].attrs))
    return _every_other_row(ref_join(rels[:2]), attrs, rels[0].domain)


# Parts the join loop must place in any order: the 0-ary TRUE and FALSE, an
# empty relation, one over an attribute no other part carries, and parts
# whose columns other parts all carry (a filter step when joined after them).
EXTRA_PARTS = {
    "true": lambda rels: core.true_relation(rels[0].domain),
    "false": lambda rels: core.false_relation(rels[0].domain),
    "empty": lambda rels: Relation(rels[0].domain, ("1", "z"), frozenset()),
    "apart": lambda rels: Relation(rels[0].domain, ("z",),
                                   frozenset((e,) for e in rels[0].domain.elements[:2])),
    "bound": lambda rels: _every_other_row(
        ref_join(rels[:1]), rels[0].attrs, rels[0].domain),
    "bound_across": _bound_across,
}


@pytest.mark.parametrize("extra", EXTRA_PARTS.values(), ids=EXTRA_PARTS.keys())
@PROPS
@given(relation_lists(3), st.data())
def test_projoin_independent_of_part_order(extra, rels, data):
    rels = rels + [extra(rels)]
    union = sorted({a for r in rels for a in r.attrs})
    keep = data.draw(st.sets(st.sampled_from(union))) if union else set()
    want = ref_project(ref_join(rels), keep)
    for order in itertools.permutations(rels):
        got = revalidated(core.projoin(list(order), keep))
        assert got.attrs == core.canonical_attrs(keep)
        assert as_set(got) == want


def test_projoin_keeps_columns_a_later_part_joins_on():
    # a triangle: after two parts are joined, both carried columns that are
    # not kept still constrain the third part, so none may be dropped yet
    d = Domain("D", ("a", "b"))
    same = frozenset({("a", "a"), ("b", "b")})
    rels = [Relation(d, ("1", "2"), same), Relation(d, ("2", "3"), same),
            Relation(d, ("1", "3"), frozenset({("a", "b")}))]
    for order in itertools.permutations(rels):
        for keep in ((), ("1",), ("1", "2", "3")):
            assert not core.projoin(list(order), keep).rows



# ---------------------------------------------------------------------------
# The join loop's edge cases, on positional parts against the reference join
# ---------------------------------------------------------------------------

D3 = Domain("D", ELEMENTS)
TRUE_PART = ((), frozenset({()}))
FALSE_PART = ((), frozenset())
XY = (("x", "y"), frozenset({("a", "b"), ("b", "b"), ("c", "a")}))
YZ = (("y", "z"), frozenset({("b", "c"), ("a", "a")}))


def keeps(parts):
    """Every set of the parts' attributes, as a sorted tuple."""
    union = sorted({a for attrs, _ in parts for a in attrs})
    return [c for r in range(len(union) + 1) for c in itertools.combinations(union, r)]


def check_parts(parts, keep):
    """``_projoin`` on ``parts``, checked against the reference join."""
    got = revalidated(core._projoin(D3, parts, keep))
    want = ref_project(ref_join([Relation.make(D3, a, r) for a, r in parts]), keep)
    assert got.attrs == core.canonical_attrs(keep)
    assert as_set(got) == want
    return got


def test_join_loop_of_no_parts_is_true():
    assert check_parts([], ()).rows == {()}


@pytest.mark.parametrize("zero", [TRUE_PART, FALSE_PART], ids=["true", "false"])
def test_join_loop_with_a_0_ary_part(zero):
    for parts in itertools.permutations([zero, XY, YZ]):
        for keep in keeps(parts):
            assert bool(check_parts(list(parts), keep).rows) == bool(zero[1])


def test_join_loop_drops_every_column_of_the_first_part():
    # the one-row part is first and no other part carries w: it starts the
    # result as TRUE, or FALSE when it is empty
    for w_rows in (frozenset({("a",)}), frozenset()):
        parts = [(("w",), w_rows), XY, YZ]
        for keep in ((), ("x",), ("x", "z"), ("y",)):
            assert bool(check_parts(parts, keep).rows) == bool(w_rows)


def test_join_loop_with_parts_of_equal_size():
    parts = [(("x", "y"), frozenset({("a", "b"), ("b", "a")})),
             (("y", "z"), frozenset({("a", "b"), ("b", "c")})),
             (("z", "x"), frozenset({("b", "b"), ("c", "a")})),
             (("w",), frozenset({("a",), ("c",)}))]
    for order in itertools.permutations(parts):
        for keep in keeps(parts):
            check_parts(list(order), keep)


class Logged(frozenset):
    """Rows that note their name in ``log`` when the join loop first reads them."""

    def __new__(cls, rows, name, log):
        self = super().__new__(cls, rows)
        self.name, self.log = name, log
        return self

    def _note(self):
        if self.name not in self.log:
            self.log.append(self.name)

    def __iter__(self):
        self._note()
        return super().__iter__()

    def __contains__(self, row):
        self._note()
        return super().__contains__(row)


def test_join_loop_joins_a_disconnected_part_last():
    # w is no larger than y-z and may come before it, but y-z is connected
    # to the first part x-y
    parts = {"apart": (("w",), frozenset({("a",), ("b",)})),
             "first": (("x", "y"), frozenset({("a", "b")})),
             "yz": YZ}
    for order in itertools.permutations(parts):
        for keep in keeps(parts.values()):
            log: list[str] = []
            core._projoin(D3, [(parts[n][0], Logged(parts[n][1], n, log)) for n in order], keep)
            assert log[-1] == "apart"
            check_parts([parts[n] for n in order], keep)


def test_join_loop_returns_a_single_part_with_its_rows():
    assert check_parts([XY], ("x", "y")).rows is XY[1]
    check_parts([(("y", "x"), XY[1])], ("x", "y"))
    check_parts([XY], ("y",))
    check_parts([XY], ())


VARS = ("u", "v", "w")


@st.composite
def formulas_over(draw, env, depth=3):
    """Atoms, conjunctions and quantifiers nested up to ``depth`` deep; a
    quantifier may bind a variable that is also free elsewhere or bound
    further out, as in ``P(u,v) & (exists u . Q(u))``."""
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        sym = draw(st.sampled_from(("P", "Q")))
        arity = env[sym].arity
        args = draw(st.lists(st.sampled_from(VARS), min_size=arity, max_size=arity))
        return formula.Atom(sym, tuple(args))
    if draw(st.booleans()):
        parts = draw(st.lists(formulas_over(env, depth - 1), min_size=2, max_size=3))
        return formula.Conj(tuple(parts))
    body = draw(formulas_over(env, depth - 1))
    free = sorted(formula.free_vars(body))
    if not free:
        return body
    return formula.Exists(frozenset(draw(st.sets(st.sampled_from(free), min_size=1))), body)


@st.composite
def conjunctions(draw):
    domain = draw(domains())
    env = {
        sym: draw(relations(domain, scheme=[str(i + 1) for i in range(arity)]))
        for sym, arity in (("P", draw(st.integers(1, 3))), ("Q", draw(st.integers(1, 2))))
    }
    return draw(formulas_over(env)), env


def ref_free(f):
    if isinstance(f, formula.Atom):
        return set(f.args)
    if isinstance(f, formula.Conj):
        return set().union(*map(ref_free, f.parts))
    return ref_free(f.body) - f.variables


def ref_holds(f, env, val):
    """Whether ``f`` holds under the assignment ``val``, by recursion on
    the formula; a quantifier tries every value of its variables, which
    hide any outer value of the same name."""
    if isinstance(f, formula.Atom):
        return tuple(val[v] for v in f.args) in env[f.symbol].rows
    if isinstance(f, formula.Conj):
        return all(ref_holds(p, env, val) for p in f.parts)
    bound = sorted(f.variables)
    elements = formula.env_domain(env).elements
    return any(
        ref_holds(f.body, env, {**val, **dict(zip(bound, values))})
        for values in itertools.product(elements, repeat=len(bound))
    )


def ref_evaluate(f, env):
    """Satisfying assignments by brute force over all free-variable values,
    without renaming bound variables apart."""
    free = sorted(ref_free(f))
    elements = formula.env_domain(env).elements
    out = set()
    for values in itertools.product(elements, repeat=len(free)):
        val = dict(zip(free, values))
        if ref_holds(f, env, val):
            out.add(frozenset(val.items()))
    return out


# P and Q binary; a bound u shadowing a free u, then a bound one
SHADOWING = (
    "P(u,v) & (exists u . Q(u,u))",
    "exists u . P(u,v) & (exists u . Q(u,w))",
    "exists v . (exists u . P(u,v)) & Q(u,v) & (exists u, v . P(u,v))",
)


@settings(PROPS, max_examples=100)
@given(conjunctions())
def test_evaluate_matches_reference(case):
    f, env = case
    got = revalidated(formula.evaluate(f, env))
    assert got.scheme == ref_free(f)
    assert as_set(got) == ref_evaluate(f, env)


@pytest.mark.parametrize("text", SHADOWING)
@PROPS
@given(domains().flatmap(lambda d: st.tuples(relations(d, scheme=["1", "2"]),
                                             relations(d, scheme=["1", "2"]))))
def test_evaluate_shadowed_variables(text, pair):
    f = formula.parse(text)
    env = dict(zip(("P", "Q"), pair))
    got = revalidated(formula.evaluate(f, env))
    assert as_set(got) == ref_evaluate(f, env)


def rebuilt(f):
    """An equal formula of new nodes, none of which has computed anything."""
    if isinstance(f, formula.Atom):
        return formula.Atom(f.symbol, f.args)
    if isinstance(f, formula.Conj):
        return formula.Conj(tuple(map(rebuilt, f.parts)))
    return formula.Exists(f.variables, rebuilt(f.body))


def subformulas(f):
    yield f
    if isinstance(f, formula.Conj):
        for part in f.parts:
            yield from subformulas(part)
    elif isinstance(f, formula.Exists):
        yield from subformulas(f.body)


@PROPS
@given(conjunctions(), conjunctions(), st.data())
def test_memoized_structure_matches_reference(case1, case2, data):
    """``free_vars`` and ``flatten`` keep their result on the node: asked
    again, in any order, and of nodes shared by two formulas, they give
    what a fresh computation and the recursive reference give."""
    f1, f2 = case1[0], case2[0]
    shared = [formula.Conj((f1, f2)), formula.Conj((f2, f1, f1))]
    free = sorted(formula.free_vars(f1))
    if free:
        shared.append(formula.Exists(frozenset(free[:1]), f1))
    nodes = [n for f in shared for n in subformulas(f)]
    for node in data.draw(st.permutations(nodes)) + nodes:
        assert formula.free_vars(node) == ref_free(node)
        assert formula.flatten(node) == formula.flatten(rebuilt(node))
        assert formula.free_vars(node) is formula.free_vars(node)
        assert formula.flatten(node) is formula.flatten(node)
    assert formula.Conj((f1, f2)) == shared[0] and hash(formula.Conj((f1, f2))) == hash(shared[0])


# a repeated variable keeps the diagonal of its columns
REPEATED = (
    "P(x,x,y)",
    "Q(y,x,y)",
    "P(x,x,y) & Q(y,x,y)",
    "exists x . P(x,x,y) & Q(y,x,y)",
    "exists y . Q(y,x,y) & P(x,y,y) & P(x,x,x)",
)


@pytest.mark.parametrize("text", REPEATED)
@PROPS
@given(domains().flatmap(lambda d: st.tuples(relations(d, scheme=["1", "2", "3"]),
                                             relations(d, scheme=["1", "2", "3"]))))
def test_evaluate_repeated_variables(text, pair):
    f = formula.parse(text)
    env = dict(zip(("P", "Q"), pair))
    got = revalidated(formula.evaluate(f, env))
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
    with pytest.raises(ParseError, match="row length"):
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


@PROPS
@given(nonempty_relations(min_arity=2), st.data())
def test_load_relation_puts_a_shuffled_scheme_in_canonical_order(rel, data):
    order = data.draw(st.permutations(rel.attrs))
    pick = [rel.attrs.index(a) for a in order]
    lines = [f"@relation R over D({','.join(rel.domain.elements)})", " ".join(order)]
    lines += [" ".join(row[k] for k in pick) for row in sorted(rel.rows)]
    name, loaded = core.load_relation("\n".join(lines) + "\n")
    by_name = Relation.make(rel.domain, order,
                            [dict(zip(order, (row[k] for k in pick))) for row in rel.rows])
    assert name == "R" and loaded == by_name == rel
