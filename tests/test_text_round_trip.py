"""Round trips through the two text formats: ``parse(render(f)) == f`` for
formulas and ``load_relation(dump_relation(r)) == (name, r)`` for relations.

Conjunctions are generated with conjunctions among their parts, which
``Conj`` splices in, as the parser does for a parenthesized conjunction.
Names are drawn from pools that include dots, digits and non-ASCII
letters; the constructors refuse every name the relation format cannot
carry (whitespace, any of ``#(),|``, and the bare ``.`` that marks the
empty scheme and the empty row), so no generated relation needs avoiding;
``dump_relation`` refuses such a relation name, and one with a path
separator, since it can become a bundle file's stem.
Examples are derandomized so that the suite stays deterministic.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from relred import core
from relred.core import Domain, Relation
from relred.errors import PreconditionError
from relred.formula import (
    Atom,
    Conj,
    Exists,
    ReductionCertificate,
    free_vars,
    parse,
    render,
    save_certificate,
)

PROPS = settings(
    derandomize=True,
    max_examples=50,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SYMBOLS = ("P", "Q2", "R_x", "Ab")
# "exists" is a valid variable name as well as the quantifier keyword
VARIABLES = ("x", "y", "z1", "t_2", "u10", "exists")


@st.composite
def formulas(draw, depth=3):
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        symbol = draw(st.sampled_from(SYMBOLS))
        args = draw(st.lists(st.sampled_from(VARIABLES), min_size=1, max_size=3))
        return Atom(symbol, tuple(args))
    if draw(st.booleans()):
        parts = draw(st.lists(formulas(depth - 1), min_size=2, max_size=3))
        return Conj(tuple(parts))
    body = draw(formulas(depth - 1))
    free = sorted(free_vars(body))
    if not free:
        return body
    return Exists(frozenset(draw(st.sets(st.sampled_from(free), min_size=1))), body)


@PROPS
@given(formulas())
def test_parse_render_round_trip(f):
    text = render(f)
    assert parse(text) == f
    assert render(parse(text)) == text


def test_parenthesized_conjunction_is_flat():
    nested = parse("(P(x) & Q(x)) & R(x)")
    assert nested == parse("P(x) & Q(x) & R(x)")
    assert nested == Conj((Conj((Atom("P", ("x",)), Atom("Q", ("x",)))), Atom("R", ("x",))))
    assert parse(render(nested)) == nested


ELEMENTS = ("a", "b", "c", "10", "2", "x_1", "é", "a.b", "..")
# numeric names sort numerically ("10" after "2"), the rest lexically
ATTRS = ("1", "2", "10", "x", "y", "t1", "x.1", "é")


@st.composite
def named_relations(draw):
    # elements in drawn order: the display order is part of the domain
    elements = draw(st.lists(st.sampled_from(ELEMENTS), unique=True, min_size=1,
                             max_size=3))
    domain = Domain(draw(st.sampled_from(("D", "D2", "Dom_x", "D.1"))), tuple(elements))
    attrs = core.canonical_attrs(draw(st.sets(st.sampled_from(ATTRS), max_size=3)))
    cells = list(itertools.product(domain.elements, repeat=len(attrs)))
    rows = draw(st.sets(st.sampled_from(cells), max_size=10))
    name = draw(st.sampled_from(("R", "I3", "M_1")))
    return name, Relation(domain, attrs, frozenset(rows))


@PROPS
@given(named_relations())
def test_dump_load_round_trip(case):
    name, rel = case
    text = core.dump_relation(rel, name)
    assert core.load_relation(text) == (name, rel)
    assert core.dump_relation(core.load_relation(text)[1], name) == text


BAD_NAMES = (".", "x y", "a\n", "#", "a,b", "(", "a)", "|", "")


def test_element_dot_is_refused():
    with pytest.raises(PreconditionError, match="bad element symbol '.'"):
        Relation.make(Domain("D", (".", "a")), ("1",), [(".",)])


@pytest.mark.parametrize("name", BAD_NAMES)
def test_names_the_format_cannot_carry_are_refused(name):
    d = Domain("D", ("a", "b"))
    with pytest.raises(PreconditionError, match="bad element symbol"):
        Domain("D", ("a", name))
    with pytest.raises(PreconditionError, match="bad domain name"):
        Domain(name, ("a",))
    with pytest.raises(PreconditionError, match="bad attribute name"):
        Relation(d, (name,), frozenset())
    with pytest.raises(PreconditionError, match="bad attribute name"):
        Relation.make(d, ("1", name), [("a", "b")])
    with pytest.raises(PreconditionError, match="bad attribute name"):
        core.standard("identity", ["1", name], d)
    with pytest.raises(PreconditionError, match="bad attribute name"):
        core.rename(core.standard("universal", 1, d), {"1": name})
    with pytest.raises(PreconditionError, match="bad relation name"):
        core.dump_relation(core.standard("universal", 1, d), name)


@pytest.mark.parametrize("name", ("R x", "a/b"))
def test_bad_relation_name_is_refused_before_any_file_is_written(tmp_path, name):
    d = Domain("D", ("a", "b"))
    identity = core.standard("identity", 2, d)
    with pytest.raises(PreconditionError, match="bad relation name"):
        core.dump_relation(identity, name)
    cert = ReductionCertificate(identity, parse("P(x,y)"), {"P": identity},
                                {"x": "1", "y": "2"})
    with pytest.raises(PreconditionError, match="bad relation name"):
        save_certificate(cert, str(tmp_path), name)
    assert list(tmp_path.iterdir()) == []
