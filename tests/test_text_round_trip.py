"""Round trips through the two text formats: ``parse(render(f)) == f`` for
formulas and ``load_relation(dump_relation(r)) == (name, r)`` for relations.

Conjunctions are generated flat (their parts are atoms or quantified
formulas), the shape every certificate construction produces and the
parser returns for text without a parenthesized conjunction.  Names are
drawn from pools that the formats can represent: element symbols and
attributes without whitespace, and never ``.``, which the relation format
reserves for the empty scheme and the empty row.  Examples are derandomized so that the
suite stays deterministic.
"""

import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from relred import core
from relred.core import Domain, Relation
from relred.formula import Atom, Conj, Exists, free_vars, parse, render

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
        parts = draw(st.lists(
            formulas(depth - 1).filter(lambda f: not isinstance(f, Conj)),
            min_size=2, max_size=3,
        ))
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


ELEMENTS = ("a", "b", "c", "10", "2", "x_1", "é")
# numeric names sort numerically ("10" after "2"), the rest lexically
ATTRS = ("1", "2", "10", "x", "y", "t1")


@st.composite
def named_relations(draw):
    # elements in drawn order: the display order is part of the domain
    elements = draw(st.lists(st.sampled_from(ELEMENTS), unique=True, min_size=1,
                             max_size=3))
    domain = Domain(draw(st.sampled_from(("D", "D2", "Dom_x"))), tuple(elements))
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
