"""The active caps: ``Caps()`` unless a block runs under ``using``."""

import pytest

from relred import Caps, using
from relred.analysis import census_sampled, one_param_ternary_projoin, rel_prod_reducible2
from relred.caps import current, from_env
from relred.core import Domain, Relation, complement, standard
from relred.errors import CapExceededError

D2 = Domain("D2", ("a", "b"))
I3 = standard("identity", 3, D2)
TIGHT = Caps(max_domain=2, max_arity=2)

CHECKS = {
    "domain": lambda: Domain("D3", ("a", "b", "c")),
    "complement": lambda: complement(I3),
    "standard": lambda: standard("universal", 3, D2),
    "census_sampled": lambda: census_sampled(2, 3, 1),
}


@pytest.mark.parametrize("check", CHECKS.values(), ids=CHECKS.keys())
def test_using_sets_the_caps_for_the_block(check):
    with using(TIGHT):
        assert current() is TIGHT
        with pytest.raises(CapExceededError):
            check()
    assert current() == Caps()
    check()


def test_using_restores_the_caps_when_the_body_raises():
    with pytest.raises(CapExceededError):
        with using(TIGHT):
            CHECKS["domain"]()
    assert current() == Caps()
    CHECKS["domain"]()


def test_using_nests():
    with using(Caps(max_domain=3)):
        with using(TIGHT):
            assert current() is TIGHT
        CHECKS["domain"]()
    assert current() == Caps()


D3 = Domain("D3", ("a", "b", "c"))
# a Latin square: its proper projections are universal, as the box decider needs
LATIN3 = Relation.make(
    D3, ("1", "2", "3"),
    [(x, y, D3.elements[(i + j) % 3]) for i, x in enumerate(D3.elements)
     for j, y in enumerate(D3.elements)],
)
SEARCHES = {
    # the box decider refuses its 343 candidate boxes before any search
    "box_nodes": (Caps(max_search_nodes=1), lambda: one_param_ternary_projoin(LATIN3)),
    "rank_nodes": (Caps(max_search_nodes=1), lambda: rel_prod_reducible2(I3, ["1"])),
}


@pytest.mark.parametrize("caps, search", SEARCHES.values(), ids=SEARCHES.keys())
def test_search_caps(caps, search):
    with using(caps), pytest.raises(CapExceededError):
        search()
    search()


def test_search_caps_from_env(monkeypatch):
    monkeypatch.setenv("RELRED_CAPS", "max_search_nodes=5")
    assert from_env() == Caps(max_search_nodes=5)


def test_box_enumeration_cap():
    """(2^7 - 1)^3 candidate boxes exceed the search budget, so a
    7-element Latin square is refused before any enumeration."""
    d7 = Domain("D7", tuple("abcdefg"))
    latin7 = Relation.make(
        d7, ("1", "2", "3"),
        [(x, y, d7.elements[(i + j) % 7]) for i, x in enumerate(d7.elements)
         for j, y in enumerate(d7.elements)],
    )
    with pytest.raises(CapExceededError, match="^box enumeration of 2048383 boxes exceeds cap 1000000$"):
        one_param_ternary_projoin(latin7)
