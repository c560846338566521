import pytest

from relred import analysis
from relred.core import Domain, Relation


@pytest.fixture
def d2():
    return Domain("D2", ("a", "b"))


@pytest.fixture
def d3():
    return Domain("D3", ("a", "b", "c"))


@pytest.fixture
def d4():
    return Domain("D4", ("a", "b", "c", "d"))


@pytest.fixture
def rel_h(d3):
    # quaternary relation on three elements in which every pair of
    # columns is a key but no single column is
    rows = [
        ("a", "b", "b", "a"),
        ("b", "a", "a", "b"),
        ("c", "b", "c", "b"),
        ("b", "c", "b", "c"),
    ]
    return Relation.make(d3, ("1", "2", "3", "4"), rows)


@pytest.fixture
def no_census_space(monkeypatch):
    """Fail instead of counting masks of D^n, so that a missing cap check
    cannot run an uncapped census."""
    def refuse(d, n, masks):
        raise AssertionError(f"census counted for d={d}, n={n}")

    monkeypatch.setattr(analysis, "_count", refuse)


def make_rel(domain, n, rows):
    attrs = tuple(str(i + 1) for i in range(n))
    return Relation.make(domain, attrs, rows)
