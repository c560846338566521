"""The active caps: ``Caps()`` unless a block runs under ``using``."""

import pytest

from relred import Caps, using
from relred.analysis import census_sampled
from relred.caps import current
from relred.core import Domain, complement, standard
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
