"""A damaged certificate bundle is refused, never a crash.

Bundle files are rewritten in place, so a write cut short leaves a file
that begins with the new text and ends with the old.  Starting from saved
bundles, each example damages the files by truncating one, flipping a
byte, or writing a prefix of one file over another (the torn rewrite).
Loading must then either succeed with a certificate that verifies or fail
with a relred error; ``check_certificate`` on the unverified parts never
raises; and ``relred verify`` exits 0, 2, 3 or 5 without a traceback.
Examples are derandomized so that the suite stays deterministic.
"""

import functools
import os
import pathlib
import tempfile

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from relred.cli import main
from relred.core import Domain, standard
from relred.diagrams import explicate_certificate
from relred.errors import RelredError
from relred.formula import (
    ReductionCertificate,
    check_certificate,
    load_certificate,
    save_certificate,
)
from relred.reducers import hypostatic_abstraction, key_reduction

PROPS = settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@functools.cache
def bundles() -> tuple[dict[str, bytes], ...]:
    """The files of a few saved bundles, by name."""
    identity = standard("identity", 3, Domain("D", ("a", "b")))
    hypostatic = hypostatic_abstraction(identity, 1)
    certs = (key_reduction(identity, ["1"]), hypostatic,
             explicate_certificate(hypostatic))
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, cert in enumerate(certs):
            outdir = os.path.join(tmp, str(i))
            save_certificate(cert, outdir)
            out.append({path.name: path.read_bytes()
                        for path in sorted(pathlib.Path(outdir).iterdir())})
    return tuple(out)


@st.composite
def damaged(draw) -> dict[str, bytes]:
    files = dict(draw(st.sampled_from(bundles())))
    names = sorted(files)
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(names))
        body = files[name]
        how = draw(st.sampled_from(("truncate", "flip", "torn")))
        if how == "truncate":
            files[name] = body[: draw(st.integers(0, len(body)))]
        elif how == "flip" and body:
            at = draw(st.integers(0, len(body) - 1))
            flipped = body[at] ^ draw(st.integers(1, 255))
            files[name] = body[:at] + bytes([flipped]) + body[at + 1:]
        elif how == "torn":
            new = files[draw(st.sampled_from(names))]
            cut = draw(st.integers(0, len(new)))
            files[name] = new[:cut] + body[cut:]
    return files


def _unverified(path: str):
    """The bundle at ``path`` loaded without the check on construction,
    or None when a part of it does not load."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ReductionCertificate, "__post_init__", lambda self: None)
        try:
            return load_certificate(path)
        except RelredError:
            return None


@PROPS
@given(damaged())
def test_damaged_bundle_is_refused_or_verifies(files):
    with tempfile.TemporaryDirectory() as tmp:
        for name, body in files.items():
            with open(os.path.join(tmp, name), "wb") as fh:
                fh.write(body)
        path = os.path.join(tmp, "certificate.json")
        try:
            loaded = load_certificate(path)
        except RelredError:
            loaded = None
        parts = _unverified(path)
        verdict = None if parts is None else check_certificate(parts)
        res = CliRunner().invoke(main, ["verify", tmp])
    assert res.exit_code in (0, 2, 3, 5), res.output
    assert "Traceback" not in res.output
    assert (res.exit_code == 0) == (loaded is not None)
    if loaded is not None:
        assert check_certificate(loaded).valid
        assert verdict.valid
