"""Every CLI invocation ends in an exit code, never a traceback.

Invocations are drawn from a small grammar: any command with any subset of
its flags, integers in -3..12, attribute lists and dependency specs from a
short pool, and paths from a pool of files of every kind a user might pass
by mistake -- a valid relation and formula, a malformed and a non-UTF-8
relation, a directory, a missing path, a regular file where a directory is
written, and a saved bundle.  Each example runs in a fresh copy of that
pool, so outputs written by one example are not inputs to the next.  The
run must end with exit 0, 2, 3, 4 or 5 and print no traceback.  The same
invocations, with stray tokens added, must parse as they do with stock
click.  Examples are derandomized so that the suite stays deterministic.
"""

import os
import shutil
import tempfile

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import parse_outcome, stock_cli
from relred.cli import main
from relred.core import Domain, dump_relation, standard
from relred.formula import save_certificate
from relred.reducers import key_reduction

IDENTITY = standard("identity", 3, Domain("D", ("a", "b")))
INPUTS = ("valid.rel", "chain.txt", "malformed.rel", "latin1.rel", "adir",
          "missing", "taken", "bundle", "bundle/certificate.json")
INTS = st.integers(-3, 12).map(str)
ATTRS = st.sampled_from(("1", "2", "1,2", "2,3", "1,2,3", "x", ""))
SPECS = st.sampled_from(("1:2", "1,2:3", ":1,2,3", "1:2|3", "1:", "x:y", "1:2|2"))
PATHS = st.sampled_from(INPUTS)
# the argument of each kind that is right, drawn as often as all the others
REL = st.one_of(st.just("valid.rel"), PATHS)
FORMULA = st.one_of(st.just("chain.txt"), PATHS)
CERT = st.one_of(st.just("bundle"), PATHS)
OUTS = st.sampled_from(("out", "adir", "taken", "bundle", "missing"))
# tokens no command declares: an extra argument, unknown options, an option
# without its value
STRAYS = st.lists(st.sampled_from(("stray", "--nope", "-q", "-o", "--seed")), max_size=2)

# command -> (positional argument, required flags,
#             {flag: value strategy, or None for a switch})
GRAMMAR = {
    "eval": (FORMULA, ("--env",), {"--env": REL, "--free": ATTRS, "-o": OUTS}),
    "deps": (REL, (), {"--fd": SPECS, "--keys": INTS, "--mvd": SPECS,
                       "--admits": INTS}),
    "reduce": (REL, (), {"--key": ATTRS, "--fagin": SPECS, "--hypostatic": INTS,
                         "--neg-join": CERT, "-k": INTS,
                         "--identity-chain": INTS, "-o": OUTS}),
    "explicate": (CERT, (), {"-o": OUTS}),
    "merge": (CERT, (), {"-o": OUTS}),
    "diagram": (FORMULA, (), {"--dot": OUTS, "--stats": None, "--no-stats": None}),
    "ternarity": (REL, (), {"--certs": CERT}),
    "analyze": (REL, (), {"--degenerate": None, "--join-reducible": None,
                          "--relprod2": ATTRS, "--one-param": None,
                          "--oracle-suite": None, "-o": OUTS}),
    "census": (None, ("--d", "--n"), {"--d": INTS, "--n": INTS, "--sample": INTS,
                                      "--seed": INTS}),
    "verify": (CERT, (), {}),
}


@pytest.fixture(scope="module")
def pool(tmp_path_factory) -> str:
    """A directory holding one file of each kind in ``INPUTS``."""
    root = str(tmp_path_factory.mktemp("pool"))
    files = {
        "valid.rel": dump_relation(IDENTITY, "R").encode(),
        "chain.txt": b"exists t1 . R(x1,x2,t1) & R(t1,x3,x4)\n",
        "malformed.rel": b"@relation R over D(a,b)\n1 2\na\n",
        "latin1.rel": b"@relation R over D(a,\xe9)\n1\na\n",
        "taken": b"not a directory\n",
    }
    for name, body in files.items():
        with open(os.path.join(root, name), "wb") as fh:
            fh.write(body)
    os.mkdir(os.path.join(root, "adir"))
    save_certificate(key_reduction(IDENTITY, ["1"]), os.path.join(root, "bundle"))
    return root


@st.composite
def invocations(draw) -> list[str]:
    args = []
    if draw(st.booleans()):
        args += ["--format", draw(st.sampled_from(("json", "text", "csv")))]
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    positional, required, flags = GRAMMAR[command]
    args.append(command)
    if positional is not None:
        args.append(draw(positional))
    optional = draw(st.lists(st.sampled_from(sorted(flags)), max_size=3)) if flags else []
    for flag in list(required) + optional:
        args.append(flag)
        if flags[flag] is not None:
            args.append(draw(flags[flag]))
    return args


@settings(derandomize=True, max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_every_invocation_ends_in_an_exit_code(pool, args):
    with tempfile.TemporaryDirectory() as tmp:
        work = os.path.join(tmp, "w")
        shutil.copytree(pool, work)
        cwd = os.getcwd()
        os.chdir(work)
        try:
            res = CliRunner().invoke(main, args)
        finally:
            os.chdir(cwd)
    assert res.exit_code in (0, 2, 3, 4, 5), (args, res.output, res.exception)
    assert "Traceback" not in res.output, (args, res.output)


STOCK = stock_cli(main)


@st.composite
def misparsed(draw) -> list[str]:
    """An invocation, its positional argument a missing path for some, then
    options of its command with values of the wrong kind for some (a word
    for a number, a missing path), then stray tokens."""
    args = draw(invocations())
    at = 2 if args[0] == "--format" else 0
    command = args[at]
    if GRAMMAR[command][0] is not None and draw(st.booleans()):
        args[at + 1] = "missing"
    flags = sorted(f for f, value in GRAMMAR[command][2].items() if value is not None)
    for flag in draw(st.lists(st.sampled_from(flags), max_size=2)) if flags else []:
        args += [flag, draw(st.sampled_from(("x", "missing")))]
    return args + draw(STRAYS)


@settings(derandomize=True, max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(misparsed())
def test_every_invocation_parses_as_stock_click(pool, args):
    # the group parses up to the command name, which sits after any --format
    at = 2 if args[0] == "--format" else 0
    cwd = os.getcwd()
    os.chdir(pool)  # only parsed, so nothing is written
    try:
        group_ctx, outcome = parse_outcome(main, "main", args)
        stock_ctx, expected = parse_outcome(STOCK, "main", args)
        assert outcome == expected, args
        name, rest = args[at], args[at + 1:]
        _, outcome = parse_outcome(main.commands[name], name, rest, parent=group_ctx)
        _, expected = parse_outcome(STOCK.commands[name], name, rest, parent=stock_ctx)
        assert outcome == expected, args
    finally:
        os.chdir(cwd)
