"""Tests of the benchmark harness itself.

    python3 -m pytest bench/tests -q
"""

import functools
import itertools
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import compare  # noqa: E402
import gen  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402

SPEC = gen.load_spec()
COUNTS = ("cli.calls", "core.calls", "core.relations_built", "core.rows_built",
          "core.max_rows", "formula.calls", "formula.evaluations",
          "formula.certificates_built", "diagrams.calls", "reducers.calls",
          "dependencies.calls", "analysis.deciders.calls", "analysis.census.calls",
          "analysis.census.relations_tested")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_excludes_nested_spans():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    wrapped_leaf = tracer.wrap("core.leaf", leaf)

    def middle():
        clock.now += 1.0
        wrapped_leaf()
        clock.now += 0.5
        wrapped_leaf()

    wrapped_middle = tracer.wrap("formula.middle", middle)

    def top():
        clock.now += 3.0
        wrapped_middle()

    tracer.wrap("cli.main", top)()
    assert tracer.stats["core.leaf"].calls == 2
    assert tracer.stats["core.leaf"].self_s == 4.0
    assert tracer.stats["formula.middle"].self_s == 1.5
    assert tracer.stats["formula.middle"].total_s == 5.5
    assert tracer.stats["cli.main"].self_s == 3.0
    layers = tracer.layer_metrics()
    assert layers["core.self_ms"] == 4000.0
    assert layers["formula.self_ms"] == 1500.0
    assert layers["cli.self_ms"] == 3000.0
    assert layers["cli.calls"] == 1


def test_layer_of_splits_analysis():
    assert spans.layer_of("analysis.census_sampled") == "analysis.census"
    assert spans.layer_of("analysis.one_param_ternary_projoin") == "analysis.deciders"
    assert spans.layer_of("core.Relation.make") == "core"


def test_wrappers_restored_after_traced_run():
    from relred import analysis, cli, core, diagrams, formula

    before = {
        "core.join": core.join,
        "formula.evaluate": formula.evaluate,
        "diagrams.evaluate": diagrams.evaluate,
        "analysis.census": analysis.census,
        "post_init": core.Relation.__dict__["__post_init__"],
        "make": core.Relation.__dict__["make"],
        "cert": formula.ReductionCertificate.__dict__["__post_init__"],
    }
    with spans.Tracer():
        assert core.join is not before["core.join"]
        assert diagrams.evaluate is formula.evaluate is not before["formula.evaluate"]
        code, out, _ = harness.invoke(cli.main, ["census", "--d", "2", "--n", "2"])
        assert code == 0 and out.startswith("d,n,total")
    after = {
        "core.join": core.join,
        "formula.evaluate": formula.evaluate,
        "diagrams.evaluate": diagrams.evaluate,
        "analysis.census": analysis.census,
        "post_init": core.Relation.__dict__["__post_init__"],
        "make": core.Relation.__dict__["make"],
        "cert": formula.ReductionCertificate.__dict__["__post_init__"],
    }
    assert after == before


def _traced_pass(items):
    call = functools.partial(harness.invoke, harness.load_cli(ROOT))
    with spans.Tracer() as tracer:
        _, results = harness.run_pass(tracer.wrap("cli.main", call), items)
    return tracer.layer_metrics(), results


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_census_builds_no_relation(workdir):
    items = gen.gen_census({"points": [[2, 2], [2, 3]]}, SPEC)
    metrics, results = _traced_pass(items)
    assert [harness.check_item(i, r) for i, r in zip(items, results)] == [None, None]
    assert metrics["core.relations_built"] == 0
    assert metrics["analysis.census.calls"] == 2
    assert metrics["analysis.census.relations_tested"] == 2 ** 4 + 2 ** 8


def test_counts_repeat_and_stdout_unchanged_under_tracing(workdir):
    items = gen.generate("certify", 5, str(workdir))["items"][:15]
    first, traced = _traced_pass(items)
    second, _ = _traced_pass(items)
    call = functools.partial(harness.invoke, harness.load_cli(ROOT))
    _, plain = harness.run_pass(call, items)
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert first["core.relations_built"] > 0 and first["formula.evaluations"] > 0
    assert [[out for _, out, _ in r] for r in traced] == \
        [[out for _, out, _ in r] for r in plain]
    assert all(harness.check_item(i, r) is None for i, r in zip(items, plain))


def test_check_catches_a_wrong_answer(workdir):
    items = gen.generate("certify", 2, str(workdir))["items"][:1]
    call = functools.partial(harness.invoke, harness.load_cli(ROOT))
    _, results = harness.run_pass(call, items)
    assert harness.check_item(items[0], results[0]) is None
    wrong = json.loads(json.dumps(items[0]))
    wrong["check"]["digest"] = gen.rows_digest([("a",)])
    assert harness.check_item(wrong, results[0]) == "rows differ from the reference"


def test_generation_is_seeded(tmp_path):
    a = gen.generate("decide", 3, str(tmp_path / "a"))
    b = gen.generate("decide", 3, str(tmp_path / "b"))
    c = gen.generate("decide", 4, str(tmp_path / "c"))
    assert a["items"] == b["items"]
    assert a["items"] != c["items"]
    for item in a["items"]:
        rel = item["check"].get("rel")
        if rel:
            with open(tmp_path / "a" / rel) as fa, open(tmp_path / "b" / rel) as fb:
                assert fa.read() == fb.read()


def test_frozen_census_counts_have_a_second_method():
    ref = SPEC["census_reference"]
    for key, (total, deg, jred) in ref["exact"].items():
        d, n = map(int, key.split(","))
        assert total == 2 ** (d ** n)
        assert deg == gen.exact_census_degenerate(d, n)
        if n == 2:
            assert jred == deg
    for key, counts in ref["sampled"].items():
        d, n, samples, seed = map(int, key.split(","))
        assert list(gen.sampled_census(d, n, samples, seed)) == counts


def test_bond_reference_is_an_independent_join():
    # F(x,y) & G(y,z), y bound, over {a,b}: the composition of two relations
    import numpy as np

    f = np.array([[1, 0], [1, 1]])
    g = np.array([[0, 1], [0, 0]])
    ref = gen.bond_reference([("x", "y"), ("y", "z")], [f, g], ["x", "z"], 2)
    brute = {(gen.ELEMENTS[x], gen.ELEMENTS[z])
             for x, y, z in itertools.product(range(2), repeat=3) if f[x, y] and g[y, z]}
    assert ref == brute == {("a", "b"), ("b", "b")}


@pytest.mark.parametrize("base,new,lower,bound,expected", [
    ({1: 10, 2: 11, 3: 10.5}, {1: 8, 2: 8.5, 3: 8.2}, True, 0.1, "better"),
    ({1: 10, 2: 11, 3: 10.5}, {1: 12, 2: 12.5, 3: 12.2}, True, 0.1, "worse"),
    ({1: 10, 2: 11, 3: 10.5}, {1: 10.2, 2: 10.6, 3: 10.4}, True, 0.1, "same"),
    ({1: 5, 2: 15, 3: 10}, {1: 10.2, 2: 10.6, 3: 10.4}, True, 0.1, "unresolved"),
    ({1: 10, 2: 11, 3: 10.5}, {1: 12, 2: 12.5, 3: 12.2}, False, 0.1, "better"),
])
def test_compare_verdicts(base, new, lower, bound, expected):
    assert compare.verdict(base, new, lower, bound)[0] == expected
