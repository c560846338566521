import itertools
import json
import os
import random
import subprocess
import sys
import time

import click
import pytest
from click.testing import CliRunner

import relred
from oracles import parse_outcome, stock_cli
from relred import analysis, formula
from relred.caps import Caps
from relred.cli import _Command, _Option, main
from relred.core import Domain, Relation, complement, dump_relation, standard



@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def workdir(tmp_path, d2, d3):
    i4 = standard("identity", 4, d3)
    files = {
        "I4.rel": dump_relation(i4, "I4"),
        "I3.rel": dump_relation(standard("identity", 3, d2), "I3"),
        "NotI3.rel": dump_relation(
            complement(standard("identity", 3, d2)), "NotI3"
        ),
        "chain.txt": "exists t1 . I3(x1,x2,t1) & I3(t1,x3,x4)\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return tmp_path


def run(runner, workdir, *args):
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        return runner.invoke(main, list(args), catch_exceptions=False)
    finally:
        os.chdir(cwd)


def test_eval(runner, workdir):
    res = run(runner, workdir, "eval", "chain.txt", "--env", "I3.rel")
    assert res.exit_code == 0
    assert "@relation result" in res.output
    assert "a a a a" in res.output


@pytest.mark.parametrize("domain", ["D(a,b)", "E(a,b,c)"], ids=["same-domain", "other-domain"])
def test_eval_two_env_files_of_one_symbol_exit_3(runner, workdir, domain):
    # the second file would replace the first in the environment
    (workdir / "I3b.rel").write_text(f"@relation I3 over {domain}\n1 2 3\na a a\n")
    res = run(runner, workdir, "eval", "chain.txt", "--env", "I3.rel", "--env", "I3b.rel",
              "-o", "out.rel")
    assert res.exit_code == 3 and res.stdout == ""
    assert res.stderr == ("error: --env files 'I3.rel' and 'I3b.rel' both give "
                          "relation symbol 'I3'\n")
    assert not (workdir / "out.rel").exists()


def test_eval_one_relation_given_twice(runner, workdir):
    # nothing is ambiguous when both files give the same relation
    (workdir / "I3copy.rel").write_text((workdir / "I3.rel").read_text())
    once = run(runner, workdir, "eval", "chain.txt", "--env", "I3.rel")
    for second in ("I3.rel", "I3copy.rel"):
        res = run(runner, workdir, "eval", "chain.txt", "--env", "I3.rel", "--env", second)
        assert res.exit_code == 0 and res.output == once.output


def test_eval_and_diagram_write_to_a_device(runner, workdir):
    # a device cannot be truncated; writing to one must not try
    res = run(runner, workdir, "eval", "chain.txt", "--env", "I3.rel",
              "-o", os.devnull)
    assert res.exit_code == 0 and res.output == ""
    res = run(runner, workdir, "diagram", "chain.txt", "--dot", os.devnull)
    assert res.exit_code == 0 and res.output == ""


def test_eval_parse_error_exit_2(runner, workdir):
    (workdir / "bad.txt").write_text("P(\n")
    res = run(runner, workdir, "eval", "bad.txt", "--env", "I3.rel")
    assert res.exit_code == 2


def test_deps_keys(runner, workdir):
    res = run(runner, workdir, "--format", "json", "deps", "I4.rel",
              "--keys", "1")
    assert res.exit_code == 0
    assert json.loads(res.output) == [["1"], ["2"], ["3"], ["4"]]


def test_deps_mvd_refusal_text(runner, workdir):
    res = run(runner, workdir, "deps", "NotI3.rel", "--mvd", "1:2|3")
    assert res.exit_code == 0
    assert "fails" in res.output


def test_reduce_verify_pipeline(runner, workdir):
    res = run(runner, workdir, "reduce", "I4.rel", "--key", "1", "-o", "c1")
    assert res.exit_code == 0
    res = run(runner, workdir, "verify", "c1")
    assert res.exit_code == 0 and "valid" in res.output


def test_every_reducer_output_verifies(runner, workdir):
    jobs = [
        (["reduce", "I4.rel", "--key", "1", "-o", "k"], "k"),
        (["reduce", "I4.rel", "--hypostatic", "1", "-o", "h"], "h"),
        (["reduce", "I4.rel", "--identity-chain", "4", "-o", "c"], "c"),
    ]
    for args, out in jobs:
        assert run(runner, workdir, *args).exit_code == 0
        assert run(runner, workdir, "verify", out).exit_code == 0


def test_neg_join_pipeline(runner, workdir):
    assert run(runner, workdir, "reduce", "I4.rel", "--key", "1",
               "-o", "jc").exit_code == 0
    # --neg-join takes its target from the certificate; the positional
    # argument only has to be some existing relation file
    res = run(runner, workdir, "reduce", "I4.rel", "--neg-join", "jc",
              "-k", "1", "-o", "nc")
    assert res.exit_code == 0
    assert run(runner, workdir, "verify", "nc").exit_code == 0
    # without -k, --neg-join takes one parameter
    assert run(runner, workdir, "reduce", "I4.rel", "--neg-join", "jc",
               "-o", "nc0").exit_code == 0
    names = sorted(os.listdir(workdir / "nc"))
    assert names == sorted(os.listdir(workdir / "nc0"))
    assert all((workdir / "nc" / f).read_bytes() == (workdir / "nc0" / f).read_bytes()
               for f in names)


def test_reduce_twice_into_one_bundle_directory(runner, workdir):
    assert run(runner, workdir, "reduce", "I3.rel", "--hypostatic", "1",
               "-o", "ow").exit_code == 0
    assert run(runner, workdir, "reduce", "I3.rel", "--key", "1",
               "-o", "ow").exit_code == 0
    res = run(runner, workdir, "verify", "ow")
    assert res.exit_code == 0 and "factors=[2, 2]" in res.output


def test_tampered_certificate_exit_5(runner, workdir):
    assert run(runner, workdir, "reduce", "I4.rel", "--key", "1",
               "-o", "ct").exit_code == 0
    target = workdir / "ct" / "target.rel"
    lines = target.read_text().splitlines()
    lines = [ln for ln in lines if ln.strip() != "a a a a"]
    target.write_text("\n".join(lines) + "\n")
    res = run(runner, workdir, "verify", "ct")
    assert res.exit_code == 5 and res.stdout == ""
    assert res.stderr == "invalid: certificate formula does not evaluate to the target\n"


def test_verify_target_over_another_domain_exit_5(runner, workdir):
    # a target over another domain is one more target the formula does not
    # evaluate to, whatever its row count
    assert run(runner, workdir, "reduce", "I4.rel", "--key", "1",
               "-o", "cd").exit_code == 0
    other = Domain("E", ("a", "b", "c"))
    target = workdir / "cd" / "target.rel"
    target.write_text(dump_relation(standard("identity", 4, other), "target")
                      .replace("c c c c\n", ""))
    res = run(runner, workdir, "verify", "cd")
    assert res.exit_code == 5 and res.stdout == ""
    assert res.stderr == "invalid: certificate formula does not evaluate to the target\n"


def test_verify_evaluates_once(runner, workdir, monkeypatch):
    # loading the bundle verifies it by evaluation; the verdict reuses that
    assert run(runner, workdir, "reduce", "I4.rel", "--hypostatic", "1",
               "-o", "h").exit_code == 0
    evaluate, calls = formula.evaluate, []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(formula, "evaluate", counted)
    res = run(runner, workdir, "verify", "h")
    assert res.exit_code == 0 and res.stdout.startswith("valid kind=")
    assert len(calls) == 1


def test_refusal_exit_3(runner, workdir):
    res = run(runner, workdir, "reduce", "NotI3.rel", "--fagin", "1:2|3")
    assert res.exit_code == 3
    assert "mvd_fails" in res.output


@pytest.mark.parametrize("text, message", [
    ("@relation R over D(.,a)\n1\n.\n", "bad element symbol '.'"),
    ("@relation R over D(a,b)\nx.1 x|y\na b\n", "bad attribute name 'x|y'"),
])
def test_names_the_format_cannot_carry_exit_3(runner, workdir, text, message):
    (workdir / "bad.rel").write_text(text)
    res = run(runner, workdir, "deps", "bad.rel", "--keys", "1")
    assert res.exit_code == 3
    assert message in res.output


@pytest.mark.parametrize("args, code, prefix", [
    (["reduce", "I4.rel", "--key", "1", "-o", "taken"], 3, "error:"),
    (["eval", "chain.txt", "--env", "adir"], 2, "parse error: cannot read"),
    (["eval", "chain.txt", "--env", "I3.rel", "-o", "adir"], 3, "error:"),
    (["diagram", "chain.txt", "--dot", "adir"], 3, "error:"),
    (["analyze", "latin1.rel", "--degenerate"], 2, "parse error: cannot read"),
    (["eval", "latin1.rel", "--env", "I3.rel"], 2, "parse error: cannot read"),
], ids=["reduce_out_is_a_file", "eval_env_is_a_dir", "eval_out_is_a_dir",
        "diagram_dot_is_a_dir", "analyze_not_utf8", "eval_formula_not_utf8"])
def test_unusable_path_one_line(runner, workdir, args, code, prefix):
    (workdir / "taken").write_text("x\n")
    (workdir / "adir").mkdir()
    (workdir / "latin1.rel").write_bytes(b"@relation R over D(a,\xe9)\n1\na\n")
    res = run(runner, workdir, *args)
    assert res.exit_code == code
    assert res.output.startswith(prefix) and res.output.count("\n") == 1
    assert (workdir / "taken").read_text() == "x\n"


def test_domain_over_cap_exit_4(runner, workdir):
    (workdir / "big.rel").write_text("@relation R over D(a,b,c,d,e,f,g,h,i)\n1\na\n")
    res = run(runner, workdir, "analyze", "big.rel", "--degenerate")
    assert res.exit_code == 4
    assert res.output == "cap exceeded: domain size 9 exceeds cap 8\n"


def test_cap_exit_4(runner, workdir):
    res = run(runner, workdir, "census", "--d", "3", "--n", "3")
    assert res.exit_code == 4


def test_census_csv_byte_stable(runner, workdir):
    a = run(runner, workdir, "census", "--d", "2", "--n", "3")
    b = run(runner, workdir, "census", "--d", "2", "--n", "3")
    assert a.exit_code == 0
    assert a.output == b.output
    assert a.output.splitlines()[1] == "2,3,256,82,166,192,4096,exact,"


def test_census_sampled(runner, workdir):
    a = run(runner, workdir, "census", "--d", "3", "--n", "3",
            "--sample", "50", "--seed", "1")
    b = run(runner, workdir, "census", "--d", "3", "--n", "3",
            "--sample", "50", "--seed", "1")
    assert a.exit_code == 0 and a.output == b.output


def test_diagram_dot_byte_stable(runner, workdir):
    r1 = run(runner, workdir, "diagram", "chain.txt", "--dot", "a.dot")
    r2 = run(runner, workdir, "diagram", "chain.txt", "--dot", "b.dot")
    assert r1.exit_code == r2.exit_code == 0
    a = (workdir / "a.dot").read_text()
    assert a == (workdir / "b.dot").read_text()
    assert a.startswith("graph bonding {")


def test_ternarity_json(runner, workdir):
    res = run(runner, workdir, "--format", "json", "ternarity", "I3.rel")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["lower"] == data["upper"] == 1


def test_ternarity_json_prints_blocks_in_split_order(runner, workdir):
    # the finest factorization lists the blocks as the bipartitions split
    # them, not in canonical order
    rows = "".join(f"{x} {y} {x} a\n" for x in "ab" for y in "ab")
    (workdir / "Q.rel").write_text("@relation Q over D2(a,b)\n1 2 3 4\n" + rows)
    res = run(runner, workdir, "--format", "json", "ternarity", "Q.rel")
    assert res.exit_code == 0
    assert json.loads(res.output)["evidence"][0]["blocks"] == [["2"], ["4"], ["1", "3"]]


def test_ternarity_of_a_certificate_with_dead_ends(runner, workdir):
    # explication projects T(x1,t,s) to its first column: a bond with no
    # ternary, so the interval closes at [0, 0]
    header = "@relation {} over D2(a,b)\n"
    target = "1 2 3\na a b\na b a\nb a b\nb b a\n"
    (workdir / "R.rel").write_text(header.format("R") + target)
    c = workdir / "C"
    c.mkdir()
    (c / "target.rel").write_text(header.format("target") + target)
    (c / "T.rel").write_text(header.format("T") + "1 2 3\na a b\nb b a\n")
    (c / "B.rel").write_text(header.format("B") + "1 2\na b\nb a\n")
    (c / "certificate.json").write_text(json.dumps({
        "target": "target.rel",
        "formula": "exists s t . T(x1,t,s) & B(x2,x3)",
        "env": {"B": "B.rel", "T": "T.rel"},
        "varmap": {"x1": "1", "x2": "2", "x3": "3"},
    }))
    assert run(runner, workdir, "verify", "C").exit_code == 0
    res = run(runner, workdir, "ternarity", "R.rel", "--certs", "C")
    assert res.exit_code == 0 and res.output == "ter in [0, 0] (arity 3)\n"


def test_analyze_flags(runner, workdir):
    res = run(runner, workdir, "analyze", "NotI3.rel", "--join-reducible")
    assert res.exit_code == 0 and "no" in res.output
    res = run(runner, workdir, "analyze", "NotI3.rel", "--one-param")
    assert res.exit_code == 0 and "no" in res.output
    res = run(runner, workdir, "analyze", "I3.rel", "--degenerate")
    assert res.exit_code == 0 and "no" in res.output


_ANALYZE_MODES = "--degenerate, --join-reducible, --relprod2, --one-param, --oracle-suite"
_DEPS_MODES = "--fd, --keys, --mvd, --admits"
_REDUCE_MODES = "--key, --fagin, --hypostatic, --neg-join, --identity-chain"


@pytest.mark.parametrize("args,modes", [
    (["analyze", "I3.rel", "--degenerate", "--join-reducible"], _ANALYZE_MODES),
    (["analyze", "I3.rel", "--join-reducible", "--degenerate"], _ANALYZE_MODES),
    (["analyze", "I3.rel", "--relprod2", "1", "--degenerate"], _ANALYZE_MODES),
    (["analyze", "I3.rel", "--one-param", "--oracle-suite", "-o", "out"], _ANALYZE_MODES),
    (["analyze", "I3.rel"], _ANALYZE_MODES),
    (["deps", "I3.rel", "--keys", "1", "--admits", "1"], _DEPS_MODES),
    (["deps", "I3.rel", "--fd", "1:2", "--mvd", "1:2|3"], _DEPS_MODES),
    (["deps", "I3.rel"], _DEPS_MODES),
    (["reduce", "I3.rel", "--key", "1", "--hypostatic", "1", "-o", "out"], _REDUCE_MODES),
    (["reduce", "I3.rel", "--identity-chain", "3", "--fagin", "1:2|3", "-o", "out"],
     _REDUCE_MODES),
    (["reduce", "I3.rel", "-o", "out"], _REDUCE_MODES),
], ids=["analyze-degenerate-join", "analyze-join-degenerate", "analyze-relprod2-degenerate",
        "analyze-one-param-oracle", "analyze-none", "deps-keys-admits", "deps-fd-mvd",
        "deps-none", "reduce-key-hypostatic", "reduce-chain-fagin", "reduce-none"])
def test_one_mode_per_call_exit_3(runner, workdir, args, modes):
    res = run(runner, workdir, *args)
    assert res.exit_code == 3
    assert res.output == f"error: pick one of {modes}\n"
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("args,key,label", [
    (["I3.rel", "--relprod2", "1"], "reducible", "relprod2: yes"),
    (["I3.rel", "--join-reducible"], "join_reducible", "join reducible: yes"),
    (["NotI3.rel", "--join-reducible"], "join_reducible", "join reducible: no"),
    (["NotI3.rel", "--one-param"], "one_param_reducible", "one-parameter projoin: no"),
])
def test_analyze_saves_only_a_found_certificate(runner, workdir, args, key, label):
    res = run(runner, workdir, "analyze", *args, "-o", "text")
    assert res.exit_code == 0 and res.output == label + "\n"
    found = label.endswith("yes")
    assert (workdir / "text").exists() == found
    if found:
        assert run(runner, workdir, "verify", "text").exit_code == 0
    res = run(runner, workdir, "--format", "json", "analyze", *args, "-o", "json")
    assert res.exit_code == 0 and json.loads(res.output) == {key: found}
    assert (workdir / "json").exists() == found


def test_explicate_and_merge_commands(runner, workdir):
    assert run(runner, workdir, "reduce", "I4.rel", "--hypostatic", "1",
               "-o", "hc").exit_code == 0
    assert run(runner, workdir, "explicate", "hc", "-o", "ec").exit_code == 0
    assert run(runner, workdir, "verify", "ec").exit_code == 0
    assert run(runner, workdir, "merge", "ec", "-o", "mc").exit_code == 0
    assert run(runner, workdir, "verify", "mc").exit_code == 0


@pytest.fixture
def bundle(runner, workdir):
    """A valid certificate bundle and a writer for a changed manifest."""
    assert run(runner, workdir, "reduce", "I4.rel", "--key", "1",
               "-o", "cb").exit_code == 0
    manifest_path = workdir / "cb" / "certificate.json"
    manifest = json.loads(manifest_path.read_text())

    def write(text):
        manifest_path.write_text(text)
        return run(runner, workdir, "verify", "cb")

    return manifest, write


def test_verify_manifest_not_json_exit_2(bundle):
    _, write = bundle
    res = write("this is not json {")
    assert res.exit_code == 2 and "parse error" in res.output


def test_verify_manifest_not_object_exit_2(bundle):
    manifest, write = bundle
    res = write(json.dumps([manifest]))
    assert res.exit_code == 2 and "not a JSON object" in res.output


@pytest.mark.parametrize("key", ["target", "formula", "env", "varmap"])
def test_verify_manifest_missing_key_exit_2(bundle, key):
    manifest, write = bundle
    del manifest[key]
    res = write(json.dumps(manifest))
    assert res.exit_code == 2 and repr(key) in res.output


@pytest.mark.parametrize("key,value", [
    ("target", ["target.rel"]),
    ("formula", 7),
    ("env", "F1.rel"),
    ("varmap", None),
    ("env", {"F1": 1}),
    ("varmap", {"x1": ["1"]}),
])
def test_verify_manifest_wrong_type_exit_2(bundle, key, value):
    manifest, write = bundle
    manifest[key] = value
    res = write(json.dumps(manifest))
    assert res.exit_code == 2 and repr(key) in res.output


def test_verify_missing_file_exit_2(bundle, workdir):
    manifest, write = bundle
    (workdir / "cb" / manifest["target"]).unlink()
    res = write(json.dumps(manifest))
    assert res.exit_code == 2 and "cannot read bundle file" in res.output


def test_verify_absolute_path_exit_2(bundle, workdir):
    manifest, write = bundle
    manifest["target"] = str(workdir / "cb" / manifest["target"])
    res = write(json.dumps(manifest))
    assert res.exit_code == 2 and "absolute" in res.output


def test_verify_path_outside_bundle_exit_2(bundle, workdir):
    manifest, write = bundle
    symbol = sorted(manifest["env"])[0]
    manifest["env"][symbol] = "../I4.rel"
    res = write(json.dumps(manifest))
    assert res.exit_code == 2 and "out of the bundle" in res.output


def test_verify_symlink_outside_bundle_exit_2(bundle, workdir):
    manifest, write = bundle
    (workdir / "cb" / "link.rel").symlink_to(workdir / "I4.rel")
    manifest["target"] = "link.rel"
    res = write(json.dumps(manifest))
    assert res.exit_code == 2 and "out of the bundle" in res.output


@pytest.mark.parametrize("d,n,sample", [
    ("0", "2", None), ("2", "0", None), ("-1", "3", None), ("0", "2", "10"),
])
def test_census_range_exit_3(runner, workdir, d, n, sample):
    args = ["census", "--d", d, "--n", n]
    if sample is not None:
        args += ["--sample", sample]
    res = run(runner, workdir, *args)
    assert res.exit_code == 3 and "census needs d >= 1 and n >= 1" in res.output


def test_census_sampled_over_caps_exit_4(runner, workdir, no_census_space):
    res = run(runner, workdir, "census", "--d", "40", "--n", "40", "--sample", "1")
    assert res.exit_code == 4
    assert res.output.startswith("cap exceeded:") and res.output.count("\n") == 1


def test_census_sampled_search_budget_exit_4(runner, no_census_space):
    args = ["census", "--d", "2", "--n", "2", "--sample", "1000"]
    res = runner.invoke(main, args, env={"RELRED_CAPS": "max_search_nodes=999"})
    assert res.exit_code == 4 and res.stdout == ""
    assert res.stderr == "cap exceeded: sampled census of 1000 relations exceeds cap 999\n"


def test_census_sampled_within_search_budget(runner):
    args = ["census", "--d", "2", "--n", "2", "--sample", "999"]
    res = runner.invoke(main, args, env={"RELRED_CAPS": "max_search_nodes=999"})
    assert res.exit_code == 0 and res.stdout.splitlines()[1].endswith(",sampled,999")


@pytest.mark.parametrize("d,n", [("3", "10000"), ("1", "40")])
def test_census_over_caps_exit_4(runner, workdir, no_census_space, d, n):
    res = run(runner, workdir, "census", "--d", d, "--n", n)
    assert res.exit_code == 4 and res.stdout == ""
    assert res.stderr.startswith("cap exceeded:") and res.stderr.count("\n") == 1


def test_census_negative_sample_exit_3(runner, workdir):
    res = run(runner, workdir, "census", "--d", "2", "--n", "2", "--sample", "-3")
    assert res.exit_code == 3
    assert res.output == "error: sampled census needs samples >= 0, got -3\n"
    res = run(runner, workdir, "census", "--d", "2", "--n", "2", "--sample", "0")
    assert res.exit_code == 0
    assert res.output.splitlines()[1] == "2,2,16,0,0,16,16,sampled,0"


@pytest.mark.parametrize("d,n,sample", [("4", "7", "1"), ("8", "8", "0"), ("8", "8", "1000000")])
def test_census_sampled_past_the_int_digit_limit_exit_4(runner, workdir, no_census_space,
                                                        d, n, sample):
    # 2^(4^7) has 4,933 digits, more than str(int) prints by default
    res = run(runner, workdir, "census", "--d", d, "--n", n, "--sample", sample)
    assert res.exit_code == 4 and res.stdout == ""
    assert res.stderr == (f"cap exceeded: census over d={d}, n={n} "
                          "would print a number of more than 4300 digits\n")


# (6,5) has the largest admitted mask, 6^5 = 7,776 bits; (3,8) is refused on
# its bound_njred 2^(8*3^7), of 5,267 digits, though its total has 1,976
@pytest.mark.parametrize("d,n,admitted", [(6, 5, True), (3, 7, True), (3, 8, False),
                                          (7, 5, False)])
def test_census_digit_limit_boundary(runner, workdir, d, n, admitted):
    args = ["census", "--d", str(d), "--n", str(n), "--sample", "1"]
    res = run(runner, workdir, *args)
    if not admitted:
        assert res.exit_code == 4 and res.stdout == ""
        return
    assert res.exit_code == 0
    row = res.stdout.splitlines()[1].split(",")
    assert row[:3] == [str(d), str(n), str(2 ** d ** n)]
    assert row[6] == str(2 ** (n * d ** (n - 1)))
    res = run(runner, workdir, "--format", "json", *args)
    assert res.exit_code == 0 and json.loads(res.stdout)["total"] == 2 ** d ** n


def test_census_reads_the_interpreters_digit_limit(monkeypatch):
    # 2^(5^5) has 941 digits: printed by default, refused under a limit of 640
    monkeypatch.setenv("PYTHONINTMAXSTRDIGITS", "640")
    res = _with_caps("", "-m", "relred.cli", "census", "--d", "5", "--n", "5", "--sample", "1")
    assert res.returncode == 4 and res.stdout == ""
    assert res.stderr == ("cap exceeded: census over d=5, n=5 "
                          "would print a number of more than 640 digits\n")


@pytest.mark.parametrize("rows", ["a b\n", ""], ids=["one_row", "empty"])
def test_reduce_negative_hypostatic_exit_3(runner, workdir, rows):
    (workdir / "R.rel").write_text("@relation R over D2(a,b)\n1 2\n" + rows)
    res = run(runner, workdir, "reduce", "R.rel", "--hypostatic", "-1", "-o", "h")
    assert res.exit_code == 3 and not (workdir / "h").exists()
    assert res.output == "error: parameter count k must be >= 0, got -1\n"


def test_reduce_negative_neg_join_k_exit_3(runner, workdir):
    assert run(runner, workdir, "reduce", "I4.rel", "--key", "1",
               "-o", "jc").exit_code == 0
    res = run(runner, workdir, "reduce", "I4.rel", "--neg-join", "jc",
              "-k", "-1", "-o", "nc")
    assert res.exit_code == 3 and not (workdir / "nc").exists()
    assert res.output == "error: parameter count k must be >= 0, got -1\n"


def test_verify_symlink_inside_bundle_accepted(bundle, workdir):
    manifest, write = bundle
    (workdir / "cb" / "link.rel").symlink_to(workdir / "cb" / manifest["target"])
    manifest["target"] = "link.rel"
    res = write(json.dumps(manifest))
    assert res.exit_code == 0 and "valid" in res.output


@pytest.mark.parametrize("text", [
    "(" * 3000 + "P(x)" + ")" * 3000,
    "P(x) & (" * 3000 + "P(x)" + ")" * 3000,
], ids=["parens", "right"])
def test_eval_deep_nesting_exit_2(runner, workdir, text):
    (workdir / "P.rel").write_text("@relation P over D2(a,b)\n1\na\n")
    (workdir / "deep.txt").write_text(text + "\n")
    res = run(runner, workdir, "eval", "deep.txt", "--env", "P.rel")
    assert res.exit_code == 2
    assert res.output.startswith("parse error:") and res.output.count("\n") == 1


def _with_caps(spec, *args):
    src = os.path.dirname(os.path.dirname(relred.__file__))
    env = dict(os.environ, RELRED_CAPS=spec,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=60)


# rank_max_ones (a density cap of the Boolean-rank search) and the exact
# census's cell cap are gone: the search budget bounds both loops now; the
# Boolean-rank matrix's cell cap is a constant
@pytest.mark.parametrize("spec", ["bogus=1", "max_arity=x", "max_arity", "rank_max_ones=24",
                                  "max_census_cells=16", "rank_max_cells=65536"])
def test_bad_caps_env_exit_2(spec):
    res = _with_caps(spec, "-m", "relred.cli", "census", "--d", "2", "--n", "2")
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.startswith("parse error:") and res.stderr.count("\n") == 1
    assert "RELRED_CAPS" in res.stderr


def test_bad_caps_env_import_keeps_defaults():
    res = _with_caps("bogus=1", "-c", "import relred; from relred.caps import current; "
                     "print(current() == relred.Caps())")
    assert res.returncode == 0 and res.stdout == "True\n"


def test_caps_env_same_end_in_process_and_in_subprocess(workdir):
    # the domain cap is checked in core, the other caps in the deciders:
    # both read the caps the run set from RELRED_CAPS
    rel = str(workdir / "I4.rel")  # a 3-element domain
    args = ["analyze", rel, "--degenerate"]
    inproc = CliRunner().invoke(main, args, env={"RELRED_CAPS": "max_domain=2"})
    sub = _with_caps("max_domain=2", "-m", "relred.cli", *args)
    assert (inproc.exit_code, inproc.stderr) == (sub.returncode, sub.stderr)
    assert sub.returncode == 4 and sub.stderr == "cap exceeded: domain size 3 exceeds cap 2\n"
    # the run's caps end with the run
    assert CliRunner().invoke(main, args).exit_code == 0


def test_hypostatic_two_pipeline_on_d4_n5(runner, workdir):
    # the bonds explicate and merge write list every factor before the
    # teridentity chain connecting them; joined in that order, this
    # pipeline built Cartesian intermediates and took about 20 s; joined
    # connected-first it takes well under a second, so the loose bound
    # below fails only on the blow-up
    rng = random.Random(5)
    rows = sorted({tuple(rng.choice("abcd") for _ in range(5)) for _ in range(40)})[:16]
    rel = Relation.make(Domain("D4", tuple("abcd")), [str(i + 1) for i in range(5)], rows)
    (workdir / "R16.rel").write_text(dump_relation(rel))
    start = time.perf_counter()
    for args in (["reduce", "R16.rel", "--hypostatic", "2", "-o", "h2"],
                 ["explicate", "h2", "-o", "h2b"],
                 ["merge", "h2b", "-o", "h2m"]):
        assert run(runner, workdir, *args).exit_code == 0
    res = run(runner, workdir, "verify", "h2m")
    assert res.exit_code == 0 and res.output.startswith("valid")
    assert time.perf_counter() - start < 15


def test_cover_search_node_cap_exit_4(runner, workdir):
    # the cyclic Latin square on six elements plus each other cell at
    # probability 0.8: every proper projection is universal, and without
    # a node cap the box decider's cover search ran for minutes
    d, rng = 6, random.Random(1)
    cells = {(x, y, (x + y) % d) for x in range(d) for y in range(d)}
    cells |= {c for c in itertools.product(range(d), repeat=3)
              if c not in cells and rng.random() < 0.8}
    assert len(cells) == 185
    elements = tuple("abcdef")
    rel = Relation.make(Domain("D6", elements), ("1", "2", "3"),
                        [tuple(elements[v] for v in c) for c in cells])
    (workdir / "L6.rel").write_text(dump_relation(rel))
    res = run(runner, workdir, "analyze", "L6.rel", "--one-param")
    assert res.exit_code == 4
    assert res.output == f"cap exceeded: cover search exceeds {Caps().max_search_nodes} nodes\n"


def test_rank_closure_cap_exit_4(runner, workdir):
    # a dense 6-ary relation over four elements split 3|3: listing the
    # maximal rectangles of its 64 x 64 matrix, by the AND-closure of the
    # rows, runs out of the search budget before any cover search
    rng, elements = random.Random(0), tuple("abcd")
    rows = [c for c in itertools.product(elements, repeat=6) if rng.random() < 0.5]
    rel = Relation.make(Domain("D4", elements), [str(i + 1) for i in range(6)], rows)
    (workdir / "R6.rel").write_text(dump_relation(rel))
    res = run(runner, workdir, "analyze", "R6.rel", "--relprod2", "1,2,3")
    assert res.exit_code == 4 and res.stdout == ""
    assert res.output == f"cap exceeded: rectangle closure exceeds {Caps().max_search_nodes} steps\n"


def test_rank_cells_cap_before_allocation_exit_4(workdir):
    # the bipartition matrix of a 16-ary relation over 8 elements split
    # 8|8 has 8^8 rows and 8^8 columns; listing them needs gigabytes, so
    # the child runs under a 1 GB address-space limit and a cap checked
    # after the listing ends in a MemoryError instead of exit 4
    elements = tuple("abcdefgh")
    rows = [tuple(elements[(i * j) % 8] for j in range(16)) for i in range(3)]
    rel = Relation.make(Domain("D8", elements), [str(i + 1) for i in range(16)], rows)
    (workdir / "R16.rel").write_text(dump_relation(rel))
    limited = ("import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
               "from relred.cli import main; main()")
    res = _with_caps("", "-c", limited, "analyze", str(workdir / "R16.rel"),
                     "--relprod2", "1,2,3,4,5,6,7,8")
    assert res.returncode == 4 and res.stdout == ""
    assert res.stderr == f"cap exceeded: matrix has {8 ** 16} cells > cap {analysis._BATCH_BITS}\n"


def test_relation_row_length_exit_2(runner, workdir):
    (workdir / "R.rel").write_text("@relation R over D(a,b)\n1 2\na\n")
    res = run(runner, workdir, "analyze", "R.rel", "--degenerate")
    assert res.exit_code == 2 and res.stdout == ""
    assert res.stderr == "parse error: line 3: row length 1 does not match scheme of arity 2\n"


def _fresh(monkeypatch, *commands):
    """Start ``commands`` with no parse plan, no help option and no unset
    value converted, so that the next run builds and converts them."""
    for command in commands:
        monkeypatch.setattr(command, "_plans", {})
        monkeypatch.setattr(command, "_help_option", None)
        for param in command.params:
            if isinstance(param, _Option):
                monkeypatch.setattr(param, "unset", None)


def test_in_process_run_frees_captured_output(monkeypatch):
    import contextlib
    import gc
    import io
    import weakref

    # every Context of a run, the group's and the command's, dies with the
    # run: no cached parser or unset value keeps one, nor its obj or caps,
    # alive.  The commands start with no parse plan and no unset value, so
    # this run builds, converts and caches them.
    _fresh(monkeypatch, main, main.commands["census"])
    contexts = []
    init = click.Context.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        contexts.append(weakref.ref(self))

    monkeypatch.setattr(click.Context, "__init__", recording)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        main.main(args=["census", "--d", "2", "--n", "2"], standalone_mode=False)
        with pytest.raises(SystemExit):
            main.main(args=["census", "--d", "0", "--n", "2"], standalone_mode=False)
    assert out.getvalue().startswith("d,n,total") and err.getvalue().startswith("error:")
    refs = [weakref.ref(out), weakref.ref(err), *contexts]
    del out, err
    gc.collect()
    assert len(contexts) == 4 and [r() for r in refs] == [None] * len(refs)


# Each parse case runs twice in one process: the second run parses with the
# parser the command built and cached on its first.

@pytest.mark.parametrize("spelling,dest", [
    (["-o", "X"], "X"), (["-oX"], "X"), (["--out", "X"], "X"), (["--out=X"], "X"),
    (["-o=X"], "=X"),
], ids=["short", "short-attached", "long", "long-equals", "short-equals"])
def test_out_spellings(runner, workdir, spelling, dest):
    for _ in range(2):
        res = run(runner, workdir, "reduce", "I4.rel", "--key", "1", *spelling)
        assert res.exit_code == 0 and res.output == f"{dest}/certificate.json\n"
    assert (workdir / dest / "certificate.json").is_file()
    assert dest == "X" or not (workdir / "X").exists()


def test_short_k_with_attached_equals_exit_2(runner, workdir):
    assert run(runner, workdir, "reduce", "I4.rel", "--key", "1", "-o", "jc").exit_code == 0
    for _ in range(2):
        res = run(runner, workdir, "reduce", "I4.rel", "--neg-join", "jc", "-k=5")
        assert res.exit_code == 2 and "'=5' is not a valid integer" in res.stderr


def test_misspelt_long_option_suggests_exit_2(runner, workdir):
    # click 8.2 and 8.4 word the suggestion differently; the message is click's own
    message = click.NoSuchOption("--outt", possibilities=["--out"]).format_message()
    assert "Did you mean" in message
    for _ in range(2):
        res = run(runner, workdir, "reduce", "I4.rel", "--key", "1", "--outt", "X")
        assert res.exit_code == 2 and res.stderr.endswith(f"\nError: {message}\n")
    assert not (workdir / "X").exists()


def test_format_before_the_command_applies(runner, workdir):
    for _ in range(2):
        res = run(runner, workdir, "--format", "json", "deps", "I4.rel", "--keys", "1")
        assert res.exit_code == 0 and json.loads(res.output) == [["1"], ["2"], ["3"], ["4"]]


def test_help_texts_are_stock_clicks(runner):
    # the same declarations as stock click commands, whose help the CLI
    # printed before it cached its parsers
    stock = stock_cli(main)
    for args in [["--help"], *([name, "--help"] for name in sorted(main.commands))]:
        expected = runner.invoke(stock, args)
        assert expected.exit_code == 0 and expected.output.startswith("Usage: main ")
        for _ in range(2):
            res = runner.invoke(main, args)
            assert res.exit_code == 0 and res.output == expected.output


def test_each_command_builds_its_parser_once(runner, workdir, monkeypatch):
    import click.exceptions
    import click.parser

    counts = {}

    def counting(cls, key):
        init = cls.__init__

        def wrapped(self, *args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", wrapped)

    counting(click.parser._OptionParser, "parsers")
    counting(click.exceptions.NoSuchOption, "no_such_option")
    pipeline = (["reduce", "I4.rel", "--hypostatic", "1", "-o", "h"],
                ["explicate", "h", "-o", "b"], ["merge", "b", "-o", "m"], ["verify", "m"])
    passes = []
    for _ in range(2):
        counts.clear()
        for args in pipeline:
            assert run(runner, workdir, *args).exit_code == 0
        passes.append(dict(counts))
    # stock click built two parsers an invocation, and a NoSuchOption for
    # each -o: the group and four commands build at most one each, once
    assert "no_such_option" not in passes[0] and passes[0].get("parsers", 0) <= 5
    assert passes[1] == {}


def test_only_what_the_command_line_gives_is_processed_by_click(runner, workdir, monkeypatch):
    # an unset option takes the value it kept from its first invocation,
    # on that invocation and on every later one
    _fresh(monkeypatch, main, *main.commands.values())
    processed = []
    handle = click.core.Parameter.handle_parse_result

    def recording(self, ctx, opts, args):
        processed.append(self.name)
        return handle(self, ctx, opts, args)

    monkeypatch.setattr(click.core.Parameter, "handle_parse_result", recording)
    for _ in range(2):
        processed.clear()
        res = run(runner, workdir, "analyze", "I3.rel", "--degenerate")
        assert res.exit_code == 0 and res.output == "degenerate: no\n"
        assert sorted(processed) == ["degenerate", "rel_file"]
    # --env is multiple, --certs multiple and --d and --n required: click
    # processes them set or not
    calls = [(["reduce", "I4.rel", "--hypostatic", "1", "-o", "h"],
              ["hypostatic", "out", "rel_file"]),
             (["explicate", "h", "-o", "b"], ["cert_file", "out"]),
             (["merge", "b", "-o", "m"], ["cert_file", "out"]),
             (["verify", "m"], ["cert_file"]),
             (["eval", "chain.txt", "--env", "I3.rel"], ["env_files", "formula_file"]),
             (["--format", "json", "deps", "I4.rel", "--keys", "1"], ["fmt", "keys_k", "rel_file"]),
             (["diagram", "chain.txt", "--stats"], ["source", "stats"]),
             (["ternarity", "I3.rel"], ["certs", "rel_file"]),
             (["census", "--d", "2", "--n", "2"], ["d", "n"])]
    for args, given in calls:
        processed.clear()
        assert run(runner, workdir, *args).exit_code == 0, args
        assert sorted(processed) == given, args


def test_default_map_envvar_prefix_and_resilient_parsing_read_as_stock_click(runner, monkeypatch):
    census = ["census", "--d", "2", "--n", "3", "--sample", "5"]
    defaults = {"fmt": "json", "census": {"seed": 5}}  # keyed by parameter name
    monkeypatch.setenv("RELRED_TEST_FMT", "json")
    monkeypatch.setenv("RELRED_TEST_CENSUS_SEED", "5")
    given = runner.invoke(main, ["--format", "json", *census, "--seed", "5"])
    unseeded = runner.invoke(main, ["--format", "json", *census])
    assert given.exit_code == 0 and given.output != unseeded.output
    for extra in ({"default_map": defaults}, {"auto_envvar_prefix": "RELRED_TEST"}):
        res = runner.invoke(main, census, **extra)
        assert res.exit_code == 0 and res.output == given.output
    # a command's Context takes its part of the group's default map, but is
    # told to parse resiliently, as shell completion tells every Context
    resilient = {"resilient_parsing": True}
    stock = stock_cli(main)
    for args, extra, command_extra in [(census, {"default_map": defaults}, {}),
                                       (["census", "--D", "2", "--N", "3"],
                                        {"token_normalize_func": str.lower}, {}),
                                       (census, resilient, resilient),
                                       (["census", "--sample"], resilient, resilient),
                                       ([*census, "stray"], resilient, resilient),
                                       (["census", "--d", "x"], resilient, resilient)]:
        group_ctx, outcome = parse_outcome(main, "main", args, **extra)
        stock_ctx, expected = parse_outcome(stock, "main", args, **extra)
        assert outcome == expected
        _, outcome = parse_outcome(main.commands["census"], "census", args[1:],
                                   parent=group_ctx, **command_extra)
        _, expected = parse_outcome(stock.commands["census"], "census", args[1:],
                                    parent=stock_ctx, **command_extra)
        assert outcome == expected
    assert outcome[0] == "ok" and outcome[1]["d"] is None  # resilient, not refused
    assert group_ctx.get_parameter_source("fmt") == click.core.ParameterSource.DEFAULT


def test_plan_reads_as_stock_click_on_other_declarations(tmp_path, monkeypatch):
    # declarations relred does not use: an option and an argument with no
    # value from any source, a feature switch of two options sharing one
    # name, a counter, an environment variable, a callback, an eager option
    monkeypatch.setenv("PLAN_TEST_LEVEL", "7")

    def declared(option):
        return [
            click.Argument(["name"], required=False),
            option(["--path"], type=click.Path(exists=True)),
            option(["--upper", "case"], flag_value="upper", default=True),
            option(["--lower", "case"], flag_value="lower"),
            option(["-v", "verbose"], count=True),
            option(["--level"], type=int, envvar="PLAN_TEST_LEVEL"),
            option(["--size"], type=int, default=3, callback=lambda c, p, v: v * 2),
            option(["--mode"], type=click.Choice(["a", "b"]), default="a", is_eager=True),
            option(["--tag"]),
        ]

    ours = _Command("c", params=declared(_Option))
    stock = click.Command("c", params=declared(click.Option))
    (tmp_path / "f").write_text("")
    for args in [[], ["n"], ["n", "extra"], ["--lower", "-vv", "--tag", "t"],
                 ["--size", "x", "--mode", "c"], ["--path", str(tmp_path / "f")],
                 ["--path", str(tmp_path / "missing"), "--level", "x"], ["--mode", "b"]]:
        for _ in range(2):
            assert parse_outcome(ours, "c", args)[1] == parse_outcome(stock, "c", args)[1], args
    # a default that only a token normalizer makes a valid choice: read
    # first under one, its value is not kept for a Context without one
    ours = _Command("g", params=[_Option(["--grade"], type=click.Choice(["A", "B"]), default="a")])
    stock = click.Command("g", params=[click.Option(["--grade"], type=click.Choice(["A", "B"]),
                                                    default="a")])
    for extra in ({"token_normalize_func": str.lower}, {}):
        assert parse_outcome(ours, "g", [], **extra)[1] == parse_outcome(stock, "g", [], **extra)[1]


@pytest.mark.parametrize("args,message", [
    (["analyze", "I3.rel", "--degenerate", "-o", "x"],
     "-o applies only to --relprod2, --join-reducible and --one-param"),
    (["analyze", "I3.rel", "--oracle-suite", "-o", "x"],
     "-o applies only to --relprod2, --join-reducible and --one-param"),
    (["reduce", "I4.rel", "--key", "1", "-k", "5", "-o", "x"], "-k applies only to --neg-join"),
    (["reduce", "I4.rel", "--key", "1", "-k", "1", "-o", "x"], "-k applies only to --neg-join"),
], ids=["analyze-degenerate", "analyze-oracle-suite", "reduce-key-k5", "reduce-key-k1"])
def test_option_of_another_mode_exit_3(runner, workdir, args, message):
    res = run(runner, workdir, *args)
    assert res.exit_code == 3
    assert res.stdout == "" and res.stderr == f"error: {message}\n"
    assert not (workdir / "x").exists()


def test_verify_dangling_symlink_in_bundle_exit_2(bundle, workdir):
    manifest, write = bundle
    (workdir / "cb" / "link.rel").symlink_to(workdir / "cb" / "missing.rel")
    manifest["target"] = "link.rel"
    res = write(json.dumps(manifest))
    assert res.exit_code == 2
    assert res.output == ("parse error: cannot read bundle file 'link.rel': [Errno 2] "
                          f"No such file or directory: {str(workdir / 'cb' / 'link.rel')!r}\n")


def test_verify_symlinked_directory_out_of_bundle_exit_2(bundle, workdir):
    manifest, write = bundle
    (workdir / "cb" / "sub").symlink_to(workdir)
    manifest["target"] = "sub/I4.rel"
    res = write(json.dumps(manifest))
    assert res.exit_code == 2 and "out of the bundle" in res.output


def test_verify_symlinked_directory_inside_bundle_accepted(bundle, workdir):
    manifest, write = bundle
    (workdir / "cb" / "sub").symlink_to(workdir / "cb")
    manifest["target"] = "sub/" + manifest["target"]
    res = write(json.dumps(manifest))
    assert res.exit_code == 0 and "valid" in res.output


def test_env_key_that_is_no_symbol_exit_2_and_nothing_written(bundle, workdir, runner):
    manifest, write = bundle
    manifest["env"]["../evil"] = sorted(manifest["env"].values())[0]
    res = write(json.dumps(manifest))
    message = "parse error: certificate manifest 'env' key '../evil' is not a relation symbol\n"
    assert res.exit_code == 2 and res.output == message
    res = run(runner, workdir, "explicate", "cb", "-o", "out")
    assert res.exit_code == 2 and res.output == message
    assert not (workdir / "out").exists()
