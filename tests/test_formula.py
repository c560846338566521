import itertools
import json
import locale
import os
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from relred.core import Domain, Relation, dump_relation, standard
from relred.errors import ParseError, PreconditionError, VerificationError
from relred.formula import (
    Atom,
    Conj,
    Exists,
    MAX_NESTING,
    ReductionCertificate,
    _CHUNK,
    _read_text,
    _write_text,
    check_certificate,
    classify,
    evaluate,
    flatten,
    free_vars,
    load_certificate,
    normalize,
    parse,
    render,
    save_certificate,
)
from relred.reducers import hypostatic_abstraction, key_reduction

from conftest import make_rel
from oracles import reference_parse


def test_parse_atom():
    f = parse("P(x, y)")
    assert isinstance(f, Atom)
    assert f.symbol == "P" and f.args == ("x", "y")


def test_parse_conj_and_exists():
    f = parse("exists t . P(x,t) & Q(t,y)")
    assert isinstance(f, Exists)
    assert f.variables == frozenset({"t"})
    assert isinstance(f.body, Conj)


def test_parse_nested_parens():
    f = parse("P(x,t) & (exists s . Q(s,t))")
    assert isinstance(f, Conj)
    assert isinstance(f.parts[1], Exists)


def test_parse_errors():
    for bad in ["", "P(", "exists . P(x)", "p(x)", "P(x) Q(y)", "P(X)"]:
        with pytest.raises(ParseError):
            parse(bad)


def test_names_are_checked_by_atom_and_parse():
    # the parser builds its atoms unchecked, from the names it has matched
    with pytest.raises(PreconditionError, match=r"^bad relation symbol 'p'$"):
        Atom("p", ("x",))
    with pytest.raises(PreconditionError, match=r"^bad variable 'X'$"):
        Atom("P", ("x", "X"))
    with pytest.raises(ParseError, match=r"^expected relation symbol \(at position 0\)$"):
        parse("p(x)")
    with pytest.raises(ParseError, match=r"^expected variable \(at position 5\)$"):
        parse("P(x, Y)")
    with pytest.raises(ParseError, match=r"^expected variable \(at position 7\)$"):
        parse("exists X . P(x)")
    with pytest.raises(ParseError, match=r"^expected '\(' \(at position 1\)$"):
        parse("P\u00e9(x)")


DEEP = {
    "parens": lambda n: "(" * n + "P(x)" + ")" * n,
    "right": lambda n: "P(x) & (" * n + "P(x)" + ")" * n,
    "exists": lambda n: "".join(f"exists y{i} . " for i in range(n))
    + " & ".join(f"Q(x,y{i})" for i in range(n)),
}


@pytest.mark.parametrize("shape", sorted(DEEP))
def test_parse_refuses_deep_nesting(shape):
    for depth in (MAX_NESTING + 1, 3000):
        with pytest.raises(ParseError, match="nested more than"):
            parse(DEEP[shape](depth))


@pytest.mark.parametrize("shape", sorted(DEEP))
def test_deepest_accepted_formula_round_trips(shape):
    d = Domain("D", ("a", "b"))
    env = {"P": Relation.make(d, ("1",), [("a",)]),
           "Q": Relation.make(d, ("1", "2"), [("a", "a")])}
    f = parse(DEEP[shape](MAX_NESTING))
    assert render(parse(render(f))) == render(f)
    g = parse(render(normalize(f)))
    assert evaluate(f, env).rows == evaluate(g, env).rows == {("a",)}
    check_certificate(ReductionCertificate(env["P"], f, env, {"x": "1"}))


def test_render_roundtrip():
    for text in [
        "P(x)",
        "P(x,y) & Q(y,z)",
        "exists t . P(x,t) & Q(t,y)",
        "P(x,t) & (exists s . Q(s,x))",
        "exists t1 t2 . P(t1,t2)",
    ]:
        assert render(parse(render(parse(text)))) == render(parse(text))


def test_exists_rejects_unused_binder():
    with pytest.raises(PreconditionError):
        Exists(("z",), parse("P(x)"))


def test_free_vars():
    f = parse("exists t . P(x,t) & Q(t,y)")
    assert free_vars(f) == frozenset({"x", "y"})


def test_atom_diagonal(d2):
    # repeated variables select the diagonal
    r = make_rel(d2, 2, [("a", "a"), ("a", "b")])
    out = evaluate(parse("R(x,x)"), {"R": r})
    assert out.attrs == ("x",)
    assert out.rows == frozenset({("a",)})


def test_atom_args_align_with_canonical_attr_order(d2):
    r = make_rel(d2, 2, [("a", "b")])
    out = evaluate(parse("R(y,x)"), {"R": r})
    # first argument binds column "1", second column "2"
    assert out.attrs == ("x", "y")
    assert out.rows == frozenset({("b", "a")})


def test_evaluate_identity_chain(d2):
    i3 = standard("identity", 3, d2)
    f = parse("exists t . I3(x1,x2,t) & I3(t,x3,x4)")
    out = evaluate(f, {"I3": i3})
    assert out.rows == standard("identity", 4, d2).rows


def test_evaluate_arity_mismatch(d2):
    r = make_rel(d2, 2, [("a", "b")])
    with pytest.raises(PreconditionError):
        evaluate(parse("R(x,y,z)"), {"R": r})


def test_normalize_prenex():
    f = parse("P(x,t) & (exists s . Q(s,x))")
    g = normalize(f)
    assert isinstance(g, Exists)
    assert render(g).startswith("exists ")


def test_normalize_capture_avoiding():
    # inner bound t must not collide with the outer free t
    f = parse("P(t) & (exists t_0 . Q(t_0,t))")
    params, atoms = flatten(f)
    used = {v for a in atoms for v in a.args}
    assert "t" in used and set(params) <= used
    assert "t" not in params


def test_classify_kinds():
    assert classify(parse("P(x) & Q(y)")).kind == "cartesian"
    assert classify(parse("P(x,y) & Q(y,z)")).kind == "join"
    assert classify(parse("exists t . P(x,t) & Q(t,y)")).kind == "bond"
    c = classify(parse("exists t . P(x,t) & Q(t,y) & S(t,z)"))
    assert c.kind == "pureProjoin" and not c.is_bond
    assert classify(parse("exists t . P(x,t) & Q(t,x,y)")).kind == "projoin"


def test_certificate_verifies_on_construction(d2):
    i2 = standard("identity", 2, d2)
    target = standard("identity", 3, d2)
    f = parse("I2(x1,x2) & I2(x2,x3)")
    cert = ReductionCertificate(
        target, f, {"I2": i2}, {"x1": "1", "x2": "2", "x3": "3"}
    )
    verdict = check_certificate(cert)
    assert verdict.valid and verdict.is_reduction


def test_certificate_rejects_wrong_target(d2):
    i2 = standard("identity", 2, d2)
    wrong = standard("universal", 3, d2)
    with pytest.raises(VerificationError):
        ReductionCertificate(
            wrong, parse("I2(x1,x2) & I2(x2,x3)"), {"I2": i2},
            {"x1": "1", "x2": "2", "x3": "3"},
        )


def test_check_certificate_never_raises(d2):
    i2 = standard("identity", 2, d2)
    target = standard("identity", 3, d2)
    cert = ReductionCertificate(
        target, parse("I2(x1,x2) & I2(x2,x3)"), {"I2": i2},
        {"x1": "1", "x2": "2", "x3": "3"},
    )
    for target in (standard("universal", 3, d2), None):
        tampered = ReductionCertificate.__new__(ReductionCertificate)
        object.__setattr__(tampered, "target", target)
        object.__setattr__(tampered, "formula", cert.formula)
        object.__setattr__(tampered, "env", cert.env)
        object.__setattr__(tampered, "var_map", cert.var_map)
        assert not check_certificate(tampered).valid


def test_verify_refuses_a_closed_formula_before_the_row_count(d2):
    # the closed formula's value, TRUE, has one row and the target two, but
    # the closed-formula error comes first
    cert = ReductionCertificate.__new__(ReductionCertificate)
    object.__setattr__(cert, "target", standard("identity", 2, d2))
    object.__setattr__(cert, "formula", parse("exists y . U(y)"))
    object.__setattr__(cert, "env", {"U": standard("universal", 1, d2)})
    object.__setattr__(cert, "var_map", {})
    with pytest.raises(VerificationError,
                       match="^closed formula cannot certify a non-0-ary target$"):
        cert.verify()
    assert not check_certificate(cert).valid


def test_certificate_bundle_roundtrip(tmp_path, d2):
    i2 = standard("identity", 2, d2)
    target = standard("identity", 3, d2)
    cert = ReductionCertificate(
        target, parse("I2(x1,x2) & I2(x2,x3)"), {"I2": i2},
        {"x1": "1", "x2": "2", "x3": "3"},
    )
    path = save_certificate(cert, str(tmp_path / "bundle"))
    back = load_certificate(path)
    assert back.target.rows == cert.target.rows
    assert render(back.formula) == render(cert.formula)
    assert check_certificate(back).valid


# attribute and symbol names that JSON escapes: a quote, a backslash, a
# non-ASCII letter and a control character
ESCAPED = ('"', "\\", "\u00e9", "\x01")


def _manifest_bytes(cert, name="target"):
    manifest = {
        "target": f"{name}.rel",
        "formula": render(cert.formula),
        "env": {symbol: f"{symbol}.rel" for symbol in cert.env},
        "varmap": dict(cert.var_map),
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    return text.encode(locale.getpreferredencoding(False))


@pytest.mark.parametrize("case", ["escaped", "empty varmap", "empty env", "reducer"])
def test_manifest_is_the_json_dumps_text(tmp_path, d2, case):
    if case == "escaped":
        target = Relation.make(d2, ESCAPED, [("a", "b", "a", "b"), ("b", "a", "b", "a")])
        factor = Relation.make(d2, ("1", "2"), [("a", "b"), ("b", "a")])
        cert = ReductionCertificate(
            target, parse("F(x1,x2) & F(x3,x4) & G(x1,x3)"),
            {"F": factor, "G": standard("identity", 2, d2)},
            dict(zip(("x1", "x2", "x3", "x4"), target.attrs)))
        # a factor symbol is a ``SYMBOL_RE`` symbol, so only a target name
        # that is no symbol puts an escape into the manifest's file names
        name = "H\u00e9\""
    elif case == "empty varmap":
        cert = ReductionCertificate(
            standard("universal", 0, d2), parse("exists y . U(y)"),
            {"U": standard("universal", 1, d2)}, {})
    elif case == "empty env":
        # the writer reads only these four fields; no certificate has no factor
        cert = SimpleNamespace(target=standard("identity", 1, d2), formula=parse("P(x)"),
                               env={}, var_map={"x": "1"})
    else:
        cert = hypostatic_abstraction(standard("identity", 3, d2), 1)
    name = name if case == "escaped" else "target"
    path = save_certificate(cert, str(tmp_path / "bundle"), name)
    with open(path, "rb") as fh:
        assert fh.read() == _manifest_bytes(cert, name)


def test_save_over_a_larger_bundle_rewrites_in_place(tmp_path, d2):
    identity = standard("identity", 3, d2)
    larger = hypostatic_abstraction(identity, 1)
    smaller = key_reduction(identity, ["1"])
    assert sorted(larger.env) == ["F1", "F2", "F3"]
    assert sorted(smaller.env) == ["F1", "F2"]
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    save_certificate(larger, str(reused))
    path = save_certificate(smaller, str(reused))
    save_certificate(smaller, str(fresh))
    manifest = json.loads((reused / "certificate.json").read_text())
    named = ["certificate.json", "formula.txt", manifest["target"], *manifest["env"].values()]
    assert sorted(named) == sorted(os.listdir(fresh))
    for name in named:
        assert (reused / name).read_bytes() == (fresh / name).read_bytes()
    assert check_certificate(load_certificate(path)).valid
    # a factor the new manifest does not name is left as it was
    assert sorted(os.listdir(reused)) == sorted(named + ["F3.rel"])
    assert (reused / "F3.rel").read_text() == dump_relation(larger.env["F3"], "F3")


def test_write_text_finishes_partial_writes(tmp_path, monkeypatch):
    real_write, calls = os.write, []

    def one_byte(fd, data):
        calls.append(len(data))
        return real_write(fd, bytes(data[:1]))

    monkeypatch.setattr(os, "write", one_byte)
    path = tmp_path / "f.txt"
    text = "@relation R over D(a,b)\n1 2\na b\n"
    path.write_text(text + "x" * 100)
    _write_text(str(path), text)
    assert path.read_text() == text  # every byte written, the old tail cut
    assert len(calls) == len(text.encode())
    _write_text(str(path), text + "y")
    assert path.read_text() == text + "y"


def _open_error(path):
    """The message text-mode ``open`` and ``read`` give for ``path``."""
    try:
        with open(path) as fh:
            fh.read()
    except (OSError, ValueError) as e:
        return str(e)
    raise AssertionError(f"{path} reads")


def test_read_text_refuses_a_directory_naming_it(tmp_path):
    path = str(tmp_path)
    with pytest.raises(ParseError) as refused:
        _read_text(path, "relation file")
    assert str(refused.value) == (
        f"cannot read relation file: [Errno 21] Is a directory: {path!r}")
    assert str(refused.value) == f"cannot read relation file: {_open_error(path)}"


@pytest.mark.skipif(locale.getpreferredencoding(False).lower().replace("-", "") != "utf8",
                    reason="the message names the locale's codec")
def test_read_text_refuses_bytes_the_locale_cannot_decode(tmp_path):
    path = tmp_path / "latin1.rel"
    path.write_bytes(b"@relation R over D(a,b)\n1\n\xff\n")
    with pytest.raises(ParseError) as refused:
        _read_text(str(path), "relation file")
    assert str(refused.value) == ("cannot read relation file: 'utf-8' codec can't decode "
                                  "byte 0xff in position 26: invalid start byte")
    assert str(refused.value) == f"cannot read relation file: {_open_error(path)}"


def test_read_text_translates_newlines_as_text_mode_open(tmp_path):
    path = tmp_path / "crlf.rel"
    path.write_bytes(b"@relation R over D(a,b)\r\n1 2\r\na b\rb a\r\n\r\n")
    text = _read_text(str(path), "relation file")
    assert text == "@relation R over D(a,b)\n1 2\na b\nb a\n\n"
    with open(path) as fh:
        assert text == fh.read()


# the parser against the character walk it replaced (tests/oracles.py):
# the same formula, or the same error at the same position
PARSER_PIECES = (
    "exists", "exists ", "exists_x", "existsX", "existsé", "exists²", "exists.",
    "x", "y1", "t_2", "x1_1", "P", "Q1", "R_a", "F(x,y)", "G(t)", "(", ")", ",", ".", "&",
    "F ( x , y )", "P(x ,\x1cy)", "Q1(x,", "R_a(x y)", "P(xY)", "G(,t)", "H()",
    " ", "  ", "\t", "\n", " ", "\u0085", "\x1c", "_", "X", "é", "#", "-", "1",
)
NESTINGS = ("({})", "P(x) & ({})", "exists y . P(y) & {}", "P(y) & {}", "exists y . {}")


def _outcome(parser, text):
    try:
        return "formula", parser(text)
    except (ParseError, PreconditionError) as e:
        return type(e).__name__, str(e), getattr(e, "position", None)


@st.composite
def parser_texts(draw):
    text = "".join(draw(st.lists(st.sampled_from(PARSER_PIECES), max_size=16)))
    if draw(st.booleans()):
        # a shape of two nesting levels reaches MAX_NESTING at about half as
        # many repeats; one more parenthesis shifts which token it is reached at
        half = MAX_NESTING // 2
        repeats = draw(st.sampled_from([*range(half - 2, half + 3),
                                        *range(MAX_NESTING - 2, MAX_NESTING + 3)]))
        shape = draw(st.sampled_from(NESTINGS))
        for _ in range(repeats):
            text = shape.format(text)
        if draw(st.booleans()):
            text = f"({text})"
    return text


@settings(derandomize=True, max_examples=600, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(parser_texts())
def test_parse_matches_the_reference_parser(text):
    assert _outcome(parse, text) == _outcome(reference_parse, text)


# quantifiers and conjunctions alternate, so MAX_NESTING is passed at an
# '&' with one more parenthesis outside and at a '.' without it
NESTED = "exists y . P(y) & " * (MAX_NESTING // 2)


@pytest.mark.parametrize("text,expected", [
    ("exists_x . P(x)", "expected variable (at position 6)"),
    ("existsX(x)", "expected relation symbol (at position 0)"),
    ("existsé . P(x)", "expected relation symbol (at position 0)"),
    ("P(x) & exists", "expected variable (at position 13)"),
    ("P(x) &  exists ", "expected variable (at position 15)"),
    ("P(x, exists²)", "expected ')' (at position 11)"),
    ("P(x)\x1c\u0085", Atom("P", ("x",))),
    (f"({NESTED}  existsX(x))", f"expected relation symbol (at position {len(NESTED) + 3})"),
    (f"({NESTED}  exists_x . P(x))",
     f"formula nested more than {MAX_NESTING} levels deep (at position {len(NESTED) + 3})"),
    (f"{NESTED}  exists x . P(x)",
     f"formula nested more than {MAX_NESTING} levels deep (at position {len(NESTED) + 12})"),
], ids=["exists_", "existsX", "exists-e-acute", "exists-at-end", "exists-then-space",
        "exists-superscript", "unicode-space", "deep-existsX", "deep-exists_", "deep-dot"])
def test_parse_keyword_boundary_and_white_space(text, expected):
    assert _outcome(parse, text) == _outcome(reference_parse, text)
    if isinstance(expected, Atom):
        assert parse(text) == expected
    else:
        with pytest.raises(ParseError) as refused:
            parse(text)
        assert str(refused.value) == expected


def test_tampered_var_map_fails_check_certificate(d2):
    target = Relation.make(d2, ("1", "2"), [("a", "a"), ("a", "b")])
    for tamper in ({"x": "2", "y": "1"}, {"x": "1", "y": "3"}, {"x": "1"},
                   {"x": "1", "y": "1"}, {"x": "1", "y": "a b"}):
        cert = ReductionCertificate(target, parse("P(x,y)"), {"P": target},
                                    {"x": "1", "y": "2"})
        cert.var_map.clear()
        cert.var_map.update(tamper)
        assert not check_certificate(cert).valid
        with pytest.raises(VerificationError):
            cert.verify()


_KEYS = "var_map keys do not match free variables"
_VALUES = "var_map values do not match target scheme"

# each takes a valid var_map and two of its variables, v and w
VAR_MAP_TAMPERS = {
    "drop-a-key": (lambda m, v, w: {x: a for x, a in m.items() if x != v}, _KEYS),
    "add-a-key": (lambda m, v, w: dict(m, zz9=m[v]), _KEYS),
    "two-to-one": (lambda m, v, w: dict(m, **{w: m[v]}), _VALUES),
    "value-outside-scheme": (lambda m, v, w: dict(m, **{v: "outside"}), _VALUES),
    "empty": (lambda m, v, w: {}, _KEYS),
}


@st.composite
def certificates(draw):
    domain = Domain("D", ("a", "b", "c")[: draw(st.integers(1, 3))])
    attrs = draw(st.lists(st.sampled_from(("1", "2", "10", "t1", "x")),
                          min_size=2, max_size=3, unique=True))
    k = draw(st.integers(1, 2))
    cells = list(itertools.product(domain.elements, repeat=len(attrs)))
    rows = draw(st.sets(st.sampled_from(cells), max_size=domain.size ** k))
    return hypostatic_abstraction(Relation.make(domain, attrs, rows), k)


@settings(derandomize=True, max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(certificates(), st.sampled_from(sorted(VAR_MAP_TAMPERS)), st.data())
def test_a_tampered_var_map_gets_one_message_from_every_check(cert, name, data):
    tamper, message = VAR_MAP_TAMPERS[name]
    v, w = data.draw(st.permutations(sorted(cert.var_map)))[:2]
    tampered = tamper(cert.var_map, v, w)
    with pytest.raises(VerificationError) as refused:
        ReductionCertificate(cert.target, cert.formula, cert.env, tampered)
    assert str(refused.value) == message
    cert.var_map.clear()
    cert.var_map.update(tampered)
    with pytest.raises(VerificationError) as refused:
        cert.verify()
    assert str(refused.value) == message
    assert not check_certificate(cert).valid


def test_var_map_checks_run_in_order_before_evaluation(d2, monkeypatch):
    target = standard("identity", 2, d2)
    f, env = parse("P(x,y) & P(y,z)"), {"P": target}
    # every key is a free variable and every value an attribute, but x and
    # z share one: refused without an evaluation
    monkeypatch.setattr("relred.formula.evaluate", None)
    with pytest.raises(VerificationError, match="^var_map is not a bijection$"):
        ReductionCertificate(target, f, env, {"x": "1", "y": "2", "z": "1"})
    with pytest.raises(VerificationError, match="^var_map keys do not match free variables$"):
        ReductionCertificate(target, f, env, {"x": "1", "y": "outside"})


def test_a_closed_formula_for_a_non_0_ary_target_is_refused_on_construction(d2):
    with pytest.raises(VerificationError,
                       match="^closed formula cannot certify a non-0-ary target$"):
        ReductionCertificate(standard("identity", 2, d2), parse("exists y . U(y)"),
                             {"U": standard("universal", 1, d2)}, {})


def test_env_key_that_is_no_symbol_is_refused(tmp_path, d2):
    identity = standard("identity", 3, d2)
    path = save_certificate(key_reduction(identity, ["1"]), str(tmp_path / "bundle"))
    manifest = json.loads((tmp_path / "bundle" / "certificate.json").read_text())
    for key in ("../evil", "f1", "F 1", ""):
        changed = dict(manifest, env=dict(manifest["env"], **{key: "F1.rel"}))
        (tmp_path / "bundle" / "certificate.json").write_text(json.dumps(changed))
        with pytest.raises(ParseError) as refused:
            load_certificate(path)
        assert str(refused.value) == (
            f"certificate manifest 'env' key {key!r} is not a relation symbol")


@pytest.mark.parametrize("symbol", ("../evil", "F 1", "F(1)", "H\u00e9\""))
def test_bad_env_symbol_is_refused_before_the_bundle_directory_is_made(tmp_path, d2, symbol):
    identity = standard("identity", 2, d2)
    cert = ReductionCertificate(identity, parse("P(x,y)"), {"P": identity, symbol: identity},
                                {"x": "1", "y": "2"})
    with pytest.raises(PreconditionError) as refused:
        save_certificate(cert, str(tmp_path / "bundle"))
    assert str(refused.value) == f"bad relation symbol {symbol!r}"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name,message", [
    ("../evil", "bad relation name '../evil'"), ("a/b", "bad relation name 'a/b'"),
    ("T 1", "bad relation name 'T 1'"), (".", "bad relation name '.'"),
    # F1.rel would be written twice, the factor over the target
    ("F1", "target name 'F1' is also a factor symbol"),
])
def test_bad_target_name_is_refused_before_the_bundle_directory_is_made(
        tmp_path, d2, name, message):
    cert = key_reduction(standard("identity", 3, d2), ["1"])
    assert sorted(cert.env) == ["F1", "F2"]
    with pytest.raises(PreconditionError) as refused:
        save_certificate(cert, str(tmp_path / "bundle"), name)
    assert str(refused.value) == message
    assert list(tmp_path.iterdir()) == []


def test_bundle_files_longer_than_one_read_and_empty_are_read_whole(tmp_path):
    d = Domain("D", ("a", "b"))
    attrs = [str(i) for i in range(1, 13)]
    universal = Relation.make(d, attrs, itertools.product("ab", repeat=12))
    variables = [f"x{i}" for i in range(1, 13)]
    cert = ReductionCertificate(universal, parse(f"U({','.join(variables)})"),
                                {"U": universal}, dict(zip(variables, attrs)))
    path = save_certificate(cert, str(tmp_path / "bundle"))
    for fname in ("target.rel", "U.rel"):
        assert (tmp_path / "bundle" / fname).stat().st_size > _CHUNK
    loaded = load_certificate(path)  # the files are opened with O_NOFOLLOW
    assert loaded.target == loaded.env["U"] == universal
    target_file = tmp_path / "bundle" / "target.rel"
    assert _read_text(str(target_file), "target") == target_file.read_text()
    (tmp_path / "bundle" / "U.rel").write_text("")
    assert _read_text(str(tmp_path / "bundle" / "U.rel"), "U") == ""
    with pytest.raises(ParseError, match="^empty relation file$"):
        load_certificate(path)


def test_read_text_without_follow_opens_no_link(tmp_path):
    (tmp_path / "f.rel").write_text("text\n")
    (tmp_path / "link.rel").symlink_to(tmp_path / "f.rel")
    assert _read_text(str(tmp_path / "f.rel"), "f", follow=False) == "text\n"
    assert _read_text(str(tmp_path / "link.rel"), "f", follow=False) is None
    assert _read_text(str(tmp_path / "link.rel"), "f") == "text\n"
