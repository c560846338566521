"""Primitive positive formulas and their evaluation.

The fragment is atoms over named relation symbols, conjunction, and
existential quantification -- nothing else.  Grammar:

    formula := 'exists' varlist '.' formula | conj
    conj    := atom ('&' atom)*
    atom    := SYMBOL '(' var (',' var)* ')'

with variables ``[a-z][a-z0-9_]*`` and symbols ``[A-Z][A-Za-z0-9_]*``.
Names are validated where they enter: by ``parse``, which matches each
one against ``VAR_RE`` or ``SYMBOL_RE``, and by the public ``Atom``
constructor.  The atoms relred builds from names it has already checked
-- the parser's, the renamings of ``flatten``, and those of explication,
merging and the reducers -- are built by ``_atom``, unchecked.
Evaluation is extensional: an atom's arguments map positionally onto the
canonical attribute order of the relation bound to its symbol, repeated
variables select the diagonal, conjunction joins, and quantification
projects.  A formula is evaluated as one projoin: ``flatten`` renames its
bound variables apart and lists its atoms, each atom becomes a positional
part -- its arguments over its relation's rows, with no ``Relation``
built -- and the planned loop of ``core._projoin`` joins the parts
connected-first, smallest part first, dropping each bound variable once
no part left to join carries it.  ``Conj`` splices nested
conjunctions into one.

A certificate verifies by one evaluation, looking each row of the value up
in the target through the picker of ``var_map``'s renaming; no renamed copy
is built.  Text files are read with one unbuffered read and decoded as
text-mode ``open`` decodes them (``_read_text``); the relation files of one
bundle share one ``Domain`` per domain header, and the manifest is written
as the text ``json.dumps(manifest, indent=2, sort_keys=True)`` gives, built
directly.

A formula's structure is computed once per node: ``free_vars`` and
``flatten`` store their result on the frozen node the first time they are
asked (lazily, so ``parse`` pays nothing for it), outside the dataclass
fields, so ``==`` and ``hash`` do not see it.  A node shared between
formulas shares its structure too.
"""

from __future__ import annotations

import json
import locale
import os
import re
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

from . import core
from .core import Domain, Relation
from .errors import (
    DomainMismatchError,
    ParseError,
    PreconditionError,
    VerificationError,
)

VAR_RE = re.compile(r"[a-z][a-z0-9_]*")
SYMBOL_RE = re.compile(r"[A-Z][A-Za-z0-9_]*")


@dataclass(frozen=True)
class Atom:
    symbol: str
    args: tuple[str, ...]

    def __post_init__(self):
        if not SYMBOL_RE.fullmatch(self.symbol):
            raise PreconditionError(f"bad relation symbol {self.symbol!r}")
        for v in self.args:
            if not VAR_RE.fullmatch(v):
                raise PreconditionError(f"bad variable {v!r}")


def _atom(symbol: str, args: tuple[str, ...]) -> Atom:
    """The trusted constructor: an atom on a symbol and variables already
    known to be valid names, built without running ``__post_init__``."""
    atom = object.__new__(Atom)
    object.__setattr__(atom, "symbol", symbol)
    object.__setattr__(atom, "args", args)
    return atom


@dataclass(frozen=True)
class Conj:
    parts: tuple["Formula", ...]

    def __post_init__(self):
        if not self.parts:
            raise PreconditionError("empty conjunction")
        # a nested conjunction is spliced in, so conjunctions stay flat
        flat = (q for p in self.parts for q in (p.parts if isinstance(p, Conj) else (p,)))
        object.__setattr__(self, "parts", tuple(flat))


@dataclass(frozen=True)
class Exists:
    variables: frozenset[str]
    body: "Formula"

    def __post_init__(self):
        if not isinstance(self.variables, frozenset):
            object.__setattr__(self, "variables", frozenset(self.variables))
        if not self.variables:
            raise PreconditionError("exists needs at least one variable")
        dangling = self.variables - free_vars(self.body)
        if dangling:
            raise PreconditionError(
                f"quantifier binds variables not free in its body: {sorted(dangling)}"
            )


Formula = Union[Atom, Conj, Exists]


def free_vars(f: Formula) -> frozenset[str]:
    try:
        return f._free
    except AttributeError:
        pass
    if isinstance(f, Atom):
        free = frozenset(f.args)
    elif isinstance(f, Conj):
        free = frozenset().union(*map(free_vars, f.parts))
    else:
        free = free_vars(f.body) - f.variables
    object.__setattr__(f, "_free", free)
    return free


def bound_anywhere(f: Formula) -> frozenset[str]:
    if isinstance(f, Atom):
        return frozenset()
    if isinstance(f, Conj):
        return frozenset().union(*map(bound_anywhere, f.parts))
    return f.variables | bound_anywhere(f.body)


_VAR_KEY_RE = re.compile(r"([a-z]+?)(\d+)(_?\d*)")


def var_key(name: str):
    """Natural sort for variables: x2 before x10."""
    m = _VAR_KEY_RE.fullmatch(name)
    if m:
        return (m.group(1), int(m.group(2)), name)
    return (name, -1, name)


# ---------------------------------------------------------------------------
# Parsing / rendering
# ---------------------------------------------------------------------------


MAX_NESTING = 100
"""Deepest nesting of parentheses and quantifiers that ``parse`` accepts, so
that normalizing, rendering and evaluating stay well inside Python's stack."""


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str):
        raise ParseError(msg, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, token: str):
        self.skip_ws()
        if not self.text.startswith(token, self.pos):
            self.error(f"expected {token!r}")
        self.pos += len(token)

    def word(self, pattern: re.Pattern, what: str) -> str:
        self.skip_ws()
        m = pattern.match(self.text, self.pos)
        if not m:
            self.error(f"expected {what}")
        self.pos = m.end()
        return m.group()

    def at_keyword(self, kw: str) -> bool:
        self.skip_ws()
        end = self.pos + len(kw)
        return (
            self.text.startswith(kw, self.pos)
            and (end >= len(self.text) or not self.text[end].isalnum())
        )

    def formula(self, depth: int = 0) -> Formula:
        if depth > MAX_NESTING:
            self.error(f"formula nested more than {MAX_NESTING} levels deep")
        if self.at_keyword("exists"):
            self.eat("exists")
            variables = [self.word(VAR_RE, "variable")]
            while self.peek() not in (".", ""):
                if self.peek() == ",":
                    self.eat(",")
                variables.append(self.word(VAR_RE, "variable"))
            self.eat(".")
            return Exists(frozenset(variables), self.formula(depth + 1))
        return self.conj(depth)

    def conj(self, depth: int) -> Formula:
        parts = [self.primary(depth)]
        while self.peek() == "&":
            self.eat("&")
            if self.at_keyword("exists"):
                parts.append(self.formula(depth + 1))
            else:
                parts.append(self.primary(depth))
        return parts[0] if len(parts) == 1 else Conj(tuple(parts))

    def primary(self, depth: int) -> Formula:
        if self.peek() == "(":
            self.eat("(")
            inner = self.formula(depth + 1)
            self.eat(")")
            return inner
        return self.atom()

    def atom(self) -> Atom:
        symbol = self.word(SYMBOL_RE, "relation symbol")
        self.eat("(")
        args = [self.word(VAR_RE, "variable")]
        while self.peek() == ",":
            self.eat(",")
            args.append(self.word(VAR_RE, "variable"))
        self.eat(")")
        return _atom(symbol, tuple(args))


def parse(text: str) -> Formula:
    p = _Parser(text)
    f = p.formula()
    p.skip_ws()
    if p.pos != len(p.text):
        p.error("trailing input")
    return f


def render(f: Formula) -> str:
    if isinstance(f, Atom):
        return f"{f.symbol}({','.join(f.args)})"
    if isinstance(f, Conj):
        return " & ".join(
            render(p) if not isinstance(p, Exists) else "(" + render(p) + ")"
            for p in f.parts
        )
    body = render(f.body)
    return f"exists {' '.join(sorted(f.variables, key=var_key))} . {body}"


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

Environment = Mapping[str, Relation]


def env_domain(env: Environment) -> Domain:
    domains = {r.domain for r in env.values()}
    if len(domains) != 1:
        raise DomainMismatchError("environment relations span multiple domains")
    return next(iter(domains))


def evaluate(
    f: Formula,
    env: Environment,
    free_order: Optional[Sequence[str]] = None,
) -> Relation:
    """The relation of satisfying assignments, with variables as attributes.

    ``free_order``, when given, must list exactly the free variables of
    ``f``; it pins the external variable/position correspondence but does
    not affect the result (attribute order is never semantic).
    """
    params, atoms = flatten(f)
    free = {v for a in atoms for v in a.args}.difference(params)
    if free_order is not None and set(free_order) != free:
        raise PreconditionError("free_order does not match the formula's free variables")
    domain = env_domain(env)
    return core._projoin(domain, [_atom_part(a, env) for a in atoms], free)


def _atom_part(atom: Atom, env: Environment) -> tuple[tuple[str, ...], frozenset]:
    """One atom as a projoin part: its arguments over the rows of its
    symbol's relation, which are not copied; a repeated variable keeps the
    diagonal of its columns and only the first of them."""
    try:
        rel = env[atom.symbol]
    except KeyError:
        raise PreconditionError(f"unbound relation symbol {atom.symbol!r}") from None
    if rel.arity != len(atom.args):
        raise PreconditionError(
            f"arity mismatch: {atom.symbol} has arity {rel.arity}, atom has {len(atom.args)}"
        )
    if len(set(atom.args)) == len(atom.args):
        return atom.args, rel.rows
    first = {v: atom.args.index(v) for v in atom.args}  # in order of first use
    repeats = [(p, first[v]) for p, v in enumerate(atom.args) if first[v] != p]
    pick = core._picker(list(first.values()))
    rows = (r for r in rel.rows if all(r[p] == r[q] for p, q in repeats))
    return tuple(first), frozenset(map(pick, rows))


# ---------------------------------------------------------------------------
# Normal form: exists T . (A1 & ... & Am) with fresh, capture-free binders
# ---------------------------------------------------------------------------


class FreshNames:
    """Deterministic fresh-name supply avoiding a given used set."""

    def __init__(self, used):
        self.used = set(used)

    def fresh(self, base: str) -> str:
        if base not in self.used and VAR_RE.fullmatch(base):
            self.used.add(base)
            return base
        i = 1
        while f"{base}_{i}" in self.used:
            i += 1
        name = f"{base}_{i}"
        self.used.add(name)
        return name


def normalize(f: Formula) -> Formula:
    """Prenex form: one leading quantifier block over a flat conjunction
    of atoms, with bound variables renamed apart."""
    return prenex(*flatten(f))


def prenex(params: Sequence[str], atoms: Sequence[Atom]) -> Formula:
    """``exists params . A1 & ... & Am``, with no quantifier when ``params``
    is empty and no conjunction for a single atom."""
    body: Formula = atoms[0] if len(atoms) == 1 else Conj(tuple(atoms))
    return Exists(frozenset(params), body) if params else body


def flatten(f: Formula) -> tuple[tuple[str, ...], tuple[Atom, ...]]:
    """The (parameters, atoms) decomposition behind ``normalize``."""
    try:
        return f._flat
    except AttributeError:
        pass
    names = FreshNames(free_vars(f) | bound_anywhere(f))
    params: list[str] = []
    atoms: list[Atom] = []
    _flatten(f, {}, params, atoms, names)
    flat = tuple(params), tuple(atoms)
    object.__setattr__(f, "_flat", flat)
    return flat


def _flatten(f, subst, params, atoms, names):
    if isinstance(f, Atom):
        args = tuple(map(subst.get, f.args, f.args))
        atoms.append(f if args == f.args else _atom(f.symbol, args))
    elif isinstance(f, Conj):
        for p in f.parts:
            _flatten(p, subst, params, atoms, names)
    else:
        inner = dict(subst)
        for v in sorted(f.variables, key=var_key):
            fresh = names.fresh(v)
            inner[v] = fresh
            params.append(fresh)
        _flatten(f.body, inner, params, atoms, names)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassifyResult:
    kind: str  # cartesian | join | bond | pureProjoin | projoin
    is_bond: bool
    parameters: int
    factor_count: int
    factor_arities: tuple[int, ...]

    @property
    def max_factor_arity(self) -> int:
        return max(self.factor_arities, default=0)


def classify(f: Formula) -> ClassifyResult:
    """The most specific shape of a (normalized) primitive positive formula.

    A bond needs every variable in at most two atoms, exactly the
    two-atom variables bound, and no variable repeated inside an atom.
    Cartesian products count as bonds with zero parameters.
    """
    params, atoms = flatten(f)
    bound = set(params)
    atom_count = Counter(v for a in atoms for v in set(a.args))
    repeated_in_atom = any(len(set(a.args)) != len(a.args) for a in atoms)
    shared = {v for v, c in atom_count.items() if c >= 2}
    arities = tuple(len(a.args) for a in atoms)
    is_bond = (
        not repeated_in_atom
        and all(c <= 2 for c in atom_count.values())
        and shared == bound
    )
    if not params:
        kind = "cartesian" if not shared and not repeated_in_atom else "join"
    elif is_bond:
        kind = "bond"
    elif shared == bound:
        kind = "pureProjoin"
    else:
        kind = "projoin"
    return ClassifyResult(kind, is_bond, len(params), len(atoms), arities)


# ---------------------------------------------------------------------------
# Reduction certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReductionCertificate:
    """A formula plus factor environment whose evaluation equals the target.

    ``var_map`` is the bijection free variable -> target attribute; it is
    verified at construction time.
    """

    target: Relation
    formula: Formula
    env: dict[str, Relation]
    var_map: dict[str, str]

    def __post_init__(self):
        fv = free_vars(self.formula)
        if set(self.var_map) != set(fv):
            raise VerificationError("var_map keys do not match free variables")
        if set(self.var_map.values()) != set(self.target.attrs):
            raise VerificationError("var_map values do not match target scheme")
        if len(set(self.var_map.values())) != len(self.var_map):
            raise VerificationError("var_map is not a bijection")
        self.verify()

    def verify(self) -> None:
        """Raise unless the formula evaluates to the target.  The checks
        run in this order: a closed formula for a non-0-ary target, a value
        over another domain or with another row count, the renaming of the
        value's scheme by ``var_map`` (as ``core.rename`` checks it), and
        the renamed rows, each looked up in the target through one picker
        with no renamed copy built."""
        value = evaluate(self.formula, self.env)
        target = self.target
        if not value.attrs and target.attrs:
            raise VerificationError("closed formula cannot certify a non-0-ary target")
        if value.domain != target.domain or len(value) != len(target):
            raise VerificationError(_NOT_TARGET)
        if value.attrs:
            attrs, idx = core._renaming(value, self.var_map)
            same = attrs == target.attrs and all(
                map(target.rows.__contains__, map(core._picker(idx), value.rows)))
        else:
            same = value.rows == target.rows
        if not same:
            raise VerificationError(_NOT_TARGET)


_NOT_TARGET = "certificate formula does not evaluate to the target"


@dataclass(frozen=True)
class CertificateVerdict:
    valid: bool
    classification: Optional[ClassifyResult]
    factor_arities: tuple[int, ...]
    target_arity: int
    is_reduction: bool  # every factor arity strictly below the target's
    note: str = ""

    def to_json(self) -> str:
        return json.dumps(
            {
                "valid": self.valid,
                "kind": self.classification.kind if self.classification else None,
                "is_bond": self.classification.is_bond if self.classification else None,
                "parameters": self.classification.parameters if self.classification else None,
                "factor_arities": list(self.factor_arities),
                "target_arity": self.target_arity,
                "is_reduction": self.is_reduction,
                "note": self.note,
            }
        )


def check_certificate(cert: ReductionCertificate) -> CertificateVerdict:
    """Re-evaluate a certificate and report its shape.  Never raises:
    a tampered certificate yields ``valid=False``."""
    try:
        cert.verify()
        valid = True
    except Exception:
        valid = False
    return certificate_verdict(cert, valid)


def certificate_verdict(cert: ReductionCertificate, valid: bool) -> CertificateVerdict:
    """The verdict on ``cert`` given whether it evaluates to its target:
    its classification and factor arities, without evaluating it."""
    try:
        cls = classify(cert.formula)
        arities = cls.factor_arities
    except Exception:
        cls, arities = None, ()
    n = cert.target.arity if isinstance(cert.target, Relation) else 0
    is_reduction = bool(arities) and all(0 < a < n for a in arities)
    note = ""
    if valid and arities and not is_reduction:
        note = "decomposition but not a reduction"
    return CertificateVerdict(valid, cls, arities, n, is_reduction, note)


# ---------------------------------------------------------------------------
# Certificate files: a JSON manifest referencing relation files by
# relative path, plus the formula text and the variable map.
# ---------------------------------------------------------------------------


def _read_text(path: str, what: str) -> str:
    """The text of ``path`` as text-mode ``open`` reads it -- decoded in the
    locale's encoding, with universal newlines -- from one unbuffered read
    of the whole file.  A missing, unreadable or undecodable file, or a
    directory, is a ``ParseError`` naming ``what``, with ``open``'s message."""
    try:
        with open(path, "rb", buffering=0) as fh:
            data = fh.read()
        text = data.decode(locale.getpreferredencoding(False))
    except (OSError, ValueError) as e:
        raise ParseError(f"cannot read {what}: {e}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path``, rewriting an existing file in place.

    The file is opened without ``O_TRUNC`` and, when it was longer, cut to
    the length written afterwards, so it holds exactly ``text``.  On ext4
    (``auto_da_alloc``) closing a file that was truncated to zero starts
    its writeback, which made rewriting a small file several times dearer
    than writing it in place.  A pipe or a device reports size 0, so it is
    never truncated.  The text is encoded as text-mode ``open`` encodes it
    and written with ``os.write`` on the descriptor, no buffered file
    between, again after a partial write until every byte is out.
    """
    data = text.encode(locale.getpreferredencoding(False))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        longer = os.fstat(fd).st_size > len(data)
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if longer:
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def save_certificate(cert: ReductionCertificate, outdir: str, name: str = "target") -> str:
    """Write ``cert`` as a bundle in ``outdir`` and return the manifest path.

    Files already in ``outdir`` are rewritten in place (see ``_write_text``);
    files this bundle does not name, such as the factors of an earlier,
    larger bundle, are left as they are.  A write torn by a crash still
    leaves a bundle that ``load_certificate`` refuses or that verifies,
    because a certificate is checked when it is built.
    """
    os.makedirs(outdir, exist_ok=True)
    target_file = f"{name}.rel"
    _write_text(os.path.join(outdir, target_file), core.dump_relation(cert.target, name))
    env_files = {}
    for symbol in sorted(cert.env):
        fname = f"{symbol}.rel"
        _write_text(os.path.join(outdir, fname), core.dump_relation(cert.env[symbol], symbol))
        env_files[symbol] = fname
    formula_text = render(cert.formula)
    _write_text(os.path.join(outdir, "formula.txt"), formula_text + "\n")
    # the text of json.dumps(manifest, indent=2, sort_keys=True) + "\n",
    # without the pure-Python encoder that ``indent`` selects
    path = os.path.join(outdir, "certificate.json")
    _write_text(path, (
        f'{{\n  "env": {_json_strings(env_files)},\n'
        f'  "formula": {_quote(formula_text)},\n'
        f'  "target": {_quote(target_file)},\n'
        f'  "varmap": {_json_strings(cert.var_map)}\n}}\n'
    ))
    return path


_quote = json.encoder.encode_basestring_ascii


def _json_strings(mapping: Mapping[str, str]) -> str:
    """A string-to-string mapping as ``json.dumps(..., indent=2,
    sort_keys=True)`` writes it as the value of a top-level key."""
    if not mapping:
        return "{}"
    items = ",\n".join(f"    {_quote(k)}: {_quote(v)}" for k, v in sorted(mapping.items()))
    return f"{{\n{items}\n  }}"


def _bundle_file(base: str, fname: str) -> str:
    """The path of the bundle file ``fname`` in directory ``base``.

    The name is normalized lexically, so a leading ``..`` leaves the
    bundle; a symbolic link on the way is followed only when its target
    is inside the bundle.  Only links cost a ``realpath``.
    """
    if os.path.isabs(fname):
        raise ParseError(f"bundle path {fname!r} is absolute")
    path = base
    for part in os.path.normpath(fname).split(os.sep):
        path = os.path.join(path, part)
        if part == os.pardir or (
            os.path.islink(path) and not _inside(base, os.path.realpath(path))
        ):
            raise ParseError(f"bundle path {fname!r} leads out of the bundle directory")
    return path


def _inside(base: str, path: str) -> bool:
    base = os.path.realpath(base)
    return os.path.commonpath([base, path]) == base


_MANIFEST_KEYS = (
    ("target", str, "string"),
    ("formula", str, "string"),
    ("env", dict, "object"),
    ("varmap", dict, "object"),
)


def load_certificate(path: str) -> ReductionCertificate:
    """Read a bundle written by ``save_certificate``.

    A manifest that is not a JSON object of the expected shape, a missing
    or unreadable file, and a relation path that is absolute or leads out
    of the bundle directory are all ``ParseError``s.
    """
    what = f"certificate manifest {path!r}"
    try:
        manifest = json.loads(_read_text(path, what))
    except ValueError as e:
        raise ParseError(f"cannot read {what}: {e}") from None
    if not isinstance(manifest, dict):
        raise ParseError("certificate manifest is not a JSON object")
    for key, kind, json_kind in _MANIFEST_KEYS:
        if not isinstance(manifest.get(key), kind):
            raise ParseError(f"certificate manifest needs {key!r} as a JSON {json_kind}")
    for key in ("env", "varmap"):
        if not all(isinstance(v, str) for v in manifest[key].values()):
            raise ParseError(f"certificate manifest {key!r} values must be strings")
    base = os.path.dirname(os.path.abspath(path))
    domains: dict = {}  # one Domain per domain header in this bundle

    def load_rel(fname: str) -> Relation:
        text = _read_text(_bundle_file(base, fname), f"bundle file {fname!r}")
        return core.load_relation(text, domains)[1]

    target = load_rel(manifest["target"])
    env = {sym: load_rel(fname) for sym, fname in manifest["env"].items()}
    f = parse(manifest["formula"])
    return ReductionCertificate(target, f, env, dict(manifest["varmap"]))
