"""Primitive positive formulas and their evaluation.

The fragment is atoms over named relation symbols, conjunction, and
existential quantification -- nothing else.  Grammar:

    formula := 'exists' varlist '.' formula | conj
    conj    := atom ('&' atom)*
    atom    := SYMBOL '(' var (',' var)* ')'

with variables ``[a-z][a-z0-9_]*`` and symbols ``[A-Z][A-Za-z0-9_]*``.
``parse`` reads the tokens of one regular-expression scan of the text
(``_TOKEN_RE``): a whole well-formed atom, read as one token, or else a
punctuation mark, a maximal word or a stray character.  It keeps no
position: an error scans the text again to find where its token starts,
so the messages and positions are those of a character walk that skips
white space before each token (``tests/oracles.py`` keeps that walk as
the reference the parser is tested against).  ``exists`` is
the keyword unless a letter or digit follows it, so ``exists_x`` is the
keyword before ``_x``.  Names are validated where they enter: by
``parse``, whose tokens are the names ``VAR_RE`` and ``SYMBOL_RE`` match,
and by the public ``Atom`` constructor.  The atoms relred builds from
names it has already checked -- the parser's, the renamings of
``flatten``, and those of explication, merging and the reducers -- are
built by ``_atom``, unchecked.
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

A certificate has one check, ``ReductionCertificate.verify``, which its
constructor runs and ``check_certificate`` runs again.  In order, it
refuses a closed formula for a non-0-ary target, then a ``var_map`` whose
keys are not the free variables, whose values are not the target's scheme,
or that sends two variables to one attribute, all before evaluating; then
it evaluates once and looks each row of the value up in the target through
one picker: for each target column, in the target's own order, the value
column of the variable ``var_map`` sends to it; no renamed copy is built
and no scheme sorted.  Every refusal is a ``VerificationError``.

Text files are opened with ``os.open`` and read whole with ``os.read``,
decoded as text-mode ``open`` decodes them (``_read_text``).  A bundle
file whose name has one component, as every name ``save_certificate``
writes, is opened once with ``O_NOFOLLOW``; only a symbolic link takes the
checked walk of ``_bundle_file``.  The relation files of one bundle share
one ``Domain`` per domain header, and the manifest is written as the text
``json.dumps(manifest, indent=2, sort_keys=True)`` gives, built directly.

A formula's structure is computed once per node: ``free_vars`` and
``flatten`` store their result on the frozen node the first time they are
asked (``Exists`` asks for its body's free variables when it is built),
outside the dataclass fields, so ``==`` and ``hash`` do not see it; a
conjunction reads its atoms' variables off them and stores nothing on
them.  A node shared between formulas shares its structure too.
"""

from __future__ import annotations

import errno
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
        # an atom part's variables are read off it, with nothing stored on it
        free = frozenset().union(*[p.args if type(p) is Atom else free_vars(p) for p in f.parts])
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


_TOKEN_RE = re.compile(
    r"\s*(([A-Z][A-Za-z0-9_]*)\s*\(\s*([a-z][a-z0-9_]*(?:\s*,\s*[a-z][a-z0-9_]*)*)\s*\)"
    r"|[(),.&]|[a-z][a-z0-9_]*|[A-Z][A-Za-z0-9_]*|\S)"
)
"""One token after optional white space (``\\s`` is the white space of
``str.isspace``): a whole atom, with its symbol and its argument list as
groups, or else a punctuation mark, a maximal variable-shaped word, a
maximal symbol-shaped word, or any other single character."""
_LOWER = frozenset("abcdefghijklmnopqrstuvwxyz")
_UPPER = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ")
_END = ("", "", "")


class _Parser:
    """Recursive descent over the ``(token, symbol, arguments)`` triples of
    one ``_TOKEN_RE`` scan, ended by the sentinel ``_END``.  No position is
    kept: ``error`` finds the position of the current token by scanning the
    text again."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _TOKEN_RE.findall(text)
        self.tokens.append(_END)
        self.i = 0

    def error(self, msg: str, shift: int = 0, after_previous: bool = False):
        """Raise ``msg`` at the start of the current token plus ``shift``,
        or at the end of the token before it."""
        spans = self.spans()
        if after_previous:
            pos = spans[self.i - 1][1]
        else:
            pos = (spans[self.i][0] if self.i < len(spans) else len(self.text)) + shift
        raise ParseError(msg, pos)

    def spans(self) -> list[tuple[int, int]]:
        return [m.span(1) for m in _TOKEN_RE.finditer(self.text)]

    def glued(self, i: int) -> bool:
        """Whether the ``exists`` that starts token ``i`` runs on into a
        letter or digit, so that it is no keyword (inside the token only
        ``_`` can follow it, which is no letter)."""
        end = self.spans()[i][0] + len("exists")
        return self.text[end:end + 1].isalnum()

    def at_exists(self) -> bool:
        # ``exists_x`` is the keyword followed by ``_x``, as in the grammar
        tok = self.tokens[self.i][0]
        return tok == "exists" or tok.startswith("exists_")

    def eat(self, token: str):
        if self.tokens[self.i][0] != token:
            self.error(f"expected {token!r}")
        self.i += 1

    def var(self) -> str:
        tok = self.tokens[self.i][0]
        if tok[:1] not in _LOWER:
            self.error("expected variable")
        self.i += 1
        return tok

    def formula(self, depth: int = 0) -> Formula:
        if depth > MAX_NESTING:
            msg = f"formula nested more than {MAX_NESTING} levels deep"
            if self.tokens[self.i - 1][0] != "&":  # after '.' or '('
                self.error(msg, after_previous=True)
            self.error("expected relation symbol" if self.glued(self.i) else msg)
        if not self.at_exists():
            return self.conj(depth)
        tokens, start = self.tokens, self.i
        if tokens[start][0] != "exists":
            self.error("expected variable", shift=len("exists"))
        self.i += 1
        if tokens[self.i][0][:1] not in _LOWER and self.glued(start):
            # ``existsX`` is no keyword, and no symbol starts with ``e``
            self.i = start
            self.error("expected relation symbol")
        variables = [self.var()]
        while tokens[self.i][0] not in (".", ""):
            if tokens[self.i][0] == ",":
                self.i += 1
            variables.append(self.var())
        self.eat(".")
        return Exists(frozenset(variables), self.formula(depth + 1))

    def conj(self, depth: int) -> Formula:
        parts = [self.primary(depth)]
        while self.tokens[self.i][0] == "&":
            self.i += 1
            parts.append(self.formula(depth + 1) if self.at_exists() else self.primary(depth))
        return parts[0] if len(parts) == 1 else Conj(tuple(parts))

    def primary(self, depth: int) -> Formula:
        tok, symbol, args = self.tokens[self.i]
        if symbol:  # a whole atom; ``str.strip`` drops the white space ``\s`` matches
            self.i += 1
            return _atom(symbol, tuple(map(str.strip, args.split(","))))
        if tok == "(":
            self.i += 1
            inner = self.formula(depth + 1)
            self.eat(")")
            return inner
        self.malformed_atom()

    def malformed_atom(self):
        """Raise at the first token of an atom that is no whole-atom token
        (a symbol or a variable list the atom pattern does not match)."""
        if self.tokens[self.i][0][:1] not in _UPPER:
            self.error("expected relation symbol")
        self.i += 1
        self.eat("(")
        self.var()
        while self.tokens[self.i][0] == ",":
            self.i += 1
            self.var()
        self.eat(")")
        raise AssertionError("a well-formed atom is one token")  # pragma: no cover


def parse(text: str) -> Formula:
    p = _Parser(text)
    f = p.formula()
    if p.tokens[p.i][0]:
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

    ``var_map`` is the bijection free variable -> target attribute.  Building
    a certificate verifies it: ``verify`` is its one check.
    """

    target: Relation
    formula: Formula
    env: dict[str, Relation]
    var_map: dict[str, str]

    def __post_init__(self):
        self.verify()

    def verify(self) -> None:
        """Raise ``VerificationError`` unless the formula evaluates to the
        target.  The checks run in this order: a closed formula for a
        non-0-ary target; ``var_map``'s keys not the free variables, its
        values not the target's scheme, two variables sent to one
        attribute; then one evaluation, whose value must be over the
        target's domain with its row count, and whose rows are each looked
        up in the target through one picker that reads, for each target
        column, the value column of its variable."""
        target = self.target
        free = free_vars(self.formula)
        if not free and target.attrs:
            raise VerificationError("closed formula cannot certify a non-0-ary target")
        if self.var_map.keys() != free:
            raise VerificationError("var_map keys do not match free variables")
        var_of = {a: v for v, a in self.var_map.items()}  # the inverse
        if var_of.keys() != set(target.attrs):
            raise VerificationError("var_map values do not match target scheme")
        if len(var_of) != len(self.var_map):
            raise VerificationError("var_map is not a bijection")
        value = evaluate(self.formula, self.env)
        if value.domain != target.domain or len(value) != len(target):
            raise VerificationError(_NOT_TARGET)
        column = {v: k for k, v in enumerate(value.attrs)}
        pick = core._picker([column[var_of[a]] for a in target.attrs])
        if not all(map(target.rows.__contains__, map(pick, value.rows))):
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


_CHUNK = 1 << 16  # bytes asked of each ``os.read``
_NOFOLLOW = os.O_RDONLY | os.O_NOFOLLOW


def _read_text(path: str, what: str, follow: bool = True) -> Optional[str]:
    """The text of ``path`` as text-mode ``open`` reads it -- decoded in the
    locale's encoding, with universal newlines.  The file is opened once
    with ``os.open`` and read with ``os.read`` on the descriptor until it
    ends, with none of the ``fstat`` calls of a file object.  A missing,
    unreadable or undecodable file, or a directory, is a ``ParseError``
    naming ``what``, with ``open``'s message.

    With ``follow`` false the file is opened with ``O_NOFOLLOW``: when the
    last component of ``path`` is a symbolic link (``ELOOP``) nothing is
    read and the result is None."""
    try:
        try:
            fd = os.open(path, os.O_RDONLY if follow else _NOFOLLOW)
        except OSError as e:
            if e.errno == errno.ELOOP and not follow:
                return None
            raise
        try:
            chunks = []
            while chunk := os.read(fd, _CHUNK):
                chunks.append(chunk)
        except IsADirectoryError:
            # ``open`` refuses a directory by name, before it reads
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path) from None
        finally:
            os.close(fd)
        text = b"".join(chunks).decode(locale.getpreferredencoding(False))
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
    because a certificate is checked when it is built.  The target's name
    (a relation name without a path separator, and no factor's symbol) and
    each factor's symbol (a ``SYMBOL_RE`` symbol, as ``load_certificate``
    reads it), which name the relation files, are checked before ``outdir``
    is made, so a refused bundle writes nothing.
    """
    core._check_relation_name(name)
    for symbol in cert.env:
        if not SYMBOL_RE.fullmatch(symbol):
            raise PreconditionError(f"bad relation symbol {symbol!r}")
    if name in cert.env:  # the factor's file would overwrite the target's
        raise PreconditionError(f"target name {name!r} is also a factor symbol")
    if not os.path.isdir(outdir):  # one stat, where makedirs fails a mkdir
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
    ``load_certificate`` walks a name here when it has more than one
    component, or when its one component is a symbolic link, which the
    ``O_NOFOLLOW`` open of ``_read_text`` refused.
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

    A manifest that is not a JSON object of the expected shape, an ``env``
    key that is not a relation symbol (``SYMBOL_RE``), a missing or
    unreadable file, and a relation path that is absolute or leads out of
    the bundle directory are all ``ParseError``s.
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
    for symbol in manifest["env"]:
        if not SYMBOL_RE.fullmatch(symbol):
            raise ParseError(f"certificate manifest 'env' key {symbol!r} is not a relation symbol")
    base = os.path.dirname(os.path.abspath(path))
    prefix = os.path.join(base, "")  # + a one-component name is their join
    domains: dict = {}  # one Domain per domain header in this bundle

    def load_rel(fname: str) -> Relation:
        what = f"bundle file {fname!r}"
        text = None
        if os.sep not in fname and fname not in ("", os.curdir, os.pardir):
            # a name in the bundle directory itself, read unless it is a link
            text = _read_text(prefix + fname, what, follow=False)
        if text is None:
            text = _read_text(_bundle_file(base, fname), what)
        return core.load_relation(text, domains)[1]

    target = load_rel(manifest["target"])
    env = {sym: load_rel(fname) for sym, fname in manifest["env"].items()}
    f = parse(manifest["formula"])
    return ReductionCertificate(target, f, env, dict(manifest["varmap"]))
