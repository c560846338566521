"""Attributed relations over finite domains.

A relation is a set of tuples over a *scheme* (a finite attribute set),
with every tuple drawing its values from one shared domain.  Tuples are
stored as value vectors aligned with a canonical ordering of the scheme;
the ordering is a storage convention only and never carries meaning.

All values are immutable; every operation returns a fresh relation.

Values are validated where they enter: ``Domain(...)`` checks its name and
element symbols, and the public ``Relation(...)`` constructor -- hence also
``Relation.make`` and ``load_relation``, which end in it -- checks the
attribute names and order, every row's length and every value's domain
membership, once per relation: the lengths and values by one set test each,
and a relation failing one is walked row by row to raise on its first bad
row or value.  ``load_relation`` checks row lengths first, so that a bad row
is a ``ParseError`` naming its line in the text, and builds one ``Domain``
per domain header across the texts of one bundle.  The
operators (``project``, ``select``, ``rename``, ``complement``, ``standard``,
``projoin`` and what is built on them) trust their validated inputs and
build results with ``_relation``, unchecked; a derived scheme is filtered
out of a canonical one, not re-sorted.

Every join goes through one planned loop, ``_projoin``: it sorts
positional ``(attributes, rows)`` parts by size once, starts from the
first part's rows, joins the parts connected-first in that order, keeps
only the columns still needed at each step (early projection), filters
the rows where a part adds no column, and sorts the result to canonical
order once, at the end.  ``projoin`` feeds it relations, and
``formula.evaluate`` and ``diagrams.merge_complete`` feed it atoms, so a
natural join's result never depends on the order its parts are given in.

``projection_sizes`` is the one table of projection cardinalities, read by
the product, key and universality tests of ``analysis`` and ``dependencies``.

The domain-size cap (checked by ``Domain``) and the arity cap on D^Sigma
enumeration (``complement``, ``standard`` universal and diversity) are read
from ``caps.current()``: ``Caps()``, or the caps the CLI reads once per run,
or those of the caller's ``caps.using`` block.
"""

from __future__ import annotations

import functools
import itertools
import os
import re
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter, lt
from typing import AbstractSet, Collection, Iterable, Iterator, Mapping, Optional, Sequence

from .caps import current
from .errors import (
    AttributeSchemeError,
    BondabilityError,
    CapExceededError,
    DomainMismatchError,
    ParseError,
    PreconditionError,
    SchemeCollisionError,
)

_NAME_RE = re.compile(r"^[^\s#(),|]+$")


def attr_key(name: str):
    """Canonical sort key: numeric names sort numerically, the rest lexically."""
    if name.isdigit():
        return (0, int(name), name)
    return (1, 0, name)


def _check_names(names: Iterable[str], what: str) -> None:
    """Refuse a name the ``.rel`` format cannot carry, ``.`` included."""
    for name in names:
        if name == "." or not _NAME_RE.fullmatch(name):
            raise PreconditionError(f"bad {what} {name!r}")


def canonical_attrs(attrs: Iterable[str]) -> tuple[str, ...]:
    out = sorted(attrs, key=attr_key)
    if len(set(out)) < len(out):
        a = next(a for a, b in zip(out, out[1:]) if a == b)
        raise AttributeSchemeError(f"duplicate attribute {a!r}")
    return tuple(out)


@dataclass(frozen=True)
class Domain:
    """A named finite set of element symbols with a fixed display order.

    ``_members`` holds the elements as a frozenset for O(1) membership.
    """

    name: str
    elements: tuple[str, ...]

    def __post_init__(self):
        if not self.elements:
            raise PreconditionError("domain must have at least one element")
        if len(set(self.elements)) != len(self.elements):
            raise PreconditionError("domain elements must be distinct")
        _check_names((self.name,), "domain name")
        _check_names(self.elements, "element symbol")
        max_domain = current().max_domain
        if len(self.elements) > max_domain:
            raise CapExceededError(
                f"domain size {len(self.elements)} exceeds cap {max_domain}"
            )
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "_members", frozenset(self.elements))

    @property
    def size(self) -> int:
        return len(self.elements)

    def __contains__(self, element: str) -> bool:
        return element in self._members


@dataclass(frozen=True)
class Relation:
    """An attributed relation: scheme + tuple set over a domain.

    ``attrs`` is the scheme in canonical order and each row is a value
    vector aligned with it.  The two 0-ary relations are FALSE (no rows)
    and TRUE (the single empty row).
    """

    domain: Domain
    attrs: tuple[str, ...]
    rows: frozenset[tuple[str, ...]] = field(default_factory=frozenset)

    def __post_init__(self):
        _check_names(self.attrs, "attribute name")
        keys = [*map(attr_key, self.attrs)]
        if not isinstance(self.attrs, tuple) or not all(map(lt, keys, keys[1:])):
            canonical_attrs(self.attrs)  # raises on a duplicate
            raise AttributeSchemeError("attributes not in canonical order; use Relation.make")
        arity = len(self.attrs)
        members = self.domain._members
        # one length test and one set test; only a failing relation is then
        # walked row by row, to raise on its first bad row or value
        if set(map(len, self.rows)) - {arity} or not members.issuperset(
                itertools.chain.from_iterable(self.rows)):
            for row in self.rows:
                if len(row) != arity:
                    raise AttributeSchemeError("row length does not match scheme")
                for v in row:
                    if v not in members:
                        raise PreconditionError(f"value {v!r} not in domain {self.domain.name!r}")

    @staticmethod
    def make(
        domain: Domain,
        attrs: Iterable[str],
        rows: Iterable[Sequence[str] | Mapping[str, str]] = (),
    ) -> "Relation":
        """Build a relation, accepting rows as sequences (in the given
        attribute order) or as attribute->value mappings."""
        given = tuple(attrs)
        canon = canonical_attrs(given)
        pick = _picker([given.index(a) for a in canon])
        out = set()
        for row in rows:
            if isinstance(row, Mapping):
                if set(row) != set(canon):
                    raise AttributeSchemeError("row bindings do not match scheme")
                out.add(tuple(row[a] for a in canon))
            else:
                if len(row) != len(given):
                    raise AttributeSchemeError("row length does not match scheme")
                out.add(pick(row))
        return Relation(domain, canon, frozenset(out))

    @property
    def scheme(self) -> frozenset[str]:
        return frozenset(self.attrs)

    @property
    def arity(self) -> int:
        return len(self.attrs)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[dict[str, str]]:
        for row in sorted(self.rows):
            yield dict(zip(self.attrs, row))


def _relation(domain: Domain, attrs: tuple[str, ...], rows: frozenset) -> Relation:
    """The trusted constructor: a relation from fields the caller has
    already validated (canonical ``attrs``, rows of matching length with
    values in ``domain``), built without running ``__post_init__``."""
    rel = object.__new__(Relation)
    object.__setattr__(rel, "domain", domain)
    object.__setattr__(rel, "attrs", attrs)
    object.__setattr__(rel, "rows", rows)
    return rel


def _picker(idx: Sequence[int]):
    """A function taking a row to the tuple of its values at ``idx``."""
    if not idx:
        return lambda row: ()
    if len(idx) == 1:
        i = idx[0]
        return lambda row: (row[i],)
    return itemgetter(*idx)


def true_relation(domain: Domain) -> Relation:
    return Relation(domain, (), frozenset({()}))


def false_relation(domain: Domain) -> Relation:
    return Relation(domain, (), frozenset())


def _same_domain(relations: Sequence[Relation]) -> Domain:
    if not relations:
        raise PreconditionError("need at least one relation")
    domain = relations[0].domain
    for r in relations[1:]:
        if r.domain != domain:
            raise DomainMismatchError(
                f"domains {domain.name!r} and {r.domain.name!r} differ"
            )
    return domain


def standard(
    kind: str,
    scheme: Iterable[str] | int,
    domain: Domain,
    restrict: Optional[Iterable[str]] = None,
) -> Relation:
    """One of the standard relations: empty, universal, identity (all
    members equal) or diversity (members pairwise distinct), optionally
    relativized to a subset of the domain.

    ``scheme`` may be an int n, which stands for attributes "1".."n".
    """
    if isinstance(scheme, int):
        scheme = [str(i + 1) for i in range(scheme)]
    attrs = canonical_attrs(scheme)
    _check_names(attrs, "attribute name")
    if restrict is None:
        pool: tuple[str, ...] = domain.elements
    else:
        pool = tuple(e for e in domain.elements if e in set(restrict))
        if len(pool) != len(set(restrict)):
            raise PreconditionError("restrict is not a subset of the domain")
    n = len(attrs)
    if kind in ("universal", "diversity"):
        _check_enumerable(n)
    if kind == "empty":
        rows: Iterable[tuple[str, ...]] = ()
    elif kind == "universal":
        rows = itertools.product(pool, repeat=n)
    elif kind == "identity":
        rows = ((e,) * n for e in pool) if n else [()]
    elif kind == "diversity":
        rows = itertools.permutations(pool, n) if n else [()]
    else:
        raise PreconditionError(f"unknown standard relation kind {kind!r}")
    return _relation(domain, attrs, frozenset(rows))


def _wanted(attrs: Iterable[str], scheme: Iterable[str]) -> frozenset[str]:
    """``attrs`` as a set, refusing a duplicate or a name outside ``scheme``."""
    given = tuple(attrs)
    want = frozenset(given)
    if len(want) != len(given):
        dup = min((a for a in want if given.count(a) > 1), key=attr_key)
        raise AttributeSchemeError(f"duplicate attribute {dup!r}")
    missing = want.difference(scheme)
    if missing:
        raise AttributeSchemeError(f"attributes {sorted(missing)} not in scheme")
    return want


def project(rel: Relation, keep: Iterable[str]) -> Relation:
    want = _wanted(keep, rel.attrs)
    attrs = tuple(a for a in rel.attrs if a in want)
    pick = _picker([rel.attrs.index(a) for a in attrs])
    return _relation(rel.domain, attrs, frozenset(map(pick, rel.rows)))


def projection_sizes(rel: Relation):
    """The row count of each projection of ``rel``, as a function of an attribute
    tuple in canonical order, each counted once, and without building a relation."""

    @functools.cache
    def size(attrs: tuple[str, ...]) -> int:
        return len(set(map(_picker([rel.attrs.index(a) for a in attrs]), rel.rows)))

    return size


def select(rel: Relation, on: Iterable[str], values: Mapping[str, str] | Sequence[str]) -> Relation:
    """Keep rows whose ``on`` columns equal ``values``, then drop those
    columns; the result scheme is the complement of ``on``."""
    on_set = _wanted(on, rel.attrs)
    on_attrs = tuple(a for a in rel.attrs if a in on_set)
    if isinstance(values, Mapping):
        want = tuple(values[a] for a in on_attrs)
    else:
        if len(values) != len(on_attrs):
            raise AttributeSchemeError("selection tuple length mismatch")
        want = tuple(values)
    rest = tuple(a for a in rel.attrs if a not in on_set)
    pick_on = _picker([rel.attrs.index(a) for a in on_attrs])
    pick_rest = _picker([rel.attrs.index(a) for a in rest])
    rows = frozenset(pick_rest(row) for row in rel.rows if pick_on(row) == want)
    return _relation(rel.domain, rest, rows)


def _check_enumerable(arity: int) -> None:
    # the cap guards D^Sigma enumeration, not relation construction:
    # join intermediates may be wider than any enumerated scheme
    max_arity = current().max_arity
    if arity > max_arity:
        raise CapExceededError(f"arity {arity} exceeds enumeration cap {max_arity}")


def complement(rel: Relation) -> Relation:
    _check_enumerable(rel.arity)
    everything = itertools.product(rel.domain.elements, repeat=rel.arity)
    rows = frozenset(row for row in everything if row not in rel.rows)
    return _relation(rel.domain, rel.attrs, rows)


def rename(rel: Relation, mapping: Mapping[str, str]) -> Relation:
    """Rename attributes via a bijection on the scheme."""
    new_attrs, idx = _renaming(rel, mapping)
    return _relation(rel.domain, new_attrs, frozenset(map(_picker(idx), rel.rows)))


def _renaming(rel: Relation, mapping: Mapping[str, str]) -> tuple[tuple[str, ...], list[int]]:
    """The checked scheme of ``rename(rel, mapping)``, and the position in
    ``rel``'s rows of each of its attributes' values."""
    if set(mapping) != rel.scheme or len(set(mapping.values())) != rel.arity:
        raise AttributeSchemeError("rename mapping is not a bijection on the scheme")
    new_attrs = canonical_attrs(mapping.values())
    _check_names(new_attrs, "attribute name")
    src = {mapping[a]: i for i, a in enumerate(rel.attrs)}
    return new_attrs, [src[a] for a in new_attrs]


def cartesian(relations: Sequence[Relation]) -> Relation:
    """Concatenate tuples of relations on pairwise disjoint schemes.

    Overlap is an error by design: the product of relations sharing
    attributes is undefined, and callers wanting matching semantics must
    use ``join``.
    """
    _same_domain(relations)
    seen: set[str] = set()
    for r in relations:
        clash = seen & r.scheme
        if clash:
            raise SchemeCollisionError(f"schemes overlap on {sorted(clash)}")
        seen |= r.scheme
    return join(relations)


def join(relations: Sequence[Relation]) -> Relation:
    """Natural join: concatenations of tuples that agree on shared attributes."""
    return projoin(relations, {a for r in relations for a in r.attrs})


def projoin(relations: Sequence[Relation], keep: Iterable[str]) -> Relation:
    """Projective join: the natural join projected to ``keep``.  Every join
    goes through here, and through the one planned loop of ``_projoin``."""
    domain = _same_domain(relations)
    want = _wanted(keep, {a for r in relations for a in r.attrs})
    return _projoin(domain, [(r.attrs, r.rows) for r in relations], want)


def _projoin(
    domain: Domain,
    parts: Sequence[tuple[tuple[str, ...], AbstractSet[tuple[str, ...]]]],
    keep: Collection[str],
) -> Relation:
    """The one join loop, on ``(attributes, rows)`` parts: a set of rows,
    each a tuple aligned with its part's attributes, which are distinct, in
    any order.  ``keep`` lies in the union of the parts' attributes.

    The parts are ordered once, by a stable sort on their row counts.  The
    result starts as the first part's rows (TRUE when there is no part),
    projected only when it drops a column; each later step joins the first
    part in that order that shares an attribute with the result so far, or
    else the first part left.  So the smallest part of each connected chain
    starts it, ties going to the earlier part, and every chain is
    contracted before a Cartesian step (greedy contraction, Gray & Kourtis
    2021).  A step hashes the part on the shared columns and builds rows
    holding only the columns still needed -- kept, or carried by a part not
    yet joined -- so joining and early projection (Yannakakis 1981) are one
    pass, and rows are re-picked only when a column drops.  Every column so
    far is still needed at the start of a step, so a step whose part's
    columns are all bound and all stay needed is a filter: it keeps the
    rows whose values on them are a row of the part (most steps of a join
    of projections).  Intermediate columns stay positional; the result is
    put in canonical attribute order once, at the end."""
    uses: dict[str, int] = {}  # how many parts not yet joined carry each attribute
    for part_attrs, _ in parts:
        for a in part_attrs:
            uses[a] = uses.get(a, 0) + 1
    order = sorted(parts, key=lambda part: len(part[1]))
    attrs, rows = order.pop(0) if order else ((), {()})
    for a in attrs:
        uses[a] -= 1
    head = [k for k, a in enumerate(attrs) if a in keep or uses[a]]
    if len(head) < len(attrs):
        rows = set(map(_picker(head), rows))
        attrs = tuple(attrs[k] for k in head)
    pos = {a: k for k, a in enumerate(attrs)}  # the column of each attribute of ``attrs``
    while order:
        for i, (part_attrs, part_rows) in enumerate(order):
            if not pos.keys().isdisjoint(part_attrs):
                break
        else:
            i = 0
        part_attrs, part_rows = order.pop(i)
        shared: list[int] = []
        extra: list[int] = []
        drops = False  # whether a shared column is needed no more
        for k, a in enumerate(part_attrs):
            uses[a] -= 1
            needed = a in keep or uses[a]
            if a in pos:
                shared.append(k)
                drops = drops or not needed
            elif needed:
                extra.append(k)
        if len(shared) == len(part_attrs) and not drops:
            key = _picker([pos[a] for a in part_attrs])
            rows = list(itertools.compress(rows, map(part_rows.__contains__, map(key, rows))))
            continue
        # the hash key: one shared column's bare value, or a tuple of several
        if shared:
            key = itemgetter(*[pos[part_attrs[k]] for k in shared])
            part_key = itemgetter(*shared)
        else:
            key = part_key = _picker(())
        part_extra = _picker(extra)
        index: dict[object, list[tuple[str, ...]]] = {}
        for row in part_rows:
            index.setdefault(part_key(row), []).append(part_extra(row))
        starts = rows
        if drops:
            head = [k for k, a in enumerate(attrs) if a in keep or uses[a]]
            starts = map(_picker(head), rows)
            attrs = tuple(attrs[k] for k in head)
        out: set[tuple[str, ...]] = set()
        for row_key, start in zip(map(key, rows), starts):
            tails = index.get(row_key)
            if tails:
                for tail in tails:
                    out.add(start + tail)
        attrs += tuple(part_attrs[k] for k in extra)
        rows = out
        pos = {a: k for k, a in enumerate(attrs)}
    final = tuple(sorted(attrs, key=attr_key))  # ``attrs`` are distinct
    if final != attrs:
        rows = frozenset(map(_picker([pos[a] for a in final]), rows))
    return _relation(domain, final, frozenset(rows))


def relative_product(a: Relation, b: Relation) -> Relation:
    """Projoin keeping the symmetric difference of the two schemes; on
    binaries over {x,y} and {y,z} this is relation composition."""
    keep = (a.scheme | b.scheme) - (a.scheme & b.scheme)
    return projoin([a, b], keep)


def bond_eval(relations: Sequence[Relation]) -> Relation:
    """Bond: projoin with every shared attribute projected out.

    Requires bondability -- no attribute may occur in three or more
    factor schemes.
    """
    _same_domain(relations)
    counts = Counter(a for r in relations for a in r.attrs)
    bad = sorted(a for a, c in counts.items() if c > 2)
    if bad:
        raise BondabilityError(f"attributes {bad} occur in three or more schemes")
    keep = [a for a, c in counts.items() if c == 1]
    return projoin(relations, keep)


def equal_relations(a: Relation, b: Relation) -> bool:
    if a.domain != b.domain:
        raise DomainMismatchError("cannot compare relations over different domains")
    return a.attrs == b.attrs and a.rows == b.rows


# ---------------------------------------------------------------------------
# Text format
#
#   @relation NAME over DOMAIN(e1,e2,...)
#   attr1 attr2 ...          (the single token "." for a 0-ary scheme)
#   v1 v2 ...                (one tuple per line; "." for the empty tuple)
#
# '#' starts a comment; blank lines are ignored.  dump() emits attributes
# in canonical order and rows sorted, so dump(load(text)) is stable.
# ---------------------------------------------------------------------------

_HEADER_RE = re.compile(
    r"^@relation\s+(?P<name>\S+)\s+over\s+(?P<dom>[^\s(]+)\((?P<elems>[^)]*)\)\s*$"
)


def _check_relation_name(name: str) -> None:
    """Refuse a relation name the ``.rel`` header cannot carry, or one with
    a path separator (``save_certificate`` makes the name a file stem)."""
    _check_names((name,), "relation name")
    if os.sep in name:
        raise PreconditionError(f"bad relation name {name!r}")


def dump_relation(rel: Relation, name: str = "R") -> str:
    _check_relation_name(name)
    lines = [
        f"@relation {name} over {rel.domain.name}({','.join(rel.domain.elements)})",
        " ".join(rel.attrs) if rel.attrs else ".",
    ]
    for row in sorted(rel.rows):
        lines.append(" ".join(row) if row else ".")
    return "\n".join(lines) + "\n"


def load_relation(text: str, domains: Optional[dict] = None) -> tuple[str, Relation]:
    """The name and relation of a ``.rel`` text.  Row lengths are checked
    first, so that a bad row is a ``ParseError`` naming its line; the rows
    are then put in canonical attribute order and validated once, by the
    ``Relation`` constructor.  ``domains``, when given, holds the
    ``Domain`` of each domain header text already read, and is shared by
    the calls of one caller, so that the texts of one bundle validate each
    of their domains once.  Line numbers are counted only for an error."""
    strip = (lambda raw: raw.split("#", 1)[0].strip()) if "#" in text else str.strip
    lines = [*filter(None, map(strip, text.splitlines()))]  # the lines with content
    if not lines:
        raise ParseError("empty relation file")
    m = _HEADER_RE.match(lines[0])
    if not m:
        raise ParseError(f"bad header line: {lines[0]!r}")
    domains = {} if domains is None else domains
    spec = m.group("dom", "elems")
    domain = domains.get(spec)
    if domain is None:
        elements = tuple([e.strip() for e in spec[1].split(",") if e.strip()])
        domain = domains[spec] = Domain(spec[0], elements)
    if len(lines) < 2:
        raise ParseError("missing attribute line")
    attrs = () if lines[1] == "." else tuple(lines[1].split())
    rows = [*map(tuple, map(str.split, lines[2:]))]
    if (".",) in rows:  # the empty row; no value is "."
        rows = [() if row == (".",) else row for row in rows]
    if set(map(len, rows)) - {len(attrs)}:
        numbers = [number for number, line in enumerate(map(strip, text.splitlines()), 1)
                   if line]
        number, row = next((number, row) for number, row in zip(numbers[2:], rows)
                           if len(row) != len(attrs))
        raise ParseError(
            f"line {number}: row length {len(row)} does not match "
            f"scheme of arity {len(attrs)}"
        )
    canon = canonical_attrs(attrs)
    if canon != attrs:
        rows = map(_picker([attrs.index(a) for a in canon]), rows)
    return m.group("name"), Relation(domain, canon, frozenset(rows))
