"""Constructive reduction procedures.

Each routine either returns a :class:`~relred.formula.ReductionCertificate`
(verified on construction) or raises :class:`ReductionRefused` carrying a
machine-readable reason for the hypothesis that failed.

Conventions shared by all reducers:

* target attributes in canonical order are carried by variables x1..xn;
* parameters are t1..tk, bound by a single leading quantifier block;
* factor symbols are F1, F2, ... in the order the factors are produced;
* whenever a construction involves labeling by parameter tuples, tuples of
  D^k are used in colex order (first coordinate varies fastest) and the
  labeled objects are taken in canonical order.

Every certificate is assembled by ``_certificate``.  Every k-parameter
construction -- hypostatic abstraction, the negated-join projoin,
union-to-projoin, and the certificates of the Boolean-rank and
one-parameter box deciders in ``analysis`` -- is one labeled union of joins
over fixed blocks, built by ``_labeled_union``.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from . import core, dependencies
from .core import Domain, Relation
from .errors import AttributeSchemeError, PreconditionError, ReductionRefused
from .formula import Atom, Conj, ReductionCertificate, _atom, prenex


def _target_vars(rel: Relation) -> dict[str, str]:
    """attr -> variable name, x1..xn along the canonical attribute order."""
    return {a: f"x{i + 1}" for i, a in enumerate(rel.attrs)}


def _colex_labels(domain: Domain, k: int):
    """All of D^k in colex order: first coordinate cycles fastest."""
    for combo in itertools.product(domain.elements, repeat=k):
        yield combo[::-1]


def _fresh_attrs(scheme: frozenset[str], k: int) -> tuple[str, ...]:
    out = []
    avoid = set(scheme)
    for i in range(1, k + 1):
        name = f"t{i}"
        while name in avoid:
            name += "_"
        avoid.add(name)
        out.append(name)
    return tuple(out)


def _certificate(
    target: Relation, env: dict[str, Relation], params: dict[str, str]
) -> ReductionCertificate:
    """The certificate exists P [F1(...) & F2(...) & ...] for the factors
    of ``env`` in order: target attributes are carried by x1..xn, and the
    other factor attributes by the variables P that ``params`` maps them to."""
    var = _target_vars(target)
    var_all = dict(var, **params)
    atoms = [
        _atom(symbol, tuple(var_all[a] for a in factor.attrs))
        for symbol, factor in env.items()
    ]
    f = prenex(tuple(params.values()), atoms)
    return ReductionCertificate(target, f, env, {v: a for a, v in var.items()})


def _projection_join(rel: Relation, schemes: Iterable[Iterable[str]]) -> ReductionCertificate:
    """The quantifier-free certificate F1 & F2 & ..., factor Fj the
    projection of ``rel`` onto the j-th of ``schemes``."""
    env = {f"F{j}": core.project(rel, scheme) for j, scheme in enumerate(schemes, start=1)}
    return _certificate(rel, env, {})


def _label_count(d: int, k: int) -> int:
    """d^k, the number of distinct k-parameter labels over d elements."""
    if k < 0:
        raise PreconditionError(f"parameter count k must be >= 0, got {k}")
    return d ** k


def _labeled_union(
    target: Relation,
    k: int,
    blocks: Sequence[tuple[str, ...]],
    terms: Iterable[Sequence[Iterable[tuple[str, ...]]]],
) -> ReductionCertificate:
    """The k-parameter projoin certificate for a union of joins over fixed
    ``blocks`` of target attributes.  Term j holds one set of value tuples
    per block, aligned with the block; it is labeled with the j-th tuple of
    D^k in colex order, and factor F{i+1} over t1..tk plus block i collects
    the labeled i-th pieces.  The caller guarantees at most d^k terms and
    values from validated relations or the target's domain, so factors are
    built trusted."""
    t_attrs = _fresh_attrs(target.scheme, k)
    # terms first: no label is drawn when there are no terms
    labeled = list(zip(terms, _colex_labels(target.domain, k)))
    env: dict[str, Relation] = {}
    for i, block in enumerate(blocks):
        given = t_attrs + block
        attrs = core.canonical_attrs(given)
        pick = core._picker([given.index(a) for a in attrs])
        rows = frozenset(
            pick(label + value) for term, label in labeled for value in term[i]
        )
        env[f"F{i + 1}"] = core._relation(target.domain, attrs, rows)
    return _certificate(target, env, {t: f"t{i + 1}" for i, t in enumerate(t_attrs)})


def _caterpillar(vs: Sequence[str], internals: Sequence[str]) -> list[Atom]:
    """Teridentity caterpillar identifying all of ``vs`` (len >= 3)
    through the len(vs) - 3 ``internals`` u1, u2, ...:
    I3(v1,v2,u1) & I3(u1,v3,u2) & ... -- exactly len(vs) - 2 atoms."""
    seq = [vs[0], vs[1]]
    for u, v in zip(internals, vs[2:-1]):
        seq += [u, v]
    seq.append(vs[-1])
    return [_atom("I3", tuple(seq[2 * i : 2 * i + 3])) for i in range(len(vs) - 2)]


def key_reduction(rel: Relation, key: Iterable[str]) -> ReductionCertificate:
    """Join decomposition through a key: factors are the projections onto
    the key plus one leftover attribute each.  Quantifier-free."""
    key_c = core.canonical_attrs(key)
    report = dependencies.is_key(rel, key_c)
    if not report.holds:
        raise ReductionRefused(
            "not_a_key",
            f"attributes {list(key_c)} are not a key",
            witness=report.witness,
        )
    rest = [a for a in rel.attrs if a not in set(key_c)]
    if not rest:
        raise ReductionRefused(
            "trivial",
            "key covers the whole scheme; nothing left to factor",
        )
    return _projection_join(rel, (set(key_c) | {i} for i in rest))


def fagin_decompose(
    rel: Relation, m: Iterable[str], blocks: Sequence[Iterable[str]]
) -> ReductionCertificate:
    """Join decomposition over a partition, available exactly when the
    multivalued dependency M ->> blocks holds."""
    m_c = core.canonical_attrs(m)
    report = dependencies.mvd_holds(rel, m_c, blocks)
    if not report.holds:
        raise ReductionRefused(
            "mvd_fails",
            f"{list(m_c)} ->> {[list(b) for b in report.rhs]} does not hold",
            witness=report.witness,
        )
    return _projection_join(rel, (set(m_c) | set(block) for block in report.rhs))


def hypostatic_abstraction(rel: Relation, k: int) -> ReductionCertificate:
    """Projoin decomposition into (k+1)-aries by hypostatic abstraction:
    label each tuple, a single-row product of its values, with its own
    parameter tuple, so that factor i pairs the labels with the i-th values
    and the labels are quantified away.

    Requires |R| <= d^k -- otherwise the labels cannot distinguish the
    tuples and no k-key augmentation exists.
    """
    if rel.arity == 0:
        raise ReductionRefused("trivial", "0-ary relations have nothing to factor")
    d = rel.domain.size
    labels = _label_count(d, k)
    if len(rel) > labels:
        raise ReductionRefused(
            "cardinality",
            f"|R| = {len(rel)} > {d}^{k} = {labels}: no k-key augmentation exists",
            size=len(rel),
            bound=labels,
        )
    # one single-row product per tuple, in sorted order
    terms = ([[(v,)] for v in row] for row in sorted(rel.rows))
    return _labeled_union(rel, k, [(a,) for a in rel.attrs], terms)


def neg_join_projoin(join_cert: ReductionCertificate, k: int) -> ReductionCertificate:
    """From a join certificate for R, a projoin certificate for the
    complement of R.

    The De Morgan disjuncts (one negated factor each) are indexed by
    distinct parameter tuples; factor i answers with its negation at its
    own label, is universal at the other labels, and empty elsewhere.
    Needs N <= d^k labels and k + l <= n - 1 for the result to be a
    reduction, l being the largest input factor arity.
    """
    f = join_cert.formula
    if isinstance(f, Atom):
        atoms: tuple[Atom, ...] = (f,)
    elif isinstance(f, Conj) and all(isinstance(p, Atom) for p in f.parts):
        atoms = f.parts  # type: ignore[assignment]
    else:
        raise ReductionRefused("not_join_cert", "input certificate is not quantifier-free")
    for a in atoms:
        if len(set(a.args)) != len(a.args):
            raise ReductionRefused(
                "not_join_cert", f"atom {a.symbol} repeats a variable"
            )
    target = join_cert.target
    d = target.domain.size
    n = target.arity
    big_n = len(atoms)
    max_arity = max(len(a.args) for a in atoms)
    labels = _label_count(d, k)
    if big_n > labels:
        raise ReductionRefused(
            "inequality",
            f"N = {big_n} > {d}^{k} = {labels}",
            violated="N <= d^k",
        )
    if k + max_arity > n - 1:
        raise ReductionRefused(
            "inequality",
            f"k + l = {k + max_arity} > n - 1 = {n - 1}: factors would not be a reduction",
            violated="k + l <= n - 1",
        )
    neg_target = core.complement(target)
    blocks, negated, universal = [], [], []
    for atom in atoms:
        block = core.canonical_attrs(join_cert.var_map[v] for v in atom.args)
        # the input factor carried over to the target's attribute names
        src = join_cert.env[atom.symbol]
        if len(atom.args) != src.arity:
            raise PreconditionError("atom/factor arity mismatch")
        # atom args are positional along the factor's canonical attribute order
        carried = core.rename(
            src,
            {old: join_cert.var_map[v] for old, v in zip(src.attrs, atom.args)},
        )
        blocks.append(block)
        negated.append(core.complement(carried).rows)
        universal.append(core.standard("universal", block, target.domain).rows)
    # disjunct j negates factor j and leaves the others universal
    terms = (
        [negated[i] if i == j else universal[i] for i in range(big_n)]
        for j in range(big_n)
    )
    return _labeled_union(neg_target, k, blocks, terms)


def union_to_projoin(
    products: Sequence[Sequence[Relation]], k: int
) -> ReductionCertificate:
    """Projoin certificate for a union of Cartesian products sharing one
    partition: each product gets a distinct parameter label, and factor i
    collects the labeled i-th blocks.  Needs at most d^k products."""
    if not products or not products[0]:
        raise PreconditionError("need at least one product with at least one factor")
    domain = core._same_domain([f for p in products for f in p])
    partition = tuple(f.scheme for f in products[0])
    ground: frozenset[str] = frozenset()
    for block in partition:
        if ground & block:
            raise AttributeSchemeError("product factors overlap")
        ground |= block
    for p in products:
        if tuple(f.scheme for f in p) != partition:
            raise ReductionRefused(
                "partition_mismatch", "products are not over a common partition"
            )
    d = domain.size
    labels = _label_count(d, k)
    if len(products) > labels:
        raise ReductionRefused(
            "too_many_terms",
            f"{len(products)} products > {d}^{k} = {labels}",
            terms=len(products),
            bound=labels,
        )
    target_attrs = core.canonical_attrs(ground)
    rows: set = set()
    for p in products:
        rows |= core.cartesian(list(p)).rows
    target = core._relation(domain, target_attrs, frozenset(rows))
    blocks = [core.canonical_attrs(block) for block in partition]
    terms = ([f.rows for f in p] for p in products)
    return _labeled_union(target, k, blocks, terms)


def identity_chain(n: int, domain: Domain) -> ReductionCertificate:
    """Bond certificate reducing the n-ary identity to a chain of n-2
    teridentities: I3(x1,x2,t1) & I3(t1,x3,t2) & ... & I3(t_{n-3},x_{n-1},x_n)."""
    if n < 3:
        raise ReductionRefused("arity", f"identity chain needs n >= 3, got {n}")
    target = core.standard("identity", n, domain)
    i3 = core.standard("identity", 3, domain)
    xs = [f"x{i}" for i in range(1, n + 1)]
    ts = [f"t{i}" for i in range(1, n - 2)]
    f = prenex(ts, _caterpillar(xs, ts))
    env = {"I3": i3}
    var_map = {x: str(i + 1) for i, x in enumerate(xs)}
    return ReductionCertificate(target, f, env, var_map)
