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
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from . import core, dependencies
from .core import Domain, Relation
from .errors import AttributeSchemeError, PreconditionError, ReductionRefused
from .formula import Atom, Conj, Exists, Formula, ReductionCertificate


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


def _wrap(params: Sequence[str], atoms: Sequence[Atom]) -> Formula:
    body: Formula = atoms[0] if len(atoms) == 1 else Conj(tuple(atoms))
    return Exists(frozenset(params), body) if params else body


def _caterpillar(vs: Sequence[str], internals: Sequence[str]) -> list[Atom]:
    """Teridentity caterpillar identifying all of ``vs`` (len >= 3)
    through the len(vs) - 3 ``internals`` u1, u2, ...:
    I3(v1,v2,u1) & I3(u1,v3,u2) & ... -- exactly len(vs) - 2 atoms."""
    seq = [vs[0], vs[1]]
    for u, v in zip(internals, vs[2:-1]):
        seq += [u, v]
    seq.append(vs[-1])
    return [Atom("I3", tuple(seq[2 * i : 2 * i + 3])) for i in range(len(vs) - 2)]


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
    var = _target_vars(rel)
    env: dict[str, Relation] = {}
    atoms = []
    for j, i in enumerate(rest, start=1):
        factor = core.project(rel, set(key_c) | {i})
        symbol = f"F{j}"
        env[symbol] = factor
        atoms.append(Atom(symbol, tuple(var[a] for a in factor.attrs)))
    f = _wrap((), atoms)
    return ReductionCertificate(rel, f, env, {v: a for a, v in var.items()})


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
    var = _target_vars(rel)
    env: dict[str, Relation] = {}
    atoms = []
    for j, block in enumerate(report.rhs, start=1):
        factor = core.project(rel, set(m_c) | set(block))
        symbol = f"F{j}"
        env[symbol] = factor
        atoms.append(Atom(symbol, tuple(var[a] for a in factor.attrs)))
    f = _wrap((), atoms)
    return ReductionCertificate(rel, f, env, {v: a for a, v in var.items()})


def hypostatic_abstraction(rel: Relation, k: int) -> ReductionCertificate:
    """Projoin decomposition into (k+1)-aries by hypostatic abstraction:
    attach k fresh attributes labeling the tuples, key-reduce the
    augmented relation, and quantify the labels away.

    Requires |R| <= d^k -- otherwise the labels cannot distinguish the
    tuples and no k-key augmentation exists.
    """
    if rel.arity == 0:
        raise ReductionRefused("trivial", "0-ary relations have nothing to factor")
    d = rel.domain.size
    if len(rel) > d ** k:
        raise ReductionRefused(
            "cardinality",
            f"|R| = {len(rel)} > {d}^{k} = {d ** k}: no k-key augmentation exists",
            size=len(rel),
            bound=d ** k,
        )
    t_attrs = _fresh_attrs(rel.scheme, k)
    labels = itertools.islice(_colex_labels(rel.domain, k), len(rel))
    augmented_rows = []
    for label, row in zip(labels, sorted(rel.rows)):
        augmented_rows.append(dict(zip(t_attrs, label)) | dict(zip(rel.attrs, row)))
    augmented = Relation.make(rel.domain, t_attrs + rel.attrs, augmented_rows)
    var = _target_vars(rel)
    params = [f"t{i + 1}" for i in range(k)]
    var_all = dict(var, **dict(zip(t_attrs, params)))
    env: dict[str, Relation] = {}
    atoms = []
    for j, i in enumerate(rel.attrs, start=1):
        factor = core.project(augmented, set(t_attrs) | {i})
        symbol = f"F{j}"
        env[symbol] = factor
        atoms.append(Atom(symbol, tuple(var_all[a] for a in factor.attrs)))
    f = _wrap(params, atoms)
    return ReductionCertificate(rel, f, env, {v: a for a, v in var.items()})


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
    if big_n > d ** k:
        raise ReductionRefused(
            "inequality",
            f"N = {big_n} > {d}^{k} = {d ** k}",
            violated="N <= d^k",
        )
    if k + max_arity > n - 1:
        raise ReductionRefused(
            "inequality",
            f"k + l = {k + max_arity} > n - 1 = {n - 1}: factors would not be a reduction",
            violated="k + l <= n - 1",
        )
    neg_target = core.complement(target)
    t_attrs = _fresh_attrs(target.scheme, k)
    labels = list(itertools.islice(_colex_labels(target.domain, k), big_n))
    var = _target_vars(neg_target)
    params = [f"t{i + 1}" for i in range(k)]
    var_all = dict(var, **dict(zip(t_attrs, params)))
    env: dict[str, Relation] = {}
    out_atoms = []
    for j, atom in enumerate(atoms):
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
        negated = core.complement(carried)
        universal = core.standard("universal", block, target.domain)
        rows = []
        for li, label in enumerate(labels):
            source = negated if li == j else universal
            for r in source:
                rows.append(dict(zip(t_attrs, label)) | r)
        factor = Relation.make(target.domain, t_attrs + block, rows)
        symbol = f"F{j + 1}"
        env[symbol] = factor
        out_atoms.append(Atom(symbol, tuple(var_all[a] for a in factor.attrs)))
    out = _wrap(params, out_atoms)
    return ReductionCertificate(neg_target, out, env, {v: a for a, v in var.items()})


def union_to_projoin(
    products: Sequence[Sequence[Relation]], k: int
) -> ReductionCertificate:
    """Projoin certificate for a union of Cartesian products sharing one
    partition: each product gets a distinct parameter label, and factor i
    collects the labeled i-th blocks.  Needs at most d^k products."""
    if not products or not products[0]:
        raise PreconditionError("need at least one product with at least one factor")
    domain = products[0][0].domain
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
    if len(products) > d ** k:
        raise ReductionRefused(
            "too_many_terms",
            f"{len(products)} products > {d}^{k} = {d ** k}",
            terms=len(products),
            bound=d ** k,
        )
    target_attrs = core.canonical_attrs(ground)
    rows: set = set()
    for p in products:
        rows |= core.cartesian(list(p)).rows
    target = core._relation(domain, target_attrs, frozenset(rows))
    t_attrs = _fresh_attrs(ground, k)
    labels = list(itertools.islice(_colex_labels(domain, k), len(products)))
    var = _target_vars(target)
    params = [f"t{i + 1}" for i in range(k)]
    var_all = dict(var, **dict(zip(t_attrs, params)))
    env: dict[str, Relation] = {}
    atoms = []
    for i, block in enumerate(partition):
        factor_rows = []
        for label, p in zip(labels, products):
            for r in p[i]:
                factor_rows.append(dict(zip(t_attrs, label)) | r)
        factor = Relation.make(
            domain, t_attrs + core.canonical_attrs(block), factor_rows
        )
        symbol = f"F{i + 1}"
        env[symbol] = factor
        atoms.append(Atom(symbol, tuple(var_all[a] for a in factor.attrs)))
    f = _wrap(params, atoms)
    return ReductionCertificate(target, f, env, {v: a for a, v in var.items()})


def identity_chain(n: int, domain: Domain) -> ReductionCertificate:
    """Bond certificate reducing the n-ary identity to a chain of n-2
    teridentities: I3(x1,x2,t1) & I3(t1,x3,t2) & ... & I3(t_{n-3},x_{n-1},x_n)."""
    if n < 3:
        raise ReductionRefused("arity", f"identity chain needs n >= 3, got {n}")
    target = core.standard("identity", n, domain)
    i3 = core.standard("identity", 3, domain)
    xs = [f"x{i}" for i in range(1, n + 1)]
    ts = [f"t{i}" for i in range(1, n - 2)]
    f = _wrap(ts, _caterpillar(xs, ts))
    env = {"I3": i3}
    var_map = {x: str(i + 1) for i, x in enumerate(xs)}
    return ReductionCertificate(target, f, env, var_map)
