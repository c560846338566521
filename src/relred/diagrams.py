"""Projoin graphs, bonding diagrams, bond graphs, explication, merging,
and ternarity accounting.

The graph pipeline mirrors the formula pipeline: a normalized projoin
formula gives a bipartite projoin graph; collapsing bivalent attribute
vertices gives the bonding diagram; adding terminal vertices at loose
ends gives the bond graph, a plain multigraph whose degree statistics
bound ternarity from below.

Ternarity is bounded from above by bonds the certify pipeline builds: a
supplied certificate counts as the ternary factors of
``merge_complete(explicate_certificate(cert))``, a bond that verified when
it was built.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

from . import analysis, core, dependencies
from .core import Relation
from .errors import CapExceededError, PreconditionError
from .formula import (
    Atom,
    Formula,
    FreshNames,
    ReductionCertificate,
    SYMBOL_RE,
    _atom,
    _atom_part,
    classify,
    evaluate,  # unused here; the benchmark's tracer tests read diagrams.evaluate
    flatten,
    free_vars,
    prenex,
    var_key,
)
from .reducers import _caterpillar


# ---------------------------------------------------------------------------
# Projoin graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProjoinGraph:
    """Bipartite graph of a normalized projoin formula: predicate vertices
    (one per atom) vs attribute vertices (one per variable), with one edge
    per slot occurrence -- a variable repeated in an atom yields parallel
    edges."""

    atoms: tuple[Atom, ...]
    free: tuple[str, ...]
    bound: tuple[str, ...]
    edges: tuple[tuple[int, str], ...]  # (atom index, variable), one per slot

    def degree(self, var: str) -> int:
        return sum(1 for _, v in self.edges if v == var)

    def valency(self, var: str) -> int:
        """Graph degree, plus one for free attribute vertices (their stem)."""
        return self.degree(var) + (1 if var in self.free else 0)


def build_projoin_graph(f: Formula) -> ProjoinGraph:
    params, atoms = flatten(f)
    fv = sorted(free_vars(f), key=var_key)
    edges = tuple(
        (i, v) for i, atom in enumerate(atoms) for v in atom.args
    )
    return ProjoinGraph(atoms, tuple(fv), params, edges)


# ---------------------------------------------------------------------------
# Bonding diagrams
# ---------------------------------------------------------------------------

# Edge endpoints: ("P", atom index) for predicate vertices, ("V", variable)
# for surviving attribute vertices, None for the open end of a hanging edge.
End = Optional[tuple[str, object]]


@dataclass(frozen=True)
class BondingDiagram:
    predicates: tuple[Atom, ...]
    branch_points: tuple[str, ...]  # surviving attribute vertices, valency > 1
    dead_ends: tuple[str, ...]      # surviving bound vertices of valency 1
    edges: tuple[tuple[End, End, str], ...]  # (end, end, variable label)

    @property
    def is_bond_diagram(self) -> bool:
        return not self.branch_points


def to_bonding_diagram(g: ProjoinGraph) -> BondingDiagram:
    """Collapse bivalent attribute vertices: a bound vertex of degree two
    becomes an edge between its predicates (a self-loop when both slots
    are in one atom), a free vertex of valency two becomes a hanging
    edge.  Everything else survives as a branch point or dead end."""
    edges: list[tuple[End, End, str]] = []
    branch: list[str] = []
    dead: list[str] = []
    all_vars = list(g.free) + [v for v in g.bound if v not in g.free]
    for v in sorted(all_vars, key=var_key):
        slots = [i for i, w in g.edges if w == v]
        if v in g.free:
            if len(slots) == 1:
                edges.append((("P", slots[0]), None, v))
            else:
                branch.append(v)
                for i in slots:
                    edges.append((("P", i), ("V", v), v))
                edges.append((("V", v), None, v))  # the stem
        else:
            if len(slots) == 2:
                edges.append((("P", slots[0]), ("P", slots[1]), v))
            elif len(slots) == 1:
                dead.append(v)
                edges.append((("P", slots[0]), ("V", v), v))
            else:
                branch.append(v)
                for i in slots:
                    edges.append((("P", i), ("V", v), v))
    return BondingDiagram(g.atoms, tuple(branch), tuple(dead), tuple(edges))


# ---------------------------------------------------------------------------
# Bond graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BondGraph:
    """Unlabeled multigraph statistics of a bonding diagram with terminal
    vertices placed at the loose ends."""

    V: int
    E: int
    C: int  # cyclomatic number, E - V + K
    K: int
    I: int    # degree-1 vertices
    II: int   # degree-2 vertices
    III: int  # degree-3 vertices
    max_degree: int

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def bond_graph_stats(diagram: BondingDiagram) -> BondGraph:
    vertices: list = [("P", i) for i in range(len(diagram.predicates))]
    vertices += [("V", v) for v in diagram.branch_points]
    vertices += [("V", v) for v in diagram.dead_ends]
    edges = []
    for t, (a, b, label) in enumerate(diagram.edges):
        if b is None:
            term = ("T", t)
            vertices.append(term)
            edges.append((a, term))
        else:
            edges.append((a, b))
    index = {v: i for i, v in enumerate(vertices)}
    parent = list(range(len(vertices)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    degree = [0] * len(vertices)
    for a, b in edges:
        ia, ib = index[a], index[b]
        degree[ia] += 1
        degree[ib] += 1  # a self-loop contributes two to its vertex
        parent[find(ia)] = find(ib)
    big_v, big_e = len(vertices), len(edges)
    big_k = len({find(i) for i in range(big_v)})
    big_c = big_e - big_v + big_k
    one = sum(1 for d in degree if d == 1)
    two = sum(1 for d in degree if d == 2)
    three = sum(1 for d in degree if d == 3)
    maxdeg = max(degree, default=0)
    assert big_v - big_e + big_c - big_k == 0
    if maxdeg <= 3:
        assert one + 2 * two + 3 * three == 2 * big_e
        assert three - one == 2 * (big_c - big_k)
    return BondGraph(big_v, big_e, big_c, big_k, one, two, three, maxdeg)


# ---------------------------------------------------------------------------
# Bond explication
# ---------------------------------------------------------------------------


def _fresh_symbol(base: str, used: set[str]) -> str:
    name = base
    i = 1
    while name in used or not SYMBOL_RE.fullmatch(name):
        i += 1
        name = f"{base}{i}"
    used.add(name)
    return name


def _is_identity(rel: Relation, arity: int) -> bool:
    return rel.arity == arity and rel.rows == frozenset(
        (e,) * arity for e in rel.domain.elements
    )


def _identity_symbol(arity: int, env: dict[str, Relation], domain) -> str:
    """Symbol bound to the identity of the given arity, adding it under
    its usual name (or a variant if that name is taken by something else)."""
    want = f"I{arity}"
    for name in itertools.chain((want,), (f"{want}_{i}" for i in range(2, 100))):
        bound = env.get(name)
        if bound is None:
            env[name] = core.standard("identity", arity, domain)
            return name
        if _is_identity(bound, arity):
            return name
    raise PreconditionError("could not allocate an identity symbol")


def explicate(f: Formula, env: dict[str, Relation]) -> tuple[Formula, dict[str, Relation]]:
    """Convert a projoin formula into a bond: absorb variables confined to
    a single atom into projected factors, and split every remaining
    multi-slot variable into per-slot copies tied together by a
    teridentity chain.  Evaluation is preserved; the returned environment
    extends the given one with the teridentity and the projected factors.
    """
    params, atoms = flatten(f)
    bound = set(params)
    out_env = dict(env)
    used_symbols = set(out_env)
    atom_of: dict[str, set[int]] = {}
    for i, atom in enumerate(atoms):
        for v in atom.args:
            atom_of.setdefault(v, set()).add(i)

    # pass 1: absorb confined bound variables (dead ends and within-atom
    # identifications) into projected factors
    new_atoms: list[Atom] = []
    for i, atom in enumerate(atoms):
        confined = {
            v for v in set(atom.args)
            if v in bound and atom_of[v] == {i}
        }
        if not confined:
            new_atoms.append(atom)
            continue
        rel = out_env[atom.symbol]
        if rel.arity != len(atom.args):
            raise PreconditionError(f"arity mismatch on {atom.symbol}")
        keep_pos = [p for p, v in enumerate(atom.args) if v not in confined]
        if not keep_pos:
            raise PreconditionError(
                f"factor {atom.symbol} is a redundant closed component"
            )
        # identify the columns of each repeated confined variable, then
        # project all confined columns out
        rows = rel.rows
        for v in confined:
            pos = [p for p, w in enumerate(atom.args) if w == v]
            rows = frozenset(r for r in rows if len({r[p] for p in pos}) == 1)
        narrowed = core._relation(rel.domain, rel.attrs, rows)
        projected = core.project(narrowed, [rel.attrs[p] for p in keep_pos])
        symbol = _fresh_symbol(f"{atom.symbol}_tilde", used_symbols)
        out_env[symbol] = projected
        new_atoms.append(_atom(symbol, tuple(atom.args[p] for p in keep_pos)))

    # pass 2: split multi-slot variables and chain them with teridentities
    names = FreshNames(set(atom_of) | bound | set(free_vars(f)))
    domain = next(iter(out_env.values())).domain
    chain_atoms: list[Atom] = []
    final_params = []
    rewritten = [list(a.args) for a in new_atoms]
    slots_of: dict[str, list[tuple[int, int]]] = {}
    for i, args in enumerate(rewritten):
        for p, v in enumerate(args):
            slots_of.setdefault(v, []).append((i, p))
    for v in sorted(slots_of, key=var_key):
        slots = slots_of[v]
        if v in bound:
            if len(slots) <= 2 and len({i for i, _ in slots}) == len(slots):
                final_params.append(v)
                continue
            chain = []
        elif len(slots) == 1:
            continue
        else:
            chain = [v]  # a free variable is tied to its copies
        copies = [names.fresh(v) for _ in slots]
        for (i, p), c in zip(slots, copies):
            rewritten[i][p] = c
        chain += copies
        inner = [names.fresh(v) for _ in range(len(chain) - 3)]
        chain_atoms += _caterpillar(chain, inner)
        final_params += copies + inner
    if chain_atoms:
        _identity_symbol(3, out_env, domain)
    body_atoms = [_atom(a.symbol, tuple(args)) for a, args in zip(new_atoms, rewritten)]
    body_atoms += chain_atoms
    return prenex(final_params, body_atoms), out_env


def explicate_certificate(cert: ReductionCertificate) -> ReductionCertificate:
    f, env = explicate(cert.formula, cert.env)
    return ReductionCertificate(cert.target, f, env, dict(cert.var_map))


# ---------------------------------------------------------------------------
# De-explication
# ---------------------------------------------------------------------------


def de_explicate(
    f: Formula, env: dict[str, Relation]
) -> tuple[Formula, dict[str, Relation]]:
    """Remove teridentity atoms from a bond by merging their three
    variables into one, emitting binary identities where two free
    variables were being identified."""
    if not classify(f).is_bond:
        raise PreconditionError("de-explication expects a bond formula")
    params, atoms = flatten(f)
    params = list(params)
    atoms = list(atoms)
    out_env = dict(env)
    fv = free_vars(f)
    i2_symbol: Optional[str] = None
    while True:
        target = None
        for idx, atom in enumerate(atoms):
            if (
                len(atom.args) == 3
                and len(set(atom.args)) == 3
                and _is_identity(out_env[atom.symbol], 3)
            ):
                target = idx
                break
        if target is None:
            break
        members = atoms.pop(target).args
        free_members = sorted((v for v in members if v in fv), key=var_key)
        rep = free_members[0] if free_members else sorted(members, key=var_key)[0]
        subst = {}
        for v in members:
            if v == rep:
                continue
            if v in fv:
                if i2_symbol is None:
                    i2_symbol = _identity_symbol(
                        2, out_env, out_env[next(iter(out_env))].domain
                    )
                atoms.append(_atom(i2_symbol, (rep, v)))
            else:
                subst[v] = rep
                params.remove(v)
        if subst:
            atoms = [
                _atom(a.symbol, tuple(subst.get(v, v) for v in a.args)) for a in atoms
            ]
    used = {v for a in atoms for v in a.args}
    dangling = [p for p in params if p not in used]
    if dangling:
        raise PreconditionError(
            f"redundant closed component around {dangling}"
        )
    return prenex(params, atoms), out_env


# ---------------------------------------------------------------------------
# Merging
# ---------------------------------------------------------------------------


def merge_complete(cert: ReductionCertificate) -> ReductionCertificate:
    """Trim a subternaric bond certificate by relative-product merges:
    multiedge pairs, bound unaries, and binaries sharing one bound
    variable are merged away.  Two ternaries sharing an attribute are
    never merged (the product would be a quaternary).  The result is
    subternaric, evaluates to the same target, and has at most as many
    ternary factors as the input."""
    cls = classify(cert.formula)
    if not cls.is_bond:
        raise PreconditionError("merge expects a bond certificate")
    if cls.max_factor_arity > 3:
        raise PreconditionError("merge expects a subternaric certificate")
    params, atoms = flatten(cert.formula)
    params = list(params)
    atoms = list(atoms)
    env = dict(cert.env)
    used_symbols = set(env)
    ternaries_in = sum(1 for a in atoms if len(a.args) == 3)

    def shared_bound(a: Atom, b: Atom) -> list[str]:
        return [v for v in a.args if v in b.args and v in params]

    def merge(i: int, j: int, over: list[str]):
        a, b = atoms[i], atoms[j]
        merged_arity = len(a.args) + len(b.args) - 2 * len(over)
        if merged_arity == 0:
            raise PreconditionError(
                f"merging {a.symbol} and {b.symbol} leaves a redundant closed component"
            )
        value = core._projoin(
            env[a.symbol].domain,
            [_atom_part(a, env), _atom_part(b, env)],
            (set(a.args) | set(b.args)).difference(over),
        )
        symbol = _fresh_symbol("M", used_symbols)
        env[symbol] = value
        new_atom = _atom(symbol, value.attrs)  # attrs are the variable names
        del atoms[max(i, j)]
        del atoms[min(i, j)]
        atoms.append(new_atom)
        for v in over:
            params.remove(v)

    def find_merge():
        # multiedges first, then unaries and binaries over one bound
        # variable, unaries first and each by position
        for i, j in itertools.combinations(range(len(atoms)), 2):
            over = shared_bound(atoms[i], atoms[j])
            if len(over) >= 2:
                return i, j, over
        small = [i for i, atom in enumerate(atoms) if len(atom.args) <= 2]
        for i in sorted(small, key=lambda i: len(atoms[i].args)):
            for v in atoms[i].args:
                if v in params:
                    for j, other in enumerate(atoms):
                        if j != i and v in other.args:
                            return i, j, [v]
        return None

    while True:
        found = find_merge()
        if found is None:
            break
        merge(*found)
    ternaries_out = sum(1 for a in atoms if len(a.args) == 3)
    assert ternaries_out <= ternaries_in
    assert all(len(a.args) <= 3 for a in atoms)
    atoms.sort(key=lambda a: (a.symbol, a.args))
    out = prenex(params, atoms)
    needed = {a.symbol for a in atoms}
    out_env = {s: r for s, r in env.items() if s in needed}
    return ReductionCertificate(cert.target, out, out_env, dict(cert.var_map))


# ---------------------------------------------------------------------------
# Ternarity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TernarityReport:
    arity: int
    lower: int
    upper: Optional[int]
    parity: int  # arity mod 2
    evidence: tuple[dict, ...] = ()

    def __post_init__(self):
        if self.upper is not None and self.lower > self.upper:
            raise PreconditionError("ternarity interval is empty")

    @property
    def exact(self) -> Optional[int]:
        return self.lower if self.lower == self.upper else None

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def ternarity_bounds(
    rel: Relation,
    certificates: Sequence[ReductionCertificate] = (),
) -> TernarityReport:
    """Interval [lower, upper] for the minimal number of ternaries in a
    subternaric bond reduction, from degeneracy, key admission, parity,
    the two-ternary oracle (quaternaries), and any supplied certificates.

    Each certificate is explicated into a bond and merged; if no factor
    of the bond has arity above 3, the merged bond's ternary count is an
    upper bound.  A certificate that explication or merging refuses (a
    redundant closed component) gives no bound and is reported
    "skipped"; one with a wider factor gives neither.
    """
    n = rel.arity
    evidence: list[dict] = []
    if n <= 2:
        return TernarityReport(n, 0, 0, n % 2, ({"test": "arity<=2", "value": 0},))
    blocks = analysis.finest_factorization(rel)
    nondegenerate = len(blocks) == 1
    lower = (
        n - 2 if nondegenerate else sum(max(len(b) - 2, 0) for b in blocks)
    )
    evidence.append(
        {
            "test": "degeneracy",
            "nondegenerate": nondegenerate,
            "blocks": [list(b) for b in blocks],
            "lower": lower,
        }
    )
    has_unary_factor = any(len(b) == 1 for b in blocks)
    d = rel.domain.size
    uppers: list[int] = []
    if n == 3:
        uppers.append(1)
        evidence.append({"test": "ternary-self", "upper": 1})
    if len(rel) <= d:
        uppers.append(n - 2)
        evidence.append({"test": "admits-1-key", "upper": n - 2})
    else:
        if dependencies.find_keys(rel, 2):
            uppers.append(3 * n - 8)
            evidence.append({"test": "has-2-key", "upper": 3 * n - 8})
        elif len(rel) <= d * d:
            uppers.append(3 * n - 4)
            evidence.append({"test": "admits-2-key", "upper": 3 * n - 4})
    for cert in certificates:
        if not core.equal_relations(cert.target, rel):
            raise PreconditionError("certificate target differs from the relation")
        try:
            bond = explicate_certificate(cert)
            if classify(bond.formula).max_factor_arity > 3:
                continue
            count = classify(merge_complete(bond).formula).factor_arities.count(3)
        except PreconditionError:
            evidence.append({"test": "bond-certificate", "verdict": "skipped"})
            continue
        uppers.append(count)
        evidence.append({"test": "bond-certificate", "ternaries": count})
    if n == 4 and nondegenerate and (not uppers or min(uppers) > 2):
        verdicts = []
        try:
            for other in rel.attrs[1:]:
                matrix = analysis.bipartition_matrix(rel, (rel.attrs[0], other))
                verdicts.append(analysis.boolean_rank_at_most(matrix, d))
            if any(v is not None for v in verdicts):
                uppers.append(2)
                evidence.append({"test": "two-ternary-oracle", "verdict": True})
            else:
                lower = max(lower, 3)
                evidence.append(
                    {"test": "two-ternary-oracle", "verdict": False, "lower": 3}
                )
        except CapExceededError:
            evidence.append({"test": "two-ternary-oracle", "verdict": "skipped"})
    if not has_unary_factor and lower % 2 != n % 2:
        lower += 1
        evidence.append({"test": "parity", "lower": lower})
    upper = min(uppers) if uppers else None
    return TernarityReport(n, lower, upper, n % 2, tuple(evidence))


# ---------------------------------------------------------------------------
# DOT output
# ---------------------------------------------------------------------------


def emit_dot(obj) -> str:
    """Deterministic DOT rendering of a projoin graph or bonding diagram."""
    if isinstance(obj, ProjoinGraph):
        return _dot_projoin(obj)
    if isinstance(obj, BondingDiagram):
        return _dot_diagram(obj)
    raise PreconditionError(f"cannot render {type(obj).__name__}")


def _dot_projoin(g: ProjoinGraph) -> str:
    lines = ["graph projoin {"]
    for i, atom in enumerate(g.atoms):
        lines.append(f'  p{i} [shape=box, label="{atom.symbol}"];')
    for v in g.free:
        lines.append(f'  v_{v} [shape=circle, label="{v}"];')
        lines.append(f"  stem_{v} [shape=point, style=invis];")
    for v in g.bound:
        lines.append(f'  v_{v} [shape=point, xlabel="{v}"];')
    for i, v in g.edges:
        lines.append(f"  p{i} -- v_{v};")
    for v in g.free:
        lines.append(f"  v_{v} -- stem_{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_diagram(dg: BondingDiagram) -> str:
    def name(end: End, t: int) -> str:
        if end is None:
            return f"loose{t}"
        kind, x = end
        return f"p{x}" if kind == "P" else f"v_{x}"

    lines = ["graph bonding {"]
    for i, atom in enumerate(dg.predicates):
        lines.append(f'  p{i} [shape=box, label="{atom.symbol}"];')
    for v in dg.branch_points:
        lines.append(f'  v_{v} [shape=point, xlabel="{v}"];')
    for v in dg.dead_ends:
        lines.append(f'  v_{v} [shape=point, xlabel="{v}"];')
    terminals = [t for t, (a, b, _) in enumerate(dg.edges) if b is None]
    for t in terminals:
        lines.append(f"  loose{t} [shape=point, style=invis];")
    for t, (a, b, label) in enumerate(dg.edges):
        lines.append(f'  {name(a, t)} -- {name(b, t)} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
