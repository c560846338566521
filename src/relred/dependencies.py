"""Functional and multivalued dependencies, keys, and key admission.

``find_keys`` and ``is_cartesian_over`` read ``core.projection_sizes``."""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass
from typing import Iterable, Optional, Sequence

from . import core
from .core import Relation, canonical_attrs
from .errors import AttributeSchemeError


def validate_partition(
    ground: frozenset[str],
    blocks: Sequence[Iterable[str]],
) -> tuple[tuple[str, ...], ...]:
    """Check that ``blocks`` partition ``ground`` and return them canonicalized."""
    canon = tuple(canonical_attrs(b) for b in blocks)
    seen: set[str] = set()
    for b in canon:
        if not b:
            raise AttributeSchemeError("empty partition block")
        if seen & set(b):
            raise AttributeSchemeError("partition blocks overlap")
        seen |= set(b)
    if seen != ground:
        raise AttributeSchemeError("blocks do not cover the ground scheme")
    return canon


@dataclass(frozen=True)
class DependencyReport:
    kind: str  # functional | key | multikey | mvd | admitsKey
    lhs: tuple[str, ...]
    rhs: tuple[tuple[str, ...], ...]  # one entry per block; single block for FDs
    holds: bool
    witness: Optional[tuple[tuple[str, ...], tuple[str, ...]]] = None

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    def to_text(self) -> str:
        lhs = ",".join(self.lhs) or "-"
        rhs = "|".join(",".join(b) or "-" for b in self.rhs)
        lines = [f"{self.kind} {lhs} -> {rhs}: {'holds' if self.holds else 'fails'}"]
        if self.witness is not None:
            a, b = self.witness
            lines.append(f"witness: ({' '.join(a)}) ({' '.join(b)})")
        return "\n".join(lines)


def functional_dep(rel: Relation, lhs: Iterable[str], rhs: Iterable[str]) -> DependencyReport:
    """Does every pair of rows agreeing on ``lhs`` also agree on ``rhs``?

    The witness, when the dependency fails, is the first violating row
    pair in canonical row order.
    """
    lhs_w = core._wanted(lhs, rel.attrs)
    rhs_w = core._wanted(rhs, rel.attrs)
    lhs_c = tuple(a for a in rel.attrs if a in lhs_w)
    rhs_c = tuple(a for a in rel.attrs if a in rhs_w)
    pick_key = core._picker([rel.attrs.index(a) for a in lhs_c])
    pick_val = core._picker([rel.attrs.index(a) for a in rhs_c])
    seen: dict[tuple[str, ...], tuple[tuple[str, ...], tuple[str, ...]]] = {}
    witness = None
    for row in sorted(rel.rows):
        key = pick_key(row)
        val = pick_val(row)
        if key in seen:
            prev_val, prev_row = seen[key]
            if prev_val != val:
                witness = (prev_row, row)
                break
        else:
            seen[key] = (val, row)
    kind = "key" if rhs_w == rel.scheme - lhs_w else "functional"
    return DependencyReport(kind, lhs_c, (rhs_c,), witness is None, witness)


def is_key(rel: Relation, key: Iterable[str]) -> DependencyReport:
    key_w = core._wanted(key, rel.attrs)
    return functional_dep(rel, key_w, rel.scheme - key_w)


def find_keys(rel: Relation, k: int) -> list[tuple[str, ...]]:
    """All k-element attribute sets functionally determining the rest,
    enumerated in colex order over the canonical attribute order."""
    if not 0 <= k <= rel.arity:
        raise AttributeSchemeError(f"key size {k} out of range for arity {rel.arity}")
    size = core.projection_sizes(rel)
    colex = sorted(itertools.combinations(range(rel.arity), k), key=lambda c: c[::-1])
    combos = (tuple(rel.attrs[i] for i in c) for c in colex)
    return [combo for combo in combos if size(combo) == len(rel)]


def admits_key(rel: Relation, k: int) -> bool:
    """Pure cardinality test: some augmentation of the relation has a
    k-key exactly when |R| <= d^k."""
    if k < 0:
        raise AttributeSchemeError("key size must be >= 0")
    return len(rel) <= rel.domain.size ** k


def is_cartesian_over(rel: Relation, blocks: Sequence[Iterable[str]]) -> bool:
    """Is the relation the product of its projections onto ``blocks``?

    Equivalent to the independence criterion: block values of tuples can
    be chosen independently.
    """
    canon = validate_partition(rel.scheme, blocks)
    # R is always contained in the product of its projections, so equality
    # of cardinalities decides equality of relations.
    return math.prod(map(core.projection_sizes(rel), canon)) == len(rel)


def mvd_holds(rel: Relation, m: Iterable[str], blocks: Sequence[Iterable[str]]) -> DependencyReport:
    """Multivalued dependency M ->> blocks: every selection on M is a
    product over the common partition of the remaining attributes."""
    m_w = core._wanted(m, rel.attrs)
    m_c = tuple(a for a in rel.attrs if a in m_w)
    blocks_c = validate_partition(rel.scheme - m_w, blocks)
    kind = "multikey" if all(len(b) == 1 for b in blocks_c) else "mvd"
    witness = None
    for row in sorted(core.project(rel, m_c).rows):
        section = core.select(rel, m_c, row)
        if not is_cartesian_over(section, blocks_c):
            witness = _mvd_witness(rel, m_c, row, blocks_c)
            break
    return DependencyReport(kind, m_c, blocks_c, witness is None, witness)


def _mvd_witness(rel, m_c, alpha, blocks_c):
    """First row pair in the alpha-selection some block recombination of
    which is missing from the relation."""
    m_val = dict(zip(m_c, alpha))
    pos = {a: i for i, a in enumerate(rel.attrs)}
    in_section = [
        r for r in sorted(rel.rows) if all(r[pos[a]] == v for a, v in m_val.items())
    ]
    subsets = [
        combo
        for size in range(1, len(blocks_c))
        for combo in itertools.combinations(range(len(blocks_c)), size)
    ]
    for a_row in in_section:
        for b_row in in_section:
            for combo in subsets:
                combined = list(b_row)
                for bi in combo:
                    for attr in blocks_c[bi]:
                        combined[pos[attr]] = a_row[pos[attr]]
                if tuple(combined) not in rel.rows:
                    return (a_row, b_row)
    raise AssertionError("independence failed but no witness found")
