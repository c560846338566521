"""Brute-force reference implementations used to cross-check the library.

Everything here works on plain tuples and sets so that the answers do not
depend on any code path under test; the reference command line is stock
click, built from the same declarations as ``relred.cli``.
"""

import copy
import itertools

import click

from relred.errors import ParseError
from relred.formula import MAX_NESTING, SYMBOL_RE, VAR_RE, Atom, Conj, Exists


def proj(rows, idxs):
    return {tuple(t[i] for i in idxs) for t in rows}


def cylinder(rows, idxs, cells):
    """All full tuples whose restriction to idxs appears in the projection."""
    p = proj(rows, idxs)
    return {t for t in cells if tuple(t[i] for i in idxs) in p}


def bipartitions(n):
    """Nontrivial bipartitions (left, right) of positions 0..n-1, one per
    complementary pair: smaller left block first, in ``combinations``
    order, and of two equal halves the one holding position 0."""
    for size in range(1, n // 2 + 1):
        for left in itertools.combinations(range(n), size):
            if size == n - size and 0 not in left:
                continue
            yield left, tuple(i for i in range(n) if i not in left)


def product_of_projections(rows, blocks, n):
    """The rows of the product of the projections onto ``blocks``, a
    partition of positions 0..n-1."""
    out = set()
    for parts in itertools.product(*(proj(rows, b) for b in blocks)):
        row = [None] * n
        for block, values in zip(blocks, parts):
            for i, v in zip(block, values):
                row[i] = v
        out.add(tuple(row))
    return out


def degeneracy_witness(rows, n):
    """The first bipartition over which the rows are the product of
    their two projections, or None."""
    for left, right in bipartitions(n):
        if product_of_projections(rows, (left, right), n) == set(rows):
            return left, right
    return None


def finest_blocks(rows, positions):
    """The finest factorization of ``rows`` (tuples aligned with
    ``positions``): split at the first product bipartition, then split
    each side's projected rows the same way."""
    witness = degeneracy_witness(rows, len(positions))
    if witness is None:
        return [tuple(positions)]
    return [
        block
        for side in witness
        for block in finest_blocks(proj(rows, side), [positions[i] for i in side])
    ]


def keys(rows, n, k):
    """The k-sets of positions on which no two rows agree, in colex order."""
    combos = sorted(itertools.combinations(range(n), k), key=lambda c: c[::-1])
    return [
        c for c in combos
        if all(tuple(a[i] for i in c) != tuple(b[i] for i in c)
               for a, b in itertools.combinations(rows, 2))
    ]


def first_nonuniversal(rows, n, d):
    """The first proper nonempty set of positions, smaller sets first,
    whose projection misses some value tuple, or None."""
    for size in range(1, n):
        for c in itertools.combinations(range(n), size):
            if len(proj(rows, c)) != d ** size:
                return c
    return None


def join_cover_reducible(rows, elems, n):
    """Search every family of proper projections whose join gives back R.

    Returns True when some family of projections onto proper nonempty
    position subsets, jointly covering all positions, joins to exactly R.
    """
    cells = list(itertools.product(elems, repeat=n))
    subsets = []
    for r in range(1, n):
        subsets.extend(itertools.combinations(range(n), r))
    # cell sets as bitmasks over ``cells``, so a family's join is a few ANDs
    bit = {c: 1 << i for i, c in enumerate(cells)}
    cyls = {s: sum(bit[c] for c in cylinder(rows, s, cells)) for s in subsets}
    target = sum(bit[c] for c in set(rows))
    for size in range(1, len(subsets) + 1):
        for family in itertools.combinations(subsets, size):
            covered = set()
            for s in family:
                covered.update(s)
            if covered != set(range(n)):
                continue
            joined = (1 << len(cells)) - 1
            for s in family:
                joined &= cyls[s]
            if joined == target:
                return True
    return False


def fagin_join_equals(rows, elems, n, m_idxs, block_idxs):
    """Does the join of the projections onto m u block_i reconstruct R?"""
    cells = itertools.product(elems, repeat=n)
    rowset = set(rows)
    pieces = [tuple(sorted(set(m_idxs) | set(b))) for b in block_idxs]
    projs = [proj(rows, p) for p in pieces]
    joined = {
        t
        for t in cells
        if all(tuple(t[i] for i in p) in pr for p, pr in zip(pieces, projs))
    }
    return joined == rowset


def expected_ternary_count(params, atoms):
    """Predicted number of trivalent vertices in the explicated bond graph.

    ``atoms`` is a list of (symbol, args) pairs, ``params`` the bound
    variables of the normalized formula.  Counts: one relay per extra slot
    beyond two for shared bound variables, one per extra slot beyond one
    for shared free variables, plus every predicate box left with exactly
    three slots once confined bound variables are absorbed.
    """
    params = set(params)
    slots = {}
    atoms_of = {}
    for i, (_, args) in enumerate(atoms):
        for v in args:
            slots[v] = slots.get(v, 0) + 1
            atoms_of.setdefault(v, set()).add(i)
    total = 0
    absorbed = [0] * len(atoms)
    for v, m in slots.items():
        if v in params and len(atoms_of[v]) == 1:
            # confined: diagonalized and projected away inside its atom
            absorbed[next(iter(atoms_of[v]))] += m
        elif v in params:
            if m >= 3:
                total += m - 2
        else:
            if m >= 2:
                total += m - 1
    for i, (_, args) in enumerate(atoms):
        if len(args) - absorbed[i] == 3:
            total += 1
    return total


def nonempty_subsets(items):
    items = list(items)
    return [
        frozenset(c)
        for size in range(1, len(items) + 1)
        for c in itertools.combinations(items, size)
    ]


def maximal_rectangles(row_sets, ncols):
    """All maximal all-ones rectangles (row set, column set) of a 0-1
    matrix given as one set of columns per row.  An all-ones rectangle on
    the rows rs has its columns among those rs share; it is maximal iff it
    has all of them and no row outside rs has them all, since a larger
    all-ones rectangle stays all ones with one of its extra rows or columns
    added alone."""
    rows = range(len(row_sets))
    rects = set()
    for rs in nonempty_subsets(rows):
        cs = frozenset(range(ncols)).intersection(*(row_sets[i] for i in rs))
        if cs and not any(i not in rs and cs <= row_sets[i] for i in rows):
            rects.add((rs, cs))
    return rects


def maximal_boxes(rows, elems):
    """All maximal boxes A x B x C inside a ternary relation.  A box inside
    it is maximal iff no side takes one more value with the box staying
    inside: a larger box inside the relation holds such an extension."""
    subsets = nonempty_subsets(elems)
    boxes = {
        (a, b, c)
        for a in subsets
        for b in subsets
        for c in subsets
        if all(t in rows for t in itertools.product(a, b, c))
    }
    return {
        box for box in boxes
        if not any(box[:k] + (box[k] | {v},) + box[k + 1:] in boxes
                   for k in range(3) for v in elems if v not in box[k])
    }


def cells_of(piece):
    """The cells of a rectangle or box: the product of its sides."""
    return set(itertools.product(*piece))


def union_of_at_most(cells, pieces, k):
    """Is ``cells`` the union of at most k of ``pieces`` (sets inside it)?"""
    pieces = list(pieces)
    return any(
        set().union(*combo) == cells
        for size in range(k + 1)
        for combo in itertools.combinations(pieces, size)
    )


class PerCellCensus:
    """The census tests of n-ary relations on range(d) as first written:
    bit i of a mask is the i-th cell of ``itertools.product(range(d),
    repeat=n)``, and each test loops over the cells through projection
    index maps (cell -> index of its projected tuple)."""

    def __init__(self, d, n):
        self.n = n
        self.cells = list(itertools.product(range(d), repeat=n))
        self.bipartitions = [
            (self._proj_map(left), self._proj_map(right))
            for left, right in bipartitions(n)
        ]
        self.join_maps = [
            self._proj_map(tuple(j for j in range(n) if j != i)) for i in range(n)
        ]

    def _proj_map(self, positions):
        index = {}
        return [
            index.setdefault(tuple(cell[i] for i in positions), len(index))
            for cell in self.cells
        ]

    def is_degenerate(self, mask):
        """Some bipartition has |pi_L| * |pi_R| = |R|."""
        if self.n < 2:
            return False
        cells_in = [i for i in range(len(self.cells)) if mask >> i & 1]
        return any(
            len({lmap[i] for i in cells_in}) * len({rmap[i] for i in cells_in})
            == len(cells_in)
            for lmap, rmap in self.bipartitions
        )

    def is_join_reducible(self, mask):
        """No cell outside R lies in every (n-1)-projection's cylinder."""
        if self.n < 2:
            return False
        hit = [{pmap[i] for i in range(len(self.cells)) if mask >> i & 1}
               for pmap in self.join_maps]
        return not any(
            all(pmap[i] in h for pmap, h in zip(self.join_maps, hit))
            for i in range(len(self.cells))
            if not mask >> i & 1
        )


class ReferenceParser:
    """The formula parser as a character walk: the reference that
    ``formula.parse`` is tested against.  It skips white space before each
    token by ``str.isspace`` and raises each ``ParseError`` at the position
    it has reached."""

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

    def word(self, pattern, what: str) -> str:
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

    def formula(self, depth: int = 0):
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

    def conj(self, depth: int):
        parts = [self.primary(depth)]
        while self.peek() == "&":
            self.eat("&")
            if self.at_keyword("exists"):
                parts.append(self.formula(depth + 1))
            else:
                parts.append(self.primary(depth))
        return parts[0] if len(parts) == 1 else Conj(tuple(parts))

    def primary(self, depth: int):
        if self.peek() == "(":
            self.eat("(")
            inner = self.formula(depth + 1)
            self.eat(")")
            return inner
        return self.atom()

    def atom(self):
        symbol = self.word(SYMBOL_RE, "relation symbol")
        self.eat("(")
        args = [self.word(VAR_RE, "variable")]
        while self.peek() == ",":
            self.eat(",")
            args.append(self.word(VAR_RE, "variable"))
        self.eat(")")
        return Atom(symbol, tuple(args))


def reference_parse(text: str):
    p = ReferenceParser(text)
    f = p.formula()
    p.skip_ws()
    if p.pos != len(p.text):
        p.error("trailing input")
    return f


def _stock(param):
    """``param``, or a copy of it as a stock ``click.Option`` when it is an
    option of a ``click.Option`` subclass."""
    if not isinstance(param, click.Option) or type(param) is click.Option:
        return param
    option = copy.copy(param)
    option.__class__ = click.Option
    return option


def stock_cli(group):
    """Stock click commands with ``group``'s declarations: a ``click.Group``
    of ``click.Command``s with the same parameters, each option a stock
    ``click.Option``, and help texts."""
    return click.Group(group.name, params=list(map(_stock, group.params)), help=group.help,
                       commands=[click.Command(name, params=list(map(_stock, cmd.params)),
                                               help=cmd.help)
                                 for name, cmd in group.commands.items()])


def parse_outcome(command, name, args, **extra):
    """The Context ``command.make_context`` makes of ``args``, and what it
    read: ``("ok", params, the source of every parameter, extra args)``, or
    None and ``("error", exception class, message)``."""
    try:
        ctx = command.make_context(name, list(args), **extra)
    except click.ClickException as e:
        return None, ("error", type(e), e.format_message())
    sources = {p.name: ctx.get_parameter_source(p.name) for p in command.get_params(ctx)}
    return ctx, ("ok", ctx.params, sources, ctx.args)
