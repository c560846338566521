"""Generate one workload's input files and reference answers from a seed.

    python3 bench/gen.py --workload certify --seed 1 --out DIR

Writes ``DIR/items.json`` and the input files it names, with paths
relative to DIR.  The same seed gives the same files.  Nothing here
imports relred: every reference answer comes from an independent method
(numpy ``einsum`` over 0/1 tensors, tuple-set brute force, or the frozen
counts in ``spec.json``), so a wrong answer from relred shows up as a
mismatch.

Each item is a list of CLI argument vectors (``steps``), run in order
from DIR, and a ``check`` that says what their output must be.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
ELEMENTS = "abcdefgh"


def load_spec() -> dict:
    with open(os.path.join(HERE, "spec.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Plain tuple-set helpers
# ---------------------------------------------------------------------------


def domain(d: int) -> tuple[str, ...]:
    return tuple(ELEMENTS[:d])


def rel_text(name: str, d: int, attrs, rows) -> str:
    """A relation in relred's ``.rel`` format."""
    lines = [f"@relation {name} over D{d}({','.join(domain(d))})",
             " ".join(attrs) if attrs else "."]
    lines += [" ".join(r) if r else "." for r in sorted(rows)]
    return "\n".join(lines) + "\n"


def parse_rel(text: str) -> tuple[list[str], set[tuple[str, ...]]]:
    """Attributes and rows of a ``.rel`` text, read without relred."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    attrs = [] if lines[1] == "." else lines[1].split()
    rows = {() if ln == "." else tuple(ln.split()) for ln in lines[2:]}
    return attrs, rows


def rows_digest(rows) -> str:
    text = "\n".join(" ".join(r) for r in sorted(rows))
    return hashlib.sha256(text.encode()).hexdigest()


def proj(rows, idxs) -> set:
    return {tuple(r[i] for i in idxs) for r in rows}


def is_product(rows, blocks) -> bool:
    """R is the Cartesian product of its projections onto the blocks."""
    size = 1
    for b in blocks:
        size *= len(proj(rows, b))
    return size == len(rows)


def degenerate(rows, n: int) -> bool:
    if n < 2 or not rows:
        return n >= 2
    for size in range(1, n):
        for left in itertools.combinations(range(n), size):
            right = tuple(i for i in range(n) if i not in left)
            if is_product(rows, (left, right)):
                return True
    return False


def join_reducible(rows, d: int, n: int) -> bool:
    """R equals the join of its (n-1)-ary projections."""
    faces = [tuple(j for j in range(n) if j != i) for i in range(n)]
    projs = [proj(rows, f) for f in faces]
    joined = {
        t for t in itertools.product(domain(d), repeat=n)
        if all(tuple(t[i] for i in f) in p for f, p in zip(faces, projs))
    }
    return joined == set(rows)


def set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [(first,)] + part
        for i in range(len(part)):
            yield part[:i] + [(first,) + part[i]] + part[i + 1:]


def finest_blocks(rows, n: int) -> list[tuple[int, ...]]:
    """The finest partition of positions over which R is a product."""
    best = [tuple(range(n))]
    for part in set_partitions(range(n)):
        if len(part) > len(best) and is_product(rows, part):
            best = part
    return best


def cover_within(cells: int, pieces: list[int], budget: int) -> bool:
    """Is the bitmask ``cells`` a union of at most ``budget`` of ``pieces``
    (each a sub-mask of ``cells``)?"""
    if not cells:
        return True
    if budget == 0:
        return False
    low = cells & -cells
    return any(
        cover_within(cells & ~p, pieces, budget - 1) for p in pieces if p & low
    )


def maximal(masks: list[int]) -> list[int]:
    masks = sorted(set(masks), key=lambda m: -bin(m).count("1"))
    out: list[int] = []
    for m in masks:
        if not any(m | o == o for o in out):
            out.append(m)
    return out


def subsets(d: int):
    return [tuple(i for i in range(d) if s >> i & 1) for s in range(1, 2 ** d)]


def one_param_reducible(rows, d: int) -> bool:
    """R (a ternary) is a union of at most d boxes A x B x C."""
    cell = {t: 1 << (t[0] * d * d + t[1] * d + t[2]) for t in
            itertools.product(range(d), repeat=3)}
    idx = {e: i for i, e in enumerate(domain(d))}
    rmask = 0
    for r in rows:
        rmask |= cell[tuple(idx[v] for v in r)]
    boxes = []
    for a in subsets(d):
        for b in subsets(d):
            for c in subsets(d):
                m = 0
                for t in itertools.product(a, b, c):
                    m |= cell[t]
                if m & ~rmask == 0:
                    boxes.append(m)
    return cover_within(rmask, maximal(boxes), d)


def boolean_rank_at_most(rows, d: int, left, right, k: int) -> bool:
    """The 0/1 matrix of R over the bipartition has Boolean rank <= k."""
    rkeys = sorted(proj(rows, left))
    ckeys = sorted(proj(rows, right))
    ncols = len(ckeys)
    row_cols = {rk: 0 for rk in rkeys}
    for r in rows:
        rk = tuple(r[i] for i in left)
        row_cols[rk] |= 1 << ckeys.index(tuple(r[i] for i in right))
    full = 0
    for i, rk in enumerate(rkeys):
        full |= row_cols[rk] << (i * ncols)
    rects = []
    for chosen in range(1, 2 ** len(rkeys)):
        cols = (1 << ncols) - 1
        for i, rk in enumerate(rkeys):
            if chosen >> i & 1:
                cols &= row_cols[rk]
        if not cols:
            continue
        m = 0
        for i, rk in enumerate(rkeys):
            if row_cols[rk] & cols == cols:
                m |= cols << (i * ncols)
        rects.append(m)
    return cover_within(full, maximal(rects), k)


def sampled_census(d: int, n: int, samples: int, seed: int) -> tuple[int, int]:
    """Degenerate and join-reducible counts over the masks relred's
    sampled census draws: ``random.Random(seed).getrandbits(d**n)``, bit i
    standing for the i-th cell of ``itertools.product(range(d), repeat=n)``."""
    cells = list(itertools.product(domain(d), repeat=n))
    rng = random.Random(seed)
    deg = jred = 0
    for _ in range(samples):
        mask = rng.getrandbits(len(cells))
        rows = {c for i, c in enumerate(cells) if mask >> i & 1}
        deg += degenerate(rows, n)
        jred += join_reducible(rows, d, n)
    return deg, jred


def exact_census_degenerate(d: int, n: int) -> int:
    """Degenerate n-ary relations on d elements, in closed form.

    A nonempty relation factors uniquely into non-degenerate blocks over a
    set partition of its positions, so by the exponential formula
    2^(d^k) - 1 = sum over partitions of {1..k} of prod N(|block|), which
    gives N(k), the non-degenerate count on k positions.  The empty
    relation counts as degenerate for n >= 2."""
    from math import prod

    nondeg: dict[int, int] = {}
    for k in range(1, n + 1):
        total = 2 ** (d ** k) - 1
        split = sum(
            prod(nondeg[len(b)] for b in part)
            for part in set_partitions(range(k)) if len(part) > 1
        )
        nondeg[k] = total - split
    return 2 ** (d ** n) - nondeg[n]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def step(j: int, count: int, lo, hi):
    """The j-th of ``count`` evenly spaced sizes from lo to hi: sizes are
    fixed by the spec, only contents depend on the seed."""
    frac = j / max(count - 1, 1)
    return lo + (hi - lo) * frac if isinstance(lo, float) else lo + round((hi - lo) * frac)


def random_rows(rng: random.Random, d: int, n: int, m: int) -> list[tuple[str, ...]]:
    cells = list(itertools.product(domain(d), repeat=n))
    return sorted(rng.sample(cells, m))


def keyless_rows(rng: random.Random, d: int, n: int, m: int) -> list[tuple[str, ...]]:
    """m random rows in which no single column is a key, or with a key when
    that cannot be avoided (m = 2)."""
    for _ in range(1000):
        rows = random_rows(rng, d, n, m)
        if all(len(proj(rows, (i,))) < m for i in range(n)):
            break
    return rows


def gen_certify(rng: random.Random, sizes: dict, files: dict) -> list[dict]:
    per = sizes["relations_per_shape"]
    shapes = [(d, n, 1, d) for d, n in sizes["k1_shapes"]]
    shapes += [(d, n, 2, hi) for d, n, hi in sizes["k2_shapes"]]
    items = []
    for j in range(per):
        for d, n, k, hi in shapes:
            m = step(j, per, 2 if k == 1 else d + 1, hi)
            # k = 1 alternates relations with and without a 1-key
            rows = (keyless_rows if k == 1 and j % 2 else random_rows)(rng, d, n, m)
            attrs = [str(i + 1) for i in range(n)]
            tag = f"c{len(items):03d}"
            files[f"{tag}/R.rel"] = rel_text("R", d, attrs, rows)
            key = next((a for i, a in enumerate(attrs)
                        if len(proj(rows, (i,))) == len(rows)), None)
            how = ["--key", key] if key and k == 1 else ["--hypostatic", str(k)]
            items.append({
                "name": f"{tag} d={d} n={n} k={k} rows={m}",
                "steps": [
                    ["reduce", f"{tag}/R.rel", *how, "-o", f"{tag}/cert"],
                    ["explicate", f"{tag}/cert", "-o", f"{tag}/bond"],
                    ["merge", f"{tag}/bond", "-o", f"{tag}/merged"],
                    ["verify", f"{tag}/merged"],
                ],
                "check": {
                    "kind": "certify",
                    "stdout": [f"{tag}/cert/certificate.json\n",
                               f"{tag}/bond/certificate.json\n",
                               f"{tag}/merged/certificate.json\n"],
                    "target": f"{tag}/merged/target.rel",
                    "attrs": attrs,
                    "digest": rows_digest(rows),
                },
            })
    return items


def _network(kind: str, length: int):
    """Atoms (as variable tuples) and free variables of a bond network."""
    if kind == "path":
        atoms = [(f"v{i}", f"v{i + 1}") for i in range(length)]
        free = ["v0", f"v{length}"]
    elif kind == "ring":
        atoms = [(f"v{i}", f"v{(i + 1) % length}") for i in range(length)]
        atoms[0] += ("a",)
        atoms[length // 2] += ("b",)
        free = ["a", "b"]
    else:  # 2 x length ladder of ternaries: rails h, rungs u, open legs o
        atoms = []
        for r in range(2):
            for c in range(length):
                left = f"h{r}_{c - 1}" if c else None
                right = f"h{r}_{c}" if c < length - 1 else None
                args = tuple(v for v in (left, right, f"u{c}") if v)
                if len(args) < 3:
                    args += (f"o{r}_{c}",)
                atoms.append(args)
        free = sorted({v for a in atoms for v in a if v.startswith("o")})
    return atoms, free


def _scattered(n: int) -> list[int]:
    """Atom order 0, 2, 1, 4, 3, ...: every second atom shares no variable
    with the one before it, so left-to-right evaluation keeps a cross
    product of two pieces alive at each step."""
    order = [0]
    for i in range(1, n, 2):
        order += [i + 1, i] if i + 1 < n else [i]
    return order


def bond_reference(atoms, tensors, free, d: int) -> set:
    import numpy as np

    letters = {}
    for args in atoms:
        for v in args:
            letters.setdefault(v, chr(ord("a") + len(letters)))
    spec = ",".join("".join(letters[v] for v in args) for args in atoms)
    spec += "->" + "".join(letters[v] for v in free)
    counts = np.einsum(spec, *tensors, optimize="greedy")
    return {tuple(ELEMENTS[i] for i in idx) for idx in zip(*np.nonzero(counts))}


def gen_bonds(rng: random.Random, sizes: dict, files: dict) -> list[dict]:
    import numpy as np

    np_rng = np.random.default_rng(rng.getrandbits(64))
    plan = []
    for kind in ("path", "ring", "ladder"):
        s = sizes[kind + "s"]
        for j in range(s["count"]):
            plan.append((kind, s["length"][j % len(s["length"])],
                         s["domain"][(j // len(s["length"])) % len(s["domain"])],
                         s["density"]))
    items = []
    for kind, length, d, density in plan:
        tag = f"b{len(items):03d}"
        atoms, free = _network(kind, length)
        tensors = []
        for a in atoms:
            # exactly round(density * d^arity) ones, so sizes do not vary with the seed
            flat = np.zeros(d ** len(a), dtype=np.int64)
            flat[np_rng.permutation(flat.size)[:round(density[len(a) - 2] * flat.size)]] = 1
            tensors.append(flat.reshape((d,) * len(a)))
        env = []
        for i, t in enumerate(tensors):
            attrs = [str(p + 1) for p in range(t.ndim)]
            rows = [tuple(ELEMENTS[x] for x in idx) for idx in zip(*np.nonzero(t))]
            files[f"{tag}/F{i + 1}.rel"] = rel_text(f"F{i + 1}", d, attrs, rows)
            env += ["--env", f"{tag}/F{i + 1}.rel"]
        bound = sorted({v for a in atoms for v in a} - set(free))
        body = " & ".join(f"F{i + 1}({','.join(atoms[i])})"
                          for i in _scattered(len(atoms)))
        files[f"{tag}/formula.txt"] = f"exists {' '.join(bound)} . {body}\n"
        out_attrs = sorted(free)
        ref = bond_reference(atoms, tensors, out_attrs, d)
        items.append({
            "name": f"{tag} {kind} L={length} d={d}",
            "steps": [["eval", f"{tag}/formula.txt", *env]],
            "check": {"kind": "relation", "attrs": out_attrs,
                      "digest": rows_digest(ref)},
        })
    return items


def latin_ternary(rng: random.Random, d: int, extra: float) -> set:
    """A Latin square's cells plus random extra cells: every proper
    projection is universal."""
    shift = rng.randrange(d)
    perm = rng.sample(range(d), d)
    rows = {(x, y, perm[(x + y + shift) % d]) for x in range(d) for y in range(d)}
    rest = sorted(set(itertools.product(range(d), repeat=3)) - rows)
    rows |= set(rng.sample(rest, round(extra * len(rest))))
    return {tuple(ELEMENTS[v] for v in t) for t in rows}


def union_of_rectangles(rng: random.Random, d: int, n_rects: int, hi: int) -> set:
    """A quaternary whose (1,2)|(3,4) matrix is at most n_rects rectangles."""
    pairs = list(itertools.product(domain(d), repeat=2))
    while True:
        rows = set()
        for _ in range(n_rects):
            left = rng.sample(pairs, rng.randint(1, 3))
            right = rng.sample(pairs, rng.randint(1, 3))
            rows |= {a + b for a in left for b in right}
        if 12 <= len(rows) <= hi:
            return rows


def _analyze(tag: str, flag: list[str]) -> list[list[str]]:
    return [["analyze", f"{tag}.rel", *flag]]


def gen_decide(rng: random.Random, sizes: dict, files: dict, spec: dict) -> list[dict]:
    items = []

    def add(kind, d, n, rows, steps_of, check):
        tag = f"x{len(items):03d}"
        files[f"{tag}.rel"] = rel_text("R", d, [str(i + 1) for i in range(n)], rows)
        items.append({"name": f"{tag} {kind} d={d} n={n} rows={len(rows)}",
                      "steps": steps_of(tag), "check": dict(check, rel=f"{tag}.rel")})

    for d, count in ((3, sizes["one_param_d3"]), (4, sizes["one_param_d4"])):
        for j in range(count):
            rows = latin_ternary(rng, d, step(j, count, 0.05, 0.4))
            yes = one_param_reducible(rows, d)
            add("one-param", d, 3, rows, lambda t: _analyze(t, ["--one-param"]),
                {"kind": "text", "expect":
                 f"one-parameter projoin: {'yes' if yes else 'no'}\n"})
    lo, hi = sizes["relprod2_ones"]
    for j in range(sizes["relprod2_d3"]):
        rows = (union_of_rectangles(rng, 3, 3, hi) if j % 2 else
                set(random_rows(rng, 3, 4, step(j, sizes["relprod2_d3"], lo, hi))))
        yes = boolean_rank_at_most(rows, 3, (0, 1), (2, 3), 3)
        add("relprod2", 3, 4, rows, lambda t: _analyze(t, ["--relprod2", "1,2"]),
            {"kind": "text", "expect": f"relprod2: {'yes' if yes else 'no'}\n"})
    for j in range(sizes["ternarity_d3"]):
        rows = set(random_rows(rng, 3, 4, 2 + j % 2))
        blocks = finest_blocks(rows, 4)
        lower = 2 if len(blocks) == 1 else sum(max(len(b) - 2, 0) for b in blocks)
        if all(len(b) > 1 for b in blocks) and lower % 2:
            lower += 1
        add("ternarity", 3, 4, rows, lambda t: [["ternarity", f"{t}.rel"]],
            {"kind": "text", "expect": f"ter in [{lower}, 2] (arity 4)\n"})
    count = sizes["degenerate_d3_n5"]
    for j in range(count):
        if j % 2:
            left = random_rows(rng, 3, 2, step(j, count, 2, 6))
            right = random_rows(rng, 3, 3, step(j, count, 2, 8))
            rows = {a + b for a in left for b in right}
        else:
            rows = set(random_rows(rng, 3, 5, step(j, count, 8, 60)))
        add("degenerate", 3, 5, rows, lambda t: _analyze(t, ["--degenerate"]),
            {"kind": "degenerate", "degenerate": degenerate(rows, 5)})
    count = sizes["join_reducible_d3_n5"]
    for j in range(count):
        rows = set(random_rows(rng, 3, 5, step(j, count, 8, 60)))
        yes = join_reducible(rows, 3, 5)
        add("join-reducible", 3, 5, rows, lambda t: _analyze(t, ["--join-reducible"]),
            {"kind": "text", "expect": f"join reducible: {'yes' if yes else 'no'}\n"})
    frozen = spec["census_reference"]["sampled"]
    for d, n, samples, seed in sizes["sampled_census"]:
        key = f"{d},{n},{samples},{seed}"
        deg, jred = frozen[key]
        items.append({
            "name": f"census d={d} n={n} sample={samples} seed={seed}",
            "steps": [["census", "--d", str(d), "--n", str(n),
                       "--sample", str(samples), "--seed", str(seed)]],
            "check": {"kind": "census", "counts": [2 ** (d ** n), deg, jred],
                      "mode": "sampled"},
        })
    # interleave kinds so a pass never sits in one decider for long
    order = list(range(len(items)))
    rng.shuffle(order)
    return [items[i] for i in order]


def gen_census(sizes: dict, spec: dict) -> list[dict]:
    exact = spec["census_reference"]["exact"]
    return [{
        "name": f"census d={d} n={n}",
        "steps": [["census", "--d", str(d), "--n", str(n)]],
        "check": {"kind": "census", "counts": exact[f"{d},{n}"], "mode": "exact"},
    } for d, n in sizes["points"]]


def generate(workload: str, seed: int, out: str) -> dict:
    spec = load_spec()
    sizes = spec["workloads"][workload]["sizes"]
    rng = random.Random(f"{workload}:{seed}")
    files: dict[str, str] = {}
    if workload == "certify":
        items = gen_certify(rng, sizes, files)
    elif workload == "bonds":
        items = gen_bonds(rng, sizes, files)
    elif workload == "decide":
        items = gen_decide(rng, sizes, files, spec)
    elif workload == "census":
        items = gen_census(sizes, spec)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    for rel, text in files.items():
        path = os.path.join(out, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)
    doc = {"workload": workload, "seed": seed, "items": items}
    with open(os.path.join(out, "items.json"), "w") as fh:
        json.dump(doc, fh, indent=1)
    return doc


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
