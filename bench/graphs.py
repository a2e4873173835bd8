"""Signed graphs, generators and oracles written apart from the program.

A graph is a pair (p, edges): vertices 1..p, and a sorted tuple of
triples (u, v, s) with u < v and s = +1 or -1, the canonical form of the
program's edge-list format.  Nothing here imports sgmyc, so every check
built on these functions is independent evidence about its outputs.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import product

PRIME = (1 << 61) - 1


def canon(p, edges):
    out = []
    for u, v, s in edges:
        if u > v:
            u, v = v, u
        out.append((u, v, s))
    out.sort()
    return p, tuple(out)


def dumps(g):
    p, edges = g
    lines = [f"{p} {len(edges)}"]
    lines += [f"{u} {v} {'+1' if s == 1 else '-1'}" for u, v, s in edges]
    return "\n".join(lines) + "\n"


def parse_edge_list(text):
    """Read the edge-list format back; returns (p, edges) as written."""
    rows = [line.split() for line in text.splitlines() if line.strip() and not line.startswith("#")]
    p, q = int(rows[0][0]), int(rows[0][1])
    edges = tuple((int(u), int(v), int(s)) for u, v, s in rows[1:])
    if len(edges) != q:
        raise ValueError(f"header promises {q} edges, found {len(edges)}")
    return p, edges


def switch(g, zeta):
    p, edges = g
    return p, tuple((u, v, zeta[u - 1] * s * zeta[v - 1]) for u, v, s in edges)


def all_negative(g):
    p, edges = g
    return p, tuple((u, v, -1) for u, v, _ in edges)


def adjacency_lists(g):
    p, edges = g
    adj = [[] for _ in range(p + 1)]
    for u, v, s in edges:
        adj[u].append((v, s))
        adj[v].append((u, s))
    return adj


def is_connected(g):
    p, _ = g
    if p <= 1:
        return True
    adj = adjacency_lists(g)
    seen = {1}
    stack = [1]
    while stack:
        for v, _ in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == p


def balance(g):
    """(True, zeta) with zeta switching g to all-positive, or (False, None)."""
    p, _ = g
    adj = adjacency_lists(g)
    zeta = [0] * (p + 1)
    for root in range(1, p + 1):
        if zeta[root]:
            continue
        zeta[root] = 1
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v, s in adj[u]:
                if not zeta[v]:
                    zeta[v] = zeta[u] * s
                    queue.append(v)
                elif zeta[u] * s * zeta[v] != 1:
                    return False, None
    return True, tuple(zeta[1:])


def degree_rows(g):
    """[degree, positive, negative, net] for every vertex, in vertex order."""
    p, edges = g
    rows = [[0, 0, 0, 0] for _ in range(p)]
    for u, v, s in edges:
        for x in (u, v):
            r = rows[x - 1]
            r[0] += 1
            r[1 if s == 1 else 2] += 1
            r[3] += s
    return rows


def mycielskian(g):
    """The definition: twin of i is p + i, root 2p + 1, cross edges copy signs."""
    p, edges = g
    out = []
    for u, v, s in edges:
        out += [(u, v, s), (u, p + v, s), (v, p + u, s)]
    out += [(p + i, 2 * p + 1, 1) for i in range(1, p + 1)]
    return canon(2 * p + 1, out)


def balanced_mycielskian(g):
    """Mycielskian with the root edge at twin i re-signed to zeta(i)."""
    ok, zeta = balance(g)
    if not ok:
        raise ValueError("balanced Mycielskian needs balanced input")
    p = g[0]
    root = 2 * p + 1
    _, edges = mycielskian(g)
    return root, tuple((u, v, zeta[u - p - 1] if v == root else s) for u, v, s in edges)


def tower(level):
    """Balanced Mycielskian tower from the negative edge; level k has chi = k."""
    g = canon(2, [(1, 2, -1)])
    for _ in range(level - 2):
        g = balanced_mycielskian(g)
    return g


def random_connected(p, q, rng, allowed=None):
    """Connected graph with exactly q edges: a random tree plus random pairs.

    allowed(u, v) restricts the pairs; the tree is drawn under it too.
    Signs are left +1 for the caller to set.
    """
    chosen = set()
    pending = list(range(1, p + 1))
    rng.shuffle(pending)
    tree = [pending.pop()]
    while pending:
        v = pending.pop(0)
        candidates = [u for u in tree if allowed is None or allowed(u, v)]
        if not candidates:
            pending.append(v)
            continue
        u = rng.choice(candidates)
        chosen.add((min(u, v), max(u, v)))
        tree.append(v)
    while len(chosen) < q:
        u, v = rng.sample(range(1, p + 1), 2)
        if allowed is None or allowed(u, v):
            chosen.add((min(u, v), max(u, v)))
    return canon(p, [(u, v, 1) for u, v in chosen])


def random_signs(g, rng):
    p, edges = g
    return canon(p, [(u, v, rng.choice((1, -1))) for u, v, _ in edges])


def random_switching(p, rng):
    return tuple(rng.choice((1, -1)) for _ in range(p))


def random_balanced_bipartite(p, q, rng):
    """Connected bipartite graph, all positive, then randomly switched."""
    side = [i % 2 for i in range(p)]
    rng.shuffle(side)
    side.insert(0, None)
    g = random_connected(p, q, rng, allowed=lambda u, v: side[u] != side[v])
    return switch(g, random_switching(p, rng))


def relabel(g, rng):
    p, edges = g
    perm = list(range(1, p + 1))
    rng.shuffle(perm)
    return canon(p, [(perm[u - 1], perm[v - 1], s) for u, v, s in edges])


# ---------------------------------------------------------------------------
# colorings


def color_set(n):
    k = n // 2
    return [c for c in range(-k, k + 1) if c != 0 or n % 2 == 1]


def is_proper(g, n, colors):
    p, edges = g
    if len(colors) != p or not set(colors) <= set(color_set(n)):
        return False
    return all(colors[u - 1] != s * colors[v - 1] for u, v, s in edges)


def brute_chromatic(g):
    """Least n with a proper coloring over M_n, by full enumeration."""
    p, edges = g
    for n in range(1, 2 * p + 2):
        for colors in product(color_set(n), repeat=p):
            if all(colors[u - 1] != s * colors[v - 1] for u, v, s in edges):
                return n
    raise AssertionError("no coloring below 2p + 1")


# ---------------------------------------------------------------------------
# matrices, as dicts of nonzero entries {(i, j): x} with 0-based indices


def adjacency(g):
    p, edges = g
    a = {}
    for u, v, s in edges:
        a[u - 1, v - 1] = s
        a[v - 1, u - 1] = s
    return a


def negative_join(g):
    p, _ = g
    a = adjacency(g)
    for i in range(p):
        a[i, p] = a[p, i] = -1
    return a


def laplacian(g):
    lap = {(i, i): d for i, (d, _, _, _) in enumerate(degree_rows(g)) if d}
    for (i, j), s in adjacency(g).items():
        lap[i, j] = -s
    return lap


def gram(h):
    """H H^T from the sparse columns of H."""
    cols = {}
    for (i, k), x in h.items():
        cols.setdefault(k, []).append((i, x))
    out = {}
    for entries in cols.values():
        for i, x in entries:
            for j, y in entries:
                out[i, j] = out.get((i, j), 0) + x * y
    return {key: x for key, x in out.items() if x}


def rank_mod(a, n, prime=PRIME):
    """Rank of the n x n sparse matrix a over GF(prime)."""
    rows = [[0] * n for _ in range(n)]
    for (i, j), x in a.items():
        rows[i][j] = x % prime
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, n) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r]
        inv = pow(top[c], prime - 2, prime)
        for i in range(r + 1, n):
            row = rows[i]
            f = row[c] * inv % prime
            if f:
                for j in range(c, n):
                    row[j] = (row[j] - f * top[j]) % prime
        r += 1
    return r


def rng_for(seed, name):
    """A generator per input family, so adding a family never shifts another's draws."""
    return random.Random(f"{seed}:{name}")
