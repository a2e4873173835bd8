"""Core signed graph data model.

A signed graph is a finite simple graph together with a sign in {+1, -1}
on every edge.  Vertices are the integers 1..p.  Edges are stored in a
single canonical form: each edge is a triple (u, v, s) with u < v, and the
edge tuple is sorted lexicographically.  Two signed graphs are equal
exactly when their canonical forms are equal, which keeps every
construction in the toolkit reproducible down to the byte.

Switching negates all edges across a vertex cut and is the basic
equivalence of signed graph theory: it preserves the sign of every cycle.

The module also carries the plain-text interchange format used by the
command line tools.  Line one holds "p q", the next q lines hold
"u v s" with s written as +1 or -1, and lines starting with '#' are
comments.  Text in exactly the canonical form that dumps writes is read
in bulk; anything else is read line by line, with the same result and
the same error messages.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from itertools import repeat
from operator import add, lt, mul
from typing import Iterable, Mapping, Sequence

from .errors import InputError

Edge = tuple[int, int, int]

# A switching function is a plain tuple of p signs, entry i-1 for vertex i.
SwitchingFunction = tuple[int, ...]


@dataclass(frozen=True)
class SignedGraph:
    """Immutable signed graph in canonical edge form."""

    p: int
    edges: tuple[Edge, ...]

    @property
    def q(self) -> int:
        return len(self.edges)

    @property
    def positive_count(self) -> int:
        return sum(1 for _, _, s in self.edges if s == 1)

    @property
    def negative_count(self) -> int:
        return sum(1 for _, _, s in self.edges if s == -1)


def canonicalize(p: int, edges: Iterable[Sequence[int]]) -> SignedGraph:
    """Build a SignedGraph from raw (u, v, s) triples.

    Endpoints may come in either order.  An edge that is not three items,
    a vertex count, endpoint or sign that is not an int (bool included),
    loops, duplicate pairs, endpoints outside 1..p, and signs outside
    {+1, -1} are rejected.  The first bad edge in input order is
    reported; within one edge a non-int value is reported first, then a
    loop, a bad endpoint, a bad sign, a duplicate.
    """
    if type(p) is not int:
        raise InputError(f"vertex count must be an int, got {p!r}")
    if p < 0:
        raise InputError(f"vertex count must be nonnegative, got {p}")
    width = p + 1
    seen: set[int] = set()
    out: list[Edge] = []
    for e in edges:
        try:
            u, v, s = e
        except (TypeError, ValueError):
            raise InputError(f"edge {e!r} must hold three ints") from None
        if not (type(u) is type(v) is type(s) is int):
            raise InputError(f"edge {(u, v, s)!r} must hold three ints")
        a, b = (u, v) if u < v else (v, u)
        if not (1 <= a < b <= p and (s == 1 or s == -1)):
            if u == v:
                raise InputError(f"loop at vertex {u}")
            if not (1 <= u <= p) or not (1 <= v <= p):
                raise InputError(f"edge ({u},{v}) outside 1..{p}")
            raise InputError(f"edge ({u},{v}) has sign {s}, expected +1 or -1")
        # 1 <= a < b <= p, so a * (p + 1) + b names the pair uniquely
        key = a * width + b
        if key in seen:
            raise InputError(f"edge ({a},{b}) given twice")
        seen.add(key)
        out.append((a, b, s))
    out.sort()
    return SignedGraph(p, tuple(out))


def neighbours(g: SignedGraph) -> list[list[tuple[int, int]]]:
    """0-based (neighbour, sign) list of each vertex, index i-1 for vertex i.

    The lists follow canonical edge order, which meets each vertex's
    smaller neighbours, ascending, before its larger ones, so every list is
    strictly ascending and traversals over it are deterministic.
    """
    # sized by multiplication, so a count too large to hold fails at once
    nbrs = list(map(list, [()] * g.p))
    for u, v, s in g.edges:
        nbrs[u - 1].append((v - 1, s))
        nbrs[v - 1].append((u - 1, s))
    return nbrs


def validate_switching(g: SignedGraph, zeta: Sequence[int]) -> SwitchingFunction:
    if len(zeta) != g.p:
        raise InputError(f"switching has length {len(zeta)}, graph has {g.p} vertices")
    for i, z in enumerate(zeta):
        if type(z) is not int or z not in (1, -1):
            raise InputError(f"switching entry for vertex {i + 1} is {z}, expected +1 or -1")
    return tuple(zeta)


def switch(g: SignedGraph, zeta: Sequence[int]) -> SignedGraph:
    """Apply a switching function: edge uv gets sign zeta(u) * s * zeta(v).

    Switching is an involution and preserves the sign of every cycle.
    """
    z = validate_switching(g, zeta)
    return SignedGraph(g.p, tuple((u, v, z[u - 1] * s * z[v - 1]) for u, v, s in g.edges))


def is_all_positive(g: SignedGraph) -> bool:
    return all(s == 1 for _, _, s in g.edges)


def is_all_negative(g: SignedGraph) -> bool:
    return all(s == -1 for _, _, s in g.edges)


def degrees(g: SignedGraph) -> list[tuple[int, int, int, int]]:
    """(degree, positive, negative, positive - negative) of each vertex, row i-1 for vertex i."""
    d = [0] * g.p
    net = [0] * g.p
    for u, v, s in g.edges:
        d[u - 1] += 1
        d[v - 1] += 1
        net[u - 1] += s
        net[v - 1] += s
    return [(x, (x + y) // 2, (x - y) // 2, y) for x, y in zip(d, net)]


def is_connected(g: SignedGraph) -> bool:
    """Connectivity of the underlying graph, by union-find over g.edges.  The empty graph counts as connected."""
    parent = list(range(g.p + 1))
    parts = g.p
    for u, v, _ in g.edges:
        while u != parent[u]:
            parent[u] = u = parent[parent[u]]
        while v != parent[v]:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[u] = v
            parts -= 1
    return parts <= 1


def is_triangle_free(g: SignedGraph) -> bool:
    # bit w of adj[v] is set when w is a neighbour of v
    adj = [0] * (g.p + 1)
    for u, v, _ in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return not any(adj[u] & adj[v] for u, v, _ in g.edges)


# ---------------------------------------------------------------------------
# generators


def _pattern_signs(pattern: str, count: int, what: str) -> list[int]:
    if len(pattern) != count:
        raise InputError(f"{what} needs {count} pattern signs, got {len(pattern)}")
    signs = []
    for ch in pattern:
        if ch == "+":
            signs.append(1)
        elif ch == "-":
            signs.append(-1)
        else:
            raise InputError(f"pattern character {ch!r}, expected '+' or '-'")
    return signs


def generate(kind: str, params: Mapping[str, object] | None = None, seed: int | None = None) -> SignedGraph:
    """Deterministic signed graph factory.

    Kinds:
      path      length p >= 1, optional pattern of p-1 signs along 1-2-..-p
      cycle     length p >= 3, optional pattern of p signs along 1-2-..-p-1
      complete  order n >= 1, every edge negative
      random    order p, edge_prob, neg_prob; connected by rejection sampling

    Lengths, orders and the seed must be ints, and probabilities ints or
    floats; anything else, a float length or a string, is an InputError.

    The same kind, params and seed always return the same graph.
    """
    if seed is not None and type(seed) is not int:
        raise InputError(f"seed must be an integer, got {seed!r}")
    params = dict(params or {})

    def take(name, default=None):
        return params.pop(name, default)

    def take_int(name):
        x = take(name, 0)
        if type(x) is not int:
            raise InputError(f"{kind} {name} must be an integer, got {x!r}")
        return x

    def take_prob(name):
        x = take(name, 0.5)
        if type(x) not in (int, float):
            raise InputError(f"{name} must be a real number, got {x!r}")
        return float(x)

    if kind == "path":
        p = take_int("length")
        if p < 1:
            raise InputError("path length must be >= 1")
        pattern = take("pattern")
        signs = _pattern_signs(str(pattern), p - 1, "path") if pattern is not None else [1] * (p - 1)
        edges = [(i, i + 1, signs[i - 1]) for i in range(1, p)]
    elif kind == "cycle":
        p = take_int("length")
        if p < 3:
            raise InputError("cycle length must be >= 3")
        pattern = take("pattern")
        signs = _pattern_signs(str(pattern), p, "cycle") if pattern is not None else [1] * p
        edges = [(i, i + 1, signs[i - 1]) for i in range(1, p)]
        edges.append((p, 1, signs[p - 1]))
    elif kind == "complete":
        n = take_int("order")
        if n < 1:
            raise InputError("complete order must be >= 1")
        edges = [(i, j, -1) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        p = n
    elif kind == "random":
        p = take_int("order")
        if p < 1:
            raise InputError("random order must be >= 1")
        edge_prob, neg_prob = take_prob("edge_prob"), take_prob("neg_prob")
        if not (0.0 <= edge_prob <= 1.0 and 0.0 <= neg_prob <= 1.0):
            raise InputError("probabilities must lie in [0, 1]")
        if params:
            raise InputError(f"unknown parameters {sorted(params)}")
        return _random_connected(p, edge_prob, neg_prob, seed)
    else:
        raise InputError(f"unknown generator kind {kind!r}")
    if params:
        raise InputError(f"unknown parameters {sorted(params)}")
    return canonicalize(p, edges)


def _random_connected(p: int, edge_prob: float, neg_prob: float, seed: int | None) -> SignedGraph:
    # a hopeless draw gives up early; one that succeeds is the same graph whatever the cap.
    # With edge_prob 0 no graph on two or more vertices is connected, so none is drawn
    if edge_prob or p < 2:
        rng = random.Random(0 if seed is None else seed)
        pairs = [(i, j) for i in range(1, p + 1) for j in range(i + 1, p + 1)]
        for _ in range(1000):
            chosen = [pair for pair in pairs if rng.random() < edge_prob]
            signs = [-1 if rng.random() < neg_prob else 1 for _ in chosen]
            g = canonicalize(p, [(u, v, s) for (u, v), s in zip(chosen, signs)])
            if is_connected(g):
                return g
    raise InputError(
        f"could not draw a connected graph on {p} vertices with edge_prob={edge_prob}"
    )


# ---------------------------------------------------------------------------
# text interchange format


def dumps(g: SignedGraph) -> str:
    """Serialize to the text edge-list format.  Output is canonical."""
    lines = [f"{g.p} {g.q}"]
    for u, v, s in g.edges:
        lines.append(f"{u} {v} {'+1' if s == 1 else '-1'}")
    return "\n".join(lines) + "\n"


# the whole text as dumps writes it: every number without a leading zero,
# single spaces, each sign +1 or -1, and a final newline
_CANONICAL = re.compile(r"(?:0|[1-9][0-9]*) (?:0|[1-9][0-9]*)\n(?:[1-9][0-9]* [1-9][0-9]* [+-]1\n)*")
# "p q\nu v +1\nu v -1" -> "p,q,u,v,1,u,v,-1"
_AS_JSON = str.maketrans(" \n", ",,", "+")


def loads(text: str) -> SignedGraph:
    """Parse the text edge-list format.  Comments and blank lines are skipped.

    Canonical text, as dumps writes it, is read in bulk; any other text
    goes through the line parser, which gives the same graph for every
    text both accept and reports every error.
    """
    return _loads_canonical(text) or _loads_lines(text)


def _loads_canonical(text: str) -> SignedGraph | None:
    """The graph of text in exactly the canonical form, else None.

    One regex checks the shape of every line, and one json.loads reads
    every number.  Each edge must then have u < v <= p, the edges must
    number q, and the pair keys u * (p + 1) + v must strictly increase,
    which proves the edges sorted and distinct, so canonicalize has
    nothing left to check or sort.
    """
    if _CANONICAL.fullmatch(text) is None:
        return None
    try:
        nums = json.loads(f"[{text[:-1].translate(_AS_JSON)}]")
    except ValueError:  # a number past int's digit limit
        return None
    p, q = nums[0], nums[1]
    us, vs = nums[2::3], nums[3::3]
    if len(us) != q or not all(map(lt, us, vs)) or max(vs, default=0) > p:
        return None
    keys = list(map(add, map(mul, us, repeat(p + 1)), vs))
    if not all(map(lt, keys, keys[1:])):
        return None
    return SignedGraph(p, tuple(zip(us, vs, nums[4::3])))


def _loads_lines(text: str) -> SignedGraph:
    """Parse the text edge-list format line by line, then canonicalize."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append((lineno, line))
    if not rows:
        raise InputError("empty edge list input")
    lineno, header = rows[0]
    parts = header.split()
    if len(parts) != 2:
        raise InputError(f"line {lineno}: header must be 'p q'")
    try:
        p, q = int(parts[0]), int(parts[1])
    except ValueError:
        raise InputError(f"line {lineno}: header must hold two integers") from None
    body = rows[1:]
    if len(body) != q:
        raise InputError(f"header promises {q} edges, found {len(body)}")
    triples = []
    for lineno, line in body:
        parts = line.split()
        if len(parts) != 3:
            raise InputError(f"line {lineno}: edge lines must be 'u v s'")
        try:
            u, v = int(parts[0]), int(parts[1])
            s = int(parts[2])
        except ValueError:
            raise InputError(f"line {lineno}: edge lines must hold integers") from None
        if s not in (1, -1):
            raise InputError(f"line {lineno}: sign must be +1 or -1, got {parts[2]}")
        triples.append((u, v, s))
    return canonicalize(p, triples)


def load(path: str) -> SignedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def dump(g: SignedGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps(g))
