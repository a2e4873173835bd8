"""Balance certificates, and the one search for a switching.

A signed graph is balanced when every cycle has positive sign, which by
Harary's theorem is the same as admitting a bipartition of the vertices
such that negative edges run between the parts and positive edges stay
inside a part.  Equivalently the graph can be switched to all-positive.

certify_balance produces one artifact that witnesses whichever side
holds: for a balanced graph a switching function to all-positive plus the
matching bipartition, for an unbalanced graph a concrete negative cycle.

_potentials is the package's one search for a switching, breadth first
over sign potentials on 0-based neighbour lists, as core.neighbours
builds them.  Potentials start at +1 on each root, the smallest
unreached index, and pass along tree edges times sign times the edge
sign; the first non-tree edge whose endpoints contradict them closes a
cycle with the tree paths, and no switching exists.  With sign 1 the
switching sought is to all-positive and the cycle is negative:
certify_balance searches core.neighbours(g) and returns that cycle as
its witness.  With sign -1 it is to all-negative, which
coloring.chromatic_number seeks on its branch graph, since chi <= 2
exactly when it exists; it then seeks with sign 1 the switching under
which a balanced input is searched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import SignedGraph, SwitchingFunction, neighbours
from .errors import InputError


@dataclass(frozen=True)
class BalanceCertificate:
    """Outcome of certify_balance.

    balanced         verdict for the whole graph
    bipartition      per-vertex part labels 1 or 2, only when balanced
    to_all_positive  switching function taking the graph to all-positive,
                     only when balanced
    witness          vertex sequence of a negative simple cycle, only when
                     unbalanced
    """

    balanced: bool
    bipartition: tuple[int, ...] | None
    to_all_positive: SwitchingFunction | None
    witness: tuple[int, ...] | None

    def to_json_dict(self) -> dict:
        return {
            "balanced": self.balanced,
            "bipartition": list(self.bipartition) if self.bipartition is not None else None,
            "switching": list(self.to_all_positive) if self.to_all_positive is not None else None,
            "witness_cycle": list(self.witness) if self.witness is not None else None,
        }


def cycle_sign(g: SignedGraph, cycle: Sequence[int]) -> int:
    """Product of edge signs around a simple cycle given as a vertex list.

    The list holds each vertex once; the closing edge from the last vertex
    back to the first is implied.  Raises InputError when the sequence
    is too short, repeats a vertex, or uses a non-edge.
    """
    k = len(cycle)
    if k < 3:
        raise InputError(f"cycle needs at least 3 vertices, got {k}")
    if len(set(cycle)) != k:
        raise InputError("cycle repeats a vertex")
    signs = {(u, v): s for u, v, s in g.edges}
    sign = 1
    for i in range(k):
        u, v = cycle[i], cycle[(i + 1) % k]
        s = signs.get((u, v) if u < v else (v, u))
        if s is None:
            raise InputError(f"({u},{v}) is not an edge")
        sign *= s
    return sign


def certify_balance(g: SignedGraph) -> BalanceCertificate:
    """Decide balance and return a checkable certificate either way."""
    zeta, parent, conflict = _potentials(neighbours(g), 1)
    if conflict:
        witness = tuple(x + 1 for x in _tree_cycle(parent, *conflict))
        return BalanceCertificate(False, None, None, witness)
    z = tuple(zeta)
    parts = tuple(1 if x == 1 else 2 for x in z)
    return BalanceCertificate(True, parts, z, None)


def _potentials(neighbours: list[list[tuple[int, int]]], sign: int) -> tuple[list[int], list[int], tuple[int, int] | None]:
    """Potentials zeta, the search-tree parents (each root its own), and the
    first edge (v, u) that contradicts zeta, or None when switching by zeta
    makes every edge sign: all-positive for sign 1, all-negative for -1."""
    zeta = [0] * len(neighbours)
    parent = list(range(len(neighbours)))
    for root in range(len(neighbours)):
        if zeta[root]:
            continue
        zeta[root] = 1
        # breadth first: the loop walks the list as it grows
        queue = [root]
        for v in queue:
            for u, s in neighbours[v]:
                if not zeta[u]:
                    zeta[u] = sign * s * zeta[v]
                    parent[u] = v
                    queue.append(u)
                elif zeta[u] != sign * s * zeta[v]:
                    return zeta, parent, (v, u)
    return zeta, parent, None


def _tree_cycle(parent: list[int], u: int, v: int) -> tuple[int, ...]:
    """Simple cycle formed by edge uv and the search-tree paths to u and v, all 0-based."""
    up_u = [u]
    while parent[up_u[-1]] != up_u[-1]:
        up_u.append(parent[up_u[-1]])
    on_u = {x: i for i, x in enumerate(up_u)}
    path_v = [v]
    while path_v[-1] not in on_u:
        path_v.append(parent[path_v[-1]])
    meet = path_v[-1]
    # u .. meet, then back down to v, closed by the edge vu
    return tuple(up_u[: on_u[meet] + 1] + path_v[-2::-1])


def negate(g: SignedGraph) -> SignedGraph:
    """Flip every edge sign."""
    return SignedGraph(g.p, tuple((u, v, -s) for u, v, s in g.edges))
