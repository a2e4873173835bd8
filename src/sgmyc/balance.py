"""Balance and antibalance certificates.

A signed graph is balanced when every cycle has positive sign, which by
Harary's theorem is the same as admitting a bipartition of the vertices
such that negative edges run between the parts and positive edges stay
inside a part.  Equivalently the graph can be switched to all-positive.

certify_balance produces one artifact that witnesses whichever side
holds: for a balanced graph a switching function to all-positive plus the
matching bipartition, for an unbalanced graph a concrete negative cycle.
The certificate is built by breadth-first search over sign potentials.
Vertex potentials start at +1 on each search root and propagate along
tree edges by multiplication with the edge sign; the first non-tree edge
whose endpoints contradict their potentials closes a negative cycle with
the tree paths, and that cycle is returned as the witness.

The search is deterministic: roots are the smallest unvisited vertex,
and neighbors are scanned in canonical edge order.  Disconnected input is
handled per component, each component root pinned to potential +1.

Antibalance is balance of the negation, so is_antibalanced reuses the
same certificate on the negated graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .core import SignedGraph, SwitchingFunction, incident_edges
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
    zeta = [0] * g.p
    parent = [0] * g.p
    inc = incident_edges(g)
    for root in range(1, g.p + 1):
        if zeta[root - 1] != 0:
            continue
        zeta[root - 1] = 1
        parent[root - 1] = root
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v, s in inc[u]:
                if zeta[v - 1] == 0:
                    zeta[v - 1] = zeta[u - 1] * s
                    parent[v - 1] = u
                    queue.append(v)
                elif zeta[u - 1] * s * zeta[v - 1] != 1:
                    witness = _tree_cycle(parent, u, v)
                    return BalanceCertificate(False, None, None, witness)
    z = tuple(zeta)
    parts = tuple(1 if x == 1 else 2 for x in z)
    return BalanceCertificate(True, parts, z, None)


def _tree_cycle(parent: list[int], u: int, v: int) -> tuple[int, ...]:
    """Simple cycle formed by edge uv and the search-tree paths to u and v."""
    up_u = [u]
    while parent[up_u[-1] - 1] != up_u[-1]:
        up_u.append(parent[up_u[-1] - 1])
    on_u = {x: i for i, x in enumerate(up_u)}
    path_v = [v]
    while path_v[-1] not in on_u:
        path_v.append(parent[path_v[-1] - 1])
    meet = path_v[-1]
    # u .. meet, then back down to v, closed by the edge vu
    return tuple(up_u[: on_u[meet] + 1] + path_v[-2::-1])


def negate(g: SignedGraph) -> SignedGraph:
    """Flip every edge sign."""
    return SignedGraph(g.p, tuple((u, v, -s) for u, v, s in g.edges))


def is_antibalanced(g: SignedGraph) -> tuple[bool, SwitchingFunction | None]:
    """Whether the negation is balanced, with a switching to all-negative.

    The returned switching function, when present, switches g itself to
    all-negative; it is the all-positive switching of the negation.
    """
    cert = certify_balance(negate(g))
    return (cert.balanced, cert.to_all_positive)
