"""Mycielskian constructions for signed graphs.

The Mycielskian of a signed graph on vertices v_1..v_p adds a twin u_i
for every vertex and one root vertex w.  Each original edge v_i v_j is
kept and spawns the two cross edges v_i u_j and u_i v_j with the same
sign, and every twin is joined to the root by a positive edge.  Vertex
labels are fixed once and for all: original i stays i, the twin of i is
p + i, and the root is 2p + 1.  Counts follow directly: 2p + 1 vertices
and 3q + p edges, with 3r + p positive and 3(q - r) negative edges when
the input has r positive edges.

The plain Mycielskian of a balanced graph is balanced only in the
trivial all-positive case; any negative edge v_i v_j closes the negative
5-cycle (v_i, v_j, u_i, w, u_j).  Re-signing the root star repairs this.
When the root edge at u_i receives sign zeta(v_i) for a switching
function zeta that takes the input to all-positive, the result, the
balanced Mycielskian, is balanced, and the switching function that sends
it to all-positive copies zeta onto each twin and fixes the root.

Iterating the balanced Mycielskian starting from a single vertex and a
negative edge produces the tower used for chromatic lower bounds: every
level is balanced, triangle-free, and not all-positive, and each step
raises the signed chromatic number by exactly one.

Every construction emits its edges already in canonical order, so none
sorts or re-checks its output.  Canonical g.edges meet each vertex's
smaller neighbours, ascending, before its larger ones, so core.neighbours
lists every neighbourhood in ascending order.  The Mycielskian's edges
from an original u to larger labels are the original edges u v, v > u,
then the cross edges to u_v = p + v > p, ascending in v; a twin's only
larger neighbour is the root.  Emitting these two runs for u = 1..p and
then the root star twin by twin is therefore the sorted edge tuple.  The
first run of u is a slice of g.edges, so it holds g's own edge tuples.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

from .balance import BalanceCertificate, _certificate
from .core import (
    SignedGraph,
    SwitchingFunction,
    canonicalize,
    is_all_positive,
    neighbours,
)
from .errors import InputError, PreconditionError


@dataclass(frozen=True)
class MycielskianLabeling:
    """Fixed vertex labeling of a Mycielskian built from p originals."""

    p: int

    def original(self, i: int) -> int:
        return i

    def twin(self, i: int) -> int:
        return self.p + i

    @property
    def root(self) -> int:
        return 2 * self.p + 1

    def to_json_dict(self) -> dict:
        return {
            "original": list(range(1, self.p + 1)),
            "twin": list(range(self.p + 1, 2 * self.p + 1)),
            "root": self.root,
        }


def _build(g: SignedGraph, root_signs: Sequence[int], nbrs: list[list[tuple[int, int]]]) -> SignedGraph:
    """Mycielskian of g, given nbrs = neighbours(g), with sign root_signs[i - 1] on the root edge at u_i.

    The edges come out in canonical order (see the module docstring).
    """
    p = g.p
    edges: list[tuple[int, int, int]] = []
    cuts = [bisect_left(g.edges, (u,)) for u in range(1, p + 2)]
    for i, row in enumerate(nbrs):
        edges += g.edges[cuts[i] : cuts[i + 1]]
        edges.extend([(i + 1, p + 1 + v, s) for v, s in row])
    root = 2 * p + 1
    edges.extend([(p + i, root, s) for i, s in enumerate(root_signs, start=1)])
    return SignedGraph(root, tuple(edges))


def mycielskian(g: SignedGraph) -> tuple[SignedGraph, MycielskianLabeling]:
    """Signed Mycielskian with the fixed labeling."""
    return _build(g, (1,) * g.p, neighbours(g)), MycielskianLabeling(g.p)


def resign_root(gm: SignedGraph, lab: MycielskianLabeling, rs: Sequence[int]) -> SignedGraph:
    """Replace the sign of each root edge u_i w by rs(i).

    The input must actually be a Mycielskian under the labeling: the root
    is adjacent to exactly the twin set, the twin set is independent, and
    the cross edges mirror the original edges sign for sign.  Rebuilding it
    from its original edges and root signs checks this.
    """
    p = lab.p
    if len(rs) != p:
        raise InputError(f"root signature has length {len(rs)}, expected {p}")
    for i, s in enumerate(rs):
        if type(s) is not int or s not in (1, -1):
            raise InputError(f"root signature entry for vertex {i + 1} is {s}")
    if gm.p != lab.root:
        raise PreconditionError(f"expected {lab.root} vertices, got {gm.p}")
    g = SignedGraph(p, tuple(e for e in gm.edges if e[1] <= p))
    nbrs = neighbours(g)
    old_signs = [s for _, v, s in gm.edges if v == lab.root]
    if len(old_signs) != p or _build(g, old_signs, nbrs) != gm:
        raise PreconditionError("graph is not the Mycielskian of its original edges")
    return _build(g, rs, nbrs)


def balanced_mycielskian(
    g: SignedGraph, cert: BalanceCertificate | None = None
) -> tuple[SignedGraph, SwitchingFunction]:
    """Balanced Mycielskian of a balanced signed graph.

    The root edge at twin u_i carries sign zeta(v_i), where zeta switches
    g to all-positive.  Both a switching function and its negation do
    that, so one orientation has to be pinned for reproducible output:
    the construction uses the breadth-first certificate switching negated,
    except for all-positive input, which keeps zeta identically +1 and
    hence the plain Mycielskian.

    Returns the graph together with the switching function on 2p + 1
    vertices that takes it to all-positive (zeta copied onto the twins,
    +1 on the root).  Raises PreconditionError for unbalanced input.
    cert, when given, is certify_balance(g) already made by the caller.
    """
    nbrs = neighbours(g)
    if cert is None:
        cert = _certificate(nbrs)
    if not cert.balanced:
        raise PreconditionError(f"input is unbalanced, negative cycle {list(cert.witness)}")
    zeta = cert.to_all_positive
    if not is_all_positive(g):
        zeta = tuple(-z for z in zeta)
    return _build(g, zeta, nbrs), zeta + zeta + (1,)


def tower(n: int) -> list[SignedGraph]:
    """First n levels of the balanced Mycielskian tower.

    Level 1 is the single vertex, level 2 the single negative edge, and
    each later level is the balanced Mycielskian of the one before.  Level
    k has signed chromatic number exactly k, stays balanced and
    triangle-free, and from level 2 on is never all-positive.
    """
    if type(n) is not int or n < 1:
        raise InputError("tower needs n >= 1")
    levels = [canonicalize(1, [])]
    if n >= 2:
        levels.append(canonicalize(2, [(1, 2, -1)]))
    while len(levels) < n:
        gb, _ = balanced_mycielskian(levels[-1])
        levels.append(gb)
    return levels
