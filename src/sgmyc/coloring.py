"""Signed chromatic numbers over symmetric color sets.

Colors come from the symmetric sets M_n: for n = 2k the nonzero values
{-k..-1, 1..k}, for n = 2k+1 the same plus 0.  A coloring is proper when
c(u) differs from s * c(v) on every edge (u, v, s); on positive edges
that is the usual constraint, on negative edges the two endpoints must
not carry opposite values.  The signed chromatic number is the least n
admitting a proper coloring.

chromatic_number is an exact backtracking solver.  It tries n = 1, 2, ...
in order, and for each n branches over vertices in descending degree
order (ties by vertex id) with colors in the fixed order of
color_trial_order: 0 (when present), 1, -1, 2, -2, ...  The search keeps
an explicit stack, one next-candidate index per depth, so its depth is
not bounded by the interpreter's recursion limit; the colors that earlier
neighbours forbid are gathered once when the search enters a depth.

The constraint c(u) != s * c(v) is invariant under the signed
permutations of the pairs {+i, -i}: permuting the pairs and flipping the
sign within any of them maps proper colorings to proper colorings.  The
search breaks that symmetry by pair opening.  If the vertices placed so
far use the pairs 1..m, the next vertex tries only 0 (for odd n),
+-1..+-m and, when m < k = n // 2, the one new pair as +(m+1).  These
candidates are a prefix of the trial order.

Pair opening leaves every witness unchanged.  Read a coloring as the
vector of the trial positions of its colors in branch order; plain
backtracking returns the lexicographically least proper coloring.  Take
that coloring and suppose it breaks the rule first at the vertex where
it uses +-j with j > m, or -(m+1).  The signed permutation that swaps the
pairs j and m+1 (when they differ) and sends that color to +(m+1) fixes
0 and the pairs 1..m.  So it keeps every earlier vertex, moves this
vertex to an earlier trial position, and keeps the coloring proper: a
lexicographically smaller proper coloring, which cannot exist.  So the least proper
coloring obeys the rule, and the pruned search, visiting the same
candidates in the same order minus the pruned ones, returns it too.

The optional node budget counts colors tried, one node each, across the
whole call, and raises BudgetExhaustedError when it runs out.  The error
carries the n being searched as a lower bound, since every smaller color
set was refuted, and the nodes spent.  Pair opening tries fewer colors,
so a given budget decides more inputs than plain backtracking would.
A negative budget is rejected.  The library itself never imposes a budget.

The Mycielskian interacts with the chromatic number through a sandwich:
chi(M) is chi or chi + 1, equality holds for all-negative input, the +1
case for all-positive input, and deleting the root from the Mycielskian
always restores chi.  A proper coloring of the input extends to the
Mycielskian one color set up: for even n the twins copy their originals
and the root takes the new color 0; for odd n = 2k+1 every vertex colored
0 is recolored to the new value k+1, twins copy as before, and the root
takes -(k+1).  Vertices colored 0 form an independent set, so the
recoloring keeps the coloring proper.

Antibalance is the chromatic property chi <= 2, so
balance.is_antibalanced decides chi <= 2 without a search.
"""

from __future__ import annotations

from .core import SignedGraph, incident_edges
from .errors import (
    BudgetExhaustedError,
    ColorOutOfSetError,
    ConsistencyError,
    InvalidParamsError,
    LengthMismatchError,
    NotProperError,
)

from dataclasses import dataclass


def color_set(n: int) -> tuple[int, ...]:
    """Members of M_n in ascending order."""
    if n < 1:
        raise InvalidParamsError("color set needs n >= 1")
    k = n // 2
    values = list(range(-k, k + 1))
    if n % 2 == 0:
        values.remove(0)
    return tuple(values)


def color_trial_order(n: int) -> tuple[int, ...]:
    """Members of M_n in solver order: 0 when present, then 1, -1, 2, -2, ..."""
    if n < 1:
        raise InvalidParamsError("color set needs n >= 1")
    k = n // 2
    order = [0] if n % 2 == 1 else []
    for v in range(1, k + 1):
        order.extend((v, -v))
    return tuple(order)


@dataclass(frozen=True)
class SignedColoring:
    """A coloring certificate: the color set size n and one color per vertex."""

    n: int
    colors: tuple[int, ...]


def is_proper(g: SignedGraph, coloring: SignedColoring) -> bool:
    """Check c(u) != s * c(v) on every edge."""
    if len(coloring.colors) != g.p:
        raise LengthMismatchError(
            f"coloring has {len(coloring.colors)} colors, graph has {g.p} vertices"
        )
    allowed = set(color_set(coloring.n))
    for v, c in enumerate(coloring.colors, start=1):
        if c not in allowed:
            raise ColorOutOfSetError(f"vertex {v} has color {c}, not in M_{coloring.n}")
    return all(coloring.colors[u - 1] != s * coloring.colors[v - 1] for u, v, s in g.edges)


def deficiency(g: SignedGraph, coloring: SignedColoring) -> int:
    """How many colors of M_n a proper coloring leaves unused."""
    if not is_proper(g, coloring):
        raise NotProperError("deficiency is defined for proper colorings only")
    return coloring.n - len(set(coloring.colors))


def chromatic_number(g: SignedGraph, node_budget: int | None = None) -> tuple[int, SignedColoring]:
    """Least n with a proper coloring over M_n, plus one witness coloring."""
    if node_budget is not None and node_budget < 0:
        raise InvalidParamsError(f"node budget must be at least 0, got {node_budget}")
    # any graph is properly colored by p distinct positive values, so the
    # loop below always terminates by n = 2p (and at n = 1 for p = 0)
    p = g.p
    if p == 0:
        return 1, SignedColoring(1, ())
    inc = incident_edges(g)
    order = sorted(range(1, p + 1), key=lambda v: (-len(inc[v]), v))
    # (depth, sign) of the neighbours of each vertex that come earlier in the branch order
    pos = {v: i for i, v in enumerate(order)}
    earlier = [[(pos[u], s) for u, s in inc[v] if pos[u] < pos[v]] for v in order]
    nodes = 0
    for n in range(1, 2 * p + 1):
        # colors are handled as positions in the trial order; bit t of a
        # mask stands for the color trial[t]
        trial = color_trial_order(n)
        negated = [trial.index(-c) for c in trial]
        odd, k = n % 2, n // 2
        # how many trial positions a depth may try with m pairs open
        limit = [odd + 2 * m + (m < k) for m in range(k + 1)]
        # the color at a placed depth is trial[nxt[depth] - 1]
        nxt = [0] * p  # next trial position to try at each depth
        opened = [0] * p  # pairs open before each depth
        allowed = [0] * p  # candidates at each depth that no earlier neighbour forbids
        allowed[0] = (1 << limit[0]) - 1
        i = 0
        while i >= 0:
            start = nxt[i]
            rest = allowed[i] >> start << start
            # every position from start up to the color taken, or up to the
            # limit when none is left, counts as one color tried
            end = (rest & -rest).bit_length() if rest else limit[opened[i]]
            nodes += end - start
            if node_budget is not None and nodes > node_budget:
                raise BudgetExhaustedError(n, nodes=node_budget)
            if not rest:
                i -= 1
                continue
            nxt[i] = end
            m = opened[i]
            i += 1
            if i == p:
                colors = [0] * p
                for d, v in enumerate(order):
                    colors[v - 1] = trial[nxt[d] - 1]
                return n, SignedColoring(n, tuple(colors))
            # the color taken at position odd + 2m is +(m+1), a new pair
            m = opened[i] = m + (end == odd + 2 * m + 1)
            forbidden = 0
            for j, s in earlier[i]:
                t = nxt[j] - 1
                forbidden |= 1 << (t if s > 0 else negated[t])
            allowed[i] = ((1 << limit[m]) - 1) & ~forbidden
            nxt[i] = 0
    raise ConsistencyError("no coloring found below the terminating bound")


def extend_coloring_to_mycielskian(g: SignedGraph, coloring: SignedColoring) -> SignedColoring:
    """Extend a proper coloring of g to one of its Mycielskian over M_{n+1}.

    Even n: twins copy their originals, the root takes the new color 0.
    Odd n = 2k+1: every vertex colored 0 switches to the new color k+1,
    twins copy the adjusted colors, the root takes -(k+1).
    """
    if not is_proper(g, coloring):
        raise NotProperError("only proper colorings extend")
    n = coloring.n
    k = n // 2
    if n % 2 == 0:
        base = list(coloring.colors)
        root_color = 0
    else:
        base = [k + 1 if c == 0 else c for c in coloring.colors]
        root_color = -(k + 1)
    return SignedColoring(n + 1, tuple(base) + tuple(base) + (root_color,))
