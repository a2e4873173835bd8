"""Signed chromatic numbers over symmetric color sets.

Colors come from the symmetric sets M_n: for n = 2k the nonzero values
{-k..-1, 1..k}, for n = 2k+1 the same plus 0.  A coloring is proper when
c(u) differs from s * c(v) on every edge (u, v, s); on positive edges
that is the usual constraint, on negative edges the two endpoints must
not carry opposite values.  The signed chromatic number is the least n
admitting a proper coloring.

chromatic_number decides chi.  An edgeless graph has chi = 1: the color
0 alone.  An edge needs n >= 2, and chi <= 2 exactly when the graph is
antibalanced (Zaslavsky 1982; Macajova, Raspaud and Skoviera 2016): once
it is switched to all-negative every vertex may take the color 1, and
switching back turns that into the coloring zeta(v).  So
balance.is_antibalanced settles n = 2 without a search, and any other
input starts at n = 3.  From there a DSATUR search (Brelaz 1979) refutes
each n until one admits a coloring, and returns that n with the coloring
it found.  A balanced input is searched as its all-positive switching,
as set out below.

The DSATUR search branches next on the uncolored vertex whose colored
neighbours forbid the most distinct colors (its saturation), ties going
to the higher degree and then the smaller vertex id, and tries colors in
the fixed order of color_trial_order: 0 (when present), 1, -1, 2, -2, ...
Each uncolored vertex keeps, per color, how many colored neighbours
forbid it, so coloring or uncoloring a vertex updates saturations in
O(deg).  A colored vertex's counts stay as they were when it was picked,
which is what they are again when the search backtracks to it.  The next
vertex comes off a heap keyed by saturation and degree rank; entries gone
stale are skipped when popped and swept out when the heap outgrows 4p,
so no node scans all p vertices.  The search keeps an explicit stack, one
vertex and one next-candidate index per depth, so its depth is not
bounded by the interpreter's recursion limit.

The constraint c(u) != s * c(v) is invariant under the signed
permutations of the pairs {+i, -i}: permuting the pairs and flipping the
sign within any of them maps proper colorings to proper colorings.  The
search breaks that symmetry by pair opening.  If the vertices colored so
far use the pairs 1..m, the next vertex tries only 0 (for odd n),
+-1..+-m and, when m < k = n // 2, the one new pair as +(m+1).  These
candidates are a prefix of the trial order.

Pair opening loses no coloring, whichever vertex comes next.  Suppose the
partial coloring at a node, which uses the pairs 1..m, extends to a
proper coloring c that gives the next vertex v the color +-j with j > m,
or -(m+1).  The signed permutation that swaps the pairs j and m+1 (when
they differ) and sends c(v) to +(m+1) fixes 0 and the pairs 1..m, so it
fixes the partial coloring, and it maps c to a proper coloring that gives
v a candidate color.  So a node has a proper extension only if one of its
candidates does, and the search refutes n only when M_n admits no proper
coloring.  The argument looks at the partial coloring at one node, not at
the rule that chose its vertices, so it holds under either pick rule.

A balanced graph has more symmetry.  If switching by zeta makes it
all-positive, each edge (u, v, s) has s = zeta(u) zeta(v), so c(u) !=
s * c(v) says exactly zeta(u) c(u) != zeta(v) c(v); as M_n is closed
under negation, c -> zeta c maps the proper colorings of the graph onto
those of its all-positive switching G+ (Zaslavsky 1982).  On G+ the
constraint is c(u) != c(v), which every permutation of M_n preserves,
not only the 2^k k! signed ones.  So chromatic_number, after the
antibalance test, looks for zeta by one breadth-first pass over sign
potentials, stopping at the first edge that contradicts them.  When it
finds one, the search ignores the signs and opens colors one at a time:
if the vertices colored so far use the trial positions 0..m-1, the next
vertex tries only those and, when m < n, position m.  The argument is
the one above with any permutation of M_n in place of a signed one:
swapping the colors at positions j > m and m fixes the partial coloring
and maps a proper coloring of G+ that gives v position j to one that
gives it position m.  So color opening too loses no coloring under
either pick rule.  Pair opening left up to n!/(2^k k!) copies of each
refutation, 3 at n = 4 and 15 at n = 5, and color opening leaves one.
The coloring found for G+, times zeta, is the witness returned.
least_coloring keeps pair opening on every input, so its witness is the
least coloring of the signed graph itself.

least_coloring runs the same loop at one n with the static pick rule:
the vertex at depth i is the i-th in descending degree order (ties by
vertex id), so its colored neighbours are exactly its earlier ones.  Its
candidates, the order it tries them in and the nodes it counts are then
those of plain backtracking in that order under pair opening.  Nothing
pops the heap, but the sweep still bounds it.  Read a coloring as the
vector of the trial positions of its colors in branch order; plain
backtracking returns the lexicographically least proper coloring, and
pair opening leaves that witness unchanged.  Suppose the least proper
coloring breaks the rule, first at vertex v.  The swap above keeps every
earlier vertex and moves v to an earlier trial position, which gives a
lexicographically smaller proper coloring, and none exists.  So the
least proper coloring obeys the rule, and the pruned search, visiting
the same candidates in the same order minus the pruned ones, returns it
too.  It is the witness `sgmyc chromatic --certificate` prints, at
n = chi; chromatic_number never picks statically.

The optional node budget counts colors tried, one node each, across one
call of chromatic_number or least_coloring, and raises
BudgetExhaustedError when it runs out.  From chromatic_number the error
carries the n being searched as a lower bound, since every smaller color
set was refuted, and the nodes spent; from least_coloring it carries its
own n.  Pair opening tries fewer colors, and on balanced input opening
colors one at a time fewer still, so a given budget decides more inputs
than plain backtracking would.  A negative budget is rejected.
The library itself never imposes a budget.

The Mycielskian interacts with the chromatic number through a sandwich:
chi(M) is chi or chi + 1, equality holds for all-negative input, the +1
case for all-positive input, and deleting the root from the Mycielskian
always restores chi.  A proper coloring of the input extends to the
Mycielskian one color set up: for even n the twins copy their originals
and the root takes the new color 0; for odd n = 2k+1 every vertex colored
0 is recolored to the new value k+1, twins copy as before, and the root
takes -(k+1).  Vertices colored 0 form an independent set, so the
recoloring keeps the coloring proper.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from . import balance
from .core import SignedGraph
from .errors import BudgetExhaustedError, ConsistencyError, InputError, PreconditionError


def color_trial_order(n: int) -> tuple[int, ...]:
    """Members of M_n in solver order: 0 when present, then 1, -1, 2, -2, ..."""
    if type(n) is not int or n < 1:
        raise InputError("color set needs n >= 1")
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
        raise InputError(
            f"coloring has {len(coloring.colors)} colors, graph has {g.p} vertices"
        )
    allowed = set(color_trial_order(coloring.n))
    for v, c in enumerate(coloring.colors, start=1):
        if c not in allowed:
            raise InputError(f"vertex {v} has color {c}, not in M_{coloring.n}")
    return all(coloring.colors[u - 1] != s * coloring.colors[v - 1] for u, v, s in g.edges)


def deficiency(g: SignedGraph, coloring: SignedColoring) -> int:
    """How many colors of M_n a proper coloring leaves unused."""
    if not is_proper(g, coloring):
        raise PreconditionError("deficiency is defined for proper colorings only")
    return coloring.n - len(set(coloring.colors))


def _check_budget(node_budget: int | None) -> None:
    if node_budget is not None and type(node_budget) is not int:
        raise InputError(f"node budget must be an integer, got {node_budget!r}")
    if node_budget is not None and node_budget < 0:
        raise InputError(f"node budget must be at least 0, got {node_budget}")


def _branch_graph(g: SignedGraph) -> tuple[list[int], list[list[tuple[int, int]]]]:
    """Vertices by descending degree (ties by id), and the (position, sign)
    neighbours of each vertex, vertices named by their position in that order."""
    degree = [0] * (g.p + 1)
    for u, v, _ in g.edges:
        degree[u] += 1
        degree[v] += 1
    # the sort is stable, so vertices of equal degree stay in id order
    order = sorted(range(1, g.p + 1), key=lambda v: -degree[v])
    pos = [0] * (g.p + 1)
    for i, v in enumerate(order):
        pos[v] = i
    neighbours: list[list[tuple[int, int]]] = [[] for _ in order]
    for u, v, s in g.edges:
        neighbours[pos[u]].append((pos[v], s))
        neighbours[pos[v]].append((pos[u], s))
    return order, neighbours


def _switching(neighbours: list[list[tuple[int, int]]]) -> list[int] | None:
    """The switching zeta, by position, that makes the graph all-positive, or None when it is unbalanced."""
    zeta = [0] * len(neighbours)
    for root in range(len(neighbours)):
        if zeta[root]:
            continue
        zeta[root] = 1
        # breadth first: the loop walks the list as it grows
        queue = [root]
        for v in queue:
            for u, s in neighbours[v]:
                if not zeta[u]:
                    zeta[u] = s * zeta[v]
                    queue.append(u)
                elif zeta[u] != s * zeta[v]:
                    return None
    return zeta


def _coloring(order: list[int], n: int, positions: list[int], zeta: list[int] | None = None) -> SignedColoring:
    """The colors in vertex-id order, each times zeta at its position when a switching is given."""
    trial = color_trial_order(n)
    colors = [0] * len(order)
    for i, v in enumerate(order):
        colors[v - 1] = trial[positions[i]] if zeta is None else zeta[i] * trial[positions[i]]
    return SignedColoring(n, tuple(colors))


def chromatic_number(g: SignedGraph, node_budget: int | None = None) -> tuple[int, SignedColoring]:
    """Least n with a proper coloring over M_n, plus the witness the DSATUR search found."""
    _check_budget(node_budget)
    if g.q == 0:
        return 1, SignedColoring(1, (0,) * g.p)
    antibalanced, to_all_negative = balance.is_antibalanced(g)
    if antibalanced:
        # the constant 1 colors an all-negative graph; switching back gives zeta itself
        return 2, SignedColoring(2, to_all_negative)
    order, neighbours = _branch_graph(g)
    # a balanced graph is searched as its all-positive switching
    zeta = _switching(neighbours)
    nodes = 0
    # p distinct positive values color any graph, so the loop ends by n = 2p
    for n in range(3, 2 * g.p + 1):
        positions, nodes = _search(neighbours, n, nodes, node_budget, unsigned=zeta is not None)
        if positions is not None:
            return n, _coloring(order, n, positions, zeta)
    raise ConsistencyError("no coloring found below the terminating bound")


def least_coloring(g: SignedGraph, n: int, node_budget: int | None = None) -> SignedColoring | None:
    """The least proper coloring over M_n in the static order, or None when M_n admits none."""
    _check_budget(node_budget)
    order, neighbours = _branch_graph(g)
    # the search starts from vertex 0, so the null graph skips it; either
    # way the trial order rejects n < 1
    positions = _search(neighbours, n, 0, node_budget, static=True)[0] if order else []
    return None if positions is None else _coloring(order, n, positions)


def _search(
    neighbours: list[list[tuple[int, int]]],
    n: int,
    nodes: int,
    node_budget: int | None,
    static: bool = False,
    unsigned: bool = False,
) -> tuple[list[int] | None, int]:
    """One search over M_n: the trial position of each vertex, or None, and the nodes so far.

    Vertices are named by their position in the degree order.  The next
    vertex is the most saturated uncolored one, the smaller name winning a
    tie, or with static the one named by the depth.  With unsigned the
    signs are ignored, so the search colors the all-positive graph, and
    colors open one at a time instead of one pair at a time.
    """
    p = len(neighbours)
    trial = color_trial_order(n)
    # bit t of a mask stands for the color at trial position t: the
    # position a negative edge forbids, and how many positions a vertex may
    # try with m = 0..k pairs open, or unsigned with m = 0..n-1 colors in use
    if unsigned:
        negated = list(range(n))
        limit = list(range(1, n + 1))
    else:
        negated = [trial.index(-c) for c in trial]
        odd, k = n % 2, n // 2
        limit = [odd + 2 * m + (m < k) for m in range(k + 1)]
    count = [0] * (p * n)  # count[v * n + t]: colored neighbours of v that forbid position t
    forbidden = [0] * p  # bit t set when count[v * n + t] > 0
    sat = [0] * p  # saturation: the bits set in forbidden[v]
    color = [-1] * p  # trial position of each colored vertex
    # keys (n - sat) * p + v, least first; an entry is stale once v is
    # colored or its saturation moved, and is skipped when popped.  v = 0,
    # of the highest degree, is the first pick, since nothing is saturated
    heap = list(range(n * p + 1, n * p + p))
    picked = [0] * p  # the vertex colored at each depth
    nxt = [0] * p  # next trial position to try at each depth
    opened = [0] * p  # pairs open before each depth, or unsigned colors
    allowed = [0] * p  # candidates at each depth that no colored neighbour forbids
    push, pop = heapq.heappush, heapq.heappop
    i, v = 0, 0
    allowed[0] = (1 << limit[0]) - 1
    while True:
        start = nxt[i]
        if start:
            # take back the color this depth tried last
            t = start - 1
            color[v] = -1
            for u, s in neighbours[v]:
                if color[u] < 0:
                    at = u * n + (t if s > 0 else negated[t])
                    count[at] -= 1
                    if not count[at]:
                        forbidden[u] ^= 1 << (at - u * n)
                        sat[u] -= 1
                        push(heap, (n - sat[u]) * p + u)
        rest = allowed[i] >> start << start
        # every position from start up to the color taken, or up to the
        # limit when none is left, counts as one color tried
        end = (rest & -rest).bit_length() if rest else limit[opened[i]]
        nodes += end - start
        if node_budget is not None and nodes > node_budget:
            raise BudgetExhaustedError(n, nodes=node_budget)
        if not rest:
            push(heap, (n - sat[v]) * p + v)
            i -= 1
            if i < 0:
                return None, nodes
            v = picked[i]
            continue
        nxt[i] = end
        t = end - 1
        color[v] = t
        for u, s in neighbours[v]:
            if color[u] < 0:
                tu = t if s > 0 else negated[t]
                at = u * n + tu
                if not count[at]:
                    forbidden[u] |= 1 << tu
                    sat[u] += 1
                    push(heap, (n - sat[u]) * p + u)
                count[at] += 1
        # the last candidate, while some color stays unopened, opens a new
        # one: +(m+1) at position odd + 2m, or unsigned position m
        m = opened[i] + (end == limit[opened[i]] < n)
        i += 1
        if i == p:
            return color, nodes
        # swept under either pick, or a static search would grow the heap
        # by one entry per saturation change
        if len(heap) > 4 * p:
            heap = [(n - sat[u]) * p + u for u in range(p) if color[u] < 0]
            heapq.heapify(heap)
        if static:
            v = i
        else:
            while True:
                key = pop(heap)
                v = key % p
                if color[v] < 0 and key // p == n - sat[v]:
                    break
        picked[i] = v
        opened[i] = m
        allowed[i] = ((1 << limit[m]) - 1) & ~forbidden[v]
        nxt[i] = 0


def extend_coloring_to_mycielskian(g: SignedGraph, coloring: SignedColoring) -> SignedColoring:
    """Extend a proper coloring of g to one of its Mycielskian over M_{n+1}.

    Even n: twins copy their originals, the root takes the new color 0.
    Odd n = 2k+1: every vertex colored 0 switches to the new color k+1,
    twins copy the adjusted colors, the root takes -(k+1).
    """
    if not is_proper(g, coloring):
        raise PreconditionError("only proper colorings extend")
    n = coloring.n
    k = n // 2
    if n % 2 == 0:
        base = list(coloring.colors)
        root_color = 0
    else:
        base = [k + 1 if c == 0 else c for c in coloring.colors]
        root_color = -(k + 1)
    return SignedColoring(n + 1, tuple(base) + tuple(base) + (root_color,))
