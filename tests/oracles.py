"""Independent brute-force oracles for the test suite.

Nothing here reuses toolkit algorithms, and the oracles build their own
adjacency from g.edges (_adjacency_map): colorings are checked by full
enumeration, balance by enumerating every simple cycle, and path signs
by enumerating every simple path.  Matrix oracles work on plain lists of
rows: ranks by Fraction elimination or by integer row echelon form with
gcd-reduced rows, determinants by cofactor expansion, inertia by
Fraction congruence diagonalization, none of them the package's
pivots or fraction-free kernel.  The oracles only read the public data
fields (p, edges), so agreement with the package is meaningful evidence.
Exponential time is fine at oracle sizes (p <= 8 or so).

The exceptions are the package's earlier code, kept as it was but for
reading that adjacency.  reference_chromatic, the recursive backtracking
solver, is the reference for the exact witness the current solver must
return, not only for the chromatic number.  reference_mycielskian,
reference_resign_root and reference_balanced_mycielskian build every
edge, re-sort and re-check the result through canonicalize; they are
the reference for the exact graphs and switchings the one-pass
constructions must return.
verify_certificate, the balance certificate checker, and delete_root,
the root deletion behind the chromatic tests, are the package's former
public functions, kept unchanged for the tests that use them.  So are
from_rows, the IntMatrix constructor that checks every entry, which the
tests build their matrices with; subtract, the entrywise difference
behind the test that L = D - A; and paper_factors, the explicit pair
(P, B) of A_M = P B P^T, which inertia-additivity no longer builds;
congruence_product multiplies it out by the triple loop.
"""

from itertools import combinations, product
from math import gcd
from typing import Sequence

from sgmyc.balance import BalanceCertificate, certify_balance, cycle_sign
from sgmyc.coloring import SignedColoring, color_trial_order
from sgmyc.core import (
    SignedGraph,
    SwitchingFunction,
    canonicalize,
    is_all_positive,
    switch,
)
from sgmyc import exactla
from sgmyc.errors import BudgetExhaustedError, ConsistencyError, InputError, PreconditionError
from sgmyc.mycielskian import MycielskianLabeling


def oracle_color_set(n):
    k = n // 2
    values = [v for v in range(-k, k + 1)]
    if n % 2 == 0:
        values.remove(0)
    return values


def oracle_is_proper(edges, colors):
    return all(colors[u - 1] != s * colors[v - 1] for u, v, s in edges)


def brute_force_chromatic(g):
    """Least n with a proper coloring, by trying every assignment."""
    for n in range(1, 2 * g.p + 2):
        for assignment in product(oracle_color_set(n), repeat=g.p):
            if oracle_is_proper(g.edges, assignment):
                return n, assignment
    raise AssertionError("enumeration exhausted without a coloring")


def reference_chromatic(g, node_budget=None):
    """Least n with a proper coloring over M_n, plus one witness coloring.

    Recursive backtracking over vertices in descending degree order (ties
    by vertex id) and colors in color_trial_order; the first vertex only
    tries the nonnegative half.  One node is one color tried.
    """
    # any graph is properly colored by p distinct positive values, so the
    # loop below always terminates by n = 2p (and at n = 1 for p = 0)
    if g.p == 0:
        return 1, SignedColoring(1, ())
    adj, sign = _adjacency_map(g)
    order = sorted(range(1, g.p + 1), key=lambda v: (-len(adj[v]), v))
    # neighbors of each vertex that come earlier in the branch order
    pos = {v: i for i, v in enumerate(order)}
    earlier: list[list[tuple[int, int]]] = []
    for v in order:
        earlier.append([(pos[u], sign[(v, u)]) for u in adj[v] if pos[u] < pos[v]])
    nodes = 0
    for n in range(1, 2 * g.p + 1):
        trial = color_trial_order(n)
        first_trial = tuple(c for c in trial if c >= 0)
        assigned = [0] * g.p

        def search(i: int) -> bool:
            nonlocal nodes
            if i == g.p:
                return True
            for c in first_trial if i == 0 else trial:
                nodes += 1
                if node_budget is not None and nodes > node_budget:
                    raise BudgetExhaustedError(n, nodes=node_budget)
                if all(c != s * assigned[j] for j, s in earlier[i]):
                    assigned[i] = c
                    if search(i + 1):
                        return True
            assigned[i] = 0
            return False

        if search(0):
            colors = [0] * g.p
            for i, v in enumerate(order):
                colors[v - 1] = assigned[i]
            return n, SignedColoring(n, tuple(colors))
    raise ConsistencyError("no coloring found below the terminating bound")


def least_proper_coloring(g, n):
    """The lexicographically least proper coloring over M_n, or None.

    Colorings are read as sequences over the vertices in descending degree
    order (ties by vertex id), each vertex running through 0, 1, -1, 2,
    -2, ...  Enumeration in that order skips a prefix that already breaks
    an edge, with all its extensions, and so misses no proper coloring.
    """
    trial = sorted(oracle_color_set(n), key=lambda c: (abs(c), -c))
    adj, sign = _adjacency_map(g)
    order = sorted(range(1, g.p + 1), key=lambda v: (-len(adj[v]), v))
    colors = {}

    def extend(i):
        if i == g.p:
            return True
        v = order[i]
        for c in trial:
            if all(u not in colors or c != sign[(v, u)] * colors[u] for u in adj[v]):
                colors[v] = c
                if extend(i + 1):
                    return True
                del colors[v]
        return False

    if not extend(0):
        return None
    return SignedColoring(n, tuple(colors[v] for v in range(1, g.p + 1)))


def brute_force_colorable(g, n):
    """Whether any proper coloring over M_n exists at all."""
    return any(
        oracle_is_proper(g.edges, assignment)
        for assignment in product(oracle_color_set(n), repeat=g.p)
    )


def _adjacency_map(g):
    """Each vertex's neighbours, and the sign of each ordered pair, built here from g.edges."""
    adj = {v: [] for v in range(1, g.p + 1)}
    sign = {}
    for u, v, s in g.edges:
        adj[u].append(v)
        adj[v].append(u)
        sign[(u, v)] = sign[(v, u)] = s
    return adj, sign


def all_simple_cycles(g):
    """Every simple cycle once, as a vertex tuple starting at its minimum."""
    adj, _ = _adjacency_map(g)
    cycles = []

    def extend(path, visited):
        start, last = path[0], path[-1]
        for nxt in adj[last]:
            if nxt == start and len(path) >= 3:
                if path[1] < path[-1]:
                    cycles.append(tuple(path))
            elif nxt not in visited and nxt > start:
                visited.add(nxt)
                path.append(nxt)
                extend(path, visited)
                path.pop()
                visited.remove(nxt)

    for s in range(1, g.p + 1):
        extend([s], {s})
    return cycles


def oracle_cycle_sign(g, cycle):
    _, sign = _adjacency_map(g)
    total = 1
    for i in range(len(cycle)):
        total *= sign[(cycle[i], cycle[(i + 1) % len(cycle)])]
    return total


def balanced_by_cycle_enumeration(g):
    return all(oracle_cycle_sign(g, c) == 1 for c in all_simple_cycles(g))


def all_simple_path_signs(g, a, b):
    """Signs of every simple path from a to b."""
    adj, sign = _adjacency_map(g)
    out = []

    def walk(last, visited, total):
        if last == b:
            out.append(total)
            return
        for nxt in adj[last]:
            if nxt not in visited:
                visited.add(nxt)
                walk(nxt, visited, total * sign[(last, nxt)])
                visited.remove(nxt)

    walk(a, {a}, 1)
    return out


def gaussian_rank(rows):
    """Rank over the rationals by plain Fraction elimination."""
    from fractions import Fraction

    m = [[Fraction(x) for x in row] for row in rows]
    nr = len(m)
    nc = len(m[0]) if m else 0
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nr):
            f = m[i][c] / m[r][c]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == nr:
            break
    return r


def is_triangle_free(g: SignedGraph) -> bool:
    """No three vertices pairwise adjacent, by checking every triple."""
    edges = {(u, v) for u, v, _ in g.edges}
    return not any(
        (a, b) in edges and (a, c) in edges and (b, c) in edges
        for a, b, c in combinations(range(1, g.p + 1), 3)
    )


def laplace_determinant(rows):
    """Determinant by cofactor expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, x in enumerate(rows[0]):
        if x == 0:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        total += (-1) ** j * x * laplace_determinant(minor)
    return total


def _swap_symmetric(w, k, j):
    w[k], w[j] = w[j], w[k]
    for row in w:
        row[k], row[j] = row[j], row[k]


def congruence_inertia(rows):
    """(n_plus, n_minus, n_zero) of a symmetric matrix by Fraction congruence.

    Gaussian congruence diagonalization: a congruence A -> E A E^T keeps
    the signs of the eigenvalues (Sylvester's law of inertia), so the
    diagonal that remains carries the signature.  A zero pivot is repaired
    by a symmetric swap with a later nonzero diagonal entry, or else by
    adding row and column j into the pivot position, which turns a nonzero
    off-diagonal w[k][j] into the pivot 2 w[k][j].  When the whole trailing
    row is zero the diagonal entry is a genuine zero of the form.
    """
    from fractions import Fraction

    n = len(rows)
    w = [[Fraction(x) for x in row] for row in rows]
    for k in range(n):
        if w[k][k] == 0:
            j = next((j for j in range(k + 1, n) if w[j][j] != 0), None)
            if j is not None:
                _swap_symmetric(w, k, j)
            else:
                j = next((j for j in range(k + 1, n) if w[k][j] != 0), None)
                if j is None:
                    continue
                for t in range(n):
                    w[k][t] += w[j][t]
                for t in range(n):
                    w[t][k] += w[t][j]
        piv = w[k][k]
        for i in range(k + 1, n):
            f = w[i][k] / piv
            if f:
                row_i = w[i]
                row_k = w[k]
                for t in range(k, n):
                    row_i[t] -= f * row_k[t]
        # the row operations already leave the congruence values in the
        # trailing block; clearing row k mirrors them onto the column side
        for t in range(k + 1, n):
            w[k][t] = Fraction(0)
    plus = sum(1 for k in range(n) if w[k][k] > 0)
    minus = sum(1 for k in range(n) if w[k][k] < 0)
    return plus, minus, n - plus - minus


def triple_loop_product(a_rows, b_rows, q):
    """The p x q product of a p x k and a k x q matrix, one dot product per entry."""
    k = len(b_rows)
    return [[sum(row[t] * b_rows[t][j] for t in range(k)) for j in range(q)] for row in a_rows]


def paper_factors(g: SignedGraph):
    """The paper's pair (P, B) with A_M = P B P^T, as rows, from the edges of g.

    P = [[I,0,0],[I,-I,0],[0,0,1]] has determinant (-1)^p.  B is block
    diagonal with blocks A and [[-A,-j],[-j',0]].
    """
    p, n = g.p, 2 * g.p + 1
    pm = [[0] * n for _ in range(n)]
    for i in range(p):
        pm[i][i] = pm[p + i][i] = 1
        pm[p + i][p + i] = -1
    pm[2 * p][2 * p] = 1
    bm = [[0] * n for _ in range(n)]
    for u, v, s in g.edges:
        bm[u - 1][v - 1] = bm[v - 1][u - 1] = s
        bm[p + u - 1][p + v - 1] = bm[p + v - 1][p + u - 1] = -s
    for t in range(p, 2 * p):
        bm[t][2 * p] = bm[2 * p][t] = -1
    return pm, bm


def congruence_product(p_rows, b_rows):
    """P B P^T of square row lists, by the triple loop."""
    n = len(p_rows)
    pt = [list(col) for col in zip(*p_rows)]
    return triple_loop_product(triple_loop_product(p_rows, b_rows, n), pt, n)


def reference_mycielskian(g: SignedGraph) -> tuple[SignedGraph, MycielskianLabeling]:
    """Signed Mycielskian with the fixed labeling."""
    lab = MycielskianLabeling(g.p)
    edges: list[tuple[int, int, int]] = []
    for u, v, s in g.edges:
        edges.append((u, v, s))
        edges.append((u, lab.twin(v), s))
        edges.append((v, lab.twin(u), s))
    for i in range(1, g.p + 1):
        edges.append((lab.twin(i), lab.root, 1))
    return canonicalize(lab.root, edges), lab


def _reference_split_mycielskian(gm: SignedGraph, lab: MycielskianLabeling):
    """Partition edges into original, cross and root groups, or complain."""
    p = lab.p
    if gm.p != 2 * p + 1:
        raise PreconditionError(f"expected {2 * p + 1} vertices, got {gm.p}")
    original: list[tuple[int, int, int]] = []
    cross: list[tuple[int, int, int]] = []
    root: list[tuple[int, int, int]] = []
    for u, v, s in gm.edges:
        if v == lab.root:
            root.append((u, v, s))
        elif u == lab.root:
            root.append((v, u, s))
        elif u <= p and v <= p:
            original.append((u, v, s))
        elif u > p and v > p:
            raise PreconditionError(f"twins {u} and {v} are adjacent")
        else:
            cross.append((u, v, s))
    return original, cross, root


def reference_resign_root(gm: SignedGraph, lab: MycielskianLabeling, rs: Sequence[int]) -> SignedGraph:
    """Replace the sign of each root edge u_i w by rs(i).

    The input must actually be a Mycielskian under the labeling: the root
    is adjacent to exactly the twin set, the twin set is independent, and
    the cross edges mirror the original edges sign for sign.  The shape is
    validated structurally instead of trusting the caller.
    """
    p = lab.p
    if len(rs) != p:
        raise InputError(f"root signature has length {len(rs)}, expected {p}")
    for i, s in enumerate(rs):
        if s not in (1, -1):
            raise InputError(f"root signature entry for vertex {i + 1} is {s}")
    original, cross, root = _reference_split_mycielskian(gm, lab)
    if sorted(u for u, _, _ in root) != list(range(p + 1, 2 * p + 1)):
        raise PreconditionError("root must be adjacent to exactly the twin set")
    expected_cross = set()
    for u, v, s in original:
        expected_cross.add((min(u, lab.twin(v)), max(u, lab.twin(v)), s))
        expected_cross.add((min(v, lab.twin(u)), max(v, lab.twin(u)), s))
    if set(cross) != expected_cross:
        raise PreconditionError("cross edges do not mirror the original edges")
    edges = original + cross + [(lab.twin(i), lab.root, rs[i - 1]) for i in range(1, p + 1)]
    return canonicalize(gm.p, edges)


def reference_balanced_mycielskian(g: SignedGraph) -> tuple[SignedGraph, SwitchingFunction]:
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
    """
    cert = certify_balance(g)
    if not cert.balanced:
        raise PreconditionError(f"input is unbalanced, negative cycle {list(cert.witness)}")
    zeta = cert.to_all_positive
    if not is_all_positive(g):
        zeta = tuple(-z for z in zeta)
    gm, lab = reference_mycielskian(g)
    gb = reference_resign_root(gm, lab, zeta)
    zeta_b = tuple(zeta) + tuple(zeta) + (1,)
    return gb, zeta_b


def verify_certificate(g: SignedGraph, cert: BalanceCertificate) -> bool:
    """Recheck a certificate against the graph from scratch.

    Balanced certificates must switch the graph to all-positive and the
    bipartition must cut exactly the negative edges.  Unbalanced ones must
    name a simple cycle of sign -1.
    """
    if cert.balanced:
        if cert.to_all_positive is None or cert.bipartition is None:
            return False
        if any(s != 1 for _, _, s in switch(g, cert.to_all_positive).edges):
            return False
        for u, v, s in g.edges:
            crosses = cert.bipartition[u - 1] != cert.bipartition[v - 1]
            if crosses != (s == -1):
                return False
        return True
    if cert.witness is None:
        return False
    try:
        return cycle_sign(g, cert.witness) == -1
    except InputError:
        return False


def delete_root(gm: SignedGraph, lab: MycielskianLabeling) -> SignedGraph:
    """Drop the root vertex and its star, keeping originals and twins."""
    if gm.p != lab.root:
        raise InputError(f"graph has {gm.p} vertices, labeling expects {lab.root}")
    # the root is the largest label, so it can only be the upper endpoint
    return SignedGraph(2 * lab.p, tuple(e for e in gm.edges if e[1] != lab.root))


def rank(a: exactla.IntMatrix) -> int:
    """Exact rank by integer row echelon form, skipping columns without a pivot.

    Each row below the pivot is cleared by cross-multiplication and then
    divided by the gcd of its entries, which keeps them small without
    the package's division by the previous pivot.
    """
    m = [list(row) for row in a.entries]
    r = 0
    for c in range(a.cols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top = m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c]
            if f:
                row = [top[c] * x - f * y for x, y in zip(m[i], top)]
                g = gcd(*row) or 1
                m[i] = [x // g for x in row]
        r += 1
    return r


def from_rows(rows) -> exactla.IntMatrix:
    """An IntMatrix of rows, checked to be ints in rows of one length."""
    data = tuple(map(tuple, rows))
    if data and any(len(row) != len(data[0]) for row in data):
        raise InputError("rows have unequal lengths")
    bad = sorted(t.__name__ for t in set().union(*(map(type, row) for row in data)) - {int})
    if bad:
        raise InputError(f"matrix entries must be ints, got {', '.join(bad)}")
    return exactla.IntMatrix(data)


def subtract(a: exactla.IntMatrix, b: exactla.IntMatrix) -> exactla.IntMatrix:
    if a.rows != b.rows or a.cols != b.cols:
        raise InputError(f"shape mismatch {a.rows}x{a.cols} vs {b.rows}x{b.cols}")
    return exactla.IntMatrix(tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a.entries, b.entries)))
