"""Signed matrices: adjacency, incidence, Laplacian, and the Mycielskian blocks.

All constructors return exact integer matrices as the nonzeros of each
row (exactla.IntMatrix), filled in O(p + q) from the edge list of the
input or from the columns of H_M; no zero is stored and no dense row is
made.  The adjacency, degree and Laplacian of
the Mycielskian M are those of the graph mycielskian.mycielskian builds.
The block formulas the paper proves take G itself, over the fixed
labeling (originals 1..p, twins p+1..2p, root 2p+1): the blocked
incidence H_M with H_M H_M^T.  Neither is derived from another builder
or from the constructed Mycielskian, so the audit compares each with the
matrix of the graph it builds.

The adjacency of the Mycielskian has the block shape

    [ A  A  0 ]
    [ A  0  j ]
    [ 0  j' 0 ]

with A the adjacency of the input and j the all-ones column.  It factors
as P B P^T where P is the unimodular block triangular matrix
[[I,0,0],[I,-I,0],[0,0,1]] and B is block diagonal: A on top, and below
it the bordered block [[-A,-j],[-j',0]], the negative join of the input
with its adjacency part negated.  Because P is invertible, Sylvester's
law of inertia makes rank and signature additive across the two diagonal
blocks of B.  The lower block shares its rank with the negative join
itself, while its positive and negative indices appear swapped relative
to it; both facts are exercised by the test suite.  The Mycielskian
inertia is therefore the sum of those of the two blocks, of orders p
and p + 1, each eliminated on its own.
Neither P nor B is built: P is its own inverse, so the audit checks
P A_M = B P^T on the nonzeros of A_M and of the two blocks
(sgmyc.claims).

Incidence columns fix one orientation per edge: +1 at the smaller
endpoint u of edge (u, v, s) and -s at v, so that H H^T equals the
Laplacian D - A exactly.  The Mycielskian incidence keeps the blocked
column order: the original edges, then for each original edge its two
cross copies, then the root star.  Splitting each original column x(e)
into its u part and v part makes the cross columns literal rearrangements
of those two pieces, and every column still has exactly two nonzeros.
So H_M is written once, as the list of those pairs, and its first q
columns are H on the original rows.  H_M H_M^T is summed from the same
list into one map per row, its diagonal kept in a list until the end,
without forming the 3q + p columns of H_M; the first q columns give
H H^T = L the same way.
"""

from __future__ import annotations

from .core import SignedGraph, degrees
from .exactla import IntMatrix


_Columns = list[tuple[tuple[int, int], tuple[int, int]]]


def _rows(n: int) -> list[dict[int, int]]:
    # sized by multiplication, so an order too large to hold fails at once
    return list(map(dict, [()] * n))


def adjacency(g: SignedGraph) -> IntMatrix:
    """Symmetric p x p matrix with entry s for each edge (u, v, s)."""
    rows = _rows(g.p)
    for u, v, s in g.edges:
        rows[u - 1][v - 1] = rows[v - 1][u - 1] = s
    return IntMatrix(g.p, g.p, tuple(rows))


def degree_matrix(g: SignedGraph) -> IntMatrix:
    """Diagonal matrix of unsigned degrees."""
    return IntMatrix(g.p, g.p, tuple({i: d} if d else {} for i, (d, *_) in enumerate(degrees(g))))


def negative_join(g: SignedGraph) -> IntMatrix:
    """Adjacency after joining every vertex to one new vertex by negative edges.

    [ A   -j ]
    [ -j'  0 ]
    """
    p = g.p
    rows = _rows(p)
    for u, v, s in g.edges:
        rows[u - 1][v - 1] = rows[v - 1][u - 1] = s
    for row in rows:
        row[p] = -1
    rows.append(dict.fromkeys(range(p), -1))
    return IntMatrix(p + 1, p + 1, tuple(rows))


def incidence(g: SignedGraph) -> IntMatrix:
    """p x q incidence matrix, one column per canonical edge.

    Edge (u, v, s) with u < v contributes +1 in row u and -s in row v.
    """
    return _fill(g.p, _mycielskian_columns(g)[: g.q])


def incidence_mycielskian(g: SignedGraph) -> IntMatrix:
    """(2p+1) x (3q+p) incidence of the Mycielskian in blocked column order."""
    return _fill(2 * g.p + 1, _mycielskian_columns(g))


def _gram(n: int, columns: _Columns) -> IntMatrix:
    """H H^T for the n-row H of columns: x in row a and y in row b add x^2, y^2 and x y twice."""
    diagonal = [0] * n
    out = _rows(n)
    for (a, x), (b, y) in columns:
        diagonal[a] += x * x
        diagonal[b] += y * y
        row_a, row_b = out[a], out[b]
        t = row_a.get(b, 0) + x * y
        if t:
            row_a[b] = row_b[a] = t
        else:
            del row_a[b], row_b[a]
    for i, d in enumerate(diagonal):
        if d:
            out[i][i] = d
    return IntMatrix(n, n, tuple(out))


def _mycielskian_columns(g: SignedGraph) -> _Columns:
    """H_M's columns in blocked order, each as its nonzeros ((a, x), (b, y)), rows from 0.

    e_k' = v_u u_v puts the u part of e_k (+1 at u) on the originals and its
    v part (-s at v) on the twins, e_k'' = u_u v_v the other way round, and
    root column i is +1 at twin i and -1 at the root.
    """
    p = g.p
    edges = [((u - 1, 1), (v - 1, -s)) for u, v, s in g.edges]
    cross = []
    for u, v, s in g.edges:
        cross += [((u - 1, 1), (p + v - 1, -s)), ((v - 1, -s), (p + u - 1, 1))]
    return edges + cross + [((p + i, 1), (2 * p, -1)) for i in range(p)]


def _fill(rows: int, columns: _Columns) -> IntMatrix:
    """The rows x len(columns) matrix with the two nonzeros of each column."""
    h = _rows(rows)
    for k, ((a, x), (b, y)) in enumerate(columns):
        h[a][k] = x
        h[b][k] = y
    return IntMatrix(rows, len(columns), tuple(h))


def laplacian(g: SignedGraph) -> IntMatrix:
    """Signed Laplacian D - A; singular exactly on balanced components."""
    rows = _rows(g.p)
    for u, v, s in g.edges:
        rows[u - 1][v - 1] = rows[v - 1][u - 1] = -s
    for i, row in enumerate(rows):
        if row:
            # its degree, counted before the diagonal goes in
            row[i] = len(row)
    return IntMatrix(g.p, g.p, tuple(rows))
