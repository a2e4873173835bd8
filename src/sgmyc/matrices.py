"""Signed matrices: adjacency, incidence, Laplacian, and the Mycielskian blocks.

All constructors return exact integer matrices, each filled in one pass
over the edge list of its input.  The adjacency, degree and Laplacian of
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
Neither P nor B is built: P is its own inverse, so the audit applies P
to A_M by row and column operations and compares the result with the
two blocks (sgmyc.claims).

Incidence columns fix one orientation per edge: +1 at the smaller
endpoint u of edge (u, v, s) and -s at v, so that H H^T equals the
Laplacian D - A exactly.  The Mycielskian incidence keeps the blocked
column order: the original edges, then for each original edge its two
cross copies, then the root star.  Splitting each original column x(e)
into its u part and v part makes the cross columns literal rearrangements
of those two pieces, and every column still has exactly two nonzeros.
So H_M is written once, as the list of those pairs, and its first q
columns are H on the original rows.  H_M H_M^T is summed from the same
list, four updates a column, without forming the 3q + p columns of H_M;
the first q columns give H H^T = L the same way.
"""

from __future__ import annotations

from .core import SignedGraph
from .exactla import IntMatrix


_Columns = list[tuple[tuple[int, int], tuple[int, int]]]


def _square(n: int) -> list[list[int]]:
    return [[0] * n for _ in range(n)]


def _frozen(rows: list[list[int]]) -> IntMatrix:
    # every builder fills its rows with ints taken from the canonical
    # edges, so no entry needs a check
    return IntMatrix(tuple(map(tuple, rows)))


def adjacency(g: SignedGraph) -> IntMatrix:
    """Symmetric p x p matrix with entry s for each edge (u, v, s)."""
    a = _square(g.p)
    for u, v, s in g.edges:
        a[u - 1][v - 1] = a[v - 1][u - 1] = s
    return _frozen(a)


def degree_matrix(g: SignedGraph) -> IntMatrix:
    """Diagonal matrix of unsigned degrees."""
    d = _square(g.p)
    for u, v, _ in g.edges:
        d[u - 1][u - 1] += 1
        d[v - 1][v - 1] += 1
    return _frozen(d)


def negative_join(g: SignedGraph) -> IntMatrix:
    """Adjacency after joining every vertex to one new vertex by negative edges.

    [ A   -j ]
    [ -j'  0 ]
    """
    p = g.p
    rows = [[0] * p + [-1] for _ in range(p)]
    for u, v, s in g.edges:
        rows[u - 1][v - 1] = rows[v - 1][u - 1] = s
    rows.append([-1] * p + [0])
    return _frozen(rows)


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
    out = _square(n)
    for (a, x), (b, y) in columns:
        out[a][a] += x * x
        out[b][b] += y * y
        out[a][b] += x * y
        out[b][a] += x * y
    return _frozen(out)


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
    h = [[0] * len(columns) for _ in range(rows)]
    for k, ((a, x), (b, y)) in enumerate(columns):
        h[a][k] = x
        h[b][k] = y
    return _frozen(h)


def laplacian(g: SignedGraph) -> IntMatrix:
    """Signed Laplacian D - A; singular exactly on balanced components."""
    lap = _square(g.p)
    for u, v, s in g.edges:
        lap[u - 1][u - 1] += 1
        lap[v - 1][v - 1] += 1
        lap[u - 1][v - 1] = lap[v - 1][u - 1] = -s
    return _frozen(lap)

