"""Signed matrices: adjacency, incidence, Laplacian, and the Mycielskian blocks.

All constructors return exact integer matrices over the fixed vertex
labeling (originals 1..p, twins p+1..2p, root 2p+1), so the block forms
line up entry for entry with the matrices of the constructed graphs.

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
inertia is therefore computed from the two blocks, A and lower_block,
each about half the size of A_M; the full matrix is left to the audit as
the cross-check.

Incidence columns fix one orientation per edge: +1 at the smaller
endpoint u of edge (u, v, s) and -s at v, so that H H^T equals the
Laplacian D - A exactly.  The Mycielskian incidence keeps the blocked
column order: the original edges, then for each original edge its two
cross copies, then the root star.  Splitting each original column x(e)
into its u part and v part makes the cross columns literal rearrangements
of those two pieces, and every column still has exactly two nonzeros.
"""

from __future__ import annotations

from .core import SignedGraph, degrees
from .exactla import RationalMatrix, block, subtract, transpose


def adjacency(g: SignedGraph) -> RationalMatrix:
    """Symmetric p x p matrix with entry s for each edge (u, v, s)."""
    a = [[0] * g.p for _ in range(g.p)]
    for u, v, s in g.edges:
        a[u - 1][v - 1] = s
        a[v - 1][u - 1] = s
    return RationalMatrix.from_rows(a)


def degree_matrix(g: SignedGraph) -> RationalMatrix:
    """Diagonal matrix of unsigned degrees."""
    d = degrees(g).degree
    return RationalMatrix.from_rows(
        [[d[i] if i == j else 0 for j in range(g.p)] for i in range(g.p)]
    )


def _ones_column(p: int) -> RationalMatrix:
    return RationalMatrix(((1,),) * p, 1)


def _neg(a: RationalMatrix) -> RationalMatrix:
    return RationalMatrix(tuple(tuple(-x for x in row) for row in a.entries))


def adjacency_mycielskian(g: SignedGraph) -> RationalMatrix:
    """Block form of the Mycielskian adjacency over the fixed labeling."""
    a = adjacency(g)
    p = g.p
    z = RationalMatrix.zeros(p, p)
    j = _ones_column(p)
    zc = RationalMatrix.zeros(p, 1)
    return block(
        [
            [a, a, zc],
            [a, z, j],
            [transpose(zc), transpose(j), RationalMatrix.zeros(1, 1)],
        ]
    )


def negative_join(g: SignedGraph) -> RationalMatrix:
    """Adjacency after joining every vertex to one new vertex by negative edges."""
    a = adjacency(g)
    j = _ones_column(g.p)
    return block(
        [
            [a, _neg(j)],
            [_neg(transpose(j)), RationalMatrix.zeros(1, 1)],
        ]
    )


def lower_block(g: SignedGraph) -> RationalMatrix:
    """The bordered block [[-A,-j],[-j',0]] that B carries beside A, built directly."""
    p = g.p
    rows = [[0] * p + [-1] for _ in range(p)]
    for u, v, s in g.edges:
        rows[u - 1][v - 1] = -s
        rows[v - 1][u - 1] = -s
    rows.append([-1] * p + [0])
    return RationalMatrix.from_rows(rows)


def congruence_factors(g: SignedGraph) -> tuple[RationalMatrix, RationalMatrix]:
    """The pair (P, B) with P B P^T equal to the Mycielskian adjacency.

    P = [[I,0,0],[I,-I,0],[0,0,1]] has determinant (-1)^p.  B is block
    diagonal with blocks A and [[-A,-j],[-j',0]]; the signs in the lower
    block are part of the identity and are kept exactly as they must be
    for the product to come out right.
    """
    p = g.p
    i = RationalMatrix.identity(p)
    z = RationalMatrix.zeros(p, p)
    zc = RationalMatrix.zeros(p, 1)
    pm = block(
        [
            [i, z, zc],
            [i, _neg(i), zc],
            [transpose(zc), transpose(zc), RationalMatrix.from_rows([[1]])],
        ]
    )
    bm = block(
        [
            [adjacency(g), RationalMatrix.zeros(p, p + 1)],
            [RationalMatrix.zeros(p + 1, p), lower_block(g)],
        ]
    )
    return pm, bm


def incidence(g: SignedGraph) -> RationalMatrix:
    """p x q incidence matrix, one column per canonical edge.

    Edge (u, v, s) with u < v contributes +1 in row u and -s in row v.
    """
    h = [[0] * g.q for _ in range(g.p)]
    for k, (u, v, s) in enumerate(g.edges):
        h[u - 1][k] = 1
        h[v - 1][k] = -s
    return RationalMatrix.from_rows(h)


def incidence_mycielskian(g: SignedGraph) -> RationalMatrix:
    """(2p+1) x (3q+p) incidence of the Mycielskian in blocked column order.

    Columns: original edges e_1..e_q, then for each k the cross pair
    e_k' = v_u u_v and e_k'' = u_u v_v, then the root star.  The column of
    e_k splits into the u part (+1 at u) and the v part (-s at v); e_k'
    places the u part on the original rows and the v part on the twin
    rows, e_k'' swaps the two, and root column i has +1 at twin i and -1
    at the root.
    """
    p, q = g.p, g.q
    rows = 2 * p + 1
    cols = 3 * q + p
    h = [[0] * cols for _ in range(rows)]
    for k, (u, v, s) in enumerate(g.edges):
        h[u - 1][k] = 1
        h[v - 1][k] = -s
        cprime = q + 2 * k
        cdouble = q + 2 * k + 1
        h[u - 1][cprime] = 1
        h[p + v - 1][cprime] = -s
        h[v - 1][cdouble] = -s
        h[p + u - 1][cdouble] = 1
    for i in range(1, p + 1):
        c = 3 * q + i - 1
        h[p + i - 1][c] = 1
        h[2 * p][c] = -1
    return RationalMatrix.from_rows(h)


def laplacian(g: SignedGraph) -> RationalMatrix:
    """Signed Laplacian D - A; singular exactly on balanced components."""
    return subtract(degree_matrix(g), adjacency(g))


def degree_matrix_mycielskian(g: SignedGraph) -> RationalMatrix:
    """Diagonal degree matrix of the Mycielskian: 2d(v), then d(v)+1, then p."""
    p = g.p
    d = degrees(g).degree
    diag = [2 * d[i] for i in range(p)] + [d[i] + 1 for i in range(p)] + [p]
    n = 2 * p + 1
    return RationalMatrix.from_rows([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])


def laplacian_mycielskian(g: SignedGraph) -> RationalMatrix:
    """Block form of the Mycielskian Laplacian.

    [ 2D - A   -A      0 ]
    [  -A     D + I   -j ]
    [   0     -j'      p ]

    which must agree with degree_matrix_mycielskian - adjacency_mycielskian.
    """
    p = g.p
    a = adjacency(g)
    d = degree_matrix(g)
    i = RationalMatrix.identity(p)
    j = _ones_column(p)
    zc = RationalMatrix.zeros(p, 1)
    two_d = RationalMatrix(tuple(tuple(2 * x for x in row) for row in d.entries))
    d_plus_i = RationalMatrix(
        tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(d.entries, i.entries))
    )
    pm = RationalMatrix.from_rows([[p]])
    return block(
        [
            [subtract(two_d, a), _neg(a), zc],
            [_neg(a), d_plus_i, _neg(j)],
            [transpose(zc), _neg(transpose(j)), pm],
        ]
    )


