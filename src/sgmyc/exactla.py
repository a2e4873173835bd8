"""Exact integer linear algebra for small dense matrices.

Entries are Python ints, never floats, so results carry no rounding
error at any size that fits in memory.

inertia runs the one exact elimination, fraction-free (Bareiss 1968).
Its update
  m[i][j] <- (m[k][k] * m[i][j] - m[i][k] * m[k][j]) // prev
divides by the previous pivot, and by Sylvester's determinant identity
the division is exact: every entry is a minor of the input, so growth
stays polynomial.  Pivots are symmetric, so the k-th pivot d_k is a
leading principal minor, the k-th LDL^T pivot is d_k / d_{k-1}, and its
sign is sign(d_k) * sign(d_{k-1}); by Sylvester's law of inertia these
signs give the signature.  A zero pivot is repaired by a symmetric
swap with a later nonzero diagonal entry or, when the trailing diagonal
is all zero, by adding row and column j into k, which makes the pivot
2 m[k][j].  Both repairs are unimodular congruences, and each trailing
entry is a minor bordered by one row and one column of the input, linear
in both, so they act on the integer state exactly as on the input.  A
trailing row that is all zero is a genuine zero of the form: the step is
skipped and prev is kept.

Given a border b, the same loop eliminates N = [[a, b], [b', 0]] and
returns inertia(a) and inertia(N), by Haynsworth's inertia additivity
(Linear Algebra Appl. 1, 1968).  For the first n steps row n is carried
along but never chosen, neither to swap nor to add, so those steps
eliminate a alone, and the counts after them are inertia(a).  A skipped
step whose row still holds a border entry is a kernel vector v of a
with b'v != 0, so b lies outside the column space of a; then N has rank
two more than a, and by interlacing inertia(N) = inertia(a) + (1, 1, -1).
Otherwise every zero of a is a zero of N, and step n on the trailing
entry adds +, - or a zero, as any other step does.

Before the elimination, an O(n^2) pass peels leaves, cascading as new
ones appear (the pendant-vertex lemma of Cvetkovic and Gutman, Mat.
Vesnik 9, 1972).  A zero-diagonal row v whose one off-diagonal entry s
sits at u makes the pivot block [[0, s], [s, d]] on (v, u), d = a_uu,
of inertia (1, 1, 0).  Its Schur correction to the rest of a is zero,
since row v meets nothing else, so v and u go and a is otherwise left
as it was.  The border and a corner c, at first 0, take the rest of
that Schur complement: b_x -= b_v a_ux / s at each other neighbour x of
u, and c += d b_v^2 / s^2 - 2 b_v b_u / s.  Those stay integers when
|s| = 1 or b_v = 0, so only such pairs are peeled, by s b_v in place of
b_v / s; the loop takes the others.  A zero-diagonal row with no
off-diagonal entry is a zero; with a border entry it puts b outside the
column space of a.  The loop then eliminates [[a_rest, b], [b', c]]
under the rule above, with the corner at step n.

No general product is offered, and no certificate is checked here: the
audit checks its congruence by row operations, sums H_M H_M^T from the
columns of H_M, and proves each Laplacian singular by a kernel vector or
nonsingular by a frame determinant (sgmyc.claims).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import PreconditionError


@dataclass(frozen=True)
class IntMatrix:
    """Immutable dense integer matrix, its rows of ints taken as given.

    The width is read from the first row, so a matrix with no rows has
    no columns either.
    """

    entries: tuple[tuple[int, ...], ...]

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        return self.is_square() and self.entries == tuple(zip(*self.entries))


@dataclass(frozen=True)
class Inertia:
    """Counts of positive, negative and zero eigenvalues of a symmetric matrix."""

    n_plus: int
    n_minus: int
    n_zero: int

    @property
    def rank(self) -> int:
        return self.n_plus + self.n_minus

    def __add__(self, other: "Inertia") -> "Inertia":
        return Inertia(self.n_plus + other.n_plus, self.n_minus + other.n_minus, self.n_zero + other.n_zero)


def inertia(a: IntMatrix, border: Sequence[int] | None = None) -> Inertia | tuple[Inertia, Inertia]:
    """Signature of a symmetric matrix by symmetric fraction-free elimination.

    With a border b of length n, (inertia(a), inertia([[a, b], [b', 0]]))
    from the one elimination of the bordered matrix.
    """
    if not a.is_square():
        raise PreconditionError(f"inertia needs a square matrix, got {a.rows}x{a.cols}")
    if not a.is_symmetric():
        raise PreconditionError("matrix is not symmetric")
    n, m = a.rows, a.entries
    if border is not None and len(border) != n:
        raise PreconditionError(f"border of length {len(border)} for a matrix of order {n}")
    b = [0] * n if border is None else list(border)
    # peel zero-diagonal rows with at most one off-diagonal entry, cascading
    deg = [n - row.count(0) - (row[i] != 0) for i, row in enumerate(m)]
    alive = [True] * n
    todo = [v for v in range(n) if deg[v] < 2 and not m[v][v]]
    pairs = zeros = corner = 0
    outside = False
    while todo:
        v = todo.pop()
        if not alive[v] or deg[v] > 1:
            continue
        if deg[v] == 0:
            alive[v] = False
            zeros += 1
            outside = outside or b[v] != 0
            continue
        u = next(x for x in range(n) if alive[x] and x != v and m[v][x])
        s, bv = m[v][u], b[v]
        if bv and abs(s) != 1:
            # the border update would divide by s
            continue
        alive[v] = alive[u] = False
        pairs += 1
        corner += m[u][u] * bv * bv - 2 * s * bv * b[u]
        for x in range(n):
            if alive[x] and m[u][x]:
                b[x] -= s * bv * m[u][x]
                deg[x] -= 1
                if deg[x] < 2 and not m[x][x]:
                    todo.append(x)
    keep = [i for i in range(n) if alive[i]]
    rows = [[m[i][j] for j in keep] for i in keep]
    if border is not None:
        rows = [[*row, b[i]] for row, i in zip(rows, keep)] + [[*(b[i] for i in keep), corner]]
    in_a, in_n = _eliminate(rows, len(keep), outside)
    peeled = Inertia(pairs, pairs, zeros)
    return peeled + in_a if border is None else (peeled + in_a, peeled + in_n)


def _eliminate(m: list[list[int]], n: int, outside: bool) -> tuple[Inertia, Inertia]:
    """Inertias of the leading n x n block of m and of m, in place.

    m has order n, or n + 1 with the border row last; outside says that
    the border already lies outside the column space of the block.
    """
    size = len(m)
    plus = minus = 0
    prev = 1
    for k in range(size):
        if k == n:
            # a is eliminated; the border row is the one step left
            in_a = Inertia(plus, minus, n - plus - minus)
            if outside:
                return in_a, in_a + Inertia(1, 1, -1)
        if m[k][k] == 0:
            # the border row is never chosen, so the first n steps eliminate a
            j = next((j for j in range(k + 1, n) if m[j][j]), None)
            if j is not None:
                m[k], m[j] = m[j], m[k]
                for row in m[k:]:
                    row[k], row[j] = row[j], row[k]
            else:
                j = next((j for j in range(k + 1, n) if m[k][j]), None)
                if j is None:
                    # a zero of a; a border entry left in its row puts b
                    # outside the column space of a
                    outside = outside or any(m[k][n:])
                    continue
                row_k, row_j = m[k], m[j]
                for t in range(k, size):
                    row_k[t] += row_j[t]
                for row in m[k:]:
                    row[k] += row[j]
        row_k = m[k]
        piv = row_k[k]
        if (piv > 0) == (prev > 0):
            plus += 1
        else:
            minus += 1
        # clear column k below row k; columns up to k are never read again
        tail = row_k[k + 1 :]
        for row_i in m[k + 1 :]:
            f = row_i[k]
            if f:
                row_i[k + 1 :] = [(piv * x - f * y) // prev for x, y in zip(row_i[k + 1 :], tail)]
            elif piv != prev:
                row_i[k + 1 :] = [piv * x // prev for x in row_i[k + 1 :]]
        prev = piv
    ine = Inertia(plus, minus, size - plus - minus)
    return (ine if size == n else in_a), ine
