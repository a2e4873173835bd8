"""Exact integer linear algebra on matrices held as their nonzeros.

Entries are Python ints, never floats, so results carry no rounding
error at any size that fits in memory.  An IntMatrix keeps its order and
one {column: entry} map per row, no zero stored, so memory follows the
nonzeros and two matrices are equal exactly when their maps are.

inertia checks symmetry on the nonzeros, copies each row's map and
pivots on those rows (after Bunch and Kaufman, Math. Comp. 31, 1977).
A symmetric pivot block P, with B the rest of its rows and C the rest
of the matrix, gives
  inertia(M) = inertia(P) + inertia(C - B' P^-1 B)
by Haynsworth's inertia additivity (Linear Algebra Appl. 1, 1968).  Two
kinds of block are read off without fractions.  A lone row, one that
meets no other, has no B: it adds its diagonal's sign, or a zero.  A
pair [[d_v, s], [s, d_u]] adds (1, 1, 0), and it is taken when its det =
d_v d_u - s^2 is -1, so that P^-1 = -adj P = [[-d_u, s], [s, -d_v]] keeps
the Schur complement integral, or when v is a zero-diagonal leaf whose
one entry s sits at u: row v then meets nothing else and every other row
has b_v = 0, so with d_v = 0 the same update corrects nothing.  These
two kinds serve what the package eliminates.  A signed adjacency has
entries +-1 on a zero diagonal, so at the start every edge is a pair of
det -1.  Its correction to a diagonal entry, b' P^-1 b = -(d_u b_v^2 -
2 s b_v b_u + d_v b_u^2) for that row's entries b_v and b_u, is even
while d_v and d_u are, and the other kinds correct nothing.  So the
diagonal stays even: no diagonal +-1 arises, whose 1x1 pivot would be
integral, and no pair of det +1, since s^2 = d_v d_u - 1 would be 3 mod
4.  The row of least degree goes first, off a lazy heap, with its
neighbour of least degree that makes a pair; a pair costs about the
product of their degrees.  What no such block reaches, a caller's
diagonal +-1 among it, is densified and handed to _eliminate, the only
dense matrix the package builds.

_eliminate is the one dense elimination, fraction-free (Bareiss 1968).
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
entry is a leading minor widened by one row and one column, linear
in both, so they act on the integer state exactly as on the input.  A
trailing row that is all zero is a genuine zero of the form: the step is
skipped and prev is kept.

No general product is offered, and no certificate is checked here: the
audit checks its congruence on the nonzeros, sums H_M H_M^T from the
columns of H_M, and proves each Laplacian singular by a kernel vector or
nonsingular by a frame determinant (sgmyc.claims).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import compress

from .errors import PreconditionError


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix: its order and the nonzeros of each row.

    nonzeros holds one {column: entry} map per row, with no zero stored,
    so == is matrix equality.  The maps are read, never changed.
    """

    rows: int
    cols: int
    nonzeros: tuple[dict[int, int], ...]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        # no zero is stored, so each nonzero's mirror must be stored and equal
        nz = self.nonzeros
        return self.is_square() and all(nz[j].get(i) == x for i, row in enumerate(nz) for j, x in row.items())


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


def inertia(a: IntMatrix) -> Inertia:
    """Signature of a symmetric matrix: lone rows, pairs of det -1 or with a zero-diagonal leaf, then Bareiss."""
    if not a.is_square():
        raise PreconditionError(f"inertia needs a square matrix, got {a.rows}x{a.cols}")
    if not a.is_symmetric():
        raise PreconditionError("matrix is not symmetric")
    n = a.rows
    rows = list(map(dict, a.nonzeros))
    deg = [len(row) - (v in row) for v, row in enumerate(rows)]
    heap = list(zip(deg, range(n)))
    heapify(heap)
    alive = [True] * n
    plus = minus = zeros = pairs = 0
    while heap:
        d, v = heappop(heap)
        if not alive[v] or d != deg[v]:
            continue
        row = rows[v]
        dv = row.get(v, 0)
        if not d:
            # a row that meets no other: its diagonal's sign, or a zero
            alive[v] = False
            plus += dv > 0
            minus += dv < 0
            zeros += not dv
            continue
        # the one entry of a zero-diagonal leaf, or any that makes a pair of det -1
        leaf = not dv and d == 1
        mates = [(deg[x], x) for x, s in row.items() if leaf or dv * rows[x].get(x, 0) - s * s == -1]
        if not mates:
            # no pivot yet: v is pushed again once a pivot changes its row
            continue
        u = min(mates)[1]
        s, du = row[u], rows[u].get(u, 0)
        alive[v] = alive[u] = False
        pairs += 1
        # the block rows' entries off the block
        out_v = [(y, z) for y, z in row.items() if alive[y]]
        out_u = [(y, z) for y, z in rows[u].items() if alive[y]]
        for x in {y for y, _ in out_v + out_u}:
            rx = rows[x]
            bv, bu = rx.pop(v, 0), rx.pop(u, 0)
            # row x of C - B' P^-1 B, with P^-1 = -adj P at det -1; a leaf has no out_v and b_v = d_v = 0
            for w, out in ((s * bu - du * bv, out_v), (s * bv - dv * bu, out_u)):
                if w:
                    for y, z in out:
                        t = rx.get(y, 0) - w * z
                        if t:
                            rx[y] = t
                        else:
                            del rx[y]
            deg[x] = len(rx) - (x in rx)
            heappush(heap, (deg[x], x))
    keep = list(compress(range(n), alive))
    ine = _eliminate([[rows[i].get(j, 0) for j in keep] for i in keep])
    return Inertia(plus + pairs, minus + pairs, zeros) + ine


def _eliminate(m: list[list[int]]) -> Inertia:
    """Inertia of the symmetric m by fraction-free elimination, in place."""
    n = len(m)
    plus = minus = 0
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            j = next((j for j in range(k + 1, n) if m[j][j]), None)
            if j is not None:
                m[k], m[j] = m[j], m[k]
                for row in m[k:]:
                    row[k], row[j] = row[j], row[k]
            else:
                j = next((j for j in range(k + 1, n) if m[k][j]), None)
                if j is None:
                    # a zero of the form
                    continue
                row_k, row_j = m[k], m[j]
                for t in range(k, n):
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
    return Inertia(plus, minus, n - plus - minus)
