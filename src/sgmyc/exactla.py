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

is_singular takes symmetric matrices.  A nonzero integer kernel vector v
with a v = 0, offered by the caller, proves a singular at the cost of
one product; otherwise the exact inertia decides, singular iff it has a
zero eigenvalue, so the verdict is exact and deterministic for every
input and every offered vector.  A proof that a is nonsingular is the
caller's to give: the audit gives one for each Laplacian by a determinant
of its incidence on a frame basis (sgmyc.claims).

No general product is offered: the audit checks its congruence by row
operations and sums H_M H_M^T from the columns of H_M (sgmyc.claims).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Sequence

from .errors import InputError, PreconditionError


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


def is_singular(a: IntMatrix, kernel: Sequence[int] | None = None) -> bool:
    """Whether the symmetric matrix a is singular, decided exactly.

    A nonzero int kernel with a * kernel = 0 proves it singular, with
    nothing eliminated; otherwise the exact inertia decides.
    """
    if not a.is_square():
        raise InputError(f"singularity needs a square matrix, got {a.rows}x{a.cols}")
    if not a.is_symmetric():
        raise PreconditionError("matrix is not symmetric")
    # a float kernel proves nothing: its products round
    if kernel is not None and len(kernel) == a.cols and any(kernel) and all(type(x) is int for x in kernel):
        if not any(sum(map(mul, row, kernel)) for row in a.entries):
            return True
    return inertia(a).n_zero > 0


def inertia(a: IntMatrix, border: Sequence[int] | None = None) -> Inertia | tuple[Inertia, Inertia]:
    """Signature of a symmetric matrix by symmetric fraction-free elimination.

    With a border b of length n, (inertia(a), inertia([[a, b], [b', 0]]))
    from the one elimination of the bordered matrix.
    """
    if not a.is_square():
        raise PreconditionError(f"inertia needs a square matrix, got {a.rows}x{a.cols}")
    if not a.is_symmetric():
        raise PreconditionError("matrix is not symmetric")
    n = a.rows
    m = [list(row) for row in a.entries]
    if border is not None:
        if len(border) != n:
            raise PreconditionError(f"border of length {len(border)} for a matrix of order {n}")
        m = [[*row, x] for row, x in zip(m, border)] + [[*border, 0]]
    size = len(m)
    plus = minus = 0
    prev = 1
    outside = False
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
    return ine if border is None else (in_a, ine)
