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

is_singular takes symmetric matrices, and tries two certificates before
it eliminates anything exactly.  A nonzero integer kernel vector v with
a v = 0, offered by the caller, proves a singular at the cost of one
product.  Otherwise det(a) is taken mod the prime PRIME = 2^31 - 1 by
Gaussian elimination over the integers mod PRIME; a nonzero residue
proves det(a) nonzero.  Only a zero residue, from a singular matrix or
a prime that happens to divide det(a), leaves the question to the exact
inertia, singular iff it has a zero eigenvalue, so the verdict is exact
and deterministic for every input and every offered vector.  A nonzero
multiple c a has the same kernel, and det(c a) = c^n det(a), so a
caller may pass any such multiple, say one that clears denominators.

No general product is offered: the audit checks its congruence by row
operations and sums H_M H_M^T from the columns of H_M (sgmyc.claims).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Iterable, Sequence

from .errors import InputError, PreconditionError

# a prime below 2^31, so a product of two residues fits in 62 bits
PRIME = 2**31 - 1


@dataclass(frozen=True)
class IntMatrix:
    """Immutable dense integer matrix.

    from_rows checks its entries; the constructor takes them as given.
    The width is read from the first row, so a matrix with no rows has
    no columns either.
    """

    entries: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_rows(rows: Iterable[Sequence[int]]) -> "IntMatrix":
        data = tuple(map(tuple, rows))
        if data and any(len(row) != len(data[0]) for row in data):
            raise InputError("rows have unequal lengths")
        bad = sorted(t.__name__ for t in set().union(*(map(type, row) for row in data)) - {int})
        if bad:
            raise InputError(f"matrix entries must be ints, got {', '.join(bad)}")
        return IntMatrix(data)

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


def _det_mod(a: IntMatrix) -> int:
    """det(a) mod PRIME, by Gaussian elimination mod PRIME on packed rows.

    Each row is one int that holds its residues in fields of a fixed
    width, so one multiply-add of ints updates a whole row.  A field is
    reduced only when it is read.  Each update adds less than PRIME^2 to
    a field and there are fewer than n updates, so the width keeps every
    field from carrying into the next.
    """
    prime, n = PRIME, a.rows
    nbytes = (2 * prime.bit_length() + n.bit_length() + 8) // 8
    width, mask = 8 * nbytes, (1 << 8 * nbytes) - 1

    def pack(values: Iterable[int]) -> int:
        return int.from_bytes(b"".join(v.to_bytes(nbytes, "little") for v in values), "little")

    rows = [pack(x % prime for x in row) for row in a.entries]
    det = 1
    for c in range(n):
        lead = [((r >> width * c) & mask) % prime for r in rows]
        k = next((i for i, x in enumerate(lead) if x), None)
        if k is None:
            return 0
        # moving row k of the remaining rows to the front takes k swaps
        d = lead.pop(k)
        det = (-det if k % 2 else det) * d % prime
        data = rows.pop(k).to_bytes(n * nbytes, "little")
        f = prime - pow(d, -1, prime)
        fields = (int.from_bytes(data[j * nbytes : (j + 1) * nbytes], "little") for j in range(c + 1, n))
        # the fields up to c are never read again, so the pivot row leaves them be
        tail = pack([0] * (c + 1) + [y * f % prime for y in fields])
        rows = [r + x * tail if x else r for r, x in zip(rows, lead)]
    return det


def is_singular(a: IntMatrix, kernel: Sequence[int] | None = None) -> bool:
    """Whether the symmetric matrix a is singular, decided exactly.

    A nonzero int kernel with a * kernel = 0 proves it singular; a
    determinant that is nonzero mod PRIME proves it nonsingular.  Either
    way nothing is eliminated exactly.  Otherwise the exact inertia
    decides.
    """
    if not a.is_square():
        raise InputError(f"singularity needs a square matrix, got {a.rows}x{a.cols}")
    if not a.is_symmetric():
        raise PreconditionError("matrix is not symmetric")
    # a float kernel proves nothing: its products round
    if kernel is not None and len(kernel) == a.cols and any(kernel) and all(type(x) is int for x in kernel):
        if not any(sum(map(mul, row, kernel)) for row in a.entries):
            return True
    return not _det_mod(a) and inertia(a).n_zero > 0


def inertia(a: IntMatrix) -> Inertia:
    """Signature of a symmetric matrix by symmetric fraction-free elimination."""
    if not a.is_square():
        raise PreconditionError(f"inertia needs a square matrix, got {a.rows}x{a.cols}")
    if not a.is_symmetric():
        raise PreconditionError("matrix is not symmetric")
    n = a.rows
    m = [list(row) for row in a.entries]
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
