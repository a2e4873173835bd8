"""Exact rational linear algebra for small dense matrices.

Entries are Python ints or Fractions, never floats, so results carry no
rounding error at any size that fits in memory.

One fraction-free kernel (Bareiss 1968) does every elimination.  Its update
  m[i][j] <- (m[k][k] * m[i][j] - m[i][k] * m[k][j]) // prev
divides by the previous pivot, and by Sylvester's determinant identity
the division is exact: every entry is a minor of the input, so growth
stays polynomial.  Rational input is first multiplied by one positive
scalar, the lcm of all denominators, which keeps symmetry, rank and
inertia and scales the determinant by a known power.  Determinant and
rank share one row-pivoting driver.

Inertia drives the same update with symmetric pivots, so the k-th pivot
d_k is a leading principal minor, the k-th LDL^T pivot is d_k / d_{k-1},
and its sign is sign(d_k) * sign(d_{k-1}); by Sylvester's law of inertia
these signs give the signature.  A zero pivot is repaired by a symmetric
swap with a later nonzero diagonal entry or, when the trailing diagonal
is all zero, by adding row and column j into k, which makes the pivot
2 m[k][j].  Both repairs are unimodular congruences, and each trailing
entry is a minor bordered by one row and one column of the input, linear
in both, so they act on the integer state exactly as on the input.  A
trailing row that is all zero is a genuine zero of the form: the step is
skipped and prev is kept.

Products visit only the nonzero entries of their operands.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence, Union

from .errors import DimensionMismatchError, InvalidParamsError, NotSymmetricError

Entry = Union[int, Fraction]


def _normalize(x: Entry) -> Entry:
    if type(x) is int:
        return x
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    if isinstance(x, bool):
        raise InvalidParamsError("matrix entries must be ints or Fractions")
    if not isinstance(x, (int, Fraction)):
        raise InvalidParamsError(f"matrix entries must be ints or Fractions, got {type(x).__name__}")
    return x


@dataclass(frozen=True)
class RationalMatrix:
    """Immutable dense matrix of exact rationals.

    ncols exists because a matrix with zero rows has no row to read the
    width from; it defaults to -1, meaning infer from the entries.  Only
    degenerate shapes like the transpose of a p x 0 incidence matrix
    ever need it spelled out.
    """

    entries: tuple[tuple[Entry, ...], ...]
    ncols: int = -1

    def __post_init__(self) -> None:
        inferred = len(self.entries[0]) if self.entries else 0
        if self.ncols < 0:
            object.__setattr__(self, "ncols", inferred)
        elif self.entries and self.ncols != inferred:
            raise DimensionMismatchError(f"declared {self.ncols} columns, rows have {inferred}")

    @staticmethod
    def from_rows(rows: Iterable[Sequence[Entry]]) -> "RationalMatrix":
        data = tuple(tuple(map(_normalize, row)) for row in rows)
        if data and any(len(row) != len(data[0]) for row in data):
            raise DimensionMismatchError("rows have unequal lengths")
        return RationalMatrix(data)

    @staticmethod
    def identity(n: int) -> "RationalMatrix":
        return RationalMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "RationalMatrix":
        return RationalMatrix(tuple((0,) * cols for _ in range(rows)), cols)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return self.ncols

    def entry(self, i: int, j: int) -> Entry:
        return self.entries[i][j]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        if not self.is_square():
            return False
        e = self.entries
        return all(e[i][j] == e[j][i] for i in range(self.rows) for j in range(i + 1, self.rows))


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


def transpose(a: RationalMatrix) -> RationalMatrix:
    if a.cols == 0:
        return RationalMatrix((), a.rows)
    if a.rows == 0:
        return RationalMatrix(((),) * a.cols, 0)
    return RationalMatrix(tuple(zip(*a.entries)))


def multiply(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """Exact product that visits only the nonzero entries of a and b."""
    if a.cols != b.rows:
        raise DimensionMismatchError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    b_nonzeros = [[(j, y) for j, y in enumerate(row) if y] for row in b.entries]
    out = []
    for row in a.entries:
        acc: list[Entry] = [0] * b.cols
        for x, b_row in zip(row, b_nonzeros):
            if x:
                for j, y in b_row:
                    acc[j] += x * y
        out.append(tuple(map(_normalize, acc)))
    return RationalMatrix(tuple(out), b.cols)


def subtract(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionMismatchError(f"shape mismatch {a.rows}x{a.cols} vs {b.rows}x{b.cols}")
    return RationalMatrix(
        tuple(tuple(_normalize(x - y) for x, y in zip(ra, rb)) for ra, rb in zip(a.entries, b.entries)),
        a.cols,
    )


def block(grid: Sequence[Sequence[RationalMatrix]]) -> RationalMatrix:
    """Assemble a matrix from a grid of blocks with matching shapes."""
    rows: list[tuple[Entry, ...]] = []
    width = None
    for band in grid:
        height = band[0].rows
        if any(blk.rows != height for blk in band):
            raise DimensionMismatchError("blocks in one band have different heights")
        for i in range(height):
            row: tuple[Entry, ...] = ()
            for blk in band:
                row = row + blk.entries[i]
            rows.append(row)
        if width is None:
            width = len(rows[-1]) if height else None
        elif height and len(rows[-1]) != width:
            raise DimensionMismatchError("bands have different widths")
    return RationalMatrix(tuple(rows))


def _integer_matrix(a: RationalMatrix) -> tuple[list[list[int]], int]:
    """Mutable integer copy of a, scaled by the lcm of all its denominators."""
    scale = lcm(*(x.denominator for row in a.entries for x in row))
    if scale == 1:
        return [list(row) for row in a.entries], 1
    return [[int(x * scale) for x in row] for row in a.entries], scale


def _bareiss_step(m: list[list[int]], r: int, c: int, prev: int) -> int:
    """Clear column c below row r against the pivot m[r][c]; returns the pivot.

    Only columns after c are updated.  Each division by prev is exact.
    """
    row_r = m[r]
    piv = row_r[c]
    tail = row_r[c + 1 :]
    for row_i in m[r + 1 :]:
        f = row_i[c]
        row_i[c] = 0
        if f:
            row_i[c + 1 :] = [(piv * x - f * y) // prev for x, y in zip(row_i[c + 1 :], tail)]
        elif piv != prev:
            row_i[c + 1 :] = [piv * x // prev for x in row_i[c + 1 :]]
    return piv


def _row_echelon(m: list[list[int]], ncols: int) -> tuple[int, int, int]:
    """Fraction-free row echelon form in place, skipping columns without a pivot.

    Returns the rank, the sign of the row permutation and the last pivot.
    """
    r, sign, prev = 0, 1, 1
    for c in range(ncols):
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        prev = _bareiss_step(m, r, c, prev)
        r += 1
    return r, sign, prev


def determinant(a: RationalMatrix) -> Entry:
    """Exact determinant by fraction-free elimination."""
    if not a.is_square():
        raise DimensionMismatchError(f"determinant needs a square matrix, got {a.rows}x{a.cols}")
    n = a.rows
    m, scale = _integer_matrix(a)
    r, sign, last = _row_echelon(m, n)
    if r < n:
        return 0
    return sign * last if scale == 1 else _normalize(Fraction(sign * last, scale**n))


def rank(a: RationalMatrix) -> int:
    """Exact rank by fraction-free elimination."""
    return _row_echelon(_integer_matrix(a)[0], a.cols)[0]


def inertia(a: RationalMatrix) -> Inertia:
    """Signature of a symmetric matrix by symmetric fraction-free elimination."""
    if not a.is_square():
        raise NotSymmetricError(f"inertia needs a square matrix, got {a.rows}x{a.cols}")
    if not a.is_symmetric():
        raise NotSymmetricError("matrix is not symmetric")
    n = a.rows
    m, _ = _integer_matrix(a)
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
        if (m[k][k] > 0) == (prev > 0):
            plus += 1
        else:
            minus += 1
        prev = _bareiss_step(m, k, k, prev)
    return Inertia(plus, minus, n - plus - minus)


def is_congruent_product(p: RationalMatrix, b: RationalMatrix, target: RationalMatrix) -> bool:
    """Whether p * b * p^T equals target, exactly."""
    prod = multiply(multiply(p, b), transpose(p))
    if prod.rows != target.rows or prod.cols != target.cols:
        raise DimensionMismatchError("product shape does not match target")
    return prod == target


# ---------------------------------------------------------------------------
# serialization helpers


def format_entry(x: Entry) -> str:
    if isinstance(x, Fraction) and x.denominator != 1:
        return f"{x.numerator}/{x.denominator}"
    return str(int(x) if isinstance(x, Fraction) else x)


def to_json_rows(a: RationalMatrix) -> list[list[int | str]]:
    """JSON-safe rows: ints stay ints, true fractions become 'n/d' strings."""
    return [[x if isinstance(x, int) else format_entry(x) for x in row] for row in a.entries]
