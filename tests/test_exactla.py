"""Exact rational matrices: arithmetic, Bareiss elimination, inertia."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from sgmyc.exactla import (
    Inertia,
    RationalMatrix,
    block,
    determinant,
    format_entry,
    inertia,
    is_congruent_product,
    multiply,
    rank,
    subtract,
    to_json_rows,
    transpose,
)
from sgmyc.errors import DimensionMismatchError, InvalidParamsError, NotSymmetricError

M = RationalMatrix.from_rows


def entries(max_den=1):
    if max_den == 1:
        return st.integers(min_value=-6, max_value=6)
    return st.fractions(
        min_value=-4, max_value=4, max_denominator=max_den
    )


def matrices(n_rows, n_cols, max_den=1):
    return st.lists(
        st.lists(entries(max_den), min_size=n_cols, max_size=n_cols),
        min_size=n_rows,
        max_size=n_rows,
    ).map(M)


@st.composite
def square_matrices(draw, max_n=5, max_den=1):
    n = draw(st.integers(min_value=0, max_value=max_n))
    return draw(matrices(n, n, max_den))


@st.composite
def symmetric_matrices(draw, max_n=5, max_den=1):
    n = draw(st.integers(min_value=0, max_value=max_n))
    vals = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            x = draw(entries(max_den))
            vals[i][j] = vals[j][i] = x
    return M(vals)


@st.composite
def zero_heavy_symmetric(draw, max_n=8, max_den=1):
    """Symmetric matrices with many zeros, often on the whole diagonal.

    Zero diagonals drive inertia through its symmetric swap, and a zero
    trailing diagonal through the fold of a later row and column.
    """
    n = draw(st.integers(min_value=0, max_value=max_n))
    cell = st.one_of(st.just(0), entries(max_den))
    diag = st.just(0) if draw(st.booleans()) else st.one_of(st.just(0), st.just(0), entries(max_den))
    vals = [[0] * n for _ in range(n)]
    for i in range(n):
        vals[i][i] = draw(diag)
        for j in range(i + 1, n):
            vals[i][j] = vals[j][i] = draw(cell)
    return M(vals)


def shaped(rows, ncols):
    """Matrix with an explicit width, so that p x 0 and 0 x q shapes survive."""
    return RationalMatrix(M(rows).entries, ncols)


@st.composite
def product_operands(draw, max_dim=4):
    p, k, q = (draw(st.integers(min_value=0, max_value=max_dim)) for _ in range(3))
    cell = st.one_of(st.just(0), entries(max_den=4))
    a = [[draw(cell) for _ in range(k)] for _ in range(p)]
    b = [[draw(cell) for _ in range(q)] for _ in range(k)]
    return a, k, b, q


class TestConstruction:
    def test_from_rows_normalizes_whole_fractions(self):
        a = M([[Fraction(2, 1), Fraction(1, 2)]])
        assert a.entry(0, 0) == 2 and isinstance(a.entry(0, 0), int)
        assert a.entry(0, 1) == Fraction(1, 2)

    def test_ragged_rejected(self):
        with pytest.raises(DimensionMismatchError):
            M([[1, 2], [3]])

    def test_bad_entry_rejected(self):
        with pytest.raises(InvalidParamsError):
            M([[1.5]])

    def test_identity_zeros(self):
        assert RationalMatrix.identity(2) == M([[1, 0], [0, 1]])
        assert RationalMatrix.zeros(2, 3) == M([[0, 0, 0], [0, 0, 0]])

    def test_shape_queries(self):
        a = M([[1, 2, 3], [4, 5, 6]])
        assert (a.rows, a.cols) == (2, 3)
        assert not a.is_square()
        assert M([[1, 2], [2, 1]]).is_symmetric()
        assert not M([[1, 2], [3, 1]]).is_symmetric()


class TestArithmetic:
    def test_multiply(self):
        a = M([[1, 2], [3, 4]])
        b = M([[0, 1], [1, 0]])
        assert multiply(a, b) == M([[2, 1], [4, 3]])

    def test_multiply_fractions(self):
        a = M([[Fraction(1, 2), Fraction(1, 3)]])
        b = M([[2], [3]])
        assert multiply(a, b) == M([[2]])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            multiply(M([[1, 2]]), M([[1, 2]]))
        with pytest.raises(DimensionMismatchError):
            subtract(M([[1]]), M([[1, 2]]))

    def test_subtract(self):
        a = M([[1, 2]])
        b = M([[3, -5]])
        assert subtract(a, b) == M([[-2, 7]])

    def test_transpose(self):
        assert transpose(M([[1, 2, 3], [4, 5, 6]])) == M([[1, 4], [2, 5], [3, 6]])

    def test_block(self):
        got = block(
            [
                [M([[1]]), M([[2, 3]])],
                [M([[4], [5]]), M([[6, 7], [8, 9]])],
            ]
        )
        assert got == M([[1, 2, 3], [4, 6, 7], [5, 8, 9]])

    def test_block_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            block([[M([[1]]), M([[2], [3]])]])

    @given(matrices(3, 3), matrices(3, 3), matrices(3, 3))
    def test_multiply_associative(self, a, b, c):
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))

    @settings(max_examples=150)
    @given(product_operands())
    @example(([[], []], 0, [], 3))
    @example(([], 2, [[1, 2, 3], [4, 5, 6]], 3))
    def test_multiply_matches_triple_loop(self, operands):
        a, k, b, q = operands
        got = multiply(shaped(a, k), shaped(b, q))
        assert (got.rows, got.cols) == (len(a), q)
        assert got == shaped(oracles.triple_loop_product(a, b, q), q)

    @given(matrices(3, 4))
    def test_transpose_involution(self, a):
        assert transpose(transpose(a)) == a


class TestDeterminant:
    def test_frozen(self):
        assert determinant(M([[0, 1, -1], [1, 0, -1], [-1, -1, 0]])) == 2
        assert determinant(RationalMatrix.identity(4)) == 1
        assert determinant(M([[1, 2], [2, 4]])) == 0
        assert determinant(M([])) == 1
        assert determinant(M([[7]])) == 7

    def test_fractions(self):
        a = M([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 5)]])
        assert determinant(a) == Fraction(1, 60)

    def test_not_square(self):
        with pytest.raises(DimensionMismatchError):
            determinant(M([[1, 2]]))

    @settings(max_examples=60)
    @given(square_matrices(max_n=5))
    def test_matches_cofactor_expansion(self, a):
        rows = [[a.entry(i, j) for j in range(a.cols)] for i in range(a.rows)]
        assert determinant(a) == oracles.laplace_determinant(rows)

    @settings(max_examples=40)
    @given(square_matrices(max_n=4, max_den=6))
    def test_matches_cofactor_expansion_fractions(self, a):
        rows = [[a.entry(i, j) for j in range(a.cols)] for i in range(a.rows)]
        assert determinant(a) == oracles.laplace_determinant(rows)

    @given(square_matrices(max_n=4), square_matrices(max_n=4))
    def test_multiplicative(self, a, b):
        if a.rows == b.rows:
            assert determinant(multiply(a, b)) == determinant(a) * determinant(b)


class TestRank:
    def test_frozen(self):
        assert rank(M([[1, 1], [1, 1]])) == 1
        assert rank(RationalMatrix.zeros(3, 3)) == 0
        assert rank(RationalMatrix.identity(3)) == 3
        assert rank(M([[1, 2, 3], [2, 4, 6], [1, 0, 1]])) == 2
        assert rank(M([])) == 0

    def test_wide_and_tall(self):
        assert rank(M([[1, 2, 3]])) == 1
        assert rank(M([[1], [2], [3]])) == 1

    @settings(max_examples=80)
    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5),
        st.data(),
    )
    def test_matches_gaussian_oracle(self, nr, nc, data):
        a = data.draw(matrices(nr, nc))
        rows = [[a.entry(i, j) for j in range(nc)] for i in range(nr)]
        assert rank(a) == oracles.gaussian_rank(rows)

    @settings(max_examples=30)
    @given(st.integers(min_value=1, max_value=4), st.data())
    def test_matches_gaussian_oracle_fractions(self, n, data):
        a = data.draw(matrices(n, n, max_den=5))
        rows = [[a.entry(i, j) for j in range(n)] for i in range(n)]
        assert rank(a) == oracles.gaussian_rank(rows)


class TestInertia:
    def test_diagonal(self):
        assert inertia(M([[2, 0], [0, -3]])) == Inertia(1, 1, 0)
        assert inertia(RationalMatrix.zeros(2, 2)) == Inertia(0, 0, 2)
        assert inertia(M([])) == Inertia(0, 0, 0)

    def test_rank_one(self):
        assert inertia(M([[1, 1], [1, 1]])) == Inertia(1, 0, 1)

    def test_zero_diagonal_block(self):
        # hits the pivot-repair path: no nonzero diagonal remains
        assert inertia(M([[0, 1], [1, 0]])) == Inertia(1, 1, 0)

    def test_swap_path(self):
        # hits the symmetric-swap path: a later diagonal entry is nonzero
        assert inertia(M([[0, 0, 1], [0, 2, 0], [1, 0, 0]])) == Inertia(2, 1, 0)

    def test_fraction_entries(self):
        a = M([[Fraction(1, 2), 1], [1, Fraction(1, 2)]])
        # eigenvalues 3/2 and -1/2
        assert inertia(a) == Inertia(1, 1, 0)

    def test_requires_symmetric(self):
        with pytest.raises(NotSymmetricError):
            inertia(M([[0, 1], [2, 0]]))
        with pytest.raises(NotSymmetricError):
            inertia(M([[1, 2]]))

    def test_addition(self):
        assert Inertia(1, 2, 0) + Inertia(0, 1, 3) == Inertia(1, 3, 3)
        assert Inertia(2, 1, 1).rank == 3

    @given(symmetric_matrices(max_n=5))
    def test_components_sum_to_size(self, a):
        res = inertia(a)
        assert res.n_plus + res.n_minus + res.n_zero == a.rows

    @given(symmetric_matrices(max_n=5))
    def test_rank_consistent(self, a):
        assert inertia(a).rank == rank(a)

    @given(symmetric_matrices(max_n=4))
    def test_determinant_sign_consistent(self, a):
        res = inertia(a)
        det = determinant(a)
        if res.n_zero > 0:
            assert det == 0
        else:
            assert det != 0
            negative = det < 0
            assert negative == (res.n_minus % 2 == 1)

    @settings(max_examples=40)
    @given(symmetric_matrices(max_n=4), square_matrices(max_n=4))
    def test_congruence_invariant(self, a, p):
        if p.rows != a.rows or determinant(p) == 0:
            return
        congruent = multiply(multiply(p, a), transpose(p))
        assert inertia(congruent) == inertia(a)

    @given(symmetric_matrices(max_n=4, max_den=4))
    def test_fraction_matrices(self, a):
        res = inertia(a)
        assert res.rank == rank(a)

    @settings(max_examples=200)
    @given(zero_heavy_symmetric())
    def test_matches_congruence_oracle(self, a):
        rows = [list(row) for row in a.entries]
        assert inertia(a) == Inertia(*oracles.congruence_inertia(rows))

    @settings(max_examples=100)
    @given(zero_heavy_symmetric(max_den=6))
    def test_matches_congruence_oracle_fractions(self, a):
        rows = [list(row) for row in a.entries]
        assert inertia(a) == Inertia(*oracles.congruence_inertia(rows))

    def test_is_congruent_product(self):
        a = M([[0, 1], [1, 0]])
        p = M([[1, 1], [1, -1]])
        target = multiply(multiply(p, a), transpose(p))
        assert is_congruent_product(p, a, target)
        assert not is_congruent_product(p, a, RationalMatrix.identity(2))


class TestSerialization:
    def test_format_parse(self):
        assert format_entry(3) == "3"
        assert format_entry(Fraction(1, 2)) == "1/2"
        assert format_entry(Fraction(-4, 2)) == "-2"
        assert Fraction(format_entry(Fraction(-1, 2))) == Fraction(-1, 2)

    def test_json_roundtrip(self):
        a = M([[1, Fraction(1, 2)], [0, -3]])
        assert read_json_rows(to_json_rows(a)) == a
        assert to_json_rows(a) == [[1, "1/2"], [0, -3]]

    @given(matrices(3, 2, max_den=7))
    def test_roundtrip_random(self, a):
        assert read_json_rows(to_json_rows(a)) == a


def read_json_rows(rows):
    """The matrix a JSON report holds: 'n/d' strings are read as Fractions."""
    return M([[Fraction(x) if isinstance(x, str) else x for x in row] for row in rows])
