"""Exact integer matrices: construction, arithmetic, inertia."""

import contextlib
import io
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import rank, subtract
from strategies import leaf_heavy_symmetric, pendant_graphs, signed_graphs, sparse_symmetric
from sgmyc import claims, cli, exactla
from sgmyc.core import canonicalize, dumps
from sgmyc.matrices import adjacency, negative_join
from sgmyc.mycielskian import mycielskian
from sgmyc.exactla import Inertia, inertia
from sgmyc.errors import InputError, PreconditionError

M = oracles.from_rows


def entries():
    return st.integers(min_value=-6, max_value=6)


def matrices(n_rows, n_cols):
    return st.lists(
        st.lists(entries(), min_size=n_cols, max_size=n_cols),
        min_size=n_rows,
        max_size=n_rows,
    ).map(M)


@st.composite
def square_matrices(draw, max_n=5):
    n = draw(st.integers(min_value=0, max_value=max_n))
    return draw(matrices(n, n))


@st.composite
def symmetric_matrices(draw, max_n=5):
    return draw(symmetric_of_order(draw(st.integers(min_value=0, max_value=max_n))))


@st.composite
def symmetric_of_order(draw, n):
    vals = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            x = draw(entries())
            vals[i][j] = vals[j][i] = x
    return M(vals)


@st.composite
def zero_heavy_symmetric(draw, max_n=8):
    """Symmetric matrices with many zeros, often on the whole diagonal.

    Entries up to 6 leave rows that are neither lone nor leaves and make
    no pair of det -1, and zero diagonals drive the elimination of those
    through its symmetric swap, and a zero trailing diagonal through the
    fold of a later row and column.
    """
    n = draw(st.integers(min_value=0, max_value=max_n))
    cell = st.one_of(st.just(0), entries())
    diag = st.just(0) if draw(st.booleans()) else st.one_of(st.just(0), st.just(0), entries())
    vals = [[0] * n for _ in range(n)]
    for i in range(n):
        vals[i][i] = draw(diag)
        for j in range(i + 1, n):
            vals[i][j] = vals[j][i] = draw(cell)
    return M(vals)


def product(a, b):
    """a b of two IntMatrix by the triple loop."""
    return M(oracles.triple_loop_product(oracles.dense(a), oracles.dense(b), b.cols))


class TestConstruction:
    """M, the checked constructor the tests build their matrices with, and the shape of what it builds."""

    def test_ragged_rejected(self):
        with pytest.raises(InputError, match="rows have unequal lengths"):
            M([[1, 2], [3]])

    @pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(2, 1), True, 1.5], ids=repr)
    def test_non_int_entry_rejected(self, bad):
        # whole Fractions and bools compare equal to ints, yet only ints enter
        with pytest.raises(InputError, match=f"matrix entries must be ints, got {type(bad).__name__}$"):
            M([[1, bad]])

    def test_shape_queries(self):
        a = M([[1, 2, 3], [4, 5, 6]])
        assert (a.rows, a.cols) == (2, 3)
        # the width is the first row's, and a matrix without rows has none
        assert (M([[], []]).rows, M([[], []]).cols) == (2, 0)
        assert (M([]).rows, M([]).cols) == (0, 0)
        assert not a.is_square()
        assert M([[1, 2], [2, 1]]).is_symmetric()
        assert not M([[1, 2], [3, 1]]).is_symmetric()


class TestArithmetic:
    def test_shape_mismatch(self):
        with pytest.raises(InputError, match="shape mismatch 1x1 vs 1x2"):
            subtract(M([[1]]), M([[1, 2]]))

    def test_subtract(self):
        a = M([[1, 2]])
        b = M([[3, -5]])
        assert subtract(a, b) == M([[-2, 7]])


class TestRank:
    def test_frozen(self):
        assert rank(M([[1, 1], [1, 1]])) == 1
        assert rank(M([[0, 0, 0], [0, 0, 0], [0, 0, 0]])) == 0
        assert rank(M([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3
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
        rows = oracles.dense(a)
        assert rank(a) == oracles.gaussian_rank(rows)


class TestResumeRank:
    """The rank past an invertible diagonal block, from its scaled Schur complement."""

    @settings(max_examples=80)
    @given(
        st.lists(st.integers(min_value=-6, max_value=6).filter(bool), min_size=1, max_size=4),
        st.integers(min_value=0, max_value=4),
        st.data(),
    )
    def test_resumes_past_an_invertible_diagonal_block(self, diag, n, data):
        # a = [[C, B1], [B2, E]] with C diagonal: rank(a) = k + rank(S)
        k = len(diag)
        b1 = oracles.dense(data.draw(matrices(k, n)))
        b2 = oracles.dense(data.draw(matrices(n, k)))
        e = oracles.dense(data.draw(matrices(n, n)))
        c = lcm(*diag)
        # c * S, with S = E - B2 C^-1 B1
        w = [c // d for d in diag]
        scaled = [
            [c * e[i][j] - sum(w[t] * b2[i][t] * b1[t][j] for t in range(k))
             for j in range(n)]
            for i in range(n)
        ]
        a = [[diag[i] if i == j else 0 for j in range(k)] + b1[i] for i in range(k)]
        a += [b2[i] + e[i] for i in range(n)]
        assert k + rank(M(scaled)) == oracles.gaussian_rank(a)


class TestInertia:
    def test_diagonal(self):
        assert inertia(M([[2, 0], [0, -3]])) == Inertia(1, 1, 0)
        assert inertia(M([[0, 0], [0, 0]])) == Inertia(0, 0, 2)
        assert inertia(M([])) == Inertia(0, 0, 0)

    def test_rank_one(self):
        assert inertia(M([[1, 1], [1, 1]])) == Inertia(1, 0, 1)

    def test_zero_diagonal_block(self):
        # a pair of det -1, a leaf with s = 2, and a triangle of weight 2
        # that hits the elimination's fold: no nonzero diagonal remains
        assert inertia(M([[0, 1], [1, 0]])) == Inertia(1, 1, 0)
        assert inertia(M([[0, 2], [2, 0]])) == Inertia(1, 1, 0)
        assert inertia(M([[0, 2, 2], [2, 0, 2], [2, 2, 0]])) == Inertia(1, 2, 0)

    def test_swap_path(self):
        # a pair of det -1, or a leaf with s = 2, leaves the lone 2; in the
        # last no row is lone or a leaf and every pair has det -4, so the
        # elimination hits its symmetric-swap path
        assert inertia(M([[0, 0, 1], [0, 2, 0], [1, 0, 0]])) == Inertia(2, 1, 0)
        assert inertia(M([[0, 0, 2], [0, 2, 0], [2, 0, 0]])) == Inertia(2, 1, 0)
        assert inertia(M([[0, 2, 2], [2, 2, 2], [2, 2, 0]])) == Inertia(1, 2, 0)

    def test_requires_symmetric(self):
        with pytest.raises(PreconditionError, match="matrix is not symmetric"):
            inertia(M([[0, 1], [2, 0]]))
        with pytest.raises(PreconditionError, match="inertia needs a square matrix, got 1x2"):
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
        det = oracles.laplace_determinant(oracles.dense(a))
        if res.n_zero > 0:
            assert det == 0
        else:
            assert det != 0
            negative = det < 0
            assert negative == (res.n_minus % 2 == 1)

    @settings(max_examples=40)
    @given(symmetric_matrices(max_n=4), square_matrices(max_n=4))
    def test_congruence_invariant(self, a, p):
        if p.rows != a.rows or oracles.laplace_determinant(oracles.dense(p)) == 0:
            return
        congruent = product(product(p, a), M(list(zip(*oracles.dense(p)))))
        assert inertia(congruent) == inertia(a)

    @settings(max_examples=200)
    @given(zero_heavy_symmetric())
    def test_matches_congruence_oracle(self, a):
        rows = oracles.dense(a)
        assert inertia(a) == Inertia(*oracles.congruence_inertia(rows))


STAR = canonicalize(5, [(1, 2, 1), (1, 3, -1), (1, 4, 1), (1, 5, -1)])
K5_POS = canonicalize(5, [(u, v, 1) for u in range(1, 6) for v in range(u + 1, 6)])


def bordered(a, border):
    """The rows of [[a, b], [b', 0]] for the border b."""
    return [list(row) + [x] for row, x in zip(oracles.dense(a), border)] + [list(border) + [0]]


def assert_bordered_inertia(a, border):
    rows = bordered(a, border)
    assert inertia(a) == Inertia(*oracles.congruence_inertia(oracles.dense(a)))
    assert inertia(M(rows)) == Inertia(*oracles.congruence_inertia(rows))


class TestBorderedInertia:
    """A matrix and its bordering [[a, b], [b', 0]], each one plain call, against the Fraction oracle."""

    @settings(max_examples=300)
    @given(signed_graphs(min_p=0, max_p=10), st.sampled_from((1, -1)))
    @example(canonicalize(0, []), -1)
    @example(canonicalize(1, []), -1)
    # every row of A empty, and j outside its column space: (1, 1, p - 1)
    @example(canonicalize(4, []), -1)
    @example(STAR, -1)
    # A = J - I is nonsingular, so j is in its column space
    @example(K5_POS, 1)
    @example(K5_POS, -1)
    def test_graph_bordered_by_the_all_ones_vector(self, g, sign):
        # sign -1 borders A into the negative join, as the audit does
        a = adjacency(g)
        if sign == -1:
            assert bordered(a, (-1,) * g.p) == oracles.dense(negative_join(g))
        assert_bordered_inertia(a, (sign,) * g.p)

    @settings(max_examples=300)
    @given(st.data())
    def test_integer_borders_with_zeros(self, data):
        a = data.draw(zero_heavy_symmetric(max_n=8))
        border = data.draw(st.lists(st.one_of(st.just(0), entries()), min_size=a.rows, max_size=a.rows))
        assert_bordered_inertia(a, border)

    def test_outside_the_column_space(self):
        # the zero row of a meets the border: one +, one -, one zero less
        assert inertia(M([[2, 0], [0, 0]])) == Inertia(1, 0, 1)
        assert inertia(M(bordered(M([[2, 0], [0, 0]]), (0, 3)))) == Inertia(2, 1, 0)
        assert inertia(M(bordered(M([[2, 0], [0, 0]]), (3, 0)))) == Inertia(1, 1, 1)

    def test_plain_call_returns_one_inertia(self):
        res = inertia(M([[0, 1], [1, 0]]))
        assert type(res) is Inertia and res == Inertia(1, 1, 0)
        assert inertia(M(bordered(M([[0, 1], [1, 0]]), (1, 1)))) == Inertia(1, 2, 0)


def path_rows(n, d=0):
    """Rows of the path P_n with unit weights and d on every diagonal entry."""
    return [[1 if abs(i - j) == 1 else d if i == j else 0 for j in range(n)] for i in range(n)]


def recording_eliminations(monkeypatch):
    """Copies of the matrices the elimination loop receives from now on."""
    received, eliminate = [], exactla._eliminate

    def recording(m):
        received.append([row[:] for row in m])
        return eliminate(m)

    monkeypatch.setattr(exactla, "_eliminate", recording)
    return received


def orders(received):
    return [len(m) for m in received]


def lone_rows_and_leaves(m):
    """Rows of m that meet no other row, or that meet one on a zero diagonal."""
    meets = [sum(map(bool, row)) - bool(row[i]) for i, row in enumerate(m)]
    return [i for i, k in enumerate(meets) if k == 0 or (k == 1 and not m[i][i])]


class TestLeafPeeling:
    """Leaf pairs and isolated vertices, taken as pivots before the elimination, against the Fraction oracle."""

    @settings(max_examples=300)
    @given(leaf_heavy_symmetric())
    @example(path_rows(6))
    @example(path_rows(7))
    @example(oracles.dense(adjacency(STAR)))
    # |s| = 2 at each end: a leaf pair leaves row 2 lone, so none of it is eliminated
    @example([[0, 2, 0], [2, 0, 2], [0, 2, 0]])
    # the neighbour's diagonal d, and a leaf with its own diagonal
    @example([[0, 1, 0], [1, 3, 1], [0, 1, 0]])
    @example(path_rows(5, d=1))
    def test_matches_the_congruence_oracle(self, rows):
        assert inertia(M(rows)) == Inertia(*oracles.congruence_inertia(rows))

    @pytest.mark.parametrize("n", range(7))
    def test_a_path_peels_to_nothing(self, monkeypatch, n):
        received = recording_eliminations(monkeypatch)
        assert inertia(M(path_rows(n))) == Inertia(n // 2, n // 2, n % 2)
        assert orders(received) == [0]

    def test_k5_leaves_three_rows(self, monkeypatch):
        # one pair of det -1 leaves 3 rows of -2 on the diagonal and -1
        # elsewhere, where every pair has det 3
        received = recording_eliminations(monkeypatch)
        assert inertia(adjacency(K5_POS)) == Inertia(1, 4, 0)
        assert orders(received) == [3]

    def test_the_mycielskian_inertia_eliminates_what_the_pivots_leave(self, monkeypatch, tmp_path):
        rng = random.Random(7)
        p = 30
        g = canonicalize(p, [(u, v, rng.choice((1, -1))) for u in range(1, p + 1)
                             for v in range(u + 1, p + 1) if rng.random() < 0.12])
        path = tmp_path / "g.txt"
        path.write_text(dumps(g))
        received = recording_eliminations(monkeypatch)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(["inertia", "--of", "mycielskian", str(path)]) == 0
        # A, then the lower block of order p + 1, each pivoted to nothing:
        # the last row of each is lone ([[-2]] and [[2]])
        assert orders(received) == [0, 0]
        a_m = adjacency(mycielskian(g)[0])
        plus, minus, zero = oracles.congruence_inertia(oracles.dense(a_m))
        assert out.getvalue() == f"rank {plus + minus} n_plus {plus} n_minus {minus} n_zero {zero}\n"

    @settings(max_examples=100)
    @given(pendant_graphs(max_p=30))
    def test_the_package_matrices_leave_no_lone_row_or_leaf_to_the_elimination(self, g):
        # A, the negative join and the lower block: no row the pivots leave
        # to Bareiss could have been read off as a lone row or a leaf
        ctx = claims.Context(g)
        for a in (ctx.adjacency, negative_join(g), ctx.lower_block):
            with pytest.MonkeyPatch.context() as mp:
                received = recording_eliminations(mp)
                assert inertia(a) == Inertia(*oracles.congruence_inertia(oracles.dense(a)))
            assert [lone_rows_and_leaves(m) for m in received] == [[]]


class TestUnimodularPivots:
    """Lone rows, leaves and pairs of det -1 on sparse rows with weights up to 3 and diagonal entries."""

    @settings(max_examples=300)
    @given(sparse_symmetric())
    # pairs of det +1, which are no pivot: Bareiss takes them
    @example([[2, 1], [1, 1]])
    @example([[-1, 1], [1, -2]])
    @example([[-2, 1], [1, -1]])
    @example([[0, 2, 1, 0], [2, 2, 1, 1], [1, 1, 0, 0], [0, 1, 0, 3]])
    # no pivot of det +-1: the whole matrix, or what a pivot leaves, goes to Bareiss
    @example([[0, 2], [2, 0]])
    @example([[2, 3, 0], [3, 2, 1], [0, 1, 0]])
    @example([[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]])
    # the pair (0, 1) has det 2, so its inverse is no integer matrix
    @example([[2, 2, 1], [2, 3, 1], [1, 1, 1]])
    # an empty row among pivots
    @example([[0, 0, 0], [0, 0, 3], [0, 3, 1]])
    def test_matches_the_congruence_oracle(self, rows):
        assert inertia(M(rows)) == Inertia(*oracles.congruence_inertia(rows))

    @pytest.mark.parametrize("rows, order", [([[-3]], 0), ([[0, 2], [2, 0]], 0), ([[2, 1], [1, 1]], 2)])
    def test_what_reaches_the_elimination(self, monkeypatch, rows, order):
        # a lone row and a leaf with s = 2 correct nothing, so they are read
        # off; a pair of det +1 is no pivot here and goes to Bareiss whole
        received = recording_eliminations(monkeypatch)
        assert inertia(M(rows)) == Inertia(*oracles.congruence_inertia(rows))
        assert orders(received) == [order]
