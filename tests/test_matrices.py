"""Matrix constructors and the Mycielskian block identities."""

import ast
import inspect

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import rank, subtract
from conftest import K2_NEG, K2_POS, SQUARE_ONE_NEG
from strategies import signed_graphs
from sgmyc.core import canonicalize, is_all_positive
from sgmyc.balance import certify_balance, negate
from sgmyc import claims, matrices
from sgmyc.exactla import Inertia, IntMatrix, inertia
from sgmyc.matrices import (
    adjacency,
    degree_matrix,
    incidence,
    incidence_mycielskian,
    laplacian,
    negative_join,
)
from sgmyc.mycielskian import mycielskian

M = oracles.from_rows

# the paper's P and B for K2 with its one edge negative
K2_NEG_P = [
    [1, 0, 0, 0, 0],
    [0, 1, 0, 0, 0],
    [1, 0, -1, 0, 0],
    [0, 1, 0, -1, 0],
    [0, 0, 0, 0, 1],
]
K2_NEG_B = [
    [0, -1, 0, 0, 0],
    [-1, 0, 0, 0, 0],
    [0, 0, 0, 1, -1],
    [0, 0, 1, 0, -1],
    [0, 0, -1, -1, 0],
]


def adjacency_m(g):
    """A_M: the adjacency of the constructed Mycielskian."""
    return adjacency(mycielskian(g)[0])


def laplacian_m(g):
    """L_M: the Laplacian of the constructed Mycielskian."""
    return laplacian(mycielskian(g)[0])


def gram_rows(h):
    """h h^T of an IntMatrix by the triple loop, as an IntMatrix."""
    return M(oracles.triple_loop_product(h.entries, tuple(zip(*h.entries)), h.rows))


@pytest.mark.parametrize("name", ["incidence_mycielskian", "_gram", "_mycielskian_columns"])
def test_mycielskian_builder_uses_no_other_construction(name):
    # the block identities below and in the audit compare independent
    # constructions only while no block formula is derived from another
    # builder or from the constructed Mycielskian
    tree = ast.parse(inspect.getsource(matrices))
    builders = {n.name for n in tree.body if isinstance(n, ast.FunctionDef) and not n.name.startswith("_")}
    body = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)
    names = {n.id for n in ast.walk(body) if isinstance(n, ast.Name)}
    assert not names & (builders | {"mycielskian"}) - {name}


def test_every_builder_returns_int_matrices():
    # what the benchmark's tracer reads: entries_built sums rows * cols
    # over the IntMatrix, or the tuple of them, a builder returns
    builders = [
        fn for name, fn in vars(matrices).items()
        if inspect.isfunction(fn) and fn.__module__ == matrices.__name__ and not name.startswith("_")
    ]
    assert len(builders) == 6
    for build in builders:
        result = build(SQUARE_ONE_NEG)
        assert all(type(m) is IntMatrix for m in (result if isinstance(result, tuple) else (result,)))


class TestAdjacency:
    def test_frozen(self):
        assert adjacency(K2_NEG) == M([[0, -1], [-1, 0]])
        assert adjacency(SQUARE_ONE_NEG) == M(
            [
                [0, -1, 0, 1],
                [-1, 0, 1, 0],
                [0, 1, 0, 1],
                [1, 0, 1, 0],
            ]
        )

    def test_empty(self):
        assert adjacency(canonicalize(0, [])) == M([])

    @given(signed_graphs(max_p=7))
    def test_symmetric_with_edge_entries(self, g):
        a = adjacency(g)
        assert a.is_symmetric()
        for u, v, s in g.edges:
            assert a.entries[u - 1][v - 1] == s
        assert sum(1 for i in range(g.p) for j in range(g.p) if a.entries[i][j] != 0) == 2 * g.q

    def test_mycielskian_frozen(self):
        assert adjacency_m(K2_NEG) == M(
            [
                [0, -1, 0, -1, 0],
                [-1, 0, -1, 0, 0],
                [0, -1, 0, 0, 1],
                [-1, 0, 0, 0, 1],
                [0, 0, 1, 1, 0],
            ]
        )


class TestNegativeJoin:
    def test_frozen(self):
        assert negative_join(K2_POS) == M(
            [
                [0, 1, -1],
                [1, 0, -1],
                [-1, -1, 0],
            ]
        )
        assert negative_join(canonicalize(1, [])) == M([[0, -1], [-1, 0]])

    def test_determinant_and_rank(self):
        nj = negative_join(K2_POS)
        assert oracles.laplace_determinant(nj.entries) == 2
        assert rank(nj) == 3

    @given(signed_graphs(max_p=6))
    def test_shape(self, g):
        nj = negative_join(g)
        assert nj.rows == g.p + 1
        assert nj.is_symmetric()
        assert all(nj.entries[g.p][i] == -1 for i in range(g.p))


class TestCongruence:
    """The paper's factorization A_M = P B P^T, with P and B built by oracles.paper_factors."""

    def test_factor_shapes(self):
        p_mat, b_mat = oracles.paper_factors(SQUARE_ONE_NEG)
        assert len(p_mat) == len(b_mat) == 9
        assert oracles.laplace_determinant(p_mat) == (-1) ** 4

    def test_unimodular(self):
        for g in (K2_NEG, K2_POS, SQUARE_ONE_NEG):
            p_mat, _ = oracles.paper_factors(g)
            assert oracles.laplace_determinant(p_mat) in (1, -1)

    def test_frozen_factors(self):
        p_mat, b_mat = oracles.paper_factors(K2_NEG)
        assert p_mat == K2_NEG_P
        assert b_mat == K2_NEG_B

    @given(signed_graphs(max_p=6))
    def test_product_identity(self, g):
        p_mat, b_mat = oracles.paper_factors(g)
        assert M(oracles.congruence_product(p_mat, b_mat)) == adjacency_m(g)

    @given(signed_graphs(max_p=6))
    def test_lower_block_is_negative_join_of_negated_graph(self, g):
        _, b_mat = oracles.paper_factors(g)
        lower = M([row[g.p:] for row in b_mat[g.p:]])
        negated = canonicalize(g.p, [(u, v, -s) for u, v, s in g.edges])
        assert lower == negative_join(negated)

    @settings(max_examples=150)
    @given(signed_graphs(max_p=7), st.none() | st.integers(min_value=0, max_value=200))
    @example(K2_NEG, None)
    @example(K2_NEG, 0)
    @example(canonicalize(0, []), None)
    def test_claim_verdict_is_whether_p_b_p_t_is_a_m(self, g, k):
        # inertia-additivity applies P by row operations to the A_M of the
        # graph the audit builds; here P B P^T is multiplied out, on the
        # clean Mycielskian and with one of its edge signs flipped
        ctx = claims.Context(g)
        gm, lab = ctx.myc
        flip = None if k is None or not gm.q else k % gm.q
        if flip is not None:
            edges = [(u, v, -s if i == flip else s) for i, (u, v, s) in enumerate(gm.edges)]
            ctx.__dict__["myc"] = (canonicalize(gm.p, edges), lab)
        p_mat, b_mat = oracles.paper_factors(g)
        if g == K2_NEG:
            assert (p_mat, b_mat) == (K2_NEG_P, K2_NEG_B)
        holds = M(oracles.congruence_product(p_mat, b_mat)) == ctx.adjacency_myc
        assert holds == (flip is None)
        assert claims.check("inertia-additivity", ctx)["status"] == ("pass" if holds else "fail")

    @given(signed_graphs(max_p=6))
    def test_rank_and_nullity_additive_with_negative_join(self, g):
        am = adjacency_m(g)
        a = adjacency(g)
        nj = negative_join(g)
        assert rank(am) == rank(a) + rank(nj)
        assert inertia(am).n_zero == inertia(a).n_zero + inertia(nj).n_zero

    @given(signed_graphs(max_p=6))
    def test_full_inertia_additive_with_diagonal_blocks(self, g):
        am = adjacency_m(g)
        a = adjacency(g)
        assert inertia(am) == inertia(a) + inertia(negative_join(negate(g)))

    @given(signed_graphs(max_p=6))
    def test_lower_block_swaps_negative_join_signature(self, g):
        nj_in = inertia(negative_join(g))
        lb_in = inertia(negative_join(negate(g)))
        assert (lb_in.n_plus, lb_in.n_minus, lb_in.n_zero) == (
            nj_in.n_minus,
            nj_in.n_plus,
            nj_in.n_zero,
        )

    def test_single_positive_edge_needs_the_swap(self):
        # the smallest case where adding the negative join's signature
        # does not reproduce the Mycielskian signature, while adding the
        # lower diagonal block's does
        g = K2_POS
        am_in = inertia(adjacency_m(g))
        a_in = inertia(adjacency(g))
        nj_in = inertia(negative_join(g))
        lb_in = inertia(negative_join(negate(g)))
        assert am_in == Inertia(3, 2, 0)
        assert a_in == Inertia(1, 1, 0)
        assert nj_in == Inertia(1, 2, 0)
        assert lb_in == Inertia(2, 1, 0)
        assert a_in + lb_in == am_in
        assert a_in + nj_in != am_in
        assert a_in.rank + nj_in.rank == am_in.rank


class TestInertiaOracle:
    @settings(max_examples=60)
    @given(signed_graphs(max_p=7))
    @example(canonicalize(0, []))
    @example(canonicalize(5, []))
    def test_graph_matrices_match_congruence_oracle(self, g):
        for m in (adjacency(g), adjacency_m(g), negative_join(g), laplacian(g)):
            rows = [list(row) for row in m.entries]
            assert inertia(m) == Inertia(*oracles.congruence_inertia(rows))


class TestIncidence:
    def test_frozen(self):
        assert incidence(K2_NEG) == M([[1], [1]])
        assert incidence(K2_POS) == M([[1], [-1]])
        assert incidence(SQUARE_ONE_NEG) == M(
            [
                [1, 1, 0, 0],
                [1, 0, 1, 0],
                [0, 0, -1, 1],
                [0, -1, 0, -1],
            ]
        )

    @given(signed_graphs(max_p=7))
    def test_gram_is_laplacian(self, g):
        assert gram_rows(incidence(g)) == laplacian(g)

    @given(signed_graphs(max_p=6))
    def test_mycielskian_shape_and_support(self, g):
        hm = incidence_mycielskian(g)
        assert (hm.rows, hm.cols) == (2 * g.p + 1, 3 * g.q + g.p)
        for c in range(hm.cols):
            nonzero = [hm.entries[r][c] for r in range(hm.rows) if hm.entries[r][c] != 0]
            assert len(nonzero) == 2

    @given(signed_graphs(max_p=6))
    def test_cross_columns_rearrange_the_split(self, g):
        hm = incidence_mycielskian(g)
        p, q = g.p, g.q
        for k, (u, v, s) in enumerate(g.edges):
            # u part and v part of the original column
            assert hm.entries[u - 1][k] == 1 and hm.entries[v - 1][k] == -s
            # first cross copy: u part on originals, v part on twins
            assert hm.entries[u - 1][q + 2 * k] == 1
            assert hm.entries[p + v - 1][q + 2 * k] == -s
            # second cross copy: v part on originals, u part on twins
            assert hm.entries[v - 1][q + 2 * k + 1] == -s
            assert hm.entries[p + u - 1][q + 2 * k + 1] == 1

    @given(signed_graphs(max_p=6))
    def test_mycielskian_gram_is_mycielskian_laplacian(self, g):
        assert gram_rows(incidence_mycielskian(g)) == laplacian_m(g)

    @given(signed_graphs(max_p=7))
    @example(canonicalize(0, []))
    def test_gram_summed_from_the_columns_is_h_times_its_transpose(self, g):
        # the audit's H_M H_M^T, which never forms H_M, against the triple loop
        columns = matrices._mycielskian_columns(g)
        assert matrices._gram(2 * g.p + 1, columns) == gram_rows(incidence_mycielskian(g))


class TestLaplacian:
    def test_frozen(self):
        assert laplacian(K2_NEG) == M([[1, 1], [1, 1]])
        assert laplacian(K2_POS) == M([[1, -1], [-1, 1]])

    def test_frozen_rank_inertia(self):
        l_neg = laplacian(K2_NEG)
        assert rank(l_neg) == 1
        assert inertia(l_neg) == Inertia(1, 0, 1)

    def test_mycielskian_diagonal(self):
        lm = laplacian_m(SQUARE_ONE_NEG)
        assert [lm.entries[i][i] for i in range(9)] == [4, 4, 4, 4, 3, 3, 3, 3, 4]

    @given(signed_graphs(max_p=6))
    def test_block_form_equals_difference(self, g):
        assert laplacian(g) == subtract(degree_matrix(g), adjacency(g))

    @settings(max_examples=60)
    @given(signed_graphs(max_p=7, connected=True))
    def test_singular_iff_balanced_when_connected(self, g):
        singular = rank(laplacian(g)) < g.p
        assert singular == certify_balance(g).balanced

    @given(signed_graphs(max_p=6, connected=True))
    def test_mycielskian_singular_iff_all_positive(self, g):
        lm = laplacian_m(g)
        # connected input keeps the Mycielskian connected, so singularity
        # means balance, which happens exactly for all-positive input
        assert (rank(lm) < 2 * g.p + 1) == is_all_positive(g)

    @given(signed_graphs(max_p=6))
    def test_positive_semidefinite(self, g):
        res = inertia(laplacian(g))
        assert res.n_minus == 0

