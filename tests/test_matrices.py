"""Matrix constructors and the Mycielskian block identities."""

import pytest
from hypothesis import example, given, settings

import oracles
from conftest import K2_NEG, K2_POS, SQUARE_ONE_NEG
from strategies import signed_graphs
from sgmyc.core import canonicalize, generate, is_all_positive
from sgmyc.balance import certify_balance
from sgmyc import exactla
from sgmyc.exactla import (
    Inertia,
    RationalMatrix,
    _row_echelon,
    determinant,
    inertia,
    is_congruent_product,
    multiply,
    rank,
    resume_rank,
    subtract,
    transpose,
)
from sgmyc.matrices import (
    adjacency,
    adjacency_mycielskian,
    congruence_factors,
    degree_matrix,
    degree_matrix_mycielskian,
    incidence,
    incidence_mycielskian,
    laplacian,
    laplacian_mycielskian,
    laplacian_mycielskian_schur,
    lower_block,
    negative_join,
)
from sgmyc.mycielskian import mycielskian, tower

M = RationalMatrix.from_rows


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
            assert a.entry(u - 1, v - 1) == s
        assert sum(1 for i in range(g.p) for j in range(g.p) if a.entry(i, j) != 0) == 2 * g.q

    @given(signed_graphs(max_p=6))
    def test_mycielskian_block_equals_direct(self, g):
        gm, _ = mycielskian(g)
        assert adjacency_mycielskian(g) == adjacency(gm)

    def test_mycielskian_frozen(self):
        assert adjacency_mycielskian(K2_NEG) == M(
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
        assert determinant(nj) == 2
        assert rank(nj) == 3

    @given(signed_graphs(max_p=6))
    def test_shape(self, g):
        nj = negative_join(g)
        assert nj.rows == g.p + 1
        assert nj.is_symmetric()
        assert all(nj.entry(g.p, i) == -1 for i in range(g.p))


class TestCongruence:
    def test_factor_shapes(self):
        p_mat, b_mat = congruence_factors(SQUARE_ONE_NEG)
        assert p_mat.rows == b_mat.rows == 9
        assert determinant(p_mat) == (-1) ** 4

    def test_unimodular(self):
        for g in (K2_NEG, K2_POS, SQUARE_ONE_NEG):
            p_mat, _ = congruence_factors(g)
            assert determinant(p_mat) in (1, -1)

    def test_frozen_factors(self):
        p_mat, b_mat = congruence_factors(K2_NEG)
        assert p_mat == M(
            [
                [1, 0, 0, 0, 0],
                [0, 1, 0, 0, 0],
                [1, 0, -1, 0, 0],
                [0, 1, 0, -1, 0],
                [0, 0, 0, 0, 1],
            ]
        )
        assert b_mat == M(
            [
                [0, -1, 0, 0, 0],
                [-1, 0, 0, 0, 0],
                [0, 0, 0, 1, -1],
                [0, 0, 1, 0, -1],
                [0, 0, -1, -1, 0],
            ]
        )

    @given(signed_graphs(max_p=6))
    def test_product_identity(self, g):
        p_mat, b_mat = congruence_factors(g)
        assert is_congruent_product(p_mat, b_mat, adjacency_mycielskian(g))
        assert multiply(multiply(p_mat, b_mat), transpose(p_mat)) == adjacency_mycielskian(g)

    @given(signed_graphs(max_p=6))
    def test_lower_block_is_negative_join_of_negated_graph(self, g):
        negated = canonicalize(g.p, [(u, v, -s) for u, v, s in g.edges])
        assert lower_block(g) == negative_join(negated)

    @given(signed_graphs(max_p=6))
    def test_rank_and_nullity_additive_with_negative_join(self, g):
        am = adjacency_mycielskian(g)
        a = adjacency(g)
        nj = negative_join(g)
        assert rank(am) == rank(a) + rank(nj)
        assert inertia(am).n_zero == inertia(a).n_zero + inertia(nj).n_zero

    @given(signed_graphs(max_p=6))
    def test_full_inertia_additive_with_diagonal_blocks(self, g):
        am = adjacency_mycielskian(g)
        a = adjacency(g)
        assert inertia(am) == inertia(a) + inertia(lower_block(g))

    @given(signed_graphs(max_p=6))
    def test_lower_block_swaps_negative_join_signature(self, g):
        nj_in = inertia(negative_join(g))
        lb_in = inertia(lower_block(g))
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
        am_in = inertia(adjacency_mycielskian(g))
        a_in = inertia(adjacency(g))
        nj_in = inertia(negative_join(g))
        lb_in = inertia(lower_block(g))
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
        for m in (adjacency(g), adjacency_mycielskian(g), negative_join(g), laplacian(g)):
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
        h = incidence(g)
        assert multiply(h, transpose(h)) == laplacian(g)

    @given(signed_graphs(max_p=6))
    def test_mycielskian_shape_and_support(self, g):
        hm = incidence_mycielskian(g)
        assert (hm.rows, hm.cols) == (2 * g.p + 1, 3 * g.q + g.p)
        for c in range(hm.cols):
            nonzero = [hm.entry(r, c) for r in range(hm.rows) if hm.entry(r, c) != 0]
            assert len(nonzero) == 2

    @given(signed_graphs(max_p=6))
    def test_cross_columns_rearrange_the_split(self, g):
        hm = incidence_mycielskian(g)
        p, q = g.p, g.q
        for k, (u, v, s) in enumerate(g.edges):
            # u part and v part of the original column
            assert hm.entry(u - 1, k) == 1 and hm.entry(v - 1, k) == -s
            # first cross copy: u part on originals, v part on twins
            assert hm.entry(u - 1, q + 2 * k) == 1
            assert hm.entry(p + v - 1, q + 2 * k) == -s
            # second cross copy: v part on originals, u part on twins
            assert hm.entry(v - 1, q + 2 * k + 1) == -s
            assert hm.entry(p + u - 1, q + 2 * k + 1) == 1

    @given(signed_graphs(max_p=6))
    def test_mycielskian_gram_is_mycielskian_laplacian(self, g):
        hm = incidence_mycielskian(g)
        assert multiply(hm, transpose(hm)) == laplacian_mycielskian(g)


class TestLaplacian:
    def test_frozen(self):
        assert laplacian(K2_NEG) == M([[1, 1], [1, 1]])
        assert laplacian(K2_POS) == M([[1, -1], [-1, 1]])

    def test_frozen_rank_inertia(self):
        l_neg = laplacian(K2_NEG)
        assert rank(l_neg) == 1
        assert inertia(l_neg) == Inertia(1, 0, 1)

    def test_mycielskian_diagonal(self):
        lm = laplacian_mycielskian(SQUARE_ONE_NEG)
        assert [lm.entry(i, i) for i in range(9)] == [4, 4, 4, 4, 3, 3, 3, 3, 4]

    @given(signed_graphs(max_p=6))
    def test_block_form_equals_difference(self, g):
        lm = laplacian_mycielskian(g)
        assert lm == subtract(degree_matrix_mycielskian(g), adjacency_mycielskian(g))
        gm, _ = mycielskian(g)
        assert lm == laplacian(gm)
        assert degree_matrix_mycielskian(g) == degree_matrix(gm)

    @settings(max_examples=60)
    @given(signed_graphs(max_p=7, connected=True))
    def test_singular_iff_balanced_when_connected(self, g):
        singular = rank(laplacian(g)) < g.p
        assert singular == certify_balance(g).balanced

    @given(signed_graphs(max_p=6, connected=True))
    def test_mycielskian_singular_iff_all_positive(self, g):
        lm = laplacian_mycielskian(g)
        # connected input keeps the Mycielskian connected, so singularity
        # means balance, which happens exactly for all-positive input
        assert (rank(lm) < 2 * g.p + 1) == is_all_positive(g)

    @given(signed_graphs(max_p=6))
    def test_positive_semidefinite(self, g):
        res = inertia(laplacian(g))
        assert res.n_minus == 0


CYCLE5_POS = canonicalize(5, [(i, i % 5 + 1, 1) for i in range(1, 6)])


class TestTwinSchur:
    """det(C) * S for the twin block C of L_M, and the rank resumed from it."""

    @settings(max_examples=80)
    @given(signed_graphs(max_p=9))
    @example(canonicalize(1, []))
    @example(canonicalize(5, []))
    @example(CYCLE5_POS)
    def test_scaled_matrix_is_det_c_times_oracle(self, g):
        det_c, s = oracles.twin_schur_complement(laplacian_mycielskian(g).entries, g.p)
        ts = laplacian_mycielskian_schur(g)
        assert ts.det_c == det_c
        assert [list(row) for row in ts.scaled.entries] == [[det_c * x for x in row] for row in s]
        assert (ts.rows, ts.cols) == (g.p + 1, g.p + 1)

    @settings(max_examples=80)
    @given(signed_graphs(max_p=9))
    @example(canonicalize(1, []))
    @example(canonicalize(5, []))
    @example(CYCLE5_POS)
    def test_resumed_rank_completes_the_rank_of_l_m(self, g):
        ts = laplacian_mycielskian_schur(g)
        assert g.p + resume_rank(ts.scaled, ts.det_c) == rank(laplacian_mycielskian(g))

    def test_resume_continues_the_elimination_of_l_m(self, monkeypatch):
        # resumed from det(C), every later entry is a minor of L_M: the last pivot is det(L_M)
        runs = []

        def recording(m, ncols, prev=1):
            runs.append(_row_echelon(m, ncols, prev))
            return runs[-1]

        monkeypatch.setattr(exactla, "_row_echelon", recording)
        graphs = [K2_NEG, SQUARE_ONE_NEG] + [
            generate("random", {"order": 8, "edge_prob": 0.4, "neg_prob": 0.5}, seed) for seed in range(8)
        ]
        for g in graphs:
            det_lm = determinant(laplacian_mycielskian(g))
            ts = laplacian_mycielskian_schur(g)
            assert resume_rank(ts.scaled, ts.det_c) == g.p + 1
            _, sign, last = runs[-1]
            assert sign * last == det_lm

    def test_all_positive_leaves_s_singular(self):
        # S has a zero pivot column here, so the column-skipping branch runs
        ts = laplacian_mycielskian_schur(CYCLE5_POS)
        assert resume_rank(ts.scaled, ts.det_c) == 5

    def test_every_tower_level(self):
        for g in tower(6):
            lm = laplacian_mycielskian(g)
            det_c, s = oracles.twin_schur_complement(lm.entries, g.p)
            ts = laplacian_mycielskian_schur(g)
            assert [list(row) for row in ts.scaled.entries] == [[det_c * x for x in row] for row in s]
            assert g.p + resume_rank(ts.scaled, det_c) == rank(lm)
