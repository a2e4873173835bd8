"""Mycielskian construction, root re-signing, balanced variant, tower."""

import types

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    K2_NEG,
    SQUARE_ONE_NEG,
    SQUARE_TWO_NEG,
    SQUARE_TWO_NEG_BALANCED_MYC_TEXT,
    SQUARE_TWO_NEG_BALANCED_MYC_ZETA,
    all_sign_patterns,
    cycles_and_paths,
)
from strategies import balanced_graphs, signed_graphs, switchings
from sgmyc import claims
from sgmyc.balance import certify_balance, cycle_sign
from sgmyc.core import (
    canonicalize,
    degrees,
    dumps,
    is_all_positive,
    is_triangle_free,
    switch,
)
from sgmyc.errors import InputError, PreconditionError
from sgmyc.mycielskian import (
    MycielskianLabeling,
    balanced_mycielskian,
    mycielskian,
    resign_root,
    tower,
)

M_K2_NEG = canonicalize(
    5, [(1, 2, -1), (1, 4, -1), (2, 3, -1), (3, 5, 1), (4, 5, 1)]
)

M_SQUARE_ONE_NEG = canonicalize(
    9,
    [
        (1, 2, -1), (1, 4, 1), (1, 6, -1), (1, 8, 1),
        (2, 3, 1), (2, 5, -1), (2, 7, 1),
        (3, 4, 1), (3, 6, 1), (3, 8, 1),
        (4, 5, 1), (4, 7, 1),
        (5, 9, 1), (6, 9, 1), (7, 9, 1), (8, 9, 1),
    ],
)

TOWER_3 = canonicalize(5, [(1, 2, -1), (1, 4, -1), (2, 3, -1), (3, 5, -1), (4, 5, 1)])

# M_K2_NEG broken in each way resign_root must notice
NOT_MYCIELSKIANS_OF_K2 = {
    "vertex-count": K2_NEG,
    "adjacent-twins": canonicalize(5, list(M_K2_NEG.edges) + [(3, 4, 1)]),
    "root-star": canonicalize(5, [(1, 2, -1), (1, 4, -1), (1, 5, 1), (2, 3, -1), (4, 5, 1)]),
    "cross-sign": canonicalize(5, [(1, 2, -1), (1, 4, 1), (2, 3, -1), (3, 5, 1), (4, 5, 1)]),
    "cross-missing": canonicalize(5, [(1, 2, -1), (2, 3, -1), (3, 5, 1), (4, 5, 1)]),
}


class TestLabeling:
    def test_maps(self):
        lab = MycielskianLabeling(4)
        assert lab.original(2) == 2
        assert lab.twin(2) == 6
        assert lab.root == 9
        assert lab.to_json_dict() == {
            "original": [1, 2, 3, 4],
            "twin": [5, 6, 7, 8],
            "root": 9,
        }


class TestMycielskian:
    def test_single_negative_edge(self):
        gm, lab = mycielskian(K2_NEG)
        assert gm == M_K2_NEG
        assert lab.p == 2

    def test_square_frozen(self):
        gm, _ = mycielskian(SQUARE_ONE_NEG)
        assert gm == M_SQUARE_ONE_NEG
        assert (gm.p, gm.q) == (9, 16)
        assert (gm.positive_count, gm.negative_count) == (13, 3)

    def test_edgeless(self):
        gm, lab = mycielskian(canonicalize(2, []))
        # no edges to triple, just the root star
        assert gm.edges == ((3, 5, 1), (4, 5, 1))

    @given(signed_graphs(max_p=8))
    def test_counts(self, g):
        gm, _ = mycielskian(g)
        assert gm.p == 2 * g.p + 1
        assert gm.q == 3 * g.q + g.p
        assert gm.positive_count == 3 * g.positive_count + g.p
        assert gm.negative_count == 3 * g.negative_count

    @given(signed_graphs(max_p=8))
    def test_degree_formulas(self, g):
        gm, lab = mycielskian(g)
        d = degrees(g)
        dm = degrees(gm)
        for i in range(1, g.p + 1):
            deg, pos, neg, net = d[i - 1]
            assert dm[lab.original(i) - 1] == (2 * deg, 2 * pos, 2 * neg, 2 * net)
            assert dm[lab.twin(i) - 1] == (deg + 1, pos + 1, neg, net + 1)
        assert dm[lab.root - 1] == (g.p, g.p, 0, g.p)

    @given(signed_graphs(max_p=7))
    def test_triangle_free_iff(self, g):
        gm, _ = mycielskian(g)
        assert is_triangle_free(gm) == is_triangle_free(g)

    def test_delete_root(self):
        gm, lab = mycielskian(K2_NEG)
        assert oracles.delete_root(gm, lab) == canonicalize(
            4, [(1, 2, -1), (1, 4, -1), (2, 3, -1)]
        )


def balance_characterization(g):
    return claims.check("balance-characterization", claims.Context(g))


class TestBalanceCharacterization:
    def test_all_positive_input(self):
        result = balance_characterization(canonicalize(3, [(1, 2, 1), (2, 3, 1)]))
        assert (result["status"], result["detail"]) == ("pass", "balanced Mycielskian")

    def test_negative_edge_gives_witness(self):
        result = balance_characterization(K2_NEG)
        assert (result["status"], result["detail"]) == ("pass", "negative 5-cycle [1, 2, 3, 5, 4]")
        assert not certify_balance(M_K2_NEG).balanced
        assert cycle_sign(M_K2_NEG, (1, 2, 3, 5, 4)) == -1

    def test_exhaustive_small_patterns(self):
        for base in cycles_and_paths(range(3, 6), range(2, 6)):
            for g in all_sign_patterns(base):
                assert balance_characterization(g)["status"] == "pass"

    @given(signed_graphs(max_p=8))
    def test_random(self, g):
        result = balance_characterization(g)
        assert result["status"] == "pass"
        assert (result["detail"] == "balanced Mycielskian") == is_all_positive(g)


class TestResignRoot:
    def test_reproduces_balanced_variant(self):
        gm, lab = mycielskian(K2_NEG)
        assert resign_root(gm, lab, (-1, 1)) == TOWER_3

    def test_all_positive_signature_is_identity(self):
        gm, lab = mycielskian(SQUARE_ONE_NEG)
        assert resign_root(gm, lab, (1, 1, 1, 1)) == gm

    def test_signature_validated(self):
        gm, lab = mycielskian(K2_NEG)
        with pytest.raises(InputError, match="root signature has length 1, expected 2"):
            resign_root(gm, lab, (1,))
        with pytest.raises(InputError, match="root signature entry for vertex 2 is 0$"):
            resign_root(gm, lab, (1, 0))
        # a float or bool equal to a sign would otherwise land in a root edge
        for z in (1.0, -1.0, True):
            with pytest.raises(InputError) as exc:
                resign_root(gm, lab, (1, z))
            assert str(exc.value) == f"root signature entry for vertex 2 is {z}"

    def test_rejects_adjacent_twins(self):
        gm, lab = mycielskian(K2_NEG)
        bad = canonicalize(5, list(gm.edges) + [(3, 4, 1)])
        with pytest.raises(PreconditionError, match="graph is not the Mycielskian of its original edges"):
            resign_root(bad, lab, (1, 1))

    def test_rejects_wrong_root_star(self):
        gm, lab = mycielskian(K2_NEG)
        edges = [e for e in gm.edges if e != (3, 5, 1)] + [(1, 5, 1)]
        bad = canonicalize(5, edges)
        with pytest.raises(PreconditionError, match="graph is not the Mycielskian of its original edges"):
            resign_root(bad, lab, (1, 1))

    def test_rejects_cross_sign_mismatch(self):
        gm, lab = mycielskian(K2_NEG)
        edges = [(u, v, -s) if (u, v) == (1, 4) else (u, v, s) for u, v, s in gm.edges]
        bad = canonicalize(5, edges)
        with pytest.raises(PreconditionError, match="graph is not the Mycielskian of its original edges"):
            resign_root(bad, lab, (1, 1))

    def test_rejects_wrong_vertex_count(self):
        with pytest.raises(PreconditionError, match="expected 5 vertices, got 2"):
            resign_root(K2_NEG, MycielskianLabeling(2), (1, 1))

    @pytest.mark.parametrize("case", sorted(NOT_MYCIELSKIANS_OF_K2))
    def test_rejections_agree_with_reference(self, case):
        lab = MycielskianLabeling(2)
        # each names the structural check that failed, in its own words
        for resign, structure in (
            (resign_root, "vertices, got|is not the Mycielskian"),
            (oracles.reference_resign_root, "vertices, got|are adjacent|root must be|do not mirror"),
        ):
            with pytest.raises(PreconditionError, match=structure):
                resign(NOT_MYCIELSKIANS_OF_K2[case], lab, (1, 1))


def root_relation(g, rs):
    """Whether rs(i) * rs(j) equals the sign of v_i v_j for every edge."""
    return all(rs[u - 1] * rs[v - 1] == s for u, v, s in g.edges)


def resigned_balanced(g, rs):
    return certify_balance(resign_root(*mycielskian(g), rs)).balanced


class TestRootRelation:
    def test_holds_for_construction_signature(self):
        assert root_relation(K2_NEG, (-1, 1)) and resigned_balanced(K2_NEG, (-1, 1))
        assert root_relation(K2_NEG, (1, -1)) and resigned_balanced(K2_NEG, (1, -1))

    def test_fails_otherwise(self):
        assert not root_relation(K2_NEG, (1, 1)) and not resigned_balanced(K2_NEG, (1, 1))
        assert not root_relation(K2_NEG, (-1, -1)) and not resigned_balanced(K2_NEG, (-1, -1))

    @given(balanced_graphs(min_p=1, max_p=7), st.data())
    def test_violating_signature_unbalances(self, g, data):
        # for balanced g, the re-signed Mycielskian is balanced exactly when
        # the relation holds; any failure on an edge forces a negative 5-cycle
        rs = data.draw(switchings(g.p))
        assert resigned_balanced(g, rs) == root_relation(g, rs)


class TestBalancedMycielskian:
    def test_square_frozen_bytes(self):
        gb, zb = balanced_mycielskian(SQUARE_TWO_NEG)
        assert dumps(gb) == SQUARE_TWO_NEG_BALANCED_MYC_TEXT
        assert zb == SQUARE_TWO_NEG_BALANCED_MYC_ZETA

    def test_single_negative_edge(self):
        gb, zb = balanced_mycielskian(K2_NEG)
        assert gb == TOWER_3
        assert (4, 5, 1) in gb.edges
        assert zb == (-1, 1, -1, 1, 1)

    def test_unbalanced_rejected(self):
        with pytest.raises(PreconditionError, match="input is unbalanced, negative cycle"):
            balanced_mycielskian(SQUARE_ONE_NEG)

    def test_all_positive_input_gives_plain_mycielskian(self):
        g = canonicalize(3, [(1, 2, 1), (1, 3, 1)])
        gb, zb = balanced_mycielskian(g)
        assert gb == mycielskian(g)[0]
        assert zb == (1,) * 7

    @given(balanced_graphs(max_p=8))
    def test_contract(self, g):
        gb, zb = balanced_mycielskian(g)
        gm, lab = mycielskian(g)
        # same skeleton, possibly different root star signs
        assert {(u, v) for u, v, _ in gb.edges} == {(u, v) for u, v, _ in gm.edges}
        assert certify_balance(gb).balanced
        assert is_all_positive(switch(gb, zb))

    @settings(max_examples=40)
    @given(balanced_graphs(max_p=6), st.data())
    def test_switching_input_switches_output(self, g, data):
        theta = data.draw(switchings(g.p))
        gb1, zb1 = balanced_mycielskian(g)
        gb2, zb2 = balanced_mycielskian(switch(g, theta))
        mu = tuple(a * b for a, b in zip(zb1, zb2))
        assert switch(gb1, mu) == gb2

    @given(balanced_graphs(max_p=7))
    def test_root_signature_satisfies_relation(self, g):
        _, zb = balanced_mycielskian(g)
        assert root_relation(g, zb[: g.p])


class TestTower:
    def test_frozen_levels(self):
        levels = tower(4)
        assert levels[0] == canonicalize(1, [])
        assert levels[1] == K2_NEG
        assert levels[2] == TOWER_3
        assert (levels[3].p, levels[3].q) == (11, 20)

    def test_counts_recurrence(self):
        levels = tower(6)
        for a, b in zip(levels[1:], levels[2:]):
            assert b.p == 2 * a.p + 1
            assert b.q == 3 * a.q + a.p

    def test_levels_balanced_triangle_free(self):
        for level in tower(5):
            assert certify_balance(level).balanced
            assert is_triangle_free(level)

    def test_not_all_positive_from_level_two(self):
        for level in tower(5)[1:]:
            assert not is_all_positive(level)

    def test_needs_positive_n(self):
        with pytest.raises(InputError, match="tower needs n >= 1"):
            tower(0)

    @pytest.mark.parametrize("n", [2.5, 3.0, True], ids=repr)
    def test_n_must_be_an_int(self, n):
        with pytest.raises(InputError) as exc:
            tower(n)
        assert str(exc.value) == "tower needs n >= 1"


class TestAgainstReference:
    """The one-pass constructions return what the earlier build, sort and check code did."""

    @given(signed_graphs(min_p=0, max_p=9))
    @example(canonicalize(0, []))
    @example(canonicalize(1, []))
    @example(canonicalize(5, []))
    def test_mycielskian(self, g):
        assert mycielskian(g) == oracles.reference_mycielskian(g)

    @given(st.one_of(signed_graphs(min_p=0, max_p=9), balanced_graphs(min_p=0, max_p=9)))
    @example(canonicalize(0, []))
    @example(canonicalize(1, []))
    @example(canonicalize(5, []))
    @example(SQUARE_ONE_NEG)
    def test_balanced_mycielskian(self, g):
        try:
            want = oracles.reference_balanced_mycielskian(g)
        except PreconditionError as exc:
            with pytest.raises(PreconditionError) as got:
                balanced_mycielskian(g)
            assert str(got.value) == str(exc)
            return
        assert balanced_mycielskian(g) == want

    @given(signed_graphs(min_p=0, max_p=9), st.data())
    def test_resign_root(self, g, data):
        gm, lab = mycielskian(g)
        # once from the plain Mycielskian, once from one already re-signed
        for _ in range(2):
            rs = data.draw(switchings(g.p))
            want = oracles.reference_resign_root(gm, lab, rs)
            assert resign_root(gm, lab, rs) == want
            gm = want

    @given(signed_graphs(min_p=0, max_p=9))
    def test_delete_root(self, g):
        gm, lab = mycielskian(g)
        kept = [e for e in gm.edges if lab.root not in e[:2]]
        assert oracles.delete_root(gm, lab) == canonicalize(2 * g.p, kept)

    def test_tower_nine(self):
        levels = tower(9)
        want = levels[:2]
        while len(want) < 9:
            want.append(oracles.reference_balanced_mycielskian(want[-1])[0])
        assert levels == want
        top = levels[-1]
        assert mycielskian(top) == oracles.reference_mycielskian(top)
        assert balanced_mycielskian(top) == oracles.reference_balanced_mycielskian(top)


def test_submodule_import_binds_the_module():
    import sgmyc.mycielskian as m

    assert isinstance(m, types.ModuleType)
    assert m.mycielskian is mycielskian
