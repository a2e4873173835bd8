"""Signed chromatic numbers: exact solvers, extension rule, sandwich facts."""

import sys
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    K2_NEG,
    K2_POS,
    SQUARE_ONE_NEG,
    SQUARE_TWO_NEG,
    TRIANGLE_TWO_NEG,
    all_sign_patterns,
    cycles_and_paths,
)
from strategies import balanced_graphs, signed_graphs, switchings
from sgmyc import balance, claims, coloring
from sgmyc.balance import certify_balance, negate
from sgmyc.coloring import (
    SignedColoring,
    chromatic_number,
    color_trial_order,
    deficiency,
    extend_coloring_to_mycielskian,
    is_proper,
    least_coloring,
)
from sgmyc.core import canonicalize, generate, is_all_negative, switch
from sgmyc.errors import BudgetExhaustedError, InputError, PreconditionError
from sgmyc.mycielskian import mycielskian, tower


class TestColorSets:
    def test_members(self):
        assert sorted(color_trial_order(1)) == [0]
        assert sorted(color_trial_order(2)) == [-1, 1]
        assert sorted(color_trial_order(3)) == [-1, 0, 1]
        assert sorted(color_trial_order(4)) == [-2, -1, 1, 2]
        assert sorted(color_trial_order(5)) == [-2, -1, 0, 1, 2]

    def test_trial_order(self):
        assert color_trial_order(1) == (0,)
        assert color_trial_order(2) == (1, -1)
        assert color_trial_order(3) == (0, 1, -1)
        assert color_trial_order(4) == (1, -1, 2, -2)
        assert color_trial_order(5) == (0, 1, -1, 2, -2)

    def test_n_positive(self):
        with pytest.raises(InputError, match="color set needs n >= 1"):
            color_trial_order(0)
        with pytest.raises(InputError, match="color set needs n >= 1"):
            is_proper(K2_POS, SignedColoring(0, (1, -1)))

    @pytest.mark.parametrize("n", [3.0, 2.5, True], ids=repr)
    def test_n_must_be_an_int(self, n):
        with pytest.raises(InputError) as exc:
            color_trial_order(n)
        assert str(exc.value) == "color set needs n >= 1"
        for g in (SQUARE_ONE_NEG, canonicalize(0, [])):
            with pytest.raises(InputError, match="color set needs n >= 1"):
                least_coloring(g, n)
        with pytest.raises(InputError, match="color set needs n >= 1"):
            is_proper(K2_POS, SignedColoring(n, (1, -1)))

    @given(st.integers(min_value=1, max_value=20))
    def test_same_members_either_way(self, n):
        members = sorted(color_trial_order(n))
        assert members == oracles.oracle_color_set(n)
        assert len(members) == len(set(members)) == n
        # symmetric: closed under negation
        assert sorted(-c for c in members) == members


class TestIsProper:
    def test_triangle_coloring(self):
        assert is_proper(TRIANGLE_TWO_NEG, SignedColoring(3, (1, 0, 1)))
        # (1, 0, -1) breaks the negative edge 1-3: 1 == -(-1)
        assert not is_proper(TRIANGLE_TWO_NEG, SignedColoring(3, (1, 0, -1)))

    def test_positive_edge_wants_distinct(self):
        assert not is_proper(K2_POS, SignedColoring(2, (1, 1)))
        assert is_proper(K2_POS, SignedColoring(2, (1, -1)))

    def test_negative_edge_wants_non_opposite(self):
        assert is_proper(K2_NEG, SignedColoring(2, (1, 1)))
        assert not is_proper(K2_NEG, SignedColoring(2, (1, -1)))

    def test_color_out_of_set(self):
        with pytest.raises(InputError, match="vertex 1 has color 0, not in M_2"):
            is_proper(K2_POS, SignedColoring(2, (0, 1)))
        with pytest.raises(InputError, match="vertex 1 has color 2, not in M_2"):
            is_proper(K2_POS, SignedColoring(2, (2, 1)))

    def test_length_mismatch(self):
        with pytest.raises(InputError, match="coloring has 1 colors, graph has 2 vertices"):
            is_proper(K2_POS, SignedColoring(2, (1,)))

    @given(signed_graphs(max_p=6), st.data())
    def test_matches_oracle(self, g, data):
        n = data.draw(st.integers(min_value=1, max_value=5))
        colors = tuple(
            data.draw(st.sampled_from(oracles.oracle_color_set(n))) for _ in range(g.p)
        )
        assert is_proper(g, SignedColoring(n, colors)) == oracles.oracle_is_proper(
            g.edges, colors
        )


class TestDeficiency:
    def test_values(self):
        assert deficiency(TRIANGLE_TWO_NEG, SignedColoring(3, (1, 0, 1))) == 1
        assert deficiency(K2_NEG, SignedColoring(2, (1, 1))) == 1
        assert deficiency(K2_POS, SignedColoring(2, (1, -1))) == 0

    def test_requires_proper(self):
        with pytest.raises(PreconditionError, match="deficiency is defined for proper colorings only"):
            deficiency(K2_POS, SignedColoring(2, (1, 1)))


class TestChromaticNumber:
    def test_frozen_small_cases(self):
        assert chromatic_number(canonicalize(1, []))[0] == 1
        assert chromatic_number(K2_NEG) == (2, SignedColoring(2, (1, 1)))
        assert chromatic_number(K2_POS) == (2, SignedColoring(2, (1, -1)))
        assert chromatic_number(SQUARE_ONE_NEG) == (3, SignedColoring(3, (0, 1, 0, 1)))
        # balanced, so searched as its all-positive switching, and the
        # witness is that coloring times the switching
        assert chromatic_number(TRIANGLE_TWO_NEG) == (3, SignedColoring(3, (0, -1, 1)))

    def test_empty_graph(self):
        assert chromatic_number(canonicalize(0, [])) == (1, SignedColoring(1, ()))

    def test_all_negative_cycle_is_two_chromatic(self):
        g = generate("cycle", {"length": 5, "pattern": "-----"})
        n, coloring = chromatic_number(g)
        assert n == 2
        assert is_proper(g, coloring)

    def test_witness_is_proper_at_reported_n(self):
        for g in (K2_NEG, SQUARE_ONE_NEG, TRIANGLE_TWO_NEG):
            n, coloring = chromatic_number(g)
            assert coloring.n == n
            assert is_proper(g, coloring)

    def test_deterministic(self):
        assert chromatic_number(SQUARE_ONE_NEG) == chromatic_number(SQUARE_ONE_NEG)

    def test_tower_level_three(self):
        assert chromatic_number(tower(3)[2])[0] == 3

    @settings(max_examples=60, deadline=None)
    @given(signed_graphs(max_p=4))
    def test_matches_brute_force(self, g):
        n, coloring = chromatic_number(g)
        oracle_n, _ = oracles.brute_force_chromatic(g)
        assert n == oracle_n
        assert is_proper(g, coloring)
        if n > 1:
            assert not oracles.brute_force_colorable(g, n - 1)

    @settings(max_examples=150, deadline=None)
    @given(signed_graphs(max_p=9))
    def test_matches_reference(self, g):
        assert_matches_reference(g)

    @settings(max_examples=60, deadline=None)
    @given(signed_graphs(max_p=9))
    def test_matches_reference_on_mycielskians(self, g):
        assert_matches_reference(mycielskian(g)[0])

    @settings(max_examples=30, deadline=None)
    @given(switchings(11))
    def test_matches_reference_on_tower_switchings(self, zeta):
        assert_matches_reference(switch(tower(4)[3], zeta))

    @settings(max_examples=10, deadline=None)
    @given(switchings(23))
    def test_matches_reference_on_level_five_switchings(self, zeta):
        # c(v) -> zeta(v) c(v) maps the proper colorings of a graph onto those
        # of its switching, so chi stays that of tower(5)[4], which the test
        # below checks against the reference; the static search refutes
        # n = 4 on its own
        g = switch(tower(5)[4], zeta)
        n, coloring = chromatic_number(g)
        assert n == 5
        assert is_proper(g, coloring)
        assert least_coloring(g, 4) is None
        assert is_proper(g, least_coloring(g, 5))

    def test_matches_reference_on_level_five(self):
        assert_matches_reference(tower(5)[4])

    def test_least_coloring_is_none_below_chi(self):
        assert least_coloring(SQUARE_ONE_NEG, 2) is None
        assert least_coloring(tower(4)[3], 3) is None
        assert least_coloring(canonicalize(0, []), 1) == SignedColoring(1, ())
        with pytest.raises(InputError, match="color set needs n >= 1"):
            least_coloring(canonicalize(0, []), 0)

    @settings(max_examples=150, deadline=None)
    @given(signed_graphs(min_p=0, max_p=7))
    @example(canonicalize(0, []))
    @example(canonicalize(1, []))
    def test_least_coloring_is_the_least_at_every_n(self, g):
        chi = chromatic_number(g)[0]
        for n in range(1, chi + 3):
            least = oracles.least_proper_coloring(g, n)
            assert (least is None) == (n < chi)
            assert least_coloring(g, n) == least

    @pytest.mark.parametrize("level, n, smallest", [(4, 3, 687), (5, 4, 388_238)])
    def test_least_coloring_refutation_node_counts(self, level, n, smallest):
        g = tower(level)[level - 1]
        assert least_coloring(g, n, node_budget=smallest) is None
        with pytest.raises(BudgetExhaustedError) as exc:
            least_coloring(g, n, node_budget=smallest - 1)
        assert exc.value.lower_bound == n
        assert exc.value.nodes == smallest - 1

    def test_static_search_memory_does_not_grow_with_its_nodes(self):
        # least_coloring never pops the saturation heap, so only the sweep
        # keeps it from growing by one entry per saturation change: without
        # it the 40,000-node run peaks about 150 KB above the 5,000-node one
        g = tower(5)[4]

        def peak(budget):
            tracemalloc.start()
            try:
                with pytest.raises(BudgetExhaustedError):
                    least_coloring(g, 4, node_budget=budget)
                return tracemalloc.get_traced_memory()[1]
            finally:
                # left on, tracing would slow every later test
                tracemalloc.stop()

        assert peak(40_000) < peak(5_000) + 16_384

    def test_long_path_needs_no_recursion(self):
        p = 5000
        assert sys.getrecursionlimit() < p
        g = canonicalize(p, [(v, v + 1, 1) for v in range(1, p)])
        n, coloring = chromatic_number(g)
        assert n == 2
        assert is_proper(g, coloring)
        assert all(coloring.colors[v] == -coloring.colors[v + 1] for v in range(p - 1))
        witness = least_coloring(g, 2)
        assert all(witness.colors[v] == -witness.colors[v + 1] for v in range(p - 1))

    def test_long_odd_cycle_picks_without_scanning(self):
        # not antibalanced, so the DSATUR search runs at n = 3 on all 3,001
        # vertices: about 0.02 s on a 2-vCPU VM, where a pick that scans
        # every vertex takes 1.4 s
        p = 3001
        g = canonicalize(p, [(v, v % p + 1, 1) for v in range(1, p + 1)])
        start = time.perf_counter()
        n, coloring = chromatic_number(g)
        elapsed = time.perf_counter() - start
        assert n == 3
        assert is_proper(g, coloring)
        assert elapsed < 0.5

    @pytest.mark.parametrize("g, smallest", [(SQUARE_ONE_NEG, 6), (tower(3)[2], 9)])
    def test_smallest_deciding_budget(self, g, smallest):
        n, _ = chromatic_number(g, node_budget=smallest)
        with pytest.raises(BudgetExhaustedError) as exc:
            chromatic_number(g, node_budget=smallest - 1)
        assert exc.value.lower_bound == n
        assert exc.value.nodes == smallest - 1

    @pytest.mark.parametrize("g, smallest", [(SQUARE_ONE_NEG, 6), (tower(3)[2], 9), (tower(5)[4], 54)])
    def test_least_coloring_smallest_budget(self, g, smallest):
        n = chromatic_number(g)[0]
        assert least_coloring(g, n, node_budget=smallest) == oracles.reference_chromatic(g)[1]
        with pytest.raises(BudgetExhaustedError) as exc:
            least_coloring(g, n, node_budget=smallest - 1)
        assert exc.value.lower_bound == n
        assert exc.value.nodes == smallest - 1

    @pytest.mark.parametrize(
        "g, chi, smallest",
        [(tower(4)[3], 4, 102), (tower(5)[4], 5, 3_732), (mycielskian(tower(4)[3])[0], 4, 373)],
        ids=["tower-4", "tower-5", "unbalanced-mycielskian-of-tower-4"],
    )
    def test_pair_opening_node_counts(self, g, chi, smallest):
        # the balanced tower levels open colors one at a time: pair opening
        # takes 252 and 11,063 on them, the static-order search of
        # least_coloring, run from n = 1, 729 and 390,395, and plain
        # backtracking (oracles.reference_chromatic) 956 and 1,555,715.  The
        # Mycielskian of level 4 is unbalanced, so it still opens pairs
        assert chromatic_number(g, node_budget=smallest)[0] == chi
        with pytest.raises(BudgetExhaustedError) as exc:
            chromatic_number(g, node_budget=smallest - 1)
        assert exc.value.lower_bound == chi

    @settings(max_examples=100, deadline=None)
    @given(balanced_graphs(max_p=9, connected=False))
    def test_matches_reference_on_balanced_switchings(self, g):
        n, witness = chromatic_number(g)
        assert n == oracles.reference_chromatic(g)[0]
        assert witness.n == n and is_proper(g, witness)

    @settings(max_examples=100, deadline=None)
    @given(signed_graphs(max_p=7))
    def test_only_balanced_input_searches_unsigned(self, g):
        modes = set()
        search = coloring._search

        def recording(*args, **kwargs):
            modes.add(kwargs["unsigned"])
            return search(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(coloring, "_search", recording)
            chromatic_number(g)
        # chi <= 2 is decided before any search
        expected = set() if certify_balance(negate(g)).balanced else {certify_balance(g).balanced}
        assert modes == expected

    def test_tower_level_six(self):
        g = tower(6)[5]
        n, coloring = chromatic_number(g)
        assert n == 6
        assert is_proper(g, coloring)

    def test_antibalanced_input_needs_no_search(self):
        # chi <= 2 is antibalance, decided before any color is tried
        g = generate("cycle", {"length": 5, "pattern": "-----"})
        assert chromatic_number(g, node_budget=0) == (2, SignedColoring(2, (1, 1, 1, 1, 1)))
        assert chromatic_number(canonicalize(3, []), node_budget=0) == (1, SignedColoring(1, (0, 0, 0)))

    def test_budget_raises_with_lower_bound(self):
        g = tower(4)[3]
        with pytest.raises(BudgetExhaustedError) as exc:
            chromatic_number(g, node_budget=40)
        assert exc.value.lower_bound >= 1
        assert "chromatic number >=" in str(exc.value)

    @pytest.mark.parametrize("budget", ["x", [3], 2.5, True, -1], ids=repr)
    def test_budget_must_be_an_int_of_at_least_zero(self, budget):
        # never compared or stored: 2.5 would be reported as the nodes spent
        if budget == -1:
            message = "node budget must be at least 0, got -1"
        else:
            message = f"node budget must be an integer, got {budget!r}"
        for check in (
            lambda: chromatic_number(SQUARE_ONE_NEG, node_budget=budget),
            lambda: least_coloring(SQUARE_ONE_NEG, 3, node_budget=budget),
            lambda: claims.check("chromatic-sandwich", claims.Context(SQUARE_ONE_NEG, budget)),
        ):
            with pytest.raises(InputError) as exc:
                check()
            assert str(exc.value) == message

    def test_budget_not_hit_when_large(self):
        n, _ = chromatic_number(SQUARE_ONE_NEG, node_budget=10**6)
        assert n == 3

    def test_budget_lower_bound_grows(self):
        # the reported lower bound climbs as the budget lets the solver
        # refute more color sets, and tops out at the true answer
        g = tower(3)[2]
        bounds = []
        for budget in (1, 10, 40, 10**6):
            try:
                n, _ = chromatic_number(g, node_budget=budget)
                bounds.append(n)
            except BudgetExhaustedError as exc:
                bounds.append(exc.lower_bound)
        assert bounds == sorted(bounds)
        assert bounds[-1] == 3


class TestExtension:
    def test_even_rule(self):
        ext = extend_coloring_to_mycielskian(K2_NEG, SignedColoring(2, (1, 1)))
        assert ext == SignedColoring(3, (1, 1, 1, 1, 0))
        gm, _ = mycielskian(K2_NEG)
        assert is_proper(gm, ext)

    def test_odd_rule_recolors_every_zero(self):
        ext = extend_coloring_to_mycielskian(
            TRIANGLE_TWO_NEG, SignedColoring(3, (1, 0, 1))
        )
        assert ext == SignedColoring(4, (1, 2, 1, 1, 2, 1, -2))
        gm, _ = mycielskian(TRIANGLE_TWO_NEG)
        assert is_proper(gm, ext)

    def test_extension_never_uses_zero_after_odd_input(self):
        g = SQUARE_ONE_NEG
        n, coloring = chromatic_number(g)
        assert n == 3
        ext = extend_coloring_to_mycielskian(g, coloring)
        assert ext.n == 4
        assert 0 not in ext.colors
        gm, _ = mycielskian(g)
        assert is_proper(gm, ext)

    def test_requires_proper(self):
        with pytest.raises(PreconditionError, match="only proper colorings extend"):
            extend_coloring_to_mycielskian(K2_POS, SignedColoring(2, (1, 1)))

    @settings(deadline=None)
    @given(signed_graphs(max_p=5))
    def test_extension_is_proper(self, g):
        n, coloring = chromatic_number(g)
        ext = extend_coloring_to_mycielskian(g, coloring)
        assert ext.n == n + 1
        gm, _ = mycielskian(g)
        assert is_proper(gm, ext)
        allowed = set(oracles.oracle_color_set(n + 1))
        assert all(c in allowed for c in ext.colors)


class TestSandwich:
    def test_exhaustive_triangle_and_square_patterns(self):
        for base in cycles_and_paths(range(3, 5), range(2, 5)):
            for g in all_sign_patterns(base):
                n, _ = chromatic_number(g)
                nm, _ = chromatic_number(mycielskian(g)[0])
                assert n <= nm <= n + 1

    def test_all_positive_bumps(self):
        g = generate("cycle", {"length": 4})
        n, _ = chromatic_number(g)
        nm, _ = chromatic_number(mycielskian(g)[0])
        assert nm == n + 1

    def test_all_negative_stays(self):
        g = generate("complete", {"order": 3})
        n, _ = chromatic_number(g)
        nm, _ = chromatic_number(mycielskian(g)[0])
        assert nm == n

    def test_restricted_equals_input(self):
        assert restricted_chromatic(K2_NEG) == 2
        assert restricted_chromatic(SQUARE_ONE_NEG) == 3

    @settings(max_examples=25, deadline=None)
    @given(signed_graphs(max_p=4))
    def test_restricted_random(self, g):
        assert restricted_chromatic(g) == chromatic_number(g)[0]


def assert_matches_reference(g):
    """chromatic_number's n and a proper witness; least_coloring's exact witness at that n."""
    ref_n, ref_coloring = oracles.reference_chromatic(g)
    n, coloring = chromatic_number(g)
    assert n == ref_n
    assert coloring.n == n and is_proper(g, coloring)
    assert least_coloring(g, n) == ref_coloring


def restricted_chromatic(g):
    """Chromatic number of the Mycielskian of g with its root deleted."""
    return chromatic_number(oracles.delete_root(*mycielskian(g)))[0]


def two_colorable(g):
    return chromatic_number(g)[0] <= 2


def antibalanced(g):
    """Whether chromatic_number puts g, with q > 0, at chi = 2, which must
    be exactly when its negation is balanced; the witness is then a
    switching of g to all-negative."""
    n, witness = chromatic_number(g)
    assert (n == 2) == certify_balance(negate(g)).balanced
    if n == 2:
        assert set(witness.colors) <= {1, -1}
        assert is_all_negative(switch(g, witness.colors))
    return n == 2


class TestAntibalanceAndTwoColorability:
    def test_antibalance_check(self):
        assert two_colorable(generate("complete", {"order": 4}))
        assert not two_colorable(SQUARE_ONE_NEG)
        assert not two_colorable(TRIANGLE_TWO_NEG)
        for g in (generate("complete", {"order": 4}), SQUARE_ONE_NEG, TRIANGLE_TWO_NEG):
            assert certify_balance(negate(g)).balanced == two_colorable(g)

    @given(signed_graphs(max_p=5))
    def test_antibalance_check_consistent(self, g):
        assert certify_balance(negate(g)).balanced == two_colorable(g)

    def test_all_negative_odd_cycle_is_antibalanced(self):
        assert antibalanced(generate("cycle", {"length": 5, "pattern": "-----"}))

    def test_all_positive_triangle_is_not(self):
        assert not antibalanced(generate("cycle", {"length": 3}))

    def test_unbalanced_square_is_not(self):
        assert not antibalanced(SQUARE_ONE_NEG)

    def test_balanced_even_cycle_is_both(self):
        assert certify_balance(SQUARE_TWO_NEG).balanced
        assert antibalanced(SQUARE_TWO_NEG)

    @given(signed_graphs(max_p=7))
    def test_matches_negation_balance(self, g):
        if g.q:
            antibalanced(g)

    @settings(max_examples=50, deadline=None)
    @given(signed_graphs(max_p=7))
    def test_decides_without_a_balance_certificate(self, g):
        # both switchings come from balance._potentials on the branch
        # graph: no certificate is built and no negated copy
        def refuse(*args):
            raise AssertionError("chromatic_number called a balance certificate builder")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(balance, "certify_balance", refuse)
            mp.setattr(balance, "negate", refuse)
            n, witness = chromatic_number(g)
        assert n == oracles.reference_chromatic(g)[0]
        assert witness.n == n and is_proper(g, witness)

    def test_two_colorable_mycielskian(self):
        assert two_colorable(mycielskian(K2_NEG)[0])
        assert two_colorable(mycielskian(generate("complete", {"order": 3}))[0])
        assert not two_colorable(mycielskian(K2_POS)[0])
        assert not two_colorable(mycielskian(SQUARE_ONE_NEG)[0])

    @settings(max_examples=25, deadline=None)
    @given(signed_graphs(max_p=4))
    def test_two_colorable_consistent(self, g):
        assert two_colorable(mycielskian(g)[0]) == is_all_negative(g)
