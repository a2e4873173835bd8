"""Balance certification, switching certificates, negation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import K2_NEG, SQUARE_ONE_NEG, SQUARE_TWO_NEG, TRIANGLE_TWO_NEG
from strategies import balanced_graphs, graphs_with_switchings, signed_graphs
from oracles import verify_certificate
from sgmyc.balance import certify_balance, cycle_sign, negate
from sgmyc.core import canonicalize, generate, is_all_negative, is_all_positive, switch
from sgmyc.errors import InputError


class TestCycleSign:
    def test_positive_triangle(self):
        assert cycle_sign(TRIANGLE_TWO_NEG, (1, 2, 3)) == 1

    def test_negative_square(self):
        assert cycle_sign(SQUARE_ONE_NEG, (1, 2, 3, 4)) == -1
        # rotation and reflection do not change the sign
        assert cycle_sign(SQUARE_ONE_NEG, (3, 4, 1, 2)) == -1
        assert cycle_sign(SQUARE_ONE_NEG, (4, 3, 2, 1)) == -1

    def test_too_short(self):
        with pytest.raises(InputError, match="cycle needs at least 3 vertices, got 2"):
            cycle_sign(K2_NEG, (1, 2))

    def test_repeat_vertex(self):
        with pytest.raises(InputError, match="cycle repeats a vertex"):
            cycle_sign(SQUARE_ONE_NEG, (1, 2, 1))

    def test_non_edge(self):
        with pytest.raises(InputError, match=r"\(2,4\) is not an edge"):
            cycle_sign(SQUARE_ONE_NEG, (1, 2, 4))

    @given(signed_graphs(min_p=3, max_p=7))
    def test_matches_oracle_on_every_cycle(self, g):
        for cyc in oracles.all_simple_cycles(g):
            assert cycle_sign(g, cyc) == oracles.oracle_cycle_sign(g, cyc)

    @given(signed_graphs(min_p=3, max_p=7), st.data())
    def test_matches_oracle_on_any_vertex_sequence(self, g, data):
        cyc = data.draw(st.lists(st.integers(1, g.p), min_size=3, max_size=g.p, unique=True))
        pairs = {(u, v) for u, v, _ in g.edges} | {(v, u) for u, v, _ in g.edges}
        if all((cyc[i - 1], cyc[i]) in pairs for i in range(len(cyc))):
            assert cycle_sign(g, cyc) == oracles.oracle_cycle_sign(g, cyc)
        else:
            with pytest.raises(InputError, match="is not an edge"):
                cycle_sign(g, cyc)

    def test_long_negative_cycle(self):
        # one sign lookup per step; scanning all edges at every step is quadratic in p
        p = 20_000
        g = generate("cycle", {"length": p, "pattern": "-" + "+" * (p - 1)})
        assert cycle_sign(g, range(p, 0, -1)) == -1
        cert = certify_balance(g)
        assert not cert.balanced and len(cert.witness) == p
        assert verify_certificate(g, cert)


class TestCertifyBalance:
    def test_balanced_square(self):
        cert = certify_balance(SQUARE_TWO_NEG)
        assert cert.balanced
        assert cert.to_all_positive == (1, -1, 1, 1)
        assert cert.bipartition == (1, 2, 1, 1)
        assert cert.witness is None
        assert verify_certificate(SQUARE_TWO_NEG, cert)

    def test_unbalanced_square(self):
        cert = certify_balance(SQUARE_ONE_NEG)
        assert not cert.balanced
        assert cert.bipartition is None and cert.to_all_positive is None
        assert cycle_sign(SQUARE_ONE_NEG, cert.witness) == -1
        assert verify_certificate(SQUARE_ONE_NEG, cert)

    def test_single_negative_edge(self):
        cert = certify_balance(K2_NEG)
        assert cert.balanced
        assert cert.to_all_positive == (1, -1)

    def test_all_positive_gets_trivial_switching(self):
        g = generate("cycle", {"length": 5})
        cert = certify_balance(g)
        assert cert.to_all_positive == (1,) * 5
        assert cert.bipartition == (1,) * 5

    def test_edgeless(self):
        cert = certify_balance(canonicalize(3, []))
        assert cert.balanced and cert.to_all_positive == (1, 1, 1)

    def test_component_roots_are_positive(self):
        g = canonicalize(4, [(1, 2, -1), (3, 4, -1)])
        cert = certify_balance(g)
        assert cert.to_all_positive == (1, -1, 1, -1)

    def test_witness_lands_in_unbalanced_component(self):
        g = canonicalize(7, [(1, 2, -1), (3, 4, 1), (3, 5, 1), (4, 5, -1), (6, 7, 1)])
        cert = certify_balance(g)
        assert not cert.balanced
        assert set(cert.witness) == {3, 4, 5}
        assert verify_certificate(g, cert)

    def test_deterministic(self):
        a = certify_balance(SQUARE_TWO_NEG)
        b = certify_balance(SQUARE_TWO_NEG)
        assert a == b

    @given(signed_graphs(max_p=7))
    def test_verdict_matches_cycle_enumeration(self, g):
        cert = certify_balance(g)
        assert cert.balanced == oracles.balanced_by_cycle_enumeration(g)
        assert verify_certificate(g, cert)

    @given(balanced_graphs(max_p=8))
    def test_balanced_constructions_certify(self, g):
        cert = certify_balance(g)
        assert cert.balanced
        assert is_all_positive(switch(g, cert.to_all_positive))

    @given(graphs_with_switchings(max_p=7))
    def test_balance_is_switching_invariant(self, gz):
        g, zeta = gz
        assert certify_balance(g).balanced == certify_balance(switch(g, zeta)).balanced

    @settings(max_examples=30)
    @given(balanced_graphs(min_p=2, max_p=6))
    def test_path_signs_follow_bipartition(self, g):
        cert = certify_balance(g)
        for a in range(1, g.p + 1):
            for b in range(a + 1, g.p + 1):
                expected = 1 if cert.bipartition[a - 1] == cert.bipartition[b - 1] else -1
                for path_sign in oracles.all_simple_path_signs(g, a, b):
                    assert path_sign == expected

    def test_tampered_certificates_rejected(self):
        cert = certify_balance(SQUARE_TWO_NEG)
        bad_switch = cert.to_all_positive[:1] + (-cert.to_all_positive[1],) + cert.to_all_positive[2:]
        from sgmyc.balance import BalanceCertificate

        tampered = BalanceCertificate(True, cert.bipartition, bad_switch, None)
        assert not verify_certificate(SQUARE_TWO_NEG, tampered)
        tampered = BalanceCertificate(True, (1, 1, 1, 1), cert.to_all_positive, None)
        assert not verify_certificate(SQUARE_TWO_NEG, tampered)
        tampered = BalanceCertificate(False, None, None, (1, 2, 3, 4))
        assert not verify_certificate(SQUARE_TWO_NEG, tampered)
        tampered = BalanceCertificate(False, None, None, None)
        assert not verify_certificate(SQUARE_TWO_NEG, tampered)

    def test_json_shape(self):
        d = certify_balance(SQUARE_TWO_NEG).to_json_dict()
        assert d == {
            "balanced": True,
            "bipartition": [1, 2, 1, 1],
            "switching": [1, -1, 1, 1],
            "witness_cycle": None,
        }


class TestAntibalance:
    def test_negate_involution(self):
        assert negate(negate(SQUARE_ONE_NEG)) == SQUARE_ONE_NEG
        assert is_all_negative(negate(generate("cycle", {"length": 4})))
