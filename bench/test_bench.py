"""Tests of the benchmark's own oracles, checkers and tracer.

    python3 -m pytest -q bench

Every case is small enough to check by hand.
"""

import io
import json
import os
import sys
from contextlib import redirect_stdout

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import graphs as G  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

C4_ONE_NEGATIVE = G.canon(4, [(1, 2, -1), (2, 3, 1), (3, 4, 1), (1, 4, 1)])
K2 = G.canon(2, [(1, 2, 1)])


def test_c4_with_one_negative_edge_is_unbalanced():
    assert G.balance(C4_ONE_NEGATIVE) == (False, None)


def test_c4_with_two_negative_edges_switches_to_all_positive():
    ok, zeta = G.balance(W.TINY)
    assert ok
    assert W.is_all(G.switch(W.TINY, zeta), 1)


def test_brute_force_chromatic_numbers():
    assert G.brute_chromatic(G.canon(1, [])) == 1
    assert G.brute_chromatic(G.canon(2, [(1, 2, -1)])) == 2  # both ends take the same color
    assert G.brute_chromatic(W.cycle_graph("+++++")) == 3
    assert G.brute_chromatic(G.tower(4)) == 4


def test_mycielskian_of_k2_is_the_positive_five_cycle():
    # twins 3 and 4, root 5: the cycle 1-2-3-5-4-1
    assert G.mycielskian(K2) == G.canon(5, [(1, 2, 1), (2, 3, 1), (3, 5, 1), (4, 5, 1), (1, 4, 1)])


def test_tower_level_is_balanced_and_triangle_free():
    g = G.tower(5)
    assert g[0] == 23 and len(g[1]) == 71
    assert G.balance(g)[0] and W.triangle_free(g)


def test_modular_rank_and_sparse_gram():
    assert G.rank_mod(G.adjacency(K2), 2) == 2
    assert G.rank_mod(G.adjacency(W.path_graph("++")), 3) == 2
    # a connected balanced graph has a singular Laplacian of rank p - 1
    assert G.rank_mod(G.laplacian(W.TINY), 4) == 3
    assert G.rank_mod(G.laplacian(C4_ONE_NEGATIVE), 4) == 4
    # one column per edge (u, v, s): +1 at u, -s at v
    h = {}
    for k, (u, v, s) in enumerate(C4_ONE_NEGATIVE[1]):
        h[u - 1, k], h[v - 1, k] = 1, -s
    assert G.gram(h) == G.laplacian(C4_ONE_NEGATIVE)


def test_balance_checker_rejects_a_tampered_witness():
    check = W.balance_check(C4_ONE_NEGATIVE, as_json=False)
    check("balanced: no\nnegative cycle: [1, 2, 3, 4]\n")
    with pytest.raises(W.CheckFailed):
        check("balanced: no\nnegative cycle: [1, 2, 3]\n")  # 3-1 is no edge
    with pytest.raises(W.CheckFailed):
        check("balanced: no\nnegative cycle: [1, 2, 3, 2]\n")
    with pytest.raises(W.CheckFailed):
        check("balanced: yes\nbipartition: [1] | [2, 3, 4]\nswitching to all-positive: [1, -1, -1, -1]\n")


def test_balance_checker_rejects_a_switching_that_leaves_a_negative_edge():
    check = W.balance_check(W.TINY, as_json=False)
    check("balanced: yes\nbipartition: [1, 4] | [2, 3]\nswitching to all-positive: [1, -1, -1, 1]\n")
    with pytest.raises(W.CheckFailed):
        check("balanced: yes\nbipartition: [1, 4] | [2, 3]\nswitching to all-positive: [1, -1, 1, 1]\n")


def test_inertia_checker_rejects_a_flipped_count():
    # K2: A has inertia (1, 1, 0); its Mycielskian is C5, inertia (3, 2, 0);
    # the negative join has determinant 2 and trace 0, so inertia (1, 2, 0).
    outputs = {"input": (1, 1), "mycielskian": (3, 2), "negjoin": (1, 2)}

    def run(flip):
        memo = {}
        for of, (plus, minus) in outputs.items():
            if of == flip:
                plus, minus = minus, plus
            order = {"input": 2, "mycielskian": 5, "negjoin": 3}[of]
            out = f"rank {plus + minus} n_plus {plus} n_minus {minus} n_zero {order - plus - minus}\n"
            W.inertia_check(K2, memo, "k2", of)(out)

    run(flip=None)
    for of in ("mycielskian", "negjoin"):  # flipping (1, 1) changes nothing
        with pytest.raises(W.CheckFailed):
            run(flip=of)


def test_inertia_checker_rejects_a_wrong_rank():
    with pytest.raises(W.CheckFailed):
        W.inertia_check(W.path_graph("++"), {}, "p3", "input")("rank 3 n_plus 2 n_minus 1 n_zero 0\n")


def test_chromatic_checker_rejects_an_improper_witness():
    check = W.chromatic_check(W.cycle_graph("+++++"), {}, "c5", chi=3)
    check("chromatic number: 3\ncolors: [0, 1, 0, 1, -1]\ndeficiency: 0\n")
    with pytest.raises(W.CheckFailed):
        check("chromatic number: 3\ncolors: [0, 1, 0, 1, 0]\ndeficiency: 1\n")  # 5-1 both 0
    with pytest.raises(W.CheckFailed):
        check("chromatic number: 3\ncolors: [0, 1, 0, 1, -1]\ndeficiency: 1\n")


def test_sandwich_forces_the_all_positive_and_all_negative_cases():
    W.check_chi_pair(W.cycle_graph("+++++"), 3, 4)
    with pytest.raises(W.CheckFailed):
        W.check_chi_pair(W.cycle_graph("+++++"), 3, 3)
    with pytest.raises(W.CheckFailed):
        W.check_chi_pair(W.cycle_graph("-----"), 2, 3)
    with pytest.raises(W.CheckFailed):
        W.check_chi_pair(W.cycle_graph("+-+-+"), 3, 5)


def test_mycielskian_checker_rejects_a_wrong_sign():
    want = G.dumps(G.mycielskian(C4_ONE_NEGATIVE))
    check = W.mycielskian_check(C4_ONE_NEGATIVE, balanced_variant=False, as_json=False)
    check(want)
    with pytest.raises(W.CheckFailed):
        check(want.replace("-1", "+1", 1))


def test_balanced_mycielskian_checker_needs_balance():
    check = W.mycielskian_check(W.TINY, balanced_variant=True, as_json=False)
    check(G.dumps(G.balanced_mycielskian(W.TINY)))
    with pytest.raises(W.CheckFailed):
        check(G.dumps(G.mycielskian(W.TINY)))  # root star left positive: a negative 5-cycle


def run_main(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        rc = sys.modules["sgmyc.cli"].main(argv)
    return rc, out.getvalue()


def test_audit_checker_accepts_the_program_and_rejects_a_tampered_witness(tmp_path):
    import sgmyc.cli  # noqa: F401

    path = W.Inputs(str(tmp_path)).write("c4", C4_ONE_NEGATIVE)
    rc, out = run_main(["audit", path])
    check = W.audit_check(C4_ONE_NEGATIVE, balanced=False, chi=G.brute_chromatic(C4_ONE_NEGATIVE))
    assert rc == 0
    check(out)
    # the 5-cycle witness runs through the first negative edge 1-2; swap in a vertex off it
    tampered = out.replace("negative 5-cycle [1, 2, 5, 9, 6]", "negative 5-cycle [1, 2, 5, 9, 7]")
    assert tampered != out
    with pytest.raises(W.CheckFailed):
        check(tampered)
    with pytest.raises(W.CheckFailed):
        check(out.replace("audit: ok", "audit: FAILED"))


def test_tracer_counts_one_inertia_and_restores_the_modules(tmp_path):
    import sgmyc.cli  # noqa: F401

    cli = sys.modules["sgmyc.cli"]
    original = cli.mycielskian
    path = W.Inputs(str(tmp_path)).write("tiny", W.TINY)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.mycielskian is not original
        run_main(["inertia", "--of", "mycielskian", path])
    finally:
        tracer.uninstall()
    assert cli.mycielskian is original
    metrics = tracer.metrics(1)
    assert metrics["exactla.inertia_calls"]["value"] == 1
    assert metrics["exactla.inertia_n3"]["value"] == 9 ** 3
    assert metrics["core.edges_parsed"]["value"] == 4
    assert metrics["mycielskian.builds"]["value"] == 0
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    assert {name: m["unit"] for name, m in metrics.items()} == declared
