"""Acceptance gate: eight structural criteria, one verdict line each.

Run with -s to see the verdict lines:

    pytest tests/test_acceptance.py -v -s

Every criterion builds its corpus deterministically, checks exact
(integer or byte) equalities only, and enforces its stated runtime.
Criteria 1, 2, 3, 6 and 7 run the claims of sgmyc.claims, the checks
`sgmyc audit` runs, on every graph of their corpus, and add the
assertions those claims do not make.
"""

import time

import pytest

import oracles
from conftest import (
    SQUARE_ONE_NEG,
    SQUARE_TWO_NEG,
    SQUARE_TWO_NEG_BALANCED_MYC_TEXT,
    SQUARE_TWO_NEG_BALANCED_MYC_ZETA,
    TRIANGLE_TWO_NEG,
    K2_NEG,
    all_sign_patterns,
    cycles_and_paths,
    random_balanced_graphs,
    random_graphs,
)
from sgmyc import claims
from sgmyc.balance import certify_balance, cycle_sign
from sgmyc.coloring import chromatic_number, extend_coloring_to_mycielskian, is_proper
from sgmyc.core import canonicalize, dumps, is_all_negative, loads
from oracles import rank
from sgmyc.exactla import inertia
from sgmyc.matrices import negative_join
from sgmyc.mycielskian import balanced_mycielskian, mycielskian, tower


def report(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def failed_claims(ctx, *names):
    """How many of the named claims do not pass on the context's graph; a skip counts."""
    return sum(1 for name in names if claims.check(name, ctx)["status"] != "pass")


def reference_graphs():
    square_myc, _ = mycielskian(SQUARE_ONE_NEG)
    triangle_myc, _ = mycielskian(TRIANGLE_TWO_NEG)
    return [
        SQUARE_ONE_NEG,
        square_myc,
        SQUARE_TWO_NEG,
        loads(SQUARE_TWO_NEG_BALANCED_MYC_TEXT),
        TRIANGLE_TWO_NEG,
        triangle_myc,
        *tower(4),
    ]


@pytest.fixture(scope="module")
def characterization_corpus():
    """Criterion 2 corpus, reused verbatim by criterion 7."""
    graphs = []
    for base in cycles_and_paths(range(3, 8), range(2, 8)):
        graphs.extend(all_sign_patterns(base))
    graphs.extend(random_graphs(200, 1, 12, seed0=200))
    return graphs


@pytest.fixture(scope="module")
def chrom():
    """Every chromatic solve for criteria 4 and 5, with per-case timings.

    pairs holds each (graph, witness coloring) the solver produced, for
    criterion 8.  times holds (label, seconds) per solve.
    """
    data = {"pairs": [], "times": {}, "named": {}, "sandwich": [], "oracle_hits": 0}

    def solve(label, g):
        t0 = time.perf_counter()
        n, coloring = chromatic_number(g)
        data["times"][label] = time.perf_counter() - t0
        data["pairs"].append((g, n, coloring))
        return n

    named = {
        "K1": canonicalize(1, []),
        "K2-": K2_NEG,
        "Sigma3": tower(3)[2],
        "Sigma4": tower(4)[3],
        "C4-": SQUARE_ONE_NEG,
    }
    for label, g in named.items():
        data["named"][label] = (g, solve(label, g))

    corpus = []
    for base in cycles_and_paths(range(3, 7), ()):
        corpus.extend(all_sign_patterns(base))
    corpus.extend(random_graphs(80, 1, 6, seed0=400))
    for i, g in enumerate(corpus):
        n = solve(f"sandwich-{i}", g)
        gm, _ = mycielskian(g)
        nm = solve(f"sandwich-myc-{i}", gm)
        data["sandwich"].append((g, n, nm))

    for i, g in enumerate(random_graphs(100, 1, 5, seed0=500)):
        n = solve(f"oracle-{i}", g)
        oracle_n, _ = oracles.brute_force_chromatic(g)
        if n == oracle_n:
            data["oracle_hits"] += 1
    return data


def test_criterion_1_counts_and_degrees():
    t0 = time.perf_counter()
    corpus = random_graphs(200, 2, 12, seed0=100) + reference_graphs()
    bad = sum(
        failed_claims(claims.Context(g), "mycielskian-counts", "mycielskian-degrees")
        for g in corpus
    )
    elapsed = time.perf_counter() - t0
    report(
        1,
        bad == 0 and elapsed < 5.0,
        f"counts and degree formulas on {len(corpus)} graphs, "
        f"{bad} violations, {elapsed:.2f}s (limit 5s)",
    )


def test_criterion_2_balance_characterization(characterization_corpus):
    t0 = time.perf_counter()
    bad = 0
    for g in characterization_corpus:
        ctx = claims.Context(g)
        bad += failed_claims(ctx, "balance-characterization")
        # the search's own witness, not only the claim's 5-cycle, is negative
        gm, _ = ctx.myc
        cert = certify_balance(gm)
        if not cert.balanced:
            if cert.witness is None or cycle_sign(gm, cert.witness) != -1:
                bad += 1
    elapsed = time.perf_counter() - t0
    report(
        2,
        bad == 0 and elapsed < 10.0,
        f"balance of the Mycielskian matches positivity on "
        f"{len(characterization_corpus)} graphs (exhaustive C3-C7, P2-P7, "
        f"200 random), {bad} violations, {elapsed:.2f}s (limit 10s)",
    )


def test_criterion_3_balanced_mycielskian():
    t0 = time.perf_counter()
    corpus = random_balanced_graphs(200, 1, 12, seed0=300)
    bad = sum(failed_claims(claims.Context(g), "balanced-mycielskian") for g in corpus)
    gb, zeta_b = balanced_mycielskian(SQUARE_TWO_NEG)
    byte_exact = (
        dumps(gb) == SQUARE_TWO_NEG_BALANCED_MYC_TEXT
        and zeta_b == SQUARE_TWO_NEG_BALANCED_MYC_ZETA
    )
    elapsed = time.perf_counter() - t0
    report(
        3,
        bad == 0 and byte_exact and elapsed < 5.0,
        f"balanced Mycielskian on {len(corpus)} balanced graphs, {bad} violations, "
        f"frozen reference byte-exact: {byte_exact}, {elapsed:.2f}s (limit 5s)",
    )


def test_criterion_4_chromatic_suite(chrom):
    expected = {"K1": 1, "K2-": 2, "Sigma3": 3, "Sigma4": 4, "C4-": 3}
    named_ok = all(chrom["named"][k][1] == v for k, v in expected.items())
    oracle_c4 = oracles.brute_force_chromatic(SQUARE_ONE_NEG)[0] == 3

    sandwich_bad = sum(
        1 for _, n, nm in chrom["sandwich"] if not (n <= nm <= n + 1)
    )
    two_color_bad = sum(
        1 for g, _, nm in chrom["sandwich"] if (nm <= 2) != is_all_negative(g)
    )

    restricted_bad = 0
    restricted_times = []
    small = [g for g, _, _ in chrom["sandwich"] if g.p <= 5]
    for g in small:
        t0 = time.perf_counter()
        restricted = oracles.delete_root(*mycielskian(g))
        ok = chromatic_number(restricted)[0] == chromatic_number(g)[0]
        restricted_times.append(time.perf_counter() - t0)
        if not ok:
            restricted_bad += 1

    sigma4_time = chrom["times"]["Sigma4"]
    small_times = [dt for label, dt in chrom["times"].items() if label != "Sigma4"]
    timing_ok = sigma4_time < 60.0 and max(small_times + restricted_times) < 1.0

    report(
        4,
        named_ok
        and oracle_c4
        and sandwich_bad == 0
        and two_color_bad == 0
        and restricted_bad == 0
        and timing_ok,
        f"named values {'ok' if named_ok else 'WRONG'}, sandwich on "
        f"{len(chrom['sandwich'])} graphs with {sandwich_bad} violations, "
        f"two-colorability iff all-negative with {two_color_bad} violations, "
        f"root-deleted chi on {len(small)} graphs with {restricted_bad} violations, "
        f"Sigma4 {sigma4_time:.2f}s (limit 60s), slowest small case "
        f"{max(small_times + restricted_times):.3f}s (limit 1s)",
    )


def test_criterion_5_solver_oracle_equivalence(chrom):
    hits = chrom["oracle_hits"]
    report(
        5,
        hits == 100,
        f"solver equals brute-force enumeration on {hits}/100 random graphs (p <= 5)",
    )


def test_criterion_6_matrix_theorems():
    t0 = time.perf_counter()
    corpus = random_graphs(200, 1, 10, seed0=600)
    bad = 0
    for g in corpus:
        ctx = claims.Context(g)
        bad += failed_claims(ctx, "inertia-additivity", "incidence-laplacian")
        # nullity, like rank, adds up against the negative join itself
        in_am, in_a, _ = ctx.inertias
        if in_am.n_zero != in_a.n_zero + inertia(negative_join(g)).n_zero:
            bad += 1
        # the claim derives inertia(A_M) from the blocks; eliminate A_M itself too
        if in_am != inertia(ctx.adjacency_myc):
            bad += 1
    elapsed = time.perf_counter() - t0
    report(
        6,
        bad == 0 and elapsed < 30.0,
        f"factorization, rank/signature additivity and incidence/Laplacian "
        f"identities on {len(corpus)} graphs (p <= 10), {bad} violations, "
        f"{elapsed:.2f}s (limit 30s)",
    )


def test_criterion_7_laplacian_singularity(characterization_corpus):
    t0 = time.perf_counter()
    bad = 0
    for g in characterization_corpus:
        ctx = claims.Context(g)
        # the claim: L_M is singular iff g is all-positive
        bad += failed_claims(ctx, "laplacian-balance")
        singular = rank(ctx.laplacian_myc) < 2 * g.p + 1
        gm, _ = ctx.myc
        if singular != certify_balance(gm).balanced:
            bad += 1
    elapsed = time.perf_counter() - t0
    report(
        7,
        bad == 0,
        f"Mycielskian Laplacian singular iff Mycielskian balanced iff input "
        f"all-positive on {len(characterization_corpus)} graphs, {bad} mismatches, "
        f"{elapsed:.2f}s",
    )


def test_criterion_8_extension_construction(chrom):
    bad = 0
    odd_inputs = 0
    for g, n, coloring in chrom["pairs"]:
        ext = extend_coloring_to_mycielskian(g, coloring)
        gm, _ = mycielskian(g)
        allowed = set(oracles.oracle_color_set(n + 1))
        if ext.n != n + 1 or not set(ext.colors) <= allowed:
            bad += 1
            continue
        if not is_proper(gm, ext):
            bad += 1
        if n % 2 == 1:
            odd_inputs += 1
            if 0 in ext.colors:
                bad += 1
    report(
        8,
        bad == 0 and odd_inputs > 0,
        f"extended coloring proper over M_(n+1) for all {len(chrom['pairs'])} "
        f"solver witnesses ({odd_inputs} with the odd-n recoloring rule), "
        f"{bad} violations",
    )
