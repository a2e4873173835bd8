"""Every claim check fails on a wrong derived object, wherever it runs.

A test corrupts a Context in one of two ways: it writes a wrong object
into the context's __dict__, where functools.cached_property keeps its
value, or it patches a module function that sgmyc.claims calls through
its module attribute.  The claim that reads the corrupted object must
then fail, while the same claim passes on an untouched context of the
same input.  inertia-additivity gets more corruptions of its factor pair
(P, B), some of which keep P B P^T = A_M, so that each of its checks on
P and on the blocks of B is shown to be needed.
"""

import dataclasses

import pytest

from conftest import K2_NEG, K2_POS, SQUARE_ONE_NEG, SQUARE_TWO_NEG, bump_corner
from sgmyc import claims, coloring, core, matrices, mycielskian
from sgmyc.exactla import IntMatrix, multiply, transpose

# small and degenerate inputs on which every corruption must show
FAULT_GRAPHS = {
    "null": core.canonicalize(0, []),
    "K1": core.canonicalize(1, []),
    "edgeless3": core.canonicalize(3, []),
    "K2+": K2_POS,
    "K2-": K2_NEG,
    "square_one_neg": SQUARE_ONE_NEG,
    "square_two_neg": SQUARE_TWO_NEG,
    "disconnected": core.canonicalize(5, [(1, 2, -1), (3, 4, 1), (4, 5, -1)]),
}

NEGATIVE_TRIANGLE = core.canonicalize(3, [(1, 2, -1), (1, 3, -1), (2, 3, -1)])


def status(ctx, name):
    return claims.check(name, ctx)["status"]


def extra_vertex(ctx, monkeypatch):
    gm, lab = ctx.myc
    ctx.__dict__["myc"] = (core.canonicalize(gm.p + 1, gm.edges), lab)


def wrong_balance(ctx, monkeypatch):
    gm, lab = ctx.myc
    if core.is_all_positive(ctx.g):
        ctx.__dict__["myc"] = (NEGATIVE_TRIANGLE, lab)
    else:
        ctx.__dict__["myc"] = (core.canonicalize(gm.p, [(u, v, 1) for u, v, _ in gm.edges]), lab)


def unbalanced_construction(ctx, monkeypatch):
    monkeypatch.setattr(mycielskian, "balanced_mycielskian", lambda g, cert=None: (NEGATIVE_TRIANGLE, (1, 1, 1)))


def chromatic_two_up_on_mycielskian(ctx, monkeypatch):
    gm, _ = ctx.myc
    exact = coloring.chromatic_number

    def chromatic_number(h, node_budget=None):
        n, cert = exact(h, node_budget=node_budget)
        return (n + 2 if h is gm else n), cert

    monkeypatch.setattr(coloring, "chromatic_number", chromatic_number)


def bumped_factor(ctx, monkeypatch):
    pm, bm = ctx.factors
    ctx.__dict__["factors"] = (pm, bump_corner(bm))


def bumped_laplacian(ctx, monkeypatch):
    ctx.__dict__["laplacian_myc"] = bump_corner(ctx.laplacian_myc)


def flipped_certificate(ctx, monkeypatch):
    ctx.__dict__["cert"] = dataclasses.replace(ctx.cert, balanced=not ctx.cert.balanced)


# one corruption per claim, in report order
CORRUPTIONS = {
    "mycielskian-counts": extra_vertex,
    "mycielskian-degrees": extra_vertex,
    "balance-characterization": wrong_balance,
    "balanced-mycielskian": unbalanced_construction,
    "chromatic-sandwich": chromatic_two_up_on_mycielskian,
    "inertia-additivity": bumped_factor,
    "incidence-laplacian": bumped_laplacian,
    "laplacian-balance": flipped_certificate,
}


def with_entries(m, changes):
    """A copy of the integer matrix m with the entries at the (i, j) keys of changes replaced."""
    rows = [list(row) for row in m.entries]
    for (i, j), x in changes.items():
        rows[i][j] = x
    return IntMatrix.from_rows(rows)


def non_unimodular_factor(ctx, monkeypatch):
    # det P = 2; where vertex 1 has no edge, P B P^T is still A_M
    pm, bm = ctx.factors
    ctx.__dict__["factors"] = (with_entries(pm, {(0, 0): 2}), bm)


def off_diagonal_block(ctx, monkeypatch):
    # original 1 and twin 1 meet in B
    p = ctx.g.p
    pm, bm = ctx.factors
    ctx.__dict__["factors"] = (pm, with_entries(bm, {(0, p): 1, (p, 0): 1}))


def negated_lower_block(ctx, monkeypatch):
    # D N D in place of D (-N) D
    p = ctx.g.p
    pm, bm = ctx.factors
    lower = {(i, j): -bm.entries[i][j] for i in range(p, 2 * p + 1) for j in range(p, 2 * p + 1)}
    ctx.__dict__["factors"] = (pm, with_entries(bm, lower))


def asymmetric_lower_block(ctx, monkeypatch):
    # twin 1 meets the next twin, or the root, in one direction only, so B
    # is not symmetric and its lower block is not the negative join of -G
    p = ctx.g.p
    pm, bm = ctx.factors
    ctx.__dict__["factors"] = (pm, with_entries(bm, {(p, p + 1): bm.entries[p][p + 1] + 1}))


# corruptions of the factor pair beyond bumped_factor, each on the inputs
# with p >= 1: the null graph has no twin, so its B is the 1 x 1 lower block
INERTIA_CORRUPTIONS = {
    "non_unimodular_factor": non_unimodular_factor,
    "off_diagonal_block": off_diagonal_block,
    "negated_lower_block": negated_lower_block,
    "asymmetric_lower_block": asymmetric_lower_block,
}


def test_every_claim_has_a_corruption():
    assert list(CORRUPTIONS) == list(claims.CLAIMS)


@pytest.mark.parametrize("graph", sorted(FAULT_GRAPHS))
@pytest.mark.parametrize("name", list(CORRUPTIONS))
def test_corruption_fails_wherever_the_claim_runs(monkeypatch, name, graph):
    g = FAULT_GRAPHS[graph]
    clean = status(claims.Context(g), name)
    assert clean in ("pass", "skipped")
    if clean == "skipped":
        return
    ctx = claims.Context(g)
    CORRUPTIONS[name](ctx, monkeypatch)
    assert status(ctx, name) == "fail"


@pytest.mark.parametrize("graph", sorted(set(FAULT_GRAPHS) - {"null"}))
@pytest.mark.parametrize("corruption", list(INERTIA_CORRUPTIONS))
def test_factor_corruption_fails_inertia_additivity(monkeypatch, corruption, graph):
    ctx = claims.Context(FAULT_GRAPHS[graph])
    assert status(ctx, "inertia-additivity") == "pass"
    ctx = claims.Context(FAULT_GRAPHS[graph])
    INERTIA_CORRUPTIONS[corruption](ctx, monkeypatch)
    assert status(ctx, "inertia-additivity") == "fail"


def congruent_pair(pm, bm, i, j):
    """(P E, E^-1 B E^-T) for E = I + e_ij with i > j.

    The product P B P^T is unchanged, and P E is still lower triangular
    with +-1 on its diagonal.
    """
    p_rows = [list(row) for row in pm.entries]
    for row in p_rows:
        row[j] += row[i]
    b = [list(row) for row in bm.entries]
    b[i] = [x - y for x, y in zip(b[i], b[j])]
    for row in b:
        row[i] -= row[j]
    return IntMatrix.from_rows(p_rows), IntMatrix.from_rows(b)


# the pair (i, j) of congruent_pair that reshapes each block of B, for p >= 2
RESHAPING_PIVOTS = {
    "top": lambda p: (1, 0),
    "off-diagonal": lambda p: (p, 0),
    "lower": lambda p: (2 * p, p),
}


@pytest.mark.parametrize("g", [K2_NEG, SQUARE_ONE_NEG, SQUARE_TWO_NEG], ids=["K2-", "square1", "square2"])
@pytest.mark.parametrize("block", list(RESHAPING_PIVOTS))
def test_each_block_check_rejects_another_factorization_of_a_m(g, block):
    # the product and the inertia sum hold, so only the block check can fail it
    ctx = claims.Context(g)
    pm, bm = ctx.factors
    pm2, bm2 = congruent_pair(pm, bm, *RESHAPING_PIVOTS[block](g.p))
    assert bm2 != bm
    assert multiply(multiply(pm2, bm2), transpose(pm2)) == ctx.adjacency_myc
    ctx.__dict__["factors"] = (pm2, bm2)
    assert status(ctx, "inertia-additivity") == "fail"


@pytest.mark.parametrize("graph", ["null", "K1", "edgeless3"])
def test_non_unimodular_factor_keeps_the_product_without_edges(monkeypatch, graph):
    # so only the unimodularity check can fail it there
    ctx = claims.Context(FAULT_GRAPHS[graph])
    non_unimodular_factor(ctx, monkeypatch)
    pm, bm = ctx.factors
    assert multiply(multiply(pm, bm), transpose(pm)) == ctx.adjacency_myc
    assert status(ctx, "inertia-additivity") == "fail"


def flipped_cross_edge(ctx):
    """Write into ctx.myc the Mycielskian with its first cross edge v_u u_v negated."""
    gm, lab = ctx.myc
    p = ctx.g.p
    k = next(i for i, (u, v, _) in enumerate(gm.edges) if u <= p < v <= 2 * p)
    edges = [(u, v, -s if i == k else s) for i, (u, v, s) in enumerate(gm.edges)]
    ctx.__dict__["myc"] = (core.canonicalize(gm.p, edges), lab)


@pytest.mark.parametrize("graph", sorted(name for name, g in FAULT_GRAPHS.items() if g.q > 0))
@pytest.mark.parametrize("name", ["inertia-additivity", "incidence-laplacian"])
def test_matrix_claims_read_the_constructed_mycielskian(name, graph):
    # each block formula is built from G, so only the comparison with the
    # matrices of the constructed graph can catch a wrong construction
    g = FAULT_GRAPHS[graph]
    assert status(claims.Context(g), name) == "pass"
    ctx = claims.Context(g)
    flipped_cross_edge(ctx)
    assert status(ctx, name) == "fail"


@pytest.mark.parametrize("g", [K2_POS, SQUARE_ONE_NEG, SQUARE_TWO_NEG], ids=["K2+", "square1", "square2"])
def test_degrees_fail_when_a_root_edge_is_negated(g):
    gm, lab = mycielskian.mycielskian(g)
    flipped = next(i for i, (u, v, _) in enumerate(gm.edges) if lab.root in (u, v))
    edges = [(u, v, -s if i == flipped else s) for i, (u, v, s) in enumerate(gm.edges)]
    wrong = core.canonicalize(gm.p, edges)
    # unsigned degrees stay, so only the net degrees can tell
    assert core.degrees(wrong).degree == core.degrees(gm).degree
    ctx = claims.Context(g)
    assert status(ctx, "mycielskian-degrees") == "pass"
    ctx.__dict__["myc"] = (wrong, lab)
    assert status(ctx, "mycielskian-degrees") == "fail"


def test_laplacian_balance_fails_on_the_schur_pair_of_another_graph():
    g = SQUARE_ONE_NEG  # connected and unbalanced
    positive = core.canonicalize(g.p, [(u, v, 1) for u, v, _ in g.edges])
    ctx = claims.Context(g)
    assert status(ctx, "laplacian-balance") == "pass"
    ctx = claims.Context(g)
    ctx.__dict__["schur_myc"] = matrices.laplacian_mycielskian_schur(positive)
    assert status(ctx, "laplacian-balance") == "fail"
