"""Every claim check fails on a wrong derived object, wherever it runs.

A test corrupts a Context in one of two ways: it writes a wrong object
into the context's __dict__, where functools.cached_property keeps its
value, or it patches a module function that sgmyc.claims calls through
its module attribute.  The claim that reads the corrupted object must
then fail, while the same claim passes on an untouched context of the
same input.  inertia-additivity gets more corruptions of A_M and of the
two blocks whose sum P A_M P^T must equal, some of which keep every
inertia, so that only the comparison itself can fail them.
"""

import dataclasses

import pytest

from conftest import K2_NEG, K2_POS, SQUARE_ONE_NEG, SQUARE_TWO_NEG, bump_corner
import oracles
from sgmyc import claims, coloring, core, matrices, mycielskian

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
        # a proper coloring over M_n is one over M_(n+2), so only the range fails
        return (n + 2, dataclasses.replace(cert, n=n + 2)) if h is gm else (n, cert)

    monkeypatch.setattr(coloring, "chromatic_number", chromatic_number)


def bumped_factor(ctx, monkeypatch):
    # the lower block of the factor B
    ctx.__dict__["lower_block"] = bump_corner(ctx.lower_block)


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
    return oracles.from_rows(rows)


def off_diagonal_block(ctx, monkeypatch):
    # A_M = P B' P^T, where original 1 and twin 1 meet in B'
    p = ctx.g.p
    pm, bm = oracles.paper_factors(ctx.g)
    bm[0][p] = bm[p][0] = 1
    ctx.__dict__["adjacency_myc"] = oracles.from_rows(oracles.congruence_product(pm, bm))


def negated_lower_block(ctx, monkeypatch):
    # D N D in place of D (-N) D
    ctx.__dict__["lower_block"] = oracles.from_rows([[-x for x in row] for row in ctx.lower_block.entries])


def asymmetric_lower_block(ctx, monkeypatch):
    # twin 1 meets the next twin, or the root, in one direction only, so the
    # lower block is not symmetric and not the negative join of -G
    lower = ctx.lower_block
    ctx.__dict__["lower_block"] = with_entries(lower, {(0, 1): lower.entries[0][1] + 1})


def bumped_adjacency(ctx, monkeypatch):
    ctx.__dict__["adjacency"] = bump_corner(ctx.adjacency)


# corruptions beyond bumped_factor, each on the inputs with p >= 1: the
# null graph has neither a twin nor an adjacency entry
INERTIA_CORRUPTIONS = {
    "off_diagonal_block": off_diagonal_block,
    "negated_lower_block": negated_lower_block,
    "asymmetric_lower_block": asymmetric_lower_block,
    "bumped_adjacency": bumped_adjacency,
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


def input_as_mycielskian(ctx, monkeypatch):
    ctx.__dict__["myc"] = (ctx.g, ctx.myc[1])


@pytest.mark.parametrize("graph", sorted(FAULT_GRAPHS))
@pytest.mark.parametrize("corruption", [extra_vertex, input_as_mycielskian], ids=["2p+2", "p"])
def test_a_mycielskian_of_another_order_fails_inertia_additivity(monkeypatch, corruption, graph):
    ctx = claims.Context(FAULT_GRAPHS[graph])
    corruption(ctx, monkeypatch)
    assert status(ctx, "inertia-additivity") == "fail"


def congruent_block(m, i, j):
    """E^-1 m E^-T for E = I + e_ij with i > j: row i, then column i, less row and column j."""
    rows = [list(row) for row in m.entries]
    rows[i] = [x - y for x, y in zip(rows[i], rows[j])]
    for row in rows:
        row[i] -= row[j]
    return oracles.from_rows(rows)


# the block of B that a congruence reshapes, and its pair (i, j), for p >= 2
RESHAPING_PIVOTS = {
    "top": ("adjacency", lambda p: (1, 0)),
    "lower": ("lower_block", lambda p: (p, 0)),
}


@pytest.mark.parametrize("g", [K2_NEG, SQUARE_ONE_NEG, SQUARE_TWO_NEG], ids=["K2-", "square1", "square2"])
@pytest.mark.parametrize("block", list(RESHAPING_PIVOTS))
def test_each_block_check_rejects_another_factorization_of_a_m(g, block):
    # A_M = (P E) B2 (P E)^T, with B2 the block sum of one block congruent
    # to its own and the other; every inertia still holds, so only the
    # comparison of P A_M P^T with the blocks can fail it
    ctx = claims.Context(g)
    name, pivot = RESHAPING_PIVOTS[block]
    before = ctx.inertias
    reshaped = congruent_block(getattr(ctx, name), *pivot(g.p))
    assert reshaped != getattr(ctx, name)
    ctx.__dict__[name] = reshaped
    del ctx.__dict__["inertias"]
    assert ctx.inertias == before
    assert status(ctx, "inertia-additivity") == "fail"


def flipped_cross_edge(ctx):
    """Write into ctx.myc the Mycielskian with its first cross edge v_u u_v negated."""
    gm, lab = ctx.myc
    p = ctx.g.p
    k = next(i for i, (u, v, _) in enumerate(gm.edges) if u <= p < v <= 2 * p)
    edges = [(u, v, -s if i == k else s) for i, (u, v, s) in enumerate(gm.edges)]
    ctx.__dict__["myc"] = (core.canonicalize(gm.p, edges), lab)


@pytest.mark.parametrize("graph", sorted(name for name, g in FAULT_GRAPHS.items() if not core.is_all_positive(g)))
def test_a_witness_that_is_no_cycle_of_m_fails_balance_characterization(graph):
    # the cross edge v u_u of the first negative edge uv is on the witness
    # v_u v_v u_u w u_v, so without it the witness is no cycle of M
    g = FAULT_GRAPHS[graph]
    assert status(claims.Context(g), "balance-characterization") == "pass"
    ctx = claims.Context(g)
    gm, lab = ctx.myc
    u, v = next((u, v) for u, v, s in g.edges if s == -1)
    cross = tuple(sorted((lab.original(v), lab.twin(u))))
    ctx.__dict__["myc"] = (core.canonicalize(gm.p, [e for e in gm.edges if e[:2] != cross]), lab)
    assert status(ctx, "balance-characterization") == "fail"


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


@pytest.mark.parametrize("graph", sorted(name for name, g in FAULT_GRAPHS.items() if g.q > 0))
def test_a_sign_flip_in_the_block_formula_fails_incidence_laplacian(monkeypatch, graph):
    # H_M is printed from, and H_M H_M^T summed from, one column list, so a
    # wrong sign in it changes both, and only L_M of the built graph catches it
    g = FAULT_GRAPHS[graph]
    assert status(claims.Context(g), "incidence-laplacian") == "pass"
    before = matrices.incidence_mycielskian(g)
    exact = matrices._mycielskian_columns

    def flipped(h):
        columns = exact(h)
        # e_1'' is -s at v_1 and +1 at twin u_1; negate the twin's entry
        v, (twin, x) = columns[h.q + 1]
        columns[h.q + 1] = (v, (twin, -x))
        return columns

    monkeypatch.setattr(matrices, "_mycielskian_columns", flipped)
    assert matrices.incidence_mycielskian(g) != before
    assert status(claims.Context(g), "incidence-laplacian") == "fail"


@pytest.mark.parametrize("g", [K2_POS, SQUARE_ONE_NEG, SQUARE_TWO_NEG], ids=["K2+", "square1", "square2"])
def test_degrees_fail_when_a_root_edge_is_negated(g):
    gm, lab = mycielskian.mycielskian(g)
    flipped = next(i for i, (u, v, _) in enumerate(gm.edges) if lab.root in (u, v))
    edges = [(u, v, -s if i == flipped else s) for i, (u, v, s) in enumerate(gm.edges)]
    wrong = core.canonicalize(gm.p, edges)
    # unsigned degrees stay, so only the net degrees can tell
    assert [row[0] for row in core.degrees(wrong)] == [row[0] for row in core.degrees(gm)]
    ctx = claims.Context(g)
    assert status(ctx, "mycielskian-degrees") == "pass"
    ctx.__dict__["myc"] = (wrong, lab)
    assert status(ctx, "mycielskian-degrees") == "fail"


def test_laplacian_balance_fails_on_the_mycielskian_laplacian_of_another_graph():
    # L_M of the all-positive twin graph is singular, and the gram of G's
    # columns is not it, so no frame determinant can hide the wrong verdict
    g = SQUARE_ONE_NEG  # connected and unbalanced
    positive = core.canonicalize(g.p, [(u, v, 1) for u, v, _ in g.edges])
    ctx = claims.Context(g)
    assert status(ctx, "laplacian-balance") == "pass"
    ctx = claims.Context(g)
    ctx.__dict__["laplacian_myc"] = matrices.laplacian(mycielskian.mycielskian(positive)[0])
    assert status(ctx, "laplacian-balance") == "fail"
