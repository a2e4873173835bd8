"""Every claim check fails on a wrong derived object, wherever it runs.

A test corrupts a Context in one of two ways: it writes a wrong object
into the context's __dict__, where functools.cached_property keeps its
value, or it patches a module function that sgmyc.claims calls through
its module attribute.  The claim that reads the corrupted object must
then fail, while the same claim passes on an untouched context of the
same input.
"""

import dataclasses

import pytest

from conftest import K2_NEG, K2_POS, SQUARE_ONE_NEG, SQUARE_TWO_NEG, bump_corner
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
    monkeypatch.setattr(mycielskian, "balanced_mycielskian", lambda g: (NEGATIVE_TRIANGLE, (1, 1, 1)))


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
