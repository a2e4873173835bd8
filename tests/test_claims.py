"""Claim checks fail on a wrong derived object, not only on their own fault.

Each test replaces one object a Context caches by writing it into the
context's __dict__, where functools.cached_property keeps its value, and
requires the claim that reads it to fail, while the same claim passes on
an untouched context of the same input.
"""

import pytest

from conftest import K2_POS, SQUARE_ONE_NEG, SQUARE_TWO_NEG
from sgmyc import claims, core, matrices, mycielskian


def status(ctx, name):
    return claims.check(name, ctx)["status"]


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
