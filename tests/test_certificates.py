"""The audit's matrix verdicts rest on certificates, with the exact kernel behind them.

inertia-additivity derives inertia(A_M) from the congruence it checks
by row operations on A_M, building no factor of order 2p + 1,
incidence-laplacian builds no matrix wider than 2p + 1,
and laplacian-balance proves a Laplacian singular by a kernel vector or
nonsingular by a determinant mod a prime, falling back to the exact
inertia otherwise.  These tests hold the certified answers to the
exact ones, force the fallback, feed wrong certificates, and count the
eliminations one audit runs.
"""

import contextlib
import inspect
import io
import random

import pytest
from hypothesis import example, given, settings

import oracles
from conftest import K2_NEG, SQUARE_ONE_NEG, SQUARE_TWO_NEG
from strategies import signed_graphs
from sgmyc import balance, claims, cli, core, exactla, matrices, mycielskian

CYCLE5_POS = core.canonicalize(5, [(i, i % 5 + 1, 1) for i in range(1, 6)])
SQUARE_POS = core.canonicalize(4, [(u, v, 1) for u, v, _ in SQUARE_ONE_NEG.edges])


def status(ctx, name):
    return claims.check(name, ctx)["status"]


@settings(max_examples=150)
@given(signed_graphs(min_p=0, max_p=9))
@example(core.canonicalize(0, []))
@example(core.canonicalize(1, []))
@example(core.canonicalize(5, []))
@example(CYCLE5_POS)
def test_certified_verdicts_equal_the_exact_kernel(g):
    lap = matrices.laplacian(g)
    zeta = balance.certify_balance(g).to_all_positive
    exact = oracles.gaussian_rank(lap.entries) < g.p
    assert exactla.is_singular(lap, zeta) == exactla.is_singular(lap) == exact
    scaled = matrices.laplacian_mycielskian_schur(g)
    exact_m = oracles.gaussian_rank(scaled.entries) < g.p + 1
    assert exactla.is_singular(scaled, (1,) * (g.p + 1)) == exactla.is_singular(scaled) == exact_m


GRAPHS = {"K2-": K2_NEG, "square1": SQUARE_ONE_NEG, "square2": SQUARE_TWO_NEG, "square+": SQUARE_POS, "C5+": CYCLE5_POS}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_a_zero_modular_determinant_falls_back_to_the_exact_kernel(monkeypatch, name):
    g = GRAPHS[name]
    lap, scaled = matrices.laplacian(g), matrices.laplacian_mycielskian_schur(g)
    # Fraction elimination, not the Bareiss step the fallback itself runs
    exact = (oracles.gaussian_rank(lap.entries) < g.p, oracles.gaussian_rank(scaled.entries) < g.p + 1)
    runs = []
    inertia = exactla.inertia

    def recording(a):
        runs.append(a.rows)
        return inertia(a)

    monkeypatch.setattr(exactla, "_det_mod", lambda a: 0)
    monkeypatch.setattr(exactla, "inertia", recording)
    # no kernel vector offered, so only the fallback can decide
    got = (exactla.is_singular(lap), exactla.is_singular(scaled))
    assert got == exact
    assert runs == [g.p, g.p + 1]
    assert status(claims.Context(g), "laplacian-balance") == "pass"


@pytest.mark.parametrize("name", sorted(GRAPHS))
@pytest.mark.parametrize("zeta", ["ones", "flipped", "zero", "short"])
def test_any_switching_in_the_certificate_gives_the_exact_verdict(name, zeta):
    g = GRAPHS[name]
    ctx = claims.Context(g)
    true = ctx.cert.to_all_positive or (1,) * g.p
    wrong = {
        "ones": (1,) * g.p,
        "flipped": (-true[0],) + tuple(true[1:]),
        "zero": (0,) * g.p,
        "short": (1,) * (g.p - 1),
    }[zeta]
    ctx.__dict__["cert"] = balance.BalanceCertificate(ctx.cert.balanced, None, wrong, None)
    assert status(ctx, "laplacian-balance") == "pass"


@settings(max_examples=100)
@given(signed_graphs(min_p=0, max_p=7))
@example(core.canonicalize(0, []))
@example(core.canonicalize(3, []))
def test_derived_inertia_of_a_m_equals_its_full_elimination(g):
    ctx = claims.Context(g)
    assert status(ctx, "inertia-additivity") == "pass"
    in_am, _, _ = ctx.inertias
    am = matrices.adjacency(mycielskian.mycielskian(g)[0])
    assert in_am == exactla.inertia(am)
    assert in_am == exactla.Inertia(*oracles.congruence_inertia([list(row) for row in am.entries]))


def connected_graph(p, seed, sign):
    """A spanning path plus p random chords; sign(rng) draws each edge sign."""
    rng = random.Random(seed)
    pairs = {(v, v + 1) for v in range(1, p)}
    while len(pairs) < 2 * p - 1:
        pairs.add(tuple(sorted(rng.sample(range(1, p + 1), 2))))
    return core.canonicalize(p, [(u, v, sign(rng)) for u, v in sorted(pairs)])


def elimination_budget_inputs(p=48):
    unbalanced = connected_graph(p, 1, lambda rng: rng.choice((1, -1)))
    positive = connected_graph(p, 2, lambda rng: 1)
    rng = random.Random(3)
    switching = tuple(rng.choice((1, -1)) for _ in range(p))
    return {"unbalanced": unbalanced, "all-positive": positive, "balanced": core.switch(positive, switching)}


@pytest.mark.parametrize("kind", ["unbalanced", "balanced", "all-positive"])
def test_audit_eliminates_no_matrix_of_the_mycielskian_order(monkeypatch, tmp_path, kind):
    g = elimination_budget_inputs()[kind]
    assert core.is_connected(g)
    assert balance.certify_balance(g).balanced == (kind != "unbalanced")
    assert core.is_all_positive(g) == (kind == "all-positive")
    orders, dets = [], []
    inertia, det_mod = exactla.inertia, exactla._det_mod

    def counted_inertia(a):
        orders.append(a.rows)
        return inertia(a)

    def counted_det_mod(a):
        dets.append(det_mod(a))
        return dets[-1]

    monkeypatch.setattr(exactla, "inertia", counted_inertia)
    monkeypatch.setattr(exactla, "_det_mod", counted_det_mod)
    path = tmp_path / "g.txt"
    path.write_text(core.dumps(g))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["audit", str(path), "--budget", "10"])
    assert code == 0 and out.getvalue().endswith("audit: ok\n")
    # inertia(A) and inertia of the lower block, nothing of order 2p + 1,
    # and no exact fallback of is_singular, which would be a third call
    assert sorted(orders) == [g.p, g.p + 1]
    # unbalanced: L and S by determinant; balanced: S only; all-positive: neither
    assert len(dets) == {"unbalanced": 2, "balanced": 1, "all-positive": 0}[kind]
    assert all(dets)


def test_audit_builds_no_dense_factor(monkeypatch, tmp_path):
    # of order 2p + 1, only the matrices of the constructed Mycielskian and
    # H_M H_M^T, summed from the columns of H_M, are built; H_M itself,
    # 3q + p columns wide, is not
    built = []

    def recording(name, build):
        def wrapped(*args):
            result = build(*args)
            built.extend((name, m.rows, m.cols) for m in (result if isinstance(result, tuple) else (result,)))
            return result

        return wrapped

    for name, fn in list(vars(matrices).items()):
        if inspect.isfunction(fn) and fn.__module__ == matrices.__name__ and not name.startswith("_"):
            monkeypatch.setattr(matrices, name, recording(name, fn))
    for kind, g in elimination_budget_inputs().items():
        built.clear()
        path = tmp_path / f"{kind}.txt"
        path.write_text(core.dumps(g))
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(["audit", str(path), "--budget", "10"])
        assert code == 0 and out.getvalue().endswith("audit: ok\n")
        assert max(cols for _, _, cols in built) == 2 * g.p + 1, kind
        assert "incidence_mycielskian" not in {name for name, _, _ in built}, kind
        large = {name for name, rows, _ in built if rows >= 2 * g.p + 1}
        assert "adjacency" in large and large <= {"adjacency", "laplacian", "incidence_mycielskian_gram"}, (kind, large)
