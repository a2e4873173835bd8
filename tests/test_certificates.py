"""The audit's matrix verdicts rest on certificates, with the exact kernel behind them.

inertia-additivity derives inertia(A_M) from the congruence it checks
by row operations on A_M, building no factor of order 2p + 1,
incidence-laplacian builds no matrix wider than 2p + 1,
and laplacian-balance proves a Laplacian singular by a kernel vector or
nonsingular by the determinant of its incidence on a frame basis,
falling back to the exact inertia otherwise.  These tests hold the
certified answers to the exact ones, force the fallback, feed wrong
certificates and column lists, and count the eliminations one audit
runs.
"""

import contextlib
import dataclasses
import inspect
import io
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def halves(g):
    """(rows, columns, Laplacian) of G and of M: H on the first q columns of H_M, and H_M."""
    columns = matrices._mycielskian_columns(g)
    lm = matrices.laplacian(mycielskian.mycielskian(g)[0])
    return (g.p, columns[: g.q], matrices.laplacian(g)), (2 * g.p + 1, columns, lm)


@settings(max_examples=150)
@given(signed_graphs(min_p=0, max_p=9, connected=True))
@example(core.canonicalize(0, []))
@example(core.canonicalize(1, []))
@example(CYCLE5_POS)
def test_frame_determinant_is_nonzero_exactly_on_a_full_rank_laplacian(g):
    for n, columns, lap in halves(g):
        assert matrices._gram(n, columns) == lap
        assert bool(claims._frame_det(n, columns)) == (oracles.gaussian_rank(lap.entries) == n)


@st.composite
def unicyclic_columns(draw, max_n=7):
    """n columns on n rows, a random tree and one more column, with nonzero entries, in random order."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    rows = draw(st.permutations(range(n)))
    pairs = [(rows[draw(st.integers(min_value=0, max_value=t - 1))], rows[t]) for t in range(1, n)]
    pairs.append(tuple(draw(st.permutations(range(n)))[:2]))
    entry = st.integers(min_value=-3, max_value=3).filter(bool)
    return n, draw(st.permutations([((a, draw(entry)), (b, draw(entry))) for a, b in pairs]))


def dense(n, columns):
    h = [[0] * len(columns) for _ in range(n)]
    for k, ((a, x), (b, y)) in enumerate(columns):
        h[a][k], h[b][k] = x, y
    return h


@settings(max_examples=300)
@given(unicyclic_columns())
def test_frame_determinant_is_the_determinant_of_its_columns(case):
    # the columns are the whole basis, so the elimination must return
    # their determinant, up to sign, whenever the cycle is negative by the
    # signs of the entries, which the same columns with entries +-1 show
    n, columns = case
    signs = [((a, x // abs(x)), (b, y // abs(y))) for (a, x), (b, y) in columns]
    negative = oracles.laplace_determinant(dense(n, signs)) != 0
    det = oracles.laplace_determinant(dense(n, columns))
    assert abs(claims._frame_det(n, columns)) == (abs(det) if negative else 0)


def test_a_tree_that_misses_a_row_gives_no_frame_determinant():
    # a negative triangle on rows 0-2 is nonsingular there, but row 3 has no nonzero
    triangle = [((0, 1), (1, 1)), ((0, 1), (2, 1)), ((1, 1), (2, 1))]
    assert abs(claims._frame_det(3, triangle)) == 2
    assert claims._frame_det(4, triangle) == 0


GRAPHS = {"K2-": K2_NEG, "square1": SQUARE_ONE_NEG, "square2": SQUARE_TWO_NEG, "square+": SQUARE_POS, "C5+": CYCLE5_POS}


def recording_inertia(monkeypatch):
    """The orders of the matrices exactla.inertia eliminates from now on.

    A bordered call is recorded as ("bordered", order of a).
    """
    orders, inertia = [], exactla.inertia

    def recording(a, border=None):
        orders.append(a.rows if border is None else ("bordered", a.rows))
        return inertia(a, border)

    monkeypatch.setattr(exactla, "inertia", recording)
    return orders


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_a_zero_frame_determinant_falls_back_to_the_exact_kernel(monkeypatch, name):
    g = GRAPHS[name]
    monkeypatch.setattr(claims, "_frame_det", lambda n, columns: 0)
    orders = recording_inertia(monkeypatch)
    assert status(claims.Context(g), "laplacian-balance") == "pass"
    # only a nonsingular Laplacian, L of unbalanced G or L_M of G with a
    # negative edge, has no kernel vector to offer
    exact = [n for n, _, lap in halves(g) if oracles.gaussian_rank(lap.entries) == n]
    assert orders == exact == {"K2-": [5], "square1": [4, 9], "square2": [9]}.get(name, [])


def test_a_positive_closing_column_gives_no_certificate(monkeypatch):
    # the 4-cycle's one non-tree column closes a positive cycle, so only a
    # kernel vector or the inertia can settle L, and a wrong switching
    # leaves it to the inertia
    columns = matrices._mycielskian_columns(SQUARE_POS)[:4]
    assert claims._frame_det(4, columns) == 0
    ctx = claims.Context(SQUARE_POS)
    ctx.__dict__["cert"] = dataclasses.replace(ctx.cert, to_all_positive=(-1, 1, 1, 1))
    orders = recording_inertia(monkeypatch)
    assert status(ctx, "laplacian-balance") == "pass"
    assert orders == [4]


def test_a_sign_flip_in_the_columns_fails_the_gram_check(monkeypatch):
    # K4 with one negative edge, its last column's entry at row 4 negated:
    # still unbalanced, so the frame determinant stays nonzero, but H H^T
    # is no longer L, and L_M likewise, so the inertia decides both
    g = core.canonicalize(4, [(1, 2, -1), (1, 3, 1), (1, 4, 1), (2, 3, 1), (2, 4, 1), (3, 4, 1)])
    exact = matrices._mycielskian_columns

    def flipped(h):
        columns = exact(h)
        a, (b, y) = columns[h.q - 1]
        columns[h.q - 1] = (a, (b, -y))
        return columns

    monkeypatch.setattr(matrices, "_mycielskian_columns", flipped)
    columns = matrices._mycielskian_columns(g)
    assert claims._frame_det(4, columns[: g.q]) and claims._frame_det(9, columns)
    orders = recording_inertia(monkeypatch)
    ctx = claims.Context(g)
    assert status(ctx, "laplacian-balance") == "pass"
    assert sorted(orders) == [4, 9]
    assert status(ctx, "incidence-laplacian") == "fail"


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
    orders = recording_inertia(monkeypatch)
    frames, kernels = {}, []
    frame_det, is_singular = claims._frame_det, exactla.is_singular

    def counted_frame_det(n, columns):
        frames[n] = frame_det(n, columns)
        return frames[n]

    def counted_is_singular(a, kernel=None):
        kernels.append(a.rows)
        return is_singular(a, kernel)

    monkeypatch.setattr(claims, "_frame_det", counted_frame_det)
    monkeypatch.setattr(exactla, "is_singular", counted_is_singular)
    path = tmp_path / "g.txt"
    path.write_text(core.dumps(g))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["audit", str(path), "--budget", "10"])
    assert code == 0 and out.getvalue().endswith("audit: ok\n")
    # inertia(A) and inertia of the lower block from one elimination of A
    # bordered, nothing of order 2p + 1, and no exact fallback of
    # is_singular, which would be a second call
    assert orders == [("bordered", g.p)]
    # the proof each half took: a nonzero frame determinant, or a kernel
    # vector that is_singular checks
    route = {n: "kernel" if n in kernels else "frame" for n in (g.p, 2 * g.p + 1)}
    assert all(frames[n] for n in route if route[n] == "frame")
    assert (route[g.p], route[2 * g.p + 1]) == {
        "unbalanced": ("frame", "frame"),
        "balanced": ("kernel", "frame"),
        "all-positive": ("kernel", "kernel"),
    }[kind]


def recording_builders(monkeypatch):
    """(name, rows, cols) of each matrix the public matrices builders return from now on."""
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
    return built


def test_audit_builds_no_dense_factor(monkeypatch, tmp_path):
    # of order 2p + 1, only the matrices of the constructed Mycielskian are
    # built; H_M H_M^T is summed from the columns of H_M, and H_M itself,
    # 3q + p columns wide, is not built
    built = recording_builders(monkeypatch)
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
        assert "adjacency" in large and large <= {"adjacency", "laplacian"}, (kind, large)


@pytest.mark.parametrize("of", ["mycielskian", "negjoin"])
@pytest.mark.parametrize("kind", ["unbalanced", "balanced", "all-positive"])
def test_inertia_of_a_bordered_matrix_is_one_elimination_of_a(monkeypatch, tmp_path, of, kind):
    # A_M and the negative join are neither built nor eliminated: A is,
    # once, bordered by -j
    g = elimination_budget_inputs(p=12)[kind]
    whole = {
        "mycielskian": matrices.adjacency(mycielskian.mycielskian(g)[0]),
        "negjoin": matrices.negative_join(g),
    }[of]
    expected = oracles.congruence_inertia([list(row) for row in whole.entries])
    orders, built = recording_inertia(monkeypatch), recording_builders(monkeypatch)
    path = tmp_path / "g.txt"
    path.write_text(core.dumps(g))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(["inertia", "--of", of, str(path)])
    assert code == 0
    assert out.getvalue() == "rank {} n_plus {} n_minus {} n_zero {}\n".format(expected[0] + expected[1], *expected)
    assert orders == [("bordered", g.p)]
    assert built == [("adjacency", g.p, g.p)]
