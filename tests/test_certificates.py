"""The audit's matrix verdicts rest on certificates, and on nothing else.

inertia-additivity derives inertia(A_M) from the congruence it checks
by row operations on A_M, building no factor of order 2p + 1,
incidence-laplacian builds no matrix wider than 2p + 1,
and laplacian-balance checks the one certificate the balance verdict
names: a kernel vector, which claims._singular checks, for a singular
Laplacian, the determinant of its incidence on a frame basis for a
nonsingular one.  These tests hold the certified verdicts to ranks by
Fraction elimination, feed wrong certificates (switchings of zeros or
of the wrong length among them) and column lists, which must fail the
claim with no elimination to rescue it, count the eliminations one
audit runs, and check that it searches no graph for balance whose
balance a checked negative cycle, sign pattern or switching settles.
"""

import contextlib
import dataclasses
import inspect
import io
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import K2_NEG, SQUARE_ONE_NEG, SQUARE_TWO_NEG, bump_corner
from strategies import signed_graphs
from sgmyc import balance, claims, cli, coloring, core, exactla, matrices, mycielskian

CYCLE5_POS = core.canonicalize(5, [(i, i % 5 + 1, 1) for i in range(1, 6)])
SQUARE_POS = core.canonicalize(4, [(u, v, 1) for u, v, _ in SQUARE_ONE_NEG.edges])


def status(ctx, name):
    return claims.check(name, ctx)["status"]


def halves(g):
    """(rows, columns, Laplacian) of G and of M: H on the first q columns of H_M, and H_M."""
    columns = matrices._mycielskian_columns(g)
    lm = matrices.laplacian(mycielskian.mycielskian(g)[0])
    return (g.p, columns[: g.q], matrices.laplacian(g)), (2 * g.p + 1, columns, lm)


@settings(max_examples=150)
@given(signed_graphs(min_p=1, max_p=9, connected=True))
@example(core.canonicalize(1, []))
@example(CYCLE5_POS)
def test_the_certificate_each_verdict_names_checks_and_agrees_with_the_rank(g):
    # L is singular exactly when G is balanced, and L_M exactly when G is
    # all-positive: a kernel vector proves the one, a nonzero frame
    # determinant of an incidence whose gram is the Laplacian the other
    cert = balance.certify_balance(g)
    verdicts = (cert.balanced, core.is_all_positive(g))
    kernels = (cert.to_all_positive, (1,) * (2 * g.p + 1))
    for (n, columns, lap), singular, kernel in zip(halves(g), verdicts, kernels):
        assert singular == (oracles.gaussian_rank(lap.entries) < n)
        if singular:
            assert claims._singular(lap, kernel)
        else:
            assert claims._frame_det(n, columns) and matrices._gram(n, columns) == lap
    assert status(claims.Context(g), "laplacian-balance") == "pass"


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
    """The orders of the matrices exactla.inertia eliminates from now on, and whether each is signed.

    A signed matrix has a zero diagonal and every entry in {-1, 0, 1}: the
    class whose lone rows, leaves and pairs of det -1 the pivots serve.
    """
    orders, signed, inertia = [], [], exactla.inertia

    def recording(a):
        orders.append(a.rows)
        diagonal = {row[i] for i, row in enumerate(a.entries)}
        signed.append(diagonal <= {0} and {x for row in a.entries for x in row} <= {-1, 0, 1})
        return inertia(a)

    monkeypatch.setattr(exactla, "inertia", recording)
    return orders, signed


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_a_zero_frame_determinant_fails_each_nonsingular_verdict(monkeypatch, name):
    g = GRAPHS[name]
    asked = []
    monkeypatch.setattr(claims, "_frame_det", lambda n, columns: asked.append(n) or 0)
    orders, _ = recording_inertia(monkeypatch)
    # only a nonsingular Laplacian, L of unbalanced G or L_M of G with a
    # negative edge, asks for a frame determinant, and nothing rescues it
    nonsingular = [n for n, _, lap in halves(g) if oracles.gaussian_rank(lap.entries) == n]
    assert status(claims.Context(g), "laplacian-balance") == ("fail" if nonsingular else "pass")
    assert asked == nonsingular == {"K2-": [5], "square1": [4, 9], "square2": [9]}.get(name, [])
    assert orders == []


def test_a_positive_closing_column_gives_no_certificate(monkeypatch):
    # the 4-cycle's one non-tree column closes a positive cycle, so only
    # the switching can prove L singular, and a wrong one fails the claim
    columns = matrices._mycielskian_columns(SQUARE_POS)[:4]
    assert claims._frame_det(4, columns) == 0
    ctx = claims.Context(SQUARE_POS)
    ctx.__dict__["cert"] = dataclasses.replace(ctx.cert, to_all_positive=(-1, 1, 1, 1))
    orders, _ = recording_inertia(monkeypatch)
    assert status(ctx, "laplacian-balance") == "fail"
    assert orders == []


def test_a_sign_flip_in_the_columns_fails_the_gram_check(monkeypatch):
    # K4 with one negative edge, its last column's entry at row 4 negated:
    # still unbalanced, so the frame determinant stays nonzero, but H H^T
    # is no longer L, and L_M likewise, so both nonsingular verdicts fail
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
    orders, _ = recording_inertia(monkeypatch)
    ctx = claims.Context(g)
    assert status(ctx, "laplacian-balance") == "fail"
    assert orders == []
    assert status(ctx, "incidence-laplacian") == "fail"


@pytest.mark.parametrize("name", sorted(GRAPHS))
@pytest.mark.parametrize("zeta", ["ones", "flipped", "zero", "short"])
def test_a_switching_in_the_certificate_but_the_true_one_fails_the_claim(monkeypatch, name, zeta):
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
    orders, _ = recording_inertia(monkeypatch)
    # only a balanced verdict names the switching, and on connected G only
    # the true one or its negation is a kernel vector of L
    proves = not ctx.cert.balanced or wrong in (true, tuple(-z for z in true))
    assert status(ctx, "laplacian-balance") == ("pass" if proves else "fail")
    assert orders == []


BALANCED_SQUARE = core.switch(SQUARE_POS, (1, -1, 1, 1))


@pytest.mark.parametrize("kernel", ["zero", "long", "short"])
def test_a_switching_of_zeros_or_the_wrong_length_fails_the_claim(monkeypatch, kernel):
    # a balanced L has no frame determinant, so only its switching proves it
    # singular; zeros, or the switching with one entry more, give 0 on every
    # row of L, yet prove nothing
    ctx = claims.Context(BALANCED_SQUARE)
    zeta = ctx.cert.to_all_positive
    wrong = {"zero": (0,) * 4, "long": zeta + (1,), "short": zeta[:-1]}[kernel]
    ctx.__dict__["cert"] = dataclasses.replace(ctx.cert, to_all_positive=wrong)
    orders, _ = recording_inertia(monkeypatch)
    report = claims.check("laplacian-balance", ctx)
    assert (report["status"], report["detail"]) == ("fail", "the certificate for L does not check")
    assert orders == []


def test_a_kernel_of_zeros_proves_no_nonsingular_laplacian_singular(monkeypatch):
    # a certificate that calls unbalanced G balanced names a switching, and
    # zeros, which every L sends to 0, must not prove the nonsingular L singular
    ctx = claims.Context(SQUARE_ONE_NEG)
    ctx.__dict__["cert"] = dataclasses.replace(ctx.cert, balanced=True, to_all_positive=(0,) * 4)
    orders, _ = recording_inertia(monkeypatch)
    report = claims.check("laplacian-balance", ctx)
    assert (report["status"], report["detail"]) == ("fail", "the certificate for L does not check")
    assert orders == []


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
    orders, signed = recording_inertia(monkeypatch)
    frames, kernels = {}, []
    frame_det, singular = claims._frame_det, claims._singular

    def counted_frame_det(n, columns):
        frames[n] = frame_det(n, columns)
        return frames[n]

    def counted_singular(lap, kernel):
        kernels.append(lap.rows)
        return singular(lap, kernel)

    monkeypatch.setattr(claims, "_frame_det", counted_frame_det)
    monkeypatch.setattr(claims, "_singular", counted_singular)
    path = tmp_path / "g.txt"
    path.write_text(core.dumps(g))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["audit", str(path), "--budget", "10"])
    assert code == 0 and out.getvalue().endswith("audit: ok\n")
    # inertia(A) and inertia of the lower block, both signed, and nothing of order 2p + 1
    assert orders == [g.p, g.p + 1] and signed == [True, True]
    # the one proof each half's verdict names, and no other: a kernel
    # vector that _singular checks, or a nonzero frame determinant
    assert all(frames.values())
    assert (kernels, sorted(frames)) == {
        "unbalanced": ([], [g.p, 2 * g.p + 1]),
        "balanced": ([g.p], [2 * g.p + 1]),
        "all-positive": ([g.p, 2 * g.p + 1], []),
    }[kind]


def recording_searches(monkeypatch):
    """The graphs balance.certify_balance searches, and the last M and G_b built, from now on."""
    searched, built = [], {}
    certify, myc, balanced_myc = balance.certify_balance, mycielskian.mycielskian, mycielskian.balanced_mycielskian

    def recording_certify(h):
        searched.append(h)
        return certify(h)

    def recording(name, build):
        def wrapped(*args):
            built[name] = build(*args)
            return built[name]

        return wrapped

    monkeypatch.setattr(balance, "certify_balance", recording_certify)
    monkeypatch.setattr(mycielskian, "mycielskian", recording("M", myc))
    monkeypatch.setattr(mycielskian, "balanced_mycielskian", recording("G_b", balanced_myc))
    return searched, built


@pytest.mark.parametrize("kind", ["unbalanced", "balanced", "all-positive"])
def test_audit_searches_no_graph_whose_balance_a_checked_certificate_settles(monkeypatch, tmp_path, kind):
    # a checked negative 5-cycle proves M unbalanced, no negative edge makes
    # it all-positive, and a checked switching to all-positive proves the
    # balanced Mycielskian balanced; the budget lets both chromatic searches
    # start, and they find their switchings without a balance certificate,
    # so the audit certifies the balance of G alone, once
    g = elimination_budget_inputs()[kind]
    searched, built = recording_searches(monkeypatch)
    path = tmp_path / "g.txt"
    path.write_text(core.dumps(g))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(["audit", str(path), "--budget", "1000"])
    assert code == 0 and out.getvalue().endswith("audit: ok\n")
    assert searched == [g]
    assert ("G_b" in built) == (kind != "unbalanced")


def broken_switching(change):
    """Hand laplacian-balance, the last claim, the certificate of G with its switching changed."""

    def apply(monkeypatch):
        check = claims.CLAIMS["laplacian-balance"]

        def broken(ctx):
            ctx.__dict__["cert"] = dataclasses.replace(ctx.cert, to_all_positive=change(ctx.cert.to_all_positive))
            return check(ctx)

        monkeypatch.setitem(claims.CLAIMS, "laplacian-balance", broken)

    return apply


def bumped_gram(monkeypatch):
    gram = matrices._gram
    monkeypatch.setattr(matrices, "_gram", lambda n, columns: bump_corner(gram(n, columns)))


BREAKS = {
    "wrong-switching": broken_switching(lambda zeta: (-zeta[0],) + zeta[1:]),
    "zero-switching": broken_switching(lambda zeta: (0,) * len(zeta)),
    "short-switching": broken_switching(lambda zeta: zeta[:-1]),
    "long-switching": broken_switching(lambda zeta: zeta + (1,)),
    "zero-frame-determinant": lambda monkeypatch: monkeypatch.setattr(claims, "_frame_det", lambda n, columns: 0),
    "bumped-gram": bumped_gram,
}


@pytest.mark.parametrize(
    "kind, broken, laplacian",
    [("balanced", name, "L") for name in ("wrong-switching", "zero-switching", "short-switching", "long-switching")]
    + [("balanced", "zero-frame-determinant", "L_M"), ("balanced", "bumped-gram", "L_M")]
    + [("unbalanced", "zero-frame-determinant", "L"), ("unbalanced", "bumped-gram", "L")],
)
def test_audit_fails_a_broken_certificate_with_one_elimination_and_no_search_of_m(
    monkeypatch, tmp_path, kind, broken, laplacian
):
    # no elimination of L or L_M rescues a certificate that does not check,
    # and no search of M stands in for the proof of its balance
    g = elimination_budget_inputs(p=12)[kind]
    searched, built = recording_searches(monkeypatch)
    orders, signed = recording_inertia(monkeypatch)
    BREAKS[broken](monkeypatch)
    path = tmp_path / "g.txt"
    path.write_text(core.dumps(g))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(["audit", "--json", str(path), "--budget", "1000"])
    assert code == 1
    report = {c["claim"]: (c["status"], c["detail"]) for c in json.loads(out.getvalue())["claims"]}
    assert report["laplacian-balance"] == ("fail", f"the certificate for {laplacian} does not check")
    assert orders == [g.p, g.p + 1] and signed == [True, True]
    assert built["M"][0] not in searched


@pytest.mark.parametrize(
    "change",
    [
        lambda colors: (colors[0],) * len(colors),
        lambda colors: colors[:-1],
        lambda colors: (len(colors),) * len(colors),
    ],
    ids=["improper", "short", "outside-the-color-set"],
)
def test_audit_fails_a_sandwich_whose_coloring_does_not_check(monkeypatch, tmp_path, change):
    # chi and the Mycielskian's chi stay right, so only the witnesses fail;
    # a constant coloring breaks a positive edge, and the root's edges are
    g = SQUARE_ONE_NEG
    exact = coloring.chromatic_number
    n, nm = exact(g)[0], exact(mycielskian.mycielskian(g)[0])[0]

    def broken(h, node_budget=None):
        chi, witness = exact(h, node_budget=node_budget)
        return chi, dataclasses.replace(witness, colors=change(witness.colors))

    monkeypatch.setattr(coloring, "chromatic_number", broken)
    path = tmp_path / "g.txt"
    path.write_text(core.dumps(g))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(["audit", "--json", str(path)])
    assert code == 1
    report = {c["claim"]: (c["status"], c["detail"]) for c in json.loads(out.getvalue())["claims"]}
    assert report["chromatic-sandwich"] == ("fail", f"chi {n}, Mycielskian chi {nm}")


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


@pytest.mark.parametrize("of", ["input", "mycielskian", "negjoin"])
@pytest.mark.parametrize("kind", ["unbalanced", "balanced", "all-positive"])
def test_inertia_of_a_block_matrix_eliminates_its_blocks(monkeypatch, tmp_path, of, kind):
    # A_M is neither built nor eliminated: A and the lower block are; A
    # and the negative join are eliminated as they are, and all are signed
    g = elimination_budget_inputs(p=12)[kind]
    whole = {
        "input": matrices.adjacency(g),
        "mycielskian": matrices.adjacency(mycielskian.mycielskian(g)[0]),
        "negjoin": matrices.negative_join(g),
    }[of]
    expected = oracles.congruence_inertia([list(row) for row in whole.entries])
    (orders, signed), built = recording_inertia(monkeypatch), recording_builders(monkeypatch)
    path = tmp_path / "g.txt"
    path.write_text(core.dumps(g))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(["inertia", "--of", of, str(path)])
    assert code == 0
    assert out.getvalue() == "rank {} n_plus {} n_minus {} n_zero {}\n".format(expected[0] + expected[1], *expected)
    assert orders == {"input": [g.p], "mycielskian": [g.p, g.p + 1], "negjoin": [g.p + 1]}[of]
    assert signed == [True] * len(orders)
    assert built == {
        "input": [("adjacency", g.p, g.p)],
        "mycielskian": [("adjacency", g.p, g.p), ("negative_join", g.p + 1, g.p + 1)],
        "negjoin": [("negative_join", g.p + 1, g.p + 1)],
    }[of]
