"""The paper's structural claims, each checked on one input graph.

CLAIMS is the one registry of the claims, in report order, from each
claim's name to its check.  A check reads the input and everything
derived from it through a Context, and returns a status, "pass", "fail"
or "skipped", with a one-line detail.

A Context builds each object the checks share on first use and keeps
it, so one audit builds the Mycielskian, certifies the balance of G and
eliminates each matrix once.  The other modules are called through
their module attributes, so a wrapper installed on a module's function
sees the calls made here too.

The matrix claims compare a block formula built from G (sgmyc.matrices)
with the matrix of the Mycielskian the Context constructs, whose
adjacency, degree and Laplacian matrices are the generic builders
applied to it.  They check certificates instead of eliminating those
(2p+1) x (2p+1) matrices.  inertia-additivity uses the paper's
P = [[I,0,0],[I,-I,0],[0,0,1]], which is its own inverse, so A_M =
P B P^T holds exactly when P A_M P^T = B.  P on the left replaces each
twin row by its original's row minus its own, and P^T on the right does
the same with the columns; the claim applies both to A_M and compares
the result with the block sum B of A and the lower block, the negative
join of the negated input, the very two matrices whose inertias
Context.inertias takes from one elimination of A bordered by -j.
Sylvester's law of inertia then gives inertia(A_M) = inertia(A) +
inertia(lower block), with no elimination of A_M.
incidence-laplacian compares H_M H_M^T, summed from the columns of the
blocked incidence without forming it, with the Laplacian of the
constructed graph; H H^T = L on G alone would compare two generic
builders of one graph.

laplacian-balance proves L = H H^T nonsingular by a nonzero determinant
of H on p columns, a spanning tree and one column closing a negative
cycle, which form a basis of the frame matroid of a signed graph
(Zaslavsky 1982).  _frame_det finds and computes it in O(p + q), from
the first q columns of H_M for L, whose gram the claim checks, and from
all of them for L_M, whose gram incidence-laplacian compares.  A kernel
vector proves a Laplacian singular: the balance certificate's switching
for L, the all-ones vector for L_M; _singular checks it, and where
neither proof settles a Laplacian, its exact inertia decides.  On a
connected input with the constructions right that never happens: the
inertia of order 2p + 1 that L_M would take runs only where
incidence-laplacian already fails.

The balance claims decide from the certificates they check: a negative
5-cycle proves M unbalanced, so M is searched only on all-positive input,
and a switching to all-positive proves the balanced Mycielskian balanced.
"""

from __future__ import annotations

from functools import cached_property
from operator import mul, sub
from typing import Callable

from . import balance, coloring, core, exactla, matrices, mycielskian
from .errors import BudgetExhaustedError, InputError


class Context:
    """One input graph, the coloring budget, and what the checks derive from them."""

    def __init__(self, g: core.SignedGraph, budget: int | None = None):
        self.g = g
        self.budget = budget

    @cached_property
    def myc(self) -> tuple[core.SignedGraph, mycielskian.MycielskianLabeling]:
        return mycielskian.mycielskian(self.g)

    @cached_property
    def cert(self) -> balance.BalanceCertificate:
        return balance.certify_balance(self.g)

    @cached_property
    def adjacency(self) -> exactla.IntMatrix:
        return matrices.adjacency(self.g)

    @cached_property
    def laplacian(self) -> exactla.IntMatrix:
        return matrices.laplacian(self.g)

    @cached_property
    def adjacency_myc(self) -> exactla.IntMatrix:
        return matrices.adjacency(self.myc[0])

    @cached_property
    def laplacian_myc(self) -> exactla.IntMatrix:
        return matrices.laplacian(self.myc[0])

    @cached_property
    def columns(self) -> matrices._Columns:
        """The columns of the blocked incidence H_M, whose first q are H."""
        return matrices._mycielskian_columns(self.g)

    @cached_property
    def gram_myc(self) -> exactla.IntMatrix:
        """H_M H_M^T, summed from the columns of the blocked incidence."""
        return matrices._gram(2 * self.g.p + 1, self.columns)

    @cached_property
    def lower_block(self) -> exactla.IntMatrix:
        """B's lower diagonal block: the negative join of the negated input."""
        return matrices.negative_join(balance.negate(self.g))

    @cached_property
    def inertias(self) -> tuple[exactla.Inertia, exactla.Inertia, exactla.Inertia]:
        """Inertias of A_M, of A and of B's lower diagonal block.

        The first is the sum of the other two, by Sylvester's law of inertia,
        as inertia-additivity checks that P A_M P^T, for the self-inverse P,
        is the block sum of A and lower_block.  A_M is not eliminated, and
        neither is the lower block: it is -(D N D) for the negative join
        N = [[A, -j], [-j', 0]] and D = diag(I, -1), so its inertia is N's
        with n_plus and n_minus swapped, and one elimination of A bordered
        by -j gives inertia(A) and inertia(N).
        """
        in_a, in_join = exactla.inertia(self.adjacency, border=(-1,) * self.g.p)
        in_lower = exactla.Inertia(in_join.n_minus, in_join.n_plus, in_join.n_zero)
        return in_a + in_lower, in_a, in_lower


def _verdict(ok: bool, detail: str) -> tuple[str, str]:
    return ("pass" if ok else "fail", detail)


def _counts(ctx: Context) -> tuple[str, str]:
    g = ctx.g
    gm, _ = ctx.myc
    r = g.positive_count
    ok = (
        gm.p == 2 * g.p + 1
        and gm.q == 3 * g.q + g.p
        and gm.positive_count == 3 * r + g.p
        and gm.negative_count == 3 * (g.q - r)
    )
    return _verdict(ok, f"vertices {gm.p}, edges {gm.q}, positive {gm.positive_count}")


def _degrees(ctx: Context) -> tuple[str, str]:
    g = ctx.g
    gm, _ = ctx.myc
    dg, dm = core.degrees(g), core.degrees(gm)
    # over the labeling: originals double, each twin gains its root edge,
    # and the root meets all p twins by positive edges
    degree = tuple(2 * d for d in dg.degree) + tuple(d + 1 for d in dg.degree) + (g.p,)
    net = tuple(2 * d for d in dg.net_degree) + tuple(d + 1 for d in dg.net_degree) + (g.p,)
    ok = dm.degree == degree and dm.net_degree == net
    return _verdict(ok, "doubling on originals, +1 on twins, p at the root")


def _balance(ctx: Context) -> tuple[str, str]:
    g = ctx.g
    gm, lab = ctx.myc
    # any negative edge v_i v_j closes the negative 5-cycle (v_i, v_j, u_i, w, u_j),
    # which proves M unbalanced; with none, M must be balanced
    negative = next(((u, v) for u, v, s in g.edges if s == -1), None)
    if negative is None:
        return _verdict(balance.certify_balance(gm).balanced, "balanced Mycielskian")
    u, v = negative
    witness = [lab.original(u), lab.original(v), lab.twin(u), lab.root, lab.twin(v)]
    try:
        ok = balance.cycle_sign(gm, witness) == -1
    except InputError:
        # the witness is not a cycle of the constructed M
        ok = False
    return _verdict(ok, f"negative 5-cycle {witness}")


def _balanced_mycielskian(ctx: Context) -> tuple[str, str]:
    if not ctx.cert.balanced:
        return ("skipped", "input is unbalanced")
    gb, zeta_b = mycielskian.balanced_mycielskian(ctx.g, ctx.cert)
    # a switching to all-positive proves G_b balanced
    ok = core.is_all_positive(core.switch(gb, zeta_b))
    return _verdict(ok, "balanced and switchable to all-positive")


def _sandwich(ctx: Context) -> tuple[str, str]:
    g = ctx.g
    gm, _ = ctx.myc
    try:
        n, _ = coloring.chromatic_number(g, node_budget=ctx.budget)
        nm, _ = coloring.chromatic_number(gm, node_budget=ctx.budget)
    except BudgetExhaustedError as exc:
        return ("skipped", f"budget exhausted, chromatic number >= {exc.lower_bound}")
    ok = n <= nm <= n + 1
    if core.is_all_negative(g) and g.q > 0:
        ok = ok and nm == n
    if core.is_all_positive(g) and g.q > 0:
        ok = ok and nm == n + 1
    return _verdict(ok, f"chi {n}, Mycielskian chi {nm}")


def _inertia(ctx: Context) -> tuple[str, str]:
    p = ctx.g.p
    am = ctx.adjacency_myc.entries
    ok = len(am) == 2 * p + 1
    if ok:
        # P A_M P^T: each twin row, then each twin column, becomes its
        # original's minus its own
        rows = am[:p] + tuple(tuple(map(sub, am[i], am[p + i])) for i in range(p)) + am[2 * p :]
        pap = [row[:p] + tuple(map(sub, row[:p], row[p : 2 * p])) + row[2 * p :] for row in rows]
        right, left = (0,) * (p + 1), (0,) * p
        ok = pap == [row + right for row in ctx.adjacency.entries] + [left + row for row in ctx.lower_block.entries]
    if not ok:
        # the block inertias add up to inertia(A_M) only for a checked congruence
        return ("fail", "A_M is not P B P^T with det P = +-1 and B the block sum")
    in_am, in_a, in_lower = ctx.inertias

    def fmt(ine):
        return f"({ine.n_plus}, {ine.n_minus}, {ine.n_zero})"

    return ("pass", f"inertia {fmt(in_am)} from blocks {fmt(in_a)} + {fmt(in_lower)}")


def _incidence(ctx: Context) -> tuple[str, str]:
    ok = ctx.gram_myc == ctx.laplacian_myc
    return _verdict(ok, "H H^T and the block Laplacian agree")


def _frame_det(n: int, columns: matrices._Columns) -> int:
    """det, up to sign, of the n rows of columns on a spanning tree and one more column.

    Column ((a, x), (b, y)) joins rows a and b with the sign of -x y.  A
    breadth-first search from row 0 takes the tree, t's column holding e
    in row t and f in the row r it was reached from, and the switching
    zeta that makes the tree positive.  The first column with zeta(a)
    zeta(b) x y > 0 closes a negative cycle; with none, or a tree that
    misses a row, the answer is 0.  Then, deepest row first, the closing
    column becomes e times itself less its entry in row t times t's
    column, which clears row t into row r and scales the determinant by
    e.  That leaves a triangular matrix with diagonal e and, in row 0,
    what is left of the closing column: the determinant times the e of
    the steps that cleared a nonzero entry.
    """
    if not n:
        return 1
    at = [[] for _ in range(n)]
    for (a, x), (b, y) in columns:
        at[a].append((x, b, y))
        at[b].append((y, a, x))
    zeta, up, order = [1] + [0] * (n - 1), {}, [0]
    for r in order:
        for f, t, e in at[r]:
            if not zeta[t]:
                zeta[t] = -zeta[r] if f * e > 0 else zeta[r]
                up[t] = (e, r, f)
                order.append(t)
    for (a, x), (b, y) in columns:
        if zeta[a] * zeta[b] * x * y > 0 and len(order) == n:
            break
    else:
        return 0
    v, det = {a: x, b: y}, 1
    for t in reversed(order[1:]):
        e, r, f = up[t]
        w = v.pop(t, 0)
        if w:
            # e times the closing column, less w times t's: det scales by e
            v = {s: e * z for s, z in v.items()}
            v[r] = v.get(r, 0) - w * f
        else:
            det *= e
    return det * v.get(0, 0)


def _singular(lap: exactla.IntMatrix, kernel: tuple[int, ...] | None) -> bool:
    """Whether the Laplacian lap is singular: kernel proves it, or the exact inertia decides."""
    # a vector of the wrong length, or of zeros, proves nothing
    if kernel and len(kernel) == lap.rows and any(kernel):
        if not any(sum(map(mul, row, kernel)) for row in lap.entries):
            return True
    return exactla.inertia(lap).n_zero > 0


def _laplacian_balance(ctx: Context) -> tuple[str, str]:
    g = ctx.g
    if g.p == 0:
        return ("skipped", "input has no vertices")
    if not core.is_connected(g):
        return ("skipped", "input is disconnected")
    columns, n = ctx.columns, 2 * g.p + 1
    h = columns[: g.q]
    # H of full rank on a frame basis proves H H^T nonsingular, once H H^T
    # is checked to be the Laplacian: H is the first q columns of H_M, and
    # H_M H_M^T the gram incidence-laplacian compares
    frame = _frame_det(g.p, h) and matrices._gram(g.p, h) == ctx.laplacian
    frame_m = _frame_det(n, columns) and ctx.gram_myc == ctx.laplacian_myc
    # a switching to all-positive is a kernel vector of L, and so is 1 of
    # L_M when no edge is negative
    singular = not frame and _singular(ctx.laplacian, ctx.cert.to_all_positive)
    singular_m = not frame_m and _singular(ctx.laplacian_myc, (1,) * n)
    ok = singular == ctx.cert.balanced and singular_m == core.is_all_positive(g)
    return _verdict(ok, f"Laplacian singular: {singular}")


CLAIMS: dict[str, Callable[[Context], tuple[str, str]]] = {
    "mycielskian-counts": _counts,
    "mycielskian-degrees": _degrees,
    "balance-characterization": _balance,
    "balanced-mycielskian": _balanced_mycielskian,
    "chromatic-sandwich": _sandwich,
    "inertia-additivity": _inertia,
    "incidence-laplacian": _incidence,
    "laplacian-balance": _laplacian_balance,
}


def check(name: str, ctx: Context) -> dict:
    """Run one claim on ctx, as a report entry."""
    status, detail = CLAIMS[name](ctx)
    return {"claim": name, "status": status, "detail": detail}
