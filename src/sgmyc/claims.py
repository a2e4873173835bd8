"""The paper's structural claims, each checked on one input graph.

CLAIMS is the one registry of the claims, in report order.  Each entry
pairs a check with a fault.  A check reads the input and everything
derived from it through a Context, and returns a status, "pass", "fail"
or "skipped", with a one-line detail.  It hands one value it computes,
an expected count or a matrix, through a corrupt argument on its way to
the verdict: the identity normally, and the claim's fault when the
claim is to be corrupted on purpose.  Every fault makes its check fail
on every input the check does not skip, except balanced-mycielskian on
the null graph, whose Mycielskian has no edge for a switching to break.

A Context builds each object the checks share on first use and keeps
it, so one audit builds the Mycielskian, certifies the balance of G and
eliminates each matrix once.  The other modules are called through
their module attributes, so a wrapper installed on a module's function
sees the calls made here too.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from . import balance, coloring, core, exactla, matrices, mycielskian
from .errors import BudgetExhaustedError


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
    def laplacian(self) -> exactla.RationalMatrix:
        return matrices.laplacian(self.g)

    @cached_property
    def adjacency_myc(self) -> exactla.RationalMatrix:
        return matrices.adjacency_mycielskian(self.g)

    @cached_property
    def laplacian_myc(self) -> exactla.RationalMatrix:
        return matrices.laplacian_mycielskian(self.g)

    @cached_property
    def schur_myc(self) -> matrices.TwinSchur:
        return matrices.laplacian_mycielskian_schur(self.g)

    @cached_property
    def factors(self) -> tuple[exactla.RationalMatrix, exactla.RationalMatrix]:
        return matrices.congruence_factors(self.g)

    @cached_property
    def inertias(self) -> tuple[exactla.Inertia, exactla.Inertia, exactla.Inertia]:
        """Inertias of A_M, of A and of the lower diagonal block of B."""
        p = self.g.p
        _, bm = self.factors
        lower = exactla.RationalMatrix.from_rows([row[p:] for row in bm.entries[p:]])
        return (
            exactla.inertia(self.adjacency_myc),
            exactla.inertia(matrices.adjacency(self.g)),
            exactla.inertia(lower),
        )


def _verdict(ok: bool, detail: str) -> tuple[str, str]:
    return ("pass" if ok else "fail", detail)


def _counts(ctx: Context, corrupt: Callable) -> tuple[str, str]:
    g = ctx.g
    gm, _ = ctx.myc
    r = g.positive_count
    ok = (
        gm.p == corrupt(2 * g.p + 1)
        and gm.q == 3 * g.q + g.p
        and gm.positive_count == 3 * r + g.p
        and gm.negative_count == 3 * (g.q - r)
    )
    return _verdict(ok, f"vertices {gm.p}, edges {gm.q}, positive {gm.positive_count}")


def _degrees(ctx: Context, corrupt: Callable) -> tuple[str, str]:
    g = ctx.g
    gm, _ = ctx.myc
    dg, dm = core.degrees(g), core.degrees(gm)
    # over the labeling: originals double, each twin gains its root edge,
    # and the root meets all p twins by positive edges
    degree = tuple(2 * d for d in dg.degree) + corrupt(tuple(d + 1 for d in dg.degree) + (g.p,))
    net = tuple(2 * d for d in dg.net_degree) + tuple(d + 1 for d in dg.net_degree) + (g.p,)
    ok = dm.degree == degree and dm.net_degree == net
    return _verdict(ok, "doubling on originals, +1 on twins, p at the root")


def _balance(ctx: Context, corrupt: Callable) -> tuple[str, str]:
    g = ctx.g
    gm, lab = ctx.myc
    balanced = balance.certify_balance(gm).balanced
    ok = balanced == corrupt(core.is_all_positive(g))
    # any negative edge v_i v_j closes the negative 5-cycle (v_i, v_j, u_i, w, u_j)
    negative = next(((u, v) for u, v, s in g.edges if s == -1), None)
    if negative is None:
        return _verdict(ok, "balanced Mycielskian")
    u, v = negative
    witness = [lab.original(u), lab.original(v), lab.twin(u), lab.root, lab.twin(v)]
    ok = ok and balance.cycle_sign(gm, witness) == -1
    return _verdict(ok, f"negative 5-cycle {witness}")


def _balanced_mycielskian(ctx: Context, corrupt: Callable) -> tuple[str, str]:
    if not ctx.cert.balanced:
        return ("skipped", "input is unbalanced")
    gb, zeta_b = mycielskian.balanced_mycielskian(ctx.g)
    zeta_b = corrupt(zeta_b)
    ok = balance.certify_balance(gb).balanced and core.is_all_positive(core.switch(gb, zeta_b))
    return _verdict(ok, "balanced and switchable to all-positive")


def _sandwich(ctx: Context, corrupt: Callable) -> tuple[str, str]:
    g = ctx.g
    gm, _ = ctx.myc
    try:
        n, _ = coloring.chromatic_number(g, node_budget=ctx.budget)
        nm, _ = coloring.chromatic_number(gm, node_budget=ctx.budget)
    except BudgetExhaustedError as exc:
        return ("skipped", f"budget exhausted, chromatic number >= {exc.lower_bound}")
    nm = corrupt(nm)
    ok = n <= nm <= n + 1
    if core.is_all_negative(g) and g.q > 0:
        ok = ok and nm == n
    if core.is_all_positive(g) and g.q > 0:
        ok = ok and nm == n + 1
    return _verdict(ok, f"chi {n}, Mycielskian chi {nm}")


def _inertia(ctx: Context, corrupt: Callable) -> tuple[str, str]:
    pm, bm = ctx.factors
    ok = exactla.is_congruent_product(pm, corrupt(bm), ctx.adjacency_myc)
    in_am, in_a, in_lower = ctx.inertias
    ok = ok and in_am == in_a + in_lower
    # the lower block shares its rank, not its signature, with the negative join
    ok = ok and in_am.rank == in_a.rank + exactla.rank(matrices.negative_join(ctx.g))

    def fmt(ine):
        return f"({ine.n_plus}, {ine.n_minus}, {ine.n_zero})"

    return _verdict(ok, f"inertia {fmt(in_am)} from blocks {fmt(in_a)} + {fmt(in_lower)}")


def _incidence(ctx: Context, corrupt: Callable) -> tuple[str, str]:
    g = ctx.g
    h = matrices.incidence(g)
    ok = exactla.multiply(h, exactla.transpose(h)) == ctx.laplacian
    hm = matrices.incidence_mycielskian(g)
    lm = corrupt(ctx.laplacian_myc)
    ok = ok and exactla.multiply(hm, exactla.transpose(hm)) == lm
    dm = matrices.degree_matrix_mycielskian(g)
    ok = ok and exactla.subtract(dm, ctx.adjacency_myc) == lm
    return _verdict(ok, "H H^T and the block Laplacian agree")


def _laplacian_balance(ctx: Context, corrupt: Callable) -> tuple[str, str]:
    g = ctx.g
    if g.p == 0:
        return ("skipped", "input has no vertices")
    if not core.is_connected(g):
        return ("skipped", "input is disconnected")
    singular = exactla.rank(ctx.laplacian) < g.p
    ok = singular == corrupt(ctx.cert.balanced)
    # rank(L_M) = p + rank(S): the twin block eliminated first is invertible
    schur = ctx.schur_myc
    singular_m = g.p + exactla.resume_rank(schur.scaled, schur.det_c) < 2 * g.p + 1
    ok = ok and singular_m == core.is_all_positive(g)
    return _verdict(ok, f"Laplacian singular: {singular}")


def _bump_corner(m: exactla.RationalMatrix) -> exactla.RationalMatrix:
    rows = [list(row) for row in m.entries]
    rows[0][0] += 1
    return exactla.RationalMatrix.from_rows(rows)


@dataclass(frozen=True)
class Claim:
    """A check, and the fault that must make it fail."""

    check: Callable[[Context, Callable], tuple[str, str]]
    fault: Callable


CLAIMS: dict[str, Claim] = {
    "mycielskian-counts": Claim(_counts, lambda vertices: vertices + 1),
    "mycielskian-degrees": Claim(_degrees, lambda degree: tuple(d + 1 for d in degree)),
    "balance-characterization": Claim(_balance, operator.not_),
    "balanced-mycielskian": Claim(_balanced_mycielskian, lambda zeta: zeta[:-1] + (-zeta[-1],)),
    "chromatic-sandwich": Claim(_sandwich, lambda chi: chi + 2),
    "inertia-additivity": Claim(_inertia, _bump_corner),
    "incidence-laplacian": Claim(_incidence, _bump_corner),
    "laplacian-balance": Claim(_laplacian_balance, operator.not_),
}


def _unchanged(value):
    return value


def check(name: str, ctx: Context, faulted: bool = False) -> dict:
    """Run one claim on ctx, corrupted by its fault when faulted, as a report entry."""
    claim = CLAIMS[name]
    status, detail = claim.check(ctx, claim.fault if faulted else _unchanged)
    return {"claim": name, "status": status, "detail": detail}

