"""Command line front end.

Subcommands:
  info         vertex and edge tallies plus degree table
  generate     deterministic graph factory (path, cycle, complete, random)
  mycielskian  plain or balanced Mycielskian, edge list plus labeling sidecar
  balance      balance certificate: bipartition and switching, or negative cycle
  chromatic    exact signed chromatic number, optional certificate and budget
  matrix       exact matrices of the input or its Mycielskian
  inertia      rank and signature of an adjacency matrix
  audit        re-verify the structural claims on one input graph

Every subcommand accepts --json for a machine readable report carrying
the command name, an input digest and the result payload.  Identical
input and flags produce byte-identical output.

Exit codes: 0 success, 1 failed audit claim, 2 malformed input,
3 violated precondition, 4 exhausted search budget.  The environment
variable SG_SEED overrides the generator seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from . import balance as balance_mod
from . import coloring, core, exactla, matrices
from .errors import BudgetExhaustedError, InputError, PreconditionError
from .mycielskian import (
    MycielskianLabeling,
    balanced_mycielskian,
    mycielskian,
    mycielskian_balanced_iff_all_positive,
)


def _digest_text(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def _read_input(path: str) -> tuple[core.SignedGraph, str]:
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc}") from None
    return core.loads(text), _digest_text(text)


def _emit(args, payload: dict, human: list[str]) -> None:
    if args.json:
        report = {"command": args.command, "input_digest": payload.pop("_digest", None)}
        report.update(payload)
        print(json.dumps(report, indent=2))
    else:
        payload.pop("_digest", None)
        for line in human:
            print(line)


# ---------------------------------------------------------------------------


def cmd_info(args) -> int:
    g, digest = _read_input(args.file)
    deg = core.degrees(g)
    payload = {
        "_digest": digest,
        "vertices": g.p,
        "edges": g.q,
        "positive_edges": g.positive_count,
        "negative_edges": g.negative_count,
        "connected": core.is_connected(g),
        "triangle_free": core.is_triangle_free(g),
        "degrees": [list(deg.row(v)) for v in range(1, g.p + 1)],
    }
    human = [
        f"vertices: {g.p}",
        f"edges: {g.q} ({g.positive_count} positive, {g.negative_count} negative)",
        f"connected: {'yes' if payload['connected'] else 'no'}",
        f"triangle-free: {'yes' if payload['triangle_free'] else 'no'}",
        "vertex degree d+ d- net",
    ]
    for v in range(1, g.p + 1):
        d, dp, dn, net = deg.row(v)
        human.append(f"{v} {d} {dp} {dn} {net}")
    _emit(args, payload, human)
    return 0


def cmd_generate(args) -> int:
    seed = args.seed
    env_seed = os.environ.get("SG_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise InputError(f"SG_SEED must be an integer, got {env_seed!r}") from None
    params: dict[str, object] = {}
    if args.length is not None:
        params["length"] = args.length
    if args.order is not None:
        params["order"] = args.order
    if args.pattern is not None:
        params["pattern"] = args.pattern
    if args.edge_prob is not None:
        params["edge_prob"] = args.edge_prob
    if args.neg_prob is not None:
        params["neg_prob"] = args.neg_prob
    g = core.generate(args.kind, params, seed)
    text = core.dumps(g)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    if args.json:
        payload = {
            "_digest": _digest_text(text),
            "kind": args.kind,
            "seed": seed,
            "vertices": g.p,
            "edges": g.edges,
        }
        _emit(args, payload, [])
    elif not args.output:
        sys.stdout.write(text)
    return 0


def cmd_mycielskian(args) -> int:
    g, digest = _read_input(args.file)
    if args.balanced:
        gb, zeta_b = balanced_mycielskian(g)
        lab = MycielskianLabeling(g.p)
        out_graph, switching = gb, list(zeta_b)
    else:
        out_graph, lab = mycielskian(g)
        switching = None
    text = core.dumps(out_graph)
    sidecar = lab.to_json_dict()
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        with open(args.output + ".labeling.json", "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, indent=2)
            fh.write("\n")
    if args.json:
        payload = {
            "_digest": digest,
            "balanced_variant": bool(args.balanced),
            "vertices": out_graph.p,
            "edges": out_graph.edges,
            "labeling": sidecar,
            "switching": switching,
        }
        _emit(args, payload, [])
    elif not args.output:
        sys.stdout.write(text)
    return 0


def cmd_balance(args) -> int:
    g, digest = _read_input(args.file)
    cert = balance_mod.certify_balance(g)
    payload = {"_digest": digest}
    payload.update(cert.to_json_dict())
    if cert.balanced:
        part1 = [v for v in range(1, g.p + 1) if cert.bipartition[v - 1] == 1]
        part2 = [v for v in range(1, g.p + 1) if cert.bipartition[v - 1] == 2]
        human = [
            "balanced: yes",
            f"bipartition: {part1} | {part2}",
            f"switching to all-positive: {list(cert.to_all_positive)}",
        ]
    else:
        human = [
            "balanced: no",
            f"negative cycle: {list(cert.witness)}",
        ]
    _emit(args, payload, human)
    return 0


def cmd_chromatic(args) -> int:
    g, digest = _read_input(args.file)
    try:
        n, cert = coloring.chromatic_number(g, node_budget=args.budget)
    except BudgetExhaustedError as exc:
        payload = {"_digest": digest, "status": "unknown", "lower_bound": exc.lower_bound, "nodes": exc.nodes}
        _emit(args, payload, [f"unknown, chromatic number >= {exc.lower_bound}"])
        return 4
    payload = {"_digest": digest, "chromatic_number": n}
    human = [f"chromatic number: {n}"]
    if args.certificate:
        payload["colors"] = list(cert.colors)
        payload["deficiency"] = coloring.deficiency(g, cert)
        human.append(f"colors: {list(cert.colors)}")
        human.append(f"deficiency: {payload['deficiency']}")
    _emit(args, payload, human)
    return 0


_MATRIX_KINDS = ("adjacency", "incidence", "laplacian", "degree", "negjoin")


def _build_matrix(g: core.SignedGraph, kind: str, of: str) -> exactla.RationalMatrix:
    if of == "input":
        builders = {
            "adjacency": matrices.adjacency,
            "incidence": matrices.incidence,
            "laplacian": matrices.laplacian,
            "degree": matrices.degree_matrix,
            "negjoin": matrices.negative_join,
        }
        return builders[kind](g)
    builders = {
        "adjacency": matrices.adjacency_mycielskian,
        "incidence": matrices.incidence_mycielskian,
        "laplacian": matrices.laplacian_mycielskian,
        "degree": matrices.degree_matrix_mycielskian,
    }
    if kind == "negjoin":
        gm, _ = mycielskian(g)
        return matrices.negative_join(gm)
    return builders[kind](g)


def cmd_matrix(args) -> int:
    g, digest = _read_input(args.file)
    m = _build_matrix(g, args.kind, args.of)
    payload = {
        "_digest": digest,
        "kind": args.kind,
        "of": args.of,
        "rows": m.rows,
        "cols": m.cols,
        "matrix": exactla.to_json_rows(m),
    }
    human = [" ".join(exactla.format_entry(x) for x in row) for row in m.entries]
    _emit(args, payload, human)
    return 0


def cmd_inertia(args) -> int:
    g, digest = _read_input(args.file)
    if args.of == "input":
        ine = exactla.inertia(matrices.adjacency(g))
    elif args.of == "mycielskian":
        # A_M = P diag(A, lower block) P^T with P invertible: the inertias add
        ine = exactla.inertia(matrices.adjacency(g)) + exactla.inertia(matrices.lower_block(g))
    else:
        ine = exactla.inertia(matrices.negative_join(g))
    payload = {
        "_digest": digest,
        "of": args.of,
        "rank": ine.rank,
        "n_plus": ine.n_plus,
        "n_minus": ine.n_minus,
        "n_zero": ine.n_zero,
    }
    human = [f"rank {ine.rank} n_plus {ine.n_plus} n_minus {ine.n_minus} n_zero {ine.n_zero}"]
    _emit(args, payload, human)
    return 0


# ---------------------------------------------------------------------------
# audit


def _claim(name: str, ok: bool, detail: str) -> dict:
    return {"claim": name, "status": "pass" if ok else "fail", "detail": detail}


def _skip(name: str, why: str) -> dict:
    return {"claim": name, "status": "skipped", "detail": why}


def _audit_counts(g, fault: bool) -> dict:
    gm, _ = mycielskian(g)
    r = g.positive_count
    want_p = 2 * g.p + 1 + (1 if fault else 0)
    ok = (
        gm.p == want_p
        and gm.q == 3 * g.q + g.p
        and gm.positive_count == 3 * r + g.p
        and gm.negative_count == 3 * (g.q - r)
    )
    return _claim("mycielskian-counts", ok, f"vertices {gm.p}, edges {gm.q}, positive {gm.positive_count}")


def _audit_degrees(g, fault: bool) -> dict:
    gm, lab = mycielskian(g)
    dg = core.degrees(g)
    dm = core.degrees(gm)
    bump = 1 if fault else 0
    ok = True
    for i in range(1, g.p + 1):
        if dm.degree[i - 1] != 2 * dg.degree[i - 1] or dm.net_degree[i - 1] != 2 * dg.net_degree[i - 1]:
            ok = False
        t = lab.twin(i) - 1
        if dm.degree[t] != dg.degree[i - 1] + 1 + bump or dm.net_degree[t] != dg.net_degree[i - 1] + 1:
            ok = False
    w = lab.root - 1
    if dm.degree[w] != g.p or dm.net_degree[w] != g.p:
        ok = False
    return _claim("mycielskian-degrees", ok, "doubling on originals, +1 on twins, p at the root")


def _audit_balance(g, fault: bool) -> dict:
    balanced, witness = mycielskian_balanced_iff_all_positive(g)
    expected = core.is_all_positive(g)
    if fault:
        expected = not expected
    ok = balanced == expected
    if witness is not None:
        gm, _ = mycielskian(g)
        ok = ok and balance_mod.cycle_sign(gm, witness) == -1
    detail = "balanced Mycielskian" if balanced else f"negative 5-cycle {list(witness)}"
    return _claim("balance-characterization", ok, detail)


def _audit_balanced_mycielskian(g, fault: bool) -> dict:
    cert = balance_mod.certify_balance(g)
    if not cert.balanced:
        return _skip("balanced-mycielskian", "input is unbalanced")
    gb, zeta_b = balanced_mycielskian(g)
    if fault:
        zeta_b = (-zeta_b[0],) + zeta_b[1:]
    switched = core.switch(gb, zeta_b)
    ok = balance_mod.certify_balance(gb).balanced and core.is_all_positive(switched)
    return _claim("balanced-mycielskian", ok, "balanced and switchable to all-positive")


def _audit_sandwich(g, fault: bool, budget: int | None) -> dict:
    try:
        n, _ = coloring.chromatic_number(g, node_budget=budget)
        gm, _ = mycielskian(g)
        nm, _ = coloring.chromatic_number(gm, node_budget=budget)
    except BudgetExhaustedError as exc:
        return _skip("chromatic-sandwich", f"budget exhausted, chromatic number >= {exc.lower_bound}")
    if fault:
        nm += 1
    ok = n <= nm <= n + 1
    if core.is_all_negative(g) and g.q > 0:
        ok = ok and nm == n
    if core.is_all_positive(g) and g.q > 0:
        ok = ok and nm == n + 1
    return _claim("chromatic-sandwich", ok, f"chi {n}, Mycielskian chi {nm}")


def _audit_inertia(g, fault: bool) -> dict:
    a = matrices.adjacency(g)
    am = matrices.adjacency_mycielskian(g)
    pm, bm = matrices.congruence_factors(g)
    if fault:
        rows = [list(row) for row in bm.entries]
        rows[0][0] += 1
        bm = exactla.RationalMatrix.from_rows(rows)
    ok = exactla.is_congruent_product(pm, bm, am)
    lower = exactla.RationalMatrix.from_rows([row[g.p :] for row in bm.entries[g.p :]])
    in_am, in_a, in_lower = exactla.inertia(am), exactla.inertia(a), exactla.inertia(lower)
    ok = ok and in_am == in_a + in_lower
    nj = matrices.negative_join(g)
    ok = ok and exactla.rank(am) == exactla.rank(a) + exactla.rank(nj)
    def fmt(ine):
        return f"({ine.n_plus}, {ine.n_minus}, {ine.n_zero})"

    return _claim(
        "inertia-additivity",
        ok,
        f"inertia {fmt(in_am)} from blocks {fmt(in_a)} + {fmt(in_lower)}",
    )


def _audit_incidence(g, fault: bool) -> dict:
    h = matrices.incidence(g)
    if fault and g.q > 0:
        rows = [list(row) for row in h.entries]
        rows[0][0] += 1
        h = exactla.RationalMatrix.from_rows(rows)
    lap = matrices.laplacian(g)
    ok = exactla.multiply(h, exactla.transpose(h)) == lap
    hm = matrices.incidence_mycielskian(g)
    lm = matrices.laplacian_mycielskian(g)
    ok = ok and exactla.multiply(hm, exactla.transpose(hm)) == lm
    dm = matrices.degree_matrix_mycielskian(g)
    am = matrices.adjacency_mycielskian(g)
    ok = ok and exactla.subtract(dm, am) == lm
    return _claim("incidence-laplacian", ok, "H H^T and the block Laplacian agree")


def _audit_laplacian_balance(g, fault: bool) -> dict:
    if g.p == 0:
        return _skip("laplacian-balance", "input has no vertices")
    if not core.is_connected(g):
        return _skip("laplacian-balance", "input is disconnected")
    singular = exactla.rank(matrices.laplacian(g)) < g.p
    balanced = balance_mod.certify_balance(g).balanced
    if fault:
        balanced = not balanced
    ok = singular == balanced
    lm = matrices.laplacian_mycielskian(g)
    singular_m = exactla.rank(lm) < 2 * g.p + 1
    ok = ok and singular_m == core.is_all_positive(g)
    return _claim("laplacian-balance", ok, f"Laplacian singular: {singular}")


def cmd_audit(args) -> int:
    g, digest = _read_input(args.file)
    fault = args.inject_fault
    known = (
        "mycielskian-counts",
        "mycielskian-degrees",
        "balance-characterization",
        "balanced-mycielskian",
        "chromatic-sandwich",
        "inertia-additivity",
        "incidence-laplacian",
        "laplacian-balance",
    )
    if fault is not None and fault not in known:
        raise InputError(f"unknown claim {fault!r}, expected one of {', '.join(known)}")
    claims = [
        _audit_counts(g, fault == "mycielskian-counts"),
        _audit_degrees(g, fault == "mycielskian-degrees"),
        _audit_balance(g, fault == "balance-characterization"),
        _audit_balanced_mycielskian(g, fault == "balanced-mycielskian"),
        _audit_sandwich(g, fault == "chromatic-sandwich", args.budget),
        _audit_inertia(g, fault == "inertia-additivity"),
        _audit_incidence(g, fault == "incidence-laplacian"),
        _audit_laplacian_balance(g, fault == "laplacian-balance"),
    ]
    ok = all(c["status"] != "fail" for c in claims)
    payload = {"_digest": digest, "ok": ok, "claims": claims}
    human = [f"{c['claim']}: {c['status']} ({c['detail']})" for c in claims]
    human.append("audit: ok" if ok else "audit: FAILED")
    _emit(args, payload, human)
    return 0 if ok else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sgmyc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def with_common(p):
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        return p

    p = with_common(sub.add_parser("info", help="graph summary"))
    p.add_argument("file")
    p.set_defaults(func=cmd_info)

    p = with_common(sub.add_parser("generate", help="generate a signed graph"))
    p.add_argument("kind", choices=("path", "cycle", "complete", "random"))
    p.add_argument("--length", type=int)
    p.add_argument("--order", type=int)
    p.add_argument("--pattern")
    p.add_argument("--edge-prob", type=float, dest="edge_prob")
    p.add_argument("--neg-prob", type=float, dest="neg_prob")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_generate)

    p = with_common(sub.add_parser("mycielskian", help="Mycielskian of the input"))
    p.add_argument("file")
    p.add_argument("--balanced", action="store_true", help="balanced variant, input must be balanced")
    p.add_argument("-o", "--output", help="write edge list here plus a .labeling.json sidecar")
    p.set_defaults(func=cmd_mycielskian)

    p = with_common(sub.add_parser("balance", help="balance certificate"))
    p.add_argument("file")
    p.set_defaults(func=cmd_balance)

    p = with_common(sub.add_parser("chromatic", help="exact signed chromatic number"))
    p.add_argument("file")
    p.add_argument("--certificate", action="store_true", help="include a witness coloring")
    p.add_argument("--budget", type=int, help="node budget for the search")
    p.set_defaults(func=cmd_chromatic)

    p = with_common(sub.add_parser("matrix", help="exact matrices"))
    p.add_argument("file")
    p.add_argument("--kind", choices=_MATRIX_KINDS, default="adjacency")
    p.add_argument("--of", choices=("input", "mycielskian"), default="input")
    p.set_defaults(func=cmd_matrix)

    p = with_common(sub.add_parser("inertia", help="rank and signature of an adjacency"))
    p.add_argument("file")
    p.add_argument("--of", choices=("input", "mycielskian", "negjoin"), default="input")
    p.set_defaults(func=cmd_inertia)

    p = with_common(sub.add_parser("audit", help="re-verify structural claims on the input"))
    p.add_argument("file")
    p.add_argument("--budget", type=int, default=2_000_000, help="node budget for chromatic checks")
    p.add_argument("--inject-fault", dest="inject_fault", metavar="CLAIM",
                   help="testing aid: corrupt the named claim so it must fail")
    p.set_defaults(func=cmd_audit)

    return parser


def _fold_pattern_value(argv: list[str]) -> list[str]:
    """Rewrite ["--pattern", "-+-"] as ["--pattern=-+-"].

    Sign patterns usually start with "-", which argparse would otherwise
    reject as a dangling option.
    """
    out: list[str] = []
    it = iter(argv)
    for tok in it:
        if tok == "--pattern":
            val = next(it, None)
            out.append(tok if val is None else f"--pattern={val}")
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_fold_pattern_value(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
