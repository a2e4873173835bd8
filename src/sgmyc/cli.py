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

Exit codes: 0 success, 1 failed audit claim, 2 malformed input or out
of memory, 3 violated precondition, 4 exhausted search budget.  The
environment variable SG_SEED overrides the generator seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from . import balance as balance_mod
from . import claims, coloring, core, exactla, matrices
from .errors import BudgetExhaustedError, InputError, PreconditionError
from .mycielskian import MycielskianLabeling, balanced_mycielskian, mycielskian


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


def cmd_audit(args) -> int:
    g, digest = _read_input(args.file)
    fault = args.inject_fault
    if fault is not None and fault not in claims.CLAIMS:
        raise InputError(f"unknown claim {fault!r}, expected one of {', '.join(claims.CLAIMS)}")
    ctx = claims.Context(g, args.budget)
    results = [claims.check(name, ctx, name == fault) for name in claims.CLAIMS]
    ok = all(c["status"] != "fail" for c in results)
    payload = {"_digest": digest, "ok": ok, "claims": results}
    human = [f"{c['claim']}: {c['status']} ({c['detail']})" for c in results]
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
    except MemoryError:
        print("error: out of memory; the input is too large for this command", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
