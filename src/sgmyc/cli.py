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

Every subcommand accepts --json for a machine readable report: the
command name, the input digest (sha256 of the input bytes as read, or of
the edge list generate makes), then the payload.  The report's bytes are
json.dumps(report, indent=2) plus a newline: ASCII-escaped, with keys in
the order they were emitted.  _json writes that layout; the stdlib's own
indent encoder is pure Python.  Each cmd_* returns (exit code, payload,
text); only _run reads the input and writes stdout.  Identical input and
flags produce byte-identical output.

Exit codes: 0 success, 1 failed audit claim, 2 malformed input or out
of memory, 3 violated precondition, 4 exhausted search budget.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from itertools import chain

from . import balance as balance_mod
from . import claims, coloring, core, exactla, matrices
from .errors import BudgetExhaustedError, InputError, PreconditionError
from .mycielskian import MycielskianLabeling, balanced_mycielskian, mycielskian


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _read_input(path: str) -> tuple[core.SignedGraph, str]:
    # read bytes from either source, so the digest is of the input exactly
    # as given, CRLF line ends included
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
        text = data.decode("utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except UnicodeError:
        source = "standard input" if path == "-" else path
        raise InputError(f"{source} is not UTF-8 text") from None
    return core.loads(text), _digest(data)


def _json(obj, indent: str = "") -> str:
    """json.dumps(obj, indent=2), byte for byte, for str-keyed dicts, lists and tuples.

    A list of ints is one join, and a list of non-empty int rows of one
    length is one row template per row, both at C speed; anything else
    recurses, down to json.dumps of a scalar, an empty container or a key.
    Items are tested by their exact type, so a bool never prints as an int.
    """
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        return json.dumps(obj)
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(obj, dict):
        if not all(isinstance(k, str) for k in obj):
            raise TypeError("JSON report keys must be str")
        body = sep.join(json.dumps(k) + ": " + _json(v, inner) for k, v in obj.items())
        return "{\n" + inner + body + "\n" + indent + "}"
    types = set(map(type, obj))
    if types == {int}:
        body = sep.join(map(str, obj))
    elif (
        types <= {list, tuple}
        and len(set(map(len, obj))) == 1
        and set(map(type, chain.from_iterable(obj))) == {int}
    ):
        row_sep = ",\n" + inner + "  "
        template = "[" + row_sep[1:] + row_sep.join(["%d"] * len(obj[0])) + "\n" + inner + "]"
        body = sep.join(map(template.__mod__, map(tuple, obj)))
    else:
        body = sep.join(_json(x, inner) for x in obj)
    return "[\n" + inner + body + "\n" + indent + "]"


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------


def cmd_info(args, g: core.SignedGraph) -> tuple[int, dict, str]:
    deg = core.degrees(g)
    payload = {
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
        f"edges: {g.q} ({payload['positive_edges']} positive, {payload['negative_edges']} negative)",
        f"connected: {'yes' if payload['connected'] else 'no'}",
        f"triangle-free: {'yes' if payload['triangle_free'] else 'no'}",
        "vertex degree d+ d- net",
    ]
    for v in range(1, g.p + 1):
        d, dp, dn, net = deg.row(v)
        human.append(f"{v} {d} {dp} {dn} {net}")
    return 0, payload, "\n".join(human) + "\n"


def cmd_generate(args, g: None) -> tuple[int, dict, str]:
    names = ("length", "order", "pattern", "edge_prob", "neg_prob")
    params = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    out_graph = core.generate(args.kind, params, args.seed)
    text = core.dumps(out_graph)
    if args.output:
        _write(args.output, text)
    payload = {
        "kind": args.kind,
        "seed": args.seed,
        "vertices": out_graph.p,
        "edges": out_graph.edges,
    }
    return 0, payload, text


def cmd_mycielskian(args, g: core.SignedGraph) -> tuple[int, dict, str]:
    if args.balanced:
        out_graph, switching = balanced_mycielskian(g)
        lab = MycielskianLabeling(g.p)
    else:
        out_graph, lab = mycielskian(g)
        switching = None
    text = core.dumps(out_graph)
    sidecar = lab.to_json_dict()
    if args.output:
        _write(args.output, text)
        _write(args.output + ".labeling.json", _json(sidecar) + "\n")
    payload = {
        "balanced_variant": bool(args.balanced),
        "vertices": out_graph.p,
        "edges": out_graph.edges,
        "labeling": sidecar,
        "switching": switching,
    }
    return 0, payload, text


def cmd_balance(args, g: core.SignedGraph) -> tuple[int, dict, str]:
    cert = balance_mod.certify_balance(g)
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
    return 0, cert.to_json_dict(), "\n".join(human) + "\n"


def cmd_chromatic(args, g: core.SignedGraph) -> tuple[int, dict, str]:
    try:
        n, _ = coloring.chromatic_number(g, node_budget=args.budget)
        # the witness printed is the least coloring in the static order: the
        # same search loop with the static pick rule, under a budget of its own
        cert = coloring.least_coloring(g, n, node_budget=args.budget) if args.certificate else None
    except BudgetExhaustedError as exc:
        payload = {"status": "unknown", "lower_bound": exc.lower_bound, "nodes": exc.nodes}
        return 4, payload, f"unknown, chromatic number >= {exc.lower_bound}\n"
    payload = {"chromatic_number": n}
    human = [f"chromatic number: {n}"]
    if args.certificate:
        payload["colors"] = list(cert.colors)
        payload["deficiency"] = coloring.deficiency(g, cert)
        human.append(f"colors: {list(cert.colors)}")
        human.append(f"deficiency: {payload['deficiency']}")
    return 0, payload, "\n".join(human) + "\n"


_MATRIX_KINDS = ("adjacency", "incidence", "laplacian", "degree", "negjoin")


def _build_matrix(g: core.SignedGraph, kind: str, of: str) -> exactla.IntMatrix:
    # looked up per call, so a wrapper installed on a matrices function sees it
    builders = {
        "adjacency": matrices.adjacency,
        "incidence": matrices.incidence,
        "laplacian": matrices.laplacian,
        "degree": matrices.degree_matrix,
        "negjoin": matrices.negative_join,
    }
    if of == "mycielskian":
        if kind == "incidence":
            # the blocked column order, not the canonical edge order of M
            return matrices.incidence_mycielskian(g)
        g, _ = mycielskian(g)
    return builders[kind](g)


def cmd_matrix(args, g: core.SignedGraph) -> tuple[int, dict, str]:
    m = _build_matrix(g, args.kind, args.of)
    payload = {
        "kind": args.kind,
        "of": args.of,
        "rows": m.rows,
        "cols": m.cols,
        "matrix": m.entries,
    }
    return 0, payload, "".join(" ".join(map(str, row)) + "\n" for row in m.entries)


def cmd_inertia(args, g: core.SignedGraph) -> tuple[int, dict, str]:
    if args.of == "input":
        ine = exactla.inertia(matrices.adjacency(g))
    elif args.of == "mycielskian":
        # A_M = P diag(A, lower block) P^T with P invertible: the inertias
        # add, and one bordered elimination of A gives both
        ine = claims.Context(g).inertias[0]
    else:
        # the negative join is A bordered by -j, eliminated without building it
        ine = exactla.inertia(matrices.adjacency(g), border=(-1,) * g.p)[1]
    payload = {
        "of": args.of,
        "rank": ine.rank,
        "n_plus": ine.n_plus,
        "n_minus": ine.n_minus,
        "n_zero": ine.n_zero,
    }
    text = f"rank {ine.rank} n_plus {ine.n_plus} n_minus {ine.n_minus} n_zero {ine.n_zero}\n"
    return 0, payload, text


def cmd_audit(args, g: core.SignedGraph) -> tuple[int, dict, str]:
    ctx = claims.Context(g, args.budget)
    results = [claims.check(name, ctx) for name in claims.CLAIMS]
    ok = all(c["status"] != "fail" for c in results)
    payload = {"ok": ok, "claims": results}
    human = [f"{c['claim']}: {c['status']} ({c['detail']})" for c in results]
    human.append("audit: ok" if ok else "audit: FAILED")
    return (0 if ok else 1), payload, "\n".join(human) + "\n"


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process: parse_args leaves the parser as it was."""
    parser = argparse.ArgumentParser(prog="sgmyc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def with_common(p):
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        return p

    p = with_common(sub.add_parser("info", help="graph summary"))
    p.add_argument("file")

    p = with_common(sub.add_parser("generate", help="generate a signed graph"))
    p.add_argument("kind", choices=("path", "cycle", "complete", "random"))
    p.add_argument("--length", type=int)
    p.add_argument("--order", type=int)
    p.add_argument("--pattern")
    p.add_argument("--edge-prob", type=float, dest="edge_prob")
    p.add_argument("--neg-prob", type=float, dest="neg_prob")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")

    p = with_common(sub.add_parser("mycielskian", help="Mycielskian of the input"))
    p.add_argument("file")
    p.add_argument("--balanced", action="store_true", help="balanced variant, input must be balanced")
    p.add_argument("-o", "--output", help="write edge list here plus a .labeling.json sidecar")

    p = with_common(sub.add_parser("balance", help="balance certificate"))
    p.add_argument("file")

    p = with_common(sub.add_parser("chromatic", help="exact signed chromatic number"))
    p.add_argument("file")
    p.add_argument("--certificate", action="store_true", help="include a witness coloring")
    p.add_argument("--budget", type=int, help="node budget for the search")

    p = with_common(sub.add_parser("matrix", help="exact matrices"))
    p.add_argument("file")
    p.add_argument("--kind", choices=_MATRIX_KINDS, default="adjacency")
    p.add_argument("--of", choices=("input", "mycielskian"), default="input")

    p = with_common(sub.add_parser("inertia", help="rank and signature of an adjacency"))
    p.add_argument("file")
    p.add_argument("--of", choices=("input", "mycielskian", "negjoin"), default="input")

    p = with_common(sub.add_parser("audit", help="re-verify structural claims on the input"))
    p.add_argument("file")
    p.add_argument("--budget", type=int, default=2_000_000, help="node budget for chromatic checks")

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


def _run(args) -> int:
    g, digest = (None, None) if args.command == "generate" else _read_input(args.file)
    # looked up per call, not bound into the cached parser, so a wrapper
    # installed on a cmd_* function is the one that runs
    commands = {"info": cmd_info, "generate": cmd_generate, "mycielskian": cmd_mycielskian, "balance": cmd_balance,
                "chromatic": cmd_chromatic, "matrix": cmd_matrix, "inertia": cmd_inertia, "audit": cmd_audit}
    code, payload, text = commands[args.command](args, g)
    if args.json:
        # generate reads no input; its digest is that of the edge list it made
        report = dict(command=args.command, input_digest=digest or _digest(text.encode("utf-8")), **payload)
        sys.stdout.write(_json(report) + "\n")
    elif not getattr(args, "output", None):
        sys.stdout.write(text)
    return code


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(_fold_pattern_value(sys.argv[1:] if argv is None else list(argv)))
    try:
        return _run(args)
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
