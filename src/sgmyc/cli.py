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
indent encoder is pure Python.  The matrix payload holds the IntMatrix
itself, and both its text and its JSON are spliced from the nonzeros into
one all-zero row text, so no dense row is built.  Each cmd_* returns (exit code, payload),
and its text_* renderer makes the text from the payload alone.  Only _run
reads the input and writes stdout and -o; it renders the text only to print,
write or digest it.  Identical input and flags produce byte-identical output.

main pauses the cyclic garbage collector while a command runs, and turns
it back on only if it was on.  Each edge tuple built counts toward the
next collection, so a large graph sets off hundreds, all wasted: no command
makes a reference cycle (tests/test_cli.py checks gc.collect() after each).

Exit codes: 0 success, 1 failed audit claim, 2 malformed input or out
of memory, 3 violated precondition, 4 exhausted search budget.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import sys
from itertools import chain
from typing import Iterator

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

    An IntMatrix prints as the list of its rows, spliced from its nonzeros
    (_matrix_rows).  A list of ints is one join, and a list of non-empty
    int rows of one length is one row template per row, both at C speed;
    anything else recurses, down to json.dumps of a scalar, an empty
    container or a key.
    Items are tested by their exact type, so a bool never prints as an int.
    """
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(obj, exactla.IntMatrix):
        if not obj.rows:
            return "[]"
        row_sep = ",\n" + inner + "  "
        rows = _matrix_rows(obj, "[" + row_sep[1:], row_sep, "\n" + inner + "]") if obj.cols else ["[]"] * obj.rows
        return "[\n" + inner + sep.join(rows) + "\n" + indent + "]"
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        return json.dumps(obj)
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


def _matrix_rows(m: exactla.IntMatrix, first: str, sep: str, last: str) -> Iterator[str]:
    """Each row of m as first + sep.join(its entries) + last.

    The all-zero row is made once; each row is that text with its
    nonzeros spliced in, entry j at offset len(first) + j (len(sep) + 1).
    """
    zero = first + sep.join("0" * m.cols) + last
    step = len(sep) + 1
    for row in m.nonzeros:
        text, at = [], 0
        for j, x in sorted(row.items()):
            k = len(first) + j * step
            text += zero[at:k], str(x)
            at = k + 1
        text.append(zero[at:])
        yield "".join(text)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------


def cmd_info(args, g: core.SignedGraph) -> tuple[int, dict]:
    return 0, {
        "vertices": g.p,
        "edges": g.q,
        "positive_edges": g.positive_count,
        "negative_edges": g.negative_count,
        "connected": core.is_connected(g),
        "triangle_free": core.is_triangle_free(g),
        "degrees": core.degrees(g),
    }


def text_info(payload: dict) -> str:
    head = [
        f"vertices: {payload['vertices']}",
        f"edges: {payload['edges']} ({payload['positive_edges']} positive, {payload['negative_edges']} negative)",
        f"connected: {'yes' if payload['connected'] else 'no'}",
        f"triangle-free: {'yes' if payload['triangle_free'] else 'no'}",
        "vertex degree d+ d- net",
    ]
    rows = (f"{v} {d} {dp} {dn} {net}" for v, (d, dp, dn, net) in enumerate(payload["degrees"], 1))
    return "\n".join(chain(head, rows)) + "\n"


def cmd_generate(args, g: None) -> tuple[int, dict]:
    names = ("length", "order", "pattern", "edge_prob", "neg_prob")
    params = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    out_graph = core.generate(args.kind, params, args.seed)
    return 0, {"kind": args.kind, "seed": args.seed, "vertices": out_graph.p, "edges": out_graph.edges}


def text_edge_list(payload: dict) -> str:
    # the text of generate and of mycielskian: the edge list of the graph made
    return core.dumps(core.SignedGraph(payload["vertices"], payload["edges"]))


def cmd_mycielskian(args, g: core.SignedGraph) -> tuple[int, dict]:
    if args.balanced:
        out_graph, switching = balanced_mycielskian(g)
        lab = MycielskianLabeling(g.p)
    else:
        out_graph, lab = mycielskian(g)
        switching = None
    return 0, {
        "balanced_variant": bool(args.balanced),
        "vertices": out_graph.p,
        "edges": out_graph.edges,
        "labeling": lab.to_json_dict(),
        "switching": switching,
    }


def cmd_balance(args, g: core.SignedGraph) -> tuple[int, dict]:
    return 0, balance_mod.certify_balance(g).to_json_dict()


def text_balance(payload: dict) -> str:
    if not payload["balanced"]:
        return f"balanced: no\nnegative cycle: {payload['witness_cycle']}\n"
    part1, part2 = ([v for v, side in enumerate(payload["bipartition"], 1) if side == k] for k in (1, 2))
    return f"balanced: yes\nbipartition: {part1} | {part2}\nswitching to all-positive: {payload['switching']}\n"


def cmd_chromatic(args, g: core.SignedGraph) -> tuple[int, dict]:
    try:
        n, _ = coloring.chromatic_number(g, node_budget=args.budget)
        # the witness printed is the least coloring in the static order: the
        # same search loop with the static pick rule, under a budget of its own
        cert = coloring.least_coloring(g, n, node_budget=args.budget) if args.certificate else None
    except BudgetExhaustedError as exc:
        return 4, {"status": "unknown", "lower_bound": exc.lower_bound, "nodes": exc.nodes}
    witness = {"colors": list(cert.colors), "deficiency": coloring.deficiency(g, cert)} if args.certificate else {}
    return 0, {"chromatic_number": n, **witness}


def text_chromatic(payload: dict) -> str:
    if "status" in payload:
        return f"unknown, chromatic number >= {payload['lower_bound']}\n"
    witness = f"colors: {payload['colors']}\ndeficiency: {payload['deficiency']}\n" if "colors" in payload else ""
    return f"chromatic number: {payload['chromatic_number']}\n" + witness


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


def cmd_matrix(args, g: core.SignedGraph) -> tuple[int, dict]:
    m = _build_matrix(g, args.kind, args.of)
    return 0, {"kind": args.kind, "of": args.of, "rows": m.rows, "cols": m.cols, "matrix": m}


def text_matrix(payload: dict) -> str:
    return "".join(_matrix_rows(payload["matrix"], "", " ", "\n"))


def cmd_inertia(args, g: core.SignedGraph) -> tuple[int, dict]:
    if args.of == "input":
        ine = exactla.inertia(matrices.adjacency(g))
    elif args.of == "mycielskian":
        # A_M = P diag(A, lower block) P^T with P invertible: the inertias add
        ine = claims.Context(g).inertias[0]
    else:
        ine = exactla.inertia(matrices.negative_join(g))
    return 0, {"of": args.of, "rank": ine.rank, "n_plus": ine.n_plus, "n_minus": ine.n_minus, "n_zero": ine.n_zero}


def text_inertia(payload: dict) -> str:
    return "rank {rank} n_plus {n_plus} n_minus {n_minus} n_zero {n_zero}\n".format_map(payload)


def cmd_audit(args, g: core.SignedGraph) -> tuple[int, dict]:
    ctx = claims.Context(g, args.budget)
    results = [claims.check(name, ctx) for name in claims.CLAIMS]
    ok = all(c["status"] != "fail" for c in results)
    return (0 if ok else 1), {"ok": ok, "claims": results}


def text_audit(payload: dict) -> str:
    lines = [f"{c['claim']}: {c['status']} ({c['detail']})" for c in payload["claims"]]
    lines.append("audit: ok" if payload["ok"] else "audit: FAILED")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process: parse_args leaves the parser as it was."""

    class Parser(argparse.ArgumentParser):
        # a usage error is one line, like every other failure; subparsers inherit this
        def error(self, message):
            self.exit(2, f"error: {message}\n")

    parser = Parser(prog="sgmyc", description=__doc__.splitlines()[0])
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
    # installed on a cmd_* or text_* function is the one that runs
    commands = {"info": (cmd_info, text_info), "generate": (cmd_generate, text_edge_list),
                "mycielskian": (cmd_mycielskian, text_edge_list), "balance": (cmd_balance, text_balance),
                "chromatic": (cmd_chromatic, text_chromatic), "matrix": (cmd_matrix, text_matrix),
                "inertia": (cmd_inertia, text_inertia), "audit": (cmd_audit, text_audit)}
    command, render = commands[args.command]
    code, payload = command(args, g)
    output = getattr(args, "output", None)
    # the text is rendered only to be printed, written to -o, or digested:
    # generate reads no input, and its digest is that of the edge list it made
    text = render(payload) if not args.json or output or digest is None else None
    if output:
        # the edge list before its sidecar, so an unwritable -o path is named in the error
        _write(output, text)
        if args.command == "mycielskian":
            _write(output + ".labeling.json", _json(payload["labeling"]) + "\n")
    if args.json:
        report = dict(command=args.command, input_digest=digest or _digest(text.encode("utf-8")), **payload)
        sys.stdout.write(_json(report) + "\n")
    elif not output:
        sys.stdout.write(text)
    return code


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(_fold_pattern_value(sys.argv[1:] if argv is None else list(argv)))
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(args)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, OverflowError):
        # a count of 2**63 or more overflows a list's length before allocating
        print("error: out of memory; the input is too large for this command", file=sys.stderr)
        return 2
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
