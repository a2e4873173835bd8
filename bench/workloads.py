"""The four workloads: their inputs, their command lines and the checks on each output.

Every workload has a small list and a large list of operations.  An
operation is one `sgmyc` command line over an input file the benchmark
wrote itself, plus a check of the command's standard output.  Checks
compare against computations in graphs.py or against facts the
mathematics forces, never against saved output of the program.  A check
may read what earlier checks of the same list recorded about the same
graph (the chromatic number of G when checking its Mycielskian, the
three inertias of one graph), so operations are checked in list order.

The inputs are drawn from --seed.  The large inputs of `audit`,
`chromatic` and `spectral` keep their underlying graph fixed and take
only a switching or a labeling from the seed: a new underlying graph
moves the work of one elimination or one coloring search by a third or
more, which would swamp the change a later optimisation makes, while a
switching leaves the mathematics, and the work, as they were.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from itertools import product
from typing import Callable

import graphs as G

CLAIMS = (
    "mycielskian-counts",
    "mycielskian-degrees",
    "balance-characterization",
    "balanced-mycielskian",
    "chromatic-sandwich",
    "inertia-additivity",
    "incidence-laplacian",
    "laplacian-balance",
)

# Tiny balanced input for the set-up measurement: C4 with two negative edges.
TINY = G.canon(4, [(1, 2, -1), (2, 3, 1), (3, 4, -1), (1, 4, 1)])


class CheckFailed(Exception):
    """An output that contradicts what the benchmark computed or the mathematics forces."""


def need(cond, message):
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    argv: list[str]
    list: str                      # "small" or "large"
    check: Callable[[str], None]   # raises CheckFailed on a wrong output; exit 0 is checked apart


@dataclass
class Workload:
    small: list[Op]
    large: list[Op]
    tiny_argv: list[str]

    @property
    def ops(self):
        return self.small + self.large


class Inputs:
    """Writes input files into the run's work directory."""

    def __init__(self, workdir):
        self.workdir = workdir

    def write(self, name, g):
        path = os.path.join(self.workdir, name + ".txt")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(G.dumps(g))
        return path


# ---------------------------------------------------------------------------
# shared checks


def is_all(g, sign):
    return all(s == sign for _, _, s in g[1])


def check_negative_cycle(g, cycle):
    sign = {(u, v): s for u, v, s in g[1]}
    need(len(cycle) >= 3 and len(set(cycle)) == len(cycle), f"witness {cycle} is not a simple cycle")
    total = 1
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        s = sign.get((min(a, b), max(a, b)))
        need(s is not None, f"witness {cycle} uses the non-edge {a}-{b}")
        total *= s
    need(total == -1, f"witness {cycle} is a positive cycle")


def check_switching(g, zeta):
    need(zeta is not None and len(zeta) == g[0] and set(zeta) <= {1, -1}, "malformed switching")
    need(is_all(G.switch(g, zeta), 1), "switching leaves a negative edge")


def check_chi_pair(g, n, n_m):
    """The sandwich chi <= chi(M) <= chi + 1, with its two forced cases.

    Only literal all-positive and all-negative input force the answer:
    the Mycielskian of a switching of g is not a switching of the
    Mycielskian of g, because the root star keeps its + signs.
    """
    need(n <= n_m <= n + 1, f"chi(M) = {n_m} outside [{n}, {n + 1}]")
    if g[1] and is_all(g, 1):
        need(n_m == n + 1, f"all-positive input: chi(M) = {n_m}, expected {n + 1}")
    if g[1] and is_all(g, -1):
        need(n_m == n, f"all-negative input: chi(M) = {n_m}, expected {n}")


# ---------------------------------------------------------------------------
# audit


def audit_check(g, balanced, chi=None):
    """Check one `sgmyc audit` report on g, whose balance is known from its construction."""
    p, edges = g
    q = len(edges)
    r = sum(1 for _, _, s in edges if s == 1)

    def check(out):
        lines = out.splitlines()
        need(lines and lines[-1] == "audit: ok", "audit did not end with 'audit: ok'")
        claims = {}
        for line in lines[:-1]:
            m = re.fullmatch(r"([a-z-]+): (pass|fail|skipped) \((.*)\)", line)
            need(m is not None, f"unreadable claim line {line!r}")
            claims[m[1]] = (m[2], m[3])
        need(tuple(claims) == CLAIMS, f"claims {list(claims)}")
        for name, (status, detail) in claims.items():
            need(status != "fail", f"{name} failed")
            need("budget" not in detail, f"{name} skipped for budget: {detail}")
        need(claims["laplacian-balance"][0] == "pass", "laplacian-balance skipped on connected input")
        need(
            (claims["balanced-mycielskian"][0] == "skipped") == (not balanced),
            "balanced-mycielskian skipped on balanced input" if balanced
            else "balanced-mycielskian decided on unbalanced input",
        )
        need(
            claims["mycielskian-counts"][1] == f"vertices {2 * p + 1}, edges {3 * q + p}, positive {3 * r + p}",
            f"counts {claims['mycielskian-counts'][1]}",
        )
        m_g = G.mycielskian(g)
        detail = claims["balance-characterization"][1]
        if is_all(g, 1):
            need(detail == "balanced Mycielskian", detail)
        else:
            m = re.fullmatch(r"negative 5-cycle \[([\d, ]+)\]", detail)
            need(m is not None, detail)
            cycle = [int(x) for x in m[1].split(",")]
            need(len(cycle) == 5, f"witness {cycle} is not a 5-cycle")
            check_negative_cycle(m_g, cycle)
        m = re.fullmatch(r"chi (\d+), Mycielskian chi (\d+)", claims["chromatic-sandwich"][1])
        need(m is not None, claims["chromatic-sandwich"][1])
        n, n_m = int(m[1]), int(m[2])
        if chi is not None:
            need(n == chi, f"chi {n}, expected {chi}")
        check_chi_pair(g, n, n_m)
        triple = r"\((\d+), (\d+), (\d+)\)"
        m = re.fullmatch(f"inertia {triple} from blocks {triple} \\+ {triple}", claims["inertia-additivity"][1])
        need(m is not None, claims["inertia-additivity"][1])
        whole, top, low = [tuple(int(x) for x in m.groups()[k:k + 3]) for k in (0, 3, 6)]
        need(sum(whole) == 2 * p + 1 and sum(top) == p and sum(low) == p + 1, "inertia counts do not sum to the orders")
        need(whole == tuple(a + b for a, b in zip(top, low)), "inertia not additive")
        need(whole[0] + whole[1] == G.rank_mod(G.adjacency(m_g), 2 * p + 1), "rank of A_M")
        need(top[0] + top[1] == G.rank_mod(G.adjacency(g), p), "rank of A")

    return check


def cycle_graph(pattern):
    k = len(pattern)
    return G.canon(k, [(i, i % k + 1, 1 if c == "+" else -1) for i, c in enumerate(pattern, start=1)])


def path_graph(pattern):
    return G.canon(len(pattern) + 1, [(i, i + 1, 1 if c == "+" else -1) for i, c in enumerate(pattern, start=1)])


def audit(seed, inputs):
    small, large = [], []

    def add(ops, name, g, balanced, chi=None):
        ops.append(Op(["audit", inputs.write(name, g)], "small" if ops is small else "large",
                      audit_check(g, balanced, chi)))

    for k in (3, 4, 5):
        for pattern in product("+-", repeat=k):
            g = cycle_graph(pattern)
            add(small, "cycle" + "".join(pattern), g, pattern.count("-") % 2 == 0, G.brute_chromatic(g))
    for k in (1, 2, 3, 4):
        for pattern in product("+-", repeat=k):
            g = path_graph(pattern)
            add(small, "path" + "".join(pattern), g, True, G.brute_chromatic(g))
    rng = G.rng_for(seed, "audit-small")
    for k in range(24):
        p = 6 + k % 4
        g = G.random_connected(p, p + 2 + k % 3, rng)
        if k % 2:
            g = G.random_signs(g, rng)
            balanced = G.balance(g)[0]
        else:
            g, balanced = G.switch(g, G.random_switching(p, rng)), True
        add(small, f"random{k}", g, balanced, G.brute_chromatic(g) if p <= 7 else None)

    rng = G.rng_for(seed, "audit-large")
    bipartite = G.random_balanced_bipartite(48, 100, G.rng_for(0, "audit-large-bipartite"))
    negative = G.all_negative(G.random_connected(52, 110, G.rng_for(0, "audit-large-negative")))
    add(large, "bipartite48", G.switch(bipartite, G.random_switching(48, rng)), True, 2)
    add(large, "negative52", G.relabel(negative, rng), False, 2)
    return Workload(small, large, ["audit", inputs.write("tiny", TINY)])


# ---------------------------------------------------------------------------
# chromatic


def chromatic_check(g, memo, key, chi=None, pair_of=None):
    """Check `sgmyc chromatic --certificate` on g.

    chi is the known answer; pair_of names the graph whose Mycielskian g
    is, so the sandwich is checked against the answer recorded for it.
    """

    def check(out):
        m = re.fullmatch(r"chromatic number: (\d+)\ncolors: \[([-\d, ]*)\]\ndeficiency: (\d+)\n", out)
        need(m is not None, "unreadable chromatic report")
        n = int(m[1])
        colors = [int(x) for x in m[2].split(",")] if m[2] else []
        need(G.is_proper(g, n, colors), f"witness is not a proper coloring over M_{n}")
        need(int(m[3]) == n - len(set(colors)), "deficiency")
        if chi is not None:
            need(n == chi, f"chi {n}, expected {chi}")
        if pair_of is not None:
            need(pair_of in memo, f"no checked answer for {pair_of}")
            base, n_base = memo[pair_of]
            check_chi_pair(base, n_base, n)
        memo[key] = (g, n)

    return check


def chromatic(seed, inputs):
    small, large = [], []
    memo = {}

    def add(ops, name, g, **kw):
        ops.append(Op(["chromatic", "--certificate", inputs.write(name, g)],
                      "small" if ops is small else "large", chromatic_check(g, memo, name, **kw)))

    rng = G.rng_for(seed, "chromatic-small")
    for k in range(60):
        p = 6 + k % 4
        base = G.random_connected(p, p + 3, rng)
        for variant, g in (("mixed", G.random_signs(base, rng)), ("positive", base), ("negative", G.all_negative(base))):
            name = f"g{k}{variant}"
            add(small, name, g, chi=G.brute_chromatic(g) if p <= 6 else None)
            add(small, name + "-m", G.mycielskian(g), pair_of=name)

    rng = G.rng_for(seed, "chromatic-large")
    level5 = G.tower(5)
    add(large, "tower5", level5, chi=5)
    for k in range(2):
        add(large, f"tower5-switched{k}", G.switch(level5, G.random_switching(level5[0], rng)), chi=5)
    # Kept on purpose: the solver recurses once per vertex, so this path
    # fails with RecursionError until the search is made iterative.
    add(large, "path3000", path_graph("+" * 2999), chi=2)
    return Workload(small, large, ["chromatic", "--certificate", inputs.write("tiny", TINY)])


# ---------------------------------------------------------------------------
# spectral


def dense_from(rows):
    return {(i, j): x for i, row in enumerate(rows) for j, x in enumerate(row) if x}


def inertia_check(g, memo, key, of):
    if of == "input":
        matrix, order = G.adjacency(g), g[0]
    elif of == "mycielskian":
        matrix, order = G.adjacency(G.mycielskian(g)), 2 * g[0] + 1
    else:
        matrix, order = G.negative_join(g), g[0] + 1

    def check(out):
        m = re.fullmatch(r"rank (\d+) n_plus (\d+) n_minus (\d+) n_zero (\d+)\n", out)
        need(m is not None, "unreadable inertia report")
        rank, plus, minus, zero = (int(x) for x in m.groups())
        need(plus + minus + zero == order, f"inertia {plus, minus, zero} does not sum to {order}")
        need(rank == plus + minus == G.rank_mod(matrix, order), f"rank {rank} of the {of} matrix")
        memo[key, of] = (plus, minus)
        if of == "negjoin":
            (ap, am), (mp, mm), (jp, jm) = memo[key, "input"], memo[key, "mycielskian"], memo[key, "negjoin"]
            need((mp, mm) == (ap + jm, am + jp), "n+-(A_M) != n+-(A) + n-+(negjoin)")

    return check


def matrix_check(g, memo, key, kind):
    m_g = G.mycielskian(g)
    p, q = m_g[0], len(m_g[1])

    def check(out):
        report = json.loads(out)
        rows = report.get("matrix")
        need(report.get("rows") == p and isinstance(rows, list) and len(rows) == p, "matrix rows")
        if kind == "incidence":
            need(report.get("cols") == q and all(len(row) == q for row in rows), "incidence columns")
            h = dense_from(rows)
            columns = {}
            for (i, k), x in h.items():
                columns.setdefault(k, []).append((i + 1, x))
            edges = []
            for k, entries in sorted(columns.items()):
                need(len(entries) == 2 and all(x in (1, -1) for _, x in entries),
                     f"column {k} is not a signed edge")
                (u, x), (v, y) = sorted(entries)
                edges.append((u, v, -x * y))
            need(len(edges) == q and sorted(edges) == list(m_g[1]), "incidence columns are not the edges of M")
            memo[key, "incidence"] = h
        else:
            need(report.get("cols") == p, "laplacian columns")
            lap = dense_from(rows)
            need(lap == G.laplacian(m_g), "Laplacian of M differs from D - A of the definition")
            need((key, "incidence") in memo, "no checked incidence matrix of the same graph")
            need(G.gram(memo[key, "incidence"]) == lap, "H H^T != L")

    return check


SPECTRAL_COMMANDS = (
    (["inertia", "--of", "input"], inertia_check, "input"),
    (["inertia", "--of", "mycielskian"], inertia_check, "mycielskian"),
    (["inertia", "--of", "negjoin"], inertia_check, "negjoin"),
    (["matrix", "--kind", "incidence", "--of", "mycielskian", "--json"], matrix_check, "incidence"),
    (["matrix", "--kind", "laplacian", "--of", "mycielskian", "--json"], matrix_check, "laplacian"),
)


def spectral(seed, inputs):
    small, large = [], []
    memo = {}

    def add(ops, name, g):
        path = inputs.write(name, g)
        for argv, make, what in SPECTRAL_COMMANDS:
            ops.append(Op(argv + [path], "small" if ops is small else "large", make(g, memo, name, what)))

    rng = G.rng_for(seed, "spectral-small")
    for k in range(24):
        p = 10 + k % 12
        add(small, f"g{k}", G.random_signs(G.random_connected(p, p + p // 2, rng), rng))

    rng = G.rng_for(seed, "spectral-large")
    base_rng = G.rng_for(0, "spectral-large-base")
    base = G.random_signs(G.random_connected(64, 128, base_rng), base_rng)
    add(large, "random64", G.switch(base, G.random_switching(64, rng)))
    base = G.random_signs(G.random_connected(72, 144, base_rng), base_rng)
    add(large, "random72", G.switch(base, G.random_switching(72, rng)))
    return Workload(small, large, ["inertia", "--of", "mycielskian", inputs.write("tiny", TINY)])


# ---------------------------------------------------------------------------
# structure


def triangle_free(g):
    adj = [set() for _ in range(g[0] + 1)]
    for u, v, _ in g[1]:
        adj[u].add(v)
        adj[v].add(u)
    return not any(adj[u] & adj[v] for u, v, _ in g[1])


def info_check(g, as_json):
    p, edges = g
    rows = G.degree_rows(g)
    pos = sum(1 for _, _, s in edges if s == 1)
    connected, tri_free = G.is_connected(g), triangle_free(g)

    def check(out):
        if as_json:
            report = json.loads(out)
            need(report.get("vertices") == p and report.get("edges") == len(edges), "counts")
            need(report.get("positive_edges") == pos and report.get("negative_edges") == len(edges) - pos,
                 "sign counts")
            need(report.get("connected") is connected and report.get("triangle_free") is tri_free, "flags")
            need(report.get("degrees") == rows, "degree table")
            return
        yes = {True: "yes", False: "no"}
        want = [
            f"vertices: {p}",
            f"edges: {len(edges)} ({pos} positive, {len(edges) - pos} negative)",
            f"connected: {yes[connected]}",
            f"triangle-free: {yes[tri_free]}",
            "vertex degree d+ d- net",
        ] + [f"{v} {' '.join(map(str, row))}" for v, row in enumerate(rows, start=1)]
        need(out.splitlines() == want, "info report")

    return check


def balance_check(g, as_json):
    balanced = G.balance(g)[0]

    def check(out):
        if as_json:
            report = json.loads(out)
            verdict, zeta, parts, witness = (report.get(k) for k in ("balanced", "switching", "bipartition", "witness_cycle"))
        else:
            lines = out.splitlines()
            verdict = lines[0] == "balanced: yes"
            zeta = parts = witness = None
            if verdict:
                m = re.fullmatch(r"switching to all-positive: \[([-\d, ]*)\]", lines[2])
                need(m is not None, "unreadable switching")
                zeta = [int(x) for x in m[1].split(",")]
            else:
                m = re.fullmatch(r"negative cycle: \[([\d, ]*)\]", lines[1])
                need(m is not None, "unreadable witness")
                witness = [int(x) for x in m[1].split(",")]
        need(verdict == balanced, f"verdict {verdict}, expected {balanced}")
        if balanced:
            check_switching(g, zeta)
            if parts is not None:
                need(all((parts[u - 1] != parts[v - 1]) == (s == -1) for u, v, s in g[1]),
                     "bipartition does not cut exactly the negative edges")
        else:
            check_negative_cycle(g, witness)

    return check


def mycielskian_check(g, balanced_variant, as_json):
    want = G.mycielskian(g)
    underlying = [(u, v) for u, v, _ in want[1]]

    def check(out):
        if as_json:
            report = json.loads(out)
            got = (report.get("vertices"), tuple(tuple(e) for e in report.get("edges", ())))
            p = g[0]
            need(report.get("labeling") == {"original": list(range(1, p + 1)),
                                            "twin": list(range(p + 1, 2 * p + 1)), "root": 2 * p + 1},
                 "labeling")
            zeta = report.get("switching")
        else:
            got, zeta = G.parse_edge_list(out), None
        if not balanced_variant:
            need(got == want, "Mycielskian differs from the definition")
            need(zeta is None, "switching on the plain Mycielskian")
            return
        need(got[0] == want[0] and [(u, v) for u, v, _ in got[1]] == underlying,
             "balanced Mycielskian has other underlying edges than the Mycielskian")
        if as_json:
            check_switching(got, zeta)
        else:
            need(G.balance(got)[0], "balanced Mycielskian is unbalanced")

    return check


STRUCTURE_COMMANDS = {
    "info": (["info"], lambda g: info_check(g, False)),
    "info-json": (["info", "--json"], lambda g: info_check(g, True)),
    "balance": (["balance"], lambda g: balance_check(g, False)),
    "balance-json": (["balance", "--json"], lambda g: balance_check(g, True)),
    "myc": (["mycielskian"], lambda g: mycielskian_check(g, False, False)),
    "myc-json": (["mycielskian", "--json"], lambda g: mycielskian_check(g, False, True)),
    "bmyc": (["mycielskian", "--balanced"], lambda g: mycielskian_check(g, True, False)),
    "bmyc-json": (["mycielskian", "--balanced", "--json"], lambda g: mycielskian_check(g, True, True)),
}


def structure(seed, inputs):
    small, large = [], []

    def add(ops, name, g, commands):
        path = inputs.write(name, g)
        for command in commands:
            argv, make = STRUCTURE_COMMANDS[command]
            ops.append(Op(argv + [path], "small" if ops is small else "large", make(g)))

    rng = G.rng_for(seed, "structure-small")
    for k in range(40):
        p = 40 + 4 * k
        g = G.random_connected(p, 2 * p, rng)
        if k % 2:
            add(small, f"g{k}", G.random_signs(g, rng), ["info", "info-json", "balance", "balance-json", "myc", "myc-json"])
        else:
            add(small, f"g{k}", G.switch(g, G.random_switching(p, rng)), list(STRUCTURE_COMMANDS))

    rng = G.rng_for(seed, "structure-large")
    for level, commands in ((11, ["info", "balance", "myc", "bmyc"]),
                            (10, ["info-json", "balance-json", "myc-json", "bmyc-json"])):
        g = G.tower(level)
        add(large, f"tower{level}", G.switch(g, G.random_switching(g[0], rng)), commands)
    add(large, "sparse3000", G.random_signs(G.random_connected(3000, 4500, rng), rng), ["info", "balance", "myc"])
    g = G.random_connected(4000, 6000, rng)
    add(large, "sparse4000", G.switch(g, G.random_switching(4000, rng)), ["balance-json", "bmyc"])
    return Workload(small, large, ["mycielskian", "--balanced", inputs.write("tiny", TINY)])


WORKLOADS = {"audit": audit, "chromatic": chromatic, "spectral": spectral, "structure": structure}
