"""Command line behavior: output bytes, JSON reports, exit codes."""

import io
import json
import os
import pathlib
import tempfile
import time
from contextlib import redirect_stdout

import pytest
from hypothesis import example, given, settings

from conftest import (
    K2_NEG,
    K2_POS,
    SQUARE_ONE_NEG,
    SQUARE_TWO_NEG,
    SQUARE_TWO_NEG_BALANCED_MYC_TEXT,
    write_graph,
)
from strategies import signed_graphs
from sgmyc import cli
from sgmyc.cli import main
from sgmyc.core import canonicalize, dumps, generate, loads
from sgmyc.exactla import inertia
from sgmyc.matrices import adjacency_mycielskian
from sgmyc.mycielskian import tower

PINNED = pathlib.Path(__file__).parent / "audit_pinned"

# audit inputs whose text and --json reports are frozen in PINNED, with extra flags
PINNED_AUDITS = {
    "square_one_neg": (SQUARE_ONE_NEG, []),
    "square_two_neg": (SQUARE_TWO_NEG, []),
    "null": (canonicalize(0, []), []),
    "disconnected": (canonicalize(5, [(1, 2, -1), (3, 4, 1), (4, 5, -1)]), []),
    "tower4": (tower(4)[3], []),
    "budget5": (SQUARE_TWO_NEG, ["--budget", "5"]),
    # all-positive and connected: the one pinned input whose Mycielskian Laplacian is singular
    "cycle5_positive": (canonicalize(5, [(i, i % 5 + 1, 1) for i in range(1, 6)]), []),
}

# the public claim names, in report order
CLAIM_NAMES = [
    "mycielskian-counts",
    "mycielskian-degrees",
    "balance-characterization",
    "balanced-mycielskian",
    "chromatic-sandwich",
    "inertia-additivity",
    "incidence-laplacian",
    "laplacian-balance",
]

# small and degenerate inputs on which every injected fault must show
FAULT_GRAPHS = {
    "null": canonicalize(0, []),
    "K1": canonicalize(1, []),
    "edgeless3": canonicalize(3, []),
    "K2+": K2_POS,
    "K2-": K2_NEG,
    "square_one_neg": SQUARE_ONE_NEG,
    "square_two_neg": SQUARE_TWO_NEG,
    "disconnected": canonicalize(5, [(1, 2, -1), (3, 4, 1), (4, 5, -1)]),
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInfo:
    def test_human(self, tmp_path, capsys):
        path = write_graph(tmp_path, SQUARE_ONE_NEG)
        code, out, _ = run(capsys, "info", path)
        assert code == 0
        assert "vertices: 4" in out
        assert "edges: 4 (3 positive, 1 negative)" in out
        assert "connected: yes" in out
        assert "triangle-free: yes" in out
        assert "3 2 2 0 2" in out

    def test_json(self, tmp_path, capsys):
        path = write_graph(tmp_path, SQUARE_ONE_NEG)
        code, out, _ = run(capsys, "info", "--json", path)
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "info"
        assert report["input_digest"].startswith("sha256:")
        assert report["vertices"] == 4
        assert report["degrees"][2] == [2, 2, 0, 2]

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(dumps(SQUARE_ONE_NEG)))
        code, out, _ = run(capsys, "info", "-")
        assert code == 0 and "vertices: 4" in out


class TestGenerate:
    def test_cycle_pattern_bytes(self, capsys):
        code, out, _ = run(capsys, "generate", "cycle", "--length", "4", "--pattern", "-+++")
        assert code == 0
        assert out == dumps(SQUARE_ONE_NEG)

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "out.txt"
        code, out, _ = run(capsys, "generate", "complete", "--order", "3", "-o", str(target))
        assert code == 0 and out == ""
        assert loads(target.read_text()) == generate("complete", {"order": 3})

    def test_random_deterministic(self, capsys):
        runs = [
            run(capsys, "generate", "random", "--order", "6", "--seed", "3")[1]
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_seed_changes_output(self, capsys):
        a = run(capsys, "generate", "random", "--order", "7", "--seed", "1")[1]
        b = run(capsys, "generate", "random", "--order", "7", "--seed", "2")[1]
        assert a != b

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("SG_SEED", "9")
        with_env = run(capsys, "generate", "random", "--order", "6", "--seed", "1")[1]
        monkeypatch.delenv("SG_SEED")
        explicit = run(capsys, "generate", "random", "--order", "6", "--seed", "9")[1]
        assert with_env == explicit

    def test_env_seed_must_be_int(self, capsys, monkeypatch):
        monkeypatch.setenv("SG_SEED", "soon")
        code, _, err = run(capsys, "generate", "random", "--order", "4")
        assert code == 2 and "SG_SEED" in err

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "generate", "cycle", "--length", "3", "--json")
        report = json.loads(out)
        assert code == 0
        assert report["kind"] == "cycle"
        assert report["edges"] == [[1, 2, 1], [1, 3, 1], [2, 3, 1]]

    def test_bad_params_exit_two(self, capsys):
        code, _, err = run(capsys, "generate", "cycle", "--length", "2")
        assert code == 2 and "error:" in err

    def test_hopeless_random_draw_gives_up_quickly(self, capsys):
        start = time.perf_counter()
        code, _, err = run(capsys, "generate", "random", "--order", "60", "--edge-prob", "0.01")
        assert code == 2
        assert "could not draw a connected graph on 60 vertices with edge_prob=0.01" in err
        assert time.perf_counter() - start < 5.0


class TestMycielskian:
    def test_stdout(self, tmp_path, capsys):
        path = write_graph(tmp_path, K2_POS)
        code, out, _ = run(capsys, "mycielskian", path)
        assert code == 0
        assert out == "5 5\n1 2 +1\n1 4 +1\n2 3 +1\n3 5 +1\n4 5 +1\n"

    def test_output_with_sidecar(self, tmp_path, capsys):
        path = write_graph(tmp_path, SQUARE_ONE_NEG)
        target = tmp_path / "m.txt"
        code, out, _ = run(capsys, "mycielskian", path, "-o", str(target))
        assert code == 0 and out == ""
        got = loads(target.read_text())
        assert got.p == 9 and got.q == 16
        sidecar = json.loads((tmp_path / "m.txt.labeling.json").read_text())
        assert sidecar == {
            "original": [1, 2, 3, 4],
            "twin": [5, 6, 7, 8],
            "root": 9,
        }

    def test_balanced_variant_bytes(self, tmp_path, capsys):
        path = write_graph(tmp_path, SQUARE_TWO_NEG)
        code, out, _ = run(capsys, "mycielskian", "--balanced", path)
        assert code == 0
        assert out == SQUARE_TWO_NEG_BALANCED_MYC_TEXT

    def test_balanced_json_carries_switching(self, tmp_path, capsys):
        path = write_graph(tmp_path, SQUARE_TWO_NEG)
        code, out, _ = run(capsys, "mycielskian", "--balanced", "--json", path)
        report = json.loads(out)
        assert code == 0
        assert report["balanced_variant"] is True
        assert report["switching"] == [-1, 1, -1, -1, -1, 1, -1, -1, 1]

    def test_balanced_rejects_unbalanced_input(self, tmp_path, capsys):
        path = write_graph(tmp_path, SQUARE_ONE_NEG)
        code, _, err = run(capsys, "mycielskian", "--balanced", path)
        assert code == 3
        assert "unbalanced" in err


class TestBalance:
    def test_balanced_json(self, tmp_path, capsys):
        path = write_graph(tmp_path, SQUARE_TWO_NEG)
        code, out, _ = run(capsys, "balance", "--json", path)
        report = json.loads(out)
        assert code == 0
        assert report["balanced"] is True
        assert report["bipartition"] == [1, 2, 1, 1]
        assert report["switching"] == [1, -1, 1, 1]
        assert report["witness_cycle"] is None

    def test_unbalanced_human(self, tmp_path, capsys):
        path = write_graph(tmp_path, SQUARE_ONE_NEG)
        code, out, _ = run(capsys, "balance", path)
        assert code == 0
        assert "balanced: no" in out
        assert "negative cycle:" in out


class TestChromatic:
    def test_plain(self, tmp_path, capsys):
        path = write_graph(tmp_path, SQUARE_ONE_NEG)
        code, out, _ = run(capsys, "chromatic", path)
        assert code == 0
        assert out == "chromatic number: 3\n"

    def test_certificate(self, tmp_path, capsys):
        path = write_graph(tmp_path, SQUARE_ONE_NEG)
        code, out, _ = run(capsys, "chromatic", "--certificate", "--json", path)
        report = json.loads(out)
        assert code == 0
        assert report["chromatic_number"] == 3
        assert report["colors"] == [0, 1, 0, 1]
        assert report["deficiency"] == 1

    def test_budget_exit_four(self, tmp_path, capsys):
        path = write_graph(tmp_path, tower(4)[3])
        code, out, _ = run(capsys, "chromatic", "--budget", "30", path)
        assert code == 4
        assert "unknown, chromatic number >=" in out

    def test_budget_exit_four_json(self, tmp_path, capsys):
        path = write_graph(tmp_path, tower(4)[3])
        code, out, _ = run(capsys, "chromatic", "--budget", "30", "--json", path)
        report = json.loads(out)
        assert code == 4
        assert report["status"] == "unknown"
        assert report["lower_bound"] >= 1

    def test_budget_json_reports_digest_and_nodes(self, tmp_path, capsys):
        path = write_graph(tmp_path, tower(4)[3])
        code, out, _ = run(capsys, "chromatic", "--budget", "30", "--json", path)
        report = json.loads(out)
        assert code == 4
        info = json.loads(run(capsys, "info", "--json", path)[1])
        assert report["input_digest"] == info["input_digest"]
        assert report["nodes"] == 30
        code, out, _ = run(capsys, "chromatic", "--budget", "30", path)
        assert out == f"unknown, chromatic number >= {report['lower_bound']}\n"

    def test_long_path_certificate(self, tmp_path, capsys):
        p = 5000
        path = write_graph(tmp_path, canonicalize(p, [(v, v + 1, 1) for v in range(1, p)]))
        code, out, _ = run(capsys, "chromatic", "--certificate", path)
        assert code == 0
        assert out.startswith("chromatic number: 2\n")


class TestMatrix:
    def test_adjacency_human(self, tmp_path, capsys):
        path = write_graph(tmp_path, SQUARE_ONE_NEG)
        code, out, _ = run(capsys, "matrix", path)
        assert code == 0
        assert out == "0 -1 0 1\n-1 0 1 0\n0 1 0 1\n1 0 1 0\n"

    def test_laplacian_mycielskian(self, tmp_path, capsys):
        path = write_graph(tmp_path, SQUARE_ONE_NEG)
        code, out, _ = run(
            capsys, "matrix", "--kind", "laplacian", "--of", "mycielskian", "--json", path
        )
        report = json.loads(out)
        assert code == 0
        assert report["rows"] == report["cols"] == 9
        assert [report["matrix"][i][i] for i in range(9)] == [4, 4, 4, 4, 3, 3, 3, 3, 4]

    def test_incidence_mycielskian_shape(self, tmp_path, capsys):
        path = write_graph(tmp_path, SQUARE_ONE_NEG)
        code, out, _ = run(
            capsys, "matrix", "--kind", "incidence", "--of", "mycielskian", "--json", path
        )
        report = json.loads(out)
        assert code == 0
        assert (report["rows"], report["cols"]) == (9, 16)

    def test_negjoin_of_mycielskian(self, tmp_path, capsys):
        path = write_graph(tmp_path, K2_POS)
        code, out, _ = run(
            capsys, "matrix", "--kind", "negjoin", "--of", "mycielskian", "--json", path
        )
        report = json.loads(out)
        assert code == 0
        assert report["rows"] == 6
        assert all(row[-1] == -1 for row in report["matrix"][:-1])


class TestInertia:
    def test_negjoin_frozen(self, tmp_path, capsys):
        path = write_graph(tmp_path, K2_POS)
        code, out, _ = run(capsys, "inertia", "--of", "negjoin", path)
        assert code == 0
        assert out == "rank 3 n_plus 1 n_minus 2 n_zero 0\n"

    def test_mycielskian_json(self, tmp_path, capsys):
        path = write_graph(tmp_path, K2_POS)
        code, out, _ = run(capsys, "inertia", "--of", "mycielskian", "--json", path)
        report = json.loads(out)
        assert code == 0
        assert (report["n_plus"], report["n_minus"], report["n_zero"]) == (3, 2, 0)
        assert report["rank"] == 5

    @settings(max_examples=40, deadline=None)
    @given(signed_graphs(max_p=8))
    @example(canonicalize(0, []))
    @example(canonicalize(1, []))
    @example(canonicalize(6, []))
    def test_mycielskian_block_path_matches_full_matrix(self, g):
        want = inertia(adjacency_mycielskian(g))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "g.txt")
            with open(path, "w") as fh:
                fh.write(dumps(g))
            human, as_json = io.StringIO(), io.StringIO()
            with redirect_stdout(human):
                assert main(["inertia", "--of", "mycielskian", path]) == 0
            with redirect_stdout(as_json):
                assert main(["inertia", "--of", "mycielskian", "--json", path]) == 0
        assert human.getvalue() == (
            f"rank {want.rank} n_plus {want.n_plus} n_minus {want.n_minus} n_zero {want.n_zero}\n"
        )
        report = json.loads(as_json.getvalue())
        assert (report["rank"], report["n_plus"], report["n_minus"], report["n_zero"]) == (
            want.rank,
            want.n_plus,
            want.n_minus,
            want.n_zero,
        )


class TestAudit:
    def test_all_claims_pass_on_balanced_input(self, tmp_path, capsys):
        path = write_graph(tmp_path, SQUARE_TWO_NEG)
        code, out, _ = run(capsys, "audit", path)
        assert code == 0
        assert "audit: ok" in out
        assert "skipped" not in out

    def test_unbalanced_input_skips_balanced_claim(self, tmp_path, capsys):
        path = write_graph(tmp_path, SQUARE_ONE_NEG)
        code, out, _ = run(capsys, "audit", "--json", path)
        report = json.loads(out)
        assert code == 0
        status = {c["claim"]: c["status"] for c in report["claims"]}
        assert status["balanced-mycielskian"] == "skipped"
        assert all(s != "fail" for s in status.values())

    @pytest.mark.parametrize("claim", CLAIM_NAMES)
    def test_injected_fault_fails_its_claim(self, tmp_path, capsys, claim):
        path = write_graph(tmp_path, SQUARE_TWO_NEG)
        code, out, _ = run(capsys, "audit", "--json", "--inject-fault", claim, path)
        report = json.loads(out)
        assert code == 1
        status = {c["claim"]: c["status"] for c in report["claims"]}
        assert status[claim] == "fail"
        others = [s for name, s in status.items() if name != claim]
        assert all(s == "pass" for s in others)

    @pytest.mark.parametrize("graph", sorted(FAULT_GRAPHS))
    @pytest.mark.parametrize("claim", CLAIM_NAMES)
    def test_injected_fault_fails_wherever_the_claim_runs(self, tmp_path, capsys, claim, graph):
        path = write_graph(tmp_path, FAULT_GRAPHS[graph])
        clean = json.loads(run(capsys, "audit", "--json", path)[1])["claims"]
        code, out, _ = run(capsys, "audit", "--json", "--inject-fault", claim, path)
        faulted = json.loads(out)["claims"]
        assert [c["claim"] for c in clean] == [c["claim"] for c in faulted] == CLAIM_NAMES
        assert all(c["status"] != "fail" for c in clean)
        status = {c["claim"]: c["status"] for c in clean}
        # the null graph's Mycielskian is one vertex: no switching can break it
        if status[claim] != "skipped" and (claim, graph) != ("balanced-mycielskian", "null"):
            status[claim] = "fail"
        assert {c["claim"]: c["status"] for c in faulted} == status
        assert code == (1 if status[claim] == "fail" else 0)
        assert [c for c in faulted if c["claim"] != claim] == [c for c in clean if c["claim"] != claim]

    def test_null_graph(self, tmp_path, capsys):
        path = write_graph(tmp_path, canonicalize(0, []))
        code, out, _ = run(capsys, "audit", "--json", path)
        report = json.loads(out)
        assert code == 0
        status = {c["claim"]: c["status"] for c in report["claims"]}
        assert status.pop("laplacian-balance") == "skipped"
        assert all(s == "pass" for s in status.values())

    def test_unknown_claim_rejected(self, tmp_path, capsys):
        path = write_graph(tmp_path, SQUARE_TWO_NEG)
        code, _, err = run(capsys, "audit", "--inject-fault", "bogus", path)
        assert code == 2 and "unknown claim" in err

    @pytest.mark.parametrize("name", sorted(PINNED_AUDITS))
    @pytest.mark.parametrize("suffix", ["txt", "json"])
    def test_pinned_bytes(self, tmp_path, capsys, name, suffix):
        g, flags = PINNED_AUDITS[name]
        path = write_graph(tmp_path, g)
        extra = ["--json"] if suffix == "json" else []
        code, out, err = run(capsys, "audit", *extra, *flags, path)
        assert (code, err) == (0, "")
        assert out == (PINNED / f"{name}.{suffix}").read_text()

    def test_tight_budget_skips_sandwich(self, tmp_path, capsys):
        path = write_graph(tmp_path, SQUARE_TWO_NEG)
        code, out, _ = run(capsys, "audit", "--json", "--budget", "5", path)
        report = json.loads(out)
        assert code == 0
        status = {c["claim"]: c["status"] for c in report["claims"]}
        assert status["chromatic-sandwich"] == "skipped"


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "info", "/nonexistent/graph.txt")
        assert code == 2 and "error:" in err

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("not a graph\n")
        code, _, err = run(capsys, "info", str(path))
        assert code == 2

    @pytest.mark.parametrize("flag", [[], ["--json"]])
    def test_first_bad_edge_reported(self, tmp_path, capsys, flag):
        # a duplicate on line 3 is reported, not the loop on line 4
        path = tmp_path / "bad.txt"
        path.write_text("3 3\n1 2 +1\n2 1 -1\n3 3 +1\n")
        code, out, err = run(capsys, "info", *flag, str(path))
        assert (code, out, err) == (2, "", "error: edge (1,2) given twice\n")

    @pytest.mark.parametrize("flag", [[], ["--json"]])
    def test_out_of_memory_exit_two(self, tmp_path, capsys, monkeypatch, flag):
        def exhausted(args):
            raise MemoryError

        monkeypatch.setattr(cli, "cmd_inertia", exhausted)
        path = write_graph(tmp_path, SQUARE_TWO_NEG)
        code, out, err = run(capsys, "inertia", *flag, path)
        assert (code, out) == (2, "")
        assert err == "error: out of memory; the input is too large for this command\n"

    def test_byte_determinism(self, tmp_path, capsys):
        path = write_graph(tmp_path, SQUARE_TWO_NEG)
        a = run(capsys, "audit", "--json", path)[1]
        b = run(capsys, "audit", "--json", path)[1]
        assert a == b
