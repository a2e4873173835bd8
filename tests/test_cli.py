"""Command line behavior: output bytes, JSON reports, exit codes."""

import ast
import hashlib
import inspect
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    K2_POS,
    SQUARE_ONE_NEG,
    SQUARE_TWO_NEG,
    SQUARE_TWO_NEG_BALANCED_MYC_TEXT,
    bump_corner,
    write_graph,
)
from strategies import signed_graphs
from sgmyc import cli, matrices, mycielskian
from sgmyc.cli import main
from sgmyc.core import canonicalize, dumps, generate, loads
from sgmyc.exactla import inertia
from sgmyc.mycielskian import tower

PINNED = pathlib.Path(__file__).parent / "audit_pinned"
# stdout of `matrix --kind K --of mycielskian`, text on SQUARE_ONE_NEG and --json on the null graph
MATRIX_PINNED = pathlib.Path(__file__).parent / "matrix_pinned"

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

def byte_stdin(data):
    """A stand-in for sys.stdin that, like the real one, carries a byte buffer."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


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
        monkeypatch.setattr("sys.stdin", byte_stdin(dumps(SQUARE_ONE_NEG).encode("utf-8")))
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

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "generate", "cycle", "--length", "3", "--json")
        report = json.loads(out)
        assert code == 0
        assert report["kind"] == "cycle"
        assert report["edges"] == [[1, 2, 1], [1, 3, 1], [2, 3, 1]]

    def test_output_with_json_digests_the_file(self, tmp_path, capsys):
        target = tmp_path / "out.txt"
        code, out, _ = run(capsys, "generate", "cycle", "--length", "5", "--json", "-o", str(target))
        report = json.loads(out)
        assert code == 0
        assert list(report)[:2] == ["command", "input_digest"]
        assert report["input_digest"] == "sha256:" + hashlib.sha256(target.read_bytes()).hexdigest()

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

    def test_output_with_json(self, tmp_path, capsys):
        path = write_graph(tmp_path, SQUARE_ONE_NEG)
        target = tmp_path / "m.txt"
        code, out, _ = run(capsys, "mycielskian", "--json", "-o", str(target), path)
        report = json.loads(out)
        assert code == 0
        assert target.read_text() == run(capsys, "mycielskian", path)[1]
        assert json.loads((tmp_path / "m.txt.labeling.json").read_text()) == report["labeling"]
        assert loads(target.read_text()).edges == tuple(map(tuple, report["edges"]))

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_output_into_missing_directory_names_the_edge_list(self, tmp_path, capsys, flags):
        # the edge list is written before its sidecar, so its path is the one refused
        path = write_graph(tmp_path, SQUARE_ONE_NEG)
        target = tmp_path / "missing" / "m.txt"
        code, out, err = run(capsys, "mycielskian", *flags, "-o", str(target), path)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith(f"{str(target)!r}\n")


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

    @pytest.mark.parametrize("kind", cli._MATRIX_KINDS)
    @pytest.mark.parametrize(
        "name, g, flags", [("square_one_neg", SQUARE_ONE_NEG, []), ("null", canonicalize(0, []), ["--json"])]
    )
    def test_pinned_mycielskian_bytes(self, tmp_path, capsys, kind, name, g, flags):
        path = write_graph(tmp_path, g)
        code, out, err = run(capsys, "matrix", "--kind", kind, "--of", "mycielskian", *flags, path)
        assert (code, err) == (0, "")
        suffix = "json" if flags else "txt"
        assert out == (MATRIX_PINNED / f"{name}.{kind}.{suffix}").read_text()

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

    def test_mycielskian_builds_neither_the_mycielskian_nor_its_factors(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("inertia --of mycielskian built a matrix of the order of A_M")

        monkeypatch.setattr(mycielskian, "mycielskian", refuse)
        monkeypatch.setattr(cli, "mycielskian", refuse)
        path = write_graph(tmp_path, SQUARE_ONE_NEG)
        code, out, _ = run(capsys, "inertia", "--of", "mycielskian", path)
        assert code == 0
        assert out == "rank 9 n_plus 5 n_minus 4 n_zero 0\n"

    @settings(max_examples=40, deadline=None)
    @given(signed_graphs(max_p=8))
    @example(canonicalize(0, []))
    @example(canonicalize(1, []))
    @example(canonicalize(6, []))
    def test_mycielskian_block_path_matches_full_matrix(self, g):
        want = inertia(matrices.adjacency(mycielskian.mycielskian(g)[0]))
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

    @pytest.mark.parametrize("flag", [[], ["--json"]])
    def test_failing_claim_exits_one(self, tmp_path, capsys, monkeypatch, flag):
        # a wrong H_M H_M^T fails incidence-laplacian, and leaves
        # laplacian-balance to the exact inertia, which still passes it
        exact = matrices._gram
        monkeypatch.setattr(matrices, "_gram", lambda n, columns: bump_corner(exact(n, columns)))
        path = write_graph(tmp_path, SQUARE_TWO_NEG)
        code, out, _ = run(capsys, "audit", *flag, path)
        assert code == 1
        if flag:
            report = json.loads(out)
            assert report["ok"] is False
            status = {c["claim"]: c["status"] for c in report["claims"]}
            assert status.pop("incidence-laplacian") == "fail"
            assert set(status.values()) == {"pass"}
        else:
            assert "incidence-laplacian: fail (" in out
            assert out.endswith("audit: FAILED\n")

    def test_null_graph(self, tmp_path, capsys):
        path = write_graph(tmp_path, canonicalize(0, []))
        code, out, _ = run(capsys, "audit", "--json", path)
        report = json.loads(out)
        assert code == 0
        status = {c["claim"]: c["status"] for c in report["claims"]}
        assert status.pop("laplacian-balance") == "skipped"
        assert all(s == "pass" for s in status.values())

    @pytest.mark.parametrize("name", sorted(PINNED_AUDITS))
    @pytest.mark.parametrize("suffix", ["txt", "json"])
    def test_pinned_bytes(self, tmp_path, capsys, name, suffix):
        g, flags = PINNED_AUDITS[name]
        path = write_graph(tmp_path, g)
        extra = ["--json"] if suffix == "json" else []
        code, out, err = run(capsys, "audit", *extra, *flags, path)
        assert (code, err) == (0, "")
        assert out == (PINNED / f"{name}.{suffix}").read_text()

    # `generate random` draws of 42-48 vertices on which the static-order
    # search used up the default budget, so the sandwich was skipped
    @pytest.mark.parametrize(
        "order, edge_prob, seed, chis",
        [(44, 0.15, 1003, (4, 5)), (48, 0.2, 1005, (5, 5)), (42, 0.15, 1010, (4, 4))],
    )
    def test_sandwich_decides_mid_size_random_graphs(self, tmp_path, capsys, order, edge_prob, seed, chis):
        g = generate("random", {"order": order, "edge_prob": edge_prob}, seed)
        code, out, _ = run(capsys, "audit", "--json", write_graph(tmp_path, g))
        sandwich = {c["claim"]: c for c in json.loads(out)["claims"]}["chromatic-sandwich"]
        assert code == 0
        assert sandwich == {
            "claim": "chromatic-sandwich",
            "status": "pass",
            "detail": "chi %d, Mycielskian chi %d" % chis,
        }

    def test_tight_budget_skips_sandwich(self, tmp_path, capsys):
        path = write_graph(tmp_path, SQUARE_TWO_NEG)
        code, out, _ = run(capsys, "audit", "--json", "--budget", "5", path)
        report = json.loads(out)
        assert code == 0
        status = {c["claim"]: c["status"] for c in report["claims"]}
        assert status["chromatic-sandwich"] == "skipped"


class TestErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "random", "--order", "x"],
            ["chromatic", "--budget", "1.5", "f"],
            ["info"],
            [],
            ["matrix", "--kind", "foo", "f"],
            ["info", "--bogus", "f"],
        ],
        ids=["bad-type", "bad-int", "missing-positional", "no-subcommand", "bad-choice", "unknown-flag"],
    )
    def test_usage_error_is_one_line(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")

    def test_help_prints_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["info", "-h"])
        out, err = capsys.readouterr()
        assert (exc.value.code, err) == (0, "")
        assert out.startswith("usage: sgmyc info [-h] [--json] file\n")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "info", "/nonexistent/graph.txt")
        assert code == 2 and "error:" in err

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("not a graph\n")
        code, _, err = run(capsys, "info", str(path))
        assert code == 2

    @pytest.mark.parametrize(
        "command", ["info", "mycielskian", "balance", "chromatic", "matrix", "inertia", "audit"]
    )
    def test_non_utf8_file(self, tmp_path, capsys, command):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"2 1\n1 2 +1\n\xff\n")
        code, out, err = run(capsys, command, str(path))
        assert (code, out, err) == (2, "", f"error: {path} is not UTF-8 text\n")

    # strict is the decoder of a UTF-8 locale; under the C locale stdin
    # turns bad bytes into lone surrogates instead of raising
    @pytest.mark.parametrize("errors", ["strict", "surrogateescape"])
    def test_non_utf8_stdin(self, capsys, monkeypatch, errors):
        data = b"2 1\n1 2 +1\n# \xff\n"
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors=errors)
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run(capsys, "info", "-")
        assert (code, out, err) == (2, "", "error: standard input is not UTF-8 text\n")

    @pytest.mark.parametrize("flag", [[], ["--json"]])
    def test_first_bad_edge_reported(self, tmp_path, capsys, flag):
        # a duplicate on line 3 is reported, not the loop on line 4
        path = tmp_path / "bad.txt"
        path.write_text("3 3\n1 2 +1\n2 1 -1\n3 3 +1\n")
        code, out, err = run(capsys, "info", *flag, str(path))
        assert (code, out, err) == (2, "", "error: edge (1,2) given twice\n")

    @pytest.mark.parametrize("flag", [[], ["--json"]])
    def test_out_of_memory_exit_two(self, tmp_path, capsys, monkeypatch, flag):
        def exhausted(args, g):
            raise MemoryError

        monkeypatch.setattr(cli, "cmd_inertia", exhausted)
        path = write_graph(tmp_path, SQUARE_TWO_NEG)
        code, out, err = run(capsys, "inertia", *flag, path)
        assert (code, out) == (2, "")
        assert err == "error: out of memory; the input is too large for this command\n"

    # a count of 2**63 or more overflows a list's length before anything is
    # allocated; a smaller huge count would really allocate, so none is tried
    @pytest.mark.parametrize("count", [2**63, 10**19])
    @pytest.mark.parametrize(
        "argv",
        [[command, "-"] for command in ["info", "balance", "mycielskian", "chromatic", "matrix", "inertia", "audit"]]
        + [["generate", family, "--length"] for family in ["path", "cycle"]],
        ids=" ".join,
    )
    def test_a_count_past_an_index_exits_two(self, argv, count):
        if argv[0] == "generate":
            code, out, err = run_on_stdin([*argv, str(count)], b"")
        else:
            code, out, err = run_on_stdin(argv, f"{count} 0\n".encode())
        assert (code, out) == (2, "")
        assert err == "error: out of memory; the input is too large for this command\n"

    @pytest.mark.parametrize("command", ["chromatic", "audit"])
    @pytest.mark.parametrize("flag", [[], ["--json"]])
    @pytest.mark.parametrize("g", [SQUARE_ONE_NEG, canonicalize(0, [])], ids=["square", "null"])
    def test_negative_budget_rejected(self, tmp_path, capsys, command, flag, g):
        path = write_graph(tmp_path, g)
        code, out, err = run(capsys, command, "--budget", "-5", *flag, path)
        assert (code, out, err) == (2, "", "error: node budget must be at least 0, got -5\n")

    @pytest.mark.parametrize("command", ["chromatic", "audit"])
    def test_zero_budget_accepted(self, tmp_path, capsys, command):
        path = write_graph(tmp_path, canonicalize(0, []))
        code, _, err = run(capsys, command, "--budget", "0", path)
        assert (code, err) == (0, "")

    def test_byte_determinism(self, tmp_path, capsys):
        path = write_graph(tmp_path, SQUARE_TWO_NEG)
        a = run(capsys, "audit", "--json", path)[1]
        b = run(capsys, "audit", "--json", path)[1]
        assert a == b


class TestDigest:
    """--json opens with the command name and the sha256 of the input as read."""

    # a comment and edges out of canonical order: the digest is of these bytes
    RAW = b"# square, one negative edge\n4 4\n2 1 -1\n3 2 +1\n3 4 +1\n1 4 +1\n"

    @pytest.mark.parametrize("source", ["file", "stdin"])
    @pytest.mark.parametrize(
        "command", ["info", "mycielskian", "balance", "chromatic", "matrix", "inertia", "audit"]
    )
    def test_first_keys_and_digest(self, tmp_path, capsys, monkeypatch, command, source):
        path = tmp_path / "g.txt"
        path.write_bytes(self.RAW)
        if source == "stdin":
            monkeypatch.setattr("sys.stdin", byte_stdin(self.RAW))
        code, out, _ = run(capsys, command, "--json", str(path) if source == "file" else "-")
        report = json.loads(out)
        assert code == 0
        assert list(report)[:2] == ["command", "input_digest"]
        assert report["command"] == command
        assert report["input_digest"] == "sha256:" + hashlib.sha256(self.RAW).hexdigest()

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_crlf_bytes_are_digested_as_given(self, tmp_path, capsys, monkeypatch, source):
        raw = b"2 1\r\n1 2 +1\r\n"
        path = tmp_path / "crlf.txt"
        path.write_bytes(raw)
        if source == "stdin":
            monkeypatch.setattr("sys.stdin", byte_stdin(raw))
        code, out, _ = run(capsys, "info", "--json", str(path) if source == "file" else "-")
        report = json.loads(out)
        assert (code, report["edges"]) == (0, 1)
        assert report["input_digest"] == "sha256:" + hashlib.sha256(raw).hexdigest()


# every --json report and sidecar: the layout is json.dumps(report, indent=2)
JSON_GRAPHS = {"square_one_neg": SQUARE_ONE_NEG, "square_two_neg": SQUARE_TWO_NEG, "null": canonicalize(0, [])}
JSON_COMMANDS = [
    ["info"],
    ["balance"],
    ["mycielskian"],
    ["mycielskian", "--balanced"],
    ["chromatic", "--certificate"],
    ["chromatic", "--budget", "0"],
    *(["matrix", "--kind", kind, "--of", of] for kind in cli._MATRIX_KINDS for of in ("input", "mycielskian")),
    *(["inertia", "--of", of] for of in ("input", "mycielskian", "negjoin")),
    ["audit"],
]
# the balanced variant of an unbalanced input exits 3 with no report
JSON_CASES = [
    pytest.param(argv, name, id=f"{' '.join(argv)}-{name}")
    for argv in JSON_COMMANDS
    for name in JSON_GRAPHS
    if (argv, name) != (["mycielskian", "--balanced"], "square_one_neg")
]


def stdlib_layout(text):
    return json.dumps(json.loads(text), indent=2) + "\n"


@pytest.mark.parametrize("argv, name", JSON_CASES)
def test_json_report_is_the_stdlib_layout(tmp_path, capsys, argv, name):
    code, out, _ = run(capsys, *argv, "--json", write_graph(tmp_path, JSON_GRAPHS[name]))
    exhausted = argv == ["chromatic", "--budget", "0"] and name == "square_one_neg"
    assert code == (4 if exhausted else 0)
    assert out == stdlib_layout(out)


def test_generate_json_report_is_the_stdlib_layout(capsys):
    code, out, _ = run(capsys, "generate", "random", "--order", "7", "--seed", "3", "--json")
    assert code == 0
    assert out == stdlib_layout(out)


# the renderer of each command's text, by its name in cli
RENDERERS = {
    "info": "text_info",
    "generate": "text_edge_list",
    "mycielskian": "text_edge_list",
    "balance": "text_balance",
    "chromatic": "text_chromatic",
    "matrix": "text_matrix",
    "inertia": "text_inertia",
    "audit": "text_audit",
}
GENERATE_CASES = [
    pytest.param(["generate", "random", "--order", "7", "--seed", "3"], None, id="generate random"),
    pytest.param(["generate", "cycle", "--length", "4", "--pattern", "-+-+"], None, id="generate cycle"),
]


@pytest.mark.parametrize("argv, name", JSON_CASES + GENERATE_CASES)
def test_text_is_rendered_from_the_report_alone(tmp_path, capsys, argv, name):
    # the JSON round trip turns tuples into lists, so the renderer reads
    # nothing but the payload
    files = [] if name is None else [write_graph(tmp_path, JSON_GRAPHS[name])]
    code, text, _ = run(capsys, *argv, *files)
    json_code, out, _ = run(capsys, *argv, "--json", *files)
    payload = json.loads(out)
    del payload["command"], payload["input_digest"]
    assert code == json_code
    assert getattr(cli, RENDERERS[argv[0]])(payload) == text


class Rendered(Exception):
    pass


def refuse_to_render(monkeypatch):
    def refuse(payload):
        raise Rendered

    names = {name for name in vars(cli) if name.startswith("text_")}
    assert names == set(RENDERERS.values())
    for name in names:
        monkeypatch.setattr(cli, name, refuse)


@pytest.mark.parametrize("argv, name", JSON_CASES)
def test_json_report_renders_no_text(tmp_path, capsys, monkeypatch, argv, name):
    path = write_graph(tmp_path, JSON_GRAPHS[name])
    want = run(capsys, *argv, "--json", path)
    refuse_to_render(monkeypatch)
    assert run(capsys, *argv, "--json", path) == want


@pytest.mark.parametrize("command", ["generate", "mycielskian -o"])
def test_json_report_renders_the_text_it_digests_or_writes(tmp_path, monkeypatch, command):
    if command == "generate":
        argv = ["generate", "cycle", "--length", "4", "--json"]
    else:
        argv = ["mycielskian", "--json", "-o", str(tmp_path / "m.txt"), write_graph(tmp_path, SQUARE_ONE_NEG)]
    refuse_to_render(monkeypatch)
    with pytest.raises(Rendered):
        main(argv)


@pytest.mark.parametrize("name", ["square_two_neg", "null"])
@pytest.mark.parametrize("flags", [[], ["--balanced"]], ids=["plain", "balanced"])
def test_labeling_sidecar_is_the_stdlib_layout(tmp_path, capsys, name, flags):
    target = tmp_path / "m.txt"
    path = write_graph(tmp_path, JSON_GRAPHS[name])
    code, out, _ = run(capsys, "mycielskian", *flags, "--json", "-o", str(target), path)
    sidecar = (tmp_path / "m.txt.labeling.json").read_text()
    assert code == 0
    assert sidecar == json.dumps(json.loads(out)["labeling"], indent=2) + "\n"


INTS = st.integers(min_value=-(2**70), max_value=2**70)


def rows_of_one_length(item):
    """Lists of rows, each a list or a tuple, all of one length, zero included."""
    return st.integers(0, 4).flatmap(
        lambda n: st.lists(st.lists(item, min_size=n, max_size=n) | st.tuples(*[item] * n), max_size=5)
    )


JSON_VALUES = st.recursive(
    INTS
    | st.booleans()
    | st.none()
    | st.text()
    | rows_of_one_length(INTS)
    | rows_of_one_length(INTS | st.booleans())
    | st.lists(st.lists(INTS, max_size=3), max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=40,
)


@settings(max_examples=300)
@given(JSON_VALUES)
@example({"é \"q\"\n\x00\u2028": [[1, True], [], [2**70, -3], [[[1, 2], [3, 4]]], [None, "\x1f"]], "": {}})
@example([(1, 2, -1), (1, 3, 1)])
@example([[1, 2], [3, False]])
@example([[], []])
def test_json_writer_is_the_stdlib_indent_encoder(value):
    assert cli._json(value) == json.dumps(value, indent=2)


def test_json_writer_rejects_keys_that_are_not_str():
    with pytest.raises(TypeError):
        cli._json({"rows": {1: [2]}})


def test_no_json_call_in_the_package_passes_indent():
    # the indented layout has one writer, cli._json: the stdlib's indent
    # encoder is pure Python, while its compact encoder is C
    for path in pathlib.Path(cli.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("dump", "dumps"):
                assert not {k.arg for k in node.keywords} & {"indent", None}, f"{path.name}:{node.lineno}"


def test_commands_leave_reading_and_printing_to_run():
    # each cmd_* maps arguments and a graph to its report; the input is read,
    # the text rendered and stdout and -o written in one place only
    tree = ast.parse(inspect.getsource(cli))
    commands = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name.startswith("cmd_")]
    assert len(commands) == 8
    for fn in commands:
        names = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}
        sys_attrs = {
            n.attr
            for n in ast.walk(fn)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "sys"
        }
        attrs = {n.attr for n in ast.walk(fn) if isinstance(n, ast.Attribute)}
        assert not names & {"_read_input", "print", "_write", "_json"}, fn.name
        assert not sys_attrs & {"stdout", "stdin"}, fn.name
        assert not attrs & {"dumps", "output"}, fn.name
    reads = [
        n for n in ast.walk(tree) if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_read_input"
    ]
    assert len(reads) == 1


def test_import_loads_no_rational_arithmetic():
    # every matrix is an integer matrix, so nothing needs fractions or decimal
    src = str(pathlib.Path(cli.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import sgmyc.cli; "
        "print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


def small_header(text):
    """Whether the text names at most 30 vertices, if it parses that far.

    No command caps the order yet, and the dense ones allocate O(p^2)
    before any refusal, so the fuzzer keeps its headers small.
    """
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            parts = line.split()
            try:
                return len(parts) != 2 or int(parts[0]) <= 30
            except ValueError:
                return True
    return True


# fragments of the edge-list format, so that the fuzzer gets past the header
FRAGMENTS = ["3 2", "2 1", "0 0", "1 2 +1", "2 3 -1", "1 2 -1", "1 1 +1", "1 2 0", "3 1 +1", "# note", "", " "]


def lines_of_edge_lists():
    line = st.one_of(st.sampled_from(FRAGMENTS), st.text(max_size=8))
    return st.lists(line, max_size=6).map("\n".join)


def run_on_stdin(argv, data):
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = byte_stdin(data)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=80), st.text(max_size=80).map(str.encode), lines_of_edge_lists().map(str.encode)))
@example(b"2 1\r\n1 2 +1\r\n")
@example(b"\xff")
@example(b"1_0 0\n")
@example(b"-3 0\n")
@example("٣ 0\n".encode())
def test_fuzzed_input_ends_in_a_documented_exit(data):
    try:
        assume(small_header(data.decode("utf-8")))
    except UnicodeDecodeError:
        pass
    for argv in (["info", "-"], ["audit", "-", "--budget", "10"]):
        code, out, err = run_on_stdin(argv, data)
        assert code in (0, 2, 3), (argv, code, out, err)
        if code:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        else:
            assert err == ""
