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
from contextlib import redirect_stdout

import pytest
from hypothesis import example, given, settings

from conftest import (
    K2_POS,
    SQUARE_ONE_NEG,
    SQUARE_TWO_NEG,
    SQUARE_TWO_NEG_BALANCED_MYC_TEXT,
    bump_corner,
    write_graph,
)
from strategies import signed_graphs
from sgmyc import cli, matrices
from sgmyc.cli import main
from sgmyc.core import canonicalize, dumps, generate, loads
from sgmyc.exactla import inertia
from sgmyc.matrices import adjacency_mycielskian, laplacian_mycielskian
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

    @pytest.mark.parametrize("flag", [[], ["--json"]])
    def test_failing_claim_exits_one(self, tmp_path, capsys, monkeypatch, flag):
        def bumped(g):
            return bump_corner(laplacian_mycielskian(g))

        monkeypatch.setattr(matrices, "laplacian_mycielskian", bumped)
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


def test_commands_leave_reading_and_printing_to_run():
    # each cmd_* maps arguments and a graph to its report; the input is read
    # and stdout written in one place only
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
        assert not names & {"_read_input", "print"}, fn.name
        assert not sys_attrs & {"stdout", "stdin"}, fn.name
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
