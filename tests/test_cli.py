import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from strongdim import GraphError, StrongBasisResult, build_graph, cli, graphs, jahangir, strong_metric
from strongdim.cli import main

C4_DOC = '{"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]}'
DISCONNECTED_DOC = '{"n": 4, "edges": [[0, 1], [2, 3]]}'
PATH_257_DOC = json.dumps({"n": 257, "edges": [[i, i + 1] for i in range(256)]})
MILLION_DOC = '{"n": 1000000}'
# P4 with three of its four vertices named, keys out of order; its SRG is the
# one edge (0, 3), so vertex 2 is isolated and unnamed
LABELLED_P4_DOC = '{"n": 4, "edges": [[0, 1], [1, 2], [2, 3]], "labels": {"3": "\\u00e9", "0": "a", "1": "b\\"q"}}'
LABELLED_P4_SRG = {
    "edge-json": '{"n": 4, "edges": [[0, 3]], "labels": {"0": "a", "1": "b\\"q", "3": "\\u00e9"}}\n',
    "dot": 'graph {\n  "0" [label="a"];\n  "1" [label="b\\"q"];\n  "2";\n  "3" [label="\u00e9"];\n  "0" -- "3";\n}\n',
}

# verify --n 6 --m 4..5 with J(6,5)'s pipeline skewed (TestVerify.test_failing_cell_table)
FAILING_TABLE = (
    "  n   m       srg     cover  alpha  formula  pipeline  result\n"
    "  6   4        ok        ok      8        8         8  PASS\n"
    "  6   5  MISMATCH  MISMATCH     11       10        11  FAIL\n"
    "      srg-edges: predicted but absent: [u2-u6]; computed but unpredicted: [u1-u6]\n"
    "      cover-invalid: predicted cover misses edge u1-u6\n"
    "      cover-size: predicted cover has 10 vertices but the optimum is 11\n"
    "      sdim-formula: closed form gives 10 but the cover pipeline gives 11\n"
    "1 of 2 cells FAILED\n"
)


def _refuse_build(params):
    raise AssertionError(f"built J({params.n},{params.m})")


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_path_golden(self, capsys):
        code, out, err = run_cli(capsys, ["gen", "path", "-n", "2"])
        assert code == 0
        assert out == '{"n": 2, "edges": [[0, 1]]}\n'
        assert err == ""

    def test_jahangir_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, ["gen", "jahangir", "-n", "6", "-m", "5"])
        _, second, _ = run_cli(capsys, ["gen", "jahangir", "-n", "6", "-m", "5"])
        assert first == second
        doc = json.loads(first)
        assert doc["n"] == 31
        assert len(doc["edges"]) == 35
        assert doc["labels"]["30"] == "c"

    def test_dot_format(self, capsys):
        code, out, _ = run_cli(capsys, ["gen", "cycle", "-n", "4", "--format", "dot"])
        assert code == 0
        assert out.startswith("graph {")
        assert '"0" -- "1";' in out

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "graph.json"
        code, out, _ = run_cli(capsys, ["gen", "complete", "-n", "3", "-o", str(target)])
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["n"] == 3

    @pytest.mark.parametrize("kind", ["gen", "srg"])
    def test_unwritable_output(self, capsys, tmp_path, kind):
        target = tmp_path / "missing" / "graph.json"
        argv = ["gen", "path", "-n", "3"] if kind == "gen" else ["srg", "jahangir:2,3"]
        code, out, err = run_cli(capsys, argv + ["-o", str(target)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {str(target)!r}: ")
        assert not target.exists()

    def test_output_is_a_directory(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["gen", "path", "-n", "3", "-o", str(tmp_path)])
        assert code == 2
        assert err.startswith(f"error: cannot write {str(tmp_path)!r}: ")

    def test_bad_jahangir_parameters(self, capsys):
        code, _, err = run_cli(capsys, ["gen", "jahangir", "-n", "1", "-m", "3"])
        assert code == 2
        assert err.startswith("error:")

    def test_m_rejected_for_cycle(self, capsys):
        code, _, err = run_cli(capsys, ["gen", "cycle", "-n", "5", "-m", "3"])
        assert code == 2
        assert "only -n" in err

    def test_m_required_for_jahangir(self, capsys):
        code, _, err = run_cli(capsys, ["gen", "jahangir", "-n", "5"])
        assert code == 2
        assert "needs -n and -m" in err

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestSdim:
    def test_auto_jahangir(self, capsys):
        code, out, err = run_cli(capsys, ["sdim", "jahangir:6,5"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "sdim = 10"
        assert lines[1] == "method = vertex-cover-reduction"
        assert lines[2].startswith("basis = ")
        assert len(lines[2].split()[2:]) == 10
        assert err == ""

    def test_formula(self, capsys):
        code, out, _ = run_cli(capsys, ["sdim", "jahangir:5,5", "--method", "formula"])
        assert code == 0
        assert out == "sdim = 12\nmethod = formula\n"

    def test_formula_never_builds_the_graph(self, capsys, monkeypatch):
        # the closed form needs only (n, m): J(300, 300) has 90,001 vertices
        monkeypatch.setattr(cli, "build_jahangir", _refuse_build)
        assert run_cli(capsys, ["sdim", "jahangir:300,300", "--method", "formula"]) == (
            0, "sdim = 44700\nmethod = formula\n", ""
        )

    def test_pipeline_method_is_gone(self, capsys):
        # auto runs the same cover pipeline, plus the closed-form cross-check
        with pytest.raises(SystemExit) as exc:
            main(["sdim", "jahangir:6,5", "--method", "pipeline"])
        assert exc.value.code == 2
        assert "invalid choice: 'pipeline'" in capsys.readouterr().err

    def test_formula_needs_jahangir_input(self, capsys, tmp_path):
        path = tmp_path / "c4.json"
        path.write_text(C4_DOC)
        code, _, err = run_cli(capsys, ["sdim", str(path), "--method", "formula"])
        assert code == 2
        assert "jahangir:n,m" in err

    def test_formula_reads_no_file(self, capsys):
        # only a jahangir:n,m argument has (n, m); a path is refused unread
        assert run_cli(capsys, ["sdim", "no/such/file.json", "--method", "formula"]) == (
            2, "", "error: the formula method needs a jahangir:n,m input\n"
        )

    def test_formula_outside_known_cases(self, capsys):
        code, _, err = run_cli(capsys, ["sdim", "jahangir:4,4", "--method", "formula"])
        assert code == 2
        assert "no closed form" in err

    def test_brute(self, capsys):
        code, out, _ = run_cli(capsys, ["sdim", "jahangir:2,3", "--method", "brute"])
        assert code == 0
        assert "sdim = 3" in out
        assert "method = brute-force" in out

    def test_brute_respects_cap(self, capsys):
        code, _, err = run_cli(capsys, ["sdim", "jahangir:6,5", "--method", "brute"])
        assert code == 2
        assert err.startswith("error:")

    def test_stdin_pipeline(self, capsys, monkeypatch):
        _, doc, _ = run_cli(capsys, ["gen", "path", "-n", "4"])
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        code, out, _ = run_cli(capsys, ["sdim", "-"])
        assert code == 0
        assert "sdim = 1" in out

    def test_auto_on_plain_file(self, capsys, tmp_path):
        path = tmp_path / "c4.json"
        path.write_text(C4_DOC)
        code, out, _ = run_cli(capsys, ["sdim", str(path)])
        assert code == 0
        assert "sdim = 2" in out

    def test_disconnected_input(self, capsys, tmp_path):
        path = tmp_path / "split.json"
        path.write_text(DISCONNECTED_DOC)
        assert run_cli(capsys, ["sdim", str(path)]) == (
            2, "", "error: strong metric dimension needs a connected graph\n"
        )

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, ["sdim", "no/such/file.json"])
        assert code == 2
        assert "cannot read" in err

    def test_file_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run_cli(capsys, ["sdim", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {str(path)!r}: 'utf-8' codec can't decode")

    def test_stdin_not_utf8(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe"), encoding="latin-1"))
        code, out, err = run_cli(capsys, ["srg", "-"])
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read '-': 'utf-8' codec can't decode")

    def test_stdin_not_utf8_in_a_process(self):
        proc = _run_python("-m", "strongdim", "sdim", "-", stdin=b"\xff\xfe")
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"error: cannot read '-':")

    def test_lone_surrogate_label(self, capsys, tmp_path):
        path = tmp_path / "label.json"
        path.write_text('{"n": 2, "edges": [[0, 1]], "labels": {"0": "\\ud800"}}')
        code, _, err = run_cli(capsys, ["srg", str(path), "--format", "dot"])
        assert code == 2
        assert "not valid Unicode text" in err

    def test_bad_jahangir_shorthand(self, capsys):
        code, _, err = run_cli(capsys, ["sdim", "jahangir:6"])
        assert code == 2
        assert "expected jahangir:n,m" in err

    @pytest.mark.parametrize(
        "source,message",
        [
            ("jahangir:x", "bad jahangir shorthand 'jahangir:x', expected jahangir:n,m"),
            ("jahangir:5,5,5", "bad jahangir shorthand 'jahangir:5,5,5', expected jahangir:n,m"),
            ("jahangir:1,3", "jahangir parameters need n >= 2 and m >= 3, got (1, 3)"),
        ],
    )
    def test_bad_jahangir_input_exact_error(self, capsys, source, message):
        code, out, err = run_cli(capsys, ["sdim", source])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_auto_reports_cross_check_mismatch(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "sdim_formula", lambda params: 99)
        code, _, err = run_cli(capsys, ["sdim", "jahangir:6,5"])
        assert code == 1
        assert "99" in err and "10" in err

    def test_sdim_builds_no_vertex_names(self, capsys, monkeypatch):
        # names are built only where they are printed: gen and srg
        def refuse(self):
            raise AssertionError("sdim built the vertex names")

        monkeypatch.setattr(cli.JahangirParams, "labels", refuse)
        code, out, err = run_cli(capsys, ["sdim", "jahangir:20,12"])
        assert (code, err) == (0, "")
        assert out.startswith("sdim = 108\nmethod = vertex-cover-reduction\nbasis = 10 12 13 ")


class TestParserReuse:
    def test_usage_error_between_runs_changes_nothing(self, capsys):
        first = run_cli(capsys, ["sdim", "jahangir:6,5"])
        with pytest.raises(SystemExit) as exc:
            main(["sdim", "--method", "guess", "jahangir:6,5"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        again = run_cli(capsys, ["sdim", "jahangir:6,5"])
        assert first[0] == again[0] == 0
        assert again == first

    def test_parser_is_built_once(self, capsys):
        run_cli(capsys, ["srg", "jahangir:2,3"])
        parser = cli._build_parser()
        run_cli(capsys, ["cover", "jahangir:2,3"])
        assert cli._build_parser() is parser


class TestSrg:
    def test_srg_edge_count(self, capsys):
        code, out, _ = run_cli(capsys, ["srg", "jahangir:6,5"])
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 31
        assert len(doc["edges"]) == 20
        assert doc["labels"]["30"] == "c"

    @pytest.mark.parametrize("fmt", ["edge-json", "dot"])
    @pytest.mark.parametrize("source", ["path", "stdin"])
    def test_srg_prints_the_labels_of_the_document(self, capsys, monkeypatch, tmp_path, fmt, source):
        if source == "path":
            path = tmp_path / "p4.json"
            path.write_text(LABELLED_P4_DOC, encoding="utf-8")
            graph = str(path)
        else:
            stdin = io.TextIOWrapper(io.BytesIO(LABELLED_P4_DOC.encode("utf-8")), encoding="utf-8")
            monkeypatch.setattr("sys.stdin", stdin)
            graph = "-"
        assert run_cli(capsys, ["srg", graph, "--format", fmt]) == (0, LABELLED_P4_SRG[fmt], "")

    def test_srg_dot(self, capsys):
        code, out, _ = run_cli(capsys, ["srg", "jahangir:2,3", "--format", "dot"])
        assert code == 0
        assert out.startswith("graph {")

    def test_srg_disconnected_file(self, capsys, tmp_path):
        path = tmp_path / "two.json"
        path.write_text(DISCONNECTED_DOC)
        assert run_cli(capsys, ["srg", str(path)]) == (
            2, "", "error: MMD pairs are defined for connected graphs\n"
        )

    def test_srg_runs_above_the_exact_cover_cap(self, capsys):
        # srg has only the memory guard; J(20,13) has 261 vertices
        code, out, err = run_cli(capsys, ["srg", "jahangir:20,13"])
        assert (code, err) == (0, "")
        assert json.loads(out)["n"] == 261

    def test_mmd_command_is_gone(self, capsys):
        # srg prints the same sorted MMD pairs, as edges
        with pytest.raises(SystemExit) as exc:
            main(["mmd", "jahangir:3,3"])
        assert exc.value.code == 2
        assert "invalid choice: 'mmd'" in capsys.readouterr().err


class TestCover:
    def test_exact(self, capsys, tmp_path):
        path = tmp_path / "c4.json"
        path.write_text(C4_DOC)
        code, out, _ = run_cli(capsys, ["cover", str(path)])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "size = 2"
        assert lines[1] == "optimal = true"
        assert lines[2].startswith("cover = ")
        assert lines[3].startswith("nodes_explored = ")
        assert int(lines[3].split(" = ")[1]) >= 1

    def test_greedy_has_no_node_count(self, capsys, tmp_path):
        path = tmp_path / "c4.json"
        path.write_text(C4_DOC)
        code, out, _ = run_cli(capsys, ["cover", str(path), "--mode", "greedy"])
        assert code == 0
        assert "nodes_explored" not in out

    def test_srg_pipe_reproduces_sdim(self, capsys, tmp_path):
        srg_path = tmp_path / "srg.json"
        code, _, _ = run_cli(capsys, ["srg", "jahangir:6,5", "-o", str(srg_path)])
        assert code == 0
        code, out, _ = run_cli(capsys, ["cover", str(srg_path)])
        assert code == 0
        assert "size = 10" in out


    @pytest.mark.parametrize("command", ["cover", "sdim"])
    def test_exact_cover_cap(self, capsys, tmp_path, command):
        path = tmp_path / "p257.json"
        path.write_text(PATH_257_DOC)
        assert run_cli(capsys, [command, str(path)]) == (
            2, "", "error: graph has 257 vertices, exact cover cap is 256\n"
        )

    @pytest.mark.parametrize(
        "argv,cap",
        [
            (["sdim", "jahangir:300,300"], "exact cover cap is 256"),
            (["sdim", "jahangir:300,300", "--method", "brute"], "brute force cap is 16"),
            (["cover", "jahangir:300,300"], "exact cover cap is 256"),
            (["cover", "jahangir:300,300", "--mode", "greedy"], "memory guard cap is 16384"),
            (["srg", "jahangir:300,300"], "memory guard cap is 16384"),
        ],
        ids=["sdim", "sdim-brute", "cover", "cover-greedy", "srg"],
    )
    def test_oversize_jahangir_is_refused_before_it_is_built(self, capsys, monkeypatch, argv, cap):
        monkeypatch.setattr(cli, "build_jahangir", _refuse_build)
        assert run_cli(capsys, argv) == (2, "", f"error: graph has 90001 vertices, {cap}\n")

    @pytest.mark.parametrize("source", ["file", "stdin"])
    @pytest.mark.parametrize(
        "argv,doc,cap",
        [
            (["sdim"], MILLION_DOC, "graph has 1000000 vertices, exact cover cap is 256"),
            (["sdim", "--method", "brute", "--brute-cap", "20"], '{"n": 21}',
             "graph has 21 vertices, brute force cap is 20"),
            (["cover"], MILLION_DOC, "graph has 1000000 vertices, exact cover cap is 256"),
            (["cover", "--mode", "greedy"], MILLION_DOC, "graph has 1000000 vertices, memory guard cap is 16384"),
            (["srg"], MILLION_DOC, "graph has 1000000 vertices, memory guard cap is 16384"),
        ],
        ids=["sdim", "sdim-brute", "cover", "cover-greedy", "srg"],
    )
    def test_oversize_document_is_refused_before_it_is_built(
        self, capsys, monkeypatch, tmp_path, argv, doc, cap, source
    ):
        def refuse(vertex_count, edge_list):
            raise AssertionError(f"built a graph of order {vertex_count}")

        monkeypatch.setattr(graphs, "build_graph", refuse)
        if source == "file":
            path = tmp_path / "big.json"
            path.write_text(doc)
            graph = str(path)
        else:
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(doc.encode())))
            graph = "-"
        assert run_cli(capsys, [argv[0], graph, *argv[1:]]) == (2, "", f"error: {cap}\n")

    def test_memory_guard_admits_its_own_order(self, capsys, tmp_path):
        path = tmp_path / "edgeless.json"
        path.write_text(json.dumps({"n": cli.MEMORY_GUARD_CAP}))
        assert run_cli(capsys, ["cover", str(path), "--mode", "greedy"]) == (
            0, "size = 0\noptimal = true\ncover = \n", ""
        )

    def test_sdim_refuses_the_cap_before_growing_the_radii(self, capsys, monkeypatch, tmp_path):
        def refuse(g):
            raise AssertionError("sdim grew the radii of a graph above the cover cap")

        monkeypatch.setattr(strong_metric, "distance_balls", refuse)
        path = tmp_path / "p257.json"
        path.write_text(PATH_257_DOC)
        assert run_cli(capsys, ["sdim", str(path)]) == (
            2, "", "error: graph has 257 vertices, exact cover cap is 256\n"
        )


class TestVerify:
    def test_verify_refuses_the_cap_before_growing_the_radii(self, capsys, monkeypatch):
        def refuse(g):
            raise AssertionError("verify grew the radii of a graph above the cover cap")

        for module in (strong_metric, jahangir):
            monkeypatch.setattr(module, "distance_balls", refuse)
        assert run_cli(capsys, ["verify", "--n", "64", "--m", "4"]) == (  # J(64,4) has 257 vertices
            2, "", "error: graph has 257 vertices, exact cover cap is 256\n"
        )

    def test_oversize_grid_is_refused_before_any_cell_runs(self, capsys, monkeypatch):
        def refuse(g):
            raise AssertionError("verify ran a cell of a grid it refuses")

        monkeypatch.setattr(jahangir, "_cover_pipeline", refuse)
        assert run_cli(capsys, ["verify", "--n", "2..20", "--m", "3..20"]) == (  # J(13,20) first
            2, "", "error: graph has 261 vertices, exact cover cap is 256\n"
        )

    def test_oversize_grid_stops_the_cell_list_at_its_first_oversize_cell(self, capsys, monkeypatch):
        # J(2,128) has 257 vertices: the 126th cell of n = 2 ends the list
        built = []
        real = cli.JahangirParams

        def counted(n, m):
            built.append((n, m))
            return real(n, m)

        monkeypatch.setattr(cli, "JahangirParams", counted)
        assert run_cli(capsys, ["verify", "--n", "2..1000", "--m", "3..1000"]) == (
            2, "", "error: graph has 257 vertices, exact cover cap is 256\n"
        )
        assert len(built) <= 126
        assert built[-1] == (2, 128)

    def test_single_cell_table(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--n", "6..6", "--m", "5..5"])
        assert code == 0
        assert "PASS" in out
        assert "all 1 cells verified" in out

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--n", "5..5", "--m", "5..5", "--json"])
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 1
        doc = reports[0]
        for key in (
            "n",
            "m",
            "srg_edges_match",
            "cover_valid",
            "alpha",
            "formula_sdim",
            "pipeline_sdim",
            "discrepancies",
        ):
            assert key in doc
        assert doc["alpha"] == 12
        assert doc["srg_edges_match"] is True
        assert doc["discrepancies"] == []

    def test_failing_cell_table(self, capsys, monkeypatch):
        # the skew of test_jahangir.py's TestDiscrepancyReports.test_skewed_pipeline,
        # on J(6,5) only: one SRG edge too few (u2-u6), one too many (u1-u6), and
        # a cover one too large
        real = jahangir._cover_pipeline

        def skewed(g):
            radii, srg, result = real(g)
            if g.vertex_count != 31:
                return radii, srg, result
            edges = (set(srg.edges()) - {(1, 5)}) | {(0, 5)}
            bigger = StrongBasisResult(result.size + 1, result.basis, result.method)
            return radii, build_graph(srg.vertex_count, sorted(edges)), bigger

        monkeypatch.setattr(jahangir, "_cover_pipeline", skewed)
        assert run_cli(capsys, ["verify", "--n", "6", "--m", "4..5"]) == (1, FAILING_TABLE, "")

    def test_exploratory_cell_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--n", "4..4", "--m", "4..4"])
        assert code == 0
        assert "PASS (exploratory)" in out

    def test_grid_order_is_n_major(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--n", "6..7", "--m", "4..5", "--json"])
        assert code == 0
        cells = [(doc["n"], doc["m"]) for doc in json.loads(out)]
        assert cells == [(6, 4), (6, 5), (7, 4), (7, 5)]

    def test_parallel_matches_serial(self, capsys):
        _, serial, _ = run_cli(capsys, ["verify", "--n", "5..6", "--m", "4..4"])
        _, parallel, _ = run_cli(capsys, ["verify", "--n", "5..6", "--m", "4..4", "--jobs", "2"])
        assert serial == parallel

    def test_bad_range(self, capsys):
        code, _, err = run_cli(capsys, ["verify", "--n", "6..x"])
        assert code == 2
        assert "bad range" in err

    def test_empty_range(self, capsys):
        code, _, err = run_cli(capsys, ["verify", "--n", "8..6"])
        assert code == 2
        assert "empty range" in err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_bad_cell_rejected(self, capsys, jobs):
        code, out, err = run_cli(capsys, ["verify", "--n", "1..2", "--m", "3..3", "--jobs", jobs])
        assert (code, out) == (2, "")
        assert err == "error: jahangir parameters need n >= 2 and m >= 3, got (1, 3)\n"

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, capsys, jobs):
        code, out, err = run_cli(capsys, ["verify", "--n", "6..6", "--m", "5..5", "--jobs", jobs])
        assert code == 2
        assert out == ""
        assert "--jobs must be at least 1" in err


class TestWorkerCount:
    @pytest.mark.parametrize("requested,cpus,expected", [(64, 2, 2), (3, 8, 3), (4, None, 1)])
    def test_clamped_to_cpu_count(self, requested, cpus, expected):
        assert cli._worker_count(requested, cpus) == expected

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_below_one_rejected(self, jobs):
        with pytest.raises(GraphError, match="at least 1"):
            cli._worker_count(jobs, 4)


class TestBruteCap:
    def test_ceiling_accepted(self):
        assert cli._brute_cap(cli.MAX_BRUTE_CAP) == cli.MAX_BRUTE_CAP

    def test_above_ceiling_rejected(self):
        with pytest.raises(GraphError, match=f"at most {cli.MAX_BRUTE_CAP}"):
            cli._brute_cap(cli.MAX_BRUTE_CAP + 1)

    @pytest.mark.parametrize(
        "argv",
        [
            ["sdim", "jahangir:6,5", "--method", "brute", "--brute-cap", "40"],
            ["verify", "--n", "6..6", "--m", "5..5", "--brute-cap", "40"],
            ["sdim", "jahangir:6,5", "--method", "brute", "--brute-cap", "-3"],
            ["verify", "--n", "6..6", "--m", "5..5", "--brute-cap", "-1"],
        ],
    )
    def test_cli_rejects_before_searching(self, capsys, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("brute force ran despite the rejected cap")

        monkeypatch.setattr(cli, "brute_force_sdim", refuse)
        monkeypatch.setattr(cli, "verify_predictions", refuse)
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        bound = "at least 0" if argv[-1].startswith("-") else f"at most {cli.MAX_BRUTE_CAP}"
        assert f"--brute-cap must be {bound}, got {argv[-1]}" in err

    def test_below_zero_rejected(self):
        assert cli._brute_cap(0) == 0
        with pytest.raises(GraphError, match="at least 0, got -1"):
            cli._brute_cap(-1)

    def test_defaults_share_one_constant(self):
        cap = strong_metric.DEFAULT_BRUTE_CAP
        assert cap == 16
        for argv in (["sdim", "-"], ["verify"]):
            assert cli._build_parser().parse_args(argv).brute_cap == cap
        size_cap = inspect.signature(strong_metric.brute_force_sdim).parameters["size_cap"]
        brute_cap = inspect.signature(jahangir.verify_predictions).parameters["brute_cap"]
        assert size_cap.default == brute_cap.default == cap


def _run_python(*argv, stdin=None):
    """Run Python on ``argv``; with ``stdin`` bytes, feed them and return bytes output."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        input=stdin,
        capture_output=True,
        text=stdin is None,
        env=env,
        timeout=60,
    )


def _run_module(module):
    return _run_python("-m", module, "sdim", "jahangir:6,5")


def test_python_dash_m_entry_point():
    proc = _run_module("strongdim")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[:2] == ["sdim = 10", "method = vertex-cover-reduction"]


def test_python_dash_m_cli_module():
    proc = _run_module("strongdim.cli")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[:2] == ["sdim = 10", "method = vertex-cover-reduction"]


def test_importing_cli_leaves_multiprocessing_unloaded():
    # the process pool is imported only when verify runs with --jobs > 1
    proc = _run_python("-c", "import sys, strongdim.cli; print('multiprocessing' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
