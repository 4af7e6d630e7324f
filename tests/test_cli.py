import hashlib
import json
import os
import subprocess
import sys

import pytest

import coarsecover
from coarsecover import angles
from coarsecover.cli import main
from coarsecover.corpus import barbell, cycle_graph, grid_graph, path_graph, \
    spider, spider_rotation, triangle_caterpillar, wedge_of_cycles
from coarsecover.graphs import biconnected_blocks, make_graph
from oracles import graph_to_document


@pytest.fixture
def tmp_graph(tmp_path):
    def write(g, name="g.json"):
        path = tmp_path / name
        path.write_text(json.dumps(graph_to_document(g)))
        return str(path)
    return write


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestAnalyze:
    def test_c6_delta_line(self, tmp_graph, capsys):
        code, out = run_cli(["analyze", "--graph", tmp_graph(cycle_graph(6))],
                            capsys)
        assert code == 0
        data = json.loads(out)
        assert data["delta"] == 1
        assert data["theta3_circuit_bound"]["ok"]

    def test_tree_delta_zero(self, tmp_graph, capsys):
        code, out = run_cli(["analyze", "--graph", tmp_graph(path_graph(6))],
                            capsys)
        assert json.loads(out)["delta"] == 0

    def test_grid_report_is_pinned(self, tmp_graph, capsys):
        # the shortest circuit through each theta3 angle is read off one
        # BFS row; the digest is of the report that listing every circuit
        # of length up to 16 * delta = 64 printed
        code, out = run_cli(["analyze", "--graph", tmp_graph(grid_graph(5, 5))],
                            capsys)
        assert code == 0
        assert json.loads(out)["theta3_circuit_bound"] == {
            "bound": 64, "max_needed": 6, "ok": True}
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "d080c9b1edc928517035e11610e414ad91991d4842ef433189fed25c0993adac")

    def test_missing_file_is_usage_error(self, capsys):
        code, _ = run_cli(["analyze", "--graph", "/nonexistent.json"], capsys)
        assert code == 2

    def test_malformed_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{broken")
        code, _ = run_cli(["analyze", "--graph", str(p)], capsys)
        assert code == 2

    def test_out_writes_the_report_file(self, tmp_graph, tmp_path, capsys):
        gpath = tmp_graph(cycle_graph(6))
        _, printed = run_cli(["analyze", "--graph", gpath], capsys)
        code, out = run_cli(["analyze", "--graph", gpath,
                             "--out", str(tmp_path / "art")], capsys)
        assert code == 0 and out == ""
        assert (tmp_path / "art" / "analyze.json").read_text() == printed

    def test_non_integer_edge_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"vertices": 2, "edges": [["a", 1]]}))
        code, out = run_cli(["analyze", "--graph", str(p)], capsys)
        assert code == 2
        assert "bad edge entry" in json.loads(out)["error"]

    @pytest.mark.parametrize("kind, doc, message", [
        ("graph", {"vertices": 3, "edges": [[0, 1], [1, 2]], "labels": [1]},
         "'labels' must be an object"),
        ("graph", {"vertices": True, "edges": []}, "'vertices' must be"),
        ("graph", {"vertices": 3, "edges": [[0, 5]]}, "out of range"),
        ("graph", {"vertices": 3, "edges": [[0, 1]], "cone_vertices": 5},
         "'cone_vertices' must be"),
        ("graph", {"vertices": 3, "edges": [[0, 1]], "cone_vertices": ["a"]},
         "'cone_vertices' must be"),
        ("graph", {"vertices": 3, "edges": [[0, 1], [1, 2]],
                   "labels": {"7": "x"}}, "label key '7' names no vertex"),
        ("graph", {"vertices": 3, "edges": [[0, 1], [1, 2]],
                   "labels": {"a": "x"}}, "label key 'a' names no vertex"),
        ("graph", {"vertices": 3, "edges": [[0, 1], [1, 2]],
                   "labels": {"01": "x"}}, "label key '01' names no vertex"),
        ("graph", {"vertices": 3, "edges": [[0, 1], [1, 2]],
                   "labels": {"0": 5}}, "label of vertex 0 must be a string"),
        ("action", {"a": 5}, "must be a list of integer lists"),
        ("action", {"a": [5]}, "must be a list of integer lists"),
        ("config", {"alpha": "x"}, "'alpha' must be"),
    ], ids=["labels-list", "vertices-bool", "edge-out-of-range",
            "cone-vertices-int", "cone-vertex-str", "label-key-out-of-range",
            "label-key-str", "label-key-not-canonical", "label-value-int",
            "action-int",
            "action-entry-int", "config-alpha-str"])
    def test_malformed_fields_are_usage_errors(self, tmp_path, tmp_graph,
                                               capsys, kind, doc, message):
        """Graph documents go to analyze; action and config documents go
        to pipeline beside a valid graph."""
        p = tmp_path / "bad.json"
        if kind == "graph":
            args = ["analyze", "--graph", str(p)]
        else:
            gpath = tmp_graph(path_graph(4))
            if kind == "config":
                doc = dict(doc, graph_path=gpath)
            args = ["pipeline", "--graph", gpath, "--" + kind, str(p)]
        p.write_text(json.dumps(doc))
        code, out = run_cli(args, capsys)
        assert code == 2
        assert message in json.loads(out)["error"]


NEGATIVE_FLAGS = [
    (["pipeline", "--tau-max", "-1"], "--tau-max"),
    (["cf", "scan", "--tau-max", "-1"], "--tau-max"),
    (["pipeline", "--alpha", "-1"], "--alpha"),
    (["cone", "build", "--alpha", "-1"], "--alpha"),
    (["battery", "--trials", "-5"], "--trials"),
    (["rips", "homology", "--d", "2", "--max-dim", "-1"], "--max-dim"),
    (["rips", "build", "--d", "-1"], "--d"),
]


@pytest.mark.parametrize("rips_cmd", ["build", "homology"])
def test_simplex_cap_is_usage_error(tmp_graph, capsys, rips_cmd):
    # one simplex on 18 vertices has 2**18 - 1 faces, past the default cap
    code, out = run_cli(["rips", rips_cmd, "--graph",
                         tmp_graph(path_graph(18)), "--d", "20",
                         "--theta", "all"], capsys)
    assert code == 2
    assert "more than 200000 simplices" in json.loads(out)["error"]


@pytest.mark.parametrize("argv, flag", NEGATIVE_FLAGS,
                         ids=[" ".join(argv) for argv, _ in NEGATIVE_FLAGS])
def test_negative_flag_is_usage_error(tmp_graph, capsys, argv, flag):
    code, out = run_cli(argv + ["--graph", tmp_graph(path_graph(6))],
                        capsys)
    assert code == 2
    assert flag + " must be a nonnegative integer" in json.loads(out)["error"]


def _c5_k4_path():
    """Edge 0-1, a C5 on 2..6 hanging at 1 and a K4 on 7..10 at 0."""
    k4 = [(u, v) for u in range(7, 11) for v in range(u + 1, 11)]
    return make_graph(11, [(0, 1), (1, 2), (0, 7)] + k4
                      + [(2 + i, 2 + (i + 1) % 5) for i in range(5)])


MULTI_BLOCK = {
    "barbell8-6": (barbell(8, 6), 8),
    "c5-k4-path": (_c5_k4_path(), 6),
}

# sha256 of the stdout of analyze and of rips contract, and analyze's
# delta and witness triangle
PINS = {
    "barbell8-6": (
        "06e064f263ffa6961103c5ee072c4e4d51cd5a234ff1545694d9a42b99218041",
        "4241a50ec439cbf4c5c070f0d3f7c94ef92212f83cf08a46a8411c013a1e76a6",
        2, [0, 1, 4]),
    "c5-k4-path": (
        "701dc9871ee1513cb6470e52c2b9b3ca818c8dd680781c3a74b7aceee0aa09df",
        "ccf8aa7f7d8f2bd75728baf0287572809c36a17fec1662b6e71c9c1e75df2531",
        1, [0, 3, 5]),
}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestMultiBlockPins:
    """analyze and rips contract on graphs of several blocks, pinned byte
    for byte to the output of the whole-graph slimness and corner scans."""

    @pytest.mark.parametrize("name", sorted(MULTI_BLOCK))
    def test_analyze(self, tmp_graph, capsys, name):
        g, _ = MULTI_BLOCK[name]
        sha, _, delta, witness = PINS[name]
        code, out = run_cli(["analyze", "--graph", tmp_graph(g)], capsys)
        data = json.loads(out)
        assert (code, data["delta"], data["witness_triangle"]) \
            == (0, delta, witness)
        assert _sha(out) == sha

    def test_a_witness_spans_two_blocks(self):
        g, _ = MULTI_BLOCK["c5-k4-path"]
        witness = set(PINS["c5-k4-path"][3])
        assert not any(witness <= set(vs) for vs, _ in biconnected_blocks(g))

    @pytest.mark.parametrize("name", sorted(MULTI_BLOCK))
    def test_rips_contract(self, tmp_graph, capsys, name):
        g, d = MULTI_BLOCK[name]
        code, out = run_cli(["rips", "contract", "--graph", tmp_graph(g),
                             "--d", str(d)], capsys)
        assert (code, _sha(out)) == (0, PINS[name][1])


# sha256 of the stdout of rips build and of rips homology
RIPS_PINS = {
    "c10-d1": (
        cycle_graph(10), ["--d", "1", "--theta", "trivial"],
        "420cecb26e5b30a0f23c14ddef9ead9ab37bbb369a8d9f62b08a97744cc4c4b0",
        "2ba670db061c02a0eb361926f5a255113fafa7a53691d31d917a30ccaa53a1e8"),
    "wedge2x5-d2": (
        wedge_of_cycles(2, 5), ["--d", "2", "--theta", "trivial"],
        "89291a711c817b49d55b4ff1018bd5ea9c6ef179a8df733cfbeeee0fa9b75ea6",
        "f017da8961e30c3be2ee179abe8bfafe48243a8ab3526ca67596ff5b58fd5b5f"),
    "wedge2x6-d6": (
        wedge_of_cycles(2, 6), ["--d", "6"],
        "2a58dd8347df9c32bbdf4531de2ad1f4705d6bded091cba1b4a0cf2e286ba7d3",
        "c05bbcb38f39b2660768018a37b088b3c1020005ab971902b6e821fe98abf0d2"),
    "caterpillar8-d4": (
        triangle_caterpillar(8, [2, 5]), ["--d", "4"],
        "90db1a04eaef81271caa55f4a75f97e2c4e598497b1931b076ae1926b12be645",
        "c05bbcb38f39b2660768018a37b088b3c1020005ab971902b6e821fe98abf0d2"),
}


class TestRipsPins:
    """rips build and rips homology pinned byte for byte.  Two circles
    give non-acyclic Betti numbers, so the rational pass answers; the
    two 5-simplices on a shared vertex give max_coface_count 62."""

    @pytest.mark.parametrize("name", sorted(RIPS_PINS))
    def test_build(self, tmp_graph, capsys, name):
        g, flags, sha, _ = RIPS_PINS[name]
        code, out = run_cli(["rips", "build", "--graph", tmp_graph(g)]
                            + flags, capsys)
        assert (code, _sha(out)) == (0, sha)

    @pytest.mark.parametrize("name", sorted(RIPS_PINS))
    def test_homology(self, tmp_graph, capsys, name):
        g, flags, _, sha = RIPS_PINS[name]
        code, out = run_cli(["rips", "homology", "--graph", tmp_graph(g)]
                            + flags, capsys)
        assert (code, _sha(out)) == (0, sha)

    def test_readings(self, tmp_graph, capsys):
        g, flags, _, _ = RIPS_PINS["wedge2x6-d6"]
        _, out = run_cli(["rips", "build", "--graph", tmp_graph(g)] + flags,
                         capsys)
        assert json.loads(out)["stats"]["max_coface_count"] == 62
        for name, betti in (("c10-d1", [1, 1, 0, 0]),
                            ("wedge2x5-d2", [1, 2, 0, 0])):
            g, flags, _, _ = RIPS_PINS[name]
            _, out = run_cli(["rips", "homology", "--graph", tmp_graph(g)]
                             + flags, capsys)
            assert json.loads(out)["betti"] == betti


@pytest.mark.parametrize("rips_cmd", ["build", "contract", "homology"])
def test_adjacent_cone_vertices_are_usage_errors(tmp_path, capsys, rips_cmd):
    p = tmp_path / "cones.json"
    p.write_text(json.dumps({"vertices": 4, "edges": [[0, 1], [1, 2], [2, 3]],
                             "cone_vertices": [1, 2]}))
    code, out = run_cli(["rips", rips_cmd, "--graph", str(p), "--d", "4"],
                        capsys)
    assert code == 2
    assert "adjacent cone vertices" in json.loads(out)["error"]


class TestPipelineCommand:
    def test_tree_pipeline_passes(self, tmp_graph, capsys):
        code, out = run_cli(["pipeline", "--graph", tmp_graph(path_graph(10)),
                             "--alpha", "1", "--tau-max", "3",
                             "--theta0-mode", "all"], capsys)
        assert code == 0
        assert json.loads(out)["ok"]

    def test_action_file(self, tmp_graph, tmp_path, capsys):
        gpath = tmp_graph(spider(3, 4))
        apath = tmp_path / "act.json"
        apath.write_text(json.dumps({"rot": [list(spider_rotation(3, 4))]}))
        code, out = run_cli(["pipeline", "--graph", gpath,
                             "--action", str(apath), "--action-name", "rot",
                             "--alpha", "1", "--tau-max", "3"], capsys)
        assert code == 0

    def test_unknown_action_name_is_usage_error(self, tmp_graph, tmp_path,
                                                capsys):
        gpath = tmp_graph(spider(3, 4))
        apath = tmp_path / "act.json"
        apath.write_text(json.dumps({"rot": [list(spider_rotation(3, 4))]}))
        code, out = run_cli(["pipeline", "--graph", gpath,
                             "--action", str(apath), "--action-name", "nope"],
                            capsys)
        assert code == 2
        assert "no action named 'nope'" in json.loads(out)["error"]

    def test_non_string_action_reference_is_usage_error(self, tmp_path,
                                                         capsys):
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps({"vertices": 2, "edges": [[0, 1]],
                                     "action": [1]}))
        apath = tmp_path / "act.json"
        apath.write_text(json.dumps({"a": [[1, 0]]}))
        code, out = run_cli(["pipeline", "--graph", str(gpath),
                             "--action", str(apath)], capsys)
        assert code == 2
        assert "no action named [1]" in json.loads(out)["error"]

    @pytest.mark.parametrize("argv", [["pipeline"], ["cf", "build"],
                                      ["cone", "build"], ["cover", "combine"]],
                             ids=" ".join)
    def test_a_bad_generator_is_reported_before_a_disconnected_graph(
            self, tmp_graph, tmp_path, capsys, argv):
        # the generators are closed before the graph model is checked
        gpath = tmp_graph(make_graph(4, [(0, 1), (2, 3)]))
        apath = tmp_path / "act.json"
        apath.write_text(json.dumps({"a": [[1, 2, 0, 3]]}))
        code, out = run_cli(argv + ["--graph", gpath, "--action", str(apath)],
                            capsys)
        assert code == 2
        assert json.loads(out) == \
            {"error": "generator (1, 2, 0, 3) is not an automorphism"}

    def test_determinism(self, tmp_graph, capsys):
        args = ["pipeline", "--graph", tmp_graph(path_graph(8)),
                "--theta0-mode", "all", "--tau-max", "2"]
        _, out1 = run_cli(args, capsys)
        _, out2 = run_cli(args, capsys)
        assert out1 == out2

    def test_artifacts_written(self, tmp_graph, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        code, _ = run_cli(["pipeline", "--graph", tmp_graph(path_graph(8)),
                           "--theta0-mode", "all", "--tau-max", "2",
                           "--out", str(out_dir)], capsys)
        assert code == 0
        names = sorted(os.listdir(out_dir))
        assert "pipeline_summary.json" in names
        assert "combined.json" in names


class TestExportDot:
    def test_graph(self, tmp_graph, capsys):
        code, out = run_cli(["export-dot", "--graph",
                             tmp_graph(cycle_graph(4))], capsys)
        assert code == 0 and "0 -- 1" in out

    def test_labels_are_escaped(self, tmp_path, capsys):
        p = tmp_path / "g.json"
        p.write_text(json.dumps({"vertices": 2, "edges": [[0, 1]],
                                 "labels": {"0": 'a"b', "1": "c\\d"}}))
        code, out = run_cli(["export-dot", "--graph", str(p)], capsys)
        assert code == 0
        assert '0 [label="a\\"b"];' in out
        assert '1 [label="c\\\\d"];' in out

    def test_dag(self, tmp_graph, capsys):
        code, out = run_cli(["export-dot", "--graph",
                             tmp_graph(cycle_graph(4)), "--dag", "0,2"],
                            capsys)
        assert code == 0 and "digraph" in out

    @pytest.mark.parametrize("dag", ["0,9", "-1,2"])
    def test_dag_vertex_out_of_range_is_usage_error(self, tmp_graph, capsys,
                                                    dag):
        code, out = run_cli(["export-dot", "--graph",
                             tmp_graph(cycle_graph(4)), "--dag=" + dag],
                            capsys)
        assert code == 2
        assert "out of range" in json.loads(out)["error"]

    def test_dag_between_components_is_usage_error(self, tmp_graph, capsys):
        g = make_graph(4, [(0, 1), (2, 3)])
        code, out = run_cli(["export-dot", "--graph", tmp_graph(g),
                             "--dag", "0,2"], capsys)
        assert code == 2
        assert "disconnected" in json.loads(out)["error"]

    def test_cover_nerve(self, tmp_graph, tmp_path, capsys):
        out_dir = tmp_path / "art"
        run_cli(["pipeline", "--graph", tmp_graph(path_graph(8)),
                 "--theta0-mode", "all", "--tau-max", "2",
                 "--out", str(out_dir)], capsys)
        code, out = run_cli(["export-dot", "--cover",
                             str(out_dir / "combined.json")], capsys)
        assert code == 0 and "nerve" in out

    def test_trace_dot(self, tmp_graph, tmp_path, capsys):
        gpath = tmp_graph(cycle_graph(6))
        run_cli(["rips", "contract", "--graph", gpath, "--d", "4",
                 "--theta", "tfold:7", "--out", str(tmp_path)], capsys)
        code, out = run_cli(["export-dot", "--trace",
                             str(tmp_path / "trace.json")], capsys)
        assert code == 0 and "trace" in out

    def test_no_input_is_usage_error(self, capsys):
        code, _ = run_cli(["export-dot"], capsys)
        assert code == 2

    def test_out_is_not_an_option(self, tmp_graph, tmp_path, capsys):
        # the DOT text always goes to stdout
        with pytest.raises(SystemExit) as exit_:
            main(["export-dot", "--graph", tmp_graph(cycle_graph(4)),
                  "--out", str(tmp_path)])
        assert exit_.value.code == 2
        assert "--out" in capsys.readouterr().err

    @pytest.mark.parametrize("g, dag, expected", [
        (cycle_graph(6), "0,3",
         "digraph dag {\n  0 -> 1;\n  0 -> 5;\n  1 -> 2;\n  2 -> 3;\n"
         "  4 -> 3;\n  5 -> 4;\n}\n"),
        (grid_graph(3, 3), "0,5",
         "digraph dag {\n  0 -> 1;\n  0 -> 3;\n  1 -> 2;\n  1 -> 4;\n"
         "  2 -> 5;\n  3 -> 4;\n  4 -> 5;\n}\n"),
    ], ids=["cycle6", "grid3x3"])
    def test_dag_output_is_pinned(self, tmp_graph, capsys, g, dag, expected):
        code, out = run_cli(["export-dot", "--graph", tmp_graph(g),
                             "--dag", dag], capsys)
        assert code == 0 and out == expected


# documents of the wrong shape: their readers must reject them as usage
# errors, not let a TypeError or KeyError escape with exit 1
MALFORMED_DOCUMENTS = {
    "cover-without-members": ("--cover", {"alpha": 1}),
    "cover-list": ("--cover", [1, 2]),
    "cover-points-not-a-list": ("--cover", {"members": [{"points": 5}]}),
    "cover-point-object": ("--cover", {"members": [{"points": [{"a": 1}]}]}),
    "trace-move-missing-keys": ("--trace", {"moves": [{"vertex": 1}]}),
    "theta-number": ("--theta", 5),
    "theta-string-vertex": ("--theta", [["a", 1, 2]]),
}


@pytest.mark.parametrize("flag, doc", MALFORMED_DOCUMENTS.values(),
                         ids=MALFORMED_DOCUMENTS)
def test_malformed_document_is_usage_error(tmp_graph, tmp_path, capsys, flag,
                                           doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    if flag == "--theta":
        argv = ["rips", "build", "--graph", tmp_graph(cycle_graph(4)),
                "--d", "2", "--theta", "file:%s" % path]
    else:
        argv = ["export-dot", flag, str(path)]
    code, out = run_cli(argv, capsys)
    assert code == 2
    assert "error" in json.loads(out)


class TestRunConfig:
    def test_pipeline_from_config(self, tmp_graph, tmp_path, capsys):
        gpath = tmp_graph(path_graph(8))
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "graph_path": gpath, "alpha": 1, "tau_max": 2,
            "theta0_mode": "all"}))
        args = ["pipeline", "--graph", gpath, "--config", str(cfg)]
        code, out1 = run_cli(args, capsys)
        assert code == 0
        _, out2 = run_cli(args, capsys)
        assert out1 == out2

    def test_config_validates_files_and_caps(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"graph_path": "/missing.json"}))
        code, _ = run_cli(["pipeline", "--graph", "x", "--config", str(cfg)],
                          capsys)
        assert code == 2
        # caps are no configuration key, so any caps entry is refused
        cfg.write_text(json.dumps({"graph_path": str(cfg),
                                   "caps": {"bad": 0}}))
        code, out = run_cli(["pipeline", "--graph", "x", "--config",
                             str(cfg)], capsys)
        assert code == 2
        assert "caps" in json.loads(out)["error"]

    @pytest.mark.parametrize("key, value", [
        ("d", 4), ("theta_path", "t.json"), ("caps", {}), ("seed", 0)])
    def test_ignored_fields_are_unknown_keys(self, tmp_graph, tmp_path,
                                             capsys, key, value):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"graph_path": tmp_graph(path_graph(4)),
                                   key: value}))
        code, out = run_cli(["pipeline", "--graph", "x", "--config",
                             str(cfg)], capsys)
        assert code == 2
        assert key in json.loads(out)["error"]

    def test_unknown_config_key_is_usage_error(self, tmp_graph, tmp_path,
                                               capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"graph_path": tmp_graph(path_graph(4)),
                                   "alhpa": 1}))
        code, out = run_cli(["pipeline", "--graph", "x", "--config",
                             str(cfg)], capsys)
        assert code == 2
        assert "alhpa" in json.loads(out)["error"]


class TestSubcommands:
    def test_cf_doubling(self, tmp_graph, capsys):
        code, out = run_cli(["cf", "doubling", "--graph",
                             tmp_graph(path_graph(8)), "--theta", "all"],
                            capsys)
        assert code == 0
        assert json.loads(out)["ok"]

    def test_cf_scan(self, tmp_graph, capsys):
        code, out = run_cli(["cf", "scan", "--graph",
                             tmp_graph(path_graph(8)), "--theta", "all",
                             "--alpha", "2", "--tau-max", "2"], capsys)
        assert code == 0

    def test_cone_dichotomy(self, tmp_graph, capsys):
        code, out = run_cli(["cone", "dichotomy", "--graph",
                             tmp_graph(path_graph(8)), "--alpha", "1",
                             "--theta0-mode", "all"], capsys)
        assert code == 0
        assert json.loads(out)["ok"]

    def test_cover_combine(self, tmp_graph, capsys):
        code, out = run_cli(["cover", "combine", "--graph",
                             tmp_graph(path_graph(8)),
                             "--theta0-mode", "all", "--tau-max", "2"],
                            capsys)
        assert code == 0

    def test_rips_roundtrip(self, tmp_graph, capsys):
        gpath = tmp_graph(cycle_graph(6))
        code, out = run_cli(["rips", "build", "--graph", gpath, "--d", "2",
                             "--theta", "all"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["stats"]["dimension"] == 2
        code, out = run_cli(["rips", "homology", "--graph", gpath,
                             "--d", "2", "--theta", "all",
                             "--max-dim", "2"], capsys)
        assert json.loads(out)["betti"] == [1, 0, 1]
        code, out = run_cli(["rips", "contract", "--graph", gpath,
                             "--d", "4", "--theta", "tfold:7"], capsys)
        assert code == 0
        trace = json.loads(out)
        assert trace["final_vertex"] == trace["basepoint"]

    def test_rips_contract_measures_theta3_once(self, tmp_graph, capsys,
                                                monkeypatch):
        # tfold:7 reads the corner size and so does the contraction; one
        # computation, counted by its one block search, serves both
        searched, real = [], angles.biconnected_blocks
        monkeypatch.setattr(angles, "biconnected_blocks",
                            lambda g: searched.append(g) or real(g))
        code, out = run_cli(["rips", "contract", "--graph",
                             tmp_graph(wedge_of_cycles(2, 8)), "--d", "8",
                             "--theta", "tfold:7"], capsys)
        assert code == 0 and json.loads(out)["moves"]
        assert len(searched) == 1

    def test_battery_measures_theta3_once(self, tmp_graph, capsys,
                                          monkeypatch):
        # tfold:2 reads the corner size and so does the battery; one
        # computation, counted by its one block search, serves both
        searched, real = [], angles.biconnected_blocks
        monkeypatch.setattr(angles, "biconnected_blocks",
                            lambda g: searched.append(g) or real(g))
        code, out = run_cli(["battery", "--graph",
                             tmp_graph(wedge_of_cycles(2, 6)), "--theta",
                             "tfold:2", "--trials", "50"], capsys)
        assert code == 0 and json.loads(out)["ok"]
        assert len(searched) == 1

    def test_battery(self, tmp_graph, capsys):
        code, out = run_cli(["battery", "--graph", tmp_graph(cycle_graph(6)),
                             "--trials", "200", "--seed", "1"], capsys)
        assert code == 0
        assert json.loads(out)["ok"]

    def test_battery_on_a_grid_with_many_geodesics(self, tmp_graph, capsys):
        # corners of the 5x5 grid are joined by 70 geodesics; the battery
        # reads them off distance rows and counts, not a list of paths
        code, out = run_cli(["battery", "--graph", tmp_graph(grid_graph(5, 5))],
                            capsys)
        assert code == 0
        data = json.loads(out)
        assert data["ok"] and data["total"] > 0
        assert all(c["violations"] == 0 for c in data["lemmas"].values())

    def test_entry_point_installed(self):
        # the child imports the package under test, installed or not
        src = os.path.dirname(os.path.dirname(coarsecover.__file__))
        proc = subprocess.run([sys.executable, "-m", "coarsecover.cli",
                               "--help"], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0
        assert "coarse flow" in proc.stdout


class TestRemainingSurfaces:
    def test_cf_cover_and_pullback(self, tmp_graph, capsys):
        gpath = tmp_graph(path_graph(8))
        code, out = run_cli(["cf", "cover", "--graph", gpath, "--theta",
                             "all", "--alpha", "2"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["members"] and doc["order"] >= 0
        code, out = run_cli(["cf", "pullback", "--graph", gpath, "--theta",
                             "all", "--alpha", "2", "--tau", "1"], capsys)
        assert code == 0
        assert json.loads(out)["members"]

    def test_cf_tfold_uses_the_subdivision_corner_size(self, tmp_graph,
                                                       capsys):
        # the doubled corner size of the subdivision always passes the
        # flow-space hypothesis, also on a graph with cycles
        code, out = run_cli(["cf", "build", "--graph",
                             tmp_graph(cycle_graph(6)), "--theta", "tfold:2"],
                            capsys)
        assert code == 0
        assert json.loads(out)["triples"]

    def test_cf_build_lists_triples(self, tmp_graph, capsys):
        code, out = run_cli(["cf", "build", "--graph",
                             tmp_graph(path_graph(6)), "--theta", "all"],
                            capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["delta"] == 0 and doc["triples"]

    def test_cone_build_serializes_apexes(self, tmp_graph, capsys):
        code, out = run_cli(["cone", "build", "--graph",
                             tmp_graph(spider(3, 4)), "--alpha", "1"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["cone_sets"]
        assert all("apex" in c and "members" in c for c in doc["cone_sets"])


class TestInstanceInputs:
    """Inputs no subdivided instance can be built from are usage errors."""

    SUBDIVIDING = [["pipeline"], ["cover", "combine"], ["cone", "build"],
                   ["cone", "dichotomy"], ["cf", "build"]]

    @pytest.mark.parametrize("cmd", SUBDIVIDING, ids=" ".join)
    def test_disconnected_graph(self, tmp_path, capsys, cmd):
        p = tmp_path / "g.json"
        p.write_text(json.dumps({"vertices": 4, "edges": [[0, 1], [2, 3]]}))
        code, out = run_cli(cmd + ["--graph", str(p)], capsys)
        assert code == 2
        assert "disconnected" in json.loads(out)["error"]

    def test_graph_without_edges(self, tmp_path, capsys):
        p = tmp_path / "g.json"
        p.write_text(json.dumps({"vertices": 1, "edges": []}))
        code, out = run_cli(["pipeline", "--graph", str(p)], capsys)
        assert code == 2
        assert "no edges" in json.loads(out)["error"]

    def test_theta_not_invariant_under_action(self, tmp_graph, tmp_path,
                                               capsys):
        # angles at vertices 1 and 2 of the first leg only; the rotation
        # moves them to the other legs
        gpath = tmp_graph(spider(3, 4))
        apath = tmp_path / "act.json"
        apath.write_text(json.dumps({"rot": [list(spider_rotation(3, 4))]}))
        tpath = tmp_path / "theta.json"
        tpath.write_text(json.dumps([[0, 1, 2], [1, 2, 3]]))
        code, out = run_cli(["cf", "build", "--graph", gpath, "--action",
                             str(apath), "--theta", "file:%s" % tpath],
                            capsys)
        assert code == 2
        assert "not invariant" in json.loads(out)["error"]
        tpath.write_text(json.dumps([[0, 1, 2], [0, 5, 6], [0, 9, 10]]))
        code, _ = run_cli(["cf", "build", "--graph", gpath, "--action",
                           str(apath), "--theta", "file:%s" % tpath], capsys)
        assert code == 0
