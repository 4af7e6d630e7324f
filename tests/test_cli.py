import json
import os
import subprocess
import sys

import pytest

from coarsecover.cli import main
from coarsecover.corpus import cycle_graph, path_graph, spider, spider_rotation
from coarsecover.graphs import graph_to_document


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

    def test_missing_file_is_usage_error(self, capsys):
        code, _ = run_cli(["analyze", "--graph", "/nonexistent.json"], capsys)
        assert code == 2

    def test_malformed_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{broken")
        code, _ = run_cli(["analyze", "--graph", str(p)], capsys)
        assert code == 2

    def test_non_integer_edge_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"vertices": 2, "edges": [["a", 1]]}))
        code, out = run_cli(["analyze", "--graph", str(p)], capsys)
        assert code == 2
        assert "bad edge entry" in json.loads(out)["error"]

    @pytest.mark.parametrize("doc, message", [
        ({"vertices": 3, "edges": [[0, 1], [1, 2]], "labels": [1]},
         "'labels' must be an object"),
        ({"vertices": True, "edges": []}, "'vertices' must be"),
    ], ids=["labels-list", "vertices-bool"])
    def test_malformed_fields_are_usage_errors(self, tmp_path, capsys, doc,
                                               message):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        code, out = run_cli(["analyze", "--graph", str(p)], capsys)
        assert code == 2
        assert message in json.loads(out)["error"]


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

    def test_dag(self, tmp_graph, capsys):
        code, out = run_cli(["export-dot", "--graph",
                             tmp_graph(cycle_graph(4)), "--dag", "0,2"],
                            capsys)
        assert code == 0 and "digraph" in out

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


class TestRunConfig:
    def test_pipeline_from_config(self, tmp_graph, tmp_path, capsys):
        gpath = tmp_graph(path_graph(8))
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "graph_path": gpath, "alpha": 1, "tau_max": 2,
            "theta0_mode": "all", "caps": {"geodesics": 1000}, "seed": 7}))
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
        cfg.write_text(json.dumps({"graph_path": str(cfg),
                                   "caps": {"bad": 0}}))
        code, _ = run_cli(["pipeline", "--graph", "x", "--config", str(cfg)],
                          capsys)
        assert code == 2

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

    def test_battery(self, tmp_graph, capsys):
        code, out = run_cli(["battery", "--graph", tmp_graph(cycle_graph(6)),
                             "--trials", "200", "--seed", "1"], capsys)
        assert code == 0
        assert json.loads(out)["ok"]

    def test_entry_point_installed(self):
        proc = subprocess.run([sys.executable, "-m", "coarsecover.cli",
                               "--help"], capture_output=True, text=True)
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
