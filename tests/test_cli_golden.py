"""Byte-level golden outputs of the subdividing CLI subcommands.

Each case runs once without --out (its stdout is hashed) and once with
--out (every written file is hashed, and stdout with the directory name
replaced by a placeholder).  The recorded sha256 digests pin the reports
byte for byte; regenerate them with

    PYTHONPATH=src:tests python tests/test_cli_golden.py

only when an output change is intended.
"""

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stdout

import pytest

from coarsecover.cli import main
from coarsecover.corpus import path_graph, random_tree, spider, spider_rotation
from coarsecover.graphs import make_graph
from oracles import graph_to_document

GRAPHS = {
    "path8": (path_graph(8), None),
    "tree12-3": (random_tree(12, 3), None),
    "spider3-4-rot": (spider(3, 4), spider_rotation(3, 4)),
    # the flow space runs on adjacent cone vertices, the cone operations
    # refuse them
    "path5-adjacent-cones": (make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)],
                                        cone_vertices=(1, 2)), None),
}

COMMANDS = {
    "cf-build": ["cf", "build"],
    "cf-doubling": ["cf", "doubling"],
    "cf-cover": ["cf", "cover"],
    "cf-pullback": ["cf", "pullback"],
    "cf-scan": ["cf", "scan"],
    "cone-build": ["cone", "build"],
    "cone-dichotomy": ["cone", "dichotomy"],
    "pipeline": ["pipeline"],
    "cover-combine": ["cover", "combine"],
}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def digests(workdir, graph_name, command):
    """Exit codes and sha256 digests of one case's stdout and artifacts."""
    g, rotation = GRAPHS[graph_name]
    gpath = os.path.join(workdir, "g.json")
    with open(gpath, "w") as fh:
        json.dump(graph_to_document(g), fh)
    argv = COMMANDS[command] + ["--graph", gpath]
    if rotation is not None:
        apath = os.path.join(workdir, "act.json")
        with open(apath, "w") as fh:
            json.dump({"rot": [list(rotation)]}, fh)
        argv += ["--action", apath, "--action-name", "rot"]
    code, out = _run(argv)
    rec = {"exit": code, "stdout": _sha(out)}
    out_dir = os.path.join(workdir, "out")
    code, out = _run(argv + ["--out", out_dir])
    rec["exit_out"] = code
    rec["stdout_out"] = _sha(out.replace(out_dir, "<out>"))
    for name in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else ():
        with open(os.path.join(out_dir, name)) as fh:
            rec[name] = _sha(fh.read())
    return rec


CASES = [(gname, cmd) for gname in GRAPHS for cmd in COMMANDS]

GOLDEN = {
    "path5-adjacent-cones/cf-build": {
        "cf.json": "ee5466544ddda07e26110fe7d7ecd8d9d5d8c9243799127d379724a8913cfaae",
        "exit": 0,
        "exit_out": 0,
        "stdout": "ee5466544ddda07e26110fe7d7ecd8d9d5d8c9243799127d379724a8913cfaae",
        "stdout_out": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "path5-adjacent-cones/cf-cover": {
        "cf_cover.json": "1651c5f658dc14e5c5166506c3ac6158a91248e59f4b3d387222e3853a798c95",
        "exit": 0,
        "exit_out": 0,
        "stdout": "1651c5f658dc14e5c5166506c3ac6158a91248e59f4b3d387222e3853a798c95",
        "stdout_out": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "path5-adjacent-cones/cf-doubling": {
        "cf_doubling.json": "12917cde92d80aa7e2cac65194babe28bda0adfa00b91d54f3de1a41576b5577",
        "exit": 0,
        "exit_out": 0,
        "stdout": "12917cde92d80aa7e2cac65194babe28bda0adfa00b91d54f3de1a41576b5577",
        "stdout_out": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "path5-adjacent-cones/cf-pullback": {
        "cf_pullback.json": "43045aac9b42faa49ae95688979a75b92129541feda2c259c846ca2cf0c888a6",
        "exit": 0,
        "exit_out": 0,
        "stdout": "43045aac9b42faa49ae95688979a75b92129541feda2c259c846ca2cf0c888a6",
        "stdout_out": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "path5-adjacent-cones/cf-scan": {
        "cf_scan.json": "e2c64a01d98509b4abd4d05d6f0f9d798c925dc6c68982c8f184693f8b0bd1f2",
        "exit": 0,
        "exit_out": 0,
        "stdout": "e2c64a01d98509b4abd4d05d6f0f9d798c925dc6c68982c8f184693f8b0bd1f2",
        "stdout_out": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "path5-adjacent-cones/cone-build": {
        "exit": 2,
        "exit_out": 2,
        "stdout": "fba4364a21798455574b4d27dce0c08f10327249f082d0736f17e8c45ce07a5f",
        "stdout_out": "fba4364a21798455574b4d27dce0c08f10327249f082d0736f17e8c45ce07a5f",
    },
    "path5-adjacent-cones/cone-dichotomy": {
        "exit": 2,
        "exit_out": 2,
        "stdout": "fba4364a21798455574b4d27dce0c08f10327249f082d0736f17e8c45ce07a5f",
        "stdout_out": "fba4364a21798455574b4d27dce0c08f10327249f082d0736f17e8c45ce07a5f",
    },
    "path5-adjacent-cones/cover-combine": {
        "exit": 2,
        "exit_out": 2,
        "stdout": "fba4364a21798455574b4d27dce0c08f10327249f082d0736f17e8c45ce07a5f",
        "stdout_out": "fba4364a21798455574b4d27dce0c08f10327249f082d0736f17e8c45ce07a5f",
    },
    "path5-adjacent-cones/pipeline": {
        "exit": 2,
        "exit_out": 2,
        "stdout": "fba4364a21798455574b4d27dce0c08f10327249f082d0736f17e8c45ce07a5f",
        "stdout_out": "fba4364a21798455574b4d27dce0c08f10327249f082d0736f17e8c45ce07a5f",
    },
    "path8/cf-build": {
        "cf.json": "ecaba02898fc920513923a6cbfbc5daafba692966cc17ac54cb6845088c82c85",
        "exit": 0,
        "exit_out": 0,
        "stdout": "ecaba02898fc920513923a6cbfbc5daafba692966cc17ac54cb6845088c82c85",
        "stdout_out": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "path8/cf-cover": {
        "cf_cover.json": "bd93d6ade12fa68c06b98b98e0d08a49637449cd4f3f6bb17d166063b3ef4348",
        "exit": 0,
        "exit_out": 0,
        "stdout": "bd93d6ade12fa68c06b98b98e0d08a49637449cd4f3f6bb17d166063b3ef4348",
        "stdout_out": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "path8/cf-doubling": {
        "cf_doubling.json": "bc1436302cb50c6a0b0532532fd6266c2f53b16bf69768e00da79fce9fec06ee",
        "exit": 0,
        "exit_out": 0,
        "stdout": "bc1436302cb50c6a0b0532532fd6266c2f53b16bf69768e00da79fce9fec06ee",
        "stdout_out": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "path8/cf-pullback": {
        "cf_pullback.json": "2d8ea14fdd6f993884fd0e85b1930a2af56711f1cdadc269265640d25d592aea",
        "exit": 0,
        "exit_out": 0,
        "stdout": "2d8ea14fdd6f993884fd0e85b1930a2af56711f1cdadc269265640d25d592aea",
        "stdout_out": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "path8/cf-scan": {
        "cf_scan.json": "e10a2b759022cd431efb031f1b41b9ad2b5dc50ec65b73cd8cb0c29a403a7019",
        "exit": 0,
        "exit_out": 0,
        "stdout": "e10a2b759022cd431efb031f1b41b9ad2b5dc50ec65b73cd8cb0c29a403a7019",
        "stdout_out": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "path8/cone-build": {
        "cones.json": "38cf1231591910b5bf2697593d05c68a482c6d6b4b3a689040911d0e412b831e",
        "exit": 0,
        "exit_out": 0,
        "stdout": "38cf1231591910b5bf2697593d05c68a482c6d6b4b3a689040911d0e412b831e",
        "stdout_out": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "path8/cone-dichotomy": {
        "dichotomy.json": "c2fb7eae7d69302d5182b1637eea79419138d79e639dc3131749259769621218",
        "exit": 0,
        "exit_out": 0,
        "stdout": "c2fb7eae7d69302d5182b1637eea79419138d79e639dc3131749259769621218",
        "stdout_out": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "path8/cover-combine": {
        "combined.json": "4fff9aa236cb1901d9120aedefe3e521fec1b21283bcddb7d542cb2f720e7f02",
        "combined_summary.json": "11a469154a3986b708fbb4b895d2bc201825ac7968b945a3a6196baaf813aa5f",
        "exit": 0,
        "exit_out": 0,
        "stdout": "11a469154a3986b708fbb4b895d2bc201825ac7968b945a3a6196baaf813aa5f",
        "stdout_out": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "path8/pipeline": {
        "cf.json": "c6f4b923929a91e51fcf0d7aa846e0b024d815fd5e273c2b9087a586abce605d",
        "combined.json": "4fff9aa236cb1901d9120aedefe3e521fec1b21283bcddb7d542cb2f720e7f02",
        "exit": 0,
        "exit_out": 0,
        "flow_cover.json": "1b18016c14d0537bccdcea787d01dbaa01e26eb0b1462394918dc130a70b0f38",
        "pipeline_summary.json": "11a469154a3986b708fbb4b895d2bc201825ac7968b945a3a6196baaf813aa5f",
        "pullback.json": "1b18016c14d0537bccdcea787d01dbaa01e26eb0b1462394918dc130a70b0f38",
        "stdout": "11a469154a3986b708fbb4b895d2bc201825ac7968b945a3a6196baaf813aa5f",
        "stdout_out": "90b6ba1fd037c0b240ae0f205f413df8408c4c077d9317801d20e760009fc219",
    },
    "spider3-4-rot/cf-build": {
        "cf.json": "00cb4ae4463c115819c946b1adbf4c4e4560d9898231fafee6c5d838e574dc2d",
        "exit": 0,
        "exit_out": 0,
        "stdout": "00cb4ae4463c115819c946b1adbf4c4e4560d9898231fafee6c5d838e574dc2d",
        "stdout_out": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "spider3-4-rot/cf-cover": {
        "cf_cover.json": "8337be8b595c6a08916b294f2df8e9288690800a51c2ddb4cb4e738de16f8d22",
        "exit": 0,
        "exit_out": 0,
        "stdout": "8337be8b595c6a08916b294f2df8e9288690800a51c2ddb4cb4e738de16f8d22",
        "stdout_out": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "spider3-4-rot/cf-doubling": {
        "cf_doubling.json": "304f905c29de8643c11b71c7de9c80e25ebe59dfadae7c62279b1cd4bc20bd4d",
        "exit": 0,
        "exit_out": 0,
        "stdout": "304f905c29de8643c11b71c7de9c80e25ebe59dfadae7c62279b1cd4bc20bd4d",
        "stdout_out": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "spider3-4-rot/cf-pullback": {
        "cf_pullback.json": "cb7a410504e508d79187865926f94f3817bc9dc8285c1ec94a3564d884469318",
        "exit": 0,
        "exit_out": 0,
        "stdout": "cb7a410504e508d79187865926f94f3817bc9dc8285c1ec94a3564d884469318",
        "stdout_out": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "spider3-4-rot/cf-scan": {
        "cf_scan.json": "63dac3477d52862894273e70c517dc829e52a59d030a4dd8a9e58bb30a21c939",
        "exit": 0,
        "exit_out": 0,
        "stdout": "63dac3477d52862894273e70c517dc829e52a59d030a4dd8a9e58bb30a21c939",
        "stdout_out": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "spider3-4-rot/cone-build": {
        "cones.json": "d625592a24b4049911f7b9c1fcc41af77b6a72ce261166c54dfa09f436cb026f",
        "exit": 0,
        "exit_out": 0,
        "stdout": "d625592a24b4049911f7b9c1fcc41af77b6a72ce261166c54dfa09f436cb026f",
        "stdout_out": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "spider3-4-rot/cone-dichotomy": {
        "dichotomy.json": "6af055eaa905a67f2b292253e89f669a44a5c5464eb959323d178c2cf52d30f0",
        "exit": 0,
        "exit_out": 0,
        "stdout": "6af055eaa905a67f2b292253e89f669a44a5c5464eb959323d178c2cf52d30f0",
        "stdout_out": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "spider3-4-rot/cover-combine": {
        "combined.json": "a439034942b955b1b3e28a15f78f702329389102e0dfaf644794bdd90d5ec75e",
        "combined_summary.json": "6dbcda5eb37fe647231faa9b025bf3d46810d3c11401d70d4811583d84411273",
        "exit": 0,
        "exit_out": 0,
        "stdout": "6dbcda5eb37fe647231faa9b025bf3d46810d3c11401d70d4811583d84411273",
        "stdout_out": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "spider3-4-rot/pipeline": {
        "cf.json": "741c8d3659fad4b24bd5ebc9074836d15f887e0a8b878404b8ec10d097d07ddf",
        "combined.json": "a439034942b955b1b3e28a15f78f702329389102e0dfaf644794bdd90d5ec75e",
        "exit": 0,
        "exit_out": 0,
        "flow_cover.json": "f727eab386363c373f3a4999d9c783680d936ed94d0f1c27b684336dab2cb10f",
        "pipeline_summary.json": "6dbcda5eb37fe647231faa9b025bf3d46810d3c11401d70d4811583d84411273",
        "pullback.json": "6823068bb9089a05642de5808f8776e05494499379082dde3dce46732d060c8e",
        "stdout": "6dbcda5eb37fe647231faa9b025bf3d46810d3c11401d70d4811583d84411273",
        "stdout_out": "90b6ba1fd037c0b240ae0f205f413df8408c4c077d9317801d20e760009fc219",
    },
    "tree12-3/cf-build": {
        "cf.json": "38f5e4d3aadd7b8c11762b7978755fa0079ee3b7a6868d0874dec0548dc8ad28",
        "exit": 0,
        "exit_out": 0,
        "stdout": "38f5e4d3aadd7b8c11762b7978755fa0079ee3b7a6868d0874dec0548dc8ad28",
        "stdout_out": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "tree12-3/cf-cover": {
        "cf_cover.json": "c46a8314e5d09ad53e49b749665deb043ed346eb1cb53b4ab4caa2c12f4137dd",
        "exit": 0,
        "exit_out": 0,
        "stdout": "c46a8314e5d09ad53e49b749665deb043ed346eb1cb53b4ab4caa2c12f4137dd",
        "stdout_out": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "tree12-3/cf-doubling": {
        "cf_doubling.json": "050a807ace416834fe2978d7606df3e34249e067c44a7d707752bdde43962331",
        "exit": 0,
        "exit_out": 0,
        "stdout": "050a807ace416834fe2978d7606df3e34249e067c44a7d707752bdde43962331",
        "stdout_out": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "tree12-3/cf-pullback": {
        "cf_pullback.json": "a2e85670958a76dbb70429a62d2e185c28d40c97fb4aa9414f0c101c83dd6675",
        "exit": 0,
        "exit_out": 0,
        "stdout": "a2e85670958a76dbb70429a62d2e185c28d40c97fb4aa9414f0c101c83dd6675",
        "stdout_out": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "tree12-3/cf-scan": {
        "cf_scan.json": "9a6b78454b70fb9cab6f94b730484c40940429b27f555e2370413abac3cdd429",
        "exit": 0,
        "exit_out": 0,
        "stdout": "9a6b78454b70fb9cab6f94b730484c40940429b27f555e2370413abac3cdd429",
        "stdout_out": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "tree12-3/cone-build": {
        "cones.json": "8152745fc964821101944fd416f97a43c6907052bde93cdf38af2ce7eb6f0c23",
        "exit": 0,
        "exit_out": 0,
        "stdout": "8152745fc964821101944fd416f97a43c6907052bde93cdf38af2ce7eb6f0c23",
        "stdout_out": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "tree12-3/cone-dichotomy": {
        "dichotomy.json": "6a23ef622b657bf1c36170ae65e7883eef9514bab5282069aab66fa6785a7bea",
        "exit": 0,
        "exit_out": 0,
        "stdout": "6a23ef622b657bf1c36170ae65e7883eef9514bab5282069aab66fa6785a7bea",
        "stdout_out": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "tree12-3/cover-combine": {
        "combined.json": "7f4bb13e31b05bc38349b82f3d0c7b833a15b08c77580853f98a5985364fd28b",
        "combined_summary.json": "753e5b238389eaa58a858767723b3d673ee6b8f8ad40a33c73864e7fd04dbff6",
        "exit": 0,
        "exit_out": 0,
        "stdout": "753e5b238389eaa58a858767723b3d673ee6b8f8ad40a33c73864e7fd04dbff6",
        "stdout_out": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "tree12-3/pipeline": {
        "cf.json": "6ec1a45bd47b6f53857c617c47ff77ab5621c2669dd5568ab17b3ba405265d0c",
        "combined.json": "7f4bb13e31b05bc38349b82f3d0c7b833a15b08c77580853f98a5985364fd28b",
        "exit": 0,
        "exit_out": 0,
        "flow_cover.json": "1b18016c14d0537bccdcea787d01dbaa01e26eb0b1462394918dc130a70b0f38",
        "pipeline_summary.json": "753e5b238389eaa58a858767723b3d673ee6b8f8ad40a33c73864e7fd04dbff6",
        "pullback.json": "1b18016c14d0537bccdcea787d01dbaa01e26eb0b1462394918dc130a70b0f38",
        "stdout": "753e5b238389eaa58a858767723b3d673ee6b8f8ad40a33c73864e7fd04dbff6",
        "stdout_out": "90b6ba1fd037c0b240ae0f205f413df8408c4c077d9317801d20e760009fc219",
    },
}


@pytest.mark.parametrize("graph_name, command", CASES,
                         ids=["%s-%s" % c for c in CASES])
def test_output_bytes_match_golden(tmp_path, graph_name, command):
    assert digests(str(tmp_path), graph_name, command) \
        == GOLDEN["%s/%s" % (graph_name, command)]


if __name__ == "__main__":
    table = {}
    for gname, cmd in CASES:
        with tempfile.TemporaryDirectory() as d:
            table["%s/%s" % (gname, cmd)] = digests(d, gname, cmd)
    json.dump(table, sys.stdout, indent=4, sort_keys=True)
    print()
