"""Fuzz test of the CLI exit-code contract.

Whatever the graph, action, configuration, cover, trace and angle set
documents hold, `analyze`, `pipeline`, `export-dot --cover/--trace` and
`rips build --theta file:` exit 0 (all checks pass), 1 (a verification
failed, with a report whose ok is false) or 2 (usage or parse error, with
an error report).  An exception escaping main would be exit 1 with a
traceback and fails the test.  Documents have at most 6 vertices; about
half of them are malformed.
"""

import io
import json
from contextlib import redirect_stdout
from itertools import combinations, permutations

from hypothesis import HealthCheck, given, settings, strategies as st

from coarsecover.cli import main

MAX_N = 6

json_leaves = st.one_of(st.none(), st.booleans(), st.integers(-2, 8),
                        st.floats(-2, 8, allow_nan=False),
                        st.text("ab0", max_size=2))
json_values = st.recursive(
    json_leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text("ab", max_size=2), inner,
                                            max_size=2)),
    max_leaves=6)


@st.composite
def graph_cases(draw):
    """(document, automorphisms); the document may be malformed, and the
    automorphisms are those of the well-formed graph it was drawn from."""
    n = draw(st.integers(1, MAX_N))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)
             if draw(st.integers(0, 5))}  # a forest, mostly a tree
    pairs = list(combinations(range(n), 2))
    if pairs:
        edges |= draw(st.sets(st.sampled_from(pairs), max_size=3))
    doc = {"vertices": n, "edges": sorted(list(e) for e in edges)}
    if draw(st.booleans()):
        doc["cone_vertices"] = sorted(draw(st.sets(st.integers(0, n - 1),
                                                   max_size=2)))
    cones = set(doc.get("cone_vertices", ()))
    autos = [p for p in permutations(range(n))
             if {tuple(sorted((p[u], p[v]))) for u, v in edges} == edges
             and {p[v] for v in cones} == cones]
    if draw(st.integers(0, 3)) == 0:
        doc[draw(st.sampled_from(["vertices", "edges", "cone_vertices",
                                  "labels", "action"]))] = draw(json_values)
    return doc, autos


@st.composite
def action_documents(draw, autos):
    if draw(st.integers(0, 3)) == 0:
        return draw(json_values)
    gens = st.lists(st.sampled_from(autos).map(list), max_size=2)
    return draw(st.dictionaries(st.sampled_from(["a", "b"]), gens,
                                min_size=1, max_size=2))


@st.composite
def config_documents(draw, graph_path, action_path):
    doc = {"graph_path": graph_path}
    if action_path is not None and draw(st.booleans()):
        doc["action_path"] = action_path
    valid = {"alpha": st.integers(0, 2), "tau_max": st.integers(0, 3),
             "theta0_mode": st.sampled_from(["seed", "all"]),
             "action_name": st.sampled_from(["a", "b"])}
    for key in draw(st.sets(st.sampled_from(sorted(valid)), max_size=3)):
        doc[key] = draw(valid[key])
    if draw(st.integers(0, 2)) == 0:
        key = draw(st.sampled_from(sorted(valid) + ["graph_path",
                                                    "action_path", "x"]))
        doc[key] = draw(json_values)
    if draw(st.integers(0, 9)) == 0:
        doc = draw(json_values)
    return doc


# documents for export-dot: any JSON value, or one close to the schema
cover_documents = st.one_of(json_values, st.fixed_dictionaries({
    "members": st.lists(st.dictionaries(st.sampled_from(["points", "x"]),
                                        json_values, max_size=2),
                        max_size=2)}))
trace_documents = st.one_of(json_values, st.fixed_dictionaries({
    "moves": st.lists(st.dictionaries(
        st.sampled_from(["vertex", "replacement", "case"]), json_leaves,
        max_size=3), max_size=2)}))
angle_documents = st.one_of(json_values, st.lists(
    st.lists(st.integers(-1, MAX_N), min_size=3, max_size=3), max_size=3))


@st.composite
def invocations(draw, tmp_dir):
    doc, autos = draw(graph_cases())
    files = {"g.json": doc}
    cmd = draw(st.sampled_from(["analyze", "pipeline"] * 2
                               + ["export-dot", "rips"]))
    if cmd == "export-dot":
        flag, docs = draw(st.sampled_from([("--cover", cover_documents),
                                           ("--trace", trace_documents)]))
        return {"doc.json": draw(docs)}, [cmd, flag,
                                          str(tmp_dir / "doc.json")]
    if cmd == "rips":
        files["theta.json"] = draw(angle_documents)
        return files, ["rips", "build", "--graph", str(tmp_dir / "g.json"),
                       "--d", "2",
                       "--theta", "file:" + str(tmp_dir / "theta.json")]
    argv = [cmd, "--graph", str(tmp_dir / "g.json")]
    if cmd == "pipeline":
        action_path = None
        if autos and draw(st.booleans()):
            files["act.json"] = draw(action_documents(autos))
            action_path = str(tmp_dir / "act.json")
        if draw(st.integers(0, 2)) == 0:
            files["run.json"] = draw(config_documents(argv[2], action_path))
            argv += ["--config", str(tmp_dir / "run.json")]
        else:
            if action_path is not None:
                argv += ["--action", action_path]
            argv += ["--alpha", str(draw(st.integers(0, 2))),
                     "--tau-max", str(draw(st.integers(0, 3))),
                     "--theta0-mode", draw(st.sampled_from(["seed", "all"]))]
    return files, argv


def test_cli_exit_codes_follow_contract(tmp_path_factory):
    tmp_dir = tmp_path_factory.mktemp("fuzz")

    @settings(max_examples=180, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(invocations(tmp_dir))
    def check(case):
        files, argv = case
        for stale in tmp_dir.iterdir():
            stale.unlink()
        for name, doc in files.items():
            (tmp_dir / name).write_text(json.dumps(doc))
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(argv)
        assert code in (0, 1, 2)
        if argv[0] == "export-dot" and code != 2:
            return  # DOT text, not a JSON report
        report = json.loads(out.getvalue())
        if code == 2:
            assert "error" in report
        elif argv[0] == "pipeline":
            assert report["ok"] is (code == 0)

    check()
