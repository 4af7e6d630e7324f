"""Command line front end.

Exit codes: 0 all verifications pass, 1 a verification failed, 2 usage or
parse errors.  Reports are JSON on stdout; artifacts go to files under
--out when given.  Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .angles import (
    all_angles,
    angleset_to_document,
    k_fold_sum,
    lemma_battery,
    load_angleset,
    theta3,
    theta3_circuit_bound_check,
    trivial_only,
)
from .cones import cone_cover, dichotomy_check
from .flow import (
    ball_closed_targets,
    build_cf_theta,
    cf_doubling_report,
    cf_pair_space,
    cover_cf,
    expand_cover,
    pullback_cover,
    wideness_scan,
)
from .graphs import (
    DEFAULT_CONE_THRESHOLD,
    CapExceeded,
    GeodesicIndex,
    GraphFormatError,
    dag_to_dot,
    fineness_profile,
    geodesic_dag,
    graph_to_dot,
    load_graph,
    parse_document,
    slimness_constant,
)
from .pipeline import PipelineError, build_instance, cover_to_document, \
    report_json, run_pipeline, select_theta0
from .rips import build_rips, complex_stats, contract_subcomplex, \
    homology_oracle


@dataclass
class RunConfig:
    """File-backed configuration for the pipeline command."""

    graph_path: str
    action_path: str = None
    action_name: str = None
    alpha: int = 1
    tau_max: int = 8
    theta0_mode: str = "seed"

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            doc = json.load(fh)
        try:
            cfg = cls(**doc)
        except TypeError as e:  # not an object, or unknown or missing keys
            raise GraphFormatError("bad run configuration: %s" % e) from None
        cfg.validate()
        return cfg

    def validate(self):
        for key, optional in (("graph_path", False), ("action_path", True),
                              ("action_name", True)):
            v = getattr(self, key)
            if not isinstance(v, str) and not (optional and v is None):
                raise GraphFormatError("%r must be a string" % key)
        for key in ("alpha", "tau_max"):
            v = getattr(self, key)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise GraphFormatError("%r must be a nonnegative integer"
                                       % key)
        for p in (self.graph_path, self.action_path):
            if p is not None and not os.path.exists(p):
                raise GraphFormatError("missing file %r" % p)


def _read_graph(args):
    """The graph model and the document it was loaded from."""
    with open(args.graph) as fh:
        doc = parse_document(fh.read())
    return load_graph(doc, cone_threshold=args.cone_threshold), doc


def _read_model(args):
    """The graph model and its generator lists, none without an action
    file."""
    g, graph_doc = _read_graph(args)
    if not getattr(args, "action", None):
        return g, ()
    with open(args.action) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise GraphFormatError("action document must be an object")
    name = getattr(args, "action_name", None)
    if name is None:
        # the graph document may reference the generator list by name
        name = graph_doc.get("action")
    if name is None:
        name = min(doc, default=None)
    if not isinstance(name, str) or name not in doc:
        raise GraphFormatError("no action named %r" % (name,))
    perms = doc[name]
    if not isinstance(perms, list) or not all(
            isinstance(p, list) and all(
                isinstance(x, int) and not isinstance(x, bool) for x in p)
            for p in perms):
        raise GraphFormatError("action %r must be a list of integer lists"
                               % name)
    return g, perms


def _theta_for(g, spec_text, corner):
    """The size named by spec_text; tfold:k sums k copies of the corner
    size that the zero-argument function corner returns."""
    if spec_text == "all":
        return all_angles(g)
    if spec_text == "trivial":
        return trivial_only(g)
    if spec_text.startswith("tfold:"):
        k = int(spec_text.split(":", 1)[1])
        return k_fold_sum(corner(), k)
    if spec_text.startswith("file:"):
        with open(spec_text.split(":", 1)[1]) as fh:
            return load_angleset(fh.read(), g)
    raise GraphFormatError("unknown theta spec %r" % spec_text)


def _emit(args, name, data):
    text = report_json(data)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, name + ".json"), "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_analyze(args):
    g, _ = _read_graph(args)
    index = GeodesicIndex(g)
    report = {
        "vertices": g.vertex_count,
        "edges": len(g.edges),
        "cone_vertices": sorted(g.cone_vertices),
        "connected": g.is_connected(),
    }
    if g.is_connected():
        rep = slimness_constant(g, index.dist)
        t3 = theta3(g, index=index)
        circ = theta3_circuit_bound_check(g, t3, rep.delta)
        report.update({
            "delta": rep.delta,
            "witness_triangle": list(rep.witness_triangle),
            "fineness": fineness_profile(g, min(16 * max(1, rep.delta), 12)),
            "theta3_nontrivial": len(t3),
            "theta3_circuit_bound": {
                "ok": circ["ok"], "bound": circ["bound"],
                "max_needed": circ["max_circuit_needed"],
            },
        })
    _emit(args, "analyze", report)
    return 0


def _cf_document(cf):
    return {"delta": cf.delta, "delta_prime": cf.delta_prime,
            "endpoints": list(cf.endpoints),
            "triples": sorted(list(t) for t in cf.triples)}


def _run_and_write(args, summary_name, artifact_keys):
    """Run the pipeline, emit its summary and, under --out, the artifacts;
    the flow cover, on fiber classes, is placed on the endpoint pairs."""
    res = run_pipeline(*_read_model(args), alpha=args.alpha,
                       tau_max=args.tau_max, theta0_mode=args.theta0_mode)
    _emit(args, summary_name, res.summary())
    group = res.instance.sub_group
    for key in artifact_keys if args.out else ():
        if key in res.artifacts:
            art = res.artifacts[key]
            if key == "cf":
                doc = _cf_document(art)
            elif key == "flow_cover":
                cf = res.artifacts["cf"]
                doc = cover_to_document(expand_cover(cf, art), group,
                                        cf.sub.ve_vertices())
            else:
                doc = cover_to_document(art, group, group.elements)
            _emit(args, key, doc)
    return res


def cmd_pipeline(args):
    if args.config:
        cfg = RunConfig.from_file(args.config)
        args.graph = cfg.graph_path
        args.action = cfg.action_path
        args.action_name = cfg.action_name
        args.alpha = cfg.alpha
        args.tau_max = cfg.tau_max
        args.theta0_mode = cfg.theta0_mode
    res = _run_and_write(args, "pipeline_summary",
                         ("flow_cover", "pullback", "combined", "cf"))
    if args.out:
        print(report_json({"ok": res.ok, "out": args.out}))
    return 0 if res.ok else 1


def _deep_tuple(x):
    if isinstance(x, dict):
        raise GraphFormatError("a cover point must not hold an object")
    return tuple(_deep_tuple(y) for y in x) if isinstance(x, list) else x


def _cover_nerve_dot(doc) -> str:
    """Members as nodes, intersections as edges."""
    members = doc.get("members") if isinstance(doc, dict) else None
    if not isinstance(members, list) or not all(
            isinstance(m, dict) and isinstance(m.get("points"), list)
            for m in members):
        raise GraphFormatError("a cover document must carry 'members', "
                               "each with a 'points' list")
    sets = [frozenset(_deep_tuple(p) for p in m["points"]) for m in members]
    lines = ["graph nerve {"]
    for i, s in enumerate(sets):
        lines.append('  m%d [label="m%d (%d)"];' % (i, i, len(s)))
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if sets[i] & sets[j]:
                lines.append("  m%d -- m%d;" % (i, j))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _trace_dot(doc) -> str:
    moves = doc.get("moves") if isinstance(doc, dict) else None
    keys = {"vertex", "replacement", "case"}
    if not isinstance(moves, list) or not all(
            isinstance(m, dict) and keys <= m.keys() for m in moves):
        raise GraphFormatError("a trace document must carry 'moves', each "
                               "with 'vertex', 'replacement' and 'case'")
    lines = ["digraph trace {"]
    for i, m in enumerate(moves):
        lines.append('  s%d [label="%s -> %s (%s)"];'
                     % (i, m["vertex"], m["replacement"], m["case"]))
        if i:
            lines.append("  s%d -> s%d;" % (i - 1, i))
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_export_dot(args):
    if args.cover:
        with open(args.cover) as fh:
            sys.stdout.write(_cover_nerve_dot(json.load(fh)))
        return 0
    if args.trace:
        with open(args.trace) as fh:
            sys.stdout.write(_trace_dot(json.load(fh)))
        return 0
    if not args.graph:
        raise GraphFormatError("export-dot needs --graph, --cover or --trace")
    g, _ = _read_graph(args)
    if args.dag:
        u, v = map(int, args.dag.split(","))
        if not (0 <= u < g.vertex_count and 0 <= v < g.vertex_count):
            raise GraphFormatError("--dag vertex out of range: %s" % args.dag)
        sys.stdout.write(dag_to_dot(geodesic_dag(GeodesicIndex(g), u, v)))
    else:
        sys.stdout.write(graph_to_dot(g))
    return 0


def cmd_cf(args):
    inst = build_instance(*_read_model(args))
    sub_group, v0, boundary = inst.sub_group, inst.v0, inst.boundary
    theta = _theta_for(inst.graph, args.theta, lambda: inst.t3)
    cf = build_cf_theta(inst.sub, theta, inst.flow_endpoints(),
                        group=sub_group, delta=inst.delta, index=inst.index,
                        theta3_set=inst.t3)
    if args.cf_cmd == "build":
        _emit(args, "cf", _cf_document(cf))
        return 0
    if args.cf_cmd == "doubling":
        rep = cf_doubling_report(cf, compute_tightest=True)
        _emit(args, "cf_doubling", rep)
        return 0 if rep["ok"] else 1
    cover = cover_cf(cf_pair_space(cf), args.alpha)
    if args.cf_cmd == "cover":
        _emit(args, "cf_cover", cover_to_document(
            expand_cover(cf, cover), sub_group, inst.sub.ve_vertices()))
        return 0
    targets = ball_closed_targets(cf, v0, args.alpha, boundary)
    if args.cf_cmd == "pullback":
        pull = pullback_cover(cf, cover, args.tau, targets, v0)
        _emit(args, "cf_pullback", cover_to_document(pull, sub_group,
                                                     sub_group.elements))
        return 0
    if args.cf_cmd == "scan":
        scan = wideness_scan(cf, cover, args.alpha, targets,
                             range(0, args.tau_max + 1), v0)
        _emit(args, "cf_scan", {"tau": scan.passing_tau,
                                "targets": len(targets),
                                "witness": list(scan.witness)})
        return 0 if scan.ok else 1
    raise GraphFormatError("unknown cf subcommand")


def cmd_cone(args):
    inst = build_instance(*_read_model(args))
    sub_group, xi = inst.sub_group, inst.cone_targets()
    theta0 = select_theta0(inst, args.alpha, args.theta0_mode)
    cones, oracle = cone_cover(inst, theta0, xi)
    if args.cone_cmd == "build":
        data = [{
            "apex": c.apex, "layer": c.layer,
            "members": sorted([sub_group.rank[ge], x]
                              for (ge, x) in c.members),
            "certified_interior": sorted([sub_group.rank[ge], x]
                                         for (ge, x) in c.certified_interior),
        } for c in cones]
        _emit(args, "cones", {"theta_out": angleset_to_document(oracle.size),
                              "cone_sets": data})
        return 0
    rep = dichotomy_check(inst, oracle, args.alpha, cones, xi)
    _emit(args, "dichotomy", rep)
    return 0 if rep["ok"] else 1


def cmd_cover_combine(args):
    res = _run_and_write(args, "combined_summary", ("combined",))
    return 0 if res.ok else 1


def cmd_rips(args):
    g, _ = _read_graph(args)
    index = GeodesicIndex(g)
    theta = _theta_for(g, args.theta, lambda: theta3(g, index=index))
    if args.rips_cmd == "build":
        P = build_rips(g, args.d, theta, index=index)
        _emit(args, "rips", {
            "vertices": list(P.vertices),
            "maximal_simplices": sorted(sorted(s) for s in P.maximal_simplices),
            "stats": complex_stats(P),
        })
        return 0
    if args.rips_cmd == "homology":
        P = build_rips(g, args.d, theta, index=index)
        betti = homology_oracle(P, max_dim=args.max_dim)
        _emit(args, "homology", {"betti": list(betti)})
        return 0
    if args.rips_cmd == "contract":
        delta = slimness_constant(g, index.dist).delta
        trace = contract_subcomplex(sorted(g.vertices), g, args.d, theta,
                                    delta, index=index)
        _emit(args, "trace", {
            "basepoint": trace.basepoint,
            "final_vertex": trace.final_vertex,
            "moves": [{"vertex": m.vertex, "replacement": m.replacement,
                       "case": m.case,
                       "measure_before": list(m.measure_before),
                       "measure_after": list(m.measure_after)}
                      for m in trace.moves],
        })
        return 0
    raise GraphFormatError("unknown rips subcommand")


def cmd_battery(args):
    g, _ = _read_graph(args)
    index = GeodesicIndex(g)
    theta0 = _theta_for(g, args.theta, lambda: theta3(g, index=index))
    rep = lemma_battery(g, theta0, args.trials, args.seed, index)
    _emit(args, "battery", {"ok": rep.ok, "total": rep.total_checked,
                            "lemmas": rep.summary()})
    return 0 if rep.ok else 1


def build_parser():
    ap = argparse.ArgumentParser(
        prog="coarsecover",
        description="long thin covers, coarse flow spaces and relative Rips "
                    "complexes on finite graph models")
    ap.add_argument("--cone-threshold", type=int,
                    default=DEFAULT_CONE_THRESHOLD,
                    help="valency threshold marking cone vertices when the "
                         "graph file does not list them")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, action=True):
        p.add_argument("--graph", required=True)
        p.add_argument("--out")
        if action:
            p.add_argument("--action", help="JSON file of named generator lists")
            p.add_argument("--action-name")

    def settings(p, tau_max=True):
        """The pipeline settings, with RunConfig's defaults."""
        p.add_argument("--alpha", type=int, default=RunConfig.alpha)
        if tau_max:
            p.add_argument("--tau-max", type=int, default=RunConfig.tau_max)
        p.add_argument("--theta0-mode", choices=("seed", "all"),
                       default=RunConfig.theta0_mode)

    p = sub.add_parser("analyze", help="distances, slimness, fineness, corner sizes")
    common(p, action=False)

    p = sub.add_parser("pipeline", help="full covering chain with verification")
    common(p)
    settings(p)
    p.add_argument("--config", help="JSON run configuration overriding flags")

    p = sub.add_parser("export-dot", help="graph, DAG, cover nerve or trace")
    p.add_argument("--graph")
    p.add_argument("--dag", help="u,v for the geodesic DAG between u and v")
    p.add_argument("--cover", help="cover artifact file; emits its nerve")
    p.add_argument("--trace", help="contraction trace file")

    p = sub.add_parser("cf", help="coarse flow space operations")
    p.add_argument("cf_cmd", choices=("build", "doubling", "cover",
                                      "pullback", "scan"))
    common(p)
    p.add_argument("--theta", default="all")
    p.add_argument("--alpha", type=int, default=2)
    p.add_argument("--tau", type=int, default=0)
    p.add_argument("--tau-max", type=int, default=8)

    p = sub.add_parser("cone", help="cone cover operations")
    p.add_argument("cone_cmd", choices=("build", "dichotomy"))
    common(p)
    settings(p, tau_max=False)

    p = sub.add_parser("cover", help="combined cover")
    p.add_argument("cover_cmd", choices=("combine",))
    common(p)
    settings(p)

    p = sub.add_parser("rips", help="relative Rips complex operations")
    p.add_argument("rips_cmd", choices=("build", "contract", "homology"))
    common(p, action=False)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--theta", default="tfold:7")
    p.add_argument("--max-dim", type=int, default=3)

    p = sub.add_parser("battery", help="large-angle lemma property battery")
    common(p, action=False)
    p.add_argument("--theta", default="trivial")
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    handlers = {
        "analyze": cmd_analyze,
        "pipeline": cmd_pipeline,
        "export-dot": cmd_export_dot,
        "cf": cmd_cf,
        "cone": cmd_cone,
        "cover": cmd_cover_combine,
        "rips": cmd_rips,
        "battery": cmd_battery,
    }
    try:
        for key in ("alpha", "tau_max", "trials", "max_dim", "d"):
            value = getattr(args, key, 0)
            if value < 0:
                raise GraphFormatError("--%s must be a nonnegative integer, "
                                       "got %d" % (key.replace("_", "-"), value))
        return handlers[args.cmd](args)
    except (OSError, json.JSONDecodeError, GraphFormatError, ValueError,
            PipelineError, CapExceeded) as e:
        print(report_json({"error": str(e)}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
