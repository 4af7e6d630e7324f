"""No function, method, field or fallback in src/ that only tests reach.

An AST scan lists the module-level functions and the methods of
src/coarsecover (corpus.py, the seeded instance generators, aside), the
fields of its dataclasses and the attributes that plain classes set in
__init__.  A function counts as read when its name is loaded anywhere in
src/coarsecover or perfbench/ (perfbench's own test_*.py files aside), a
method or field when an attribute of that name is loaded there.  An
attribute loaded on the name args, the argparse namespace of cli.py, is an
option and not a read, so args.theta does not keep a field theta alive.
Names are matched by spelling, not by type, so a dead field sharing its
name with a live attribute of another class (graph, delta) escapes the
scan; what it does flag is unread outside tests.

A second scan flags a parameter with a default although every call in
those program files passes it: its default is used only in tests.  A last
check runs benchmark verdicts and finds no attribute added to their input
graphs, where a cache would outlive the verdict.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import perfbench_module

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "coarsecover"

# read only by tests, each for a reason
ALLOWED = {
    "is_F_subset": "perfbench's tracer wraps it by name",
}


# parameters with a default that every program call passes, each kept for
# a reason
ALLOWED_DEFAULTS = {
    "load_graph.cone_threshold": "the one home of DEFAULT_CONE_THRESHOLD, "
                                 "which the command line option also reads",
}


def _is_dataclass(cls):
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
               == "dataclass" for d in cls.decorator_list)


def definitions(src):
    """(functions, members) defined in the files src: name -> file, and
    "Class.name" -> file."""
    functions, members = {}, {}
    for path in src:
        if path.name == "corpus.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                functions[node.name] = path.name
            if not isinstance(node, ast.ClassDef):
                continue
            names = []
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    if not item.name.startswith("__"):
                        names.append(item.name)
                    if item.name == "__init__":
                        names += [n.attr for n in ast.walk(item)
                                  if isinstance(n, ast.Attribute)
                                  and isinstance(n.ctx, ast.Store)
                                  and getattr(n.value, "id", None) == "self"]
                elif isinstance(item, ast.AnnAssign) and _is_dataclass(node):
                    names.append(item.target.id)
            members.update((node.name + "." + n, path.name) for n in names)
    return functions, members


def loads(paths):
    """The names and the attribute names loaded in the given files, the
    attributes of args, the command line options, left out."""
    names, attrs = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load) \
                    and getattr(node.value, "id", None) != "args":
                attrs.add(node.attr)
    return names, attrs


def unread(src):
    """The functions and members defined in src that no file of src or
    of perfbench reads, ALLOWED aside."""
    functions, members = definitions(src)
    bench = [p for p in (ROOT / "perfbench").glob("*.py")
             if not p.name.startswith("test_")]
    names, attrs = loads([*src, *bench])
    return sorted(
        ["%s (%s)" % (f, where) for f, where in functions.items()
         if f not in names | attrs and f not in ALLOWED]
        + ["%s (%s)" % (m, where) for m, where in members.items()
           if m.split(".")[1] not in attrs and m not in ALLOWED])


def test_src_holds_nothing_only_tests_read():
    found = unread(sorted(SRC.glob("*.py")))
    assert not found, "read by no program file: %s" % ", ".join(found)


def test_a_restored_dead_field_is_flagged(tmp_path):
    # CoarseFlowSpace.theta again, which only the options' args.theta spells
    text = (SRC / "flow.py").read_text()
    mutant = text.replace("    sub: Subdivision\n",
                          "    sub: Subdivision\n    theta: AngleSet\n", 1)
    assert mutant != text
    (tmp_path / "flow.py").write_text(mutant)
    src = [tmp_path / "flow.py" if p.name == "flow.py" else p
           for p in sorted(SRC.glob("*.py"))]
    assert "CoarseFlowSpace.theta (flow.py)" in unread(src)


def test_allowlist_names_exist():
    functions, members = definitions(sorted(SRC.glob("*.py")))
    assert set(ALLOWED) <= set(functions) | set(members)


def defaults(paths):
    """name -> [(parameter, position or None if keyword-only)] for each
    parameter with a default of the module-level functions, methods and
    classes (their __init__) defined in the given files; a method's
    positions leave self out."""
    found = {}

    def scan(name, fn, skip):
        a = fn.args
        positional = a.posonlyargs + a.args
        given = [None] * (len(positional) - len(a.defaults)) + a.defaults
        params = [(p.arg, i - skip) for i, (p, d) in
                  enumerate(zip(positional, given)) if d is not None]
        params += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                   if d is not None]
        if params:
            found.setdefault(name, []).extend(params)

    for path in paths:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                scan(node.name, node, 0)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        scan(node.name if item.name == "__init__"
                             else item.name, item, 1)
    return found


def calls(paths):
    """name -> the calls of a function, method or class of that name."""
    out = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(
                    f, "attr", None)
                out.setdefault(name, []).append(node)
    return out


def _passes(call, param, position):
    """Whether the call gives the parameter: by keyword, by enough
    positional arguments, or possibly through * or ** unpacking."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg in (None, param) for k in call.keywords):
        return True
    return position is not None and len(call.args) > position


def fallbacks_only_tests_reach(src, paths):
    """"name.parameter" of every parameter of src with a default that at
    least one call in paths reaches and every such call passes."""
    by_name = calls(paths)
    return sorted(
        "%s.%s" % (name, param)
        for name, params in defaults(src).items()
        for param, position in params
        if by_name.get(name) and all(_passes(c, param, position)
                                     for c in by_name[name]))


def _flagged(src):
    """fallbacks_only_tests_reach on the files src and perfbench's."""
    bench = [p for p in (ROOT / "perfbench").glob("*.py")
             if not p.name.startswith("test_")]
    return fallbacks_only_tests_reach(src, [*src, *bench])


def test_no_default_that_every_program_call_passes():
    flagged = [f for f in _flagged(sorted(SRC.glob("*.py")))
               if f not in ALLOWED_DEFAULTS]
    assert not flagged, "defaults reached only by tests: %s" % \
        ", ".join(flagged)


def test_default_allowlist_names_exist():
    assert set(ALLOWED_DEFAULTS) <= set(_flagged(sorted(SRC.glob("*.py"))))


def test_a_restored_fallback_is_flagged(tmp_path):
    # build_rips with its index optional again, every caller passing one
    text = (SRC / "rips.py").read_text()
    mutant = text.replace("index: GeodesicIndex) -> SimplicialComplex:",
                          "index: GeodesicIndex = None) -> SimplicialComplex:")
    assert mutant != text
    (tmp_path / "rips.py").write_text(mutant)
    src = [tmp_path / "rips.py" if p.name == "rips.py" else p
           for p in sorted(SRC.glob("*.py"))]
    assert "build_rips.index" in _flagged(src)


def test_a_restored_constant_default_is_flagged(tmp_path):
    # the slimness scan's floor defaulting to 0 again, its one call
    # passing it
    text = (SRC / "graphs.py").read_text()
    mutant = text.replace("    def delta(self, floor):",
                          "    def delta(self, floor=0):")
    assert mutant != text
    (tmp_path / "graphs.py").write_text(mutant)
    src = [tmp_path / "graphs.py" if p.name == "graphs.py" else p
           for p in sorted(SRC.glob("*.py"))]
    assert "delta.floor" in _flagged(src)


def private_imports(paths):
    """"file: name" for each underscore name a file imports from another
    module."""
    return ["%s: %s" % (path.name, alias.name) for path in paths
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.name.startswith("_")]


def test_no_module_imports_a_private_name_of_another():
    # an underscore name belongs to its module; a helper two modules share
    # is public in the module that owns it
    found = private_imports(sorted(SRC.glob("*.py")))
    assert not found, "private names imported: %s" % ", ".join(found)


def test_a_restored_private_import_is_flagged(tmp_path):
    # cones decoding its base rows with flow's private decoder again
    text = (SRC / "cones.py").read_text()
    mutant = text.replace("from .symmetry import",
                          "from .flow import _vertices\nfrom .symmetry import",
                          1)
    assert mutant != text
    (tmp_path / "cones.py").write_text(mutant)
    assert private_imports([tmp_path / "cones.py"]) == ["cones.py: _vertices"]


def symmetry_calls(paths, names):
    """"file: name" for each call of one of names outside symmetry.py."""
    found = []
    for path in paths:
        if path.name == "symmetry.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(
                    f, "attr", None)
                if name in names:
                    found.append("%s: %s" % (path.name, name))
    return found


def test_only_symmetry_composes_permutations():
    # the group algebra reads the model's numbers, its product table and
    # its inverses; a permutation is composed or inverted only where
    # symmetry.py numbers a model
    found = symmetry_calls(sorted(SRC.glob("*.py")), ("compose", "invert"))
    assert not found, "permutations composed: %s" % ", ".join(found)


def test_a_restored_permutation_inverse_is_flagged(tmp_path):
    # dichotomy_check inverting g as a permutation again
    text = (SRC / "cones.py").read_text()
    mutant = text.replace("last, back = ge, elements[inverse[rank[ge]]]",
                          "last, back = ge, invert(ge)")
    assert mutant != text
    (tmp_path / "cones.py").write_text(mutant)
    assert symmetry_calls([tmp_path / "cones.py"], ("compose", "invert")) == \
        ["cones.py: invert"]


def test_only_symmetry_makes_a_group_model():
    # close_group numbers every model and subdivided_group lifts one, so
    # the generators of every model generate it
    found = symmetry_calls(sorted(SRC.glob("*.py")), ("GroupModel",))
    assert not found, "group models made: %s" % ", ".join(found)


def test_a_restored_trivial_group_is_flagged(tmp_path):
    # the trivial group made by hand again, outside close_group
    text = (SRC / "pipeline.py").read_text()
    mutant = text.replace(
        "class PipelineError(", "def trivial_group(g):\n"
        "    e = tuple(range(g.vertex_count))\n"
        "    return GroupModel(g, (e,), (), e, {e: 0})\n\n\n"
        "class PipelineError(", 1)
    assert mutant != text
    (tmp_path / "pipeline.py").write_text(mutant)
    assert symmetry_calls([tmp_path / "pipeline.py"], ("GroupModel",)) == \
        ["pipeline.py: GroupModel"]


def test_the_library_does_not_load_networkx():
    # networkx is a test dependency, the oracle for blocks and cliques: no
    # program file imports it, and importing the package loads none of it
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] == "networkx" for m in modules), \
                path.name
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, coarsecover; print('networkx' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("name", ["rips-contract", "equivariant"])
def test_a_verdict_keeps_nothing_on_its_graph(name):
    # the benchmark keeps its case graphs from one pass to the next, so a
    # fact kept on the input graph, not on the verdict's own GeodesicIndex,
    # would be shared between passes; equivariant runs run_pipeline
    workloads = perfbench_module("workloads")
    workload = workloads.WORKLOADS[name]
    cases = sorted(workloads.seed_cases(workload, 1),
                   key=lambda c: c.graph.vertex_count)[:2]
    for case in cases:
        before = set(vars(case.graph))
        workload.verdict(case)
        assert set(vars(case.graph)) == before, case.id
