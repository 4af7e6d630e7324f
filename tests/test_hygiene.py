"""No function, method or field in src/ that only tests read.

An AST scan lists the module-level functions and the methods of
src/coarsecover (corpus.py, the seeded instance generators, aside), the
fields of its dataclasses and the attributes that plain classes set in
__init__.  A function counts as read when its name is loaded anywhere in
src/coarsecover or perfbench/ (perfbench's own test_*.py files aside), a
method or field when an attribute of that name is loaded there.  Names are matched by spelling, not by type, so a
dead field sharing its name with a live attribute of another class (graph,
theta) escapes the scan; what it does flag is unread outside tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "coarsecover"

# read only by tests, each for a reason
ALLOWED = {
    "is_F_subset": "perfbench's tracer wraps it by name",
    "extend_cover": "acceptance criterion 07 checks the extension identities",
    "graph_to_document": "the writer of the schema that load_graph reads",
    "CoverReport.long": "a verdict of verify_cover, folded into ok",
    "CoverReport.invariant": "a verdict of verify_cover, folded into ok",
    "CoverReport.f_subsets": "a verdict of verify_cover, folded into ok",
    "CoverReport.order": "the recounted order of verify_cover, compared "
                         "with cover.order",
}


def _is_dataclass(cls):
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
               == "dataclass" for d in cls.decorator_list)


def definitions():
    """(functions, members): name -> file, and "Class.name" -> file."""
    functions, members = {}, {}
    for path in sorted(SRC.glob("*.py")):
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
    """The names and the attribute names loaded in the given files."""
    names, attrs = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
    return names, attrs


def test_src_holds_nothing_only_tests_read():
    functions, members = definitions()
    bench = [p for p in (ROOT / "perfbench").glob("*.py")
             if not p.name.startswith("test_")]
    names, attrs = loads([*SRC.glob("*.py"), *bench])
    unread = sorted(
        ["%s (%s)" % (f, where) for f, where in functions.items()
         if f not in names | attrs and f not in ALLOWED]
        + ["%s (%s)" % (m, where) for m, where in members.items()
           if m.split(".")[1] not in attrs and m not in ALLOWED])
    assert not unread, "read by no program file: %s" % ", ".join(unread)


def test_allowlist_names_exist():
    functions, members = definitions()
    assert set(ALLOWED) <= set(functions) | set(members)
