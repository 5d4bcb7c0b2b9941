"""Every private name that src/spherelab defines is used in src/spherelab.

A private name starts with an underscore and is not a dunder.  A module- or
class-level definition of one (def, class or assignment) needs a reference
elsewhere in the package: a load of the name or of an attribute of that
name, an import of it, or a string equal to it (setattr, cache keys).  A
helper that lost its last caller is deleted, not left behind.

A public top-level name needs a reader besides its own unit test (see
public_name_faults); the few kept for the tests alone are listed in
KEPT_PUBLIC, each with its reason.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "spherelab"


def is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def bound_names(node):
    """Names a def, class or assignment statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        yield node.name
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield name.id


def defined_names(body):
    """(name, line) of each def, class or assignment target in body and in
    the bodies of the classes it defines."""
    for node in body:
        for name in bound_names(node):
            yield name, node.lineno
        if isinstance(node, ast.ClassDef):
            yield from defined_names(node.body)


def referenced_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_private_name_is_referenced():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    assert "energy.py" in trees and "spectrum.py" in trees
    used = {name for tree in trees.values() for name in referenced_names(tree)}
    unused = [f"{module}:{line} {name}"
              for module, tree in trees.items()
              for name, line in defined_names(tree.body)
              if is_private(name) and name not in used]
    assert unused == []


# Public names that nothing outside their own unit tests reaches, kept for a
# reason given here.  Every other public name needs a reader (see below).
KEPT_PUBLIC = {
    "constant_map": "fixture: the degenerate map that spectrum, covers and flow refuse",
    "product_spheres_operator": "fixture: an operator whose mixed-plane curvatures vanish",
    "associated_real_plane": "the real plane of an isotropic vector; it was the scalar "
                             "oracle of the deleted curvature_condition_d, and only "
                             "its own test reaches it now: it can go with that test",
}


def public_name_faults(root, allowed):
    """Public top-level names of root/src/spherelab that nothing reaches, and
    entries of `allowed` that are stale.

    A name is reached by a reference (as referenced_names reads one) in
    src/spherelab outside its own definition, in perfbench/*.py or in
    tests/test_acceptance.py, or by an identifier inside a fenced code block
    of README.md: an example that calls the API.  README's prose, backticked
    code spans included, only describes a name and reaches none.  An
    allowed name must be defined and not reached.
    """
    root = Path(root)
    defined = []
    src_refs = {}  # name -> number of top-level statements that reference it
    for path in sorted((root / "src" / "spherelab").glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            refs = set(referenced_names(node))
            for name in refs:
                src_refs[name] = src_refs.get(name, 0) + 1
            defined += [(f"{path.name}:{node.lineno}", name, name in refs)
                        for name in bound_names(node) if not name.startswith("_")]
    readers = sorted((root / "perfbench").glob("*.py")) + [root / "tests" / "test_acceptance.py"]
    outside = {name for path in readers
               for name in referenced_names(ast.parse(path.read_text(), filename=str(path)))}
    fenced = re.findall(r"^```[^\n]*\n(.*?)^```", (root / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    outside |= {word for block in fenced for word in re.findall(r"[A-Za-z_]\w*", block)}
    reached = {name for _, name, self_ref in defined
               if name in outside or src_refs.get(name, 0) > self_ref}
    faults = [f"{where} {name}" for where, name, _ in defined
              if name not in reached and name not in allowed]
    names = {name for _, name, _ in defined}
    faults += [f"allowed {name}: " + ("reached" if name in reached else "not defined")
               for name in allowed if name in reached or name not in names]
    return faults


def test_every_public_name_is_reached():
    assert (SRC / "energy.py").exists() and (SRC / "spectrum.py").exists()
    assert public_name_faults(SRC.parents[1], KEPT_PUBLIC) == []


def test_public_name_guard_on_a_tiny_package(tmp_path):
    package = tmp_path / "src" / "spherelab"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "def dead(): return dead()\n"
        "def prose(): pass\n"
        "def spanned(): pass\n"
        "def documented(): pass\n"
        "def accepted(): pass\n"
        "def kept(): pass\n"
        "def used(): pass\n"
        "def caller(): return used()\n"
        "LIMIT = 1\n"
        "_helper = 2\n")
    # a backticked span in prose reaches nothing; a fenced example does
    (tmp_path / "README.md").write_text(
        "Call prose on a map, or `mod.spanned(f)`:\n\n"
        "```python\nmod.documented(f)\n```\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_acceptance.py").write_text(
        "from spherelab.mod import accepted\n")
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "bench.py").write_text("TRACED = ('caller',)\n")
    allowed = {"kept": "a fixture", "gone": "deleted since", "used": "called anyway"}
    assert public_name_faults(tmp_path, allowed) == [
        "mod.py:1 dead", "mod.py:2 prose", "mod.py:3 spanned", "mod.py:9 LIMIT",
        "allowed gone: not defined", "allowed used: reached"]
