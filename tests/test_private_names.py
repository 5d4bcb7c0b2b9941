"""Every private name that src/spherelab defines is used in src/spherelab.

A private name starts with an underscore and is not a dunder.  A module- or
class-level definition of one (def, class or assignment) needs a reference
elsewhere in the package: a load of the name or of an attribute of that
name, an import of it, or a string equal to it (setattr, cache keys).  A
helper that lost its last caller is deleted, not left behind.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "spherelab"


def is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def defined_names(body):
    """(name, line) of each private def, class or assignment target in body
    and in the bodies of the classes it defines."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
            if isinstance(node, ast.ClassDef):
                yield from defined_names(node.body)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno


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
