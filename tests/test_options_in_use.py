"""Every option that src/spherelab offers is set by some caller.

An option is a defaulted parameter of a function or method (of __init__,
reached through its class name) or a field of FlowConfig.  Some call under
src, tests or perfbench must pass it: by keyword, by position, or, for a
FlowConfig field, through dataclasses.replace.  A call with *args or
**kwargs passes every option of its callee.  Callers are matched by bare
name.  An option that no caller sets has one value in use: make it a
constant.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "spherelab"
CALLERS = [ROOT / "src", ROOT / "tests", ROOT / "perfbench"]


def options(tree):
    """(callee name, option, positional index or None, line) of each option."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield from _defaulted(node.name, node, skip=0)
        elif isinstance(node, ast.ClassDef):
            if node.name == "FlowConfig":
                fields = [item for item in node.body if isinstance(item, ast.AnnAssign)]
                for i, item in enumerate(fields):
                    yield node.name, item.target.id, i, item.lineno
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    name = node.name if item.name == "__init__" else item.name
                    yield from _defaulted(name, item, skip=0 if static else 1)


def _defaulted(name, func, skip):
    args = func.args
    positional = args.posonlyargs + args.args
    for i, arg in enumerate(positional[len(positional) - len(args.defaults):],
                            start=len(positional) - len(args.defaults)):
        yield name, arg.arg, i - skip, func.lineno
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield name, arg.arg, None, func.lineno


def passed_options(trees):
    """callee name -> (keywords passed, most positional arguments passed, any
    call with *args or **kwargs)."""
    passed = defaultdict(lambda: [set(), 0, False])
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name is None:
                continue
            entry = passed["FlowConfig" if name == "replace" else name]
            entry[0].update(k.arg for k in node.keywords if k.arg is not None)
            if name != "replace":  # its positional argument is the instance
                entry[1] = max(entry[1], len(node.args))
            entry[2] |= any(isinstance(a, ast.Starred) for a in node.args) \
                or any(k.arg is None for k in node.keywords)
    return passed


def test_every_option_is_passed_by_some_caller():
    modules = {path.name: ast.parse(path.read_text(), filename=str(path))
               for path in sorted(SRC.glob("*.py"))}
    assert "flow.py" in modules and "spectrum.py" in modules
    callers = [ast.parse(path.read_text(), filename=str(path))
               for root in CALLERS for path in sorted(root.rglob("*.py"))]
    passed = passed_options(callers)
    unset = [f"{module}:{line} {name}({option})"
             for module, tree in modules.items()
             for name, option, index, line in options(tree)
             if not (option in passed[name][0] or passed[name][2]
                     or index is not None and passed[name][1] > index)]
    assert unset == []
