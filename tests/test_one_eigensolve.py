"""Every symmetric eigensolve in src/spherelab goes through one function.

spectrum.pencil_eigenvalues is the only function that calls eigsh: it owns
the shift-invert factor, the start vector, the dense fallback and the
convergence flag, so a second caller would solve without them.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "spherelab"


def eigsh_callers(package):
    """module.function of each call to eigsh (bare or as an attribute) in the
    modules of package, with <module> for a call outside any function."""
    callers = []
    for path in sorted(Path(package).glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        funcs = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        inside = {id(call): func.name for func in funcs for call in ast.walk(func)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "eigsh" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                callers.append(f"{path.stem}.{inside.get(id(node), '<module>')}")
    return callers


def test_only_pencil_eigenvalues_calls_eigsh():
    assert (SRC / "spectrum.py").exists()
    assert eigsh_callers(SRC) == ["spectrum.pencil_eigenvalues"]


def test_eigsh_guard_on_a_tiny_package(tmp_path):
    (tmp_path / "a.py").write_text(
        "from scipy.sparse.linalg import eigsh, eigs\n"
        "def solve(H):\n"
        "    def inner():\n"
        "        return eigsh(H, k=2)\n"
        "    return inner()\n"
        "def other(H):\n"
        "    return eigs(H, k=2), scipy.sparse.linalg.eigsh(H)\n")
    (tmp_path / "b.py").write_text("vals = eigsh(None)\n")
    assert sorted(eigsh_callers(tmp_path)) == ["a.inner", "a.other", "b.<module>"]
