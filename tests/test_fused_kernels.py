"""The co-side multiplies by Delta only through `hopf.mul_comult`.

No module of the package may form a product with `comult(...)` through
`tensor2_mul` or `*`, or take `cyclic_sum` of a `q_left(...)` result:
the fused kernels replace both compositions, and a second path beside
them fails here.  Nor may a module other than `hopf.py` call `q_left` or
`q_right`: the co-Leibniz and co-Jacobi residuals sum their terms into one
dict instead of building those Tensor3 copies.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "copoisson"
MODULES = sorted(SRC.glob("*.py"))


def called(node):
    """The name a call invokes, `f(...)` or `mod.f(...)`; None otherwise."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    return getattr(func, "id", None) or getattr(func, "attr", None)


def unfused_sites(source, module="checks.py"):
    """(line, composition) of each product with comult(...), each
    cyclic_sum of a q_left(...) result and, outside hopf.py, each call of
    q_left or q_right."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if module != "hopf.py" and called(node) in ("q_left", "q_right"):
            out.append((node.lineno, called(node)))
        if called(node) == "tensor2_mul" and any(
                called(a) == "comult" for a in node.args):
            out.append((node.lineno, "tensor2_mul(comult)"))
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
              and "comult" in (called(node.left), called(node.right))):
            out.append((node.lineno, "* comult"))
        elif called(node) == "cyclic_sum" and any(
                called(a) == "q_left" for a in node.args):
            out.append((node.lineno, "cyclic_sum(q_left)"))
    return sorted(out)


def test_detects_the_unfused_compositions():
    source = (
        "def f(t, v, a, b, m):\n"
        "    x = tensor2_mul(v, comult(b))\n"
        "    y = hopf.tensor2_mul(hopf.comult(a), v)\n"
        "    z = v * comult(a) + comult(b) * v\n"
        "    return cyclic_sum(q_left(t(m), t)), tensor2_mul(v, v)\n"
        "def g(t, dm):\n"
        "    return hopf.q_right(dm, t) - q_left(dm, t)\n")
    assert unfused_sites(source) == [
        (2, "tensor2_mul(comult)"), (3, "tensor2_mul(comult)"),
        (4, "* comult"), (4, "* comult"), (5, "cyclic_sum(q_left)"),
        (5, "q_left"), (7, "q_left"), (7, "q_right")]
    assert unfused_sites(source, "hopf.py") == [
        (2, "tensor2_mul(comult)"), (3, "tensor2_mul(comult)"),
        (4, "* comult"), (4, "* comult"), (5, "cyclic_sum(q_left)")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unfused_composition(path):
    assert unfused_sites(path.read_text(), path.name) == []
