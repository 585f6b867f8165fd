"""Operations, output checks and the import of the program under test."""

from __future__ import annotations

import importlib
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("algebra", "hopf", "structures", "checks", "dual", "finite",
           "parser", "fileformat", "cli")


class Wrong(Exception):
    """An operation's output disagrees with the prediction."""


def expect(cond, message):
    if not cond:
        raise Wrong(message)


class Op:
    """One timed call into the program plus the check of its output.

    `run()` is the timed call.  `check(result, answers)` raises Wrong when
    the output is not what the inputs predict and otherwise returns a
    fingerprint of the output; the runner also requires the fingerprint to
    equal the one of the same operation in the previous pass.
    `requests()` lists the sympy questions the check needs answered
    (see oracle.py); `answers` holds the replies in the same order.
    """

    def __init__(self, name, run, check, requests=None):
        self.name = name
        self.run = run
        self.check = check
        self.requests = requests or (lambda: [])
        self.answers = []


def import_program():
    """Import (or import afresh) every copoisson module from src/."""
    src = ROOT / "src"
    if not (src / "copoisson" / "__init__.py").is_file():
        raise FileNotFoundError(f"no copoisson package under {src}")
    for name in [m for m in sys.modules if m == "copoisson" or m.startswith("copoisson.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    importlib.invalidate_caches()
    importlib.import_module("copoisson")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"copoisson.{m}") for m in MODULES})


def report_verdicts(reports):
    """[(check name, passed, degree, violations)] of CheckReports."""
    return [(r.check_name, r.passed, r.degree_checked, r.total_violations)
            for r in reports]


def expect_failures_witnessed(reports):
    for r in reports:
        if not r.passed:
            expect(r.total_violations > 0 and r.witnesses,
                   f"{r.check_name}: FAIL without witnesses")
