"""Every check in checks.py builds its report through the one witness loop.

`_check` is the only code that counts violations, caps the witnesses and
builds a `CheckReport`; the one other report is the skipped verdict of
`check_eps_s_morphisms`.  A check that grows its own loop, or builds its
own report, fails here.
"""

import ast
from pathlib import Path

CHECKS = (Path(__file__).resolve().parent.parent
          / "src" / "copoisson" / "checks.py")


def report_sites(source):
    """(top-level definition, is a skipped report) for each CheckReport(...)
    call, and the top-level definitions that read WITNESS_CAP."""
    calls, cap_readers = [], set()
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "CheckReport"):
                skipped = any(k.arg == "skipped" for k in node.keywords)
                calls.append((owner, skipped))
            elif (isinstance(node, ast.Name) and node.id == "WITNESS_CAP"
                  and isinstance(node.ctx, ast.Load)):
                cap_readers.add(owner)
    return sorted(calls), cap_readers


def test_detects_a_hand_written_loop():
    source = (
        "def _check(keys):\n"
        "    return CheckReport(witnesses=keys[:WITNESS_CAP])\n"
        "def check_x(keys):\n"
        "    bad = [k for k in keys if k]\n"
        "    return CheckReport(witnesses=bad[:WITNESS_CAP])\n")
    assert report_sites(source) == (
        [("_check", False), ("check_x", False)], {"_check", "check_x"})


def test_only_the_witness_loop_builds_reports():
    calls, cap_readers = report_sites(CHECKS.read_text())
    assert calls == [("_check", False), ("check_eps_s_morphisms", True)]
    assert cap_readers == {"_check"}
