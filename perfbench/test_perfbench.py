"""Fast tests of the benchmark itself:  python3 -m pytest perfbench -q

Each workload's checks must reject a planted wrong answer, the traced
self times must add up to the traced wall time, and BENCHMARK.json must
name exactly the metrics the runner prints.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import wl_bracket  # noqa: E402
import wl_cli  # noqa: E402
import wl_cobracket  # noqa: E402
import wl_finite  # noqa: E402

SEED = 5


@pytest.fixture(scope="module")
def cp():
    return harness.import_program()


def pick(cp, module, names, tmp_path):
    ops = {op.name: op for op in module.build(cp, random.Random(SEED), tmp_path)}
    chosen = [ops[n] for n in names]
    run.ask_oracle(chosen)
    return chosen


def rejects(op, result):
    with pytest.raises(harness.Wrong):
        op.check(result, op.answers)


def test_cobracket_rejects_a_flipped_verdict(cp, tmp_path):
    (op,) = pick(cp, wl_cobracket, ["nonlie3-b1-0"], tmp_path)
    recovered, reports = op.run()
    op.check((recovered, reports), op.answers)
    flipped = [dataclasses.replace(r, passed=not r.passed) if r.check_name == "cojacobi" else r
               for r in reports]
    rejects(op, (recovered, flipped))


def test_cobracket_rejects_a_wrong_recovered_table(cp, tmp_path):
    (op,) = pick(cp, wl_cobracket, ["bianchi-b2-0"], tmp_path)
    recovered, reports = op.run()
    m, t = next((m, t) for m, t in recovered if t)
    rejects(op, ([(m, t.scale(2)) if x is m else (x, y) for x, y in recovered], reports))


def test_bracket_rejects_a_flipped_jacobi_verdict(cp, tmp_path):
    (op,) = pick(cp, wl_bracket, ["nonlie3-0"], tmp_path)
    reports, back = op.run()
    op.check((reports, back), op.answers)
    rejects(op, ([dataclasses.replace(reports[0], passed=not reports[0].passed)]
                 + reports[1:], back))


def test_cli_rejects_a_perturbed_transform_output(cp, tmp_path):
    (op,) = pick(cp, wl_cli, ["so3-to-copoisson"], tmp_path)
    rc, text = op.run()
    op.check((rc, text), op.answers)
    assert '"1"' in text
    rejects(op, (rc, text.replace('"1"', '"2"', 1)))


def test_cli_rejects_a_wrong_digest(cp, tmp_path):
    (op,) = pick(cp, wl_cli, ["check-consts-nilpotent-json-0"], tmp_path)
    rc, text = op.run()
    op.check((rc, text), op.answers)
    doc = json.loads(text)
    doc["input_digest"] = "sha256:" + "0" * 64
    rejects(op, (rc, json.dumps(doc)))


def test_cli_rejects_a_wrong_exit_code(cp, tmp_path):
    (op,) = pick(cp, wl_cli, ["check-table-d3-too-deep-0"], tmp_path)
    rc, text = op.run()
    op.check((rc, text), op.answers)
    rejects(op, (1, text))


def test_finite_rejects_a_wrong_family_dimension(cp, tmp_path):
    (op,) = pick(cp, wl_finite, ["h4-0-poisson"], tmp_path)
    fam, res = op.run()
    op.check((fam, res), op.answers)
    short = dataclasses.replace(fam, basis=fam.basis[:1])
    rejects(op, (short, dataclasses.replace(res, dim=1)))


def test_fixtures_match_the_test_suite(cp, tmp_path):
    wl_cli.build(cp, random.Random(SEED), tmp_path)
    fixtures = HERE.parent / "tests" / "fixtures"
    if not fixtures.is_dir():
        pytest.skip("no tests/fixtures in this checkout")
    for name in ("so3.json", "copoisson_d2.json", "counterex_n5.json", "h4.json"):
        assert (tmp_path / name).read_bytes() == (fixtures / name).read_bytes(), name


def test_traced_self_times_add_up_to_the_wall_time(cp, tmp_path):
    ops = pick(cp, wl_cobracket, ["d2-b2-dense-0", "nambu-b2"], tmp_path)
    ops += pick(cp, wl_cli, ["check-table-d2-json-0", "d2-to-q"], tmp_path)
    tr = tracer.Tracer()
    tr.install()
    try:
        wall = 0.0
        for op in ops:
            result, seconds = tr.run_op(op.name, op.run)
            op.check(result, op.answers)
            wall += seconds
    finally:
        tr.uninstall()
    # The self times partition the operations' frames exactly; the
    # tolerance only absorbs floating-point rounding.
    assert tr.total_self_s() == pytest.approx(wall, rel=1e-6)
    metrics = tr.metrics()
    assert metrics["cli.main.calls"]["value"] == 2
    assert metrics["algebra.splittings.yielded"]["value"] > 0
    assert metrics["algebra.sparse_add.terms_copied"]["value"] > 0
    assert all(s[1] is None or s[1] < s[0] for s in tr.spans)


def test_uninstall_restores_the_program(cp):
    before = (cp.checks.check_skew, cp.algebra._Sparse.__add__, cp.cli.check_skew,
              cp.finite.FinHopf.__dict__["create"])
    tr = tracer.Tracer()
    tr.install()
    assert cp.cli.check_skew is not before[2]
    tr.uninstall()
    assert (cp.checks.check_skew, cp.algebra._Sparse.__add__, cp.cli.check_skew,
            cp.finite.FinHopf.__dict__["create"]) == before


def test_benchmark_json_names_the_printed_metrics():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    tally = run.Tally()
    tally.scaled = [0.001 * k for k in range(1, 101)]
    e2e = run.end_to_end(tally, 0.5)
    assert {(m["name"], m["unit"]) for m in doc["end_to_end"]} == \
        {(k, v["unit"]) for k, v in e2e.items()}
    per_layer = [m["name"] for m in doc["per_layer"]]
    assert per_layer == [n for n, _ in tracer.metric_names()] + [
        "trace.untraced_ops_per_s", "trace.traced_ops_per_s", "trace.overhead_x"]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
