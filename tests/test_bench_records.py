"""Every BENCH_*.json record has the layout a speed claim rests on.

A record names the change, the machine and the parent commit, the
perfbench command and protocol, and the claim (null when none is made).
Each perfbench run in it holds the parent and change medians of every
end-to-end metric that BENCHMARK.json declares, and counts no more wins
than pairs.
"""

import json
from numbers import Real
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
METRICS = [m["name"] for m in
           json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def test_records_and_metrics_exist():
    assert RECORDS
    assert len(METRICS) == 5


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_layout(path):
    record = json.loads(path.read_text())
    for key in ("change", "machine", "parent_commit"):
        assert isinstance(record.get(key), str) and record[key], key
    perfbench = record["perfbench"]
    for key in ("claimed", "command", "protocol", "runs"):
        assert key in perfbench, key
    assert perfbench["runs"]
    for name, run in perfbench["runs"].items():
        assert 0 <= run["ops_per_s_change_wins"] <= run["pairs"], name
        for metric in METRICS:
            for side in ("parent", "change"):
                median = run["metrics"][metric][side]["median"]
                assert isinstance(median, Real), (name, metric, side)
