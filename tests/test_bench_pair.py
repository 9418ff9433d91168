"""summarize() in scripts/bench_pair.py on synthetic paired runs."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pair.py"


def load_bench_pair():
    spec = importlib.util.spec_from_file_location("bench_pair", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs_of(before, after, refused=None):
    """Paired runs of metric m; refused maps a side to its runs' refused-fold counts."""
    runs = []
    for side, values in (("before", before), ("after", after)):
        counts = (refused or {}).get(side, [0] * len(values))
        for seed, (v, k) in enumerate(zip(values, counts), start=1):
            result = {"metrics": {"m": {"value": v}}, "failed": 0, "correct": True}
            runs.append({"side": side, "workload": "w", "seed": seed, "result": result,
                         "refused_folds": k})
    return runs


def unresolved(before, after, better):
    metrics = [{"name": "m", "better": better, "bound": 0.25}]
    return load_bench_pair().summarize(runs_of(before, after), ["w"], metrics)["w"]["m"][
        "unresolved"]


WIDE = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]  # IQR / median = 0.82


@pytest.mark.parametrize("better, after", [
    ("lower", [0.05 * k for k in range(1, 11)]),
    ("higher", [10.0 + k for k in range(1, 11)]),
])
def test_wide_spread_uniformly_better_is_resolved(better, after):
    assert not unresolved(WIDE, after, better)


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_wide_spread_overlapping_is_unresolved(better):
    assert unresolved(WIDE, [0.9 * v for v in WIDE], better)


def test_narrow_spread_is_resolved():
    before = [1.0 + 0.01 * k for k in range(10)]
    assert not unresolved(before, [v * 1.5 for v in before], "lower")


def test_refused_folds_maximum_per_side():
    runs = runs_of([1.0] * 3, [1.0] * 3, refused={"before": [1, 3, 2], "after": [0, 0, 0]})
    metrics = [{"name": "m", "better": "lower", "bound": 0.25}]
    summary = load_bench_pair().summarize(runs, ["w"], metrics)["w"]
    assert summary["refused_folds_max"] == {"before": 3, "after": 0}


def test_run_once_counts_refused_folds(monkeypatch, tmp_path):
    """run_once reads the refused folds from the report's updates.failures."""
    module = load_bench_pair()
    report = {"solves": {}, "updates": {"failures": [None, "UpdateFailedError", None,
                                                     "ValueError"]}}
    line = {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}
    stdout = "\n".join([json.dumps(report, indent=1), "# correct=True", json.dumps(line)])
    monkeypatch.setattr(module.subprocess, "run",
                        lambda *a, **k: SimpleNamespace(returncode=0, stdout=stdout, stderr=""))
    rec = module.run_once(tmp_path, "w", 1, 1)
    assert rec["refused_folds"] == 2 and rec["result"] == line
