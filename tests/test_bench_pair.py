"""summarize() in scripts/bench_pair.py on synthetic paired runs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pair.py"


def load_bench_pair():
    spec = importlib.util.spec_from_file_location("bench_pair", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs_of(before, after):
    runs = []
    for side, values in (("before", before), ("after", after)):
        for seed, v in enumerate(values, start=1):
            result = {"metrics": {"m": {"value": v}}, "failed": 0, "correct": True}
            runs.append({"side": side, "workload": "w", "seed": seed, "result": result})
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
