"""Paired benchmark runs of a parent revision against the working tree.

    python3 scripts/bench_pair.py --label NAME --what TEXT [--parent REV]

Run from the repository root.  The parent revision (default HEAD) is
exported with ``git archive`` into a temporary directory; the working
tree, uncommitted edits included, is the change.  For every workload
listed in BENCHMARK.json and each of the seeds 1-10,
``rsbench/run.py --trace 0`` runs once in each tree, one process at a
time: odd seeds run the parent first, even seeds the change first.  The
run length, the end-to-end metrics and their bounds come from
BENCHMARK.json.

Writes BENCH_<label>.json with every run (result line, wall time, the
report's solve summary and its count of row folds that add_row refused)
and a summary per workload: the largest failed-operation count of any
run, the largest refused-fold count of each side, and per metric the
medians of both sides, their ratio, the parent's interquartile range
over its median, the number of pairs the change won, whether the
parent's own spread is wider than the bound while some run of the change
reads no better than some run of the parent (``unresolved``) and whether
the change stays inside the bound.  The temporary tree is removed at the
end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _machine() -> str:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return (f"{os.cpu_count()}-core {cpu}, {platform.system()}, Python "
            f"{platform.python_version()}, numpy {np.__version__}, scipy {scipy.__version__},"
            " BLAS pinned to 1 thread by run.py")


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One rsbench process; returns its wall time, result line, solve summary and
    count of refused row folds (each one a rebuild in rsbench)."""
    cmd = [sys.executable, "rsbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=20 * seconds + 300)
    wall_ms = round(1000 * (time.perf_counter() - t0))
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} failed:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    first_comment = next(i for i, line in enumerate(lines) if line.startswith("# "))
    report = json.loads("\n".join(lines[:first_comment]))
    return {"wall_ms": wall_ms, "result": json.loads(lines[-1]), "solves": report["solves"],
            "refused_folds": sum(f is not None for f in report["updates"]["failures"])}


def _iqr_over_median(values) -> float:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return float((q3 - q1) / med) if med else 0.0


def summarize(runs: list[dict], workloads: list[str], metrics: list[dict]) -> dict:
    summary = {}
    for wl in workloads:
        mine = [r for r in runs if r["workload"] == wl]
        pairs = {}
        for r in mine:
            pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]
        pairs = [p for p in pairs.values() if len(p) == 2]
        out = {}
        for m in metrics:
            name, bound = m["name"], m["bound"]
            before = [p["before"]["metrics"][name]["value"] for p in pairs]
            after = [p["after"]["metrics"][name]["value"] for p in pairs]
            b_med, a_med = float(np.median(before)), float(np.median(after))
            ratio = a_med / b_med if b_med else (1.0 if a_med == b_med else float("inf"))
            sign = 1.0 if m["better"] == "lower" else -1.0
            spread = _iqr_over_median(before)
            # a spread wider than the bound hides no change that separates every run
            separated = max(sign * a for a in after) < min(sign * b for b in before)
            out[name] = {
                "before_median": round(b_med, 6),
                "after_median": round(a_med, 6),
                "after_over_before": round(ratio, 4),
                "bound": bound,
                "before_iqr_over_median": round(spread, 4),
                "after_better_pairs": sum(sign * (a - b) < 0 for a, b in zip(after, before)),
                "pairs": len(pairs),
                "unresolved": spread > bound and not separated,
                "within_bound": sign * (ratio - 1.0) <= bound,
            }
        out["failed_max"] = max((r["result"]["failed"] for r in mine), default=0)
        out["refused_folds_max"] = {
            side: max((r["refused_folds"] for r in mine if r["side"] == side), default=0)
            for side in ("before", "after")}
        out["all_correct"] = all(r["result"]["correct"] for r in mine)
        summary[wl] = out
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--what", required=True, help="one line on what is compared")
    parser.add_argument("--parent", default="HEAD", help="revision to compare against")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = int(bench["run_seconds"])
    workloads = [w["name"] for w in bench["workloads"]]
    commit = _git("rev-parse", "--short", args.parent)
    trees = {"after": ROOT}
    runs = []
    tmp = Path(tempfile.mkdtemp(prefix="bench_pair-"))
    try:
        archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tmp)], input=archive, check=True)
        trees["before"] = tmp
        for wl in workloads:
            for seed in SEEDS:
                for side in ("before", "after") if seed % 2 else ("after", "before"):
                    rec = run_once(trees[side], wl, seed, seconds)
                    runs.append({"side": side, "workload": wl, "seed": seed,
                                 "commit": commit if side == "before" else "working tree",
                                 **rec})
                    res = rec["result"]
                    print(f"{wl} seed {seed} {side}: correct={res['correct']} "
                          f"failed={res['failed']} refused_folds={rec['refused_folds']} "
                          f"wall {rec['wall_ms']} ms", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    out = {
        "what": args.what,
        "command": f"python3 rsbench/run.py --workload W --seed N --seconds {seconds} --trace 0",
        "machine": _machine(),
        "order": (f"seeds {SEEDS[0]}-{SEEDS[-1]} per workload; odd seeds run the parent first,"
                  " even seeds run the change first; workloads in the order listed; one process"
                  " at a time"),
        "wall_ms": "wall time of each run.py process, recorded per run",
        "summary": summarize(runs, workloads, bench["end_to_end"]),
        "runs": runs,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
