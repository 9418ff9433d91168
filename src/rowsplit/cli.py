"""Command-line driver: ingest, scale, factorize, precondition, solve, report.

Three subcommands:

  rowsplit solve MATRIX.mtx [options]   one problem, one report
  rowsplit batch MANIFEST.json          problems x parameter grid
  rowsplit plot-data REPORT.json        (iteration, ratio_pt) CSV

Exit codes: 0 converged, 1 input or validation failure, 2 iteration cap
reached without the requested accuracy.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import sys
import time
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import precond
from .ilup import IlupParams, ilup_factorize
from .precond import SMode, build_preconditioner
from .solver import CglsConfig, pcgls
from .sparse_core import column_scale, power_method_norm2, read_matrix_market_ex

SCHEMA_VERSION = 3

_log = logging.getLogger("rowsplit")


@dataclass
class RunConfig:
    """One run's settings; the ILU and solver defaults are the library's own."""

    matrix_path: str
    p: int = IlupParams.p
    tau: float = IlupParams.tau
    mu: float = IlupParams.mu
    small: float = IlupParams.small
    s_mode: str = SMode.DENSE_FACTOR.value
    delta: float = CglsConfig.delta
    max_iters: int = CglsConfig.max_iters
    estimator_delay: int = CglsConfig.estimator_delay
    rhs_seed: int = 42
    power_iters: int = 100
    output_format: str = "json"


def _from_config(cls, cfg: RunConfig, **given):
    """An IlupParams or CglsConfig from the same-named fields of cfg."""
    taken = {f.name: getattr(cfg, f.name) for f in fields(cls) if f.name not in given}
    return cls(**taken, **given)


def run_single(cfg: RunConfig) -> dict:
    """Full pipeline on one matrix; returns the report record."""
    t0 = time.perf_counter()
    A, info = read_matrix_market_ex(cfg.matrix_path)
    scaled, _ = column_scale(A)

    rng = np.random.default_rng(cfg.rhs_seed)
    b = rng.uniform(-1.0, 1.0, A.nrows)

    norm_A = power_method_norm2(scaled, iters=cfg.power_iters, seed=cfg.rhs_seed)
    factors = ilup_factorize(scaled, _from_config(IlupParams, cfg))

    s_mode = SMode(cfg.s_mode)
    split = factors.L2.nrows
    if s_mode is SMode.DENSE_FACTOR and split > precond.DENSE_S_CAP:
        _log.warning("coupling block %d exceeds dense cap %d; falling back to inner CG",
                     split, precond.DENSE_S_CAP)
        s_mode = SMode.INNER_CG
    pre = build_preconditioner(factors, s_mode=s_mode)

    _, report = pcgls(scaled, b, pre, _from_config(CglsConfig, cfg, norm_A=norm_A))

    params = asdict(cfg)
    del params["matrix_path"], params["output_format"]
    params["s_mode"] = s_mode.value  # the mode run, after any fallback
    record = {
        "schema_version": SCHEMA_VERSION,
        "matrix": cfg.matrix_path,
        "m": A.nrows,
        "n": A.ncols,
        "nnz": A.nnz,
        "entries_read": info.entries_read,
        "transposed": info.transposed,
        "params": params,
        "norm_A_estimate": norm_A,
        **report.to_dict(),
        "wall_time_s": time.perf_counter() - t0,
    }
    return record


def run_batch(manifest_path: str) -> list[dict]:
    """Run every problem x grid cell of a manifest; failures stay per-cell.

    Manifest format: {"problems": [path, ...], "grid": [{overrides}, ...],
    "defaults": {overrides}}.  Rows come back sorted by the row-surplus
    ratio (m - n) / m, failures last in manifest order.
    """
    with open(manifest_path) as f:
        manifest = json.load(f)
    problems = manifest.get("problems", [])
    grid = manifest.get("grid", [{}]) or [{}]
    defaults = manifest.get("defaults", {})

    rows = []
    for pi, path in enumerate(problems):
        for gi, cell in enumerate(grid):
            overrides = {**defaults, **cell}
            try:
                cfg = replace(RunConfig(matrix_path=path), **overrides)
                record = run_single(cfg)
                record["error"] = None
            except Exception as exc:  # per-cell isolation
                record = {
                    "schema_version": SCHEMA_VERSION,
                    "matrix": path,
                    "params": overrides,
                    "error": f"{type(exc).__name__}: {exc}",
                }
            record["_order"] = (pi, gi)
            rows.append(record)

    def sort_key(rec):
        if rec.get("error") is None and rec.get("m"):
            return (0, (rec["m"] - rec["n"]) / rec["m"], rec["_order"])
        return (1, 0.0, rec["_order"])

    rows.sort(key=sort_key)
    for rec in rows:
        del rec["_order"]
    return rows


def emit_convergence_plot_data(record: dict, out) -> None:
    """Write (iteration, ratio_pt) pairs of a report as two-column CSV."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["iteration", "ratio_pt"])
    for i, ratio in enumerate(record.get("ratio_pt_history", [])):
        writer.writerow([i, repr(ratio)])


# ---------------------------------------------------------------------------
# formatting and argument plumbing
# ---------------------------------------------------------------------------

_CSV_FIELDS = [
    "matrix", "m", "n", "nnz", "its", "converged", "psize", "nmod",
    "ratio_pt", "residual_norm", "gradient_norm", "wall_time_s", "error",
]


def _format_records(records: list[dict], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(records if len(records) != 1 else records[0], indent=2)
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=_CSV_FIELDS, extrasaction="ignore",
                                lineterminator="\n")
        writer.writeheader()
        for rec in records:
            writer.writerow(rec)
        return out.getvalue()
    lines = []
    for rec in records:
        if rec.get("error") is not None:
            lines.append(f"{rec.get('matrix')}: ERROR {rec['error']}")
            continue
        status = "converged" if rec["converged"] else "NOT converged"
        lines.append(
            f"{rec['matrix']}: {rec['m']}x{rec['n']} nnz={rec['nnz']}  "
            f"its={rec['its']} ({status})  ratio_pt={rec['ratio_pt']:.3e}  "
            f"psize={rec['psize']}  nmod={rec['nmod']}"
        )
    return "\n".join(lines) + "\n"


def _add_solver_flags(sp):
    d = RunConfig
    sp.add_argument("--p", type=int, default=d.p, help="max kept entries per factor column")
    sp.add_argument("--tau", type=float, default=d.tau, help="magnitude drop tolerance")
    sp.add_argument("--mu", type=float, default=d.mu, help="pivot threshold in (0, 1]")
    sp.add_argument("--small", type=float, default=d.small, help="minimum pivot magnitude")
    sp.add_argument("--s-mode", choices=[m.value for m in SMode], default=d.s_mode,
                    help="how the coupling system is solved")
    sp.add_argument("--delta", type=float, default=d.delta, help="stopping tolerance")
    sp.add_argument("--max-iters", type=int, default=d.max_iters)
    sp.add_argument("--delay", type=int, default=d.estimator_delay, dest="estimator_delay",
                    help="error-estimator delay")
    sp.add_argument("--seed", type=int, default=d.rhs_seed, dest="rhs_seed",
                    help="seed for the right-hand side and norm estimate")
    sp.add_argument("--power-iters", type=int, default=d.power_iters)
    sp.add_argument("--format", choices=["json", "csv", "human"], default=d.output_format,
                    dest="output_format")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="rowsplit", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sp_solve = sub.add_parser("solve", help="solve one least-squares problem")
    sp_solve.add_argument("matrix_path", metavar="matrix", help="Matrix Market file")
    _add_solver_flags(sp_solve)

    sp_batch = sub.add_parser("batch", help="run a manifest of problems x parameters")
    sp_batch.add_argument("manifest", help="JSON manifest")
    sp_batch.add_argument("--format", choices=["json", "csv", "human"], default="csv",
                          dest="output_format")

    sp_plot = sub.add_parser("plot-data", help="emit convergence history as CSV")
    sp_plot.add_argument("report", help="JSON report from `rowsplit solve`")
    sp_plot.add_argument("-o", "--output", default="-", help="output path (default stdout)")

    args = parser.parse_args(argv)

    if args.command == "solve":
        cfg = RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})
        try:
            record = run_single(cfg)
        except Exception as exc:
            err = {"schema_version": SCHEMA_VERSION, "matrix": cfg.matrix_path,
                   "error": f"{type(exc).__name__}: {exc}"}
            print(_format_records([err], cfg.output_format))
            return 1
        print(_format_records([record], cfg.output_format))
        return 0 if record["converged"] else 2

    if args.command == "batch":
        try:
            rows = run_batch(args.manifest)
        except Exception as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(_format_records(rows, args.output_format), end="")
        return 0

    # plot-data
    try:
        with open(args.report) as f:
            record = json.load(f)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.output == "-":
        emit_convergence_plot_data(record, sys.stdout)
    else:
        with open(args.output, "w") as f:
            emit_convergence_plot_data(record, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
