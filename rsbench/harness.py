"""One benchmark run: set up, solve seeded right-hand sides, append rows.

A solve counts only when the independent verifier accepts its answer.  A
failed solve (raised, capped, stopped early or wrong) is charged as if it
had run to the iteration cap: max_iters iterations, at the run's measured
time per iteration.  No answer within the cap costs more, so a failed solve
never looks fast, and a fix that makes solves verify reads as a gain.
Every solve runs until the solver stops it; none is cut short by a clock.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy
import scipy.sparse as sp

import rowsplit as rs
from rowsplit.cli import RunConfig, run_single
from rowsplit.precond import UpdateFailedError

from .tracing import NullTracer, SpanTable, Tracer
from .verify import TOLERANCE, Verifier, verified
from .workloads import Problem, Workload, appended_rows, make_problem, rhs_stream

# Set up at least this many times, and for at least this long, then report
# the median: a cheap set-up is repeated until the median is steady.
SETUP_REPEATS = 5
SETUP_MIN_S = 3.0
POWER_ITERS = 100  # the CLI's default


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


@dataclass
class Built:
    A: rs.CscMatrix
    scaled: rs.CscMatrix
    scaling: rs.ColumnScaling
    norm_A: float
    factors: rs.IlupFactors
    pre: rs.RowSplitPreconditioner
    seconds: float


def to_csc(problem: Problem) -> rs.CscMatrix:
    return rs.CscMatrix.from_coo(problem.nrows, problem.ncols, problem.rows, problem.cols,
                                 problem.vals)


def factorize_and_build(wl: Workload, scaled: rs.CscMatrix, tracer) -> tuple:
    factors = tracer.call("ilup.factor", rs.ilup_factorize, scaled, rs.IlupParams(p=wl.p))
    pre = tracer.call("precond.build", rs.build_preconditioner, factors,
                      s_mode=rs.SMode(wl.s_mode))
    return factors, pre


def set_up(wl: Workload, problem: Problem, A_in, seed: int, tracer) -> Built:
    """Ingest (file workloads), scale, estimate ||A||, factorize, build."""

    def body():
        if problem.path is not None:
            A, _ = tracer.call("sparse_core.ingest", rs.read_matrix_market_ex, str(problem.path))
        else:
            A = A_in
        scaled, scaling = tracer.call("sparse_core.scale", rs.column_scale, A)
        norm_A = tracer.call("sparse_core.norm", rs.power_method_norm2, scaled,
                             iters=POWER_ITERS, seed=seed)
        return (A, scaled, scaling, norm_A) + factorize_and_build(wl, scaled, tracer)

    t0 = perf_counter()
    parts = tracer.call("setup", body)
    return Built(*parts, seconds=perf_counter() - t0)


def set_up_repeatedly(wl, problem, A_in, seed, tracer) -> tuple[list[float], Built]:
    """Set-up times, and the last set-up (earlier ones are dropped, not kept in memory)."""
    seconds: list[float] = []
    while len(seconds) < SETUP_REPEATS or sum(seconds) < SETUP_MIN_S:
        built = set_up(wl, problem, A_in, seed, tracer)
        seconds.append(built.seconds)
    return seconds, built


# ---------------------------------------------------------------------------
# solves
# ---------------------------------------------------------------------------


@dataclass
class Solve:
    kind: str  # "pre", "plain" or "extended"
    seconds: float
    iters_run: int
    max_iters: int
    relgrad: float
    its: int = -1
    converged: bool = False
    breakdown: bool = False
    gradient_norm: float = math.nan
    error: str | None = None
    traced: bool = False
    loop_seconds: float = 0.0  # from the first to the last iteration

    @property
    def verified(self) -> bool:
        return self.error is None and verified(self.relgrad)

    @property
    def false_converged(self) -> bool:
        return self.converged and not self.verified

    @property
    def cap_hit(self) -> bool:
        return self.error is None and not self.converged and self.iters_run >= self.max_iters

    def charged_iters(self) -> int:
        return self.iters_run if self.verified else self.max_iters


def charged_seconds(records) -> list[float] | None:
    """Seconds charged to each solve: a failed one as if it ran to the cap.

    A failed solve is charged its own time plus its missing iterations up
    to max_iters, at the time per iteration pooled over the loops of all
    the given solves (between their first and last iteration, so the
    per-call work before and after the loop is not counted as iteration
    time).  None when a failed solve has to be charged but no solve ran
    more than one iteration: there is then no time per iteration to
    charge it at, and the run is not correct.
    """
    spans = [(r.loop_seconds, r.iters_run - 1) for r in records if r.iters_run > 1]
    if not spans:
        return None if any(not r.verified for r in records) else [r.seconds for r in records]
    rate = sum(t for t, _ in spans) / sum(k for _, k in spans)
    return [r.seconds if r.verified else r.seconds + max(r.max_iters - r.iters_run, 0) * rate
            for r in records]


def charged_or_raw(records) -> list[float]:
    """charged_seconds, or the raw times when there is no rate (a run marked not correct)."""
    charged = charged_seconds(records)
    return [r.seconds for r in records] if charged is None else charged


def run_solve(kind, A, b, pre, cfg, verifier, scaling, tracer) -> tuple[Solve, np.ndarray | None]:
    """One pcgls call, timed, then verified on the user's system."""
    count, stamps = [0], [0.0, 0.0]

    def hook(it, _x):
        count[0] = it
        stamps[it > 1] = perf_counter()

    span = {"pre": "solver.pcgls", "plain": "solver.cgls"}.get(kind, "solver.pcgls_extended")
    tracer.solve_id += 1
    report, error = None, None
    t0 = perf_counter()
    try:
        y, report = tracer.call(span, rs.pcgls, A, b, pre, cfg, iterate_hook=hook)
    except Exception as exc:  # a solve that raises is a failed solve
        error = type(exc).__name__
    seconds = perf_counter() - t0
    rec = Solve(kind, seconds, count[0], cfg.max_iters, math.inf, error=error,
                traced=tracer.enabled, loop_seconds=max(stamps[1] - stamps[0], 0.0))
    if report is None:
        return rec, None
    x = scaling.unscale_solution(y)
    rec.relgrad = verifier.relgrad(x, b)
    rec.its, rec.converged, rec.breakdown = report.its, report.converged, report.breakdown
    rec.gradient_norm = report.gradient_norm_final
    return rec, x


@dataclass
class Loop:
    records: list[Solve] = field(default_factory=list)
    lsqr_seconds: list[float] = field(default_factory=list)
    lsqr_iters: list[int] = field(default_factory=list)
    lsqr_relgrad: list[float] = field(default_factory=list)
    first: dict = field(default_factory=dict)  # kind -> answer for the first rhs


def rhs_loop(wl, built, verifier, seed, seconds, tracer, loop: Loop, lsqr: bool) -> None:
    """Preconditioned solves for half of `seconds`, then plain CGLS for the other half.

    Each phase walks the same seeded right-hand sides from the first, and
    starts a new solve while its half is not over; the plain phase also
    runs scipy's LSQR as an untimed reference when `lsqr` is set.
    Separate phases give the cheap plain solves as many samples as they
    need, whatever the preconditioned solves cost.
    """
    pre = tracer.traced_preconditioner(built.pre)
    for kind, p, max_iters in (("pre", pre, wl.pre_max_iters), ("plain", None, wl.max_iters)):
        cfg = rs.CglsConfig(norm_A=built.norm_A, max_iters=max_iters)
        t_end = perf_counter() + seconds / 2
        for k, b in enumerate(rhs_stream(seed, built.scaled.nrows)):
            if k > 0 and perf_counter() >= t_end:
                break
            rec, x = run_solve(kind, built.scaled, b, p, cfg, verifier, built.scaling, tracer)
            loop.records.append(rec)
            if k == 0:
                loop.first[kind] = x
            if kind == "plain" and lsqr:
                t0 = perf_counter()
                x, its = verifier.lsqr(b, iter_lim=4 * wl.max_iters)
                loop.lsqr_seconds.append(perf_counter() - t0)
                loop.lsqr_iters.append(its)
                loop.lsqr_relgrad.append(verifier.relgrad(x, b))
                if k == 0:
                    loop.first["lsqr"] = x


# ---------------------------------------------------------------------------
# appended rows
# ---------------------------------------------------------------------------


def _append_row(A: rs.CscMatrix, cols, vals) -> rs.CscMatrix:
    old_cols = np.repeat(np.arange(A.ncols, dtype=np.int64), A.column_counts())
    return rs.CscMatrix.from_coo(
        A.nrows + 1, A.ncols,
        np.concatenate([A.row_idx, np.full(len(cols), A.nrows, dtype=np.int64)]),
        np.concatenate([old_cols, cols]),
        np.concatenate([A.values, vals]),
    )


@dataclass
class Updates:
    seconds: list[float] = field(default_factory=list)
    failures: list[str | None] = field(default_factory=list)
    extended: Solve | None = None


def append_phase(wl, built, problem, seed, tracer) -> Updates:
    """Fold seeded rows in one at a time, then solve the extended system.

    A fold is add_row; when add_row refuses (UpdateFailedError, or
    ValueError for an S mode it does not support) the fold is a rebuild
    of the factors and preconditioner on the extended matrix.
    """
    rows, rhs_tail = appended_rows(seed, problem.ncols)
    scale = built.scaling.scale
    out = Updates()
    pre, extended = built.pre, built.scaled
    for cols, vals in rows:
        svals = vals / scale[cols]
        extended = _append_row(extended, cols, svals)  # the caller's own matrix: not timed
        t0 = perf_counter()
        try:
            pre = tracer.call("precond.add_row", pre.add_row, cols, svals)
            out.failures.append(None)
        except (UpdateFailedError, ValueError) as exc:
            out.failures.append(type(exc).__name__)
            _, pre = tracer.call("precond.rebuild", factorize_and_build, wl, extended, tracer)
        out.seconds.append(perf_counter() - t0)

    A_ext = sp.vstack([problem.to_scipy()] + [
        sp.csr_matrix((vals, (np.zeros(len(cols), dtype=np.int64), cols)),
                      shape=(1, problem.ncols)) for cols, vals in rows
    ]).tocsc()
    b_ext = np.concatenate([next(rhs_stream(seed, problem.nrows)), rhs_tail])
    cfg = rs.CglsConfig(norm_A=rs.power_method_norm2(extended, iters=POWER_ITERS, seed=seed),
                        max_iters=wl.pre_max_iters)
    out.extended, _ = run_solve("extended", extended, b_ext,
                                tracer.traced_preconditioner(pre), cfg, Verifier(A_ext),
                                built.scaling, tracer)
    return out


# ---------------------------------------------------------------------------
# checks that decide `correct`
# ---------------------------------------------------------------------------


def correctness_checks(wl, problem, built, verifier, seed, loop: Loop) -> dict:
    checks = {}
    b0 = next(rhs_stream(seed, problem.nrows))
    # The verifier must be able to fail: x = 0 is not a least-squares answer.
    checks["verifier_rejects_zero"] = not verified(verifier.relgrad(np.zeros(problem.ncols), b0))
    # A failed solve can be charged only at a measured time per iteration.
    checks["failed_solves_charged"] = all(
        charged_seconds([r for r in loop.records if r.kind == kind]) is not None
        for kind in ("pre", "plain"))
    if problem.path is None:
        return checks
    lib = sp.csc_matrix((built.A.values, built.A.row_idx, built.A.col_ptr),
                        shape=(built.A.nrows, built.A.ncols))
    checks["ingest_matches_scipy"] = bool(
        lib.shape == verifier.A.shape and abs(lib - verifier.A).max() == 0.0)
    first = next(r for r in loop.records if r.kind == "pre")
    checks["cli_parity"] = cli_parity(wl, problem, seed, first)
    return checks


def cli_parity(wl, problem, seed, first: Solve) -> dict:
    """The benchmark's first solve against `rowsplit solve` with the same settings."""
    if first.error is not None:
        return {"ok": False, "bench_error": first.error}
    bench = [first.its, first.converged, first.gradient_norm]
    record = run_single(RunConfig(matrix_path=str(problem.path), p=wl.p, s_mode=wl.s_mode,
                                  max_iters=wl.pre_max_iters, rhs_seed=seed))
    cli = [record["its"], record["converged"], record["gradient_norm"]]
    ok = cli[:2] == bench[:2] and math.isclose(cli[2], bench[2], rel_tol=1e-12, abs_tol=0.0)
    return {"ok": bool(ok), "cli": cli, "bench": bench}


def lstsq_crosscheck(problem, verifier, seed, loop: Loop) -> dict:
    """Relative distance of each verified first-rhs answer from dense lstsq."""
    b0 = next(rhs_stream(seed, problem.nrows))
    x_ls = np.linalg.lstsq(verifier.A.toarray(), b0, rcond=None)[0]
    out = {}
    for kind, x in loop.first.items():
        if x is not None and verified(verifier.relgrad(x, b0)):
            out[kind] = float(np.linalg.norm(x - x_ls) / np.linalg.norm(x_ls))
    return out


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def _p90(values) -> float:
    return float(np.percentile(values, 90)) if len(values) else 0.0


def _frac(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setup_seconds, loop: Loop, updates: Updates, rss_mb: float) -> dict:
    pre = [r for r in loop.records if r.kind == "pre"]
    plain = [r for r in loop.records if r.kind == "plain"]
    return {
        "setup_s": (_median(setup_seconds), "s"),
        "solve_s.p50": (_median(charged_or_raw(pre)), "s"),
        "solve_s.p90": (_p90(charged_or_raw(pre)), "s"),
        "iters.p50": (_median([r.charged_iters() for r in pre]), "count"),
        "cgls_solve_s.p50": (_median(charged_or_raw(plain)), "s"),
        "cgls_iters.p50": (_median([r.charged_iters() for r in plain]), "count"),
        "update_s.p50": (_median(updates.seconds), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def _solve_summary(records) -> dict:
    """Counts per kind of solve; the fail_frac of "plain" is cgls_fail_frac."""
    out = {}
    for kind in ("pre", "plain"):
        recs = [r for r in records if r.kind == kind]
        failed = sum(not r.verified for r in recs)
        false_converged = sum(r.false_converged for r in recs)
        out[kind] = {
            "attempted": len(recs),
            "failed": failed,
            "fail_frac": _frac(failed, len(recs)),
            "false_converged": false_converged,
            "false_converged_frac": _frac(false_converged, len(recs)),
            "cap_hit": sum(r.cap_hit for r in recs),
            "breakdown": sum(r.breakdown for r in recs),
            "errors": sorted({r.error for r in recs if r.error}),
            "relgrad_p50": _median([r.relgrad for r in recs]),
            "relgrad_max": max((r.relgrad for r in recs), default=0.0),
            "raw_seconds_p50": _median([r.seconds for r in recs]),
            "iters_run_p50": _median([r.iters_run for r in recs]),
        }
    return out


def solver_counts(records) -> dict:
    summary = _solve_summary(records)
    pre = [r for r in records if r.kind == "pre"]
    accepted = [r for r in records if r.kind in ("pre", "plain") and r.verified]
    return {
        "solver.iters_run": (_median([r.iters_run for r in pre]), "count"),
        "solver.cert_lag": (_median([r.iters_run - r.its for r in pre if r.converged]), "count"),
        "solver.false_converged": (summary["pre"]["false_converged"], "count"),
        "solver.cap_hit": (summary["pre"]["cap_hit"], "count"),
        "solver.breakdown": (summary["pre"]["breakdown"], "count"),
        "solver.verify_margin_min": (
            min((math.log10(TOLERANCE / max(r.relgrad, 1e-300)) for r in accepted), default=0.0),
            "log10"),
        "solver.verified_solves": (len(accepted), "count"),
        "solver.fail_frac": (summary["pre"]["fail_frac"], "ratio"),
        "solver.false_converged_frac": (summary["pre"]["false_converged_frac"], "ratio"),
        "solver.cgls_fail_frac": (summary["plain"]["fail_frac"], "ratio"),
    }


def layer_metrics(t: SpanTable, built: Built, problem: Problem, records, updates) -> dict:
    """Per-layer metrics from the traced spans and the last traced set-up."""
    setups = np.flatnonzero(t.mask("setup"))
    anc_setup = t.nearest_ancestor("setup")

    def per_setup(name, self_time=False) -> float:
        m = t.mask(name)
        vals = t.self_time if self_time else t.dur
        return _median([float(vals[m & (anc_setup == s)].sum()) for s in setups])

    def mean_self(name, scale) -> float:
        m = t.mask(name)
        return float(t.self_time[m].mean() * scale) if m.any() else 0.0

    def calls(name) -> int:
        return int(t.mask(name).sum())

    tri = t.mask("sparse_core.trisolve")
    tri_self = float(t.self_time[tri].sum())

    apply = t.mask("precond.apply")
    n_apply = int(apply.sum())
    under_apply = t.nearest_ancestor("precond.apply") >= 0

    def apply_ms(*names) -> float:
        m = under_apply & t.mask(*names)
        return float(t.self_time[m].sum() / n_apply * 1e3) if n_apply else 0.0

    pcgls = t.mask("solver.pcgls")
    pcgls_ids = t.ids("solver.pcgls")
    apply_in_pcgls = apply & np.isin(t.name[np.maximum(t.parent, 0)], pcgls_ids) & (t.parent >= 0)
    traced_pre = [r for r in records if r.kind == "pre" and r.traced]
    iters = sum(r.iters_run for r in traced_pre)

    f = built.factors
    n = f.ncols
    in_l2 = int(np.sum(f.row_perm.inv[problem.dense_rows] >= n)) if len(problem.dense_rows) else 0
    metrics = {
        "sparse_core.ingest_s": (per_setup("sparse_core.ingest"), "s"),
        "sparse_core.scale_s": (per_setup("sparse_core.scale"), "s"),
        "sparse_core.norm_s": (per_setup("sparse_core.norm"), "s"),
        "sparse_core.chol_factor_s": (per_setup("sparse_core.chol_factor"), "s"),
        "sparse_core.chol_solve_us": (mean_self("sparse_core.chol_solve", 1e6), "us"),
        "sparse_core.chol_solve_calls": (calls("sparse_core.chol_solve"), "count"),
        "sparse_core.trisolve_us": (mean_self("sparse_core.trisolve", 1e6), "us"),
        "sparse_core.trisolve_calls": (calls("sparse_core.trisolve"), "count"),
        "sparse_core.trisolve_gbps_computed": (
            float(t.nbytes[tri].sum() / tri_self / 1e9) if tri_self > 0 else 0.0, "GB/s"),
        "sparse_core.matvec_us": (mean_self("sparse_core.matvec", 1e6), "us"),
        "sparse_core.matvec_calls": (calls("sparse_core.matvec"), "count"),
        "sparse_core.reach_solve_s": (per_setup("sparse_core.reach_solve", self_time=True), "s"),
        "sparse_core.reach_solve_calls": (calls("sparse_core.reach_solve"), "count"),
        "ilup.factor_s": (per_setup("ilup.factor"), "s"),
        "ilup.fill": ((f.L1.nnz + f.L2.nnz + f.U.nnz) / built.scaled.nnz, "ratio"),
        "ilup.nmod": (int(f.nmod), "count"),
        "ilup.split_rows": (int(f.L2.nrows), "count"),
        "ilup.dense_rows_in_L2": (in_l2, "count"),
        "ilup.dense_rows": (len(problem.dense_rows), "count"),
        "precond.build_s": (per_setup("precond.build"), "s"),
        "precond.y_build_s": (per_setup("precond.y_build"), "s"),
        "precond.psize": (int(built.pre.psize), "count"),
        "precond.apply_ms": (float(t.dur[apply].mean() * 1e3) if n_apply else 0.0, "ms"),
        "precond.apply_calls": (n_apply, "count"),
        "precond.apply.trisolve_ms": (apply_ms("sparse_core.trisolve"), "ms"),
        "precond.apply.y_ms": (apply_ms("precond.y_product"), "ms"),
        "precond.apply.s_solve_ms": (apply_ms("sparse_core.chol_solve", "precond.s_inner_cg"),
                                     "ms"),
        "precond.apply.other_ms": (
            float(t.self_time[apply].sum() / n_apply * 1e3) if n_apply else 0.0, "ms"),
        "precond.apply_share": (
            float(t.dur[apply_in_pcgls].sum()) / float(t.dur[pcgls].sum())
            if pcgls.any() else 0.0, "ratio"),
        "precond.update_ms": (float(t.dur[t.mask("precond.add_row")].mean() * 1e3)
                              if calls("precond.add_row") else 0.0, "ms"),
        "precond.update_attempts": (len(updates.failures), "count"),
        "precond.update_fail_frac": (
            _frac(sum(x is not None for x in updates.failures), len(updates.failures)), "ratio"),
        "precond.rebuild_s": (float(t.dur[t.mask("precond.rebuild")].mean())
                              if calls("precond.rebuild") else 0.0, "s"),
        "solver.self_ms_per_iter": (float(t.self_time[pcgls].sum()) / iters * 1e3
                                    if iters else 0.0, "ms"),
    }
    metrics.update(solver_counts(records))
    return metrics


def operation_counts(records) -> tuple[int, int, int]:
    """(attempted, failed, unverified) over the given solves.

    A solve is a failed operation when it raised: it gave no answer to
    check.  An answer that the verifier rejects is not a failed operation
    but a measured one: the end-to-end metrics charge it as if it had run
    to the cap, and it is counted here as unverified.
    """
    failed = sum(r.error is not None for r in records)
    return len(records), failed, sum(not r.verified for r in records) - failed


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _l3_bytes() -> int:
    try:
        size = os.sysconf("SC_LEVEL3_CACHE_SIZE")
        if size > 0:
            return int(size)
    except (ValueError, OSError):
        pass
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as f:
            text = f.read().strip()
        return int(text[:-1]) * 1024 if text.endswith("K") else int(text)
    except (OSError, ValueError):
        return 0


def provenance(blas_threads: int) -> dict:
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "l3_bytes": _l3_bytes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "rowsplit": rs.__version__,
        "blas_threads": blas_threads,
    }


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def run(wl: Workload, seed: int, seconds: int, trace: bool, root: Path,
        blas_threads: int) -> tuple[dict, dict]:
    """Returns (result line, report)."""
    problem = make_problem(wl, seed, root)
    verifier = Verifier(problem.to_scipy())
    A_in = None if problem.path is not None else to_csc(problem)
    null = NullTracer()

    setup_seconds, built = set_up_repeatedly(wl, problem, A_in, seed, null)
    loop = Loop()
    report = {
        "workload": wl.name,
        "why": wl.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "tolerance": TOLERANCE,
        "machine": provenance(blas_threads),
        "params": {
            **wl.params(),
            "shape": [problem.nrows, problem.ncols],
            "nnz": problem.nnz,
            "dense_rows": len(problem.dense_rows),
            "setup_repeats": len(setup_seconds),
        },
    }

    if not trace:
        rhs_loop(wl, built, verifier, seed, seconds, null, loop, lsqr=True)
        updates = append_phase(wl, built, problem, seed, null)
        # taken before the checks below, which make dense copies of their own
        rss_mb = peak_rss_mb()
        checks = correctness_checks(wl, problem, built, verifier, seed, loop)
        if problem.path is not None:
            report["lstsq_crosscheck_relerr"] = lstsq_crosscheck(problem, verifier, seed, loop)
        metrics = end_to_end(setup_seconds, loop, updates, rss_mb)
        report["ref"] = {
            "lsqr_s": _median(loop.lsqr_seconds),
            "lsqr_iters": _median(loop.lsqr_iters),
            "lsqr_verified_frac": _frac(sum(verified(g) for g in loop.lsqr_relgrad),
                                        len(loop.lsqr_relgrad)),
        }
    else:
        rhs_loop(wl, built, verifier, seed, seconds / 2, null, loop, lsqr=False)
        untraced = list(loop.records)
        tracer = Tracer()
        with tracer.hooks():
            traced_seconds, built = set_up_repeatedly(wl, problem, A_in, seed, tracer)
            rhs_loop(wl, built, verifier, seed, seconds / 2, tracer, loop, lsqr=False)
            updates = append_phase(wl, built, problem, seed, tracer)
        checks = correctness_checks(wl, problem, built, verifier, seed, loop)
        table = tracer.table()
        spans_path = root / "rsbench" / "out" / f"spans-{wl.name}-seed{seed}.npz"
        table.save(spans_path)
        metrics = layer_metrics(table, built, problem, loop.records, updates)

        def pre_p50(recs):
            return _median(charged_or_raw([r for r in recs if r.kind == "pre"]))

        traced_recs = [r for r in loop.records if r.traced]
        metrics["trace.overhead_setup_s"] = (
            _median(traced_seconds) - _median(setup_seconds),
            "s")
        metrics["trace.overhead_solve_s"] = (pre_p50(traced_recs) - pre_p50(untraced), "s")
        report["tracing"] = {"spans": len(table.name),
                             "spans_file": str(spans_path.relative_to(root)),
                             "hooked": tracer.hooked}

    operations = loop.records + [updates.extended]
    report["params"]["rhs_count"] = {
        kind: sum(r.kind == kind for r in loop.records) for kind in ("pre", "plain")}
    report["solves"] = _solve_summary(loop.records)
    report["updates"] = {
        "seconds": updates.seconds,
        "failures": updates.failures,
        "extended_solve": {"verified": updates.extended.verified,
                           "relgrad": updates.extended.relgrad,
                           "converged": updates.extended.converged,
                           "error": updates.extended.error},
    }
    report["checks"] = checks
    correct = all(v["ok"] if isinstance(v, dict) else bool(v) for v in checks.values())
    attempted, failed, unverified = operation_counts(operations)
    report["operations"] = {"attempted": attempted, "failed": failed, "unverified": unverified}
    line = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": unit} for name, (v, unit) in metrics.items()},
    }
    return line, report
