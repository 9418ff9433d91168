import csv
import io
import json
import logging
import os

import numpy as np
import pytest

from rowsplit import precond
from rowsplit.cli import RunConfig, emit_convergence_plot_data, main, run_batch, run_single

from conftest import require_matrix

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_identity.json")


@pytest.fixture
def identity_mtx(tmp_path):
    path = tmp_path / "identity5.mtx"
    lines = ["%%MatrixMarket matrix coordinate real general", "5 5 5"]
    lines += [f"{i} {i} 1.0" for i in range(1, 6)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def small_mtx(tmp_path):
    rng = np.random.default_rng(0)
    m, n = 12, 7
    a = rng.standard_normal((m, n))
    entries = [(i + 1, j + 1, a[i, j]) for i in range(m) for j in range(n)]
    path = tmp_path / "small.mtx"
    with open(path, "w") as f:
        f.write("%%MatrixMarket matrix coordinate real general\n")
        f.write(f"{m} {n} {len(entries)}\n")
        for i, j, v in entries:
            f.write(f"{i} {j} {float(v):.17g}\n")
    return str(path)


def masked(record):
    rec = dict(record)
    rec["wall_time_s"] = 0.0
    rec["matrix"] = os.path.basename(rec["matrix"])
    return rec


def test_identity_run(identity_mtx):
    rec = run_single(RunConfig(matrix_path=identity_mtx))
    assert rec["its"] == 1
    assert rec["nmod"] == 0
    assert rec["converged"] is True


def test_identity_golden_report(identity_mtx):
    rec = masked(run_single(RunConfig(matrix_path=identity_mtx)))
    with open(GOLDEN) as f:
        want = json.load(f)
    assert json.dumps(rec, sort_keys=True) == json.dumps(want, sort_keys=True)


def test_run_single_deterministic(small_mtx):
    a = masked(run_single(RunConfig(matrix_path=small_mtx)))
    b = masked(run_single(RunConfig(matrix_path=small_mtx)))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_solve_exit_codes(identity_mtx, small_mtx, tmp_path, capsys):
    assert main(["solve", identity_mtx]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["converged"] is True

    # iteration cap before the delayed test can certify
    assert main(["solve", small_mtx, "--p", "1", "--max-iters", "1"]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["converged"] is False

    missing = str(tmp_path / "nope.mtx")
    assert main(["solve", missing]) == 1
    out = json.loads(capsys.readouterr().out)
    assert "error" in out


def test_solve_flags(small_mtx, capsys):
    code = main([
        "solve", small_mtx, "--s-mode", "cg",
        "--p", "4", "--tau", "0.05",
        "--delta", "1e-8", "--seed", "7", "--format", "json",
    ])
    out = json.loads(capsys.readouterr().out)
    assert code in (0, 2)
    assert out["params"]["s_mode"] == "cg"
    assert out["params"]["rhs_seed"] == 7


@pytest.mark.parametrize("flag", ["--tau", "--small", "--delta"])
def test_solve_rejects_nan_parameter(small_mtx, flag, capsys):
    assert main(["solve", small_mtx, flag, "nan"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error"].startswith("ValueError") and flag[2:] in out["error"]


def test_solve_rejects_file_without_entries(tmp_path, capfd):
    """A file with no entry lines gets the named error and nothing on stderr."""
    path = tmp_path / "empty.mtx"
    for nnz, error in [
        (0, "ValueError: empty matrix"),
        (2, "MatrixMarketError: expected 2 entries, found 0"),
    ]:
        path.write_text(f"%%MatrixMarket matrix coordinate real general\n3 2 {nnz}\n")
        assert main(["solve", str(path)]) == 1
        out, err = capfd.readouterr()
        assert json.loads(out)["error"] == error
        assert err == ""


def test_dense_cap_falls_back_to_inner_cg(small_mtx, tmp_path, monkeypatch, caplog):
    """The cap bounds the factored Gram's order min(s, n), as in build_preconditioner."""
    monkeypatch.setattr(precond, "DENSE_S_CAP", 1)
    with caplog.at_level(logging.WARNING, logger="rowsplit"):
        rec = run_single(RunConfig(matrix_path=small_mtx, s_mode="dense"))
    assert rec["params"]["s_mode"] == "cg"
    assert rec["converged"] is True
    [warning] = [r for r in caplog.records if r.name == "rowsplit"]
    assert warning.levelno == logging.WARNING
    assert "order 5 exceeds dense cap 1; falling back to inner CG" in warning.getMessage()

    # s = 16 > cap >= n = 4: G of order 4 is factored dense, with no warning
    rng = np.random.default_rng(1)
    tall = tmp_path / "tall.mtx"
    a = rng.standard_normal((20, 4))
    with open(tall, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n20 4 80\n")
        fh.writelines(f"{i + 1} {j + 1} {a[i, j]:.17g}\n" for i in range(20) for j in range(4))
    caplog.clear()
    for cap, mode in [(4, "dense"), (3, "cg")]:
        monkeypatch.setattr(precond, "DENSE_S_CAP", cap)
        with caplog.at_level(logging.WARNING, logger="rowsplit"):
            rec = run_single(RunConfig(matrix_path=str(tall), s_mode="dense"))
        assert rec["params"]["s_mode"] == mode
        assert rec["converged"] is True
    [warning] = [r for r in caplog.records if r.name == "rowsplit"]
    assert "order 4 exceeds dense cap 3" in warning.getMessage()


def test_human_and_csv_formats(identity_mtx, capsys):
    main(["solve", identity_mtx, "--format", "human"])
    text = capsys.readouterr().out
    assert "its=1" in text and "converged" in text
    main(["solve", identity_mtx, "--format", "csv"])
    text = capsys.readouterr().out
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows[0]["its"] == "1"


def test_wide_matrix_pipeline(tmp_path):
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 9))  # wide: ingestion transposes to 9x5
    path = tmp_path / "wide.mtx"
    with open(path, "w") as f:
        f.write("%%MatrixMarket matrix coordinate real general\n5 9 45\n")
        for i in range(5):
            for j in range(9):
                f.write(f"{i + 1} {j + 1} {float(a[i, j]):.17g}\n")
    rec = run_single(RunConfig(matrix_path=str(path)))
    assert rec["transposed"] is True
    assert (rec["m"], rec["n"]) == (9, 5)
    assert rec["converged"] is True


def test_illc1850_dropped_factors_converge():
    path = require_matrix("illc1850.mtx")
    rec = run_single(RunConfig(matrix_path=path, tau=0.1, s_mode="cg"))
    assert rec["converged"] and rec["its"] <= 60
    assert rec["nmod"] == 0


# ---------------------------------------------------------------------------
# batch
# ---------------------------------------------------------------------------


def test_batch_empty_manifest(tmp_path, capsys):
    manifest = tmp_path / "empty.json"
    manifest.write_text(json.dumps({"problems": [], "grid": []}))
    assert main(["batch", str(manifest)]) == 0
    out = capsys.readouterr().out
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows == []


def test_batch_grid(identity_mtx, small_mtx, tmp_path):
    manifest = tmp_path / "grid.json"
    manifest.write_text(json.dumps({
        "problems": [identity_mtx, small_mtx],
        "grid": [{"tau": 0.0}, {"tau": 0.1}],
    }))
    rows = run_batch(str(manifest))
    assert len(rows) == 4
    assert all(r["error"] is None for r in rows)
    # sorted by increasing row-surplus ratio: the square identity first
    ratios = [(r["m"] - r["n"]) / r["m"] for r in rows]
    assert ratios == sorted(ratios)


def test_batch_isolates_failures(identity_mtx, tmp_path):
    manifest = tmp_path / "fail.json"
    manifest.write_text(json.dumps({
        "problems": [identity_mtx, str(tmp_path / "missing.mtx")],
        "grid": [{}],
    }))
    rows = run_batch(str(manifest))
    assert len(rows) == 2
    errors = [r for r in rows if r["error"] is not None]
    assert len(errors) == 1
    assert "missing.mtx" in errors[0]["matrix"]


def test_batch_defaults_merge(identity_mtx, tmp_path):
    manifest = tmp_path / "defaults.json"
    manifest.write_text(json.dumps({
        "problems": [identity_mtx],
        "grid": [{}],
        "defaults": {"rhs_seed": 11},
    }))
    rows = run_batch(str(manifest))
    assert rows[0]["params"]["rhs_seed"] == 11


# ---------------------------------------------------------------------------
# plot data
# ---------------------------------------------------------------------------


def test_batch_missing_manifest(tmp_path, capsys):
    assert main(["batch", str(tmp_path / "none.json")]) == 1
    assert "error" in capsys.readouterr().err


def test_plot_data_missing_report(tmp_path, capsys):
    assert main(["plot-data", str(tmp_path / "none.json")]) == 1
    assert "error" in capsys.readouterr().err


def test_plot_data_empty_history():
    out = io.StringIO()
    emit_convergence_plot_data({"ratio_pt_history": []}, out)
    assert out.getvalue() == "iteration,ratio_pt\n"


def test_plot_data_rows_match_history(identity_mtx, tmp_path, capsys):
    rec = run_single(RunConfig(matrix_path=identity_mtx))
    out = io.StringIO()
    emit_convergence_plot_data(rec, out)
    rows = list(csv.reader(io.StringIO(out.getvalue())))
    assert rows[0] == ["iteration", "ratio_pt"]
    assert len(rows) - 1 == len(rec["ratio_pt_history"])
    for k, row in enumerate(rows[1:]):
        assert int(row[0]) == k
        assert float(row[1]) == rec["ratio_pt_history"][k]

    # through the CLI, from a stored report
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(rec))
    csv_path = tmp_path / "hist.csv"
    assert main(["plot-data", str(report_path), "-o", str(csv_path)]) == 0
    assert csv_path.read_text().splitlines()[0] == "iteration,ratio_pt"
