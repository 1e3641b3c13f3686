import csv
import json
from pathlib import Path

import numpy as np
import pytest

from sparse_aa import read_matrix_csv
from sparse_aa.cli import main, parse_lambda


def run(args):
    return main([str(a) for a in args])


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_parse_lambda_forms():
    assert parse_lambda("2.5") == 2.5
    sched = parse_lambda("log:30:1:8")
    assert len(sched) == 8
    assert sched[0] == pytest.approx(30.0)
    assert sched[-1] == pytest.approx(1.0)
    assert all(b < a for a, b in zip(sched, sched[1:]))
    assert parse_lambda("log:30:1:1") == (1.0,)


def test_synth_deterministic_and_manifest(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = ["synth", "--m", 20, "--n", 10, "--k", 3, "--seed", 7, "--out"]
    assert run(args + [out1]) == 0
    assert run(args + [out2]) == 0
    for name in ["X.csv", "X0.csv", "H0.csv", "W0.csv", "Z.csv", "manifest.json"]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    manifest = read_json(out1 / "manifest.json")
    assert manifest["schema"]
    assert manifest["nnz_H0"] <= 0.8 * 10 * 3


def test_synth_zero_noise_x_equals_x0(tmp_path):
    out = tmp_path / "s"
    assert run(["synth", "--m", 8, "--n", 5, "--k", 2, "--sigma-z", 0,
                "--seed", 1, "--out", out]) == 0
    assert (out / "X.csv").read_bytes() == (out / "X0.csv").read_bytes()


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "truth"
    assert run(["synth", "--m", 15, "--n", 8, "--k", 2, "--sigma-z", 0.1,
                "--seed", 3, "--out", out]) == 0
    return out


def fit_args(synth_dir, out, **kw):
    base = {
        "--data": synth_dir / "X.csv",
        "--k": 2,
        "--ell": 8,
        "--lambda": "log:30:1:3",
        "--init": "mip",
        "--local-search": "off",
        "--max-iter": 800,
        "--tol-stationary": 1e-4,
        "--oa-rounds": 3,
        "--out": out,
    }
    base.update(kw)
    args = ["fit"]
    for key, val in base.items():
        args += [key, val]
    return args


def test_fit_outputs_and_determinism(synth_dir, tmp_path):
    out1 = tmp_path / "f1"
    out2 = tmp_path / "f2"
    assert run(fit_args(synth_dir, out1)) == 0
    assert run(fit_args(synth_dir, out2)) == 0
    for name in ["H.csv", "W.csv", "Wt.csv", "trace.csv", "swaps.csv", "summary.json"]:
        assert (out1 / name).exists()
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    summary = read_json(out1 / "summary.json")
    assert summary["schema"]
    assert summary["nnz_H"] <= 8
    H = read_matrix_csv(out1 / "H.csv")
    assert (np.abs(H) > 0).sum() <= 8

    with open(out1 / "trace.csv") as fh:
        rows = list(csv.DictReader(fh))
    totals = [float(r["total"]) for r in rows]
    assert all(b <= a + 1e-9 * max(a, 1.0) for a, b in zip(totals, totals[1:]))


def test_fit_zero_init_and_local_search(synth_dir, tmp_path):
    out = tmp_path / "fz"
    assert run(fit_args(synth_dir, out, **{"--init": "zero", "--lambda": "1.0",
                                           "--local-search": "on"})) == 0
    summary = read_json(out / "summary.json")
    assert summary["init"] == "zero"
    assert summary["local_search"] is True
    assert summary["mip"] is None


@pytest.mark.parametrize("init", ["mip", "zero"])
def test_fit_all_zero_data(tmp_path, init):
    # X = 0 makes the Wt-block constant (L3 = 0): the step is skipped, not
    # divided by zero
    np.savetxt(tmp_path / "X.csv", np.zeros((6, 4)), delimiter=",")
    out = tmp_path / "fit"
    assert run(["fit", "--data", tmp_path / "X.csv", "--k", 2, "--ell", 4,
                "--init", init, "--local-search", "on", "--out", out]) == 0
    summary = read_json(out / "summary.json")
    assert summary["objective"]["total"] == 0.0
    assert not read_matrix_csv(out / "H.csv").any()


def test_fit_rejects_bad_config(synth_dir, tmp_path):
    rc = run(fit_args(synth_dir, tmp_path / "bad", **{"--ell": 0}))
    assert rc == 2


def test_fit_missing_input_is_io_error(tmp_path):
    rc = run(["fit", "--data", tmp_path / "missing.csv", "--k", 2, "--ell", 4,
              "--out", tmp_path / "o"])
    assert rc == 3


def test_eval_reports_and_aggregate(synth_dir, tmp_path):
    fit1 = tmp_path / "f1"
    fit2 = tmp_path / "f2"
    assert run(fit_args(synth_dir, fit1)) == 0
    assert run(fit_args(synth_dir, fit2, **{"--init": "zero", "--lambda": "1.0"})) == 0
    out = tmp_path / "eval"
    assert run(["eval", "--truth", synth_dir, "--fit", fit1, "--fit", fit2,
                "--out", out]) == 0
    with open(out / "reports.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert {"schema", "weak", "strong", "delta", "psi"} <= set(rows[0])
    agg = read_json(out / "aggregate.json")
    assert agg["schema"]
    assert agg["groups"][0]["count"] == 2


def test_eval_with_labels(synth_dir, tmp_path):
    fit1 = tmp_path / "fl"
    assert run(fit_args(synth_dir, fit1)) == 0
    labels = tmp_path / "labels.txt"
    rng = np.random.default_rng(0)
    np.savetxt(labels, rng.integers(0, 2, size=15), fmt="%d")
    out = tmp_path / "evl"
    assert run(["eval", "--truth", synth_dir, "--fit", fit1,
                "--labels", labels, "--out", out]) == 0
    with open(out / "reports.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert "purity" in rows[0] and "entropy" in rows[0]
    assert 0.0 <= float(rows[0]["purity"]) <= 1.0


def test_commands_do_not_mutate_inputs(synth_dir, tmp_path):
    before = (synth_dir / "X.csv").read_bytes()
    assert run(fit_args(synth_dir, tmp_path / "fm")) == 0
    assert (synth_dir / "X.csv").read_bytes() == before


def test_eval_exact_recovery_gives_zero_distances(synth_dir, tmp_path):
    # a hand-built fit directory whose H equals the ground truth
    fit = tmp_path / "exact"
    fit.mkdir()
    H0 = read_matrix_csv(synth_dir / "H0.csv")
    np.savetxt(fit / "H.csv", H0, delimiter=",", fmt="%.17g")
    with open(fit / "summary.json", "w") as fh:
        json.dump(
            {
                "schema": "sparse-aa-v1",
                "config": {"seed": 0, "ell": 16},
                "objective": {"fit": 0.0, "reg": 0.0, "total": 0.0},
            },
            fh,
        )
    out = tmp_path / "evx"
    assert run(["eval", "--truth", synth_dir, "--fit", fit, "--out", out]) == 0
    with open(out / "reports.csv") as fh:
        row = list(csv.DictReader(fh))[0]
    assert float(row["weak"]) <= 1e-12
    assert float(row["strong"]) <= 1e-12


def test_fit_warns_when_continuation_hits_max_iter(synth_dir, tmp_path, capsys):
    out = tmp_path / "capped"
    assert run(fit_args(synth_dir, out, **{"--max-iter": 2})) == 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("warning: continuation stopped at max_iter=2")
    # every lambda of log:30:1:3 is cut by a 2-sweep budget
    assert lines[0].endswith("lambda = 30, 5.47723, 1")
    assert read_json(out / "summary.json")["converged"] is False


def test_fit_default_node_cap_defers_to_library(synth_dir, tmp_path, monkeypatch):
    import sparse_aa.cli as cli

    seen = []
    real = cli.outer_approximation

    def spy(X, cfg, **kwargs):
        seen.append(kwargs["backend"])
        return real(X, cfg, **kwargs)

    monkeypatch.setattr(cli, "outer_approximation", spy)
    assert run(fit_args(synth_dir, tmp_path / "nocap")) == 0
    assert run(fit_args(synth_dir, tmp_path / "cap", **{"--oa-node-cap": 7})) == 0
    assert seen[0] is None
    assert seen[1].node_cap == 7


@pytest.mark.parametrize(
    "lam, csv_text, mentions",
    [
        ("abc", None, "lambda"),
        ("log:30:1:x", None, "lambda"),
        ("nan", None, "lambda"),
        ("log:inf:1:8", None, "lambda"),
        ("1.0", "1,2\n3,x\n", "X.csv"),
        ("1.0", "1,2\n3\n", "X.csv"),
    ],
    ids=["lambda-text", "schedule-text", "lambda-nan", "schedule-inf", "csv-cell", "csv-ragged"],
)
def test_fit_bad_numbers_are_invalid_input(synth_dir, tmp_path, capsys, lam, csv_text, mentions):
    data = synth_dir / "X.csv"
    if csv_text is not None:
        data = tmp_path / "X.csv"
        data.write_text(csv_text)
    out = tmp_path / "out"
    rc = run(fit_args(synth_dir, out, **{"--data": data, "--lambda": lam, "--init": "zero"}))
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ")
    assert mentions in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("init", ["zero", "mip"])
def test_fit_empty_data_file_is_invalid_input(tmp_path, capsys, init):
    data = tmp_path / "empty.csv"
    data.write_text("")
    out = tmp_path / "out"
    rc = run(["fit", "--data", data, "--k", 2, "--ell", 2, "--init", init, "--out", out])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and "empty.csv" in lines[0]
    assert not out.exists()


def test_eval_empty_fit_matrix_is_invalid_input(synth_dir, tmp_path, capsys):
    fit = tmp_path / "f"
    assert run(fit_args(synth_dir, fit)) == 0
    (fit / "H.csv").write_text("")
    capsys.readouterr()
    out = tmp_path / "ev"
    assert run(["eval", "--truth", synth_dir, "--fit", fit, "--out", out]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and "H.csv" in lines[0]
    assert not out.exists()


def test_fit_summary_config_is_the_estimator_and_solver_settings(synth_dir, tmp_path):
    out = tmp_path / "cfg"
    assert run(fit_args(synth_dir, out)) == 0
    summary = read_json(out / "summary.json")
    assert summary["schema"] == "sparse-aa-v2"
    assert set(summary["config"]) == {
        "k", "ell", "lambda", "tol_objective", "tol_stationary", "max_iter"
    }


@pytest.mark.parametrize(
    "flag, value",
    [("--seed", 1), ("--eps-safeguard", 1e-6), ("--oa-tol-gap", 1e-6)],
)
def test_fit_rejects_removed_flags(synth_dir, tmp_path, flag, value):
    with pytest.raises(SystemExit) as exc:
        run(fit_args(synth_dir, tmp_path / "o") + [flag, value])
    assert exc.value.code == 2


def test_fit_oa_rounds_zero_is_invalid_input(synth_dir, tmp_path, capsys):
    out = tmp_path / "o"
    assert run(fit_args(synth_dir, out, **{"--oa-rounds": 0})) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and "max_rounds" in lines[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, mentions",
    [
        ("--oa-node-cap", -1, "node_cap"),
        ("--max-swaps", -1, "max_swaps"),
        ("--time-budget", -1, "time_budget"),
        ("--time-budget", "nan", "time_budget"),
        ("--tol-objective", "nan", "tolerances"),
        ("--tol-stationary", "inf", "tolerances"),
    ],
)
def test_fit_bad_budgets_and_tolerances_are_invalid_input(
    synth_dir, tmp_path, capsys, flag, value, mentions
):
    out = tmp_path / "o"
    rc = run(fit_args(synth_dir, out, **{"--local-search": "on", flag: value}))
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and mentions in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--m", "--n", "--k"])
def test_synth_empty_shape_is_invalid_input(tmp_path, capsys, flag):
    args = {"--m": 8, "--n": 5, "--k": 2}
    args[flag] = 0
    out = tmp_path / "s"
    cmd = ["synth", "--out", out]
    for key, val in args.items():
        cmd += [key, val]
    assert run(cmd) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value", [("--sigma-z", "nan"), ("--sigma-z", "inf"), ("--seed", "-1")]
)
def test_synth_bad_noise_or_seed_is_invalid_input(tmp_path, capsys, flag, value):
    out = tmp_path / "s"
    assert run(["synth", "--m", 8, "--n", 5, "--k", 2, flag, value, "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_eval_non_integer_label_is_invalid_input(synth_dir, tmp_path, capsys):
    fit = tmp_path / "f"
    assert run(fit_args(synth_dir, fit)) == 0
    capsys.readouterr()
    labels = tmp_path / "labels.txt"
    labels.write_text("0\n1\nx\n")
    out = tmp_path / "ev"
    rc = run(["eval", "--truth", synth_dir, "--fit", fit, "--labels", labels, "--out", out])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and "labels.txt" in lines[0]
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text, count", [("", 0), ("0\n1\n", 2)])
def test_eval_label_count_mismatch_is_invalid_input(synth_dir, tmp_path, capsys, text, count):
    fit = tmp_path / "f"
    assert run(fit_args(synth_dir, fit)) == 0
    capsys.readouterr()
    labels = tmp_path / "labels.txt"
    labels.write_text(text)
    out = tmp_path / "ev"
    rc = run(["eval", "--truth", synth_dir, "--fit", fit, "--labels", labels, "--out", out])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and "labels.txt" in lines[0]
    assert f"{count} labels for the 15 rows" in lines[0]
    assert not out.exists()
