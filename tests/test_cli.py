import csv
import json

import numpy as np
import pytest

from sparse_aa import Factorization, SaaConfig, read_matrix_csv, stationarity_residual
from sparse_aa.cli import main, parse_lambda
from sparse_aa.core import write_matrix_csv
from sparse_aa.local_search import SwapProposal


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
def test_fit_summary_certifies_the_written_factorization(tmp_path, init):
    # the README data and fit: local search accepts swaps after the last
    # continuation solve, so only a certificate of the written H, W, Wt holds
    # (with the default 50 OA rounds; after 3 it accepts none)
    data, out = tmp_path / "data", tmp_path / "fit"
    assert run(["synth", "--m", 20, "--n", 10, "--k", 3, "--sigma-z", 0.1,
                "--seed", 7, "--out", data]) == 0
    assert run(["fit", "--data", data / "X.csv", "--k", 3, "--ell", 15, "--init", init,
                "--local-search", "on", "--out", out]) == 0
    summary = read_json(out / "summary.json")
    assert summary["swaps_accepted"] > 0
    fac = Factorization(*(read_matrix_csv(out / f"{name}.csv") for name in ("H", "W", "Wt")))
    cfg = SaaConfig(k=3, ell=15, lam=parse_lambda("log:30:1:8"))
    rep = stationarity_residual(read_matrix_csv(data / "X.csv"), fac, cfg)
    assert summary["stationarity_residual"] == rep.residual
    assert summary["boundary_tie"] is rep.boundary_tie


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


def test_eval_accepts_older_fit_directories(synth_dir, tmp_path):
    # eval reads only config.ell and objective.total: a sparse-aa-v2 summary,
    # which wrote a gap of 1.0 without a lower bound, evaluates the same
    fits = {"v3": tmp_path / "v3", "v2": tmp_path / "v2"}
    assert run(fit_args(synth_dir, fits["v3"])) == 0
    fits["v2"].mkdir()
    (fits["v2"] / "H.csv").write_bytes((fits["v3"] / "H.csv").read_bytes())
    summary = read_json(fits["v3"] / "summary.json")
    summary["schema"], summary["mip"]["gap"] = "sparse-aa-v2", 1.0
    with open(fits["v2"] / "summary.json", "w") as fh:
        json.dump(summary, fh)
    rows = {}
    for name, fit in fits.items():
        out = tmp_path / f"ev-{name}"
        assert run(["eval", "--truth", synth_dir, "--fit", fit, "--out", out]) == 0
        with open(out / "reports.csv") as fh:
            (rows[name],) = csv.DictReader(fh)
        assert rows[name].pop("fit") == str(fit)
    assert rows["v2"] == rows["v3"]


@pytest.mark.parametrize("case", ["no-bound", "lifted-bound"])
def test_fit_summary_mip_gap_is_a_certificate_or_null(tmp_path, case):
    if case == "no-bound":
        # no master lifts the README instance's lower bound off 0
        X, k, ell = read_matrix_csv(readme_data(tmp_path) / "X.csv"), 3, 15
    else:
        # test_mip_init's late-lift instance: its ninth master lifts it
        X, k, ell = np.random.default_rng(17).uniform(size=(4, 3)), 2, 2
    write_matrix_csv(tmp_path / "X.csv", X)
    out = tmp_path / "fit"
    assert run(["fit", "--data", tmp_path / "X.csv", "--k", k, "--ell", ell,
                "--oa-rounds", 10, "--out", out]) == 0
    mip = read_json(out / "summary.json")["mip"]
    if case == "no-bound":
        assert mip["best_lower"] == 0.0 and mip["gap"] is None
    else:
        assert 0.0 < mip["best_lower"] < mip["best_upper"]
        assert mip["gap"] == (mip["best_upper"] - mip["best_lower"]) / mip["best_upper"]


def test_fit_warns_when_continuation_hits_max_iter(synth_dir, tmp_path, capsys):
    out = tmp_path / "capped"
    assert run(fit_args(synth_dir, out, **{"--max-iter": 2})) == 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("warning: continuation stopped at max_iter=2")
    # every lambda of log:30:1:3 is cut by a 2-sweep budget
    assert lines[0].endswith("lambda = 30, 5.47723, 1")
    assert read_json(out / "summary.json")["converged"] is False


def test_fit_zero_init_warns_when_its_solve_hits_max_iter(synth_dir, tmp_path, capsys):
    # the zero path is one solve, at the final lambda
    out = tmp_path / "capped"
    assert run(fit_args(synth_dir, out, **{"--init": "zero", "--max-iter": 2})) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: continuation stopped at max_iter=2 without converging for lambda = 1"
    ]
    assert read_json(out / "summary.json")["converged"] is False


def readme_data(tmp_path):
    data = tmp_path / "data"
    assert run(["synth", "--m", 20, "--n", 10, "--k", 3, "--sigma-z", 0.1,
                "--seed", 7, "--out", data]) == 0
    return data


def crlf_lines(path):
    text = path.read_bytes().decode("utf-8")
    assert text.endswith("\r\n") and "\n" not in text.replace("\r\n", "")
    return text.split("\r\n")[:-1]


def test_csv_artifacts_pin_their_format(tmp_path, monkeypatch):
    # the README data and fit: exact headers, CRLF line endings, and floats as
    # f"{v:.17g}", so the last objective of each file is summary.json's Psi;
    # local search accepts swaps after the default 50 OA rounds, none after 3
    data = readme_data(tmp_path)
    fits = {}
    for ls, rounds in (("on", 50), ("off", 3)):
        fits[ls] = tmp_path / f"fit-{ls}"
        assert run(["fit", "--data", data / "X.csv", "--k", 3, "--ell", 15,
                    "--oa-rounds", rounds, "--local-search", ls, "--out", fits[ls]]) == 0
    assert run(["eval", "--truth", data, "--fit", fits["on"], "--out", tmp_path / "rep"]) == 0

    def psi(fit):
        return f"{read_json(fit / 'summary.json')['objective']['total']:.17g}"

    trace = crlf_lines(fits["off"] / "trace.csv")
    assert trace[0] == "schema,iteration,fit,reg,total"
    assert trace[-1].startswith(f"sparse-aa-v3,{len(trace) - 2},")
    assert trace[-1].split(",")[-1] == psi(fits["off"])
    swaps = crlf_lines(fits["on"] / "swaps.csv")
    assert swaps[0] == "schema,leaving_i,leaving_j,entering_i,entering_j,t,objective"
    n_swaps = read_json(fits["on"] / "summary.json")["swaps_accepted"]
    assert n_swaps > 0 and len(swaps) == 1 + n_swaps
    assert swaps[-1].split(",")[-1] == psi(fits["on"])
    reports = crlf_lines(tmp_path / "rep" / "reports.csv")
    assert reports[0] == "schema,fit,sigma_z,ell,weak,strong,delta,beta,sep,psi"
    row = dict(zip(reports[0].split(","), next(csv.reader(reports[1:]))))
    assert row["psi"] == psi(fits["on"])
    assert row["sigma_z"] == f"{0.1:.17g}"

    # the README data gives no swap below budget: such a swap has no leaving
    # coordinate and writes two empty cells
    import sparse_aa.cli as cli

    below = SwapProposal(leaving=None, entering=(2, 4), t_star=0.5, new_objective=1.25)
    monkeypatch.setattr(cli, "local_search", lambda X, fac, cfg, max_swaps: (fac, 1, [below]))
    out = tmp_path / "below"
    assert run(["fit", "--data", data / "X.csv", "--k", 3, "--ell", 15, "--init", "zero",
                "--lambda", 1, "--local-search", "on", "--out", out]) == 0
    assert crlf_lines(out / "swaps.csv")[1:] == ["sparse-aa-v3,,,2,4,0.5,1.25"]


def test_fit_non_finite_projection_is_numerical_failure(tmp_path, capsys):
    # scaled by 1e-160, ||X||^2 is subnormal, the Wt step's lam / L3
    # overflows, and its simplex projection meets rows with no finite maximum
    data = readme_data(tmp_path)
    write_matrix_csv(tmp_path / "tiny.csv", read_matrix_csv(data / "X.csv") * 1e-160)
    capsys.readouterr()
    rc = run(["fit", "--data", tmp_path / "tiny.csv", "--init", "zero", "--lambda", 1,
              "--k", 3, "--ell", 15, "--out", tmp_path / "fit"])
    assert rc == 4
    assert capsys.readouterr().err.splitlines()[-1].startswith("numerical failure:")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("init, scale", [("zero", 1e-160), ("mip", 1e160)])
def test_fit_numerical_failure_prints_one_line(tmp_path, capsys, init, scale):
    # the scaled README data overflows or meets invalid values; no numpy
    # warning may precede the failure line
    data = readme_data(tmp_path)
    write_matrix_csv(tmp_path / "scaled.csv", read_matrix_csv(data / "X.csv") * scale)
    capsys.readouterr()
    rc = run(["fit", "--data", tmp_path / "scaled.csv", "--init", init, "--k", 3,
              "--ell", 15, "--local-search", "on", "--oa-rounds", 3, "--out", tmp_path / "fit"])
    assert rc == 4
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure:")


def test_fit_mip_budget_past_k_times_n_is_not_binding(tmp_path):
    # k*n = 30 on the README data: a budget of 40 fits exactly as 30 does
    data = readme_data(tmp_path)
    outs = {}
    for ell in (30, 40):
        outs[ell] = tmp_path / f"ell{ell}"
        assert run(["fit", "--data", data / "X.csv", "--k", 3, "--ell", ell,
                    "--lambda", "log:30:1:8", "--init", "mip", "--local-search", "on",
                    "--out", outs[ell]]) == 0
    for name in ["H.csv", "W.csv", "Wt.csv", "trace.csv", "swaps.csv"]:
        assert (outs[30] / name).read_bytes() == (outs[40] / name).read_bytes()
    s30, s40 = read_json(outs[30] / "summary.json"), read_json(outs[40] / "summary.json")
    assert s40["config"]["ell"] == 40
    s40["config"]["ell"] = 30
    assert s30 == s40


@pytest.mark.filterwarnings("error")
def test_fit_ell_below_k_warns_once_at_the_cli(synth_dir, tmp_path, capsys):
    # one warning line, no Python warning; continuation's warm-start config
    # must not rebuild the config and warn again
    capsys.readouterr()
    assert run(fit_args(synth_dir, tmp_path / "f", **{"--k": 3, "--ell": 2})) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: ell < k: some archetype rows are forced to zero"
    ]


def test_fit_default_node_cap_defers_to_library(synth_dir, tmp_path, monkeypatch):
    import sparse_aa.cli as cli
    from sparse_aa.mip_init import NODE_CAP

    seen = []
    real = cli.outer_approximation

    def spy(X, cfg, **kwargs):
        seen.append(kwargs["backend"])
        return real(X, cfg, **kwargs)

    monkeypatch.setattr(cli, "outer_approximation", spy)
    assert run(fit_args(synth_dir, tmp_path / "nocap")) == 0
    assert run(fit_args(synth_dir, tmp_path / "cap", **{"--oa-node-cap": 7})) == 0
    assert seen[0].node_cap == NODE_CAP
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
    assert summary["schema"] == "sparse-aa-v3"
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


@pytest.mark.parametrize("init", ["mip", "zero"])
def test_fit_lambda_zero_is_rejected_before_any_solve(
    synth_dir, tmp_path, capsys, monkeypatch, init
):
    import sparse_aa.cli as cli

    def fail(*args, **kwargs):
        raise AssertionError("outer_approximation ran on an invalid lambda")

    monkeypatch.setattr(cli, "outer_approximation", fail)
    out = tmp_path / "o"
    assert run(fit_args(synth_dir, out, **{"--lambda": "0", "--init": init})) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and "lambda" in lines[0]
    assert not out.exists()


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
