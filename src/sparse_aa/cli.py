"""Command-line driver: dataset generation, pipeline fits, and evaluation.

Every command is a deterministic function of its inputs and flags
(``synth`` draws its instance from ``--seed``); matrices travel as
headerless CSV and metadata as JSON with an explicit schema tag.  Exit
codes: 0 success, 2 invalid input, 3 I/O failure, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from .core import (
    InvalidInputError,
    SaaConfig,
    _loadtxt,
    nnz,
    read_json,
    read_matrix_csv,
    write_json,
    write_matrix_csv,
)
from .evaluation import cluster_metrics, robustness_report, synth_instance
from .geometry import nearest_row_assignment
from .local_search import local_search
from .mip_init import NODE_CAP, BranchAndBound, continuation, outer_approximation
from .solver import objective, solve, stationarity_residual, zero_init

SCHEMA = "sparse-aa-v3"


def parse_lambda(text: str) -> float | tuple[float, ...]:
    """Either a single finite value or ``log:hi:lo:n`` for a log-spaced
    schedule."""
    if not text.startswith("log:"):
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise InvalidInputError(f"bad lambda {text!r}: expected a finite number")
        return value
    try:
        _, hi_text, lo_text, count_text = text.split(":")
        hi, lo, count = float(hi_text), float(lo_text), int(count_text)
    except ValueError:
        raise InvalidInputError(
            f"bad lambda schedule {text!r}: expected log:hi:lo:n"
        ) from None
    if count < 1 or not (math.isfinite(hi) and hi > lo > 0):
        raise InvalidInputError(
            f"bad lambda schedule {text!r}: need finite hi > lo > 0 and n >= 1"
        )
    if count == 1:
        return (lo,)
    return tuple(np.geomspace(hi, lo, count).tolist())


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write ``header``, then ``rows``, with every float as ``f"{v:.17g}"``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])


def cmd_synth(args: argparse.Namespace) -> int:
    X, X0, H0, W0, Z = synth_instance(
        args.m, args.n, args.k, args.sigma_z, args.zero_frac, args.seed
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, mat in [("X", X), ("X0", X0), ("H0", H0), ("W0", W0), ("Z", Z)]:
        write_matrix_csv(out / f"{name}.csv", mat)
    manifest = {
        "schema": SCHEMA,
        "m": args.m,
        "n": args.n,
        "k": args.k,
        "sigma_z": args.sigma_z,
        "zero_frac": args.zero_frac,
        "seed": args.seed,
        "nnz_H0": nnz(H0),
        "files": ["X.csv", "X0.csv", "H0.csv", "W0.csv", "Z.csv"],
    }
    write_json(out / "manifest.json", manifest)
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    X = read_matrix_csv(args.data)
    # a config warning (ell < k) prints as one warning line, like the others
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cfg = SaaConfig(
            k=args.k,
            ell=args.ell,
            lam=parse_lambda(args.lam),
            tol_objective=args.tol_objective,
            tol_stationary=args.tol_stationary,
            max_iter=args.max_iter,
        )
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    timings: dict[str, float] = {}
    if args.init == "mip":
        t0 = time.monotonic()
        oa = outer_approximation(
            X,
            cfg,
            max_rounds=args.oa_rounds,
            backend=BranchAndBound(node_cap=args.oa_node_cap),
        )
        timings["mip_init"] = time.monotonic() - t0
        t0 = time.monotonic()
        fac, traces = continuation(X, cfg, oa=oa)
        timings["continuation"] = time.monotonic() - t0
        lams = cfg.lambda_schedule
        oa_info = {
            "rounds": oa.rounds,
            "converged": oa.converged,
            "best_upper": oa.cutset.best_upper,
            "best_lower": oa.cutset.best_lower,
            "gap": oa.cutset.gap,
        }
    else:  # "zero"
        t0 = time.monotonic()
        fac, trace = solve(X, zero_init(X, cfg), cfg)
        timings["solve"] = time.monotonic() - t0
        lams, traces = (cfg.final_lambda,), [trace]
        oa_info = None
    trace = traces[-1]
    capped = [lam for lam, tr in zip(lams, traces) if not tr.converged]
    if capped:
        print(
            f"warning: continuation stopped at max_iter={cfg.max_iter} without "
            f"converging for lambda = {', '.join(f'{lam:.6g}' for lam in capped)}",
            file=sys.stderr,
        )

    swaps = []
    n_swaps = 0
    if args.local_search == "on":
        t0 = time.monotonic()
        fac, n_swaps, swaps = local_search(X, fac, cfg, max_swaps=args.max_swaps)
        timings["local_search"] = time.monotonic() - t0

    final = objective(X, fac, cfg.final_lambda)
    report = stationarity_residual(X, fac, cfg)  # of the written factorization
    # timings ride along separately: the summary itself is a deterministic
    # function of the input matrix and the flags, and reruns must be
    # byte-identical
    summary = {
        "schema": SCHEMA,
        "config": cfg.to_json(),
        "init": args.init,
        "local_search": args.local_search == "on",
        "objective": {"fit": final.fit, "reg": final.reg, "total": final.total},
        "nnz_H": nnz(fac.H),
        "iterations": trace.iterations,
        "converged": trace.converged,
        "stationarity_residual": report.residual,
        "boundary_tie": report.boundary_tie,
        "swaps_accepted": n_swaps,
        "mip": oa_info,
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_matrix_csv(out / "H.csv", fac.H)
    write_matrix_csv(out / "W.csv", fac.W)
    write_matrix_csv(out / "Wt.csv", fac.Wt)
    _write_csv(
        out / "trace.csv",
        ["schema", "iteration", "fit", "reg", "total"],
        [(SCHEMA, *row) for row in trace.rows()],
    )
    _write_csv(
        out / "swaps.csv",
        ["schema", "leaving_i", "leaving_j", "entering_i", "entering_j", "t", "objective"],
        [
            (SCHEMA, *(s.leaving or ("", "")), *s.entering, s.t_star, s.new_objective)
            for s in swaps
        ],
    )
    write_json(out / "summary.json", summary)
    write_json(out / "timings.json", {"schema": SCHEMA, "seconds": timings})
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    truth = Path(args.truth)
    manifest = read_json(truth / "manifest.json")
    H0 = read_matrix_csv(truth / "H0.csv")
    X0 = read_matrix_csv(truth / "X0.csv")
    Z = read_matrix_csv(truth / "Z.csv")
    labels = None
    if args.labels:
        X = read_matrix_csv(truth / "X.csv")
        labels = _loadtxt(args.labels, dtype=np.int64, ndmin=1)
        if labels.shape[0] != X.shape[0]:
            raise InvalidInputError(
                f"{args.labels}: {labels.shape[0]} labels for the "
                f"{X.shape[0]} rows of {truth / 'X.csv'}"
            )

    rows = []
    for fit_dir in args.fit:
        fit = Path(fit_dir)
        summary = read_json(fit / "summary.json")
        H_hat = read_matrix_csv(fit / "H.csv")
        if H_hat.shape[1] != H0.shape[1]:
            raise InvalidInputError(
                f"fitted H in {fit_dir} has {H_hat.shape[1]} columns, "
                f"ground truth has {H0.shape[1]}"
            )
        ell = summary["config"]["ell"]
        rep = robustness_report(H0, H_hat, X0, Z, ell)
        row = {
            "schema": SCHEMA,
            "fit": str(fit_dir),
            "sigma_z": manifest["sigma_z"],
            "ell": ell,
            "weak": rep.weak,
            "strong": rep.strong,
            "delta": rep.delta,
            "beta": rep.beta,
            "sep": rep.sep,
            "psi": summary["objective"]["total"],
        }
        if labels is not None:
            est = nearest_row_assignment(X, H_hat)
            cm = cluster_metrics(labels, est, H0.shape[0])
            row["purity"] = cm.purity
            row["entropy"] = cm.entropy
        rows.append(row)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fields = list(rows[0].keys()) if rows else ["schema"]
    _write_csv(out / "reports.csv", fields, [row.values() for row in rows])
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault((row["sigma_z"], row["ell"]), []).append(row)
    aggregate = {
        "schema": SCHEMA,
        "groups": [
            {
                "sigma_z": key[0],
                "ell": key[1],
                "count": len(grp),
                "mean_weak": float(np.mean([r["weak"] for r in grp])),
                "mean_strong": float(np.mean([r["strong"] for r in grp])),
                "mean_psi": float(np.mean([r["psi"] for r in grp])),
            }
            for key, grp in sorted(groups.items())
        ],
    }
    write_json(out / "aggregate.json", aggregate)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sparse-aa",
        description="Sparse archetypal analysis: generate, fit, evaluate.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("synth", help="generate a synthetic instance")
    ps.add_argument("--m", type=int, required=True)
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--k", type=int, required=True)
    ps.add_argument("--sigma-z", dest="sigma_z", type=float, default=0.1)
    ps.add_argument("--zero-frac", dest="zero_frac", type=float, default=0.2)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--out", required=True)
    ps.set_defaults(func=cmd_synth)

    pf = sub.add_parser("fit", help="run the fitting pipeline on a CSV matrix")
    pf.add_argument("--data", required=True, help="input X as headerless CSV")
    pf.add_argument("--k", type=int, required=True)
    pf.add_argument("--ell", type=int, required=True)
    pf.add_argument(
        "--lambda",
        dest="lam",
        default="log:30:1:8",
        help="penalty value or log:hi:lo:n schedule (default log:30:1:8)",
    )
    pf.add_argument("--tol-objective", dest="tol_objective", type=float, default=1e-8)
    pf.add_argument("--tol-stationary", dest="tol_stationary", type=float, default=1e-7)
    pf.add_argument("--max-iter", dest="max_iter", type=int, default=10_000)
    pf.add_argument("--init", choices=["zero", "mip"], default="mip")
    pf.add_argument("--local-search", dest="local_search", choices=["on", "off"], default="off")
    pf.add_argument("--max-swaps", dest="max_swaps", type=int, default=100)
    pf.add_argument("--oa-rounds", dest="oa_rounds", type=int, default=50)
    pf.add_argument("--oa-node-cap", dest="oa_node_cap", type=int, default=NODE_CAP)
    pf.add_argument("--out", required=True)
    pf.set_defaults(func=cmd_fit)

    pe = sub.add_parser("eval", help="evaluate fits against ground truth")
    pe.add_argument("--truth", required=True, help="directory from `synth`")
    pe.add_argument("--fit", action="append", required=True, help="directory from `fit`")
    pe.add_argument("--labels", default=None, help="optional true labels, one per line")
    pe.add_argument("--out", required=True)
    pe.set_defaults(func=cmd_eval)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # overflow, invalid values and division by zero raise, so they print
        # one numerical-failure line, not numpy warnings; underflow is silent
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
