"""Benchmark of the sparse-aa pipeline on three workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload wide --seed 1 --seconds 60 --trace 0

The package is imported from ``src/`` of the checkout; nothing needs to be
installed.  Each run sets up its inputs, repeats the workload's timed
operations while another round fits in ``--seconds`` (at least once),
checks every output against computations made apart from the package, and
prints one JSON object as its last line of standard output.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` wraps the package's public
functions and reports per-layer metrics instead.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 7
LAMBDA_FINAL = 1.0  # last value of the log:30:1:8 schedule every fit uses


def cap_blas_threads() -> tuple[int, str]:
    """Cap BLAS threads at the number of usable cores; call before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            n = min(int(os.environ[var]), nproc)
        except (KeyError, ValueError):
            n = nproc
        os.environ[var] = str(max(n, 1))
    return nproc, os.environ["OPENBLAS_NUM_THREADS"]


class FitWorkload:
    """``synth`` once, then ``fit`` and ``eval`` through ``sparse_aa.cli.main``.

    The instance is fixed by its synth seed; the run seed permutes its
    rows.  The problem is the same for every seed while the input bytes and
    floating-point summation order differ.
    """

    def __init__(self, m, n, k, ell, synth_seed, fit_flags):
        self.m, self.n, self.k, self.ell = m, n, k, ell
        self.synth_seed = synth_seed
        self.fit_flags = fit_flags

    def setup(self, work: Path, seed: int) -> None:
        import numpy as np
        import sparse_aa.cli as cli

        raw, data = work / "raw", work / "data"
        rc = cli.main(
            ["synth", "--m", str(self.m), "--n", str(self.n), "--k", str(self.k),
             "--sigma-z", "0.1", "--seed", str(self.synth_seed), "--out", str(raw)]
        )
        if rc != 0:
            raise SystemExit(f"synth exited with {rc}")
        data.mkdir(parents=True, exist_ok=True)
        perm = np.random.default_rng(seed).permutation(self.m)
        for name in ("X", "X0", "W0", "Z"):
            rows = np.loadtxt(raw / f"{name}.csv", delimiter=",", ndmin=2)
            cli.write_matrix_csv(data / f"{name}.csv", rows[perm])
        for name in ("H0.csv", "manifest.json"):
            shutil.copyfile(raw / name, data / name)

    def prepare(self, work: Path) -> None:
        self.data, self.fit, self.rep = work / "data", work / "fit", work / "report"
        self.first_summary = None

    def round(self, clock):
        import sparse_aa.cli as cli

        fit_argv = ["fit", "--data", str(self.data / "X.csv"), "--k", str(self.k),
                    "--ell", str(self.ell), *self.fit_flags, "--out", str(self.fit)]
        eval_argv = ["eval", "--truth", str(self.data), "--fit", str(self.fit),
                     "--out", str(self.rep)]
        t0 = clock()
        codes = [cli.main(fit_argv)]
        codes.append(cli.main(eval_argv))
        return clock() - t0, codes

    def check(self, ctx) -> list[str]:
        from checks import check_fit

        bad = check_fit(self.data, self.fit, self.rep, self.ell, LAMBDA_FINAL)
        summary = (self.fit / "summary.json").read_text()
        if self.first_summary is None:
            self.first_summary = summary
        elif summary != self.first_summary:
            bad.append("summary.json differs between repetitions of the same fit")
        return bad

    def quality(self) -> dict[str, float]:
        import csv

        summary = json.loads((self.fit / "summary.json").read_text())
        with open(self.rep / "reports.csv", newline="", encoding="utf-8") as fh:
            row = next(csv.DictReader(fh))
        return {
            "psi": summary["objective"]["total"],
            "weak_dist": float(row["weak"]),
            "strong_dist": float(row["strong"]),
        }


class TallEvalWorkload:
    """``robustness_report`` on candidates derived from a 1000x50, k=8 truth.

    The truth is fixed (synth seed 0); the run seed draws the perturbation
    signs of the derived candidates and the rows sampled by the checks.
    """

    m, n, k = 1000, 50, 8
    synth_seed = 0
    # perturbation sizes of the derived candidates; the entries move by
    # exactly this much with random signs, so their distances to H0 barely
    # depend on the seed
    noise = (0.05, 0.1)
    sample_rows = 8

    def setup(self, work: Path, seed: int) -> None:
        import numpy as np
        import sparse_aa.cli as cli

        truth = work / "truth"
        rc = cli.main(
            ["synth", "--m", str(self.m), "--n", str(self.n), "--k", str(self.k),
             "--sigma-z", "0.1", "--seed", str(self.synth_seed), "--out", str(truth)]
        )
        if rc != 0:
            raise SystemExit(f"synth exited with {rc}")
        H0 = np.loadtxt(truth / "H0.csv", delimiter=",", ndmin=2)
        ell = int(np.count_nonzero(H0))
        rng = np.random.default_rng([seed, 1])
        for c, scale in enumerate((0.0, *self.noise)):
            H = np.maximum(H0 + scale * rng.choice([-1.0, 1.0], size=H0.shape), 0.0)
            flat = H.ravel()
            flat[np.argsort(-flat, kind="stable")[ell:]] = 0.0
            cli.write_matrix_csv(work / f"cand{c}.csv", H)

    def prepare(self, work: Path) -> None:
        import numpy as np

        def load(path):
            return np.loadtxt(path, delimiter=",", ndmin=2)

        truth = work / "truth"
        self.H0, self.X0 = load(truth / "H0.csv"), load(truth / "X0.csv")
        self.X, self.W0, self.Z = load(truth / "X.csv"), load(truth / "W0.csv"), load(truth / "Z.csv")
        self.ell = int(np.count_nonzero(self.H0))
        self.cands = [load(work / f"cand{c}.csv") for c in range(1 + len(self.noise))]
        self.reports = []
        self.exact = None

    def round(self, clock):
        import sparse_aa.cli as cli

        reports = []
        t0 = clock()
        for H in self.cands:
            reports.append(cli.robustness_report(self.H0, H, self.X0, self.Z, self.ell))
        wall = clock() - t0
        self.reports = reports
        return wall, [0] * len(reports)

    def check(self, ctx) -> list[str]:
        import numpy as np
        from checks import check_hull_rows, check_report, hull_sq_distances

        if self.exact is None:
            # hull distances by support enumeration, shared by every round
            d = ((self.H0[:, None, :] - self.X0[None, :, :]) ** 2).sum(axis=2)
            x0_tilde = self.X0[np.argmin(d, axis=1)]
            self.exact = [
                (hull_sq_distances(self.X0, H).sum(), hull_sq_distances(self.H0, x0_tilde).sum())
                for H in self.cands
            ]
            rng = np.random.default_rng(ctx["seed"])
            rows = self.X0[rng.choice(self.m, size=self.sample_rows, replace=False)]
            bad = []
            for H in self.cands:
                bad += check_hull_rows(ctx["hull_distance"], rows, H)
        else:
            bad = []
        for c, (rep, H, (x0_fit_sq, sep_sq)) in enumerate(
            zip(self.reports, self.cands, self.exact)
        ):
            bad += [
                f"candidate {c}: {msg}"
                for msg in check_report(rep, self.H0, H, self.X0, x0_fit_sq, sep_sq, c == 0)
            ]
        return bad

    def quality(self) -> dict[str, float]:
        import numpy as np

        # the candidates are not fits: their objective is that of the
        # feasible factorization (H_c, W0, Wt_c), Wt_c picking the data row
        # nearest to each archetype; it is fixed by the inputs
        psi = 0.0
        for H in self.cands:
            d = ((H[:, None, :] - self.X[None, :, :]) ** 2).sum(axis=2)
            Wt = np.zeros((self.k, self.m))
            Wt[np.arange(self.k), np.argmin(d, axis=1)] = 1.0
            psi += float(np.sum((self.X - self.W0 @ H) ** 2))
            psi += LAMBDA_FINAL * float(np.sum((H - Wt @ self.X) ** 2))
        return {
            "psi": psi,
            "weak_dist": sum(r.weak for r in self.reports),
            "strong_dist": sum(r.strong for r in self.reports),
        }


WORKLOADS = {
    # the README pipeline: synth seed 7 and the documented fit flags
    "readme": lambda: FitWorkload(
        20, 10, 3, 15, 7,
        ["--lambda", "log:30:1:8", "--init", "mip", "--local-search", "on"],
    ),
    # criterion-10 shape (first seed of that criterion), explicit OA caps
    "wide": lambda: FitWorkload(
        40, 300, 5, 750, 0,
        ["--lambda", "log:30:1:8", "--init", "mip", "--oa-rounds", "3",
         "--oa-node-cap", "4000", "--local-search", "on"],
    ),
    "tall-eval": TallEvalWorkload,
}


def median_setup_seconds(args, work: Path) -> float:
    """Median wall time of fresh processes that import the package and
    write the workload's inputs: process start until the inputs are ready."""
    times = []
    for i in range(SETUP_PROBES):
        target = work / f"setup{i}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only", str(target)]
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=ROOT, timeout=120)
        times.append(time.perf_counter() - t0)
        shutil.rmtree(target)
    return statistics.median(times)


def run_record(args, nproc: int, blas_threads: str) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "sparse_aa" / "__init__.py").is_file():
        print("error: run from the root of a sparse-aa checkout (src/sparse_aa missing)",
              file=sys.stderr)
        return 2
    nproc, blas_threads = cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    workload = WORKLOADS[args.workload]()

    if args.setup_only is not None:
        import sparse_aa.cli  # noqa: F401  (import is part of set-up)

        workload.setup(Path(args.setup_only), args.seed)
        return 0

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup_s = None if args.trace else median_setup_seconds(args, work)

    import sparse_aa.cli  # noqa: F401
    import sparse_aa.geometry

    ctx = {"seed": args.seed, "hull_distance": sparse_aa.geometry.hull_distance}
    tracer = None
    if args.trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    workload.setup(work, args.seed)
    workload.prepare(work)

    clock = time.perf_counter
    walls, problems, failures = [], [], []
    attempted = failed = 0
    started = clock()
    while True:
        wall, codes = workload.round(clock)
        walls.append(wall)
        nonzero = sum(rc != 0 for rc in codes)
        attempted += len(codes)
        failed += nonzero
        if nonzero:
            failures.append(f"round {len(walls)}: exit codes {codes}")
        else:
            problems += workload.check(ctx)
        # no round that would end past --seconds, so a run lasts at most
        # max(--seconds, one round)
        if clock() - started + wall > args.seconds:
            break

    record = run_record(args, nproc, blas_threads)
    record.update(rounds=len(walls), attempted=attempted, failed=failed,
                  walls_s=walls, failures=failures, problems=problems)
    if tracer is not None:
        from tracer import layer_metrics

        tracer.uninstall()
        tracer.dump(work / "spans.json")
        values = layer_metrics(tracer, len(walls), started)
        values["trace.wall_s"] = statistics.median(walls)
        values["trace.overhead_s"] = tracer.overhead_s / len(walls)
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **(workload.quality() if failed < attempted else {}),
        }
    record["metrics"] = values
    (work / "record.json").write_text(json.dumps(record, indent=2) + "\n")
    for msg in failures:
        print(f"operation failed: {msg}", file=sys.stderr)
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    print("record: " + json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items() if name in values
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
