"""In-memory span tracer that wraps the package's public functions.

The wrappers replace module and class attributes of the installed
``sparse_aa`` package for the duration of a traced run and restore them
afterwards; the package's own source is not touched.  Every wrapped call
records a span ``(name, start, end, parent)`` with ``time.perf_counter``
stamps, and an optional hook reads counts from the call's result.  The
bookkeeping each wrapper adds around the wrapped call is timed as well, so
the run can report how much wall time tracing itself cost.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self.last: dict[str, float] = {}
        self.overhead_s = 0.0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, hook=None, inject=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``hook(result, args, kwargs)`` runs after the call to read counts;
        ``inject(kwargs)`` may add keyword arguments before it.
        """
        orig = getattr(owner, attr)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t_in = clock()
            if inject is not None:
                inject(kwargs)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if hook is not None:
                hook(result, args, kwargs)
            self.overhead_s += (start - t_in) + (clock() - end)
            return result

        wrapper.__wrapped__ = orig
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # ---- span queries -------------------------------------------------

    def total(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def total_inside(self, name: str, ancestor: str) -> float:
        """Time in spans ``name`` that have a span ``ancestor`` above them."""
        out = 0.0
        for s in self.spans:
            if s[0] != name:
                continue
            p = s[3]
            while p >= 0 and self.spans[p][0] != ancestor:
                p = self.spans[p][3]
            if p >= 0:
                out += s[2] - s[1]
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                    "last": self.last,
                    "overhead_s": self.overhead_s,
                },
                fh,
            )


def distinct_rows(H) -> int:
    return len({row.tobytes() for row in H})


def install(tracer: Tracer) -> None:
    """Wrap every public entry point the per-layer metrics read."""
    import sparse_aa.cli as cli
    import sparse_aa.evaluation as evaluation
    import sparse_aa.geometry as geometry
    import sparse_aa.mip_init as mip_init

    # ``sparse_aa.local_search`` is the function re-exported by the
    # package; the submodule is only reachable through sys.modules
    ls_mod = sys.modules["sparse_aa.local_search"]
    c, last = tracer.counts, tracer.last

    def on_oa(res, args, kwargs):
        c["oa_rounds"] += res.rounds
        last["oa_best_lower"] = res.cutset.best_lower
        last["oa_best_upper"] = res.cutset.best_upper
        last["incumbent_distinct_rows"] = distinct_rows(res.H)

    def on_continuation(res, args, kwargs):
        fac, traces = res
        c["sweeps_first_lambda"] += traces[0].iterations
        last["solver_distinct_rows"] = distinct_rows(fac.H)

    def on_solve(res, args, kwargs):
        _, trace = res
        c["sweeps"] += trace.iterations
        c["max_iter_stops"] += not trace.converged

    def on_local_search(res, args, kwargs):
        c["swaps_accepted"] += res[1]

    def inject_stats(kwargs):
        kwargs.setdefault("stats", {})

    def on_refit(res, args, kwargs):
        c["alternations"] += kwargs["stats"]["alternations"]
        c["inner_iterations"] += kwargs["stats"]["inner_iterations"]

    def on_bnb(res, args, kwargs):
        c["master_nodes"] += res.nodes
        c["master_capped"] += not res.optimal

    def on_hull(res, args, kwargs):
        max_iter = kwargs.get("max_iter", args[3] if len(args) > 3 else 5_000)
        c["hull_iterations"] += res.iterations
        c["hull_max_iter_stops"] += res.iterations >= max_iter

    w = tracer.wrap
    w(cli, "outer_approximation", "mip_init.oa", on_oa)
    w(cli, "continuation", "mip_init.continuation", on_continuation)
    w(cli, "local_search", "local_search", on_local_search)
    w(cli, "solve", "solver.solve", on_solve)
    w(cli, "robustness_report", "evaluation.report")
    for fn in ("read_matrix_csv", "read_json"):
        w(cli, fn, "cli.read")
    for fn in ("write_matrix_csv", "write_json"):
        w(cli, fn, "cli.write")
    w(mip_init, "eval_F", "mip_init.eval_F")
    w(mip_init, "milp_min_cuts", "mip_init.master")
    w(mip_init, "solve", "solver.solve", on_solve)
    w(mip_init.BranchAndBound, "minimize_cuts", "mip_init.bnb", on_bnb)
    w(ls_mod, "swap_refit", "local_search.refit", on_refit, inject_stats)
    w(geometry, "hull_distance", "geometry.hull", on_hull)
    w(evaluation, "set_hull_distance", "evaluation.set_hull")


def layer_metrics(tracer: Tracer, reps: int, rounds_start: float) -> dict[str, float]:
    """Per-layer figures for one repetition of the workload's operations.

    Totals are divided by ``reps``; the ``last`` values are per-fit
    quantities that every repetition reproduces exactly.  The CLI's I/O
    also runs during set-up, which happens once: its spans that ended
    before ``rounds_start`` count whole.
    """
    t, c, last = tracer, tracer.counts, tracer.last

    def per(x):
        return x / reps

    def setup_plus_per(name):
        setup = sum(s[2] - s[1] for s in t.spans if s[0] == name and s[2] <= rounds_start)
        return setup + per(t.total(name) - setup)

    solve_s, sweeps = t.total("solver.solve"), c["sweeps"]
    hull_s, hull_it = t.total("geometry.hull"), c["hull_iterations"]
    report_s = t.total("evaluation.report")
    return {
        "cli.read_s": setup_plus_per("cli.read"),
        "cli.write_s": setup_plus_per("cli.write"),
        "mip_init.oa_s": per(t.total("mip_init.oa")),
        "mip_init.oa_rounds": per(c["oa_rounds"]),
        "mip_init.master_s": per(t.total("mip_init.master")),
        "mip_init.master_calls": per(t.calls("mip_init.master")),
        "mip_init.master_nodes": per(c["master_nodes"]),
        "mip_init.master_capped": per(c["master_capped"]),
        "mip_init.eval_F_s": per(t.total("mip_init.eval_F")),
        "mip_init.eval_F_calls": per(t.calls("mip_init.eval_F")),
        "mip_init.oa_best_lower": last.get("oa_best_lower", 0.0),
        "mip_init.oa_best_upper": last.get("oa_best_upper", 0.0),
        "mip_init.incumbent_distinct_rows": last.get("incumbent_distinct_rows", 0),
        "mip_init.continuation_s": per(t.total("mip_init.continuation")),
        "solver.solve_s": per(solve_s),
        "solver.solve_calls": per(t.calls("solver.solve")),
        "solver.sweeps": per(sweeps),
        "solver.sweeps_first_lambda": per(c["sweeps_first_lambda"]),
        "solver.max_iter_stops": per(c["max_iter_stops"]),
        "solver.sweep_us": 1e6 * solve_s / sweeps if sweeps else 0.0,
        "solver.distinct_rows": last.get("solver_distinct_rows", 0),
        "local_search.s": per(t.total("local_search")),
        "local_search.refits": per(t.calls("local_search.refit")),
        "local_search.refit_s": per(t.total("local_search.refit")),
        "local_search.swaps_accepted": per(c["swaps_accepted"]),
        "local_search.alternations": per(c["alternations"]),
        "local_search.inner_iterations": per(c["inner_iterations"]),
        "geometry.hull_calls": per(t.calls("geometry.hull")),
        "geometry.hull_s": per(hull_s),
        "geometry.hull_iterations": per(hull_it),
        "geometry.hull_us_per_iter": 1e6 * hull_s / hull_it if hull_it else 0.0,
        "geometry.hull_max_iter_stops": per(c["hull_max_iter_stops"]),
        "evaluation.report_s": per(report_s),
        "evaluation.report_calls": per(t.calls("evaluation.report")),
        "evaluation.report_self_s": per(
            report_s - t.total_inside("evaluation.set_hull", "evaluation.report")
        ),
    }
