"""Shared accelerated projected-gradient driver.

Nesterov momentum with two safeguards: a function restart when the
momentum overshoots, and a plain-step verification before stopping.  The
relative-decrease test alone can fire on a momentum plateau; a proximal
step from the candidate either confirms near-stationarity (a fixed point
of the plain step is optimal for a convex objective) or supplies the
strict descent the plateau was hiding.
"""

from __future__ import annotations

import math

import numpy as np

_FLOOR = 1e-30


def minimize(f, grad, project, x0, step, tol, max_iter, abs_stop=None):
    """Minimize a smooth convex ``f`` over the set encoded by ``project``.

    ``step`` must be a valid ``1/L`` step for the gradient.  Returns
    ``(x, f(x), iterations)``.
    """
    x = project(x0)
    y = x
    t = 1.0
    f_cur = f(x)
    it = 0
    if step <= 0.0:
        return x, f_cur, it
    while it < max_iter:
        it += 1
        x_new = project(y - step * grad(y))
        f_new = f(x_new)
        if f_new > f_cur:
            # momentum overshoot: plain step from the last monotone point
            y, t = x, 1.0
            x_new = project(y - step * grad(y))
            f_new = f(x_new)
        if f_cur - f_new <= tol * max(f_cur, _FLOOR):
            probe = project(x_new - step * grad(x_new))
            f_probe = f(probe)
            if f_new - f_probe <= tol * max(f_new, _FLOOR):
                x, f_cur = x_new, f_new
                break
            # the plateau was a momentum artifact; adopt the plain step
            x, y, t, f_cur = probe, probe, 1.0, f_probe
        else:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            y = x_new + ((t - 1.0) / t_next) * (x_new - x)
            x, t, f_cur = x_new, t_next, f_new
        if abs_stop is not None and f_cur <= abs_stop:
            break
    return x, f_cur, it


def minimize_rows(f, grad, project, x0, data, step, tol, max_iter):
    """Row-batched ``minimize``: row ``i`` of ``x0`` and of ``data`` pose
    problem ``i``.

    ``f(x, d)`` returns one value per row of ``x`` and ``grad(x, d)`` one
    gradient row per row, where row ``j`` of ``d`` is the data of the
    problem that row ``j`` of ``x`` belongs to; ``project`` acts row by row.
    Each row runs ``minimize``'s iteration on its own: its own momentum,
    restart, probe, relative ``tol`` test and ``max_iter`` cap.  A row that
    stops leaves the active set, and later iterations compute only on the
    rows still running.  Returns ``(x, f(x), iterations)`` with one entry
    per row.
    """
    x_out = project(x0)
    f_out = f(x_out, data)
    it_out = np.zeros(x_out.shape[0], dtype=np.int64)
    if step <= 0.0 or max_iter <= 0:
        return x_out, f_out, it_out
    rows = np.arange(x_out.shape[0])
    x, y, f_cur, t = x_out, x_out, f_out, np.ones(rows.size)
    it = 0
    while rows.size:
        it += 1
        x_new = project(y - step * grad(y, data))
        f_new = f(x_new, data)
        over = (f_new > f_cur).nonzero()[0]
        if over.size:
            # momentum overshoot: plain step from the last monotone point
            t[over] = 1.0
            x_new[over] = project(x[over] - step * grad(x[over], data[over]))
            f_new[over] = f(x_new[over], data[over])
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = x_new + ((t - 1.0) / t_next)[:, None] * (x_new - x)
        x, f_prev, f_cur, t = x_new, f_cur, f_new, t_next
        flat = (f_prev - f_cur <= tol * np.maximum(f_prev, _FLOOR)).nonzero()[0]
        done = flat
        if flat.size:
            probe = project(x[flat] - step * grad(x[flat], data[flat]))
            f_probe = f(probe, data[flat])
            stop = f_cur[flat] - f_probe <= tol * np.maximum(f_cur[flat], _FLOOR)
            done = flat[stop]
            # the plateau was a momentum artifact; adopt the plain step
            moved, probe, f_probe = flat[~stop], probe[~stop], f_probe[~stop]
            x[moved], y[moved], f_cur[moved], t[moved] = probe, probe, f_probe, 1.0
        if it >= max_iter:
            done = slice(None)
        finished = rows[done]
        if finished.size:
            x_out[finished], f_out[finished], it_out[finished] = x[done], f_cur[done], it
            keep = np.ones(rows.size, dtype=bool)
            keep[done] = False
            rows, data = rows[keep], data[keep]
            x, y, t, f_cur = x[keep], y[keep], t[keep], f_cur[keep]
    return x_out, f_out, it_out
