"""Mixed-singularity residuals and the shell search certifying that family
members have no mixed singular point away from the origin.

A point is mixed singular iff conj(d_z f) = lambda * d_zbar f for some
unimodular lambda; the residual below is the distance to that condition,
minimized over lambda in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import PolynomialArrays, rescaled, value_and_gradient_batch
from .errors import InputError, NumericalError
from .families import DeformationFamily
from .numerics import complexify, rng_streams, row_dot, row_norm

FD_STEP = 1e-6
MAX_ITER = 120
# candidate points per kernel call that the line and pattern searches aim at
BATCH_POINTS = 1024
# halvings in the line search's first block, where two-point first steps mostly land
FIRST_BLOCK = 2


@dataclass(frozen=True)
class ShellSearchReport:
    t_grid: tuple[float, ...]
    radius: float
    restarts: int
    threshold: float
    min_residual_found: float
    argmin_point: tuple[complex, ...]
    argmin_t: float
    argmin_restart: int
    iterations: int
    converged: bool
    certified: bool  # min_residual_found > threshold
    note: str = "numerical evidence, not proof"


def _residual_terms(re: np.ndarray, im: np.ndarray) -> tuple:
    """(uu + vv - 2 |<u, v>| floored at zero, uu, p, q) from the kernel's
    partial planes (2 x n x ...), where p + i q = sum_j d_z f * d_zbar f;
    sums run in a fixed order (see core).  An overflowed residual (inf - inf)
    stays NaN: it must not read as a singular point."""
    uu = vv = p = q = 0.0
    for j in range(re.shape[1]):
        ar, ai, br, bi = re[0, j], im[0, j], re[1, j], im[1, j]
        uu = uu + (ar * ar + ai * ai)
        vv = vv + (br * br + bi * bi)
        p = p + (ar * br - ai * bi)
        q = q + (ar * bi + ai * br)
    # scaled modulus: p * p would underflow where |<u, v>| itself does not
    big = np.maximum(np.abs(p), np.abs(q))
    ratio = np.minimum(np.abs(p), np.abs(q)) / np.where(big > 0, big, 1.0)
    return np.maximum(uu + vv - 2.0 * big * np.sqrt(1.0 + ratio * ratio), 0.0), uu, p, q


def shell_residual_sq(arrays: PolynomialArrays, x: np.ndarray) -> np.ndarray:
    """Squared residual uu + vv - 2 |<u, v>| (floored at zero) at a
    K x ... x 2n array of real points (x_1, y_1, ..., x_n, y_n), where the
    points x[k] belong to polynomial k of `arrays`."""
    z = np.ascontiguousarray(x, dtype=float).view(complex)
    return _residual_terms(*value_and_gradient_batch(arrays, z, value=False)[1:])[0]


def _project_tangent(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    xhat = x / row_norm(x)[..., None]
    return g - row_dot(g, xhat)[..., None] * xhat


def _first_steps(
    s: np.ndarray, y: np.ndarray, gn: np.ndarray, last: np.ndarray, cap: float
) -> np.ndarray:
    """Per-row first trial lengths of the line search: the two-point
    (Barzilai-Borwein) length (s.s / s.y) |g| for the last move s and change y
    of the projected gradient where s.y > 0 and the length is finite, else
    twice the last accepted length; never above cap."""
    sy = row_dot(s, y)
    bb = row_dot(s, s) / np.where(sy > 0, sy, np.nan) * gn
    return np.minimum(np.where((bb > 0) & (bb < np.inf), bb, 2.0 * last), cap)


def _line_search(
    arrays: PolynomialArrays,
    x: np.ndarray,
    f: np.ndarray,
    live: np.ndarray,
    g: np.ndarray,
    gn: np.ndarray,
    length: np.ndarray,
) -> np.ndarray:
    """Backtracking along -g, 30 halvings of the first lengths, for the rows
    `live` of x.  Each kernel call tests a block of consecutive halvings (at
    most FIRST_BLOCK in the first) for every row still searching; a row takes
    the first step it accepts, as with one halving per call.  Updates x, f
    and the lengths of the rows that improved; returns which rows improved."""
    alpha = length / np.maximum(gn, 1e-12)
    improved = np.zeros(live.size, dtype=bool)
    todo = np.arange(live.size)
    h = 0
    while todo.size and h < 30:
        block = max(1, min(FIRST_BLOCK if h == 0 else 30 - h, BATCH_POINTS // todo.size))
        rows = live[todo]
        # alpha * 2**-h equals h repeated halvings
        step = np.ldexp(alpha[todo, None], -np.arange(h, h + block))
        cand = x[rows, None] - step[..., None] * g[todo, None]
        cand *= (1.0 / row_norm(cand))[..., None]
        fc = shell_residual_sq(arrays.rows(rows), cand)
        ok = fc < (f[rows] - 1e-12 * np.abs(f[rows]))[:, None]
        hit = ok.any(axis=1)
        first = ok.argmax(axis=1)[hit]
        x[rows[hit]] = cand[hit, first]
        f[rows[hit]] = fc[hit, first]
        length[todo[hit]] = np.ldexp(length[todo[hit]], -(h + first))
        improved[todo[hit]] = True
        todo = todo[~hit]
        h += block
    return improved


def _pattern_search(
    arrays: PolynomialArrays,
    x: np.ndarray,
    f: np.ndarray,
    live: np.ndarray,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """Random tangent probes (+d, then -d) at 10 halving scales for the rows
    `live` of x, each drawn from its row's own stream.  Each kernel call
    tests a block of consecutive probes for every row still searching; a row
    that takes an early probe of its block rewinds its stream and redraws
    only the probes it used, so its stream ends where one probe per call
    leaves it.  Updates x, f; returns which rows improved."""
    improved = np.zeros(live.size, dtype=bool)
    todo = np.arange(live.size)
    p = 0
    while todo.size and p < 10:
        block = max(1, min(10 - p, BATCH_POINTS // (2 * todo.size)))
        rows = live[todo]
        xr = x[rows, None]
        states = [rngs[k].bit_generator.state for k in rows]
        d = np.stack([rngs[k].standard_normal((block, x.shape[1])) for k in rows])
        d = _project_tangent(d, xr)
        d /= np.maximum(row_norm(d), 1e-300)[..., None]
        step = np.ldexp(1e-3, -np.arange(p, p + block))[:, None] * d
        cand = np.stack([xr + step, xr - step], axis=2)
        cand *= (1.0 / row_norm(cand))[..., None]
        fc = shell_residual_sq(arrays.rows(rows), cand)
        plus = fc[..., 0] < f[rows, None]
        ok = plus | (fc[..., 1] < f[rows, None])
        hit, first = ok.any(axis=1), ok.argmax(axis=1)
        for i in np.flatnonzero(hit & (first < block - 1)):
            rngs[rows[i]].bit_generator.state = states[i]
            rngs[rows[i]].standard_normal((first[i] + 1, x.shape[1]))
        first = first[hit]
        side = np.where(plus[hit, first], 0, 1)
        x[rows[hit]] = cand[hit, first, side]
        f[rows[hit]] = fc[hit, first, side]
        improved[todo[hit]] = True
        todo = todo[~hit]
        p += block
    return improved


def _minimize_shell(
    arrays: PolynomialArrays,
    x0: np.ndarray,
    rngs: Sequence[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimize the squared residual on the unit sphere from every row of x0
    (row k under row k of a unit-scale form, pattern probes from rngs[k]).

    Projected gradient descent with a central-difference gradient and
    backtracking from a per-row first step (`_first_steps`: 0.1 in the
    first round, then the two-point length); pattern-search fallback when the
    line search stalls (the objective is only piecewise smooth).  All rows
    advance in lockstep, one iteration per round, and leave when they stop;
    each row follows the path it would follow alone.  Returns the final
    points, values and iteration counts.
    """
    x = x0 * (1.0 / row_norm(x0))[:, None]
    f = shell_residual_sq(arrays, x)
    iters = np.zeros(len(x), dtype=int)
    dim = x.shape[1]
    stencil = np.concatenate([np.eye(dim), -np.eye(dim)]) * FD_STEP
    cap = 0.1
    # per row: last point and gradient (s = 0 in round 1), last accepted length
    x_prev, g_prev, last = x.copy(), np.zeros_like(x), np.full(len(x), cap)
    live = np.arange(len(x))
    for _ in range(MAX_ITER):
        if not live.size:
            break
        iters[live] += 1
        xl = x[live]
        vals = shell_residual_sq(arrays.rows(live), xl[:, None, :] + stencil)
        g = _project_tangent((vals[:, :dim] - vals[:, dim:]) / (2 * FD_STEP), xl)
        gn = row_norm(g)
        moving = ~(gn < 1e-12)
        live, xl, g, gn = live[moving], xl[moving], g[moving], gn[moving]
        length = _first_steps(xl - x_prev[live], g - g_prev[live], gn, last[live], cap)
        x_prev[live], g_prev[live] = xl, g
        improved = _line_search(arrays, x, f, live, g, gn, length)
        last[live[improved]] = length[improved]
        stalled = live[~improved]
        improved[~improved] = _pattern_search(arrays, x, f, stalled, rngs)
        live = live[improved]
    return x, f, iters


def certify_smooth_shell(
    fam: DeformationFamily,
    t_grid: Sequence[float],
    radius: float,
    restarts: int = 32,
    seed: int = 0,
    threshold: float = 1e-3,
) -> ShellSearchReport:
    """Global-ish minimum of the singularity residual over the shell ||z|| = radius.

    Runs `restarts` seeded searches at every t of the grid, all len(t_grid) x
    restarts of them as one lockstep batch.  Restart k at grid index ti, row
    ti * restarts + k, draws its start point and pattern-search probes from
    the stream "shell:t={ti}:restart:{k}"; `argmin_restart` is the k of the
    minimum.  `converged` means that every t has at least one restart that
    stopped before the iteration cap.  The search runs on the unit sphere; the
    minimum, in units of f's partials, and its point map back by r^(e-1) and r.
    A restart that ends on a residual that is not finite raises NumericalError.

    Numerical evidence only, never a proof: a minimum over all seeded restarts
    above `threshold` (`certified`) echoes the no-singularity lemma.
    """
    if restarts < 1:
        raise InputError(f"restarts must be at least 1, got {restarts!r}")
    if not threshold > 0:  # a residual of 0 must never certify
        raise InputError(f"threshold must be positive, got {threshold!r}")
    grid = tuple(float(t) for t in t_grid)
    if not grid:
        raise InputError("t_grid is empty")
    arrays, e = fam.members(np.repeat(grid, restarts)).on_sphere(radius)
    rngs = rng_streams(
        seed, [f"shell:t={ti}:restart:{k}" for ti in range(len(grid)) for k in range(restarts)]
    )
    x0 = np.stack([rng.standard_normal(2 * fam.n) for rng in rngs])
    x, f, iters = _minimize_shell(arrays, x0, rngs)
    bad = np.flatnonzero(~np.isfinite(f))
    if bad.size:
        i = int(bad[0])
        raise NumericalError(
            f"shell residual is not finite at t={grid[i // restarts]!r},"
            f" restart {i % restarts} (radius {radius!r})"
        )
    least = rescaled(np.sqrt(np.maximum(f, 0.0)), radius, e - 1)
    best = int(np.lexsort((f, least))[0])  # f breaks ties: the order of f at radius 1
    return ShellSearchReport(
        t_grid=grid,
        radius=float(radius),
        restarts=restarts,
        threshold=threshold,
        min_residual_found=float(least[best]),
        argmin_point=complexify(x[best] * radius),
        argmin_t=grid[best // restarts],
        argmin_restart=best % restarts,
        iterations=int(iters.sum()),
        converged=bool(np.all(np.any(iters.reshape(len(grid), restarts) < MAX_ITER, axis=1))),
        certified=bool(least[best] > threshold),
    )
