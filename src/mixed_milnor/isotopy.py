"""Numerical realization of the isotopy theorem: integrate a sphere-tangent,
value-preserving velocity field carrying points of the t = 0 member to any
t in [0, 1], with per-step projection back onto the sphere and a Newton
correction restoring the preserved f-value.

All points of one call move in lockstep.  f_t = (1-t) f + t g is linear in t,
so each RK4 stage is one pass of the batched polynomial kernel over two
coefficient rows on the endpoints' monomials (giving f_t, its gradient and
d f_t / dt = g - f at every point), then one batched SVD that serves both the
rank test and the minimum-norm solve.  Each point is computed on its own and
in a fixed order, so its trace is bit for bit the same whatever else shares
its batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import evaluate, sum_leading, value_and_gradient_batch
from .errors import InputError, NumericalError, PreconditionError
from .families import DeformationFamily, MilnorTubeSpec
from .numerics import (
    complexify,
    normal_coefficients,
    point_rows,
    random_sphere_point,
    real_jacobian,
    require_on_level,
    rng_for,
    row_norm,
)


# relative tolerance on the norm of a point given as lying on the sphere
SPHERE_TOL = 1e-6


@dataclass(frozen=True)
class IsotopyTrace:
    start: tuple[complex, ...]
    radius: float
    tube: MilnorTubeSpec
    samples: tuple[tuple[float, tuple[complex, ...]], ...]
    value_residual: float
    norm_residual: float
    failed: bool
    failure_step: Optional[int] = None

    @property
    def endpoint(self) -> tuple[complex, ...]:
        return self.samples[-1][1]

    @property
    def t_end(self) -> float:
        return self.samples[-1][0]


def _cutoff(level, eta0: float):
    """C^1 (quintic smoothstep) blend: 1 below eta0, 0 above 2*eta0."""
    u = np.minimum(np.maximum((level - eta0) / eta0, 0.0), 1.0)
    return 1.0 - u * u * u * (10.0 + u * (6.0 * u - 15.0))


def _modulus(w: np.ndarray) -> np.ndarray:
    return np.hypot(w.real, w.imag)


def _jet(fam: DeformationFamily, t: float, x: np.ndarray):
    """f_t, its real Jacobian rows (K x 2 x 2n: gradients of Re f_t and Im f_t)
    and d f_t / dt at the rows of x (K x 2n, C-contiguous)."""
    ends = fam.endpoint_arrays
    f, g = ends.C
    # f_t and d f_t / dt = g - f are fixed coefficient rows over f's and g's monomials
    arrays = ends.with_coefficients(np.array([(1.0 - t) * f + t * g, g - f]))
    z = x.view(complex)
    both = np.empty((2,) + z.shape, dtype=complex)
    both[...] = z
    value, d_z, d_zbar = value_and_gradient_batch(arrays, both)
    return value[0], real_jacobian(d_z[0], d_zbar[0]), value[1]


def connection_velocity(
    fam: DeformationFamily,
    t: float,
    points,
    tube: MilnorTubeSpec,
    norm_tol: float = SPHERE_TOL,
) -> np.ndarray:
    """Minimum-norm real velocity tangent to the sphere whose flow keeps
    f_t constant inside the Milnor tube (blended off smoothly outside).

    `points` is a K x n batch (the result is K x 2n) or a single point (the
    result is one 2n vector).  A point with a non-finite coordinate gets a NaN
    velocity; every other point must lie on the sphere.
    """
    z = np.asarray(points, dtype=complex)
    if z.ndim not in (1, 2) or z.shape[-1] != fam.n:
        raise InputError(f"points of shape {z.shape} do not fit {fam.n} variables")
    x = np.ascontiguousarray(z).view(float).reshape(-1, 2 * fam.n)
    r = row_norm(x)
    off = _off_sphere(r, tube.radius, norm_tol)
    if off.any():
        i = int(np.argmax(off))
        raise PreconditionError(
            f"point {i} at t={t!r} has norm {float(r[i])!r}, off the sphere of radius"
            f" {tube.radius!r}"
        )
    v = _velocity(fam, t, x, r, tube)
    return v[0] if z.ndim == 1 else v


def _off_sphere(norm: np.ndarray, radius: float, norm_tol: float) -> np.ndarray:
    """Which norms miss the radius by more than norm_tol (relative to a radius
    of at least 1); a NaN norm does not."""
    return np.abs(norm - radius) > norm_tol * max(1.0, radius)


def _velocity(
    fam: DeformationFamily, t: float, x: np.ndarray, r: np.ndarray, tube: MilnorTubeSpec, jet=None
) -> np.ndarray:
    """The connection velocity at the rows of x (K x 2n, C-contiguous) of
    norms r, tangent to the sphere through each row, whatever its radius.
    `jet` is _jet(fam, t, x) when the caller has it already."""
    value, J, dft = jet or _jet(fam, t, x)
    level = _modulus(value)
    inside = level <= tube.tube_level
    c = 1.0 if inside.all() else _cutoff(level, tube.tube_level)
    # constraint rows: the sphere normal, then grad Re f_t and grad Im f_t
    A = np.empty((len(x), 3, x.shape[1]))
    A[:, 0] = x / r[:, None]
    A[:, 1:] = J
    # a non-finite f_t or d f_t / dt still makes b, hence v, NaN
    ok = np.isfinite(A).all(axis=(1, 2))
    v = np.full_like(x, np.nan)
    U, S, Vt = np.linalg.svd(A[ok], full_matrices=False)
    low = inside[ok] & (S[:, -1] < 1e-10)
    if low.any():
        k = int(np.argmax(low))
        i = int(np.nonzero(ok)[0][k])
        raise NumericalError(
            f"constraint matrix rank-deficient inside the tube at t={t!r} for"
            f" point {i} {complexify(x[i])} (smallest singular value {S[k, -1]:.3e})"
        )
    # v = A^T (A A^T + 1e-14)^-1 b = V S (S^2 + 1e-14)^-1 U^T b with
    # b = (0, -c dft): zero where the cutoff c is
    b1, b2 = (-c * dft.real)[ok], (-c * dft.imag)[ok]
    w = (U[:, 1] * b1[:, None] + U[:, 2] * b2[:, None]) * (S / (S * S + 1e-14))
    v[ok] = sum_leading((w[:, :, None] * Vt).swapaxes(0, 1))
    return v


def _newton_value_correction(
    fam: DeformationFamily,
    t: float,
    x: np.ndarray,
    target: np.ndarray,
    residual: np.ndarray,
    radius: float,
    tol: float,
    max_iter: int = 5,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Move each row of x along span{grad Re f_t, grad Im f_t} until f_t
    equals its target, renormalizing to the sphere after each move.

    `residual` is f_t - target at x.  Returns the rows (corrected, or left as
    they were where the correction failed), which rows were corrected, and
    f_t - target at the rows returned.  Rows already within tol are untouched.
    """
    out, residual = x.copy(), residual.copy()
    fixed = np.zeros(len(x), dtype=bool)
    todo, xs, res, J = np.arange(len(x)), x, residual, None
    for it in range(max_iter + 1):
        hit = _modulus(res) <= (tol if it < max_iter else 10 * tol)
        done = todo[hit]
        fixed[done], out[done], residual[done] = True, xs[hit], res[hit]
        todo, xs, res = todo[~hit], xs[~hit], res[~hit]
        if it == max_iter or not todo.size:
            break
        J = _jet(fam, t, xs)[1] if J is None else J[~hit]
        c0, c1 = normal_coefficients(J, res)
        xs = xs + c0[:, None] * J[:, 0] + c1[:, None] * J[:, 1]
        nrm = row_norm(xs)
        good = np.isfinite(xs).all(axis=1) & (nrm != 0)
        todo, xs, nrm = todo[good], xs[good], nrm[good]
        xs = xs * (radius / nrm)[:, None]
        val, J, _ = _jet(fam, t, xs)
        res = val - target[todo]
    return out, fixed, residual


def _integrate(
    fam: DeformationFamily,
    points,
    t_end: float,
    steps: int,
    tube: MilnorTubeSpec,
    newton_correct: bool = True,
    value_tol: float = 1e-9,
    residual_tol: float = 1e-6,
) -> tuple[IsotopyTrace, ...]:
    """Classical RK4 transport of every point from t = 0 to t_end, in lockstep.

    Per step: integrate the connection velocity, rescale back to the sphere,
    then (for points starting inside the tube) Newton-correct the f-value
    toward f_0(z0).  A point whose state turns non-finite fails at that step.
    """
    if not 0.0 <= t_end <= 1.0:
        raise InputError("t_end must lie in [0, 1]")
    if steps < 1:
        raise InputError("need at least one step")
    z0 = point_rows(points, fam.n)
    if not len(z0):
        return ()
    x = z0.view(float)
    r = tube.radius
    bad = ~np.isfinite(x).all(axis=1)
    if bad.any():
        raise PreconditionError(f"start point {int(np.argmax(bad))} has a non-finite coordinate")
    norm = row_norm(x)
    off = _off_sphere(norm, r, SPHERE_TOL)
    if off.any():
        i = int(np.argmax(off))
        raise PreconditionError(
            f"start point {i} must lie on the sphere of radius {r!r}; its norm is"
            f" {float(norm[i])!r}"
        )
    # the jet at each step's start: the previous value check reads it, then k1
    jet = _jet(fam, 0.0, x)
    f0 = jet[0]
    preserve = _modulus(f0) <= tube.tube_level
    K = len(x)
    times = [0.0]
    states = [x]
    value_residual = np.zeros(K)
    norm_residual = np.zeros(K)
    failure_step = np.zeros(K, dtype=int)  # 0: no failure
    dead = np.zeros(K, dtype=bool)

    if t_end > 0.0:
        h = t_end / steps
        for k in range(steps):
            t = k * h
            k1 = _velocity(fam, t, x, row_norm(x), tube, jet)
            # a stage state y leaves the sphere by O(h^2); the field is
            # defined there all the same, so no sphere check applies
            y = x + 0.5 * h * k1
            k2 = _velocity(fam, t + 0.5 * h, y, row_norm(y), tube)
            y = x + 0.5 * h * k2
            k3 = _velocity(fam, t + 0.5 * h, y, row_norm(y), tube)
            y = x + h * k3
            k4 = _velocity(fam, t + h, y, row_norm(y), tube)
            x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            x = x * (r / row_norm(x))[:, None]
            t_next = (k + 1) * h
            broke = ~dead & ~np.isfinite(x).all(axis=1)
            dead |= broke
            failure_step[broke] = k + 1
            value_residual[broke & preserve] = np.nan
            jet = _jet(fam, t_next, x)
            rows = np.nonzero(preserve & ~dead)[0]
            if rows.size:
                res = jet[0][rows] - f0[rows]
                if newton_correct:
                    corrected, fixed, res = _newton_value_correction(
                        fam, t_next, x[rows], f0[rows], res, r, value_tol
                    )
                    failure_step[rows[~fixed]] = k + 1
                    moved = rows[(corrected != x[rows]).any(axis=1)]
                    x[rows] = corrected
                    if moved.size:
                        for part, fresh in zip(jet, _jet(fam, t_next, x[moved])):
                            part[moved] = fresh
                value_residual[rows] = np.maximum(value_residual[rows], _modulus(res))
            norm_residual = np.maximum(norm_residual, np.abs(row_norm(x) - r))
            times.append(t_next)
            states.append(x)
    failed = (failure_step > 0) | (value_residual > residual_tol) | (norm_residual > residual_tol)
    paths = np.stack(states, axis=1).view(complex).tolist()  # K x samples x n
    return tuple(
        IsotopyTrace(
            tuple(path[0]),
            r,
            tube,
            tuple(zip(times, map(tuple, path))),
            float(value_residual[i]),
            float(norm_residual[i]),
            bool(failed[i]),
            int(failure_step[i]) or None,
        )
        for i, path in enumerate(paths)
    )


def integrate_isotopy(
    fam: DeformationFamily,
    z0: Sequence[complex],
    t_end: float,
    steps: int,
    tube: MilnorTubeSpec,
    newton_correct: bool = True,
    value_tol: float = 1e-9,
    residual_tol: float = 1e-6,
) -> IsotopyTrace:
    """Classical RK4 transport of one point from t = 0 to t_end: the
    one-point case of `transport`.

    Per step: integrate the connection velocity, rescale back to the sphere,
    then (inside the tube) Newton-correct the f-value toward f_0(z0).
    """
    (trace,) = _integrate(
        fam, [z0], t_end, steps, tube, newton_correct, value_tol, residual_tol
    )
    return trace


@dataclass(frozen=True)
class TransportSummary:
    traces: tuple[IsotopyTrace, ...]
    worst_value_residual: float
    worst_norm_residual: float
    partial: bool


def transport(
    fam: DeformationFamily,
    points: Sequence[Sequence[complex]],
    t_end: float,
    steps: int,
    tube: MilnorTubeSpec,
    level: Optional[float] = 0.0,
    **kwargs,
) -> TransportSummary:
    """Transport sphere points with |f_0| = level to t_end, all in lockstep.

    Level 0 carries a finite point set of the link K_0 = V_0; level eta0
    carries points of one phase fiber of the tube boundary.  With level None
    the start points are not checked against any level.
    """
    if level is not None:
        require_on_level(fam.member(0.0), point_rows(points, fam.n), level)
    traces = _integrate(fam, points, t_end, steps, tube, **kwargs)
    # np.max keeps a NaN residual (a point whose state broke) where max() drops it
    return TransportSummary(
        traces,
        float(np.max([tr.value_residual for tr in traces], initial=0.0)),
        float(np.max([tr.norm_residual for tr in traces], initial=0.0)),
        any(tr.failed for tr in traces),
    )


def choose_tube_level(
    fam: DeformationFamily,
    radius: float,
    t_grid: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    samples: int = 256,
    fraction: float = 0.1,
    seed: int = 0,
) -> float:
    """Desk-scale eta0 heuristic: a small fraction of the median |f_t| over
    the sphere, minimized over the t grid (recorded, not assumed safe)."""
    rng = rng_for(seed, "tube-level")
    level = math.inf
    for t in t_grid:
        poly = fam.member(float(t))
        vals = [
            abs(evaluate(poly, random_sphere_point(rng, fam.n, radius)))
            for _ in range(samples)
        ]
        level = min(level, float(np.median(vals)))
    return fraction * level
