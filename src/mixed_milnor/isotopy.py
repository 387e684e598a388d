"""Numerical realization of the isotopy theorem: integrate a sphere-tangent,
value-preserving velocity field carrying points of the t = 0 member to any
t in [0, 1], with per-step projection back onto the sphere and a Newton
correction restoring the preserved f-value.

All points of one call move in lockstep.  f_t = (1-t) f + t g is linear in t,
so each RK4 stage is one pass of the batched polynomial kernel over two
coefficient rows on the endpoints' monomials (giving f_t, its gradient and
d f_t / dt = g - f at every point), then the closed-form 2 x 2 tangent-space
solve of `numerics.tangent_step`, the same one the sphere Newton steps with,
and the closed-form smallest singular value of the tangent Jacobian for the
rank test.  Each point is computed on its own and in a fixed order, so its
trace is bit for bit the same whatever else shares its batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import PolynomialArrays, rescaled, value_and_gradient_batch
from .errors import InputError, NumericalError, PreconditionError
from .families import DeformationFamily, MilnorTubeSpec, require_unit_t
from .numerics import (
    complexify,
    newton_on_sphere_batch,
    point_rows,
    real_jacobian,
    require_on_level,
    row_norm,
    smallest_singular_values,
    tangent_step,
)


# relative tolerance on the norm of a point given as lying on the sphere
SPHERE_TOL = 1e-6
# a preserved f-value off by more than this (on the unit sphere) is Newton-corrected
VALUE_TOL = 1e-9


@dataclass(frozen=True)
class IsotopyTrace:
    start: tuple[complex, ...]
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
    """C^1 (quintic smoothstep) blend: 1 below eta0, 0 above 2*eta0 (above 0 if eta0 is 0)."""
    if not eta0:
        return np.where(level > 0.0, 0.0, 1.0)
    u = np.minimum(np.maximum((level - eta0) / eta0, 0.0), 1.0)
    return 1.0 - u * u * u * (10.0 + u * (6.0 * u - 15.0))


def _modulus(w: np.ndarray) -> np.ndarray:
    return np.hypot(w.real, w.imag)


def _blend(ends: PolynomialArrays, t: float):
    """f_t and d f_t / dt = g - f from the endpoint rows f, g of `ends`; row 0
    is bit for bit `fam.members([t])` for `ends = fam.endpoint_arrays`."""
    f, g = ends.C
    return ends.with_coefficients(np.array([(1.0 - t) * f + t * g, g - f]))


def _jet(ends: PolynomialArrays, t: float, x: np.ndarray):
    """f_t, its real Jacobian rows (K x 2 x 2n: gradients of Re f_t and Im f_t)
    and d f_t / dt at the rows of x (K x 2n, C-contiguous)."""
    z = x.view(complex)
    both = np.empty((2,) + z.shape, dtype=complex)
    both[...] = z
    value, re, im = value_and_gradient_batch(_blend(ends, t), both)
    return value[0], real_jacobian(re[:, :, 0], im[:, :, 0]), value[1]


def _velocity(
    ends: PolynomialArrays, t: float, x: np.ndarray, r: np.ndarray, eta0: float, jet=None
) -> np.ndarray:
    """Minimum-norm real velocity whose flow keeps f_t constant inside the tube
    |f_t| <= eta0 (blended off smoothly outside), at the rows of x (K x 2n,
    C-contiguous) of norms r, tangent to the sphere through each row, whatever
    its radius.  `jet` is _jet(ends, t, x) when the caller has it already."""
    value, J, dft = jet or _jet(ends, t, x)
    level = _modulus(value)
    inside = level <= eta0
    c = 1.0 if inside.all() else _cutoff(level, eta0)
    # the least-norm tangent v with J v = -c dft: zero where the cutoff c is;
    # a row of x with a NaN coordinate gets a NaN v
    v, J_T, g = tangent_step(J, x / r[:, None], c * dft)
    sigma = smallest_singular_values(J_T, g)
    low = inside & (sigma < 1e-10)
    if low.any():
        i = int(np.argmax(low))
        raise NumericalError(
            f"constraint matrix rank-deficient inside the tube at t={t!r} for"
            f" point {i} {complexify(x[i])} (smallest singular value {sigma[i]:.3e})"
        )
    return v


def _integrate(
    fam: DeformationFamily,
    points,
    t_end: float,
    steps: int,
    tube: MilnorTubeSpec,
    level: Optional[float],
    newton_correct: bool,
) -> tuple[IsotopyTrace, ...]:
    """Classical RK4 transport of every point from t = 0 to t_end, in lockstep.

    It runs on the unit sphere, f and g scaled to one common e (the larger of
    their two, the smaller when r < 1) so that f_t stays linear in t; the tube
    level is eta0 r^-e.  Per step: integrate the connection velocity, rescale
    back to the sphere, then (for points starting inside the tube)
    Newton-correct f_t toward f_0(z0) where it is off by more than VALUE_TOL.
    A point whose state turns non-finite, or whose correction fails, fails at
    that step.  Each start point must be finite, lie on the sphere of the
    tube's radius, to SPHERE_TOL relative, and (unless level is None) have
    |f_0| = level.
    """
    z0 = point_rows(points, fam.n)
    x = z0.view(float)
    r = tube.radius
    bad = ~np.isfinite(x).all(axis=1)
    if bad.any():
        raise PreconditionError(f"start point {int(np.argmax(bad))} has a non-finite coordinate")
    require_unit_t(t_end, "t_end")
    norm = np.hypot.reduce(x, axis=1)  # no overflow where row_norm's squares would
    off = np.abs(norm - r) > SPHERE_TOL * r
    if off.any():
        i = int(np.argmax(off))
        raise PreconditionError(
            f"start point {i} has norm {float(norm[i])!r}, off the sphere of radius {r!r}"
        )
    ends = fam.endpoint_arrays  # each of its columns is a monomial of f or of g
    scale, e = ends.with_coefficients(np.ones((1, len(ends.N)))).on_sphere(r)
    ends = ends.with_coefficients(ends.C * scale.C)
    x = x * (1.0 / r)
    if level is not None:  # row 0 of ends is f_0
        level = float(rescaled(level, r, -e)[0])
        require_on_level(ends.rows([0] * len(x)), x.view(complex), level)
    if steps < 1:
        raise InputError("need at least one step")
    if not len(z0):
        return ()
    eta0 = float(rescaled(tube.tube_level, r, -e)[0])
    # the jet at each step's start: the previous value check reads it, then k1
    jet = _jet(ends, 0.0, x)
    f0 = jet[0]
    preserve = _modulus(f0) <= eta0
    K = len(x)
    times = [0.0]
    states = [z0.view(float)]  # the start points as given, then each step's times r
    value_residual = np.zeros(K)
    norm_residual = np.zeros(K)
    failure_step = np.zeros(K, dtype=int)  # 0: no failure
    dead = np.zeros(K, dtype=bool)

    if t_end > 0.0:
        h = t_end / steps
        for k in range(steps):
            t = k * h
            k1 = _velocity(ends, t, x, row_norm(x), eta0, jet)
            # a stage state y leaves the sphere by O(h^2); the field is
            # defined there all the same, so no sphere check applies
            y = x + 0.5 * h * k1
            k2 = _velocity(ends, t + 0.5 * h, y, row_norm(y), eta0)
            y = x + 0.5 * h * k2
            k3 = _velocity(ends, t + 0.5 * h, y, row_norm(y), eta0)
            y = x + h * k3
            k4 = _velocity(ends, t + h, y, row_norm(y), eta0)
            x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            x = x * (1.0 / row_norm(x))[:, None]
            t_next = (k + 1) * h
            broke = ~dead & ~np.isfinite(x).all(axis=1)
            dead |= broke
            failure_step[broke] = k + 1
            value_residual[broke & preserve] = np.nan
            jet = _jet(ends, t_next, x)
            rows = np.nonzero(preserve & ~dead)[0]
            res = jet[0][rows] - f0[rows]
            off = rows[_modulus(res) > VALUE_TOL]
            if newton_correct and off.size:
                # Newton on f_t = f_0 over the sphere; a row not found fails
                # at this step and keeps its position
                member = _blend(ends, t_next).rows(np.zeros(len(off), int))
                z, found = newton_on_sphere_batch(
                    member, f0[off], x[off].view(complex), VALUE_TOL, 5
                )
                failure_step[off[~found]] = k + 1
                moved = off[found]
                x[moved] = z.view(float)[found]
                for part, fresh in zip(jet, _jet(ends, t_next, x[moved])):
                    part[moved] = fresh
                res = jet[0][rows] - f0[rows]
            value_residual[rows] = np.maximum(value_residual[rows], _modulus(res))
            norm_residual = np.maximum(norm_residual, np.abs(row_norm(x) - 1.0))
            times.append(t_next)
            states.append(x * r)
    failed = (failure_step > 0) | (value_residual > 1e-6) | (norm_residual > 1e-6)
    value_residual, norm_residual = rescaled(value_residual, r, e), norm_residual * r
    paths = np.stack(states, axis=1).view(complex).tolist()  # K x samples x n
    return tuple(
        IsotopyTrace(
            tuple(path[0]),
            tuple(zip(times, map(tuple, path))),
            float(value_residual[i]),
            float(norm_residual[i]),
            bool(failed[i]),
            int(failure_step[i]) or None,
        )
        for i, path in enumerate(paths)
    )


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
    newton_correct: bool = True,
) -> TransportSummary:
    """Transport sphere points with |f_0| = level to t_end, all in lockstep.

    Level 0 carries a finite point set of the link K_0 = V_0; level eta0
    carries points of one phase fiber of the tube boundary.  With level None
    the start points are not checked against any level.  Without
    newton_correct the preserved f-value is never corrected.
    """
    traces = _integrate(fam, points, t_end, steps, tube, level, newton_correct)
    # np.max keeps a NaN residual (a point whose state broke) where max() drops it
    return TransportSummary(
        traces,
        float(np.max([tr.value_residual for tr in traces], initial=0.0)),
        float(np.max([tr.norm_residual for tr in traces], initial=0.0)),
        any(tr.failed for tr in traces),
    )
