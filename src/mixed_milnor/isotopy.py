"""Numerical realization of the isotopy theorem: integrate a sphere-tangent,
value-preserving velocity field carrying points of the t = 0 member to any
t in [0, 1], with per-step projection back onto the sphere and a Newton
correction restoring the preserved f-value."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import evaluate
from .errors import InputError, NumericalError, PreconditionError
from .families import DeformationFamily, MilnorTubeSpec, family_t_derivative
from .numerics import (
    complexify,
    random_sphere_point,
    real_jacobian_rows,
    realify,
    require_on_variety,
    rng_for,
)


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


def _cutoff(level: float, eta0: float) -> float:
    """C^1 (quintic smoothstep) blend: 1 below eta0, 0 above 2*eta0."""
    if level <= eta0:
        return 1.0
    if level >= 2.0 * eta0:
        return 0.0
    u = (level - eta0) / eta0
    return 1.0 - (10.0 * u**3 - 15.0 * u**4 + 6.0 * u**5)


def connection_velocity(
    fam: DeformationFamily,
    t: float,
    point: Sequence[complex],
    tube: MilnorTubeSpec,
    norm_tol: float = 1e-6,
) -> np.ndarray:
    """Minimum-norm real velocity tangent to the sphere whose flow keeps
    f_t constant inside the Milnor tube (blended off smoothly outside)."""
    x = realify(point)
    r = float(np.linalg.norm(x))
    if abs(r - tube.radius) > norm_tol * max(1.0, tube.radius):
        raise PreconditionError(
            f"point norm {r!r} is off the sphere of radius {tube.radius!r}"
        )
    z = complexify(x)
    poly = fam.member(t)
    level = abs(evaluate(poly, z))
    c = _cutoff(level, tube.tube_level)
    rows = [x / r]
    rhs = [0.0]
    if c > 0.0:
        J = real_jacobian_rows(poly, z)
        dft = family_t_derivative(fam, t, z)
        sv = np.linalg.svd(np.vstack([rows[0], J]), compute_uv=False)
        if level <= tube.tube_level and sv[-1] < 1e-10:
            raise NumericalError(
                "constraint matrix rank-deficient inside the tube "
                f"(smallest singular value {sv[-1]:.3e})"
            )
        rows.extend(J)
        rhs.extend([-c * dft.real, -c * dft.imag])
    A = np.vstack(rows)
    b = np.asarray(rhs)
    G = A @ A.T + 1e-14 * np.eye(A.shape[0])
    return A.T @ np.linalg.solve(G, b)


def _newton_value_correction(
    poly, x: np.ndarray, target: complex, radius: float, tol: float, max_iter: int = 5
) -> Optional[np.ndarray]:
    """Move along span{grad Re f, grad Im f} until f equals the target,
    renormalizing to the sphere after each move."""
    for _ in range(max_iter):
        z = complexify(x)
        val = evaluate(poly, z) - target
        if abs(val) <= tol:
            return x
        J = real_jacobian_rows(poly, z)
        G = J @ J.T + 1e-14 * np.eye(2)
        try:
            coef = np.linalg.solve(G, -np.array([val.real, val.imag]))
        except np.linalg.LinAlgError:
            return None
        x = x + J.T @ coef
        nrm = np.linalg.norm(x)
        if nrm == 0 or not np.all(np.isfinite(x)):
            return None
        x = x * (radius / nrm)
    z = complexify(x)
    if abs(evaluate(poly, z) - target) <= 10 * tol:
        return x
    return None


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
    """Classical RK4 transport of one point from t = 0 to t_end.

    Per step: integrate the connection velocity, rescale back to the sphere,
    then (inside the tube) Newton-correct the f-value toward f_0(z0).
    """
    if not 0.0 <= t_end <= 1.0:
        raise InputError("t_end must lie in [0, 1]")
    if steps < 1:
        raise InputError("need at least one step")
    z0 = tuple(complex(z) for z in z0)
    x = realify(z0)
    r = tube.radius
    if abs(np.linalg.norm(x) - r) > 1e-6 * max(1.0, r):
        raise PreconditionError("start point must lie on the sphere")
    f0 = evaluate(fam.member(0.0), z0)
    preserve = abs(f0) <= tube.tube_level
    samples: list[tuple[float, tuple[complex, ...]]] = [(0.0, z0)]
    value_residual = 0.0
    norm_residual = 0.0
    failed = False
    failure_step: Optional[int] = None
    if t_end > 0.0:
        h = t_end / steps
        for k in range(steps):
            t = k * h

            def vel(tt: float, xx: np.ndarray) -> np.ndarray:
                return connection_velocity(fam, tt, complexify(xx), tube)

            k1 = vel(t, x)
            k2 = vel(t + 0.5 * h, x + 0.5 * h * k1)
            k3 = vel(t + 0.5 * h, x + 0.5 * h * k2)
            k4 = vel(t + h, x + h * k3)
            x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            x = x * (r / np.linalg.norm(x))
            t_next = (k + 1) * h
            poly = fam.member(t_next)
            if preserve and newton_correct:
                corrected = _newton_value_correction(poly, x, f0, r, value_tol)
                if corrected is None:
                    failed = True
                    failure_step = k + 1
                else:
                    x = corrected
            z = complexify(x)
            samples.append((t_next, z))
            norm_residual = max(norm_residual, abs(float(np.linalg.norm(x)) - r))
            if preserve:
                value_residual = max(value_residual, abs(evaluate(poly, z) - f0))
    if value_residual > residual_tol or norm_residual > residual_tol:
        failed = True
    return IsotopyTrace(
        z0, r, tube, tuple(samples), value_residual, norm_residual, failed, failure_step
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
    **kwargs,
) -> TransportSummary:
    """Transport sphere points with |f_0| = level to t_end.

    Level 0 carries a finite point set of the link K_0 = V_0; level eta0
    carries points of one phase fiber of the tube boundary.  With level None
    the start points are not checked against any level.
    """
    poly0 = fam.member(0.0)
    traces = []
    for z in points:
        if level is not None:
            require_on_variety(poly0, z, level)
        traces.append(integrate_isotopy(fam, z, t_end, steps, tube, **kwargs))
    return TransportSummary(
        tuple(traces),
        max((tr.value_residual for tr in traces), default=0.0),
        max((tr.norm_residual for tr in traces), default=0.0),
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
