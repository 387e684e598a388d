"""Link sampling and exploration for n = 2 family members.

K_t = V_t intersected with the sphere is a union of orbits of the polar
circle action; orbit representatives are found on the fundamental torus
(the two-term structure makes the modulus profile monotone) or, for chained
kinds, by Newton-polished random sampling.  Each orbit traced at fixed
angular resolution is one closed curve of the link.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    MixedPolynomial,
    detect_weights,
    evaluate,
    polar_action,
    polynomial_arrays,
    value_and_gradient_batch,
)
from .errors import InputError, NumericalError, PreconditionError
from .families import DeformationFamily
from .numerics import (
    level_tolerance,
    monotone_roots,
    newton_on_sphere_batch,
    random_sphere_point,
    rng_streams,
)

DEFAULT_RESOLUTION = 720


@dataclass(frozen=True)
class LinkSample:
    spec: object
    t: float
    radius: float
    polar_weights: tuple[int, ...]
    orbits: tuple[tuple[tuple[complex, ...], ...], ...]
    component_count: int
    seeds_used: int
    flagged: bool  # set when no point of the link could be found

    @property
    def points(self) -> tuple[tuple[complex, ...], ...]:
        return tuple(pt for orbit in self.orbits for pt in orbit)


def _same_orbit(
    z: Sequence[complex],
    w: Sequence[complex],
    P: Sequence[int],
    merge_tol: float,
) -> bool:
    """Exact polar-orbit membership: moduli must agree and the phase
    congruence theta_w = theta_z + p_j * phi must be solvable."""
    if any(abs(abs(a) - abs(b)) > merge_tol for a, b in zip(z, w)):
        return False
    live = [j for j in range(len(z)) if abs(z[j]) > merge_tol]
    if not live:
        return True
    j0 = live[0]
    p0 = int(P[j0])
    base = cmath.phase(w[j0]) - cmath.phase(z[j0])
    for k in range(p0):
        phi = (base + 2.0 * math.pi * k) / p0
        lam = cmath.exp(1j * phi)
        moved = polar_action(P, lam, z)
        if all(abs(a - b) <= merge_tol for a, b in zip(moved, w)):
            return True
    return False


def _trace_orbit(
    rep: Sequence[complex], P: Sequence[int], resolution: int
) -> tuple[tuple[complex, ...], ...]:
    return tuple(
        polar_action(P, cmath.exp(2j * math.pi * k / resolution), rep)
        for k in range(resolution)
    )


def _brieskorn_representatives(
    fam: DeformationFamily, t: float, radius: float
) -> list[tuple[complex, complex]]:
    """One representative per phase class on the fundamental torus: the
    modulus equation has a unique root by monotonicity, the phase condition
    enumerates a_1 candidates at arg z_2 = 0."""
    a1, a2 = fam.spec.a
    b1, b2 = fam.spec.b

    def amp(rho: np.ndarray, b: int) -> np.ndarray:
        return t + (1.0 - t) * rho ** (2 * b)

    def profile(rho1: np.ndarray, k) -> np.ndarray:
        rho2 = np.sqrt(np.maximum(radius**2 - rho1**2, 0.0))
        return rho1**a1 * amp(rho1, b1) - rho2**a2 * amp(rho2, b2)

    eps = 1e-12 * radius
    rho1 = float(monotone_roots(profile, [0.0], lo=eps, hi=radius - eps)[0])
    rho2 = math.sqrt(max(radius**2 - rho1**2, 0.0))
    reps = []
    for k in range(a1):
        theta1 = (math.pi + 2.0 * math.pi * k) / a1
        reps.append((rho1 * cmath.exp(1j * theta1), rho2 + 0j))
    return reps


def _coordinate_circle_orbits(
    poly: MixedPolynomial, radius: float
) -> list[tuple[complex, complex]]:
    """Whole coordinate circles contained in the link (chained kinds): each
    circle's point at three phases, all six in one kernel pass."""
    cands = np.array([(radius, 0.0), (0.0, radius)], dtype=complex)
    phases = np.exp(1j * np.array([0.0, 0.7, 2.1]))
    z = (cands[:, None, :] * phases[:, None]).reshape(1, 6, 2)
    value = value_and_gradient_batch(polynomial_arrays([poly]), z)[0].reshape(2, 3)
    on = (np.abs(value) <= level_tolerance(poly, radius)).all(axis=1)
    return [tuple(c) for c in cands[on].tolist()]


def sample_link(
    fam: DeformationFamily,
    t: float,
    radius: float,
    seeds: int = 64,
    seed: int = 0,
    resolution: int = DEFAULT_RESOLUTION,
) -> LinkSample:
    """Sample K_t = V_t on the sphere and partition it into polar orbits."""
    if fam.n != 2:
        raise PreconditionError("link sampling is implemented for n = 2 only")
    if radius <= 0:
        raise InputError("radius must be positive")
    poly = fam.member(float(t))
    weights = detect_weights(poly)
    if not weights.has_polar:
        raise NumericalError("family member is unexpectedly not polar weighted")
    P = weights.polar_weights
    merge_tol = 1e-4 * radius

    # on a large sphere a Python float power raises OverflowError, and numpy
    # is made to raise on overflow instead of warning
    try:
        with np.errstate(over="raise"):
            if fam.spec.kind == "brieskorn":
                candidates = np.array(_brieskorn_representatives(fam, float(t), radius))
                seeds_used = 0
            else:
                rngs = rng_streams(seed, [f"link:seed:{k}" for k in range(seeds)])
                starts = np.array([random_sphere_point(rng, 2, radius) for rng in rngs])
                found, hit = newton_on_sphere_batch(poly, 0j, radius, starts)
                seeds_used = seeds
                candidates = np.concatenate(
                    [np.array(_coordinate_circle_orbits(poly, radius)).reshape(-1, 2), found[hit]]
                )
            # Newton polish, then dedupe by exact orbit membership.
            polished, hit = newton_on_sphere_batch(poly, 0j, radius, candidates)
    except (OverflowError, FloatingPointError) as exc:
        raise NumericalError(f"link sampling overflows at t={t!r} (radius {radius!r})") from exc
    orbits_reps: list[tuple[complex, ...]] = []
    for rep in map(tuple, polished[hit].tolist()):
        if not any(_same_orbit(other, rep, P, merge_tol) for other in orbits_reps):
            orbits_reps.append(rep)

    orbits = tuple(_trace_orbit(rep, P, resolution) for rep in orbits_reps)
    return LinkSample(
        spec=fam.spec,
        t=float(t),
        radius=float(radius),
        polar_weights=tuple(P),
        orbits=orbits,
        component_count=len(orbits),
        seeds_used=seeds_used,
        flagged=not orbits,
    )


def fibration_phase(
    poly: MixedPolynomial, point: Sequence[complex], tol: float = 1e-8
) -> complex:
    """f/|f| away from the link."""
    val = evaluate(poly, point)
    if abs(val) <= tol:
        raise PreconditionError(f"phase undefined near the link: |f| = {abs(val):.3e}")
    return val / abs(val)


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def project_svg(sample: LinkSample, path: str) -> None:
    """Stereographic projection of the sampled link to the plane as SVG,
    one closed polyline per orbit, one stroke color per component."""
    if not sample.orbits:
        raise PreconditionError("cannot project an empty sample")
    polylines: list[list[tuple[float, float]]] = []
    for orbit in sample.orbits:
        pts = []
        for z in orbit:
            p = np.array([z[0].real, z[0].imag, z[1].real, z[1].imag]) / sample.radius
            if abs(1.0 - p[3]) < 1e-6:
                continue  # projection pole
            q = p[:3] / (1.0 - p[3])
            pts.append((float(q[0]), float(q[1])))  # orthographic drop to the plane
        polylines.append(pts)
    xs = [x for line in polylines for x, _ in line]
    ys = [y for line in polylines for _, y in line]
    pad = 0.05 * max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
    x0, y0 = min(xs) - pad, min(ys) - pad
    w, h = max(xs) - x0 + pad, max(ys) - y0 + pad
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{x0:.6f} {y0:.6f} {w:.6f} {h:.6f}">'
    ]
    for i, line in enumerate(polylines):
        color = _PALETTE[i % len(_PALETTE)]
        closed = line + line[:1]  # orbits are closed curves
        coords = " ".join(f"{x:.6f},{y:.6f}" for x, y in closed)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{0.004 * max(w, h):.6f}"/>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
