"""Link sampling and exploration for n = 2 family members.

K_t = V_t intersected with the sphere is a union of orbits of the polar
circle action; orbit representatives are found on the fundamental torus
(the two-term structure makes the modulus profile monotone) or, for chained
kinds, by Newton-polished random sampling.  Each orbit traced at fixed
angular resolution is one closed curve of the link.  The polar action runs
as one array pass per orbit (`core.polar_orbit`), so the traced orbits are
the rows of one array, and deduplication and projection work on arrays.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import PolynomialArrays, detect_weights, polar_orbit, value_and_gradient_batch
from .errors import NumericalError, PreconditionError
from .families import DeformationFamily
from .numerics import (
    level_tolerance,
    monotone_roots,
    newton_on_sphere_batch,
    random_sphere_point,
    rng_streams,
)

# points traced per orbit
RESOLUTION = 720


@dataclass(frozen=True, eq=False)  # array fields make == ambiguous
class LinkSample:
    t: float
    radius: float
    polar_weights: tuple[int, ...]
    orbits: np.ndarray  # orbits x RESOLUTION x 2 complex, one traced orbit per row
    component_count: int
    seeds_used: int
    flagged: bool  # set when no point of the link could be found

    @property
    def points(self) -> np.ndarray:
        return self.orbits.reshape(-1, 2)


def _same_orbit(z, w, P: Sequence[int], merge_tol: float) -> bool:
    """Exact polar-orbit membership: the moduli agree, and one of the p_j0 phases
    phi with theta_w = theta_z + p_j0 phi (j0 z's first live coordinate) moves z onto w."""
    if (np.abs(np.abs(z) - np.abs(w)) > merge_tol).any():
        return False
    live = np.flatnonzero(np.abs(z) > merge_tol)
    if not live.size:
        return True
    j0, p0 = live[0], int(P[live[0]])
    base = cmath.phase(w[j0]) - cmath.phase(z[j0])
    phi = (base + 2.0 * math.pi * np.arange(p0)) / p0
    return bool((np.abs(polar_orbit(P, np.exp(1j * phi), z) - w) <= merge_tol).all(axis=1).any())


def _brieskorn_representatives(fam: DeformationFamily, member: PolynomialArrays) -> np.ndarray:
    """One representative per phase class on the fundamental torus of the
    unit sphere for the one-row unit-scale `member`, whose u_j terms sum to
    u_j^a_j amp_j(|u_j|): the modulus equation has a unique root by
    monotonicity, the phase condition enumerates a_1 candidates at arg u_2 = 0."""
    a1, a2 = fam.spec.a
    terms = [np.flatnonzero(member.N[:, j]) for j in range(2)]

    def amp(rho: np.ndarray, j: int) -> np.ndarray:
        return sum(member.C[0, i].real * rho ** int(2 * member.M[i, j]) for i in terms[j])

    def profile(rho1: np.ndarray, k) -> np.ndarray:
        rho2 = np.sqrt(np.maximum(1.0 - rho1**2, 0.0))
        return rho1**a1 * amp(rho1, 0) - rho2**a2 * amp(rho2, 1)

    rho1 = float(monotone_roots(profile, [0.0], lo=1e-12, hi=1.0 - 1e-12)[0])
    theta1 = (math.pi + 2.0 * math.pi * np.arange(a1)) / a1
    rho2 = math.sqrt(max(1.0 - rho1**2, 0.0))
    return np.stack([rho1 * np.exp(1j * theta1), np.full(a1, rho2 + 0j)], axis=-1)


def _coordinate_circle_orbits(member: PolynomialArrays) -> np.ndarray:
    """Whole coordinate circles of the unit sphere contained in the link
    (chained kinds) of the one-row unit-scale `member`: each circle's point
    at three phases, all six in one kernel pass."""
    cands = np.array([(1.0, 0.0), (0.0, 1.0)], dtype=complex)
    phases = np.exp(1j * np.array([0.0, 0.7, 2.1]))
    z = (cands[:, None, :] * phases[:, None]).reshape(1, 6, 2)
    value = value_and_gradient_batch(member, z)[0].reshape(2, 3)
    on = (np.abs(value) <= level_tolerance(member, 1.0)).all(axis=1)
    return cands[on]


def sample_link(
    fam: DeformationFamily,
    t: float,
    radius: float,
    seeds: int = 64,
    seed: int = 0,
) -> LinkSample:
    """Sample K_t = V_t on the sphere and partition it into polar orbits, found
    on the unit sphere of f_t's unit-scale form and mapped back by the radius."""
    if fam.n != 2:
        raise PreconditionError("link sampling is implemented for n = 2 only")
    weights = detect_weights(fam.member(float(t)))
    if not weights.has_polar:
        raise NumericalError("family member is unexpectedly not polar weighted")
    P = weights.polar_weights
    member = fam.members([t]).on_sphere(radius)[0]
    if fam.spec.kind == "brieskorn":
        candidates = _brieskorn_representatives(fam, member)
        seeds_used = 0
    else:
        rngs = rng_streams(seed, [f"link:seed:{k}" for k in range(seeds)])
        starts = np.array([random_sphere_point(rng, 2, 1.0) for rng in rngs])
        found, hit = newton_on_sphere_batch(member.rows([0] * seeds), 0j, starts)
        seeds_used = seeds
        circles = _coordinate_circle_orbits(member)
        candidates = np.concatenate([circles, found[hit]])
    # Newton polish, then dedupe by exact orbit membership.
    polished, hit = newton_on_sphere_batch(member.rows([0] * len(candidates)), 0j, candidates)
    reps: list[np.ndarray] = []
    for rep in polished[hit]:
        if not any(_same_orbit(other, rep, P, 1e-4) for other in reps):
            reps.append(rep)
    lams = np.exp(1j * (2.0 * math.pi * np.arange(RESOLUTION) / RESOLUTION))
    orbits = polar_orbit(P, lams, np.reshape(reps, (-1, 2)) * radius)
    orbits.flags.writeable = False  # the sample is frozen, its points view included
    return LinkSample(
        t=float(t),
        radius=float(radius),
        polar_weights=tuple(P),
        orbits=orbits,
        component_count=len(orbits),
        seeds_used=seeds_used,
        flagged=not len(orbits),
    )


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def project_svg(sample: LinkSample, path: str) -> None:
    """Stereographic projection of the sampled link to the plane as SVG,
    one closed polyline per orbit, one stroke color per component."""
    if not len(sample.orbits):
        raise PreconditionError("cannot project an empty sample")
    p = sample.orbits.view(float) / sample.radius
    # skip the projection pole, then drop orthographically to the plane
    keep = np.abs(1.0 - p[..., 3]) >= 1e-6
    q = p[..., :2] / np.where(keep, 1.0 - p[..., 3], 1.0)[..., None]
    xs, ys = q[keep].T
    pad = 0.05 * max(xs.max() - xs.min(), ys.max() - ys.min(), 1e-9)
    x0, y0 = xs.min() - pad, ys.min() - pad
    w, h = xs.max() - x0 + pad, ys.max() - y0 + pad
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{x0:.6f} {y0:.6f} {w:.6f} {h:.6f}">'
    ]
    for i, (line, mask) in enumerate(zip(q, keep)):
        color = _PALETTE[i % len(_PALETTE)]
        closed = line[mask].tolist()
        coords = " ".join(f"{x:.6f},{y:.6f}" for x, y in closed + closed[:1])  # a closed curve
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{0.004 * max(w, h):.6f}"/>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
