"""Link tracing for n = 2 family members.

K_t = V_t intersected with the sphere is a union of orbits of the polar
circle action.  Every member is T_0 + T_1, where T_k = e^{i d_k.theta} A_k(rho)
gathers the monomials of phase exponent d_k = nu - mu and A_k > 0, so the
link is closed-form: the coordinate circles z_j = 0 with z_j dividing every
live monomial, plus the torus |T_0| = |T_1|, d.theta = pi (mod 2 pi), d =
d_0 - d_1, whose gcd(d) components are one polar orbit each.  The moduli are
one monotone root, the phases exact, and nothing is sampled or merged.  Each
orbit traced at fixed angular resolution is one closed curve of the link, and
the traced orbits are the rows of one array (`core.polar_orbit`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PolynomialArrays, detect_weights, polar_orbit
from .errors import NumericalError, PreconditionError
from .families import DeformationFamily
from .numerics import monotone_roots

# points traced per orbit
RESOLUTION = 720


@dataclass(frozen=True, eq=False)  # array fields make == ambiguous
class LinkSample:
    t: float
    radius: float
    polar_weights: tuple[int, ...]
    orbits: np.ndarray  # orbits x RESOLUTION x 2 complex, one traced orbit per row
    component_count: int
    flagged: bool  # set when the link has no point

    @property
    def points(self) -> np.ndarray:
        return self.orbits.reshape(-1, 2)


def _representatives(member: PolynomialArrays) -> np.ndarray:
    """One point per component of the link on the unit sphere of the one-row
    unit-scale `member`: the coordinate circles first, then the torus orbits.

    On rho = (1, e^u) / sqrt(1 + e^{2u}) the profile log A_0 - log A_1 is
    monotone in u; it is solved in |u| on the side its sign at u = 0 picks, so
    a small modulus keeps its relative precision.  With d_j != 0, the phase
    theta_j = (pi + 2 pi k) / |d_j| (the other one 0) has d.theta = +-(pi + 2 pi k),
    and k mod gcd(d) labels the component, so k < gcd(d) meets each once."""
    live = member.C[0] != 0
    N, M, log_c = member.N[live], member.M[live], np.log(member.C[0, live].real)
    common = (N + M).min(axis=0)  # the power of each |z_j| that every term carries
    # the circle z_j = 0 (point e_{1-j}) lies in the link when z_j divides every monomial
    circles = np.eye(2, dtype=complex)[common[::-1] > 0]
    E = N + M - common  # so the profile's limits stay finite
    phases, group = np.unique(N - M, axis=0, return_inverse=True)
    if len(phases) == 1:
        return circles
    group = group.reshape(-1)

    def profile(u: np.ndarray) -> np.ndarray:
        half = 0.5 * np.logaddexp(0.0, 2.0 * u)
        terms = log_c + np.stack([-half, u - half], axis=-1) @ E.T
        return np.subtract(*(np.logaddexp.reduce(terms[:, group == k], axis=1) for k in (0, 1)))

    # log rho is exactly (-|u|, 0) or (0, -|u|) at |u| = 1e300: the profile's limits
    h0, *limits = profile(np.array([0.0, -1e300, 1e300]))
    sign = float(np.sign(h0))
    sides = [side for side, end in zip((-1.0, 1.0), limits) if sign * end < 0]
    u = 0.0
    if sign:
        if not sides:  # the moduli equation has no root
            return circles
        side = sides[0]
        u = side * float(monotone_roots(lambda s, k: -sign * profile(side * s), [0.0])[0])
    half = 0.5 * float(np.logaddexp(0.0, 2.0 * u))
    rho = np.exp([-half, u - half])
    d = phases[0] - phases[1]
    j = int(np.flatnonzero(d)[0])
    theta = np.zeros((math.gcd(*d.tolist()), 2))
    theta[:, j] = (math.pi + 2.0 * math.pi * np.arange(len(theta))) / abs(d[j])
    return np.concatenate([circles, rho * np.exp(1j * theta)])


def sample_link(fam: DeformationFamily, t: float, radius: float) -> LinkSample:
    """K_t = V_t on the sphere as its polar orbits, one traced orbit per
    component: found on the unit sphere of f_t's unit-scale form and mapped
    back by the radius."""
    if fam.n != 2:
        raise PreconditionError("link sampling is implemented for n = 2 only")
    weights = detect_weights(fam.member(float(t)))
    if not weights.has_polar:
        raise NumericalError("family member is unexpectedly not polar weighted")
    P = weights.polar_weights
    reps = _representatives(fam.members([t]).on_sphere(radius)[0])
    lams = np.exp(1j * (2.0 * math.pi * np.arange(RESOLUTION) / RESOLUTION))
    orbits = polar_orbit(P, lams, reps * radius)
    orbits.flags.writeable = False  # the sample is frozen, its points view included
    return LinkSample(
        t=float(t),
        radius=float(radius),
        polar_weights=tuple(P),
        orbits=orbits,
        component_count=len(orbits),
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
