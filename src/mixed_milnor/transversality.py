"""Sphere-variety transversality, checked two independent ways.

The rank test measures the smallest singular value of the 3 x 2n real matrix
whose rows are the (normalized) position vector and the gradients of Re f
and Im f.  The constructive route rescales coordinates along a monotone
curve that stays inside the variety and leaves the sphere radially: its
derivative at the base point is an explicit non-tangent witness vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import MixedPolynomial, evaluate
from .errors import InputError, NumericalError, PreconditionError
from .families import DeformationFamily
from .numerics import (
    monotone_root,
    newton_on_sphere,
    on_variety_tolerance,
    random_sphere_point,
    real_jacobian_rows,
    realify,
    require_on_variety,
    rng_for,
)

DEFAULT_MARGIN_THRESHOLD = 1e-9


@dataclass(frozen=True)
class TransversalityCertificate:
    point: tuple[complex, ...]
    t: float
    method: str  # "rank_test" | "radial_witness"
    margin: float
    transverse: bool
    witness_vector: Optional[tuple[float, ...]] = None


def rank_test(
    fam: DeformationFamily,
    t: float,
    point: Sequence[complex],
    threshold: float = DEFAULT_MARGIN_THRESHOLD,
) -> TransversalityCertificate:
    """Smallest singular value of [w; grad Re f; grad Im f], rows unit-normalized."""
    poly = fam.member(t)
    require_on_variety(poly, point)
    x = realify(point)
    if np.linalg.norm(x) == 0:
        raise PreconditionError("rank test is undefined at the origin")
    rows = np.vstack([x, real_jacobian_rows(poly, point)])
    margin = 0.0
    norms = np.linalg.norm(rows, axis=1)
    if np.all(norms > 0):
        rows = rows / norms[:, None]
        margin = float(np.linalg.svd(rows, compute_uv=False)[-1])
    return TransversalityCertificate(
        tuple(complex(z) for z in point), float(t), "rank_test", margin, margin > threshold
    )


def solve_phi(a: int, b: int, tau: float, w_abs: float, r: float) -> float:
    """Unique s > 0 with s^a (tau + (1-tau) w^{2b} s^{2b}) = r (tau + (1-tau) w^{2b}).

    The left side is strictly increasing in s, so a grown bracket plus
    safeguarded Newton cannot fail; s = 1 at r = 1 and s = r^{1/a} at tau = 1.
    """
    if a < 1 or b < 0:
        raise InputError("need a >= 1 and b >= 0")
    if not 0.0 <= tau <= 1.0:
        raise InputError("tau must lie in [0, 1]")
    if w_abs <= 0 or r <= 0:
        raise InputError("w_abs and r must be positive")
    if r == 1.0:
        return 1.0
    c = (1.0 - tau) * w_abs ** (2 * b)
    if b == 0 or tau == 1.0:
        return r ** (1.0 / a)
    if tau == 0.0:
        return r ** (1.0 / (a + 2 * b))
    target = r * (tau + c)

    def fn(s: float) -> float:
        return s**a * (tau + c * s ** (2 * b))

    def dfn(s: float) -> float:
        return a * s ** (a - 1) * tau + (a + 2 * b) * c * s ** (a + 2 * b - 1)

    return monotone_root(fn, target, dfn=dfn)


def radial_witness_brieskorn(
    fam: DeformationFamily,
    t: float,
    point: Sequence[complex],
    fd_step: float = 1e-6,
) -> TransversalityCertificate:
    """Constructive non-tangency witness for the brieskorn family.

    The curve xi(r) = (phi_j(r) w_j) stays in the zero set (zero coordinates
    stay zero) and d(sum |xi_j|^2)/dr at r = 1 is strictly positive; that
    derivative is the certificate margin.
    """
    if fam.spec.kind != "brieskorn":
        raise PreconditionError("radial witness requires a brieskorn family")
    poly = fam.member(t)
    w = [complex(z) for z in point]
    require_on_variety(poly, w)
    a, b = fam.spec.a, fam.spec.b
    mods = [abs(z) for z in w]

    def xi(r: float) -> tuple[complex, ...]:
        return tuple(
            z * solve_phi(a[j], b[j], t, mods[j], r) if mods[j] > 0 else 0j
            for j, z in enumerate(w)
        )

    h = fd_step
    for r in (1.0 - h, 1.0 + h):
        val = abs(evaluate(poly, xi(r)))
        if val > 10 * on_variety_tolerance(poly, w):
            raise NumericalError(f"witness curve left the variety: |f_t| = {val:.3e}")
    xp, xm = xi(1.0 + h), xi(1.0 - h)
    witness = (realify(xp) - realify(xm)) / (2 * h)
    rho_p = sum(abs(z) ** 2 for z in xp)
    rho_m = sum(abs(z) ** 2 for z in xm)
    margin = (rho_p - rho_m) / (2 * h)
    return TransversalityCertificate(
        tuple(w), float(t), "radial_witness", float(margin), margin > 0, tuple(witness)
    )


@dataclass(frozen=True)
class TypeIWitnessTrace:
    I0: tuple[int, ...]  # 1-based indices of vanishing coordinates
    J: tuple[int, ...]  # 1-based indices with nonzero monomial term
    components: tuple[tuple[int, int], ...]  # closed intervals [lo, hi], 1-based
    r_values: tuple[Optional[float], ...]  # r_j at the evaluation radius
    s_values: tuple[float, ...]  # s_j at the evaluation radius
    epsilon_flags: tuple[int, ...]  # trailing-factor exponent per index
    ends_at_last_index: tuple[bool, ...]  # per component: closed by the E_n form


@dataclass(frozen=True)
class TypeIWitnessResult:
    certificate: TransversalityCertificate
    trace: TypeIWitnessTrace


def _type_i_scales(
    fam: DeformationFamily,
    t: float,
    mods: Sequence[float],
    components: Sequence[tuple[int, int]],
    r: float,
) -> tuple[list[Optional[float]], list[float]]:
    """Downward recursion r_j = r / s_{j+1}, s_j = psi_j(r_j) per component."""
    n = fam.n
    a, b = fam.spec.a, fam.spec.b
    r_vals: list[Optional[float]] = [None] * n
    s_vals: list[float] = [1.0] * n
    for lo, hi in components:
        for j in range(hi, lo - 1, -1):
            rj = r if j == hi else r / s_vals[j + 1]
            r_vals[j] = rj
            s_vals[j] = solve_phi(a[j], b[j], t, mods[j], rj)
    return r_vals, s_vals


def type_i_witness(
    fam: DeformationFamily,
    t: float,
    point: Sequence[complex],
    r: float = 2.0,
    fd_step: float = 1e-6,
) -> TypeIWitnessResult:
    """Constructive witness for the chained family, with the full recursion trace.

    Indices with a vanishing monomial term keep s_j = 1; within each maximal
    run of nonvanishing terms the scales are solved downward starting from
    the top index.  When every term vanishes, uniform scaling of all
    coordinates is the witness.
    """
    if fam.spec.kind != "type_i":
        raise PreconditionError("type_i_witness requires a type_i family")
    if r <= 0:
        raise InputError("evaluation radius must be positive")
    poly = fam.member(t)
    w = [complex(z) for z in point]
    if len(w) != fam.n:
        raise InputError("point length mismatch")
    require_on_variety(poly, w)
    n = fam.n
    mods = [abs(z) for z in w]
    eps = tuple(1 if j < n - 1 else 0 for j in range(n))
    I0 = tuple(j + 1 for j in range(n) if mods[j] == 0)
    in_J = [mods[j] > 0 and (eps[j] == 0 or mods[j + 1] > 0) for j in range(n)]
    J = tuple(j + 1 for j in range(n) if in_J[j])

    if not J:
        # every monomial vanishes at w; uniform scaling stays in the zero set
        margin = 2.0 * sum(m * m for m in mods)
        cert = TransversalityCertificate(
            tuple(w), float(t), "radial_witness", margin, margin > 0, tuple(realify(w))
        )
        trace = TypeIWitnessTrace(I0, J, (), (None,) * n, (1.0,) * n, eps, ())
        return TypeIWitnessResult(cert, trace)

    components: list[tuple[int, int]] = []
    j = 0
    while j < n:
        if in_J[j]:
            lo = j
            while j + 1 < n and in_J[j + 1]:
                j += 1
            components.append((lo, j))
        j += 1

    def z_of(rr: float) -> tuple[complex, ...]:
        _, s_vals = _type_i_scales(fam, t, mods, components, rr)
        return tuple(s * z for s, z in zip(s_vals, w))

    r_vals, s_vals = _type_i_scales(fam, t, mods, components, r)
    val = abs(evaluate(poly, z_of(r)))
    if val > 10 * on_variety_tolerance(poly, z_of(r)):
        raise NumericalError(f"witness curve left the variety: |f_t| = {val:.3e}")

    h = fd_step
    zp, zm = z_of(1.0 + h), z_of(1.0 - h)
    witness = (realify(zp) - realify(zm)) / (2 * h)
    margin = (
        sum(abs(z) ** 2 for z in zp) - sum(abs(z) ** 2 for z in zm)
    ) / (2 * h)
    cert = TransversalityCertificate(
        tuple(w), float(t), "radial_witness", float(margin), margin > 0, tuple(witness)
    )
    trace = TypeIWitnessTrace(
        I0,
        J,
        tuple((lo + 1, hi + 1) for lo, hi in components),
        tuple(r_vals),
        tuple(s_vals),
        eps,
        tuple(hi == n - 1 for _, hi in components),
    )
    return TypeIWitnessResult(cert, trace)


@dataclass(frozen=True)
class ConjectureSearchReport:
    spec: object
    t_grid: tuple[float, ...]
    radius: float
    samples_requested: int
    samples_found: int
    sampler_failures: int
    min_margin: float
    argmin_point: tuple[complex, ...]
    argmin_t: float
    flagged: tuple[TransversalityCertificate, ...]
    seed: int
    note: str = "evidence only - open problem"


def sample_on_variety(
    poly: MixedPolynomial,
    radius: float,
    count: int,
    seed: int,
    label: str = "variety",
    attempts_per_sample: int = 5,
) -> tuple[list[tuple[complex, ...]], int]:
    """Newton-polished points on f^{-1}(0) intersected with the sphere.

    Returns (points, failure_count); each sample gets `attempts_per_sample`
    seeded random starts before counting as a failure.
    """
    if radius <= 0:
        raise InputError("radius must be positive")
    points: list[tuple[complex, ...]] = []
    failures = 0
    for k in range(count):
        found = None
        for att in range(attempts_per_sample):
            rng = rng_for(seed, f"{label}:sample:{k}:attempt:{att}")
            start = random_sphere_point(rng, poly.n, radius)
            found = newton_on_sphere(poly, 0j, radius, start)
            if found is not None:
                break
        if found is None:
            failures += 1
        else:
            points.append(found)
    return points, failures


def conjecture_search_type_ii(
    fam: DeformationFamily,
    t_grid: Sequence[float],
    radius: float,
    samples: int,
    seed: int,
    threshold: float = 1e-6,
) -> ConjectureSearchReport:
    """Rank-test sweep over sampled points of the cyclic family's zero set.

    No constructive witness exists for the cyclic chain (the downward
    recursion has no starting index when every term is nonzero), so this
    only gathers evidence for the open transversality question.
    """
    if fam.spec.kind != "type_ii":
        raise PreconditionError("conjecture search requires a type_ii family")
    if radius <= 0:
        raise InputError("radius must be positive")
    min_margin = math.inf
    argmin_point: tuple[complex, ...] = ()
    argmin_t = float("nan")
    flagged: list[TransversalityCertificate] = []
    found_total = 0
    failures_total = 0
    for ti, t in enumerate(t_grid):
        poly = fam.member(float(t))
        pts, failures = sample_on_variety(
            poly, radius, samples, seed, label=f"conj:t={ti}"
        )
        failures_total += failures
        found_total += len(pts)
        for z in pts:
            cert = rank_test(fam, float(t), z)
            if cert.margin < min_margin:
                min_margin = cert.margin
                argmin_point = cert.point
                argmin_t = float(t)
            if cert.margin < threshold:
                flagged.append(cert)
    return ConjectureSearchReport(
        spec=fam.spec,
        t_grid=tuple(float(t) for t in t_grid),
        radius=float(radius),
        samples_requested=samples * len(list(t_grid)),
        samples_found=found_total,
        sampler_failures=failures_total,
        min_margin=min_margin if found_total else float("nan"),
        argmin_point=argmin_point,
        argmin_t=argmin_t,
        flagged=tuple(flagged),
        seed=seed,
    )
