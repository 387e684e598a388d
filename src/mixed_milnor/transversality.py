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

from .core import MixedPolynomial, evaluate, polynomial_arrays, value_and_gradient_batch
from .errors import InputError, NumericalError, PreconditionError
from .families import DeformationFamily
from .numerics import (
    level_tolerance,
    monotone_root,
    newton_on_sphere_batch,
    on_variety_tolerance,
    real_jacobian,
    realify,
    require_on_variety,
    rng_for,
    row_norm,
)

DEFAULT_MARGIN_THRESHOLD = 1e-9
# the radius at which a witness evaluates its curve (and the chained witness
# records its trace) to check that the curve stays in the variety
WITNESS_RADIUS = 2.0


@dataclass(frozen=True)
class TransversalityCertificate:
    point: tuple[complex, ...]
    t: float
    method: str  # "rank_test" | "radial_witness"
    margin: float
    transverse: bool
    witness_vector: Optional[tuple[float, ...]] = None


def rank_margins(
    fam: DeformationFamily, t: float, points: Sequence[Sequence[complex]]
) -> np.ndarray:
    """Smallest singular value of [w; grad Re f_t; grad Im f_t], rows
    unit-normalized, at every point of a batch: one batched Jacobian and one
    batched SVD.  The margin is 0 where a row vanishes.

    Every point must lie on the variety f_t = 0 and away from the origin.
    """
    poly = fam.member(t)
    z = np.array(points, dtype=complex)
    if not z.size:
        return np.zeros(0)
    if z.ndim != 2 or z.shape[1] != fam.n:
        raise InputError(f"points of shape {z.shape} do not fit {fam.n} variables")
    x = z.view(float)
    value, d_z, d_zbar = value_and_gradient_batch(polynomial_arrays([poly]), z[None])
    nrm = row_norm(x)
    tol = level_tolerance(poly, nrm)
    off = np.abs(value[0]) > tol
    if off.any():
        i = int(np.argmax(off))
        raise PreconditionError(
            f"point {i} is off the variety f_t = 0 at t={t!r}: |f| = {abs(value[0, i]):.3e}"
            f" (tolerance {tol[i]:.3e})"
        )
    if (nrm == 0).any():
        raise PreconditionError(
            f"rank test is undefined at the origin (point {int(np.argmax(nrm == 0))})"
        )
    rows = np.empty((len(x), 3, x.shape[1]))
    rows[:, 0] = x
    rows[:, 1:] = real_jacobian(d_z[0], d_zbar[0])
    norms = row_norm(rows)
    full = (norms > 0).all(axis=1)
    margins = np.zeros(len(x))
    if full.any():
        unit = rows[full] / norms[full][:, :, None]
        margins[full] = np.linalg.svd(unit, compute_uv=False)[:, -1]
    return margins


def rank_test(
    fam: DeformationFamily,
    t: float,
    point: Sequence[complex],
    threshold: float = DEFAULT_MARGIN_THRESHOLD,
) -> TransversalityCertificate:
    """Smallest singular value of [w; grad Re f; grad Im f], rows unit-normalized:
    the one-point case of `rank_margins`."""
    margin = float(rank_margins(fam, t, [point])[0])
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


def _phi_slope(a: int, b: int, tau: float, w_abs: float) -> float:
    """d solve_phi / dr at r = 1, where solve_phi = 1: implicit differentiation
    of s^a (tau + c s^{2b}) = r (tau + c) with c = (1-tau) w^{2b}.  The cases
    that solve_phi takes in closed form stay exact when c underflows."""
    if b == 0 or tau == 1.0:
        return 1.0 / a
    if tau == 0.0:
        return 1.0 / (a + 2 * b)
    c = (1.0 - tau) * w_abs ** (2 * b)
    return (tau + c) / (a * tau + (a + 2 * b) * c)


def _require_curve_on_variety(poly: MixedPolynomial, z: Sequence[complex]) -> None:
    val = abs(evaluate(poly, z))
    if val > 10 * on_variety_tolerance(poly, z):
        raise NumericalError(f"witness curve left the variety: |f_t| = {val:.3e}")


def _radial_certificate(
    w: Sequence[complex], t: float, mods: Sequence[float], slopes: Sequence[float]
) -> TransversalityCertificate:
    """The witness xi'(1) = (s_j' w_j) and its margin d ||xi||^2 / dr at r = 1.

    Transverse means margin > DEFAULT_MARGIN_THRESHOLD * ||w||^2: the margin
    scales as ||w||^2, so the rank test's threshold applies at any scale."""
    margin = 2.0 * sum(m * m * d for m, d in zip(mods, slopes))
    transverse = margin > DEFAULT_MARGIN_THRESHOLD * sum(m * m for m in mods)
    witness = realify([d * z for d, z in zip(slopes, w)])
    return TransversalityCertificate(
        tuple(w), float(t), "radial_witness", margin, transverse, tuple(witness.tolist())
    )


def radial_witness_brieskorn(
    fam: DeformationFamily,
    t: float,
    point: Sequence[complex],
) -> TransversalityCertificate:
    """Constructive non-tangency witness for the brieskorn family.

    The curve xi(r) = (phi_j(r) w_j) stays in the zero set (zero coordinates
    stay zero) and d(sum |xi_j|^2)/dr at r = 1 = 2 sum |w_j|^2 phi_j'(1) is
    strictly positive; that derivative is the certificate margin.  The curve
    is evaluated once, at r = WITNESS_RADIUS, to check that it stays inside.
    """
    if fam.spec.kind != "brieskorn":
        raise PreconditionError("radial witness requires a brieskorn family")
    poly = fam.member(t)
    w = [complex(z) for z in point]
    require_on_variety(poly, w)
    a, b = fam.spec.a, fam.spec.b
    mods = [abs(z) for z in w]
    _require_curve_on_variety(
        poly,
        [
            z * solve_phi(a[j], b[j], t, mods[j], WITNESS_RADIUS) if mods[j] > 0 else 0j
            for j, z in enumerate(w)
        ],
    )
    slopes = [_phi_slope(a[j], b[j], t, m) if m > 0 else 0.0 for j, m in enumerate(mods)]
    return _radial_certificate(w, t, mods, slopes)


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
) -> tuple[list[Optional[float]], list[float], list[float]]:
    """Downward recursion r_j = r / s_{j+1}, s_j = phi_j(r_j) per component,
    with the slopes s_j'(1) = phi_j'(1) (1 - s_{j+1}'(1)) of the same chain."""
    n = fam.n
    a, b = fam.spec.a, fam.spec.b
    r_vals: list[Optional[float]] = [None] * n
    s_vals: list[float] = [1.0] * n
    slopes: list[float] = [0.0] * n
    for lo, hi in components:
        for j in range(hi, lo - 1, -1):
            rj = r if j == hi else r / s_vals[j + 1]
            r_vals[j] = rj
            s_vals[j] = solve_phi(a[j], b[j], t, mods[j], rj)
            inner = 1.0 if j == hi else 1.0 - slopes[j + 1]
            slopes[j] = _phi_slope(a[j], b[j], t, mods[j]) * inner
    return r_vals, s_vals, slopes


def type_i_witness(
    fam: DeformationFamily,
    t: float,
    point: Sequence[complex],
    r: float = WITNESS_RADIUS,
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
        cert = _radial_certificate(w, t, mods, [1.0] * n)
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

    r_vals, s_vals, slopes = _type_i_scales(fam, t, mods, components, r)
    _require_curve_on_variety(poly, [s * z for s, z in zip(s_vals, w)])
    cert = _radial_certificate(w, t, mods, slopes)
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
    sampler_failures_per_t: tuple[int, ...]
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

    Returns (points, failure_count), the points in sample order.  Sample k
    gets up to `attempts_per_sample` random starts, attempt att drawn from
    the stream "{label}:sample:{k}:attempt:{att}", before counting as a
    failure.  Each attempt index is one lockstep Newton batch over the
    samples still pending.
    """
    if radius <= 0:
        raise InputError("radius must be positive")
    points = np.zeros((count, poly.n), dtype=complex)
    found = np.zeros(count, dtype=bool)
    pending = np.arange(count)
    for att in range(attempts_per_sample):
        if not pending.size:
            break
        starts = np.array(
            [
                rng_for(seed, f"{label}:sample:{k}:attempt:{att}").standard_normal(2 * poly.n)
                for k in pending
            ]
        )
        pts, hit = newton_on_sphere_batch(poly, 0j, radius, starts.view(complex))
        points[pending[hit]], found[pending[hit]] = pts[hit], True
        pending = pending[~hit]
    return [tuple(z) for z in points[found].tolist()], int(pending.size)


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
    grid = tuple(float(t) for t in t_grid)
    min_margin = math.inf
    argmin_point: tuple[complex, ...] = ()
    argmin_t = float("nan")
    flagged: list[TransversalityCertificate] = []
    found_total = 0
    failures: list[int] = []
    for ti, t in enumerate(grid):
        pts, missed = sample_on_variety(
            fam.member(t), radius, samples, seed, label=f"conj:t={ti}"
        )
        failures.append(missed)
        found_total += len(pts)
        for z, margin in zip(pts, rank_margins(fam, t, pts).tolist()):
            if margin < min_margin:
                min_margin, argmin_point, argmin_t = margin, z, t
            if margin < threshold:
                flagged.append(
                    TransversalityCertificate(
                        z, t, "rank_test", margin, margin > DEFAULT_MARGIN_THRESHOLD
                    )
                )
    return ConjectureSearchReport(
        spec=fam.spec,
        t_grid=grid,
        radius=float(radius),
        samples_requested=samples * len(grid),
        samples_found=found_total,
        sampler_failures=sum(failures),
        sampler_failures_per_t=tuple(failures),
        min_margin=min_margin if found_total else float("nan"),
        argmin_point=argmin_point,
        argmin_t=argmin_t,
        flagged=tuple(flagged),
        seed=seed,
    )


METHODS = ("rank", "witness", "both")


@dataclass(frozen=True)
class TransversalitySweep:
    method: str
    radius: float
    t_grid: tuple[float, ...]
    samples_per_t: int
    sampler_failures: int
    sampler_failures_per_t: tuple[int, ...]
    # one report entry per sampled point: t, point, then rank_margin and
    # rank_transverse and/or witness_margin, witness_transverse,
    # witness_vector (and the recursion trace for the chained kind)
    certificates: tuple[dict, ...]
    min_margin: Optional[float]
    all_transverse: bool


def _witness_entry(fam: DeformationFamily, t: float, point: tuple[complex, ...]) -> dict:
    if fam.spec.kind == "brieskorn":
        cert, trace = radial_witness_brieskorn(fam, t, point), None
    else:
        res = type_i_witness(fam, t, point)
        cert, trace = res.certificate, res.trace
    entry = {
        "witness_margin": cert.margin,
        "witness_transverse": cert.transverse,
        "witness_vector": cert.witness_vector,
    }
    if trace is not None:
        names = ("I0", "J", "components", "r_values", "s_values", "epsilon_flags")
        entry["trace"] = {name: getattr(trace, name) for name in names}
    return entry


def check_transversality(
    fam: DeformationFamily,
    t_grid: Sequence[float],
    radius: float,
    samples: int,
    seed: int,
    method: str = "rank",
) -> TransversalitySweep:
    """Sample `samples` points of V_t on the sphere at every t of the grid and
    certify each by the rank test, the constructive witness or both.

    The points at grid index ti come from `sample_on_variety` with the label
    "ct:t={ti}".  `all_transverse` needs at least one certificate, and every
    certificate transverse by every method run.
    """
    if method not in METHODS:
        raise InputError(f"method must be one of {METHODS}, got {method!r}")
    rank = method in ("rank", "both")
    witness = method in ("witness", "both")
    if witness and fam.spec.kind not in ("brieskorn", "type_i"):
        raise InputError(
            f"no constructive witness is offered for {fam.spec.kind} (open problem)"
        )
    grid = tuple(float(t) for t in t_grid)
    certificates = []
    failures = []
    for ti, t in enumerate(grid):
        pts, missed = sample_on_variety(fam.member(t), radius, samples, seed, label=f"ct:t={ti}")
        failures.append(missed)
        margins = rank_margins(fam, t, pts).tolist() if rank else [None] * len(pts)
        for z, margin in zip(pts, margins):
            entry = {"t": t, "point": z}
            if rank:
                entry.update(
                    rank_margin=margin, rank_transverse=margin > DEFAULT_MARGIN_THRESHOLD
                )
            if witness:
                entry.update(_witness_entry(fam, t, z))
            certificates.append(entry)
    margins = [e[k] for e in certificates for k in ("rank_margin", "witness_margin") if k in e]
    return TransversalitySweep(
        method=method,
        radius=float(radius),
        t_grid=grid,
        samples_per_t=samples,
        sampler_failures=sum(failures),
        sampler_failures_per_t=tuple(failures),
        certificates=tuple(certificates),
        min_margin=min(margins, default=None),
        all_transverse=bool(certificates)
        and all(
            e.get("rank_transverse", True) and e.get("witness_transverse", True)
            for e in certificates
        ),
    )
