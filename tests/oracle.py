"""Reference implementations, independent of the engines in `mixed_milnor`:
evaluation and Wirtinger partials by plain loops over the monomials, the
monotone root by a scalar bracket loop, the singularity residual from those
partials, the connection velocity by a batched SVD of the constraint rows,
and the polar action by Python's complex power and product, one coordinate
at a time.  Tests compare the engines against these."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from mixed_milnor.core import MixedPolynomial, sum_leading
from mixed_milnor.errors import InputError, NumericalError
from mixed_milnor.isotopy import _cutoff


@dataclass(frozen=True)
class WirtingerGradient:
    d_z: tuple[complex, ...]
    d_zbar: tuple[complex, ...]


@dataclass(frozen=True)
class SingularityResidualReport:
    point: tuple[complex, ...]
    t: Optional[float]
    residual: float
    lambda_star: Optional[complex]
    on_variety: float


def _check_point(poly: MixedPolynomial, point: Sequence[complex]) -> list[complex]:
    pt = [complex(w) for w in point]
    if len(pt) != poly.n:
        raise InputError(f"point has length {len(pt)}, expected {poly.n}")
    return pt


def evaluate(poly: MixedPolynomial, point: Sequence[complex]) -> complex:
    """Evaluate sum c_i z^{nu_i} zbar^{mu_i} at the given point."""
    pt = _check_point(poly, point)
    conj = [w.conjugate() for w in pt]
    total = 0j
    for mono in poly.monomials:
        term = mono.coefficient
        for j in range(poly.n):
            if mono.nu[j]:
                term *= pt[j] ** mono.nu[j]
            if mono.mu[j]:
                term *= conj[j] ** mono.mu[j]
        total += term
    return total


def wirtinger_gradient(poly: MixedPolynomial, point: Sequence[complex]) -> WirtingerGradient:
    """Formal partials treating z and zbar as independent variables."""
    pt = _check_point(poly, point)
    conj = [w.conjugate() for w in pt]
    d_z = [0j] * poly.n
    d_zbar = [0j] * poly.n
    for mono in poly.monomials:
        # Factor values z_j^nu_j and zbar_j^mu_j, reused for each partial.
        zpow = [pt[j] ** mono.nu[j] if mono.nu[j] else 1.0 + 0j for j in range(poly.n)]
        cpow = [conj[j] ** mono.mu[j] if mono.mu[j] else 1.0 + 0j for j in range(poly.n)]
        base = mono.coefficient
        for j in range(poly.n):
            rest = base
            for k in range(poly.n):
                if k != j:
                    rest *= zpow[k] * cpow[k]
            if mono.nu[j]:
                d_z[j] += rest * mono.nu[j] * pt[j] ** (mono.nu[j] - 1) * cpow[j]
            if mono.mu[j]:
                d_zbar[j] += rest * mono.mu[j] * conj[j] ** (mono.mu[j] - 1) * zpow[j]
    return WirtingerGradient(tuple(d_z), tuple(d_zbar))


def monotone_root(
    fn: Callable[[float], float],
    target: float,
    lo: float = 1.0,
    hi: Optional[float] = None,
    dfn: Optional[Callable[[float], float]] = None,
    rel_tol: float = 1e-14,
    max_iter: int = 200,
) -> float:
    """Root of fn(s) = target for strictly increasing fn on s > 0.

    The bracket is grown geometrically from `lo` (and `hi` when given), then
    refined by safeguarded Newton steps on dfn, bisecting where a step would
    leave the bracket; without dfn every step bisects.
    """
    if hi is None:
        hi = lo
    flo, fhi = fn(lo), fn(hi)
    grow = 0
    while flo > target:
        lo *= 0.5
        flo = fn(lo)
        grow += 1
        if grow > 2000:
            raise NumericalError("monotone_root: failed to bracket from below")
    grow = 0
    while fhi < target:
        hi *= 2.0
        fhi = fn(hi)
        grow += 1
        if grow > 2000:
            raise NumericalError("monotone_root: failed to bracket from above")
    if flo == target:
        return lo
    if fhi == target:
        return hi
    s = 0.5 * (lo + hi)
    for _ in range(max_iter):
        fs = fn(s)
        if fs < target:
            lo = s
        else:
            hi = s
        if hi - lo <= rel_tol * max(1.0, abs(hi)):
            break
        step_ok = False
        if dfn is not None:
            d = dfn(s)
            if d > 0:
                cand = s + (target - fs) / d
                if lo < cand < hi:
                    s = cand
                    step_ok = True
        if not step_ok:
            s = 0.5 * (lo + hi)
    return 0.5 * (lo + hi)


def singularity_residual(
    poly: MixedPolynomial, point: Sequence[complex], t: Optional[float] = None
) -> SingularityResidualReport:
    """min over |lambda|=1 of || conj(d_z f) - lambda d_zbar f ||.

    With u = conj(d_z f), v = d_zbar f the minimum is
    sqrt(||u||^2 + ||v||^2 - 2 |<u, v>|), attained at lambda = phase <u, v>.
    """
    grad = wirtinger_gradient(poly, point)
    u = np.conj(np.asarray(grad.d_z))
    v = np.asarray(grad.d_zbar)
    inner = complex(np.sum(u * np.conj(v)))
    uu = float(np.sum(np.abs(u) ** 2))
    vv = float(np.sum(np.abs(v) ** 2))
    residual = math.sqrt(max(0.0, uu + vv - 2.0 * abs(inner)))
    if np.any(v != 0):
        lam = inner / abs(inner) if inner != 0 else 1.0 + 0j
    else:
        lam = None
        residual = math.sqrt(uu)
    return SingularityResidualReport(
        tuple(complex(z) for z in point),
        t,
        residual,
        lam,
        abs(evaluate(poly, point)),
    )


def connection_velocity(x: np.ndarray, r: np.ndarray, tube, jet) -> np.ndarray:
    """The minimum-norm connection velocity at the rows of x (K x 2n) of norms
    r, from `jet` = (f_t, real Jacobian rows, d f_t / dt) at those rows, by
    one batched SVD of the constraint rows [x / r; grad Re f_t; grad Im f_t].
    A row with a non-finite constraint row gets a NaN velocity."""
    value, J, dft = jet
    level = np.hypot(value.real, value.imag)
    inside = level <= tube.tube_level
    c = 1.0 if inside.all() else _cutoff(level, tube.tube_level)
    # constraint rows: the sphere normal, then grad Re f_t and grad Im f_t
    A = np.empty((len(x), 3, x.shape[1]))
    A[:, 0] = x / r[:, None]
    A[:, 1:] = J
    ok = np.isfinite(A).all(axis=(1, 2))
    v = np.full_like(x, np.nan)
    U, S, Vt = np.linalg.svd(A[ok], full_matrices=False)
    # v = A^T (A A^T + 1e-14)^-1 b = V S (S^2 + 1e-14)^-1 U^T b with
    # b = (0, -c dft): zero where the cutoff c is
    b1, b2 = (-c * dft.real)[ok], (-c * dft.imag)[ok]
    w = (U[:, 1] * b1[:, None] + U[:, 2] * b2[:, None]) * (S / (S * S + 1e-14))
    v[ok] = sum_leading((w[:, :, None] * Vt).swapaxes(0, 1))
    return v


def polar_action(
    P: Sequence[int], lam: complex, point: Sequence[complex], tol: float = 1e-12
) -> tuple[complex, ...]:
    """Componentwise z_j * lam^{p_j} for unimodular lam."""
    lam = complex(lam)
    if abs(abs(lam) - 1.0) > tol:
        raise InputError(f"lambda must be unimodular, got |lambda| = {abs(lam)!r}")
    if len(P) != len(point):
        raise InputError("weight vector and point length mismatch")
    return tuple(complex(z) * lam ** int(p) for z, p in zip(point, P))
