"""Reference implementations, independent of the engines in `mixed_milnor`:
evaluation and Wirtinger partials by plain loops over the monomials, the
batched kernel over the dense grid of monomials and variables, the real
Jacobian and the shell residual terms from complex partials, the monotone
root by a scalar bracket loop, the singularity residual from those partials,
the connection velocity by a batched SVD of the constraint rows, and the
polar action by Python's complex power and product, one coordinate at a
time.  Tests compare the engines against these."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from mixed_milnor.core import MixedPolynomial, PolynomialArrays, _cmul, sum_leading
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


@dataclass(frozen=True)
class _DenseLayout:
    """Index and exponent arrays the dense kernel derives from N and M."""

    top: int  # highest exponent
    # rows (e * n + j) of the power table holding z_j^e for the exponents
    # e = N[i, j], M[i, j] (in that order along the first axis) ...
    power_rows: np.ndarray  # 2 x m x n
    # ... and for e = N[i, j] - 1, M[i, j] - 1 (floored at 0)
    lowered_rows: np.ndarray  # 2 x m x n
    weights: np.ndarray  # 2 x m x n: N, M as floats, the factors of the partials
    others: tuple[np.ndarray, ...]  # others[p][j]: the p-th index k != j


def _dense_layout(N: np.ndarray, M: np.ndarray) -> _DenseLayout:
    n = N.shape[1]
    powers = np.stack([N, M])
    cols = np.arange(n)
    others = [[k for k in range(n) if k != j] for j in range(n)]
    return _DenseLayout(
        top=int(powers.max(initial=0)),
        power_rows=powers * n + cols,
        lowered_rows=np.maximum(powers - 1, 0) * n + cols,
        weights=powers.astype(float),
        others=tuple(np.array([row[p] for row in others]) for p in range(n - 1)),
    )


def dense_value_and_gradient_batch(
    arrays: PolynomialArrays, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The batched kernel over the full m x n grid of monomials and variables,
    each absent variable a factor 1 and a zero partial term:
    (f, d_z f, d_zbar f) at a K x ... x n complex array of points, where
    the points z[k] belong to polynomial k.  The partials have the shape of z,
    the values that shape without its last axis.

    z_j^(e-1) is raised directly, never formed as z_j^e / z_j, so the partials
    stay exact at zero coordinates.
    """
    z = np.asarray(z, dtype=complex)
    m, n = arrays.N.shape
    if z.ndim < 2 or z.shape[0] != arrays.C.shape[0] or z.shape[-1] != n:
        raise InputError(
            f"points of shape {z.shape} do not fit {arrays.C.shape[0]} polynomials"
            f" in {n} variables"
        )
    if m == 0:
        return np.zeros(z.shape[:-1], dtype=complex), np.zeros_like(z), np.zeros_like(z)
    layout = _dense_layout(arrays.N, arrays.M)
    batch = z.shape[:-1]
    extra = (1,) * (z.ndim - 1)
    # table[p, j] = z_j ** p by repeated multiplication, one row per (p, j)
    zt = z.transpose((z.ndim - 1,) + tuple(range(z.ndim - 1)))
    pr = np.empty((max(layout.top, 1) + 1, n) + batch)
    pi = np.empty_like(pr)
    pr[0], pi[0] = 1.0, 0.0
    pr[1], pi[1] = zt.real, zt.imag
    for p in range(2, layout.top + 1):
        _cmul((pr[p - 1], pi[p - 1]), (pr[1], pi[1]), out=(pr[p], pi[p]))
    pr, pi = pr.reshape((len(pr) * n,) + batch), pi.reshape((len(pi) * n,) + batch)
    conj = np.array([1.0, -1.0]).reshape((2, 1, 1) + extra)

    def power(rows: np.ndarray) -> tuple:
        """z_j ** E[0, i, j] and zbar_j ** E[1, i, j] as 2 x m x n x K x ... arrays,
        where rows = E * n + j."""
        return pr[rows], pi[rows] * conj

    zr, zi = power(layout.power_rows)
    # factor[i, j] = z_j^N[i, j] zbar_j^M[i, j]
    fr, fi = _cmul((zr[0], zi[0]), (zr[1], zi[1]))
    # rest[i, j] = c_i * prod_{k != j} factor[i, k], multiplied in increasing k
    coef = arrays.C.T.reshape((m, 1) + z.shape[:1] + (1,) * (z.ndim - 2))
    rest = coef.real, coef.imag
    if n == 1:
        rest = np.broadcast_to(rest[0], fr.shape), np.broadcast_to(rest[1], fr.shape)
    for k in layout.others:
        rest = _cmul(rest, (fr[:, k], fi[:, k]))
    vr, vi = _cmul((rest[0][:, -1], rest[1][:, -1]), (fr[:, -1], fi[:, -1]))
    value = np.empty(z.shape[:-1], dtype=complex)
    value.real, value.imag = sum_leading(vr), sum_leading(vi)
    # d_z: rest * z^(N-1) * zbar^M * N;  d_zbar: rest * zbar^(M-1) * z^N * M
    dr, di = _cmul(_cmul(rest, power(layout.lowered_rows)), (zr[::-1], zi[::-1]))
    weights = layout.weights.reshape(layout.weights.shape + extra)
    dr *= weights
    di *= weights
    d = np.empty((2, n) + z.shape[:-1], dtype=complex)
    d.real, d.imag = sum_leading(dr.swapaxes(0, 1)), sum_leading(di.swapaxes(0, 1))
    back = tuple(range(1, z.ndim)) + (0,)
    return value, d[0].transpose(back), d[1].transpose(back)


def complex_partials(result: tuple) -> tuple:
    """(f, d_z f, d_zbar f) from a kernel result (f, re, im): the partial
    planes (2 x n x K x ...) rebuilt as complex(re, im), as K x ... x n arrays."""
    value, re, im = result
    d = np.empty(re.shape, dtype=complex)
    d.real, d.imag = re, im
    back = tuple(range(1, re.ndim - 1)) + (0,)
    return value, d[0].transpose(back), d[1].transpose(back)


def real_jacobian(d_z: np.ndarray, d_zbar: np.ndarray) -> np.ndarray:
    """K x 2 x 2n real Jacobians from K x n Wirtinger partials: row 0 is the
    gradient of Re f, row 1 that of Im f, in (x_1, y_1, ..., x_n, y_n)."""
    plus, minus = d_z + d_zbar, d_z - d_zbar
    J = np.empty((len(d_z), 2, 2 * d_z.shape[1]))
    J[:, 0, 0::2] = plus.real
    J[:, 0, 1::2] = -minus.imag
    J[:, 1, 0::2] = plus.imag
    J[:, 1, 1::2] = minus.real
    return J


def residual_terms(d_z: np.ndarray, d_zbar: np.ndarray) -> tuple:
    """(uu + vv - 2 |<u, v>| floored at zero, uu, re, im) from the Wirtinger
    partials (... x n), where re + i im = sum_j d_z f * d_zbar f; sums run in
    a fixed order (see core).  An overflowed residual (inf - inf) stays NaN:
    it must not read as a singular point."""
    uu = vv = re = im = 0.0
    for j in range(d_z.shape[-1]):
        a, b = d_z[..., j], d_zbar[..., j]
        uu = uu + (a.real * a.real + a.imag * a.imag)
        vv = vv + (b.real * b.real + b.imag * b.imag)
        re = re + (a.real * b.real - a.imag * b.imag)
        im = im + (a.real * b.imag + a.imag * b.real)
    # scaled modulus: re * re would underflow where |<u, v>| itself does not
    big = np.maximum(np.abs(re), np.abs(im))
    ratio = np.minimum(np.abs(re), np.abs(im)) / np.where(big > 0, big, 1.0)
    return np.maximum(uu + vv - 2.0 * big * np.sqrt(1.0 + ratio * ratio), 0.0), uu, re, im


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
