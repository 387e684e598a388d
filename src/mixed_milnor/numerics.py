"""Shared numerical machinery: monotone root finding, seeded RNG streams,
real/complex coordinate shuffling, the on-variety check and on-sphere Newton
solving."""

from __future__ import annotations

import hashlib
import math
from typing import Callable, Optional, Sequence

import numpy as np

from .core import MixedPolynomial, evaluate, wirtinger_gradient
from .errors import InputError, NumericalError, PreconditionError


def rng_for(seed: int, label: str) -> np.random.Generator:
    """Independent deterministic stream derived from (seed, label).

    Labels are stable strings like "restart:17"; the derivation hashes the
    label so parallel execution order cannot affect any stream.
    """
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 4], "big") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence([int(seed) & (2**64 - 1), *words]))


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
    refined by bisection safeguarded Newton (secant when dfn is None).
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


def realify(point: Sequence[complex]) -> np.ndarray:
    """(z_1..z_n) -> (x_1, y_1, ..., x_n, y_n)."""
    pt = np.asarray(point, dtype=complex)
    out = np.empty(2 * pt.size)
    out[0::2] = pt.real
    out[1::2] = pt.imag
    return out


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot product over the last axis, in a fixed order."""
    total = a[..., 0] * b[..., 0]
    for j in range(1, a.shape[-1]):
        total = total + a[..., j] * b[..., j]
    return total


def row_norm(x: np.ndarray) -> np.ndarray:
    return np.sqrt(row_dot(x, x))


def complexify(x: np.ndarray) -> tuple[complex, ...]:
    x = np.asarray(x, dtype=float)
    return tuple(complex(a, b) for a, b in zip(x[0::2], x[1::2]))


def real_jacobian_rows(poly: MixedPolynomial, point: Sequence[complex]) -> np.ndarray:
    """2 x 2n rows: gradients of Re f and Im f in (x_1,y_1,...) coordinates."""
    grad = wirtinger_gradient(poly, point)
    n = poly.n
    rows = np.empty((2, 2 * n))
    for j in range(n):
        dx = grad.d_z[j] + grad.d_zbar[j]
        dy = 1j * (grad.d_z[j] - grad.d_zbar[j])
        rows[0, 2 * j] = dx.real
        rows[0, 2 * j + 1] = dy.real
        rows[1, 2 * j] = dx.imag
        rows[1, 2 * j + 1] = dy.imag
    return rows


def on_variety_tolerance(poly: MixedPolynomial, point: Sequence[complex]) -> float:
    nrm = math.sqrt(sum(abs(z) ** 2 for z in point))
    return 1e-8 * (1.0 + nrm ** poly.max_degree)


def require_on_variety(
    poly: MixedPolynomial, point: Sequence[complex], level: float = 0.0
) -> None:
    """Raise PreconditionError unless |f(point)| = level within on_variety_tolerance."""
    val = abs(evaluate(poly, point))
    tol = on_variety_tolerance(poly, point)
    if abs(val - level) > tol:
        raise PreconditionError(
            f"point is off the level set |f| = {level!r}: |f| = {val:.3e} "
            f"(tolerance {tol:.3e})"
        )


def newton_on_sphere(
    poly: MixedPolynomial,
    target: complex,
    radius: float,
    start: Sequence[complex],
    tol: float = 1e-12,
    max_iter: int = 60,
) -> Optional[tuple[complex, ...]]:
    """Solve f(z) = target constrained to the sphere ||z|| = radius.

    Tangentially projected Newton from `start`; returns None when the
    iteration fails to reach |f - target| <= tol * (1 + |target|).
    """
    if radius <= 0:
        raise InputError("radius must be positive")
    x = realify(start)
    nrm = np.linalg.norm(x)
    if nrm == 0:
        return None
    x *= radius / nrm
    goal = tol * (1.0 + abs(target))
    for _ in range(max_iter):
        z = complexify(x)
        val = evaluate(poly, z) - target
        if abs(val) <= goal:
            return z
        J = real_jacobian_rows(poly, z)
        xhat = x / radius
        Jt = J - np.outer(J @ xhat, xhat)  # restrict to sphere tangent space
        G = Jt @ Jt.T
        G[np.diag_indices_from(G)] += 1e-300
        try:
            coef = np.linalg.solve(G + 1e-14 * np.eye(2), -np.array([val.real, val.imag]))
        except np.linalg.LinAlgError:
            return None
        step = Jt.T @ coef
        if not np.all(np.isfinite(step)):
            return None
        x = x + step
        nrm = np.linalg.norm(x)
        if nrm == 0:
            return None
        x *= radius / nrm
    z = complexify(x)
    if abs(evaluate(poly, z) - target) <= goal:
        return z
    return None


def random_sphere_point(rng: np.random.Generator, n: int, radius: float) -> tuple[complex, ...]:
    x = rng.standard_normal(2 * n)
    x *= radius / np.linalg.norm(x)
    return complexify(x)
