"""Shared numerical machinery: monotone root finding, seeded RNG streams,
real/complex coordinate shuffling, real Jacobians, the on-variety check and
lockstep on-sphere Newton solving."""

from __future__ import annotations

import hashlib
import math
from typing import Callable, Optional, Sequence

import numpy as np

from .core import MixedPolynomial, polynomial_arrays, value_and_gradient_batch, wirtinger_gradient
from .errors import InputError, NumericalError, PreconditionError


# numpy's SeedSequence constants (INIT_A, MULT_A, INIT_B, MULT_B, MIX_MULT_L,
# MIX_MULT_R) and PCG64's 128-bit LCG multiplier
_HASH = (0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED, 0xCA01F9DD, 0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def stream_states(seed: int, labels: Sequence[str]) -> list[dict]:
    """The PCG64 states of the streams rng_for(seed, label), for every label in
    one vectorized pass: numpy's SeedSequence([seed mod 2^64, w_0..w_3]), w the
    first four big-endian words of the label's SHA-256, mixed over a K x E
    uint32 entropy array (pool of four words), then PCG64's seeding step
    state = ((inc + initstate) * MULT + inc) mod 2^128, inc = 2 initseq + 1."""
    s = int(seed) % 2**64
    digests = b"".join(hashlib.sha256(label.encode("utf-8")).digest()[:16] for label in labels)
    words = np.frombuffer(digests, dtype=">u4").reshape(-1, 4).T.astype(np.uint32)
    head = [s % 2**32, s >> 32] if s >> 32 else [s]
    entropy = [np.full(len(labels), w, np.uint32) for w in head]

    def hasher(const, mult):
        def hashmix(v):
            nonlocal const
            v = (v ^ const) * (const := const * mult % 2**32)
            return v ^ (v >> 16)

        return hashmix

    def mix(x, y):
        return (r := x * _HASH[4] - y * _HASH[5]) ^ (r >> 16)

    hashmix, entropy = hasher(*_HASH[:2]), entropy + list(words)
    pool = [hashmix(e) for e in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for e in entropy[4:]:
        pool = [mix(p, hashmix(e)) for p in pool]
    out = hasher(*_HASH[2:4])
    u = [out(pool[i % 4]).astype(object) for i in range(8)]  # little-endian uint64 pairs
    inc = ((u[4] | u[5] << 32) << 65 | (u[6] | u[7] << 32) << 1 | 1) % 2**128
    state = (((u[0] | u[1] << 32) << 64 | u[2] | u[3] << 32) + inc) * _PCG_MULT + inc
    return [
        {"bit_generator": "PCG64", "state": {"state": a, "inc": b}, "has_uint32": 0, "uinteger": 0}
        for a, b in zip((state % 2**128).tolist(), inc.tolist())
    ]


def rng_streams(seed: int, labels: Sequence[str]) -> list[np.random.Generator]:
    """rng_for(seed, label) for every label, from one `stream_states` pass."""
    rngs = [np.random.Generator(np.random.PCG64(0)) for _ in labels]
    for rng, state in zip(rngs, stream_states(seed, labels)):
        rng.bit_generator.state = state
    return rngs


def rng_for(seed: int, label: str) -> np.random.Generator:
    """Independent deterministic stream derived from (seed, label).

    Labels are stable strings like "restart:17"; the derivation hashes the
    label so parallel execution order cannot affect any stream.
    """
    return rng_streams(seed, [label])[0]


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


def monotone_roots(fn: Callable, dfn: Callable, target: np.ndarray) -> np.ndarray:
    """`monotone_root` from lo = hi = 1 with Newton steps dfn, in lockstep: the
    root of fn(s, k) = target[k] for each row k, where fn and dfn take points
    s and their rows k.  A row leaves as it converges, its root its own."""
    lo = np.ones(len(target))
    flo = fn(lo, np.arange(len(lo)))
    hi, fhi = lo.copy(), flo.copy()
    grow = ((lo, flo, 0.5, np.greater, "below"), (hi, fhi, 2.0, np.less, "above"))
    for x, fx, factor, out, side in grow:
        k = np.flatnonzero(out(fx, target))
        for _ in range(2000):
            if not k.size:
                break
            x[k] *= factor
            fx[k] = fn(x[k], k)
            k = k[out(fx[k], target[k])]
        if k.size:
            raise NumericalError(f"monotone_root: failed to bracket from {side}")
    root = np.where(flo == target, lo, hi)
    k = np.flatnonzero((flo != target) & (fhi != target))
    lo, hi, goal = lo[k], hi[k], target[k]
    s = 0.5 * (lo + hi)
    for _ in range(200):
        fs = fn(s, k)
        lo, hi = np.where(fs < goal, s, lo), np.where(fs < goal, hi, s)
        done = hi - lo <= 1e-14 * np.maximum(1.0, np.abs(hi))
        root[k[done]] = 0.5 * (lo + hi)[done]
        k, s, fs, lo, hi, goal = (v[~done] for v in (k, s, fs, lo, hi, goal))
        if not k.size:
            break
        d = dfn(s, k)
        cand = s + (goal - fs) / d
        s = np.where((d > 0) & (lo < cand) & (cand < hi), cand, 0.5 * (lo + hi))
    root[k] = 0.5 * (lo + hi)
    return root


def realify(point: Sequence[complex]) -> np.ndarray:
    """(z_1..z_n) -> (x_1, y_1, ..., x_n, y_n)."""
    pt = np.asarray(point, dtype=complex)
    out = np.empty(2 * pt.size)
    out[0::2] = pt.real
    out[1::2] = pt.imag
    return out


def point_rows(points, n: int) -> np.ndarray:
    """Points as a K x n complex array; an empty sequence gives K = 0."""
    try:
        z = np.array(points, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise InputError(f"points must form a K x {n} array of complex numbers: {exc}") from exc
    if z.shape == (0,):
        z = z.reshape(0, n)
    if z.ndim != 2 or z.shape[1] != n:
        raise InputError(f"points of shape {z.shape} do not fit {n} variables")
    return z


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


def real_jacobian_rows(poly: MixedPolynomial, point: Sequence[complex]) -> np.ndarray:
    """2 x 2n rows: gradients of Re f and Im f in (x_1,y_1,...) coordinates,
    from the scalar Wirtinger gradient."""
    grad = wirtinger_gradient(poly, point)
    return real_jacobian(np.array([grad.d_z]), np.array([grad.d_zbar]))[0]


def normal_coefficients(J: np.ndarray, res: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the coefficients c of the Gauss-Newton step c_0 J_0 + c_1 J_1
    that solves (J J^T + 1e-14 I) c = -(Re res, Im res), by Cramer's rule on
    the 2 x 2 normal equations.  A singular system gives non-finite c."""
    g00 = row_dot(J[:, 0], J[:, 0]) + 1e-14
    g01 = row_dot(J[:, 0], J[:, 1])
    g11 = row_dot(J[:, 1], J[:, 1]) + 1e-14
    det = g00 * g11 - g01 * g01
    c0 = (g01 * res.imag - g11 * res.real) / det
    c1 = (g01 * res.real - g00 * res.imag) / det
    return c0, c1


def level_tolerance(poly, norm):
    """Tolerance on |f| at points of the given norm (a float or an array), for
    a polynomial or for array rows (one per norm).  Each degree is raised as a
    Python int: numpy rounds norm ** 2 apart from an array exponent of 2."""
    degree = np.asarray(poly.max_degree)
    powers = (np.where(degree == d, norm**d, 0.0) for d in set(degree.ravel().tolist()))
    return 1e-8 * (1.0 + sum(powers))


def on_variety_tolerance(poly: MixedPolynomial, point: Sequence[complex]) -> float:
    return level_tolerance(poly, math.sqrt(sum(abs(z) ** 2 for z in point)))


def _as_rows(poly, count: int):
    """A polynomial as `count` rows of its array form; array rows pass through."""
    one = isinstance(poly, MixedPolynomial)
    return polynomial_arrays([poly]).rows(np.zeros(count, int)) if one else poly


def require_on_level(
    poly, z: np.ndarray, level=0.0, t=0.0, slack=1.0, error=PreconditionError, index=None
) -> tuple[np.ndarray, np.ndarray]:
    """The Wirtinger partials of f (one polynomial, or array rows: row k at
    point k) at the rows of z (K x n complex), from one kernel pass that also
    checks ||f| - level| <= slack * level_tolerance at every row; the first
    row off the level set raises `error` (default PreconditionError) naming
    its index (or index[row]) and its t (a float or one per row)."""
    if not len(z):
        return z, z
    value, d_z, d_zbar = value_and_gradient_batch(_as_rows(poly, len(z)), z)
    tol = slack * level_tolerance(poly, row_norm(z.view(float)))
    off = np.abs(np.abs(value) - level) > tol
    if off.any():
        i = int(np.argmax(off))
        raise error(
            f"point {i if index is None else index[i]} is off the level set |f| = {level!r}"
            f" at t={float(np.broadcast_to(t, off.shape)[i])!r}:"
            f" |f| = {abs(value[i]):.3e} (tolerance {tol[i]:.3e})"
        )
    return d_z, d_zbar


def newton_on_sphere_batch(
    poly,
    target: complex,
    radius: float,
    starts,
    tol: float = 1e-12,
    max_iter: int = 60,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve f(z) = target on the sphere ||z|| = radius from every row of
    `starts` (K x n), all rows in lockstep; `poly` is one polynomial or
    PolynomialArrays rows, start k under polynomial k.

    Each row runs tangentially projected Newton: the Jacobian rows are
    projected onto the sphere's tangent space, the 2 x 2 normal equations give
    the step, and the new point is rescaled to the sphere.  A row is done once
    |f - target| <= tol * (1 + |target|), and fails on a zero-norm start or
    iterate, or a non-finite step (which a singular 2 x 2 system gives).
    Returns (points, found): the K x n complex points (meaningful where found)
    and a K boolean mask.  Every operation is row-wise and in a fixed order,
    so a row's result does not depend on the rest of its batch.
    """
    if radius <= 0:
        raise InputError("radius must be positive")
    x = point_rows(starts, poly.n).view(float)
    arrays = _as_rows(poly, len(x))
    goal = tol * (1.0 + abs(target))
    out = np.zeros_like(x)
    found = np.zeros(len(x), dtype=bool)
    nrm = row_norm(x)
    todo = np.nonzero(nrm != 0)[0]
    xs = x[todo] * (radius / nrm[todo])[:, None]
    for it in range(max_iter + 1):
        if not todo.size:
            break
        value, d_z, d_zbar = value_and_gradient_batch(arrays.rows(todo), xs.view(complex))
        res = value - target
        hit = np.abs(res) <= goal
        out[todo[hit]], found[todo[hit]] = xs[hit], True
        if it == max_iter:
            break
        live = ~hit
        todo, xs, res = todo[live], xs[live], res[live]
        J = real_jacobian(d_z[live], d_zbar[live])
        # restrict both rows to the tangent space of the sphere at xs
        xhat = xs / radius
        J -= row_dot(J, xhat[:, None])[..., None] * xhat[:, None]
        c0, c1 = normal_coefficients(J, res)
        step = c0[:, None] * J[:, 0] + c1[:, None] * J[:, 1]
        xs = xs + step
        nrm = row_norm(xs)
        good = np.isfinite(step).all(axis=1) & (nrm != 0)
        todo, xs, nrm = todo[good], xs[good], nrm[good]
        xs = xs * (radius / nrm)[:, None]
    return out.view(complex), found


def newton_on_sphere(
    poly: MixedPolynomial,
    target: complex,
    radius: float,
    start: Sequence[complex],
    tol: float = 1e-12,
    max_iter: int = 60,
) -> Optional[tuple[complex, ...]]:
    """Solve f(z) = target constrained to the sphere ||z|| = radius.

    Tangentially projected Newton from `start`: the one-point case of
    `newton_on_sphere_batch`.  Returns None when the iteration fails to reach
    |f - target| <= tol * (1 + |target|).
    """
    points, found = newton_on_sphere_batch(poly, target, radius, [start], tol, max_iter)
    return tuple(points[0].tolist()) if found[0] else None


def random_sphere_point(rng: np.random.Generator, n: int, radius: float) -> tuple[complex, ...]:
    x = rng.standard_normal(2 * n)
    x *= radius / np.linalg.norm(x)
    return complexify(x)
