"""Shared numerical machinery: monotone root finding, seeded RNG streams,
real/complex coordinate shuffling, real Jacobians, the on-variety check and
lockstep on-sphere Newton solving."""

from __future__ import annotations

import hashlib
from typing import Callable, Optional, Sequence

import numpy as np

from .core import PolynomialArrays, sum_leading, value_and_gradient_batch
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


def monotone_roots(
    fn: Callable,
    target: np.ndarray,
    lo: float = 1.0,
    hi: Optional[float] = None,
    dfn: Optional[Callable] = None,
) -> np.ndarray:
    """Root of fn(s, k) = target[k] for every row k, fn strictly increasing on
    s > 0, all rows in lockstep; fn and dfn take points s and their rows k.

    Each row's bracket is grown geometrically from lo (and hi when given),
    then refined by safeguarded Newton steps on dfn, bisecting where a step
    would leave the bracket; without dfn every step bisects.  A row leaves with
    its bracket's midpoint once that is narrower than 1e-14 relative, or with
    a Newton candidate within 0.5e-14 relative of s; its root is its own."""
    target = np.asarray(target, dtype=float)
    rows = np.arange(len(target))
    lo = np.full(len(target), lo, dtype=float)
    flo = fn(lo, rows)
    hi = lo.copy() if hi is None else np.full(len(target), hi, dtype=float)
    fhi = fn(hi, rows)
    grow = ((lo, flo, 0.5, np.greater, "below"), (hi, fhi, 2.0, np.less, "above"))
    for x, fx, factor, out, side in grow:
        k = np.flatnonzero(out(fx, target))
        for _ in range(2000):
            if not k.size:
                break
            with np.errstate(over="ignore"):  # a side that never brackets grows to inf
                x[k] *= factor
            fx[k] = fn(x[k], k)
            k = k[out(fx[k], target[k])]
        if k.size:
            raise NumericalError(f"monotone_roots: failed to bracket from {side}")
    root = np.where(flo == target, lo, hi)
    k = np.flatnonzero((flo != target) & (fhi != target))
    lo, hi, goal = lo[k], hi[k], target[k]
    s = 0.5 * (lo + hi)
    for _ in range(200):
        fs = fn(s, k)
        lo, hi = np.where(fs < goal, s, lo), np.where(fs < goal, hi, s)
        cand = np.full_like(s, np.nan)
        if dfn is not None:
            d = dfn(s, k)
            cand = s + (goal - fs) / np.where(d > 0, d, np.nan)
        narrow = hi - lo <= 1e-14 * np.maximum(1.0, np.abs(hi))
        done = narrow | (np.abs(cand - s) <= 0.5e-14 * np.maximum(1.0, np.abs(s)))
        root[k[done]] = np.where(narrow, 0.5 * (lo + hi), cand)[done]
        k, s, cand, lo, hi, goal = (v[~done] for v in (k, s, cand, lo, hi, goal))
        if not k.size:
            break
        s = np.where((lo < cand) & (cand < hi), cand, 0.5 * (lo + hi))
    root[k] = 0.5 * (lo + hi)
    return root


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
    """Row-wise dot product over the last axis: one product a * b, its columns
    summed in index order."""
    return sum_leading((a * b).T).T


def row_norm(x: np.ndarray) -> np.ndarray:
    return np.sqrt(row_dot(x, x))


def complexify(x: np.ndarray) -> tuple[complex, ...]:
    x = np.asarray(x, dtype=float)
    return tuple(complex(a, b) for a, b in zip(x[0::2], x[1::2]))


def real_jacobian(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """K x 2 x 2n real Jacobians from the 2 x n x K partial planes: row 0 is
    the gradient of Re f, row 1 that of Im f, in (x_1, y_1, ..., x_n, y_n)."""
    (n, K), a, b, c, d = re.shape[1:], re[0], re[1], im[0], im[1]
    J = np.empty((K, 2, 2 * n))
    x, y = J.T[0::2], J.T[1::2]  # n x 2 x K: the x and the y columns of both rows
    np.add(a, b, x[:, 0])
    dy = np.subtract(c, d, y[:, 0])
    np.negative(dy, dy)  # -(c - d), not d - c, which differs in the sign of a zero
    np.add(c, d, x[:, 1])
    np.subtract(a, b, y[:, 1])
    return J


def gram(J: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of J (K x 2 x m), the entries g00, g01, g11 of J J^T from one
    fixed-order `row_dot` of the K x 2 x 2 x m outer product."""
    return (g := row_dot(J[:, :, None], J[:, None]))[:, 0, 0], g[:, 0, 1], g[:, 1, 1]


def tangent_step(J: np.ndarray, xhat: np.ndarray, res: np.ndarray):
    """Per row, the least-norm step s tangent to the sphere at the unit vector
    xhat with J_T s = -(Re res, Im res), where J_T = J (I - xhat xhat^T) holds
    J's 2 x 2n rows projected onto the tangent space.  s = c_0 J_T0 + c_1 J_T1,
    where Cramer's rule solves the 2 x 2 normal equations (J_T J_T^T + 1e-14 I)
    c = -(Re res, Im res).  Returns (s, J_T, gram(J_T)); a singular system
    gives a non-finite s."""
    J = J - row_dot(J, xhat[:, None])[..., None] * xhat[:, None]
    g = gram(J)
    g00, g01, g11 = g[0] + 1e-14, g[1], g[2] + 1e-14
    det = g00 * g11 - g01 * g01
    c0 = (g01 * res.imag - g11 * res.real) / det
    c1 = (g01 * res.real - g00 * res.imag) / det
    return c0[:, None] * J[:, 0] + c1[:, None] * J[:, 1], J, g


def smallest_singular_values(J: np.ndarray, g) -> np.ndarray:
    """Per row, the smallest singular value of J (K x 2 x m), g = gram(J): the
    root of the Gram matrix's smaller eigenvalue det / (tr/2 +
    hypot((g00 - g11)/2, g01)).  det is the sum of the squared 2 x 2 minors,
    which equals g00 g11 - g01^2 without its cancellation (that difference
    loses every eigenvalue below ~1e-16 g^2, a floor of ~1e-8 |J| on the
    result).  A zero matrix gives 0; a non-finite one NaN."""
    minors = J[:, 0, :, None] * J[:, 1, None]
    minors = minors - minors.swapaxes(1, 2)
    det = 0.5 * (minors * minors).sum(axis=(1, 2))
    g00, g01, g11 = g
    top = 0.5 * (g00 + g11) + np.hypot(0.5 * (g00 - g11), g01)
    return np.sqrt(det / np.where(top > 0, top, np.inf))


def level_tolerance(arrays: PolynomialArrays, norm):
    """Tolerance on |f| at points of the given norm (a float or an array), one
    per row of `arrays` (row k at norm k).  Each degree is raised as a Python
    int: numpy rounds norm ** 2 apart from an array exponent of 2."""
    degree = arrays.max_degree
    powers = (np.where(degree == d, norm**d, 0.0) for d in set(degree.ravel().tolist()))
    return 1e-8 * (1.0 + sum(powers))


def require_on_level(
    arrays, z: np.ndarray, level=0.0, t=0.0, slack=1.0, error=PreconditionError, index=None
) -> tuple[np.ndarray, np.ndarray]:
    """The partial planes (re, im) of f (the rows of `arrays`, row k at point
    k) at the rows of z (K x n complex), from one kernel pass that also
    checks ||f| - level| <= slack * level_tolerance at every row; the first
    row off the level set raises `error` (default PreconditionError) naming
    its index (or index[row]) and its t (a float or one per row)."""
    value, re, im = value_and_gradient_batch(arrays, z)
    tol = slack * level_tolerance(arrays, row_norm(z.view(float)))
    off = np.abs(np.abs(value) - level) > tol
    if off.any():
        i = int(np.argmax(off))
        raise error(
            f"point {i if index is None else index[i]} is off the level set |f| = {level!r}"
            f" at t={float(np.broadcast_to(t, off.shape)[i])!r}:"
            f" |f| = {abs(value[i]):.3e} (tolerance {tol[i]:.3e})"
        )
    return re, im


def newton_on_sphere_batch(
    arrays: PolynomialArrays,
    target,
    starts,
    tol: float = 1e-12,
    max_iter: int = 60,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve f(u) = target on the unit sphere from every row of `starts`
    (K x n), all rows in lockstep, start k under row k of the unit-scale form
    `arrays` and toward `target` (one value) or target[k] (K values).

    Each row runs tangentially projected Newton: `tangent_step` gives the
    step, and the new point is rescaled to the sphere.  A row is done once
    |f - target| <= tol * (1 + |target|), and fails on a zero-norm start or
    iterate, or a non-finite step (which a singular 2 x 2 system gives).
    Returns (points, found): the K x n complex points (meaningful where found)
    and a K boolean mask.  Every operation is row-wise and in a fixed order,
    so a row's result does not depend on the rest of its batch.
    """
    x = point_rows(starts, arrays.n).view(float)
    if len(arrays.C) != len(x):
        raise InputError(f"{len(x)} starts do not fit {len(arrays.C)} polynomial rows")
    target = np.broadcast_to(np.asarray(target, dtype=complex), len(x))
    goal = tol * (1.0 + np.abs(target))
    out = np.zeros_like(x)
    found = np.zeros(len(x), dtype=bool)
    nrm = row_norm(x)
    todo = np.nonzero(nrm != 0)[0]
    xs = x[todo] * (1.0 / nrm[todo])[:, None]
    for it in range(max_iter + 1):
        if not todo.size:
            break
        value, re, im = value_and_gradient_batch(arrays.rows(todo), xs.view(complex))
        res = value - target[todo]
        hit = np.abs(res) <= goal[todo]
        out[todo[hit]], found[todo[hit]] = xs[hit], True
        if it == max_iter:
            break
        live = ~hit
        todo, xs, res = todo[live], xs[live], res[live]
        step = tangent_step(real_jacobian(re, im)[live], xs, res)[0]
        xs = xs + step
        nrm = row_norm(xs)
        good = np.isfinite(step).all(axis=1) & (nrm != 0)
        todo, xs, nrm = todo[good], xs[good], nrm[good]
        xs = xs * (1.0 / nrm)[:, None]
    return out.view(complex), found


def random_sphere_point(rng: np.random.Generator, n: int, radius: float) -> tuple[complex, ...]:
    x = rng.standard_normal(2 * n)
    x *= radius / np.linalg.norm(x)
    return complexify(x)
