"""Sphere-variety transversality, checked two independent ways.

The rank test measures the smallest singular value of the 3 x 2n real matrix
whose rows are the (normalized) position vector and the gradients of Re f
and Im f.  The constructive route rescales coordinates along a monotone
curve that stays inside the variety and leaves the sphere radially: its
derivative at the base point is an explicit non-tangent witness vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .core import PolynomialArrays
from .errors import InputError, NumericalError, PreconditionError
from .families import DeformationFamily
from .numerics import (
    monotone_roots,
    newton_on_sphere_batch,
    point_rows,
    real_jacobian,
    require_on_level,
    row_dot,
    row_norm,
    stream_states,
)

DEFAULT_MARGIN_THRESHOLD = 1e-9
# random starts per sample before the sampler counts it as a failure
ATTEMPTS_PER_SAMPLE = 5
# the radius at which a witness evaluates its curve (and the chained witness
# records its trace) to check that the curve stays in the variety
WITNESS_RADIUS = 2.0
# a conjecture-search margin below this is flagged
FLAG_THRESHOLD = 1e-6


def _margins(rows: PolynomialArrays, z: np.ndarray, t, index=None) -> np.ndarray:
    """Smallest singular value of [w; grad Re f; grad Im f], rows
    unit-normalized, at every row w of z (K x n): one batched Jacobian and one
    batched SVD.  Point k lies on the member rows[k] at t (a float or one per
    point) with the given index.  The margin is 0 where a row vanishes.

    Every point must lie on the variety f = 0 and away from the origin.
    """
    re, im = require_on_level(rows, z, t=t, index=index)
    x = z.view(float)
    nrm = row_norm(x)
    if (nrm == 0).any():
        raise PreconditionError(
            f"rank test is undefined at the origin (point {int(np.argmax(nrm == 0))})"
        )
    rows = np.empty((len(x), 3, x.shape[1]))
    rows[:, 0] = x
    rows[:, 1:] = real_jacobian(re, im)
    norms = row_norm(rows)
    full = (norms > 0).all(axis=1)
    margins = np.zeros(len(x))
    if full.any():
        unit = rows[full] / norms[full][:, :, None]
        margins[full] = np.linalg.svd(unit, compute_uv=False)[:, -1]
    return margins


def solve_phi_rows(a: int, b: int, tau, w_abs, r) -> tuple[np.ndarray, np.ndarray]:
    """The unique s > 0 with s^a (tau + c s^{2b}) = r (tau + c), c = (1-tau) w^{2b}
    (the left side is strictly increasing in s), at every row of the tau,
    w_abs and r arrays (of one length), with the slopes d s / dr at r = 1,
    where s = 1, by implicit differentiation.  s = 1 at r = 1, r^{1/a} at
    b = 0 or tau = 1 and r^{1/(a+2b)} at tau = 0, slopes 1/a and 1/(a+2b)
    there (exact when c underflows); the other rows solve by `monotone_roots`,
    so a row's values do not depend on the other rows."""
    if a < 1 or b < 0:
        raise InputError("need a >= 1 and b >= 0")
    tau, w_abs, r = (np.asarray(v, dtype=float) for v in (tau, w_abs, r))
    if not ((0.0 <= tau) & (tau <= 1.0)).all():
        raise InputError("tau must lie in [0, 1]")
    if (w_abs <= 0).any() or (r <= 0).any():
        raise InputError("w_abs and r must be positive")
    s, slope = r ** (1.0 / a), np.full(len(r), 1.0 / a)
    if b:
        c = (1.0 - tau) * w_abs ** (2 * b)
        zero, mixed = tau == 0.0, (tau != 0.0) & (tau != 1.0)
        s[zero], slope[zero] = (r ** (1.0 / (a + 2 * b)))[zero], 1.0 / (a + 2 * b)
        np.divide(tau + c, a * tau + (a + 2 * b) * c, out=slope, where=mixed)
        k = np.flatnonzero(mixed & (r != 1.0))
        tk, ck = tau[k], c[k]
        s[k] = monotone_roots(
            lambda x, i: x**a * (tk[i] + ck[i] * x ** (2 * b)),
            r[k] * (tk + ck),
            dfn=lambda x, i: a * x ** (a - 1) * tk[i] + (a + 2 * b) * ck[i] * x ** (a + 2 * b - 1),
        )
    s[r == 1.0] = 1.0
    return s, slope


def _stack(arrays: PolynomialArrays, grid, points_per_t) -> tuple:
    """The points of V_t at every t of the grid as one batch (rows, W, T, index):
    each point's member as a row of `arrays` (one row per t), the K x n
    points, each point's t and its index within its t."""
    blocks = [point_rows(pts, arrays.n) for pts in points_per_t]
    counts = [len(z) for z in blocks]
    ti = np.repeat(np.arange(len(blocks)), counts)
    index = np.arange(len(ti)) - np.repeat(np.cumsum(counts) - counts, counts)
    return arrays.rows(ti), np.concatenate(blocks), np.asarray(grid, dtype=float)[ti], index


def _witnesses(
    fam: DeformationFamily,
    t_grid: Sequence[float],
    points_per_t: Sequence[Sequence[Sequence[complex]]],
    r: float = WITNESS_RADIUS,
    on_level: bool = False,
    radius: float = 1.0,
) -> Iterator[dict]:
    """Constructive witnesses at the points points_per_t[i] of V_t, t = t_grid[i],
    in one lockstep pass over `fam.members(t_grid)`; yields each point's
    report record in order: witness_margin, witness_transverse,
    witness_vector and, for the chained kind, the recursion `trace` (1-based
    I0, J and the runs `components` of J, r_values and s_values at radius r,
    r_j None off J, and epsilon_flags).

    The curve xi(r) = (s_j(r) w_j) stays in the zero set; the witness is
    xi'(1) = (s_j'(1) w_j), with margin 2 sum |w_j|^2 s_j'(1), transverse
    above DEFAULT_MARGIN_THRESHOLD * ||w||^2 (the margin scales as ||w||^2).
    Brieskorn: s_j = phi_j(r) at every nonzero coordinate.  Chained: indices
    with a vanishing monomial term keep s_j = 1, each maximal run of the
    others is solved downward from its top, r_j = r / s_{j+1} and
    s_j'(1) = phi_j'(1) (1 - s_{j+1}'(1)), and uniform scaling is the witness
    when every term vanishes.  Rows with the same vanishing coordinates share
    their runs, so each chain index is solved for all of them at once.  The
    on-variety check (skipped when `on_level` says the caller made it) and the
    check of the curve at radius r are one kernel call each, on the unit scale
    of the sphere of the given radius.
    """
    if r <= 0:
        raise InputError("evaluation radius must be positive")
    chained = fam.spec.kind == "type_i"
    n, a, b = fam.n, fam.spec.a, fam.spec.b
    members, W, T, index = _stack(fam.members(t_grid), t_grid, points_per_t)
    members, unit = members.on_sphere(radius)[0], 1.0 / radius
    if not on_level:
        require_on_level(members, W * unit, t=T, index=index)
    mods = np.abs(W)
    nonzero = mods > 0
    in_J = nonzero.copy()
    if chained:
        in_J[:, :-1] &= nonzero[:, 1:]
    S, R, slopes = np.ones(mods.shape), np.full(mods.shape, np.nan), np.zeros(mods.shape)
    pattern = (nonzero * (1 << np.arange(n))).sum(axis=1)  # bit j set where w_j != 0
    eps = tuple(1 if j < n - 1 else 0 for j in range(n))
    traces = {}  # per pattern: the trace fields its rows share, indices 1-based
    for code in set(pattern.tolist()):
        rows = np.flatnonzero(pattern == code)
        on, zero = in_J[rows[0]].tolist(), (~nonzero[rows[0]]).tolist()
        runs: list[list[int]] = []  # 0-based [lo, hi], solved downward
        for j in range(n):
            if on[j] and chained and runs and runs[-1][1] == j - 1:
                runs[-1][1] = j
            elif on[j]:
                runs.append([j, j])
        I0, J = (tuple(j + 1 for j in range(n) if mask[j]) for mask in (zero, on))
        comps = tuple((lo + 1, hi + 1) for lo, hi in runs)
        traces[code] = {"I0": I0, "J": J, "components": comps, "epsilon_flags": eps}
        if chained and not runs:
            slopes[rows] = 1.0  # uniform scaling
        tau = T[rows]
        for lo, hi in runs:
            for j in range(hi, lo - 1, -1):
                rj = np.full(len(rows), r) if j == hi else r / S[rows, j + 1]
                R[rows, j] = rj
                S[rows, j], slope = solve_phi_rows(a[j], b[j], tau, mods[rows, j], rj)
                slopes[rows, j] = slope if j == hi else slope * (1.0 - slopes[rows, j + 1])
    require_on_level(members, S * W * unit, t=T, slack=10.0, error=NumericalError, index=index)
    margin = 2.0 * row_dot(mods * mods, slopes)
    transverse = margin > DEFAULT_MARGIN_THRESHOLD * row_dot(mods, mods)
    R = R.astype(object)
    R[~in_J] = None
    columns = zip(
        margin.tolist(), transverse.tolist(), (slopes * W).view(float).tolist(),
        pattern.tolist(), S.tolist(), R.tolist(),
    )
    for m, ok, vector, g, s, rv in columns:
        record = {"witness_margin": m, "witness_transverse": ok, "witness_vector": tuple(vector)}
        if chained:
            record["trace"] = traces[g] | {"r_values": tuple(rv), "s_values": tuple(s)}
        yield record


@dataclass(frozen=True)
class ConjectureSearchReport:
    t_grid: tuple[float, ...]
    radius: float
    samples_requested: int
    samples_found: int
    sampler_failures: int
    sampler_failures_per_t: tuple[int, ...]
    min_margin: float
    argmin_point: tuple[complex, ...]
    argmin_t: float
    flagged_count: int
    flagged: tuple[dict, ...]  # {"t", "point", "margin"} per margin below FLAG_THRESHOLD
    note: str = "evidence only - open problem"


def sample_rows(
    arrays: PolynomialArrays,
    count: int,
    seed: int,
    labels: Sequence[str],
) -> tuple[np.ndarray, np.ndarray]:
    """Newton-polished points of f_i = 0 on the unit sphere, for every row i
    of the unit-scale form `arrays`: (points, found), G x count (x n).

    Sample k of row i gets up to ATTEMPTS_PER_SAMPLE random starts, attempt
    att drawn from the stream "{labels[i]}:sample:{k}:attempt:{att}", before
    counting as a failure.  Each attempt index derives the streams of every
    pending (row, sample) pair in one pass and runs them as one lockstep
    Newton batch, so a row's points are those it gets sampled alone.
    """
    n = arrays.n
    points = np.zeros((len(labels) * count, n), dtype=complex)
    found = np.zeros(len(points), dtype=bool)
    pending = np.arange(len(points))
    rng = np.random.Generator(np.random.PCG64(0))
    for att in range(ATTEMPTS_PER_SAMPLE):
        if not pending.size:
            break
        names = [f"{labels[i // count]}:sample:{i % count}:attempt:{att}" for i in pending]
        starts = np.empty((len(pending), 2 * n))
        for row, state in zip(starts, stream_states(seed, names)):
            rng.bit_generator.state = state
            rng.standard_normal(out=row)
        rows = arrays.rows(pending // count)
        pts, hit = newton_on_sphere_batch(rows, 0j, starts.view(complex))
        points[pending[hit]], found[pending[hit]] = pts[hit], True
        pending = pending[~hit]
    return points.reshape(len(labels), count, n), found.reshape(len(labels), count)


def _sample_sweep(
    fam: DeformationFamily, grid: tuple, radius: float, samples: int, seed: int, label: str
) -> tuple[PolynomialArrays, list[np.ndarray], tuple[int, ...]]:
    """`samples` sphere points of V_t at every t of the grid, grid index ti
    drawing from the streams "{label}:t={ti}": (arrays, points, failures), the
    grid's members as one unit-scale form, the unit points and failures per t."""
    if not grid:
        raise InputError("t_grid is empty")
    arrays = fam.members(grid).on_sphere(radius)[0]
    labels = [f"{label}:t={ti}" for ti in range(len(grid))]
    points, found = sample_rows(arrays, samples, seed, labels)
    failures = tuple(int(samples - f.sum()) for f in found)
    return arrays, [p[f] for p, f in zip(points, found)], failures


def conjecture_search_type_ii(
    fam: DeformationFamily,
    t_grid: Sequence[float],
    radius: float,
    samples: int,
    seed: int,
) -> ConjectureSearchReport:
    """Rank-test sweep over sampled points of the cyclic family's zero set,
    grid index ti sampled from the streams "conj:t={ti}".

    No constructive witness exists for the cyclic chain (the downward
    recursion has no starting index when every term is nonzero), so this
    only gathers evidence for the open transversality question.
    """
    if fam.spec.kind != "type_ii":
        raise PreconditionError("conjecture search requires a type_ii family")
    grid = tuple(float(t) for t in t_grid)
    arrays, points, failures = _sample_sweep(fam, grid, radius, samples, seed, "conj")
    rows, u, T, index = _stack(arrays, grid, points)
    margins = _margins(rows, u, T, index).tolist()
    columns = list(zip(margins, map(tuple, (u * radius).tolist()), T.tolist()))
    least = min(columns, key=lambda c: c[0], default=(float("nan"), (), float("nan")))
    flagged = tuple({"t": t, "point": p, "margin": m} for m, p, t in columns if m < FLAG_THRESHOLD)
    return ConjectureSearchReport(
        t_grid=grid,
        radius=float(radius),
        samples_requested=samples * len(grid),
        samples_found=len(u),
        sampler_failures=sum(failures),
        sampler_failures_per_t=failures,
        min_margin=least[0],  # the first of equal minima
        argmin_point=least[1],
        argmin_t=least[2],
        flagged_count=len(flagged),
        flagged=flagged,
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
    # the smallest margin of each method; None when it did not run or found no point
    min_rank_margin: Optional[float] = None
    min_witness_margin: Optional[float] = None


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

    The points at grid index ti come from the streams "ct:t={ti}", and the
    whole grid is sampled as one Newton batch per attempt over the rows
    `fam.members(grid)`, which the rank margins and the witnesses read too.
    The witnesses of all points of the sweep are solved in one lockstep pass.
    `all_transverse` needs at least one certificate, and every certificate
    transverse by every method run.
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
    arrays, units, failures = _sample_sweep(fam, grid, radius, samples, seed, "ct")
    points = [u * radius for u in units]
    certificates = [{"t": t, "point": tuple(p)} for t, z in zip(grid, points) for p in z.tolist()]
    rank_values, witness_values = [], []
    if rank:
        rank_values = _margins(*_stack(arrays, grid, units)).tolist()
        for entry, margin in zip(certificates, rank_values):
            entry.update(rank_margin=margin, rank_transverse=margin > DEFAULT_MARGIN_THRESHOLD)
    if witness:
        witnesses = _witnesses(fam, grid, points, on_level=rank, radius=radius)
        for entry, record in zip(certificates, witnesses):
            witness_values.append(record["witness_margin"])
            entry.update(record)
    return TransversalitySweep(
        method=method,
        radius=float(radius),
        t_grid=grid,
        samples_per_t=samples,
        sampler_failures=sum(failures),
        sampler_failures_per_t=failures,
        certificates=tuple(certificates),
        min_margin=min(rank_values + witness_values, default=None),
        all_transverse=bool(certificates)
        and all(
            e.get("rank_transverse", True) and e.get("witness_transverse", True)
            for e in certificates
        ),
        min_rank_margin=min(rank_values, default=None),
        min_witness_margin=min(witness_values, default=None),
    )
