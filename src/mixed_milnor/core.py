"""Exact representation and Wirtinger calculus for mixed polynomials.

A mixed polynomial is a finite sum  sum_i c_i z^{nu_i} zbar^{mu_i}  in the
variables z_1..z_n and their conjugates.  Exponents are exact machine
integers; evaluation and differentiation are double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

import numpy as np

from .errors import InputError

# Desk-scale bounds: exact integer work (determinants, weight solving) is
# only guaranteed sensible in this regime.
MAX_EXPONENT = 128
MAX_VARIABLES = 16


@dataclass(frozen=True)
class MixedMonomial:
    """One term c * z^nu * zbar^mu."""

    coefficient: complex
    nu: tuple[int, ...]
    mu: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "nu", tuple(int(e) for e in self.nu))
        object.__setattr__(self, "mu", tuple(int(e) for e in self.mu))
        object.__setattr__(self, "coefficient", complex(self.coefficient))
        if len(self.nu) != len(self.mu):
            raise InputError("nu and mu must have the same length")
        if any(e < 0 for e in self.nu + self.mu):
            raise InputError("exponents must be nonnegative")
        if any(e > MAX_EXPONENT for e in self.nu + self.mu):
            raise InputError(f"exponent exceeds desk-scale bound {MAX_EXPONENT}")
        if self.coefficient == 0:
            raise InputError("monomial coefficient must be nonzero")

    @property
    def total_degree(self) -> int:
        return sum(self.nu) + sum(self.mu)


@dataclass(frozen=True)
class MixedPolynomial:
    """Canonical (merged, zero-free) list of mixed monomials in n variables."""

    n: int
    monomials: tuple[MixedMonomial, ...]

    def __post_init__(self):
        if not (1 <= self.n <= MAX_VARIABLES):
            raise InputError(f"variable count must be in 1..{MAX_VARIABLES}")
        merged: dict[tuple, complex] = {}
        order: list[tuple] = []
        for mono in self.monomials:
            if len(mono.nu) != self.n:
                raise InputError("monomial arity does not match variable count")
            key = (mono.nu, mono.mu)
            if key not in merged:
                merged[key] = 0j
                order.append(key)
            merged[key] += mono.coefficient
        canon = tuple(
            MixedMonomial(merged[key], key[0], key[1])
            for key in order
            if merged[key] != 0
        )
        object.__setattr__(self, "monomials", canon)

    @property
    def max_degree(self) -> int:
        return max((m.total_degree for m in self.monomials), default=0)


@dataclass(frozen=True)
class WeightSystem:
    polar_weights: Optional[tuple[int, ...]]
    polar_degree: Optional[int]
    radial_weights: Optional[tuple[int, ...]] = None
    radial_degree: Optional[int] = None

    @property
    def has_polar(self) -> bool:
        return self.polar_weights is not None

    @property
    def has_radial(self) -> bool:
        return self.radial_weights is not None


@dataclass(frozen=True)
class _KernelLayout:
    """Index arrays the batched kernel derives from N and M, over the entries
    e = (i, j) with N[i, j] + M[i, j] > 0, plus (i, 0) for a constant monomial and
    (0, j) for an unused variable, ordered by rank (j's entries above i), then j."""

    top: int  # highest exponent, at least 1
    bar: int  # highest zbar exponent + 1: the rows of zbar_j^p the power table holds
    power_rows: np.ndarray  # 2 x 2 x E + 1: rows (real, imaginary) of z_j^N, zbar_j^M, then 1
    lowered_rows: np.ndarray  # 2 x 2 x E: rows of z_j^(N - 1), zbar_j^(M - 1), floored at 0
    weights: np.ndarray  # 2 x E: N, M as floats, the factors of the partials
    monomial: object  # each entry's i
    others: tuple  # others[p][e]: the p-th other entry of e's monomial, else E (a factor 1)
    last: object  # each monomial's entry of largest j, in index order
    even: int  # the ranks every variable holds: entries below even * n
    ranks: tuple  # each further rank's (variables, entries)


def _plan(index: np.ndarray):
    """`index`, or the slice it equals when it steps evenly upward."""
    at = index.tolist()
    step = at[1] - at[0] if len(at) > 1 else 1
    regular = at and step > 0 and at == list(range(at[0], at[-1] + 1, step))
    return slice(at[0], at[-1] + 1, step) if regular else index


def _kernel_layout(N: np.ndarray, M: np.ndarray) -> _KernelLayout:
    m, n = N.shape
    held = N + M > 0
    held[~held.any(axis=1), 0] = True
    held[:1, ~held.any(axis=0)] = True
    i, j = np.nonzero(held)
    rank = (np.cumsum(held, axis=0) - 1)[i, j]
    i, j, rank = (v[np.argsort(rank * n + j)] for v in (i, j, rank))
    q, count, E = (np.cumsum(held, axis=1) - 1)[i, j], held.sum(axis=1), len(i)
    own = np.full((m, n + 1), E)  # own[i, q]: monomial i's q-th entry by j, then E
    own[i, q] = np.arange(E)
    p = np.arange(count.max(initial=1) - 1)[:, None]
    others = np.where(p < q, own[i, p], own[i, p + 1])  # skip e's own place q
    powers, even = np.stack([N[i, j], M[i, j]]), int(held.sum(axis=0).min())
    top = max(int(powers.max(initial=0)), 1)
    shift = np.array([[[0], [0]], [[0], [(top + 1) * n]]])  # -Im z_j^p: row (top + 1 + p) n + j
    return _KernelLayout(
        top=top,
        bar=int(M.max(initial=0)) + 1,
        power_rows=np.append(powers, [[0], [0]], axis=1) * n + np.append(j, 0) + shift,
        lowered_rows=np.maximum(powers - 1, 0) * n + j + shift,
        weights=powers.astype(float),
        monomial=_plan(i),
        others=tuple(_plan(row) for row in others),
        last=_plan(own[np.arange(m), count - 1]),
        even=even,
        ranks=tuple((_plan(j[rank == r]), _plan(np.flatnonzero(rank == r)))
                    for r in range(even, int(rank.max(initial=-1)) + 1)),
    )


@dataclass(frozen=True, eq=False)
class PolynomialArrays:
    """Array form of K mixed polynomials in n variables over one shared
    monomial list: row i of N and M holds the exponents of monomial i, row k
    of C the coefficients of polynomial k (zero where it lacks the monomial)."""

    N: np.ndarray  # m x n z-exponents
    M: np.ndarray  # m x n zbar-exponents
    C: np.ndarray  # K x m complex coefficients
    layout: Optional[_KernelLayout] = field(default=None, repr=False)

    def __post_init__(self):
        if self.layout is None:
            object.__setattr__(self, "layout", _kernel_layout(self.N, self.M))

    @property
    def n(self) -> int:
        return self.N.shape[1]

    @property
    def max_degree(self) -> np.ndarray:
        """Per polynomial, the largest total degree of its monomials."""
        return np.where(self.C != 0, (self.N + self.M).sum(axis=1), 0).max(axis=1, initial=0)

    def rows(self, index) -> "PolynomialArrays":
        """The polynomials picked by `index` (anything that indexes C's rows)."""
        return self.with_coefficients(self.C[index])

    def with_coefficients(self, C: np.ndarray) -> "PolynomialArrays":
        """Other polynomials over the same monomial list."""
        return PolynomialArrays(self.N, self.M, C, self.layout)

    def on_sphere(self, radius: float) -> tuple["PolynomialArrays", np.ndarray]:
        """The rows on the unit sphere and their scales e: row k's coefficients
        c_i r^(d_i - e_k), d_i monomial i's total degree and e_k the row's largest
        degree with c_i != 0 (smallest when r < 1), so f_k(r u) = r^e_k f~_k(u),
        no coefficient grows, zeros stay zero and r = 1 changes no bit."""
        if not 0.0 < radius < math.inf:
            raise InputError(f"radius must be positive and finite, got {radius!r}")
        degree, live = (self.N + self.M).sum(axis=1), self.C != 0
        e = self.max_degree
        if radius < 1.0:
            e = np.where(live, degree, top := int(degree.max(initial=0))).min(axis=1, initial=top)
        factor = np.power(float(radius), np.where(live, degree - e[:, None], 0).astype(float))
        return self.with_coefficients(self.C * factor), e


def rescaled(values, radius: float, power) -> np.ndarray:
    """values * radius ** power entrywise, one factor of radius at a time: exact
    at radius 1, zero where values is, inf only where the product overflows."""
    out, power = np.broadcast_arrays(np.asarray(values) * 1.0, power)
    with np.errstate(over="ignore", under="ignore"):
        for k in range(int(np.abs(power).max(initial=0))):
            out = np.where(power > k, out * radius, np.where(power < -k, out / radius, out))
    return out


def polynomial_arrays(polys: Sequence[MixedPolynomial]) -> PolynomialArrays:
    """Stack polynomials of one arity over the union of their monomials, in
    order of first appearance."""
    if not polys:
        raise InputError("polynomial_arrays needs at least one polynomial")
    n = polys[0].n
    if any(p.n != n for p in polys):
        raise InputError("polynomials must share one variable count")
    columns: dict[tuple, int] = {}
    terms = []  # (row, column, coefficient)
    for k, p in enumerate(polys):
        for mono in p.monomials:
            col = columns.setdefault((mono.nu, mono.mu), len(columns))
            terms.append((k, col, mono.coefficient))
    C = np.zeros((len(polys), len(columns)), dtype=complex)
    for k, col, coefficient in terms:
        C[k, col] = coefficient
    N = np.array([key[0] for key in columns], dtype=int).reshape(len(columns), n)
    M = np.array([key[1] for key in columns], dtype=int).reshape(len(columns), n)
    return PolynomialArrays(N, M, C)


# The batched kernel works on (real, imaginary) pairs of float arrays.  Every
# step is an elementwise IEEE operation and every sum runs in a fixed order, so
# a point's result does not depend on the size or contents of its batch.


def _cmul(a: tuple, b: tuple, out: tuple = (None, None)) -> tuple:
    """(a0 b0 - a1 b1, a0 b1 + a1 b0), updated in place to keep one temporary."""
    re = np.multiply(a[0], b[0], out=out[0])
    re -= a[1] * b[1]
    im = np.multiply(a[0], b[1], out=out[1])
    im += a[1] * b[0]
    return re, im


def sum_leading(a: np.ndarray) -> np.ndarray:
    """Sum over the leading axis, in index order."""
    total = a[0]
    for row in a[1:]:
        total = total + row
    return total


def value_and_gradient_batch(
    arrays: PolynomialArrays, z: np.ndarray, value: bool = True
) -> tuple[Optional[np.ndarray], np.ndarray, np.ndarray]:
    """(f, re, im) at a K x ... x n complex array of points, where the points
    z[k] belong to polynomial k.  f has the shape of z without its last axis;
    re and im are 2 x n x K x ... float planes: re[0, j] and im[0, j] hold the
    real and imaginary parts of d_zj f, re[1, j] and im[1, j] those of d_zbarj f.
    value=False skips f and gives None for it: the shell reads partials alone.

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
    batch = z.shape[:-1]
    if m == 0:
        return np.zeros(batch, dtype=complex) if value else None, *np.zeros((2, 2, n) + batch)
    layout, top, E = arrays.layout, arrays.layout.top, arrays.layout.weights.shape[1]
    # table[p, j] = z_j ** p by repeated multiplication, then Im zbar_j ** p for p < bar
    zt = z.transpose((z.ndim - 1,) + tuple(range(z.ndim - 1)))
    pr, pi = np.empty((top + 1, n) + batch), np.empty((top + 1 + layout.bar, n) + batch)
    pr[0], pi[0] = 1.0, 0.0
    pr[1], pi[1] = zt.real, zt.imag
    for p in range(2, top + 1):
        _cmul((pr[p - 1], pi[p - 1]), (pr[1], pi[1]), out=(pr[p], pi[p]))
    np.negative(pi[: layout.bar], out=pi[top + 1 :])
    pr, pi = pr.reshape((len(pr) * n,) + batch), pi.reshape((len(pi) * n,) + batch)
    zr, zi = pr[layout.power_rows[0]], pi[layout.power_rows[1]]
    # factor[e] = z_j^N[i, j] zbar_j^M[i, j] for entry e = (i, j), and factor[E] = 1
    if value or layout.others:
        fr, fi = _cmul((zr[0], zi[0]), (zr[1], zi[1]))
    # rest[e] = c_i * the factors of monomial i's other entries, in increasing j
    shape = (E,) + z.shape[:1] + (1,) * (z.ndim - 2)
    rest = tuple(c.T[layout.monomial].reshape(shape) for c in (arrays.C.real, arrays.C.imag))
    for k in layout.others:
        rest = _cmul(rest, (fr[k], fi[k]))
    f, last = None, layout.last
    if value:
        vr, vi = _cmul((rest[0][last], rest[1][last]), (fr[last], fi[last]))
        f = np.empty(batch, dtype=complex)
        f.real, f.imag = sum_leading(vr), sum_leading(vi)
    # d_z: rest * z^(N-1) * zbar^M * N;  d_zbar: rest * zbar^(M-1) * z^N * M
    lowered = layout.lowered_rows
    dr, di = _cmul(_cmul(rest, (pr[lowered[0]], pi[lowered[1]])), (zr[::-1, :E], zi[::-1, :E]))
    weights = layout.weights.reshape(layout.weights.shape + (1,) * len(batch))
    dr *= weights
    di *= weights
    # each partial sums its variable's entries rank by rank, so in increasing i
    even = (2, layout.even, n) + batch
    sr, si = (sum_leading(a[:, : layout.even * n].reshape(even).swapaxes(0, 1)) for a in (dr, di))
    for variables, entries in layout.ranks:
        sr[:, variables] += dr[:, entries]
        si[:, variables] += di[:, entries]
    return f, sr, si


def evaluate(poly: MixedPolynomial, point: Sequence[complex]) -> complex:
    """Evaluate sum c_i z^{nu_i} zbar^{mu_i} at the given point: a K = 1 pass of
    `value_and_gradient_batch` plus the array form, tens of times a scalar
    loop's cost, so a loop over points should stack them into one pass."""
    pt = [complex(w) for w in point]
    if len(pt) != poly.n:
        raise InputError(f"point has length {len(pt)}, expected {poly.n}")
    return complex(value_and_gradient_batch(polynomial_arrays([poly]), np.array([pt]))[0][0])


def integer_determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(map(int, row)) for row in rows]
    if any(len(row) != n for row in a):
        raise InputError("determinant requires a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class SimplicialityReport:
    simplicial: bool
    det_plus: Optional[int]
    det_minus: Optional[int]


def is_simplicial(poly: MixedPolynomial) -> SimplicialityReport:
    """m = n monomials with both N+M and N-M nondegenerate over the integers."""
    arrays = polynomial_arrays([poly])
    if len(arrays.N) != poly.n:
        return SimplicialityReport(False, None, None)
    det_plus = integer_determinant((arrays.N + arrays.M).tolist())
    det_minus = integer_determinant((arrays.N - arrays.M).tolist())
    return SimplicialityReport(det_plus != 0 and det_minus != 0, det_plus, det_minus)


def _smallest_positive_integer_solution(
    rows: list[list[int]], n_unknowns: int, free_value_bound: int = 32
) -> Optional[tuple[int, ...]]:
    """Smallest positive integer x (all entries > 0) with rows . x = 0.

    Rational RREF, then the free variables are assigned the lexicographically
    smallest positive values that make every pivot variable positive; the
    result is cleared to integers and reduced by the gcd.  Returns None when
    no positive solution exists in the searched range.
    """
    mat = [[Fraction(v) for v in row] for row in rows]
    pivots: list[tuple[int, int]] = []  # (row, col)
    r = 0
    for c in range(n_unknowns):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = mat[r][c]
        mat[r] = [v / inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append((r, c))
        r += 1
        if r == len(mat):
            break
    pivot_cols = [c for _, c in pivots]
    free_cols = [c for c in range(n_unknowns) if c not in pivot_cols]
    if not free_cols:
        return None  # only the trivial solution
    if any(all(mat[i][fc] >= 0 for fc in free_cols) for i, _ in pivots):
        return None  # that pivot variable is <= 0 at every positive assignment

    for values in product(range(1, free_value_bound + 1), repeat=len(free_cols)):
        x: list[Fraction] = [Fraction(0)] * n_unknowns
        for c, v in zip(free_cols, values):
            x[c] = Fraction(v)
        ok = True
        for row_i, c in pivots:
            val = -sum(mat[row_i][fc] * x[fc] for fc in free_cols)
            if val <= 0:
                ok = False
                break
            x[c] = val
        if not ok:
            continue
        denom = math.lcm(*(v.denominator for v in x))
        ints = [int(v * denom) for v in x]
        g = math.gcd(*ints)
        return tuple(v // g for v in ints)
    return None


def _detect_one(
    vectors: list[list[int]], n: int
) -> tuple[Optional[tuple[int, ...]], Optional[int]]:
    """Weights Q and degree d with vec . Q = d for every vec, or (None, None)."""
    rows = [list(vec) + [-1] for vec in vectors]
    sol = _smallest_positive_integer_solution(rows, n + 1)
    if sol is None:
        return None, None
    return sol[:n], sol[n]


def detect_weights(poly: MixedPolynomial) -> WeightSystem:
    """Polar and radial weight systems, each independently possibly absent."""
    if not poly.monomials:
        return WeightSystem(None, None, None, None)
    arrays = polynomial_arrays([poly])
    P, d = _detect_one((arrays.N - arrays.M).tolist(), poly.n)
    Q, dr = _detect_one((arrays.N + arrays.M).tolist(), poly.n)
    return WeightSystem(P, d, Q, dr)


def polar_orbit(P: Sequence[int], lams, point) -> np.ndarray:
    """Componentwise z_j * lam^{p_j}, one row per unimodular lam of `lams` (len(lams) x n,
    or ... x len(lams) x n for a stack of points), with the bits of Python's z * lam ** p:
    CPython's square-and-multiply for p in 0..100, else its own power; products by `_cmul`."""
    lams = np.asarray(lams, dtype=complex).reshape(-1, 1)
    z = np.asarray(point, dtype=complex)[..., None, :]
    if (bad := np.abs((mod := np.abs(lams)) - 1.0) > 1e-12).any():
        raise InputError(f"lambda must be unimodular, got |lambda| = {float(mod[bad][0])!r}")
    P = np.array(P, dtype=int).reshape(-1)
    if len(P) != z.shape[-1]:
        raise InputError("weight vector and point length mismatch")
    near = np.where(far := (P < 0) | (P > 100), 0, P)  # CPython divides or uses exp/log
    shape = (len(lams), len(P))
    power, square = (np.ones(shape), np.zeros(shape)), (lams.real, lams.imag)
    for k in range(int(near.max(initial=0)).bit_length()):
        power = tuple(np.where(near >> k & 1, a, b) for a, b in zip(_cmul(power, square), power))
        square = _cmul(square, square)
    exact = (lams.astype(object) ** P[far].astype(object)).astype(complex)  # Python complex ** int
    power[0][:, far], power[1][:, far] = exact.real, exact.imag
    return np.stack(_cmul((z.real, z.imag), power), axis=-1).view(complex)[..., 0]

