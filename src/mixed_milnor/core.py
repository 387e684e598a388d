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

    def scaled(self, factor: complex) -> "MixedPolynomial":
        if factor == 0:
            return MixedPolynomial(self.n, ())
        return MixedPolynomial(
            self.n,
            tuple(
                MixedMonomial(factor * m.coefficient, m.nu, m.mu)
                for m in self.monomials
            ),
        )

    def __add__(self, other: "MixedPolynomial") -> "MixedPolynomial":
        if other.n != self.n:
            raise InputError("cannot add polynomials in different arities")
        return MixedPolynomial(self.n, self.monomials + other.monomials)


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
class WirtingerGradient:
    d_z: tuple[complex, ...]
    d_zbar: tuple[complex, ...]


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
class _KernelLayout:
    """Index and exponent arrays the batched kernel derives from N and M."""

    top: int  # highest exponent
    # rows (e * n + j) of the power table holding z_j^e for the exponents
    # e = N[i, j], M[i, j] (in that order along the first axis) ...
    power_rows: np.ndarray  # 2 x m x n
    # ... and for e = N[i, j] - 1, M[i, j] - 1 (floored at 0)
    lowered_rows: np.ndarray  # 2 x m x n
    weights: np.ndarray  # 2 x m x n: N, M as floats, the factors of the partials
    others: tuple[np.ndarray, ...]  # others[p][j]: the p-th index k != j


def _kernel_layout(N: np.ndarray, M: np.ndarray) -> _KernelLayout:
    n = N.shape[1]
    powers = np.stack([N, M])
    cols = np.arange(n)
    others = [[k for k in range(n) if k != j] for j in range(n)]
    return _KernelLayout(
        top=int(powers.max(initial=0)),
        power_rows=powers * n + cols,
        lowered_rows=np.maximum(powers - 1, 0) * n + cols,
        weights=powers.astype(float),
        others=tuple(np.array([row[p] for row in others]) for p in range(n - 1)),
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


def polynomial_arrays(
    polys: Sequence[MixedPolynomial], own_order: bool = False
) -> PolynomialArrays:
    """Stack polynomials of one arity over the union of their monomials, in
    order of first appearance.

    The kernel sums a row's monomials in column order, and a sum keeps its
    bits under a swap of its first two terms only.  With own_order, a
    monomial whose first column would otherwise reorder its polynomial's
    monomials gets a column of its own, so that every row computes the
    bits of its polynomial alone; a blend of such rows no longer holds a
    shared monomial in one column.
    """
    if not polys:
        raise InputError("polynomial_arrays needs at least one polynomial")
    n = polys[0].n
    if any(p.n != n for p in polys):
        raise InputError("polynomials must share one variable count")
    keys: list[tuple] = []
    terms = []  # (row, column, coefficient)
    for k, p in enumerate(polys):
        floor = 0  # the first column that keeps this row's order
        for i, mono in enumerate(p.monomials):
            key = (mono.nu, mono.mu)
            start = floor if own_order and i > 1 else 0
            col = next((c for c in range(start, len(keys)) if keys[c] == key), len(keys))
            if col == len(keys):
                keys.append(key)
            terms.append((k, col, mono.coefficient))
            floor = max(floor, col + 1)
    C = np.zeros((len(polys), len(keys)), dtype=complex)
    for k, col, coefficient in terms:
        C[k, col] = coefficient
    N = np.array([key[0] for key in keys], dtype=int).reshape(len(keys), n)
    M = np.array([key[1] for key in keys], dtype=int).reshape(len(keys), n)
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
    arrays: PolynomialArrays, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(f, d_z f, d_zbar f) at a K x ... x n complex array of points, where
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
    layout = arrays.layout
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
    pr, pi = pr.reshape((-1,) + batch), pi.reshape((-1,) + batch)
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
