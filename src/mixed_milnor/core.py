"""Exact representation and Wirtinger calculus for mixed polynomials.

A mixed polynomial is a finite sum  sum_i c_i z^{nu_i} zbar^{mu_i}  in the
variables z_1..z_n and their conjugates.  Exponents are exact machine
integers; evaluation and differentiation are double precision.
"""

from __future__ import annotations

import cmath
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
class ExponentMatrices:
    """Columns of N are the z-exponents nu_i, columns of M the zbar-exponents."""

    N: tuple[tuple[int, ...], ...]  # n rows, m columns
    M: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.N)

    @property
    def m(self) -> int:
        return len(self.N[0]) if self.N else 0


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


@dataclass(frozen=True, eq=False)
class PolynomialArrays:
    """Array form of K mixed polynomials in n variables over one shared
    monomial list: row i of N and M holds the exponents of monomial i, row k
    of C the coefficients of polynomial k (zero where it lacks the monomial)."""

    N: np.ndarray  # m x n z-exponents
    M: np.ndarray  # m x n zbar-exponents
    C: np.ndarray  # K x m complex coefficients

    def rows(self, index) -> "PolynomialArrays":
        """The polynomials picked by `index` (anything that indexes C's rows)."""
        return PolynomialArrays(self.N, self.M, self.C[index])


def polynomial_arrays(polys: Sequence[MixedPolynomial]) -> PolynomialArrays:
    """Stack polynomials of one arity over the union of their monomials, in
    order of first appearance."""
    if not polys:
        raise InputError("polynomial_arrays needs at least one polynomial")
    n = polys[0].n
    if any(p.n != n for p in polys):
        raise InputError("polynomials must share one variable count")
    column: dict[tuple, int] = {}
    for p in polys:
        for mono in p.monomials:
            column.setdefault((mono.nu, mono.mu), len(column))
    C = np.zeros((len(polys), len(column)), dtype=complex)
    for k, p in enumerate(polys):
        for mono in p.monomials:
            C[k, column[(mono.nu, mono.mu)]] = mono.coefficient
    N = np.array([key[0] for key in column], dtype=int).reshape(len(column), n)
    M = np.array([key[1] for key in column], dtype=int).reshape(len(column), n)
    return PolynomialArrays(N, M, C)


# The batched kernel works on (real, imaginary) pairs of float arrays.  Every
# step is an elementwise IEEE operation and every sum runs in a fixed order, so
# a point's result does not depend on the size or contents of its batch.


def _cmul(a: tuple, b: tuple) -> tuple:
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _sum_leading(a: np.ndarray) -> np.ndarray:
    total = a[0]
    for row in a[1:]:
        total = total + row
    return total


def wirtinger_gradient_batch(
    arrays: PolynomialArrays, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(d_z f, d_zbar f) at a K x ... x n complex array of points, where the
    points z[k] belong to polynomial k.  Both results have the shape of z.

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
        return np.zeros_like(z), np.zeros_like(z)
    # power[p] = z ** p by repeated multiplication
    top = max(int(arrays.N.max()), int(arrays.M.max()))
    pr = np.empty((top + 1,) + z.shape)
    pi = np.empty_like(pr)
    pr[0], pi[0] = 1.0, 0.0
    for p in range(1, top + 1):
        pr[p], pi[p] = _cmul((pr[p - 1], pi[p - 1]), (z.real, z.imag))
    cols = np.arange(n)

    def power(E: np.ndarray, conj: bool) -> tuple:
        """z_j ** E[i, j] (or its conjugate) as m x n x K x ... arrays."""
        return pr[E, ..., cols], (-pi[E, ..., cols] if conj else pi[E, ..., cols])

    zpow = power(arrays.N, False)
    cpow = power(arrays.M, True)
    fr, fi = _cmul(zpow, cpow)
    # rest[:, j] = c_i * prod_{k != j} z_k^N[i, k] zbar_k^M[i, k]
    coef = arrays.C.T.reshape((m,) + z.shape[:1] + (1,) * (z.ndim - 2))
    rest = np.empty_like(fr), np.empty_like(fi)
    for j in range(n):
        r = coef.real, coef.imag
        for k in range(n):
            if k != j:
                r = _cmul(r, (fr[:, k], fi[:, k]))
        rest[0][:, j], rest[1][:, j] = r

    exponent_shape = (m, n) + (1,) * (z.ndim - 1)
    back = tuple(range(1, z.ndim)) + (0,)
    out = []
    for E, other, conj in ((arrays.N, cpow, False), (arrays.M, zpow, True)):
        re, im = _cmul(_cmul(rest, power(np.maximum(E - 1, 0), conj)), other)
        e = E.astype(float).reshape(exponent_shape)
        d = np.empty((n,) + z.shape[:-1], dtype=complex)
        d.real = _sum_leading(re * e)
        d.imag = _sum_leading(im * e)
        out.append(d.transpose(back))
    return out[0], out[1]


def exponent_matrices(poly: MixedPolynomial) -> ExponentMatrices:
    """N, M with one column per monomial, in the polynomial's order."""
    cols_n = [m.nu for m in poly.monomials]
    cols_m = [m.mu for m in poly.monomials]
    N = tuple(tuple(col[j] for col in cols_n) for j in range(poly.n))
    M = tuple(tuple(col[j] for col in cols_m) for j in range(poly.n))
    return ExponentMatrices(N, M)


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


def is_simplicial(mats: ExponentMatrices) -> SimplicialityReport:
    """m = n monomials with both N+M and N-M nondegenerate over the integers."""
    if mats.m != mats.n:
        return SimplicialityReport(False, None, None)
    plus = [
        [mats.N[j][i] + mats.M[j][i] for i in range(mats.m)] for j in range(mats.n)
    ]
    minus = [
        [mats.N[j][i] - mats.M[j][i] for i in range(mats.m)] for j in range(mats.n)
    ]
    det_plus = integer_determinant(plus)
    det_minus = integer_determinant(minus)
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


def _detect_one(vectors: list[tuple[int, ...]], n: int) -> tuple[Optional[tuple[int, ...]], Optional[int]]:
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
    polar_vecs = [
        tuple(m.nu[j] - m.mu[j] for j in range(poly.n)) for m in poly.monomials
    ]
    radial_vecs = [
        tuple(m.nu[j] + m.mu[j] for j in range(poly.n)) for m in poly.monomials
    ]
    P, d = _detect_one(polar_vecs, poly.n)
    Q, dr = _detect_one(radial_vecs, poly.n)
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
