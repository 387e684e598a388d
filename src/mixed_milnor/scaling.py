"""Coefficient normalization for simplicial mixed polynomials.

For a simplicial polynomial (n monomials, N+M and N-M nondegenerate) there
is a diagonal scaling z_j -> alpha_j z_j after which every coefficient is 1.
Writing alpha_j = exp(gamma_j + i eps_j) and c_i = exp(a_i + i b_i), the
scaling solves the two real row-vector systems

    gamma . (N + M) = a        eps . (N - M) = b
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    MixedMonomial,
    MixedPolynomial,
    evaluate,
    is_simplicial,
    polynomial_arrays,
)
from .errors import InputError, PreconditionError
from .numerics import random_sphere_point, rng_for


@dataclass(frozen=True)
class ScalingSolution:
    alpha: tuple[complex, ...]
    gamma: tuple[float, ...]
    epsilon: tuple[float, ...]
    residual: float
    condition_number: float


@dataclass(frozen=True)
class NormalizationResult:
    scaling: ScalingSolution
    normalized: MixedPolynomial


def _coefficient_under_scaling(mono: MixedMonomial, alpha: tuple[complex, ...]) -> complex:
    """Coefficient picked up by z -> (alpha_j z_j): alpha^nu * conj(alpha)^mu."""
    acc = 1.0 + 0j
    for j, (nu, mu) in enumerate(zip(mono.nu, mono.mu)):
        if nu:
            acc *= alpha[j] ** nu
        if mu:
            acc *= alpha[j].conjugate() ** mu
    return acc


def normalize_coefficients(poly: MixedPolynomial) -> NormalizationResult:
    """Scaling alpha with unit-coefficient f~ satisfying f~(alpha * z) = f(z).

    Coefficient arguments are taken on the principal branch (-pi, pi]; the
    argument system is solved over the reals, so alpha is one representative
    of the 2*pi lattice of solutions.
    """
    rep = is_simplicial(poly)
    if not rep.simplicial:
        m, n = len(poly.monomials), poly.n
        if m != n:
            raise PreconditionError(f"polynomial is not simplicial: {m} monomials, {n} variables")
        which = "det(N-M)" if rep.det_minus == 0 else "det(N+M)"
        raise PreconditionError(f"polynomial is not simplicial: {which} = 0")
    n = poly.n
    log_abs = np.empty(n)
    args = np.empty(n)
    for i, mono in enumerate(poly.monomials):
        c = mono.coefficient
        if c == 0:
            raise InputError("zero coefficient")  # unreachable in canonical form
        log_abs[i] = math.log(abs(c))
        args[i] = cmath.phase(c)  # principal branch

    # variables x monomials, as in gamma . (N + M) = a
    arrays = polynomial_arrays([poly])
    plus = (arrays.N + arrays.M).T.astype(float)
    minus = (arrays.N - arrays.M).T.astype(float)
    cond = max(np.linalg.cond(plus), np.linalg.cond(minus))
    if cond > 1e8:
        warnings.warn(
            f"near-degenerate exponent matrices: condition number {cond:.3e}",
            RuntimeWarning,
        )
    # gamma . plus = log_abs  <=>  plus^T gamma = log_abs
    gamma = np.linalg.solve(plus.T, log_abs)
    epsilon = np.linalg.solve(minus.T, args)
    alpha = tuple(cmath.exp(complex(g, e)) for g, e in zip(gamma, epsilon))

    residual = 0.0
    normalized_monos = []
    for mono in poly.monomials:
        scaled = _coefficient_under_scaling(mono, alpha)
        residual = max(residual, abs(scaled / mono.coefficient - 1.0))
        normalized_monos.append(
            MixedMonomial(mono.coefficient / scaled, mono.nu, mono.mu)
        )
    solution = ScalingSolution(alpha, tuple(gamma), tuple(epsilon), residual, cond)
    return NormalizationResult(solution, MixedPolynomial(n, tuple(normalized_monos)))


def verify_scaling(
    poly: MixedPolynomial,
    scaling: ScalingSolution,
    samples: int = 100,
    seed: int = 0,
) -> float:
    """Max relative residual |f~(alpha*z) - f(z)| / (1 + |f(z)|) at random z,
    where f~ is the unit-coefficient polynomial on the same exponents."""
    if len(scaling.alpha) != poly.n:
        raise InputError("scaling arity does not match polynomial")
    unit = MixedPolynomial(
        poly.n,
        tuple(MixedMonomial(1.0, m.nu, m.mu) for m in poly.monomials),
    )
    rng = rng_for(seed, "verify_scaling")
    worst = 0.0
    for _ in range(samples):
        z = random_sphere_point(rng, poly.n, float(rng.uniform(0.3, 1.5)))
        w = tuple(a * zj for a, zj in zip(scaling.alpha, z))
        fz = evaluate(poly, z)
        worst = max(worst, abs(evaluate(unit, w) - fz) / (1.0 + abs(fz)))
    return worst
