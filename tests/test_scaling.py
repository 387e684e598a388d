"""Diagonal coefficient-normalizing scalings and their verification."""

import cmath
import math

import pytest

from conftest import brieskorn, poly
from mixed_milnor import normalize_coefficients, verify_scaling
from mixed_milnor.core import polynomial_arrays
from mixed_milnor.errors import PreconditionError
from mixed_milnor.scaling import ScalingSolution
from mixed_milnor.numerics import rng_for


def test_unit_coefficients_need_no_scaling():
    fam = brieskorn((2, 3), (1, 0))
    res = normalize_coefficients(fam.endpoint_mixed)
    assert res.scaling.alpha == pytest.approx((1, 1))
    assert res.scaling.residual <= 1e-14
    assert verify_scaling(fam.endpoint_mixed, res.scaling) <= 1e-12


def test_single_variable_mixed_monomial():
    f = poly(1, [(4, (3,), (1,))])
    res = normalize_coefficients(f)
    assert res.scaling.alpha[0] == pytest.approx(4 ** 0.25)
    assert res.scaling.gamma[0] == pytest.approx(math.log(4) / 4)
    assert res.scaling.epsilon[0] == pytest.approx(0, abs=1e-12)
    assert verify_scaling(f, res.scaling) <= 1e-12


def test_holomorphic_brieskorn_closed_form():
    a = (2, 3)
    c = (1.5 * cmath.exp(0.4j), 0.3 * cmath.exp(-2.1j))
    f = poly(2, [(c[0], (2, 0), (0, 0)), (c[1], (0, 3), (0, 0))])
    res = normalize_coefficients(f)
    for j in range(2):
        expected = abs(c[j]) ** (1.0 / a[j]) * cmath.exp(1j * cmath.phase(c[j]) / a[j])
        assert res.scaling.alpha[j] == pytest.approx(expected)
    assert verify_scaling(f, res.scaling) <= 1e-12


def test_wrong_scaling_is_detected():
    f = poly(1, [(4, (3,), (1,))])
    good = normalize_coefficients(f).scaling
    bad = ScalingSolution(
        tuple(a + 0.1 for a in good.alpha),
        good.gamma,
        good.epsilon,
        good.residual,
        good.condition_number,
    )
    assert verify_scaling(f, bad) > 1e-3


def test_argument_system_solved_exactly():
    rng = rng_for(21, "scaling:args")
    c = [complex(rng.normal(), rng.normal()) for _ in range(2)]
    f = poly(2, [(c[0], (3, 1), (1, 0)), (c[1], (0, 4), (0, 1))])
    res = normalize_coefficients(f)
    arrays = polynomial_arrays([f])
    for i, mono in enumerate(f.monomials):
        acc = sum(
            res.scaling.epsilon[j] * (arrays.N[i, j] - arrays.M[i, j]) for j in range(2)
        )
        assert acc == pytest.approx(cmath.phase(mono.coefficient), abs=1e-9)


def _random_simplicial(rng):
    """Random coefficients on a brieskorn or chained exponent pattern."""
    n = int(rng.integers(1, 4))
    a = [int(rng.integers(1, 6)) for _ in range(n)]
    b = [int(rng.integers(0, 4)) for _ in range(n)]
    chained = n >= 2 and rng.random() < 0.5
    terms = []
    for j in range(n):
        nu = [0] * n
        mu = [0] * n
        nu[j] = a[j] + b[j]
        mu[j] = b[j]
        if chained and j < n - 1:
            nu[j + 1] += 1
        modulus = float(math.exp(rng.uniform(math.log(0.1), math.log(10.0))))
        c = modulus * cmath.exp(1j * float(rng.uniform(-math.pi, math.pi)))
        terms.append((c, tuple(nu), tuple(mu)))
    return poly(n, terms)


def test_round_trip_on_random_simplicial_patterns():
    rng = rng_for(9, "scaling:roundtrip")
    for _ in range(50):
        f = _random_simplicial(rng)
        res = normalize_coefficients(f)
        assert all(abs(c.coefficient - 1) <= 1e-10 for c in res.normalized.monomials)
        assert verify_scaling(f, res.scaling) <= 1e-10


def test_normalized_polynomial_has_unit_coefficients():
    f = poly(1, [(4, (3,), (1,))])
    res = normalize_coefficients(f)
    assert all(m.coefficient == pytest.approx(1) for m in res.normalized.monomials)


def test_rejects_non_simplicial_count():
    f = poly(2, [(1, (2, 0), (0, 0)), (1, (0, 2), (0, 0)), (1, (1, 1), (0, 0))])
    with pytest.raises(PreconditionError):
        normalize_coefficients(f)


def test_rejects_degenerate_determinant():
    f = poly(2, [(1, (1, 0), (1, 0)), (1, (0, 1), (0, 1))])
    with pytest.raises(PreconditionError, match="det"):
        normalize_coefficients(f)
