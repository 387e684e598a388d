"""Diagonal coefficient-normalizing scalings and their verification."""

import cmath
import math

import pytest

import oracle
from conftest import brieskorn, count_calls, poly
from mixed_milnor import scaling
from mixed_milnor import normalize_coefficients, verify_scaling
from mixed_milnor.core import polynomial_arrays
from mixed_milnor.errors import PreconditionError
from mixed_milnor.scaling import ScalingSolution
from mixed_milnor.numerics import random_sphere_point, rng_for


def test_unit_coefficients_need_no_scaling():
    fam = brieskorn((2, 3), (1, 0))
    res = normalize_coefficients(fam.endpoint_mixed)
    assert res.alpha == pytest.approx((1, 1))
    assert res.residual <= 1e-14
    assert verify_scaling(fam.endpoint_mixed, res) <= 1e-12


def test_single_variable_mixed_monomial():
    f = poly(1, [(4, (3,), (1,))])
    res = normalize_coefficients(f)
    assert res.alpha[0] == pytest.approx(4 ** 0.25)
    assert res.gamma[0] == pytest.approx(math.log(4) / 4)
    assert res.epsilon[0] == pytest.approx(0, abs=1e-12)
    assert verify_scaling(f, res) <= 1e-12


def test_holomorphic_brieskorn_closed_form():
    a = (2, 3)
    c = (1.5 * cmath.exp(0.4j), 0.3 * cmath.exp(-2.1j))
    f = poly(2, [(c[0], (2, 0), (0, 0)), (c[1], (0, 3), (0, 0))])
    res = normalize_coefficients(f)
    for j in range(2):
        expected = abs(c[j]) ** (1.0 / a[j]) * cmath.exp(1j * cmath.phase(c[j]) / a[j])
        assert res.alpha[j] == pytest.approx(expected)
    assert verify_scaling(f, res) <= 1e-12


def test_wrong_scaling_is_detected():
    f = poly(1, [(4, (3,), (1,))])
    good = normalize_coefficients(f)
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
            res.epsilon[j] * (arrays.N[i, j] - arrays.M[i, j]) for j in range(2)
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


def _normalized(f, alpha):
    """The coefficients c / (alpha^nu conj(alpha)^mu) of f after z -> alpha z."""
    return [
        m.coefficient / math.prod(a**p * a.conjugate() ** q for a, p, q in zip(alpha, m.nu, m.mu))
        for m in f.monomials
    ]


def test_round_trip_on_random_simplicial_patterns():
    rng = rng_for(9, "scaling:roundtrip")
    for _ in range(50):
        f = _random_simplicial(rng)
        scaling = normalize_coefficients(f)
        assert all(abs(c - 1) <= 1e-10 for c in _normalized(f, scaling.alpha))
        assert verify_scaling(f, scaling) <= 1e-10


def test_normalized_polynomial_has_unit_coefficients():
    f = poly(1, [(4, (3,), (1,))])
    scaling = normalize_coefficients(f)
    assert all(c == pytest.approx(1) for c in _normalized(f, scaling.alpha))


def test_rejects_non_simplicial_count():
    f = poly(2, [(1, (2, 0), (0, 0)), (1, (0, 2), (0, 0)), (1, (1, 1), (0, 0))])
    with pytest.raises(PreconditionError):
        normalize_coefficients(f)


def test_rejects_degenerate_determinant():
    f = poly(2, [(1, (1, 0), (1, 0)), (1, (0, 1), (0, 1))])
    with pytest.raises(PreconditionError, match="det"):
        normalize_coefficients(f)


def test_verify_scaling_is_one_kernel_pass_over_the_same_draws(monkeypatch):
    """f at z and f~ at alpha * z for every draw come from one kernel pass; a
    wrong scaling makes the residual depend on each point, and the oracle's
    scalar loops over the same stream give it again."""
    f = poly(2, [(1.5 + 0.5j, (2, 1), (0, 1)), (-0.7 + 2j, (0, 3), (1, 0))])
    good = normalize_coefficients(f)
    bad = ScalingSolution((1.1 * good.alpha[0], good.alpha[1]), (0.0, 0.0), (0.0, 0.0), 0.0, 1.0)
    calls = count_calls(monkeypatch, scaling, "value_and_gradient_batch")
    worst = verify_scaling(f, bad, samples=40, seed=5)
    assert len(calls) == 1
    unit = poly(2, [(1, (2, 1), (0, 1)), (1, (0, 3), (1, 0))])
    rng = rng_for(5, "verify_scaling")
    expected = 0.0
    for _ in range(40):
        z = random_sphere_point(rng, 2, float(rng.uniform(0.3, 1.5)))
        fz = oracle.evaluate(f, z)
        fw = oracle.evaluate(unit, [a * zj for a, zj in zip(bad.alpha, z)])
        expected = max(expected, abs(fw - fz) / (1.0 + abs(fz)))
    assert expected > 1e-3
    assert abs(worst - expected) <= 1e-12 * expected
    assert verify_scaling(f, bad, samples=0) == 0.0
