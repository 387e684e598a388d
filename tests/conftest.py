"""Shared builders for the test suite."""

import math

import numpy as np

import oracle
from mixed_milnor import FamilySpec, build_family
from mixed_milnor.core import (
    MixedMonomial, MixedPolynomial, polynomial_arrays, value_and_gradient_batch
)


def poly(n, terms):
    """Build a MixedPolynomial from (coefficient, nu, mu) triples."""
    return MixedPolynomial(n, tuple(MixedMonomial(c, nu, mu) for c, nu, mu in terms))


def partials(f, point):
    """(f, d_z f, d_zbar f) at one point: a K = 1 pass of the batched kernel."""
    z = np.array([point], dtype=complex)
    result = value_and_gradient_batch(polynomial_arrays([f]), z)
    value, d_z, d_zbar = oracle.complex_partials(result)
    return complex(value[0]), d_z[0], d_zbar[0]


def same_bits(a, b):
    """The same shape, NaN where the other is NaN, and the same bits elsewhere
    (so the same sign of every zero)."""
    nan = np.isnan(a)
    return a.shape == b.shape and np.array_equal(nan, np.isnan(b)) and (
        a[~nan].tobytes() == b[~nan].tobytes()
    )


def brieskorn(a, b=None):
    b = b or (0,) * len(a)
    return build_family(FamilySpec("brieskorn", tuple(a), tuple(b)))


def random_mixed(rng, n, monomial_count, max_exp=4):
    """Random dense-ish mixed polynomial with distinct exponent pairs."""
    terms = []
    seen = set()
    while len(terms) < monomial_count:
        nu = tuple(int(rng.integers(0, max_exp + 1)) for _ in range(n))
        mu = tuple(int(rng.integers(0, max_exp + 1)) for _ in range(n))
        if (nu, mu) in seen or sum(nu) + sum(mu) == 0:
            continue
        seen.add((nu, mu))
        c = complex(rng.normal(), rng.normal())
        if abs(c) < 0.1:
            c = c + 0.5
        terms.append((c, nu, mu))
    return poly(n, terms)


def lcm_of(values):
    return math.lcm(*values)


def count_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper that records the arguments of each
    call; returns that record."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls
