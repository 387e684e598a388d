"""The three deformation families f_t = (1-t) f + t g connecting a mixed
polynomial to its holomorphic associate, plus the classical reference maps
eta (value preserving) and the weighted normalization onto a sphere.

Kinds:
  brieskorn:  f = sum z_j^{a_j+b_j} zbar_j^{b_j},           g = sum z_j^{a_j}
  type_i:     f = sum_{j<n} z_j^{a_j+b_j} zbar_j^{b_j} z_{j+1} + z_n^{a_n+b_n} zbar_n^{b_n}
  type_ii:    as type_i but the last term carries a trailing z_1 (indices mod n)
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

from .core import MixedMonomial, MixedPolynomial, PolynomialArrays, evaluate, polynomial_arrays
from .errors import InputError
from .numerics import monotone_root

KINDS = ("brieskorn", "type_i", "type_ii")


@dataclass(frozen=True)
class FamilySpec:
    kind: str
    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(int(v) for v in self.a))
        object.__setattr__(self, "b", tuple(int(v) for v in self.b))
        if self.kind not in KINDS:
            raise InputError(f"unknown family kind {self.kind!r}")
        if len(self.a) != len(self.b):
            raise InputError("a and b must have the same length")
        if not self.a:
            raise InputError("family needs at least one variable")
        if any(v < 1 for v in self.a):
            raise InputError("all a_j must be >= 1")
        if any(v < 0 for v in self.b):
            raise InputError("all b_j must be >= 0")
        if self.kind in ("type_i", "type_ii") and len(self.a) < 2:
            raise InputError(f"{self.kind} needs at least two variables")

    @property
    def n(self) -> int:
        return len(self.a)


def _unit(n: int, j: int, e: int) -> tuple[int, ...]:
    v = [0] * n
    v[j] = e
    return tuple(v)


def _endpoints(spec: FamilySpec) -> tuple[MixedPolynomial, MixedPolynomial]:
    n = spec.n
    mixed = []
    holo = []
    for j in range(n):
        a, b = spec.a[j], spec.b[j]
        nu = list(_unit(n, j, a + b))
        nuh = list(_unit(n, j, a))
        if spec.kind == "type_i" and j < n - 1:
            nu[j + 1] += 1
            nuh[j + 1] += 1
        elif spec.kind == "type_ii":
            nu[(j + 1) % n] += 1
            nuh[(j + 1) % n] += 1
        mixed.append(MixedMonomial(1.0, tuple(nu), _unit(n, j, b)))
        holo.append(MixedMonomial(1.0, tuple(nuh), _unit(n, j, 0)))
    return MixedPolynomial(n, tuple(mixed)), MixedPolynomial(n, tuple(holo))


@dataclass(frozen=True)
class DeformationFamily:
    spec: FamilySpec
    endpoint_mixed: MixedPolynomial
    endpoint_holomorphic: MixedPolynomial

    @property
    def n(self) -> int:
        return self.spec.n

    @functools.cached_property
    def endpoint_arrays(self) -> PolynomialArrays:
        """f and g as rows 0 and 1 of one array form.  f_t = (1-t) f + t g is
        linear in t, so every member's value and partials blend from these."""
        return polynomial_arrays([self.endpoint_mixed, self.endpoint_holomorphic])

    def member(self, t: float) -> MixedPolynomial:
        """(1-t) f + t g as a genuine mixed polynomial (merged monomials)."""
        t = float(t)
        if t == 0.0:
            return self.endpoint_mixed
        if t == 1.0:
            return self.endpoint_holomorphic
        return self.endpoint_mixed.scaled(1.0 - t) + self.endpoint_holomorphic.scaled(t)

    def reversed(self) -> "DeformationFamily":
        """Family running from g back to f (member(t) = original member(1-t))."""
        return DeformationFamily(self.spec, self.endpoint_holomorphic, self.endpoint_mixed)


def build_family(spec: FamilySpec) -> DeformationFamily:
    mixed, holo = _endpoints(spec)
    return DeformationFamily(spec, mixed, holo)


def family_t_derivative(fam: DeformationFamily, t: float, point: Sequence[complex]) -> complex:
    """d/dt of f_t at a fixed point; the blend is linear in t, so this is g - f."""
    if not 0.0 <= t <= 1.0:
        raise InputError("t must lie in [0, 1]")
    return evaluate(fam.endpoint_holomorphic, point) - evaluate(fam.endpoint_mixed, point)


@dataclass(frozen=True)
class MilnorTubeSpec:
    radius: float
    tube_level: float  # eta_0

    def __post_init__(self):
        if self.radius <= 0 or self.tube_level <= 0:
            raise InputError("tube radius and level must be positive")


def eta_map(spec: FamilySpec, point: Sequence[complex]) -> tuple[complex, ...]:
    """w_j = z_j |z_j|^{2 b_j / a_j}; value preserving between f_{a,b} and f_a.

    Continuous extension at z_j = 0; not differentiable there, used only as
    an oracle and never differentiated.
    """
    if spec.kind != "brieskorn":
        raise InputError("eta_map is defined for brieskorn specs only")
    pt = [complex(w) for w in point]
    if len(pt) != spec.n:
        raise InputError("point length mismatch")
    return tuple(
        z * abs(z) ** (2.0 * b / a) if z != 0 else 0j
        for z, a, b in zip(pt, spec.a, spec.b)
    )


def normalize_to_sphere(
    P: Sequence[int], point: Sequence[complex], radius: float = 1.0
) -> tuple[complex, ...]:
    """Weighted rescaling r(w) o w with || r(w) o w || = radius, r(w) > 0.

    s -> ||(s^{p_j} w_j)_j|| is strictly increasing, so the rescaling factor
    is found by monotone root-finding.
    """
    pt = [complex(w) for w in point]
    if len(P) != len(pt):
        raise InputError("weight vector and point length mismatch")
    if all(z == 0 for z in pt):
        raise InputError("cannot normalize the zero vector")
    if radius <= 0:
        raise InputError("radius must be positive")
    mods2 = [abs(z) ** 2 for z in pt]
    powers = [2 * int(p) for p in P]

    def norm2(s: float) -> float:
        return sum(m * s**p for m, p in zip(mods2, powers))

    def dnorm2(s: float) -> float:
        return sum(m * p * s ** (p - 1) for m, p in zip(mods2, powers))

    s = monotone_root(norm2, radius**2, dfn=dnorm2)
    return tuple(z * s ** int(p) for z, p in zip(pt, P))
