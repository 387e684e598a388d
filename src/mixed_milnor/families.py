"""The three deformation families f_t = (1-t) f + t g connecting a mixed
polynomial to its holomorphic associate, plus the classical value-preserving
reference map eta.

Kinds:
  brieskorn:  f = sum z_j^{a_j+b_j} zbar_j^{b_j},           g = sum z_j^{a_j}
  type_i:     f = sum_{j<n} z_j^{a_j+b_j} zbar_j^{b_j} z_{j+1} + z_n^{a_n+b_n} zbar_n^{b_n}
  type_ii:    as type_i but the last term carries a trailing z_1 (indices mod n)
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import MixedMonomial, MixedPolynomial, PolynomialArrays, polynomial_arrays
from .errors import InputError, PreconditionError

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


def require_unit_t(t: float, name: str = "t") -> None:
    """Members, derivatives and transports exist for t in [0, 1] only (not NaN)."""
    if not 0.0 <= t <= 1.0:
        raise PreconditionError(f"{name} must lie in [0, 1], not {t!r}")


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

    def members(self, ts) -> PolynomialArrays:
        """The members (1-t) f + t g at every t of `ts` as rows over the
        monomials of `endpoint_arrays`, row k computed from ts[k] alone: the
        one array form in which a member reaches the kernel."""
        ts = np.asarray(ts, dtype=float).reshape(-1)
        bad = ts[~((0.0 <= ts) & (ts <= 1.0))]  # NaN included
        if bad.size:
            require_unit_t(float(bad[0]))
        ends = self.endpoint_arrays
        f, g = ends.C
        return ends.with_coefficients((1.0 - ts)[:, None] * f + ts[:, None] * g)

    def member(self, t: float) -> MixedPolynomial:
        """(1-t) f + t g as a genuine mixed polynomial: its `members` row
        without zero coefficients.  The endpoints are f and g themselves,
        whose own monomial order the endpoint layout may not keep."""
        t = float(t)
        require_unit_t(t)
        if t == 0.0:
            return self.endpoint_mixed
        if t == 1.0:
            return self.endpoint_holomorphic
        row = self.members([t])
        terms = zip(row.C[0].tolist(), row.N.tolist(), row.M.tolist())
        monos = (MixedMonomial(c, nu, mu) for c, nu, mu in terms if c != 0)
        return MixedPolynomial(self.n, tuple(monos))

    def reversed(self) -> "DeformationFamily":
        """Family running from g back to f (member(t) = original member(1-t))."""
        return DeformationFamily(self.spec, self.endpoint_holomorphic, self.endpoint_mixed)


def build_family(spec: FamilySpec) -> DeformationFamily:
    mixed, holo = _endpoints(spec)
    return DeformationFamily(spec, mixed, holo)


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
