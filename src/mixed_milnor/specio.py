"""Polynomial / family spec ingestion (JSON).

Two accepted shapes:
  {"n": 2, "monomials": [{"c": [re, im], "nu": [3, 0], "mu": [1, 0]}, ...]}
  {"family": "brieskorn" | "type_i" | "type_ii", "a": [...], "b": [...]}
"""

from __future__ import annotations

import json
import sys
from typing import Optional

from .core import MixedMonomial, MixedPolynomial
from .errors import InputError
from .families import DeformationFamily, FamilySpec, build_family


def _integers(value, what: str) -> tuple[int, ...]:
    # bool is an int subclass, and JSON true must not read as 1
    if not isinstance(value, list) or any(type(v) is not int for v in value):
        raise InputError(f"{what} must be a list of integers, got {value!r}")
    return tuple(value)


def _coefficient(value) -> complex:
    parts = value if isinstance(value, list) else [value, 0]
    finite = [type(v) in (int, float) and abs(v) <= sys.float_info.max for v in parts]
    if len(parts) != 2 or not all(finite):  # NaN, infinities and ints past the float range
        got = repr(value)  # at most 60 characters of it: a huge integer has thousands
        raise InputError(f"coefficient must be a finite number or [re, im], got {got[:60]}"
                         f"{'...' * (len(got) > 60)}")
    return complex(parts[0], parts[1])


def parse_spec(data: dict) -> tuple[MixedPolynomial, Optional[DeformationFamily]]:
    if not isinstance(data, dict):
        raise InputError("spec must be a JSON object")
    if "family" in data:
        a = _integers(data.get("a"), "a")
        b = _integers(data["b"], "b") if "b" in data else (0,) * len(a)
        fam = build_family(FamilySpec(data["family"], a, b))
        return fam.endpoint_mixed, fam
    try:
        n = data["n"]
        monomials = tuple(
            MixedMonomial(
                _coefficient(entry["c"]),
                _integers(entry["nu"], "nu"),
                _integers(entry["mu"], "mu"),
            )
            for entry in data["monomials"]
        )
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed polynomial spec: {exc}") from exc
    if type(n) is not int:
        raise InputError(f"n must be an integer, got {n!r}")
    return MixedPolynomial(n, monomials), None


def load_spec(path: str) -> tuple[MixedPolynomial, Optional[DeformationFamily], bytes]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read spec file {path!r}: {exc}") from exc
    try:
        data = json.loads(raw)
    except ValueError as exc:  # bad JSON or UTF-8, or an integer past the digit limit
        raise InputError(f"spec file {path!r} is not valid JSON: {exc}") from exc
    poly, fam = parse_spec(data)
    return poly, fam, raw


def require_family(fam: Optional[DeformationFamily]) -> DeformationFamily:
    if fam is None:
        raise InputError("this subcommand needs a family shorthand spec")
    return fam
