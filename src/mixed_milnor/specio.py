"""Polynomial / family spec ingestion (JSON).

Two accepted shapes, with no other keys:
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


def _clip(text: str) -> str:
    """At most 60 characters of an echoed input: a huge integer has thousands."""
    return text[:60] + "..." * (len(text) > 60)


def _coefficient(value) -> complex:
    parts = value if isinstance(value, list) else [value, 0]
    finite = [type(v) in (int, float) and abs(v) <= sys.float_info.max for v in parts]
    if len(parts) != 2 or not all(finite):  # NaN, infinities and ints past the float range
        got = _clip(repr(value))
        raise InputError(f"coefficient must be a finite number or [re, im], got {got}")
    return complex(parts[0], parts[1])


def _known(data, keys: set, what: str) -> None:
    # a misspelt key must not read as an absent one
    if isinstance(data, dict) and (extra := sorted(set(data) - keys)):
        raise InputError(f"{what} has unknown keys: {_clip(', '.join(map(repr, extra)))}")


def _monomial(entry) -> MixedMonomial:
    _known(entry, {"c", "nu", "mu"}, "monomial")
    return MixedMonomial(
        _coefficient(entry["c"]), _integers(entry["nu"], "nu"), _integers(entry["mu"], "mu")
    )


def parse_spec(data: dict) -> tuple[MixedPolynomial, Optional[DeformationFamily]]:
    if not isinstance(data, dict):
        raise InputError("spec must be a JSON object")
    if "family" in data:
        _known(data, {"family", "a", "b"}, "family spec")
        a = _integers(data.get("a"), "a")
        b = _integers(data["b"], "b") if "b" in data else (0,) * len(a)
        fam = build_family(FamilySpec(data["family"], a, b))
        return fam.endpoint_mixed, fam
    _known(data, {"n", "monomials"}, "polynomial spec")
    try:
        n = data["n"]
        monomials = tuple(map(_monomial, data["monomials"]))
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
