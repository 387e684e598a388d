"""Deterministic JSON report assembly: manifests, complex serialization and
byte-stable dumping (sorted keys, shortest round-trip floats)."""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time
from json.encoder import encode_basestring_ascii as _string
from typing import Any, Optional


# float.__repr__ of a non-finite complex part -> what json.dumps writes for it
_BARE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _write(obj: Any, out: list, pad: Optional[str]) -> None:
    """Append the JSON text of a report value to out: complex numbers as
    [re, im], other non-finite floats as the strings "nan", "inf" and "-inf",
    dataclasses as objects of their fields, dict keys as str(key) in sorted
    order and unknown values as str(value).  Container items go on lines of
    their own, two spaces past `pad` (newline and indent), or on one line."""
    if isinstance(obj, float):
        out.append(float.__repr__(obj) if math.isfinite(obj) else _string(repr(obj)))
    elif isinstance(obj, str):
        out.append(_string(obj))
    elif obj is None or obj is True or obj is False:
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (complex, list, tuple, dict)):
        inner = None if pad is None else pad + "  "
        start, sep, end = ("", ", ", "") if pad is None else (inner, "," + inner, pad)
        if isinstance(obj, complex):
            re, im = (float.__repr__(float(x)) for x in (obj.real, obj.imag))
            out.append(f"[{start}{_BARE.get(re, re)}{sep}{_BARE.get(im, im)}{end}]")
        elif not obj:
            out.append("{}" if isinstance(obj, dict) else "[]")
        elif isinstance(obj, dict):
            items = {str(key): value for key, value in obj.items()}
            out.append("{" + start)
            for i, key in enumerate(sorted(items)):
                out.append((sep if i else "") + _string(key) + ": ")
                _write(items[key], out, inner)
            out.append(end + "}")
        else:
            out.append("[" + start)
            for i, item in enumerate(obj):
                if i:
                    out.append(sep)
                if type(item) is float and math.isfinite(item):
                    out.append(float.__repr__(item))
                else:
                    _write(item, out, inner)
            out.append(end + "]")
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        _write({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}, out, pad)
    else:
        out.append(_string(str(obj)))


def dumps(report: Any, one_line: bool = False) -> str:
    """The report as JSON, written in one pass: the bytes of
    json.dumps(..., sort_keys=True, indent=2) + "\n" on the values converted
    as `_write` says, or of json.dumps(..., sort_keys=True) with one_line."""
    out: list[str] = []
    _write(report, out, None if one_line else "\n")
    return "".join(out) + ("" if one_line else "\n")


def content_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def build_manifest(
    subcommand: str,
    spec_digest: Optional[str],
    parameters: dict,
    seed: Optional[int],
    version: str,
    outcome: str,
    canonical: bool,
    started: float,
    finished: float,
) -> dict:
    manifest = {
        "subcommand": subcommand,
        "spec_digest": spec_digest,
        "parameters": parameters,
        "seed": seed,
        "tool_version": version,
        "outcome": outcome,
    }
    if not canonical:
        manifest["started_at"] = time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)
        )
        manifest["finished_at"] = time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime(finished)
        )
    return manifest
