"""Deterministic JSON report writing: complex serialization and byte-stable
dumping (sorted keys, shortest round-trip floats)."""

from __future__ import annotations

import dataclasses
import math
from json.encoder import encode_basestring_ascii as _string
from typing import Any, Optional


# float.__repr__ of a non-finite complex part -> what json.dumps writes for it
_BARE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _leaves(items, pad: Optional[str], sep: str) -> Optional[str]:
    """The items of a list written at `pad` and joined by `sep`, in one join
    when they are all finite floats, all ints or all complex numbers with
    finite parts; None otherwise."""
    kinds = set(map(type, items))
    if kinds == {int}:
        return sep.join(map(int.__repr__, items))
    if kinds == {float} and math.isfinite(sum(items)):
        return sep.join(map(float.__repr__, items))
    if kinds == {complex}:
        parts = [x for c in items for x in (c.real, c.imag)]
        if math.isfinite(sum(parts)):
            start, sep2 = ("", ", ") if pad is None else (pad + "  ", "," + pad + "  ")
            pair = "[" + start + "{}" + sep2 + "{}" + (pad or "") + "]"
            return sep.join([pair] * len(items)).format(*map(float.__repr__, parts))
    return None


def _write(obj: Any, out: list, pad: Optional[str], plans: dict) -> None:
    """Append the JSON text of a report value to out: complex numbers as
    [re, im], other non-finite floats as the strings "nan", "inf" and "-inf",
    dataclasses as objects of their fields, dict keys as str(key) in sorted
    order and unknown values as str(value).  Container items go on lines of
    their own, two spaces past `pad` (newline and indent), or on one line.
    A dict with only str keys takes its key order and '"key": ' prefixes
    from `plans`, filled once per (keys, pad)."""
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
            items, plan = obj, plans.get((tuple(obj), pad))
            if plan is None:
                if any(type(key) is not str for key in obj):
                    items = {str(key): value for key, value in obj.items()}
                keys = enumerate(sorted(items))
                plan = [(k, (sep if i else "") + _string(k) + ": ") for i, k in keys]
                if items is obj:
                    plans[tuple(obj), pad] = plan
            out.append("{" + start)
            for key, prefix in plan:
                out.append(prefix)
                _write(items[key], out, inner, plans)
            out.append(end + "}")
        else:
            out.append("[" + start)
            leaves = _leaves(obj, inner, sep)
            if leaves is not None:
                out.append(leaves)
            else:
                for i, item in enumerate(obj):
                    if i:
                        out.append(sep)
                    if type(item) is float and math.isfinite(item):
                        out.append(float.__repr__(item))
                    else:
                        _write(item, out, inner, plans)
            out.append(end + "]")
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        _write({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}, out, pad, plans)
    else:
        out.append(_string(str(obj)))


def dumps(report: Any, one_line: bool = False) -> str:
    """The report as JSON, written in one pass: the bytes of
    json.dumps(..., sort_keys=True, indent=2) + "\n" on the values converted
    as `_write` says, or of json.dumps(..., sort_keys=True) with one_line."""
    out: list[str] = []
    _write(report, out, None if one_line else "\n", {})
    return "".join(out) + ("" if one_line else "\n")
