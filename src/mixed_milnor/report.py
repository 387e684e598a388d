"""Deterministic JSON report writing: complex serialization and byte-stable
dumping (sorted keys, shortest round-trip floats)."""

from __future__ import annotations

import dataclasses
import math
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _string
from typing import Any, Optional, Sequence


# float.__repr__ of a non-finite complex part -> what json.dumps writes for it
_BARE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _rows(glue: list, columns: list) -> list[str]:
    """Row i: glue[0] + columns[0][i] + glue[1] + ... + glue[-1]; needs a column."""
    parts = [repeat(glue[0])]
    for column, text in zip(columns, glue[1:]):
        parts += (column, repeat(text))
    return list(map("".join, zip(*parts)))


def _split(values: Sequence, keys, pad: Optional[str]) -> list[str]:
    """`_column` of values grouped by key, group by group, scattered back."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    written: dict = {}
    for rows in groups.values():
        written.update(zip(rows, _column(list(map(values.__getitem__, rows)), pad)))
    return list(map(written.__getitem__, range(len(values))))


def _column(values: Sequence, pad: Optional[str]) -> list[str]:
    """The JSON text of each of many report values that share a role, in one
    pass: complex numbers as [re, im], other non-finite floats as the strings
    "nan", "inf" and "-inf", dataclasses as objects of their fields, dict keys
    as str(key) in sorted order (a later key wins a collision) and unknown
    values as str(value).  Container items go on lines of their own, two
    spaces past `pad` (newline and indent), or on one line.  The items of
    sibling lists of one length form one column, and so do the values under
    one key of sibling dicts with the same keys; mixed types, lengths and key
    sets are split."""
    kinds = set(map(type, values))
    if len(kinds) != 1:
        return _split(values, map(type, values), pad) if kinds else []
    kind = kinds.pop()
    if issubclass(kind, float):
        text = list(map(float.__repr__, values))
        if kind is float and math.isfinite(sum(values)):  # a numpy sum warns on overflow
            return text
        return [t if math.isfinite(v) else _string(repr(v)) for t, v in zip(text, values)]
    if issubclass(kind, str):
        return list(map(_string, values))
    if kind is bool or kind is type(None):
        return list(map({True: "true", False: "false", None: "null"}.__getitem__, values))
    if issubclass(kind, int):
        return list(map(int.__repr__, values))
    inner = None if pad is None else pad + "  "
    start, sep, end = ("", ", ", "") if pad is None else (inner, "," + inner, pad)
    if issubclass(kind, complex):
        parts = [c.real for c in values] + [c.imag for c in values]
        text = list(map(float.__repr__, parts))
        if kind is not complex or not math.isfinite(sum(parts)):
            text = list(map(_BARE.get, text, text))
        return _rows(["[" + start, sep, end + "]"], [text[: len(values)], text[len(values) :]])
    if issubclass(kind, (list, tuple)):
        sizes = list(map(len, values))
        if min(sizes) != max(sizes):
            return _split(values, sizes, pad)
        if not sizes[0]:
            return ["[]"] * len(values)
        k, items = sizes[0], _column(list(chain.from_iterable(values)), inner)
        return _rows(["[" + start, *[sep] * (k - 1), end + "]"], [items[j::k] for j in range(k)])
    if issubclass(kind, dict):
        keysets = list(map(tuple, values))
        if len(set(keysets)) > 1:
            return _split(values, keysets, pad)
        last = dict(zip(map(str, keysets[0]), range(len(keysets[0]))))
        if not last:
            return ["{}"] * len(values)
        names, columns = sorted(last), list(zip(*map(kind.values, values)))
        glue = [(sep if i else "{" + start) + _string(k) + ": " for i, k in enumerate(names)]
        return _rows(glue + [end + "}"], [_column(columns[last[k]], inner) for k in names])
    if dataclasses.is_dataclass(kind):
        names = [f.name for f in dataclasses.fields(kind)]
        return _column([{name: getattr(v, name) for name in names} for v in values], pad)
    return list(map(_string, map(str, values)))


def dumps(report: Any, one_line: bool = False) -> str:
    """The report as JSON, written by `_column`: the bytes of json.dumps(...,
    sort_keys=True, indent=2) + "\n", or of json.dumps(..., sort_keys=True) with one_line."""
    return _column([report], None)[0] if one_line else _column([report], "\n")[0] + "\n"
