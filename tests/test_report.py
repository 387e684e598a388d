"""The columnar report writer against json.dumps on the converted values and
against a writer that writes every node by itself."""

import dataclasses
import json
import math
from collections import OrderedDict
from json.encoder import encode_basestring_ascii as _string
from typing import Any

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixed_milnor import (
    FamilySpec,
    MilnorTubeSpec,
    build_family,
    check_transversality,
    sample_link,
    transport,
)
from mixed_milnor.report import dumps


def _jsonable(obj: Any) -> Any:
    """The conversion the writer replaces: a deep copy into JSON types."""
    if isinstance(obj, complex):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return str(obj)


@dataclasses.dataclass(frozen=True)
class _Pair:
    left: Any
    right: Any


@dataclasses.dataclass
class _Empty:
    pass


_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e22, 1e-5]),
)
_leaves = st.one_of(
    _floats,
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(),
    st.sampled_from(["é中", "\x00\x1f\x7f", '"\\/', "\U0001f600", ""]),
    st.builds(_Empty),
    _floats.map(np.float64),  # a float subclass
    st.integers(-5, 5).map(np.int64),  # no int subclass: written as str(value)
)
_values = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=3), st.integers(-3, 3)), inner, max_size=4),
        st.builds(_Pair, inner, inner),
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(_values)
@example(
    {
        2: [math.nan, -math.inf, -0.0, complex(math.nan, -math.inf)],
        "nested": _Pair((), {}),
        "": [[], {}, _Empty()],
        1: "é\n",
        "1": "a duplicate key after str(): the later value wins",
    }
)
def test_writer_matches_json_dumps(value):
    expected = json.dumps(_jsonable(value), sort_keys=True, indent=2) + "\n"
    assert dumps(value) == expected
    assert dumps(value, one_line=True) == json.dumps(_jsonable(value), sort_keys=True)


_BARE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _reference_write(obj: Any, out: list, pad) -> None:
    """The per-node writer, the oracle of the columnar one: every dict sorts
    and quotes its keys, and every list item is written by itself."""
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
                _reference_write(items[key], out, inner)
            out.append(end + "}")
        else:
            out.append("[" + start)
            for i, item in enumerate(obj):
                if i:
                    out.append(sep)
                if type(item) is float and math.isfinite(item):
                    out.append(float.__repr__(item))
                else:
                    _reference_write(item, out, inner)
            out.append(end + "]")
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        _reference_write({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}, out, pad)
    else:
        out.append(_string(str(obj)))


def _reference_dumps(value, one_line=False):
    out = []
    _reference_write(value, out, None if one_line else "\n")
    return "".join(out) + ("" if one_line else "\n")


_specials = st.sampled_from([math.nan, math.inf, -math.inf, None, -0.0, 1e308])
_records = st.dictionaries(
    st.sampled_from(["t", "point", "margin", "trace", "a", "é"]),
    st.one_of(
        st.lists(st.one_of(st.floats(), _specials), max_size=4),  # NaN, inf and None in float lists
        st.lists(st.integers(), max_size=3).map(tuple),
        st.lists(st.complex_numbers(allow_nan=True, allow_infinity=True), max_size=3).map(tuple),
        st.lists(st.lists(st.integers(-2, 5), min_size=2, max_size=2).map(tuple), max_size=2),
        _floats,
        st.booleans(),
    ),
    max_size=4,
)
_shapes = st.recursive(
    st.one_of(_records, _leaves),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),  # dicts of different key sets in one list
        st.dictionaries(
            st.one_of(st.sampled_from(["t", "x"]), st.integers(-2, 2)), inner, max_size=3
        ),
        st.lists(st.one_of(_floats, st.integers(), st.none()), max_size=4).map(tuple),
    ),
    max_leaves=20,
)


@settings(max_examples=400, deadline=None)
@given(_shapes)
@example([{"t": 0.5, "point": (1j, 2 + 0j)}, {"t": 1.0, "a": []}, {"point": (), "t": 0.25}, {}])
@example({"r": [1.0, None, math.nan, -math.inf], 1: (complex(1, math.inf), 2j), "1": [[1, 2], []]})
@example([[1e308, 1e308], (True, 1, 1.5), (1, 2), ["x", 1]])
def test_column_writer_matches_the_per_node_one(value):
    """Columns of sibling values write the same bytes as writing every node
    by itself."""
    assert dumps(value) == _reference_dumps(value)
    assert dumps(value, one_line=True) == _reference_dumps(value, one_line=True)
    assert dumps([value, value, {"t": value}]) == _reference_dumps([value, value, {"t": value}])


def _both_oracles(value) -> None:
    """dumps(value) equals the per-node writer and json.dumps on the converted
    copy, indented and on one line."""
    plain = _jsonable(value)
    indented = json.dumps(plain, sort_keys=True, indent=2) + "\n"
    assert dumps(value) == _reference_dumps(value) == indented
    one_line = json.dumps(plain, sort_keys=True)
    assert dumps(value, one_line=True) == _reference_dumps(value, one_line=True) == one_line


# one strategy per record key: the values under a key share a role, as a
# report's columns do, but mix the types a column may hold
_roles = st.sampled_from(
    [
        st.one_of(_floats, _floats.map(np.float64), st.none()),
        st.one_of(st.booleans(), st.integers(-3, 3)),
        st.complex_numbers(allow_nan=True, allow_infinity=True),
        st.lists(_floats, min_size=3, max_size=3),  # equal lengths
        st.lists(st.one_of(st.integers(-2, 2), _floats), max_size=3).map(tuple),  # unequal
        st.lists(st.lists(st.integers(-2, 2), max_size=2).map(tuple), min_size=1, max_size=2),
        st.fixed_dictionaries({"r": st.lists(_floats, max_size=2), "J": st.tuples(st.integers())}),
        st.lists(
            st.fixed_dictionaries({"t": _floats, "point": st.tuples(st.complex_numbers())}),
            max_size=3,
        ),
    ]
)
# 1 and "1" collide after str(): the key inserted later wins
_KEYS = ["t", "point", "margin", "é", 1, "1"]


@st.composite
def _sibling_records(draw) -> list:
    """2-6 records over one key set, some in another insertion order and some
    with another key set."""
    keys = draw(st.lists(st.sampled_from(_KEYS), min_size=1, max_size=5, unique=True))
    roles = {key: draw(_roles) for key in _KEYS}
    records = []
    for _ in range(draw(st.integers(2, 6))):
        own = draw(st.sampled_from(["same", "permuted", "other"]))
        if own == "permuted":
            own = draw(st.permutations(keys))
        elif own == "other":
            own = draw(st.lists(st.sampled_from(_KEYS), max_size=4, unique=True))
        else:
            own = keys
        records.append({key: draw(roles[key]) for key in own})
    return records


_moved = OrderedDict([("1", 1), (1, 2.5), ("t", [1j])])
_moved.move_to_end("1")


@settings(max_examples=300, deadline=None)
@given(_sibling_records())
@example([{1: True, "1": 2, "t": 1.0}, {"1": 3, 1: False, "t": np.float64(math.nan)}])
@example([{"t": [1.0, math.inf]}, {"t": (1, 2, 3)}, {"t": ()}, {"t": [-0.0, None]}])
@example([{"point": complex(math.nan, 1)}, {"point": complex(2, -math.inf)}, {"point": 1j}])
@example([{"margin": x} for x in (1.5, np.float64(2.5), None, math.nan, np.float64(-math.inf))])
@example([{"a": x} for x in (True, 1, False, 0, np.int64(2))])
@example([_moved, OrderedDict([(1, 3), ("1", 4), ("t", 5)]), _moved])  # a subclass's own order
@example([{"t": np.float64(1e308)}, {"t": np.complex128(1e308, math.inf)}] * 2)  # numpy sums warn
def test_sibling_records_match_both_oracles(records):
    _both_oracles(records)
    _both_oracles({"certificates": records, "count": len(records), "nested": [records, records]})


def test_engine_results_match_json_dumps():
    """Real engine results: a chained-witness sweep, a transport summary and
    a build-isotopy result of {"t", "point"} samples."""
    chained = build_family(FamilySpec("type_i", (2, 3, 2), (1, 0, 1)))
    sweep = check_transversality(chained, (0.0, 0.5, 1.0), 1.0, 10, 7, "both")
    assert all("trace" in cert for cert in sweep.certificates)
    trefoil = build_family(FamilySpec("brieskorn", (2, 3), (1, 0)))
    points = sample_link(trefoil, 0.0, 1.0).points[::40]
    summary = transport(trefoil, points, 1.0, 20, MilnorTubeSpec(1.0, 0.1))
    traces = [
        {"start": tr.start, "samples": [{"t": t, "point": pt} for t, pt in tr.samples]}
        for tr in summary.traces
    ]
    result = {"partial": summary.partial, "steps": 20, "traces": traces}
    for value in (sweep, summary, result):
        _both_oracles(value)
