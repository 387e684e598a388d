"""The one-pass report writer against json.dumps on the converted values."""

import dataclasses
import json
import math
from typing import Any

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
