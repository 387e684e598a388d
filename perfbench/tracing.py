"""In-memory span tracer that wraps the package's public functions from the
outside, so the program itself carries no tracing code.

Every traced function is replaced in each `mixed_milnor` module that binds it
(for example `evaluate` as bound in `core`, `isotopy`, `singularity`,
`transversality`, `numerics`, `families` and `links`), so calls that cross
layers are caught. Spans are kept in memory as tuples
`(request, span_id, parent_id, name, start, end)` and written out by the caller.

Spans opened in the CLI's worker threads start with an empty stack; they take
the request's root span (the traced `cli.run`) as their parent, so the pool's
work is charged to the invocation that started it.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Optional

# (metric prefix, module, attribute path inside the module)
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("cli.run", "cli", "run"),
    ("specio.load_spec", "specio", "load_spec"),
    ("report.dumps", "report", "dumps"),
    ("families.member", "families", "DeformationFamily.member"),
    ("core.evaluate", "core", "evaluate"),
    ("core.wirtinger_gradient", "core", "wirtinger_gradient"),
    ("numerics.real_jacobian_rows", "numerics", "real_jacobian_rows"),
    ("numerics.complexify", "numerics", "complexify"),
    ("numerics.newton_on_sphere", "numerics", "newton_on_sphere"),
    ("numerics.rng_for", "numerics", "rng_for"),
    ("numerics.monotone_root", "numerics", "monotone_root"),
    ("singularity.singularity_residual", "singularity", "singularity_residual"),
    ("singularity.certify_smooth_shell", "singularity", "certify_smooth_shell"),
    ("transversality.sample_on_variety", "transversality", "sample_on_variety"),
    ("transversality.rank_test", "transversality", "rank_test"),
    ("transversality.type_i_witness", "transversality", "type_i_witness"),
    ("transversality.solve_phi", "transversality", "solve_phi"),
    ("isotopy.connection_velocity", "isotopy", "connection_velocity"),
    ("isotopy.integrate_isotopy", "isotopy", "integrate_isotopy"),
)


def _newton_outcome(result) -> tuple[int, int]:
    return (result is not None), 1


def _sampler_outcome(result) -> tuple[int, int]:
    points, failures = result
    return len(points), len(points) + failures


def _isotopy_outcome(result) -> tuple[int, int]:
    return int(result.failed), 1


# ratio metric -> (traced function, outcome of one call as (hits, attempts))
OUTCOMES: dict[str, tuple[str, Callable]] = {
    "numerics.newton_on_sphere.success_ratio": ("numerics.newton_on_sphere", _newton_outcome),
    "transversality.sample_on_variety.found_ratio": (
        "transversality.sample_on_variety",
        _sampler_outcome,
    ),
    "isotopy.integrate_isotopy.failed_ratio": ("isotopy.integrate_isotopy", _isotopy_outcome),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.outcomes: list[tuple[str, int, int, int]] = []  # (ratio, request, hits, attempts)
        self.request = 0
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: Optional[int] = None
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        outcome = [(ratio, judge) for ratio, (fname, judge) in OUTCOMES.items() if fname == name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else tracer._root
            if parent is None:
                tracer._root = span_id
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if tracer._root == span_id:
                    tracer._root = None
                tracer.spans.append((tracer.request, span_id, parent, name, start, end))
            for ratio, judge in outcome:
                hits, attempts = judge(result)
                tracer.outcomes.append((ratio, tracer.request, int(hits), attempts))
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of each target in the loaded package modules."""
        package = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "mixed_milnor" or name.startswith("mixed_milnor."))
        }
        self.absent = []
        for name, module, path in TARGETS:
            owner = package.get(f"mixed_milnor.{module}")
            attr_path = path.split(".")
            for part in attr_path[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr_path[-1], None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            traced = self._wrap(name, original)
            if len(attr_path) > 1:  # a method: patch the class attribute
                self._patch(owner, attr_path[-1], traced)
                continue
            for mod in package.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, traced)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def per_request_stats(spans: list[tuple]) -> dict[int, dict[str, tuple[int, float]]]:
    """request -> name -> (calls, self seconds); self time is a span's duration
    minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, parent, _, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[int, dict[str, list]] = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
    for request, span_id, _, name, start, end in spans:
        entry = out[request][name]
        entry[0] += 1
        entry[1] += (end - start) - _covered(children.get(span_id, []), start, end)
    return {r: {n: (c, s) for n, (c, s) in names.items()} for r, names in out.items()}
