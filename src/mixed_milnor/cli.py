"""Command-line entry point (`mixed-milnor` or `python -m mixed_milnor`).

Subcommands: analyze, normalize, certify-smooth, check-transversality,
explore-conjecture, build-isotopy, trace-link.  Each is one row of
SUBCOMMANDS; a single runner loads the spec, times the run, writes the report
and maps the verdict to the exit code.

Exit codes: 0 success, 1 property/certificate failure, 2 input error,
3 internal/numerical failure.  All randomness flows from --seed through
per-label substreams; reports are byte-deterministic for a fixed manifest
(pass --canonical to drop the timestamps).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import __version__
from .core import detect_weights, is_simplicial
from .errors import CertificateFailure, InputError, MixedMilnorError, NumericalError
from .families import MilnorTubeSpec
from .isotopy import transport
from .links import project_svg, sample_link
from .report import build_manifest, content_digest, dumps
from .scaling import normalize_coefficients, verify_scaling
from .singularity import certify_smooth_shell
from .specio import load_spec, require_family
from .transversality import METHODS, check_transversality, conjecture_search_type_ii

EXIT_OK = 0
EXIT_CERT_FAIL = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3
MAX_GRID_POINTS = 100_000  # a "start:end:step" grid is refused above this many points


def worker_count() -> int:
    env = os.environ.get("MIXED_MILNOR_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise InputError(f"MIXED_MILNOR_THREADS must be an integer, got {env!r}")
    return os.cpu_count() or 1


def parse_t_grid(text: str) -> tuple[float, ...]:
    """Either "start:end:step" or a comma-separated list."""
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise InputError(f"t-grid must be start:end:step, got {text!r}")
            start, end, step = (float(p) for p in parts)
            if not 0.0 <= start <= end <= 1.0:
                raise InputError(f"t-grid needs 0 <= start <= end <= 1, got {text!r}")
            if not step > 0:
                raise InputError("t-grid step must be positive")
            count = int(round((end - start) / step))
            if count >= MAX_GRID_POINTS:
                points = f"{count + 1:.6g} points, over {MAX_GRID_POINTS}"
                raise InputError(f"t-grid {text!r} has {points}")
            grid = tuple(min(start + k * step, end) for k in range(count + 1))
        else:
            grid = tuple(float(p) for p in text.split(","))
    except (ValueError, OverflowError) as exc:
        raise InputError(f"cannot parse t-grid {text!r}: {exc}") from exc
    if any(not 0.0 <= t <= 1.0 for t in grid):
        raise InputError("t-grid values must lie in [0, 1]")
    return grid


def _checked(convert: Callable, accept: Callable, what: str) -> Callable:
    """An argparse `type=` that also rejects converted values failing `accept`."""

    def parse(text: str):
        try:
            value = convert(text)
            if accept(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")

    return parse


POSITIVE = _checked(float, lambda x: 0.0 < x < math.inf, "a positive finite number")
UNIT = _checked(float, lambda x: 0.0 <= x <= 1.0, "a number in [0, 1]")
COUNT = _checked(int, lambda k: k >= 0, "a non-negative integer")
POSITIVE_COUNT = _checked(int, lambda k: k >= 1, "a positive integer")


def _arg(*flags: str, **options) -> tuple:
    return flags, options


SPEC = _arg("spec")
FAMILY = _arg("--family", required=True)
RADIUS = _arg("--radius", type=POSITIVE, default=1.0)
TOLERANCE = _arg("--tolerance", type=POSITIVE, default=1e-3)


def _fields(obj, *names: str) -> dict:
    return {name: getattr(obj, name) for name in names}


def _analyze(args, poly, fam):
    weights = detect_weights(poly)
    simp = is_simplicial(poly)
    result = {
        "n": poly.n,
        "monomial_count": len(poly.monomials),
        "max_degree": poly.max_degree,
        "polar": (
            {"weights": weights.polar_weights, "degree": weights.polar_degree}
            if weights.has_polar
            else None
        ),
        "radial": (
            {"weights": weights.radial_weights, "degree": weights.radial_degree}
            if weights.has_radial
            else None
        ),
        "simplicial": simp.simplicial,
        "det_plus": simp.det_plus,
        "det_minus": simp.det_minus,
        "family_kind": fam.spec.kind if fam is not None else None,
    }
    return result, "ok", True


def _normalize(args, poly, fam):
    scaling = normalize_coefficients(poly).scaling
    check = verify_scaling(poly, scaling, samples=100, seed=args.seed)
    return asdict(scaling) | {"verify_residual": check}, "ok", check <= args.tolerance


def _certify_smooth(args, poly, fam):
    grid = parse_t_grid(args.t_grid)
    rep = certify_smooth_shell(fam, grid, args.radius, args.restarts, args.seed)
    certified = rep.min_residual_found > args.tolerance
    result = {
        **_fields(args, "radius", "restarts"),
        **_fields(rep, "min_residual_found", "argmin_t", "argmin_restart", "argmin_point"),
        **_fields(rep, "iterations", "converged"),
        "t_grid": grid,
        "threshold": args.tolerance,
        "certified": certified,
        "note": "numerical evidence, not proof",
    }
    return result, "certified" if certified else "below-threshold", certified


def _check_transversality(args, poly, fam):
    grid = parse_t_grid(args.t_grid)
    rep = check_transversality(fam, grid, args.radius, args.samples, args.seed, args.method)
    ok = rep.all_transverse
    return rep, "transverse" if ok else "not-certified", ok


def _explore_conjecture(args, poly, fam):
    if fam.spec.kind != "type_ii":
        raise InputError("explore-conjecture applies to type_ii families only")
    grid = parse_t_grid(args.t_grid)
    rep = conjecture_search_type_ii(fam, grid, args.radius, args.samples, args.seed)
    result = {
        **_fields(rep, "samples_requested", "samples_found", "sampler_failures"),
        **_fields(rep, "sampler_failures_per_t"),
        **_fields(rep, "min_margin", "argmin_t", "argmin_point", "note"),
        "t_grid": grid,
        "radius": args.radius,
        "flagged_count": len(rep.flagged),
        "flagged": [_fields(c, "t", "point", "margin") for c in rep.flagged],
    }
    ok = rep.samples_found > 0 and not rep.flagged
    return result, "no-counterexample-found" if ok else "flagged", ok


def _coordinate(value, path: str) -> complex:
    """One [re, im] pair of finite numbers; a boolean is not a number here."""
    if isinstance(value, list) and len(value) == 2 and all(type(v) in (int, float) for v in value):
        try:
            re, im = float(value[0]), float(value[1])
        except OverflowError:  # an integer beyond the float range
            re = im = math.inf
        if math.isfinite(re) and math.isfinite(im):
            return complex(re, im)
    raise InputError(
        f"points file {path!r}: coordinate {value!r} is not a pair [re, im] of finite numbers"
    )


def _load_points(path: str) -> list[tuple[complex, ...]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read points file {path!r}: {exc}") from exc
    if not isinstance(data, list) or not all(isinstance(pt, list) for pt in data):
        raise InputError(f"points file {path!r} must hold a list of points")
    return [tuple(_coordinate(c, path) for c in pt) for pt in data]


def _build_isotopy(args, poly, fam):
    points = _load_points(args.points)
    if not points:
        raise InputError("points file is empty")
    radius = args.radius or math.sqrt(sum(abs(c) ** 2 for c in points[0]))
    tube = MilnorTubeSpec(radius, args.eta0)
    # any sphere point is accepted, on the link or not
    summary = transport(fam, points, args.t_end, args.steps, tube, level=None)
    traces = []
    for tr in summary.traces:
        entry = _fields(
            tr, "start", "value_residual", "norm_residual", "failed", "failure_step"
        )
        if args.endpoints_only:
            entry.update(_fields(tr, "endpoint", "t_end"))
        else:
            entry["samples"] = [{"t": t, "point": pt} for t, pt in tr.samples]
        traces.append(entry)
    result = {
        **_fields(args, "t_end", "steps", "eta0"),
        **_fields(summary, "worst_value_residual", "worst_norm_residual", "partial"),
        "radius": radius,
        "traces": traces,
    }
    return result, "partial" if summary.partial else "ok", not summary.partial


def _trace_link(args, poly, fam):
    sample = sample_link(fam, args.t, args.radius, args.seeds, args.seed)
    # one [re z1, im z1, re z2, im z2] row per traced point
    orbits = np.asarray(sample.orbits, dtype=complex).view(float).tolist()
    if args.svg and sample.orbits:
        project_svg(sample, args.svg)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("orbit,re_z1,im_z1,re_z2,im_z2\n")
            for i, orbit in enumerate(orbits):
                fh.writelines(f"{i},{','.join(map(repr, row))}\n" for row in orbit)
    result = {
        **_fields(args, "t", "radius"),
        **_fields(sample, "polar_weights", "seeds_used", "flagged", "component_count"),
        "orbit_count": len(orbits),
        "orbits": orbits,
    }
    return result, "empty-link" if sample.flagged else "ok", not sample.flagged


@dataclass(frozen=True)
class Subcommand:
    name: str
    help: str
    compute: Callable  # (args, poly, fam) -> (result, outcome, ok)
    arguments: tuple  # (flags, options) pairs for add_argument
    parameters: tuple[str, ...]  # manifest parameters, read from args by name
    summary: tuple[str, ...] = ()  # result keys echoed on stdout when --out is given


SUBCOMMANDS = (
    Subcommand(
        "analyze", "weights and simpliciality of a polynomial spec", _analyze, (SPEC,), ("spec",)
    ),
    Subcommand(
        "normalize",
        "coefficient-normalizing diagonal scaling",
        _normalize,
        (SPEC, TOLERANCE),
        ("spec",),
        summary=("alpha", "residual"),
    ),
    Subcommand(
        "certify-smooth",
        "shell search for mixed singular points",
        _certify_smooth,
        (
            FAMILY,
            _arg("--t-grid", default="0:1:0.1"),
            RADIUS,
            _arg("--restarts", type=POSITIVE_COUNT, default=32),
            TOLERANCE,
        ),
        ("family", "t_grid", "radius", "restarts"),
    ),
    Subcommand(
        "check-transversality",
        "rank test / constructive witness",
        _check_transversality,
        (
            FAMILY,
            _arg("--t-grid", default="0:1:0.25"),
            RADIUS,
            _arg("--method", choices=METHODS, default="rank"),
            _arg("--samples", type=COUNT, default=20),
        ),
        ("family", "t_grid", "radius", "method", "samples"),
    ),
    Subcommand(
        "explore-conjecture",
        "type_ii transversality evidence",
        _explore_conjecture,
        (
            FAMILY,
            _arg("--t-grid", default="0:1:0.1"),
            RADIUS,
            _arg("--samples", type=COUNT, default=100),
        ),
        ("family", "t_grid", "radius", "samples"),
    ),
    Subcommand(
        "build-isotopy",
        "transport points from t=0 to t-end",
        _build_isotopy,
        (
            FAMILY,
            _arg("--points", required=True),
            _arg("--t-end", type=UNIT, default=1.0),
            _arg("--steps", type=POSITIVE_COUNT, default=200),
            _arg("--eta0", type=POSITIVE, default=0.05),
            _arg("--radius", type=POSITIVE, default=None),
            _arg("--endpoints-only", action="store_true"),
        ),
        ("family", "points", "t_end", "steps", "eta0"),
    ),
    Subcommand(
        "trace-link",
        "sample and trace the link K_t (n = 2)",
        _trace_link,
        (
            FAMILY,
            _arg("--t", type=UNIT, default=0.0),
            RADIUS,
            _arg("--seeds", type=COUNT, default=64),
            _arg("--svg", default=None),
            _arg("--csv", default=None),
        ),
        ("family", "t", "radius", "seeds"),
    ),
)


def _execute(cmd: Subcommand, args) -> int:
    started = time.time()
    family = "family" in cmd.parameters
    poly, fam, raw = load_spec(args.family if family else args.spec)
    if family:
        fam = require_family(fam)
    result, outcome, ok = cmd.compute(args, poly, fam)
    manifest = build_manifest(
        subcommand=cmd.name,
        spec_digest=content_digest(raw),
        parameters=_fields(args, *cmd.parameters),
        seed=args.seed,
        version=__version__,
        outcome=outcome,
        canonical=args.canonical,
        started=started,
        finished=time.time(),
    )
    text = dumps({"manifest": manifest, "result": result})
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        if cmd.summary:
            print(dumps({k: result[k] for k in cmd.summary}, one_line=True))
    else:
        sys.stdout.write(text)
    return EXIT_OK if ok else EXIT_CERT_FAIL


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        # usage errors are input errors: exit 2 with the usual message
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mixed-milnor",
        description="Numerical certification toolkit for mixed Brieskorn-type families.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for cmd in SUBCOMMANDS:
        p = sub.add_parser(cmd.name, help=cmd.help)
        for flags, options in cmd.arguments:
            p.add_argument(*flags, **options)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="write the JSON report here")
        p.add_argument(
            "--canonical",
            action="store_true",
            help="omit timestamps so identical runs emit identical bytes",
        )
        p.set_defaults(command=cmd)
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _execute(args.command, args)
    except SystemExit as exc:  # --help and --version
        return int(exc.code or 0)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CertificateFailure as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return EXIT_CERT_FAIL
    except (NumericalError, MixedMilnorError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
