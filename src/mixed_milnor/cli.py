"""Command-line entry point.

Subcommands: analyze, normalize, certify-smooth, check-transversality,
explore-conjecture, build-isotopy, trace-link.

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
from typing import Optional, Sequence

from . import __version__
from .core import detect_weights, exponent_matrices, is_simplicial
from .errors import CertificateFailure, InputError, MixedMilnorError, NumericalError
from .families import MilnorTubeSpec
from .isotopy import integrate_isotopy
from .links import count_components, project_svg, sample_link
from .report import build_manifest, content_digest, dumps
from .scaling import normalize_coefficients, verify_scaling
from .singularity import certify_smooth_shell
from .specio import load_spec, require_family
from .transversality import (
    conjecture_search_type_ii,
    radial_witness_brieskorn,
    rank_test,
    sample_on_variety,
    type_i_witness,
)

EXIT_OK = 0
EXIT_CERT_FAIL = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


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
            grid = tuple(min(start + k * step, end) for k in range(count + 1))
        else:
            grid = tuple(float(p) for p in text.split(","))
    except (ValueError, OverflowError) as exc:
        raise InputError(f"cannot parse t-grid {text!r}: {exc}") from exc
    if any(not 0.0 <= t <= 1.0 for t in grid):
        raise InputError("t-grid values must lie in [0, 1]")
    return grid


def _emit(report: dict, out: Optional[str], to_stdout_line: Optional[str] = None) -> None:
    text = dumps(report)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        if to_stdout_line is not None:
            print(to_stdout_line)
    else:
        sys.stdout.write(to_stdout_line + "\n" if to_stdout_line else text)


def _finish(
    args,
    subcommand: str,
    spec_raw: Optional[bytes],
    parameters: dict,
    result: dict,
    outcome: str,
    started: float,
    stdout_line: Optional[str] = None,
) -> None:
    manifest = build_manifest(
        subcommand=subcommand,
        spec_digest=content_digest(spec_raw) if spec_raw is not None else None,
        parameters=parameters,
        seed=getattr(args, "seed", None),
        version=__version__,
        outcome=outcome,
        canonical=args.canonical,
        started=started,
        finished=time.time(),
    )
    _emit({"manifest": manifest, "result": result}, args.out, stdout_line)


def cmd_analyze(args) -> int:
    started = time.time()
    poly, fam, raw = load_spec(args.spec)
    weights = detect_weights(poly)
    simp = is_simplicial(exponent_matrices(poly))
    result = {
        "n": poly.n,
        "monomial_count": len(poly.monomials),
        "max_degree": poly.max_degree,
        "polar": (
            {"weights": list(weights.polar_weights), "degree": weights.polar_degree}
            if weights.has_polar
            else None
        ),
        "radial": (
            {"weights": list(weights.radial_weights), "degree": weights.radial_degree}
            if weights.has_radial
            else None
        ),
        "simplicial": simp.simplicial,
        "det_plus": simp.det_plus,
        "det_minus": simp.det_minus,
        "family_kind": fam.spec.kind if fam is not None else None,
    }
    _finish(args, "analyze", raw, {"spec": args.spec}, result, "ok", started)
    return EXIT_OK


def cmd_normalize(args) -> int:
    started = time.time()
    poly, _, raw = load_spec(args.spec)
    res = normalize_coefficients(poly)
    check = verify_scaling(poly, res.scaling, samples=100, seed=args.seed)
    result = {
        "alpha": [[a.real, a.imag] for a in res.scaling.alpha],
        "gamma": list(res.scaling.gamma),
        "epsilon": list(res.scaling.epsilon),
        "residual": res.scaling.residual,
        "verify_residual": check,
        "condition_number": res.scaling.condition_number,
    }
    line = json.dumps(
        {"alpha": result["alpha"], "residual": result["residual"]}, sort_keys=True
    )
    _finish(args, "normalize", raw, {"spec": args.spec}, result, "ok", started, line)
    return EXIT_OK if check <= args.tolerance else EXIT_CERT_FAIL


def cmd_certify_smooth(args) -> int:
    started = time.time()
    _, fam, raw = load_spec(args.family)
    fam = require_family(fam)
    grid = parse_t_grid(args.t_grid)
    rep = certify_smooth_shell(fam, grid, args.radius, args.restarts, args.seed)
    result = {
        "t_grid": list(grid),
        "radius": args.radius,
        "restarts": args.restarts,
        "min_residual_found": rep.min_residual_found,
        "argmin_t": rep.argmin_t,
        "argmin_point": [[z.real, z.imag] for z in rep.argmin_point],
        "iterations": rep.iterations,
        "converged": rep.converged,
        "threshold": args.tolerance,
        "certified": rep.min_residual_found > args.tolerance,
        "note": "numerical evidence, not proof",
    }
    ok = result["certified"]
    _finish(
        args,
        "certify-smooth",
        raw,
        {
            "family": args.family,
            "t_grid": args.t_grid,
            "radius": args.radius,
            "restarts": args.restarts,
        },
        result,
        "certified" if ok else "below-threshold",
        started,
    )
    return EXIT_OK if ok else EXIT_CERT_FAIL


def _witness_for(fam, t, point):
    if fam.spec.kind == "brieskorn":
        return radial_witness_brieskorn(fam, t, point), None
    if fam.spec.kind == "type_i":
        res = type_i_witness(fam, t, point)
        return res.certificate, res.trace
    raise InputError("no constructive witness is offered for type_ii (open problem)")


def cmd_check_transversality(args) -> int:
    started = time.time()
    _, fam, raw = load_spec(args.family)
    fam = require_family(fam)
    grid = parse_t_grid(args.t_grid)
    if args.method in ("witness", "both") and fam.spec.kind == "type_ii":
        raise InputError("no constructive witness is offered for type_ii (open problem)")
    certificates = []
    min_margin = math.inf
    failures = 0
    for ti, t in enumerate(grid):
        poly = fam.member(t)
        pts, missed = sample_on_variety(
            poly, args.radius, args.samples, args.seed, label=f"ct:t={ti}"
        )
        failures += missed
        for z in pts:
            entry = {"t": t, "point": [[c.real, c.imag] for c in z]}
            if args.method in ("rank", "both"):
                cert = rank_test(fam, t, z)
                entry["rank_margin"] = cert.margin
                entry["rank_transverse"] = cert.transverse
                min_margin = min(min_margin, cert.margin)
            if args.method in ("witness", "both"):
                cert, trace = _witness_for(fam, t, z)
                entry["witness_margin"] = cert.margin
                entry["witness_transverse"] = cert.transverse
                entry["witness_vector"] = list(cert.witness_vector or ())
                if trace is not None:
                    entry["trace"] = {
                        "I0": list(trace.I0),
                        "J": list(trace.J),
                        "components": [list(c) for c in trace.components],
                        "r_values": list(trace.r_values),
                        "s_values": list(trace.s_values),
                        "epsilon_flags": list(trace.epsilon_flags),
                    }
                min_margin = min(min_margin, cert.margin)
            certificates.append(entry)
    all_transverse = bool(certificates) and all(
        entry.get("rank_transverse", True) and entry.get("witness_transverse", True)
        for entry in certificates
    )
    result = {
        "method": args.method,
        "t_grid": list(grid),
        "radius": args.radius,
        "samples_per_t": args.samples,
        "sampler_failures": failures,
        "certificates": certificates,
        "min_margin": min_margin if certificates else None,
        "all_transverse": all_transverse,
    }
    _finish(
        args,
        "check-transversality",
        raw,
        {
            "family": args.family,
            "t_grid": args.t_grid,
            "radius": args.radius,
            "method": args.method,
            "samples": args.samples,
        },
        result,
        "transverse" if all_transverse else "not-certified",
        started,
    )
    return EXIT_OK if all_transverse else EXIT_CERT_FAIL


def cmd_explore_conjecture(args) -> int:
    started = time.time()
    _, fam, raw = load_spec(args.family)
    fam = require_family(fam)
    if fam.spec.kind != "type_ii":
        raise InputError("explore-conjecture applies to type_ii families only")
    grid = parse_t_grid(args.t_grid)
    rep = conjecture_search_type_ii(fam, grid, args.radius, args.samples, args.seed)
    result = {
        "t_grid": list(grid),
        "radius": args.radius,
        "samples_requested": rep.samples_requested,
        "samples_found": rep.samples_found,
        "sampler_failures": rep.sampler_failures,
        "min_margin": rep.min_margin,
        "argmin_t": rep.argmin_t,
        "argmin_point": [[z.real, z.imag] for z in rep.argmin_point],
        "flagged_count": len(rep.flagged),
        "flagged": [
            {"t": c.t, "point": [[z.real, z.imag] for z in c.point], "margin": c.margin}
            for c in rep.flagged
        ],
        "note": rep.note,
    }
    ok = rep.samples_found > 0 and not rep.flagged
    _finish(
        args,
        "explore-conjecture",
        raw,
        {
            "family": args.family,
            "t_grid": args.t_grid,
            "radius": args.radius,
            "samples": args.samples,
        },
        result,
        "no-counterexample-found" if ok else "flagged",
        started,
    )
    return EXIT_OK if ok else EXIT_CERT_FAIL


def _load_points(path: str) -> list[tuple[complex, ...]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        return [tuple(complex(c[0], c[1]) for c in pt) for pt in data]
    except (OSError, json.JSONDecodeError, TypeError, IndexError) as exc:
        raise InputError(f"cannot read points file {path!r}: {exc}") from exc


def cmd_build_isotopy(args) -> int:
    started = time.time()
    _, fam, raw = load_spec(args.family)
    fam = require_family(fam)
    points = _load_points(args.points)
    if not points:
        raise InputError("points file is empty")
    radius = args.radius or math.sqrt(sum(abs(c) ** 2 for c in points[0]))
    tube = MilnorTubeSpec(radius, args.eta0)
    traces = [integrate_isotopy(fam, z, args.t_end, args.steps, tube) for z in points]
    worst_value = max(tr.value_residual for tr in traces)
    worst_norm = max(tr.norm_residual for tr in traces)
    out_traces = []
    for tr in traces:
        entry = {
            "start": [[z.real, z.imag] for z in tr.start],
            "value_residual": tr.value_residual,
            "norm_residual": tr.norm_residual,
            "failed": tr.failed,
        }
        if args.endpoints_only:
            entry["endpoint"] = [[z.real, z.imag] for z in tr.endpoint]
            entry["t_end"] = tr.t_end
        else:
            entry["samples"] = [
                {"t": t, "point": [[z.real, z.imag] for z in pt]}
                for t, pt in tr.samples
            ]
        out_traces.append(entry)
    partial = any(tr.failed for tr in traces)
    result = {
        "t_end": args.t_end,
        "steps": args.steps,
        "radius": radius,
        "eta0": args.eta0,
        "worst_value_residual": worst_value,
        "worst_norm_residual": worst_norm,
        "partial": partial,
        "traces": out_traces,
    }
    _finish(
        args,
        "build-isotopy",
        raw,
        {
            "family": args.family,
            "points": args.points,
            "t_end": args.t_end,
            "steps": args.steps,
            "eta0": args.eta0,
        },
        result,
        "ok" if not partial else "partial",
        started,
    )
    return EXIT_OK if not partial else EXIT_CERT_FAIL


def cmd_trace_link(args) -> int:
    started = time.time()
    _, fam, raw = load_spec(args.family)
    fam = require_family(fam)
    sample = sample_link(fam, args.t, args.radius, args.seeds, args.seed)
    components = count_components(sample) if sample.orbits else 0
    if args.svg and sample.orbits:
        project_svg(sample, args.svg)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("orbit,re_z1,im_z1,re_z2,im_z2\n")
            for i, orbit in enumerate(sample.orbits):
                for z in orbit:
                    fh.write(
                        f"{i},{z[0].real!r},{z[0].imag!r},{z[1].real!r},{z[1].imag!r}\n"
                    )
    result = {
        "t": args.t,
        "radius": args.radius,
        "polar_weights": list(sample.polar_weights),
        "orbit_count": len(sample.orbits),
        "component_count": components,
        "seeds_used": sample.seeds_used,
        "flagged": sample.flagged,
        "orbits": [
            [[z[0].real, z[0].imag, z[1].real, z[1].imag] for z in orbit]
            for orbit in sample.orbits
        ],
    }
    _finish(
        args,
        "trace-link",
        raw,
        {
            "family": args.family,
            "t": args.t,
            "radius": args.radius,
            "seeds": args.seeds,
        },
        result,
        "ok" if not sample.flagged else "empty-link",
        started,
    )
    return EXIT_OK if not sample.flagged else EXIT_CERT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixed-milnor",
        description="Numerical certification toolkit for mixed Brieskorn-type families.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="write the JSON report here")
        p.add_argument("--tolerance", type=float, default=1e-3)
        p.add_argument(
            "--canonical",
            action="store_true",
            help="omit timestamps so identical runs emit identical bytes",
        )

    p = sub.add_parser("analyze", help="weights and simpliciality of a polynomial spec")
    p.add_argument("spec")
    common(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("normalize", help="coefficient-normalizing diagonal scaling")
    p.add_argument("spec")
    common(p)
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("certify-smooth", help="shell search for mixed singular points")
    p.add_argument("--family", required=True)
    p.add_argument("--t-grid", default="0:1:0.1")
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--restarts", type=int, default=32)
    common(p)
    p.set_defaults(fn=cmd_certify_smooth)

    p = sub.add_parser("check-transversality", help="rank test / constructive witness")
    p.add_argument("--family", required=True)
    p.add_argument("--t-grid", default="0:1:0.25")
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--method", choices=("rank", "witness", "both"), default="rank")
    p.add_argument("--samples", type=int, default=20)
    common(p)
    p.set_defaults(fn=cmd_check_transversality)

    p = sub.add_parser("explore-conjecture", help="type_ii transversality evidence")
    p.add_argument("--family", required=True)
    p.add_argument("--t-grid", default="0:1:0.1")
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=100)
    common(p)
    p.set_defaults(fn=cmd_explore_conjecture)

    p = sub.add_parser("build-isotopy", help="transport points from t=0 to t-end")
    p.add_argument("--family", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--t-end", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--eta0", type=float, default=0.05)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--endpoints-only", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_build_isotopy)

    p = sub.add_parser("trace-link", help="sample and trace the link K_t (n = 2)")
    p.add_argument("--family", required=True)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--seeds", type=int, default=64)
    p.add_argument("--svg", default=None)
    p.add_argument("--csv", default=None)
    common(p)
    p.set_defaults(fn=cmd_trace_link)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already; preserve --version/-h
        return int(exc.code or 0)
    try:
        return args.fn(args)
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
