"""The three benchmark workloads: seeded inputs, CLI argument lists and the
correctness gates every report must pass."""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ISOTOPY_POINTS = 4
SHELL_RESTARTS = 10
WITNESS_SAMPLES = 100

MIN_SHELL_RESIDUAL = 1e-3  # acceptance criterion 3
MAX_NORM_RESIDUAL = 1e-8  # acceptance criterion 6
MAX_ENDPOINT_VALUE = 1e-6  # |f_1| at each transported endpoint


def _trefoil_moduli() -> tuple[float, float]:
    """(|z1|, |z2|) on the unit sphere with |z1|^4 = |z2|^3.

    With u = |z1|^(2/3) the sphere condition reads u^3 + u^4 = 1, whose left
    side increases on [0, 1]; bisection pins the root to the last bit.
    """
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid**3 + mid**4 < 1.0:
            lo = mid
        else:
            hi = mid
    u = 0.5 * (lo + hi)
    return u**1.5, u**2


def trefoil_points(seed: int, count: int) -> list[list[list[float]]]:
    """Points of K_0 for brieskorn a=(2,3), b=(1,0): f_0 = z1^3 zbar1 + z2^3.

    Besides the orbit equation, the two terms cancel when
    2 arg z1 = 3 arg z2 + pi (mod 2 pi); arg z2 and the branch of arg z1 come
    from the seed. Built in closed form so a change to `links` cannot change
    this workload's inputs.
    """
    rho1, rho2 = _trefoil_moduli()
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        theta2 = rng.uniform(0.0, 2.0 * math.pi)
        theta1 = (3.0 * theta2 + math.pi + 2.0 * math.pi * rng.randrange(2)) / 2.0
        points.append(
            [
                [rho1 * math.cos(theta1), rho1 * math.sin(theta1)],
                [rho2 * math.cos(theta2), rho2 * math.sin(theta2)],
            ]
        )
    return points


def _positive(value) -> bool:
    return isinstance(value, (int, float)) and value > 0


def _gate_isotopy(result: dict, mm) -> list[str]:
    errors = []
    if result["partial"] is not False:
        errors.append("partial transport")
    if not result["worst_norm_residual"] <= MAX_NORM_RESIDUAL:
        errors.append(f"worst_norm_residual {result['worst_norm_residual']!r}")
    if len(result["traces"]) != ISOTOPY_POINTS:
        errors.append(f"{len(result['traces'])} traces for {ISOTOPY_POINTS} points")
    fam = mm.families.build_family(mm.families.FamilySpec("brieskorn", (2, 3), (1, 0)))
    holo = fam.member(1.0)
    for i, trace in enumerate(result["traces"]):
        last = trace["samples"][-1]
        endpoint = [complex(re, im) for re, im in last["point"]]
        value = abs(mm.core.evaluate(holo, endpoint))
        if last["t"] != 1.0 or not value <= MAX_ENDPOINT_VALUE:
            errors.append(f"trace {i}: |f_1| = {value!r} at t = {last['t']!r}")
    return errors


def _gate_shell(result: dict, mm) -> list[str]:
    errors = []
    if result["certified"] is not True:
        errors.append("not certified")
    if not (_positive(result["min_residual_found"]) and result["min_residual_found"] > MIN_SHELL_RESIDUAL):
        errors.append(f"min_residual_found {result['min_residual_found']!r}")
    return errors


def _gate_witness(result: dict, mm) -> list[str]:
    errors = []
    if result["all_transverse"] is not True:
        errors.append("not all transverse")
    if not _positive(result["min_margin"]):
        errors.append(f"min_margin {result['min_margin']!r}")
    return errors


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    spec: dict
    options: tuple[str, ...]
    item_kind: str
    items: Callable[[dict], int]  # completed items, read from the report's result
    gate: Callable[[dict, object], list[str]]
    has_points: bool = False

    def write_inputs(self, seed: int, workdir: Path) -> dict[str, Path]:
        paths = {"spec": workdir / "spec.json"}
        paths["spec"].write_text(json.dumps(self.spec), encoding="utf-8")
        if self.has_points:
            paths["points"] = workdir / "points.json"
            paths["points"].write_text(
                json.dumps(trefoil_points(seed, ISOTOPY_POINTS)), encoding="utf-8"
            )
        return paths

    def argv(self, seed: int, paths: dict[str, Path], out: Path) -> list[str]:
        argv = [self.subcommand, "--family", str(paths["spec"])]
        if self.has_points:
            argv += ["--points", str(paths["points"])]
        return argv + list(self.options) + ["--seed", str(seed), "--canonical", "--out", str(out)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "isotopy-trefoil",
            "build-isotopy",
            {"family": "brieskorn", "a": [2, 3], "b": [1, 0]},
            ("--eta0", "0.1", "--steps", "200", "--t-end", "1"),
            "points transported",
            lambda r: sum(not tr["failed"] for tr in r["traces"]),
            _gate_isotopy,
            has_points=True,
        ),
        Workload(
            "shell-brieskorn",
            "certify-smooth",
            {"family": "brieskorn", "a": [2, 3], "b": [1, 1]},
            ("--t-grid", "0:1:0.1", "--restarts", str(SHELL_RESTARTS)),
            "restarts",
            lambda r: r["restarts"] * len(r["t_grid"]),
            _gate_shell,
        ),
        Workload(
            "witness-chained",
            "check-transversality",
            {"family": "type_i", "a": [2, 3, 2], "b": [1, 0, 1]},
            ("--method", "both", "--samples", str(WITNESS_SAMPLES)),
            "certificates",
            lambda r: len(r["certificates"]),
            _gate_witness,
        ),
    )
}
