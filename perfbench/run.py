"""Benchmark of the mixed-milnor command line, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload isotopy-trefoil --seed 1 --seconds 35 --trace 0

The program is imported from `src/` of the same checkout and driven in-process
through its public entry point `mixed_milnor.cli.run(argv)`. Each invocation
writes a `--canonical` report that is checked against its schema and the
workload's correctness gates; repeats with one seed must give identical bytes.

`--trace 0` prints the end-to-end metrics (untraced invocations). `--trace 1`
alternates untraced and traced invocations and prints the per-layer metrics,
including the tracing overhead. The last line of stdout is one JSON object;
inputs, reports, full results and spans go to `perfbench/out/`. The exit code
is 0 only when every gate passed.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jsonschema

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import EXACT_COUNTS, LAYER_MAP  # noqa: E402
from tracing import OUTCOMES, TARGETS, Tracer, per_request_stats  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_REPEATS = 5  # timed invocations, even when --seconds runs out first
MAX_TRACED = 4  # traced invocations kept in memory in one run
SETUP_REPEATS = 5
SETUP_CODE = (
    "import sys\n"
    "from pathlib import Path\n"
    "import mixed_milnor.cli\n"
    "from mixed_milnor.specio import load_spec\n"
    "load_spec(sys.argv[1])\n"
    "for p in sys.argv[2:]:\n"
    "    Path(p).read_bytes()\n"
)


class BenchError(Exception):
    """The benchmark cannot run here (no program to measure)."""


def import_package():
    if not (SRC / "mixed_milnor" / "cli.py").is_file():
        raise BenchError(f"no program to benchmark: {SRC / 'mixed_milnor'} is missing")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("mixed_milnor")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"mixed_milnor was imported from {package.__file__}, not {SRC}")
    importlib.import_module("mixed_milnor.cli")  # imports every other module of the package
    return package


def environment(mm) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "worker_count": mm.cli.worker_count(),
        "MIXED_MILNOR_THREADS": os.environ.get("MIXED_MILNOR_THREADS"),
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")
        ),
    }


def measure_setup(paths: dict[str, Path]) -> list[float]:
    """Fresh-interpreter import of `mixed_milnor.cli` plus loading the inputs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", SETUP_CODE, str(paths["spec"])]
    cmd += [str(p) for key, p in paths.items() if key != "spec"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=60)
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            raise BenchError(f"set-up run failed: {done.stderr.decode(errors='replace')}")
        if i:  # the first run only warms the file cache
            times.append(elapsed)
    return times


class Bench:
    def __init__(self, mm, workload, seed: int, workdir: Path):
        self.mm = mm
        self.workload = workload
        self.paths = workload.write_inputs(seed, workdir)
        self.report_path = workdir / "report.json"
        self.argv = workload.argv(seed, self.paths, self.report_path)
        self.schema = json.loads(
            (SRC / "mixed_milnor" / "schemas" / f"{workload.subcommand}.schema.json").read_text()
        )
        self.blend = getattr(mm.families, "_blend", None)
        self.digests: list[str] = []
        self.verdicts: dict[str, list[str]] = {}  # digest -> gate failures
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.result: dict = {}
        self.report_bytes = 0
        self.hit_ratios: list[float] = []

    def invoke(self, tracer: Tracer | None = None) -> tuple[float, float]:
        """One CLI invocation, timed alone; returns its wall and CPU seconds."""
        self.report_path.unlink(missing_ok=True)
        if self.blend is not None:
            self.blend.cache_clear()  # a fresh CLI process starts with an empty cache
        gc.collect()
        error = None
        if tracer is not None:
            tracer.request += 1
            tracer.install()
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            code = self.mm.cli.run(self.argv)
        except Exception as exc:  # a crash is a failed operation, not a benchmark abort
            code, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu_start
            if tracer is not None:
                tracer.uninstall()
        if self.blend is not None:
            info = self.blend.cache_info()
            looked_up = info.hits + info.misses
            self.hit_ratios.append(info.hits / looked_up if looked_up else 0.0)
        self.check(code, error)
        return wall, cpu

    def check(self, code, error) -> None:
        self.attempted += 1
        errors = [error] if error else []
        if code != 0:
            errors.append(f"exit code {code!r}, expected 0")
        raw = self.report_path.read_bytes() if self.report_path.exists() else b""
        digest = hashlib.sha256(raw).hexdigest()
        self.digests.append(digest)
        if digest != self.digests[0]:
            errors.append("report bytes differ from the first repeat with this seed")
        if digest not in self.verdicts:
            verdict = []
            try:
                report = json.loads(raw)
                jsonschema.validate(report, self.schema)
                verdict = self.workload.gate(report["result"], self.mm)
                if not verdict and not self.result:
                    self.result, self.report_bytes = report["result"], len(raw)
            except (ValueError, KeyError, TypeError, jsonschema.ValidationError) as exc:
                verdict = [f"invalid report: {type(exc).__name__}: {exc}"]
            self.verdicts[digest] = verdict
        errors += self.verdicts[digest]
        if errors:
            self.failed += 1
            self.failures.append("; ".join(errors))


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end(bench: Bench, plain: list[tuple[float, float]], setup: list[float]) -> dict:
    wall = median([w for w, _ in plain])
    items = bench.workload.items(bench.result) if bench.result else 0
    return {
        "wall_s": (wall, "s"),
        "cpu_s": (median([c for _, c in plain]), "s"),
        "items_per_s": (items / wall if wall > 0 else 0.0, "1/s"),
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(bench: Bench, tracer: Tracer, plain: list[tuple], traced: list[tuple]) -> dict:
    stats = per_request_stats(tracer.spans)
    requests = sorted(stats)
    metrics = {}
    for name, _, _ in TARGETS:
        calls = [stats[r].get(name, (0, 0.0))[0] for r in requests]
        metrics[f"{name}.calls"] = (median(calls), "count")
        metrics[f"{name}.self_s"] = (median([stats[r].get(name, (0, 0.0))[1] for r in requests]), "s")
    for ratio in OUTCOMES:
        hits = sum(h for name, _, h, _ in tracer.outcomes if name == ratio)
        attempts = sum(a for name, _, _, a in tracer.outcomes if name == ratio)
        metrics[ratio] = (hits / attempts if attempts else 0.0, "ratio")
    metrics["singularity.iterations"] = (bench.result.get("iterations", 0), "count")
    metrics["report.dumps.bytes"] = (bench.report_bytes, "bytes")
    metrics["families.blend.hit_ratio"] = (median(bench.hit_ratios), "ratio")
    metrics["trace.overhead_s"] = (median([w for w, _ in traced]) - median([w for w, _ in plain]), "s")
    per_request = [sum(c for c, _ in stats[r].values()) for r in requests]
    metrics["trace.spans"] = (median(per_request), "count")
    return metrics


def check_predictions(workload: str, metrics: dict) -> dict[str, bool]:
    """Predicted bypasses: a layer must read zero calls where the map says so."""
    return {
        f"{name}.calls == 0": metrics[f"{name}.calls"][0] == 0
        for name, (_, _, zero_on) in LAYER_MAP.items()
        if workload in zero_on
    }


def write_spans(path: Path, tracer: Tracer) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write(json.dumps(["request", "span", "parent", "name", "start", "end"]) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")


def run(args) -> tuple[dict, int]:
    mm = import_package()
    workload = WORKLOADS[args.workload]
    workdir = OUT / workload.name / f"seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    bench = Bench(mm, workload, args.seed, workdir)
    setup = measure_setup(bench.paths)
    bench.invoke()  # warm-up: lazy imports inside numpy and the program finish here

    plain: list[tuple[float, float]] = []  # (wall, cpu) seconds per invocation
    traced: list[tuple[float, float]] = []
    tracer = Tracer() if args.trace else None
    deadline = time.perf_counter() + args.seconds
    while len(plain) < MIN_REPEATS or time.perf_counter() < deadline:
        plain.append(bench.invoke())
        if tracer is not None and len(traced) < MAX_TRACED:
            traced.append(bench.invoke(tracer))

    if tracer is None:
        metrics = end_to_end(bench, plain, setup)
    else:
        metrics = per_layer(bench, tracer, plain, traced)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": bench.argv,
        "item_kind": workload.item_kind,
        "environment": environment(mm),
        "wall_cpu_s": plain,
        "traced_wall_cpu_s": traced,
        "blend_hit_ratios": bench.hit_ratios,
        "setup_s": setup,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "failed_ratio": bench.failed / bench.attempted,
        "failures": bench.failures,
        "report_sha256": bench.digests,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "exact_counts": EXACT_COUNTS,
        "layer_map": {k: {"moves": m, "on": on, "zero_on": z} for k, (m, on, z) in LAYER_MAP.items()},
    }
    if tracer is not None:
        record["absent_layers"] = tracer.absent
        record["predictions"] = check_predictions(workload.name, metrics)
        write_spans(workdir / "spans.jsonl.gz", tracer)
    (workdir / f"result-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    for failure in bench.failures[:5]:
        print(f"gate failed: {failure}", file=sys.stderr)
    summary = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": record["metrics"],
    }
    return summary, 0 if bench.failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        summary, code = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    return code


if __name__ == "__main__":
    sys.exit(main())
