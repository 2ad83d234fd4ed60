"""Benchmark entry point for eptriad: one workload, one seed, one run.

    python3 perfbench/run.py --workload loops --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; eptriad is imported from its
``src`` directory. The run first times set-up (a cold interpreter importing
``eptriad.cli``) in fresh subprocesses, then repeats passes of the workload
for about ``--seconds`` seconds and reports medians over the passes.

The host's CPU speed drifts on a shared virtual machine, so every timed
interval (one set-up, one operation, one fit of the lab workload) is
bracketed by runs of the fixed reference kernel in ``speed.py`` and
rescaled to the reference speed: ``setup_s``, ``wall_s`` and
``throughput`` are the times the program takes on a vCPU that runs the
kernel in ``speed.REFERENCE_S``. The record keeps the unscaled times and
the kernel's times as well.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes of the same commands and prints the per-layer
metrics, including the tracing overhead. The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; a fuller record with provenance goes to
``.perfbench/results/``. Exit code 2 means the run could not start.
"""
from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

# single-client batch jobs: keep BLAS from starting worker threads
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 9
IMPORT_PROBE = "import time; t = time.perf_counter(); import eptriad.cli; print(time.perf_counter() - t)"


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def measure_setup(traced: bool) -> dict:
    """Cold-interpreter set-up time: process start plus ``import eptriad.cli``.

    One untimed start first compiles the bytecode cache and warms the file
    cache, which users do not pay on every run. Returns the median over
    ``SETUP_REPEATS`` fresh subprocesses; the traced run adds the import time
    measured inside them and the share of ``scipy.optimize``.
    """
    import speed

    cmd = [sys.executable, "-c", IMPORT_PROBE]
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def start(argv):
        return subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)

    start(cmd)
    walls, scaled, imports = [], [], []
    kernel = speed.reference_time()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = start(cmd)
        walls.append(time.perf_counter() - t0)
        before, kernel = kernel, speed.reference_time()
        scaled.append(speed.rescale(walls[-1], before, kernel))
        imports.append(float(proc.stdout.strip().splitlines()[-1]))
    result = {"setup_s": statistics.median(scaled), "setup_raw_s": walls}
    if traced:
        scipy_s = []
        for _ in range(3):
            proc = start([sys.executable, "-X", "importtime", "-c", "import eptriad.cli"])
            scipy_s.append(_cumulative_import_s(proc.stderr, "scipy.optimize"))
        result["setup.import_s"] = statistics.median(imports)
        result["setup.scipy_optimize_import_s"] = statistics.median(scipy_s)
    return result


def _cumulative_import_s(importtime_log: str, module: str) -> float:
    """Cumulative import time of ``module`` from ``-X importtime`` output, 0 if absent."""
    for line in importtime_log.splitlines():
        m = re.match(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(.*)$", line)
        if m and m.group(3).strip() == module:
            return int(m.group(2)) * 1e-6
    return 0.0


def _git_commit() -> str | None:
    """The checked-out commit read from ``.git``, or None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    import numpy
    import scipy

    import eptriad

    digest = hashlib.sha256()
    for path in sorted((SRC / "eptriad").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "eptriad": eptriad.__version__,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _median_metrics(rows: list[dict]) -> dict:
    return {k: statistics.median(row[k] for row in rows) for k in rows[0]}


def run_workload(workload: str, seed: int, seconds: float, traced: bool, work: Path):
    """Repeat passes until the next one would end after ``seconds``."""
    import speed
    import tracing
    import workloads

    inputs = workloads.make_inputs(workload, seed)
    passes, traced_passes, layer_rows = [], [], []
    t_start = time.perf_counter()
    while True:
        n = len(passes)
        passes.append(workloads.run_pass(workload, inputs, work / f"pass{n}", tracing.null_span,
                                         probe=speed.reference_time))
        shutil.rmtree(work / f"pass{n}", ignore_errors=True)
        if traced:
            tracer = tracing.Tracer()
            with tracer.installed():
                res = workloads.run_pass(workload, inputs, work / f"traced{n}", tracer.span,
                                         probe=tracer.kernel_probe(speed.reference_time))
            shutil.rmtree(work / f"traced{n}", ignore_errors=True)
            traced_passes.append(res)
            layer_rows.append(tracing.layer_metrics(tracer, res.observed))
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / len(passes) > seconds:
            break
    return inputs, passes, traced_passes, layer_rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "eptriad" / "cli.py").is_file():
        return _fail(f"no eptriad sources under {SRC}; run from a source checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import eptriad.cli  # noqa: F401  (the import set-up measures)
    from eptriad.errors import RegimeWarning

    if Path(eptriad.cli.__file__).resolve().parent != SRC / "eptriad":
        return _fail(f"eptriad was imported from {eptriad.cli.__file__}, not {SRC}")
    import workloads

    if args.workload not in workloads.NAMES:
        return _fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}")
    # as in the test suite: optimizers probe outside |p| <= 1 on purpose
    warnings.simplefilter("ignore", RegimeWarning)

    traced = bool(args.trace)
    setup = measure_setup(traced)
    work = OUT_DIR / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        inputs, passes, traced_passes, layer_rows = run_workload(
            args.workload, args.seed, args.seconds, traced, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p.attempted for p in passes + traced_passes)
    failed = sum(p.failed for p in passes + traced_passes)
    wall = statistics.median(p.ref_wall_s for p in passes)
    if traced:
        layers = _median_metrics(layer_rows)
        layers["setup.import_s"] = setup["setup.import_s"]
        layers["setup.scipy_optimize_import_s"] = setup["setup.scipy_optimize_import_s"]
        layers["trace.overhead_ratio"] = statistics.median(p.ref_wall_s for p in traced_passes) / wall
        values = layers
    else:
        values = {
            "setup_s": setup["setup_s"],
            "wall_s": wall,
            "throughput": statistics.median(p.units / p.ref_wall_s for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "success_ratio": (attempted - failed) / attempted,
        }
    # every declared metric, in declared order, with its declared unit
    declared = spec["per_layer" if traced else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": inputs,
        "throughput_unit": workloads.UNITS[args.workload],
        "provenance": provenance(),
        "setup_raw_s": setup["setup_raw_s"],
        "pass_raw_wall_s": [p.wall_s for p in passes],
        "pass_wall_s": [p.ref_wall_s for p in passes],
        "pass_kernel_s": [p.kernel_s for p in passes],
        "traced_pass_raw_wall_s": [p.wall_s for p in traced_passes],
        "traced_pass_wall_s": [p.ref_wall_s for p in traced_passes],
        "pass_units": [p.units for p in passes],
        "problems": [q for p in passes + traced_passes for q in p.problems],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S")
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True))
    for problem in record["problems"][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
