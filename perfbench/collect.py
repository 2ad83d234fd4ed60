"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --seeds 1-10 [--traced-seed 1] [--out perfbench/baseline.json]

Run from the root of a source checkout. Each run is a separate
``perfbench/run.py`` process, one after another, over every workload in
``BENCHMARK.json``. For every workload and end-to-end metric the summary
gives the median, the quartiles (as ``statistics.quantiles(values, n=4)``)
and the spread, i.e. the distance between the quartiles as a share of the
median, next to the metric's bound in ``BENCHMARK.json``.

Beside the rescaled ``setup_s``, ``wall_s`` and ``throughput`` it gives the
same summary of the unscaled times of the same runs, and the range of the
reference kernel's time within and across the runs, which is the evidence
for rescaling (see ``speed.py``). With ``--traced-seed`` one traced run per
workload adds the per-layer metrics and whether the layers' self times
account for the traced pass to within the tracing overhead. Exits 1 if any
run fails its checks or any spread exceeds its bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = next(line.split(": ", 1)[1] for line in lines if line.startswith("record: "))
    result["record"] = json.loads((ROOT / record).read_text())
    return result


def summarise(values: list[float], bound: float | None) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else 0.0
    out = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}
    if bound is not None:
        out["bound"] = bound
        out["spread_within_third_of_bound"] = spread < bound / 3
    return out


def unscaled(record: dict) -> dict:
    """The run's set-up, pass time and throughput without rescaling."""
    walls = record["pass_raw_wall_s"]
    return {
        "setup_s": statistics.median(record["setup_raw_s"]),
        "wall_s": statistics.median(walls),
        "throughput": statistics.median(u / w for u, w in zip(record["pass_units"], walls)),
    }


def kernel_summary(records: list[dict]) -> dict:
    """How far the reference kernel's time moved within passes and across runs."""
    within = [max(k) / min(k) for r in records for k in r["pass_kernel_s"]]
    every = [t for r in records for k in r["pass_kernel_s"] for t in k]
    return {
        "min_s": min(every),
        "median_s": statistics.median(every),
        "max_s": max(every),
        "max_over_min_within_a_pass": {"median": statistics.median(within), "max": max(within)},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--traced-seed", type=int)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seeds = _seeds(args.seeds)
    doc = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    ok = True
    for name in names:
        runs = []
        for seed in seeds:
            res = run_once(name, seed, spec["run_seconds"], 0)
            ok &= res["correct"]
            runs.append(res)
            print(name, seed, {k: round(v["value"], 4) for k, v in res["metrics"].items()}, flush=True)
        entry = {
            "correct": all(r["correct"] for r in runs),
            "inputs": {str(s): r["record"]["inputs"] for s, r in zip(seeds, runs)},
            "end_to_end": {},
        }
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            entry["end_to_end"][metric["name"]] = summarise(values, metric["bound"])
            ok &= entry["end_to_end"][metric["name"]]["spread"] <= metric["bound"]
        records = [r["record"] for r in runs]
        raw = [unscaled(rec) for rec in records]
        entry["unscaled"] = {k: summarise([x[k] for x in raw], None) for k in raw[0]}
        entry["reference_kernel"] = kernel_summary(records)
        if args.traced_seed is not None:
            res = run_once(name, args.traced_seed, spec["run_seconds"], 1)
            ok &= res["correct"]
            layers = {k: v["value"] for k, v in res["metrics"].items()}
            entry["per_layer"] = {"seed": args.traced_seed, **layers}
            # the layers' self times account for the traced pass when what
            # they leave out of it is no larger than what tracing adds to it
            entry["self_times_within_overhead"] = (
                1 - layers["trace.attributed_ratio"] <= layers["trace.overhead_ratio"] - 1)
        doc["workloads"][name] = entry
        doc["provenance"] = runs[-1]["record"]["provenance"]
        for metric, s in entry["end_to_end"].items():
            print(f"{name:6s} {metric:14s} median {s['median']:.6g} spread {s['spread']:.4f} bound {s['bound']}")
        for metric, s in entry["unscaled"].items():
            print(f"{name:6s} {metric:14s} unscaled median {s['median']:.6g} spread {s['spread']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
