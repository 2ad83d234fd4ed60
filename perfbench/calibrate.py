"""Sweeps that justify the benchmark's input ranges and check tolerances.

    python3 perfbench/calibrate.py [--out perfbench/calibration.json]

Run from the root of a source checkout. Records, for the code it runs on:

* ``loops``: the Berry-phase error of every preset for steps per segment
  across the drawn range [160, 256];
* ``atlas``: the number of EPs that ``seed_eps_in_slice`` finds on each eta
  slice of the drawn range, and the arc count and terminations of ``ea``
  on the 0.005 grid of g the workload draws from (and beyond it, to show
  where the range ends);
* ``lab``: permutation, Berry-phase error, worst per-step parameter error
  and worst residual of ``lab pipeline`` for every seed in
  ``workloads.LAB_SWEEP``, the seeds the workload draws from.
"""
from __future__ import annotations

import argparse
import json
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from eptriad.errors import RegimeWarning  # noqa: E402
from eptriad.locate import seed_eps_in_slice  # noqa: E402
from eptriad.loops import preset_loop  # noqa: E402
from eptriad.transport import transport  # noqa: E402

import workloads  # noqa: E402


def sweep_loops() -> dict:
    out = {}
    for preset in workloads.PRESETS:
        want = workloads.EXPECT["theta"][preset]
        rows = []
        for n in range(160, 257, 8):
            res = transport(preset_loop(preset, steps_per_segment=n))
            rows.append({"steps_per_segment": n, "permutation": res.permutation.as_string(),
                         "theta_err": workloads.circular_distance(res.berry_phase, want)})
        out[preset] = {"max_theta_err": max(r["theta_err"] for r in rows), "runs": rows}
    return out


def _ea(g: float, out: Path) -> dict:
    argv = ["ea", "--g", repr(g), "--out", str(out)]
    problems: list[str] = []
    workloads._cli(argv, problems)
    doc = json.loads((out / "arcs.json").read_text())
    return {"g": g, "terminations": [a["terminated"] for a in doc["arcs"]],
            "points": [len(a["points"]) for a in doc["arcs"]],
            "problems": workloads.check_arcs(doc)}


def sweep_atlas(tmp: Path) -> dict:
    etas = [round(0.10 + 0.01 * k, 2) for k in range(41)]
    ep_counts = {repr(e): len(seed_eps_in_slice(e, workloads.G_CANONICAL, ((-1, 1), (-1, 1)), 64)) for e in etas}
    drawn = [round(0.005 * k, 3) for k in range(10, 90)]
    beyond = [round(0.005 * k, 3) for k in range(90, 201, 2)]
    ea = [_ea(g, tmp / "ea") for g in [0.0] + drawn + beyond]
    return {
        "eta_slice_ep_counts": ep_counts,
        "ea_g_drawn": [repr(g) for g in drawn],
        "ea_failing_g": [r["g"] for r in ea if r["problems"]],
        "ea": ea,
    }


def sweep_lab(tmp: Path) -> dict:
    rows = []
    for s in workloads.LAB_SWEEP:
        problems: list[str] = []
        d = tmp / f"lab{s}"
        argv = ["lab", "pipeline", "--loop-preset", workloads.LAB_PRESET, "--noise",
                repr(workloads.LAB_NOISE), "--seed", str(s), "--out", str(d)]
        if not workloads._cli(argv, problems):
            rows.append({"seed": s, "problems": problems})
            continue
        doc = json.loads((d / "fit_report.json").read_text())
        found, accuracy = workloads.check_fit_report(doc)
        rows.append({"seed": s, "permutation": doc["transport"]["permutation"], **accuracy,
                     "problems": found})
        print(json.dumps(rows[-1]), flush=True)
    ok = [r for r in rows if "theta_err" in r]
    return {
        "max_theta_err": max(r["theta_err"] for r in ok),
        "max_param_err": max(r["param_err_max"] for r in ok),
        "runs": rows,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(ROOT / "perfbench" / "calibration.json"))
    args = ap.parse_args(argv)
    warnings.simplefilter("ignore", RegimeWarning)
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        doc = {
            "loops": sweep_loops(),
            "atlas": sweep_atlas(Path(tmp)),
            "lab": sweep_lab(Path(tmp)),
        }
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
