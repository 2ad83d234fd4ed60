"""Smoke runs of the scripts under ``scripts/``: each exits 0 and writes what it says."""
import os
import subprocess
import sys
from pathlib import Path

import eptriad
from eptriad.loops import PRESET_NAMES

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name: str, args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(Path(eptriad.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        cwd=cwd, capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_run_canonical_loops(tmp_path):
    proc = run_script("run_canonical_loops.py", ["--steps-per-segment", "64", "--out", "loops"], tmp_path)
    for name in PRESET_NAMES:
        assert (tmp_path / "loops" / name / f"loop_{name}.json").is_file()
        assert (tmp_path / "loops" / name / "manifest.json").is_file()
    assert len(proc.stdout.splitlines()) == len(PRESET_NAMES)


def test_trace_arc_atlas(tmp_path):
    proc = run_script("trace_arc_atlas.py", ["--g", "0.61", "-0.61", "--out", "arcs"], tmp_path)
    for g in ("+0.61", "-0.61"):
        assert sorted(p.name for p in (tmp_path / "arcs" / f"g{g}").iterdir()) == ["arcs.json", "manifest.json"]
    assert proc.stdout.splitlines() == ["traced 2 arc(s) at g = 0.61", "traced 2 arc(s) at g = -0.61"]


def test_virtual_experiment(tmp_path):
    proc = run_script("virtual_experiment.py", ["--steps-per-segment", "1"], tmp_path)
    assert "mu1: fitted 9 steps" in proc.stdout
    assert "permutation 132" in proc.stdout
    assert not any(tmp_path.iterdir())          # prints its summary, writes no files
