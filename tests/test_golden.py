"""Golden reports: the CLI must keep reproducing the checked-in outputs.

``tests/golden/`` holds the six ``loop --preset`` reports at 64 steps per
segment, ``surface --grid 21`` at eta = 0.33, g = 0.61 and
``ea --g 0.61 --step 0.04``.  Strings, booleans and integers must match
exactly; floats within 1e-9 (relative to their size when above 1).  A loop
report writes the phase of a holonomy entry whose magnitude rounds to 0 as
0, so the loop goldens pin no rounding residue.  The arcs are closed-form
roots sampled along a fixed eta grid, so no LAPACK call decides an arc's
length.  Every golden holds on any BLAS kernel.
"""
import csv
import json
from pathlib import Path

import pytest

from eptriad.cli import EXIT_OK, main
from eptriad.loops import PRESET_NAMES

GOLDEN = Path(__file__).parent / "golden"
FLOAT_TOL = 1e-9


def load(path: Path):
    return json.loads(path.read_text())


def assert_same(got, want, where="$"):
    if isinstance(want, float) or isinstance(got, float):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        assert abs(got - want) <= FLOAT_TOL * max(1.0, abs(want)), f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for k in want:
            assert_same(got[k], want[k], f"{where}.{k}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: length"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("preset", PRESET_NAMES)
@pytest.mark.kernels
def test_loop_report(tmp_path, preset):
    argv = ["loop", "--preset", preset, "--steps-per-segment", "64", "--out", str(tmp_path)]
    assert main(argv) == EXIT_OK
    name = f"loop_{preset}.json"
    assert_same(load(tmp_path / name), load(GOLDEN / name))


def test_surface_csv(tmp_path):
    argv = ["surface", "--eta", "0.33", "--g", "0.61", "--grid", "21", "--out", str(tmp_path)]
    assert main(argv) == EXIT_OK
    with (tmp_path / "surface.csv").open() as fh, (GOLDEN / "surface.csv").open() as gh:
        got, want = list(csv.reader(fh)), list(csv.reader(gh))
    assert got[0] == want[0]
    assert_same([[float(c) for c in r] for r in got[1:]], [[float(c) for c in r] for r in want[1:]])


@pytest.mark.kernels
def test_arcs(tmp_path):
    assert main(["ea", "--g", "0.61", "--step", "0.04", "--out", str(tmp_path)]) == EXIT_OK
    assert_same(load(tmp_path / "arcs.json"), load(GOLDEN / "arcs.json"))
