#!/usr/bin/env python3
"""Transport every bundled loop preset and print a one-line summary each.

Runs ``eptriad loop --preset NAME`` once per preset, writing each full JSON
report (and its manifest) under --out/NAME (default out/loops).
"""
import argparse
from pathlib import Path

from eptriad.cli import main as eptriad_main
from eptriad.loops import PRESET_NAMES


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--steps-per-segment", type=int, default=200)
    ap.add_argument("--out", default="out/loops")
    args = ap.parse_args()
    for name in PRESET_NAMES:
        code = eptriad_main([
            "loop", "--preset", name,
            "--steps-per-segment", str(args.steps_per_segment),
            "--out", str(Path(args.out) / name),
        ])
        if code:
            return code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
