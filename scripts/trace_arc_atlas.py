#!/usr/bin/env python3
"""Trace the exceptional arcs for a sweep of g values.

Shows the connectivity change through g = 0: for g > 0 the two arcs cross
the eta = 0 plane on the zeta axis, for g < 0 on the xi axis, and at g = 0
four branches meet at the order-3 nexus.

Runs ``eptriad ea --g G`` once per g, writing each ``arcs.json`` (and its
manifest) under --out/g+G.GG (default out/arcs).
"""
import argparse
from pathlib import Path

from eptriad.cli import main as eptriad_main


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--g", type=float, nargs="*", default=[-0.61, -0.2, 0.0, 0.2, 0.61])
    ap.add_argument("--step", type=float, default=0.02)
    ap.add_argument("--out", default="out/arcs")
    args = ap.parse_args()
    for g in args.g:
        code = eptriad_main([
            "ea", "--g", repr(g), "--step", repr(args.step),
            "--out", str(Path(args.out) / f"g{g:+.2f}"),
        ])
        if code:
            return code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
