"""Command-line front end emitting machine-readable artifacts.

Subcommands: surface (band sheets + |disc| on a slice, CSV), loop
(transport report for a preset or JSON config), ea (arc polylines), lab
(synthesize / fit / full pipeline), group (Cayley table + verification).
Every run writes a manifest (inputs, versions, seed, timestamp and, for
lab fits, the work done) next to its outputs; reports themselves carry no
timestamps so identical configs yield byte-identical files.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 I/O failure.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import datetime
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .errors import AmbiguousMatch, EptriadError, FitDiverged, NoConvergence, NotAGroup
# discriminant_formula, eigensystem, match_assignment, refine_ep and
# seed_eps_in_slice stay importable here for the benchmark's tracer
from .locate import arc_starts, refine_ep, seed_eps_in_slice, trace_ea, track_sheets
from .loops import PRESET_NAMES, LoopPath, interpolate_loop, preset_loop
from .model import ParamPoint, PhysicalScale, discriminant_formula, discriminant_values, eigensystem
from .permutations import all_elements, element, identify, to_matrix, verify_group
from .spectral import (
    CavityConfig,
    FitConfig,
    NoiseSpec,
    check_dataset,
    fit_loop,
    load_dataset,
    save_dataset,
    synthesize,
)
from .transport import match_assignment, transport, vorticity_table

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


class _ConfigError(Exception):
    """A malformed command input: an argument, a config or a dataset file."""


@contextlib.contextmanager
def _reading_inputs():
    """Report a malformed input read inside the block as a config error (exit 2)."""
    try:
        yield
    # json.JSONDecodeError is a ValueError; a JSON value of the wrong type or
    # shape raises TypeError or IndexError where it is used
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise _ConfigError(exc) from exc


def _require_finite(args, *names: str) -> None:
    """ValueError unless each named argument (a number or a list of them) is finite."""
    for name in names:
        if not np.all(np.isfinite(getattr(args, name))):
            raise ValueError(f"--{name} must be finite, got {getattr(args, name)}")


def _write_manifest(out_dir: Path, command: str, args: dict, seed: int | None,
                    stats: dict | None = None, versions: dict | None = None) -> None:
    """Write manifest.json; ``stats`` (work counts of the run) go here, never
    into the byte-stable reports, and ``versions`` adds the versions of
    libraries the run loaded beyond numpy."""
    clean = {k: v for k, v in args.items() if k != "func" and not callable(v)}
    manifest = {
        "command": command,
        "arguments": clean,
        "seed": seed,
        "versions": {
            "eptriad": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        } | (versions or {}),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    if stats is not None:
        manifest["stats"] = stats
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def _dump_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))


def _transport_report(result) -> dict:
    """The loop report.  A holonomy entry whose magnitude rounds to 0 is a
    rounding residue; its phase carries no information and is written as 0."""
    nabp_abs = np.abs(result.holonomy).round(12)
    nabp_phase = np.where(nabp_abs == 0, 0.0, np.angle(result.holonomy).round(12))
    return {
        "label": result.label,
        "permutation": result.permutation.as_string(),
        "permutation_label": identify(result.permutation),
        "nabp_abs": nabp_abs.tolist(),
        "nabp_phase": nabp_phase.tolist(),
        "theta": result.berry_phase,
        "min_overlap": result.min_overlap,
        "reliable": result.reliable,
        "n_steps": int(result.tracked_eigenvalues.shape[0]),
        "n_exchanges": result.n_exchanges,
        "exchange_points": [
            {"eta": e.point.eta, "zeta": e.point.zeta, "xi": e.point.xi, "step": e.step}
            for e in result.events
        ],
        "vorticity": vorticity_table(result),
        "cycles_to_identity": result.permutation.order(),
    }


def _parse_grid(spec: str) -> tuple[int, int]:
    if "x" in spec.lower():
        a, b = spec.lower().split("x")
        nz, nx = int(a), int(b)
    else:
        nz = nx = int(spec)
    if min(nz, nx) < 0:
        raise ValueError(f"negative grid resolution {spec!r}")
    return nz, nx


def cmd_surface(args) -> int:
    with _reading_inputs():
        _require_finite(args, "eta", "g", "window")
        nz, nx = _parse_grid(args.grid)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    header = (
        ["zeta", "xi"]
        + [f"re_omega_{k}" for k in (1, 2, 3)]
        + [f"im_omega_{k}" for k in (1, 2, 3)]
        + ["abs_disc"]
    )
    empty = args.window[0] >= args.window[1] or args.window[2] >= args.window[3]
    rows = []
    if not empty:
        zz = np.linspace(args.window[0], args.window[1], nz)
        xx = np.linspace(args.window[2], args.window[3], nx)
        tracked = track_sheets(args.eta, args.g, zz, xx)
        rows = [
            _surface_row(w, z, x, args.eta, args.g)
            for z, row in zip(zz.tolist(), tracked)
            for x, w in zip(xx.tolist(), row.tolist())
        ]
    path = out / "surface.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    _write_manifest(out, "surface", vars(args) | {"out": str(out)}, None)
    print(f"wrote {path} " + ("(empty window, header only)" if empty else f"({len(rows)} rows)"))
    return EXIT_OK


def _surface_row(w: list[complex], z: float, x: float, eta: float, g: float) -> list[str]:
    """One CSV row.  abs_disc is the scalar discriminant: one array call over
    the grid rounds some rows' 12-digit text differently."""
    d = abs(discriminant_values(eta, z, x, g))
    return [f"{z:.10g}", f"{x:.10g}"] + [f"{c.real:.12g}" for c in w] + [f"{c.imag:.12g}" for c in w] + [f"{d:.12g}"]


def _loop_from_args(args) -> tuple[LoopPath, str]:
    """The loop ``eptriad loop`` transports, and its name: a preset or a JSON config."""
    if args.preset:
        return preset_loop(args.preset, steps_per_segment=args.steps_per_segment), args.preset
    cfg = json.loads(Path(args.config).read_text())
    g = cfg["g"]
    if cfg.get("eta_mode", "per-point") == "fixed":
        eta = cfg["eta"]
        waypoints = [ParamPoint(eta, w[-2], w[-1], g) for w in cfg["waypoints"]]
    else:
        waypoints = [ParamPoint(w[0], w[1], w[2], g) for w in cfg["waypoints"]]
    name = cfg.get("label", "loop")
    return interpolate_loop(waypoints, cfg.get("steps_per_segment", args.steps_per_segment), label=name), name


def cmd_loop(args) -> int:
    with _reading_inputs():
        loop, name = _loop_from_args(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = transport(loop)
    _dump_json(out / f"loop_{name}.json", _transport_report(result))
    _write_manifest(out, "loop", {k: v for k, v in vars(args).items() if k != "func"}, None)
    print(
        f"{name}: permutation {result.permutation.as_string()} "
        f"theta {result.berry_phase:+.6f} min_overlap {result.min_overlap:.3f}"
    )
    if not result.reliable:
        print(f"numerical failure: {name}: transport unreliable, smallest matched overlap "
              f"{result.min_overlap:.3f}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_ea(args) -> int:
    with _reading_inputs():
        _require_finite(args, "g")
        if not 0 < args.step < np.inf:
            raise ValueError(f"--step must be finite and positive, got {args.step}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    arcs = [trace_ea(args.g, start, step=args.step) for start in arc_starts(args.g)]
    doc = {
        "g": args.g,
        "arcs": [
            {
                "terminated": arc.terminated,
                "closed": arc.closed,
                "points": [
                    {
                        "eta": q.point.eta,
                        "zeta": q.point.zeta,
                        "xi": q.point.xi,
                        "re_omega": q.repeated_eigenvalue.real,
                        "im_omega": q.repeated_eigenvalue.imag,
                        "order": q.order,
                    }
                    for q in arc.points
                ],
            }
            for arc in arcs
        ],
    }
    _dump_json(out / "arcs.json", doc)
    _write_manifest(out, "ea", {k: v for k, v in vars(args).items() if k != "func"}, None)
    print(f"traced {len(arcs)} arc(s) at g = {args.g}")
    return EXIT_OK


def _lab_config(args) -> tuple[CavityConfig, FitConfig]:
    """Cavity and fit settings: ``--config`` may set any CavityConfig field and
    the DE budget; any other key is a config error."""
    doc = json.loads(Path(args.config).read_text()) if args.config else {}
    if not isinstance(doc, dict):
        raise ValueError("lab config must be a JSON object")
    cav_keys = {f.name for f in fields(CavityConfig)}
    fit_keys = {"population", "generations"}
    unknown = sorted(set(doc) - cav_keys - fit_keys)
    if unknown:
        raise ValueError(f"unknown lab config key(s): {', '.join(unknown)}")
    cav = {k: v for k, v in doc.items() if k in cav_keys}
    fit = {k: v for k, v in doc.items() if k in fit_keys}
    for k, v in fit.items():
        if type(v) is not int:
            raise ValueError(f"lab config: {k} must be an integer, got {v!r}")
    if "scale" in cav:
        cav["scale"] = PhysicalScale(**cav["scale"])
    return CavityConfig(**cav), FitConfig(seed=args.seed, **fit)


def cmd_lab(args) -> int:
    with _reading_inputs():
        cav, fitcfg = _lab_config(args)
        if not 0 <= args.noise < np.inf:
            raise ValueError(f"--noise must be finite and at least 0, got {args.noise}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    preset = args.loop_preset
    stats = versions = None        # the fit's work counts and scipy version, for the manifest
    if args.subcommand in ("synth", "pipeline"):
        loop = preset_loop(preset, steps_per_segment=1)
        points = list(loop.steps)
        dataset = synthesize(points, cav, NoiseSpec(args.noise, args.seed))
        save_dataset(dataset, out / "dataset.json")
        print(f"synthesized {len(points)} steps (noise {args.noise:g}, seed {args.seed})")
    if args.subcommand == "fit":
        with _reading_inputs():
            dataset = load_dataset(args.dataset)
            check_dataset(dataset)
    if args.subcommand in ("fit", "pipeline"):
        fits, result = fit_loop(dataset, fit_config=fitcfg)
        report = {
            "fit": [
                {
                    "eta": f.point.eta,
                    "zeta": f.point.zeta,
                    "xi": f.point.xi,
                    "g": f.point.g,
                    "omega0": f.scale.omega0,
                    "gamma0": f.scale.gamma0,
                    "kappa": f.scale.kappa,
                    "residual": f.residual,
                    "truth": (
                        None
                        if st.param_truth is None
                        else [st.param_truth.eta, st.param_truth.zeta, st.param_truth.xi, st.param_truth.g]
                    ),
                }
                for f, st in zip(fits, dataset.steps)
            ],
            "transport": _transport_report(result),
        }
        _dump_json(out / "fit_report.json", report)
        stats = {"de_searches": sum(f.searched for f in fits), "fitted_steps": len(fits)}
        # the fit's search loaded scipy, whose version sets the search's random stream
        import scipy

        versions = {"scipy": scipy.__version__}
        print(
            f"fit {len(fits)} steps: permutation {result.permutation.as_string()} "
            f"theta {result.berry_phase:+.6f}"
        )
    _write_manifest(out, f"lab-{args.subcommand}", {k: v for k, v in vars(args).items() if k != "func"},
                    args.seed, stats, versions)
    return EXIT_OK


def cmd_group(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report = verify_group(all_elements())
    labels = list(report.labels)
    table = [[report.cayley[(a, b)] for b in labels] for a in labels]
    doc = {
        "labels": labels,
        "orders": report.orders,
        "cayley": table,
        "witness": list(report.witness) if report.witness else None,
        "matrices": {lbl: to_matrix(element(lbl)).astype(int).tolist() for lbl in labels},
    }
    _dump_json(out / "group.json", doc)
    _write_manifest(out, "group", {k: v for k, v in vars(args).items() if k != "func"}, None)
    width = max(len(x) for x in labels) + 1
    header = " " * width + "".join(x.ljust(width) for x in labels)
    print(header)
    for a in labels:
        print(a.ljust(width) + "".join(report.cayley[(a, b)].ljust(width) for b in labels))
    if report.witness:
        a, b = report.witness
        print(f"non-commuting witness: {a} o {b} != {b} o {a}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="eptriad", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("surface", help="band sheets and |disc| on a (zeta, xi) slice")
    sp.add_argument("--eta", type=float, required=True)
    sp.add_argument("--g", type=float, default=0.61)
    sp.add_argument("--grid", default="101x101", help="resolution N or NxM")
    sp.add_argument("--window", type=float, nargs=4, default=[-1.0, 1.0, -1.0, 1.0],
                    metavar=("ZLO", "ZHI", "XLO", "XHI"))
    sp.add_argument("--out", default="out")
    sp.set_defaults(func=cmd_surface)

    lp = sub.add_parser("loop", help="transport a loop and report the permutation")
    lp.add_argument("--preset", choices=PRESET_NAMES)
    lp.add_argument("--config", help="JSON loop config path")
    lp.add_argument("--steps-per-segment", type=int, default=200)
    lp.add_argument("--out", default="out")
    lp.set_defaults(func=cmd_loop)

    ep = sub.add_parser("ea", help="trace exceptional arcs at fixed g")
    ep.add_argument("--g", type=float, required=True)
    ep.add_argument("--step", type=float, default=0.02)
    ep.add_argument("--out", default="out")
    ep.set_defaults(func=cmd_ea)

    lb = sub.add_parser("lab", help="virtual experiment: synth / fit / pipeline")
    lb.add_argument("subcommand", choices=("synth", "fit", "pipeline"))
    lb.add_argument("--loop-preset", default="mu1", choices=PRESET_NAMES)
    lb.add_argument("--dataset", help="dataset JSON (for fit)")
    lb.add_argument("--config", help="JSON lab config path")
    lb.add_argument("--noise", type=float, default=0.0)
    lb.add_argument("--seed", type=int, default=0)
    lb.add_argument("--out", default="out")
    lb.set_defaults(func=cmd_lab)

    gp = sub.add_parser("group", help="Cayley table and group verification")
    gp.add_argument("--out", default="out")
    gp.set_defaults(func=cmd_group)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "loop" and not (args.preset or args.config):
            print("loop: provide --preset or --config", file=sys.stderr)
            return EXIT_CONFIG
        if args.command == "lab" and args.subcommand == "fit" and not args.dataset:
            print("lab fit: provide --dataset", file=sys.stderr)
            return EXIT_CONFIG
        return args.func(args)
    except _ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NoConvergence, FitDiverged, AmbiguousMatch, NotAGroup) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except EptriadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
