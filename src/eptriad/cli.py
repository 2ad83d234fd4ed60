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
import datetime
import functools
import json
import re
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .errors import EptriadError
# discriminant_formula, eigensystem, match_assignment, refine_ep and
# seed_eps_in_slice stay importable here for the benchmark's tracer
from .locate import ETA_GRID_STEP, arc_starts, refine_ep, seed_eps_in_slice, trace_ea, track_sheets
from .loops import MIN_STEPS, PRESET_NAMES, LoopPath, interpolate_loop, preset_loop, preset_waypoints
from .model import ParamPoint, discriminant_formula, discriminant_values, eigensystem
from .permutations import all_elements, element, identify, to_matrix, verify_group
from .spectral import (
    NoiseSpec,
    check_dataset,
    fit_loop,
    load_dataset,
    read_cavity_config,
    save_dataset,
    synthesize,
)
from .transport import DEFAULT_OVERLAP_FLOOR, match_assignment, transport, vorticity_table

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


def _write_manifest(out_dir: Path, command: str, args: dict, seed: int | None, stats: dict | None = None) -> None:
    """Write manifest.json; ``stats`` (work counts of the run) go here, never
    into the byte-stable reports."""
    clean = {k: v for k, v in args.items() if k != "func" and not callable(v)}
    manifest = {
        "command": command,
        "arguments": clean,
        "seed": seed,
        "versions": {
            "eptriad": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    if stats is not None:
        manifest["stats"] = stats
    _dump_json(out_dir / "manifest.json", manifest)


def _dump_json(path: Path, doc) -> None:
    """Write ``doc`` as compact JSON with sorted keys (CPython's C encoder)."""
    path.write_text(json.dumps(doc, sort_keys=True))


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


def _unreliable(name: str, result) -> int:
    """Name the check that unreliable ``result`` failed on stderr; the exit code."""
    # the overlap floor if it failed, else the parity check of transport_eigensystems
    why = (f"smallest matched overlap {result.min_overlap:.3f}" if result.min_overlap <= DEFAULT_OVERLAP_FLOOR
           else f"permutation parity disagrees with the discriminant winding {result.disc_winding:+.3f}")
    print(f"numerical failure: {name}: transport unreliable, {why}", file=sys.stderr)
    return EXIT_NUMERICAL


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
        zlo, zhi, xlo, xhi = args.window
        empty = zlo >= zhi or xlo >= xhi
        if empty:
            nz = nx = 0
        # linspace over a window near the float limit can overflow; a point
        # that is not finite gives a |disc| that is not finite, rejected below
        with np.errstate(over="ignore", invalid="ignore"):
            zz, xx = np.linspace(zlo, zhi, nz), np.linspace(xlo, xhi, nx)
            # one array call, each point with the bits of the scalar call; hypot
            # rounds as abs() of a Python complex, np.abs does not.  No CSV may
            # carry an inf or a nan
            disc = discriminant_values(args.eta, zz[:, None], xx, args.g)
            abs_disc = np.hypot(disc.real, disc.imag)
        if not np.isfinite(abs_disc).all():
            raise ValueError("|disc| is not finite on this slice's grid")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tracked = track_sheets(args.eta, args.g, zz, xx)
    zs, xs = zz.tolist(), xx.tolist()
    path = out / "surface.csv"
    # the bytes csv.writer wrote: no field needs quoting and lines end in
    # \r\n.  A grid line's template is its zeta label joining these tails
    tails = [""] + [f"{x:.10g}" + ",%.12g" * 7 + "\r\n" for x in xs]
    with path.open("w", newline="") as fh:
        fh.write("zeta,xi,re_omega_1,re_omega_2,re_omega_3,im_omega_1,im_omega_2,im_omega_3,abs_disc\r\n")
        for z, w, d in zip(zs, tracked, abs_disc):
            fh.write(f"{z:.10g},".join(tails) % tuple(np.column_stack((w.real, w.imag, d)).ravel().tolist()))
    _write_manifest(out, "surface", vars(args) | {"out": str(out)}, None)
    print(f"wrote {path} " + ("(empty window, header only)" if empty else f"({nz * nx} rows)"))
    return EXIT_OK


#: the keys of a ``loop --config`` object
LOOP_CONFIG_KEYS = ("eta", "eta_mode", "g", "label", "steps_per_segment", "waypoints")


def _loop_from_args(args) -> tuple[LoopPath, str]:
    """The loop ``eptriad loop`` transports, and its name: a preset or a JSON
    config.  A config key not in ``LOOP_CONFIG_KEYS``, an ``eta_mode`` other
    than "fixed" or "per-point", a label that is no string or holds a path
    separator, a waypoint row other than (eta, zeta, xi), or (zeta, xi) at a
    fixed eta, and a JSON boolean for a number are ValueErrors."""
    if args.preset:
        return preset_loop(args.preset, steps_per_segment=args.steps_per_segment), args.preset
    cfg = json.loads(Path(args.config).read_text())
    if not isinstance(cfg, dict) or set(cfg) - set(LOOP_CONFIG_KEYS):
        raise ValueError(f"loop config must be a JSON object with keys among {LOOP_CONFIG_KEYS}")
    name, mode = cfg.get("label", "loop"), cfg.get("eta_mode", "per-point")
    if mode not in ("fixed", "per-point") or not isinstance(name, str) or {"/", "\\", "\0"} & set(name):
        raise ValueError(f"loop config: eta_mode must be 'fixed' or 'per-point' and label a string "
                         f"without a path separator, got {mode!r} and {name!r}")
    g, rows = cfg["g"], cfg["waypoints"]
    eta = [cfg["eta"]] if mode == "fixed" else []
    # Python reads JSON true and false as the numbers 1 and 0
    numbers = [g, *eta, cfg.get("steps_per_segment"), *sum(rows, [])]
    if any(len(w) != 3 - len(eta) for w in rows) or any(isinstance(v, bool) for v in numbers):
        raise ValueError(f"loop config: a {mode} waypoint is {3 - len(eta)} numbers, and no number is a boolean")
    waypoints = [ParamPoint(*eta, *w, g) for w in rows]
    return interpolate_loop(waypoints, cfg.get("steps_per_segment", args.steps_per_segment), label=name), name


def cmd_loop(args) -> int:
    with _reading_inputs():
        loop, name = _loop_from_args(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = transport(loop)
    _dump_json(out / f"loop_{name}.json", _transport_report(result))
    _write_manifest(out, "loop", vars(args), None)
    print(
        f"{name}: permutation {result.permutation.as_string()} "
        f"theta {result.berry_phase:+.6f} min_overlap {result.min_overlap:.3f}"
    )
    return EXIT_OK if result.reliable else _unreliable(name, result)


def cmd_ea(args) -> int:
    with _reading_inputs():
        _require_finite(args, "g")
        if not ETA_GRID_STEP <= args.step < np.inf:
            raise ValueError(f"--step must be finite and at least the eta grid spacing {ETA_GRID_STEP:g}, "
                             f"got {args.step}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    arcs = [trace_ea(args.g, start, step=args.step) for start in arc_starts(args.g)]
    doc = {
        "g": args.g,
        "arcs": [
            {
                "terminated": arc.terminated,
                "points": [
                    {"eta": eta, "zeta": zeta, "xi": xi, "re_omega": re, "im_omega": im, "order": order}
                    for (eta, zeta, xi), re, im, order in zip(
                        arc.coords().tolist(), arc.omega.real.tolist(), arc.omega.imag.tolist(), arc.order.tolist()
                    )
                ],
            }
            for arc in arcs
        ],
    }
    _dump_json(out / "arcs.json", doc)
    _write_manifest(out, "ea", vars(args), None)
    print(f"traced {len(arcs)} arc(s) at g = {args.g}")
    return EXIT_OK


def cmd_lab(args) -> int:
    stats = None        # the fit's work counts, for the manifest
    if args.subcommand == "fit":
        with _reading_inputs():
            dataset = load_dataset(args.dataset)
    else:
        with _reading_inputs():
            # --config may set any CavityConfig field; any other key is a config error
            cav = read_cavity_config(json.loads(Path(args.config).read_text()) if args.config is not None else {})
            noise = NoiseSpec(args.noise, args.seed)
        # the fewest steps per segment that give a loop of MIN_STEPS steps
        segments = len(preset_waypoints(args.loop_preset)) - 1
        loop = preset_loop(args.loop_preset, steps_per_segment=-(-(MIN_STEPS - 1) // segments))
        dataset = synthesize(list(loop.steps), cav, noise)
    # a dataset that cannot be fitted (one read from a file, or one synthesized at a
    # noise level whose spectra overflow) is a config error, found before any write
    with _reading_inputs():
        check_dataset(dataset)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.subcommand != "fit":
        save_dataset(dataset, out / "dataset.json")
        print(f"synthesized {len(dataset.responses)} steps (noise {args.noise:g}, seed {args.seed})")
    if args.subcommand != "synth":
        fits, result = fit_loop(dataset)
        report = {
            "fit": [
                asdict(f.point) | asdict(f.scale) | {
                    "residual": f.residual,
                    "truth": None if truth is None else truth.as_array().tolist(),
                }
                for f, truth in zip(fits, dataset.param_truth)
            ],
            "transport": _transport_report(result),
        }
        _dump_json(out / "fit_report.json", report)
        stats = {"fitted_steps": len(fits), "gn_iterations": sum(f.gauss_newton_iterations for f in fits)}
        print(
            f"fit {len(fits)} steps: permutation {result.permutation.as_string()} "
            f"theta {result.berry_phase:+.6f}"
        )
    # the seed of the dataset's noise, which a fit reads from the dataset
    _write_manifest(out, f"lab-{args.subcommand}", vars(args), dataset.noise_spec.seed, stats)
    if args.subcommand != "synth" and not result.reliable:
        return _unreliable(result.label, result)
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
    _write_manifest(out, "group", vars(args), None)
    width = max(len(x) for x in labels) + 1
    header = " " * width + "".join(x.ljust(width) for x in labels)
    print(header)
    for a in labels:
        print(a.ljust(width) + "".join(report.cayley[(a, b)].ljust(width) for b in labels))
    if report.witness:
        a, b = report.witness
        print(f"non-commuting witness: {a} o {b} != {b} o {a}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: each subcommand's
    ``func`` is its ``cmd_*`` function, which reads the module's names when
    it runs."""
    ap = argparse.ArgumentParser(prog="eptriad", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("surface", help="band sheets and |disc| on a (zeta, xi) slice")
    sp.add_argument("--eta", type=float, required=True)
    sp.add_argument("--g", type=float, default=0.61)
    sp.add_argument("--grid", default="101x101", help="resolution N or NxM")
    sp.add_argument("--window", type=float, nargs=4, default=(-1.0, 1.0, -1.0, 1.0),
                    metavar=("ZLO", "ZHI", "XLO", "XHI"))
    sp.add_argument("--out", default="out")
    sp.set_defaults(func=cmd_surface)

    lp = sub.add_parser("loop", help="transport a loop and report the permutation")
    source = lp.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=PRESET_NAMES)
    source.add_argument("--config", help="JSON loop config path")
    lp.add_argument("--steps-per-segment", type=int, default=200)
    lp.add_argument("--out", default="out")
    lp.set_defaults(func=cmd_loop)

    ep = sub.add_parser("ea", help="trace exceptional arcs at fixed g")
    ep.add_argument("--g", type=float, required=True)
    ep.add_argument("--step", type=float, default=0.02)
    ep.add_argument("--out", default="out")
    ep.set_defaults(func=cmd_ea)

    lb = sub.add_parser("lab", help="virtual experiment: synth / fit / pipeline")
    lab = lb.add_subparsers(dest="subcommand", required=True)
    fp = lab.add_parser("fit", help="fit a dataset file and transport the fitted loop")
    fp.add_argument("--dataset", required=True, help="dataset JSON path")
    fp.add_argument("--out", default="out")
    for name, what in (("synth", "synthesize a preset loop's spectra"), ("pipeline", "synth, then fit")):
        mp = lab.add_parser(name, help=what)
        mp.add_argument("--loop-preset", default="mu1", choices=PRESET_NAMES)
        mp.add_argument("--config", help="JSON lab config path")
        mp.add_argument("--noise", type=float, default=0.0)
        mp.add_argument("--seed", type=int, default=0)
        mp.add_argument("--out", default="out")
    lb.set_defaults(func=cmd_lab)

    gp = sub.add_parser("group", help="Cayley table and group verification")
    gp.add_argument("--out", default="out")
    gp.set_defaults(func=cmd_group)
    # argparse before Python 3.13 reads a negative number in exponent form
    # (-1e-6) as an option; take any "-digit" or "-.digit" for a value, as 3.13 does
    for parser in (ap, *sub.choices.values(), *lab.choices.values()):
        parser._negative_number_matcher = re.compile(r"-\.?\d")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except _ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EptriadError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
