"""Closed stroboscopic loops in parameter space and the bundled presets.

A loop is a closed waypoint polygon densified by linear interpolation.
The presets realize the six canonical encircling scenarios: the two
generators (swap of bands 2,3 and of bands 1,2), their two concatenations,
the outer-pair swap at eta = 0, and a single large loop around both arcs.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AnchorMismatch, PathTouchesEP
# discriminant_formula stays importable here for the benchmark's tracer
from .model import ParamPoint, discriminant_formula, discriminant_roots

#: no root t of a segment's discriminant may come this close to the segment's [0, 1]
EP_CLEARANCE = 1e-8

MIN_STEPS = 8


@dataclass(frozen=True, eq=False)
class LoopPath:
    """A closed loop: its waypoints, the (L, 4) array of its steps and the
    number of equal steps on each waypoint segment, from its first waypoint.

    Row l of ``params`` is step l as (eta, zeta, xi, g); the first and last
    rows coincide.
    """

    g: float
    waypoints: tuple[ParamPoint, ...]
    params: np.ndarray
    segment_steps: tuple[int, ...]
    label: str = ""
    #: (n_segments, 6) roots t of the discriminant along each waypoint segment
    roots: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.waypoints[0] != self.waypoints[-1]:
            raise ValueError("loop waypoints must close (first == last)")
        if not np.array_equal(self.params[0], self.params[-1]):
            raise ValueError("loop steps must close (first == last)")
        if len(self.params) < MIN_STEPS:
            raise ValueError(f"need at least {MIN_STEPS} steps, got {len(self.params)}")
        ends = np.array([p.as_array() for p in self.waypoints])
        # a discriminant that overflows would reach the report's winding as a nan: ValueError
        object.__setattr__(self, "roots", discriminant_roots(ends))
        gap = np.abs(self.roots - np.clip(self.roots.real, 0, 1)).min(axis=1)
        if gap.min() < EP_CLEARANCE:
            k = int(np.argmin(gap))
            raise PathTouchesEP(f"a discriminant root {gap[k]:.2e} from the segment "
                                f"{ParamPoint.from_row(ends[k])} -> {ParamPoint.from_row(ends[k + 1])}")

    @property
    def steps(self) -> tuple[ParamPoint, ...]:
        return tuple(ParamPoint.from_row(row) for row in self.params)

    @property
    def n_steps(self) -> int:
        return len(self.params)


def interpolate_loop(
    waypoints: list[ParamPoint] | tuple[ParamPoint, ...],
    steps_per_segment: int = 200,
    label: str = "",
) -> LoopPath:
    """Densify a closed waypoint sequence by linear interpolation.

    Requires at least 3 distinct waypoints, exact closure and at least one
    step per segment.  The total step count is n_segments *
    steps_per_segment + 1 with both endpoints included (and equal).
    """
    pts = tuple(waypoints)
    if len(set(pts)) < 3:
        raise ValueError("need at least 3 distinct waypoints")
    gs = {p.g for p in pts}
    if len(gs) != 1:
        raise ValueError("all waypoints must share g")
    ends = np.array([p.as_array() for p in pts])
    # range() rejects a non-integer step count
    steps = range(steps_per_segment)
    if not steps:
        raise ValueError(f"steps_per_segment must be at least 1, got {steps_per_segment}")
    f = (np.array(steps, dtype=float) / steps_per_segment)[None, :, None]
    segments = (1 - f) * ends[:-1, None, :] + f * ends[1:, None, :]
    params = np.vstack([segments.reshape(-1, 4), ends[-1:]])
    return LoopPath(pts[0].g, pts, params, (steps_per_segment,) * (len(pts) - 1), label)


def concat_loops(a: LoopPath, b: LoopPath) -> LoopPath:
    """Concatenate two loops sharing an anchor: b is traversed first, then a.

    The operation order "a after b" matches the matrix order U_a @ U_b of the
    resulting holonomies.
    """
    if a.g != b.g:
        raise AnchorMismatch(f"g mismatch: {a.g} != {b.g}")
    if a.waypoints[0] != b.waypoints[0]:
        raise AnchorMismatch(f"anchors differ: {a.waypoints[0]} vs {b.waypoints[0]}")
    waypoints = b.waypoints[:-1] + a.waypoints
    params = np.vstack([b.params[:-1], a.params])
    label = f"{a.label or 'a'}_after_{b.label or 'b'}"
    return LoopPath(a.g, waypoints, params, b.segment_steps + a.segment_steps, label)


def reverse_loop(loop: LoopPath) -> LoopPath:
    return LoopPath(loop.g, loop.waypoints[::-1], loop.params[::-1], loop.segment_steps[::-1],
                    f"{loop.label}-reversed" if loop.label else "reversed")


# --------------------------------------------------------------------------
# bundled loop presets
#
# (zeta, xi) waypoint tables for the canonical runs.  The mu3 rectangle's
# right edge must clear the band-degeneracy point at zeta ~ 0.5408 in the
# eta = 0.33 plane, hence 0.55 there.
G_CANONICAL = 0.61
ETA_GENERATORS = 0.33

_MU1_ZX = [
    (0.00, 0.00), (-0.40, 0.00), (-0.60, 0.00), (-0.60, -0.16), (-0.60, -0.44),
    (-0.36, -0.41), (0.00, -0.46), (0.00, -0.26), (0.00, 0.00),
]
_MU3_ZX = [
    (0.00, 0.00), (0.16, 0.00), (0.55, 0.00), (0.55, 0.35), (0.55, 0.51),
    (0.16, 0.51), (0.00, 0.50), (0.00, 0.30), (0.00, 0.00),
]
_RHO2_NEG_ZX = [
    (0.00, 0.00), (-0.40, 0.00), (-0.60, 0.00), (-0.60, -0.16), (-0.60, -0.44),
    (-0.37, -0.42), (0.00, -0.43), (0.00, -0.27), (0.00, 0.00),
]
_RHO2_POS_ZX = [
    (0.00, 0.00), (0.16, 0.00), (0.55, 0.00), (0.55, 0.29), (0.55, 0.51),
    (0.16, 0.50), (0.00, 0.50), (0.00, 0.33), (0.00, 0.00),
]
# closed quadrilateral around the negative-zeta arc crossing in the eta = 0
# plane; anchored away from the zeta = -0.2 edge and off the xi = 0 line so
# the anchor band order is stable under small eta shifts (the net permutation
# is reported relative to the anchor's Re-sorted bands)
_MU2_ZX = [
    (-0.81, -0.44), (-0.61, -0.45), (-0.22, -0.46), (-0.20, 0.00), (-0.21, 0.44),
    (-0.57, 0.40), (-0.79, 0.40), (-0.79, 0.00), (-0.81, -0.44),
]
_BIG_ZX = [
    (0.80, 0.60), (-0.90, 0.60), (-0.90, -0.60), (0.80, -0.60), (0.80, 0.60),
]


#: name: ((zeta, xi) waypoint table, default eta); rho1 runs mu3 first, then mu1
_PRESETS = {
    "mu1": (_MU1_ZX, ETA_GENERATORS),
    "mu2": (_MU2_ZX, 0.0),
    "mu3": (_MU3_ZX, ETA_GENERATORS),
    "rho1": (_MU3_ZX[:-1] + _MU1_ZX, ETA_GENERATORS),
    "rho2": (_RHO2_NEG_ZX[:-1] + _RHO2_POS_ZX, ETA_GENERATORS),
    "big": (_BIG_ZX, ETA_GENERATORS),
}

PRESET_NAMES = tuple(_PRESETS)


def preset_waypoints(name: str, eta: float | None = None) -> list[ParamPoint]:
    """Waypoint list for a named preset loop at g = G_CANONICAL; ``eta``
    moves it off its default plane.

    mu1  -- negative-quadrant rectangle at eta = 0.33 (swaps bands 2, 3)
    mu3  -- positive-quadrant rectangle at eta = 0.33 (swaps bands 1, 2)
    rho1 -- mu3 then mu1 around the 17-point composite path
    rho2 -- mu1-shape then mu3-shape, opposite order composite
    mu2  -- quadrilateral around the negative-zeta crossing at eta = 0
    big  -- one rectangle enclosing both arc crossings at eta = 0.33
    """
    if name not in _PRESETS:
        raise KeyError(f"unknown preset {name!r}")
    zx, default_eta = _PRESETS[name]
    e = default_eta if eta is None else eta
    return [ParamPoint(e, z, x, G_CANONICAL) for z, x in zx]


def preset_loop(name: str, steps_per_segment: int = 200, eta: float | None = None) -> LoopPath:
    return interpolate_loop(preset_waypoints(name, eta=eta), steps_per_segment, label=name)
