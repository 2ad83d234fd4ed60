"""Locating order-2 exceptional points and tracing arcs of them.

EPs in a 2D parameter slice are the common zeros of Re(disc) and Im(disc);
the arcs are the one-dimensional solution set of the same pair of equations
in (eta, zeta, xi) at fixed g, followed by predictor-corrector continuation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import model, transport
from .errors import NoConvergence, NotAnEP
from .model import (
    ParamPoint,
    char_poly,
    discriminant_formula,
    discriminant_gradient_values,
    discriminant_values,
)

EP_RESIDUAL_TOL = 1e-12
EP_MEMBERSHIP_TOL = 1e-10
ORDER3_TOL = 1e-6
DOMAIN_BOUND = 1.5
#: |disc| above which a seed is too far from any EP to refine
BASIN_BOUND = 1e3
#: the zeta and xi unit rows: refinement steps stay in the seed's slice
_SLICE_PLANE = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
#: relative collapse of the Jacobian's second singular value that flags the
#: approach to a rank-deficient (order-3) meeting point during tracing
RANK_RATIO_TOL = 1e-2


@dataclass(frozen=True)
class EPPoint:
    point: ParamPoint
    repeated_eigenvalue: complex
    order: int
    residual: float


@dataclass(frozen=True)
class SeedCandidate:
    """A cluster of grid cells where both discriminant contours plausibly cross."""

    center: ParamPoint


@dataclass
class EAPolyline:
    g: float
    points: list[EPPoint] = field(default_factory=list)
    closed: bool = False
    terminated: str = "max_points"
    rank_deficient_at: EPPoint | None = None

    def coords(self) -> np.ndarray:
        return np.array([[q.point.eta, q.point.zeta, q.point.xi] for q in self.points])


def seed_eps_in_slice(
    eta: float,
    g: float,
    window: tuple[tuple[float, float], tuple[float, float]] = ((-1.0, 1.0), (-1.0, 1.0)),
    resolution: int = 64,
) -> list[SeedCandidate]:
    """Scan a (zeta, xi) window for cells where Re(disc) and Im(disc) both flip sign.

    Adjacent candidate cells are clustered; an empty list is a valid outcome
    for slices the arcs do not visit.
    """
    if resolution < 32:
        raise ValueError("grid resolution must be at least 32")
    (zlo, zhi), (xlo, xhi) = window
    zz = np.linspace(zlo, zhi, resolution)
    xx = np.linspace(xlo, xhi, resolution)
    vals = discriminant_values(eta, zz[:, None], xx[None, :], g)

    def _cell_flips(f: np.ndarray) -> np.ndarray:
        corners = np.stack([f[:-1, :-1], f[1:, :-1], f[:-1, 1:], f[1:, 1:]])
        return (corners.min(axis=0) <= 0) & (corners.max(axis=0) >= 0)

    mask = _cell_flips(vals.real) & _cell_flips(vals.imag)
    # flood-fill clustering of 4-connected candidate cells
    seen = np.zeros_like(mask, dtype=bool)
    clusters: list[SeedCandidate] = []
    for i0, j0 in zip(*np.nonzero(mask)):
        if seen[i0, j0]:
            continue
        stack, cells = [(i0, j0)], []
        seen[i0, j0] = True
        while stack:
            i, j = stack.pop()
            cells.append((int(i), int(j)))
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                a, b2 = i + di, j + dj
                if 0 <= a < mask.shape[0] and 0 <= b2 < mask.shape[1] and mask[a, b2] and not seen[a, b2]:
                    seen[a, b2] = True
                    stack.append((a, b2))
        zc = float(np.mean([0.5 * (zz[i] + zz[i + 1]) for i, _ in cells]))
        xc = float(np.mean([0.5 * (xx[j] + xx[j + 1]) for _, j in cells]))
        clusters.append(SeedCandidate(center=ParamPoint(eta, zc, xc, g)))
    return clusters


def _jac_2x3(x: np.ndarray, g: float) -> np.ndarray:
    """Re and Im rows of d(disc)/d(eta, zeta, xi) at x, evaluated on Python floats."""
    d_eta, d_zeta, d_xi, _ = discriminant_gradient_values(*x.tolist(), g)
    return np.array([[d_eta.real, d_zeta.real, d_xi.real], [d_eta.imag, d_zeta.imag, d_xi.imag]])


def _disc_at(x: np.ndarray, g: float) -> complex:
    """The discriminant at (eta, zeta, xi) = x, evaluated on Python floats.

    Infinite where x is not finite or the value overflows, so that a Newton
    trial there counts as no decrease of |disc|.
    """
    eta, zeta, xi = x.tolist()
    if not (math.isfinite(eta) and math.isfinite(zeta) and math.isfinite(xi) and math.isfinite(g)):
        return complex(math.inf)
    try:
        return discriminant_values(eta, zeta, xi, g)
    except OverflowError:
        return complex(math.inf)


def _newton(x: np.ndarray, g: float, basis: np.ndarray, max_iter: int = 25):
    """Damped Newton on (Re disc, Im disc) = 0 over (eta, zeta, xi) at fixed g.

    Steps stay in the plane spanned by the two rows of ``basis``: each solves
    (J @ basis.T) y = -r and moves x by basis.T @ y, halved up to 20 times
    until |disc| decreases (a trial where it overflows never does).
    Returns (x, converged).
    """
    val = _disc_at(x, g)
    for _ in range(max_iter):
        if abs(val) < EP_RESIDUAL_TOL:
            return x, True
        try:
            step = basis.T @ np.linalg.solve(_jac_2x3(x, g) @ basis.T, [-val.real, -val.imag])
        except np.linalg.LinAlgError:
            return x, False
        lam = 1.0
        for _ in range(20):
            trial = x + lam * step
            tv = _disc_at(trial, g)
            if abs(tv) < abs(val):
                x, val = trial, tv
                break
            lam *= 0.5
        else:
            return x, False
    return x, abs(val) < EP_RESIDUAL_TOL


def _ep_points(points: list[ParamPoint]) -> list[EPPoint]:
    """The EPPoints at ``points``, with one stacked root solve for all of them.

    Raises NotAnEP when |disc| at a point exceeds the membership tolerance.
    The repeated eigenvalue is the root of p' minimizing |p|; the roots of
    every p' come from one ``np.linalg.eigvals`` over the companion matrices
    that ``np.roots`` builds (``np.roots`` itself where p' has a zero root).
    The order is 3 when p' and p'' both vanish at the repeated root, else 2.
    """
    residuals = [abs(discriminant_formula(p)) for p in points]
    for p, residual in zip(points, residuals):
        if residual > EP_MEMBERSHIP_TOL:
            raise NotAnEP(f"|disc| = {residual:.3e} at {p}")
    polys = [char_poly(p) for p in points]
    dp = np.array([[3 * co.a3, 2 * co.a2, co.a1] for co in polys], dtype=complex).reshape(-1, 3)
    companion = np.zeros((len(dp), 2, 2), dtype=complex)
    companion[:, 1, 0] = 1
    companion[:, 0, :] = -dp[:, 1:] / dp[:, :1]
    crit = np.linalg.eigvals(companion).tolist()
    out = []
    for co, row, coeffs, p, residual in zip(polys, crit, dp, points, residuals):
        if coeffs[2] == 0:
            row = np.roots(coeffs).tolist()
        w = min(row, key=lambda w: abs(co(w)))
        flat = abs(co.derivative(w)) < ORDER3_TOL and abs(co.second_derivative(w)) < ORDER3_TOL
        out.append(EPPoint(point=p, repeated_eigenvalue=w, order=3 if flat else 2, residual=residual))
    return out


def refine_ep(seed: ParamPoint, max_iter: int = 50) -> EPPoint:
    """Polish a seed to an EPPoint (|disc| < 1e-12) within its (zeta, xi) slice."""
    x = seed.as_array()[:3]
    val = abs(_disc_at(x, seed.g))
    if not val <= BASIN_BOUND:
        raise NoConvergence(f"seed outside basin, |disc| = {val:.3e}")
    x, ok = _newton(x, seed.g, _SLICE_PLANE, max_iter)
    if not ok:
        raise NoConvergence(f"no EP reached from {seed}: |disc| = {abs(_disc_at(x, seed.g)):.3e}")
    return _ep_points([ParamPoint(*x.tolist(), seed.g)])[0]


def trace_ea(
    g: float,
    start: EPPoint,
    step: float = 0.02,
    max_points: int = 2000,
) -> EAPolyline:
    """Continue the arc of discriminant zeros through (eta, zeta, xi) at fixed g.

    Tangents come from the null space of the 2x3 Jacobian; each predictor
    step is corrected back onto the arc in the orthogonal plane.  Tracing
    runs both directions from the start and stops at closure, the domain
    boundary (|coord| > 1.5), a rank-deficient Jacobian (arcs meeting, e.g.
    at the order-3 nexus), or the point budget.
    """
    if start.residual > EP_MEMBERSHIP_TOL:
        raise NotAnEP(f"start residual {start.residual:.3e}")
    x0 = np.array([start.point.eta, start.point.zeta, start.point.xi])
    arc = EAPolyline(g=g)

    def _frame(x: np.ndarray) -> tuple[np.ndarray, float]:
        """Right singular vectors (the plane normal to the arc, then the
        tangent) and the second singular value of the Jacobian."""
        _, sv, vt = np.linalg.svd(_jac_2x3(x, g))
        return vt, sv[1]

    frame0, sv2_start = _frame(x0)
    # both Jacobian rows vanish together approaching the order-3 point, so a
    # collapse of the second singular value relative to its start marks it
    rank_floor = max(RANK_RATIO_TOL * sv2_start, 1e-10)
    if sv2_start < 1e-10:
        arc.points = [start]
        arc.terminated = "rank_deficient"
        arc.rank_deficient_at = start
        return arc

    sides: list[list[ParamPoint]] = []
    terminations: list[str] = []
    for direction in (-1.0, 1.0):
        x, frame, t = x0.copy(), frame0, frame0[2] * direction
        sv2 = sv2_start
        side: list[ParamPoint] = []
        term = "max_points"
        for _ in range(max_points):
            # shrink the step as the Jacobian degenerates so the approach to a
            # meeting point is resolved instead of hopped over
            eff = step * min(1.0, sv2 / (20.0 * rank_floor))
            xp = x + eff * t
            xn, ok = _newton(xp, g, frame[:2])
            if not ok:
                term = "rank_deficient" if sv2 < 100 * rank_floor else "no_convergence"
                break
            frame, sv2 = _frame(xn)
            tn = frame[2]
            side.append(ParamPoint(*xn.tolist(), g))
            if sv2 < rank_floor:
                term = "rank_deficient"
                break
            if np.dot(tn, t) < 0:
                tn = -tn
            if np.max(np.abs(xn)) > DOMAIN_BOUND:
                term = "boundary"
                break
            if len(side) >= 10 and np.linalg.norm(xn - x0) < 2 * step:
                term = "closure"
                break
            x, t = xn, tn
        sides.append(side)
        terminations.append(term)

    backward, forward = sides
    traced = _ep_points(backward[::-1] + forward)
    arc.points = traced[:len(backward)] + [start] + traced[len(backward):]
    arc.closed = "closure" in terminations
    reasons = ("rank_deficient", "closure", "boundary", "no_convergence")
    arc.terminated = next((r for r in reasons if r in terminations), "max_points")
    if "rank_deficient" in terminations:
        # the last point traced on that side (the start when none was)
        arc.rank_deficient_at = arc.points[0] if terminations[0] == "rank_deficient" else arc.points[-1]
    return arc


def track_sheets(eta: float, g: float, zz: np.ndarray, xx: np.ndarray) -> np.ndarray:
    """Eigenvalues on a (zeta, xi) grid, continued sheet by sheet.

    Each point takes the band order that :func:`transport.best_assignments`
    finds against its left neighbour; the first point of a row matches the
    first point of the row above.  Each row is solved in one batch (a
    whole-grid batch would hold ~1.5 kB of temporaries per point).
    Returns a (len(zz), len(xx), 3) array.
    """
    w = np.empty((len(zz), len(xx), 3), dtype=complex)
    if not w.size:
        return w
    along = np.empty((len(zz), len(xx) - 1), dtype=np.intp)
    left, right = np.empty((2, len(zz), 3, 3), dtype=complex)    # frames at column 0
    for a, z in enumerate(zz):
        row = model.eigensystems([(eta, z, x, g) for x in xx])
        along[a], _ = transport.best_assignments(row.left_vectors[:-1] @ row.right_vectors[1:])
        w[a], left[a], right[a] = row.eigenvalues, row.left_vectors[0], row.right_vectors[0]
    down, _ = transport.best_assignments(left[:-1] @ right[1:])
    column = transport.chain_assignments(down)                       # (nz, 3)
    rows = transport.chain_assignments(along.T).swapaxes(0, 1)        # (nz, nx, 3), from column 0
    return np.take_along_axis(w, np.take_along_axis(rows, column[:, None, :], axis=2), axis=2)


def branch_cut_trace(
    eta: float,
    g: float,
    band_pair: tuple[int, int],
    window: tuple[tuple[float, float], tuple[float, float]] = ((-1.0, 1.0), (-1.0, 1.0)),
    resolution: int = 101,
) -> np.ndarray:
    """Locus of Re w_i = Re w_j for continuously tracked sheets on a slice.

    Bands are labeled by :func:`track_sheets`, so the locus follows the
    sheets across cuts.  Returns an (n, 2) array of (zeta, xi) crossing
    points for plotting; empty when the tracked sheets never cross in real
    part.
    """
    (zlo, zhi), (xlo, xhi) = window
    zz = np.linspace(zlo, zhi, resolution)
    xx = np.linspace(xlo, xhi, resolution)
    i, j = band_pair[0] - 1, band_pair[1] - 1
    tracked = track_sheets(eta, g, zz, xx)

    f = tracked[:, :, i].real - tracked[:, :, j].real
    a, b = np.nonzero(f[:, :-1] * f[:, 1:] < 0)          # sign flips along xi
    t = f[a, b] / (f[a, b] - f[a, b + 1])
    pts = list(zip(zz[a], xx[b] + t * (xx[b + 1] - xx[b])))
    a, b = np.nonzero(f[:-1, :] * f[1:, :] < 0)          # sign flips along zeta
    t = f[a, b] / (f[a, b] - f[a + 1, b])
    pts += list(zip(zz[a] + t * (zz[a + 1] - zz[a]), xx[b]))
    if not pts:
        return np.empty((0, 2))
    return np.array(sorted(pts))
