"""Locating order-2 exceptional points and tracing arcs of them.

EPs in a 2D parameter slice are the common zeros of Re(disc) and Im(disc);
the arcs are the one-dimensional solution set of the same pair of equations
in (eta, zeta, xi) at fixed g, followed by predictor-corrector continuation.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import model, transport  # track_sheets looks names up here at call time, so rebinds reach it
from .errors import NoConvergence, NotAnEP
from .model import (
    ParamPoint,
    char_poly,
    discriminant_formula,
    discriminant_gradient,
    discriminant_values,
)

EP_RESIDUAL_TOL = 1e-12
EP_MEMBERSHIP_TOL = 1e-10
ORDER3_TOL = 1e-6
DOMAIN_BOUND = 1.5
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
    cells: tuple[tuple[int, int], ...]


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
        clusters.append(SeedCandidate(center=ParamPoint(eta, zc, xc, g), cells=tuple(cells)))
    return clusters


_FREE_INDEX = {"eta": 0, "zeta": 1, "xi": 2, "g": 3}


def _newton_2d(
    p: ParamPoint,
    free: tuple[str, str],
    tol: float,
    max_iter: int,
) -> ParamPoint:
    """Damped Newton on (Re disc, Im disc) over two free coordinates."""
    for _ in range(max_iter):
        val = discriminant_formula(p)
        if abs(val) < tol:
            return p
        grads = discriminant_gradient(p)
        jac = np.array(
            [[grads[f].real for f in free], [grads[f].imag for f in free]]
        )
        rhs = -np.array([val.real, val.imag])
        try:
            step = np.linalg.solve(jac, rhs)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"singular Newton system at {p}") from exc
        lam, improved = 1.0, False
        for _ in range(20):
            trial = p.replace(**{f: getattr(p, f) + lam * step[i] for i, f in enumerate(free)})
            if abs(discriminant_formula(trial)) < abs(val):
                p, improved = trial, True
                break
            lam *= 0.5
        if not improved:
            raise NoConvergence(f"no descent at {p}, |disc| = {abs(val):.3e}")
    val = discriminant_formula(p)
    if abs(val) < tol:
        return p
    raise NoConvergence(f"|disc| = {abs(val):.3e} after {max_iter} iterations")


def repeated_root(p: ParamPoint) -> complex:
    """The repeated eigenvalue at a (near-)EP: the root of p' minimizing |p|."""
    co = char_poly(p)
    crit = np.roots([3 * co.a3, 2 * co.a2, co.a1])
    return complex(min(crit, key=lambda w: abs(co(w))))


def ep_order(p: ParamPoint) -> int:
    """Classify an EP as order 2 or 3 from derivatives at the repeated root."""
    if abs(discriminant_formula(p)) > EP_MEMBERSHIP_TOL:
        raise NotAnEP(f"|disc| = {abs(discriminant_formula(p)):.3e} at {p}")
    co = char_poly(p)
    w = repeated_root(p)
    if abs(co.derivative(w)) < ORDER3_TOL and abs(co.second_derivative(w)) < ORDER3_TOL:
        return 3
    return 2


def refine_ep(
    seed: ParamPoint,
    free: tuple[str, str] = ("zeta", "xi"),
    max_iter: int = 50,
    basin_bound: float = 1e3,
) -> EPPoint:
    """Polish a seed to an EPPoint (|disc| < 1e-12) over the two free coordinates."""
    if abs(discriminant_formula(seed)) > basin_bound:
        raise NoConvergence(f"seed outside basin, |disc| = {abs(discriminant_formula(seed)):.3e}")
    p = _newton_2d(seed, free, EP_RESIDUAL_TOL, max_iter)
    w = repeated_root(p)
    return EPPoint(point=p, repeated_eigenvalue=w, order=ep_order(p), residual=abs(discriminant_formula(p)))


def _jac_2x3(p: ParamPoint) -> np.ndarray:
    grads = discriminant_gradient(p)
    cols = [grads["eta"], grads["zeta"], grads["xi"]]
    return np.array([[c.real for c in cols], [c.imag for c in cols]])


def _disc_at(x: np.ndarray, g: float) -> complex:
    return discriminant_formula(ParamPoint(x[0], x[1], x[2], g))


def _corrector_3d(x: np.ndarray, g: float, tangent: np.ndarray, tol=EP_RESIDUAL_TOL, max_iter=25):
    """Damped Newton correction in the plane orthogonal to the tangent."""
    val = _disc_at(x, g)
    for _ in range(max_iter):
        if abs(val) < tol:
            return x, True
        p = ParamPoint(x[0], x[1], x[2], g)
        mat = np.vstack([_jac_2x3(p), tangent])
        try:
            step = np.linalg.solve(mat, np.array([-val.real, -val.imag, 0.0]))
        except np.linalg.LinAlgError:
            return x, False
        lam, improved = 1.0, False
        for _ in range(20):
            trial = x + lam * step
            tv = _disc_at(trial, g)
            if abs(tv) < abs(val):
                x, val, improved = trial, tv, True
                break
            lam *= 0.5
        if not improved:
            return x, False
    return x, abs(val) < tol


def _make_ep(x: np.ndarray, g: float) -> EPPoint:
    p = ParamPoint(float(x[0]), float(x[1]), float(x[2]), g)
    return EPPoint(
        point=p,
        repeated_eigenvalue=repeated_root(p),
        order=ep_order(p),
        residual=abs(discriminant_formula(p)),
    )


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

    def _tangent(x: np.ndarray) -> tuple[np.ndarray, float]:
        p = ParamPoint(x[0], x[1], x[2], g)
        _, sv, vt = np.linalg.svd(_jac_2x3(p))
        return vt[-1], sv[1]

    t0, sv2_start = _tangent(x0)
    # both Jacobian rows vanish together approaching the order-3 point, so a
    # collapse of the second singular value relative to its start marks it
    rank_floor = max(RANK_RATIO_TOL * sv2_start, 1e-10)
    if sv2_start < 1e-10:
        arc.points = [start]
        arc.terminated = "rank_deficient"
        arc.rank_deficient_at = start
        return arc

    sides: list[list[EPPoint]] = []
    terminations: list[str] = []
    for direction in (-1.0, 1.0):
        x, t = x0.copy(), t0 * direction
        sv2 = sv2_start
        side: list[EPPoint] = []
        term = "max_points"
        for _ in range(max_points):
            # shrink the step as the Jacobian degenerates so the approach to a
            # meeting point is resolved instead of hopped over
            eff = step * min(1.0, sv2 / (20.0 * rank_floor))
            xp = x + eff * t
            xn, ok = _corrector_3d(xp, g, t)
            if not ok:
                term = "rank_deficient" if sv2 < 100 * rank_floor else "no_convergence"
                break
            tn, sv2 = _tangent(xn)
            side.append(_make_ep(xn, g))
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
    arc.points = list(reversed(backward)) + [start] + forward
    arc.closed = "closure" in terminations
    if "rank_deficient" in terminations:
        arc.terminated = "rank_deficient"
    elif arc.closed:
        arc.terminated = "closure"
    elif "boundary" in terminations:
        arc.terminated = "boundary"
    elif "no_convergence" in terminations:
        arc.terminated = "no_convergence"
    if "rank_deficient" in terminations:
        pool = backward if terminations[0] == "rank_deficient" else forward
        arc.rank_deficient_at = pool[-1] if pool else start
    return arc


def verify_arc(arc: EAPolyline) -> float:
    """Max |disc| over the arc points (drift check after tracing)."""
    return max((q.residual for q in arc.points), default=0.0)


def track_sheets(eta: float, g: float, zz: np.ndarray, xx: np.ndarray) -> np.ndarray:
    """Eigenvalues on a (zeta, xi) grid, continued sheet by sheet.

    Each point takes the band order that :func:`transport.match_assignment`
    finds against its left neighbour; the first point of a row matches the
    first point of the row above.  Returns a (len(zz), len(xx), 3) array.
    """
    tracked = np.empty((len(zz), len(xx), 3), dtype=complex)
    row_start = None
    for a, z in enumerate(zz):
        prev = row_start
        for b, x in enumerate(xx):
            es = model.eigensystem(ParamPoint(eta, z, x, g))
            if prev is not None:
                order, _, _ = transport.match_assignment(prev, es)
                es = transport._reorder(es, order)
            if b == 0:
                row_start = es
            prev = es
            tracked[a, b] = es.eigenvalues
    return tracked


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
