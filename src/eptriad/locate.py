"""Locating order-2 exceptional points and tracing arcs of them.

The discriminant depends on (eta, zeta, xi, g) only through b = xi + i zeta
and u = g - i eta.  With c = 2u(2 + u) and s = (1 + u)^2 it is a quadratic
in b^2,

    disc = -8s b^4 + (c^2 + 36cs - 108s^2) b^2 - 4c^3,

so each (eta, g) slice holds exactly four EPs, b = +-sqrt(B+-), in closed
form.  An arc at fixed g is one of them continued over eta: for g != 0 the
four never meet at real eta, and at g = 0 two of them meet only at the
order-3 nexus eta = b = 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model, transport
from .errors import NoConvergence, NotAnEP
from .model import ParamPoint, discriminant_formula, discriminant_values

EP_MEMBERSHIP_TOL = 1e-10
ORDER3_TOL = 1e-6
DOMAIN_BOUND = 1.5
#: |disc| above which a seed is too far from any EP to refine
BASIN_BOUND = 1e3
#: the eta grid an arc is continued on: 1e-3 apart, reaching past the domain
_ETA_GRID = np.arange(-1600, 1601) / 1000.0
#: angles theta of the extra grid points eta = g tan(theta); near eta = 0 the
#: small root B turns like (g - i eta)^3, so these resolve the close pass of
#: two arcs at any g != 0
_PASS_ANGLES = np.linspace(-1.5, 1.5, 201)


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
    points: list[EPPoint]
    #: "boundary", or "rank_deficient" for an arc that ends at the g = 0 nexus
    terminated: str
    rank_deficient_at: EPPoint | None = None
    #: an arc is a graph over eta, so it never closes
    closed: bool = False

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


def _continued(r: np.ndarray) -> np.ndarray:
    """``r`` with signs flipped so that each entry lies within 90 degrees of the one before."""
    flips = np.cumsum((r[1:] * r[:-1].conj()).real < 0) % 2
    return r * np.concatenate([[1.0], 1.0 - 2.0 * flips])


def _slice_eps(eta, g: float, continued: bool = False) -> np.ndarray:
    """b = xi + i zeta at the four EPs of each (eta, g) slice, shape eta.shape + (4,).

    The columns are +-sqrt(B+) and +-sqrt(B-), the smaller B taken from the
    product of the two so that it keeps its relative accuracy.  With
    ``continued``, ``eta`` is a fine 1-D grid and every square root is
    signed for continuity along it, so each column is one branch b(eta).
    Entries are not finite where the quartic degenerates (g = -1, eta = 0).
    """
    fix = _continued if continued else (lambda r: r)
    u = g - 1j * np.asarray(eta, dtype=float)
    c, s = 2 * u * (2 + u), (1 + u) ** 2
    a, beta, gamma = -8 * s, c * c + 36 * c * s - 108 * s * s, -4 * c**3
    with np.errstate(divide="ignore", invalid="ignore"):
        root = fix(np.sqrt(beta * beta - 4 * a * gamma))
        bp, bm = (root - beta) / (2 * a), (-root - beta) / (2 * a)
        big = abs(bp) >= abs(bm)
        bp, bm = np.where(big, bp, gamma / (a * bm)), np.where(big, gamma / (a * bp), bm)
        rp, rm = fix(np.sqrt(bp)), fix(np.sqrt(bm))
    return np.stack([rp, -rp, rm, -rm], axis=-1)


def _ep_points(points: list[ParamPoint]) -> list[EPPoint]:
    """The EPPoints at ``points``, in closed form.

    Raises NotAnEP when |disc| at a point exceeds the membership tolerance.
    Where the discriminant of p(w) = w^3 + a2 w^2 + a1 w + a0 vanishes, its
    repeated root is (9 a0 - a1 a2) / (2 (a2^2 - 3 a1)), or -a2 / 3 where
    a2^2 = 3 a1 and the root is triple.  The order is 3 when p' and p''
    both vanish at the repeated root, else 2.
    """
    params = np.array([[p.eta, p.zeta, p.xi, p.g] for p in points]).reshape(-1, 4).T
    residuals = abs(discriminant_values(*params))
    bad = np.flatnonzero(residuals > EP_MEMBERSHIP_TOL)
    if len(bad):
        raise NotAnEP(f"|disc| = {residuals[bad[0]]:.3e} at {points[bad[0]]}")
    a2, a1, a0 = model._poly_coeffs(*params)
    den = 2 * (a2 * a2 - 3 * a1)
    # (0 - a2) / 3 rather than -a2 / 3, so the nexus root is +0, not -0
    w = np.divide(9 * a0 - a1 * a2, den, out=(0 - a2) / 3, where=den != 0)
    flat = (abs((3 * w + 2 * a2) * w + a1) < ORDER3_TOL) & (abs(6 * w + 2 * a2) < ORDER3_TOL)
    return [
        EPPoint(point=p, repeated_eigenvalue=wk, order=3 if f else 2, residual=r)
        for p, wk, f, r in zip(points, w.tolist(), flat.tolist(), residuals.tolist())
    ]


def refine_ep(seed: ParamPoint) -> EPPoint:
    """The EP of the seed's (eta, g) slice nearest the seed, in closed form."""
    try:
        val = abs(discriminant_formula(seed))
    except OverflowError:
        val = math.inf
    if not val <= BASIN_BOUND:
        raise NoConvergence(f"seed outside basin, |disc| = {val:.3e}")
    b = min(_slice_eps(seed.eta, seed.g).tolist(), key=lambda r: abs(r - complex(seed.xi, seed.zeta)))
    return _ep_points([ParamPoint(seed.eta, b.imag, b.real, seed.g)])[0]


def _branches(g: float) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(eta, b, inside) on each eta grid that the branches at ``g`` are continued on.

    The columns of ``b`` are the four branches b(eta), and ``inside`` marks
    their points in the domain |coord| <= 1.5.  For g != 0 there is one
    increasing grid.  At g = 0 there are two, each running out of the nexus
    eta = 0: first the half eta >= 0, then the half eta <= 0.
    """
    eta = np.union1d(_ETA_GRID, g * np.tan(_PASS_ANGLES))
    eta = eta[abs(eta) <= _ETA_GRID[-1]]
    out = []
    for grid in [eta] if g != 0 else [eta[eta >= 0], eta[eta <= 0][::-1]]:
        b = _slice_eps(grid, g, continued=True)
        inside = np.maximum(abs(grid)[:, None], np.maximum(abs(b.real), abs(b.imag))) <= DOMAIN_BOUND
        out.append((grid, b, inside))
    return out


def arc_starts(g: float) -> list[EPPoint]:
    """One EP on each in-domain run of each branch at ``g``, to trace an arc from.

    A start is its branch at the middle grid point of its run, so
    :func:`trace_ea` picks out that branch again.  The order-3 nexus at
    g = 0 is a start of its own, listed first.  At g = 0 the mirror -b of
    each branch b is a branch too (the discriminant is a function of b^2),
    and only b = +sqrt(B+-) is kept.
    """
    points = [ParamPoint(0.0, 0.0, 0.0, 0.0)] if g == 0 else []
    for eta, b, inside in _branches(g):
        for j in range(4) if g != 0 else (0, 2):
            edges = np.flatnonzero(np.diff(np.concatenate([[0], inside[:, j], [0]])))
            for k in ((edges[::2] + edges[1::2] - 1) // 2).tolist():
                points.append(ParamPoint(float(eta[k]), float(b[k, j].imag), float(b[k, j].real), g))
    return _ep_points(points)


def trace_ea(g: float, start: EPPoint, step: float = 0.02) -> EAPolyline:
    """The arc of EPs at fixed g through ``start``: one branch b(eta) of the slice EPs.

    The branch is continued over a fine eta grid in one array call, and its
    in-domain run through the start is cut out.  The run ends at its first
    grid point past |coord| > 1.5 or, at g = 0, at the nexus eta = 0, where
    it meets another branch (``terminated`` is then "rank_deficient").
    Points are re-solved in closed form at multiples of ``step`` in arc
    length (along the grid's polyline) from one end of the run: its low-eta
    end, or its point at |eta| = step next to the nexus.  So an arc does not
    depend on the EP that found it.  At a boundary the arc ends at its first
    point past |coord| > 1.5.
    """
    if start.residual > EP_MEMBERSHIP_TOL:
        raise NotAnEP(f"start residual {start.residual:.3e}")
    p = start.point
    if g == 0 and p.eta == 0:
        # the order-3 nexus, where the branches meet
        return EAPolyline(g, [start], "rank_deficient", start)
    # at g = 0, the half-grid on the start's side of the nexus
    eta, branches, inside = _branches(g)[int(g == 0 and p.eta < 0)]
    k = int(np.argmin(abs(eta - p.eta)))
    j = np.argmin(abs(branches[k] - complex(p.xi, p.zeta)))
    b, inside = branches[:, j], inside[:, j]
    if not inside[k]:
        return EAPolyline(g, [start], "boundary")
    out = np.flatnonzero(~inside)
    lo, hi = out[out < k].max(initial=0), out[out > k].min()
    # a run that reaches the start of the grid inside the domain ends at the nexus
    nexus = bool(inside[lo])
    run, b = np.stack([eta, b.imag, b.real], axis=1)[lo:hi + 1], b[lo:hi + 1]
    length = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(run, axis=0), axis=1))])
    # from the nexus, sampling starts one step out along eta, the coordinate the arc is a graph over
    origin = np.interp(step, abs(run[:, 0]), length) if nexus else 0.0
    at = np.append(np.arange(origin, length[-1], step), length[-1])
    eta_at, near = np.interp(at, length, run[:, 0]), np.interp(at, length, b)
    roots = _slice_eps(eta_at, g)
    b_at = roots[np.arange(len(at)), np.argmin(abs(roots - near[:, None]), axis=1)]
    xyz = np.stack([eta_at, b_at.imag, b_at.real], axis=1)
    # the arc runs from its last point past the boundary before the first one
    # inside to the first one past after it (the run's last point is past)
    past = abs(xyz).max(axis=1) > DOMAIN_BOUND
    first = int(np.argmin(past))
    xyz = xyz[max(first - 1, 0):first + int(np.argmax(past[first:])) + 1]
    points = _ep_points([ParamPoint(*q, g) for q in xyz.tolist()])
    if nexus:
        return EAPolyline(g, points, "rank_deficient", points[0])
    return EAPolyline(g, points, "boundary")


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
