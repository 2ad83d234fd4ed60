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

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import model, transport
from .errors import NoConvergence, NotAnEP, RegimeWarning
from .model import ParamPoint, discriminant_formula, discriminant_values

EP_MEMBERSHIP_TOL = 1e-10
ORDER3_TOL = 1e-6
DOMAIN_BOUND = 1.5
#: |disc| above which a seed is too far from any EP to refine
BASIN_BOUND = 1e3
#: the spacing of the eta grid an arc is continued on, and the smallest step
#: ``ea`` takes: a finer step adds only chords between the grid's points
ETA_GRID_STEP = 1e-3
#: the eta grid an arc is continued on: ETA_GRID_STEP apart, reaching past the domain
_ETA_GRID = np.arange(-1600, 1601) / 1000.0
#: angles theta of the extra grid points eta = g tan(theta); near eta = 0 the
#: small root B turns like (g - i eta)^3, so these resolve the close pass of
#: two arcs at any g != 0
_PASS_ANGLES = np.linspace(-1.5, 1.5, 201)
#: grid points per :func:`track_sheets` solve: whole rows, about 1.5 MB of
#: eigensolver temporaries (a whole 101 x 101 grid at once raised the atlas
#: benchmark's peak RSS by 9.2 %)
_BLOCK_POINTS = 1024
#: the closed-form assignment margin below which :func:`track_sheets` decides
#: a step from LAPACK frames
SURE_MARGIN = 1e-8


@dataclass(frozen=True)
class EPPoint:
    point: ParamPoint
    repeated_eigenvalue: complex
    order: int
    residual: float


@dataclass(frozen=True, eq=False)
class EAPolyline:
    """An arc of EPs at fixed g, held as arrays.

    Row k of ``params`` is point k as (eta, zeta, xi, g); ``omega``,
    ``order`` and ``residual`` are its repeated eigenvalue, order and |disc|.
    """

    g: float
    params: np.ndarray             # (n, 4)
    omega: np.ndarray              # (n,) complex
    order: np.ndarray              # (n,) int
    residual: np.ndarray           # (n,)
    #: "boundary", or "rank_deficient" for an arc that ends at the g = 0 nexus
    terminated: str

    @classmethod
    def at(cls, g: float, start: EPPoint, terminated: str) -> "EAPolyline":
        """The one-point arc of ``start``."""
        return cls(g, start.point.as_array()[None], np.array([start.repeated_eigenvalue]),
                   np.array([start.order]), np.array([start.residual]), terminated)

    @property
    def points(self) -> list[EPPoint]:
        return _ep_points(self.params, self.omega, self.order, self.residual)

    def coords(self) -> np.ndarray:
        """The (n, 3) rows (eta, zeta, xi)."""
        return self.params[:, :3]


def seed_eps_in_slice(
    eta: float,
    g: float,
    window: tuple[tuple[float, float], tuple[float, float]] = ((-1.0, 1.0), (-1.0, 1.0)),
    resolution: int = 64,
) -> list[ParamPoint]:
    """Scan a (zeta, xi) window for cells where Re(disc) and Im(disc) both flip sign.

    Adjacent candidate cells are clustered, and each cluster's centre is
    returned as a seed point; an empty list is a valid outcome for slices
    the arcs do not visit.
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
    clusters: list[ParamPoint] = []
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
        clusters.append(ParamPoint(eta, zc, xc, g))
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
    Entries are not finite where the quartic degenerates (g = -1, eta = 0)
    or where its coefficients overflow or underflow (|g| near 1e300 or
    1e-300); the domain mask drops them.
    """
    fix = _continued if continued else (lambda r: r)
    with np.errstate(all="ignore"):
        u = g - 1j * np.asarray(eta, dtype=float)
        c, s = 2 * u * (2 + u), (1 + u) ** 2
        a, beta, gamma = -8 * s, c * c + 36 * c * s - 108 * s * s, -4 * c**3
        root = fix(np.sqrt(beta * beta - 4 * a * gamma))
        bp, bm = (root - beta) / (2 * a), (-root - beta) / (2 * a)
        big = abs(bp) >= abs(bm)
        bp, bm = np.where(big, bp, gamma / (a * bm)), np.where(big, gamma / (a * bp), bm)
        rp, rm = fix(np.sqrt(bp)), fix(np.sqrt(bm))
    return np.stack([rp, -rp, rm, -rm], axis=-1)


def _ep_arrays(params: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Repeated eigenvalue, order and |disc| at each row (eta, zeta, xi, g)
    of an (n, 4) array of EPs, in closed form.

    Raises ValueError at a row that is not finite and NotAnEP where |disc|
    is not within the membership tolerance.  A row outside the validated
    regime |p| <= 1 gets one RegimeWarning per call, naming the caller's line.
    Where the discriminant of p(w) = w^3 + a2 w^2 + a1 w + a0 vanishes, its
    repeated root is (9 a0 - a1 a2) / (2 (a2^2 - 3 a1)), or -a2 / 3 where
    that quotient is not finite: where a2^2 = 3 a1 and the root is triple,
    or within rounding of a triple root, where it overflows.  The order
    is 3 when p' and p'' both vanish at the repeated root, else 2.
    """
    finite = np.isfinite(params).all(axis=1)
    if not finite.all():
        raise ValueError(f"non-finite parameters {tuple(params[np.argmin(finite)].tolist())}")
    if (abs(params) > 1.0).any():
        warnings.warn(model.OUTSIDE_REGIME, RegimeWarning, stacklevel=2)
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = abs(discriminant_values(*params.T))
    bad = np.flatnonzero(~(residuals <= EP_MEMBERSHIP_TOL))
    if len(bad):
        raise NotAnEP(f"|disc| = {residuals[bad[0]]:.3e} at {ParamPoint.from_row(params[bad[0]])}")
    a2, a1, a0 = model._poly_coeffs(*params.T)
    with np.errstate(all="ignore"):
        w = (9 * a0 - a1 * a2) / (2 * (a2 * a2 - 3 * a1))
    # (0 - a2) / 3 rather than -a2 / 3, so the nexus root is +0, not -0
    w = np.where(np.isfinite(w), w, (0 - a2) / 3)
    flat = (abs((3 * w + 2 * a2) * w + a1) < ORDER3_TOL) & (abs(6 * w + 2 * a2) < ORDER3_TOL)
    return w, np.where(flat, 3, 2), residuals


def _ep_points(params, omega, order, residual) -> list[EPPoint]:
    """One EPPoint per row of the arrays of :func:`_ep_arrays`."""
    return [
        EPPoint(ParamPoint(*p), w, k, r)
        for p, w, k, r in zip(params.tolist(), omega.tolist(), order.tolist(), residual.tolist())
    ]


def refine_ep(seed: ParamPoint) -> EPPoint:
    """The EP of the seed's (eta, g) slice nearest the seed, in closed form."""
    try:
        val = abs(discriminant_formula(seed))
    except OverflowError:       # abs() of a finite disc too large for a float
        val = math.inf
    if not val <= BASIN_BOUND:
        raise NoConvergence(f"seed outside basin, |disc| = {val:.3e}")
    b = min(_slice_eps(seed.eta, seed.g).tolist(), key=lambda r: abs(r - complex(seed.xi, seed.zeta)))
    row = np.array([[seed.eta, b.imag, b.real, seed.g]])
    return _ep_points(row, *_ep_arrays(row))[0]


def _branches(g: float) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """(eta, b, inside) on each eta grid that the branches at ``g`` are continued on.

    The columns of ``b`` are the four branches b(eta), and ``inside`` marks
    their points in the domain |coord| <= 1.5.  For g != 0 there is one
    increasing grid.  At g = 0 there are two, each running out of the nexus
    eta = 0: first the half eta >= 0, then the half eta <= 0.  The arrays are
    read-only: the branches of the last g are kept, so that the starts and
    every arc of one ``ea`` command continue them once.
    """
    return _branches_at(float(g).hex())     # the key tells -0.0 from 0.0


@functools.lru_cache(maxsize=1)
def _branches_at(key: str) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    g = float.fromhex(key)
    eta = np.union1d(_ETA_GRID, g * np.tan(_PASS_ANGLES))
    eta = eta[abs(eta) <= _ETA_GRID[-1]]
    out = []
    for grid in [eta] if g != 0 else [eta[eta >= 0], eta[eta <= 0][::-1]]:
        b = _slice_eps(grid, g, continued=True)
        inside = np.maximum(abs(grid)[:, None], np.maximum(abs(b.real), abs(b.imag))) <= DOMAIN_BOUND
        for a in (grid, b, inside):
            a.flags.writeable = False
        out.append((grid, b, inside))
    return tuple(out)


def arc_starts(g: float) -> list[EPPoint]:
    """One EP on each in-domain run of each branch at ``g``, to trace an arc from.

    A start is its branch at the middle grid point of its run, so
    :func:`trace_ea` picks out that branch again.  The order-3 nexus at
    g = 0 is a start of its own, listed first.  At g = 0 the mirror -b of
    each branch b is a branch too (the discriminant is a function of b^2),
    and only b = +sqrt(B+-) is kept.
    """
    rows = [[0.0, 0.0, 0.0, 0.0]] if g == 0 else []
    for eta, b, inside in _branches(g):
        for j in range(4) if g != 0 else (0, 2):
            edges = np.flatnonzero(np.diff(np.concatenate([[0], inside[:, j], [0]])))
            for k in ((edges[::2] + edges[1::2] - 1) // 2).tolist():
                rows.append([eta[k], b[k, j].imag, b[k, j].real, g])
    params = np.array(rows, dtype=float).reshape(-1, 4)
    return _ep_points(params, *_ep_arrays(params))


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
        return EAPolyline.at(g, start, "rank_deficient")
    # at g = 0, the half-grid on the start's side of the nexus
    eta, branches, inside = _branches(g)[int(g == 0 and p.eta < 0)]
    k = int(np.argmin(abs(eta - p.eta)))
    j = np.argmin(abs(branches[k] - complex(p.xi, p.zeta)))
    b, inside = branches[:, j], inside[:, j]
    if not inside[k]:
        return EAPolyline.at(g, start, "boundary")
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
    params = np.stack([eta_at, b_at.imag, b_at.real, np.full(len(at), float(g))], axis=1)
    # the arc runs from its last point past the boundary before the first one
    # inside to the first one past after it (the run's last point is past)
    past = abs(params[:, :3]).max(axis=1) > DOMAIN_BOUND
    first = int(np.argmin(past))
    params = params[max(first - 1, 0):first + int(np.argmax(past[first:])) + 1]
    return EAPolyline(g, params, *_ep_arrays(params), "rank_deficient" if nexus else "boundary")


def track_sheets(eta: float, g: float, zz: np.ndarray, xx: np.ndarray) -> np.ndarray:
    """Eigenvalues on a (zeta, xi) grid, continued sheet by sheet.

    Each point takes the band order that :func:`transport.best_assignments`
    finds against its left neighbour; the first point of a row matches the
    first point of the row above.  Whole rows are solved together, about
    ``_BLOCK_POINTS`` points per :func:`model.eigensystems` call (at least
    one row), and the first points of all rows in one more; each point's
    eigenvalues are the ones a lone ``eig`` gives, and each assignment the
    one LAPACK's frames give (see :func:`_assignments`).
    Returns a (len(zz), len(xx), 3) array.
    """
    nz, nx = len(zz), len(xx)
    w = np.empty((nz, nx, 3), dtype=complex)
    if not w.size:
        return w
    along = np.empty((nz, nx - 1), dtype=np.intp)
    rows_per_block = max(1, _BLOCK_POINTS // nx)
    for a in range(0, nz, rows_per_block):
        block = slice(a, a + rows_per_block)
        params = np.stack(np.broadcast_arrays(eta, zz[block, None], xx, g), axis=-1)    # (rows, nx, 4)
        frames = model.eigensystems(params.reshape(-1, 4))
        at = np.arange(len(frames)).reshape(-1, nx)
        along[block] = _assignments(frames, at[:, :-1], at[:, 1:])
        w[block] = frames.eigenvalues.reshape(-1, nx, 3)
    first = np.arange(nz)
    frames = model.eigensystems(np.stack(np.broadcast_arrays(eta, zz, xx[0], g), axis=-1))
    column = transport.chain_assignments(_assignments(frames, first[:-1], first[1:]))
    rows = transport.chain_assignments(along.T).swapaxes(0, 1)        # (nz, nx, 3), from column 0
    return np.take_along_axis(w, np.take_along_axis(rows, column[:, None, :], axis=2), axis=2)


def _assignments(frames: model.EigensystemStack, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Best assignments of the steps from row ``start`` to row ``end`` of the
    :func:`model.eigensystems` ``frames``, as LAPACK's frames give them.

    The closed-form scores drift from LAPACK's by at most 2.0e-13 on the
    5.6 M steps of 549 slices at 101 x 101 whose ends have smallest gaps of
    0.1 or more, and by at most 5.6e-13 on 17 740 steps near EPs with gaps
    in [0.1, 0.2); the rows with smaller gaps hold LAPACK's frames already
    (``model.SURE_GAP``).  So a step decides from the scores of ``frames``
    when its margin is at least ``SURE_MARGIN``; the other steps decide
    from one every-row-exact ``eigensystems`` call on their ends.
    """
    best, margin = transport.best_assignments(frames.left_vectors[start] @ frames.right_vectors[end])
    unsure = ~(margin >= SURE_MARGIN)           # a NaN margin is unsure too
    if unsure.any():
        n = np.count_nonzero(unsure)
        exact = model.eigensystems(frames.params[np.concatenate([start[unsure], end[unsure]])], exact=slice(None))
        best[unsure], _ = transport.best_assignments(exact.left_vectors[:n] @ exact.right_vectors[n:])
    return best


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
