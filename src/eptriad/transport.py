"""Stroboscopic parallel transport of the three-band frame around loops.

The tracked frame starts from the anchor eigensystem ordered by ascending
real part.  At each step the 3x3 biorthogonal overlap matrix is formed, the
band assignment maximizing the total squared overlap is chosen, and the
arbitrary per-step excitation phase Im[ln <L_j | R_j'>] is compensated so
each band stays phase-continuous.  A loop's steps are refined at the roots
of its segments' discriminants before they are solved (:func:`transport`).

All steps are scored at once on the raw (Re-sorted, unrotated) frames: a
score and its margin do not change when the tracked frame's rows are
permuted or rotated in phase, so the tracked order follows by chaining the
raw best assignments.  The compensation is in closed form too: rotating a
tracked row by its phase rotates its matched overlap by the same phase, so
a band's phase after step l is the sum of its matched raw overlaps' angles
up to l.

Two holonomy-level quantities are reported:

* ``holonomy`` -- the matrix U with columns <L_i(anchor) | tracked_j(end)>.
  Its magnitudes form the 0/1 permutation pattern; its entry phases are the
  accumulated parallel-transport phases (anchor-gauge dependent per entry,
  det-invariant overall).
* ``berry_phase`` -- the multiband Berry phase: the permutation-parity part
  of det(U) is divided out, leaving the total geometric phase of the band
  cycles, which is 0 or -pi (mod 2pi) for these loops.  This matches the
  convention in which the printed permutation matrices carry unit entries.
"""
from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousMatch, NonUnimodularDeterminant
from .loops import LoopPath
# eigensystem and discriminant_formula stay importable here for the benchmark's tracer
from .model import (Eigensystem, EigensystemStack, ParamPoint, discriminant_formula, discriminant_roots,
                    eigensystem, eigensystems)
from .permutations import PermutationElement, to_matrix

_PERMS = tuple(itertools.permutations(range(3)))
_PERM_ROWS = np.array(_PERMS)
_BANDS = np.arange(3)
#: _COMPOSE[b, a] indexes the permutation j -> _PERMS[b][_PERMS[a][j]]
_COMPOSE = np.array([[_PERMS.index(tuple(pb[k] for k in pa)) for pa in _PERMS] for pb in _PERMS])

DEFAULT_OVERLAP_FLOOR = 0.5
DEFAULT_AMBIGUITY_MARGIN = 1e-3


@dataclass(frozen=True)
class ExchangeEvent:
    """A step at which the rank assignment of tracked bands changed."""

    step: int
    point: ParamPoint
    before: tuple[int, int, int]
    after: tuple[int, int, int]

    @property
    def swapped_ranks(self) -> tuple[int, ...]:
        return tuple(sorted({self.before[j] for j in range(3) if self.before[j] != self.after[j]}))


@dataclass
class TransportResult:
    label: str
    tracked_eigenvalues: np.ndarray       # (L, 3) complex, tracked band order
    step_overlaps: np.ndarray             # (L-1, 3) matched |O|
    events: list[ExchangeEvent]
    permutation: PermutationElement
    holonomy: np.ndarray                  # (3, 3) complex
    berry_phase: float
    min_overlap: float
    reliable: bool                        # min_overlap above the floor, parity agreeing with disc_winding
    min_gap: float                        # smallest eigenvalue gap along the loop
    disc_winding: float                   # winding number (1/2pi) of arg(disc) along the loop

    @property
    def n_exchanges(self) -> int:
        return len(self.events)


def best_assignments(overlaps: np.ndarray):
    """Best band assignment for each overlap matrix of a stack.

    ``overlaps[..., i, k]`` is the biorthogonal overlap of band i of one frame
    with band k of the next.  Returns (best, margin): ``_PERMS[best]`` maps
    each band to the band continuing it, maximizing the total squared
    overlap; margin is the gap to the runner-up assignment's total.
    """
    weights = np.abs(overlaps) ** 2
    scores = weights[..., _BANDS, _PERM_ROWS].sum(axis=-1)      # (..., 6)
    ranked = np.sort(scores, axis=-1)
    # of tied maxima take the last, as a stable ascending sort ranks them
    best = len(_PERMS) - 1 - np.argmax(scores[..., ::-1], axis=-1)
    return best, ranked[..., -1] - ranked[..., -2]


def chain_assignments(best) -> np.ndarray:
    """Tracked band orders along a path of best raw assignments.

    ``best[l]`` (from :func:`best_assignments`) relates the raw frames l and
    l + 1.  Returns ``m`` with ``m[l, ..., j]`` the raw band that tracked
    band j occupies at frame l: m[0] is the identity and m[l + 1][j] =
    _PERMS[best[l]][m[l][j]].  Trailing axes of ``best`` are independent paths.

    Most steps keep every band (index 0, the identity), and they leave the
    order unchanged, so orders are composed only at the steps where some
    path exchanges bands, and each run between them repeats the last order.
    """
    best = np.asarray(best, dtype=np.intp)
    exchanges = np.flatnonzero(best.any(axis=tuple(range(1, best.ndim))))
    orders = [np.zeros(best.shape[1:], dtype=np.intp)]      # the identity, then after each exchange
    for b in best[exchanges]:
        orders.append(_COMPOSE[b, orders[-1]])
    orders = np.array(orders)
    if len(exchanges) < len(best):
        after = np.zeros(len(best) + 1, dtype=np.intp)      # frame l takes the order after
        after[exchanges + 1] = 1                             # the exchanges before it
        orders = orders.take(np.cumsum(after), axis=0)
    return _PERM_ROWS.take(orders, axis=0)                   # take: a faster gather than indexing


def match_assignment(es_from: Eigensystem, es_to: Eigensystem):
    """Best band assignment between neighboring eigensystems.

    Returns (assignment, overlap, margin): assignment[j] is the band of
    ``es_to`` continuing band j of ``es_from``; overlap is the biorthogonal
    overlap matrix L_from @ R_to; margin is the gap in total squared overlap
    to the runner-up assignment.
    """
    overlap = es_from.left_vectors @ es_to.right_vectors
    best, margin = best_assignments(overlap)
    return _PERMS[best], overlap, margin


def root_winding(roots: np.ndarray) -> float:
    """Winding number (1/2pi) of arg(disc) along a polygon whose segments'
    discriminants have the roots t ``roots`` (``model.discriminant_roots``):
    on a segment, arg(t - r) turns by arg((1 - r) / (0 - r)) = arg(1 - 1/r)."""
    return float(np.angle(1 - 1 / roots).sum() / (2 * np.pi))


def transport_eigensystems(stack: EigensystemStack, label: str = "", roots=None) -> TransportResult:
    """Parallel transport over the closed eigensystem sequence ``stack``
    (analytic, or the fitted frames that ``spectral._fit_spectra`` returns).

    A step whose assignment margin is below ``DEFAULT_AMBIGUITY_MARGIN``
    raises AmbiguousMatch.  Θ is not checked for unimodularity (fitted
    frames are only near-biorthonormal), but a singular final frame raises
    NonUnimodularDeterminant.  ``roots`` are the discriminant's roots on the
    loop's segments (``LoopPath.roots``), by default on those between rows.

    The result is reliable when every matched overlap clears
    ``DEFAULT_OVERLAP_FLOOR`` and the permutation's parity is (-1)^round(w)
    for the discriminant's winding w.  The discriminant is V^2 for the
    product V of the eigenvalue differences, and a loop multiplies V by the
    sign of its permutation, so w is odd exactly when the permutation is:
    frames whose steps miss or invent an exchange are flagged.
    """
    overlap = stack.left_vectors[:-1] @ stack.right_vectors[1:]
    best, margin = best_assignments(overlap)
    if (margin < DEFAULT_AMBIGUITY_MARGIN).any():
        l = int(np.argmax(margin < DEFAULT_AMBIGUITY_MARGIN))
        a, b = ParamPoint.from_row(stack.params[l]), ParamPoint.from_row(stack.params[l + 1])
        raise AmbiguousMatch(f"assignment margin {margin[l]:.2e} at step {l} ({a} -> {b})")

    # m[l, j]: the raw (Re-sorted) band that tracked band j occupies at step l
    m = chain_assignments(best)
    at = np.arange(len(m))[:, None]
    matched = overlap[at[:-1], m[:-1], m[1:]]                # (L-1, 3) raw matched overlaps
    # the holonomy needs only the end frame, compensated by each band's summed phase
    phase = np.arctan2(matched.imag, matched.real).sum(axis=0)
    tracked_end = stack.right_vectors[-1][:, m[-1]] * np.exp(-1j * phase)

    events = [ExchangeEvent(int(l) + 1, ParamPoint.from_row(stack.params[l + 1]), tuple(m[l].tolist()),
                            tuple(m[l + 1].tolist())) for l in np.flatnonzero((m[1:] != m[:-1]).any(axis=1))]
    permutation = PermutationElement(tuple(int(r) + 1 for r in m[-1]))
    holonomy = stack.left_vectors[0] @ tracked_end
    det = complex(np.linalg.det(holonomy))
    parity = float(np.linalg.det(to_matrix(permutation)))
    if det == 0:
        raise NonUnimodularDeterminant("det U = 0: the tracked frame lost rank")
    theta = (np.pi - cmath.log(parity * det).imag) % (2 * np.pi) - np.pi     # in [-pi, pi)
    step_overlaps = np.abs(matched)
    min_overlap = float(step_overlaps.min(initial=1.0))
    winding = root_winding(discriminant_roots(stack.params) if roots is None else roots)
    parity_agrees = cmath.isfinite(winding) and parity == (-1) ** round(winding)

    return TransportResult(
        label=label,
        tracked_eigenvalues=stack.eigenvalues[at, m],
        step_overlaps=step_overlaps,
        events=events,
        permutation=permutation,
        holonomy=holonomy,
        berry_phase=theta,
        min_overlap=min_overlap,
        reliable=min_overlap > DEFAULT_OVERLAP_FLOOR and parity_agrees,
        min_gap=float(stack.min_gap.min()),
        disc_winding=winding,
    )


def transport(loop: LoopPath) -> TransportResult:
    """Transport the band frame around a LoopPath (band 1 = lowest Re at anchor).

    Midpoints are first inserted until each step's length in t is at most
    its distance to the nearest discriminant root of its segment, so no step
    passes an EP closer than its own length; then one ``eigensystems`` call
    solves every step.  A segment of n steps whose roots lie 1/n or more
    from [0, 1] needs no point and costs nothing more.  Only the anchor rows
    (the first and the last) carry their eigenvector gauge into the
    holonomy, so only they must take LAPACK's frames; the phase compensation
    cancels the gauge of every other row's closed-form frames.
    """
    return transport_eigensystems(eigensystems(_refined(loop), exact=[0, -1]), label=loop.label, roots=loop.roots)


def _refined(loop: LoopPath) -> np.ndarray:
    """``loop.params`` with the midpoints that :func:`transport` inserts."""
    n = np.array(loop.segment_steps)
    near = np.flatnonzero(n * np.abs(loop.roots - np.clip(loop.roots.real, 0, 1)).min(axis=1) < 1)
    if not len(near):
        return loop.params
    seg, i = np.repeat(near, n[near]), np.concatenate([np.arange(n[k]) for k in near])
    lo, hi, mids = i / n[seg], (i + 1) / n[seg], []
    while len(seg):
        roots = loop.roots[seg]
        split = hi - lo > np.abs(roots - np.clip(roots.real, lo[:, None], hi[:, None])).min(axis=1)
        seg, lo, hi = seg[split], lo[split], hi[split]
        t = (lo + hi) / 2
        mids.append((seg, t))
        seg, lo, hi = np.tile(seg, 2), np.concatenate([lo, t]), np.concatenate([t, hi])
    seg, t = (np.concatenate(x) for x in zip(*mids))
    ends = np.array([p.as_array() for p in loop.waypoints])
    # row l of the loop sits at l, a midpoint at its segment's first row plus t times its step count
    at = np.concatenate([np.arange(len(loop.params)), (np.cumsum(n) - n)[seg] + t * n[seg]])
    rows = np.concatenate([loop.params, (1 - t[:, None]) * ends[seg] + t[:, None] * ends[seg + 1]])
    return rows[np.argsort(at, kind="stable")]


def eigenvalue_vorticity(result: TransportResult, pair: tuple[int, int]) -> float:
    """Winding number (1/2pi) of arg(w_i - w_j) along the loop, tracked bands."""
    d = result.tracked_eigenvalues[:, pair[0] - 1] - result.tracked_eigenvalues[:, pair[1] - 1]
    return float(np.angle(d[1:] / d[:-1]).sum() / (2 * np.pi))


def vorticity_table(result: TransportResult) -> dict[str, float]:
    table = {
        f"{i}{j}": eigenvalue_vorticity(result, (i, j))
        for i, j in ((1, 2), (1, 3), (2, 3))
    }
    table["discriminant"] = result.disc_winding
    return table
