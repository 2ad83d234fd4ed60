"""Stroboscopic parallel transport of the three-band frame around loops.

The tracked frame starts from the anchor eigensystem ordered by ascending
real part.  At each step the 3x3 biorthogonal overlap matrix is formed, the
band assignment maximizing the total squared overlap is chosen, and the
arbitrary per-step excitation phase Im[ln <L_j | R_j'>] is compensated so
each band stays phase-continuous.

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
from dataclasses import dataclass, replace

import numpy as np

from .errors import AmbiguousMatch, NonUnimodularDeterminant
from .loops import LoopPath
from .model import Eigensystem, ParamPoint, discriminant_formula, eigensystem
from .permutations import PermutationElement, to_matrix

_PERMS = tuple(itertools.permutations(range(3)))

DEFAULT_OVERLAP_FLOOR = 0.5
DEFAULT_AMBIGUITY_MARGIN = 1e-3
MAX_BISECTIONS = 8


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
    loop: LoopPath | None
    label: str
    anchor: Eigensystem
    tracked_eigenvalues: np.ndarray       # (L, 3) complex, tracked band order
    tracked_right_vectors: np.ndarray     # (L, 3, 3) complex, columns = tracked bands
    step_transfer: np.ndarray             # (L-1, 3, 3) overlap matrices per step
    step_overlaps: np.ndarray             # (L-1, 3) matched |O|
    theta_log: np.ndarray                 # (L-1, 3) compensated phases
    events: list[ExchangeEvent]
    permutation: PermutationElement
    holonomy: np.ndarray                  # (3, 3) complex
    berry_phase: float
    min_overlap: float
    reliable: bool
    min_gap: float                        # smallest eigenvalue gap along the loop
    disc_values: np.ndarray               # (L,) complex discriminant along path

    @property
    def n_exchanges(self) -> int:
        return len(self.events)


def match_assignment(es_from: Eigensystem, es_to: Eigensystem):
    """Best band assignment between neighboring eigensystems.

    Returns (assignment, overlap, margin): assignment[j] is the band of
    ``es_to`` continuing band j of ``es_from``; overlap is the biorthogonal
    overlap matrix L_from @ R_to; margin is the gap in total squared overlap
    to the runner-up assignment.
    """
    overlap = es_from.left_vectors @ es_to.right_vectors
    scores = [sum(abs(overlap[j, pm[j]]) ** 2 for j in range(3)) for pm in _PERMS]
    order = np.argsort(scores)
    return _PERMS[order[-1]], overlap, scores[order[-1]] - scores[order[-2]]


def _reorder(es: Eigensystem, order, phases=None) -> Eigensystem:
    """``es`` with its bands in ``order``, each optionally rotated by -phase."""
    idx = list(order)
    right = es.right_vectors[:, idx]
    left = es.left_vectors[idx, :]
    if phases is not None:
        for j in range(3):
            right[:, j] *= np.exp(-1j * phases[j])
            left[j, :] *= np.exp(1j * phases[j])
    return replace(es, eigenvalues=es.eigenvalues[idx], right_vectors=right, left_vectors=left)


def _principal(theta: float) -> float:
    return (theta + np.pi) % (2 * np.pi) - np.pi


def berry_phase(u: np.ndarray) -> float:
    """Multiband Berry phase -Im[ln det U] of a (near-)unimodular matrix."""
    det = complex(np.linalg.det(np.asarray(u, dtype=complex)))
    if abs(abs(det) - 1.0) > 1e-6:
        raise NonUnimodularDeterminant(f"|det U| = {abs(det):.8f}")
    return -cmath.log(det).imag


def transport_eigensystems(
    systems: list[Eigensystem],
    label: str = "",
    loop: LoopPath | None = None,
    overlap_floor: float = DEFAULT_OVERLAP_FLOOR,
    ambiguity_margin: float = DEFAULT_AMBIGUITY_MARGIN,
    refine: bool = True,
) -> TransportResult:
    """Parallel transport over a precomputed closed eigensystem sequence.

    When ``refine`` is set and the sequence came from parameter points,
    ambiguous steps are bisected by inserting interpolated points (up to 8
    levels) before giving up with AmbiguousMatch.  Θ is not checked for
    unimodularity (fitted frames are only near-biorthonormal), but a
    singular final frame raises NonUnimodularDeterminant.
    """
    work = list(systems)
    depth = [0] * (len(work) - 1)

    anchor = work[0]
    tracked = anchor
    m = (0, 1, 2)
    events: list[ExchangeEvent] = []
    tracked_w = [anchor.eigenvalues.copy()]
    tracked_r = [anchor.right_vectors.copy()]
    transfer_log: list[np.ndarray] = []
    overlaps_log: list[np.ndarray] = []
    theta_log: list[np.ndarray] = []
    min_overlap = 1.0
    min_gap = anchor.min_gap
    disc_vals = [discriminant_formula(anchor.point)]

    l = 0
    while l < len(work) - 1:
        nxt = work[l + 1]
        assign, overlap, margin = match_assignment(tracked, nxt)
        if margin < ambiguity_margin:
            if refine and depth[l] < MAX_BISECTIONS:
                mid_params = 0.5 * (tracked.point.as_array() + nxt.point.as_array())
                mid = eigensystem(ParamPoint(*mid_params))
                work.insert(l + 1, mid)
                depth[l : l + 1] = [depth[l] + 1, depth[l] + 1]
                continue
            raise AmbiguousMatch(
                f"assignment margin {margin:.2e} at step {l} ({tracked.point} -> {nxt.point})"
            )
        matched = np.array([abs(overlap[j, assign[j]]) for j in range(3)])
        phases = np.array([np.angle(overlap[j, assign[j]]) for j in range(3)])
        # tracked band j continues as the Re-sorted band assign[j] of the
        # next step, so the raw-rank occupancy map is the assignment itself
        if assign != m:
            events.append(ExchangeEvent(step=l + 1, point=nxt.point, before=m, after=assign))
            m = assign
        tracked = _reorder(nxt, assign, phases)
        tracked_w.append(tracked.eigenvalues.copy())
        tracked_r.append(tracked.right_vectors.copy())
        transfer_log.append(overlap)
        overlaps_log.append(matched)
        theta_log.append(phases)
        min_overlap = min(min_overlap, float(matched.min()))
        min_gap = min(min_gap, nxt.min_gap)
        disc_vals.append(discriminant_formula(nxt.point))
        l += 1

    permutation = PermutationElement(tuple(r + 1 for r in m))
    holonomy = anchor.left_vectors @ tracked.right_vectors
    det = complex(np.linalg.det(holonomy))
    parity = float(np.linalg.det(to_matrix(permutation)))
    if det == 0:
        raise NonUnimodularDeterminant("det U = 0: the tracked frame lost rank")
    theta = _principal(-cmath.log(parity * det).imag)

    return TransportResult(
        loop=loop,
        label=label,
        anchor=anchor,
        tracked_eigenvalues=np.array(tracked_w),
        tracked_right_vectors=np.array(tracked_r),
        step_transfer=np.array(transfer_log),
        step_overlaps=np.array(overlaps_log),
        theta_log=np.array(theta_log),
        events=events,
        permutation=permutation,
        holonomy=holonomy,
        berry_phase=theta,
        min_overlap=min_overlap,
        reliable=min_overlap > overlap_floor,
        min_gap=min_gap,
        disc_values=np.array(disc_vals),
    )


def transport(
    loop: LoopPath,
    overlap_floor: float = DEFAULT_OVERLAP_FLOOR,
    ambiguity_margin: float = DEFAULT_AMBIGUITY_MARGIN,
) -> TransportResult:
    """Transport the band frame around a LoopPath (band 1 = lowest Re at anchor)."""
    systems = [eigensystem(q) for q in loop.steps]
    return transport_eigensystems(
        systems,
        label=loop.label,
        loop=loop,
        overlap_floor=overlap_floor,
        ambiguity_margin=ambiguity_margin,
    )


def nabp(result: TransportResult) -> np.ndarray:
    """The holonomy matrix U in the anchor eigenbasis.

    |U| matches the 0/1 pattern of the extracted permutation; entry phases
    are the accumulated transport phases and depend on the anchor gauge.
    """
    if not result.reliable:
        raise AmbiguousMatch(
            f"transport unreliable: min overlap {result.min_overlap:.3f}"
        )
    return result.holonomy


def canonical_nabp(result: TransportResult) -> np.ndarray:
    """The permutation-pattern NABP (unit entries), the printed convention."""
    return to_matrix(result.permutation).astype(complex)


def cycles_to_identity(result: TransportResult) -> int:
    """Smallest n >= 1 with the loop permutation to the n-th power trivial."""
    return result.permutation.order()


def eigenvalue_vorticity(result: TransportResult, pair: tuple[int, int]) -> float:
    """Winding number (1/2pi) of arg(w_i - w_j) along the loop, tracked bands."""
    i, j = pair[0] - 1, pair[1] - 1
    d = result.tracked_eigenvalues[:, i] - result.tracked_eigenvalues[:, j]
    return float(np.angle(d[1:] / d[:-1]).sum() / (2 * np.pi))


def discriminant_winding(result: TransportResult) -> float:
    """Winding number (1/2pi) of arg(disc) along the loop (cross-check)."""
    d = result.disc_values
    return float(np.angle(d[1:] / d[:-1]).sum() / (2 * np.pi))


def vorticity_table(result: TransportResult) -> dict[str, float]:
    table = {
        f"{i}{j}": eigenvalue_vorticity(result, (i, j))
        for i, j in ((1, 2), (1, 3), (2, 3))
    }
    table["discriminant"] = discriminant_winding(result)
    return table


@dataclass
class Mu2DecompositionReport:
    eta: float
    result: TransportResult
    n_exchanges: int
    exchange_points: list[ParamPoint]
    swapped_rank_pairs: list[tuple[int, ...]]
    permutation: str


def mu2_decomposition_run(
    eta: float = 0.055,
    steps_per_segment: int = 200,
    g: float = 0.61,
) -> Mu2DecompositionReport:
    """Run the outer-pair-swap loop shifted off the eta = 0 plane.

    At eta = 0.055 the single merged crossing splits into three separate
    branch-cut crossings whose transpositions compose to the same net
    exchange of bands 1 and 3; at eta = 0 the crossings merge.
    """
    from .loops import preset_loop

    loop = preset_loop("mu2", steps_per_segment=steps_per_segment, eta=eta, g=g)
    res = transport(loop)
    return Mu2DecompositionReport(
        eta=eta,
        result=res,
        n_exchanges=res.n_exchanges,
        exchange_points=[e.point for e in res.events],
        swapped_rank_pairs=[e.swapped_ranks for e in res.events],
        permutation=res.permutation.as_string(),
    )
