"""Virtual measurement pipeline: Green's-function spectra and inverse fits.

The forward model samples the second-order cavity mode at n positions per
cavity, drives one cavity (A by default) from its top position, and
evaluates the resolvent of the physical Hamiltonian on a frequency grid.
Only ``synthesize`` builds probe rows; the inverse path fits the seven
scalars (omega0, gamma0, kappa, eta, zeta, xi, g) of each spectrum on its
own, on the profile-projected site responses (``_site_responses``), in
two stages:

* start: a linear rational fit of the three site responses with one shared
  cubic denominator, det(omega - H_phys), and numerators of the degrees
  that the drive site sets; closed formulas turn the fit into the seven
  scalars.  A drive at cavity B or C has a second start, tried where the
  first one's polish misses the residual threshold;
* polish: damped Gauss-Newton from that start, on the exact Jacobian of
  the resolvent (dG/dtheta = -G (dA/dtheta) G for A = omega - H_phys),
  stopped where the full step's predicted decrease falls to just above the
  cost's rounding noise, so it ends at the same least-squares optimum from
  any start in its basin.

It then solves linearly for the pole residues that reconstruct the
eigenvectors.  There is no search: a spectrum that no start polishes below
the threshold raises ``FitDiverged``.  A loop's spectra are fitted as one
stack: one call gives every start, one polish call takes every first
start, each of its iterations builds all Jacobians in one resolvent
derivative, solves all steps in one stacked QR least-squares call
(``_lstsq``) and tries them in one forward-model call, and one more
``_lstsq`` call gives the residues.  No spectrum's arithmetic depends on
another's, so each fit keeps the bits of a fit on its own.
"""
from __future__ import annotations

import binascii
import json
import math
import re
import warnings
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import FitDiverged, IdentifiabilityWarning
from .loops import MIN_STEPS
from .model import (
    DEGENERACY_GAP,
    EigensystemStack,
    ParamPoint,
    PhysicalScale,
    eigensystems,
    min_gaps,
)


@dataclass(frozen=True)
class CavityConfig:
    scale: PhysicalScale = field(default_factory=PhysicalScale)
    n_positions_per_cavity: int = 7
    n_frequencies: int = 31
    frequency_window: float = 8 * 49.5    # rad/s, full width centered on omega0
    source_site: int = 2                  # 1-based site index, 2 = cavity A
    geometry_metadata: str = "cavity height 110 mm, side 44 mm, coupling hole 17 mm^2"

    def __post_init__(self):
        for name in ("n_positions_per_cavity", "n_frequencies", "source_site"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        # n = 2 samples the mode exactly at its two nodes
        if self.n_positions_per_cavity < 3:
            raise ValueError("need at least 3 probe positions per cavity")
        if self.n_frequencies < 7:
            raise ValueError("need at least 7 frequencies")
        if not 0 < self.frequency_window < np.inf:
            raise ValueError(f"frequency window must be finite and positive, got {self.frequency_window!r}")
        if self.source_site not in (1, 2, 3):
            raise ValueError(f"source_site must be 1, 2 or 3 (cavity B, A or C), got {self.source_site}")

    def frequencies(self) -> np.ndarray:
        half = self.frequency_window / 2
        return np.linspace(
            self.scale.omega0 - half, self.scale.omega0 + half, self.n_frequencies
        )


def onsite_profile(config: CavityConfig) -> np.ndarray:
    """cos(2 pi z / h) sampled at n equally spaced interior heights, unit norm.

    The second-order mode has two nodal planes; every n >= 3 that
    ``CavityConfig`` admits samples both sign changes.
    """
    n = config.n_positions_per_cavity
    z = (np.arange(1, n + 1) - 0.5) / n
    v = np.cos(2 * np.pi * z)
    return v / np.linalg.norm(v)


@dataclass(frozen=True)
class NoiseSpec:
    relative_amplitude: float = 0.0
    seed: int = 0

    def __post_init__(self):
        # the seed starts numpy's RNG streams, which take only non-negative integers
        if type(self.seed) is not int or self.seed < 0:
            raise ValueError(f"noise seed must be a non-negative integer, got {self.seed!r}")
        # Python reads JSON true and false as the numbers 1 and 0
        if isinstance(self.relative_amplitude, bool) or not 0 <= self.relative_amplitude < np.inf:
            raise ValueError(f"noise amplitude must be finite and at least 0, and no boolean, "
                             f"got {self.relative_amplitude!r}")


@dataclass
class SpectralDataset:
    """A loop's spectra: ``responses`` of shape (steps, 3 n_pos, n_freq), each
    step's probe rows, and ``param_truth``, each step's true point or None."""
    config: CavityConfig
    noise_spec: NoiseSpec
    responses: np.ndarray
    param_truth: list[ParamPoint | None]

    def __post_init__(self):
        if np.ndim(self.responses) != 3 or len(self.param_truth) != len(self.responses):
            raise ValueError(f"need responses of shape (steps, 3 n_pos, n_freq) and one param_truth entry "
                             f"per step, got shape {np.shape(self.responses)} and {len(self.param_truth)} entries")


def _tridiagonal(theta: np.ndarray, freqs: np.ndarray):
    """|kappa| and the diagonal (b0, b1, b2) of A = omega - H_phys, whose off-diagonal is |kappa|.

    theta = (omega0, gamma0, kappa, eta, zeta, xi, g) with shape (7,) or
    (7, S) gives |kappa| of shape (S, 1) and diagonals of shape (S, n_freq).
    With H_phys = omega0 + i gamma0 + |kappa| H, the diagonal is
    d + |kappa| m, d = omega - omega0 - i gamma0 and m = (sqrt2 (eta + i(1 + g)),
    xi + i zeta, -sqrt2 (eta + i(1 + g))) the diagonal of -H.
    """
    w0, g0, kap, eta, zeta, xi, g = np.asarray(theta, dtype=float).reshape(7, -1, 1)
    s2 = np.sqrt(2.0)
    c, d = np.abs(kap), freqs - (w0 + 1j * g0)                       # (S, 1), (S, n_freq)
    b0 = d + c * (s2 * (1j + eta) + 1j * s2 * g)
    b1 = d + c * (1j * zeta + xi)
    b2 = d + c * (-s2 * (1j + eta) - 1j * s2 * g)
    return c, b0, b1, b2


def _resolvent(theta: np.ndarray, freqs: np.ndarray):
    """|kappa|, shape (S, 1), and G = adj(A) / det(A), shape (S, n_freq, 3, 3), for
    A = omega - H_phys as in ``_tridiagonal``; G is complex symmetric, as A is."""
    c, b0, b1, b2 = _tridiagonal(theta, freqs)                       # (S, 1), (S, n_freq) each
    c2 = c * c
    adj = np.empty(b0.shape + (3, 3), complex)
    adj[..., 0, 0], adj[..., 1, 1], adj[..., 2, 2] = b1 * b2 - c2, b0 * b2, b0 * b1 - c2
    adj[..., 0, 1] = adj[..., 1, 0] = -c * b2
    adj[..., 1, 2] = adj[..., 2, 1] = -c * b0
    adj[..., 0, 2] = adj[..., 2, 0] = c2
    return c, adj / (b0 * b1 * b2 - c2 * (b0 + b2))[..., None, None]


def _response_matrix(theta: np.ndarray, freqs: np.ndarray, src: int = 1) -> np.ndarray:
    """Forward model for one 7-scalar parameter vector or a population of them.

    theta = (omega0, gamma0, kappa, eta, zeta, xi, g) with shape (7,) or
    (7, S); the result is the site responses (B, A, C), shape (3, n_freq)
    or (S, 3, n_freq), to a drive at the 0-based site ``src`` (default
    cavity A): the driven column of the resolvent (``_resolvent``) of
    H_phys = omega0 + i gamma0 + |kappa| H.  No eigen-solve, and finite at
    EPs, where eigen-residues diverge and cancel.  It stays a total function
    far outside the validated regime, kappa = 0 included, where the
    optimizer explores.  A single vector runs as a population of one, so
    both shapes share every arithmetic step.
    """
    gcol = np.ascontiguousarray(_resolvent(theta, freqs)[1][..., src].transpose(0, 2, 1))
    return gcol[0] if np.ndim(theta) == 1 else gcol


#: the hopping pattern of A = omega - H_phys, in units of |kappa|
_HOPPING = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])


def _response_jacobian(theta: np.ndarray, freqs: np.ndarray, src: int = 1) -> np.ndarray:
    """Exact derivative of ``_response_matrix``: the site responses'
    derivative by each parameter, shape (7, 3, n_freq) for theta of shape
    (7,) and (S, 7, 3, n_freq) for a stack of shape (7, S).

    With G the resolvent (``_resolvent``) and g = G e_src its driven
    column, dg/dtheta_k = -G (dA/dtheta_k) g.  The seven dA/dtheta_k are -I
    for omega0, -iI for gamma0, sign(kappa) (diag(m) + the hopping pattern)
    for kappa (m as in ``_tridiagonal``), and |kappa| diag(sqrt2, 0, -sqrt2),
    |kappa| diag(0, i, 0), |kappa| diag(0, 1, 0) and
    |kappa| diag(i sqrt2, 0, -i sqrt2) for eta, zeta, xi and g.  All seven
    products come from one batched G @ V over the frequencies (and the
    stack).  A single vector runs as a stack of one, so both shapes share
    every arithmetic step.
    """
    c, green = _resolvent(theta, freqs)
    gcol, s2 = green[..., src], np.sqrt(2.0)                         # (S, n_freq, 3)
    kap, eta, zeta, xi, g = np.asarray(theta, dtype=float).reshape(7, -1)[2:]
    sign, eg = np.sign(kap)[:, None], eta + 1j * (1 + g)
    diag = np.empty((len(kap), 3, 7), complex)                       # the diagonals of the seven dA
    diag[..., 0], diag[..., 1] = -1, -1j
    diag[..., 2] = sign * np.stack([s2 * eg, xi + 1j * zeta, -s2 * eg], axis=1)
    diag[..., 3:] = c[..., None] * np.array([[s2, 0, 0, 1j * s2], [0, 1j, 1, 0], [-s2, 0, 0, -1j * s2]])
    v = diag[:, None] * gcol[..., None]                              # (S, n_freq, 3, 7): dA_k g
    v[..., 2] += sign[..., None] * gcol @ _HOPPING
    jac = -(green @ v).transpose(0, 3, 2, 1)                         # (S, 7, 3, n_freq)
    return jac[0] if np.ndim(theta) == 1 else jac


def _truth_vector(p: ParamPoint, scale: PhysicalScale) -> np.ndarray:
    return np.array([scale.omega0, scale.gamma0, scale.kappa, p.eta, p.zeta, p.xi, p.g])


def synthesize(
    points: list[ParamPoint],
    config: CavityConfig | None = None,
    noise: NoiseSpec | None = None,
) -> SpectralDataset:
    """Synthetic pressure responses for a parameter sequence: each cavity's
    site response times phi * phi_top (phi the mode profile), stacked per site.

    Every step's site responses come from one population call of the
    forward model.  Multiplicative complex Gaussian noise of the given
    relative amplitude is applied in place, step by step, with an RNG stream
    derived from (seed, step index), so datasets are reproducible under
    concurrent generation.
    """
    cfg = config if config is not None else CavityConfig()
    ns = noise if noise is not None else NoiseSpec()
    freqs, phi = cfg.frequencies(), onsite_profile(cfg)
    theta = np.array([_truth_vector(p, cfg.scale) for p in points]).reshape(-1, 7).T
    # a window that overflows the forward model gives responses that are not
    # finite, which ``check_dataset`` rejects, so they are made without warnings
    with np.errstate(over="ignore", invalid="ignore"):
        sites = _response_matrix(theta, freqs, cfg.source_site - 1)              # (S, 3, n_freq)
        # real and imaginary parts scaled by the real profile, without numpy's slow mixed-type broadcast
        scaled = (phi * phi[-1])[:, None] * sites.view(float)[:, :, None, :]   # (S, 3, n_pos, 2 n_freq)
    responses = scaled.view(complex).reshape(len(points), -1, len(freqs))
    if ns.relative_amplitude > 0:
        for k, rk in enumerate(responses):
            rng = np.random.default_rng([ns.seed, k])
            rk *= 1.0 + ns.relative_amplitude * (
                rng.standard_normal(rk.shape) + 1j * rng.standard_normal(rk.shape)
            ) / np.sqrt(2.0)
    return SpectralDataset(cfg, ns, responses, list(points))


def _squared_norm(data: np.ndarray, config: CavityConfig) -> float:
    """||data||^2; ValueError unless ``data`` is finite, not all zero and
    sampled as ``config`` samples it."""
    shape = (3 * config.n_positions_per_cavity, config.n_frequencies)
    with np.errstate(over="ignore"):        # an overflowing norm is rejected below
        norm2 = float(np.sum(np.abs(data) ** 2))
    if data.shape != shape or not 0 < norm2 < np.inf:
        raise ValueError(f"need finite, not all-zero responses of shape {shape}, "
                         f"got shape {data.shape} and squared norm {norm2}")
    return norm2


def _site_responses(data: np.ndarray, config: CavityConfig):
    """(y, norm2, floor), the fit's view of one spectrum; ValueError unless
    ``data`` is finite, not all zero and sampled as ``config`` samples it.

    A probe row is phi * phi_top times a site response (``synthesize``), so
    the fit needs only y = (phi . block) / phi_top of each cavity block: the
    (3, n_freq) site responses in the units of ``_response_matrix``.  For
    any model g, ||data - rows(g)||^2 / ||data||^2 = ||y - g||^2 / norm2 +
    floor, with norm2 = ||data||^2 / phi_top^2 and floor the out-of-profile
    part ||data - phi (phi . data)||^2 / ||data||^2, summed directly: as a
    difference of squared norms it would cancel to rounding noise.
    """
    norm2 = _squared_norm(data, config)
    phi = onsite_profile(config)
    blocks = data.reshape(3, len(phi), -1)
    proj = phi @ blocks                                               # (3, n_freq)
    floor = float(np.sum(np.abs(blocks - phi[:, None] * proj[:, None, :]) ** 2)) / norm2
    return proj / phi[-1], norm2 / phi[-1] ** 2, floor


def check_dataset(dataset: SpectralDataset) -> None:
    """Raise ValueError unless every step of ``dataset`` can be fitted and
    the steps are enough (``MIN_STEPS``) to form a closed loop."""
    if len(dataset.responses) < MIN_STEPS:
        raise ValueError(f"need at least {MIN_STEPS} steps forming a closed loop")
    for responses in dataset.responses:
        _squared_norm(responses, dataset.config)


GAUSS_NEWTON_ITERATIONS = 60
RESIDUAL_THRESHOLD = 0.1     # normalized cost above which a polish has not converged


@dataclass
class FittedParams:
    point: ParamPoint
    scale: PhysicalScale
    eigenvalues: np.ndarray          # (3,) complex, physical rad/s
    residual: float
    mode_coeffs_right: np.ndarray    # (3 sites, 3 states) a_{j,s}
    mode_coeffs_left: np.ndarray     # (3 states, 3 sites) b_{j,s}
    identifiability_warning: bool = False
    gauss_newton_iterations: int = 0  # Jacobians built by this fit's polishes, a second start's included

    def theta(self) -> np.ndarray:
        return _truth_vector(self.point, self.scale)


def _lstsq(a: np.ndarray, b: np.ndarray):
    """(x, Q^H b) of the least-squares problems min ||a x - b|| of a stack:
    ``a`` (S, m, n), m >= n, real or complex, and ``b`` (S, m) or (S, m, k);
    ||Q^H b||^2 = ||a x||^2.  One QR of the stack, one solve of its R factors.
    A row whose R is not finite or has a zero diagonal entry gets NaN, and
    never makes the stack raise; no row's arithmetic depends on another's."""
    q, r = np.linalg.qr(a)
    qb = q.conj().transpose(0, 2, 1) @ (b[..., None] if b.ndim == 2 else b)
    bad = ~(np.isfinite(r).all(axis=(1, 2)) & np.diagonal(r, axis1=1, axis2=2).all(axis=1))
    r[bad], qb[bad] = np.eye(r.shape[-1]), np.nan
    x = np.linalg.solve(r, qb)
    return (x[..., 0], qb[..., 0]) if b.ndim == 2 else (x, qb)


# a rejected trial step may overflow the model; its cost, not finite, does not lower the cost
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _gauss_newton(theta0, y, freqs, norm2, floor, src=1):
    """Damped Gauss-Newton on a stack of spectra: (theta, cost, iterations).

    ``theta0`` holds one start per spectrum, shape (S, 7); ``y`` their site
    responses, shape (S, 3, n_freq); ``norm2`` and ``floor``, shape (S,),
    their normalisation, as in ``_site_responses``, and cost = ||y - g||^2 /
    norm2 + floor.  Each iteration builds the exact Jacobians of the spectra
    still iterating in one ``_response_jacobian`` call, solves their
    least-squares steps s in one ``_lstsq`` call and evaluates each trial of
    the line search in one ``_response_matrix`` call.  A spectrum stops when
    ||J s||^2 = ||Q^T r||^2, the decrease the full step predicts, is at or
    below 1e-14 of the cost, above its rounding noise (a few 1e-15, where
    rounding, and so the BLAS kernel, decides whether a trial lowers it), or
    not finite (a singular J); when no halving of its step (up to 25) lowers
    the cost, which a trial whose cost is not finite never does; when the
    step taken is below 1e-13; or after ``GAUSS_NEWTON_ITERATIONS``.
    ``iterations`` counts the Jacobians built for each spectrum.  No
    spectrum's arithmetic depends on another's, so each ends with the bits
    of a polish on its own.
    """
    theta, root = np.array(theta0, float), np.sqrt(norm2)

    def residuals(t, at):                    # of the rows t of the spectra at, (len(at), 3, n_freq)
        return (_response_matrix(t.T, freqs, src) - y[at]) / root[at, None, None]

    def costs(r):                            # the site part; floor does not move
        return (np.abs(r) ** 2).reshape(len(r), -1).sum(axis=1)

    live = np.arange(len(theta))
    r = residuals(theta, live)
    cost, iterations = costs(r), np.zeros(len(theta), int)
    for it in range(1, GAUSS_NEWTON_ITERATIONS + 1):
        if not len(live):
            break
        iterations[live] = it
        jac = _response_jacobian(theta[live].T, freqs, src).reshape(len(live), 7, -1) / root[live, None, None]
        # the real least-squares problem of each spectrum, its rows the real and imaginary parts in turn
        step, qb = _lstsq(jac.view(float).transpose(0, 2, 1), -r[live].reshape(len(live), -1).view(float))
        above_floor = np.sum(qb ** 2, axis=1) > 1e-14 * (cost[live] + floor[live])
        live, step = live[above_floor], step[above_floor]
        lam, improved, trying = np.ones(len(live)), np.zeros(len(live), bool), np.arange(len(live))
        for _ in range(25):
            if not len(trying):
                break
            at = live[trying]
            trial = theta[at] + lam[trying, None] * step[trying]
            rt = residuals(trial, at)
            ct = costs(rt)
            lower = ct < cost[at]
            theta[at[lower]], r[at[lower]], cost[at[lower]] = trial[lower], rt[lower], ct[lower]
            improved[trying[lower]] = True
            trying = trying[~lower]
            lam[trying] *= 0.5
        moved = ~(np.linalg.norm(lam[:, None] * step, axis=1) < 1e-13)
        live = live[improved & moved]
    return theta, cost + floor, iterations


def differential_evolution(*args, **kwargs):
    """``scipy.optimize.differential_evolution``, imported at the call.

    No fit calls it; the name stays importable here for the benchmark's tracer.
    """
    from scipy.optimize import differential_evolution as search

    return search(*args, **kwargs)

#: Sanathanan-Koerner passes of the rational fit
SK_PASSES = 3


def _rational_starts(y: np.ndarray, config: CavityConfig) -> np.ndarray:
    """Closed-form starts theta = (omega0, gamma0, kappa, eta, zeta, xi, g)
    of a stack of spectra's site responses ``y``, shape (S, 3, n_freq)
    (``_site_responses``), in the order the fit tries them, shape (S, 2, 7);
    a row that is not finite is no start.

    Each site response is y_s = N_s / D with D = det(omega - H_phys) a monic
    cubic and N_s the source's adjugate column: of degree 1, 2 and 1 in
    (B, A, C) for a drive at A, 2, 1 and 0 for B, and 0, 1 and 2 for C, a
    drive at B with the site order reversed.  Levy's linearization
    y_s D - N_s = 0 is one linear least-squares problem, its rows weighted
    by 1/|y_s| for the multiplicative noise and, on each Sanathanan-Koerner
    pass, by 1/|D| of the pass before; omega enters scaled to the window's
    half width, so the Vandermonde columns stay well conditioned.  With
    c0 = omega0 + i gamma0 and p = |kappa| sqrt(2) (eta + i(1 + g)), H_phys
    has the hopping |kappa| and the diagonal (h_B, h_A, h_C) =
    (c0 - p, c0 - |kappa|(xi + i zeta), c0 + p).

    * Drive at A (one start): y_B / y_C = (d - p) / (d + p), d = omega - c0,
      is linear in (c0, p).  The roots t_k = lambda_k - c0 of
      D = (d^2 - p^2)(d + |kappa|(xi + i zeta)) - 2 |kappa|^2 d then give
      |kappa|^2 = -Re(e2 + p^2) / 2 (e2 the second elementary symmetric
      polynomial of the t_k) and xi + i zeta = -sum(t_k) / |kappa|.
    * Drive at B (two starts): y_A / y_C = -(omega - h_C) / |kappa| is
      linear in (|kappa|, h_C).  The first start takes h_A from
      (y_B + y_C) / y_C = (omega - h_A)(omega - h_C) / |kappa|^2, the second
      from N_B's linear coefficient, -(h_A + h_C); the pole sum, the trace
      of H_phys, gives h_B.

    Each least-squares problem is one ``_lstsq`` call, the poles one ``eigvals``
    call.  A spectrum whose weights are not finite and positive (0 is an overflowed
    |y D|), whose D or start is not finite or whose hopping is <= 0 has no start.

    kappa is reported as -|kappa|.
    """
    src, s2 = config.source_site - 1, np.sqrt(2.0)
    # every h and pole taken relative to omega0
    w, half = config.frequencies() - config.scale.omega0, config.frequency_window / 2
    vander = (w / half)[:, None] ** np.arange(4)
    y = y[:, ::-1] if src == 2 else y
    degrees = (1, 2, 1) if src == 1 else (2, 1, 0)
    # unknowns (d0, d1, d2) of D = d0 + d1 s + d2 s^2 + s^3, then each numerator's coefficients
    cols = np.cumsum((3,) + tuple(d + 1 for d in degrees))
    lhs = np.zeros(y.shape + (cols[-1],), complex)
    lhs[..., :3] = y[..., None] * vander[:, :3]
    for s, degree in enumerate(degrees):
        lhs[:, s, :, cols[s]:cols[s + 1]] = -vander[:, :degree + 1]
    rhs = -y * vander[:, 3]
    starts = np.full((len(y), 2, 7), np.nan)
    with np.errstate(all="ignore"):
        weight = 1 / np.abs(y)
        for _ in range(SK_PASSES):
            weight[~((0 < weight) & (weight < np.inf)).all(axis=(1, 2))] = np.nan
            x, _ = _lstsq((lhs * weight[..., None]).reshape(len(y), -1, cols[-1]), (rhs * weight).reshape(len(y), -1))
            weight = 1 / np.abs(y * (vander[:, :3] @ x[:, :3, None] + vander[:, 3:])[:, None, :, 0])
        y_b, y_a, y_c = y.transpose(1, 0, 2)
        if src == 1:
            # the poles: eigvals of each D's companion matrix, as np.roots takes them; eigvals takes only finite input
            finite = np.isfinite(x[:, :3]).all(axis=1)
            companion = np.repeat(np.eye(3, k=-1, dtype=complex)[None], len(y), axis=0)
            companion[finite, 0] = -x[finite, 2::-1]
            # y_B (w - c0 + p) = y_C (w - c0 - p), rows weighted by 1/|y_A| for the noise
            ratio = np.stack([y_b - y_c, -(y_b + y_c), w * (y_b - y_c)], axis=2) / np.abs(y_a)[..., None]
            c0, p = _lstsq(ratio[..., :2], ratio[..., 2])[0].T
            t = np.where(finite[:, None], half * np.linalg.eigvals(companion), np.nan) - c0[:, None]
            kappa = np.sqrt(-(t[:, 0] * t[:, 1] + t[:, 0] * t[:, 2] + t[:, 1] * t[:, 2] + p * p).real / 2)
            found = [(c0, p, -t.sum(axis=1))]              # (c0, p, |kappa|(xi + i zeta)) of each start
        else:
            # |kappa| y_A - h_C y_C = -w y_C (rows weighted by 1/|y_A|) and
            # h_A y_C (w - h_C) = y_C w (w - h_C) - (y_B + y_C) |kappa|^2 (by 1/|y_B|)
            sol, _ = _lstsq(np.stack([y_a, -y_c], axis=2) / np.abs(y_a)[..., None], -w * y_c / np.abs(y_a))
            kappa, h_c = np.where(sol[:, 0].real > 0, sol[:, 0].real, np.nan), sol[:, 1]
            a = y_c * (w - h_c[:, None]) / np.abs(y_b)
            b = (y_c * w * (w - h_c[:, None]) - (y_b + y_c) * kappa[:, None] ** 2) / np.abs(y_b)
            found = []
            for h_a in (np.sum(a.conj() * b, axis=1) / np.sum(a.conj() * a, axis=1), -half * x[:, 4] / x[:, 5] - h_c):
                c0 = (-half * x[:, 2] - h_a) / 2         # (h_B + h_C) / 2, the pole sum being h_B + h_A + h_C
                # p = (h_C - h_B) / 2 is the far end's h less c0 times 1 - src: +1 for B, -1 for C (reversed)
                found.append((c0, (h_c - c0) * (1 - src), c0 - h_a))
        for row, (c0, p, xz) in enumerate(found):
            eta_g, xi_zeta = p / (kappa * s2), xz / kappa
            starts[:, row] = np.stack([config.scale.omega0 + c0.real, c0.imag, -kappa, eta_g.real, xi_zeta.imag,
                                       xi_zeta.real, eta_g.imag - 1], axis=1)
    starts[~np.isfinite(starts).all(axis=2)] = np.nan
    return starts


def fit_step(responses: np.ndarray, config: CavityConfig | None = None) -> FittedParams:
    """Recover the seven model scalars and eigenvectors from one spectrum.

    Every stage works on the profile-projected site responses
    (``_site_responses``); ``residual`` is the full normalised cost.  A
    damped Gauss-Newton polish on the exact Jacobian (``_gauss_newton``)
    starts from the first closed-form start of ``_rational_starts``; where
    it ends above ``RESIDUAL_THRESHOLD`` or that start is not finite, the
    second start (a drive at cavity B or C has one) is polished instead.
    A spectrum that no start polishes below the threshold raises
    ``FitDiverged``: among others, a cavity response exactly 0 at some
    frequency and a window too narrow to resolve a pole.  ``gauss_newton_iterations``
    counts the Jacobians of both polishes.  Pole residues are then solved
    by linear least squares at the fitted eigenvalues, and the right/left
    coefficient split uses the complex-symmetry constraint b proportional
    to a.
    """
    return _fit_spectra([responses], config if config is not None else CavityConfig())[0]


def _fit_spectra(spectra, cfg: CavityConfig) -> list[FittedParams]:
    """``fit_step`` of each spectrum, as one stack, stage by stage.

    The first starts are polished in one ``_gauss_newton`` call, the second
    starts of the spectra that polish missed in one more; one ``eigensystems``
    call and one ``_lstsq`` call give every fitted point's eigenvalues and
    residues.  Each stage checks every spectrum before the next one runs:
    the polishes (``_divergence``), the eigen-solve, then the residues.  So
    a loop with one failing spectrum raises what fitting that spectrum alone
    raises, and the warnings come only once every spectrum has fitted.
    """
    views = [_site_responses(np.asarray(r, dtype=complex), cfg) for r in spectra]
    y, norm2, floor = (np.array(v) for v in zip(*views))
    freqs, src = cfg.frequencies(), cfg.source_site - 1

    starts = _rational_starts(y, cfg)                                  # (S, 2, 7)
    theta, cost, iterations = np.full((len(y), 7), np.nan), np.full(len(y), np.inf), np.zeros(len(y), int)
    for start in starts.transpose(1, 0, 2):
        # a NaN cost polishes the next start too
        todo = ~(cost <= RESIDUAL_THRESHOLD) & np.isfinite(start).all(axis=1)
        if todo.any():
            theta[todo], cost[todo], more = _gauss_newton(start[todo], y[todo], freqs, norm2[todo], floor[todo], src)
            iterations[todo] += more
    for why in map(_divergence, theta, cost):
        if why:
            raise FitDiverged(why)

    # model.to_physical of each fit; the model sees only |kappa|, so the unbounded polish may cross 0
    wphys = theta[:, :1] + 1j * theta[:, 1:2] + abs(theta[:, 2:3]) * eigensystems(theta[:, 3:]).eigenvalues
    # linear residue solve: y_s ~ sum_j t_{s,j} / (omega - w_j), t_{s,j} = a_{s,j} * b_{j,src}
    coeffs, _ = _lstsq(1.0 / (freqs[:, None] - wphys[:, None, :]), y.transpose(0, 2, 1))   # (step, state, site)
    nrm = np.linalg.norm(coeffs, axis=2)
    # a NaN column is a residue solve on a singular basis
    vanishing = ~(nrm > 0).all(axis=1)
    if vanishing.any():
        raise FitDiverged(f"vanishing residue column for state {np.argmin(nrm[vanishing][0]) + 1}")
    a = coeffs.transpose(0, 2, 1) / nrm[:, None, :]                        # (step, site, state)
    b = (a / np.sum(a * a, axis=1)[:, None, :]).transpose(0, 2, 1)         # (step, state, site)

    fits, gaps = [], min_gaps(wphys)
    for k, ident_flag in enumerate(gaps < 3 * (freqs[1] - freqs[0])):
        if ident_flag:
            warnings.warn(f"eigenvalue gap {gaps[k]:.1f} rad/s below 3x frequency spacing",
                          IdentifiabilityWarning, stacklevel=3)
        fits.append(FittedParams(
            point=ParamPoint(*theta[k, 3:]),
            scale=PhysicalScale(omega0=theta[k, 0], gamma0=theta[k, 1], kappa=-abs(theta[k, 2])),
            eigenvalues=wphys[k],
            residual=float(cost[k]),
            mode_coeffs_right=a[k],
            mode_coeffs_left=b[k],
            identifiability_warning=ident_flag,
            gauss_newton_iterations=int(iterations[k]),
        ))
    return fits


def _divergence(theta: np.ndarray, cost: float) -> str | None:
    """Why a polish that ended at ``theta`` with ``cost`` is no fit, or None."""
    if np.isnan(theta).any():
        return "no finite closed-form start"
    if not cost <= RESIDUAL_THRESHOLD:
        return f"normalized residual {cost:.3e} above {RESIDUAL_THRESHOLD}"
    if theta[2] == 0:
        return "fitted hopping kappa collapsed to 0"
    # the unbounded polish may end outside PhysicalScale's domain
    if not (theta[0] > 0 and theta[1] >= 0):
        return f"fitted omega0 = {theta[0]:.6g} rad/s, gamma0 = {theta[1]:.6g} rad/s: need omega0 > 0, gamma0 >= 0"
    return None


def fitted_stack(fits: list[FittedParams]) -> EigensystemStack:
    """The fits as one stack for the transport machinery: fitted points,
    eigenvalues and residue-coefficient frames, and each smallest gap in
    units of the fitted |kappa|."""
    w = np.array([f.eigenvalues for f in fits])
    min_gap = min_gaps(w) / np.array([abs(f.scale.kappa) for f in fits])
    return EigensystemStack(
        np.array([f.point.as_array() for f in fits]),
        w,
        np.array([f.mode_coeffs_right for f in fits]),
        np.array([f.mode_coeffs_left for f in fits]),
        min_gap < DEGENERACY_GAP,
        min_gap,
    )


def fit_loop(dataset: SpectralDataset):
    """Fit every step of a closed-loop dataset, then transport the fitted frames.

    Each step is fitted from its own spectrum as ``fit_step`` fits it (closed-form start and
    polish), all of them as one stack (``_fit_spectra``), so no fit depends on its neighbour.
    Returns (fits, transport_result); the fitted frames are stacked once (``fitted_stack``) and
    transported as an analytic stack is, with the winding of the polygon of the fitted points.
    """
    from .transport import transport_eigensystems

    if len(dataset.responses) < MIN_STEPS:
        raise ValueError(f"need at least {MIN_STEPS} steps forming a closed loop")
    fits = _fit_spectra(dataset.responses, dataset.config)
    result = transport_eigensystems(fitted_stack(fits), label="fitted-loop")
    return fits, result


# ----------------------------------------------------------------------
# dataset (de)serialization: JSON for the config, noise spec and truths,
# and the responses as base64 of their raw little-endian complex128 bytes,
# which read back bit for bit


def read_cavity_config(doc: dict, complete: bool = False) -> CavityConfig:
    """The CavityConfig that a JSON object describes, ``scale`` as an object
    of PhysicalScale fields.  A key that names no field is a ValueError, and
    so, when ``complete``, is a field without a key, in ``scale`` too; so are
    a JSON boolean for a number and a ``geometry_metadata`` that is no string."""
    def check_keys(doc, cls, where):
        if not isinstance(doc, dict):
            raise ValueError(f"{where} must be a JSON object")
        names = {f.name for f in fields(cls)}
        unknown, missing = set(doc) - names, names - set(doc) if complete else set()
        if unknown or missing:
            raise ValueError(f"{where}: unknown key(s) {sorted(unknown)}, missing key(s) {sorted(missing)}")

    check_keys(doc, CavityConfig, "cavity config")
    scale = doc.get("scale", {})
    check_keys(scale, PhysicalScale, "cavity config scale")
    # Python reads JSON true and false as the numbers 1 and 0, and JSON NaN as a float
    if any(isinstance(v, bool) for v in (*doc.values(), *scale.values())) or not isinstance(
            doc.get("geometry_metadata", ""), str):
        raise ValueError("cavity config: no number may be a boolean, and geometry_metadata must be a string")
    return CavityConfig(**doc | {"scale": PhysicalScale(**scale)})


#: the element type of a dataset's responses: little-endian complex128
RESPONSE_DTYPE = "<c16"

#: the keys of a dataset.json object
DATASET_KEYS = ("config", "noise_spec", "param_truth", "responses")

#: base64 text with nothing outside the alphabet and at most two padding
#: characters at the end; a length that is a multiple of 4 completes the check
_BASE64 = re.compile(r"[A-Za-z0-9+/]*={0,2}")


def save_dataset(dataset: SpectralDataset, path: str | Path) -> None:
    """Write ``dataset`` as one JSON object: ``config`` and ``noise_spec``
    from their dataclasses, ``param_truth`` (per step [eta, zeta, xi, g] or
    null) and ``responses``, the (steps, 3 n_pos, n_freq) array written as
    {"dtype": "<c16", "shape": [...], "base64": ...}: its little-endian
    complex128 bytes."""
    responses = dataset.responses.astype(RESPONSE_DTYPE, copy=False)
    doc = {
        "config": asdict(dataset.config),
        "noise_spec": asdict(dataset.noise_spec),
        "param_truth": [None if p is None else p.as_array().tolist() for p in dataset.param_truth],
        "responses": {
            "dtype": RESPONSE_DTYPE,
            "shape": list(responses.shape),
            "base64": binascii.b2a_base64(responses.tobytes(), newline=False).decode("ascii"),
        },
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")


def load_dataset(path: str | Path) -> SpectralDataset:
    """The dataset that ``save_dataset`` wrote to ``path``.  An object whose
    keys are not ``DATASET_KEYS`` (the older per-step form among them), a
    dtype tag other than "<c16", a shape that is not three non-negative
    integers, text that is not base64, a byte count that disagrees with the
    shape and a ``param_truth`` count other than the number of steps are
    ValueErrors."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict) or set(doc) != set(DATASET_KEYS):
        raise ValueError(f"a dataset is a JSON object with the keys {DATASET_KEYS}")
    block = doc["responses"]
    shape = block["shape"]
    if block["dtype"] != RESPONSE_DTYPE:
        raise ValueError(f"responses dtype must be {RESPONSE_DTYPE!r}, got {block['dtype']!r}")
    if not (isinstance(shape, list) and len(shape) == 3 and all(type(n) is int and n >= 0 for n in shape)):
        raise ValueError(f"responses shape must be three non-negative integers, got {shape!r}")
    # a2b_base64 skips characters outside the alphabet, so the text is checked first
    text = block["base64"]
    if len(text) % 4 or not _BASE64.fullmatch(text):
        raise ValueError("responses base64 must be the base64 alphabet, at most two '=' at the end "
                         "and a length that is a multiple of 4")
    raw = binascii.a2b_base64(text)
    if len(raw) != 16 * math.prod(shape):
        raise ValueError(f"{len(raw)} response bytes do not hold a complex128 array of shape {shape}")
    responses = np.frombuffer(raw, RESPONSE_DTYPE).astype(complex).reshape(shape)
    truths = [None if t is None else ParamPoint(*t) for t in doc["param_truth"]]
    return SpectralDataset(read_cavity_config(doc["config"], complete=True), NoiseSpec(**doc["noise_spec"]),
                           responses, truths)
