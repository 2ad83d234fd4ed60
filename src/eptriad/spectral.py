"""Virtual measurement pipeline: Green's-function spectra and inverse fits.

The forward model samples the second-order cavity mode at n positions per
cavity, drives one cavity (A by default) from its top position, and
evaluates the resolvent of the physical Hamiltonian on a frequency grid.
Only ``synthesize`` builds probe rows; the inverse path fits the seven
scalars (omega0, gamma0, kappa, eta, zeta, xi, g) of each spectrum on its
own, on the profile-projected site responses (``_site_responses``), in
three stages:

* start: a linear rational fit of the three site responses with one shared
  cubic denominator, det(omega - H_phys), whose roots are the three poles;
  a closed formula turns the poles into the seven scalars;
* polish: damped Gauss-Newton from that start, on the exact Jacobian of
  the resolvent (dG/dtheta = -G (dA/dtheta) G for A = omega - H_phys),
  stopped where the full step's predicted decrease reaches the rounding
  floor, so it ends at the same least-squares optimum from any start in
  its basin;
* fallback: a seeded differential-evolution search, run only where the
  polish misses the residual threshold or there is no closed-form start.

It then solves linearly for the pole residues that reconstruct the
eigenvectors.  A loop's spectra are fitted as one stack: one polish call
takes every closed-form start, and each of its iterations builds the
Jacobians of all spectra still iterating in one resolvent derivative and
tries their steps in one forward-model call, while the least-squares
step, the step halvings and the stops stay per spectrum, so each fit
keeps the bits of a fit on its own.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import FitDiverged, IdentifiabilityWarning
from .model import (
    DEGENERACY_GAP,
    EigensystemStack,
    ParamPoint,
    PhysicalScale,
    eigensystem,
    to_physical,
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


@dataclass
class SpectralStep:
    responses: np.ndarray                  # (3*n_pos, n_freq) complex
    param_truth: ParamPoint | None = None


@dataclass
class SpectralDataset:
    config: CavityConfig
    noise_spec: NoiseSpec
    steps: list[SpectralStep]


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


def _response_matrix(theta: np.ndarray, freqs: np.ndarray, src: int = 1) -> np.ndarray:
    """Forward model for one 7-scalar parameter vector or a population of them.

    theta = (omega0, gamma0, kappa, eta, zeta, xi, g) with shape (7,) or
    (7, S); the result is the site responses (B, A, C), shape (3, n_freq)
    or (S, 3, n_freq), to a drive at the 0-based site ``src`` (default
    cavity A).  The Green's function column is the adjugate column over the
    determinant of the tridiagonal omega - H_phys,
    H_phys = omega0 + i gamma0 + |kappa| H: no eigen-solve, and finite at
    EPs, where eigen-residues diverge and cancel.  It stays a total function
    far outside the validated regime, kappa = 0 included, where the
    optimizer explores.  A single vector runs as a population of one, so
    both shapes share every arithmetic step.
    """
    c, b0, b1, b2 = _tridiagonal(theta, freqs)
    c2 = c * c
    adj = ((b1 * b2 - c2, -c * b2, c2) if src == 0 else      # column src of the adjugate,
           (-c * b2, b0 * b2, -c * b0) if src == 1 else      # built for that column only
           (c2, -c * b0, b0 * b1 - c2))
    gcol = np.stack(np.broadcast_arrays(*adj), axis=1) / (b0 * b1 * b2 - c2 * (b0 + b2))[:, None, :]
    return gcol[0] if np.ndim(theta) == 1 else gcol


#: the hopping pattern of A = omega - H_phys, in units of |kappa|
_HOPPING = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])


def _response_jacobian(theta: np.ndarray, freqs: np.ndarray, src: int = 1) -> np.ndarray:
    """Exact derivative of ``_response_matrix``: the site responses'
    derivative by each parameter, shape (7, 3, n_freq) for theta of shape
    (7,) and (S, 7, 3, n_freq) for a stack of shape (7, S).

    With G = adj(A) / det(A) the resolvent of the tridiagonal
    A = omega - H_phys and g = G e_src its driven column,
    dg/dtheta_k = -G (dA/dtheta_k) g.  The seven dA/dtheta_k are -I for
    omega0, -iI for gamma0, sign(kappa) (diag(m) + the hopping pattern) for
    kappa (m as in ``_tridiagonal``), and |kappa| diag(sqrt2, 0, -sqrt2),
    |kappa| diag(0, i, 0), |kappa| diag(0, 1, 0) and
    |kappa| diag(i sqrt2, 0, -i sqrt2) for eta, zeta, xi and g.  All seven
    products come from one batched G @ V over the frequencies (and the
    stack).  A single vector runs as a stack of one, so both shapes share
    every arithmetic step.
    """
    c, b0, b1, b2 = _tridiagonal(theta, freqs)                       # (S, 1), (S, n_freq) each
    c2, s2 = c * c, np.sqrt(2.0)
    adj = np.empty(b0.shape + (3, 3), complex)                       # symmetric, as A is
    adj[..., 0, 0], adj[..., 1, 1], adj[..., 2, 2] = b1 * b2 - c2, b0 * b2, b0 * b1 - c2
    adj[..., 0, 1] = adj[..., 1, 0] = -c * b2
    adj[..., 1, 2] = adj[..., 2, 1] = -c * b0
    adj[..., 0, 2] = adj[..., 2, 0] = c2
    green = adj / (b0 * b1 * b2 - c2 * (b0 + b2))[..., None, None]
    gcol = green[..., src]                                           # (S, n_freq, 3)
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

    Multiplicative complex Gaussian noise of the given relative amplitude is
    applied per step with an RNG stream derived from (seed, step index), so
    datasets are reproducible under concurrent generation.
    """
    cfg = config if config is not None else CavityConfig()
    ns = noise if noise is not None else NoiseSpec()
    freqs, phi = cfg.frequencies(), onsite_profile(cfg)
    steps = []
    for k, p in enumerate(points):
        sites = _response_matrix(_truth_vector(p, cfg.scale), freqs, cfg.source_site - 1)
        # real and imaginary parts scaled by the real profile, without numpy's slow mixed-type broadcast
        resp = ((phi * phi[-1])[:, None] * sites.view(float)[:, None, :]).view(complex).reshape(-1, len(freqs))
        if ns.relative_amplitude > 0:
            rng = np.random.default_rng([ns.seed, k])
            mult = 1.0 + ns.relative_amplitude * (
                rng.standard_normal(resp.shape) + 1j * rng.standard_normal(resp.shape)
            ) / np.sqrt(2.0)
            resp = resp * mult
        steps.append(SpectralStep(responses=resp, param_truth=p))
    return SpectralDataset(config=cfg, noise_spec=ns, steps=steps)


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
    the steps are enough (8) to form a closed loop."""
    if len(dataset.steps) < 8:
        raise ValueError("need at least 8 steps forming a closed loop")
    for st in dataset.steps:
        _squared_norm(np.asarray(st.responses), dataset.config)


@dataclass(frozen=True)
class FitConfig:
    population: int = 64
    generations: int = 200
    seed: int = 1


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
    searched: bool = False           # differential evolution ran for this fit (the fallback)
    gauss_newton_iterations: int = 0  # Jacobians built by this fit's polishes, the fallback's included

    def theta(self) -> np.ndarray:
        return _truth_vector(self.point, self.scale)


def _gauss_newton(theta0, y, freqs, norm2, floor, src=1):
    """Damped Gauss-Newton on a stack of spectra: (theta, cost, iterations).

    ``theta0`` holds one start per spectrum, shape (S, 7); ``y`` their site
    responses, shape (S, 3, n_freq); ``norm2`` and ``floor``, shape (S,),
    their normalisation, as in ``_site_responses``, and cost = ||y - g||^2 /
    norm2 + floor.  Each iteration builds the exact Jacobians of the spectra
    still iterating in one ``_response_jacobian`` call (one resolvent
    derivative each), and each trial of the line search evaluates their
    residuals in one ``_response_matrix`` call.  Per spectrum, LAPACK's
    lstsq solves the linear least-squares step s.  The full step would lower
    the cost by ||J s||^2 if the model were linear; when that is at or below
    1e-15 of the cost, the polish sits at the rounding floor and that
    spectrum stops.  Otherwise its step is halved up to 25 times until its
    cost falls, and it stops when no halving lowers it, when the step taken
    is below 1e-13, or after ``GAUSS_NEWTON_ITERATIONS``.  ``iterations``
    counts the Jacobians built for each spectrum.  No spectrum's arithmetic
    depends on another's, so each ends with the bits of a polish on its own.
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
        step, above_floor = np.empty((len(live), 7)), np.empty(len(live), bool)
        for i, k in enumerate(live):
            jr, rk = np.hstack([jac[i].real, jac[i].imag]).T, r[k].ravel()
            step[i], *_ = np.linalg.lstsq(jr, -np.concatenate([rk.real, rk.imag]), rcond=None)
            above_floor[i] = not np.sum((jr @ step[i]) ** 2) <= 1e-15 * (cost[k] + floor[k])
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
        moved = [not np.linalg.norm(lam[i] * step[i]) < 1e-13 for i in range(len(live))]
        live = live[improved & np.array(moved, bool)]
    return theta, cost + floor, iterations


def _site_cost(population, y, freqs, norm2, floor, src=1):
    """The full normalised cost of each member of a (7, S) population, the
    differential-evolution search's objective: (S,) values."""
    diff = _response_matrix(population, freqs, src)                  # (S, 3, n_freq)
    diff -= y
    flat = diff.reshape(len(diff), -1).view(float)
    return np.einsum("ij,ij->i", flat, flat) / norm2 + floor


def differential_evolution(*args, **kwargs):
    """``scipy.optimize.differential_evolution``, imported at the first search.

    scipy.optimize takes most of the package's import time and only a fit's
    fallback search needs it, so no other path loads it.  ``fit_step`` looks
    this name up at call time.
    """
    from scipy.optimize import differential_evolution as search

    return search(*args, **kwargs)


# the differential-evolution search's bounds
INIT_BOX = (
    (19600.0, 19860.0),   # omega0
    (30.0, 140.0),        # gamma0
    (-75.0, -25.0),       # kappa
    (-0.8, 0.8),          # eta
    (-0.8, 0.8),          # zeta
    (-0.8, 0.8),          # xi
    (-0.8, 0.8),          # g
)

#: Sanathanan-Koerner passes of the rational fit
SK_PASSES = 3


def _rational_start(y: np.ndarray, config: CavityConfig) -> np.ndarray:
    """theta = (omega0, gamma0, kappa, eta, zeta, xi, g) of one spectrum's
    site responses ``y`` (``_site_responses``) in closed form, not finite
    where there is no closed form.

    Only a drive at cavity A (``source_site`` 2) has one.  Each site
    response is y_s = N_s / D with D = det(omega - H_phys) a monic cubic
    and N_B, N_A, N_C of degree 1, 2 and 1.  Levy's linearization
    y_s D - N_s = 0 is one linear least-squares problem, its rows weighted
    by 1/|y_s| for the multiplicative noise and, on each Sanathanan-Koerner
    pass, by 1/|D| of the pass before; omega enters scaled to the window's
    half width, so the Vandermonde columns stay well conditioned.  The
    roots of D are the poles lambda_k.  With d = omega - c0, c0 = omega0 + i gamma0 and
    p = |kappa| sqrt(2) (eta + i(1 + g)), the sites' diagonals are d + p,
    d + |kappa|(xi + i zeta) and d - p, so y_B / y_C = (d - p) / (d + p),
    which is linear in (c0, p).  The roots t_k = lambda_k - c0 of
    D = (d^2 - p^2)(d + |kappa|(xi + i zeta)) - 2 |kappa|^2 d then give
    |kappa|^2 = -Re(e2 + p^2) / 2 (e2 the second elementary symmetric
    polynomial of the t_k), xi + i zeta = -sum(t_k) / |kappa| and
    eta + i(1 + g) = p / (|kappa| sqrt(2)).  kappa is reported as -|kappa|.
    """
    if config.source_site != 2:
        return np.full(7, np.nan)
    freqs = config.frequencies()
    n = len(freqs)
    half = config.frequency_window / 2
    vander = ((freqs - config.scale.omega0) / half)[:, None] ** np.arange(4)
    # unknowns (d0, d1, d2) of D = d0 + d1 s + d2 s^2 + s^3, then the numerators' coefficients
    lhs = np.zeros((3, n, 10), complex)
    lhs[..., :3] = y[..., None] * vander[:, :3]
    lhs[0, :, 3:5], lhs[1, :, 5:8], lhs[2, :, 8:] = -vander[:, :2], -vander[:, :3], -vander[:, :2]
    rhs = -y * vander[:, 3]
    try:
        # a response that vanishes at some frequency, or |kappa|^2 <= 0, leaves no start
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            weight = 1 / np.abs(y)
            for _ in range(SK_PASSES):
                x, *_ = np.linalg.lstsq((lhs * weight[..., None]).reshape(-1, 10), (rhs * weight).ravel(), rcond=None)
                weight = 1 / np.abs(y * (vander @ np.append(x[:3], 1)))
            poles = config.scale.omega0 + half * np.roots(np.append(1, x[2::-1]))
            y_b, y_a, y_c = y
            # y_B (omega - c0 + p) = y_C (omega - c0 - p), rows weighted by 1/|y_A| for the noise
            ratio = np.stack([y_b - y_c, -(y_b + y_c), freqs * (y_b - y_c)], axis=1) / np.abs(y_a)[:, None]
            (c0, p), *_ = np.linalg.lstsq(ratio[:, :2], ratio[:, 2], rcond=None)
            t = poles - c0
            kappa = np.sqrt(-(t[0] * t[1] + t[0] * t[2] + t[1] * t[2] + p * p).real / 2)
            xi_zeta = -t.sum() / kappa
            eta_g = p / (kappa * np.sqrt(2.0))
    except FloatingPointError:
        return np.full(7, np.nan)
    return np.array([c0.real, c0.imag, -kappa, eta_g.real, xi_zeta.imag, xi_zeta.real, eta_g.imag - 1])


def fit_step(
    responses: np.ndarray,
    config: CavityConfig | None = None,
    fit_config: FitConfig | None = None,
) -> FittedParams:
    """Recover the seven model scalars and eigenvectors from one spectrum.

    Every stage works on the profile-projected site responses
    (``_site_responses``); ``residual`` is the full normalised cost.  A
    damped Gauss-Newton polish on the exact Jacobian (``_gauss_newton``)
    starts from the closed-form rational fit of ``_rational_start``.  A
    seeded differential-evolution search inside ``INIT_BOX`` (each
    generation in one batched forward-model call, deferred updating) finds
    the start of the same polish instead when the polish ends above
    ``RESIDUAL_THRESHOLD``, when the closed-form start is not finite, and
    when the source site has no closed form: a drive at cavity B or C
    (``source_site`` 1 or 3) searches on every spectrum.  ``searched`` says
    whether the search ran, and a polish from it still above the threshold
    raises ``FitDiverged``; ``gauss_newton_iterations`` counts the
    Jacobians of both polishes.  Pole residues are then solved by linear
    least squares at the fitted eigenvalues, and the right/left coefficient
    split uses the complex-symmetry constraint b proportional to a.
    """
    return _fit_spectra([responses], config if config is not None else CavityConfig(), fit_config)[0]


def _fit_spectra(spectra, cfg: CavityConfig, fit_config: FitConfig | None) -> list[FittedParams]:
    """``fit_step`` of each spectrum in order, as one stack.

    The closed-form starts are polished in one ``_gauss_newton`` call.  The
    searches, the checks, the warnings and the residue solves then run
    spectrum by spectrum in order, so a spectrum that fails raises, after
    the warnings of the ones before it, what fitting the spectra one at a
    time raises.
    """
    fc = fit_config if fit_config is not None else FitConfig()
    views = [_site_responses(np.asarray(r, dtype=complex), cfg) for r in spectra]
    y, norm2, floor = (np.array(v) for v in zip(*views))
    freqs, src = cfg.frequencies(), cfg.source_site - 1

    theta = np.array([_rational_start(yk, cfg) for yk in y])
    cost, iterations = np.full(len(y), np.inf), np.zeros(len(y), int)
    start = np.isfinite(theta).all(axis=1)
    if start.any():
        theta[start], cost[start], iterations[start] = _gauss_newton(
            theta[start], y[start], freqs, norm2[start], floor[start], src)

    fits, spacing = [], freqs[1] - freqs[0]
    for k in range(len(y)):
        searched = not cost[k] <= RESIDUAL_THRESHOLD        # a NaN cost searches too
        if searched:
            rng = np.random.default_rng(fc.seed)
            lo, hi = np.array(INIT_BOX).T
            init = lo + (hi - lo) * rng.random((max(fc.population, 8), 7))
            de = differential_evolution(
                _site_cost,
                args=(y[k], freqs, norm2[k], floor[k], src),
                bounds=INIT_BOX,
                init=init,
                maxiter=fc.generations,
                tol=1e-10,
                seed=fc.seed,
                polish=False,
                vectorized=True,
                updating="deferred",
            )
            (theta[k],), (cost[k],), (more,) = _gauss_newton(
                de.x[None], y[k, None], freqs, norm2[k, None], floor[k, None], src)
            iterations[k] += more
            if cost[k] > RESIDUAL_THRESHOLD:
                raise FitDiverged(f"normalized residual {cost[k]:.3e} above {RESIDUAL_THRESHOLD}")

        w0, g0, kap, eta, zeta, xi, g = theta[k]
        if kap == 0:
            raise FitDiverged("fitted hopping kappa collapsed to 0")
        point = ParamPoint(eta, zeta, xi, g)
        # the model sees only |kappa|, so the unbounded polish may cross 0
        scale = PhysicalScale(omega0=w0, gamma0=g0, kappa=-abs(kap))
        wphys = to_physical(eigensystem(point).eigenvalues, scale)

        gaps = [abs(wphys[i] - wphys[j]) for i in range(3) for j in range(i + 1, 3)]
        ident_flag = min(gaps) < 3 * spacing
        if ident_flag:
            warnings.warn(
                f"eigenvalue gap {min(gaps):.1f} rad/s below 3x frequency spacing",
                IdentifiabilityWarning,
                stacklevel=3,
            )

        # linear residue solve: y_s ~ sum_j t_{s,j} / (omega - w_j), t_{s,j} = a_{s,j} * b_{j,src}
        basis = 1.0 / (freqs[None, :] - wphys[:, None])            # (3, n_freq)
        coeffs, *_ = np.linalg.lstsq(basis.T, y[k].T, rcond=None)  # (state, site)
        t = coeffs.T                                               # (site, state)
        nrm = np.linalg.norm(t, axis=0)
        if not nrm.all():
            raise FitDiverged(f"vanishing residue column for state {np.argmin(nrm) + 1}")
        a = t / nrm
        b = (a / np.sum(a * a, axis=0)).T                          # (state, site)
        fits.append(FittedParams(
            point=point,
            scale=scale,
            eigenvalues=wphys,
            residual=float(cost[k]),
            mode_coeffs_right=a,
            mode_coeffs_left=b,
            identifiability_warning=ident_flag,
            searched=searched,
            gauss_newton_iterations=int(iterations[k]),
        ))
    return fits


def fitted_stack(fits: list[FittedParams]) -> EigensystemStack:
    """The fits as one stack for the transport machinery: fitted points,
    eigenvalues and residue-coefficient frames, and each smallest gap in
    units of the fitted |kappa| (hypot rounds as abs() does)."""
    w = np.array([f.eigenvalues for f in fits])
    gaps = w[:, [0, 0, 1]] - w[:, [1, 2, 2]]
    min_gap = np.hypot(gaps.real, gaps.imag).min(axis=1) / np.array([abs(f.scale.kappa) for f in fits])
    return EigensystemStack(
        np.array([f.point.as_array() for f in fits]),
        w,
        np.array([f.mode_coeffs_right for f in fits]),
        np.array([f.mode_coeffs_left for f in fits]),
        min_gap < DEGENERACY_GAP,
        min_gap,
    )


def fit_loop(dataset: SpectralDataset, fit_config: FitConfig | None = None):
    """Fit every step of a closed-loop dataset, then transport the fitted frames.

    Each step is fitted from its own spectrum as ``fit_step`` fits it
    (closed-form start, polish, and the search only as a fallback), all of
    them as one stack (``_fit_spectra``), so no fit depends on its
    neighbour.  Returns (fits, transport_result); the fitted frames are
    stacked once (``fitted_stack``) and transported as an analytic stack is.
    """
    from .transport import transport_eigensystems

    check_dataset(dataset)
    fits = _fit_spectra([st.responses for st in dataset.steps], dataset.config, fit_config)
    result = transport_eigensystems(fitted_stack(fits), label="fitted-loop", refine=False)
    return fits, result


# ----------------------------------------------------------------------
# dataset (de)serialization: JSON with exact float round-trip


def read_cavity_config(doc: dict, complete: bool = False) -> CavityConfig:
    """The CavityConfig that a JSON object describes, ``scale`` as an object
    of PhysicalScale fields.  A key that names no field is a ValueError, and
    so, when ``complete``, is a field without a key, in ``scale`` too."""
    def check_keys(doc, cls, where):
        names = {f.name for f in fields(cls)}
        unknown, missing = set(doc) - names, names - set(doc) if complete else set()
        if unknown or missing:
            raise ValueError(f"{where}: unknown key(s) {sorted(unknown)}, missing key(s) {sorted(missing)}")

    check_keys(doc, CavityConfig, "cavity config")
    if "scale" not in doc:
        return CavityConfig(**doc)
    check_keys(doc["scale"], PhysicalScale, "cavity config scale")
    return CavityConfig(**doc | {"scale": PhysicalScale(**doc["scale"])})


def save_dataset(dataset: SpectralDataset, path: str | Path) -> None:
    doc = {
        "config": asdict(dataset.config),
        "noise_spec": asdict(dataset.noise_spec),
        "steps": [
            {
                "param_truth": None if st.param_truth is None else st.param_truth.as_array().tolist(),
                "responses": np.stack([st.responses.real, st.responses.imag], axis=-1).tolist(),
            }
            for st in dataset.steps
        ],
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")


def load_dataset(path: str | Path) -> SpectralDataset:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    steps = [
        SpectralStep(
            responses=np.array(st["responses"], dtype=float).view(complex)[..., 0],
            param_truth=None if st["param_truth"] is None else ParamPoint(*st["param_truth"]),
        )
        for st in doc["steps"]
    ]
    return SpectralDataset(read_cavity_config(doc["config"], complete=True), NoiseSpec(**doc["noise_spec"]), steps)
