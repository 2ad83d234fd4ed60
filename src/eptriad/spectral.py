"""Virtual measurement pipeline: Green's-function spectra and inverse fits.

The forward model samples the second-order cavity mode at n positions per
cavity, drives cavity A from its top position, and evaluates the resolvent
of the physical Hamiltonian on a frequency grid.  The inverse path is a
seeded differential-evolution search over the seven scalars
(omega0, gamma0, kappa, eta, zeta, xi, g) followed by damped Gauss-Newton,
then a linear solve for the pole residues that reconstructs eigenvectors.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np
from scipy.optimize import differential_evolution

from .errors import FitDiverged, IdentifiabilityWarning, PoleProximity
from .model import (
    Eigensystem,
    ParamPoint,
    PhysicalScale,
    build_h_ep,
    eigensystem,
    to_physical,
)

SITES = ("B", "A", "C")


@dataclass(frozen=True)
class CavityConfig:
    scale: PhysicalScale = field(default_factory=PhysicalScale)
    n_positions_per_cavity: int = 7
    n_frequencies: int = 31
    frequency_window: float = 8 * 49.5    # rad/s, full width centered on omega0
    source_site: int = 2                  # 1-based site index, 2 = cavity A
    geometry_metadata: str = "cavity height 110 mm, side 44 mm, coupling hole 17 mm^2"

    def __post_init__(self):
        if self.n_positions_per_cavity < 2:
            raise ValueError("need at least 2 probe positions per cavity")
        if self.n_frequencies < 7:
            raise ValueError("need at least 7 frequencies")
        if self.frequency_window <= 0:
            raise ValueError("frequency window must be positive")

    def frequencies(self) -> np.ndarray:
        half = self.frequency_window / 2
        return np.linspace(
            self.scale.omega0 - half, self.scale.omega0 + half, self.n_frequencies
        )


@dataclass(frozen=True)
class ModeProfile:
    """Onsite mode sampled at the probe heights; two nodal planes, unit norm."""

    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        nz = s[np.abs(s) > 1e-12]
        if nz.size == 0:
            raise ValueError("mode profile vanishes at all probe positions")
        flips = int(np.sum(np.sign(nz[:-1]) != np.sign(nz[1:])))
        if flips != 2:
            raise ValueError(f"expected exactly 2 sign changes, found {flips}")
        if abs(np.linalg.norm(s) - 1.0) > 1e-9:
            raise ValueError("mode profile must have unit norm")


def onsite_profile(config: CavityConfig) -> ModeProfile:
    """cos(2 pi z / h) sampled at n equally spaced interior heights, unit norm.

    The second-order mode has two nodal planes; fewer than 5 positions can
    alias them away (n = 2 samples the nodes exactly), so 5 is the minimum
    useful sampling.
    """
    n = config.n_positions_per_cavity
    z = (np.arange(1, n + 1) - 0.5) / n
    v = np.cos(2 * np.pi * z)
    norm = np.linalg.norm(v)
    if norm < 1e-12:
        raise ValueError(f"profile vanishes for n = {n}; use n >= 5")
    return ModeProfile(samples=v / norm)


def greens_3site(omega: complex, p: ParamPoint, scale: PhysicalScale | None = None) -> np.ndarray:
    """Site-basis Green's function sum_j |R_j><L_j| / (omega - w_j), physical units."""
    s = scale if scale is not None else PhysicalScale()
    es = eigensystem(p)
    wphys = to_physical(es.eigenvalues, s)
    gaps = np.abs(omega - wphys)
    if gaps.min() < 1e-6 * abs(s.kappa):
        raise PoleProximity(f"omega within {gaps.min():.3e} rad/s of a pole")
    return (es.right_vectors / (omega - wphys)) @ es.left_vectors


def isolated_cavity_pole(cavity: str, p: ParamPoint, scale: PhysicalScale | None = None) -> complex:
    """Resonance pole of one decoupled cavity: (omega0 + i gamma0) + kappa-scaled diagonal."""
    s = scale if scale is not None else PhysicalScale()
    h = build_h_ep(p)
    idx = SITES.index(cavity)
    return (s.omega0 + 1j * s.gamma0) + abs(s.kappa) * h[idx, idx]


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


def _response_matrix(theta: np.ndarray, freqs: np.ndarray, n_pos: int, src: int = 1) -> np.ndarray:
    """Forward model for one 7-scalar parameter vector or a population of them.

    theta = (omega0, gamma0, kappa, eta, zeta, xi, g) with shape (7,) or
    (7, S); the result has shape (3*n_pos, n_freq) or (S, 3*n_pos, n_freq).
    Rows are probe positions stacked per site (B, A, C), columns are
    frequencies; ``src`` is the 0-based driven site (default the middle
    cavity A), excited at its top probe position.  The Hamiltonian is
    assembled in the kappa = -1 convention without ParamPoint validation:
    the optimizer explores far outside the validated regime, and the model
    stays a total function there.  A single vector runs as a population of
    one, so both shapes share every arithmetic step.
    """
    theta = np.asarray(theta, dtype=float)
    single = theta.ndim == 1
    w0, g0, kap, eta, zeta, xi, g = theta.reshape(7, -1)
    s2 = np.sqrt(2.0)
    # entry by entry and negated as a whole, so that each member rounds like
    # the one-matrix reference model the tests compare against bit for bit
    m = np.zeros((len(eta), 3, 3), dtype=complex)
    m[:, 0, 0] = s2 * (1j + eta) + 1j * s2 * g
    m[:, 1, 1] = 1j * zeta + xi
    m[:, 2, 2] = -s2 * (1j + eta) - 1j * s2 * g
    m[:, [0, 1, 1, 2], [1, 0, 2, 1]] = 1.0
    w, v = np.linalg.eig(-m)                                     # (S, 3), (S, 3, 3)
    v = v / np.linalg.norm(v, axis=1)[:, None, :]
    bil = np.sum(v * v, axis=1)
    wphys = (w0 + 1j * g0)[:, None] + np.abs(kap)[:, None] * w
    z = (np.arange(1, n_pos + 1) - 0.5) / n_pos
    phi = np.cos(2 * np.pi * z)
    phi = phi / np.linalg.norm(phi)
    # residue column for the driven site: num[s, j] = R[s,j] * R[src,j] / bil[j]
    num = v * (v[:, src, :] / bil)[:, None, :]
    gcol = num @ (1.0 / (freqs[None, None, :] - wphys[:, :, None]))   # (S, 3, n_freq)
    # scale real and imaginary parts by the real profile: the same values as
    # the complex products, without numpy's slow mixed-type broadcast
    resp = phi[:, None] * gcol.view(float)[:, :, None, :]             # (S, 3, n_pos, 2 n_freq)
    resp *= phi[-1]
    resp = resp.view(complex).reshape(-1, 3 * n_pos, len(freqs))
    return resp[0] if single else resp


def _truth_vector(p: ParamPoint, scale: PhysicalScale) -> np.ndarray:
    return np.array([scale.omega0, scale.gamma0, scale.kappa, p.eta, p.zeta, p.xi, p.g])


def synthesize(
    points: list[ParamPoint],
    config: CavityConfig | None = None,
    noise: NoiseSpec | None = None,
) -> SpectralDataset:
    """Synthetic pressure responses for a parameter sequence.

    Multiplicative complex Gaussian noise of the given relative amplitude is
    applied per step with an RNG stream derived from (seed, step index), so
    datasets are reproducible under concurrent generation.
    """
    cfg = config if config is not None else CavityConfig()
    ns = noise if noise is not None else NoiseSpec()
    freqs = cfg.frequencies()
    onsite_profile(cfg)      # validates the sampling choice early
    steps = []
    for k, p in enumerate(points):
        theta = _truth_vector(p, cfg.scale)
        resp = _response_matrix(theta, freqs, cfg.n_positions_per_cavity, cfg.source_site - 1)
        if ns.relative_amplitude > 0:
            rng = np.random.default_rng([ns.seed, k])
            mult = 1.0 + ns.relative_amplitude * (
                rng.standard_normal(resp.shape) + 1j * rng.standard_normal(resp.shape)
            ) / np.sqrt(2.0)
            resp = resp * mult
        steps.append(SpectralStep(responses=resp, param_truth=p))
    return SpectralDataset(config=cfg, noise_spec=ns, steps=steps)


@dataclass(frozen=True)
class FitConfig:
    population: int = 64
    generations: int = 200
    seed: int = 1
    gauss_newton_iterations: int = 60
    residual_threshold: float = 0.1


@dataclass
class FittedParams:
    point: ParamPoint
    scale: PhysicalScale
    eigenvalues: np.ndarray          # (3,) complex, physical rad/s
    residual: float
    mode_coeffs_right: np.ndarray    # (3 sites, 3 states) a_{j,s}
    mode_coeffs_left: np.ndarray     # (3 states, 3 sites) b_{j,s}
    identifiability_warning: bool = False

    def theta(self) -> np.ndarray:
        return _truth_vector(self.point, self.scale)


def _gauss_newton(theta0, data, freqs, n_pos, norm2, iterations, src=1):
    """Damped Gauss-Newton on stacked real/imag residuals."""
    theta = np.array(theta0, float)

    def residuals(t):
        return ((_response_matrix(t, freqs, n_pos, src) - data) / np.sqrt(norm2)).ravel()

    r = residuals(theta)
    cost = float(np.sum(np.abs(r) ** 2))
    for _ in range(iterations):
        jac = np.empty((r.size, 7), dtype=complex)
        for i in range(7):
            h = 1e-7 * max(1.0, abs(theta[i]))
            tp = theta.copy()
            tp[i] += h
            jac[:, i] = (residuals(tp) - r) / h
        jr = np.vstack([jac.real, jac.imag])
        rr = np.concatenate([r.real, r.imag])
        step, *_ = np.linalg.lstsq(jr, -rr, rcond=None)
        lam, improved = 1.0, False
        for _ in range(25):
            trial = theta + lam * step
            rt = residuals(trial)
            ct = float(np.sum(np.abs(rt) ** 2))
            if ct < cost:
                theta, r, cost, improved = trial, rt, ct, True
                break
            lam *= 0.5
        if not improved or np.linalg.norm(lam * step) < 1e-13:
            break
    return theta, cost


DEFAULT_INIT_BOX = (
    (19600.0, 19860.0),   # omega0
    (30.0, 140.0),        # gamma0
    (-75.0, -25.0),       # kappa
    (-0.8, 0.8),          # eta
    (-0.8, 0.8),          # zeta
    (-0.8, 0.8),          # xi
    (-0.8, 0.8),          # g
)


def fit_step(
    responses: np.ndarray,
    config: CavityConfig | None = None,
    init_box=DEFAULT_INIT_BOX,
    fit_config: FitConfig | None = None,
) -> FittedParams:
    """Recover the seven model scalars and eigenvectors from one spectrum.

    Phase 1 is a seeded differential-evolution search inside ``init_box``
    that evaluates each generation in one batched forward-model call
    (deferred updating); phase 2 a damped Gauss-Newton polish.  Pole
    residues are then solved by linear least squares at the fitted
    eigenvalues, and the right/left coefficient split uses the
    complex-symmetry constraint b proportional to a.
    """
    cfg = config if config is not None else CavityConfig()
    fc = fit_config if fit_config is not None else FitConfig()
    data = np.asarray(responses, dtype=complex)
    if not np.all(np.isfinite(data)):
        raise ValueError("responses contain non-finite entries")
    freqs = cfg.frequencies()
    n_pos = cfg.n_positions_per_cavity
    norm2 = float(np.sum(np.abs(data) ** 2))
    if norm2 == 0:
        raise ValueError("responses are identically zero")

    src = cfg.source_site - 1

    def objective(population):
        diff = _response_matrix(population, freqs, n_pos, src)         # (S, rows, n_freq)
        diff -= data
        flat = diff.reshape(len(diff), -1).view(float)
        return np.einsum("ij,ij->i", flat, flat) / norm2

    rng = np.random.default_rng(fc.seed)
    lo = np.array([b[0] for b in init_box])
    hi = np.array([b[1] for b in init_box])
    init = lo + (hi - lo) * rng.random((max(fc.population, 8), 7))
    de = differential_evolution(
        objective,
        bounds=list(init_box),
        init=init,
        maxiter=fc.generations,
        tol=1e-10,
        seed=fc.seed,
        polish=False,
        vectorized=True,
        updating="deferred",
    )
    theta, cost = _gauss_newton(de.x, data, freqs, n_pos, norm2, fc.gauss_newton_iterations, src)
    if cost > fc.residual_threshold:
        raise FitDiverged(f"normalized residual {cost:.3e} above {fc.residual_threshold}")

    w0, g0, kap, eta, zeta, xi, g = theta
    if kap == 0:
        raise FitDiverged("fitted hopping kappa collapsed to 0")
    point = ParamPoint(eta, zeta, xi, g)
    # the model sees only |kappa|, so the unbounded polish may cross 0
    scale = PhysicalScale(omega0=w0, gamma0=g0, kappa=-abs(kap))
    wphys = to_physical(eigensystem(point).eigenvalues, scale)

    spacing = freqs[1] - freqs[0]
    gaps = [abs(wphys[i] - wphys[j]) for i in range(3) for j in range(i + 1, 3)]
    ident_flag = min(gaps) < 3 * spacing
    if ident_flag:
        warnings.warn(
            f"eigenvalue gap {min(gaps):.1f} rad/s below 3x frequency spacing",
            IdentifiabilityWarning,
            stacklevel=2,
        )

    # linear residue solve: responses ~ sum_j C_j(pos) / (omega - w_j)
    basis = 1.0 / (freqs[None, :] - wphys[:, None])            # (3, n_freq)
    coeffs, *_ = np.linalg.lstsq(basis.T, data.T, rcond=None)  # (3, n_positions)
    phi = onsite_profile(cfg).samples
    # project each cavity block onto the mode profile: t_{j,s} = a_{j,s} * (b_{j,A} phi_top)
    t = np.empty((3, 3), dtype=complex)                        # (site, state)
    for s in range(3):
        block = coeffs[:, s * n_pos : (s + 1) * n_pos]         # (3 states, n_pos)
        t[s, :] = (block @ phi) / (phi @ phi)
    a = np.empty_like(t)
    b = np.empty((3, 3), dtype=complex)                        # (state, site)
    for j in range(3):
        vec = t[:, j]
        nrm = np.linalg.norm(vec)
        if nrm == 0:
            raise FitDiverged(f"vanishing residue column for state {j + 1}")
        vec = vec / nrm
        a[:, j] = vec
        b[j, :] = vec / (vec @ vec)
    return FittedParams(
        point=point,
        scale=scale,
        eigenvalues=wphys,
        residual=cost,
        mode_coeffs_right=a,
        mode_coeffs_left=b,
        identifiability_warning=ident_flag,
    )


def fitted_eigensystem(fit: FittedParams) -> Eigensystem:
    """Package a fit as an Eigensystem usable by the transport machinery."""
    gaps = [abs(fit.eigenvalues[i] - fit.eigenvalues[j]) for i in range(3) for j in range(i + 1, 3)]
    min_gap = min(gaps) / abs(fit.scale.kappa)
    return Eigensystem(
        point=fit.point,
        eigenvalues=fit.eigenvalues,
        right_vectors=fit.mode_coeffs_right,
        left_vectors=fit.mode_coeffs_left,
        is_degenerate=min_gap < 1e-6,
        min_gap=min_gap,
    )


def fit_loop(
    dataset: SpectralDataset,
    init_box=DEFAULT_INIT_BOX,
    fit_config: FitConfig | None = None,
):
    """Fit every step of a closed-loop dataset, then transport the fitted frames.

    Returns (fits, transport_result); the transport pass consumes the
    reconstructed eigenvectors exactly as it would analytic ones.
    """
    from .transport import transport_eigensystems

    if len(dataset.steps) < 8:
        raise ValueError("need at least 8 steps forming a closed loop")
    fits = [
        fit_step(st.responses, dataset.config, init_box, fit_config)
        for st in dataset.steps
    ]
    systems = [fitted_eigensystem(f) for f in fits]
    result = transport_eigensystems(systems, label="fitted-loop", refine=False)
    return fits, result


# ----------------------------------------------------------------------
# dataset (de)serialization: JSON with exact float round-trip


def _complex_array_to_json(a: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def _complex_array_from_json(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def save_dataset(dataset: SpectralDataset, path: str | Path) -> None:
    doc = {
        "config": {
            "scale": asdict(dataset.config.scale),
            "n_positions_per_cavity": dataset.config.n_positions_per_cavity,
            "n_frequencies": dataset.config.n_frequencies,
            "frequency_window": dataset.config.frequency_window,
            "source_site": dataset.config.source_site,
            "geometry_metadata": dataset.config.geometry_metadata,
        },
        "noise_spec": asdict(dataset.noise_spec),
        "steps": [
            {
                "param_truth": (
                    None
                    if st.param_truth is None
                    else [st.param_truth.eta, st.param_truth.zeta, st.param_truth.xi, st.param_truth.g]
                ),
                "responses": _complex_array_to_json(st.responses),
            }
            for st in dataset.steps
        ],
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")


def load_dataset(path: str | Path) -> SpectralDataset:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    cfg_doc = doc["config"]
    cfg = CavityConfig(
        scale=PhysicalScale(**cfg_doc["scale"]),
        n_positions_per_cavity=cfg_doc["n_positions_per_cavity"],
        n_frequencies=cfg_doc["n_frequencies"],
        frequency_window=cfg_doc["frequency_window"],
        source_site=cfg_doc["source_site"],
        geometry_metadata=cfg_doc["geometry_metadata"],
    )
    steps = [
        SpectralStep(
            responses=_complex_array_from_json(st["responses"]),
            param_truth=None if st["param_truth"] is None else ParamPoint(*st["param_truth"]),
        )
        for st in doc["steps"]
    ]
    return SpectralDataset(config=cfg, noise_spec=NoiseSpec(**doc["noise_spec"]), steps=steps)
