"""Independent references that the tests compare the package against.

These are the Hamiltonian written out entry by entry, the characteristic
polynomial as a callable cubic, the closed-form cubic solver, the
Sylvester-matrix discriminant and its cubic-order small-parameter
approximation, the discriminant as one complex expression on Python
numbers, the arcs and their EPs built one ``ParamPoint`` at a time, the
per-point repeated root by ``np.roots``, the Green's
function and its parameter derivative by dense linear solves and the
multiband Berry phase of a unimodular matrix, the spectral fit one
spectrum at a time, each polish on its own, the same fit with every
least-squares problem solved by LAPACK's ``lstsq``, and a fit found by a
global search instead of a closed-form start.  The package builds its
Hamiltonians as one stacked array (``model._hamiltonians``), computes
eigenvalues with ``np.linalg.eig``, the discriminant from the closed
formula in real arithmetic (``model.discriminant_values``), arcs as arrays
and repeated roots from the closed-form double root of the cubic
(``locate._ep_arrays``), the Green's
function and its derivative from the closed-form adjugate of the
tridiagonal resolvent and Θ from the transported holonomy with its
permutation parity divided out, and it fits a loop's spectra as one
stack, every least-squares problem by one stacked QR; nothing in it calls
these.  The cubic's
coefficients come from the package's formula (``model._poly_coeffs``),
which ``test_model.TestCharPoly`` holds to a determinant expansion.
"""
import cmath
import warnings
from dataclasses import dataclass

import numpy as np

from eptriad import locate, spectral
from eptriad.errors import FitDiverged, IdentifiabilityWarning, NonUnimodularDeterminant, NotAnEP
from eptriad.model import ParamPoint, PhysicalScale, _poly_coeffs, discriminant_values, eigensystems, to_physical


@dataclass(frozen=True)
class PolyCoeffs:
    """The cubic a3*w^3 + a2*w^2 + a1*w + a0; monic (a3 = 1) wherever it is used."""

    a3: complex
    a2: complex
    a1: complex
    a0: complex

    def __call__(self, w: complex) -> complex:
        return ((self.a3 * w + self.a2) * w + self.a1) * w + self.a0

    def derivative(self, w: complex) -> complex:
        return (3 * self.a3 * w + 2 * self.a2) * w + self.a1

    def second_derivative(self, w: complex) -> complex:
        return 6 * self.a3 * w + 2 * self.a2


def char_poly(p: ParamPoint) -> PolyCoeffs:
    """det(wI - H) for the kappa = -1 Hamiltonian, from the package's coefficient formula."""
    return PolyCoeffs(1.0 + 0j, *_poly_coeffs(p.eta, p.zeta, p.xi, p.g))


def hamiltonian(p: ParamPoint) -> np.ndarray:
    """The dimensionless Hamiltonian (kappa = -1, sites B, A, C) entry by entry.

    H = kappa (M + G): onsite terms sqrt2 (eta + i), xi + i zeta and
    -sqrt2 (eta + i), gain i sqrt2 g on B and -i sqrt2 g on C, and unit
    hopping between neighbouring sites.
    """
    b = np.sqrt(2.0) * (p.eta + 1j + 1j * p.g)
    return np.array([[-b, -1, 0], [-1, -(p.xi + 1j * p.zeta), -1], [0, -1, b]], dtype=complex)


def _cbrt_principal(z: complex) -> complex:
    """Branch-stabilized complex cube root (principal argument / 3)."""
    if z == 0:
        return 0j
    r = abs(z)
    return r ** (1.0 / 3.0) * np.exp(1j * np.angle(z) / 3.0)


def cubic_roots(coeffs: PolyCoeffs) -> np.ndarray:
    """Roots of a monic cubic, closed form with a companion-matrix fallback.

    The Cardano branch is chosen to avoid cancellation; if the closed form
    leaves a scaled residual above 1e-8, the companion eigenvalues are
    returned instead.
    """
    b, c, d = coeffs.a2, coeffs.a1, coeffs.a0
    shift = -b / 3.0
    # depressed cubic y^3 + p*y + q with w = y + shift
    pco = c - b * b / 3.0
    qco = 2.0 * b**3 / 27.0 - b * c / 3.0 + d
    if pco == 0 and qco == 0:
        roots = np.array([shift, shift, shift])
    else:
        disc_term = np.sqrt((qco / 2.0) ** 2 + (pco / 3.0) ** 3 + 0j)
        # pick the larger-magnitude branch of -q/2 +- sqrt(...)
        s1 = -qco / 2.0 + disc_term
        s2 = -qco / 2.0 - disc_term
        big = s1 if abs(s1) >= abs(s2) else s2
        cc = _cbrt_principal(big)
        omega = np.exp(2j * np.pi / 3.0)
        ys = []
        for k in range(3):
            ck = cc * omega**k
            ys.append(ck - pco / (3.0 * ck))
        roots = np.array(ys) + shift
    scale = max(1.0, abs(b), abs(c), abs(d))
    resid = max(abs(coeffs(w)) for w in roots) / scale
    if resid > 1e-8:
        roots = np.roots([1.0, b, c, d])
    return roots


def eigenvalues(p: ParamPoint) -> np.ndarray:
    """The three eigenvalues (no ordering guaranteed)."""
    return cubic_roots(char_poly(p))


def repeated_root(p: ParamPoint) -> complex:
    """The repeated eigenvalue at a (near-)EP: the root of p' minimizing |p|,
    by one ``np.roots`` call at this point."""
    co = char_poly(p)
    crit = np.roots([3 * co.a3, 2 * co.a2, co.a1])
    return complex(min(crit, key=lambda w: abs(co(w))))


def sylvester_matrix(coeffs: PolyCoeffs) -> np.ndarray:
    """5x5 Sylvester matrix of the cubic and its derivative."""
    a3, a2, a1, a0 = coeffs.a3, coeffs.a2, coeffs.a1, coeffs.a0
    b2, b1, b0 = 3 * a3, 2 * a2, a1
    return np.array(
        [
            [a3, a2, a1, a0, 0],
            [0, a3, a2, a1, a0],
            [b2, b1, b0, 0, 0],
            [0, b2, b1, b0, 0],
            [0, 0, b2, b1, b0],
        ],
        dtype=complex,
    )


def discriminant(p: ParamPoint) -> complex:
    """Discriminant via the Sylvester determinant; zero exactly at EPs."""
    coeffs = char_poly(p)
    sign = (-1) ** (3 * 2 // 2)
    return sign * np.linalg.det(sylvester_matrix(coeffs))


def complex_discriminant(eta, zeta, xi, g) -> complex:
    """18bcd - 4b^3 d + b^2 c^2 - 4c^3 - 27d^2 as one complex expression on
    Python numbers, with (b, c, d) = ``_poly_coeffs``.  CPython raises
    OverflowError where a complex power overflows."""
    b = xi + 1j * zeta
    c = -2.0 * (eta + 1j * g) * (eta + 1j * (2.0 + g))
    d = -2.0 * b * (eta + 1j * (1.0 + g)) ** 2
    return 18 * b * c * d - 4 * b**3 * d + b**2 * c**2 - 4 * c**3 - 27 * d**2


def per_point_eps(points: list) -> list:
    """``locate.EPPoint``s at the ParamPoints ``points``: the closed-form
    repeated root and order, and |disc|, with each point kept as given."""
    params = np.array([[p.eta, p.zeta, p.xi, p.g] for p in points]).reshape(-1, 4).T
    residuals = abs(discriminant_values(*params))
    bad = np.flatnonzero(residuals > locate.EP_MEMBERSHIP_TOL)
    if len(bad):
        raise NotAnEP(f"|disc| = {residuals[bad[0]]:.3e} at {points[bad[0]]}")
    a2, a1, a0 = _poly_coeffs(*params)
    with np.errstate(all="ignore"):
        w = (9 * a0 - a1 * a2) / (2 * (a2 * a2 - 3 * a1))
    w = np.where(np.isfinite(w), w, (0 - a2) / 3)
    flat = (abs((3 * w + 2 * a2) * w + a1) < locate.ORDER3_TOL) & (abs(6 * w + 2 * a2) < locate.ORDER3_TOL)
    return [
        locate.EPPoint(point=p, repeated_eigenvalue=wk, order=3 if f else 2, residual=r)
        for p, wk, f, r in zip(points, w.tolist(), flat.tolist(), residuals.tolist())
    ]


def per_point_arc_starts(g: float) -> list:
    """``locate.arc_starts`` with one ParamPoint built per start."""
    points = [ParamPoint(0.0, 0.0, 0.0, 0.0)] if g == 0 else []
    for eta, b, inside in locate._branches(g):
        for j in range(4) if g != 0 else (0, 2):
            edges = np.flatnonzero(np.diff(np.concatenate([[0], inside[:, j], [0]])))
            for k in ((edges[::2] + edges[1::2] - 1) // 2).tolist():
                points.append(ParamPoint(float(eta[k]), float(b[k, j].imag), float(b[k, j].real), g))
    return per_point_eps(points)


def per_point_arc(g: float, start, step: float = 0.02) -> tuple[list, str]:
    """The EPPoints and termination of ``locate.trace_ea``'s arc through
    ``start``, with one ParamPoint built per arc point."""
    p = start.point
    if g == 0 and p.eta == 0:
        return [start], "rank_deficient"
    eta, branches, inside = locate._branches(g)[int(g == 0 and p.eta < 0)]
    k = int(np.argmin(abs(eta - p.eta)))
    j = np.argmin(abs(branches[k] - complex(p.xi, p.zeta)))
    b, inside = branches[:, j], inside[:, j]
    if not inside[k]:
        return [start], "boundary"
    out = np.flatnonzero(~inside)
    lo, hi = out[out < k].max(initial=0), out[out > k].min()
    nexus = bool(inside[lo])
    run, b = np.stack([eta, b.imag, b.real], axis=1)[lo:hi + 1], b[lo:hi + 1]
    length = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(run, axis=0), axis=1))])
    origin = np.interp(step, abs(run[:, 0]), length) if nexus else 0.0
    at = np.append(np.arange(origin, length[-1], step), length[-1])
    eta_at, near = np.interp(at, length, run[:, 0]), np.interp(at, length, b)
    roots = locate._slice_eps(eta_at, g)
    b_at = roots[np.arange(len(at)), np.argmin(abs(roots - near[:, None]), axis=1)]
    xyz = np.stack([eta_at, b_at.imag, b_at.real], axis=1)
    past = abs(xyz).max(axis=1) > locate.DOMAIN_BOUND
    first = int(np.argmin(past))
    xyz = xyz[max(first - 1, 0):first + int(np.argmax(past[first:])) + 1]
    points = per_point_eps([ParamPoint(*q, g) for q in xyz.tolist()])
    return points, "rank_deficient" if nexus else "boundary"


def slice_zeros(eta: float, g: float) -> np.ndarray:
    """The zeros in b = xi + i zeta of the Sylvester discriminant on the (eta, g) slice.

    The discriminant is a quartic polynomial in b there, so five samples fix it.
    """
    nodes = np.array([0, 1, -1, 1j, -1j])
    values = [discriminant(ParamPoint(eta, b.imag, b.real, g)) for b in nodes]
    return np.roots(np.linalg.solve(np.vander(nodes, 5), values))


def discriminant_small_param(p: ParamPoint) -> complex:
    """Cubic-order polynomial approximation of the discriminant.

    Valid as a zero-locus indicator for |parameters| << 1; the exact
    Sylvester value exceeds it by a factor converging to 4 in that limit.
    """
    eta, zeta, xi, g = p.eta, p.zeta, p.xi, p.g
    re = (
        -72 * xi**2 * zeta
        - 144 * xi * eta * zeta
        - 27 * xi**2
        + 27 * zeta**2
        + 192 * eta**2 * g
        + 72 * zeta**2 * g
        - 64 * g**3
    )
    im = (
        72 * xi**2 * eta
        - 64 * eta**3
        - 144 * xi * zeta * g
        - 72 * zeta**2 * eta
        - 54 * xi * zeta
        + 192 * eta * g**2
    )
    return re + 1j * im


def solved_greens(theta, omega: complex) -> np.ndarray:
    """(omega - H_phys)^-1 by ``np.linalg.solve``, H_phys = omega0 + i gamma0 + |kappa| H.

    theta = (omega0, gamma0, kappa, eta, zeta, xi, g) and H is the kappa = -1
    Hamiltonian of :func:`hamiltonian`.  omega - omega0 is formed first: it is exact for
    the frequencies near omega0 that the spectra sample.
    """
    w0, g0, kap, *p = theta
    a = (omega - w0 - 1j * g0) * np.eye(3) - abs(kap) * hamiltonian(ParamPoint(*p))
    return np.linalg.solve(a, np.eye(3))


def solved_sites(theta, freqs, src: int) -> np.ndarray:
    """The (3, n_freq) site responses (B, A, C) of the forward model: column
    ``src`` (0-based site) of :func:`solved_greens` at each frequency."""
    return np.array([solved_greens(theta, w)[:, src] for w in freqs]).T


def solved_response(theta, freqs, n_pos: int, src: int) -> np.ndarray:
    """The (3 * n_pos, n_freq) spectrum of the forward model, one solve per frequency.

    :func:`solved_sites` times cos(2 pi z) at n_pos equally spaced interior
    heights (unit norm) and times that profile's top sample, stacked per
    site (B, A, C).
    """
    return probe_rows(solved_sites(theta, freqs, src), n_pos)


def solved_greens_derivative(theta, freqs, src: int) -> np.ndarray:
    """The (7, 3, n_freq) derivative of :func:`solved_sites` by each of the
    seven scalars in theta, one solve per frequency.

    At each frequency it is -A^-1 (dA/dtheta_k) A^-1 e_src with
    A = omega - omega0 - i gamma0 - |kappa| H and A^-1 from :func:`solved_greens`.
    A is affine in omega0, gamma0 and the four model scalars and sees kappa
    through |kappa|, so dA/domega0 = -I, dA/dgamma0 = -iI,
    dA/dkappa = -sign(kappa) H and dA/dp = -|kappa| (H(e) - H(0)) for each
    model scalar p, e its unit point.
    """
    w0, g0, kap, *p = theta
    h0 = hamiltonian(ParamPoint(0.0, 0.0, 0.0, 0.0))
    units = [hamiltonian(ParamPoint(*e)) - h0 for e in np.eye(4)]
    da = [-np.eye(3), -1j * np.eye(3), -np.sign(kap) * hamiltonian(ParamPoint(*p))] + [-abs(kap) * u for u in units]
    dg = []                                                          # (n_freq, 7, 3)
    for w in freqs:
        ainv = solved_greens(theta, w)
        dg.append([-ainv @ d @ ainv[:, src] for d in da])
    return np.array(dg).transpose(1, 2, 0)


def probe_rows(g: np.ndarray, n_pos: int) -> np.ndarray:
    """(3 * n_pos, n_freq) probe rows of (3 sites, n_freq) site values."""
    v = np.cos(2 * np.pi * (np.arange(1, n_pos + 1) - 0.5) / n_pos)
    phi = v / np.linalg.norm(v)
    return np.concatenate([np.outer(phi * phi[-1], row) for row in g])


def berry_phase(u: np.ndarray) -> float:
    """Multiband Berry phase -Im[ln det U] of a (near-)unimodular matrix."""
    det = complex(np.linalg.det(np.asarray(u, dtype=complex)))
    if abs(abs(det) - 1.0) > 1e-6:
        raise NonUnimodularDeterminant(f"|det U| = {abs(det):.8f}")
    return -cmath.log(det).imag


def _polish(theta0, y, freqs, norm2, floor, src, solve, stop=1e-14):
    """The damped Gauss-Newton of ``spectral._gauss_newton`` for a single (7,)
    start, its site responses ``y`` (3, n_freq) and scalar ``norm2`` and
    ``floor``: one forward model and one Jacobian per call, the same stops,
    the predicted decrease's floor at ``stop`` of the cost.  ``solve(jr,
    rhs)`` gives the least-squares step and ||jr step||^2."""
    theta, root = np.array(theta0, float), np.sqrt(norm2)

    def residuals(t):
        return ((spectral._response_matrix(t, freqs, src) - y) / root).ravel()

    r = residuals(theta)
    cost = float(np.sum(np.abs(r) ** 2))
    for iterations in range(1, spectral.GAUSS_NEWTON_ITERATIONS + 1):
        jac = spectral._response_jacobian(theta, freqs, src).reshape(7, -1) / root
        step, decrease = solve(jac.view(float).T, -r.view(float))
        if not decrease > stop * (cost + floor):
            break
        lam, improved = 1.0, False
        for _ in range(25):
            trial = theta + lam * step
            rt = residuals(trial)
            ct = float(np.sum(np.abs(rt) ** 2))
            if ct < cost:
                theta, r, cost, improved = trial, rt, ct, True
                break
            lam *= 0.5
        if not improved or np.linalg.norm(lam * step, axis=0) < 1e-13:
            break
    return theta, cost + floor, iterations


def _stack_of_one(a, b):
    """``spectral._lstsq`` of one problem, looked up at the call: (x, qb)."""
    (x,), (qb,) = spectral._lstsq(a[None], b[None])
    return x, qb


def serial_gauss_newton(theta0, y, freqs, norm2, floor, src=1):
    """The polish of one spectrum on its own: (theta, cost, iterations), each
    step by ``spectral._lstsq`` on a stack of one and ||J s||^2 read as
    ||Q^T r||^2, as the stacked polish reads them."""
    def solve(jr, rhs):
        step, qb = _stack_of_one(jr, rhs)
        return step, np.sum(qb ** 2)

    return _polish(theta0, y, freqs, norm2, floor, src, solve)


def lstsq_gauss_newton(theta0, y, freqs, norm2, floor, src=1):
    """The polish of one spectrum as it was before the stacked solves: each
    step from LAPACK's SVD-based ``np.linalg.lstsq``, ||J s||^2 from the
    product J s, and the floor at 1e-15 of the cost."""
    def solve(jr, rhs):
        step = np.linalg.lstsq(jr, rhs, rcond=None)[0]
        return step, np.sum((jr @ step) ** 2)

    return _polish(theta0, y, freqs, norm2, floor, src, solve, stop=1e-15)


def lstsq_rational_starts(y: np.ndarray, config) -> np.ndarray:
    """``spectral._rational_starts`` of one spectrum's site responses ``y``
    (3, n_freq), shape (2, 7): the same rational fit and closed formulas,
    with each least-squares problem solved by ``np.linalg.lstsq``, the
    poles by ``np.roots``, and any floating-point fault (a division by 0,
    an overflow, an invalid operation) leaving no start."""
    src = config.source_site - 1
    freqs = config.frequencies()
    n = len(freqs)
    half = config.frequency_window / 2
    vander = ((freqs - config.scale.omega0) / half)[:, None] ** np.arange(4)
    y = y[::-1] if src == 2 else y
    degrees = (1, 2, 1) if src == 1 else (2, 1, 0)
    cols = np.cumsum((3,) + tuple(d + 1 for d in degrees))
    lhs = np.zeros((3, n, cols[-1]), complex)
    lhs[..., :3] = y[..., None] * vander[:, :3]
    for s, degree in enumerate(degrees):
        lhs[s, :, cols[s]:cols[s + 1]] = -vander[:, :degree + 1]
    rhs = -y * vander[:, 3]
    starts = np.full((2, 7), np.nan)
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            weight = 1 / np.abs(y)
            for _ in range(spectral.SK_PASSES):
                x, *_ = np.linalg.lstsq((lhs * weight[..., None]).reshape(3 * n, -1), (rhs * weight).ravel(),
                                        rcond=None)
                weight = 1 / np.abs(y * (vander @ np.append(x[:3], 1)))
            y_b, y_a, y_c = y
            if src == 1:
                poles = config.scale.omega0 + half * np.roots(np.append(1, x[2::-1]))
                ratio = np.stack([y_b - y_c, -(y_b + y_c), freqs * (y_b - y_c)], axis=1) / np.abs(y_a)[:, None]
                (c0, p), *_ = np.linalg.lstsq(ratio[:, :2], ratio[:, 2], rcond=None)
                t = poles - c0
                kappa = np.sqrt(-(t[0] * t[1] + t[0] * t[2] + t[1] * t[2] + p * p).real / 2)
                xi_zeta = -t.sum() / kappa
                eta_g = p / (kappa * np.sqrt(2.0))
                starts[0] = c0.real, c0.imag, -kappa, eta_g.real, xi_zeta.imag, xi_zeta.real, eta_g.imag - 1
                return starts
            w = freqs - config.scale.omega0
            (kappa, h_c), *_ = np.linalg.lstsq(np.stack([y_a, -y_c], axis=1) / np.abs(y_a)[:, None],
                                               -w * y_c / np.abs(y_a), rcond=None)
            kappa = kappa.real if kappa.real > 0 else np.nan
            a, b = y_c * (w - h_c) / np.abs(y_b), (y_c * w * (w - h_c) - (y_b + y_c) * kappa ** 2) / np.abs(y_b)
            for row, h_a in enumerate((np.vdot(a, b) / np.vdot(a, a), -half * x[4] / x[5] - h_c)):
                c0 = (-half * x[2] - h_a) / 2
                eta_g, xi_zeta = (h_c - c0) * (1 - src) / (kappa * np.sqrt(2.0)), (c0 - h_a) / kappa
                starts[row] = (config.scale.omega0 + c0.real, c0.imag, -kappa, eta_g.real, xi_zeta.imag,
                               xi_zeta.real, eta_g.imag - 1)
    except FloatingPointError:
        pass
    return starts


def _fit_one(responses, config, starts, polish, solve) -> spectral.FittedParams:
    """One spectrum's fit as ``spectral.fit_step`` makes it, from the
    ``starts`` of its site responses, each polished by ``polish`` where the
    one before misses the threshold, then the eigenvalues of the fitted
    point by ``eigensystems`` on that point alone, as the fit solves them,
    and the residues by ``solve(a, b)``.  It fails by stage: a polish that
    diverges or ends outside ``PhysicalScale``'s domain, then the
    eigen-solve, then a vanishing residue; it warns only when it has
    fitted."""
    (y,), (norm2,), (floor,) = spectral._site_responses(np.asarray(responses, dtype=complex)[None], config)
    freqs, src = config.frequencies(), config.source_site - 1
    theta, cost, iterations = np.full(7, np.nan), np.inf, 0
    for start in starts(y):
        if not cost <= spectral.RESIDUAL_THRESHOLD and np.isfinite(start).all():
            theta, cost, more = polish(start, y, freqs, norm2, floor, src)
            iterations += more
    if np.isnan(theta).any():
        raise FitDiverged("no finite closed-form start")
    if not cost <= spectral.RESIDUAL_THRESHOLD:
        raise FitDiverged(f"normalized residual {cost:.3e} above {spectral.RESIDUAL_THRESHOLD}")
    w0, g0, kap, eta, zeta, xi, g = theta
    if kap == 0:
        raise FitDiverged("fitted hopping kappa collapsed to 0")
    if not (w0 > 0 and g0 >= 0):
        raise FitDiverged(f"fitted omega0 = {w0:.6g} rad/s, gamma0 = {g0:.6g} rad/s: need omega0 > 0, gamma0 >= 0")
    point = ParamPoint(eta, zeta, xi, g)
    scale = PhysicalScale(omega0=w0, gamma0=g0, kappa=-abs(kap))
    wphys = to_physical(eigensystems(point.as_array()[None]).eigenvalues[0], scale)
    basis = 1.0 / (freqs[None, :] - wphys[:, None])
    t = solve(basis.T, y.T)[0].T
    nrm = np.linalg.norm(t, axis=0)
    if not (nrm > 0).all():
        raise FitDiverged(f"vanishing residue column for state {np.argmin(nrm) + 1}")
    gaps = [abs(wphys[i] - wphys[j]) for i in range(3) for j in range(i + 1, 3)]
    ident_flag = min(gaps) < 3 * (freqs[1] - freqs[0])
    if ident_flag:
        warnings.warn(f"eigenvalue gap {min(gaps):.1f} rad/s below 3x frequency spacing", IdentifiabilityWarning)
    a = t / nrm
    return spectral.FittedParams(
        point=point, scale=scale, eigenvalues=wphys, residual=cost, mode_coeffs_right=a,
        mode_coeffs_left=(a / np.sum(a * a, axis=0)).T, identifiability_warning=ident_flag,
        gauss_newton_iterations=iterations,
    )


def serial_fit_step(responses, config) -> spectral.FittedParams:
    """``spectral.fit_step`` one spectrum at a time: the closed-form starts
    of a stack of one, their polishes by :func:`serial_gauss_newton`, and
    the residues by ``spectral._lstsq`` on a stack of one."""
    return _fit_one(responses, config, lambda y: spectral._rational_starts(y[None], config)[0],
                    serial_gauss_newton, _stack_of_one)


def lstsq_fit_step(responses, config) -> spectral.FittedParams:
    """The fit of one spectrum as it was before the stacked solves, every
    least-squares problem solved by ``np.linalg.lstsq``: the starts of
    :func:`lstsq_rational_starts`, the polishes of :func:`lstsq_gauss_newton`
    and the residues."""
    return _fit_one(responses, config, lambda y: lstsq_rational_starts(y, config),
                    lstsq_gauss_newton, lambda a, b: np.linalg.lstsq(a, b, rcond=None))


#: the box that :func:`searched_fit` searches: omega0, gamma0, kappa, then eta, zeta, xi and g
SEARCH_BOX = ((19600.0, 19860.0), (30.0, 140.0), (-75.0, -25.0)) + ((-0.8, 0.8),) * 4


def searched_fit(responses, config, seed) -> np.ndarray:
    """theta of one spectrum found without the closed form: scipy's
    differential evolution over :data:`SEARCH_BOX` (64 members, 200
    generations) on the normalised site cost, then the polish of
    :func:`serial_gauss_newton` from its best member."""
    from scipy.optimize import differential_evolution

    (y,), (norm2,), (floor,) = spectral._site_responses(np.asarray(responses, dtype=complex)[None], config)
    freqs, src = config.frequencies(), config.source_site - 1

    def cost(population):                    # (7, S) members -> (S,) costs
        diff = spectral._response_matrix(population, freqs, src) - y
        return np.sum(np.abs(diff) ** 2, axis=(1, 2)) / norm2 + floor

    lo, hi = np.array(SEARCH_BOX).T
    init = lo + (hi - lo) * np.random.default_rng(seed).random((64, 7))
    de = differential_evolution(cost, bounds=SEARCH_BOX, init=init, maxiter=200, tol=1e-10, seed=seed,
                                polish=False, vectorized=True, updating="deferred")
    return serial_gauss_newton(de.x, y, freqs, norm2, floor, src)[0]
