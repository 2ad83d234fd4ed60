"""Independent references that the tests compare the package against.

These are the Hamiltonian written out entry by entry, the characteristic
polynomial as a callable cubic, the closed-form cubic solver, the
Sylvester-matrix discriminant and its cubic-order small-parameter
approximation, the per-point repeated root by ``np.roots``, the Green's
function by dense linear solves and the multiband Berry phase of a
unimodular matrix.  The package builds its Hamiltonians as one stacked
array (``model._hamiltonians``), computes eigenvalues with
``np.linalg.eig``, the discriminant from the closed formula
(``model.discriminant_values``), repeated roots from the closed-form double
root of the cubic (``locate._ep_points``), the Green's function from the
closed-form adjugate of the tridiagonal resolvent and Θ from the
transported holonomy with its permutation parity divided out; nothing in
it calls these.  The cubic's coefficients come from the package's formula
(``model._poly_coeffs``), which ``test_model.TestCharPoly`` holds to a
determinant expansion.
"""
import cmath
from dataclasses import dataclass

import numpy as np

from eptriad.errors import NonUnimodularDeterminant
from eptriad.model import ParamPoint, _poly_coeffs


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


def solved_response(theta, freqs, n_pos: int, src: int) -> np.ndarray:
    """The (3 * n_pos, n_freq) spectrum of the forward model, one solve per frequency.

    Column ``src`` (0-based site) of :func:`solved_greens` at each frequency,
    times cos(2 pi z) at n_pos equally spaced interior heights (unit norm) and
    times that profile's top sample, stacked per site (B, A, C).
    """
    g = np.array([solved_greens(theta, w)[:, src] for w in freqs]).T     # (3 sites, n_freq)
    v = np.cos(2 * np.pi * (np.arange(1, n_pos + 1) - 0.5) / n_pos)
    phi = v / np.linalg.norm(v)
    return np.concatenate([np.outer(phi * phi[-1], row) for row in g])


def berry_phase(u: np.ndarray) -> float:
    """Multiband Berry phase -Im[ln det U] of a (near-)unimodular matrix."""
    det = complex(np.linalg.det(np.asarray(u, dtype=complex)))
    if abs(abs(det) - 1.0) > 1e-6:
        raise NonUnimodularDeterminant(f"|det U| = {abs(det):.8f}")
    return -cmath.log(det).imag
