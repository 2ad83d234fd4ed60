"""Independent references that the tests compare the package against.

These are the closed-form cubic solver, the Sylvester-matrix discriminant
and its cubic-order small-parameter approximation.  The package computes
eigenvalues with ``np.linalg.eig`` and the discriminant from the closed
formula (``model.discriminant_values``); nothing in it calls these.
"""
import numpy as np

from eptriad.model import ParamPoint, PolyCoeffs, char_poly


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
