"""Three-site non-Hermitian model: Hamiltonian, spectrum, and discriminant.

Conventions used throughout the toolkit:

* the hopping is fixed to kappa = -1 (dimensionless); physical units enter
  only through :func:`to_physical`;
* site ordering is (B, A, C) with A the middle site, so the source/probe
  vectors are (1,0,0) for B, (0,1,0) for A, (0,0,1) for C;
* the matrix is complex symmetric, hence left eigenvectors are unconjugated
  transposes of right eigenvectors up to scale.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEigensystem, InaccurateEigensystem, RegimeWarning

SQRT2 = math.sqrt(2.0)

#: gap below which an eigensystem is flagged degenerate and
#: biorthonormalization is skipped
DEGENERACY_GAP = 1e-6


@dataclass(frozen=True)
class ParamPoint:
    """A location (eta, zeta, xi; g) in the dimensionless parameter space.

    eta  -- onsite detuning of sites B/C
    zeta -- loss of site A
    xi   -- detuning of site A
    g    -- differential gain/loss of sites B/C
    """

    eta: float
    zeta: float
    xi: float
    g: float = 0.0

    def __post_init__(self):
        vals = (self.eta, self.zeta, self.xi, self.g)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"non-finite parameters {vals}")
        if not self.in_validated_regime:
            warnings.warn(
                f"parameters {vals} outside the validated regime |p| <= 1",
                RegimeWarning,
                stacklevel=2,
            )

    @property
    def in_validated_regime(self) -> bool:
        return max(abs(self.eta), abs(self.zeta), abs(self.xi), abs(self.g)) <= 1.0

    def as_array(self) -> np.ndarray:
        return np.array([self.eta, self.zeta, self.xi, self.g])

    def replace(self, **kw) -> "ParamPoint":
        d = {"eta": self.eta, "zeta": self.zeta, "xi": self.xi, "g": self.g}
        d.update(kw)
        return ParamPoint(**d)


@dataclass(frozen=True)
class PolyCoeffs:
    """Monic cubic coefficients a3*w^3 + a2*w^2 + a1*w + a0 with a3 = 1."""

    a3: complex
    a2: complex
    a1: complex
    a0: complex

    def __post_init__(self):
        if self.a3 != 1:
            raise ValueError("characteristic polynomial must be monic")

    def __call__(self, w: complex) -> complex:
        return ((self.a3 * w + self.a2) * w + self.a1) * w + self.a0

    def derivative(self, w: complex) -> complex:
        return (3 * self.a3 * w + 2 * self.a2) * w + self.a1

    def second_derivative(self, w: complex) -> complex:
        return 6 * self.a3 * w + 2 * self.a2


@dataclass(frozen=True)
class PhysicalScale:
    """Physical frequency scale: pole = (omega0 + i*gamma0) + |kappa| * w_dimless."""

    omega0: float = 19729.0     # rad/s, onsite resonance
    gamma0: float = 83.5        # rad/s, intrinsic loss
    kappa: float = -49.5        # rad/s, hopping (negative)

    def __post_init__(self):
        if not (self.omega0 > 0 and self.gamma0 >= 0 and self.kappa < 0):
            raise ValueError("require omega0 > 0, gamma0 >= 0, kappa < 0")


@dataclass(frozen=True)
class Eigensystem:
    """Eigenvalues with biorthonormal left/right eigenvectors at a point.

    right_vectors: columns are unit-Euclidean-norm right eigenvectors.
    left_vectors: rows are left covectors scaled so left_i @ right_i = 1
    (skipped when degenerate).  Ordering is ascending real part.
    """

    point: ParamPoint
    eigenvalues: np.ndarray        # (3,) complex
    right_vectors: np.ndarray      # (3, 3) complex, columns
    left_vectors: np.ndarray       # (3, 3) complex, rows
    is_degenerate: bool
    min_gap: float


def build_h_ep(p: ParamPoint) -> np.ndarray:
    """Assemble the 3x3 dimensionless Hamiltonian (kappa = -1, sites B,A,C)."""
    kappa = -1.0
    m = np.array(
        [
            [SQRT2 * (1j + p.eta), 1.0, 0.0],
            [1.0, 1j * p.zeta + p.xi, 1.0],
            [0.0, 1.0, -SQRT2 * (1j + p.eta)],
        ],
        dtype=complex,
    )
    gain = 1j * SQRT2 * np.diag([p.g, 0.0, -p.g]).astype(complex)
    return kappa * (m + gain)


def _poly_coeffs(eta, zeta, xi, g):
    """(a2, a1, a0) of det(wI - H); broadcasts over array arguments."""
    b = xi + 1j * zeta
    a1 = -2.0 * (eta + 1j * g) * (eta + 1j * (2.0 + g))
    a0 = -2.0 * b * (eta + 1j * (1.0 + g)) ** 2
    return b, a1, a0


def char_poly(p: ParamPoint) -> PolyCoeffs:
    """Coefficients of det(wI - H) for the kappa = -1 Hamiltonian."""
    return PolyCoeffs(1.0 + 0j, *_poly_coeffs(p.eta, p.zeta, p.xi, p.g))


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


def eigensystem(p: ParamPoint) -> Eigensystem:
    """Full eigensystem, ordered by ascending real part.

    Right vectors have unit Euclidean norm; left rows satisfy L @ R = I
    away from degeneracies.  Raises nothing at EPs: the degenerate flag is
    set and left vectors fall back to plain (unscaled) transposes.  Raises
    InaccurateEigensystem when an eigenpair fails the residual check.
    """
    h = build_h_ep(p)
    w, v = np.linalg.eig(h)
    order = np.argsort(w.real, kind="stable")
    w = w[order]
    v = v[:, order]
    v = v / np.linalg.norm(v, axis=0)

    gaps = [abs(w[i] - w[j]) for i in range(3) for j in range(i + 1, 3)]
    min_gap = min(gaps)
    # an exact EP splits numerically by ~eps^(1/2) or eps^(1/3), so the gap
    # test alone can miss it; the discriminant vanishes analytically there
    degenerate = min_gap < DEGENERACY_GAP or abs(discriminant_formula(p)) < 1e-12

    left = np.empty((3, 3), dtype=complex)
    for j in range(3):
        bil = v[:, j] @ v[:, j]
        if degenerate and abs(bil) < 1e-12:
            left[j, :] = v[:, j]
        else:
            left[j, :] = v[:, j] / bil

    hnorm = np.linalg.norm(h)
    for j in range(3):
        resid = np.linalg.norm(h @ v[:, j] - w[j] * v[:, j]) / max(hnorm, 1.0)
        if resid > 1e-10:
            raise InaccurateEigensystem(f"eigen residual {resid:.2e} at {p}")
    return Eigensystem(
        point=p,
        eigenvalues=w,
        right_vectors=v,
        left_vectors=left,
        is_degenerate=degenerate,
        min_gap=min_gap,
    )


def require_biorthonormal(es: Eigensystem) -> None:
    """Raise DegenerateEigensystem unless the biorthonormal contract holds."""
    if es.is_degenerate:
        raise DegenerateEigensystem(es.min_gap)
    gram = es.left_vectors @ es.right_vectors
    if np.max(np.abs(gram - np.eye(3))) > 1e-8:
        raise DegenerateEigensystem(es.min_gap)


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


def discriminant_values(eta, zeta, xi, g):
    """Monic-cubic discriminant 18bcd - 4b^3 d + b^2 c^2 - 4c^3 - 27d^2; broadcasts."""
    b, c, d = _poly_coeffs(eta, zeta, xi, g)
    return 18 * b * c * d - 4 * b**3 * d + b**2 * c**2 - 4 * c**3 - 27 * d**2


def discriminant_formula(p: ParamPoint) -> complex:
    """:func:`discriminant_values` at one point.

    Same value as :func:`discriminant` but cheap and exactly differentiable;
    used by the locator's Newton iterations.
    """
    return discriminant_values(p.eta, p.zeta, p.xi, p.g)


def discriminant_gradient(p: ParamPoint) -> dict[str, complex]:
    """Exact d(discriminant)/d(eta, zeta, xi, g) by the coefficient chain rule."""
    b = p.xi + 1j * p.zeta
    u = p.g - 1j * p.eta
    c = 2 * u * (2 + u)
    d = 2 * b * (1 + u) ** 2
    disc_b = 18 * c * d - 12 * b**2 * d + 2 * b * c**2
    disc_c = 18 * b * d + 2 * b**2 * c - 12 * c**2
    disc_d = 18 * b * c - 4 * b**3 - 54 * d
    dc_du = 4 + 4 * u
    dd_db = 2 * (1 + u) ** 2
    dd_du = 4 * b * (1 + u)
    db = {"eta": 0.0, "zeta": 1j, "xi": 1.0, "g": 0.0}
    du = {"eta": -1j, "zeta": 0.0, "xi": 0.0, "g": 1.0}
    return {
        k: disc_b * db[k] + disc_c * dc_du * du[k] + disc_d * (dd_db * db[k] + dd_du * du[k])
        for k in ("eta", "zeta", "xi", "g")
    }


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


def to_physical(omega_dimensionless: complex, scale: PhysicalScale | None = None) -> complex:
    """Map a kappa = -1 dimensionless frequency to rad/s."""
    s = scale if scale is not None else PhysicalScale()
    return (s.omega0 + 1j * s.gamma0) + abs(s.kappa) * omega_dimensionless
