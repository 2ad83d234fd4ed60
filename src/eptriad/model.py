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
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InaccurateEigensystem, RegimeWarning

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
            # one text for every point, so the default filter reports each
            # constructing line once instead of once per point
            warnings.warn(
                "parameters outside the validated regime |p| <= 1",
                RegimeWarning,
                stacklevel=_outside_stacklevel(),
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


def _outside_stacklevel() -> int:
    """``stacklevel`` naming the first caller outside this module.

    Counted from the function that calls :func:`warnings.warn`; it skips the
    dataclass-generated ``__init__`` and helpers such as ``replace``.
    """
    level, frame = 1, sys._getframe(1)
    while frame is not None and frame.f_globals.get("__name__") == __name__:
        level, frame = level + 1, frame.f_back
    return level


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


#: the off-diagonal part of kappa * (m + gain), its zeros signed as that product signs them
_H_HOPPING = -1.0 * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
_BANDS = np.arange(3)
_PAIR_I, _PAIR_J = np.array([0, 0, 1]), np.array([1, 2, 2])


def _hamiltonians(params: np.ndarray) -> np.ndarray:
    """The (L, 3, 3) Hamiltonians at the rows (eta, zeta, xi, g) of ``params``.

    Each diagonal entry is kappa * (onsite + gain), rounded as the one-matrix
    form kappa * (m + gain) rounds it.
    """
    eta, zeta, xi, g = params.T
    kappa = -1.0
    onsite = 1j + eta
    h = np.repeat(_H_HOPPING[None], len(params), axis=0)
    h[:, 0, 0] = kappa * (SQRT2 * onsite + 1j * SQRT2 * g)
    h[:, 1, 1] = kappa * ((1j * zeta + xi) + 0j)
    h[:, 2, 2] = kappa * (-SQRT2 * onsite + 1j * SQRT2 * -g)
    return h


def _poly_coeffs(eta, zeta, xi, g):
    """(a2, a1, a0) of det(wI - H); broadcasts over array arguments."""
    b = xi + 1j * zeta
    a1 = -2.0 * (eta + 1j * g) * (eta + 1j * (2.0 + g))
    a0 = -2.0 * b * (eta + 1j * (1.0 + g)) ** 2
    return b, a1, a0


def eigensystem(p: ParamPoint) -> Eigensystem:
    """Full eigensystem at one point: :func:`eigensystems` on a single row."""
    return eigensystems(p.as_array()[None]).row(0, p)


def eigensystems(params) -> "EigensystemStack":
    """Eigensystems at the rows (eta, zeta, xi, g) of an (L, 4) array.

    One stacked ``np.linalg.eig`` call; each row is ordered by ascending real
    part.  Right vectors have unit Euclidean norm; left rows satisfy
    L @ R = I away from degeneracies.  Raises nothing at EPs: the degenerate
    flag is set and left vectors whose bilinear norm vanishes fall back to
    plain (unscaled) transposes.  Raises InaccurateEigensystem when an
    eigenpair of any row fails the residual check.
    """
    params = np.asarray(params, dtype=float)
    if params.ndim != 2 or params.shape[1] != 4:
        raise ValueError(f"expected an (L, 4) parameter array, got shape {params.shape}")
    if not np.isfinite(params).all():
        raise ValueError("non-finite parameters")
    h = _hamiltonians(params)
    w, v = np.linalg.eig(h)
    at = np.arange(len(params))[:, None]
    order = np.argsort(w.real, axis=1, kind="stable")
    w = w[at, order]
    v = v[at[:, None], _BANDS[:, None], order[:, None, :]]
    v = v / np.linalg.norm(v, axis=1)[:, None, :]

    gaps = w[:, _PAIR_I] - w[:, _PAIR_J]
    min_gap = np.hypot(gaps.real, gaps.imag).min(axis=1)    # rounds as abs() of one scalar
    degenerate = min_gap < DEGENERACY_GAP
    # an exact EP splits numerically by ~eps^(1/2) or eps^(1/3), so the gap
    # test alone can miss it; the discriminant vanishes analytically there.
    # It is the product of the squared gaps, so a row whose smallest gap is
    # 0.1 or more has |disc| >= 1e-6 and needs no evaluation.
    near = np.flatnonzero(min_gap < 0.1)
    if len(near):
        degenerate[near] |= np.abs(discriminant_values(*params[near].T)) < 1e-12

    rows = v.transpose(0, 2, 1)                             # rows[l, j] = right vector j
    bil = (rows[:, :, None, :] @ rows[:, :, :, None])[:, :, 0, 0]
    plain = degenerate[:, None] & (np.abs(bil) < 1e-12)
    left = np.divide(rows, bil[:, :, None], out=rows.copy(), where=~plain[:, :, None])

    # squared residual norms against (1e-10 * max(||H||_F, 1))^2
    r = h @ v - v * w[:, None, :]
    resid2 = (r.real**2 + r.imag**2).sum(axis=1) / np.maximum((h.real**2 + h.imag**2).sum(axis=(1, 2)), 1.0)[:, None]
    if (resid2 > 1e-20).any():
        l, j = np.argwhere(resid2 > 1e-20)[0]
        raise InaccurateEigensystem(f"eigen residual {np.sqrt(resid2[l, j]):.2e} at {ParamPoint(*params[l])}")
    return EigensystemStack(params, w, v, left, degenerate, min_gap)


@dataclass(frozen=True, eq=False)
class EigensystemStack:
    """Eigensystems at L parameter points, stacked along a leading axis.

    Row l holds what :func:`eigensystem` returns at the point ``params[l]``.
    """

    params: np.ndarray             # (L, 4) rows (eta, zeta, xi, g)
    eigenvalues: np.ndarray        # (L, 3) complex
    right_vectors: np.ndarray      # (L, 3, 3) complex, columns
    left_vectors: np.ndarray       # (L, 3, 3) complex, rows
    is_degenerate: np.ndarray      # (L,) bool
    min_gap: np.ndarray            # (L,)

    def __len__(self) -> int:
        return len(self.params)

    @classmethod
    def of(cls, systems) -> "EigensystemStack":
        """Stack per-point eigensystems, e.g. fitted frames."""
        return cls(
            np.array([es.point.as_array() for es in systems]),
            np.array([es.eigenvalues for es in systems]),
            np.array([es.right_vectors for es in systems]),
            np.array([es.left_vectors for es in systems]),
            np.array([es.is_degenerate for es in systems]),
            np.array([es.min_gap for es in systems]),
        )

    def row(self, l: int, point: ParamPoint | None = None) -> Eigensystem:
        """Row ``l`` as an :class:`Eigensystem` (``point`` defaults to ``params[l]``)."""
        return Eigensystem(
            point=ParamPoint(*self.params[l]) if point is None else point,
            eigenvalues=self.eigenvalues[l],
            right_vectors=self.right_vectors[l],
            left_vectors=self.left_vectors[l],
            is_degenerate=bool(self.is_degenerate[l]),
            min_gap=float(self.min_gap[l]),
        )

    def insert(self, index, other: "EigensystemStack") -> "EigensystemStack":
        """A new stack with the rows of ``other`` inserted before rows ``index``."""
        return EigensystemStack(*(
            np.insert(getattr(self, f), index, getattr(other, f), axis=0)
            for f in ("params", "eigenvalues", "right_vectors", "left_vectors", "is_degenerate", "min_gap")
        ))


def discriminant_values(eta, zeta, xi, g):
    """Monic-cubic discriminant 18bcd - 4b^3 d + b^2 c^2 - 4c^3 - 27d^2; broadcasts."""
    b, c, d = _poly_coeffs(eta, zeta, xi, g)
    return 18 * b * c * d - 4 * b**3 * d + b**2 * c**2 - 4 * c**3 - 27 * d**2


def discriminant_formula(p: ParamPoint) -> complex:
    """:func:`discriminant_values` at one point.

    Equal to the Sylvester-matrix discriminant, but cheap; the locator
    checks every EP it returns against it.
    """
    return discriminant_values(p.eta, p.zeta, p.xi, p.g)


def to_physical(omega_dimensionless: complex, scale: PhysicalScale | None = None) -> complex:
    """Map a kappa = -1 dimensionless frequency to rad/s."""
    s = scale if scale is not None else PhysicalScale()
    return (s.omega0 + 1j * s.gamma0) + abs(s.kappa) * omega_dimensionless
