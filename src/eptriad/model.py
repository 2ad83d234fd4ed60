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

import contextvars
import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InaccurateEigensystem, RegimeWarning

SQRT2 = math.sqrt(2.0)

#: gap below which an eigensystem is flagged degenerate and
#: biorthonormalization is skipped
DEGENERACY_GAP = 1e-6

#: rows per chunk below which :func:`eigensystems` starts no thread: a stack
#: is split only when each of at least two chunks gets this many rows
_MIN_CHUNK_ROWS = 256

#: the one RegimeWarning text, so the default filter reports each warning line once
OUTSIDE_REGIME = "parameters outside the validated regime |p| <= 1"


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
            # reported once per constructing line, not once per point
            warnings.warn(OUTSIDE_REGIME, RegimeWarning, stacklevel=_outside_stacklevel())

    @property
    def in_validated_regime(self) -> bool:
        return max(abs(self.eta), abs(self.zeta), abs(self.xi), abs(self.g)) <= 1.0

    def as_array(self) -> np.ndarray:
        return np.array([self.eta, self.zeta, self.xi, self.g])

    @classmethod
    def from_row(cls, row) -> "ParamPoint":
        """The point of an array row (eta, zeta, xi, g), held as Python
        floats so that its text names plain numbers, not ``np.float64``."""
        return cls(*np.asarray(row, dtype=float).tolist())


def _outside_stacklevel() -> int:
    """``stacklevel`` naming the first caller outside this module.

    Counted from the function that calls :func:`warnings.warn`; it skips the
    dataclass-generated ``__init__``.
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
        if not (0 < self.omega0 < math.inf and 0 <= self.gamma0 < math.inf and -math.inf < self.kappa < 0):
            raise ValueError("require finite omega0 > 0, gamma0 >= 0, kappa < 0")


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

    Each row is ordered by ascending real part.  Right vectors have unit
    Euclidean norm; left rows satisfy L @ R = I away from degeneracies.
    Raises nothing at EPs: the degenerate flag is set and left vectors whose
    bilinear norm vanishes fall back to plain (unscaled) transposes.  Raises
    InaccurateEigensystem, naming the first failing row's point, when an
    eigenpair of any row fails the residual check.

    A stack of at least ``2 * _MIN_CHUNK_ROWS`` rows is split into contiguous
    chunks, one per usable CPU, solved on threads; a smaller one is one
    stacked ``np.linalg.eig`` call.  Each row's eigensystem is the one a lone
    solve gives, so the result does not depend on the chunking.
    """
    return _stack(params, _solve_rows)


def sheet_frames(params) -> "EigensystemStack":
    """:func:`eigensystems` with closed-form right vectors, for band matching.

    The eigenvalues are one stacked ``np.linalg.eigvals``, which gives the
    bits of ``np.linalg.eig``'s; each right vector is the largest column of
    the adjugate of H - w, so it differs from LAPACK's by a phase and
    rounding.  The left rows, degenerate flags, smallest gaps, residual
    check and chunking are those of :func:`eigensystems`.
    """
    return _stack(params, _sheet_rows)


def _stack(params, solve) -> "EigensystemStack":
    """The :class:`EigensystemStack` that the row solver ``solve`` gives at
    ``params``, chunked and residual-checked as :func:`eigensystems` says."""
    params = np.asarray(params, dtype=float)
    if params.ndim != 2 or params.shape[1] != 4:
        raise ValueError(f"expected an (L, 4) parameter array, got shape {params.shape}")
    if not np.isfinite(params).all():
        raise ValueError("non-finite parameters")
    chunks = min(_usable_cpus(), len(params) // _MIN_CHUNK_ROWS) if len(params) >= 2 * _MIN_CHUNK_ROWS else 1
    if chunks < 2:
        w, v, left, degenerate, min_gap, resid2 = solve(params)
    else:
        w, v, left, degenerate, min_gap, resid2 = (
            np.concatenate(part) for part in zip(*_solve_chunks(np.array_split(params, chunks), solve))
        )
    if (resid2 > 1e-20).any():
        l, j = np.argwhere(resid2 > 1e-20)[0]
        raise InaccurateEigensystem(f"eigen residual {np.sqrt(resid2[l, j]):.2e} at {ParamPoint.from_row(params[l])}")
    return EigensystemStack(params, w, v, left, degenerate, min_gap)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


def _solve_chunks(chunks: list, solve) -> list:
    """The row solver ``solve`` on each chunk: the first on this thread, the
    rest on a pool made for this call, each in a copy of this thread's context
    (its ``np.errstate``).  numpy's eigensolvers release the GIL while they run."""
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(len(chunks) - 1) as pool:
        rest = [pool.submit(contextvars.copy_context().run, solve, chunk) for chunk in chunks[1:]]
        first = solve(chunks[0])
        return [first] + [future.result() for future in rest]


def _solve_rows(params: np.ndarray) -> tuple:
    """Sorted eigenvalues, normalized right vectors, left rows, degenerate
    flags, smallest gaps and squared relative residual norms of each row.

    Runs on worker threads: it must call no name that a tracer may rebind.
    """
    h = _hamiltonians(params)
    w, v = np.linalg.eig(h)
    order = np.argsort(w.real, axis=1, kind="stable")
    w = np.take_along_axis(w, order, axis=1)
    v = np.take_along_axis(v, order[:, None, :], axis=2)
    return _frames(params, h, w, v)


def _sheet_rows(params: np.ndarray) -> tuple:
    """:func:`_solve_rows` with the eigenvalues of ``np.linalg.eigvals`` and
    each right vector the largest adjugate column of H - w
    (:func:`_adjugate_vectors`); it too runs on worker threads."""
    h = _hamiltonians(params)
    w = np.linalg.eigvals(h)
    w = np.take_along_axis(w, np.argsort(w.real, axis=1, kind="stable"), axis=1)
    return _frames(params, h, w, _adjugate_vectors(h, w))


def _adjugate_vectors(h: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Right vectors (columns) of the Hamiltonians ``h`` for their eigenvalues ``w``.

    H - w is tridiagonal with (a, b, c) on its diagonal and the hopping -1
    off it, so its adjugate has the columns (bc - 1, c, 1), (c, ac, a) and
    (1, a, ab - 1), each a multiple of the eigenvector of a simple w.  One
    may vanish (the middle one where a = c = 0, as for w = 0 at eta = 0,
    g = -1), so the one of largest norm is taken.

    Only directions matter.  As LAPACK's ``geev`` scales a matrix whose
    entries leave a safe range, a stack where a real or imaginary part of
    a, b or c reaches 2^100 is solved scaled: a, b and c by a power of two
    s <= 1 that puts their parts below 1 (the columns then scale by s^2,
    and each 1 becomes s^2), and each chosen column by a power of two that
    puts its largest part in [0.5, 1).  Unscaled, |a c|^2 overflowed once
    |xi| passed about 1e77; below 2^100 no product overflows, and no norm
    underflows, as each column holds a 1.  While no part turns subnormal,
    the scales change no bit of a normalized column.
    """
    a, b, c = (h[:, i, i, None] - w for i in range(3))             # (L, 3) each, per eigenvalue
    abc = np.stack((a, b, c), axis=1)
    scaled = not np.abs(abc.view(float)).max() < 2.0**100
    s = np.ldexp(1.0, -_exponents(abc).clip(0)) if scaled else 1.0
    a, b, c, one = a * s, b * s, c * s, s * s
    bc, ab = b * c - one, a * b - one
    a2, c2 = a.real**2 + a.imag**2, c.real**2 + c.imag**2
    k = np.argmax([bc.real**2 + bc.imag**2 + c2 * one + one * one, (a2 + one) * c2 + a2 * one,
                   a2 * one + ab.real**2 + ab.imag**2 + one * one], axis=0)
    v = np.stack([np.choose(k, (bc, c * s, one)), np.choose(k, (c * s, a * c, a * s)),
                  np.choose(k, (one, a * s, ab))], axis=1)
    # the clip keeps 2^-e finite
    return v * np.ldexp(1.0, -_exponents(v).clip(-1000))[:, None, :] if scaled else v


def _exponents(z: np.ndarray) -> np.ndarray:
    """The binary exponent e (``np.frexp``'s) of the largest real or
    imaginary part along axis 1 of the complex array ``z``: each part is
    below 2^e, and the largest at least 2^(e - 1)."""
    return np.frexp(np.maximum(np.abs(z.real), np.abs(z.imag)).max(axis=1))[1]


def _frames(params: np.ndarray, h: np.ndarray, w: np.ndarray, v: np.ndarray) -> tuple:
    """What a row solver returns for the sorted eigenvalues ``w`` and the right
    vectors ``v`` (columns, any length, normalized in place) of the
    Hamiltonians ``h`` at ``params``.

    It makes no stacked complex matrix product, so H v is written out.  A
    stacked complex ``h @ v`` over 5 000 rows took 0.97 ms on one thread and
    about 4.6 ms on each of two threads running it at once (one BLAS thread
    each), while ``np.linalg.eig``, elementwise products and the vector
    products of the bilinear forms below barely slowed down.
    """
    v /= np.sqrt((v.conj() * v).real.sum(axis=1))[:, None, :]

    min_gap = min_gaps(w)
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

    # squared residual norms against (1e-10 * max(||H||_F, 1))^2, with
    # (H v)[l, i, j] = sum_k h[l, i, k] v[l, k, j] written out over k
    hv = h[:, :, 0, None] * v[:, None, 0] + h[:, :, 1, None] * v[:, None, 1] + h[:, :, 2, None] * v[:, None, 2]
    r = hv - v * w[:, None, :]
    resid2 = (r.real**2 + r.imag**2).sum(axis=1) / np.maximum((h.real**2 + h.imag**2).sum(axis=(1, 2)), 1.0)[:, None]
    return w, v, left, degenerate, min_gap, resid2


def min_gaps(w: np.ndarray) -> np.ndarray:
    """The smallest distance between the three eigenvalues of each row of an
    (L, 3) array; hypot rounds as abs() of one complex scalar does."""
    gaps = w[:, _PAIR_I] - w[:, _PAIR_J]
    return np.hypot(gaps.real, gaps.imag).min(axis=1)


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

    def row(self, l: int, point: ParamPoint | None = None) -> Eigensystem:
        """Row ``l`` as an :class:`Eigensystem` (``point`` defaults to ``params[l]``)."""
        return Eigensystem(
            point=ParamPoint.from_row(self.params[l]) if point is None else point,
            eigenvalues=self.eigenvalues[l],
            right_vectors=self.right_vectors[l],
            left_vectors=self.left_vectors[l],
            is_degenerate=bool(self.is_degenerate[l]),
            min_gap=float(self.min_gap[l]),
        )


def discriminant_values(eta, zeta, xi, g):
    """Monic-cubic discriminant 18bcd - 4b^3 d + b^2 c^2 - 4c^3 - 27d^2; broadcasts.

    (b, c, d) are those of :func:`_poly_coeffs`.  Each complex product, sum
    and power is written out on real and imaginary parts as CPython computes
    it on Python numbers (a real factor k is k + 0j; x**2 = 1 * (x x) and
    x**3 = (1 * x)(x x)), so a call on floats has the bits of that complex
    expression and an array call has the bits of the scalar call at every
    entry.  An overflow gives a value that is not finite, not OverflowError;
    an array call may warn (see ``np.errstate``).
    """
    # b = xi + 1j * zeta; zr, zi are 0.0 times b's parts
    br, bi = xi + 0.0 * zeta, 0.0 + zeta
    zr, zi = 0.0 * br, 0.0 * bi
    # c = -2.0 * (eta + 1j * g) * (eta + 1j * (2.0 + g))
    ur, ui = eta + 0.0 * g, 0.0 + g
    mr, mi = -2.0 * ur - 0.0 * ui, -2.0 * ui + 0.0 * ur
    s = 2.0 + g
    ur, ui = eta + 0.0 * s, 0.0 + s
    cr, ci = mr * ur - mi * ui, mr * ui + mi * ur
    # d = -2.0 * b * (eta + 1j * (1.0 + g)) ** 2
    s = 1.0 + g
    ur, ui = eta + 0.0 * s, 0.0 + s
    qr, qi = ur * ur - ui * ui, ur * ui + ui * ur
    qr, qi = qr - 0.0 * qi, qi + 0.0 * qr
    mr, mi = -2.0 * br - zi, -2.0 * bi + zr
    dr, di = mr * qr - mi * qi, mr * qi + mi * qr
    # 18 * b * c * d
    tr, ti = 18.0 * br - zi, 18.0 * bi + zr
    tr, ti = tr * cr - ti * ci, tr * ci + ti * cr
    t1r, t1i = tr * dr - ti * di, tr * di + ti * dr
    # 4 * b**3 * d
    bbr, bbi = br * br - bi * bi, br * bi + bi * br
    tr, ti = br - zi, bi + zr
    tr, ti = tr * bbr - ti * bbi, tr * bbi + ti * bbr
    tr, ti = 4.0 * tr - 0.0 * ti, 4.0 * ti + 0.0 * tr
    t2r, t2i = tr * dr - ti * di, tr * di + ti * dr
    # b**2 * c**2
    pr, pi = bbr - 0.0 * bbi, bbi + 0.0 * bbr
    ccr, cci = cr * cr - ci * ci, cr * ci + ci * cr
    tr, ti = ccr - 0.0 * cci, cci + 0.0 * ccr
    t3r, t3i = pr * tr - pi * ti, pr * ti + pi * tr
    # 4 * c**3
    tr, ti = cr - 0.0 * ci, ci + 0.0 * cr
    tr, ti = tr * ccr - ti * cci, tr * cci + ti * ccr
    t4r, t4i = 4.0 * tr - 0.0 * ti, 4.0 * ti + 0.0 * tr
    # 27 * d**2
    tr, ti = dr * dr - di * di, dr * di + di * dr
    tr, ti = tr - 0.0 * ti, ti + 0.0 * tr
    t5r, t5i = 27.0 * tr - 0.0 * ti, 27.0 * ti + 0.0 * tr
    re, im = (((t1r - t2r) + t3r) - t4r) - t5r, (((t1i - t2i) + t3i) - t4i) - t5i
    if isinstance(re, float):
        return complex(re, im)
    out = np.asarray(re, dtype=complex)
    out.imag = im
    return out


#: Chebyshev-Lobatto nodes t of a segment, and the inverse Vandermonde matrix in s = 2t - 1
_NODES = (1 + np.cos(np.pi * np.arange(7) / 6)[:, None]) / 2
_INV_VANDERMONDE = np.linalg.inv(np.vander(2 * _NODES[:, 0] - 1, increasing=True))


def discriminant_roots(points: np.ndarray) -> np.ndarray:
    """The roots t of disc((1 - t) p + t q) on each segment p -> q of the polygon through
    the (K + 1, 4) ``points``: (K, 6) complex, inf where the degree is below 6.  H is affine in
    (eta, zeta, xi, g), so disc is a polynomial of degree at most 6 in t, which 7 nodes give,
    and its roots are its companion matrix's eigenvalues.  ValueError if it is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        disc = discriminant_values(*((1 - _NODES) * points[:-1, None] + _NODES * points[1:, None]).T)
        coef = (_INV_VANDERMONDE @ disc).T                                   # (K, 7), ascending in s
    if not np.isfinite(coef).all():
        raise ValueError("the discriminant along a loop segment is not finite")
    roots, full = np.full((len(coef), 6), np.inf, dtype=complex), coef[:, 6] != 0
    companion = np.repeat(np.eye(6, k=-1, dtype=complex)[None], full.sum(), axis=0)
    companion[:, 0] = -coef[full, 5::-1] / coef[full, 6:]
    roots[full] = (1 + np.linalg.eigvals(companion)) / 2
    for k in np.flatnonzero(~full):     # np.roots drops the zero leading coefficients
        s = np.roots(coef[k, ::-1])
        roots[k, :len(s)] = (1 + s) / 2
    return roots


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
