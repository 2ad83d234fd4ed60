import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eptriad.errors import RegimeWarning
from eptriad.model import (
    ParamPoint,
    PhysicalScale,
    _hamiltonians,
    discriminant_formula,
    discriminant_values,
    eigensystem,
    to_physical,
)
from oracles import (
    PolyCoeffs,
    char_poly,
    complex_discriminant,
    cubic_roots,
    discriminant,
    discriminant_small_param,
    eigenvalues,
    hamiltonian,
    sylvester_matrix,
)

SQRT2 = np.sqrt(2.0)

params = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


def random_point(eta, zeta, xi, g) -> ParamPoint:
    return ParamPoint(eta, zeta, xi, g)


class TestParamPoint:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ParamPoint(np.nan, 0, 0, 0)

    def test_warns_outside_regime(self):
        with pytest.warns(RegimeWarning):
            ParamPoint(1.5, 0, 0, 0)

    def test_in_regime_silent(self):
        p = ParamPoint(0.9, -0.9, 0.5, 0.61)
        assert p.in_validated_regime


def built_h(p: ParamPoint) -> np.ndarray:
    """The package's Hamiltonian at one point: one row of the stacked builder."""
    return _hamiltonians(p.as_array()[None])[0]


class TestHamiltonian:
    def test_origin(self):
        h = built_h(ParamPoint(0, 0, 0, 0))
        expected = np.array(
            [[-SQRT2 * 1j, -1, 0], [-1, 0, -1], [0, -1, SQRT2 * 1j]], dtype=complex
        )
        assert np.allclose(h, expected, atol=1e-15)

    def test_gain_term(self):
        h = built_h(ParamPoint(0, 0, 0, 0.61))
        assert np.isclose(h[0, 0], -1.61 * SQRT2 * 1j)
        assert np.isclose(h[2, 2], 1.61 * SQRT2 * 1j)
        assert np.isclose(h[1, 1], 0)

    def test_detuned_corner(self):
        h = built_h(ParamPoint(0.33, 0, 0, 0.61))
        assert np.isclose(h[0, 0], -SQRT2 * (0.33 + 1.61j))
        assert np.isclose(h[1, 1], 0)

    @given(params, params, params, params)
    @settings(max_examples=200, deadline=None)
    def test_complex_symmetric(self, eta, zeta, xi, g):
        p = ParamPoint(eta, zeta, xi, g)
        h = built_h(p)
        assert np.allclose(h, h.T, atol=1e-15)
        assert np.allclose(h, hamiltonian(p), rtol=0, atol=1e-14)


def _coeffs_from_determinant(p: ParamPoint) -> np.ndarray:
    """Independent oracle: sample det(wI - H) and solve for the coefficients."""
    h = hamiltonian(p)
    ws = np.array([0.7 + 0.3j, -1.1 + 0.9j, 1.9 - 1.3j, -0.4 - 2.1j])
    vals = np.array([np.linalg.det(w * np.eye(3) - h) for w in ws])
    vander = np.vander(ws, 4)   # columns w^3, w^2, w, 1
    return np.linalg.solve(vander, vals)


class TestCharPoly:
    def test_all_zero(self):
        co = char_poly(ParamPoint(0, 0, 0, 0))
        assert (co.a3, co.a2, co.a1, co.a0) == (1, 0, 0, 0)

    def test_xi_only(self):
        co = char_poly(ParamPoint(0, 0, 0.1, 0))
        assert np.isclose(co.a2, 0.1)
        assert np.isclose(co.a1, 0)
        assert np.isclose(co.a0, 0.2)

    def test_gain_only(self):
        co = char_poly(ParamPoint(0, 0, 0, 0.61))
        assert np.isclose(co.a2, 0)
        assert np.isclose(co.a1, 2 * 0.61 * (2 + 0.61))   # 3.1842
        assert np.isclose(co.a0, 0)

    @given(params, params, params, params)
    @settings(max_examples=300, deadline=None)
    def test_matches_determinant_expansion(self, eta, zeta, xi, g):
        p = ParamPoint(eta, zeta, xi, g)
        co = char_poly(p)
        ref = _coeffs_from_determinant(p)
        got = np.array([co.a3, co.a2, co.a1, co.a0])
        assert np.max(np.abs(got - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))

    def test_thousand_random_points(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            p = ParamPoint(*rng.uniform(-1, 1, 4))
            co = char_poly(p)
            ref = _coeffs_from_determinant(p)
            got = np.array([co.a3, co.a2, co.a1, co.a0])
            assert np.max(np.abs(got - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))


coeff = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)


class TestCubicSolver:
    def test_triple_root_at_origin(self):
        roots = eigenvalues(ParamPoint(0, 0, 0, 0))
        assert np.max(np.abs(roots)) < 1e-10

    def test_pure_imaginary_pair(self):
        roots = eigenvalues(ParamPoint(0, 0, 0, 0.61))
        c = 2 * 0.61 * 2.61
        for expected in (-1j * np.sqrt(c), 0.0, 1j * np.sqrt(c)):
            assert np.min(np.abs(roots - expected)) < 1e-10

    def test_against_companion_example(self):
        co = char_poly(ParamPoint(0, 0, 0.1, 0))
        mine = cubic_roots(co)
        ref = np.roots([1, co.a2, co.a1, co.a0])
        for r in ref:
            assert np.min(np.abs(mine - r)) < 1e-10

    @given(coeff, coeff, coeff)
    @settings(max_examples=300, deadline=None)
    def test_companion_oracle(self, b, c, d):
        co = PolyCoeffs(1.0 + 0j, b, c, d)
        mine = cubic_roots(co)
        ref = np.roots([1.0, b, c, d])
        gaps = [abs(ref[i] - ref[j]) for i in range(3) for j in range(i + 1, 3)]
        # root values of clustered cubics are conditioned like eps^(1/2..1/3),
        # so the tight cross-check applies away from degeneracies
        tol = 1e-10 if min(gaps) > 1e-3 else 3e-6
        for r in ref:
            assert np.min(np.abs(mine - r)) < tol * max(1.0, abs(r))

    def test_degenerate_cubics(self):
        # double root: (w - 1)^2 (w + 5), triple root: (w - 2j)^3
        cases = [
            (PolyCoeffs(1, 3.0 + 0j, -9.0 + 0j, 5.0 + 0j), [1.0, 1.0, -5.0]),
            (PolyCoeffs(1, -6j, -12.0 + 0j, 8j), [2j, 2j, 2j]),
        ]
        for co, roots in cases:
            mine = cubic_roots(co)
            for r in roots:
                assert np.min(np.abs(mine - r)) < 1e-4

    def test_large_coefficients(self):
        # a root near -1e6 leaves the closed form a scaled residual above
        # 1e-8, so this exercises the companion-matrix fallback
        co = PolyCoeffs(1.0 + 0j, 1e6 + 0j, 1e6j, -1e6 + 0j)
        mine = cubic_roots(co)
        for r in np.roots([1.0, co.a2, co.a1, co.a0]):
            assert np.min(np.abs(mine - r)) < 1e-10 * max(1.0, abs(r))

    def test_ten_thousand_random_coefficient_sets(self):
        rng = np.random.default_rng(13)
        for _ in range(10_000):
            b, c, d = (complex(*rng.uniform(-10, 10, 2)) for _ in range(3))
            co = PolyCoeffs(1.0 + 0j, b, c, d)
            mine = cubic_roots(co)
            ref = np.roots([1.0, b, c, d])
            gaps = [abs(ref[i] - ref[j]) for i in range(3) for j in range(i + 1, 3)]
            tol = 1e-10 if min(gaps) > 1e-3 else 3e-6
            for r in ref:
                assert np.min(np.abs(mine - r)) < tol * max(1.0, abs(r))


class TestEigensystem:
    @pytest.mark.parametrize(
        "p", [ParamPoint(0.33, 0.1, -0.2, 0.61), ParamPoint(0.33, 0, 0, 0.61)], ids=["generic", "detuned_corner"]
    )
    def test_biorthonormal_away_from_eps(self, p):
        es = eigensystem(p)
        assert not es.is_degenerate
        gram = es.left_vectors @ es.right_vectors
        assert np.max(np.abs(gram - np.eye(3))) < 1e-8

    def test_right_vectors_unit_norm(self):
        es = eigensystem(ParamPoint(0.2, -0.3, 0.4, 0.61))
        assert np.allclose(np.linalg.norm(es.right_vectors, axis=0), 1.0)

    def test_left_is_transpose_up_to_scale(self):
        es = eigensystem(ParamPoint(0.33, 0, 0, 0.61))
        h = hamiltonian(es.point)
        for j in range(3):
            l, r = es.left_vectors[j], es.right_vectors[:, j]
            # genuine left eigenvector: l H = w l
            assert np.linalg.norm(l @ h - es.eigenvalues[j] * l) < 1e-10 * np.linalg.norm(h)
            # and collinear (complex sense) with the unconjugated right vector
            overlap = np.abs(np.vdot(l, r)) ** 2 / (np.vdot(l, l).real * np.vdot(r, r).real)
            assert overlap > 1 - 1e-10

    def test_degenerate_flag_at_nexus(self):
        es = eigensystem(ParamPoint(0, 0, 0, 0))
        assert es.is_degenerate

    @given(params, params, params, params)
    @settings(max_examples=100, deadline=None)
    def test_residuals(self, eta, zeta, xi, g):
        p = ParamPoint(eta, zeta, xi, g)
        es = eigensystem(p)
        h = hamiltonian(p)
        for j in range(3):
            res = np.linalg.norm(h @ es.right_vectors[:, j] - es.eigenvalues[j] * es.right_vectors[:, j])
            assert res < 1e-10 * max(1.0, np.linalg.norm(h))


class TestDiscriminant:
    def test_zero_at_nexus(self):
        assert abs(discriminant(ParamPoint(0, 0, 0, 0))) < 1e-14

    def test_xi_detuned(self):
        val = discriminant(ParamPoint(0, 0, 0.1, 0))
        assert np.isclose(val, -1.0808, atol=1e-10)

    def test_gain_only(self):
        c = 2 * 0.61 * 2.61
        val = discriminant(ParamPoint(0, 0, 0, 0.61))
        assert np.isclose(val, -4 * c**3, rtol=1e-12)

    def test_sylvester_shape(self):
        m = sylvester_matrix(char_poly(ParamPoint(0.1, 0.2, 0.3, 0.4)))
        assert m.shape == (5, 5)

    @given(params, params, params, params)
    @settings(max_examples=300, deadline=None)
    def test_sylvester_equals_root_product(self, eta, zeta, xi, g):
        p = ParamPoint(eta, zeta, xi, g)
        roots = eigenvalues(p)
        gaps = [abs(roots[i] - roots[j]) for i in range(3) for j in range(i + 1, 3)]
        prod = np.prod([(roots[i] - roots[j]) ** 2 for i in range(3) for j in range(i + 1, 3)])
        val = discriminant(p)
        if min(gaps) > 1e-4:
            assert abs(val - prod) < 1e-8 * abs(val) + 1e-10

    @given(params, params, params, params)
    @settings(max_examples=300, deadline=None)
    def test_formula_equals_sylvester(self, eta, zeta, xi, g):
        p = ParamPoint(eta, zeta, xi, g)
        a, b = discriminant(p), discriminant_formula(p)
        assert abs(a - b) < 1e-10 * max(1.0, abs(a))

    def test_grid_values_equal_the_pointwise_formula(self):
        zz, xx = np.linspace(-1.2, 1.2, 17), np.linspace(-1.2, 1.2, 13)
        grid = discriminant_values(0.33, zz[:, None], xx[None, :], 0.61)
        pointwise = [[discriminant_formula(ParamPoint(0.33, z, x, 0.61)) for x in xx] for z in zz]
        np.testing.assert_array_equal(grid, pointwise)


def _bits(w: complex) -> tuple[str, str]:
    return float(w.real).hex(), float(w.imag).hex()


def _discriminant_draws() -> np.ndarray:
    """Rows (eta, zeta, xi, g): in the domain |p| <= 1.5, with signed zeros,
    and at magnitudes 1e-300 and 1e150, where products underflow or overflow."""
    rng = np.random.default_rng(20261019)
    signed_zeros = np.array(np.meshgrid(*[[0.0, -0.0]] * 4)).reshape(4, -1).T
    signs = rng.choice([-1.0, 1.0], (2, 3000, 4))
    return np.vstack([
        rng.uniform(-1.5, 1.5, (20000, 4)),
        signed_zeros,
        rng.choice([0.0, -0.0, 1e-300, -1e-300, 0.33, -0.61, 1.5], (4000, 4)),
        signs[0] * 1e-300 * rng.uniform(1.0, 10.0, (3000, 4)),
        signs[1] * 1e150 * rng.uniform(1.0, 10.0, (3000, 4)),
        rng.choice([0.0, -0.0, 1e150, -1e150, 0.33, -0.61], (3000, 4)),
    ])


class TestDiscriminantBits:
    def test_an_array_call_has_the_bits_of_scalar_calls_and_of_the_complex_expression(self):
        """The real arithmetic of ``discriminant_values`` mirrors CPython's
        complex products, sums and small integer powers term by term."""
        params = _discriminant_draws()
        with np.errstate(over="ignore", invalid="ignore"):
            array = discriminant_values(*params.T)
        overflows = 0
        for row, a in zip(params.tolist(), array.tolist()):
            s = discriminant_values(*row)
            assert type(s) is complex and _bits(a) == _bits(s), row
            try:
                want = complex_discriminant(*row)
            except OverflowError:
                # a complex power overflowed: the real arithmetic gives no finite value
                overflows += 1
                assert not (math.isfinite(s.real) and math.isfinite(s.imag)), row
                continue
            assert _bits(s) == _bits(want), row
        assert 0 < overflows < len(params) // 4


class TestSmallParamDiscriminant:
    def test_zero_at_origin(self):
        assert discriminant_small_param(ParamPoint(0, 0, 0, 0)) == 0

    def test_xi_only(self):
        val = discriminant_small_param(ParamPoint(0, 0, 0.1, 0))
        assert np.isclose(val, -0.27)

    def test_eta_g(self):
        val = discriminant_small_param(ParamPoint(0.1, 0, 0, 0.1))
        assert np.isclose(val, 0.128 + 0.128j)

    def test_scaling_ratio_converges_to_constant(self):
        p0 = np.array([0.3, 0.2, -0.25, 0.4])
        ratios = []
        for t in (1e-2, 1e-3, 1e-4):
            q = ParamPoint(*(t * p0))
            ratios.append(discriminant_formula(q) / discriminant_small_param(q))
        assert abs(ratios[-1] - ratios[-2]) < 1e-2 * abs(ratios[-1])
        assert abs(ratios[-1] - 4.0) < 0.05


class TestPhysicalScale:
    def test_defaults(self):
        s = PhysicalScale()
        assert (s.omega0, s.gamma0, s.kappa) == (19729.0, 83.5, -49.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            PhysicalScale(kappa=49.5)

    def test_zero_maps_to_onsite(self):
        assert to_physical(0.0) == 19729.0 + 83.5j

    def test_unit_shift(self):
        assert to_physical(1.0) == 19778.5 + 83.5j

    def test_imaginary_shift(self):
        assert to_physical(1j) == 19729.0 + 133.0j
