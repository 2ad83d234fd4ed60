import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import eptriad.spectral as spectral
from conftest import circular_distance
from oracles import (
    probe_rows,
    searched_fit,
    serial_fit_step,
    serial_gauss_newton,
    solved_greens,
    solved_greens_derivative,
    solved_response,
    solved_sites,
)
from eptriad.errors import FitDiverged, IdentifiabilityWarning, InaccurateEigensystem
from eptriad.locate import refine_ep
from eptriad.model import ParamPoint, PhysicalScale, _hamiltonians, eigensystem, eigensystems, to_physical
from eptriad.spectral import (
    CavityConfig,
    NoiseSpec,
    fit_loop,
    fit_step,
    fitted_stack,
    load_dataset,
    onsite_profile,
    save_dataset,
    synthesize,
)
from eptriad.transport import transport_eigensystems

G = 0.61


class TestModeProfile:
    def test_default_sampling(self):
        s = onsite_profile(CavityConfig())
        assert len(s) == 7
        # middle sample is the negative antinode
        assert s[3] == min(s)
        assert np.isclose(abs(s[3]), 1.0 / np.linalg.norm(np.cos(2 * np.pi * (np.arange(1, 8) - 0.5) / 7)))
        nz = s[np.abs(s) > 1e-12]
        assert int(np.sum(np.sign(nz[:-1]) != np.sign(nz[1:]))) == 2

    def test_two_positions_rejected(self):
        with pytest.raises(ValueError):
            onsite_profile(CavityConfig(n_positions_per_cavity=2))

    def test_every_admitted_sampling_has_unit_norm_and_two_nodes(self):
        for n in range(3, 60):
            s = onsite_profile(CavityConfig(n_positions_per_cavity=n))
            assert abs(np.linalg.norm(s) - 1) < 1e-12, n
            nz = s[np.abs(s) > 1e-12]
            assert int(np.sum(np.sign(nz[:-1]) != np.sign(nz[1:]))) == 2, n

    def test_many_positions_keep_two_nodes(self):
        s = onsite_profile(CavityConfig(n_positions_per_cavity=31))
        nz = s[np.abs(s) > 1e-12]
        assert int(np.sum(np.sign(nz[:-1]) != np.sign(nz[1:]))) == 2


def greens_3site(omega: float, p: ParamPoint, scale: PhysicalScale = PhysicalScale()) -> np.ndarray:
    """The forward model's site-basis Green's function (omega - H_phys)^-1 at
    one frequency: the site responses of ``_response_matrix`` to a drive at
    each source site, as the columns."""
    theta = np.array([scale.omega0, scale.gamma0, scale.kappa, p.eta, p.zeta, p.xi, p.g])
    at = np.array([omega])
    return np.stack([spectral._response_matrix(theta, at, src)[:, 0] for src in range(3)], axis=1)


class TestGreensFunction:
    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            p = ParamPoint(*rng.uniform(-0.6, 0.6, 4))
            omega = 19729.0 + rng.uniform(-150, 150)
            g = greens_3site(omega, p)
            assert np.max(np.abs(g - g.T)) < 1e-10 * np.max(np.abs(g))

    def test_residue_limit(self):
        p = ParamPoint(0.33, 0.0, 0.0, G)
        es = eigensystem(p)
        w0 = to_physical(es.eigenvalues[0])
        r = es.right_vectors[:, 0]
        expected = np.outer(r, r) / (r @ r)
        for eps in (10.0, 1.0, 0.1):
            got = (w0 + eps - w0) * greens_3site(w0 + eps, p)
            dev = np.max(np.abs(got - expected))
            assert dev < 0.35 * eps   # linear shrinkage toward the residue

    def test_far_field(self):
        p = ParamPoint(0.33, 0.2, -0.1, G)
        scale = PhysicalScale()
        d = 150 * abs(scale.kappa)
        g = greens_3site(scale.omega0 + d, p, scale)
        tr = np.trace(g)
        assert abs(abs(tr) - 3.0 / d) < 0.01 * (3.0 / d)


class TestIsolatedPoles:
    """The resonance pole of one decoupled cavity is its diagonal entry in rad/s."""

    @staticmethod
    def pole(site: int, p: ParamPoint) -> complex:
        """``site`` indexes (B, A, C)."""
        return to_physical(_hamiltonians(p.as_array()[None])[0, site, site])

    def test_neutral_cavity_a(self):
        assert self.pole(1, ParamPoint(0.2, 0, 0, G)) == 19729.0 + 83.5j

    def test_detuned_cavity_a(self):
        """The pole moves by -|kappa| (xi + i zeta): xi shifts the real part, zeta the imaginary part."""
        pole = self.pole(1, ParamPoint(0, 0.3, 0.5, 0))       # zeta = 0.3, xi = 0.5
        assert abs(pole - (19729.0 - 49.5 * 0.5 + (83.5 - 49.5 * 0.3) * 1j)) < 1e-9

    def test_b_c_mirror(self):
        p = ParamPoint(0.3, 0.1, -0.2, G)
        onsite = 19729.0 + 83.5j
        assert np.isclose(self.pole(0, p) - onsite, -(self.pole(2, p) - onsite))


class TestSynthesis:
    def test_noiseless_matches_greens(self):
        cfg = CavityConfig()
        p = ParamPoint(0.33, 0.1, -0.1, G)
        ds = synthesize([p], cfg, NoiseSpec(0.0, 0))
        phi = onsite_profile(cfg)
        freqs = cfg.frequencies()
        resp = ds.steps[0].responses
        for fi in (0, 15, 30):
            g3 = greens_3site(freqs[fi], p, cfg.scale)
            for site in range(3):
                for k in range(7):
                    expected = phi[k] * phi[-1] * g3[site, 1]
                    assert np.isclose(resp[site * 7 + k, fi], expected, rtol=1e-12)

    def test_deterministic(self):
        pts = [ParamPoint(0.33, 0.1, 0.0, G)]
        a = synthesize(pts, noise=NoiseSpec(0.01, 42)).steps[0].responses
        b = synthesize(pts, noise=NoiseSpec(0.01, 42)).steps[0].responses
        assert np.array_equal(a, b)

    def test_resonances_inside_window_and_sharp_mode_peak(self):
        """All three resonance frequencies lie in the scan window and the
        narrow mode produces the dominant magnitude peak at its position.

        (The other two modes at this working point have linewidths of 84 and
        174 rad/s, comparable to or larger than the mode spacing, so they
        appear as broad shoulders rather than pickable |P| maxima; the fit
        round trips recover them regardless.)
        """
        cfg = CavityConfig()
        p = ParamPoint(0.33, 0.0, 0.0, G)
        ds = synthesize([p], cfg, NoiseSpec(0.0, 0))
        freqs = cfg.frequencies()
        total = np.abs(ds.steps[0].responses).sum(axis=0)
        es = eigensystem(p)
        spacing = freqs[1] - freqs[0]
        peaks = [to_physical(w) for w in es.eigenvalues]
        assert all(freqs[0] < w.real < freqs[-1] for w in peaks)
        sharp = min(peaks, key=lambda w: abs(w.imag))
        assert abs(freqs[np.argmax(total)] - sharp.real) <= spacing


def _thetas(size):
    """(7, S) parameter columns; the model scalars reach |p| = 1.5, past the validated regime."""
    scale_lo, scale_hi = (19600.0, 30.0, -75.0), (19860.0, 140.0, 75.0)
    rows = [hnp.arrays(float, size, elements=st.floats(lo, hi)) for lo, hi in zip(scale_lo, scale_hi)]
    rows += [hnp.arrays(float, size, elements=st.floats(-1.5, 1.5)) for _ in range(4)]
    return st.tuples(*rows).map(np.array)


class TestBatchedForwardModel:
    @given(st.sampled_from([1, 64]).flatmap(_thetas), st.sampled_from([0, 1, 2]))
    @settings(max_examples=60, deadline=None)
    def test_population_equals_single_vectors(self, thetas, src):
        freqs = CavityConfig().frequencies()
        batch = spectral._response_matrix(thetas, freqs, src)
        assert batch.shape == (thetas.shape[1], 3, len(freqs))
        for k in range(thetas.shape[1]):
            assert np.array_equal(batch[k], spectral._response_matrix(thetas[:, k], freqs, src))

    @given(st.sampled_from([1, 9]).flatmap(_thetas), st.sampled_from([0, 1, 2]))
    @settings(max_examples=30, deadline=None)
    def test_jacobian_stack_equals_single_vectors(self, thetas, src):
        freqs = CavityConfig().frequencies()
        batch = spectral._response_jacobian(thetas, freqs, src)
        assert batch.shape == (thetas.shape[1], 7, 3, len(freqs))
        for k in range(thetas.shape[1]):
            assert np.array_equal(batch[k], spectral._response_jacobian(thetas[:, k], freqs, src))

    def test_synthesize_mu1_is_the_forward_model_times_noise(self):
        from eptriad.loops import preset_loop

        cfg = CavityConfig()
        freqs, phi = cfg.frequencies(), onsite_profile(cfg)
        pts = list(preset_loop("mu1", steps_per_segment=1).steps)
        noise = NoiseSpec(0.01, 23)
        ds = synthesize(pts, cfg, noise)
        for k, (p, step) in enumerate(zip(pts, ds.steps)):
            theta = np.array([cfg.scale.omega0, cfg.scale.gamma0, cfg.scale.kappa, p.eta, p.zeta, p.xi, p.g])
            rng = np.random.default_rng([noise.seed, k])
            mult = 1.0 + noise.relative_amplitude * (
                rng.standard_normal(step.responses.shape) + 1j * rng.standard_normal(step.responses.shape)
            ) / np.sqrt(2.0)
            sites = spectral._response_matrix(theta, freqs, cfg.source_site - 1)
            want = ((phi * phi[-1])[:, None] * sites[:, None, :]).reshape(21, -1) * mult
            assert np.array_equal(step.responses, want)
            _assert_matches_oracle(step.responses, solved_response(theta, freqs, 7, cfg.source_site - 1) * mult)


#: largest deviation from the dense-solve oracle, relative to the largest
#: oracle entry; the closed form and the solve differ by ~1e-15 at the
#: points below, EPs included
ORACLE_RTOL = 1e-12

#: seeds that refine_ep polishes to points on the exceptional arcs
EP_SEEDS = [(0.33, 0.3, 0.1, G), (0.33, -0.54, -0.4, G), (-0.2, 0.54, -0.24, G), (0.0, 0.22, 0.0, 0.3)]


def _assert_matches_oracle(got, want):
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - want)) <= ORACLE_RTOL * np.max(np.abs(want))


class TestForwardModelOracle:
    """The closed-form resolvent against one dense solve per frequency."""

    @given(st.sampled_from([1, 8]).flatmap(_thetas), st.sampled_from([0, 1, 2]))
    @settings(max_examples=60, deadline=None)
    def test_drawn_points(self, thetas, src):
        freqs = CavityConfig().frequencies()
        batch = spectral._response_matrix(thetas, freqs, src)
        for k in range(thetas.shape[1]):
            _assert_matches_oracle(batch[k], solved_sites(thetas[:, k], freqs, src))

    @pytest.mark.parametrize("source_site", [1, 2, 3])
    @pytest.mark.parametrize("seed", EP_SEEDS)
    def test_synthesize_at_refined_eps(self, seed, source_site):
        ep = refine_ep(ParamPoint(*seed)).point
        cfg = CavityConfig(source_site=source_site)
        theta = np.array([cfg.scale.omega0, cfg.scale.gamma0, cfg.scale.kappa, ep.eta, ep.zeta, ep.xi, ep.g])
        got = synthesize([ep], cfg).steps[0].responses
        _assert_matches_oracle(got, solved_response(theta, cfg.frequencies(), 7, source_site - 1))

    @pytest.mark.parametrize("seed", EP_SEEDS)
    def test_greens_at_refined_eps(self, seed):
        ep = refine_ep(ParamPoint(*seed)).point
        scale = PhysicalScale()
        theta = np.array([scale.omega0, scale.gamma0, scale.kappa, ep.eta, ep.zeta, ep.xi, ep.g])
        for omega in CavityConfig().frequencies():
            _assert_matches_oracle(greens_3site(omega, ep, scale), solved_greens(theta, omega))


def _assert_jacobian_matches_oracle(theta, src):
    freqs = CavityConfig().frequencies()
    got = spectral._response_jacobian(theta, freqs, src)
    want = solved_greens_derivative(theta, freqs, src)
    assert got.shape == want.shape == (7, 3, len(freqs))
    for k in range(7):
        _assert_matches_oracle(got[k], want[k])


class TestResponseJacobian:
    """The polish's exact Jacobian against -A^-1 (dA/dtheta_k) A^-1 e_src by
    dense solves, for every parameter and every source site."""

    # kappa is drawn from both signs: the unbounded polish may cross 0
    @given(st.sampled_from([1, 4]).flatmap(_thetas), st.sampled_from([0, 1, 2]))
    @settings(max_examples=40, deadline=None)
    def test_drawn_points(self, thetas, src):
        for theta in thetas.T:
            _assert_jacobian_matches_oracle(theta, src)

    @pytest.mark.parametrize("kappa", [-49.5, 49.5])
    @pytest.mark.parametrize("src", [0, 1, 2])
    @pytest.mark.parametrize("seed", EP_SEEDS)
    def test_within_1e_6_of_an_arc(self, seed, src, kappa):
        ep = refine_ep(ParamPoint(*seed)).point.as_array()
        direction = np.random.default_rng(EP_SEEDS.index(seed)).standard_normal(4)
        near = ep + 1e-6 * direction / np.linalg.norm(direction)
        _assert_jacobian_matches_oracle(np.array([19729.0, 83.5, kappa, *near]), src)


def _probe_row_cost(data, theta, config):
    """sum |R - model|^2 / ||R||^2 over every probe row of the spectrum ``data``."""
    sites = spectral._response_matrix(theta, config.frequencies(), config.source_site - 1)
    model = probe_rows(sites, config.n_positions_per_cavity)
    return np.sum(np.abs(data - model) ** 2) / np.sum(np.abs(data) ** 2)


class TestProfileProjection:
    """The fit works on the profile-projected site responses: their cost plus
    the out-of-profile constant is the cost over every probe row."""

    @given(
        st.sampled_from([1, 8]).flatmap(_thetas),
        _thetas(1),
        st.floats(1e-3, 0.1),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 2, 3]),
        st.sampled_from([3, 7, 12]),
    )
    @settings(max_examples=60, deadline=None)
    def test_site_cost_plus_floor_is_the_probe_row_cost(self, thetas, truth, noise, seed, source_site, n_pos):
        cfg = CavityConfig(n_positions_per_cavity=n_pos, source_site=source_site)
        data = solved_response(truth[:, 0], cfg.frequencies(), n_pos, source_site - 1)
        rng = np.random.default_rng(seed)
        data = data * (1 + noise * (rng.standard_normal(data.shape) + 1j * rng.standard_normal(data.shape)) / np.sqrt(2))
        y, norm2, floor = spectral._site_responses(data, cfg)
        diff = spectral._response_matrix(thetas, cfg.frequencies(), source_site - 1) - y
        got = np.sum(np.abs(diff) ** 2, axis=(1, 2)) / norm2 + floor
        want = np.array([_probe_row_cost(data, theta, cfg) for theta in thetas.T])
        assert np.all(np.abs(got - want) <= 1e-12 * want), (got, want)

    def test_a_noiseless_spectrum_has_no_out_of_profile_part(self):
        """The floor is summed directly; as ||R||^2 - ||phi . R||^2 it would
        be cancellation noise near 1e-16, far above a noiseless fit's cost."""
        from eptriad.loops import preset_loop

        ds = synthesize(list(preset_loop("mu1", steps_per_segment=1).steps), CavityConfig())
        for step in ds.steps:
            assert spectral._site_responses(step.responses, ds.config)[2] < 1e-28
            assert fit_step(step.responses, ds.config).residual < 1e-24

    @pytest.mark.parametrize("seed", [0, 5])
    def test_a_fits_residual_is_its_probe_row_cost(self, seed):
        from eptriad.loops import preset_loop

        ds = synthesize(list(preset_loop("rho1", steps_per_segment=1).steps), CavityConfig(), NoiseSpec(0.02, seed))
        for step in ds.steps:
            fit = fit_step(step.responses, ds.config)
            want = _probe_row_cost(step.responses, fit.theta(), ds.config)
            assert abs(fit.residual - want) <= 1e-12 * want, (fit.residual, want)


class TestDatasetIO:
    def test_bit_exact_round_trip(self, tmp_path):
        pts = [ParamPoint(0.33, 0.1, -0.2, G), ParamPoint(0.33, 0.2, -0.1, G)]
        ds = synthesize(pts, noise=NoiseSpec(0.01, 3))
        path = tmp_path / "ds.json"
        save_dataset(ds, path)
        back = load_dataset(path)
        for a, b in zip(ds.steps, back.steps):
            assert np.array_equal(a.responses, b.responses)
            assert a.param_truth == b.param_truth
        assert back.config == ds.config
        assert back.noise_spec == ds.noise_spec


def _polishing_to(theta):
    """A ``_gauss_newton`` stand-in that polishes every start of its stack to
    ``theta`` at zero cost in one iteration."""
    def polish(theta0, *args):
        n = len(theta0)
        return np.tile(theta, (n, 1)), np.zeros(n), np.ones(n, int)

    return polish


class TestFitStep:
    def test_noiseless_round_trip(self):
        p = ParamPoint(0.33, 0.0, 0.0, G)
        ds = synthesize([p], noise=NoiseSpec(0.0, 0))
        fit = fit_step(ds.steps[0].responses, ds.config)
        assert fit.residual < 1e-10
        assert abs(fit.point.eta - p.eta) < 1e-4
        assert abs(fit.point.zeta - p.zeta) < 1e-4
        assert abs(fit.point.xi - p.xi) < 1e-4
        assert abs(fit.point.g - p.g) < 1e-4
        assert abs(fit.scale.omega0 - 19729.0) < 1e-2
        assert abs(fit.scale.kappa + 49.5) < 1e-3

    def test_eigenvector_reconstruction(self):
        p = ParamPoint(0.33, 0.15, -0.1, G)
        ds = synthesize([p], noise=NoiseSpec(0.0, 0))
        fit = fit_step(ds.steps[0].responses, ds.config)
        truth = eigensystem(p)
        recon = fitted_stack([fit]).row(0)
        # match fitted states to analytic ones by eigenvalue
        wt = to_physical(truth.eigenvalues)
        for j in range(3):
            k = int(np.argmin(np.abs(wt - recon.eigenvalues[j])))
            overlap = abs(truth.left_vectors[k] @ recon.right_vectors[:, j])
            assert overlap > 0.99

    def test_identifiability_warning_near_ep(self):
        ep = refine_ep(ParamPoint(0.33, 0.54, 0.40, G)).point
        near = ParamPoint(0.33, ep.zeta + 0.002, ep.xi, G)
        ds = synthesize([near], noise=NoiseSpec(0.0, 0))
        with pytest.warns(IdentifiabilityWarning):
            fit = fit_step(ds.steps[0].responses, ds.config)
        assert fit.identifiability_warning

    @pytest.mark.parametrize("kappa", [49.5, -49.5])
    def test_reports_negative_kappa_whatever_the_polish_sign(self, monkeypatch, kappa):
        p = ParamPoint(0.33, 0.0, 0.0, G)
        ds = synthesize([p], noise=NoiseSpec(0.0, 0))
        polished = np.array([19729.0, 83.5, kappa, p.eta, p.zeta, p.xi, p.g])
        monkeypatch.setattr(spectral, "_gauss_newton", _polishing_to(polished))
        fit = fit_step(ds.steps[0].responses, ds.config)
        assert fit.scale.kappa == -49.5

    def test_zero_kappa_diverges(self, monkeypatch):
        p = ParamPoint(0.33, 0.0, 0.0, G)
        ds = synthesize([p], noise=NoiseSpec(0.0, 0))
        polished = np.array([19729.0, 83.5, 0.0, p.eta, p.zeta, p.xi, p.g])
        monkeypatch.setattr(spectral, "_gauss_newton", _polishing_to(polished))
        with pytest.raises(FitDiverged):
            fit_step(ds.steps[0].responses, ds.config)

    def test_rejects_bad_input(self):
        resp = np.full((21, 31), np.nan, dtype=complex)
        with pytest.raises(ValueError):
            fit_step(resp)


def _sites(responses, config):
    """The site responses that ``fit_step`` fits."""
    return spectral._site_responses(responses, config)[0]


def _lab_spectra(preset, source_site, noise, seed):
    """The spectra of the lab pipeline's loop around ``preset`` (the fewest
    steps per segment that give 8 steps), driven at ``source_site``."""
    from eptriad.loops import MIN_STEPS, preset_loop, preset_waypoints

    segments = len(preset_waypoints(preset)) - 1
    pts = list(preset_loop(preset, steps_per_segment=-(-(MIN_STEPS - 1) // segments)).steps)
    ds = synthesize(pts, CavityConfig(source_site=source_site), NoiseSpec(noise, seed))
    return [st.responses for st in ds.steps]


#: a cavity-B spectrum whose first start polishes into another basin:
#: the mu3 lab loop at 5 % noise, seed 11, step 6
SECOND_START_CASE = ("mu3", 1, 0.05, 11), 6


class TestRationalStart:
    """The closed-form starts: a rational fit of the site responses, then the seven scalars."""

    # the cavity-A ids stay the step index
    @pytest.mark.parametrize("source_site, k", [(2, k) for k in range(9)] + [(s, k) for s in (1, 3) for k in range(9)],
                             ids=[str(k) for k in range(9)] + [f"{s}-{k}" for s in "BC" for k in range(9)])
    def test_noiseless_start_is_the_truth_on_every_mu1_step(self, source_site, k):
        from eptriad.loops import preset_loop

        cfg = CavityConfig(source_site=source_site)
        p = preset_loop("mu1", steps_per_segment=1).steps[k]
        truth = np.array([cfg.scale.omega0, cfg.scale.gamma0, cfg.scale.kappa, p.eta, p.zeta, p.xi, p.g])
        starts = spectral._rational_starts(_sites(synthesize([p], cfg).steps[0].responses, cfg), cfg)
        # a drive at A has one start, a drive at B or C two
        assert np.isfinite(starts).all(axis=1).tolist() == [True, source_site != 2]
        for start in starts[:1 if source_site == 2 else 2]:
            # relative error against the unit scale of the dimensionless parameters
            assert np.all(np.abs(start - truth) <= 1e-8 * np.maximum(np.abs(truth), 1.0)), start - truth

    @pytest.mark.parametrize("source_site", [1, 3])
    def test_sources_b_and_c_fit_from_their_closed_form_start(self, source_site):
        p = ParamPoint(0.33, 0.1, -0.1, G)
        cfg = CavityConfig(source_site=source_site)
        fit = fit_step(synthesize([p], cfg).steps[0].responses, cfg)
        assert fit.residual < 1e-24
        assert np.max(np.abs(fit.point.as_array() - p.as_array())) < 1e-10

    def test_a_response_that_vanishes_leaves_no_start_and_diverges(self):
        """A response exactly 0 at one frequency leaves no start for any
        drive site, and the fit raises FitDiverged."""
        p = ParamPoint(0.33, 0.1, -0.1, G)
        for source_site in (1, 2, 3):
            cfg = CavityConfig(source_site=source_site)
            responses = synthesize([p], cfg).steps[0].responses.copy()
            responses[:7, -1] = 0                   # cavity B silent at the last frequency
            assert np.isnan(spectral._rational_starts(_sites(responses, cfg), cfg)).all()
            with pytest.raises(FitDiverged, match="no finite closed-form start"):
                fit_step(responses, cfg)

    @pytest.mark.parametrize("source_site", [1, 2, 3])
    def test_a_noisy_spectrum_fits_without_the_search(self, monkeypatch, source_site):
        def no_search(*args, **kwargs):
            raise AssertionError("searched")

        monkeypatch.setattr(spectral, "differential_evolution", no_search)
        cfg = CavityConfig(source_site=source_site)
        ds = synthesize([ParamPoint(0.33, 0.1, -0.1, G)], cfg, NoiseSpec(0.01, 4))
        assert fit_step(ds.steps[0].responses, cfg).residual < spectral.RESIDUAL_THRESHOLD

    @pytest.mark.parametrize("source_site", [1, 3])
    @pytest.mark.parametrize("noise", [0.03, 0.05])
    def test_every_preset_at_high_noise_fits_below_the_threshold(self, source_site, noise):
        """The six presets' lab loops driven at B or C, at 3 and 5 % noise,
        seeds 0 and 11: every spectrum fits below the residual threshold.
        On cavity B, some first starts polish above it (six in all), so the
        second start is needed."""
        from eptriad.loops import PRESET_NAMES

        misses = 0
        for preset in PRESET_NAMES:
            for seed in (0, 11):
                spectra = _lab_spectra(preset, source_site, noise, seed)
                cfg = CavityConfig(source_site=source_site)
                fits = spectral._fit_spectra(spectra, cfg)
                assert max(f.residual for f in fits) <= spectral.RESIDUAL_THRESHOLD
                views = [spectral._site_responses(r, cfg) for r in spectra]
                y, norm2, floor = (np.array(v) for v in zip(*views))
                first = np.array([spectral._rational_starts(yk, cfg)[0] for yk in y])
                cost = spectral._gauss_newton(first, y, cfg.frequencies(), norm2, floor, source_site - 1)[1]
                misses += int(np.sum(cost > spectral.RESIDUAL_THRESHOLD))
        assert misses or source_site == 3           # the second start is exercised


class TestStartIndependence:
    """The exact-Jacobian polish ends at the least cost wherever it starts:
    polishes of one spectrum from different starts agree within 1e-8 in
    (eta, zeta, xi, g)."""

    @pytest.mark.parametrize("seed", range(8))
    def test_mu1_from_the_closed_form_start_and_from_the_truth(self, seed):
        from eptriad.loops import preset_loop

        cfg = CavityConfig()
        freqs = cfg.frequencies()
        pts = list(preset_loop("mu1", steps_per_segment=1).steps)
        for p, step in zip(pts, synthesize(pts, cfg, NoiseSpec(0.01, seed)).steps):
            y, norm2, floor = spectral._site_responses(step.responses, cfg)
            starts = [spectral._rational_starts(y, cfg)[0], spectral._truth_vector(p, cfg.scale)]
            (from_start, from_truth), *_ = spectral._gauss_newton(
                np.array(starts), np.array([y, y]), freqs, np.full(2, norm2), np.full(2, floor))
            assert np.max(np.abs(from_start[3:] - from_truth[3:])) <= 1e-8, (p, from_start - from_truth)

    def test_rho1_from_the_search_and_from_a_neighbours_fit(self):
        """rho1 at 2 % noise, seed 0, step 7, where a difference-quotient
        Jacobian left the polishes from a search and from the previous
        step's fit 1.3e-5 apart."""
        from eptriad.loops import preset_loop

        cfg = CavityConfig()
        ds = synthesize(list(preset_loop("rho1", steps_per_segment=1).steps), cfg, NoiseSpec(0.02, 0))
        data = ds.steps[7].responses
        fit = fit_step(data, cfg)
        neighbour = fit_step(ds.steps[6].responses, cfg)
        y, norm2, floor = spectral._site_responses(data, cfg)
        (from_neighbour,), *_ = spectral._gauss_newton(
            neighbour.theta()[None], y[None], cfg.frequencies(), np.array([norm2]), np.array([floor]))
        for other in (from_neighbour[3:], searched_fit(data, cfg, seed=11)[3:]):
            assert np.max(np.abs(other - fit.point.as_array())) <= 1e-8, other - fit.point.as_array()


class TestDeferredSearchImport:
    """``spectral.differential_evolution`` is scipy's search, imported at
    the call; no fit calls it."""

    def test_returns_scipys_result(self):
        from scipy.optimize import differential_evolution, rosen

        kwargs = dict(bounds=[(-2.0, 2.0)] * 3, seed=5, maxiter=40, tol=1e-10, polish=False)
        got, want = spectral.differential_evolution(rosen, **kwargs), differential_evolution(rosen, **kwargs)
        assert got.x.tobytes() == want.x.tobytes()
        assert (got.nfev, got.nit) == (want.nfev, want.nit)


class TestFitLoop:
    def test_requires_enough_steps(self):
        ds = synthesize([ParamPoint(0.33, 0.1, 0, G)] * 3, noise=NoiseSpec(0, 0))
        with pytest.raises(ValueError):
            fit_loop(ds)

    def test_noiseless_matches_analytic_transport(self):
        from eptriad.loops import preset_loop

        loop = preset_loop("mu1", steps_per_segment=1)
        pts = list(loop.steps)
        ds = synthesize(pts, noise=NoiseSpec(0.0, 0))
        fits, res = fit_loop(ds)
        analytic = transport_eigensystems(eigensystems(loop.params), refine=False)
        assert res.permutation == analytic.permutation
        assert circular_distance(res.berry_phase, analytic.berry_phase) < 1e-6

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_each_step_matches_a_search(self, seed, monkeypatch):
        """Every loop fit, from its closed-form start, agrees with the fit
        that a global search (``oracles.searched_fit``) finds for the same
        spectrum."""
        from eptriad.loops import preset_loop

        ds = synthesize(list(preset_loop("mu1", steps_per_segment=1).steps), CavityConfig(), NoiseSpec(0.01, seed))
        fits, res = fit_loop(ds)
        searched = [searched_fit(st.responses, ds.config, seed) for st in ds.steps]
        # the loop fitted from the searched thetas in place of the closed-form starts
        starts = iter(searched)
        monkeypatch.setattr(spectral, "_rational_starts",
                            lambda y, config: np.array([next(starts), np.full(7, np.nan)]))
        _, reference = fit_loop(ds)
        assert res.permutation == reference.permutation
        assert circular_distance(res.berry_phase, reference.berry_phase) < 1e-4
        # relative error; the dimensionless (eta, zeta, xi, g), in units of
        # |kappa|, against their unit scale
        for fit, want in zip(fits, searched):
            scale = np.maximum(np.abs(want), 1.0)
            assert np.all(np.abs(fit.theta() - want) <= 1e-5 * scale)

    def test_polish_above_threshold_falls_back_to_the_second_start(self, monkeypatch):
        """A cavity-B spectrum whose first start polishes above the residual
        threshold fits from its second start, exactly as a fit that has
        only that start does, with the first polish's Jacobians counted."""
        case, k = SECOND_START_CASE
        responses = _lab_spectra(*case)[k]
        cfg = CavityConfig(source_site=case[1])
        y, norm2, floor = spectral._site_responses(responses, cfg)
        first, second = spectral._rational_starts(y, cfg)
        _, (cost,), (spent,) = spectral._gauss_newton(
            first[None], y[None], cfg.frequencies(), np.array([norm2]), np.array([floor]), cfg.source_site - 1)
        assert cost > spectral.RESIDUAL_THRESHOLD
        fit = fit_step(responses, cfg)
        monkeypatch.setattr(spectral, "_rational_starts", lambda y, config: np.array([second, np.full(7, np.nan)]))
        alone = fit_step(responses, cfg)
        assert fit.residual <= spectral.RESIDUAL_THRESHOLD
        assert fit.gauss_newton_iterations == spent + alone.gauss_newton_iterations
        for f in fields(alone):
            if f.name != "gauss_newton_iterations":
                got, want = getattr(fit, f.name), getattr(alone, f.name)
                assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want, f.name


def _mu1_spectra(noise, seed):
    """The nine spectra of the lab pipeline's mu1 loop."""
    return _lab_spectra("mu1", 2, noise, seed)


def _recorded(fit, spectra, config):
    """What fitting ``spectra`` in order gives: the fits or (exception type,
    message), and the IdentifiabilityWarning messages in the order emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fit(spectra, config)
        except Exception as exc:
            out = (type(exc), str(exc))
    return out, [str(w.message) for w in caught if w.category is IdentifiabilityWarning]


def _one_at_a_time(spectra, config):
    return [serial_fit_step(r, config) for r in spectra]


def _fit_loop_of(spectra, config):
    """The fits of ``fit_loop`` on a dataset of ``spectra``."""
    dataset = spectral.SpectralDataset(config, NoiseSpec(), [spectral.SpectralStep(r) for r in spectra])
    return fit_loop(dataset)[0]


def _assert_fits_as_one_at_a_time(spectra, config=CavityConfig()):
    """A stack of spectra fits bit for bit as each spectrum alone, in the
    serial oracle: each first polish's theta, cost and iterations, every
    FittedParams field, and the warnings in their order."""
    views = [spectral._site_responses(r, config) for r in spectra]
    y, norm2, floor = (np.array(v) for v in zip(*views))
    freqs, src = config.frequencies(), config.source_site - 1
    starts = np.array([spectral._rational_starts(yk, config)[0] for yk in y])
    ok = np.isfinite(starts).all(axis=1)
    theta, cost, iterations = spectral._gauss_newton(starts[ok], y[ok], freqs, norm2[ok], floor[ok], src)
    for i, k in enumerate(np.flatnonzero(ok)):
        want = serial_gauss_newton(starts[k], y[k], freqs, norm2[k], floor[k], src)
        assert np.array_equal(theta[i], want[0]) and cost[i] == want[1] and iterations[i] == want[2], k

    (got, got_warned), (want, want_warned) = (
        _recorded(fit, spectra, config) for fit in (_fit_loop_of, _one_at_a_time))
    assert got_warned == want_warned
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for f in fields(w):
            a, b = getattr(g, f.name), getattr(w, f.name)
            assert np.array_equal(a, b) if isinstance(b, np.ndarray) else a == b, f.name
    return got


class TestStackedPolish:
    """A loop's spectra are polished as one stack, each with its own step
    length and stops, so every fit keeps the bits of a fit on its own."""

    # the lab workload's seeds
    @pytest.mark.parametrize("seed", range(32))
    def test_mu1_at_1_percent_noise(self, seed):
        _assert_fits_as_one_at_a_time(_mu1_spectra(0.01, seed))

    @pytest.mark.parametrize("noise", [0.0, 0.05])
    @pytest.mark.parametrize("seed", range(4))
    def test_mu1_at_other_noise_levels(self, noise, seed):
        _assert_fits_as_one_at_a_time(_mu1_spectra(noise, seed))

    @pytest.mark.parametrize("source_site", [1, 3])
    def test_sources_b_and_c_with_a_second_start_in_the_stack(self, source_site):
        """The loop that holds ``SECOND_START_CASE``, driven at B (one
        spectrum polishes its second start) and at C."""
        (preset, _, noise, seed), _ = SECOND_START_CASE
        _assert_fits_as_one_at_a_time(_lab_spectra(preset, source_site, noise, seed),
                                      CavityConfig(source_site=source_site))

    def test_a_spectrum_without_a_start_diverges_in_its_turn(self):
        spectra = _mu1_spectra(0.01, 2)
        spectra[3] = spectra[3].copy()
        spectra[3][:7, -1] = 0                    # cavity B silent at the last frequency: no start
        got = _recorded(_fit_loop_of, spectra, CavityConfig())
        assert got == _recorded(_one_at_a_time, spectra, CavityConfig())
        assert got[0] == (FitDiverged, "no finite closed-form start")


class TestLoopOrderFailures:
    """A loop whose fits fail raises what fitting its spectra one at a time
    raises, after the same warnings in the same order."""

    @staticmethod
    def _near_ep(zeta_offset):
        ep = refine_ep(ParamPoint(0.33, 0.54, 0.40, G)).point
        return synthesize([ParamPoint(0.33, ep.zeta + zeta_offset, ep.xi, G)]).steps[0].responses

    # the spectra that warn near an EP; a spectrum after the divergent one is never reached
    @pytest.mark.parametrize("diverges, warns, warned", [(4, (1, 6), 1), (0, (2,), 0)],
                             ids=["warning-divergence-warning", "divergence-warning"])
    def test_a_divergence_raises_after_the_warnings_before_it(self, diverges, warns, warned):
        rng = np.random.default_rng(3)
        spectra = _mu1_spectra(0.01, 4)
        spectra[diverges] = rng.standard_normal((21, 31)) + 1j * rng.standard_normal((21, 31))
        for k, offset in zip(warns, (0.002, 0.003)):
            spectra[k] = self._near_ep(offset)
        cfg = CavityConfig()
        got = _recorded(_fit_loop_of, spectra, cfg)
        assert got == _recorded(_one_at_a_time, spectra, cfg)
        (kind, message), warnings_seen = got
        assert kind is FitDiverged and message.startswith("normalized residual")
        assert len(warnings_seen) == warned

    def test_an_inaccurate_eigensystem_raises_in_its_turn(self, monkeypatch):
        """A fitted point whose eigen-solve fails the residual check raises
        after the warnings of the steps before it, as a point-by-point solve
        would."""
        spectra = _mu1_spectra(0.01, 4)
        spectra[1] = self._near_ep(0.002)
        cfg = CavityConfig()
        bad = _fit_loop_of(spectra, cfg)[3].point
        target = _hamiltonians(bad.as_array()[None])
        eig = np.linalg.eig

        def corrupting_eig(h):
            w, v = eig(h)
            v = v.copy()
            hit = (h == target).all(axis=(1, 2))
            v[hit, :, 0] = v[hit, :, 1]
            return w, v

        monkeypatch.setattr(np.linalg, "eig", corrupting_eig)
        got = _recorded(_fit_loop_of, spectra, cfg)
        assert got == _recorded(_one_at_a_time, spectra, cfg)
        (kind, message), warned = got
        assert kind is InaccurateEigensystem and str(ParamPoint(*bad.as_array().tolist())) in message
        assert len(warned) == 1


@pytest.mark.slow
class TestFittedCompositeLoops:
    def test_fitted_cycle_loops_are_distinct(self):
        """Fitting both composite loops recovers the two distinct 3-cycles."""
        from eptriad.loops import preset_loop

        perms = {}
        for name in ("rho1", "rho2"):
            loop = preset_loop(name, steps_per_segment=1)
            ds = synthesize(list(loop.steps), noise=NoiseSpec(0.0, 0))
            _, res = fit_loop(ds)
            perms[name] = res.permutation.as_string()
        assert perms == {"rho1": "231", "rho2": "312"}


@pytest.mark.slow
def test_lab_mu1_seed_23_recovers_132():
    """The lab pipeline's mu1 fit at 1% noise and seed 23 once ended in FitDiverged."""
    from eptriad.loops import preset_loop

    pts = list(preset_loop("mu1", steps_per_segment=1).steps)
    ds = synthesize(pts, CavityConfig(), NoiseSpec(0.01, 23))
    _, res = fit_loop(ds)
    assert res.permutation.as_string() == "132"


@pytest.mark.slow
class TestStatisticalChecks:
    def test_forward_inverse_consistency_random_points(self):
        """Noiseless synth -> fit recovers the parameters across the regime."""
        rng = np.random.default_rng(2024)
        n_ok = 0
        n_total = 100
        for k in range(n_total):
            p = ParamPoint(*(rng.uniform(-0.6, 0.6, 3)), rng.uniform(0.05, 0.7))
            ds = synthesize([p], noise=NoiseSpec(0.0, k))
            fit = fit_step(ds.steps[0].responses, ds.config)
            err = max(
                abs(fit.point.eta - p.eta),
                abs(fit.point.zeta - p.zeta),
                abs(fit.point.xi - p.xi),
                abs(fit.point.g - p.g),
            )
            if err < 1e-4:
                n_ok += 1
        assert n_ok == n_total

    def test_noise_monotonicity(self):
        """Median parameter error does not decrease with the noise level."""
        p = ParamPoint(0.33, 0.1, -0.1, G)
        medians = []
        for level in (0.0, 0.005, 0.01, 0.02):
            errs = []
            for seed in range(5):
                ds = synthesize([p], noise=NoiseSpec(level, seed))
                fit = fit_step(ds.steps[0].responses, ds.config)
                errs.append(
                    max(
                        abs(fit.point.eta - p.eta),
                        abs(fit.point.zeta - p.zeta),
                        abs(fit.point.xi - p.xi),
                        abs(fit.point.g - p.g),
                    )
                )
            medians.append(np.median(errs))
        assert all(medians[i] <= medians[i + 1] + 1e-6 for i in range(len(medians) - 1))
