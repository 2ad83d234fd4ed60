import json
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import eptriad.spectral as spectral
from conftest import circular_distance
from oracles import (
    lstsq_fit_step,
    lstsq_rational_starts,
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
from eptriad.loops import PRESET_NAMES
from eptriad.model import (
    DEGENERACY_GAP,
    ParamPoint,
    PhysicalScale,
    _hamiltonians,
    eigensystem,
    eigensystems,
    min_gaps,
    to_physical,
)
from eptriad.spectral import (
    CavityConfig,
    NoiseSpec,
    fit_loop,
    fit_step,
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

    @pytest.mark.parametrize("omega0, window", [(19729.0, 2 * 19729.0), (19729.0, 1e308), (100.0, 200.0),
                                                (100.0, 0.0), (100.0, np.inf), (100.0, np.nan)])
    def test_a_window_that_reaches_0_rad_per_s_is_rejected(self, omega0, window):
        with pytest.raises(ValueError, match="frequency window must be positive and below 2 omega0"):
            CavityConfig(scale=PhysicalScale(omega0=omega0), frequency_window=window)

    def test_the_widest_window_samples_above_0_rad_per_s(self):
        cfg = CavityConfig(frequency_window=np.nextafter(2 * 19729.0, 0))
        assert cfg.frequencies()[0] > 0

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
        resp = ds.responses[0]
        for fi in (0, 15, 30):
            g3 = greens_3site(freqs[fi], p, cfg.scale)
            for site in range(3):
                for k in range(7):
                    expected = phi[k] * phi[-1] * g3[site, 1]
                    assert np.isclose(resp[site * 7 + k, fi], expected, rtol=1e-12)

    def test_deterministic(self):
        pts = [ParamPoint(0.33, 0.1, 0.0, G)]
        a = synthesize(pts, noise=NoiseSpec(0.01, 42)).responses[0]
        b = synthesize(pts, noise=NoiseSpec(0.01, 42)).responses[0]
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
        total = np.abs(ds.responses[0]).sum(axis=0)
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
    @pytest.mark.kernels
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
        assert ds.param_truth == pts
        for k, (p, responses) in enumerate(zip(pts, ds.responses)):
            theta = np.array([cfg.scale.omega0, cfg.scale.gamma0, cfg.scale.kappa, p.eta, p.zeta, p.xi, p.g])
            rng = np.random.default_rng([noise.seed, k])
            mult = 1.0 + noise.relative_amplitude * (
                rng.standard_normal(responses.shape) + 1j * rng.standard_normal(responses.shape)
            ) / np.sqrt(2.0)
            sites = spectral._response_matrix(theta, freqs, cfg.source_site - 1)
            want = ((phi * phi[-1])[:, None] * sites[:, None, :]).reshape(21, -1) * mult
            assert np.array_equal(responses, want)
            _assert_matches_oracle(responses, solved_response(theta, freqs, 7, cfg.source_site - 1) * mult)


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
        got = synthesize([ep], cfg).responses[0]
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


@pytest.mark.kernels
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


class TestResolvent:
    """One closed-form resolvent serves the forward model and its Jacobian."""

    @given(st.sampled_from([1, 8]).flatmap(_thetas))
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_solves_and_the_forward_model_is_its_driven_column(self, thetas):
        freqs = CavityConfig().frequencies()
        c, green = spectral._resolvent(thetas, freqs)
        assert c.shape == (thetas.shape[1], 1) and green.shape == (thetas.shape[1], len(freqs), 3, 3)
        assert np.array_equal(c[:, 0], np.abs(thetas[2]))
        for k, theta in enumerate(thetas.T):
            for f, omega in enumerate(freqs):
                _assert_matches_oracle(green[k, f], solved_greens(theta, omega))
        for src in range(3):
            sites = spectral._response_matrix(thetas, freqs, src)
            assert sites.flags.c_contiguous
            assert np.array_equal(sites, green[..., src].transpose(0, 2, 1))


def _probe_row_cost(data, theta, config):
    """sum |R - model|^2 / ||R||^2 over every probe row of the spectrum ``data``."""
    sites = spectral._response_matrix(theta, config.frequencies(), config.source_site - 1)
    model = probe_rows(sites, config.n_positions_per_cavity)
    return np.sum(np.abs(data - model) ** 2) / np.sum(np.abs(data) ** 2)


@pytest.mark.kernels
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
        y, norm2, floor = spectral._site_responses(data[None], cfg)
        diff = spectral._response_matrix(thetas, cfg.frequencies(), source_site - 1) - y
        got = np.sum(np.abs(diff) ** 2, axis=(1, 2)) / norm2 + floor
        want = np.array([_probe_row_cost(data, theta, cfg) for theta in thetas.T])
        assert np.all(np.abs(got - want) <= 1e-12 * want), (got, want)

    def test_a_noiseless_spectrum_has_no_out_of_profile_part(self):
        """The floor is summed directly; as ||R||^2 - ||phi . R||^2 it would
        be cancellation noise near 1e-16, far above a noiseless fit's cost."""
        from eptriad.loops import preset_loop

        ds = synthesize(list(preset_loop("mu1", steps_per_segment=1).steps), CavityConfig())
        assert np.all(spectral._site_responses(ds.responses, ds.config)[2] < 1e-28)
        for responses in ds.responses:
            assert fit_step(responses, ds.config).residual < 1e-24

    @pytest.mark.parametrize("seed", [0, 5])
    def test_a_fits_residual_is_its_probe_row_cost(self, seed):
        from eptriad.loops import preset_loop

        ds = synthesize(list(preset_loop("rho1", steps_per_segment=1).steps), CavityConfig(), NoiseSpec(0.02, seed))
        for responses in ds.responses:
            fit = fit_step(responses, ds.config)
            want = _probe_row_cost(responses, fit.theta(), ds.config)
            assert abs(fit.residual - want) <= 1e-12 * want, (fit.residual, want)

    @pytest.mark.parametrize("source_site", [1, 2, 3])
    @pytest.mark.parametrize("n_pos", [3, 7, 12])
    def test_each_row_of_a_stacked_view_is_its_stack_of_one(self, source_site, n_pos):
        """The fit views a loop's spectra as one stack; each row has the bits
        of the view of its spectrum alone."""
        from eptriad.loops import preset_loop

        cfg = CavityConfig(n_positions_per_cavity=n_pos, source_site=source_site)
        responses = synthesize(list(preset_loop("rho1", steps_per_segment=3).steps), cfg, NoiseSpec(0.03, 5)).responses
        views = spectral._site_responses(responses, cfg)
        for k in range(len(responses)):
            for got, want in zip(views, spectral._site_responses(responses[k:k + 1], cfg)):
                assert got[k:k + 1].tobytes() == want.tobytes(), k


class TestDatasetIO:
    @pytest.mark.parametrize("shape, n_truths",
                             [((2, 21, 31), 1), ((2, 21, 31), 3), ((21, 31), 21), ((1, 2, 21, 31), 1)],
                             ids=["one_truth_short", "one_truth_over", "two_dimensional", "four_dimensional"])
    def test_a_dataset_needs_3d_responses_and_one_truth_per_step(self, shape, n_truths):
        with pytest.raises(ValueError, match="one param_truth entry per step"):
            spectral.SpectralDataset(CavityConfig(), NoiseSpec(), np.ones(shape, complex), [None] * n_truths)

    def test_bit_exact_round_trip(self, tmp_path):
        """Every response reads back with its bits: signed zeros, a
        subnormal and numbers at the float limit among them."""
        pts = [ParamPoint(0.33, 0.1, -0.2, G), ParamPoint(0.33, 0.2, -0.1, G)]
        ds = synthesize(pts, noise=NoiseSpec(0.01, 3))
        ds.responses[0, 0, :3] = [complex(-0.0, 5e-324), complex(1e308, -1e308), complex(-0.0, -0.0)]
        ds.param_truth[1] = None
        path = tmp_path / "ds.json"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.responses.dtype == complex and back.responses.shape == ds.responses.shape == (2, 21, 31)
        assert np.array_equal(ds.responses.view(np.uint64), back.responses.view(np.uint64))
        assert back.param_truth == ds.param_truth == [pts[0], None]
        assert back.config == ds.config
        assert back.noise_spec == ds.noise_spec

    @pytest.mark.parametrize("spoil", [
        lambda t: "not base64!" + t,            # characters outside the alphabet
        lambda t: t[:40] + "\n" + t[40:],       # a line break, which a lenient decoder skips
        lambda t: t[:40] + " " + t[40:],
        lambda t: t + "AAAA",                   # data after the padding
        lambda t: t.rstrip("="),                # padding missing
        lambda t: t + "=",                      # a length that is not a multiple of 4
    ], ids=["foreign_characters", "line_break", "space", "data_after_padding", "missing_padding",
            "extra_padding"])
    def test_responses_that_are_not_strict_base64_are_rejected(self, tmp_path, spoil):
        """Only the base64 text that ``save_dataset`` writes reads back: a
        character outside the alphabet, misplaced padding or a length that is
        not a multiple of 4 is a ValueError that names the base64 text."""
        ds = synthesize([ParamPoint(0.33, 0.1, -0.2, G)], noise=NoiseSpec(0.0, 0))
        # one response row fewer: a byte count that is not a multiple of 3, so the text ends in padding
        ds = replace(ds, responses=ds.responses[:, :-1])
        path = tmp_path / "ds.json"
        save_dataset(ds, path)
        doc = json.loads(path.read_text())
        assert doc["responses"]["base64"].endswith("=")
        doc["responses"]["base64"] = spoil(doc["responses"]["base64"])
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="base64"):
            load_dataset(path)


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
        fit = fit_step(ds.responses[0], ds.config)
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
        _, frames = spectral._fit_spectra(spectral._site_responses(ds.responses, ds.config), ds.config)
        truth = eigensystem(p)
        recon = frames.row(0)
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
            fit = fit_step(ds.responses[0], ds.config)
        assert fit.identifiability_warning

    @pytest.mark.parametrize("kappa", [49.5, -49.5])
    def test_reports_negative_kappa_whatever_the_polish_sign(self, monkeypatch, kappa):
        p = ParamPoint(0.33, 0.0, 0.0, G)
        ds = synthesize([p], noise=NoiseSpec(0.0, 0))
        polished = np.array([19729.0, 83.5, kappa, p.eta, p.zeta, p.xi, p.g])
        monkeypatch.setattr(spectral, "_gauss_newton", _polishing_to(polished))
        fit = fit_step(ds.responses[0], ds.config)
        assert fit.scale.kappa == -49.5

    def test_zero_kappa_diverges(self, monkeypatch):
        p = ParamPoint(0.33, 0.0, 0.0, G)
        ds = synthesize([p], noise=NoiseSpec(0.0, 0))
        polished = np.array([19729.0, 83.5, 0.0, p.eta, p.zeta, p.xi, p.g])
        monkeypatch.setattr(spectral, "_gauss_newton", _polishing_to(polished))
        with pytest.raises(FitDiverged):
            fit_step(ds.responses[0], ds.config)

    def test_rejects_bad_input(self):
        resp = np.full((21, 31), np.nan, dtype=complex)
        with pytest.raises(ValueError):
            fit_step(resp)

    @pytest.mark.parametrize("shape", [(21, 30), (24, 31), (31,), (9, 21, 31)])
    def test_a_spectrum_of_the_wrong_shape_names_the_shape(self, shape):
        with pytest.raises(ValueError, match=r"need responses of shape \(steps, 21, 31\)"):
            fit_step(np.ones(shape, dtype=complex))


def _sites(responses, config):
    """The site responses that ``fit_step`` fits, of a stack of spectra."""
    return spectral._site_responses(responses, config)[0]


def _lab_spectra(preset, source_site, noise, seed):
    """The spectra of the lab pipeline's loop around ``preset`` (the fewest
    steps per segment that give 8 steps), driven at ``source_site``."""
    from eptriad.loops import MIN_STEPS, preset_loop, preset_waypoints

    segments = len(preset_waypoints(preset)) - 1
    pts = list(preset_loop(preset, steps_per_segment=-(-(MIN_STEPS - 1) // segments)).steps)
    return synthesize(pts, CavityConfig(source_site=source_site), NoiseSpec(noise, seed)).responses


#: a cavity-B spectrum whose first start polishes into another basin:
#: the mu3 lab loop at 5 % noise, seed 11, step 6
SECOND_START_CASE = ("mu3", 1, 0.05, 11), 6


@pytest.mark.kernels
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
        starts = spectral._rational_starts(_sites(synthesize([p], cfg).responses, cfg), cfg)[0]
        # a drive at A has one start, a drive at B or C two
        assert np.isfinite(starts).all(axis=1).tolist() == [True, source_site != 2]
        for start in starts[:1 if source_site == 2 else 2]:
            # relative error against the unit scale of the dimensionless parameters
            assert np.all(np.abs(start - truth) <= 1e-8 * np.maximum(np.abs(truth), 1.0)), start - truth

    @pytest.mark.parametrize("source_site", [1, 3])
    def test_sources_b_and_c_fit_from_their_closed_form_start(self, source_site):
        p = ParamPoint(0.33, 0.1, -0.1, G)
        cfg = CavityConfig(source_site=source_site)
        fit = fit_step(synthesize([p], cfg).responses[0], cfg)
        assert fit.residual < 1e-24
        assert np.max(np.abs(fit.point.as_array() - p.as_array())) < 1e-10

    def test_a_response_that_vanishes_leaves_no_start_and_diverges(self):
        """A response exactly 0 at one frequency leaves no start for any
        drive site, and the fit raises FitDiverged."""
        p = ParamPoint(0.33, 0.1, -0.1, G)
        for source_site in (1, 2, 3):
            cfg = CavityConfig(source_site=source_site)
            responses = synthesize([p], cfg).responses
            responses[0, :7, -1] = 0                # cavity B silent at the last frequency
            assert np.isnan(spectral._rational_starts(_sites(responses, cfg), cfg)).all()
            with pytest.raises(FitDiverged, match="no finite closed-form start"):
                fit_step(responses[0], cfg)

    @pytest.mark.parametrize("source_site", [1, 2, 3])
    def test_a_noisy_spectrum_fits_without_the_search(self, monkeypatch, source_site):
        def no_search(*args, **kwargs):
            raise AssertionError("searched")

        monkeypatch.setattr(spectral, "differential_evolution", no_search)
        cfg = CavityConfig(source_site=source_site)
        ds = synthesize([ParamPoint(0.33, 0.1, -0.1, G)], cfg, NoiseSpec(0.01, 4))
        assert fit_step(ds.responses[0], cfg).residual < spectral.RESIDUAL_THRESHOLD

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
                view = spectral._site_responses(spectra, cfg)
                fits, _ = spectral._fit_spectra(view, cfg)
                assert max(f.residual for f in fits) <= spectral.RESIDUAL_THRESHOLD
                y, norm2, floor = view
                first = spectral._rational_starts(y, cfg)[:, 0]
                cost = spectral._gauss_newton(first, y, cfg.frequencies(), norm2, floor, source_site - 1)[1]
                misses += int(np.sum(cost > spectral.RESIDUAL_THRESHOLD))
        assert misses or source_site == 3           # the second start is exercised


@pytest.mark.kernels
class TestStackedStarts:
    """The starts of a stack of spectra come from stacked solves: each row
    keeps the bits of its stack of one, agrees with the per-spectrum
    ``np.linalg.lstsq`` reference, and a fault in one spectrum leaves only
    that spectrum without a start."""

    @pytest.mark.parametrize("source_site", [1, 2, 3])
    @pytest.mark.parametrize("noise", [0.0, 0.05])
    def test_every_row_is_its_stack_of_one_and_near_the_lstsq_starts(self, source_site, noise):
        cfg = CavityConfig(source_site=source_site)
        y = _sites(_lab_spectra("rho1", source_site, noise, 3), cfg)
        starts = spectral._rational_starts(y, cfg)
        for yk, got in zip(y, starts):
            assert np.array_equal(got, spectral._rational_starts(yk[None], cfg)[0], equal_nan=True)
            want = lstsq_rational_starts(yk, cfg)
            assert np.array_equal(np.isnan(got), np.isnan(want))
            assert np.nanmax(np.abs(got - want) / np.maximum(np.abs(want), 1.0)) <= 1e-9

    @pytest.mark.parametrize("source_site, fault", [
        (2, "zero"), (1, "zero"), (3, "zero"), (2, "overflow"), (1, "overflow"), (1, "hopping"), (3, "hopping")])
    def test_a_fault_leaves_only_its_own_row_without_a_start(self, source_site, fault):
        """A site response exactly 0 at one frequency (an infinite weight),
        one whose magnitude overflows (a weight of 0), and, for a drive at B
        or C, a cavity-A response of the wrong sign, whose hopping comes out
        below 0."""
        cfg = CavityConfig(source_site=source_site)
        y = _sites(_lab_spectra("mu1", source_site, 0.01, 0), cfg)
        k = 4
        if fault == "zero":
            y[k, 0, -1] = 0
        elif fault == "overflow":
            y[k, 1, 3] = 1.5e308 * (1 + 1j)
        else:
            y[k, 1] *= -1
        starts = spectral._rational_starts(y, cfg)
        assert np.isnan(starts[k]).all()
        for j in np.flatnonzero(np.arange(len(y)) != k):
            assert np.isfinite(starts[j, 0]).all()
            assert np.array_equal(starts[j], spectral._rational_starts(y[j][None], cfg)[0], equal_nan=True), j


@pytest.mark.kernels
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
        views = spectral._site_responses(synthesize(pts, cfg, NoiseSpec(0.01, seed)).responses, cfg)
        for p, y, norm2, floor in zip(pts, *views):
            starts = [spectral._rational_starts(y[None], cfg)[0, 0], spectral._truth_vector(p, cfg.scale)]
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
        data = ds.responses[7]
        fit = fit_step(data, cfg)
        neighbour = fit_step(ds.responses[6], cfg)
        y, norm2, floor = spectral._site_responses(data[None], cfg)
        (from_neighbour,), *_ = spectral._gauss_newton(neighbour.theta()[None], y, cfg.frequencies(), norm2, floor)
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

    def test_the_responses_are_projected_once(self, monkeypatch):
        """``fit_loop`` fits the view that ``check_dataset`` made of the
        dataset's responses: one ``_site_responses`` call per loop."""
        from eptriad.loops import preset_loop

        calls, project = [], spectral._site_responses
        monkeypatch.setattr(spectral, "_site_responses", lambda *args: calls.append(1) or project(*args))
        fit_loop(synthesize(list(preset_loop("mu1", steps_per_segment=1).steps), CavityConfig(), NoiseSpec(0.01, 0)))
        assert len(calls) == 1

    @pytest.mark.parametrize("preset, noise", [("mu1", 0.01), ("rho1", 0.03)])
    def test_the_frames_are_the_fits_as_one_stack(self, preset, noise):
        """The frames that the fit hands to transport hold each fit's fitted
        point, eigenvalues and residue frames, and its smallest gap in units
        of its fitted |kappa|, bit for bit."""
        cfg = CavityConfig()
        fits, frames = spectral._fit_spectra(spectral._site_responses(_lab_spectra(preset, 2, noise, 1), cfg), cfg)
        assert np.array_equal(frames.params, [f.point.as_array() for f in fits])
        assert np.array_equal(frames.eigenvalues, [f.eigenvalues for f in fits])
        assert np.array_equal(frames.right_vectors, [f.mode_coeffs_right for f in fits])
        assert np.array_equal(frames.left_vectors, [f.mode_coeffs_left for f in fits])
        gap = min_gaps(frames.eigenvalues) / np.array([abs(f.scale.kappa) for f in fits])
        assert np.array_equal(frames.min_gap, gap)
        assert np.array_equal(frames.is_degenerate, gap < DEGENERACY_GAP)

    def test_noiseless_matches_analytic_transport(self):
        from eptriad.loops import preset_loop

        loop = preset_loop("mu1", steps_per_segment=1)
        pts = list(loop.steps)
        ds = synthesize(pts, noise=NoiseSpec(0.0, 0))
        fits, res = fit_loop(ds)
        analytic = transport_eigensystems(eigensystems(loop.params))
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
        searched = [searched_fit(responses, ds.config, seed) for responses in ds.responses]
        # the loop fitted from the searched thetas in place of the closed-form starts
        monkeypatch.setattr(spectral, "_rational_starts",
                            lambda y, config: np.array([[start, np.full(7, np.nan)] for start in searched]))
        _, reference = fit_loop(ds)
        assert res.permutation == reference.permutation
        assert circular_distance(res.berry_phase, reference.berry_phase) < 1e-4
        # relative error; the dimensionless (eta, zeta, xi, g), in units of
        # |kappa|, against their unit scale
        for fit, want in zip(fits, searched):
            scale = np.maximum(np.abs(want), 1.0)
            assert np.all(np.abs(fit.theta() - want) <= 1e-5 * scale)

    @pytest.mark.kernels
    def test_polish_above_threshold_falls_back_to_the_second_start(self, monkeypatch):
        """A cavity-B spectrum whose first start polishes above the residual
        threshold fits from its second start, exactly as a fit that has
        only that start does, with the first polish's Jacobians counted."""
        case, k = SECOND_START_CASE
        responses = _lab_spectra(*case)[k]
        cfg = CavityConfig(source_site=case[1])
        y, norm2, floor = spectral._site_responses(responses[None], cfg)
        first, second = spectral._rational_starts(y, cfg)[0]
        _, (cost,), (spent,) = spectral._gauss_newton(first[None], y, cfg.frequencies(), norm2, floor,
                                                      cfg.source_site - 1)
        assert cost > spectral.RESIDUAL_THRESHOLD
        fit = fit_step(responses, cfg)
        monkeypatch.setattr(spectral, "_rational_starts", lambda y, config: np.array([[second, np.full(7, np.nan)]]))
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
    dataset = spectral.SpectralDataset(config, NoiseSpec(), np.array(spectra), [None] * len(spectra))
    return fit_loop(dataset)[0]


def _assert_fits_as_one_at_a_time(spectra, config=CavityConfig()):
    """A stack of spectra fits bit for bit as each spectrum alone, in the
    serial oracle: each first polish's theta, cost and iterations, every
    FittedParams field, and the warnings in their order."""
    y, norm2, floor = spectral._site_responses(spectra, config)
    freqs, src = config.frequencies(), config.source_site - 1
    starts = np.array([spectral._rational_starts(yk[None], config)[0, 0] for yk in y])
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


@pytest.mark.kernels
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

    def test_a_singular_jacobian_stops_only_its_own_spectrum(self):
        """A start at kappa = 0, whose Jacobian has exactly zero columns (the
        kappa, eta, zeta, xi and g derivatives), in a stack of nine: it stops
        without a step and raises nothing, and every other spectrum keeps
        the bits of its polish on its own."""
        cfg = CavityConfig()
        y, norm2, floor = spectral._site_responses(_mu1_spectra(0.01, 0), cfg)
        freqs = cfg.frequencies()
        starts = spectral._rational_starts(y, cfg)[:, 0]
        starts[4, 2] = 0.0
        theta, cost, iterations = spectral._gauss_newton(starts, y, freqs, norm2, floor)
        assert np.array_equal(theta[4], starts[4]) and iterations[4] == 1 and np.isfinite(cost[4])
        for k in np.flatnonzero(np.arange(9) != 4):
            want = serial_gauss_newton(starts[k], y[k], freqs, norm2[k], floor[k])
            assert np.array_equal(theta[k], want[0]) and cost[k] == want[1] and iterations[k] == want[2], k

    def test_a_spectrum_without_a_start_diverges_in_its_turn(self):
        spectra = _mu1_spectra(0.01, 2)
        spectra[3, :7, -1] = 0                    # cavity B silent at the last frequency: no start
        got = _recorded(_fit_loop_of, spectra, CavityConfig())
        assert got == _recorded(_one_at_a_time, spectra, CavityConfig())
        assert got[0] == (FitDiverged, "no finite closed-form start")


@pytest.mark.kernels
class TestLstsqReference:
    """The stacked QR solves and the polish's floor at 1e-14 in place of
    1e-15 move a fit only by rounding: every fit stays within 1e-7 in (eta,
    zeta, xi, g), 1e-5 rad/s in (omega0, gamma0, kappa) and 1e-12 relative in
    the residual of the fit whose every least-squares problem LAPACK's
    ``lstsq`` solves, with the floor at 1e-15 (``oracles.lstsq_fit_step``)."""

    @pytest.mark.parametrize("preset, source_site, noise, seed",
                             [("mu1", 2, 0.01, seed) for seed in range(8)]
                             + [("mu1", site, 0.01, seed) for site in (1, 3) for seed in range(2)]
                             + [(preset, 2, 0.03, 5) for preset in PRESET_NAMES])
    def test_fits_within_the_bounds_of_the_lstsq_fit(self, preset, source_site, noise, seed):
        spectra = _lab_spectra(preset, source_site, noise, seed)
        cfg = CavityConfig(source_site=source_site)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IdentifiabilityWarning)
            got, _ = spectral._fit_spectra(spectral._site_responses(spectra, cfg), cfg)
            want = [lstsq_fit_step(r, cfg) for r in spectra]
        for k, (g, w) in enumerate(zip(got, want)):
            assert np.max(np.abs(g.point.as_array() - w.point.as_array())) <= 1e-7, k
            assert np.max(np.abs(g.theta()[:3] - w.theta()[:3])) <= 1e-5, k
            assert abs(g.residual - w.residual) <= 1e-12 * w.residual, k


def _corrupt_eigensolves_at(monkeypatch, point):
    """Make ``np.linalg.eigvals`` return a wrong eigenvalue, and ``np.linalg.eig``
    a wrong eigenvector, at ``point``'s Hamiltonian, so its row fails the
    residual check whether its frame is closed-form or LAPACK's."""
    target = _hamiltonians(point.as_array()[None])
    eig, eigvals = np.linalg.eig, np.linalg.eigvals

    def corrupting_eig(h):
        w, v = eig(h)
        v = v.copy()
        hit = (h == target).all(axis=(1, 2))
        v[hit, :, 0] = v[hit, :, 1]
        return w, v

    def corrupting_eigvals(h):
        w = eigvals(h).copy()
        w[(h == target).all(axis=(1, 2)), 0] += 1e-3
        return w

    monkeypatch.setattr(np.linalg, "eig", corrupting_eig)
    monkeypatch.setattr(np.linalg, "eigvals", corrupting_eigvals)


def _vanish_residues_of(monkeypatch, spectrum, config):
    """Make the residue solve of ``spectrum`` (the row of a ``spectral._lstsq``
    call whose right-hand side is its site responses) give state 2 no residue."""
    target = spectral._site_responses(spectrum[None], config)[0][0].T
    lstsq = spectral._lstsq

    def vanishing_lstsq(a, b):
        x, qb = lstsq(a, b)
        if b.shape[1:] == target.shape:
            x = x.copy()
            x[(b == target).all(axis=(1, 2)), 1] = 0
        return x, qb

    monkeypatch.setattr(spectral, "_lstsq", vanishing_lstsq)


def _low_loss_mu1_spectra():
    """The lab pipeline's mu1 loop at a true gamma0 of 1 rad/s, 3 % noise and
    seed 3: the unbounded polish of step 7 ends at gamma0 = -0.46 rad/s, and
    step 4 warns when it fits."""
    from eptriad.loops import preset_loop

    cfg = CavityConfig(scale=PhysicalScale(gamma0=1.0))
    return synthesize(list(preset_loop("mu1", steps_per_segment=1).steps), cfg, NoiseSpec(0.03, 3)).responses, cfg


class TestLoopOrderFailures:
    """A loop's fits fail by stage: the first spectrum whose polish diverges
    (``_divergence``), else the first whose eigen-solve fails its residual
    check, else the first with a vanishing residue column.  So a loop with
    one failing spectrum raises what fitting that spectrum alone raises,
    and no loop that fails warns."""

    @staticmethod
    def _near_ep(zeta_offset):
        ep = refine_ep(ParamPoint(0.33, 0.54, 0.40, G)).point
        return synthesize([ParamPoint(0.33, ep.zeta + zeta_offset, ep.xi, G)]).responses[0]

    @staticmethod
    def _spoil(monkeypatch, kind, spectra, k, cfg):
        """Make spectrum k fail at the stage of ``kind``."""
        if kind is FitDiverged:
            rng = np.random.default_rng(3)
            spectra[k] = rng.standard_normal((21, 31)) + 1j * rng.standard_normal((21, 31))
        elif kind is InaccurateEigensystem:
            _corrupt_eigensolves_at(monkeypatch, serial_fit_step(spectra[k], cfg).point)
        else:
            _vanish_residues_of(monkeypatch, spectra[k], cfg)

    @staticmethod
    def _alone(spectra, k, cfg):
        """What fitting spectrum k alone gives, as ``_recorded`` records it."""
        return _recorded(lambda s, c: [serial_fit_step(s[k], c)], spectra, cfg)

    # "vanishing" spoils the residue solve, its error a FitDiverged too
    @pytest.mark.parametrize("kind, message", [(FitDiverged, "normalized residual"),
                                               (InaccurateEigensystem, "eigen residual"),
                                               ("vanishing", "vanishing residue column for state 2")],
                             ids=["divergence", "inaccurate", "vanishing"])
    def test_one_failure_raises_as_its_spectrum_alone(self, monkeypatch, kind, message):
        """Step 6 fails, with no warning from the steps before it, which warn
        when the spectra are fitted one at a time."""
        spectra, cfg = _mu1_spectra(0.01, 4), CavityConfig()
        spectra[1] = self._near_ep(0.002)
        self._spoil(monkeypatch, kind, spectra, 6, cfg)
        got = _recorded(_fit_loop_of, spectra, cfg)
        assert got == self._alone(spectra, 6, cfg)
        (raised, text), warned = got
        assert raised is (FitDiverged if kind == "vanishing" else kind) and text.startswith(message)
        assert warned == [] and _recorded(_one_at_a_time, spectra, cfg)[1]

    def test_a_fitted_loss_below_0_diverges(self):
        """No PhysicalScale takes the gamma0 < 0 of step 7: it diverges, named
        by its value, as fitting step 7 alone does, without step 4's warning."""
        spectra, cfg = _low_loss_mu1_spectra()
        got = _recorded(_fit_loop_of, spectra, cfg)
        assert got == self._alone(spectra, 7, cfg)
        assert got == ((FitDiverged, "fitted omega0 = 19729.8 rad/s, gamma0 = -0.461788 rad/s: "
                                     "need omega0 > 0, gamma0 >= 0"), [])
        assert _recorded(_one_at_a_time, spectra, cfg)[1]

    @pytest.mark.parametrize("steps", [(3, 6), (6, 3)], ids=["earlier-stage-first", "earlier-stage-last"])
    @pytest.mark.parametrize("earlier, later", [(FitDiverged, InaccurateEigensystem), (FitDiverged, "vanishing"),
                                                (InaccurateEigensystem, "vanishing")],
                             ids=["divergence-inaccurate", "divergence-vanishing", "inaccurate-vanishing"])
    def test_of_two_failures_the_earlier_stage_raises(self, monkeypatch, earlier, later, steps):
        spectra, cfg = _mu1_spectra(0.01, 4), CavityConfig()
        spectra[1] = self._near_ep(0.002)
        for kind, k in zip((earlier, later), steps):
            self._spoil(monkeypatch, kind, spectra, k, cfg)
        got = _recorded(_fit_loop_of, spectra, cfg)
        assert got == self._alone(spectra, steps[0], cfg)
        assert got[0][0] is earlier and got[1] == []

    @pytest.mark.parametrize("vanishes", [2, 8])
    def test_a_fitted_loss_below_0_diverges_before_any_residue_check(self, monkeypatch, vanishes):
        spectra, cfg = _low_loss_mu1_spectra()
        _vanish_residues_of(monkeypatch, spectra[vanishes], cfg)
        got = _recorded(_fit_loop_of, spectra, cfg)
        assert got == self._alone(spectra, 7, cfg)
        assert "gamma0 = -0.461788" in got[0][1]


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
            fit = fit_step(ds.responses[0], ds.config)
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
                fit = fit_step(ds.responses[0], ds.config)
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
