import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import eptriad.spectral as spectral
from conftest import circular_distance
from eptriad.errors import FitDiverged, IdentifiabilityWarning, PoleProximity
from eptriad.locate import refine_ep
from eptriad.model import ParamPoint, PhysicalScale, eigensystem, to_physical
from eptriad.spectral import (
    CavityConfig,
    FitConfig,
    NoiseSpec,
    fit_loop,
    fit_step,
    fitted_eigensystem,
    greens_3site,
    isolated_cavity_pole,
    load_dataset,
    onsite_profile,
    save_dataset,
    synthesize,
)
from eptriad.transport import transport_eigensystems

G = 0.61

FAST_FIT = FitConfig(population=48, generations=80, seed=11)


class TestModeProfile:
    def test_default_sampling(self):
        prof = onsite_profile(CavityConfig())
        s = prof.samples
        assert len(s) == 7
        # middle sample is the negative antinode
        assert s[3] == min(s)
        assert np.isclose(abs(s[3]), 1.0 / np.linalg.norm(np.cos(2 * np.pi * (np.arange(1, 8) - 0.5) / 7)))
        nz = s[np.abs(s) > 1e-12]
        assert int(np.sum(np.sign(nz[:-1]) != np.sign(nz[1:]))) == 2

    def test_two_positions_rejected(self):
        with pytest.raises(ValueError):
            onsite_profile(CavityConfig(n_positions_per_cavity=2))

    def test_many_positions_keep_two_nodes(self):
        prof = onsite_profile(CavityConfig(n_positions_per_cavity=31))
        nz = prof.samples[np.abs(prof.samples) > 1e-12]
        assert int(np.sum(np.sign(nz[:-1]) != np.sign(nz[1:]))) == 2


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

    def test_pole_proximity(self):
        p = ParamPoint(0.33, 0.0, 0.0, G)
        es = eigensystem(p)
        w = to_physical(es.eigenvalues[1])
        with pytest.raises(PoleProximity):
            greens_3site(w + 1e-8, p)


class TestIsolatedPoles:
    def test_neutral_cavity_a(self):
        pole = isolated_cavity_pole("A", ParamPoint(0.2, 0, 0, G))
        assert pole == 19729.0 + 83.5j

    def test_detuned_cavity_a(self):
        pole = isolated_cavity_pole("A", ParamPoint(0, 0.5, 0.5, 0))
        assert np.isclose(pole, 19704.25 + (83.5 - 24.75) * 1j)

    def test_b_c_mirror(self):
        p = ParamPoint(0.3, 0.1, -0.2, G)
        onsite = 19729.0 + 83.5j
        pb = isolated_cavity_pole("B", p) - onsite
        pc = isolated_cavity_pole("C", p) - onsite
        assert np.isclose(pb, -pc)


class TestSynthesis:
    def test_noiseless_matches_greens(self):
        cfg = CavityConfig()
        p = ParamPoint(0.33, 0.1, -0.1, G)
        ds = synthesize([p], cfg, NoiseSpec(0.0, 0))
        phi = onsite_profile(cfg).samples
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


def _scalar_response(theta, freqs, n_pos, src):
    """Reference forward model: one Hamiltonian and one eig per parameter vector."""
    w0, g0, kap, eta, zeta, xi, g = theta
    s2 = np.sqrt(2.0)
    h = -np.array(
        [
            [s2 * (1j + eta) + 1j * s2 * g, 1.0, 0.0],
            [1.0, 1j * zeta + xi, 1.0],
            [0.0, 1.0, -s2 * (1j + eta) - 1j * s2 * g],
        ],
        dtype=complex,
    )
    w, v = np.linalg.eig(h)
    v = v / np.linalg.norm(v, axis=0)
    bil = np.sum(v * v, axis=0)
    wphys = (w0 + 1j * g0) + abs(kap) * w
    z = (np.arange(1, n_pos + 1) - 0.5) / n_pos
    phi = np.cos(2 * np.pi * z)
    phi = phi / np.linalg.norm(phi)
    num = v * (v[src, :] / bil)[None, :]
    gcol = num @ (1.0 / (freqs[None, :] - wphys[:, None]))
    return (phi[:, None] * gcol[:, None, :]).reshape(3 * n_pos, len(freqs)) * phi[-1]


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
        batch = spectral._response_matrix(thetas, freqs, 7, src)
        assert batch.shape == (thetas.shape[1], 21, len(freqs))
        for k in range(thetas.shape[1]):
            single = spectral._response_matrix(thetas[:, k], freqs, 7, src)
            assert np.array_equal(batch[k], single)
            assert np.array_equal(single, _scalar_response(thetas[:, k], freqs, 7, src))

    def test_synthesize_mu1_matches_scalar_reference(self):
        from eptriad.loops import preset_loop

        cfg = CavityConfig()
        freqs = cfg.frequencies()
        pts = list(preset_loop("mu1", steps_per_segment=1).steps)
        noise = NoiseSpec(0.01, 23)
        ds = synthesize(pts, cfg, noise)
        for k, (p, step) in enumerate(zip(pts, ds.steps)):
            theta = np.array([cfg.scale.omega0, cfg.scale.gamma0, cfg.scale.kappa, p.eta, p.zeta, p.xi, p.g])
            want = _scalar_response(theta, freqs, cfg.n_positions_per_cavity, cfg.source_site - 1)
            rng = np.random.default_rng([noise.seed, k])
            want = want * (1.0 + noise.relative_amplitude * (
                rng.standard_normal(want.shape) + 1j * rng.standard_normal(want.shape)
            ) / np.sqrt(2.0))
            assert step.responses.tobytes() == want.tobytes()


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


class TestFitStep:
    def test_noiseless_round_trip(self):
        p = ParamPoint(0.33, 0.0, 0.0, G)
        ds = synthesize([p], noise=NoiseSpec(0.0, 0))
        fit = fit_step(ds.steps[0].responses, ds.config, fit_config=FAST_FIT)
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
        fit = fit_step(ds.steps[0].responses, ds.config, fit_config=FAST_FIT)
        truth = eigensystem(p)
        recon = fitted_eigensystem(fit)
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
            fit = fit_step(ds.steps[0].responses, ds.config, fit_config=FAST_FIT)
        assert fit.identifiability_warning

    @pytest.mark.parametrize("kappa", [49.5, -49.5])
    def test_reports_negative_kappa_whatever_the_polish_sign(self, monkeypatch, kappa):
        p = ParamPoint(0.33, 0.0, 0.0, G)
        ds = synthesize([p], noise=NoiseSpec(0.0, 0))
        polished = np.array([19729.0, 83.5, kappa, p.eta, p.zeta, p.xi, p.g])
        monkeypatch.setattr(spectral, "_gauss_newton", lambda *args: (polished, 0.0))
        fit = fit_step(ds.steps[0].responses, ds.config, fit_config=FitConfig(population=8, generations=1))
        assert fit.scale.kappa == -49.5

    def test_zero_kappa_diverges(self, monkeypatch):
        p = ParamPoint(0.33, 0.0, 0.0, G)
        ds = synthesize([p], noise=NoiseSpec(0.0, 0))
        polished = np.array([19729.0, 83.5, 0.0, p.eta, p.zeta, p.xi, p.g])
        monkeypatch.setattr(spectral, "_gauss_newton", lambda *args: (polished, 0.0))
        with pytest.raises(FitDiverged):
            fit_step(ds.steps[0].responses, ds.config, fit_config=FitConfig(population=8, generations=1))

    def test_rejects_bad_input(self):
        resp = np.full((21, 31), np.nan, dtype=complex)
        with pytest.raises(ValueError):
            fit_step(resp)


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
        fits, res = fit_loop(ds, fit_config=FAST_FIT)
        analytic = transport_eigensystems([eigensystem(q) for q in pts], refine=False)
        assert res.permutation == analytic.permutation
        assert circular_distance(res.berry_phase, analytic.berry_phase) < 1e-6


@pytest.mark.slow
class TestFittedCompositeLoops:
    def test_fitted_cycle_loops_are_distinct(self):
        """Fitting both composite loops recovers the two distinct 3-cycles."""
        from eptriad.loops import preset_loop

        perms = {}
        for name in ("rho1", "rho2"):
            loop = preset_loop(name, steps_per_segment=1)
            ds = synthesize(list(loop.steps), noise=NoiseSpec(0.0, 0))
            _, res = fit_loop(ds, fit_config=FAST_FIT)
            perms[name] = res.permutation.as_string()
        assert perms == {"rho1": "231", "rho2": "312"}


@pytest.mark.slow
def test_lab_mu1_seed_23_recovers_132():
    """The lab pipeline's mu1 fit at 1% noise and seed 23 once ended in FitDiverged."""
    from eptriad.loops import preset_loop

    pts = list(preset_loop("mu1", steps_per_segment=1).steps)
    ds = synthesize(pts, CavityConfig(), NoiseSpec(0.01, 23))
    _, res = fit_loop(ds, fit_config=FitConfig(seed=23))
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
            fit = fit_step(ds.steps[0].responses, ds.config, fit_config=FitConfig(population=48, generations=80, seed=k))
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
                fit = fit_step(
                    ds.steps[0].responses, ds.config,
                    fit_config=FitConfig(population=48, generations=80, seed=seed + 50),
                )
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
