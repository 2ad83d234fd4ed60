import base64
import csv
import importlib
import json
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import eptriad.cli
import eptriad.locate
import eptriad.model
from eptriad.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERICAL, EXIT_OK, main
from eptriad.locate import refine_ep
from eptriad.loops import MIN_STEPS, PRESET_NAMES, preset_waypoints
from eptriad.model import ParamPoint, discriminant_formula
from eptriad.spectral import CavityConfig, save_dataset, synthesize

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def run(argv):
    return main(argv)


class TestGroupCommand:
    def test_writes_report(self, tmp_path, capsys):
        code = run(["group", "--out", str(tmp_path)])
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "group.json").read_text())
        assert doc["witness"] == ["mu1", "mu3"]
        assert doc["matrices"]["mu1"] == [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
        out = capsys.readouterr().out
        assert "non-commuting witness" in out
        assert (tmp_path / "manifest.json").exists()


class TestLoopCommand:
    def test_preset_report(self, tmp_path):
        code = run(["loop", "--preset", "mu1", "--steps-per-segment", "200", "--out", str(tmp_path)])
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "loop_mu1.json").read_text())
        assert doc["permutation"] == "132"
        assert doc["cycles_to_identity"] == 2
        assert abs(abs(doc["theta"]) - np.pi) < 1e-3
        assert np.allclose(doc["nabp_abs"], [[1, 0, 0], [0, 0, 1], [0, 1, 0]], atol=0.05)

    def test_requires_preset_or_config(self, capsys):
        assert run(["loop"]) == EXIT_CONFIG

    def test_custom_config(self, tmp_path):
        cfg = {
            "label": "tiny",
            "g": 0.61,
            "eta_mode": "per-point",
            "waypoints": [[0.33, 0.02, 0.02], [0.33, 0.1, 0.02], [0.33, 0.1, 0.1], [0.33, 0.02, 0.02]],
            "steps_per_segment": 20,
        }
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(cfg))
        code = run(["loop", "--config", str(path), "--out", str(tmp_path)])
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "loop_tiny.json").read_text())
        assert doc["permutation"] == "123"

    def test_deterministic_reports(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run(["loop", "--preset", "mu3", "--steps-per-segment", "100", "--out", str(d1)])
        run(["loop", "--preset", "mu3", "--steps-per-segment", "100", "--out", str(d2)])
        assert (d1 / "loop_mu3.json").read_bytes() == (d2 / "loop_mu3.json").read_bytes()

    def test_remaining_presets(self, tmp_path):
        run(["loop", "--preset", "rho1", "--steps-per-segment", "128", "--out", str(tmp_path)])
        doc = json.loads((tmp_path / "loop_rho1.json").read_text())
        assert doc["permutation"] == "231"
        assert abs(doc["theta"]) < 0.01
        run(["loop", "--preset", "mu2", "--steps-per-segment", "128", "--out", str(tmp_path)])
        doc = json.loads((tmp_path / "loop_mu2.json").read_text())
        assert doc["permutation"] == "321"
        assert abs(abs(doc["theta"]) - np.pi) < 0.01
        run(["loop", "--preset", "big", "--steps-per-segment", "128", "--out", str(tmp_path)])
        doc = json.loads((tmp_path / "loop_big.json").read_text())
        assert doc["cycles_to_identity"] == 3

    def test_fixed_eta_config(self, tmp_path):
        cfg = {
            "label": "fixed-eta",
            "g": 0.61,
            "eta_mode": "fixed",
            "eta": 0.33,
            "waypoints": [[0.02, 0.02], [0.1, 0.02], [0.1, 0.1], [0.02, 0.02]],
            "steps_per_segment": 16,
        }
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(cfg))
        assert run(["loop", "--config", str(path), "--out", str(tmp_path)]) == EXIT_OK
        doc = json.loads((tmp_path / "loop_fixed-eta.json").read_text())
        assert doc["permutation"] == "123"


# any finite float, and often one of the slice's own scale
_FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.floats(-2, 2))


class TestSurfaceCommand:
    def test_grid_csv(self, tmp_path):
        code = run([
            "surface", "--eta", "0.33", "--g", "0.61", "--grid", "41",
            "--window", "-1", "1", "-1", "1", "--out", str(tmp_path),
        ])
        assert code == EXIT_OK
        with (tmp_path / "surface.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:2] == ["zeta", "xi"]
        assert len(rows) - 1 == 41 * 41
        disc = np.array([float(r[-1]) for r in rows[1:]])
        z = np.array([float(r[0]) for r in rows[1:]])
        x = np.array([float(r[1]) for r in rows[1:]])
        # the two deepest |disc| minima sit at the two arc crossings
        k1, k2 = np.argsort(disc)[:2]
        found = sorted([(z[k1], x[k1]), (z[k2], x[k2])])
        assert np.allclose(found, [(-0.5408, -0.3963), (0.5408, 0.3963)], atol=0.05)

    @pytest.mark.parametrize("eta, g, window, nz, nx", [
        pytest.param(0.33, 0.61, (-1.0, 1.0, -1.0, 1.0), 21, 21, id="0.33-0.61-window0"),
        # beyond the validated regime |p| <= 1
        pytest.param(-1.2, 0.3, (-1.5, 1.4, -1.3, 1.5), 21, 21, id="-1.2-0.3-window1"),
        pytest.param(0.2, 0.3, (-1.0, 0.9, -0.8, 1.0), 7, 13, id="7x13"),
        pytest.param(0.33, 0.61, (-1.0, 1.0, -1.0, 1.0), 1, 9, id="1x9"),
        pytest.param(0.33, 0.61, (-1.0, 1.0, -1.0, 1.0), 9, 1, id="9x1"),
        # at 1024 points per solve: three blocks of rows, the last one ragged
        pytest.param(0.37, 0.61, (-1.0, 1.0, -1.0, 1.0), 41, 57, id="41x57"),
    ])
    def test_csv_equals_the_per_point_reference(self, tmp_path, eta, g, window, nz, nx):
        """The streamed CSV has the bytes of csv.writer writing the rows one
        by one, with the ParamPoint discriminant and numpy scalars formatted."""
        argv = ["surface", "--eta", repr(eta), "--g", repr(g), "--grid", f"{nz}x{nx}",
                "--window", *map(repr, window), "--out", str(tmp_path / "cli")]
        assert run(argv) == EXIT_OK
        zz, xx = np.linspace(window[0], window[1], nz), np.linspace(window[2], window[3], nx)
        tracked = eptriad.locate.track_sheets(eta, g, zz, xx)
        ref = tmp_path / "reference.csv"
        with ref.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["zeta", "xi", "re_omega_1", "re_omega_2", "re_omega_3",
                             "im_omega_1", "im_omega_2", "im_omega_3", "abs_disc"])
            for a, z in enumerate(zz):
                for b, x in enumerate(xx):
                    w, d = tracked[a, b], abs(discriminant_formula(ParamPoint(eta, z, x, g)))
                    writer.writerow([f"{z:.10g}", f"{x:.10g}"] + [f"{w[k].real:.12g}" for k in range(3)]
                                    + [f"{w[k].imag:.12g}" for k in range(3)] + [f"{d:.12g}"])
        assert (tmp_path / "cli" / "surface.csv").read_bytes() == ref.read_bytes()

    def test_negative_numbers_in_exponent_form_are_values(self, tmp_path):
        code = run([
            "surface", "--eta", "-1e-3", "--grid", "5",
            "--window", "-1e-1", "1e-1", "-1e-1", "1e-1", "--out", str(tmp_path),
        ])
        assert code == EXIT_OK
        with (tmp_path / "surface.csv").open() as fh:
            rows = list(csv.reader(fh))[1:]
        assert (rows[0][:2], rows[-1][:2]) == (["-0.1", "-0.1"], ["0.1", "0.1"])

    @settings(max_examples=300, deadline=None)
    @given(
        eta=_FINITE, g=_FINITE, window=st.lists(_FINITE, min_size=4, max_size=4),
        grid=st.one_of(
            st.integers(-2, 5).map(str),
            st.tuples(st.integers(-1, 5), st.integers(-1, 5)).map("{0[0]}x{0[1]}".format),
            st.sampled_from(["", "x", "3x", "ax3", "2.5", "1e1", "1x2x3"]),
        ),
    )
    @example(eta=1e300, g=-0.0, window=[-5e-324, 5e-324, -1.0, 1.0], grid="3")
    @example(eta=-0.0, g=-1e300, window=[-1e300, 1e300, -0.0, 2.0], grid="2x5")
    @example(eta=0.33, g=0.61, window=[0.0, 1.7976931348623157e308, -1.0, 0.0], grid="4")
    def test_any_finite_input_exits_0_or_2(self, eta, g, window, grid):
        """Finite arguments give a CSV free of inf and nan, or a config error
        that leaves no output directory."""
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            code = run(["surface", "--eta", repr(eta), "--g", repr(g), "--grid", grid,
                        "--window", *map(repr, window), "--out", str(out)])
            assert code in (EXIT_OK, EXIT_CONFIG)
            if code == EXIT_CONFIG:
                assert not out.exists()
            else:
                assert not re.search("nan|inf", (out / "surface.csv").read_text())

    def test_empty_window_header_only(self, tmp_path):
        code = run([
            "surface", "--eta", "0.33", "--grid", "41",
            "--window", "1", "-1", "-1", "1", "--out", str(tmp_path),
        ])
        assert code == EXIT_OK
        lines = (tmp_path / "surface.csv").read_text().strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("zeta,xi")


def _not_a_dataset(doc):
    return {"not": "a dataset"}


def _responses(doc):
    """The responses array of a dataset document, decoded."""
    block = doc["responses"]
    return np.frombuffer(base64.b64decode(block["base64"]), block["dtype"]).reshape(block["shape"]).copy()


def _encoded(doc, responses):
    """``doc`` holding ``responses``, encoded as ``save_dataset`` encodes them."""
    doc["responses"] = {"dtype": "<c16", "shape": list(responses.shape),
                        "base64": base64.b64encode(responses.astype("<c16").tobytes()).decode("ascii")}
    return doc


def _three_steps(doc):
    doc["param_truth"] = doc["param_truth"][:3]
    return _encoded(doc, _responses(doc)[:3])


def _nan_response(doc):
    r = _responses(doc)
    r[4, 0, 0] = complex(float("nan"), 0.0)
    return _encoded(doc, r)


def _zero_responses(doc):
    r = _responses(doc)
    r[4] = 0
    return _encoded(doc, r)


def _missing_row(doc):
    return _encoded(doc, _responses(doc)[:, :-1])


def _not_base64(doc):
    doc["responses"]["base64"] = "not base64!" + doc["responses"]["base64"]
    return doc


def _shape_disagrees_with_bytes(doc):
    doc["responses"]["shape"][2] -= 1
    return doc


def _complex64_tag(doc):
    doc["responses"]["dtype"] = "<c8"
    return doc


def _one_truth_short(doc):
    doc["param_truth"].pop()
    return doc


def _per_step_pairs(doc):
    """The older dataset form: a ``steps`` list, each response as [re, im] pairs."""
    r = _responses(doc)
    steps = [{"param_truth": t, "responses": np.stack([rk.real, rk.imag], axis=-1).tolist()}
             for t, rk in zip(doc["param_truth"], r)]
    return {"config": doc["config"], "noise_spec": doc["noise_spec"], "steps": steps}


def _string_noise_seed(doc):
    doc["noise_spec"]["seed"] = "x"
    return doc


def _boolean_noise_amplitude(doc):
    doc["noise_spec"]["relative_amplitude"] = True
    return doc


def _shape_spoiler(shape):
    """A mutator that writes ``shape`` as the responses' shape."""
    def spoil(doc):
        doc["responses"]["shape"] = shape
        return doc
    spoil.__name__ = f"_shape_{str(shape).replace(' ', '')}"
    return spoil


def _unknown_config_key(doc):
    doc["config"]["n_position_per_cavity"] = 7
    return doc


def _missing_config_key(doc):
    del doc["config"]["frequency_window"]
    return doc


def _missing_scale_key(doc):
    del doc["config"]["scale"]["kappa"]
    return doc


class TestLabCommand:
    def test_synth_writes_dataset(self, tmp_path):
        code = run([
            "lab", "synth", "--loop-preset", "mu1", "--noise", "0.0",
            "--seed", "3", "--out", str(tmp_path),
        ])
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "dataset.json").read_text())
        assert doc["responses"]["shape"] == [9, 21, 31] and len(doc["param_truth"]) == 9
        assert _responses(doc).shape == (9, 21, 31)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert sorted(manifest["versions"]) == ["eptriad", "numpy", "python"]

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_synth_builds_every_loop_preset(self, tmp_path, preset):
        """Each preset's lab loop has the fewest steps per segment that give MIN_STEPS steps."""
        assert run(["lab", "synth", "--loop-preset", preset, "--out", str(tmp_path)]) == EXIT_OK
        segments = len(preset_waypoints(preset)) - 1
        doc = json.loads((tmp_path / "dataset.json").read_text())
        n_steps = doc["responses"]["shape"][0]
        assert len(doc["param_truth"]) == n_steps
        assert MIN_STEPS <= n_steps < MIN_STEPS + segments

    def test_pipeline_of_big_recovers_its_permutation(self, tmp_path, canonical_transports):
        code = run(["lab", "pipeline", "--loop-preset", "big", "--noise", "0.01", "--out", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "fit_report.json").read_text())
        assert report["transport"]["permutation"] == canonical_transports["big"].permutation.as_string()

    @pytest.mark.parametrize("seed", [1, 5])
    def test_a_noisy_rho2_fit_is_reliable(self, tmp_path, seed):
        """At 3 % noise, seeds 1 and 5, one step of the 17-step rho2 lab loop
        turns arg(disc) by about pi, so a per-step phase sum aliases it and
        reads a winding near -1; the polygon of the fitted points winds -2, and
        the 3-cycle's even parity agrees."""
        code = run(["lab", "pipeline", "--loop-preset", "rho2", "--noise", "0.03", "--seed", str(seed),
                    "--out", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "fit_report.json").read_text())["transport"]
        assert (report["permutation"], report["reliable"]) == ("312", True)
        assert abs(report["vorticity"]["discriminant"] + 2) < 0.05

    def test_synth_applies_every_cavity_key(self, tmp_path):
        cfg = tmp_path / "lab.json"
        cfg.write_text(json.dumps({"frequency_window": 300.0, "source_site": 1}))
        code = run([
            "lab", "synth", "--config", str(cfg), "--noise", "0.0", "--out", str(tmp_path),
        ])
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "dataset.json").read_text())
        assert doc["config"]["frequency_window"] == 300.0
        assert doc["config"]["source_site"] == 1
        assert doc["config"]["n_frequencies"] == 31

    @pytest.mark.parametrize("bad", [
        {"frequency_windw": 300.0},
        {"seed": 4},
        {"scale": {"omega": 19729.0}},
        {"n_frequencies": "31"},
        [1, 2],
        {"population": "x"},
        {"generations": 2.5},
        {"n_positions_per_cavity": 2},
        {"source_site": 5},
        '{"frequency_window": 1e400}',          # JSON text: the window reads as inf
        {"n_frequencies": 7.5},
        {"n_positions_per_cavity": 3.5},
        '{"scale": {"omega0": 1e400, "gamma0": 83.5, "kappa": -49.5}}',
        # JSON booleans, which Python reads as 1 and 0, and a geometry that is no string
        {"scale": {"omega0": True, "gamma0": 83.5, "kappa": -49.5}},
        {"frequency_window": True},
        '{"geometry_metadata": NaN}',
        {"geometry_metadata": ["cavity height 110 mm"]},
    ])
    def test_bad_config_is_config_error(self, tmp_path, bad):
        cfg = tmp_path / "lab.json"
        cfg.write_text(bad if isinstance(bad, str) else json.dumps(bad))
        code = run(["lab", "synth", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert not (tmp_path / "dataset.json").exists()

    @pytest.mark.parametrize(
        "spoil",
        [_not_a_dataset, _three_steps, _nan_response, _zero_responses, _missing_row,
         _unknown_config_key, _missing_config_key, _missing_scale_key,
         _not_base64, _shape_disagrees_with_bytes, _complex64_tag, _one_truth_short, _per_step_pairs,
         _string_noise_seed, _boolean_noise_amplitude,
         # shapes that are not three non-negative integers; [-9, -21, 31] has the right product
         *(_shape_spoiler(shape) for shape in ([9, 651], [9, 21, 31, 1], [-9, -21, 31], [9, 21, 31.0],
                                                [9, 21, True], "9x21x31"))],
        ids=lambda f: f.__name__.lstrip("_"),
    )
    def test_fit_rejects_malformed_dataset(self, tmp_path, spoil):
        """A dataset that cannot be fitted is a config error, found before any fit runs."""
        assert run(["lab", "synth", "--noise", "0.0", "--out", str(tmp_path)]) == EXIT_OK
        path = tmp_path / "dataset.json"
        path.write_text(json.dumps(spoil(json.loads(path.read_text()))))
        code = run(["lab", "fit", "--dataset", str(path), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert not (tmp_path / "fit_report.json").exists()

    def test_fit_of_a_pipeline_dataset_repeats_its_report(self, tmp_path):
        """A dataset read back fits to the pipeline's fit_report.json byte for byte."""
        args = ["--loop-preset", "mu1", "--noise", "0.01", "--seed", "1"]
        assert run(["lab", "pipeline", *args, "--out", str(tmp_path / "p")]) == EXIT_OK
        dataset = str(tmp_path / "p" / "dataset.json")
        assert run(["lab", "fit", "--dataset", dataset, *args, "--out", str(tmp_path / "f")]) == EXIT_OK
        assert (tmp_path / "p" / "fit_report.json").read_bytes() == (tmp_path / "f" / "fit_report.json").read_bytes()

    def test_fit_manifest_records_the_dataset_seed(self, tmp_path):
        """``lab fit`` reads no --seed: its manifest names the seed of the
        dataset's noise, not the --seed default."""
        assert run(["lab", "synth", "--noise", "0.01", "--seed", "5", "--out", str(tmp_path / "s")]) == EXIT_OK
        dataset = str(tmp_path / "s" / "dataset.json")
        assert run(["lab", "fit", "--dataset", dataset, "--out", str(tmp_path / "f")]) == EXIT_OK
        assert json.loads((tmp_path / "f" / "manifest.json").read_text())["seed"] == 5

    def test_negative_noise_in_exponent_form_is_a_config_error(self, tmp_path, capsys):
        assert run(["lab", "synth", "--noise", "-1e-3", "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "noise amplitude must be finite and at least 0" in capsys.readouterr().err

    def test_fit_requires_dataset(self):
        assert run(["lab", "fit"]) == EXIT_CONFIG

    def test_pipeline_at_cli_defaults_is_byte_stable(self, tmp_path):
        """The pipeline's reports repeat byte for byte, and only the manifest
        counts the work."""
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            code = run([
                "lab", "pipeline", "--loop-preset", "mu1", "--noise", "0.01",
                "--seed", "1", "--out", str(out),
            ])
            assert code == EXIT_OK
        for name in ("dataset.json", "fit_report.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
        report = json.loads((outs[0] / "fit_report.json").read_text())
        assert report["transport"]["permutation"] == "132"
        manifest = json.loads((outs[0] / "manifest.json").read_text())
        assert manifest["stats"] == {"fitted_steps": 9, "gn_iterations": 41}
        assert sorted(manifest["versions"]) == ["eptriad", "numpy", "python"]
        assert all(k not in (outs[0] / "fit_report.json").read_text() for k in ("fitted_steps", "gn_iterations"))

    @pytest.mark.parametrize("source_site", [1, 3])
    def test_drives_at_b_and_c_pass_the_benchmark_check_on_every_sweep_seed(self, tmp_path, monkeypatch, source_site):
        """The benchmark's lab pipeline (mu1 at 1 % noise) driven at cavity B
        or C, on every seed of its sweep, passes its fit-report check:
        permutation (1 3 2), Berry phase and worst parameter error."""
        monkeypatch.syspath_prepend(str(PERFBENCH))
        workloads = importlib.import_module("workloads")
        cfg = tmp_path / "lab.json"
        cfg.write_text(json.dumps({"source_site": source_site}))
        for seed in workloads.LAB_SWEEP:
            out = tmp_path / str(seed)
            assert run(["lab", "pipeline", "--loop-preset", workloads.LAB_PRESET, "--noise", repr(workloads.LAB_NOISE),
                        "--seed", str(seed), "--config", str(cfg), "--out", str(out)]) == EXIT_OK
            problems, _ = workloads.check_fit_report(json.loads((out / "fit_report.json").read_text()))
            assert not problems, (seed, problems)


class TestArcsCommand:
    def test_two_arcs_at_canonical_g(self, tmp_path):
        code = run(["ea", "--g", "0.61", "--step", "0.04", "--out", str(tmp_path)])
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "arcs.json").read_text())
        assert len(doc["arcs"]) == 2
        for arc in doc["arcs"]:
            assert arc["terminated"] == "boundary"
            assert all(pt["order"] == 2 for pt in arc["points"])


class TestNumericalFailures:
    def test_inaccurate_eigenvectors_exit_numerical(self, tmp_path, monkeypatch):
        eig = np.linalg.eig

        def bad_eig(h):
            w, v = eig(h)
            v = v.copy()
            v[:, 0] = v[:, 1]
            return w, v

        monkeypatch.setattr(eptriad.model.np.linalg, "eig", bad_eig)
        code = run(["loop", "--preset", "mu1", "--steps-per-segment", "8", "--out", str(tmp_path)])
        assert code == EXIT_NUMERICAL

    def test_unreliable_loop_still_writes_its_report(self, tmp_path, monkeypatch, capsys):
        assert run(_argv_unreliable_loop(tmp_path, monkeypatch)) == EXIT_NUMERICAL
        assert json.loads((tmp_path / "loop_mu1.json").read_text())["reliable"] is False
        assert capsys.readouterr().err == ("numerical failure: mu1: transport unreliable, "
                                           "permutation parity disagrees with the discriminant winding -1.000\n")

    def test_unreliable_fit_still_writes_its_report(self, tmp_path, monkeypatch, capsys):
        """``lab pipeline`` on a fitted loop whose transport is unreliable
        writes the dataset, the fit report and the manifest, then exits 3
        naming the failed check as ``loop`` names it."""
        assert run(_argv_unreliable_fit(tmp_path, monkeypatch)) == EXIT_NUMERICAL
        assert json.loads((tmp_path / "fit_report.json").read_text())["transport"]["reliable"] is False
        assert (tmp_path / "dataset.json").exists() and (tmp_path / "manifest.json").exists()
        assert capsys.readouterr().err == ("numerical failure: fitted-loop: transport unreliable, "
                                           "smallest matched overlap 0.250\n")

    def test_a_fitted_loss_below_0_exits_numerical(self, tmp_path, capsys):
        """At a true gamma0 of 1 rad/s, 3 % noise and seed 3, the unbounded
        polish of one mu1 step ends below gamma0 = 0, which no PhysicalScale
        takes: the pipeline writes its dataset, then exits 3 naming gamma0."""
        cfg = tmp_path / "lab.json"
        cfg.write_text(json.dumps({"scale": {"omega0": 19729.0, "gamma0": 1.0, "kappa": -49.5}}))
        out = tmp_path / "out"
        assert run(["lab", "pipeline", "--config", str(cfg), "--noise", "0.03", "--seed", "3",
                    "--out", str(out)]) == EXIT_NUMERICAL
        assert re.fullmatch(r"numerical failure: .*gamma0 = -0\.46\d* rad/s.*\n", capsys.readouterr().err)
        assert (out / "dataset.json").exists() and not (out / "fit_report.json").exists()

    def test_a_coarse_loop_near_an_ep_is_refined(self, tmp_path, capsys):
        """The thin triangle of test_loops_transport's TestRootRefinement at 3
        steps per segment: sampled as given, it steps over its exchange, but
        transport refines it first and finds the exchange."""
        corners = [[-0.152923, 0.383999, -0.371626], [-0.194721, 0.442178, -0.505061], [-0.139757, 0.477862, -0.424061]]
        cfg = tmp_path / "loop.json"
        cfg.write_text(json.dumps({"label": "triangle", "g": -0.4, "waypoints": corners + corners[:1],
                                   "steps_per_segment": 3}))
        assert run(["loop", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
        report = json.loads((tmp_path / "loop_triangle.json").read_text())
        assert (report["permutation"], report["reliable"]) == ("213", True)
        assert report["n_steps"] > 10 and abs(report["vorticity"]["discriminant"] + 1) < 1e-12
        assert capsys.readouterr().err == ""


def _argv_group(tmp_path, monkeypatch):
    return ["group", "--out", str(tmp_path)]


def _lab_config(doc):
    """An argv maker for ``lab pipeline --config`` with ``doc`` as the config."""
    def make_argv(tmp_path, monkeypatch):
        path = tmp_path / "lab.json"
        path.write_text(json.dumps(doc))
        return ["lab", "pipeline", "--config", str(path), "--out", str(tmp_path / "out")]
    return make_argv


def _argv_loop_through_ep(tmp_path, monkeypatch):
    ep = refine_ep(ParamPoint(0.33, 0.54, 0.40, 0.61)).point
    cfg = {
        "label": "through-ep",
        "g": 0.61,
        "waypoints": [[0.33, 0.3, 0.2], [ep.eta, ep.zeta, ep.xi], [0.33, 0.3, 0.5], [0.33, 0.3, 0.2]],
        "steps_per_segment": 8,
    }
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(cfg))
    return ["loop", "--config", str(path), "--out", str(tmp_path)]


def _argv_out_is_file(tmp_path, monkeypatch):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    return ["group", "--out", str(blocker)]


def _argv_fault_in_numerics(tmp_path, monkeypatch):
    def broken(loop):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(eptriad.cli, "transport", broken)
    return ["loop", "--preset", "mu1", "--steps-per-segment", "8", "--out", str(tmp_path)]


def _argv_unreliable_loop(tmp_path, monkeypatch):
    transport = eptriad.cli.transport
    monkeypatch.setattr(eptriad.cli, "transport", lambda loop: replace(transport(loop), reliable=False))
    return ["loop", "--preset", "mu1", "--steps-per-segment", "8", "--out", str(tmp_path)]


def _argv_unreliable_fit(tmp_path, monkeypatch):
    fit_loop = eptriad.cli.fit_loop

    def unreliable(dataset):
        fits, result = fit_loop(dataset)
        return fits, replace(result, reliable=False, min_overlap=0.25)

    monkeypatch.setattr(eptriad.cli, "fit_loop", unreliable)
    return ["lab", "pipeline", "--out", str(tmp_path)]


SMALL_LOOP = {
    "label": "small",
    "g": 0.61,
    "steps_per_segment": 8,
    "waypoints": [[0.33, z, x] for z, x in ((0.02, 0.02), (0.1, 0.02), (0.1, 0.1), (0.02, 0.1), (0.02, 0.02))],
}


#: eight segments around the small loop's square: one step per segment makes a loop of 9 steps
OCTAGON = [[0.33, z, x] for z, x in ((0.02, 0.02), (0.06, 0.0), (0.1, 0.02), (0.12, 0.06), (0.1, 0.1), (0.06, 0.12),
                                      (0.02, 0.1), (0.0, 0.06), (0.02, 0.02))]


def _loop_config(doc):
    """An argv maker for ``loop --config`` with ``doc`` as the config."""
    def make_argv(tmp_path, monkeypatch):
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(doc))
        return ["loop", "--config", str(path), "--out", str(tmp_path / "out")]
    return make_argv


def _argv(*args):
    """An argv maker for ``args`` with ``--out`` a new directory ``out`` in the test's directory."""
    def make_argv(tmp_path, monkeypatch):
        return [*args, "--out", str(tmp_path / "out")]
    return make_argv


def _lab_dataset(corrupt):
    """An argv maker for ``lab fit`` on a synthesized dataset that ``corrupt`` edits."""
    def make_argv(tmp_path, monkeypatch):
        assert run(["lab", "synth", "--out", str(tmp_path)]) == EXIT_OK
        path = tmp_path / "dataset.json"
        doc = json.loads(path.read_text())
        corrupt(doc)
        path.write_text(json.dumps(doc))
        return ["lab", "fit", "--dataset", str(path), "--out", str(tmp_path)]
    return make_argv


@pytest.mark.parametrize("make_argv, code", [
    (_argv_group, EXIT_OK),
    pytest.param(_lab_config({"population": "x"}), EXIT_CONFIG, id="lab_config_string_population-2"),
    # a window whose forward model overflows: no RuntimeWarning (an error under this suite) escapes
    pytest.param(_lab_config({"frequency_window": 1e308}), EXIT_CONFIG, id="lab_config_overflowing_window-2"),
    (_argv_loop_through_ep, EXIT_NUMERICAL),     # PathTouchesEP
    (_argv_out_is_file, EXIT_IO),
    (_argv_unreliable_loop, EXIT_NUMERICAL),     # the report is written, then exit 3
    (_argv_unreliable_fit, EXIT_NUMERICAL),      # so is a fitted loop's
    (_argv_fault_in_numerics, ValueError),      # a program fault, not a config error
    # malformed inputs that raise TypeError or IndexError while they are read
    pytest.param(_loop_config([SMALL_LOOP]), EXIT_CONFIG, id="loop_config_is_a_list-2"),
    pytest.param(_loop_config(SMALL_LOOP | {"steps_per_segment": 64.0}), EXIT_CONFIG,
                 id="loop_config_float_steps-2"),
    pytest.param(_loop_config(SMALL_LOOP | {"waypoints": [w[:2] for w in SMALL_LOOP["waypoints"]]}),
                 EXIT_CONFIG, id="loop_config_short_waypoints-2"),
    pytest.param(_loop_config(SMALL_LOOP | {"g": "0.61"}), EXIT_CONFIG, id="loop_config_string_g-2"),
    # loop configs that would run on defaults or write outside --out
    pytest.param(_loop_config(SMALL_LOOP | {"steps_per_segmnt": 7}), EXIT_CONFIG, id="loop_config_unknown_key-2"),
    pytest.param(_loop_config(SMALL_LOOP | {"eta_mode": "fixd"}), EXIT_CONFIG, id="loop_config_unknown_eta_mode-2"),
    pytest.param(_loop_config(SMALL_LOOP | {"label": "../x"}), EXIT_CONFIG, id="loop_config_label_with_a_slash-2"),
    pytest.param(_loop_config(SMALL_LOOP | {"label": 7}), EXIT_CONFIG, id="loop_config_label_not_a_string-2"),
    # waypoint rows of the wrong width, and JSON booleans, which Python reads as 1 and 0
    pytest.param(_loop_config(SMALL_LOOP | {"waypoints": [w + [5] for w in SMALL_LOOP["waypoints"]]}),
                 EXIT_CONFIG, id="loop_config_per_point_row_of_four-2"),
    pytest.param(_loop_config(SMALL_LOOP | {"eta_mode": "fixed", "eta": 0.33}), EXIT_CONFIG,
                 id="loop_config_fixed_row_of_three-2"),
    pytest.param(_loop_config(SMALL_LOOP | {"g": True}), EXIT_CONFIG, id="loop_config_boolean_g-2"),
    pytest.param(_loop_config(SMALL_LOOP | {"eta_mode": "fixed", "eta": False,
                                            "waypoints": [w[1:] for w in SMALL_LOOP["waypoints"]]}),
                 EXIT_CONFIG, id="loop_config_boolean_fixed_eta-2"),
    pytest.param(_loop_config(SMALL_LOOP | {"waypoints": [[True, *w[1:]] for w in SMALL_LOOP["waypoints"]]}),
                 EXIT_CONFIG, id="loop_config_boolean_waypoint_entries-2"),
    pytest.param(_loop_config(SMALL_LOOP | {"steps_per_segment": True, "waypoints": OCTAGON}), EXIT_CONFIG,
                 id="loop_config_boolean_steps_per_segment-2"),
    pytest.param(_loop_config(SMALL_LOOP | {"steps_per_segment": 1, "waypoints": OCTAGON}), EXIT_OK,
                 id="loop_config_one_step_per_segment-0"),
    pytest.param(_loop_config(SMALL_LOOP | {"eta_mode": "fixed", "eta": 0.33,
                                            "waypoints": [w[1:] for w in SMALL_LOOP["waypoints"]]}),
                 EXIT_OK, id="loop_config_fixed_rows_of_two-0"),
    pytest.param(_lab_dataset(lambda doc: _encoded(doc, np.full((len(doc["param_truth"]), 1, 1), 1 + 2j))),
                 EXIT_CONFIG, id="dataset_response_row_of_two_values-2"),
    pytest.param(_lab_dataset(lambda doc: doc.update(responses="x")), EXIT_CONFIG, id="dataset_string_responses-2"),
    pytest.param(_lab_dataset(lambda doc: doc["config"].update(n_frequencies="31")), EXIT_CONFIG,
                 id="dataset_string_n_frequencies-2"),
    pytest.param(_lab_dataset(lambda doc: doc["config"].update(frequency_window=True)), EXIT_CONFIG,
                 id="dataset_boolean_frequency_window-2"),
    pytest.param(_lab_dataset(lambda doc: doc["config"]["scale"].update(gamma0=True)), EXIT_CONFIG,
                 id="dataset_boolean_gamma0-2"),
    pytest.param(_lab_dataset(lambda doc: doc["config"].update(geometry_metadata=float("nan"))), EXIT_CONFIG,
                 id="dataset_nan_geometry_metadata-2"),
    # numeric arguments that are not finite or out of range
    pytest.param(_argv("surface", "--eta", "nan", "--grid", "5"), EXIT_CONFIG, id="surface_nan_eta-2"),
    pytest.param(_argv("surface", "--eta", "0.33", "--g", "inf", "--grid", "5"), EXIT_CONFIG,
                 id="surface_infinite_g-2"),
    pytest.param(_argv("surface", "--eta", "0.33", "--grid", "5", "--window", "-1", "nan", "-1", "1"),
                 EXIT_CONFIG, id="surface_nan_window-2"),
    # finite arguments whose |disc| or grid overflows
    pytest.param(_argv("surface", "--eta", "1e60", "--grid", "5"), EXIT_CONFIG, id="surface_huge_eta-2"),
    pytest.param(_argv("surface", "--eta", "1e200", "--grid", "5"), EXIT_CONFIG, id="surface_huger_eta-2"),
    pytest.param(_argv("surface", "--eta", "0.33", "--g", "1e300", "--grid", "5"), EXIT_CONFIG,
                 id="surface_huge_g-2"),
    pytest.param(_argv("surface", "--eta", "0.33", "--grid", "5", "--window", "-1", "1", "-1", "1e308"),
                 EXIT_CONFIG, id="surface_huge_window_edge-2"),
    pytest.param(_argv("surface", "--eta", "0.33", "--grid", "5", "--window", "-1e308", "1e308", "-1", "1"),
                 EXIT_CONFIG, id="surface_window_span_overflows-2"),
    pytest.param(_argv("ea", "--g", "nan"), EXIT_CONFIG, id="ea_nan_g-2"),
    pytest.param(_argv("ea", "--g", "0.61", "--step", "0"), EXIT_CONFIG, id="ea_zero_step-2"),
    pytest.param(_argv("ea", "--g", "0.61", "--step", "-0.02"), EXIT_CONFIG, id="ea_negative_step-2"),
    pytest.param(_argv("ea", "--g", "0.61", "--step", "inf"), EXIT_CONFIG, id="ea_infinite_step-2"),
    # a step finer than the eta grid the arcs are continued on
    pytest.param(_argv("ea", "--g", "0.61", "--step", "1e-5"), EXIT_CONFIG, id="ea_step_below_grid_spacing-2"),
    pytest.param(_argv("ea", "--g", "0.61", "--step", "0.000999"), EXIT_CONFIG, id="ea_step_just_below_grid_spacing-2"),
    pytest.param(_argv("ea", "--g", "0.61", "--step", "0.001"), EXIT_OK, id="ea_step_at_grid_spacing-0"),
    pytest.param(_argv("lab", "synth", "--noise", "nan"), EXIT_CONFIG, id="lab_nan_noise-2"),
    pytest.param(_argv("lab", "synth", "--noise", "-0.5"), EXIT_CONFIG, id="lab_negative_noise-2"),
    pytest.param(_argv("lab", "pipeline", "--noise", "inf"), EXIT_CONFIG, id="lab_infinite_noise-2"),
    # numpy's RNG streams take no negative seed
    pytest.param(_argv("lab", "synth", "--noise", "0.01", "--seed", "-1"), EXIT_CONFIG, id="lab_negative_seed-2"),
    # finite noise whose synthesized spectra overflow: no dataset is written
    pytest.param(_argv("lab", "synth", "--noise", "1e300"), EXIT_CONFIG, id="lab_synth_overflowing_noise-2"),
    pytest.param(_argv("lab", "pipeline", "--noise", "1e300"), EXIT_CONFIG, id="lab_pipeline_overflowing_noise-2"),
    # a polish whose rejected trial steps overflow the forward model diverges without a RuntimeWarning
    pytest.param(_argv("lab", "pipeline", "--noise", "0.5", "--seed", "1"), EXIT_NUMERICAL,
                 id="lab_pipeline_overflowing_trial_steps-3"),
])
def test_exit_code_matrix(tmp_path, monkeypatch, make_argv, code):
    argv = make_argv(tmp_path, monkeypatch)
    if isinstance(code, type):
        with pytest.raises(code):
            run(argv)
    else:
        assert run(argv) == code
    if code == EXIT_CONFIG:     # inputs are checked before the output directory is made
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("g", [1e60, 1e308])
def test_a_loop_whose_disc_overflows_is_a_config_error(tmp_path, g):
    """A |disc| that is not finite on the loop would reach the report's
    winding as a nan: the loop is rejected before anything is written."""
    cfg = tmp_path / "loop.json"
    cfg.write_text(json.dumps({"g": g, "waypoints": [[0.3, 0, 0], [0.3, 0.5, 0], [0.3, 0.5, 0.5], [0.3, 0, 0]]}))
    assert run(["loop", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


def test_a_numerical_failure_names_its_points_with_plain_floats(tmp_path, capsys):
    """A dataset that steps back and forth across an EP (1e-3 either side in
    zeta) fits, but the fitted frames of a step have no clear assignment, so
    transport stops at an ambiguous step; the message names both ends as
    ParamPoint(eta=0.33, ...)."""
    ep = refine_ep(ParamPoint(0.33, 0.54, 0.40, 0.61)).point
    sides = [ParamPoint(ep.eta, ep.zeta + d, ep.xi, ep.g) for d in (1e-3, -1e-3)]
    dataset = tmp_path / "dataset.json"
    save_dataset(synthesize(sides * 4 + sides[:1], CavityConfig()), dataset)
    assert run(["lab", "fit", "--dataset", str(dataset), "--out", str(tmp_path / "out")]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "assignment margin" in err and "ParamPoint(eta=" in err and "np.float64" not in err, err


def test_regime_warnings_name_the_constructing_line(tmp_path):
    """Out-of-regime points are reported once per constructing line of the
    caller, not once per point from the dataclass-generated __init__."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    src = str(Path(eptriad.model.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "eptriad", "ea", "--g", "0", "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    sites = [line.split(": RegimeWarning")[0] for line in proc.stderr.splitlines() if "RegimeWarning" in line]
    assert sites, proc.stderr
    assert all(Path(site.rsplit(":", 1)[0]).name == "locate.py" for site in sites), sites
    assert len(sites) == len(set(sites)) <= 8


def _lone_call(argv, out):
    """Exit code, stdout and stderr of ``eptriad argv --out out`` in a process of its own."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    src = str(Path(eptriad.model.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "eptriad", *argv, "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def test_one_parser_serves_every_call_of_a_process(tmp_path, monkeypatch, capsys):
    """The parser is built once per process; a bad argument, a loop and an
    ea run one after another give what each gives alone, and a rebound
    command name still takes effect."""
    assert eptriad.cli.build_parser() is eptriad.cli.build_parser()
    bad = ["loop", "--steps-per-segment", "x"]
    assert run(bad + ["--out", str(tmp_path / "bad")]) == EXIT_CONFIG
    assert (EXIT_CONFIG, "", capsys.readouterr().err) == _lone_call(bad, tmp_path / "bad")
    assert not (tmp_path / "bad").exists()
    reports = {"loop_mu1.json": ["loop", "--preset", "mu1", "--steps-per-segment", "64"],
               "arcs.json": ["ea", "--g", "0.61"]}
    for report, argv in reports.items():
        assert run(argv + ["--out", str(tmp_path / "in")]) == EXIT_OK
        out = capsys.readouterr().out
        code, lone_out, _ = _lone_call(argv, tmp_path / "lone")
        assert (code, lone_out) == (EXIT_OK, out)
        assert (tmp_path / "in" / report).read_bytes() == (tmp_path / "lone" / report).read_bytes()

    def broken(loop):
        raise ArithmeticError("rebound transport")

    monkeypatch.setattr(eptriad.cli, "transport", broken)
    with pytest.raises(ArithmeticError, match="rebound transport"):
        run(reports["loop_mu1.json"] + ["--out", str(tmp_path / "in")])


def test_importing_the_cli_loads_no_thread_pool():
    """``concurrent.futures`` is imported only by an eigen-solve large enough
    to be split, so a cold ``import eptriad.cli`` does not pay for it."""
    env = dict(os.environ)
    src = str(Path(eptriad.model.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = "import sys, eptriad.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_no_command_imports_scipy(tmp_path):
    """With scipy blocked, importing eptriad and running every command, lab
    pipelines driven at each cavity included, succeed and load no scipy
    module, and no manifest names a scipy version: the package needs numpy
    alone."""
    for site in (1, 3):
        (tmp_path / f"{site}.json").write_text(json.dumps({"source_site": site}))
    script = f"""
import json, sys
sys.modules["scipy"] = None     # any import of scipy or a submodule raises ImportError
import eptriad
from eptriad.cli import main

out = {str(tmp_path)!r}
runs = [["loop", "--preset", "mu1", "--steps-per-segment", "64"], ["surface", "--eta", "0.33", "--grid", "5"],
        ["ea", "--g", "0.61"], ["group"], ["lab", "synth"], ["lab", "pipeline"],
        ["lab", "pipeline", "--config", f"{{out}}/1.json"], ["lab", "pipeline", "--config", f"{{out}}/3.json"]]
codes = [main(argv + ["--out", f"{{out}}/{{k}}"]) for k, argv in enumerate(runs)]
print(json.dumps({{"codes": codes, "after": sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"
                                                and sys.modules[m] is not None)}}))
"""
    env = dict(os.environ)
    src = str(Path(eptriad.model.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"codes": [EXIT_OK] * 8, "after": []}
    for k in range(8):
        manifest = json.loads((tmp_path / str(k) / "manifest.json").read_text())
        assert sorted(manifest["versions"]) == ["eptriad", "numpy", "python"]
    for k in (5, 6, 7):
        assert sorted(json.loads((tmp_path / str(k) / "manifest.json").read_text())["stats"]) == [
            "fitted_steps", "gn_iterations"]
