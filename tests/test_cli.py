import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import eptriad.cli
import eptriad.locate
import eptriad.model
from eptriad.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERICAL, EXIT_OK, main
from eptriad.locate import refine_ep
from eptriad.model import ParamPoint, discriminant_formula


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

    @pytest.mark.parametrize("eta, g, window", [
        (0.33, 0.61, (-1.0, 1.0, -1.0, 1.0)),
        (-1.2, 0.3, (-1.5, 1.4, -1.3, 1.5)),        # beyond the validated regime |p| <= 1
    ])
    def test_csv_equals_the_per_point_reference(self, tmp_path, eta, g, window):
        """Rows built from lists write the bytes of a row-by-row writer that
        evaluates the ParamPoint discriminant and formats numpy scalars."""
        argv = ["surface", "--eta", repr(eta), "--g", repr(g), "--grid", "21",
                "--window", *map(repr, window), "--out", str(tmp_path / "cli")]
        assert run(argv) == EXIT_OK
        zz, xx = np.linspace(window[0], window[1], 21), np.linspace(window[2], window[3], 21)
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


def _three_steps(doc):
    doc["steps"] = doc["steps"][:3]
    return doc


def _nan_response(doc):
    doc["steps"][4]["responses"][0][0] = [float("nan"), 0.0]
    return doc


def _zero_responses(doc):
    doc["steps"][4]["responses"] = [[[0.0, 0.0]] * len(row) for row in doc["steps"][4]["responses"]]
    return doc


def _missing_row(doc):
    doc["steps"][4]["responses"].pop()
    return doc


class TestLabCommand:
    def test_synth_writes_dataset(self, tmp_path):
        code = run([
            "lab", "synth", "--loop-preset", "mu1", "--noise", "0.0",
            "--seed", "3", "--out", str(tmp_path),
        ])
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "dataset.json").read_text())
        assert len(doc["steps"]) == 9

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
    ])
    def test_bad_config_is_config_error(self, tmp_path, bad):
        cfg = tmp_path / "lab.json"
        cfg.write_text(json.dumps(bad))
        code = run(["lab", "synth", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert not (tmp_path / "dataset.json").exists()

    @pytest.mark.parametrize(
        "spoil",
        [_not_a_dataset, _three_steps, _nan_response, _zero_responses, _missing_row],
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

    def test_fit_requires_dataset(self):
        assert run(["lab", "fit"]) == EXIT_CONFIG

    def test_pipeline_at_cli_defaults_is_byte_stable(self, tmp_path):
        """The pipeline's reports repeat byte for byte, and only the manifest
        counts the work: one search for the whole mu1 loop."""
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
        assert manifest["stats"] == {"de_searches": 1, "fitted_steps": 9}
        assert "de_searches" not in (outs[0] / "fit_report.json").read_text()


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
        assert capsys.readouterr().err.startswith("numerical failure: mu1: transport unreliable")


def _argv_group(tmp_path, monkeypatch):
    return ["group", "--out", str(tmp_path)]


def _argv_bad_lab_config(tmp_path, monkeypatch):
    cfg = tmp_path / "lab.json"
    cfg.write_text(json.dumps({"population": "x"}))
    return ["lab", "pipeline", "--config", str(cfg), "--out", str(tmp_path)]


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


@pytest.mark.parametrize("make_argv, code", [
    (_argv_group, EXIT_OK),
    (_argv_bad_lab_config, EXIT_CONFIG),
    (_argv_loop_through_ep, EXIT_NUMERICAL),     # PathTouchesEP
    (_argv_out_is_file, EXIT_IO),
    (_argv_unreliable_loop, EXIT_NUMERICAL),     # the report is written, then exit 3
    (_argv_fault_in_numerics, ValueError),      # a program fault, not a config error
])
def test_exit_code_matrix(tmp_path, monkeypatch, make_argv, code):
    argv = make_argv(tmp_path, monkeypatch)
    if isinstance(code, type):
        with pytest.raises(code):
            run(argv)
    else:
        assert run(argv) == code


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
