"""Arc selection of ``eptriad ea`` against the trace-everything reference.

``cmd_ea`` skips a refined seed that lies within ``--step`` of an arc it has
already kept, and applies the duplicate-arc rule to each arc as it is traced.
The reference below traces every seed first and then drops duplicates; both
must write the same ``arcs.json``.
"""
import json

import numpy as np
import pytest

import eptriad.cli
from eptriad.cli import EXIT_OK, _dump_json, main
from eptriad.errors import NoConvergence
from eptriad.locate import refine_ep, seed_eps_in_slice, trace_ea


def reference_arcs_doc(g: float, step: float) -> dict:
    """The ``arcs.json`` document from tracing every seed, then deduplicating."""
    arcs, found = [], []
    for eta in (-0.5, 0.0, 0.5):
        for cand in seed_eps_in_slice(eta, g, ((-1.4, 1.4), (-1.4, 1.4)), 64):
            try:
                ep = refine_ep(cand.center)
            except NoConvergence:
                continue
            if any(np.linalg.norm(ep.point.as_array() - q.as_array()) < 1e-4 for q in found):
                continue
            found.append(ep.point)
            arcs.append(trace_ea(g, ep, step=step))
    unique = []
    for arc in arcs:
        c = arc.coords()
        dup = False
        for other in unique:
            oc = other.coords()
            k = min(len(c), len(oc))
            if k and np.min(np.linalg.norm(oc[:, None, :] - c[None, :k, :], axis=2)) < step:
                dup = True
                break
        if not dup:
            unique.append(arc)
    return {
        "g": g,
        "arcs": [
            {
                "terminated": arc.terminated,
                "closed": arc.closed,
                "points": [
                    {
                        "eta": q.point.eta,
                        "zeta": q.point.zeta,
                        "xi": q.point.xi,
                        "re_omega": q.repeated_eigenvalue.real,
                        "im_omega": q.repeated_eigenvalue.imag,
                        "order": q.order,
                    }
                    for q in arc.points
                ],
            }
            for arc in unique
        ],
    }


@pytest.mark.parametrize("step", ["0.02", "0.04"])
@pytest.mark.parametrize("g", ["0", "0.01", "-0.01", "0.05", "-0.05", "0.055", "0.13", "0.61", "-0.61"])
def test_arcs_json_matches_trace_everything_reference(tmp_path, g, step):
    assert main(["ea", "--g", g, "--step", step, "--out", str(tmp_path)]) == EXIT_OK
    reference = tmp_path / "reference.json"
    _dump_json(reference, reference_arcs_doc(float(g), float(step)))
    assert (tmp_path / "arcs.json").read_bytes() == reference.read_bytes()


def test_seeds_on_a_kept_arc_are_not_traced(tmp_path, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return trace_ea(*args, **kwargs)

    monkeypatch.setattr(eptriad.cli, "trace_ea", counted)
    assert main(["ea", "--g", "0.61", "--out", str(tmp_path)]) == EXIT_OK
    assert len(calls) == 2
    assert len(json.loads((tmp_path / "arcs.json").read_text())["arcs"]) == 2


def test_negative_g_arcs_are_found(tmp_path):
    assert main(["ea", "--g", "-0.61", "--out", str(tmp_path)]) == EXIT_OK
    assert len(json.loads((tmp_path / "arcs.json").read_text())["arcs"]) == 2
