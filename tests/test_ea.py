"""The arcs ``eptriad ea`` lists, against the Sylvester-discriminant oracle.

``cmd_ea`` traces one arc from each start of ``locate.arc_starts``: one per
in-domain run of each branch of the slice EPs (at g = 0, one of each mirror
pair b, -b, and the nexus).  Every point it writes must be an EP, no two
arcs may share a point, and the arcs must cross the eta = 0.33 slice at its
in-domain EPs, each one once.
"""
import json

import numpy as np
import pytest

import eptriad.cli
from eptriad.cli import EXIT_OK, main
from eptriad.locate import DOMAIN_BOUND, trace_ea
from eptriad.model import ParamPoint
from oracles import discriminant, slice_zeros

ETA_SLICE = 0.33


def ea_doc(tmp_path, g: str, step: str = "0.02") -> dict:
    # --g=G, so that argparse reads a negative G in exponent form as a value
    assert main(["ea", f"--g={g}", "--step", step, "--out", str(tmp_path)]) == EXIT_OK
    return json.loads((tmp_path / "arcs.json").read_text())


def slice_crossing(points: list, eta: float):
    """b = xi + i zeta where an arc's polyline crosses ``eta``, or None."""
    for p, q in zip(points, points[1:]):
        if (p["eta"] - eta) * (q["eta"] - eta) <= 0 and p["eta"] != q["eta"]:
            t = (eta - p["eta"]) / (q["eta"] - p["eta"])
            return complex(p["xi"], p["zeta"]) + t * complex(q["xi"] - p["xi"], q["zeta"] - p["zeta"])
    return None


@pytest.mark.parametrize("step", ["0.02", "0.04"])
@pytest.mark.parametrize(
    "g", ["0", "1e-6", "-1e-6", "0.01", "-0.01", "0.05", "-0.05", "0.055", "0.13", "0.61", "-0.61", "-0.65"]
)
def test_arcs_are_eps_that_cross_each_slice_ep_once(tmp_path, g, step):
    doc = ea_doc(tmp_path, g, step)
    g = float(g)
    seen = set()
    for arc in doc["arcs"]:
        points = {(q["eta"], q["zeta"], q["xi"]) for q in arc["points"]}
        assert not points & seen, "two arcs share a point"
        seen |= points
        for q in arc["points"]:
            assert abs(discriminant(ParamPoint(q["eta"], q["zeta"], q["xi"], g))) < 1e-10
    zeros = slice_zeros(ETA_SLICE, g)
    zeros = zeros[np.maximum(abs(zeros.real), abs(zeros.imag)) <= DOMAIN_BOUND]
    crossings = [b for b in (slice_crossing(arc["points"], ETA_SLICE) for arc in doc["arcs"]) if b is not None]
    if g == 0:
        # ea keeps one of each mirror pair b, -b: compare them up to sign
        zeros, crossings = zeros[zeros.real > 0], [b if b.real > 0 else -b for b in crossings]
    hit = [int(np.argmin(abs(zeros - b))) for b in crossings]
    assert sorted(hit) == list(range(len(zeros)))
    for b, k in zip(crossings, hit):
        # a chord of the arc misses the curve by at most ~step^2
        assert abs(zeros[k] - b) < float(step) ** 2


@pytest.mark.parametrize(
    "g, step, n_arcs",
    [
        # two arcs that pass within a step of each other near eta = 0
        ("0.05", "0.04", 2),
        ("0.055", "0.04", 2),
        ("-0.05", "0.04", 2),
        ("1e-6", "0.02", 2),
        ("-1e-6", "0.02", 2),
        ("0.01", "0.02", 2),
        ("-0.01", "0.02", 2),
        # four short arcs near the domain's edge, between the eta = -0.5, 0 and 0.5 slices
        ("-0.65", "0.02", 4),
        ("-0.7", "0.02", 4),
        ("0.61", "0.02", 2),
    ],
)
def test_every_arc_is_listed(tmp_path, g, step, n_arcs):
    arcs = ea_doc(tmp_path, g, step)["arcs"]
    assert [arc["terminated"] for arc in arcs] == ["boundary"] * n_arcs
    assert all(len(arc["points"]) > 2 for arc in arcs)


@pytest.mark.parametrize("g, n_arcs", [("0.61", 2), ("0", 3), ("-0.65", 4)])
def test_ea_traces_each_arc_once(tmp_path, monkeypatch, g, n_arcs):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return trace_ea(*args, **kwargs)

    monkeypatch.setattr(eptriad.cli, "trace_ea", counted)
    assert len(ea_doc(tmp_path, g)["arcs"]) == n_arcs
    assert len(calls) == n_arcs


def test_negative_g_arcs_are_found(tmp_path):
    assert main(["ea", "--g", "-0.61", "--out", str(tmp_path)]) == EXIT_OK
    assert len(json.loads((tmp_path / "arcs.json").read_text())["arcs"]) == 2
