"""The names that the benchmark's tracer rebinds must exist in the package.

``perfbench/tracing.py`` wraps each ``(module, attribute)`` of its
``BINDINGS`` table for a traced run, so a name that the package no longer
has makes every traced run fail with AttributeError while untraced runs
still pass.  The table is loaded from that file, not copied.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

from eptriad.locate import refine_ep, trace_ea
from eptriad.model import ParamPoint

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, _, _ in tracing.BINDINGS])
def test_every_traced_name_resolves_to_a_callable(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


def test_the_tracer_installs_and_restores_every_binding():
    def bound():
        return [getattr(importlib.import_module(m), a) for m, a, _, _ in tracing.BINDINGS]

    before = bound()
    with tracing.Tracer().installed():
        assert all(now is not was for now, was in zip(bound(), before))
    assert all(now is was for now, was in zip(bound(), before))


def test_the_arc_observer_reads_a_traced_arc():
    observe = next(o for m, a, _, o in tracing.BINDINGS if (m, a) == ("eptriad.cli", "trace_ea"))
    arc = trace_ea(0.61, refine_ep(ParamPoint(0.0, 0.56, 0.0, 0.61)))
    tracer = tracing.Tracer()
    observe(tracer, arc, ())
    assert tracer.counts["locate.trace_ea.points"] == len(arc.points) > 1
    assert tracer.extrema["locate.arc_residual_max"] == max(q.residual for q in arc.points) < 1e-10
