"""The benchmark's tracer wraps module attributes of the package by name
(benchmarks/tracer.py).  A refactor that moves or drops one of them breaks
every traced benchmark run; these tests catch that in seconds."""

import importlib
from pathlib import Path

import curveforge
import curveforge.estimation

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    # workloads.Evaluations replaces estimation.minimize for good; put the
    # original back after the test
    monkeypatch.setattr(curveforge.estimation, "minimize", curveforge.estimation.minimize)
    tracer_mod = importlib.import_module("tracer")
    workloads = importlib.import_module("workloads")

    tracer = tracer_mod.Tracer()
    tracer.install(workloads.Evaluations())
    wrapped = list(tracer._restore)
    try:
        assert wrapped
        for owner, name, original in wrapped:
            assert getattr(owner, name) is not original, f"{owner}.{name} not wrapped"
    finally:
        tracer.uninstall()
    for owner, name, original in wrapped:
        assert getattr(owner, name) is original, f"{owner}.{name} not restored"


def test_every_exported_name_resolves():
    missing = [name for name in curveforge.__all__ if not hasattr(curveforge, name)]
    assert missing == []
