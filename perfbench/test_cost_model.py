"""The transform counter reproduces the cost model of ROADMAP.md exactly, and
the wrapper guard notices a call that bypasses its wrapper or the counter.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import numpy
import scipy.fft

import lpns._fft
import lpns.cli
import lpns.flux
import lpns.solver
from lpns.lp import build_filter_bank
from lpns.spectral import GridSpec

from tracing import Tracer, layer_metrics, missing_wrappers

EXPECTED = ("solver.simulate", "solver.step", "fft in solver.step", "fft in solver.simulate")


def _simulate_n16(tmp_path, bypass_step=False):
    config = tmp_path / "run.cfg"
    config.write_text("n = 16\nnu = 0.1\ndt = 0.001\nt_end = 0.003\nic = random\nseed = 3\n"
                      "spectrum = 0:0.3,1:0.2,2:0.1\ndiag_every = 1\n")
    original_step = lpns.solver.step
    original_fftn = scipy.fft.fftn
    with Tracer() as tracer:
        if bypass_step:
            lpns.solver.step = original_step
        code = lpns.cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 0
    assert lpns.solver.step is original_step
    assert scipy.fft.fftn is original_fftn
    return {"spans": tracer.spans, "fired": tracer.fired, "bypasses": tracer.bypasses}


def test_transform_counts_match_cost_model(tmp_path):
    trace = _simulate_n16(tmp_path)
    metrics, _ = layer_metrics([trace])
    n_shells = build_filter_bank(GridSpec(16)).n_shells
    assert metrics["fft.transforms_per_step"] == 36
    assert metrics["fft.transforms_per_row"] == 9 + 3 * n_shells
    assert missing_wrappers(trace, EXPECTED) == []
    assert trace["bypasses"] == []


def test_guard_reports_a_bypassed_wrapper(tmp_path):
    trace = _simulate_n16(tmp_path, bypass_step=True)
    assert missing_wrappers(trace, EXPECTED) == ["solver.step", "fft in solver.step"]


def test_guard_reports_a_transform_imported_by_name(tmp_path, monkeypatch):
    # As after `from ._fft import ifftn` and `from numpy.fft import fftn` in
    # lpns.flux: every wrapper still fires, but those calls would not count.
    monkeypatch.setattr(lpns.flux, "ifftn", lpns._fft.ifftn, raising=False)
    monkeypatch.setattr(lpns.flux, "fftn", numpy.fft.fftn, raising=False)
    trace = _simulate_n16(tmp_path)
    assert missing_wrappers(trace, EXPECTED) == []
    assert trace["bypasses"] == [
        "lpns.flux.fftn is numpy.fft.fftn imported by name",
        "lpns.flux.ifftn is lpns._fft.ifftn imported by name",
    ]


def test_guard_reports_a_backend_called_directly(tmp_path, monkeypatch):
    # As after `from scipy import fft as _fft` in lpns.solver: the forward
    # transforms of every step go past the counter.
    monkeypatch.setattr(lpns.solver, "_fft", scipy.fft)
    trace = _simulate_n16(tmp_path)
    metrics, _ = layer_metrics([trace])
    assert metrics["fft.transforms_per_step"] < 36
    assert missing_wrappers(trace, EXPECTED) == []
    assert trace["bypasses"] == ["scipy.fft.fftn called outside lpns._fft"]
