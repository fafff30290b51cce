"""Output checks for one benchmark child run; each returns a list of failures.

Tolerances are those of the acceptance criteria in tests/test_acceptance.py:
FD-vs-instantaneous Riccati lhs below 1e-4 (criterion 8), energy-balance
residual below 1e-5 (criterion 9), flux residual below 1e-9 (criterion 5).
Two computations of one energy agree to round-off, taken as ROUNDOFF
relative.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

RICCATI_FD_TOL = 1e-4
ENERGY_BALANCE_TOL = 1e-5
FLUX_RESIDUAL_TOL = 1e-9
ROUNDOFF = 1e-12


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {key: np.array([float(r[key]) for r in rows]) for key in (rows[0] if rows else {})}


def check_trajectory(cols, expected_rows):
    """E finite and never increasing; the expected number of rows."""
    failures = []
    energy = cols.get("E", np.array([]))
    if len(energy) != expected_rows:
        failures.append(f"CSV has {len(energy)} rows, expected {expected_rows}")
    if not np.all(np.isfinite(energy)):
        failures.append("E is not finite")
    elif np.any(np.diff(energy) > 0):
        failures.append(f"E increases at row {int(np.argmax(np.diff(energy) > 0)) + 1}")
    return failures


def check_riccati_fd(cols):
    """Centred difference of y against the instantaneous Riccati lhs (criterion 8)."""
    t, y, lhs = cols["t"], cols["y"], cols["riccati_lhs"]
    fd = (y[2:] - y[:-2]) / (t[2:] - t[:-2])
    mid = lhs[1:-1]
    worst = float(np.max(np.abs(fd - mid) / np.maximum(np.maximum(abs(fd), abs(mid)), 1e-14)))
    return [] if worst < RICCATI_FD_TOL else [f"Riccati FD error {worst:.3e} >= {RICCATI_FD_TOL}"]


def check_energy_balance(cols, nu):
    """max |dE/dt + 2 nu enstrophy| / E(0) over interior rows (criterion 9).

    Needs rows one step apart.  dE/dt is the fourth-order centred difference:
    the second-order one of criterion 9 has a truncation error dt^2 E'''/6,
    about 2.7e-5 of E(0) at dt = 1e-3 while the shell at |k| = 8 decays at
    rate 2 nu |k|^2 = 12.8, which alone exceeds the tolerance.  The
    fourth-order error there is below 1e-9.
    """
    t, energy, enstrophy = cols["t"], cols["E"], cols["enstrophy"]
    h = t[1] - t[0]
    dedt = (-energy[4:] + 8.0 * energy[3:-1] - 8.0 * energy[1:-3] + energy[:-4]) / (12.0 * h)
    worst = float(np.max(np.abs(dedt + 2.0 * nu * enstrophy[2:-2]))) / max(energy[0], 1e-14)
    return ([] if worst < ENERGY_BALANCE_TOL
            else [f"energy-balance residual {worst:.3e} >= {ENERGY_BALANCE_TOL}"])


def parseval_energy(values, n):
    """int |u|^2 dx of a physical field on the (2 pi)^3 box by grid quadrature."""
    return float(np.sum(values**2)) * (2.0 * math.pi / n) ** 3


def check_snapshot_energy(snapshot_path, last_energy):
    """The written snapshot carries the last CSV energy to round-off."""
    from lpns.snapshots import read_snapshot

    phys, _ = read_snapshot(snapshot_path)
    energy = parseval_energy(phys.values, phys.grid.n)
    err = _rel(energy, last_energy)
    return [] if err < ROUNDOFF else [f"snapshot energy differs from CSV E by {err:.3e}"]


def reference_shell_energies(values, n, shells):
    """BOX_VOLUME * sum_k phi_q(|k|)^2 |u_hat(k)|^2 per shell q, from a
    physical field by numpy's FFT and the documented profile
    ``lpns.lp.phi_profile``; independent of how the filter bank is stored or
    how the package sums over shells."""
    from lpns.lp import phi_profile

    density = np.sum(np.abs(np.fft.fftn(values, axes=(1, 2, 3)) / n**3) ** 2, axis=0)
    freq = np.rint(np.fft.fftfreq(n, 1.0 / n))
    kmag = np.sqrt(freq[:, None, None] ** 2 + freq[None, :, None] ** 2 + freq[None, None, :] ** 2)
    return {q: (2.0 * math.pi) ** 3 * float(np.sum(phi_profile(kmag, q) ** 2 * density))
            for q in shells}


def check_report(stdout_path, reference):
    """Flux residual (criterion 5), and every shell energy matching
    ``reference`` with no energy left in an unreported shell."""
    with open(stdout_path) as fh:
        report = json.load(fh)
    failures = []
    if not report["flux_residual"] < FLUX_RESIDUAL_TOL:
        failures.append(f"flux residual {report['flux_residual']:.3e} >= {FLUX_RESIDUAL_TOL}")
    reported = {int(key[2:]): value for key, value in report["shell_energies"].items()}
    for q, expected in reference.items():
        got = reported.get(q, 0.0)
        if not _rel(got, expected) < ROUNDOFF:
            failures.append(f"shell {q} energy {got!r} differs from reference {expected!r}")
    return failures
