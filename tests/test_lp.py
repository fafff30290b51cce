import dataclasses
import math

import numpy as np
import pytest

from lpns.errors import ConfigurationError, ShellRangeError, UndefinedRatioError
from lpns.lp import (
    bernstein_ratio,
    build_filter_bank,
    decompose,
    lam,
    partition_residual,
    phi_profile,
    psi_profile,
    reconstruct,
    shell_energies,
    shell_project,
    sobolev_norm,
    truncate_high,
    truncate_low,
)
from lpns.flux import _transfer_density
from lpns.spectral import (
    BOX_VOLUME,
    GridSpec,
    energy,
    l2_norm,
    make_taylor_green,
    zero_velocity,
)

from conftest import random_solenoidal_field, single_mode_field

SQRT3 = math.sqrt(3.0)


class TestProfile:
    def test_plateau_values(self):
        """psi is 1 on [0, 1/2] and 0 on [1, inf)."""
        assert psi_profile(0.25) == 1.0
        assert psi_profile(2.0) == 0.0
        assert psi_profile(0.5) == 1.0
        assert psi_profile(1.0) == 0.0

    def test_monotone_on_ramp(self):
        r = np.linspace(0.5, 1.0, 2001)
        vals = psi_profile(r)
        assert np.all(np.diff(vals) <= 0)
        assert np.all((vals >= 0) & (vals <= 1))

    def test_smooth_at_plateau_edges(self):
        """Value and slope continue smoothly into the plateaus."""
        eps = 1e-4
        assert psi_profile(0.5 + eps) == pytest.approx(1.0, abs=1e-8)
        assert psi_profile(1.0 - eps) == pytest.approx(0.0, abs=1e-8)

    def test_phi_support(self):
        r = np.array([0.4, 0.5, 0.75, 1.0, 1.5, 1.99, 2.0, 3.0])
        vals = phi_profile(r)
        assert vals[0] == 0.0 and vals[1] == 0.0
        assert np.all(vals[2:6] > 0)
        assert vals[6] == 0.0 and vals[7] == 0.0

    def test_phi_at_forced_points(self):
        assert phi_profile(1.0) == 1.0          # psi(1/2) - psi(1)
        assert phi_profile(2.0, q=1) == 1.0     # shell-1 weight at |k| = 2
        s = phi_profile(SQRT3) + phi_profile(SQRT3, q=1)
        assert s == pytest.approx(1.0, abs=1e-15)


class TestFilterBank:
    def test_shell_count(self, bank16, bank32, bank64):
        assert (bank16.q_min, bank16.q_max) == (0, 4)
        assert (bank32.q_min, bank32.q_max) == (0, 5)
        assert (bank64.q_min, bank64.q_max) == (0, 6)

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_partition_of_unity(self, n):
        from lpns.spectral import GridSpec

        bank = build_filter_bank(GridSpec(n))
        assert partition_residual(bank) < 1e-12

    def test_negative_shells_vanish_on_lattice(self, grid16):
        """phi_q(|k|) = 0 for q < 0 at every integer |k| >= 1."""
        kmag = grid16.k_magnitude()
        nonzero = kmag[kmag > 0]
        for q in (-1, -2, -3):
            assert np.max(np.abs(phi_profile(nonzero, q))) == 0.0

    def test_shell_range_error(self, bank16):
        with pytest.raises(ShellRangeError):
            bank16.multiplier(5)
        with pytest.raises(ShellRangeError):
            bank16.multiplier(-1)


class TestRadialTables:
    @pytest.mark.parametrize("n", [16, 32])
    def test_gathered_multiplier_is_profile_on_lattice(self, n):
        bank = build_filter_bank(GridSpec(n))
        kmag = bank.grid.k_magnitude()
        for q in bank.shells:
            assert np.array_equal(bank.multiplier(q), phi_profile(kmag, q))

    @pytest.mark.parametrize("n", [16, 32])
    def test_shell_sum_matches_lattice_contraction(self, n):
        bank = build_filter_bank(GridSpec(n))
        mults = np.stack([bank.multiplier(q) for q in bank.shells])
        for seed in range(3):
            u = random_solenoidal_field(bank.grid, seed)
            energy_density = np.sum(np.abs(u.coeffs) ** 2, axis=0)
            signed_density = _transfer_density(u)
            for squared, weights in ((True, mults**2), (False, mults)):
                for density in (energy_density, signed_density):
                    fast = bank.shell_sum(density, squared=squared)
                    slow = BOX_VOLUME * np.einsum("qxyz,xyz->q", weights, density)
                    scale = BOX_VOLUME * np.einsum("qxyz,xyz->q", weights, np.abs(density))
                    assert np.all(np.abs(fast - slow) <= 1e-12 * scale)

    def test_tables_stay_small_at_n128(self):
        bank = build_filter_bank(GridSpec(128))
        table_bytes = sum(
            getattr(bank, f.name).nbytes
            for f in dataclasses.fields(bank)
            if isinstance(getattr(bank, f.name), np.ndarray) and f.name != "k2"
        )
        assert table_bytes < 2 * 2**20


class TestShellProject:
    def test_single_mode_forced(self, grid32, bank32):
        u = single_mode_field(grid32, (1, 0, 0), (0, 0.5, 0))
        p0 = shell_project(u, bank32, 0)
        assert np.array_equal(p0.coeffs, u.coeffs)
        for q in range(1, bank32.q_max + 1):
            assert not np.any(shell_project(u, bank32, q).coeffs)

    def test_taylor_green_split(self, grid32, bank32):
        """Shell energies follow the profile weights at |k| = sqrt(3)."""
        tg = make_taylor_green(grid32, 1.0)
        w0 = phi_profile(SQRT3)
        w1 = phi_profile(SQRT3, q=1)
        e = energy(tg)
        shells = shell_energies(tg, bank32)
        assert shells[0] == pytest.approx(w0**2 * e, rel=1e-12)
        assert shells[1] == pytest.approx(w1**2 * e, rel=1e-12)
        assert np.all(shells[2:] == 0)
        assert energy(shell_project(tg, bank32, 0)) == pytest.approx(w0**2 * e, rel=1e-12)

    def test_double_projection_squares_multiplier(self, grid16, bank16):
        u = random_solenoidal_field(grid16, 1)
        twice = shell_project(shell_project(u, bank16, 2), bank16, 2)
        direct = u.coeffs * bank16.multiplier(2) ** 2
        assert np.max(np.abs(twice.coeffs - direct)) < 1e-16

    def test_support_is_exact(self, grid32, bank32):
        """Shell pieces carry exact zeros outside 2^(q-1) <= |k| <= 2^(q+1)."""
        u = random_solenoidal_field(grid32, 2)
        kmag = grid32.k_magnitude()
        for q in bank32.shells:
            piece = shell_project(u, bank32, q)
            outside = (kmag < lam(q) / 2) | (kmag > 2 * lam(q))
            assert not np.any(piece.coeffs[:, outside])

    def test_inherits_solenoidality(self, grid32, bank32):
        from lpns.spectral import divergence_residual

        u = random_solenoidal_field(grid32, 3)
        assert divergence_residual(shell_project(u, bank32, 2)) < 1e-12


class TestDecomposeReconstruct:
    def test_zero_field(self, grid16, bank16):
        d = decompose(zero_velocity(grid16), bank16)
        assert all(not np.any(p.coeffs) for p in d.pieces.values())

    def test_taylor_green_two_pieces(self, grid32, bank32):
        d = decompose(make_taylor_green(grid32, 1.0), bank32)
        populated = [q for q, p in d.pieces.items() if np.any(p.coeffs)]
        assert populated == [0, 1]

    @pytest.mark.parametrize("seed", range(5))
    def test_reconstruction(self, grid32, bank32, seed):
        u = random_solenoidal_field(grid32, seed)
        rec = reconstruct(decompose(u, bank32))
        err = l2_norm(
            type(u)(u.grid, rec.coeffs - u.coeffs)
        )
        assert err < 1e-12 * l2_norm(u)


class TestTruncations:
    def test_top_shell_recovers_field(self, grid32, bank32):
        u = random_solenoidal_field(grid32, 11)
        low = truncate_low(u, bank32, bank32.q_max)
        assert np.max(np.abs(low.coeffs - u.coeffs)) < 1e-15

    def test_below_range_is_zero(self, grid32, bank32):
        u = random_solenoidal_field(grid32, 12)
        assert not np.any(truncate_low(u, bank32, -1).coeffs)

    def test_taylor_green_low_cut(self, grid32, bank32):
        tg = make_taylor_green(grid32, 1.0)
        low = truncate_low(tg, bank32, 0)
        piece = shell_project(tg, bank32, 0)
        assert np.max(np.abs(low.coeffs - piece.coeffs)) < 1e-16

    @pytest.mark.parametrize("q_split", [-1, 0, 2, 5])
    def test_complement(self, grid32, bank32, q_split):
        u = random_solenoidal_field(grid32, 13)
        low = truncate_low(u, bank32, q_split)
        high = truncate_high(u, bank32, q_split + 1)
        err = np.max(np.abs(low.coeffs + high.coeffs - u.coeffs))
        assert err < 1e-12 * np.max(np.abs(u.coeffs))


class TestSobolevNorm:
    @pytest.mark.parametrize("s", [-1.0, 0.0, 0.5, 1.0, 1.5, 2.0])
    def test_single_mode_all_exponents(self, grid32, bank32, s):
        """A |k| = 1 field sits entirely in shell 0, so the norm is ||u||_2."""
        u = single_mode_field(grid32, (0, 1, 0), (0.7, 0, 0.2))
        assert sobolev_norm(u, bank32, s) == pytest.approx(l2_norm(u), rel=1e-12)

    def test_taylor_green_closed_form(self, grid32, bank32):
        tg = make_taylor_green(grid32, 1.0)
        w0, w1 = phi_profile(SQRT3), phi_profile(SQRT3, q=1)
        expected = math.sqrt(energy(tg) * (w0**2 + 8.0 * w1**2))
        assert sobolev_norm(tg, bank32, 1.5) == pytest.approx(expected, rel=1e-12)

    def test_zero_field(self, grid16, bank16):
        assert sobolev_norm(zero_velocity(grid16), bank16, 1.5) == 0.0

    def test_s0_equivalence_window(self, grid32, bank32):
        """For s = 0 the norm is within [c ||u||_2, ||u||_2], c from the bank."""
        kmag = bank32.grid.k_magnitude()
        sel = (kmag > 0) & (kmag <= bank32.grid.k_max)
        c = math.sqrt(np.min(np.sum(bank32.phi_sq, axis=0)[bank32.k2][sel]))
        assert 0 < c <= 1
        for seed in range(5):
            u = random_solenoidal_field(grid32, seed)
            ratio = sobolev_norm(u, bank32, 0.0) / l2_norm(u)
            assert c - 1e-12 <= ratio <= 1 + 1e-12

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.0])
    def test_norm_equivalence_single_modes(self, grid32, bank32, s):
        """sobolev_norm / (|k|^s ||u||_2) stays in a bank-dependent window."""
        ratios = []
        k_list = [(1, 0, 0), (1, 1, 0), (1, 1, 1), (2, 1, 0), (3, 2, 1),
                  (4, 0, 0), (5, 3, 1), (6, 4, 2), (8, 3, 1), (9, 4, 0)]
        for k in k_list:
            kn = math.sqrt(sum(c * c for c in k))
            if kn > grid32.k_max:
                continue
            u = single_mode_field(grid32, k, (0.3, -0.4, 0.5))
            if not np.any(u.coeffs):
                continue
            ratios.append(sobolev_norm(u, bank32, s) / (kn**s * l2_norm(u)))
        ratios = np.array(ratios)
        assert np.all(ratios > 0.4) and np.all(ratios < 2.5)

    def test_gradient_bracketing(self, grid32, bank32):
        """lam_q^2 / 4 <= ||grad u_q||^2 / ||u_q||^2 <= 4 lam_q^2 per shell."""
        from lpns.flux import shell_dissipations

        u = random_solenoidal_field(grid32, 17)
        energies = shell_energies(u, bank32)
        dissip = shell_dissipations(u, bank32)
        for q in bank32.shells:
            if energies[q] < 1e-20:
                continue
            ratio = dissip[q] / energies[q]
            assert lam(q) ** 2 / 4.0 <= ratio <= 4.0 * lam(q) ** 2


class TestBernstein:
    def test_equal_exponents(self, grid32, bank32):
        u = shell_project(random_solenoidal_field(grid32, 5), bank32, 2)
        assert bernstein_ratio(u, bank32, 2, 4, 4) == pytest.approx(1.0, rel=1e-12)

    def test_single_mode_inf_two(self, grid32, bank32):
        """Mode-pair fields attain ||u||_inf / ||u||_2 = sqrt(2 / (2 pi)^3)."""
        u = single_mode_field(grid32, (0, 0, 1), (1.0, 0, 0))
        ratio = bernstein_ratio(u, bank32, 0, math.inf, 2)
        expected = math.sqrt(2.0 / (2.0 * math.pi) ** 3)
        assert ratio == pytest.approx(expected, rel=1e-10)
        assert ratio < 1.0

    def test_zero_field_rejected(self, grid16, bank16):
        with pytest.raises(UndefinedRatioError):
            bernstein_ratio(zero_velocity(grid16), bank16, 0, 4, 2)

    def test_bad_exponents(self, grid16, bank16):
        u = single_mode_field(grid16, (0, 1, 0), (1.0, 0, 0))
        with pytest.raises(ConfigurationError):
            bernstein_ratio(u, bank16, 0, 3, 2)
        with pytest.raises(ConfigurationError):
            bernstein_ratio(u, bank16, 0, 2, 4)

    def test_ensemble_bounded(self, grid32, bank32):
        worst = 0.0
        for seed in range(20):
            base = random_solenoidal_field(grid32, seed)
            q = seed % 3
            piece = shell_project(base, bank32, q)
            worst = max(worst, bernstein_ratio(piece, bank32, q, 4, 2))
        assert math.isfinite(worst) and worst < 10.0
