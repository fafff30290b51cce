import inspect
import math

import numpy as np
import pytest

from lpns import _fft, flux
from lpns.errors import ConfigurationError, ShellRangeError
from lpns.flux import (
    LOW_PASS_SHIFT,
    SYM_PAIRS,
    TriSums,
    _physical,
    _shell_fields,
    _shell_l4_norms,
    _shell_norm_table,
    _shell_values,
    lemma1_sides,
    nlt_split,
    product_tensor_hat,
    remainder,
    remainder_direct,
    riccati_sides,
    shell_dissipations,
    shell_flux_report,
    shell_transfers,
    tensor_l2_norm,
    total_flux,
)
from lpns.lp import build_filter_bank, lam, phi_profile, shell_project, truncate_low
from lpns.spectral import (
    GridSpec,
    SpectralVelocity,
    _cut,
    _hat,
    _lattice,
    _lattice_sum,
    _paste,
    make_random_field,
    make_taylor_green,
    zero_velocity,
)
from lpns.solver import SolverParams, _sample_row, simulate
from lpns.verify import nlt_suite

from conftest import (count_transforms, fft_entries, peak_allocation, random_solenoidal_field,
                      single_mode_field)


def quadrature_transfer(u, bank, q):
    """Independent physical-space evaluation of int Tr[(u o u)_q . grad u_q] dx."""
    n = u.grid.n
    kx, ky, kz = _lattice(n)[:3]
    k = (kx, ky, kz)
    what = product_tensor_hat(u)
    tq = bank.multiplier(q) * what
    uq = u.coeffs * bank.multiplier(q)
    acc = 0.0
    for m, (i, j) in enumerate(SYM_PAIRS):
        t_phys = _physical(tq[m])
        acc += np.sum(t_phys * _physical(1j * k[i] * uq[j]))
        if i != j:
            acc += np.sum(t_phys * _physical(1j * k[j] * uq[i]))
    return float(acc) * u.grid.dx**3


class TestTensorShell:
    """(u o u)_q is bank.multiplier(q) times the product tensor."""

    def test_zero_field(self, grid16, bank16):
        assert not np.any(bank16.multiplier(1) * product_tensor_hat(zero_velocity(grid16)))

    def test_single_mode_product_support(self, grid32, bank32):
        """|k| = 1 squares into modes {0, 2}; shell 1 captures |k| = 2 fully."""
        u = single_mode_field(grid32, (1, 0, 0), (0, 0.5, 0))
        what = product_tensor_hat(u)
        kx, ky, kz = _lattice(32)[:3]
        k2int = kx * kx + ky * ky + kz * kz
        off = (k2int != 0) & (k2int != 4)
        assert np.max(np.abs(what[:, off])) < 1e-15
        t1 = bank32.multiplier(1) * what
        sel = k2int == 4
        assert np.max(np.abs(t1[:, sel] - what[:, sel])) < 1e-18

    def test_trace_reconstruction(self, grid32, bank32):
        """Traces of the shell tensors sum to u_i u_j minus its mean."""
        tg = make_taylor_green(grid32, 1.0)
        what = product_tensor_hat(tg)
        total = np.zeros((6, *grid32.spectral_shape), dtype=np.complex128)
        for q in bank32.shells:
            total += bank32.multiplier(q) * what
        what[:, 0, 0, 0] = 0.0
        assert np.max(np.abs(total - what)) < 1e-15

    def test_rejects_aliased_field(self, grid16, bank16):
        u = single_mode_field(grid16, (7, 0, 0), (0, 1.0, 0))  # above k_max = 5
        with pytest.raises(ConfigurationError):
            shell_transfers(u, bank16)

    @pytest.mark.parametrize("fraction", [2.0 / 3.0, 0.5, 1.0])
    @pytest.mark.parametrize("n", [16, 32])
    def test_equal_to_a_stacked_transform_bit_for_bit(self, n, fraction):
        """Filling the tensor one product at a time changes no bit of the one
        batched transform of all six products."""
        u = random_solenoidal_field(GridSpec(n, dealias_fraction=fraction), 5)
        phys = _physical(u.coeffs)
        stacked = _hat(np.stack([phys[i] * phys[j] for i, j in SYM_PAIRS]))
        assert product_tensor_hat(u).tobytes() == stacked.tobytes()
        assert product_tensor_hat(u, phys).tobytes() == stacked.tobytes()

    @pytest.mark.parametrize("n", [32, 64])
    def test_peak_allocation_with_given_grid_values(self, n):
        """Given u's grid values, the tensor (2 velocity arrays) is the only
        large allocation beside one product and its transform."""
        u = random_solenoidal_field(GridSpec(n), 1)
        phys = _physical(u.coeffs)
        assert peak_allocation(lambda: product_tensor_hat(u, phys)) <= 2.75 * u.coeffs.nbytes


class TestRemainder:
    def test_zero_field(self, grid16, bank16):
        assert not np.any(remainder(zero_velocity(grid16), bank16, 1))

    def test_negative_shell_rejected(self, grid16, bank16):
        with pytest.raises(ShellRangeError):
            remainder(random_solenoidal_field(grid16, 0), bank16, -1)

    def test_translation_invariance(self, grid16, bank16):
        """Shifting u by a lattice vector shifts r_q by the same vector."""
        u = random_solenoidal_field(grid16, 3)
        shift = (3, 5, 7)
        shifted = SpectralVelocity(u.grid, np.roll(_roll_hat(u, shift), 0))
        r_base = remainder(u, bank16, 1)
        r_shift = remainder(shifted, bank16, 1)
        base_phys = _physical(r_base)
        shift_phys = _physical(r_shift)
        rolled = np.roll(base_phys, shift, axis=(1, 2, 3))
        assert np.max(np.abs(shift_phys - rolled)) < 1e-12 * np.max(np.abs(base_phys))

    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_against_direct_kernel_taylor_green(self, grid16, bank16, q):
        tg = make_taylor_green(grid16, 1.0)
        fast = remainder(tg, bank16, q)
        slow = remainder_direct(tg, bank16, q)
        scale = max(tensor_l2_norm(slow), 1e-14)
        assert tensor_l2_norm(fast - slow) / scale < 1e-8

    @pytest.mark.parametrize("field", ["white-noise", "taylor-green"])
    def test_given_shell_values_change_no_bit(self, grid32, bank32, field):
        """On the shells whose grid is the n-point one, the generator's u_q
        values give the remainder's bytes, and are left as they were."""
        u = random_solenoidal_field(grid32, 4) if field == "white-noise" else make_taylor_green(grid32, 1.0)
        shells = 0
        for q, m, values in _shell_fields(u, bank32):
            if m < grid32.n:
                continue
            shells += 1
            kept = [v.copy() for v in values]
            given = remainder(u, bank32, q, _uq_phys=values)
            assert given.tobytes() == remainder(u, bank32, q).tobytes()
            assert all(v.tobytes() == k.tobytes() for v, k in zip(values, kept))
        assert shells == 4

    def test_against_direct_kernel_random(self, grid16, bank16):
        u = random_solenoidal_field(grid16, 9)
        for q in (1, 3):
            fast = remainder(u, bank16, q)
            slow = remainder_direct(u, bank16, q)
            scale = max(tensor_l2_norm(slow), 1e-14)
            assert tensor_l2_norm(fast - slow) / scale < 1e-8

    @pytest.mark.parametrize("n", [32, 64])
    def test_coarse_shell_norm_peak_allocation_at_most_two_velocity_arrays(self, n):
        """With u's grid values and product tensor given, a coarse shell's norm
        holds u_q (about 1 velocity array), phi_q, and one cross term beside
        its partial transform: 1.74 V at n = 32 and 1.78 V at n = 64 (1.94
        and 1.82 V with the full rfftn of each cross term)."""
        grid = GridSpec(n)
        bank = build_filter_bank(grid)
        u = random_solenoidal_field(grid, 1)
        phys = _physical(u.coeffs)
        what = product_tensor_hat(u, phys)
        remainder(u, bank, 0, _phys=phys, _what=what, _l2=True)  # builds the cached lattice tables
        peak = peak_allocation(lambda: remainder(u, bank, 0, _phys=phys, _what=what, _l2=True))
        assert peak <= 2.0 * u.coeffs.nbytes


def _roll_hat(u, shift):
    """Coefficients of x -> u(x - a) for a lattice shift a."""
    kx, ky, kz = _lattice(u.grid.n)[:3]
    dx = u.grid.dx
    phase = np.exp(-1j * (kx * shift[0] + ky * shift[1] + kz * shift[2]) * dx)
    return u.coeffs * phase


class TestTransfer:
    def test_matches_quadrature_oracle(self, grid32, bank32):
        u = random_solenoidal_field(grid32, 7)
        for q in (0, 2, 4):
            spectral = shell_transfers(u, bank32)[q]
            direct = quadrature_transfer(u, bank32, q)
            assert spectral == pytest.approx(direct, rel=1e-12, abs=1e-18)

    def test_taylor_green_t0_shell0_empty(self, grid32, bank32):
        """At t = 0 the TG tensor has no support inside shell 0's annulus."""
        tg = make_taylor_green(grid32, 1.0)
        assert shell_transfers(tg, bank32)[0] == pytest.approx(0.0, abs=1e-16)

    def test_sign_pattern_under_forward_simulation(self, grid32, bank32):
        """Energy moves downscale: shells 0-1 lose, shell 2 gains at t = 0+."""
        params = SolverParams(nu=0.1, dt=1e-3, t_end=0.01)
        res = simulate(make_taylor_green(grid32, 1.0), params, bank32)
        transfers = shell_transfers(res.final, bank32)
        assert transfers[0] <= 1e-12
        assert transfers[1] < 0.0
        assert transfers[2] > 0.0


class TestNltSplit:
    def test_zero_field(self, grid16, bank16):
        r_part, low_part = nlt_split(zero_velocity(grid16), bank16, 0)
        assert r_part == 0.0 and low_part == 0.0

    def test_single_mode_shell0(self, grid32, bank32):
        """One Fourier mode feeds no energy back into its own shell."""
        u = single_mode_field(grid32, (1, 0, 0), (0, 0.4, 0.1))
        t0 = shell_transfers(u, bank32)[0]
        assert t0 == pytest.approx(0.0, abs=1e-16)
        r_part, low_part = nlt_split(u, bank32, 0)
        assert r_part + low_part == pytest.approx(t0, abs=1e-14)
        assert r_part + low_part == pytest.approx(
            quadrature_transfer(u, bank32, 0), abs=1e-14
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_identity_all_shells(self, grid32, bank32, seed):
        u = random_solenoidal_field(grid32, seed)
        transfers = shell_transfers(u, bank32)
        for q in bank32.shells:
            r_part, low_part = nlt_split(u, bank32, q)
            t = transfers[q - bank32.q_min]
            resid = abs(r_part + low_part - t)
            resid /= max(abs(t), abs(r_part), abs(low_part), 1e-14)
            assert resid < 1e-9

    def test_one_shell_narrower_cutoff_fails(self, grid32, bank32):
        """With the low-pass ending at q+1 the identity is violated: products
        of two shell-q modes reach shell q+2, so that interaction is real."""
        u = random_solenoidal_field(grid32, 1)
        k = _lattice(32)[:3]
        worst = 0.0
        transfers = shell_transfers(u, bank32)
        for q in bank32.shells:
            r_part = nlt_split(u, bank32, q)[0]
            uq_phys = _physical(u.coeffs * bank32.multiplier(q))
            low = truncate_low(u, bank32, q + 1)
            acc = 0.0
            for i in range(3):
                for j in range(3):
                    acc += float(np.sum(uq_phys[i] * _physical(1j * k[i] * low.coeffs[j]) * uq_phys[j]))
            low_part = -acc * grid32.dx**3
            t = transfers[q - bank32.q_min]
            resid = abs(r_part + low_part - t)
            resid /= max(abs(t), abs(r_part), abs(low_part), 1e-14)
            worst = max(worst, resid)
        assert worst > 1e-6

    def test_default_shift_is_two(self):
        assert LOW_PASS_SHIFT == 2

    @pytest.mark.parametrize("fraction", [2.0 / 3.0, 0.5])
    def test_one_shell_transform_for_both_parts_moves_no_bit(self, grid32, fraction):
        """u_q is transformed once and read by both parts.  Each part equals,
        bit for bit, its formula with u_q from the full inverse of its half
        spectrum.  The split transforms u (3), its product tensor (6), u_q (3),
        the cross terms (6) and the low part's gradient (9)."""
        grid = GridSpec(32, dealias_fraction=fraction)
        bank = build_filter_bank(grid)
        u = random_solenoidal_field(grid, 2)
        k = _lattice(32)[:3]
        for q in bank.shells:
            uq_coeffs = u.coeffs * bank.multiplier(q)
            uq_phys = _physical(uq_coeffs)
            r_hat = remainder(u, bank, q, _uq_phys=uq_phys)
            sym_grad = np.stack([0.5j * (k[i] * uq_coeffs[j] + k[j] * uq_coeffs[i]) for i, j in SYM_PAIRS])
            integral_r = float(np.sum(flux.SYM_WEIGHTS * _lattice_sum((r_hat * np.conj(sym_grad)).real)))
            low = truncate_low(u, bank, q + LOW_PASS_SHIFT)
            acc = 0.0
            for i in range(3):
                for j in range(3):
                    acc += float(np.sum(uq_phys[i] * _physical(1j * k[i] * low.coeffs[j]) * uq_phys[j]))
            assert nlt_split(u, bank, q) == (integral_r, -acc * grid.dx**3)
            assert count_transforms(lambda: nlt_split(u, bank, q)) == 3 + 6 + 3 + 6 + 9


def quadrature_l4(u, q, m):
    """||u_q||_4 by an m-point grid quadrature, m >= n, with the shell zero-padded
    from the n-point half spectrum and phi_q taken from ``phi_profile``."""
    n = u.grid.n
    kx, ky, kz = _lattice(n)[:3]
    uq = u.coeffs * phi_profile(np.sqrt(kx**2 + ky**2 + kz**2), q)
    padded = np.zeros((3, m, m, m // 2 + 1), dtype=np.complex128)
    axis = np.r_[: n // 2, m - n // 2 : m]
    padded[np.ix_(range(3), axis, axis, range(n // 2 + 1))] = uq
    values = np.fft.irfftn(padded, s=(m, m, m), axes=(1, 2, 3)) * m**3
    return (np.sum(np.sum(values**2, axis=0) ** 2) * (2 * np.pi / m) ** 3) ** 0.25


class TestShellL4Norms:
    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_matches_n_point_quadrature(self, n):
        """Every shell, the top ones included, is the n-point quadrature."""
        grid = GridSpec(n)
        bank = build_filter_bank(grid)
        u = random_solenoidal_field(grid, 5)
        l4 = _shell_l4_norms(u, bank)
        for i, q in enumerate(bank.shells):
            assert l4[i] == pytest.approx(quadrature_l4(u, q, n), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_resolved_shells_match_padded_grid(self, n):
        """Shells with 2^(q+3) <= n carry no aliasing: a 2n grid gives the same value."""
        grid = GridSpec(n)
        bank = build_filter_bank(grid)
        u = random_solenoidal_field(grid, 6)
        l4 = _shell_l4_norms(u, bank)
        resolved = [q for q in bank.shells if 2 ** (q + 3) <= n]
        assert resolved
        for q in resolved:
            assert l4[q - bank.q_min] == pytest.approx(quadrature_l4(u, q, 2 * n), rel=1e-14, abs=0.0)


def gathered_shell_values(u, bank, q):
    """u_q on M = min(n, 2^(q+3)) points by one np.ix_ gather of all three
    components, filtered and transformed together."""
    n = u.grid.n
    m = min(n, 2 ** (q + 3))
    axis = np.r_[: m // 2, n - m // 2 : n]
    shell = u.coeffs[np.ix_(range(3), axis, axis, range(m // 2 + 1))]
    shell *= bank.phi[q - bank.q_min][_lattice(m)[3]]
    return _physical(shell)


class TestShellFields:
    @pytest.mark.parametrize("fraction", [2.0 / 3.0, 0.5, 1.0, 0.3])
    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_equal_to_a_batched_gather_bit_for_bit(self, n, fraction):
        """Each shell's values on its own grid equal one gather and transform of
        all three components, and its n-point values (``_shell_values`` at m = n,
        as a remainder takes them) equal the full inverse of c * phi_q."""
        grid = GridSpec(n, dealias_fraction=fraction)
        bank = build_filter_bank(grid)
        for u in (random_solenoidal_field(grid, 8), make_taylor_green(grid, 1.0)):
            seen = []
            for q, m, values in _shell_fields(u, bank):
                seen.append(q)
                assert m == min(n, 2 ** (q + 3))
                assert np.stack(values).tobytes() == gathered_shell_values(u, bank, q).tobytes()
                full = _physical(u.coeffs * bank.multiplier(q))
                assert np.stack(_shell_values(u, bank, q, n)).tobytes() == full.tobytes()
            assert seen == list(bank.shells)

    @pytest.mark.parametrize("fraction", [2.0 / 3.0, 0.5, 1.0, 0.3])
    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_every_shell_is_transformed_from_a_cube(self, n, fraction, monkeypatch):
        """On n points and on the shell's own grid, the top shells included, each
        component of u_q is one pruned inverse and no shell makes a full one."""
        grid = GridSpec(n, dealias_fraction=fraction)
        bank = build_filter_bank(grid)
        u = random_solenoidal_field(grid, 8)
        calls = []

        def recording(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name, fn in fft_entries().items():
            monkeypatch.setattr(_fft, name, recording(name, fn))
        for q in bank.shells:
            for m in (n, min(n, 2 ** (q + 3))):
                calls.clear()
                _shell_values(u, bank, q, m)
                assert calls == ["irfftn_cube"] * 3, (q, m)

    def test_a_row_and_a_report_cache_one_lattice_table(self):
        """Every shell's values are made from the grid's own lattice: a row and
        a report at n = 32 leave one ``_lattice`` table, none of a coarse grid."""
        grid = GridSpec(32)
        bank = build_filter_bank(grid)
        u = random_solenoidal_field(grid, 1)
        _lattice.cache_clear()
        _sample_row(u, bank, 0.1)
        shell_flux_report(u, bank, 1.5, 0.1)
        assert _lattice.cache_info().currsize == 1


def support_cubes(u, bank):
    """(q, extent, [cube of each component]) for every coarse shell, 2^(q+3) < n:
    u_q on its support cube |k_i| < 2^(q+1)."""
    n = u.grid.n
    for q in bank.shells:
        if 2 ** (q + 3) < n:
            r = 2 ** (q + 1)
            extent = (r, r - 1, r)
            mult = _cut(bank.multiplier(q), extent)
            yield q, extent, [_cut(c, extent) * mult for c in u.coeffs]


class TestCubeTransform:
    @pytest.mark.parametrize("fraction", [2.0 / 3.0, 0.5, 1.0])
    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_equal_to_the_pasted_cube_bit_for_bit(self, n, fraction):
        grid = GridSpec(n, dealias_fraction=fraction)
        bank = build_filter_bank(grid)
        u = random_solenoidal_field(grid, 3)
        shells = []
        for q, extent, cubes in support_cubes(u, bank):
            shells.append(q)
            for cube in cubes:
                pasted = _paste(cube, extent, np.zeros(grid.spectral_shape, dtype=complex))
                assert _fft.irfftn_cube(cube, n=n).tobytes() == _physical(pasted).tobytes()
        assert shells == [q for q in bank.shells if 2 ** (q + 3) < n] != []

    def test_stacked_and_moved_axes_count_one_transform_per_component(self, grid32, bank32):
        u = random_solenoidal_field(grid32, 4)
        for _, _, cubes in support_cubes(u, bank32):
            stacked = np.stack(cubes)
            values = np.stack([_fft.irfftn_cube(cube, n=32) for cube in cubes])
            assert _fft.irfftn_cube(stacked, n=32).tobytes() == values.tobytes()
            moved = _fft.irfftn_cube(np.moveaxis(stacked, 0, -1), (0, 1, 2), n=32)
            assert np.moveaxis(moved, -1, 0).tobytes() == values.tobytes()
            assert count_transforms(lambda: _fft.irfftn_cube(stacked, n=32)) == 3

    def test_rejects_a_cube_that_is_not_a_support_cube(self):
        with pytest.raises(ValueError):
            _fft.irfftn_cube(np.zeros((4, 4, 2), dtype=complex), n=16)
        with pytest.raises(ValueError):
            _fft.irfftn_cube(np.zeros((17, 17, 9), dtype=complex), n=16)


class TestForwardCubeTransform:
    @pytest.mark.parametrize("fraction", [2.0 / 3.0, 0.5, 1.0])
    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_equal_to_the_cut_rfftn_bit_for_bit(self, n, fraction):
        """Every cube |k_i| < r with 2 r <= n of the six products of a field's
        grid values: the shells' support cubes and the retained block."""
        phys = _physical(random_solenoidal_field(GridSpec(n, dealias_fraction=fraction), 3).coeffs)
        for i, j in SYM_PAIRS:
            values = phys[i] * phys[j]
            full = _fft.rfftn(values)
            for r in range(1, n // 2 + 1):
                assert _fft.rfftn_cube(values, r=r).tobytes() == _cut(full, (r, r - 1, r)).tobytes()

    def test_stacked_and_moved_axes_count_one_transform_per_component(self, grid32):
        phys = _physical(random_solenoidal_field(grid32, 4).coeffs)
        for r in (1, 2, 4):
            values = np.stack([_fft.rfftn_cube(v, r=r) for v in phys])
            assert _fft.rfftn_cube(phys, r=r).tobytes() == values.tobytes()
            moved = _fft.rfftn_cube(np.moveaxis(phys, 0, -1), (0, 1, 2), r=r)
            assert np.moveaxis(moved, -1, 0).tobytes() == values.tobytes()
            assert count_transforms(lambda: _fft.rfftn_cube(phys, r=r)) == 3

    def test_rejects_a_cube_wider_than_half_the_grid(self):
        """2 r <= n, the bound of ``irfftn_cube``: at r = n/2 + 1 the cube would
        hold the Nyquist row twice."""
        assert _fft.rfftn_cube(np.zeros((16, 16, 16)), r=8).shape == (15, 15, 8)
        with pytest.raises(ValueError):
            _fft.rfftn_cube(np.zeros((16, 16, 16)), r=9)
        with pytest.raises(ValueError):
            _fft.rfftn_cube(np.zeros((16, 16, 8)), r=1)


class TestFftEntries:
    def test_every_entry_takes_axes_as_its_second_parameter(self):
        """The benchmark tracer and ``count_transforms`` wrap every function of
        ``lpns._fft`` with an ``axes`` parameter and read a positional one as
        the second argument; ``workers`` is the one function without it."""
        entries = fft_entries()
        assert {"fftn", "ifftn", "rfftn", "irfftn", "rfftn_cube", "irfftn_cube"} <= set(entries)
        for name, fn in entries.items():
            assert list(inspect.signature(fn).parameters)[1] == "axes", name
        functions = {name for name, fn in vars(_fft).items()
                     if inspect.isfunction(fn) and fn.__module__ == _fft.__name__}
        assert functions - set(entries) == {"workers"}


#: Relative agreement of a coarse shell's remainder norm, which takes its cross
#: terms' modes outside the support cube by Parseval, with the full-spectrum
#: norm; 3.7e-15 is the worst measured (Taylor-Green, n = 32, shell 0).
COARSE_NORM_RTOL = 1e-13


def assert_remainder_norm(value, reference, n, q):
    """Bit for bit on a shell with 2^(q+3) >= n, and to COARSE_NORM_RTOL on a
    coarse shell; a zero reference needs an exact zero."""
    if 2 ** (q + 3) >= n:
        assert value == reference
    else:
        assert value == pytest.approx(reference, rel=COARSE_NORM_RTOL, abs=0.0)


class TestCoarseShellNorm:
    @pytest.mark.parametrize("field", ["white-noise", "taylor-green"])
    def test_equal_to_the_direct_kernel(self, grid16, bank16, field):
        u = random_solenoidal_field(grid16, 9) if field == "white-noise" else make_taylor_green(grid16, 1.0)
        direct = tensor_l2_norm(remainder_direct(u, bank16, 0))
        assert remainder(u, bank16, 0, _l2=True) == pytest.approx(direct, rel=1e-12, abs=0.0)

    def test_taylor_green_cross_terms_inside_the_cube(self, grid32, bank32):
        """Shell 1's cross terms have every mode in its support cube |k_i| < 4,
        up to round-off, so their energy outside it is a difference that cancels."""
        tg = make_taylor_green(grid32, 1.0)
        phys = _physical(tg.coeffs)
        uq = _physical(tg.coeffs * bank32.multiplier(1))
        for i, j in SYM_PAIRS:
            c = _fft.rfftn(uq[i] * phys[j] + phys[i] * uq[j])
            outside = _paste(np.zeros((7, 7, 4), dtype=complex), (4, 3, 4), c.copy())
            assert np.max(np.abs(outside)) <= 1e-14 * np.max(np.abs(c))
        norm = remainder(tg, bank32, 1, _l2=True)
        assert math.isfinite(norm) and norm > 0.0
        assert_remainder_norm(norm, tensor_l2_norm(remainder(tg, bank32, 1)), 32, 1)

    def test_zero_field_gives_zero(self, grid32, bank32):
        u = zero_velocity(grid32)
        for q in bank32.shells:
            assert remainder(u, bank32, q, _l2=True) == 0.0


class TestLemma1:
    def test_zero_field(self, grid16, bank16):
        lhs, r1, r2, r3 = lemma1_sides(zero_velocity(grid16), bank16)[:, 1]
        assert (lhs, r1, r2, r3) == (0.0, 0.0, 0.0, 0.0)

    def test_taylor_green_support_truncation(self, grid32, bank32):
        """Only shells 0 and 1 are populated, so the sums collapse."""
        tg = make_taylor_green(grid32, 1.0)
        l2, l4 = _shell_norm_table(tg, bank32)
        lhs, r1, r2, r3 = lemma1_sides(tg, bank32)[:, 1]
        assert r1 == pytest.approx(
            l2[1] / lam(1) * (lam(0) ** 2 * l4[0] ** 2 + lam(1) ** 2 * l4[1] ** 2),
            rel=1e-12,
        )
        assert r2 == pytest.approx(0.0, abs=1e-18)
        assert r3 == pytest.approx(
            l2[1] ** 2 * (l2[0] + lam(1) ** 2.5 * l2[1] + lam(2) ** 2.5 * l2[2]),
            rel=1e-12,
        )

    def test_bound_holds_with_moderate_constant(self, grid32, bank32):
        worst = -math.inf
        for seed in range(10):
            lhs, r1, r2, r3 = lemma1_sides(random_solenoidal_field(grid32, seed), bank32)
            denom = r1 + r2 + r3
            worst = max(worst, np.max(lhs[denom > 0] / denom[denom > 0], initial=-math.inf))
        assert math.isfinite(worst)
        assert worst < 1.0

    def test_lhs_row_is_shell_transfers(self, grid32, bank32):
        u = random_solenoidal_field(grid32, 4)
        assert np.array_equal(lemma1_sides(u, bank32)[0], shell_transfers(u, bank32))


def brute_force_abc(u, bank, s, nu):
    """Literal double loops over (q, p), written independently of the trisums
    of ``shell_flux_report``."""
    l2, l4 = _shell_norm_table(u, bank)
    shells = list(bank.shells)
    a = b = c = 0.0
    for qi, q in enumerate(shells):
        for pi, p in enumerate(shells):
            if p <= q:
                a += lam(q) ** (2 * s - 1) * l2[qi] * lam(p) ** 2 * l4[pi] ** 2
            if p > q:
                b += lam(q) ** (2 * s + 1) * l2[qi] * l4[pi] ** 2
            if p <= q + 1:
                c += lam(q) ** (2 * s) * l2[qi] ** 2 * lam(p) ** 2.5 * l2[pi]
    return TriSums(s, nu, a, b, c)


class TestAbcSums:
    """The trisums A, B, C of ``shell_flux_report``."""

    def test_zero_field(self, grid16, bank16):
        tri = shell_flux_report(zero_velocity(grid16), bank16, 1.5, 1.0).trisums
        assert (tri.A, tri.B, tri.C) == (0.0, 0.0, 0.0)

    def test_single_mode_collapse(self, grid32, bank32):
        """Only shell 0 populated: A = ||u||_2 ||u||_4^2, B = 0, C = ||u||_2^3."""
        u = single_mode_field(grid32, (1, 0, 0), (0, 0.3, 0.2))
        l2, l4 = _shell_norm_table(u, bank32)
        tri = shell_flux_report(u, bank32, 1.5, 1.0).trisums
        assert tri.A == pytest.approx(l2[0] * l4[0] ** 2, rel=1e-12)
        assert tri.B == 0.0
        assert tri.C == pytest.approx(l2[0] ** 3, rel=1e-12)

    @pytest.mark.parametrize("s", [0.75, 1.5, 2.25])
    def test_against_double_loop_oracle(self, grid32, bank32, s):
        tg = make_taylor_green(grid32, 1.0)
        tri = shell_flux_report(tg, bank32, s, 1.0).trisums
        ref = brute_force_abc(tg, bank32, s, 1.0)
        assert tri.A == pytest.approx(ref.A, rel=1e-12)
        assert tri.B == pytest.approx(ref.B, rel=1e-12)
        assert tri.C == pytest.approx(ref.C, rel=1e-12)

    def test_random_field_against_oracle(self, grid32, bank32):
        u = random_solenoidal_field(grid32, 23)
        tri = shell_flux_report(u, bank32, 1.5, 0.3).trisums
        ref = brute_force_abc(u, bank32, 1.5, 0.3)
        for got, want in ((tri.A, ref.A), (tri.B, ref.B), (tri.C, ref.C)):
            assert got == pytest.approx(want, rel=1e-12)

    def test_exponent_range(self, grid16, bank16):
        u = random_solenoidal_field(grid16, 0)
        for bad in (0.5, 2.5, 3.0, 0.1):
            with pytest.raises(ShellRangeError):
                shell_flux_report(u, bank16, bad, 1.0)

    def test_bad_viscosity(self, grid16, bank16):
        with pytest.raises(ConfigurationError):
            shell_flux_report(random_solenoidal_field(grid16, 0), bank16, 1.5, 0.0)


class TestRiccatiSides:
    def test_zero_field(self, grid16, bank16):
        rs = riccati_sides(zero_velocity(grid16), bank16, 1.5, 1.0)
        assert (rs.lhs, rs.rhs, rs.y) == (0.0, 0.0, 0.0)

    def test_exponent_is_two_at_three_halves(self, grid32, bank32):
        """rhs doubles quadratically under energy scaling at s = 3/2."""
        u = make_random_field(grid32, 3, {0: 1.0})
        rs1 = riccati_sides(u, bank32, 1.5, 1.0)
        u2 = SpectralVelocity(u.grid, u.coeffs * math.sqrt(2.0))
        rs2 = riccati_sides(u2, bank32, 1.5, 1.0)
        assert rs2.rhs / rs1.rhs == pytest.approx(4.0, rel=1e-12)
        assert rs2.y / rs1.y == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("s,expected", [(1.0, 3.0), (2.0, 5.0 / 3.0), (1.5, 2.0)])
    def test_general_exponent_single_shell(self, grid32, bank32, s, expected):
        """On single-shell fields rhs = y^((2s+1)/(2s-1)) in closed form."""
        u = make_random_field(grid32, 5, {0: 0.7})
        rs = riccati_sides(u, bank32, s, 1.0)
        assert rs.rhs == pytest.approx(rs.y**expected, rel=1e-12)
        scale = 3.0
        u2 = SpectralVelocity(u.grid, u.coeffs * math.sqrt(scale))
        rs2 = riccati_sides(u2, bank32, s, 1.0)
        measured = math.log(rs2.rhs / rs.rhs) / math.log(scale)
        assert measured == pytest.approx(expected, rel=1e-12)

    def test_exponent_range(self, grid16, bank16):
        u = random_solenoidal_field(grid16, 0)
        with pytest.raises(ShellRangeError):
            riccati_sides(u, bank16, 0.5, 1.0)
        with pytest.raises(ShellRangeError):
            riccati_sides(u, bank16, 2.5, 1.0)

    def test_lhs_matches_finite_difference(self, grid32, bank32):
        """Instantaneous slope against centered differences of y along a run."""
        params = SolverParams(nu=0.1, dt=1e-3, t_end=0.02, diag_every=1)
        res = simulate(make_taylor_green(grid32, 1.0), params, bank32)
        rows = res.rows
        worst = 0.0
        for prev, mid, nxt in zip(rows, rows[1:], rows[2:]):
            fd = (nxt.y - prev.y) / (nxt.t - prev.t)
            worst = max(worst, abs(fd - mid.riccati_lhs) / max(abs(fd), abs(mid.riccati_lhs), 1e-14))
        assert worst < 1e-4


class TestShellFluxReport:
    def test_zero_field(self, grid16, bank16):
        report = shell_flux_report(zero_velocity(grid16), bank16, 1.5, 1.0)
        assert report.flux_sum == 0.0
        assert report.flux_residual == 0.0
        assert all(row.transfer == 0.0 for row in report.rows)

    @pytest.mark.parametrize("seed", range(3))
    def test_total_flux_vanishes(self, grid32, bank32, seed):
        u = random_solenoidal_field(grid32, seed)
        report = shell_flux_report(u, bank32, 1.5, 0.1)
        assert report.flux_residual < 1e-9

    def test_zero_transfer_field_residual_is_relative(self, grid32, bank32):
        """Sphere modes make every transfer vanish; round-off is measured against
        the field's own scale E sqrt(enstrophy), not an absolute floor."""
        u = make_random_field(grid32, 1, {0: 0.3, 1: 0.2, 2: 0.1, 3: 0.05})
        report = shell_flux_report(u, bank32, 1.5, 0.1)
        assert abs(report.flux_sum) < 1e-17
        assert report.flux_residual < 1e-9
        checks = nlt_suite(seed=0, n=32, field=u)
        assert checks and all(c.passed for c in checks), [c for c in checks if not c.passed]

    def test_total_flux_nonzero_for_compressible_field(self, grid32, bank32):
        """Without solenoidality the telescoped transfer no longer cancels."""
        rng = np.random.default_rng(2)
        from lpns.spectral import PhysicalVelocity, dealiased_spectrum

        u = dealiased_spectrum(PhysicalVelocity(grid32, rng.standard_normal((3, 32, 32, 32))))
        flux_sum, scale = total_flux(u, bank32)
        assert abs(flux_sum) / max(scale, 1e-14) > 1e-6

    def test_row_contents(self, grid32, bank32):
        tg = make_taylor_green(grid32, 1.0)
        nu, s = 0.2, 1.5
        report = shell_flux_report(tg, bank32, s, nu)
        dissip = shell_dissipations(tg, bank32)
        from lpns.lp import shell_energies

        energies = shell_energies(tg, bank32)
        for row in report.rows:
            i = row.q - bank32.q_min
            assert row.dissipation_exact == pytest.approx(2 * nu * dissip[i], rel=1e-12)
            surrogate = nu * lam(row.q) ** (2 * s + 2) * energies[i]
            assert row.dissipation_surrogate == pytest.approx(surrogate, rel=1e-12)
            assert row.lemma1_lhs == row.transfer
            assert len(row.lemma1_rhs_terms) == 3
        assert report.riccati.y == pytest.approx(
            sum(lam(q) ** 3 * energies[q] for q in bank32.shells), rel=1e-12
        )

    @pytest.mark.parametrize("n", [32, 64])
    def test_peak_allocation_at_most_five_and_a_half_velocity_arrays(self, n):
        """The product tensor is filled one component at a time, and each
        remainder is reduced to its norm one component at a time, so the report
        holds no six-component tensor beside the product tensor."""
        grid = GridSpec(n)
        bank = build_filter_bank(grid)
        u = random_solenoidal_field(grid, 1)
        shell_flux_report(u, bank, 1.5, 0.1)  # builds the cached lattice tables
        assert peak_allocation(lambda: shell_flux_report(u, bank, 1.5, 0.1)) <= 5.5 * u.coeffs.nbytes

    @pytest.mark.parametrize("n, fraction, field", [
        pytest.param(32, 2.0 / 3.0, "white-noise", id="white-noise"),
        pytest.param(32, 2.0 / 3.0, "taylor-green", id="taylor-green"),
        *(pytest.param(n, fraction, field, id=f"{field}-{n}-{label}")
          for n, fraction, label in ((32, 0.5, "half"), (32, 1.0, "one"), (64, 0.5, "half"))
          for field in ("white-noise", "taylor-green")),
    ])
    def test_row_remainders_equal_standalone_bit_for_bit(self, n, fraction, field):
        """The report's norms, reduced one component at a time with the coarse
        shells' u_q built one component at a time, equal the stacked tensor's:
        bit for bit on shells with 2^(q+3) >= n, and to COARSE_NORM_RTOL on
        coarse shells."""
        grid = GridSpec(n, dealias_fraction=fraction)
        bank = build_filter_bank(grid)
        u = random_solenoidal_field(grid, 9) if field == "white-noise" else make_taylor_green(grid, 1.0)
        report = shell_flux_report(u, bank, 1.5, 0.1)
        assert [row.q for row in report.rows] == list(bank.shells)
        for row in report.rows:
            assert_remainder_norm(row.remainder_l2, tensor_l2_norm(remainder(u, bank, row.q)), n, row.q)

    @pytest.mark.parametrize("fraction", [2.0 / 3.0, 0.5, 1.0])
    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_row_remainders_equal_the_full_inverse_norm_bit_for_bit(self, n, fraction):
        """Every row's norm, with u_q from its support cube or from the shell
        generator and reduced in one working set, equals the norm of the stacked
        tensor built with u_q from the full inverse of its half spectrum: bit
        for bit on shells with 2^(q+3) >= n, and to COARSE_NORM_RTOL on coarse
        shells."""
        grid = GridSpec(n, dealias_fraction=fraction)
        bank = build_filter_bank(grid)
        u = random_solenoidal_field(grid, 7)
        report = shell_flux_report(u, bank, 1.5, 0.1)
        for row in report.rows:
            uq_phys = [_physical(c * bank.multiplier(row.q)) for c in u.coeffs]
            reference = tensor_l2_norm(remainder(u, bank, row.q, _uq_phys=uq_phys))
            assert_remainder_norm(row.remainder_l2, reference, n, row.q)

    @pytest.mark.parametrize("n, fraction", [(16, 2.0 / 3.0), (32, 2.0 / 3.0), (32, 0.5)])
    def test_each_remainder_makes_its_transforms_inside_its_call(self, n, fraction, monkeypatch):
        """Every call of the module-global ``remainder`` makes its shell's
        transforms before it returns: 6 for the cross terms, and 3 more for a
        shell whose u_q is not given on the n-point grid.  A lazy result would
        move them outside the call, where a wrapper on ``remainder`` (as the
        benchmark tracer installs) no longer sees them."""
        grid = GridSpec(n, dealias_fraction=fraction)
        bank = build_filter_bank(grid)
        u = random_solenoidal_field(grid, 1)
        real_remainder = flux.remainder
        calls = []

        def counted(u, bank, q, **kwargs):
            result = []
            calls.append((q, count_transforms(lambda: result.append(real_remainder(u, bank, q, **kwargs)))))
            return result[0]

        monkeypatch.setattr(flux, "remainder", counted)
        shell_flux_report(u, bank, 1.5, 0.1)
        assert calls == [(q, 9 if 2 ** (q + 3) < n else 6) for q in bank.shells]

    @pytest.mark.parametrize("n, fraction, expected", [(16, 2.0 / 3.0, 57), (32, 2.0 / 3.0, 69),
                                                       (32, 0.5, 60)])
    def test_transforms_per_report(self, n, fraction, expected):
        """9 for the product tensor, 3 per shell field, 6 per remainder, and 3
        more per shell whose grid is coarser than the n-point one."""
        grid = GridSpec(n, dealias_fraction=fraction)
        bank = build_filter_bank(grid)
        coarse = sum(1 for q in bank.shells if 2 ** (q + 3) < n)
        assert expected == 9 + 9 * bank.n_shells + 3 * coarse
        u = random_solenoidal_field(grid, 1)
        assert count_transforms(lambda: shell_flux_report(u, bank, 1.5, 0.1)) == expected

    def test_dissipation_bracketing(self, grid32, bank32):
        """Exact dissipation sits within a factor 4 of the lam_q surrogate."""
        u = random_solenoidal_field(grid32, 31)
        nu, s = 0.7, 1.5
        report = shell_flux_report(u, bank32, s, nu)
        from lpns.lp import shell_energies

        energies = shell_energies(u, bank32)
        for row in report.rows:
            i = row.q - bank32.q_min
            if energies[i] < 1e-20:
                continue
            base = 2 * nu * lam(row.q) ** 2 * energies[i]
            assert base / 4.0 <= row.dissipation_exact <= 4.0 * base
