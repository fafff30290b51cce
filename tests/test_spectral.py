import math

import numpy as np
import pytest

from lpns.errors import ConfigurationError, InvariantViolation
from lpns.flux import product_tensor_hat, tensor_l2_norm
from lpns.lp import build_filter_bank, phi_profile, shell_energies
from lpns.spectral import (
    BOX_VOLUME,
    GridSpec,
    _cube_extent,
    _cut,
    _dealias_block,
    _lattice,
    _paste,
    _project_coeffs,
    PhysicalVelocity,
    SpectralVelocity,
    dealiased_spectrum,
    divergence_residual,
    energy,
    enstrophy,
    hermitian_residual,
    inverse_transform,
    is_dealiased,
    l2_norm,
    make_random_field,
    lp_norm,
    make_taylor_green,
    zero_velocity,
)

from conftest import (count_transforms, dealias_mask, full_inverse_k2, full_spectrum, half_spectrum,
                      keep_mask, peak_allocation, random_solenoidal_field, reference_spectrum,
                      single_mode_field)


class TestGridSpec:
    def test_power_of_two_required(self):
        with pytest.raises(ConfigurationError):
            GridSpec(24)
        with pytest.raises(ConfigurationError):
            GridSpec(8)

    def test_dealias_cutoff(self):
        assert GridSpec(16).k_max == 5
        assert GridSpec(32).k_max == 10
        assert GridSpec(64).k_max == 21

    def test_bad_fraction(self):
        with pytest.raises(ConfigurationError):
            GridSpec(16, 0.0)
        with pytest.raises(ConfigurationError):
            GridSpec(16, 1.5)

    def test_wavevectors_are_integers(self):
        kx, ky, kz = _lattice(16)[:3]
        assert kx[1, 0, 0] == 1
        assert kx[15, 0, 0] == -1
        assert kx[8, 0, 0] == -8
        assert ky[0, 3, 0] == 3 and kz[0, 0, 2] == 2

    @pytest.mark.parametrize("n", [16, 32])
    def test_lattice_is_one_integer_grid_and_three_axes(self, n):
        """|k|^2 is the only grid-sized array, on the half spectrum; each wavevector
        axis is 1-D in layout."""
        arrays = _lattice(n)
        lengths = (n, n, n // 2 + 1)
        assert sum(a.nbytes for a in arrays) <= 8 * n * n * lengths[2] + 32 * n
        for axis, k in enumerate(arrays[:3]):
            assert k.shape == tuple(lengths[d] if d == axis else 1 for d in range(3))


class TestTransforms:
    def test_single_mode_analysis(self, grid16):
        """f = (sin x, 0, 0) has coefficients -i/2 at k=(1,0,0) and +i/2 at -k."""
        x = np.arange(16) * grid16.dx
        values = np.zeros((3, 16, 16, 16))
        values[0] = np.sin(x)[:, None, None]
        u = dealiased_spectrum(PhysicalVelocity(grid16, values))
        assert u.coeffs[0, 1, 0, 0] == pytest.approx(-0.5j, abs=1e-15)
        assert u.coeffs[0, 15, 0, 0] == pytest.approx(0.5j, abs=1e-15)
        others = u.coeffs.copy()
        others[0, 1, 0, 0] = others[0, 15, 0, 0] = 0.0
        assert np.max(np.abs(others)) < 1e-15

    def test_zero_field(self, grid16):
        u = dealiased_spectrum(PhysicalVelocity(grid16, np.zeros((3, 16, 16, 16))))
        assert not np.any(u.coeffs)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_round_trip(self, grid32, seed):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((3, 32, 32, 32))
        f = PhysicalVelocity(grid32, values)
        back = inverse_transform(full_spectrum(f))
        assert np.max(np.abs(back.values - values)) < 1e-12

    def test_inverse_single_mode(self, grid16):
        u = single_mode_field(grid16, (1, 0, 0), (-0.5j, 0, 0), solenoidal=False)
        phys = inverse_transform(u)
        x = np.arange(16) * grid16.dx
        expected = np.sin(x)[:, None, None]
        assert np.max(np.abs(phys.values[0] - expected)) < 1e-14
        assert np.max(np.abs(phys.values[1:])) == 0.0

    def test_inverse_rejects_broken_symmetry(self, grid16):
        coeffs = np.zeros((3, *grid16.spectral_shape), dtype=np.complex128)
        coeffs[0, 1, 0, 0] = 1.0  # a lone kz = 0 mode: no conjugate partner
        with pytest.raises(InvariantViolation):
            inverse_transform(SpectralVelocity(grid16, coeffs))

    def test_inverse_rejects_a_lone_nyquist_plane_mode(self, grid16):
        coeffs = np.zeros((3, *grid16.spectral_shape), dtype=np.complex128)
        coeffs[1, 3, 2, 8] = 0.5j  # kz = n/2 holds both k and -k
        with pytest.raises(InvariantViolation):
            inverse_transform(SpectralVelocity(grid16, coeffs))

    def test_lone_interior_mode_is_a_real_field(self, grid16):
        """Off the kz = 0 and kz = n/2 planes one stored mode is the pair +-k."""
        coeffs = np.zeros((3, *grid16.spectral_shape), dtype=np.complex128)
        coeffs[0, 1, 2, 3] = 0.5 - 0.25j
        phys = inverse_transform(SpectralVelocity(grid16, coeffs))
        x = np.arange(16) * grid16.dx
        phase = x[:, None, None] + 2 * x[None, :, None] + 3 * x[None, None, :]
        assert np.max(np.abs(phys.values[0] - (np.cos(phase) + 0.5 * np.sin(phase)))) < 1e-14
        assert not np.any(phys.values[1:])

    def test_dimension_mismatch(self, grid16):
        with pytest.raises(ConfigurationError):
            inverse_transform(SpectralVelocity(grid16, np.zeros((3, 8, 8, 5), dtype=complex)))

    def test_parseval_over_ensemble(self, grid16):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            f = PhysicalVelocity(grid16, rng.standard_normal((3, 16, 16, 16)))
            u = full_spectrum(f)
            phys_norm = lp_norm(f, 2)
            assert l2_norm(u) == pytest.approx(phys_norm, rel=1e-10)


def _full_k2(n):
    k = np.fft.fftfreq(n, d=1.0 / n)
    return k[:, None, None] ** 2 + k[None, :, None] ** 2 + k[None, None, :] ** 2


class TestHalfSpectrumWeights:
    """Whole-lattice sums over the half spectrum against full-lattice np.fft.fftn sums."""

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_sums_match_full_lattice(self, n, seed):
        grid = GridSpec(n)
        bank = build_filter_bank(grid)
        values = np.random.default_rng(seed).standard_normal((3, n, n, n))
        u = full_spectrum(PhysicalVelocity(grid, values))
        full = np.fft.fftn(values, axes=(1, 2, 3)) / n**3
        density = np.sum(np.abs(full) ** 2, axis=0)
        k2 = _full_k2(n)
        assert energy(u) == pytest.approx(BOX_VOLUME * np.sum(density), rel=1e-13)
        assert enstrophy(u) == pytest.approx(BOX_VOLUME * np.sum(k2 * density), rel=1e-13)
        shells = shell_energies(u, bank)
        for q in bank.shells:
            want = BOX_VOLUME * np.sum(phi_profile(np.sqrt(k2), q) ** 2 * density)
            assert shells[q - bank.q_min] == pytest.approx(want, rel=1e-13)
        products = np.stack([values[i] * values[j] for i in range(3) for j in range(3)])
        frobenius = BOX_VOLUME * np.sum(np.abs(np.fft.fftn(products, axes=(1, 2, 3)) / n**3) ** 2)
        assert tensor_l2_norm(product_tensor_hat(u)) == pytest.approx(math.sqrt(frobenius), rel=1e-13)

    @pytest.mark.parametrize("n", [16, 32])
    def test_hermitian_residual_matches_full_lattice(self, n):
        """The residual of a complex field's coefficients is the full-lattice residual
        on the kz = 0 and kz = n/2 planes; a real field's is round-off."""
        grid = GridSpec(n)
        rng = np.random.default_rng(n)
        z = rng.standard_normal((3, n, n, n)) + 1j * rng.standard_normal((3, n, n, n))
        full = np.fft.fftn(z, axes=(1, 2, 3)) / n**3
        reflected = np.roll(full[:, ::-1, ::-1, ::-1], 1, axis=(1, 2, 3))
        gap = np.abs(np.conj(reflected) - full)[..., [0, n // 2]]
        got = hermitian_residual(SpectralVelocity(grid, half_spectrum(full)))
        assert got == pytest.approx(np.max(gap), rel=1e-13)
        real = full_spectrum(PhysicalVelocity(grid, z.real))
        assert hermitian_residual(real) <= 1e-13 * np.max(np.abs(real.coeffs))


def block_projection(c, grid):
    """The retained block of half-spectrum coefficients c with I - k k^T / |k|^2
    applied by ``_project_coeffs`` on the block's own lattice, as a new array."""
    extent, k, inv_k2 = _dealias_block(grid.n, grid.k_max)
    block = _cut(c, extent)
    _project_coeffs(block, k, inv_k2)
    return block


class TestLerayProjection:
    def test_annihilates_gradient_fields(self, grid16):
        """A pure gradient u_hat = i k g(k) projects to zero on the block, and so
        do its grid values through ``dealiased_spectrum``."""
        rng = np.random.default_rng(3)
        g = rng.standard_normal((16, 16, 16))
        ghat = np.fft.rfftn(g) / 16**3
        kx, ky, kz = _lattice(16)[:3]
        coeffs = np.stack([1j * kx * ghat, 1j * ky * ghat, 1j * kz * ghat])
        scale = np.max(np.abs(coeffs))
        assert np.max(np.abs(block_projection(coeffs, grid16))) < 1e-14 * scale
        gradient = PhysicalVelocity(grid16, np.fft.irfftn(coeffs, axes=(1, 2, 3)) * 16**3)
        proj = dealiased_spectrum(gradient, project=True)
        assert np.max(np.abs(proj.coeffs)) < 1e-14 * scale

    def test_identity_on_divergence_free(self, grid32):
        u = random_solenoidal_field(grid32, 4)
        again = block_projection(u.coeffs, grid32)
        assert np.max(np.abs(again - _cut(u.coeffs, _cube_extent(grid32.k_max + 1)))) < 1e-15

    def test_idempotent(self, grid16):
        """Double projection agrees with single projection to round-off."""
        rng = np.random.default_rng(5)
        once = dealiased_spectrum(
            PhysicalVelocity(grid16, rng.standard_normal((3, 16, 16, 16))), project=True
        )
        twice = block_projection(once.coeffs, grid16)
        scale = np.max(np.abs(once.coeffs))
        assert np.max(np.abs(twice - _cut(once.coeffs, _cube_extent(grid16.k_max + 1)))) < 1e-14 * scale

    def test_divergence_residual_small(self, grid32):
        for seed in range(5):
            u = random_solenoidal_field(grid32, seed)
            assert divergence_residual(u) < 1e-12

    @pytest.mark.parametrize("field", ["solenoidal", "raw-noise", "taylor-green", "faint-modes"])
    @pytest.mark.parametrize("n", [16, 32])
    def test_divergence_residual_equals_a_batched_reference_bit_for_bit(self, n, field):
        """Summing one component at a time, dividing in place where the ratio is
        defined and reading a dealiased field on its block change no bit of the
        batched formula with gathered modes: on white noise, Taylor-Green, a
        field that is neither solenoidal nor dealiased, and one with modes below
        1e-13 of its peak."""
        grid = GridSpec(n)
        rng = np.random.default_rng(n)
        raw = full_spectrum(PhysicalVelocity(grid, rng.standard_normal((3, n, n, n))))
        if field == "solenoidal":
            u = random_solenoidal_field(grid, 3)
        elif field == "raw-noise":
            u = raw
        elif field == "taylor-green":
            u = make_taylor_green(grid, 1.0)
        else:  # every other kx row falls below 1e-13 of the peak
            u = random_solenoidal_field(grid, 3)
            u.coeffs[:, 1::2] *= 1e-15
        kx, ky, kz, k2, _ = _lattice(n)
        vecmag = np.sqrt(np.sum(np.abs(u.coeffs) ** 2, axis=0))
        good = (k2 > 0) & (vecmag > 1e-13 * np.max(vecmag))
        num = np.abs(kx * u.coeffs[0] + ky * u.coeffs[1] + kz * u.coeffs[2])
        reference = float(np.max(num[good] / (np.sqrt(k2[good]) * vecmag[good])))
        assert divergence_residual(u) == reference

    def test_divergence_residual_reads_the_block_in_place(self, grid64):
        """A dealiased field is read as views of its block's corners: no copy of
        the block, whose three components alone are 0.3 velocity arrays."""
        u = random_solenoidal_field(grid64, 1)
        divergence_residual(u)  # the lattice table is cached before the peak is read
        assert peak_allocation(lambda: divergence_residual(u)) <= 0.25 * u.coeffs.nbytes

    def test_divergence_residual_of_the_zero_field_is_zero(self, grid16):
        assert divergence_residual(zero_velocity(grid16)) == 0.0

    def test_energy_non_increasing(self, grid16):
        rng = np.random.default_rng(6)
        f = PhysicalVelocity(grid16, rng.standard_normal((3, 16, 16, 16)))
        assert l2_norm(dealiased_spectrum(f, project=True)) <= l2_norm(dealiased_spectrum(f))

    def test_self_adjoint(self, grid16):
        """<Pu, v> = <u, Pv> on the lattice inner product."""
        rng = np.random.default_rng(7)
        f = PhysicalVelocity(grid16, rng.standard_normal((3, 16, 16, 16)))
        g = PhysicalVelocity(grid16, rng.standard_normal((3, 16, 16, 16)))
        u, v = dealiased_spectrum(f), dealiased_spectrum(g)
        pu, pv = dealiased_spectrum(f, project=True), dealiased_spectrum(g, project=True)
        lhs = np.sum(pu.coeffs * np.conj(v.coeffs)).real
        rhs = np.sum(u.coeffs * np.conj(pv.coeffs)).real
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_inverse_k2_cached_read_only(self):
        """The projector's divisor is cached on the block alone: 1/|k|^2, 0 at k = 0."""
        extent, _, inv = _dealias_block(16, 5)
        k2 = _cut(_lattice(16)[3], extent)
        assert inv is _dealias_block(16, 5)[2] and not inv.flags.writeable
        assert inv.dtype == np.float64 and inv[0, 0, 0] == 0.0
        assert np.array_equal(inv[k2 > 0], 1.0 / k2[k2 > 0])

    def test_projection_allocates_two_components_at_most(self, grid64):
        """The cached divisor leaves the divergence and one product as the only
        block-size temporaries: no float divisor and no k2 > 0 mask per call.
        The quarter component covers numpy's casting buffers."""
        extent, k, inv_k2 = _dealias_block(64, grid64.k_max)
        values = np.random.default_rng(9).standard_normal((3, 64, 64, 64))
        block = _cut(full_spectrum(PhysicalVelocity(grid64, values)).coeffs, extent)
        _project_coeffs(block.copy(), k, inv_k2)
        assert peak_allocation(lambda: _project_coeffs(block, k, inv_k2)) <= 2.25 * block[0].nbytes


class TestDealias:
    @pytest.mark.parametrize("fraction", [2.0 / 3.0, 0.5, 1.0])
    def test_is_dealiased_matches_mask_for_every_stray_mode(self, fraction):
        """One stray coefficient at each stored mode in turn, so in each slab
        |kx| > k_max, |ky| > k_max and kz > k_max and inside the mask, against
        the gathered-mask reference."""
        grid = GridSpec(16, fraction)
        mask = dealias_mask(grid)
        u = zero_velocity(grid)
        assert is_dealiased(u)
        for index in np.ndindex(mask.shape):
            component = sum(index) % 3
            u.coeffs[component][index] = 5e-324j
            assert is_dealiased(u) == (not np.any(u.coeffs[:, ~mask])) == mask[index]
            u.coeffs[component][index] = 0.0

    def test_cutoff_mode_zeroed(self, grid16):
        """The block cut drops a mode outside it exactly; from grid values the
        block holds only the transform's round-off."""
        u = single_mode_field(grid16, (6, 0, 0), (0, 1.0, 0), solenoidal=False)
        extent = _cube_extent(grid16.k_max + 1)
        assert not np.any(_paste(_cut(u.coeffs, extent), extent, np.zeros_like(u.coeffs)))
        out = dealiased_spectrum(inverse_transform(u))
        assert np.max(np.abs(out.coeffs)) < 1e-15

    def test_low_mode_preserved(self, grid16):
        u = single_mode_field(grid16, (1, 1, 1), (0.3, 0.1, -0.2), solenoidal=False)
        extent = _cube_extent(grid16.k_max + 1)
        assert np.array_equal(_paste(_cut(u.coeffs, extent), extent, np.zeros_like(u.coeffs)), u.coeffs)
        out = dealiased_spectrum(inverse_transform(u))
        assert np.max(np.abs(out.coeffs - u.coeffs)) < 1e-15

    def test_idempotent(self, grid16):
        """A dealiased spectrum is a fixed point of the mask and of the block
        copy, byte for byte."""
        rng = np.random.default_rng(8)
        once = dealiased_spectrum(
            PhysicalVelocity(grid16, rng.standard_normal((3, 16, 16, 16)))
        ).coeffs
        extent = _cube_extent(grid16.k_max + 1)
        assert keep_mask(once, grid16).tobytes() == once.tobytes()
        assert _paste(_cut(once, extent), extent, np.zeros_like(once)).tobytes() == once.tobytes()

    @pytest.mark.parametrize("n,seed", [(16, 5), (32, 1), (64, 3)])
    def test_masked_modes_are_positive_zero(self, n, seed):
        """Neither ``dealiased_spectrum`` nor random_solenoidal_field leaves a sign
        bit set on any zero part: a mask multiply alone writes -0 on the masked
        modes.  At every dealias fraction, with and without the projection, both
        equal the mask plus 0.0 of the whole-lattice transform byte for byte, also
        for a field constant in z, whose transform has -0 parts in the block."""
        for fraction in (2.0 / 3.0, 0.5, 1.0):
            grid = GridSpec(n, fraction)
            mask = dealias_mask(grid)
            rng = np.random.default_rng(seed)
            noise = rng.standard_normal((3, n, n, n))  # random_solenoidal_field's draw
            flat = rng.standard_normal((3, n, n, 1)) * np.ones(n)
            raw = full_spectrum(PhysicalVelocity(grid, flat)).coeffs[:, mask].imag[:, 1:]  # k != 0
            assert np.any(np.signbit(raw[raw == 0.0]))
            for values in (noise, flat):
                f = PhysicalVelocity(grid, values)
                for project in (False, True):
                    u = dealiased_spectrum(f, project=project)
                    assert not np.any(u.coeffs[:, ~mask])
                    parts = u.coeffs.view(np.float64)
                    assert not np.any(np.signbit(parts[parts == 0.0]))
                    assert u.coeffs.tobytes() == reference_spectrum(f, project).coeffs.tobytes()
            u = random_solenoidal_field(grid, seed)
            parts = u.coeffs.view(np.float64)
            assert not np.any(np.signbit(parts[parts == 0.0]))
            expected = reference_spectrum(PhysicalVelocity(grid, noise), project=True).coeffs
            expected *= 1.0 / l2_norm(SpectralVelocity(grid, expected))
            assert u.coeffs.tobytes() == expected.tobytes()


class TestDealiasBlock:
    @pytest.mark.parametrize("n,fraction", [(16, 2.0 / 3.0), (32, 2.0 / 3.0), (32, 0.5), (16, 1.0)])
    def test_block_is_the_mask(self, n, fraction):
        """The block holds the modes |k_i| <= k_max, each once, with their lattice
        axes and divisor; cut then pasted into zeros it is the masked field."""
        grid = GridSpec(n, fraction)
        extent, (kx, ky, kz), inv = _dealias_block(n, grid.k_max)
        lo, hi, depth = extent
        assert extent == _cube_extent(grid.k_max + 1)
        assert lo + hi == 2 * grid.k_max + 1 and 2 * lo <= n
        assert np.array_equal(np.sort(kx.ravel()), np.unique(kx))  # each row once
        assert np.max(np.abs(kx)) == grid.k_max and np.array_equal(kz.ravel(), np.arange(depth))
        axes = np.broadcast_arrays(*_lattice(n)[:3])
        for a, b in zip((kx, ky, kz), axes):
            assert np.array_equal(np.broadcast_to(a, (lo + hi, lo + hi, depth)), _cut(b, extent))
        assert np.array_equal(inv, _cut(full_inverse_k2(n), extent))
        assert not any(a.flags.writeable for a in (kx, ky, kz, inv))
        f = PhysicalVelocity(grid, np.random.default_rng(n).standard_normal((3, n, n, n)))
        c = full_spectrum(f).coeffs
        block = _cut(c, extent)
        assert block.shape == (3, lo + hi, lo + hi, depth)
        dirty = np.full_like(block, np.nan)
        assert _cut(c, extent, out=dirty) is dirty and dirty.tobytes() == block.tobytes()
        pasted = _paste(block, extent, np.zeros_like(c))
        assert pasted.tobytes() == np.where(dealias_mask(grid), c, 0.0).tobytes()
        dealiased = dealiased_spectrum(f).coeffs
        assert _paste(_cut(dealiased, extent), extent, np.zeros_like(c)).tobytes() == dealiased.tobytes()

    @pytest.mark.parametrize("n", [16, 32])
    def test_full_fraction_block_is_the_cube_below_nyquist(self, n):
        """At dealias_fraction = 1, k_max = n/2 - 1 and the block is the cube
        |k_i| < n/2, with 2r = n: every mode but those with some |k_i| = n/2,
        whose Hermitian partner shares their index."""
        grid = GridSpec(n, 1.0)
        assert grid.k_max == n // 2 - 1
        extent, k, inv = _dealias_block(n, grid.k_max)
        assert extent == _cube_extent(n // 2) == (n // 2, n // 2 - 1, n // 2)
        below = np.arange(n) != n // 2  # every axis entry but k_i = +-n/2
        for a, b in zip(k, _lattice(n)[:3]):
            assert np.array_equal(a.ravel(), b.ravel()[below[: b.size]])
        assert np.array_equal(inv, _cut(full_inverse_k2(n), extent))
        c = np.random.default_rng(1).standard_normal((3, *grid.spectral_shape)) + 0j
        kept = _paste(_cut(c, extent), extent, np.zeros_like(c))
        h = n // 2
        assert not (np.any(kept[:, h]) or np.any(kept[:, :, h]) or np.any(kept[..., h]))
        for nyquist in ((slice(None), h), (slice(None), slice(None), h), (..., h)):
            kept[nyquist] = c[nyquist]
        assert kept.tobytes() == c.tobytes()


class TestDealiasedSpectrum:
    @pytest.mark.parametrize("fraction", [2.0 / 3.0, 0.5, 1.0])
    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_equal_to_the_full_transform_bit_for_bit(self, n, fraction):
        """Raw noise and a dealiased solenoidal field, with and without the Leray
        projection of the ``ic = snapshot`` path."""
        grid = GridSpec(n, fraction)
        noise = np.random.default_rng(n).standard_normal((3, n, n, n))
        for values in (noise, inverse_transform(random_solenoidal_field(grid, 2)).values):
            f = PhysicalVelocity(grid, values, 0.75)
            for project in (False, True):
                u = dealiased_spectrum(f, project=project)
                assert u.coeffs.tobytes() == reference_spectrum(f, project).coeffs.tobytes()
                assert u.grid == grid and u.time == 0.75

    @pytest.mark.parametrize("fraction", [2.0 / 3.0, 0.5, 1.0])
    def test_modes_outside_the_block_are_positive_zero(self, fraction):
        grid = GridSpec(32, fraction)
        f = PhysicalVelocity(grid, np.random.default_rng(5).standard_normal((3, 32, 32, 32)))
        for project in (False, True):
            c = dealiased_spectrum(f, project=project).coeffs
            outside = c[:, ~dealias_mask(grid)]
            assert not np.any(outside)
            assert not np.any(np.signbit(outside.real)) and not np.any(np.signbit(outside.imag))
            assert c[:, 0, 0, 0].tobytes() == np.zeros(3, dtype=complex).tobytes()

    def test_block_path_makes_one_transform_per_component(self, grid32):
        f = inverse_transform(random_solenoidal_field(grid32, 1))
        assert count_transforms(lambda: dealiased_spectrum(f)) == 3
        assert count_transforms(lambda: dealiased_spectrum(f, project=True)) == 3

    def test_rejects_a_field_off_its_grid(self, grid16):
        with pytest.raises(ConfigurationError):
            dealiased_spectrum(PhysicalVelocity(grid16, np.zeros((3, 8, 8, 8))))


class TestTaylorGreen:
    def test_l2_norm(self, grid32):
        """||u||_2 = (2 pi)^{3/2} / 2: quadrature of 2 * sin^2 cos^2 cos^2."""
        tg = make_taylor_green(grid32, 1.0)
        expected = (2.0 * math.pi) ** 1.5 / 2.0
        assert l2_norm(tg) == pytest.approx(expected, rel=1e-13)
        assert lp_norm(inverse_transform(tg), 2) == pytest.approx(expected, rel=1e-13)

    def test_zero_amplitude(self, grid16):
        assert not np.any(make_taylor_green(grid16, 0.0).coeffs)

    def test_divergence_free(self, grid16):
        assert divergence_residual(make_taylor_green(grid16, 1.0)) < 1e-14

    def test_energy_at_sqrt3(self, grid16):
        tg = make_taylor_green(grid16, 2.0)
        kx, ky, kz = _lattice(16)[:3]
        on_shell = (kx * kx + ky * ky + kz * kz) == 3
        masked = tg.coeffs * ~on_shell
        assert not np.any(masked)

    def test_matches_physical_formula(self, grid16):
        tg = inverse_transform(make_taylor_green(grid16, 1.3))
        x = np.arange(16) * grid16.dx
        sx, cx = np.sin(x)[:, None, None], np.cos(x)[:, None, None]
        sy, cy = np.sin(x)[None, :, None], np.cos(x)[None, :, None]
        cz = np.cos(x)[None, None, :]
        assert np.max(np.abs(tg.values[0] - 1.3 * sx * cy * cz)) < 1e-14
        assert np.max(np.abs(tg.values[1] + 1.3 * cx * sy * cz)) < 1e-14
        assert np.max(np.abs(tg.values[2])) == 0.0


class TestRandomField:
    def test_requested_shell_energy(self, grid32, bank32):
        from lpns.lp import shell_energies

        u = make_random_field(grid32, 42, {0: 1.0})
        assert energy(u) == pytest.approx(1.0, rel=1e-10)
        shells = shell_energies(u, bank32)
        assert shells[0] == pytest.approx(1.0, rel=1e-10)
        assert np.all(shells[1:] < 1e-28)

    def test_multi_shell_spectrum(self, grid32, bank32):
        from lpns.lp import shell_energies

        target = {0: 0.5, 1: 0.25, 3: 0.125}
        u = make_random_field(grid32, 9, target)
        shells = shell_energies(u, bank32)
        for q, e in target.items():
            assert shells[q] == pytest.approx(e, rel=1e-10)
        assert shells[2] < 1e-28

    def test_empty_spectrum(self, grid16, monkeypatch):
        import lpns.spectral

        def no_draw(grid, seed):
            raise AssertionError("an empty spectrum must not draw noise")

        monkeypatch.setattr(lpns.spectral, "_solenoidal_noise", no_draw)
        assert not np.any(make_random_field(grid16, 0, {}).coeffs)

    def test_modes_off_the_spheres_are_positive_zero(self, grid32):
        parts = make_random_field(grid32, 5, {0: 0.0, 1: 0.3}).coeffs.view(np.float64)
        assert not np.any(np.signbit(parts[parts == 0.0]))

    @pytest.mark.parametrize("n", [32, 64])
    def test_peak_allocation_at_most_three_velocity_arrays(self, n):
        """One draw, one shell-independent density and in-place scaling: no
        per-shell band copy."""
        grid = GridSpec(n)
        spectrum = {0: 0.3, 1: 0.2, 2: 0.1, 3: 0.05}
        u = make_random_field(grid, 1, spectrum)  # fills the lattice caches
        peak = peak_allocation(lambda: make_random_field(grid, 1, spectrum))
        assert peak <= 3 * u.coeffs.nbytes

    def test_deterministic(self, grid32):
        a = make_random_field(grid32, 7, {1: 1.0, 2: 0.5})
        b = make_random_field(grid32, 7, {1: 1.0, 2: 0.5})
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_invariants(self, grid32):
        u = make_random_field(grid32, 21, {0: 1.0, 2: 2.0})
        assert divergence_residual(u) < 1e-12
        assert hermitian_residual(u) < 1e-15
        assert not np.any(u.coeffs[:, 0, 0, 0])

    def test_unresolvable_shell(self, grid16):
        with pytest.raises(ConfigurationError):
            make_random_field(grid16, 0, {4: 1.0})  # 2^4 = 16 > k_max = 5


class TestWhiteNoise:
    @pytest.mark.parametrize("n", [16, 32])
    def test_full_fraction_is_a_real_solenoidal_field(self, n):
        """At fraction 1 the block holds no mode with some |k_i| = n/2, where the
        projection would break Hermitian symmetry.  The field is Hermitian to the
        round-off of the transform itself, as at 2/3."""
        u = random_solenoidal_field(GridSpec(n, 1.0), 1)
        scale = float(np.max(np.abs(u.coeffs)))
        assert hermitian_residual(u) < 1e-15 * scale
        inverse_transform(u)  # raises on a field that is not real
        assert divergence_residual(u) < 1e-10
        assert l2_norm(u) == pytest.approx(1.0, rel=1e-14)
        h = n // 2
        assert not (np.any(u.coeffs[:, h]) or np.any(u.coeffs[:, :, h]) or np.any(u.coeffs[..., h]))


def test_zero_velocity(grid16):
    u = zero_velocity(grid16)
    assert l2_norm(u) == 0.0 and divergence_residual(u) == 0.0
