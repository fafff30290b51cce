import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

from lpns.errors import (
    ConfigurationError,
    DivergenceError,
    InvariantViolation,
    ShellRangeError,
    StepSizeError,
)
from lpns import _fft
from lpns.flux import SYM_PAIRS, shell_flux_report
from lpns.lp import FilterBank, build_filter_bank
from lpns.solver import (
    CFL_CONSTANT,
    DIAG_EXPONENT,
    SolverParams,
    _block_factors,
    _nonlinear_hat,
    _sample_row,
    _workspace,
    admissible_dt,
    energy_balance_residual,
    simulate,
    step,
)
from lpns.spectral import (
    GridSpec,
    PhysicalVelocity,
    SpectralVelocity,
    _cut,
    _dealias_block,
    _lattice,
    _physical,
    divergence_residual,
    energy,
    hermitian_residual,
    make_random_field,
    make_taylor_green,
    zero_velocity,
)

from conftest import (count_transforms, dealias_mask, full_projection, full_spectrum,
                      negative_zero_noise, peak_allocation, random_solenoidal_field, single_mode_field)


def single_mode_shear(grid, amplitude=1.0):
    """u = (0, a sin x, 0): an exact heat-equation solution (no self-advection)."""
    u = single_mode_field(grid, (1, 0, 0), (0, -0.5j * amplitude, 0), solenoidal=False)
    return u


def reference_nonlinear_hat(coeffs, grid):
    """-P D grad.(u o u) as written out: the stacked six-component product
    tensor, the three contraction sums and the Leray projection with its
    divisor built in place."""
    n = grid.n
    phys = _physical(coeffs)
    what = np.empty((6, *grid.spectral_shape), dtype=np.complex128)
    for m, (i, j) in enumerate(SYM_PAIRS):
        what[m] = _fft.fftn(phys[i] * phys[j])[..., : n // 2 + 1]
    what /= n**3
    kx, ky, kz, k2, _ = _lattice(n)
    out = np.empty((3, *grid.spectral_shape), dtype=np.complex128)
    out[0] = kx * what[0] + ky * what[1] + kz * what[2]
    out[1] = kx * what[1] + ky * what[3] + kz * what[4]
    out[2] = kx * what[2] + ky * what[4] + kz * what[5]
    out *= -1j
    out *= dealias_mask(grid)
    inv = np.zeros(k2.shape)
    np.divide(1.0, k2, out=inv, where=k2 > 0)
    div = kx * out[0] + ky * out[1] + kz * out[2]
    div *= inv
    out[0] -= kx * div
    out[1] -= ky * div
    out[2] -= kz * div
    return out


def reference_step(u, params):
    """The integrating-factor RK4 step as written out, with fresh arrays."""
    c, dt = u.coeffs, params.dt
    k2 = _lattice(u.grid.n)[3]
    e_full = np.exp(-params.nu * k2 * dt)
    e_half = np.exp(-params.nu * k2 * (0.5 * dt))

    def nonlinear(x):
        return reference_nonlinear_hat(x, u.grid)

    new = e_full * c
    k1 = nonlinear(c)
    k2 = nonlinear(e_half * (c + 0.5 * dt * k1))
    k3 = nonlinear(e_half * c + 0.5 * dt * k2)
    k4 = nonlinear(new + dt * (e_half * k3))
    new += (dt / 6.0) * (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4)
    return new


class TestParams:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SolverParams(nu=0.0, dt=1e-3, t_end=1.0)
        with pytest.raises(ConfigurationError):
            SolverParams(nu=1.0, dt=0.0, t_end=1.0)
        with pytest.raises(ConfigurationError):
            SolverParams(nu=1.0, dt=1e-3, t_end=1.0, diag_every=0)
        for bad in ({"nu": math.nan}, {"nu": math.inf}, {"dt": math.nan}, {"t_end": math.inf}):
            with pytest.raises(ConfigurationError):
                SolverParams(**{"nu": 1.0, "dt": 1e-3, "t_end": 1.0, **bad})

    def test_step_count_that_overflows_is_refused(self):
        """t_end / dt past the largest double has no step count."""
        with pytest.raises(ConfigurationError, match="overflows"):
            SolverParams(nu=1.0, dt=1e-300, t_end=1e300)

    @pytest.mark.parametrize("dt, t_end, n_steps", [(0.1, 1.0, 10), (1e-3, 0.0, 0), (0.25, 0.75, 3)])
    def test_n_steps_is_t_end_over_dt_rounded(self, dt, t_end, n_steps):
        assert SolverParams(nu=1.0, dt=dt, t_end=t_end).n_steps == n_steps


class TestStep:
    def test_heat_limit_exact(self, grid16):
        """With the nonlinearity off each mode decays by exp(-nu k^2 dt) exactly:
        c exp(-nu k^2 dt) byte for byte on the block and +0 outside it, also for
        coefficients with -0 parts at every dealias fraction."""
        u = single_mode_shear(grid16)
        params = SolverParams(nu=1.0, dt=0.1, t_end=1.0, nonlinear_enabled=False)
        out = step(u, params)
        expected = u.coeffs * math.exp(-1.0 * 1.0 * 0.1)
        assert np.array_equal(out.coeffs, expected)
        assert out.time == pytest.approx(0.1)
        params = SolverParams(nu=0.5, dt=1e-4, t_end=1e-4, nonlinear_enabled=False)
        for n in (16, 32):
            for fraction in (2.0 / 3.0, 0.5, 1.0):
                grid = GridSpec(n, fraction)
                c = negative_zero_noise(grid, n, scale=1e-4)
                expected = c * np.exp(-0.5 * _lattice(n)[3] * 1e-4)
                expected[:, ~dealias_mask(grid)] = 0.0
                assert step(SpectralVelocity(grid, c), params).coeffs.tobytes() == expected.tobytes()

    def test_single_mode_nonlinear_run_matches_heat(self, grid16):
        """A single shear mode has vanishing self-advection, so the nonlinear
        path reproduces the heat decay to integrator precision."""
        u = single_mode_shear(grid16)
        params = SolverParams(nu=1.0, dt=0.01, t_end=1.0)
        out = u
        for _ in range(10):
            out = step(out, params)
        expected = u.coeffs * math.exp(-0.1)
        assert np.max(np.abs(out.coeffs - expected)) < 1e-13

    def test_integrating_factors_cached_read_only(self):
        """Both factors are computed once per (n, k_max, nu, dt), bit for bit the
        step's formulas on the block's |k|^2."""
        k_max = GridSpec(16).k_max
        e_full, e_half = _block_factors(16, k_max, 0.3, 1e-3)
        k2 = _cut(_lattice(16)[3], _dealias_block(16, k_max)[0])
        assert e_full.tobytes() == np.exp(-0.3 * k2 * 1e-3).tobytes()
        assert e_half.tobytes() == np.exp(-0.3 * k2 * (0.5 * 1e-3)).tobytes()
        assert not e_full.flags.writeable and not e_half.flags.writeable
        again = _block_factors(16, k_max, 0.3, 1e-3)
        assert again[0] is e_full and again[1] is e_half

    @pytest.mark.parametrize("n,fraction", [(16, 2.0 / 3.0), (32, 2.0 / 3.0), (32, 0.5), (16, 1.0)])
    def test_equals_written_out_formula(self, n, fraction):
        """Bit for bit, called alone and with a dirty workspace, over two steps."""
        grid = GridSpec(n, fraction)
        u = random_solenoidal_field(grid, n + 5, 3.0)
        params = SolverParams(nu=0.05, dt=1e-3, t_end=1e-3)
        work = _workspace(grid)
        for buffer in work:
            buffer[...] = np.nan
        for _ in range(2):
            expected = reference_step(u, params)
            assert step(u, params).coeffs.tobytes() == expected.tobytes()
            u = step(u, params, _work=work)
            assert u.coeffs.tobytes() == expected.tobytes()

    def test_negative_zeros_outside_the_block_become_positive(self):
        """A mask multiply leaves -0 on masked modes.  The step matches the formula
        bit for bit on the block and in value everywhere, and writes +0 outside."""
        grid = GridSpec(32)
        mask = dealias_mask(grid)
        noise = np.random.default_rng(4).standard_normal((3, *grid.shape))
        coeffs = full_projection(full_spectrum(PhysicalVelocity(grid, noise)).coeffs) * mask
        coeffs[:, 0, 0, 0] = 0.0
        u = SpectralVelocity(grid, coeffs)
        assert np.any(np.signbit(coeffs[:, ~mask].real))
        params = SolverParams(nu=0.05, dt=1e-3, t_end=1e-3)
        out, expected = step(u, params).coeffs, reference_step(u, params)
        extent = _dealias_block(grid.n, grid.k_max)[0]
        assert _cut(out, extent).tobytes() == _cut(expected, extent).tobytes()
        outside = out[:, ~mask]
        assert not np.any(np.signbit(outside.real)) and not np.any(np.signbit(outside.imag))
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("n,fraction", [(16, 2.0 / 3.0), (32, 2.0 / 3.0), (32, 0.5), (16, 1.0)])
    def test_block_nonlinear_term_equals_written_out_formula(self, n, fraction):
        """On the retained block, bit for bit, into a dirty buffer."""
        grid = GridSpec(n, fraction)
        u = random_solenoidal_field(grid, n + 2, 3.0)
        extent = _dealias_block(n, grid.k_max)[0]
        out = _workspace(grid)[0]
        out[...] = np.nan
        _nonlinear_hat(_physical(u.coeffs), grid, out)
        assert out.tobytes() == _cut(reference_nonlinear_hat(u.coeffs, grid), extent).tobytes()

    @pytest.mark.parametrize("n,fraction", [(32, 2.0 / 3.0), (32, 0.5), (16, 1.0)])
    def test_transforms_per_step(self, n, fraction):
        """3 for the state, then 6 forward per stage and 3 inverse per later stage,
        as the cost model pins."""
        u = random_solenoidal_field(GridSpec(n, fraction), 2)
        params = SolverParams(nu=0.05, dt=1e-3, t_end=1e-3)
        assert count_transforms(lambda: step(u, params)) == 36

    @pytest.mark.parametrize("n", [32, 64])
    def test_peak_allocation_at_most_four_and_a_half_velocity_arrays(self, n):
        """Without a workspace passed in, so its block buffers and staging buffer count too."""
        u = random_solenoidal_field(GridSpec(n), 1)
        params = SolverParams(nu=0.05, dt=1e-3, t_end=1e-3)
        step(u, params)  # fills the lattice, block and factor caches
        assert peak_allocation(lambda: step(u, params)) <= 4.5 * u.coeffs.nbytes

    @pytest.mark.parametrize("n", [16, 32])
    def test_admissible_dt_equals_the_stacked_sum(self, n):
        grid = GridSpec(n)
        phys = _physical(random_solenoidal_field(grid, n, 7.0).coeffs)
        vmax = math.sqrt(float(np.max(np.sum(phys**2, axis=0))))
        assert admissible_dt(phys, grid) == CFL_CONSTANT * grid.dx / vmax

    def test_zero_field_fixed_point(self, grid16):
        params = SolverParams(nu=0.5, dt=1e-2, t_end=1.0)
        out = step(zero_velocity(grid16), params)
        assert not np.any(out.coeffs)

    def test_cfl_violation(self, grid16):
        u = make_taylor_green(grid16, 1.0)
        params = SolverParams(nu=0.1, dt=0.5, t_end=1.0)
        with pytest.raises(StepSizeError) as err:
            step(u, params)
        adm = err.value.admissible_dt
        assert 0 < adm < 0.5
        assert f"{adm:.9g}" in str(err.value)

    def test_high_viscosity_matches_viscous_oracle(self, grid32, bank32):
        """nu = 10: nonlinear transfer is negligible next to e^{-2 nu 3 t}."""
        tg = make_taylor_green(grid32, 1.0)
        nu, t_end = 10.0, 0.1
        on = simulate(tg, SolverParams(nu=nu, dt=1e-3, t_end=t_end), bank32)
        off = simulate(
            tg, SolverParams(nu=nu, dt=1e-3, t_end=t_end, nonlinear_enabled=False), bank32
        )
        analytic = math.exp(-2.0 * nu * 3.0 * t_end) * energy(tg)
        assert energy(off.final) == pytest.approx(analytic, rel=1e-12)
        assert energy(on.final) == pytest.approx(analytic, rel=1e-2)
        assert energy(on.final) == pytest.approx(energy(off.final), rel=1e-2)

    def test_fourth_order_convergence(self, grid16, bank16):
        """Halving dt shrinks the endpoint error about 16x against a dt/8 run."""
        tg = make_taylor_green(grid16, 1.0)

        def endpoint(dt):
            return simulate(tg, SolverParams(nu=0.05, dt=dt, t_end=0.4), bank16).final

        ref = endpoint(0.02 / 8.0)
        err1 = np.linalg.norm(endpoint(0.02).coeffs - ref.coeffs)
        err2 = np.linalg.norm(endpoint(0.01).coeffs - ref.coeffs)
        assert 12.0 < err1 / err2 < 20.0


def row_bytes(row):
    """A trajectory row's numbers as bytes, shell energies last."""
    values = [getattr(row, f.name) for f in dataclasses.fields(row) if f.name != "shell_energies"]
    return np.array([*values, *row.shell_energies]).tobytes()


class TestSimulate:
    def test_zero_initial_data(self, grid16, bank16):
        params = SolverParams(nu=1.0, dt=1e-2, t_end=0.1, diag_every=2)
        res = simulate(zero_velocity(grid16), params, bank16)
        assert len(res.rows) == 6
        for row in res.rows:
            assert row.energy == 0.0 and row.y == 0.0 and row.flux_sum == 0.0

    def test_energy_strictly_decreasing(self, grid32, bank32):
        params = SolverParams(nu=0.1, dt=1e-3, t_end=0.2, diag_every=20)
        res = simulate(make_taylor_green(grid32, 1.0), params, bank32)
        energies = [row.energy for row in res.rows]
        assert all(b < a for a, b in zip(energies, energies[1:]))

    def test_deterministic_rows(self, grid16, bank16):
        u0 = make_random_field(grid16, 3, {0: 0.2, 1: 0.1})
        params = SolverParams(nu=0.2, dt=1e-3, t_end=0.05, diag_every=10)
        r1 = simulate(u0, params, bank16)
        r2 = simulate(u0, params, bank16)
        assert r1.rows == r2.rows
        assert np.array_equal(r1.final.coeffs, r2.final.coeffs)

    def test_full_fraction_march_keeps_a_real_field(self):
        """At dealias = 1 every state of the march is a real field to round-off:
        the block holds no mode |k_i| = n/2, where the projection would pair
        a mode with a partner of another k stored at the same index."""
        grid = GridSpec(32, 1.0)
        params = SolverParams(nu=0.05, dt=1e-3, t_end=0.01, diag_every=10)
        ratios = []

        def residual(i, u):
            ratios.append(hermitian_residual(u) / float(np.max(np.abs(u.coeffs))))

        simulate(random_solenoidal_field(grid, 3), params, on_step=residual)
        assert len(ratios) == 11 and max(ratios) <= 1e-12

    def test_divergence_free_preserved_on_snapshots(self, grid32, bank32):
        params = SolverParams(nu=0.1, dt=1e-3, t_end=0.05, diag_every=10)
        snapshots = []

        def keep(i, u):
            if i % 10 == 0:
                snapshots.append(u.copy())  # u is valid only during the call

        simulate(make_taylor_green(grid32, 1.0), params, bank32, keep)
        assert snapshots
        for field in snapshots:
            assert divergence_residual(field) < 1e-10

    def test_on_step_sees_every_accepted_state(self, grid16, bank16):
        u0 = make_random_field(grid16, 3, {0: 0.2, 1: 0.1})
        before = u0.coeffs.tobytes()
        params = SolverParams(nu=0.2, dt=1e-3, t_end=6e-3, diag_every=2)
        seen = []
        res = simulate(u0, params, bank16, lambda i, u: seen.append((i, u.time, u)))
        assert [i for i, _, _ in seen] == list(range(7))
        assert [t for _, t, _ in seen] == [i * 1e-3 for i in range(7)]
        assert seen[0][2] is u0 and seen[-1][2] is res.final
        assert u0.coeffs.tobytes() == before

    def test_no_state_outlives_the_hook(self, grid16, bank16):
        """Only the caller's u0 and result.final stay alive: the march copies no state."""
        u0 = make_random_field(grid16, 3, {0: 0.2, 1: 0.1})
        refs = []
        res = simulate(u0, SolverParams(nu=0.2, dt=1e-3, t_end=6e-3), bank16,
                       lambda i, u: refs.append(weakref.ref(u)))
        gc.collect()
        assert len(refs) == 7
        assert refs[0]() is u0 and refs[-1]() is res.final
        assert all(ref() is None for ref in refs[1:-1])

    def test_zero_end_time_returns_u0(self, grid16, bank16):
        u0 = make_random_field(grid16, 3, {0: 0.2})
        seen = []
        res = simulate(u0, SolverParams(nu=0.2, dt=1e-3, t_end=0.0), bank16,
                       lambda i, u: seen.append(i))
        assert res.final is u0 and seen == [0] and len(res.rows) == 1

    def test_rejects_aliased_initial_data(self, grid16, bank16):
        u = single_mode_field(grid16, (7, 0, 0), (0, 1.0, 0))
        params = SolverParams(nu=1.0, dt=1e-3, t_end=0.01)
        with pytest.raises(ConfigurationError):
            simulate(u, params, bank16)

    def test_rejects_nonsolenoidal_initial_data(self, grid16, bank16):
        u = single_mode_field(grid16, (1, 0, 0), (1.0, 0, 0), solenoidal=False)
        params = SolverParams(nu=1.0, dt=1e-3, t_end=0.01)
        with pytest.raises(InvariantViolation):
            simulate(u, params, bank16)

    def test_rejects_nonfinite_initial_data(self, grid16, bank16):
        u = single_mode_shear(grid16)
        u.coeffs[0, 1, 1, 0] = np.nan
        u.coeffs[0, -1, -1, 0] = np.nan
        params = SolverParams(nu=1.0, dt=1e-3, t_end=0.01)
        with pytest.raises(InvariantViolation):
            simulate(u, params, bank16)

    def test_divergence_error_reports_last_good_time(self, grid16, bank16, monkeypatch):
        """A NaN produced mid-run stops the march with the last good time, the
        state's own time whatever time the run started from."""
        import lpns.solver as solver_mod

        real_step = solver_mod.step
        count = {"n": 0}

        def poisoned(u, params, **kwargs):
            out = real_step(u, params, **kwargs)
            count["n"] += 1
            if count["n"] == 3:
                out.coeffs[0, 1, 0, 0] = np.nan
            return out

        monkeypatch.setattr(solver_mod, "step", poisoned)
        params = SolverParams(nu=1.0, dt=1e-3, t_end=0.01)
        for t0 in (0.0, 0.5):
            count["n"] = 0
            u0 = single_mode_shear(grid16)
            u0.time = t0
            with pytest.raises(DivergenceError) as err:
                simulate(u0, params, bank16)
            partial = err.value.result
            assert err.value.last_good_time == partial.final.time
            assert partial.final.time == pytest.approx(t0 + 2e-3)
            assert f"last good time {t0 + 2e-3:g}" in str(err.value)
            assert [row.t for row in partial.rows] == pytest.approx([t0, t0 + 1e-3, t0 + 2e-3])
            assert np.all(np.isfinite(partial.final.coeffs.view(np.float64)))

    def test_on_step_stops_at_the_last_accepted_step(self, grid16, bank16, monkeypatch):
        import lpns.solver as solver_mod

        real_step = solver_mod.step
        count = {"n": 0}

        def failing(u, params, **kwargs):
            count["n"] += 1
            if count["n"] == 3:
                raise StepSizeError("dt violates the CFL bound", admissible_dt=1e-4)
            return real_step(u, params, **kwargs)

        monkeypatch.setattr(solver_mod, "step", failing)
        seen = []
        with pytest.raises(StepSizeError) as err:
            simulate(single_mode_shear(grid16), SolverParams(nu=1.0, dt=1e-3, t_end=0.01),
                     bank16, lambda i, u: seen.append((i, u)))
        assert [i for i, _ in seen] == [0, 1, 2]
        assert err.value.result.final is seen[-1][1]

    def test_one_workspace_per_run(self, grid16, bank16, monkeypatch):
        import lpns.solver as solver_mod

        real_step = solver_mod.step
        seen = []

        def recording(u, params, **kwargs):
            seen.append(kwargs["_work"])
            return real_step(u, params, **kwargs)

        monkeypatch.setattr(solver_mod, "step", recording)
        simulate(make_taylor_green(grid16, 1.0), SolverParams(nu=0.1, dt=1e-3, t_end=3e-3), bank16)
        assert len(seen) == 3 and all(work is seen[0] for work in seen)
        acc, a, b, c, stage = seen[0]
        lo, hi, depth = _dealias_block(16, grid16.k_max)[0]
        assert acc.shape == a.shape == b.shape == c.shape == (3, lo + hi, lo + hi, depth) == (3, 11, 11, 6)
        assert stage.shape == (3, *grid16.spectral_shape)
        owner = acc.base
        assert owner is not None and all(buffer.base is owner for buffer in (a, b, c, stage))
        assert owner.nbytes == acc.nbytes + a.nbytes + b.nbytes + c.nbytes + stage.nbytes

    @pytest.mark.parametrize("fraction", [2.0 / 3.0, 0.5, 1.0])
    @pytest.mark.parametrize("diag_every", [1, 3])
    def test_march_equals_direct_steps_bit_for_bit(self, fraction, diag_every):
        """The march keeps each state in its workspace.  Its rows, the states its
        hook sees and final equal a march of direct steps, byte for byte."""
        grid = GridSpec(16, fraction)
        bank = build_filter_bank(grid)
        u0 = random_solenoidal_field(grid, 5, 3.0)
        params = SolverParams(nu=0.05, dt=1e-3, t_end=7e-3, diag_every=diag_every)
        seen = []
        res = simulate(u0, params, bank, lambda i, u: seen.append((u.time, u.coeffs.tobytes())))
        u, rows, states = u0, [_sample_row(u0, bank, params.nu)], [(u0.time, u0.coeffs.tobytes())]
        for i in range(1, 8):
            u = step(u, params)
            states.append((u.time, u.coeffs.tobytes()))
            if i % diag_every == 0:
                rows.append(_sample_row(u, bank, params.nu))
        assert [row_bytes(row) for row in res.rows] == [row_bytes(row) for row in rows]
        assert seen == states
        assert (res.final.time, res.final.coeffs.tobytes()) == states[-1]

    @pytest.mark.parametrize("bad_step", [1, 3])
    def test_divergence_error_keeps_the_last_good_state(self, grid16, bank16, monkeypatch,
                                                        bad_step):
        """A step that fails leaves final bit-equal to the state before it: u0
        itself at step 1, later rebuilt from the block the failed step cut."""
        import lpns.solver as solver_mod

        u0 = random_solenoidal_field(grid16, 6, 3.0)
        params = SolverParams(nu=0.05, dt=1e-3, t_end=5e-3)
        expected = u0
        for _ in range(bad_step - 1):
            expected = step(expected, params)
        real_step = solver_mod.step
        calls = []

        def poisoned(u, params, **kwargs):
            out = real_step(u, params, **kwargs)
            calls.append(out)
            if len(calls) == bad_step:
                out.coeffs[...] = np.nan  # inside the block and outside it
            return out

        monkeypatch.setattr(solver_mod, "step", poisoned)
        with pytest.raises(DivergenceError) as err:
            simulate(u0, params, bank16)
        final = err.value.result.final
        assert final.coeffs.tobytes() == expected.coeffs.tobytes()
        assert final.time == expected.time == err.value.last_good_time
        assert (final is u0) == (bad_step == 1)
        assert len(err.value.result.rows) == bad_step

    @pytest.mark.parametrize("n", [32, 64])
    def test_march_peak_allocation_at_most_five_and_three_quarter_velocity_arrays(self, n):
        """The march allocates its workspace once and no state per step, so it
        peaks at the workspace and one row, about 5.4 velocity arrays.  A march
        that allocated each new state beside the old one peaked at 6.1 to 6.2."""
        grid = GridSpec(n)
        bank = build_filter_bank(grid)
        u0 = make_random_field(grid, 1, {0: 0.3, 1: 0.2, 2: 0.1, 3: 0.05})
        params = SolverParams(nu=0.05, dt=1e-3, t_end=3e-3)
        simulate(u0, params, bank)  # fills the lattice, block and factor caches
        assert peak_allocation(lambda: simulate(u0, params, bank)) <= 5.75 * u0.coeffs.nbytes

    def test_t_end_must_be_step_multiple(self, grid16, bank16):
        params = SolverParams(nu=1.0, dt=3e-3, t_end=0.01)
        with pytest.raises(ConfigurationError):
            simulate(single_mode_shear(grid16), params, bank16)


class TestEnergyBalance:
    def test_pure_viscous_single_mode(self, grid16, bank16):
        """FD energy rate against 2 nu enstrophy on an exact decay solution."""
        u = single_mode_shear(grid16)
        params = SolverParams(nu=0.1, dt=1e-3, t_end=0.1, diag_every=1)
        res = simulate(u, params, bank16)
        assert energy_balance_residual(res) < 1e-8
        exact = energy(u) * math.exp(-2.0 * 0.1 * 0.1)
        assert res.rows[-1].energy == pytest.approx(exact, rel=1e-10)

    def test_taylor_green(self, grid32, bank32):
        params = SolverParams(nu=0.1, dt=1e-3, t_end=0.1, diag_every=1)
        res = simulate(make_taylor_green(grid32, 1.0), params, bank32)
        assert energy_balance_residual(res) < 1e-5

    def test_zero_trajectory(self, grid16, bank16):
        params = SolverParams(nu=1.0, dt=1e-2, t_end=0.05, diag_every=1)
        res = simulate(zero_velocity(grid16), params, bank16)
        assert energy_balance_residual(res) == 0.0

    def test_too_few_rows(self, grid16, bank16):
        params = SolverParams(nu=1.0, dt=1e-2, t_end=0.01, diag_every=1)
        res = simulate(zero_velocity(grid16), params, bank16)
        with pytest.raises(ShellRangeError):
            energy_balance_residual(res)


class TestDiagnosticsRow:
    """Trajectory rows and flux reports come from one shell evaluation."""

    def test_row_equals_report_bit_for_bit(self, grid32, bank32):
        u = random_solenoidal_field(grid32, 11)
        nu = 0.1
        row = _sample_row(u, bank32, nu)
        report = shell_flux_report(u, bank32, DIAG_EXPONENT, nu)
        assert DIAG_EXPONENT == 1.5
        assert row.y == report.riccati.y
        assert row.riccati_lhs == report.riccati.lhs
        assert row.riccati_rhs == report.riccati.rhs
        assert (row.A, row.B, row.C) == (report.trisums.A, report.trisums.B, report.trisums.C)
        assert row.flux_sum == report.flux_sum
        assert row.shell_energies == report.shell_energies

    @pytest.mark.parametrize("n", [32, 64])
    def test_row_peak_allocation_at_most_four_velocity_arrays(self, n):
        """A row streams the product tensor instead of stacking it."""
        grid = GridSpec(n)
        u = random_solenoidal_field(grid, 1)
        bank = build_filter_bank(grid)
        _sample_row(u, bank, 0.1)
        assert peak_allocation(lambda: _sample_row(u, bank, 0.1)) <= 4 * u.coeffs.nbytes

    def test_transforms_per_row(self, grid32, bank32):
        """9 for the product tensor and 3 per shell field, as the cost model pins."""
        u = random_solenoidal_field(grid32, 2)
        assert count_transforms(lambda: _sample_row(u, bank32, 0.1)) == 9 + 3 * bank32.n_shells == 27

    def test_four_shell_sums_per_row_and_per_report(self, grid16, bank16, monkeypatch):
        calls = []
        original = FilterBank.shell_sum

        def counting(self, density, **kwargs):
            calls.append(kwargs.get("squared", True))
            return original(self, density, **kwargs)

        monkeypatch.setattr(FilterBank, "shell_sum", counting)
        u = random_solenoidal_field(grid16, 2)
        _sample_row(u, bank16, 0.1)
        assert calls == [True, True, True, False]
        calls.clear()
        shell_flux_report(u, bank16, 1.5, 0.1)
        assert calls == [True, True, True, False]
