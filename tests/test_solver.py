import math

import numpy as np
import pytest

from lpns.errors import (
    ConfigurationError,
    DivergenceError,
    InvariantViolation,
    ShellRangeError,
    StepSizeError,
)
from lpns.solver import (
    SolverParams,
    energy_balance_residual,
    simulate,
    step,
)
from lpns.spectral import (
    divergence_residual,
    energy,
    make_random_field,
    make_taylor_green,
    zero_velocity,
)

from conftest import single_mode_field


def single_mode_shear(grid, amplitude=1.0):
    """u = (0, a sin x, 0): an exact heat-equation solution (no self-advection)."""
    u = single_mode_field(grid, (1, 0, 0), (0, -0.5j * amplitude, 0), solenoidal=False)
    return u


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


class TestStep:
    def test_heat_limit_exact(self, grid16):
        """With the nonlinearity off each mode decays by exp(-nu k^2 dt) exactly."""
        u = single_mode_shear(grid16)
        params = SolverParams(nu=1.0, dt=0.1, t_end=1.0, nonlinear_enabled=False)
        out = step(u, params)
        expected = u.coeffs * math.exp(-1.0 * 1.0 * 0.1)
        assert np.array_equal(out.coeffs, expected)
        assert out.time == pytest.approx(0.1)

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

    def test_divergence_free_preserved_on_snapshots(self, grid32, bank32):
        params = SolverParams(nu=0.1, dt=1e-3, t_end=0.05, diag_every=10, snapshot_every=10)
        res = simulate(make_taylor_green(grid32, 1.0), params, bank32)
        assert res.snapshots
        for _, field in res.snapshots:
            assert divergence_residual(field) < 1e-10

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
        """A NaN produced mid-run stops the march with the last good time."""
        import lpns.solver as solver_mod

        real_step = solver_mod.step
        count = {"n": 0}

        def poisoned(u, params):
            out = real_step(u, params)
            count["n"] += 1
            if count["n"] == 3:
                out.coeffs[0, 1, 0, 0] = np.nan
            return out

        monkeypatch.setattr(solver_mod, "step", poisoned)
        params = SolverParams(nu=1.0, dt=1e-3, t_end=0.01)
        with pytest.raises(DivergenceError) as err:
            simulate(single_mode_shear(grid16), params, bank16)
        assert err.value.last_good_time == pytest.approx(2e-3)

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
